//! The explicit pipeline of the traced run: the six public calls that
//! `SessionContext::sql(..).collect()` plus `render_rows` make, issued one
//! by one over a benchmark-owned catalog so each can be timed from outside.

use std::sync::Arc;
use std::time::Instant;

use sparkline::{SessionCatalog, SessionConfig};
use sparkline_analyzer::Analyzer;
use sparkline_exec::{Deadline, QueryControl, TaskContext};
use sparkline_optimizer::Optimizer;
use sparkline_parser::parse_query;
use sparkline_physical::{planner, ExecutionPlan, PhysicalPlanner};
use sparkline_server::protocol::render_plain_rows;

use crate::stats::median;
use crate::trace::{Tracer, PIPELINE};

/// Root span of one traced in-process op.
pub const OP: &str = "op";

/// The per-query context `SessionContext` builds from its configuration
/// (no fault injection: the benchmark runs with the default `fault_rate` 0).
pub fn task_context(config: &SessionConfig) -> TaskContext {
    TaskContext::new(config.num_executors)
        .with_control(QueryControl::new(Deadline::new(config.timeout)))
        .with_retry_policy(config.max_retries, config.retry_backoff)
        .with_memory_budget(config.memory_budget)
        .with_batch_size(config.batch_size)
        .with_materialized(!config.streaming_execution)
}

/// SQL text → physical plan, untimed (for the sub-tree measurements).
pub fn physical_plan(
    catalog: &SessionCatalog,
    config: &SessionConfig,
    sql: &str,
) -> sparkline::Result<Arc<dyn ExecutionPlan>> {
    let analyzed = Analyzer::new(catalog).analyze(&parse_query(sql)?)?;
    let optimized = Optimizer::new(config)
        .with_catalog(catalog)
        .optimize(&analyzed)?;
    PhysicalPlanner::new(config, catalog).create(&optimized)
}

/// One op as six spans under a root span; returns the rendered lines.
pub fn traced_op(
    tracer: &mut Tracer,
    catalog: &SessionCatalog,
    config: &SessionConfig,
    sql: &str,
) -> sparkline::Result<Vec<String>> {
    let op = tracer.new_op();
    let start = tracer.now_ns();
    let [parse, analyze, optimize, plan, collect, render] = PIPELINE;
    let parsed = tracer.span(op, parse, Some(OP), || parse_query(sql))?;
    let analyzed = tracer.span(op, analyze, Some(OP), || {
        Analyzer::new(catalog).analyze(&parsed)
    })?;
    let optimized = tracer.span(op, optimize, Some(OP), || {
        Optimizer::new(config)
            .with_catalog(catalog)
            .optimize(&analyzed)
    })?;
    let physical = tracer.span(op, plan, Some(OP), || {
        PhysicalPlanner::new(config, catalog).create(&optimized)
    })?;
    let rows = tracer.span(op, collect, Some(OP), || {
        planner::collect(&physical, &task_context(config))
    })?;
    let lines = tracer.span(op, render, Some(OP), || render_plain_rows(&rows));
    tracer.record(op, OP, None, start);
    Ok(lines)
}

/// Median wall time in ms of three sub-trees of one plan: the input of
/// the local skyline operator, the local skyline operator, the root.
pub struct SubtreeMillis {
    pub scan: f64,
    pub local: f64,
    pub root: f64,
}

fn find<'a>(plan: &'a Arc<dyn ExecutionPlan>, name: &str) -> Option<&'a Arc<dyn ExecutionPlan>> {
    if plan.name() == name {
        return Some(plan);
    }
    plan.children().into_iter().find_map(|c| find(c, name))
}

/// Pull every batch of every partition, one thread per partition, and
/// drop it — how the local skyline operator consumes its input.
/// `execute()` would also keep every row, which for a 1M-row scan costs
/// more than the skyline above it.
fn drain_streams(node: &Arc<dyn ExecutionPlan>, ctx: &TaskContext) -> sparkline::Result<usize> {
    let streams = node.execute_stream(ctx)?;
    std::thread::scope(|scope| {
        let pulls: Vec<_> = streams
            .into_iter()
            .map(|mut stream| {
                scope.spawn(move || -> sparkline::Result<usize> {
                    let mut rows = 0;
                    while let Some(batch) = stream.next_batch()? {
                        rows += batch.len();
                    }
                    Ok(rows)
                })
            })
            .collect();
        pulls
            .into_iter()
            .map(|p| p.join().expect("a stream-pulling thread panicked"))
            .sum()
    })
}

pub fn subtree_millis(
    plan: &Arc<dyn ExecutionPlan>,
    config: &SessionConfig,
    reps: usize,
) -> sparkline::Result<SubtreeMillis> {
    let local = find(plan, "LocalSkylineExec").ok_or_else(|| {
        sparkline::Error::internal("the workload's plan has no LocalSkylineExec to time")
    })?;
    let scan = local.children()[0];
    // One rep times all three in turn, so a drift of the machine's speed
    // during the measurement reaches the three medians alike.
    let time = |run: &dyn Fn(&TaskContext) -> sparkline::Result<usize>| -> sparkline::Result<f64> {
        let ctx = task_context(config);
        let t = Instant::now();
        std::hint::black_box(run(&ctx)?);
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    let (mut scan_ms, mut local_ms, mut root_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        scan_ms.push(time(&|ctx| drain_streams(scan, ctx))?);
        local_ms.push(time(&|ctx| Ok(local.execute(ctx)?.len()))?);
        root_ms.push(time(&|ctx| Ok(plan.execute(ctx)?.len()))?);
    }
    Ok(SubtreeMillis {
        scan: median(&scan_ms),
        local: median(&local_ms),
        root: median(&root_ms),
    })
}
