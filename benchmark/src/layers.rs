//! What the two traced runs share: the untraced op timed in its three
//! public calls, the counts of one op, and how both become layer metrics.

use std::time::Instant;

use sparkline::{QueryResult, Row, SessionContext};
use sparkline_exec::MetricsSnapshot;
use sparkline_server::render_rows;
use sparkline_skyline::{BnlBuilder, DominanceChecker, GroupedBnlBuilder};

use crate::metrics::Metrics;
use crate::pipeline::{SubtreeMillis, OP};
use crate::stats::{mean, median, tail_percentile};
use crate::trace::{Tracer, PIPELINE};

/// The deterministic counts of one op, from `QueryResult`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpCounts {
    pub metrics: MetricsSnapshot,
    pub peak_memory_bytes: usize,
    pub result_rows: usize,
}

impl OpCounts {
    pub fn of(result: &QueryResult) -> OpCounts {
        OpCounts {
            metrics: result.metrics,
            peak_memory_bytes: result.peak_memory_bytes,
            result_rows: result.num_rows(),
        }
    }
}

/// Untraced ops of a traced run: no spans, but the clock is read between
/// `SessionContext::sql`, `DataFrame::collect` and `render_rows`.
#[derive(Debug, Default)]
pub struct Pieces {
    sql_us: Vec<f64>,
    collect_ms: Vec<f64>,
    engine_elapsed_ms: Vec<f64>,
    pub op_ms: Vec<f64>,
}

impl Pieces {
    pub fn run(
        &mut self,
        ctx: &SessionContext,
        sql: &str,
    ) -> sparkline::Result<(Vec<String>, OpCounts)> {
        let t0 = Instant::now();
        let frame = ctx.sql(sql)?;
        let t1 = Instant::now();
        let result = frame.collect()?;
        let t2 = Instant::now();
        let lines = render_rows(&result);
        let t3 = Instant::now();
        self.sql_us.push((t1 - t0).as_secs_f64() * 1e6);
        self.collect_ms.push((t2 - t1).as_secs_f64() * 1e3);
        self.op_ms.push((t3 - t0).as_secs_f64() * 1e3);
        self.engine_elapsed_ms
            .push(result.elapsed.as_secs_f64() * 1e3);
        Ok((lines, OpCounts::of(&result)))
    }

    /// `core.*` from the pieces; `parser.*` .. `server.render_us` and
    /// `trace.*` from the spans of the same ops run as the explicit pipeline.
    pub fn set_metrics(&self, tracer: &Tracer, m: &mut Metrics) {
        m.set("core.sql_us", median(&self.sql_us));
        m.set("core.collect_ms", median(&self.collect_ms));
        m.set("core.engine_elapsed_ms", median(&self.engine_elapsed_ms));
        m.set("core.op_p90_ms", tail_percentile(&self.op_ms, 0.9));
        let [parse, analyze, optimize, plan, _collect, render] = PIPELINE;
        let us = |name: &str| median(&tracer.millis_of(name)) * 1e3;
        m.set("parser.parse_us", us(parse));
        m.set("analyzer.analyze_us", us(analyze));
        m.set("optimizer.optimize_us", us(optimize));
        m.set("physical.plan_us", us(plan));
        m.set("server.render_us", us(render));
        let untraced_p50 = median(&self.op_ms);
        m.set(
            "trace.overhead_share",
            (median(&tracer.millis_of(OP)) - untraced_p50) / untraced_p50,
        );
        m.set("trace.span_coverage", tracer.span_coverage(OP));
    }
}

/// `exec.*`, `skyline.*` and `storage.*` counts: the mean over `counts`
/// (one cycle of an in-process workload's queries, or every replayed miss
/// of `served_mix`). They repeat exactly, `peak_rows_in_flight` excepted.
pub fn set_count_metrics(counts: &[OpCounts], m: &mut Metrics) {
    let avg = |f: &dyn Fn(&OpCounts) -> f64| mean(&counts.iter().map(f).collect::<Vec<_>>());
    let scanned = avg(&|c| c.metrics.rows_scanned as f64);
    let exchanged = avg(&|c| c.metrics.rows_exchanged as f64);
    let tests = avg(&|c| c.metrics.dominance_tests as f64);
    let result_rows = avg(&|c| c.result_rows as f64);
    let blocks_read = avg(&|c| c.metrics.blocks_read as f64);
    let skipped_minmax = avg(&|c| c.metrics.blocks_skipped_minmax as f64);
    let skipped_dominance = avg(&|c| c.metrics.blocks_skipped_dominance as f64);
    let blocks = blocks_read + skipped_minmax + skipped_dominance;
    m.set("exec.rows_scanned", scanned);
    m.set("exec.rows_exchanged", exchanged);
    m.set(
        "exec.batches_emitted",
        avg(&|c| c.metrics.batches_emitted as f64),
    );
    m.set(
        "exec.peak_rows_in_flight",
        avg(&|c| c.metrics.peak_rows_in_flight as f64),
    );
    m.set(
        "exec.peak_tracked_bytes",
        avg(&|c| c.peak_memory_bytes as f64),
    );
    m.set(
        "exec.prefilter_rows_dropped",
        avg(&|c| c.metrics.prefilter_rows_dropped as f64),
    );
    m.set(
        "exec.partitions_pruned",
        avg(&|c| c.metrics.partitions_pruned as f64),
    );
    m.set("exec.merge_rounds", avg(&|c| c.metrics.merge_rounds as f64));
    m.set(
        "exec.retries_attempted",
        avg(&|c| c.metrics.retries_attempted as f64),
    );
    m.set(
        "exec.degraded_paths",
        avg(&|c| c.metrics.degraded_paths as f64),
    );
    m.set("skyline.dominance_tests", tests);
    m.set("skyline.simd_tests", avg(&|c| c.metrics.simd_tests as f64));
    m.set("skyline.max_window", avg(&|c| c.metrics.max_window as f64));
    m.set("skyline.result_rows", result_rows);
    m.set("skyline.tests_per_row", tests / scanned);
    m.set("skyline.global_survivor_share", result_rows / exchanged);
    m.set("storage.blocks_read", blocks_read);
    m.set("storage.blocks_skipped_minmax", skipped_minmax);
    m.set("storage.blocks_skipped_dominance", skipped_dominance);
    m.set(
        "storage.bytes_decoded",
        avg(&|c| c.metrics.bytes_decoded as f64),
    );
    m.set(
        "storage.skip_share",
        (skipped_minmax + skipped_dominance) / blocks,
    );
}

/// `physical.scan_ms` / `local_ms` / `merge_ms`: the mean over the timed
/// plans of input, local minus input, root minus local.
pub fn set_subtree_metrics(subtrees: &[SubtreeMillis], m: &mut Metrics) {
    let avg = |f: &dyn Fn(&SubtreeMillis) -> f64| mean(&subtrees.iter().map(f).collect::<Vec<_>>());
    m.set("physical.scan_ms", avg(&|s| s.scan));
    m.set("physical.local_ms", avg(&|s| s.local - s.scan));
    m.set("physical.merge_ms", avg(&|s| s.root - s.local));
}

/// One table's rows through one `BnlBuilder` on one thread (one per
/// NULL pattern, `GroupedBnlBuilder`, when the data is incomplete), all
/// dimensions MIN, in 4096-row batches: (median ms, dominance tests).
pub fn local_isolated(dims: usize, incomplete: bool, rows: &[Row], reps: usize) -> (f64, u64) {
    let dims = (0..dims).map(sparkline_common::SkylineDim::min).collect();
    let skyline = sparkline_common::SkylineSpec::new(dims);
    let mut ms = Vec::new();
    let mut tests = 0;
    for _ in 0..reps {
        let mut input = rows.iter().cloned();
        let mut batches = std::iter::from_fn(|| {
            let batch: Vec<Row> = input.by_ref().take(4096).collect();
            (!batch.is_empty()).then_some(batch)
        });
        let t = Instant::now();
        let stats = if incomplete {
            let mut b = GroupedBnlBuilder::new(DominanceChecker::incomplete(skyline.clone()), true);
            batches.by_ref().for_each(|batch| b.push_batch(batch));
            b.finish().1
        } else {
            let mut b = BnlBuilder::new(DominanceChecker::complete(skyline.clone()), true);
            batches.by_ref().for_each(|batch| b.push_batch(batch));
            b.finish().1
        };
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        tests = stats.dominance_tests;
    }
    (median(&ms), tests)
}
