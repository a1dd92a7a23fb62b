//! The four in-process workloads: one caller in a closed loop issuing
//! `SessionContext::sql(text).collect()` + `render_rows`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparkline::{Row, SessionCatalog, SessionConfig, SessionContext};
use sparkline_server::render_rows;
use sparkline_storage::{write_table, DiskTable, WriterOptions};

use crate::checker::check_reply;
use crate::layers::{local_isolated, set_count_metrics, set_subtree_metrics, OpCounts, Pieces};
use crate::metrics::{Metrics, RunResult};
use crate::pipeline::{physical_plan, subtree_millis, traced_op};
use crate::stats::{hash_lines, mean, median, peak_rss_mb};
use crate::trace::Tracer;
use crate::workload::{table_name, to_points, InprocSpec};
use crate::RunArgs;

/// How often set-up is run in one timed run; `setup_s` is the median.
pub const SETUPS_PER_RUN: usize = 3;

/// A set-up workload. Dropping it removes the SPKB files it wrote.
struct Env {
    ctx: SessionContext,
    files: Vec<PathBuf>,
}

impl Drop for Env {
    fn drop(&mut self) {
        for path in &self.files {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One op: SQL text in, rendered result lines out.
pub fn run_op(ctx: &SessionContext, sql: &str) -> sparkline::Result<Vec<String>> {
    Ok(render_rows(&ctx.sql(sql)?.collect()?))
}

/// Datagen, registration (or SPKB write + open), and one warm-up op per
/// query, whose replies are what the checker verifies row by row.
fn set_up(
    spec: &InprocSpec,
    args: &RunArgs,
    nth: usize,
) -> sparkline::Result<(Env, Vec<Vec<String>>)> {
    let mut env = Env {
        ctx: SessionContext::with_config(SessionConfig::default()),
        files: Vec::new(),
    };
    for (i, rows) in spec.generate(args.seed).into_iter().enumerate() {
        let table = table_name(i);
        env.ctx.register_table(&table, spec.table.schema(), rows)?;
        if spec.on_disk {
            std::fs::create_dir_all(&args.out_dir).map_err(|e| {
                sparkline::Error::execution(format!("create {:?}: {e}", args.out_dir))
            })?;
            let path = args.out_dir.join(format!(
                "{}-{}-{}-{nth}-{table}.spkb",
                spec.name,
                args.seed,
                std::process::id()
            ));
            env.files.push(path.clone());
            env.ctx.copy_table_to_disk(&table, &path)?;
            env.ctx.deregister_table(&table);
            env.ctx.register_disk_table(&table, &path)?;
        }
    }
    let first = spec
        .queries
        .iter()
        .map(|q| run_op(&env.ctx, &q.sql))
        .collect::<sparkline::Result<_>>()?;
    Ok((env, first))
}

/// Check each query's first reply against the definition; returns which
/// queries were answered wrongly.
fn wrong_queries(spec: &InprocSpec, tables: &[Vec<Row>], first: &[Vec<String>]) -> Vec<bool> {
    let points: Vec<_> = tables.iter().map(|rows| to_points(rows)).collect();
    spec.queries
        .iter()
        .zip(first)
        .map(
            |(q, reply)| match check_reply(&points[q.table], q.filter.as_ref(), &q.dirs, reply) {
                Ok(()) => false,
                Err(why) => {
                    eprintln!("{}: wrong answer to `{}`: {why}", spec.name, q.sql);
                    true
                }
            },
        )
        .collect()
}

/// Ops per query that matched the verified first reply, and ops issued.
#[derive(Default, Clone, Copy)]
struct Tally {
    issued: u64,
    matched: u64,
}

fn failed_ops(tallies: &[Tally], wrong: &[bool]) -> u64 {
    tallies
        .iter()
        .zip(wrong)
        .map(|(t, &w)| if w { t.issued } else { t.issued - t.matched })
        .sum()
}

pub fn run_timed(spec: &InprocSpec, args: &RunArgs) -> sparkline::Result<RunResult> {
    let t = Instant::now();
    let (env, first) = set_up(spec, args, 0)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let expected: Vec<(usize, u64)> = first.iter().map(|l| (l.len(), hash_lines(l))).collect();

    let budget = Duration::from_secs_f64(args.seconds);
    let mut tallies = vec![Tally::default(); spec.queries.len()];
    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let q = latencies_ms.len() % spec.queries.len();
        let t = Instant::now();
        let reply = run_op(&env.ctx, &spec.queries[q].sql);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // The clock has stopped: compare with the first reply.
        tallies[q].issued += 1;
        match reply {
            Ok(lines) if (lines.len(), hash_lines(&lines)) == expected[q] => {
                tallies[q].matched += 1
            }
            Ok(_) => {}
            Err(e) => eprintln!("{}: op failed: {e}", spec.name),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    drop(env);

    let t = Instant::now();
    let wrong = wrong_queries(spec, &spec.generate(args.seed), &first);
    let verify_s = t.elapsed().as_secs_f64();

    for nth in 1..SETUPS_PER_RUN {
        let t = Instant::now();
        let again = set_up(spec, args, nth)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(again);
    }

    let mut result = RunResult {
        attempted: latencies_ms.len() as u64,
        failed: failed_ops(&tallies, &wrong),
        ..RunResult::default()
    };
    let p50 = median(&latencies_ms);
    let m = &mut result.metrics;
    m.set("setup_s", median(&setups));
    m.set("op_p50_ms", p50);
    m.set("ops_per_s", latencies_ms.len() as f64 / wall_s);
    m.set("peak_rss_mb", peak_rss);
    // Every op of an in-process workload is a read that re-issues a
    // warmed text and runs the whole pipeline: there is one class, so the
    // per-class medians are the all-ops median.
    for class in ["hit_p50_ms", "miss_p50_ms", "mutation_p50_ms"] {
        m.set(class, p50);
    }
    result
        .notes
        .push(("verify_s".into(), format!("{verify_s:.3}")));
    result.notes.push((
        "samples".into(),
        format!("{} ops in {wall_s:.2} s", latencies_ms.len()),
    ));
    Ok(result)
}

/// The counts of each query of the workload's cycle, from one execution
/// each — also what the determinism test compares across runs.
pub fn cycle_counts(spec: &InprocSpec, args: &RunArgs) -> sparkline::Result<Vec<OpCounts>> {
    let (env, _) = set_up(spec, args, 0)?;
    spec.queries
        .iter()
        .map(|q| Ok(OpCounts::of(&env.ctx.sql(&q.sql)?.collect()?)))
        .collect()
}

/// `storage.*`: write, open, read and decode timed by direct calls.
fn storage_layer(
    spec: &InprocSpec,
    rows: &[Row],
    args: &RunArgs,
    reps: usize,
    m: &mut Metrics,
) -> sparkline::Result<()> {
    let config = SessionConfig::default();
    let path = args.out_dir.join(format!(
        "{}-{}-{}-layer.spkb",
        spec.name,
        args.seed,
        std::process::id()
    ));
    let guard = Env {
        ctx: SessionContext::new(),
        files: vec![path.clone()],
    };
    let mut write_s = Vec::new();
    let mut bytes = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let summary = write_table(
            &path,
            spec.table.schema().into_ref(),
            rows,
            WriterOptions {
                block_rows: config.storage_block_rows,
                sample_cap: config.sample_size,
                sample_seed: config.sample_seed,
            },
        )?;
        write_s.push(t.elapsed().as_secs_f64());
        bytes = summary.bytes;
    }
    m.set(
        "storage.write_mb_per_s",
        bytes as f64 / 1e6 / median(&write_s),
    );
    m.set("storage.bytes_per_row", bytes as f64 / rows.len() as f64);
    let mut open_ms = Vec::new();
    for _ in 0..reps.max(5) {
        let t = Instant::now();
        std::hint::black_box(DiskTable::open(&path)?);
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.set("storage.open_ms", median(&open_ms));
    let table = DiskTable::open(&path)?;
    let (mut read_us, mut decode_us) = (Vec::new(), Vec::new());
    for i in 0..table.num_blocks() {
        let t = Instant::now();
        std::hint::black_box(table.read_block_raw(i)?);
        read_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(table.decode_block(i)?);
        decode_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set("storage.read_block_us", median(&read_us));
    m.set("storage.decode_block_us", median(&decode_us));
    drop(guard);
    Ok(())
}

/// The traced run: half the time alternating untraced ops (timed in three
/// pieces, no spans) with ops run as the explicit six-call pipeline, then
/// the measurements marked `derived`.
pub fn run_traced(spec: &InprocSpec, args: &RunArgs) -> sparkline::Result<RunResult> {
    let config = SessionConfig::default();
    let (env, first) = set_up(spec, args, 0)?;
    let tables = spec.generate(args.seed);
    let mut catalog = SessionCatalog::new();
    for (i, rows) in tables.iter().enumerate() {
        match env.files.get(i) {
            Some(path) => {
                catalog.register_disk_table(table_name(i), Arc::new(DiskTable::open(path)?))
            }
            None => catalog.register_table(table_name(i), spec.table.schema(), rows.clone())?,
        }
    }

    let mut tracer = Tracer::default();
    let mut tallies = vec![Tally::default(); spec.queries.len()];
    let mut pieces = Pieces::default();
    let mut counts: Vec<Option<OpCounts>> = vec![None; spec.queries.len()];
    let budget = Duration::from_secs_f64(args.seconds * 0.5);
    let start = Instant::now();
    let mut pair = 0;
    while start.elapsed() < budget {
        let q = pair % spec.queries.len();
        let sql = &spec.queries[q].sql;
        pair += 1;

        let (lines, op_counts) = pieces.run(&env.ctx, sql)?;
        tallies[q].issued += 1;
        tallies[q].matched += u64::from(lines == first[q]);
        counts[q] = Some(op_counts);

        // The traced pipeline must return the same bytes.
        let traced = traced_op(&mut tracer, &catalog, &config, sql)?;
        tallies[q].issued += 1;
        tallies[q].matched += u64::from(traced == first[q]);
    }
    let wrong = wrong_queries(spec, &tables, &first);

    let mut result = RunResult {
        attempted: tallies.iter().map(|t| t.issued).sum(),
        failed: failed_ops(&tallies, &wrong),
        ..RunResult::default()
    };
    let m = &mut result.metrics;
    pieces.set_metrics(&tracer, m);
    let counts: Vec<OpCounts> = counts.into_iter().flatten().collect();
    set_count_metrics(&counts, m);

    // Derived: sub-tree times, mean over the cycle of per-query medians.
    let reps = if args.seconds >= 5.0 { 3 } else { 2 };
    let mut subtrees = Vec::new();
    for q in &spec.queries {
        let s = subtree_millis(&physical_plan(&catalog, &config, &q.sql)?, &config, reps)?;
        result.notes.push((
            format!("sub-trees of `{}`", q.sql),
            format!(
                "input {:.2} ms, local {:.2} ms, root {:.2} ms",
                s.scan, s.local, s.root
            ),
        ));
        subtrees.push(s);
    }
    set_subtree_metrics(&subtrees, m);

    let isolated: Vec<(f64, u64)> = tables
        .iter()
        .map(|rows| {
            local_isolated(
                spec.table.dims,
                spec.table.null_share > 0.0,
                rows,
                reps.div_ceil(spec.tables),
            )
        })
        .collect();
    let isolated_ms = mean(&isolated.iter().map(|(ms, _)| *ms).collect::<Vec<_>>());
    let isolated_tests = mean(
        &isolated
            .iter()
            .map(|(_, tests)| *tests as f64)
            .collect::<Vec<_>>(),
    );
    m.set("skyline.local_isolated_ms", isolated_ms);
    m.set("skyline.ns_per_test", isolated_ms * 1e6 / isolated_tests);
    if spec.on_disk {
        storage_layer(spec, &tables[0], args, reps, m)?;
    }

    result.notes.push((
        "samples".into(),
        format!("{pair} untraced + {pair} traced ops; sub-trees x{reps}"),
    ));
    let path = args.out_dir.join(format!("{}.trace.json", spec.name));
    tracer
        .write(&path, spec.name, args.seed, &result.metrics)
        .map_err(|e| sparkline::Error::execution(format!("write {path:?}: {e}")))?;
    Ok(result)
}
