//! Fault-tolerance suite: real storage faults, enforced memory budgets,
//! and cancellation.
//!
//! The contract under test: a failure the engine cannot recover from —
//! a block file truncated or removed under a registered disk table, a
//! budget the query does not fit, a cancel — ends the query with a clean,
//! typed error, never a panic and never partial rows, and leaves the
//! session answering. Nothing is retried or re-planned: every query runs
//! once. A budget the stream model fits is met on that one run, with
//! byte-identical rows.

mod common;

use std::path::{Path, PathBuf};

use sparkline::{DataType, Error, Field, QueryResult, Schema, SessionConfig, SessionContext};
use sparkline_common::Row;
use sparkline_exec::{stream::breaker_streams, PartitionStream, TaskContext};

const DIMS: usize = 3;

fn run_query(ctx: &SessionContext) -> QueryResult {
    ctx.sql(&common::skyline_sql(DIMS))
        .unwrap()
        .collect()
        .unwrap()
}

fn try_query(ctx: &SessionContext) -> sparkline::Result<QueryResult> {
    ctx.sql(&common::skyline_sql(DIMS))?.collect()
}

/// A block file path unique to this process and `tag`, removed on drop.
struct BlockFile(PathBuf);

impl BlockFile {
    fn new(tag: &str) -> Self {
        BlockFile(
            std::env::temp_dir().join(format!("sparkline-fault-{tag}-{}.spk", std::process::id())),
        )
    }
}

impl Drop for BlockFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Damage a registered disk table's block file with `fault`, at 1 and 4
/// executors, with small batches and with one batch per partition, over
/// complete and NULL-bearing data. The table `src` stays in memory; `t` is
/// its copy on disk, and `mem` holds the file's rows in file order (COPY
/// clusters the rows, so `src`'s order is not the file's). Every block
/// read reopens the file, so the fault reaches the next query:
/// - the skyline over `t` fails with a typed storage error, so no row
///   reaches the caller;
/// - the same session still answers over the in-memory `mem`, byte for
///   byte what `t` answered before the fault;
/// - re-copying `src` over the file restores `t`, byte for byte.
fn damaged_file_fails_typed_and_recopy_recovers(tag: &str, fault: impl Fn(&Path)) {
    const ROWS: usize = 400;
    let sql = common::skyline_sql(DIMS);
    let mem_sql = sql.replace("FROM t", "FROM mem");
    for executors in [1, 4] {
        // Small batches, and one batch per partition.
        for batch_size in [16, ROWS] {
            for with_nulls in [false, true] {
                let case = format!("{tag}-{executors}-{batch_size}-{with_nulls}");
                let rows = common::generate("independent", 7, ROWS, DIMS, with_nulls);
                // A small footer sample keeps the blocks most of the
                // file, so cutting the file in half cuts blocks.
                let config = SessionConfig::new()
                    .with_executors(executors)
                    .with_batch_size(batch_size)
                    .with_storage_block_rows(32)
                    .with_sample_size(8);
                let schema = Schema::new(
                    (0..DIMS)
                        .map(|i| Field::new(format!("d{i}"), DataType::Float64, with_nulls))
                        .collect(),
                );
                let ctx = SessionContext::with_config(config);
                ctx.register_table("src", schema.clone(), rows).unwrap();
                let file = BlockFile::new(&case);
                ctx.copy_table_to_disk("src", &file.0).unwrap();
                ctx.register_disk_table("t", &file.0).unwrap();
                let in_file_order = (sparkline_storage::DiskTable::open(&file.0))
                    .and_then(|table| table.decode_all())
                    .unwrap();
                ctx.register_table("mem", schema, in_file_order).unwrap();
                let before = run_query(&ctx);
                assert!(!before.rows.is_empty(), "{case}");

                fault(&file.0);
                let err = try_query(&ctx).expect_err(&case);
                assert!(
                    matches!(&err, Error::Execution(m) if m.starts_with("storage: ")),
                    "{case}: expected a storage error, got: {err}"
                );

                let in_memory = ctx.sql(&mem_sql).unwrap().collect().unwrap();
                assert_eq!(in_memory.rows, before.rows, "{case}");

                ctx.copy_table_to_disk("src", &file.0).unwrap();
                assert_eq!(run_query(&ctx).rows, before.rows, "{case}");
            }
        }
    }
}

#[test]
fn truncated_disk_file_fails_typed_and_recopy_recovers() {
    damaged_file_fails_typed_and_recopy_recovers("truncated", |path| {
        let len = std::fs::metadata(path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
    });
}

#[test]
fn removed_disk_file_fails_typed_and_recopy_recovers() {
    damaged_file_fails_typed_and_recopy_recovers("removed", |path| {
        std::fs::remove_file(path).unwrap();
    });
}

#[test]
fn impossible_budget_is_a_clean_resource_exhausted_error() {
    let rows = common::generate("correlated", 5, 300, DIMS, false);
    let ctx = common::session_with(
        rows,
        DIMS,
        false,
        SessionConfig::new().with_executors(4).with_memory_budget(1),
    );
    let err = try_query(&ctx).expect_err("a 1-byte budget cannot run a skyline");
    assert!(
        err.is_resource_exhausted(),
        "expected ResourceExhausted, got: {err}"
    );
}

#[test]
fn tight_budget_streams_through_on_the_first_pass() {
    let rows = common::generate("correlated", 9, 600, DIMS, false);
    let table_bytes: usize = rows.iter().map(Row::estimated_bytes).sum();
    let baseline = run_query(&common::session_with(
        rows.clone(),
        DIMS,
        false,
        SessionConfig::new().with_executors(4),
    ));
    // Half the table's bytes: the stream model's buffered state is the
    // skyline windows, which the correlated distribution keeps tiny.
    let ctx = common::session_with(
        rows,
        DIMS,
        false,
        SessionConfig::new()
            .with_executors(4)
            .with_memory_budget(table_bytes / 2),
    );
    let result = run_query(&ctx);
    assert_eq!(result.rows, baseline.rows);
    assert_eq!(result.metrics.budget_denials, 0, "{:?}", result.metrics);
    assert_eq!(result.metrics.degraded_paths, 0, "{:?}", result.metrics);
}

#[test]
fn session_cancel_aborts_and_reset_recovers() {
    let rows = common::generate("independent", 13, 200, DIMS, false);
    let ctx = common::session_with(rows, DIMS, false, SessionConfig::new().with_executors(2));
    ctx.cancel();
    assert!(ctx.is_cancelled());
    let err = try_query(&ctx).expect_err("a cancelled session must not run queries");
    assert!(err.is_cancelled(), "expected Cancelled, got: {err}");
    ctx.reset_cancel();
    assert!(!run_query(&ctx).rows.is_empty());
}

#[test]
fn abandoning_a_cancelled_query_releases_every_reservation() {
    let schema = sparkline_common::Schema::new(vec![sparkline_common::Field::new(
        "x",
        sparkline_common::DataType::Int64,
        false,
    )])
    .into_ref();
    let ctx = TaskContext::new(2).with_batch_size(8);
    let inputs: Vec<PartitionStream> = (0..2)
        .map(|p| {
            let mut rows =
                (0..64).map(move |i| Row::new(vec![sparkline_common::Value::Int64(p * 64 + i)]));
            PartitionStream::new(
                std::sync::Arc::clone(&schema),
                std::sync::Arc::clone(&ctx.metrics),
                move || {
                    let batch: Vec<Row> = rows.by_ref().take(8).collect();
                    Ok((!batch.is_empty()).then_some(batch))
                },
            )
        })
        .collect();
    let drain_ctx = ctx.clone();
    let mut streams = breaker_streams(schema, &ctx, 2, move || drain_ctx.drain(inputs));
    // First pull runs the breaker compute; both result slots now hold
    // byte reservations.
    assert!(streams[0].next_batch().unwrap().is_some());
    assert!(
        ctx.memory.current_bytes() > 0,
        "breaker results must be charged while their streams live"
    );
    // Cancel mid-emission, the way an operator's consumer loop would
    // observe it, then abandon the streams.
    ctx.control.cancel();
    let err = ctx.control.check().unwrap_err();
    assert!(err.is_cancelled());
    drop(streams);
    assert_eq!(
        ctx.memory.current_bytes(),
        0,
        "abandoning the query must release every reservation"
    );
}

#[test]
fn a_denied_reservation_releases_every_reservation() {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use sparkline_common::{SkylineDim, SkylineSpec, Value};
    use sparkline_physical::{ExecutionPlan, HashJoinExec, LocalSkylineExec, ScanExec};
    use sparkline_plan::JoinType;

    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Int64, false),
    ])
    .into_ref();
    // `n` mutually incomparable 48 B rows.
    let scan = |n: i64| -> Arc<dyn ExecutionPlan> {
        let rows = (0..n)
            .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(n - i)]))
            .collect();
        Arc::new(ScanExec::from_rows("t", rows, Arc::clone(&schema)))
    };
    let released = |ctx: &TaskContext| {
        (
            ctx.memory.current_bytes(),
            ctx.metrics.rows_in_flight.load(Ordering::Relaxed),
        )
    };

    // A growing skyline window: two local phases over 150-row partitions.
    // The first finishes and holds its 7 200 B skyline; the second is
    // denied on the batch that takes its window past the 10 000 B budget.
    let ctx = TaskContext::new(2)
        .with_batch_size(16)
        .with_memory_budget(Some(10_000));
    let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]);
    let local = LocalSkylineExec::new(spec, false, scan(300));
    let mut skylines = local.execute_stream(&ctx).unwrap();
    assert!(skylines[0].next_batch().unwrap().is_some());
    let err = skylines[1].next_batch().unwrap_err();
    assert!(err.is_resource_exhausted(), "{err}");
    assert_eq!(ctx.metrics.snapshot().budget_denials, 1);

    // A join build under the same budget, while the first skyline is
    // held (less the 16-row batch it emitted): the drains of the 200-row
    // build side's two scan partitions are charged batch by batch, and the
    // batch that crosses the 3 568 B left is denied before any table is
    // built. The denial stops the other drain before its next charge, so
    // the build counts exactly one.
    let join = HashJoinExec::new(scan(50), scan(200), vec![(0, 0)], None, JoinType::Inner);
    let mut probes = join.execute_stream(&ctx).unwrap();
    let err = probes[0].next_batch().unwrap_err();
    assert!(
        matches!(err, Error::ResourceExhausted { requested: 768, .. }),
        "denied on one 16-row batch, not on the whole build side: {err}"
    );
    assert_eq!(ctx.metrics.snapshot().budget_denials, 2);
    assert_eq!(
        released(&ctx),
        (134 * 48, 134 + 16),
        "only the rest of the finished skyline and its pulled batch are held"
    );
    drop(probes);
    drop(skylines);
    assert_eq!(released(&ctx), (0, 0));
}
