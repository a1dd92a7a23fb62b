//! Differential suite for the out-of-core columnar block storage:
//!
//! * a skyline query over a **disk-resident** table must be
//!   byte-identical to the same query over the same rows held in memory
//!   — across the shared Börzsönyi matrix (± NULLs), the streaming and
//!   materialized execution models, and every dominance-kernel knob;
//! * block skipping (both min/max and dominance) is a pure perf
//!   optimisation: turning it off must not change a single row, and
//!   turning it on must only move work from `blocks_read` to the
//!   `blocks_skipped_*` counters;
//! * `write_table` → `DiskTable::open` → decode is a lossless round
//!   trip (property-tested, including NULLs and negative values).

mod common;

use common::{generate, oracle, run, session_with, skyline_sql, DISTRIBUTIONS};
use proptest::prelude::*;
use sparkline::{
    DataType, DominanceKernel, Field, Row, Schema, SessionConfig, SessionContext, Value,
};
use sparkline_storage::{write_table, DiskTable, WriterOptions};

/// Self-cleaning scratch directory for block files.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "sparkline-storage-eq-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn file(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A session whose table `t` is the given rows **on disk**: the rows are
/// written to a block file in `dir` and registered as a disk table, so
/// every scan streams blocks through `DiskScanExec`.
fn disk_session(
    rows: Vec<Row>,
    dims: usize,
    nullable: bool,
    config: SessionConfig,
    dir: &TempDir,
    tag: &str,
) -> SessionContext {
    let ctx = session_with(rows, dims, nullable, config);
    let path = dir.file(&format!("{tag}.spk"));
    ctx.copy_table_to_disk("t", &path).unwrap();
    // Replaces the in-memory registration: `t` is now disk-resident.
    ctx.register_disk_table("t", &path).unwrap();
    ctx
}

#[test]
fn disk_tables_match_memory_tables_across_the_matrix() {
    let dir = TempDir::new("matrix");
    for dist in DISTRIBUTIONS {
        for dims in [2usize, 4] {
            for with_nulls in [false, true] {
                for streaming in [true, false] {
                    let rows = generate(dist, 23, 240, dims, with_nulls);
                    let config = SessionConfig::default()
                        .with_executors(3)
                        .with_streaming_execution(streaming)
                        .with_storage_block_rows(64);
                    let mem = session_with(rows.clone(), dims, with_nulls, config.clone());
                    let tag = format!("{dist}-{dims}-{with_nulls}-{streaming}");
                    let disk = disk_session(rows.clone(), dims, with_nulls, config, &dir, &tag);
                    let expected = oracle(&rows, dims, with_nulls);
                    let mem_out = run(&mem, dims);
                    let disk_out = run(&disk, dims);
                    assert_eq!(disk_out, mem_out, "disk vs memory diverged: {tag}");
                    assert_eq!(disk_out, expected, "disk vs oracle diverged: {tag}");
                }
            }
        }
    }
}

#[test]
fn disk_tables_match_memory_tables_on_every_kernel() {
    let dir = TempDir::new("kernels");
    let rows = generate("anti_correlated", 41, 300, 3, false);
    for kernel in [
        DominanceKernel::Scalar,
        DominanceKernel::Chunked,
        DominanceKernel::Auto,
    ] {
        let config = SessionConfig::default()
            .with_executors(2)
            .with_dominance_kernel(kernel)
            .with_storage_block_rows(50);
        let mem = session_with(rows.clone(), 3, false, config.clone());
        let disk = disk_session(rows.clone(), 3, false, config, &dir, &format!("{kernel:?}"));
        assert_eq!(
            run(&disk, 3),
            run(&mem, 3),
            "disk vs memory diverged under {kernel:?}"
        );
    }
}

/// Dominance skipping on correlated data: the planner's representative
/// pre-filter points must prune whole blocks (counted, fewer bytes
/// decoded) without changing the result.
#[test]
fn dominance_skipping_is_invisible_and_counted() {
    let dir = TempDir::new("dominance");
    let rows = generate("correlated", 7, 4000, 3, false);
    let base = SessionConfig::default()
        .with_executors(3)
        .with_storage_block_rows(128)
        .with_skyline_strategy(sparkline::SkylineStrategy::Adaptive);
    let sql = skyline_sql(3);

    let on = disk_session(rows.clone(), 3, false, base.clone(), &dir, "on");
    let off = disk_session(
        rows.clone(),
        3,
        false,
        base.with_disk_dominance_skipping(false),
        &dir,
        "off",
    );
    let r_on = on.sql(&sql).unwrap().collect().unwrap();
    let r_off = off.sql(&sql).unwrap().collect().unwrap();
    assert_eq!(r_on.sorted_display(), r_off.sorted_display());

    assert!(
        r_on.metrics.blocks_skipped_dominance > 0,
        "correlated data should let representative points prune blocks: {:?}",
        r_on.metrics
    );
    assert_eq!(r_off.metrics.blocks_skipped_dominance, 0);
    assert!(
        r_on.metrics.bytes_decoded < r_off.metrics.bytes_decoded,
        "skipping must strictly reduce decoded bytes ({} vs {})",
        r_on.metrics.bytes_decoded,
        r_off.metrics.bytes_decoded
    );
    // Every block is accounted for exactly once: read or skipped.
    assert_eq!(
        r_on.metrics.blocks_read + r_on.metrics.blocks_skipped_dominance,
        r_off.metrics.blocks_read
    );
}

/// Min/max skipping on a range-clustered file: blocks whose `d0` range
/// cannot satisfy the pushed-down filter are never read.
#[test]
fn minmax_skipping_prunes_filtered_scans() {
    let dir = TempDir::new("minmax");
    // Sorted by d0 so the 64-row blocks carry disjoint d0 ranges.
    let mut rows = generate("independent", 13, 640, 2, false);
    rows.sort_by(|a, b| {
        let d0 = |r: &Row| match r.get(0) {
            Value::Float64(f) => *f,
            _ => f64::NAN,
        };
        d0(a).partial_cmp(&d0(b)).unwrap()
    });
    let config = SessionConfig::default()
        .with_executors(2)
        .with_storage_block_rows(64);
    let sql = "SELECT * FROM t WHERE d0 < 0.25 SKYLINE OF d0 MIN, d1 MIN";

    let mem = session_with(rows.clone(), 2, false, config.clone());
    let on = disk_session(rows.clone(), 2, false, config.clone(), &dir, "on");
    let off = disk_session(
        rows.clone(),
        2,
        false,
        config.with_disk_minmax_skipping(false),
        &dir,
        "off",
    );
    let r_mem = mem.sql(sql).unwrap().collect().unwrap();
    let r_on = on.sql(sql).unwrap().collect().unwrap();
    let r_off = off.sql(sql).unwrap().collect().unwrap();
    assert_eq!(r_on.sorted_display(), r_mem.sorted_display());
    assert_eq!(r_on.sorted_display(), r_off.sorted_display());
    assert!(
        r_on.metrics.blocks_skipped_minmax > 0,
        "clustered file + range filter should skip blocks: {:?}",
        r_on.metrics
    );
    assert_eq!(r_off.metrics.blocks_skipped_minmax, 0);
    assert!(r_on.metrics.blocks_read < r_off.metrics.blocks_read);
}

/// EXPLAIN over a disk table names the scan and its static skip counts.
#[test]
fn explain_shows_disk_scan_with_skip_counts() {
    let dir = TempDir::new("explain");
    let mut rows = generate("independent", 17, 256, 2, false);
    rows.sort_by(|a, b| {
        let d0 = |r: &Row| match r.get(0) {
            Value::Float64(f) => *f,
            _ => f64::NAN,
        };
        d0(a).partial_cmp(&d0(b)).unwrap()
    });
    let config = SessionConfig::default().with_storage_block_rows(64);
    let ctx = disk_session(rows, 2, false, config, &dir, "explain");
    let plan = ctx
        .sql("SELECT * FROM t WHERE d0 < 0.1 SKYLINE OF d0 MIN, d1 MIN")
        .unwrap()
        .explain()
        .unwrap();
    assert!(
        plan.contains("DiskScanExec") && plan.contains("disk(blocks="),
        "EXPLAIN should tag the disk scan with its block counts:\n{plan}"
    );
}

/// Rows with grid-valued floats (duplicates, negatives) and NULLs.
fn prop_rows(values: Vec<Vec<Option<i32>>>) -> Vec<Row> {
    values
        .into_iter()
        .map(|vals| {
            Row::new(
                vals.into_iter()
                    .map(|v| match v {
                        Some(i) => Value::Float64(f64::from(i) * 0.25),
                        None => Value::Null,
                    })
                    .collect(),
            )
        })
        .collect()
}

fn prop_case() -> BoxedStrategy<(Vec<Vec<Option<i32>>>, usize)> {
    let value = prop_oneof![4 => (-6i32..6).prop_map(Some), 1 => Just(None)];
    (
        prop::collection::vec(prop::collection::vec(value, 3), 1..120),
        1usize..40,
    )
        .boxed()
}

/// write → open → decode every block reproduces the input rows exactly,
/// for any block granularity.
fn check_round_trip(values: Vec<Vec<Option<i32>>>, block_rows: usize) {
    let dir = TempDir::new("roundtrip");
    let rows = prop_rows(values);
    let schema = Schema::new(
        (0..3)
            .map(|i| Field::new(format!("d{i}"), DataType::Float64, true))
            .collect(),
    )
    .into_ref();
    let path = dir.file("t.spk");
    let summary = write_table(
        &path,
        schema,
        &rows,
        WriterOptions {
            block_rows,
            ..WriterOptions::default()
        },
    )
    .unwrap();
    assert_eq!(summary.rows, rows.len() as u64);
    let table = DiskTable::open(&path).unwrap();
    assert_eq!(table.total_rows(), rows.len() as u64);
    let mut decoded = Vec::new();
    for i in 0..table.num_blocks() {
        decoded.extend(table.decode_block(i).unwrap());
    }
    assert_eq!(decoded, rows);
}

/// Block skipping is sound: for random data and block sizes, the disk
/// skyline with both skip kinds on equals skipping off equals the
/// in-memory run.
fn check_skipping_soundness(values: Vec<Vec<Option<i32>>>, block_rows: usize) {
    let dir = TempDir::new("soundness");
    let rows = prop_rows(values);
    let config = SessionConfig::default()
        .with_executors(2)
        .with_storage_block_rows(block_rows)
        .with_skyline_strategy(sparkline::SkylineStrategy::Adaptive);
    let mem = session_with(rows.clone(), 3, true, config.clone());
    let on = disk_session(rows.clone(), 3, true, config.clone(), &dir, "on");
    let off = disk_session(
        rows,
        3,
        true,
        config
            .with_disk_minmax_skipping(false)
            .with_disk_dominance_skipping(false),
        &dir,
        "off",
    );
    let sql = "SELECT * FROM t WHERE d0 < 1.0 SKYLINE OF d0 MIN, d1 MIN, d2 MAX";
    let r_mem = mem.sql(sql).unwrap().collect().unwrap().sorted_display();
    let r_on = on.sql(sql).unwrap().collect().unwrap().sorted_display();
    let r_off = off.sql(sql).unwrap().collect().unwrap().sorted_display();
    assert_eq!(r_on, r_off);
    assert_eq!(r_on, r_mem);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn round_trip_preserves_rows(case in prop_case()) {
        let (values, block_rows) = case;
        check_round_trip(values, block_rows);
    }

    #[test]
    fn skipping_on_equals_skipping_off(case in prop_case()) {
        let (values, block_rows) = case;
        check_skipping_soundness(values, block_rows);
    }
}
