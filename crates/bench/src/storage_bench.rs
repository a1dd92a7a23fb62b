//! Out-of-core storage benchmark: a filtered skyline over a disk table,
//! whose scan skips blocks, beside the same query over the same rows in
//! memory, written as the machine-readable `BENCH_PR8.json` trajectory
//! file.
//!
//! The **scan sweep** writes each Börzsönyi distribution to a block file
//! (rows clustered by `d0`, the natural layout of a range-partitioned
//! COPY), then runs the same filtered skyline twice per distribution:
//! `memory` (the rows registered in memory) and `disk` (the block file,
//! whose scan skips the blocks the pushed-down `d0` range filter refutes
//! by min/max and those the skyline of the footer sample dominates).
//! Both must return identical rows; the cells record wall clock,
//! rows/sec, and the disk scan's blocks read and skipped.
//!
//! The **out-of-core cell** re-runs the disk query with a memory budget
//! far below the file size: the scan streams one block's reservation at
//! a time, so the query must complete inside the budget rather than
//! fail.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkline::{DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_datagen::distributions::{anti_correlated_rows, correlated_rows, independent_rows};

/// Inputs of the scan sweep: the rows in memory, then on disk.
pub const MODES: [&str; 2] = ["memory", "disk"];

/// One timed (distribution, mode) cell of the scan sweep.
#[derive(Debug, Clone)]
pub struct ScanCell {
    /// `"correlated"`, `"independent"`, or `"anti_correlated"`.
    pub distribution: &'static str,
    /// `"memory"` or `"disk"`.
    pub mode: &'static str,
    /// Rows in the block file.
    pub rows: usize,
    /// Result rows (after filter + skyline).
    pub result_rows: usize,
    /// Wall-clock seconds of the query.
    pub secs: f64,
    /// Input rows per second of wall clock.
    pub rows_per_sec: f64,
    /// Blocks read and decoded (0 in memory).
    pub blocks_read: u64,
    /// Blocks skipped by min/max refutation.
    pub blocks_skipped_minmax: u64,
    /// Blocks skipped by corner dominance.
    pub blocks_skipped_dominance: u64,
    /// Raw block bytes decoded.
    pub bytes_decoded: u64,
}

/// The out-of-core run: a query over a file much larger than the budget.
#[derive(Debug, Clone)]
pub struct OutOfCoreCell {
    /// Size of the block file on disk.
    pub file_bytes: u64,
    /// Memory budget the query ran under.
    pub memory_budget: usize,
    /// Result rows.
    pub result_rows: usize,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Reservation requests the budget denied.
    pub budget_denials: u64,
}

/// The full storage benchmark.
#[derive(Debug, Clone)]
pub struct StorageBench {
    /// Scan-sweep cells (one per distribution × input).
    pub scan_cells: Vec<ScanCell>,
    /// The out-of-core budget cell.
    pub out_of_core: OutOfCoreCell,
}

fn dataset(distribution: &str, n: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = match distribution {
        "correlated" => correlated_rows(&mut rng, n, 3),
        "independent" => independent_rows(&mut rng, n, 3),
        "anti_correlated" => anti_correlated_rows(&mut rng, n, 3),
        other => panic!("unknown distribution {other}"),
    };
    // Cluster by d0 so block min/max ranges are tight — the layout a
    // range-partitioned COPY produces, and the one skipping exists for.
    rows.sort_by(|a, b| {
        let d0 = |r: &Row| match r.get(0) {
            Value::Float64(f) => *f,
            _ => f64::NAN,
        };
        d0(a).total_cmp(&d0(b))
    });
    rows
}

fn schema() -> Schema {
    Schema::new(
        (0..3)
            .map(|i| Field::new(format!("d{i}"), DataType::Float64, false))
            .collect(),
    )
}

/// A session holding `rows` as table `t` in memory under `config`.
fn memory_session(rows: &[Row], config: SessionConfig) -> SessionContext {
    let ctx = SessionContext::with_config(config);
    ctx.register_table("t", schema(), rows.to_vec())
        .expect("register bench table");
    ctx
}

/// Write `rows` as table `t` on disk inside `dir` and return a session
/// scanning the file under `config`.
fn disk_session(
    rows: &[Row],
    config: SessionConfig,
    dir: &std::path::Path,
    tag: &str,
) -> SessionContext {
    let ctx = memory_session(rows, config);
    let path = dir.join(format!("{tag}.spk"));
    if !path.exists() {
        ctx.copy_table_to_disk("t", &path).expect("COPY t TO disk");
    }
    ctx.register_disk_table("t", &path)
        .expect("open disk table");
    ctx
}

/// The benched query: a pushed-down range filter (min/max fodder) under
/// a skyline (dominance fodder).
const SQL: &str = "SELECT * FROM t WHERE d0 <= 0.5 \
                   SKYLINE OF d0 MIN, d1 MIN, d2 MIN";

fn run_scan_cell(
    distribution: &'static str,
    mode: &'static str,
    rows: &[Row],
    config: SessionConfig,
    dir: &std::path::Path,
) -> (ScanCell, Vec<Row>) {
    let ctx = match mode {
        "memory" => memory_session(rows, config),
        "disk" => disk_session(rows, config, dir, distribution),
        other => panic!("unknown input {other}"),
    };
    let df = ctx.sql(SQL).expect("parse bench query");
    let start = Instant::now();
    let result = df.collect().expect("bench query");
    let secs = start.elapsed().as_secs_f64();
    let cell = ScanCell {
        distribution,
        mode,
        rows: rows.len(),
        result_rows: result.num_rows(),
        secs,
        rows_per_sec: rows.len() as f64 / secs.max(1e-9),
        blocks_read: result.metrics.blocks_read,
        blocks_skipped_minmax: result.metrics.blocks_skipped_minmax,
        blocks_skipped_dominance: result.metrics.blocks_skipped_dominance,
        bytes_decoded: result.metrics.bytes_decoded,
    };
    (cell, result.rows)
}

/// Run the sweep and the out-of-core cell. `quick` shrinks the inputs so
/// test suites and the CI `--smoke` lane stay fast.
pub fn run_storage_bench(quick: bool) -> StorageBench {
    let n = if quick { 20_000 } else { 200_000 };
    // One scratch directory per call: two runs in one process (the unit
    // tests run in parallel threads) must not delete each other's files.
    static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sparkline-storage-bench-{}-{}-{}",
        std::process::id(),
        if quick { "quick" } else { "full" },
        RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let base = || SessionConfig::default().with_executors(4);

    let mut scan_cells = Vec::new();
    for distribution in ["correlated", "independent", "anti_correlated"] {
        let rows = dataset(distribution, n, 42);
        let mut baseline: Option<Vec<Row>> = None;
        for mode in MODES {
            let (cell, result_rows) = run_scan_cell(distribution, mode, &rows, base(), &dir);
            match &baseline {
                None => baseline = Some(result_rows),
                Some(expected) => assert_eq!(
                    &result_rows, expected,
                    "{distribution}: the disk table changed the result"
                ),
            }
            scan_cells.push(cell);
        }
    }

    // Out-of-core: the correlated file under a budget of 1/8 its size.
    // Streaming decode holds one raw block per executor, so the query
    // completes instead of exhausting the budget.
    let rows = dataset("correlated", n, 42);
    // The sweep above already wrote the correlated block file.
    let path = dir.join("correlated.spk");
    let file_bytes = std::fs::metadata(&path).expect("bench file metadata").len();
    // 1/8 of the file, floored at four raw blocks' worth (one in flight
    // per executor) so the cell tests out-of-core streaming, not
    // starvation: a 2048-row block of three f64 columns is ~55 KiB raw.
    let budget = (file_bytes as usize / 8).max(256 << 10);
    let ctx = disk_session(&rows, base().with_memory_budget(budget), &dir, "correlated");
    let start = Instant::now();
    let result = ctx
        .sql(SQL)
        .expect("parse bench query")
        .collect()
        .expect("out-of-core run must complete inside the budget");
    let out_of_core = OutOfCoreCell {
        file_bytes,
        memory_budget: budget,
        result_rows: result.num_rows(),
        secs: start.elapsed().as_secs_f64(),
        budget_denials: result.metrics.budget_denials,
    };

    let _ = std::fs::remove_dir_all(&dir);
    StorageBench {
        scan_cells,
        out_of_core,
    }
}

/// Serialize a benchmark run as the `BENCH_PR8.json` document.
pub fn to_json(bench: &StorageBench) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"out_of_core_block_skipping\",\n");
    out.push_str("  \"workload\": \"filtered_skyline_over_disk_table\",\n");
    out.push_str("  \"scan_cells\": [\n");
    for (i, c) in bench.scan_cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"distribution\": \"{}\", \"mode\": \"{}\", \"rows\": {}, \
             \"result_rows\": {}, \"secs\": {:.6}, \"rows_per_sec\": {:.1}, \
             \"blocks_read\": {}, \"blocks_skipped_minmax\": {}, \
             \"blocks_skipped_dominance\": {}, \"bytes_decoded\": {}}}{}",
            c.distribution,
            c.mode,
            c.rows,
            c.result_rows,
            c.secs,
            c.rows_per_sec,
            c.blocks_read,
            c.blocks_skipped_minmax,
            c.blocks_skipped_dominance,
            c.bytes_decoded,
            if i + 1 < bench.scan_cells.len() {
                ","
            } else {
                ""
            },
        );
    }
    let o = &bench.out_of_core;
    let _ = writeln!(
        out,
        "  ],\n  \"out_of_core\": {{\"file_bytes\": {}, \"memory_budget\": {}, \
         \"result_rows\": {}, \"secs\": {:.6}, \"budget_denials\": {}}}\n}}",
        o.file_bytes, o.memory_budget, o.result_rows, o.secs, o.budget_denials
    );
    out
}

/// Run the sweep and write `BENCH_PR8.json` to `path`.
pub fn write_bench_pr8(path: &str, quick: bool) -> std::io::Result<StorageBench> {
    let bench = run_storage_bench(quick);
    std::fs::write(path, to_json(&bench))?;
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_skips_blocks_and_completes_out_of_core() {
        let bench = run_storage_bench(true);
        assert_eq!(bench.scan_cells.len(), 6);
        for c in &bench.scan_cells {
            match c.mode {
                "memory" => {
                    assert_eq!(c.blocks_read, 0, "{c:?}");
                    assert_eq!(c.bytes_decoded, 0, "{c:?}");
                }
                // The `d0 <= 0.5` filter refutes the upper half of the
                // d0-clustered file on every distribution.
                "disk" => {
                    assert!(c.blocks_read > 0, "{c:?}");
                    assert!(c.blocks_skipped_minmax > 0, "{c:?}");
                }
                other => panic!("unexpected input {other}"),
            }
        }
        let correlated = |mode| {
            bench
                .scan_cells
                .iter()
                .find(|c| c.distribution == "correlated" && c.mode == mode)
                .unwrap()
        };
        // Correlated data lets the footer sample's skyline dominate blocks.
        assert!(
            correlated("disk").blocks_skipped_dominance > 0,
            "{:?}",
            correlated("disk")
        );
        let o = &bench.out_of_core;
        assert!(o.memory_budget < o.file_bytes as usize, "{o:?}");
        assert!(o.result_rows > 0, "{o:?}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let bench = run_storage_bench(true);
        let json = to_json(&bench);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"mode\"").count(), bench.scan_cells.len());
        assert_eq!(json.matches("\"out_of_core\"").count(), 1);
    }
}
