//! Differential suite for the out-of-core columnar block storage:
//!
//! * a skyline query over a **disk-resident** table must be
//!   byte-identical to the same query over the same rows held in memory
//!   — across the shared Börzsönyi matrix (± NULLs), small batches and
//!   one batch per partition, and each of the paper's algorithms forced
//!   per query;
//! * block skipping (both min/max and dominance) is a pure perf
//!   optimisation: the skipping disk run returns the rows of the same
//!   query over the same rows in memory, and every block of the table is
//!   counted once, read or skipped;
//! * the dominance gate takes its points only from footer-sample rows
//!   that pass the query's `WHERE`, never reads past a NULL-bearing
//!   block's corner, and is absent where it would be unsound (a
//!   projection or computed dimension between skyline and scan, the
//!   incomplete family);
//! * `write_table` → `DiskTable::open` → decode holds a permutation of
//!   the input and writes the same bytes every time (property-tested,
//!   including NULLs and negative values);
//! * the clustered layout makes blocks skippable on independent data,
//!   and a disk query's output does not depend on the executor count.
//!
//! Tests whose skip counts depend on which rows share a block lay the
//! file out by hand through `TableWriter`, which keeps input order.

mod common;

use common::{generate, oracle, run, session_with, skyline_sql, TempDir, DISTRIBUTIONS};
use proptest::prelude::*;
use sparkline::{
    Algorithm, DataType, Field, QueryResult, Row, Schema, SessionConfig, SessionContext, Value,
};
use sparkline_common::{SkylineDim, SkylineSpec};
use sparkline_skyline::{naive_skyline, DominanceChecker};
use sparkline_storage::{write_table, DiskTable, TableWriter, WriterOptions};

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

/// Like [`disk_session`], but the block file keeps the rows' order (a
/// `TableWriter` under the session's storage knobs), so a test can say
/// which rows share a block.
fn hand_laid_session(
    rows: Vec<Row>,
    dims: usize,
    nullable: bool,
    config: SessionConfig,
    dir: &TempDir,
    tag: &str,
) -> SessionContext {
    let opts = WriterOptions {
        block_rows: config.storage_block_rows,
        sample_cap: config.sample_size,
        sample_seed: config.sample_seed,
    };
    let ctx = SessionContext::with_config(config);
    let path = dir.file(&format!("{tag}.spk"));
    let schema = Schema::new(
        (0..dims)
            .map(|i| Field::new(format!("d{i}"), DataType::Float64, nullable))
            .collect(),
    );
    let mut writer = TableWriter::create(&path, schema.into_ref(), opts).unwrap();
    writer.write_rows(&rows).unwrap();
    writer.finish().unwrap();
    ctx.register_disk_table("t", &path).unwrap();
    ctx
}

#[test]
fn disk_tables_match_memory_tables_across_the_matrix() {
    let dir = TempDir::new("matrix");
    for dist in DISTRIBUTIONS {
        for dims in [2usize, 4] {
            for with_nulls in [false, true] {
                let rows = generate(dist, 23, 240, dims, with_nulls);
                // Small batches, and one batch per partition.
                for batch_size in [16, rows.len()] {
                    let config = SessionConfig::default()
                        .with_executors(3)
                        .with_batch_size(batch_size)
                        .with_storage_block_rows(64);
                    let mem = session_with(rows.clone(), dims, with_nulls, config.clone());
                    let tag = format!("{dist}-{dims}-{with_nulls}-{batch_size}");
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

/// `Auto` and each of the paper's four algorithms, forced per query, over
/// a COPY-written disk table and over the same rows in memory, in file
/// order: the dominance gate under `NonDistributedComplete`'s gather, the
/// incomplete merge over disk column batches, and the reference anti-join
/// over `DiskScanExec`.
#[test]
fn disk_tables_match_memory_tables_on_every_kernel() {
    let dir = TempDir::new("algorithms");
    let sorted = |rows: &[Row]| {
        let mut v: Vec<String> = rows.iter().map(Row::to_string).collect();
        v.sort();
        v
    };
    for with_nulls in [false, true] {
        let rows = generate("anti_correlated", 41, 300, 3, with_nulls);
        let config = SessionConfig::default()
            .with_executors(2)
            .with_storage_block_rows(50);
        let tag = format!("nulls-{with_nulls}");
        let disk = disk_session(rows, 3, with_nulls, config.clone(), &dir, &tag);
        // COPY lays the rows out in Z order; the memory table holds them
        // in file order, so the complete family's rows compare byte for
        // byte.
        let file_rows = DiskTable::open(dir.file(&format!("{tag}.spk")))
            .unwrap()
            .decode_all()
            .unwrap();
        let mem = session_with(file_rows.clone(), 3, with_nulls, config);
        let spec = SkylineSpec::new((0..3).map(SkylineDim::min).collect());
        let complete = naive_skyline(&file_rows, &DominanceChecker::complete(spec));
        let incomplete = oracle(&file_rows, 3, true);
        for algorithm in std::iter::once(Algorithm::Auto).chain(Algorithm::paper_algorithms()) {
            let case = format!("{algorithm:?} nulls={with_nulls}");
            let collect = |ctx: &SessionContext| -> QueryResult {
                ctx.sql(&skyline_sql(3))
                    .unwrap()
                    .collect_with_algorithm(algorithm)
                    .unwrap()
            };
            let (disk_out, mem_out) = (collect(&disk), collect(&mem));
            assert_eq!(
                disk_out.sorted_display(),
                mem_out.sorted_display(),
                "disk vs memory diverged: {case}"
            );
            match algorithm {
                Algorithm::DistributedIncomplete => {
                    assert_eq!(disk_out.sorted_display(), incomplete, "{case}")
                }
                Algorithm::Auto if with_nulls => {
                    assert_eq!(disk_out.sorted_display(), incomplete, "{case}")
                }
                // Under SQL's three-valued logic a NULL-bearing row
                // neither dominates nor is dominated in the Listing 4
                // anti-join: the complete relation, as a set.
                Algorithm::Reference => {
                    assert_eq!(disk_out.sorted_display(), sorted(&complete), "{case}")
                }
                _ => {
                    assert_eq!(disk_out.rows, complete, "disk vs naive_skyline: {case}");
                    assert_eq!(mem_out.rows, complete, "memory vs naive_skyline: {case}");
                }
            }
        }
    }
}

/// Dominance skipping on correlated data: the skyline of the footer
/// sample must prune whole blocks (counted, fewer bytes decoded) without
/// changing the result.
#[test]
fn dominance_skipping_is_invisible_and_counted() {
    let dir = TempDir::new("dominance");
    let rows = generate("correlated", 7, 4000, 3, false);
    let config = SessionConfig::default()
        .with_executors(3)
        .with_storage_block_rows(128);
    let sql = skyline_sql(3);

    let mem = session_with(rows.clone(), 3, false, config.clone());
    let disk = disk_session(rows, 3, false, config, &dir, "disk");
    let r_mem = mem.sql(&sql).unwrap().collect().unwrap();
    let r_disk = disk.sql(&sql).unwrap().collect().unwrap();
    assert_eq!(r_disk.sorted_display(), r_mem.sorted_display());

    assert!(
        r_disk.metrics.blocks_skipped_dominance > 0,
        "correlated data should let the sample's skyline prune blocks: {:?}",
        r_disk.metrics
    );
    // Every block is accounted for exactly once: read or skipped. The
    // unfiltered query leaves min/max nothing to refute.
    let blocks = 4000_u64.div_ceil(128);
    assert_eq!(r_disk.metrics.blocks_skipped_minmax, 0);
    assert_eq!(
        r_disk.metrics.blocks_read + r_disk.metrics.blocks_skipped_dominance,
        blocks
    );
    // Skipped blocks are never decoded: fewer bytes than the whole file's
    // blocks, which a plain scan of the same table decodes.
    let r_scan = disk.sql("SELECT * FROM t").unwrap().collect().unwrap();
    assert_eq!(r_scan.metrics.blocks_read, blocks);
    assert!(
        r_disk.metrics.bytes_decoded < r_scan.metrics.bytes_decoded,
        "skipping must strictly reduce decoded bytes ({} vs {})",
        r_disk.metrics.bytes_decoded,
        r_scan.metrics.bytes_decoded
    );
}

/// Min/max skipping on a COPY-clustered file: blocks whose `d0` range
/// cannot satisfy the pushed-down filter are never read.
#[test]
fn minmax_skipping_prunes_filtered_scans() {
    let dir = TempDir::new("minmax");
    // COPY clusters the rows, so the 64-row blocks carry narrow d0 ranges.
    let rows = generate("independent", 13, 640, 2, false);
    let config = SessionConfig::default()
        .with_executors(2)
        .with_storage_block_rows(64);
    let blocks = 640 / 64;
    let mem = session_with(rows.clone(), 2, false, config.clone());
    let disk = disk_session(rows, 2, false, config, &dir, "disk");

    // A plain filtered scan has no skyline, so no dominance gate: every
    // block it saves is a min/max skip.
    let filtered = "SELECT * FROM t WHERE d0 < 0.25";
    let r_mem = mem.sql(filtered).unwrap().collect().unwrap();
    let r_disk = disk.sql(filtered).unwrap().collect().unwrap();
    assert_eq!(r_disk.sorted_display(), r_mem.sorted_display());
    assert!(
        r_disk.metrics.blocks_skipped_minmax > 0,
        "clustered file + range filter should skip blocks: {:?}",
        r_disk.metrics
    );
    assert_eq!(r_disk.metrics.blocks_skipped_dominance, 0);
    assert_eq!(
        r_disk.metrics.blocks_read + r_disk.metrics.blocks_skipped_minmax,
        blocks
    );

    // The same filter under a skyline skips at least those blocks.
    let sql = "SELECT * FROM t WHERE d0 < 0.25 SKYLINE OF d0 MIN, d1 MIN";
    let r_mem = mem.sql(sql).unwrap().collect().unwrap();
    let r_sky = disk.sql(sql).unwrap().collect().unwrap();
    assert_eq!(r_sky.sorted_display(), r_mem.sorted_display());
    assert_eq!(
        r_sky.metrics.blocks_skipped_minmax,
        r_disk.metrics.blocks_skipped_minmax
    );
    assert!(r_sky.metrics.blocks_read <= r_disk.metrics.blocks_read);
}

/// EXPLAIN over a disk table names the scan and its static skip counts.
#[test]
fn explain_shows_disk_scan_with_skip_counts() {
    let dir = TempDir::new("explain");
    let rows = generate("independent", 17, 256, 2, false);
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

/// `disk_filter`'s shape at small scale: independent rows, which arrive
/// in no useful order, written by COPY. The clustered file lets a range
/// filter refute most blocks by min/max and the footer sample's skyline
/// dominate some, and the rows still equal the oracle.
#[test]
fn clustered_copy_skips_blocks_on_independent_data() {
    let dir = TempDir::new("clustered");
    let rows = generate("independent", 4000, 20_000, 4, false);
    let config = SessionConfig::default()
        .with_executors(2)
        .with_storage_block_rows(128);
    let disk = disk_session(rows.clone(), 4, false, config, &dir, "disk");
    let blocks = 20_000_u64.div_ceil(128);

    let filtered = disk
        .sql("SELECT * FROM t WHERE d0 < 0.25 SKYLINE OF d0 MIN, d1 MIN, d2 MIN, d3 MIN")
        .unwrap()
        .collect()
        .unwrap();
    let m = &filtered.metrics;
    assert!(
        m.blocks_skipped_minmax * 2 >= blocks,
        "`d0 < 0.25` should refute at least half the blocks: {m:?}"
    );
    let passing: Vec<Row> = (rows.iter())
        .filter(|r| matches!(r.get(0), Value::Float64(f) if *f < 0.25))
        .cloned()
        .collect();
    assert_eq!(filtered.sorted_display(), oracle(&passing, 4, false));

    let plain = disk
        .sql("SELECT * FROM t SKYLINE OF COMPLETE d0 MIN, d1 MIN, d2 MIN, d3 MIN")
        .unwrap()
        .collect()
        .unwrap();
    assert!(
        plain.metrics.blocks_skipped_dominance > 0,
        "the footer sample's skyline should dominate some blocks: {:?}",
        plain.metrics
    );
    assert_eq!(plain.sorted_display(), oracle(&rows, 4, false));
}

/// A disk skyline returns the same bytes at 1, 2 and 4 executors: the
/// skyline members in file order, whichever blocks are pruned.
#[test]
fn disk_skyline_bytes_do_not_depend_on_executors() {
    let dir = TempDir::new("executors");
    let rows = generate("anti_correlated", 29, 3000, 3, false);
    let path = dir.file("t.spk");
    let config = SessionConfig::default().with_storage_block_rows(64);
    session_with(rows, 3, false, config)
        .copy_table_to_disk("t", &path)
        .unwrap();
    let in_file_order = DiskTable::open(&path).unwrap().decode_all().unwrap();
    let spec = SkylineSpec::new((0..3).map(SkylineDim::min).collect());
    let members = naive_skyline(&in_file_order, &DominanceChecker::complete(spec));
    for sql in [
        skyline_sql(3),
        "SELECT * FROM t WHERE d0 < 0.5 SKYLINE OF d0 MIN, d1 MIN, d2 MIN".to_string(),
    ] {
        let mut outputs = Vec::new();
        for executors in [1, 2, 4] {
            let ctx =
                SessionContext::with_config(SessionConfig::default().with_executors(executors));
            ctx.register_disk_table("t", &path).unwrap();
            outputs.push(ctx.sql(&sql).unwrap().collect().unwrap().rows);
        }
        assert_eq!(outputs[0], outputs[1], "{sql}: 1 vs 2 executors");
        assert_eq!(outputs[0], outputs[2], "{sql}: 1 vs 4 executors");
        if sql == skyline_sql(3) {
            assert_eq!(outputs[0], members, "skyline members in file order");
        }
    }
}

fn floats(values: &[Option<f64>]) -> Row {
    Row::new(
        values
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Float64))
            .collect(),
    )
}

/// Runs `sql` over `rows` held in memory and on disk, laid out in input
/// order; asserts the two agree and returns the disk run.
fn skipping_run(
    rows: Vec<Row>,
    dims: usize,
    nullable: bool,
    block_rows: usize,
    sql: &str,
    tag: &str,
) -> sparkline::QueryResult {
    let dir = TempDir::new(tag);
    let config = SessionConfig::default()
        .with_executors(2)
        .with_storage_block_rows(block_rows);
    let mem = session_with(rows.clone(), dims, nullable, config.clone());
    let disk = hand_laid_session(rows, dims, nullable, config, &dir, "disk");
    let r_disk = disk.sql(sql).unwrap().collect().unwrap();
    let expected = mem.sql(sql).unwrap().collect().unwrap().sorted_display();
    assert_eq!(
        r_disk.sorted_display(),
        expected,
        "{tag}: skipping changed rows"
    );
    r_disk
}

/// The deterministic companion of `skipping_on_equals_skipping_off`:
/// NULL-bearing data under `COMPLETE`, where the gate skips a fully
/// numeric block but must read the NULL-bearing block whose numeric
/// corner the same point dominates — its NULL rows are incomparable, so
/// they are skyline members.
#[test]
fn dominance_gate_skips_numeric_blocks_and_reads_null_bearing_ones() {
    let rows = vec![
        // Block 0: (0, 0, 5) dominates the rest of the table's numeric rows.
        floats(&[Some(0.0), Some(0.0), Some(5.0)]),
        floats(&[Some(0.25), Some(0.25), Some(4.0)]),
        floats(&[Some(0.5), Some(0.5), Some(3.0)]),
        floats(&[Some(0.75), Some(0.75), Some(2.0)]),
        // Block 1: fully numeric, corner dominated — skipped unread.
        floats(&[Some(0.25), Some(0.5), Some(1.0)]),
        floats(&[Some(0.5), Some(0.25), Some(1.0)]),
        floats(&[Some(0.5), Some(0.5), Some(0.0)]),
        floats(&[Some(0.75), Some(0.5), Some(0.0)]),
        // Block 2: the same corner, but NULL-bearing — must be read.
        floats(&[Some(0.5), None, Some(1.0)]),
        floats(&[Some(0.5), Some(0.5), None]),
        floats(&[Some(0.75), Some(0.75), Some(0.0)]),
        floats(&[Some(0.25), Some(0.5), Some(1.0)]),
    ];
    let result = skipping_run(
        rows,
        3,
        true,
        4,
        "SELECT * FROM t WHERE d0 < 1.0 SKYLINE OF COMPLETE d0 MIN, d1 MIN, d2 MAX",
        "nulls",
    );
    assert_eq!(
        result.metrics.blocks_skipped_dominance, 1,
        "{:?}",
        result.metrics
    );
    assert_eq!(result.metrics.blocks_read, 2, "{:?}", result.metrics);
    assert_eq!(
        result.sorted_display(),
        ["(0.0, 0.0, 5.0)", "(0.5, 0.5, NULL)", "(0.5, NULL, 1.0)"],
    );
}

/// A footer-sample row that dominates everything but is excluded by
/// `WHERE` must not become a gate point: (0, 0) would skip block 0, which
/// holds the answer (1, 0). The points come from the rows the filter
/// passes, so only the blocks (1, 0) dominates are skipped.
#[test]
fn dominance_gate_respects_where_clauses() {
    let mut rows: Vec<Row> = (1..40)
        .map(|i| floats(&[Some(f64::from(i)), Some(0.0)]))
        .collect();
    rows.push(floats(&[Some(0.0), Some(0.0)]));
    let result = skipping_run(
        rows,
        2,
        false,
        8,
        "SELECT * FROM t WHERE d0 >= 1 SKYLINE OF d0 MIN, d1 MIN",
        "where",
    );
    assert_eq!(result.num_rows(), 1);
    assert_eq!(result.rows[0].get(0), &Value::Float64(1.0));
    // Blocks 1–3 hold d0 in [9, 32]: (1, 0) dominates their corners.
    // Block 4 holds (0, 0) itself, whose corner nothing dominates.
    assert_eq!(
        result.metrics.blocks_skipped_dominance, 3,
        "{:?}",
        result.metrics
    );
}

/// Two dimensions over one column keep their own corner values: under
/// `d0 MIN, d0 MAX, d1 MIN` block 0's corner is (1, 2, 5), which the
/// gate point (2, 2, 0) does not dominate, so block 0 — holding the
/// skyline member (1, 5) — is read. Only block 1, which holds the point
/// itself, is read beside it.
#[test]
fn dominance_gate_keeps_repeated_dims_apart() {
    let rows = vec![
        floats(&[Some(1.0), Some(5.0)]),
        floats(&[Some(2.0), Some(5.0)]),
        floats(&[Some(2.0), Some(0.0)]),
    ];
    let result = skipping_run(
        rows,
        2,
        false,
        2,
        "SELECT * FROM t SKYLINE OF d0 MIN, d0 MAX, d1 MIN",
        "repeated",
    );
    assert_eq!(result.sorted_display(), ["(1.0, 5.0)", "(2.0, 0.0)"]);
    assert_eq!(result.metrics.blocks_read, 2, "{:?}", result.metrics);
}

/// Where a dominance skip would be unsound, the planner installs no gate,
/// even though a plain skyline over the same file skips blocks: a
/// projection or a computed dimension changes the column space between
/// skyline and scan, and the incomplete relation is not transitive. (A
/// DIFF dimension is refused by `DominanceSkip` itself; see the
/// `scan_disk` unit tests.)
#[test]
fn dominance_gate_is_absent_where_it_would_be_unsound() {
    let rows: Vec<Row> = (0..64)
        .map(|i| floats(&[Some(f64::from(i)), Some(f64::from(i))]))
        .collect();
    let plain = skipping_run(
        rows.clone(),
        2,
        false,
        8,
        "SELECT * FROM t SKYLINE OF d0 MIN, d1 MIN",
        "plain",
    );
    assert_eq!(
        plain.metrics.blocks_skipped_dominance, 7,
        "{:?}",
        plain.metrics
    );
    for (sql, nullable, tag) in [
        (
            "SELECT * FROM (SELECT d0 + 1 AS a, d1 FROM t) s SKYLINE OF a MIN, d1 MIN",
            false,
            "projection",
        ),
        (
            "SELECT * FROM t SKYLINE OF d0 + d1 MIN, d1 MIN",
            false,
            "computed",
        ),
        // Nullable columns without COMPLETE: the incomplete family.
        (
            "SELECT * FROM t SKYLINE OF d0 MIN, d1 MIN",
            true,
            "incomplete",
        ),
    ] {
        let result = skipping_run(rows.clone(), 2, nullable, 8, sql, tag);
        assert_eq!(result.num_rows(), 1, "{tag}");
        assert_eq!(
            result.metrics.blocks_skipped_dominance, 0,
            "{tag}: {:?}",
            result.metrics
        );
        assert_eq!(result.metrics.blocks_read, 8, "{tag}: {:?}", result.metrics);
    }
}

/// A footer entry whose `rows` disagrees with its block's payload marks a
/// corrupt file: reading that block is a typed `storage:` error, through
/// `DiskTable::decode_block` and through the disk scan, even when the
/// entries still add up to the footer's total.
#[test]
fn a_footer_row_count_that_disagrees_with_its_block_is_an_error() {
    let dir = TempDir::new("storage-row-count");
    let rows: Vec<Row> = (0..24)
        .map(|i| floats(&[Some(f64::from(i)), Some(f64::from(-i))]))
        .collect();
    let config = SessionConfig::default().with_storage_block_rows(8);
    let ctx = hand_laid_session(rows, 2, false, config, &dir, "rows");
    // Footer: total rows u64, block rows u32, block count u32, then per
    // block its offset u64, bytes u64, rows u32 and 25 bytes per column.
    let path = dir.file("rows.spk");
    let mut bytes = std::fs::read(&path).unwrap();
    let trailer = bytes.len() - 12;
    let footer = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
    let entry = 8 + 8 + 4 + 2 * 25;
    for (block, claimed) in [(0, 9u32), (1, 7)] {
        let at = footer + 16 + block * entry + 16;
        bytes[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
    }
    std::fs::write(&path, bytes).unwrap();

    let table = DiskTable::open(&path).unwrap();
    assert_eq!(table.total_rows(), 24, "the entries still add up");
    for (block, claimed) in [(0, 9), (1, 7)] {
        let err = table.decode_block(block).unwrap_err().to_string();
        let expected =
            format!("storage: block {block} holds 8 rows, its footer entry claims {claimed}");
        assert!(err.contains(&expected), "{err}");
    }
    assert_eq!(table.decode_block(2).unwrap().len(), 8);
    assert!(table.decode_all().is_err());

    ctx.register_disk_table("t", &path).unwrap();
    for sql in [
        "SELECT * FROM t",
        "SELECT * FROM t SKYLINE OF d0 MIN, d1 MIN",
    ] {
        let err = ctx
            .sql(sql)
            .and_then(|df| df.collect())
            .unwrap_err()
            .to_string();
        assert!(err.contains("its footer entry claims"), "{sql}: {err}");
    }
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

/// write → open → decode every block holds a permutation of the input
/// rows, and writing them again writes the same bytes, for any block
/// granularity.
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
    let opts = WriterOptions {
        block_rows,
        ..WriterOptions::default()
    };
    let summary = write_table(&path, schema.clone(), &rows, opts).unwrap();
    assert_eq!(summary.rows, rows.len() as u64);
    let bytes = std::fs::read(&path).unwrap();
    write_table(&path, schema, &rows, opts).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "same rows, same bytes"
    );
    let table = DiskTable::open(&path).unwrap();
    assert_eq!(table.total_rows(), rows.len() as u64);
    let sorted = |rows: Vec<Row>| {
        let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(
        sorted(DiskTable::open(&path).unwrap().decode_all().unwrap()),
        sorted(rows)
    );
}

/// Block bounds are stored as `f64`, which rounds Int64 values beyond
/// 2^53: the block of (2^53 + 3, -1) records its min `a` as 2^53 + 4, a
/// corner that its incomparable neighbour (2^53 + 4, -2) strictly
/// dominates, and `a < 2^53 + 1` would refute the block whose min is
/// 2^53 though it holds 2^53 itself. Blocks with bounds that large are
/// never skipped, so disk equals memory.
#[test]
fn skipping_is_exact_for_int64_beyond_2_pow_53() {
    let dir = TempDir::new("int64");
    let schema = || {
        Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Int64, false),
        ])
    };
    const BIG: i64 = 1 << 53;
    // Four pairwise incomparable rows: `b` falls as `a` rises.
    let rows = vec![
        Row::new(vec![Value::Int64(BIG + 1), Value::Int64(0)]),
        Row::new(vec![Value::Int64(BIG), Value::Int64(1)]),
        Row::new(vec![Value::Int64(BIG + 3), Value::Int64(-1)]),
        Row::new(vec![Value::Int64(BIG + 4), Value::Int64(-2)]),
    ];
    let config = SessionConfig::default().with_storage_block_rows(1);
    let mem = SessionContext::with_config(config.clone());
    mem.register_table("t", schema(), rows.clone()).unwrap();
    let disk = SessionContext::with_config(config);
    disk.register_table("t", schema(), rows).unwrap();
    let path = dir.file("t.spk");
    disk.copy_table_to_disk("t", &path).unwrap();
    disk.register_disk_table("t", &path).unwrap();
    for (sql, expected_rows) in [
        ("SELECT * FROM t SKYLINE OF a MIN, b MIN", 4),
        (
            "SELECT * FROM t WHERE a < 9007199254740993 SKYLINE OF a MIN, b MIN",
            1,
        ),
    ] {
        let expected = mem.sql(sql).unwrap().collect().unwrap().sorted_display();
        assert_eq!(expected.len(), expected_rows, "{sql}");
        let got = disk.sql(sql).unwrap().collect().unwrap();
        assert_eq!(got.sorted_display(), expected, "{sql}");
        assert_eq!(got.metrics.blocks_read, 4, "{sql}: {:?}", got.metrics);
    }
}

/// Block skipping is sound: for random data and block sizes, the disk
/// skyline, which skips blocks, equals the in-memory run. Under `COMPLETE` the nullable schema plans the complete
/// family, so the dominance gate is live and NULL-bearing blocks meet its
/// fully-numeric guard; without it, min/max pruning feeds the incomplete
/// family's grouped local phase and class-block merge.
fn check_skipping_soundness(values: Vec<Vec<Option<i32>>>, block_rows: usize) {
    let dir = TempDir::new("soundness");
    let rows = prop_rows(values);
    let config = SessionConfig::default()
        .with_executors(2)
        .with_storage_block_rows(block_rows);
    let mem = session_with(rows.clone(), 3, true, config.clone());
    let disk = disk_session(rows, 3, true, config, &dir, "disk");
    for sql in [
        "SELECT * FROM t WHERE d0 < 1.0 SKYLINE OF COMPLETE d0 MIN, d1 MIN, d2 MAX",
        "SELECT * FROM t WHERE d0 < 1.0 SKYLINE OF d0 MIN, d1 MIN, d2 MAX",
        "SELECT * FROM t WHERE d0 < 1.0 SKYLINE OF COMPLETE d0 MIN, d0 MAX, d1 MIN",
    ] {
        let r_mem = mem.sql(sql).unwrap().collect().unwrap().sorted_display();
        let r_disk = disk.sql(sql).unwrap().collect().unwrap().sorted_display();
        assert_eq!(r_disk, r_mem, "{sql}");
    }
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
