//! Differential suite for the columnar disk scan: a disk table's blocks
//! stay column buffers until a row reaches the skyline window, and a
//! `WHERE` clause that is an `AND` of exactly comparable `column <op>
//! literal` conjuncts is evaluated by the scan itself, with no
//! `FilterExec`.
//!
//! Every case runs one query against the disk table `t` and against the
//! in-memory table `m` holding the file's rows in file order. The results
//! must be the same rows in the same order, bit for bit (NaN payloads and
//! the sign of zero included), or the same error text. The matrix covers
//! NULL, NaN, ±0.0, ±inf, `Int64` around ±2^53 against `Int64` and
//! `Float64` literals, `Utf8` and `Boolean` columns, predicates the scan
//! must leave to a `FilterExec`, `DISTINCT`, the incomplete relation and
//! `LIMIT` above the skyline, over batch sizes {1, 7, block_rows − 1,
//! block_rows + 1, default} × executors {1, 2, 4}.

mod common;

use std::sync::Arc;

use common::{bits, TempDir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline::{DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_exec::{Batch, TaskContext};
use sparkline_physical::{DiskScanExec, ExecutionPlan};
use sparkline_plan::{BoundColumn, Expr};
use sparkline_storage::{DiskTable, TableWriter, WriterOptions};

const BLOCK_ROWS: usize = 32;
const TWO_53: i64 = 1 << 53;

fn field(name: &str, ty: DataType) -> Field {
    Field::new(name, ty, true)
}

/// `a`, `b`: filtered and ranked floats with NULL, ±0.0, ±inf and ties;
/// `i`: integers around ±2^53 and the `i64` extremes; `s`, `f`: string
/// and boolean payload; `n`: an unfiltered float column with NaN payloads.
fn edge_table(rows: usize, seed: u64) -> (Schema, Vec<Row>) {
    let schema = Schema::new(vec![
        field("a", DataType::Float64),
        field("b", DataType::Float64),
        field("i", DataType::Int64),
        field("s", DataType::Utf8),
        field("f", DataType::Boolean),
        field("n", DataType::Float64),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e308, -1e308];
    let float = |rng: &mut StdRng| match rng.gen_range(0usize..8) {
        0 => Value::Null,
        1 => Value::Float64(special[rng.gen_range(0usize..special.len())]),
        _ => Value::Float64(f64::from(rng.gen_range(-16i32..16)) / 16.0),
    };
    let data = (0..rows)
        .map(|_| {
            let a = float(&mut rng);
            let b = float(&mut rng);
            let i = match rng.gen_range(0usize..6) {
                0 => Value::Null,
                1 => Value::Int64(TWO_53 + rng.gen_range(-2i64..3)),
                2 => Value::Int64(-TWO_53 + rng.gen_range(-2i64..3)),
                3 => Value::Int64([i64::MIN, i64::MAX][rng.gen_range(0usize..2)]),
                _ => Value::Int64(rng.gen_range(-5i64..6)),
            };
            let s = match rng.gen_range(0usize..4) {
                0 => Value::Null,
                k => Value::str(format!("s{k}")),
            };
            let f = match rng.gen_range(0usize..3) {
                0 => Value::Null,
                k => Value::Boolean(k == 1),
            };
            let n = match rng.gen_range(0usize..5) {
                0 => Value::Null,
                1 => Value::Float64(f64::NAN),
                2 => Value::Float64(f64::from_bits(0xFFF8_0000_0000_00AB)),
                3 => Value::Float64(-0.0),
                _ => Value::Float64(rng.gen_range(0.0..1.0)),
            };
            Row::new(vec![a, b, i, s, f, n])
        })
        .collect();
    (schema, data)
}

/// A session holding `rows` as the disk table `t` (written by COPY) and
/// as the in-memory table `m`, the file's rows in file order.
fn paired_session(
    schema: &Schema,
    rows: Vec<Row>,
    config: SessionConfig,
    dir: &TempDir,
    tag: &str,
) -> SessionContext {
    let ctx = SessionContext::with_config(config.with_storage_block_rows(BLOCK_ROWS));
    ctx.register_table("src", schema.clone(), rows).unwrap();
    let path = dir.file(&format!("{tag}.spk"));
    ctx.copy_table_to_disk("src", &path).unwrap();
    ctx.register_disk_table("t", &path).unwrap();
    let in_file_order = DiskTable::open(&path).unwrap().decode_all().unwrap();
    ctx.register_table("m", schema.clone(), in_file_order)
        .unwrap();
    ctx
}

/// Run `sql` (which reads `FROM t`) on disk and over `m`: the same rows
/// bit for bit, or the same error text. Returns the disk side's error.
fn assert_same(ctx: &SessionContext, sql: &str, case: &str) -> Option<String> {
    assert!(sql.contains("FROM t "), "{sql}");
    let run = |sql: &str| ctx.sql(sql).and_then(|df| df.collect());
    let disk = run(sql);
    let memory = run(&sql.replace("FROM t ", "FROM m "));
    match (disk, memory) {
        (Ok(d), Ok(m)) => {
            assert_eq!(bits(&d.rows), bits(&m.rows), "{case}: {sql}");
            None
        }
        (Err(d), Err(m)) => {
            assert_eq!(d.to_string(), m.to_string(), "{case}: {sql}");
            Some(d.to_string())
        }
        (d, m) => panic!(
            "{case}: {sql}\n disk: {:?}\n memory: {:?}",
            d.map(|r| r.num_rows()),
            m.map(|r| r.num_rows())
        ),
    }
}

/// The physical plan of `sql`, and whether it holds a `FilterExec`.
fn explain(ctx: &SessionContext, sql: &str) -> (String, bool) {
    let plan = ctx.sql(sql).unwrap().explain().unwrap();
    let filtered = (plan.lines()).any(|line| line.trim_start().starts_with("FilterExec"));
    (plan, filtered)
}

/// Predicates the scan evaluates itself: `AND`s of exactly comparable
/// comparisons, either orientation.
const PUSHED: &[&str] = &[
    "a < 0.25",
    "a >= -0.0",
    "a = 0.0",
    "0.5 > a",
    "a > -1e308 AND a < 1e308",
    "a <= 1",
    "a > -2 AND b < 0",
    "i > 9007199254740992",
    "i <= -9007199254740993",
    "i = 9007199254740993",
    "i >= -5 AND i < 5 AND a < 0.5",
    "a < 0.5 AND i > 0 AND b >= 0.25",
];

/// Predicates that keep a `FilterExec`: the scan only prunes with their
/// comparable conjuncts.
const KEPT: &[&str] = &[
    "a < 0.25 OR b < 0.25",
    "NOT (a < 0.25)",
    "a IS NULL",
    "a < b",
    "a <> 0.5",
    "i < 0.5",
    "a < 9007199254740993",
    "s = 's1'",
    "f = true",
    "a < 0.5 AND s = 's2'",
];

/// Statement shapes over a predicate; `{p}` is the predicate.
const SHAPES: &[&str] = &[
    "SELECT * FROM t WHERE {p}",
    "SELECT * FROM t WHERE {p} SKYLINE OF a MIN, b MIN",
    "SELECT * FROM t WHERE {p} SKYLINE OF COMPLETE a MIN, b MAX",
    "SELECT * FROM t WHERE {p} SKYLINE OF DISTINCT COMPLETE a MIN, b MIN",
    "SELECT * FROM t WHERE {p} SKYLINE OF COMPLETE i MIN, a MIN",
    "SELECT * FROM t WHERE {p} SKYLINE OF COMPLETE i MAX, b MIN",
    "SELECT * FROM t WHERE {p} SKYLINE OF COMPLETE a MIN, b MIN LIMIT 2",
    "SELECT DISTINCT s, f FROM t WHERE {p}",
];

#[test]
fn pushed_predicates_drop_the_filter_and_kept_ones_keep_it() {
    let dir = TempDir::new("columnar-plans");
    let (schema, rows) = edge_table(300, 1);
    let ctx = paired_session(&schema, rows, SessionConfig::default(), &dir, "plans");
    for p in PUSHED {
        let (plan, filtered) = explain(
            &ctx,
            &format!("SELECT * FROM t WHERE {p} SKYLINE OF a MIN, b MIN"),
        );
        assert!(!filtered && plan.contains(", filter: "), "{p}:\n{plan}");
    }
    for p in KEPT {
        let (plan, filtered) = explain(
            &ctx,
            &format!("SELECT * FROM t WHERE {p} SKYLINE OF a MIN, b MIN"),
        );
        assert!(filtered && !plan.contains(", filter: "), "{p}:\n{plan}");
    }
    // The scan names its conjuncts in `column <op> literal` form.
    let (plan, _) = explain(&ctx, "SELECT * FROM t WHERE 0.5 > a AND i >= 3");
    assert!(plan.contains("filter: a < 0.5 AND i >= 3"), "{plan}");
}

#[test]
fn disk_and_memory_agree_across_batch_sizes_and_executors() {
    let dir = TempDir::new("columnar-matrix");
    let (schema, rows) = edge_table(300, 2);
    let default_batch = SessionConfig::default().batch_size;
    for batch_size in [1, 7, BLOCK_ROWS - 1, BLOCK_ROWS + 1, default_batch] {
        for executors in [1, 2, 4] {
            let case = format!("batch {batch_size}, {executors} executors");
            let config = SessionConfig::default()
                .with_executors(executors)
                .with_batch_size(batch_size);
            let tag = format!("m{batch_size}-{executors}");
            let ctx = paired_session(&schema, rows.clone(), config, &dir, &tag);
            for p in PUSHED.iter().chain(KEPT) {
                for shape in SHAPES {
                    let sql = shape.replace("{p}", p);
                    assert_eq!(assert_same(&ctx, &sql, &case), None, "{case}: {sql}");
                }
            }
        }
    }
}

/// A NaN in a compared column fails `Expr::evaluate` with `cannot compare
/// DOUBLE with DOUBLE`; the scan's own evaluation raises the same error.
#[test]
fn a_nan_in_a_compared_column_fails_as_in_memory() {
    let dir = TempDir::new("columnar-nan");
    let schema = Schema::new(vec![
        field("a", DataType::Float64),
        field("b", DataType::Float64),
    ]);
    let rows: Vec<Row> = (0..200)
        .map(|k| {
            let a = if k == 137 {
                f64::NAN
            } else {
                f64::from(k) / 200.0
            };
            Row::new(vec![Value::Float64(a), Value::Float64(f64::from(k % 13))])
        })
        .collect();
    for executors in [1, 2, 4] {
        for batch_size in [1, 7, 64] {
            let case = format!("batch {batch_size}, {executors} executors");
            let config = SessionConfig::default()
                .with_executors(executors)
                .with_batch_size(batch_size);
            let tag = format!("nan{batch_size}-{executors}");
            let ctx = paired_session(&schema, rows.clone(), config, &dir, &tag);
            for sql in [
                "SELECT * FROM t WHERE a < 0.25",
                "SELECT * FROM t WHERE a < 0.25 SKYLINE OF COMPLETE a MIN, b MIN",
                "SELECT * FROM t WHERE b >= 0 AND a < 0.25",
            ] {
                let err = assert_same(&ctx, sql, &case);
                assert!(
                    err.as_deref()
                        .is_some_and(|e| e.contains("cannot compare DOUBLE with DOUBLE")),
                    "{case}: {sql}: {err:?}"
                );
            }
        }
    }
}

/// A `Boolean` column does not compare with a number: the footer's 0/1
/// bounds of `f` must not refute `f < 0` or `f > 1.5`, or the blocks the
/// `FilterExec` would fail on are never read.
#[test]
fn a_boolean_compared_with_a_number_fails_as_in_memory() {
    let dir = TempDir::new("columnar-boolean");
    let (schema, rows) = edge_table(300, 3);
    let ctx = paired_session(&schema, rows, SessionConfig::default(), &dir, "boolean");
    for (p, literal) in [("f < 0", "BIGINT"), ("f > 1.5", "DOUBLE")] {
        for sql in [
            format!("SELECT * FROM t WHERE {p}"),
            format!("SELECT * FROM t WHERE {p} SKYLINE OF COMPLETE a MIN, b MIN"),
            format!("SELECT * FROM t WHERE a < 0.5 AND {p} SKYLINE OF a MIN, b MIN"),
        ] {
            let err = assert_same(&ctx, &sql, "boolean");
            let expected = format!("cannot compare BOOLEAN with {literal}");
            assert!(
                err.as_deref().is_some_and(|e| e.contains(&expected)),
                "{sql}: {err:?}"
            );
        }
    }
}

/// Kleene `AND` never evaluates `b < 0.5` on a row whose `a < 0` is
/// FALSE, so a NaN in `b` on exactly those rows is no error, in memory
/// or on disk.
#[test]
fn and_short_circuits_past_a_nan() {
    let dir = TempDir::new("columnar-kleene");
    let schema = Schema::new(vec![
        field("a", DataType::Float64),
        field("b", DataType::Float64),
    ]);
    let rows: Vec<Row> = (0..200)
        .map(|k| {
            let a = f64::from(k - 100) / 10.0;
            let b = if a >= 0.0 && k % 3 == 0 {
                f64::NAN
            } else {
                f64::from(k % 7) / 7.0
            };
            Row::new(vec![Value::Float64(a), Value::Float64(b)])
        })
        .collect();
    for executors in [1, 2, 4] {
        for batch_size in [1, 7, 64] {
            let case = format!("batch {batch_size}, {executors} executors");
            let config = SessionConfig::default()
                .with_executors(executors)
                .with_batch_size(batch_size);
            let tag = format!("kleene{batch_size}-{executors}");
            let ctx = paired_session(&schema, rows.clone(), config, &dir, &tag);
            for sql in [
                "SELECT * FROM t WHERE a < 0 AND b < 0.5",
                "SELECT * FROM t WHERE a < 0 AND b < 0.5 SKYLINE OF COMPLETE a MAX, b MIN",
            ] {
                assert_eq!(assert_same(&ctx, sql, &case), None, "{case}: {sql}");
            }
        }
    }
}

/// A session holding `blocks`, laid out one block each by `TableWriter`
/// (no Z order), as the disk table `t` and as the in-memory table `m`.
fn laid_out_session(
    schema: &Schema,
    blocks: &[Vec<Row>],
    executors: usize,
    dir: &TempDir,
    tag: &str,
) -> SessionContext {
    let path = dir.file(&format!("{tag}.spk"));
    let options = WriterOptions {
        block_rows: blocks[0].len(),
        ..WriterOptions::default()
    };
    let mut writer = TableWriter::create(&path, schema.clone().into_ref(), options).unwrap();
    for block in blocks {
        writer.write_rows(block).unwrap();
    }
    writer.finish().unwrap();
    let ctx = SessionContext::with_config(SessionConfig::default().with_executors(executors));
    ctx.register_disk_table("t", &path).unwrap();
    let rows: Vec<Row> = blocks.concat();
    ctx.register_table("m", schema.clone(), rows).unwrap();
    ctx
}

fn abc_rows(values: &[[f64; 3]]) -> Vec<Row> {
    (values.iter())
        .map(|v| Row::new(v.iter().map(|&x| Value::Float64(x)).collect()))
        .collect()
}

/// Runs `sql` over two files of the blocks `[first, second]`. In the
/// first, as given, block 1 holds no NaN and the scan skips it (`skipped`
/// is its EXPLAIN tag). In the second, block 1's first `a` is NaN, which
/// fails the filter in memory, so the disk scan must read the block —
/// neither skipping tier may fire — and fail the same way.
fn assert_nan_is_not_skipped(first: Vec<Row>, second: Vec<Row>, sql: &str, skipped: &str) {
    let dir = TempDir::new("columnar-nan-skip");
    let schema = Schema::new(vec![
        field("a", DataType::Float64),
        field("b", DataType::Float64),
        field("c", DataType::Float64),
    ]);
    let mut with_nan = second.clone();
    with_nan[0] = Row::new(
        std::iter::once(Value::Float64(f64::NAN))
            .chain(with_nan[0].values()[1..].iter().cloned())
            .collect(),
    );
    for executors in [1, 2] {
        let case = format!("{executors} executors");
        let clean = [first.clone(), second.clone()];
        let ctx = laid_out_session(&schema, &clean, executors, &dir, &format!("c{executors}"));
        assert!(explain(&ctx, sql).0.contains(skipped), "{case}: {sql}");
        assert_eq!(assert_same(&ctx, sql, &case), None, "{case}: {sql}");
        let nan = [first.clone(), with_nan.clone()];
        let ctx = laid_out_session(&schema, &nan, executors, &dir, &format!("n{executors}"));
        let err = assert_same(&ctx, sql, &case);
        assert!(
            err.as_deref()
                .is_some_and(|e| e.contains("cannot compare DOUBLE with DOUBLE")),
            "{case}: {sql}: {err:?}"
        );
        let (plan, _) = explain(&ctx, sql);
        assert!(plan.contains("skipped=0 minmax + 0 dominance"), "{plan}");
    }
}

/// Kleene `AND` compares `a` first, so a NaN `a` fails `a < 0.25 AND
/// b < 0` in memory although the block's `b` bounds refute `b < 0`.
#[test]
fn a_nan_behind_a_minmax_refutation_fails_as_in_memory() {
    let first = abc_rows(&[
        [0.1, -1.0, 0.0],
        [0.2, -2.0, 0.0],
        [0.3, -3.0, 0.0],
        [0.4, -4.0, 0.0],
    ]);
    let second = abc_rows(&[
        [0.05, 1.0, 0.0],
        [0.1, 2.0, 0.0],
        [0.5, 3.0, 0.0],
        [0.6, 4.0, 0.0],
    ]);
    for sql in [
        "SELECT * FROM t WHERE a < 0.25 AND b < 0",
        "SELECT * FROM t WHERE a < 0.25 AND b < 0 SKYLINE OF COMPLETE b MIN, c MIN",
    ] {
        assert_nan_is_not_skipped(
            first.clone(),
            second.clone(),
            sql,
            "skipped=1 minmax + 0 dominance",
        );
    }
}

/// The dominance gate's point `(0, 0)` dominates every row of block 1,
/// but a NaN `a` there fails the filter in memory — the scan's own
/// filter, or a `FilterExec` the gate's walk passes above a sort.
#[test]
fn a_nan_in_a_gate_dominated_block_fails_as_in_memory() {
    let first = abc_rows(&[
        [0.1, 0.0, 0.0],
        [0.1, 0.5, 0.5],
        [0.1, 0.2, 0.3],
        [0.1, 0.3, 0.2],
    ]);
    let second = abc_rows(&[
        [0.05, 1.0, 1.0],
        [0.1, 1.5, 1.2],
        [0.1, 1.2, 1.5],
        [0.1, 2.0, 2.0],
    ]);
    for sql in [
        "SELECT * FROM t WHERE a < 0.25 SKYLINE OF COMPLETE b MIN, c MIN",
        "SELECT * FROM (SELECT * FROM t ORDER BY b) s WHERE a < 0.25 \
         SKYLINE OF COMPLETE b MIN, c MIN",
    ] {
        assert_nan_is_not_skipped(
            first.clone(),
            second.clone(),
            sql,
            "skipped=0 minmax + 1 dominance",
        );
    }
}

/// The scan's batches are columns, narrowed by its filter; closing a
/// stream mid-block releases the rows it held in flight.
#[test]
fn a_closed_column_stream_releases_its_rows() {
    let dir = TempDir::new("columnar-close");
    let (schema, rows) = edge_table(300, 3);
    // The session writes the file the scan below reads.
    paired_session(&schema, rows, SessionConfig::default(), &dir, "close");
    let path = dir.file("close.spk");
    let table = Arc::new(DiskTable::open(&path).unwrap());
    let a = Expr::BoundColumn(BoundColumn {
        index: 0,
        field: schema.field(0).clone(),
    });
    let predicate = a.lt(Expr::Literal(Value::Float64(0.5)));
    let scan = DiskScanExec::new("t", table, schema.clone().into_ref()).with_filter(&predicate);
    assert!(scan.evaluates_filter());
    let task = TaskContext::new(1).with_batch_size(8);
    let mut stream = scan.execute_stream(&task).unwrap().remove(0);
    let Some(Batch::Columns(batch)) = stream.pull_batch().unwrap() else {
        panic!("the disk scan yields column batches");
    };
    assert!(!batch.is_empty() && batch.len() <= 8);
    for row in batch.clone().into_rows() {
        assert!(matches!(row.get(0), Value::Float64(f) if *f < 0.5), "{row}");
    }
    let in_flight = || {
        task.metrics
            .rows_in_flight
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    assert_eq!(in_flight(), batch.len());
    stream.close();
    assert_eq!(in_flight(), 0);
}
