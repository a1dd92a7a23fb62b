//! Shared dataset / session / oracle helpers for the integration suites.
//!
//! The Börzsönyi distribution × dimension × NULL-fraction matrix used by
//! `storage_equivalence.rs`, `kernel_equivalence.rs`,
//! `incomplete_semantics.rs`, and `incomplete_merge.rs` is generated here,
//! so every differential harness drives one generator (and a fix to the
//! matrix fixes all suites at once). So is the hand-run oracle of the
//! paper's incomplete plan, `flat_incomplete_oracle`; the complete plan's
//! oracle is `naive_skyline` itself, since order-preserving BNL emits the
//! skyline members in arrival order. The optimizer's oracle is
//! `collect_unoptimized`: the same query with no rule but the `EXISTS`
//! rewrite.

// Each integration-test binary compiles its own copy of this module and
// uses only a subset of the helpers.
#![allow(dead_code)]

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline::{DataType, Field, QueryResult, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_common::{QueryControl, SkylineDim, SkylineSpec};
use sparkline_datagen::distributions::{anti_correlated_rows, correlated_rows, independent_rows};
use sparkline_exec::partition::split_evenly;
use sparkline_skyline::{
    incomplete_global_skyline, naive_skyline, null_bitmap, DominanceChecker, SkylineStats,
};

/// The Börzsönyi workload matrix (§6.1).
pub const DISTRIBUTIONS: [&str; 3] = ["correlated", "independent", "anti_correlated"];

/// Seeded rows of one named distribution.
pub fn distribution_rows(dist: &str, seed: u64, n: usize, dims: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    match dist {
        "correlated" => correlated_rows(&mut rng, n, dims),
        "independent" => independent_rows(&mut rng, n, dims),
        "anti_correlated" => anti_correlated_rows(&mut rng, n, dims),
        other => panic!("unknown distribution {other}"),
    }
}

/// Deterministic light incompleteness: every 5th row loses one value.
pub fn null_every_fifth(rows: &mut [Row], dims: usize) {
    for (i, row) in rows.iter_mut().enumerate() {
        if i % 5 == 0 {
            let mut values = row.values().to_vec();
            values[i % dims] = Value::Null;
            *row = Row::new(values);
        }
    }
}

/// Seeded per-value incompleteness: each dimension value independently
/// becomes NULL with probability `null_fraction`.
pub fn inject_nulls(rows: &mut [Row], null_fraction: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for row in rows.iter_mut() {
        let values: Vec<Value> = row
            .values()
            .iter()
            .map(|v| {
                if rng.gen_bool(null_fraction) {
                    Value::Null
                } else {
                    v.clone()
                }
            })
            .collect();
        *row = Row::new(values);
    }
}

/// One cell of the distribution matrix, optionally with the light
/// every-5th-row incompleteness.
pub fn generate(dist: &str, seed: u64, n: usize, dims: usize, with_nulls: bool) -> Vec<Row> {
    let mut rows = distribution_rows(dist, seed, n, dims);
    if with_nulls {
        null_every_fifth(&mut rows, dims);
    }
    rows
}

/// One cell of the distribution matrix with a target per-value NULL
/// fraction (the incomplete-family matrix).
pub fn generate_with_null_fraction(
    dist: &str,
    seed: u64,
    n: usize,
    dims: usize,
    null_fraction: f64,
) -> Vec<Row> {
    let mut rows = distribution_rows(dist, seed, n, dims);
    inject_nulls(&mut rows, null_fraction, seed.wrapping_add(0x9E37));
    rows
}

/// Oracle: naive Definition-3.2 skyline (all dims MIN) under the relation
/// the engine will select (complete for NULL-free data, incomplete
/// otherwise), as sorted display strings.
pub fn oracle(rows: &[Row], dims: usize, incomplete: bool) -> Vec<String> {
    let spec = SkylineSpec::new((0..dims).map(SkylineDim::min).collect());
    let checker = if incomplete {
        DominanceChecker::incomplete(spec)
    } else {
        DominanceChecker::complete(spec)
    };
    let mut v: Vec<String> = naive_skyline(rows, &checker)
        .iter()
        .map(|r| r.to_string())
        .collect();
    v.sort();
    v
}

/// A session over `config` with the rows registered as table `t` with
/// `dims` float columns `d0..dN`.
pub fn session_with(
    rows: Vec<Row>,
    dims: usize,
    nullable: bool,
    config: SessionConfig,
) -> SessionContext {
    let ctx = SessionContext::with_config(config);
    ctx.register_table(
        "t",
        Schema::new(
            (0..dims)
                .map(|i| Field::new(format!("d{i}"), DataType::Float64, nullable))
                .collect(),
        ),
        rows,
    )
    .unwrap();
    ctx
}

/// Rows as strings that tell every bit apart: `-0.0` from `0.0`, one NaN
/// payload from another.
pub fn bits(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            let values: Vec<String> = (row.values().iter())
                .map(|v| match v {
                    Value::Float64(f) => format!("f{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect();
            values.join(",")
        })
        .collect()
}

/// `SELECT * FROM t SKYLINE OF d0 MIN, ..., dN MIN`.
pub fn skyline_sql(dims: usize) -> String {
    let dim_list = (0..dims)
        .map(|i| format!("d{i} MIN"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("SELECT * FROM t SKYLINE OF {dim_list}")
}

/// Run the all-MIN skyline over `t` and return the sorted display rows.
pub fn run(ctx: &SessionContext, dims: usize) -> Vec<String> {
    ctx.sql(&skyline_sql(dims))
        .unwrap()
        .collect()
        .unwrap()
        .sorted_display()
}

/// Session with a 3-column nullable Int64 table `t` (the
/// `incomplete_semantics.rs` fixture).
pub fn incomplete_session(rows: Vec<Row>) -> SessionContext {
    let ctx = SessionContext::new();
    ctx.register_table(
        "t",
        Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Int64, true),
            Field::new("c", DataType::Int64, true),
        ]),
        rows,
    )
    .unwrap();
    ctx
}

/// A 3-column Int64 row where `None` is NULL.
pub fn row3(a: Option<i64>, b: Option<i64>, c: Option<i64>) -> Row {
    Row::new(vec![
        a.map(Value::Int64).unwrap_or(Value::Null),
        b.map(Value::Int64).unwrap_or(Value::Null),
        c.map(Value::Int64).unwrap_or(Value::Null),
    ])
}

/// Oracle: the local phase of the engine's incomplete plan over one scan
/// partition — `rows` grouped by null-bitmap class in first-seen order,
/// then the naive skyline of each class, concatenated.
pub fn class_skylines(rows: &[Row], checker: &DominanceChecker) -> Vec<Row> {
    let mut classes: Vec<(u64, Vec<Row>)> = Vec::new();
    for row in rows {
        let bitmap = null_bitmap(row, checker.spec());
        match classes.iter_mut().find(|(b, _)| *b == bitmap) {
            Some((_, class)) => class.push(row.clone()),
            None => classes.push((bitmap, vec![row.clone()])),
        }
    }
    classes
        .iter()
        .flat_map(|(_, class)| naive_skyline(class, checker))
        .collect()
}

/// Oracle: the engine's incomplete plan (§5.7 without the null-bitmap
/// exchange), run by hand — `rows` split evenly into `partitions` (the
/// scan's boundaries), [`class_skylines`] of each partition, then the
/// all-pairs deferred-deletion pass over the concatenated local skylines.
/// Returns the raw rows in output order — what the engine's incomplete
/// plan, and the builders and cross-filter on every compare tier, must
/// reproduce byte for byte on every executor count and batch size — and
/// the number of candidates the all-pairs pass received.
pub fn flat_incomplete_oracle(
    rows: &[Row],
    checker: &DominanceChecker,
    partitions: usize,
) -> (Vec<Row>, usize) {
    let candidates: Vec<Row> = split_evenly(rows.to_vec(), partitions)
        .into_iter()
        .flat_map(|part| class_skylines(&part, checker))
        .collect();
    let received = candidates.len();
    let survivors = incomplete_global_skyline(
        candidates,
        checker,
        &mut SkylineStats::default(),
        &QueryControl::unlimited(),
    )
    .expect("an unlimited control never stops the all-pairs pass");
    (survivors, received)
}

/// Oracle of every optimizer rule: `sql` over `ctx`'s tables, in memory
/// or on disk, and configuration with no rule but the `[NOT] EXISTS` rewrite, which
/// execution needs — parse → analyze → `rewrite_exists_subqueries` →
/// plan → collect. A rule must leave these rows unchanged.
pub fn collect_unoptimized(ctx: &SessionContext, sql: &str) -> sparkline::Result<QueryResult> {
    let df = ctx.sql(sql)?;
    let plan = sparkline_optimizer::rewrite_exists_subqueries(df.logical_plan())?;
    let config = ctx.config();
    let start = Instant::now();
    let physical = sparkline_physical::PhysicalPlanner::new(config, ctx).create(&plan)?;
    let task = sparkline_exec::TaskContext::new(config.num_executors)
        .with_memory_budget(config.memory_budget)
        .with_batch_size(config.batch_size);
    let rows = sparkline_physical::planner::collect(&physical, &task)?;
    Ok(QueryResult {
        schema: df.schema()?,
        rows,
        metrics: task.metrics.snapshot(),
        elapsed: start.elapsed(),
        peak_memory_bytes: task
            .memory
            .peak_with_overhead(config.num_executors, config.executor_memory_overhead),
    })
}

/// Self-cleaning scratch directory for block files.
pub struct TempDir(std::path::PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "sparkline-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    pub fn file(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
