//! Shared dataset / session / oracle helpers for the integration suites.
//!
//! The Börzsönyi distribution × dimension × NULL-fraction matrix used by
//! `storage_equivalence.rs`, `kernel_equivalence.rs`,
//! `incomplete_semantics.rs`, and `incomplete_merge.rs` is generated here,
//! so every differential harness drives one generator (and a fix to the
//! matrix fixes all suites at once). So are the two hand-run oracles of
//! the paper's plans, `flat_bnl_oracle` (complete data) and
//! `flat_incomplete_oracle` (incomplete data).

// Each integration-test binary compiles its own copy of this module and
// uses only a subset of the helpers.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline::{DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_common::{DominanceKernel, QueryControl, SkylineDim, SkylineSpec};
use sparkline_datagen::distributions::{anti_correlated_rows, correlated_rows, independent_rows};
use sparkline_exec::partition::{hash_partition, split_evenly};
use sparkline_skyline::{
    incomplete_global_skyline, naive_skyline, null_bitmap, DominanceChecker, GroupedBnlBuilder,
    SkylineStats,
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

/// Oracle: the paper's flat two-phase plan, run by hand on the scalar
/// per-row BNL step — `rows` split evenly into `partitions` (the scan's
/// boundaries), a local window per partition, then one window over the
/// concatenated local skylines. Raw rows in output order: what every
/// merge strategy and kernel knob of the complete family must reproduce
/// byte for byte.
pub fn flat_bnl_oracle(rows: &[Row], checker: &DominanceChecker, partitions: usize) -> Vec<Row> {
    let per_row_bnl = |input: Vec<Row>| {
        let mut window =
            sparkline_skyline::BnlBuilder::with_kernel(checker.clone(), DominanceKernel::Scalar);
        input.into_iter().for_each(|row| window.push(row));
        window.finish().0
    };
    let locals = split_evenly(rows.to_vec(), partitions)
        .into_iter()
        .flat_map(per_row_bnl)
        .collect();
    per_row_bnl(locals)
}

/// Oracle: the paper's incomplete plan (§5.7), run by hand — `rows` split
/// evenly into `partitions` (the scan's boundaries), hash-distributed by
/// null bitmap over as many partitions (the exchange), one local skyline
/// per bitmap class of each partition on the scalar per-row BNL step, then
/// the all-pairs deferred-deletion pass over the concatenated local
/// skylines. Returns the raw rows in output order — what the engine's
/// incomplete plan must reproduce byte for byte on every executor count,
/// kernel knob and execution model — and the number of candidates the
/// all-pairs pass received.
pub fn flat_incomplete_oracle(
    rows: &[Row],
    checker: &DominanceChecker,
    partitions: usize,
) -> (Vec<Row>, usize) {
    let spec = checker.spec();
    let exchanged = hash_partition(split_evenly(rows.to_vec(), partitions), partitions, |row| {
        null_bitmap(row, spec)
    });
    let candidates: Vec<Row> = exchanged
        .into_iter()
        .flat_map(|part| {
            let mut local =
                GroupedBnlBuilder::with_kernel(checker.clone(), DominanceKernel::Scalar);
            part.into_iter().for_each(|row| local.push(row));
            local.finish().0
        })
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
