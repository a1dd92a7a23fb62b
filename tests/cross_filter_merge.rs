//! Differential suite for the antichain cross-filter and the two phases
//! built on it: the local batch fold into the score-ordered window
//! (`BnlBuilder::push_batch`) and the global pairwise merge over key-sorted
//! blocks (`GlobalSkylineExec`).
//!
//! Every engine configuration, and both compare tiers the builders can be
//! pinned to, must return the **raw rows** — same rows, same order,
//! payload columns included — of the O(n²) definition (`naive_skyline`),
//! which is also what the paper's flat two-phase plan returns:
//! order-preserving BNL emits the skyline members in arrival order. Only
//! plan strings and performed-test counters may differ between
//! configurations.

mod common;

use common::{class_skylines, distribution_rows, null_every_fifth, DISTRIBUTIONS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline::{DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_common::{SkylineDim, SkylineSpec, SkylineType, CONTROL_CHECK_ROWS};
use sparkline_datagen::distributions::anti_correlated_rows;
use sparkline_skyline::{
    kernel_label, naive_skyline, BnlBuilder, DominanceChecker, GroupedBnlBuilder, KernelTier,
};

/// The builders' `vectorized` flag: the pinned chunked loop, then the
/// detected tier.
const VECTORIZED: [bool; 2] = [false, true];

/// One query shape of the matrix: how the generated floats become a
/// table, which SQL runs over it, and the resolved spec of the oracles.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// All-MIN over NULL-free floats.
    Plain,
    /// `SKYLINE OF DISTINCT` over values quantized to eighths, so
    /// dims-identical rows occur within and across partitions.
    Distinct,
    /// `d0 DIFF` over four groups, the rest MIN.
    DiffMix,
    /// Every fifth row loses one value, under `COMPLETE`: NULL-bearing
    /// rows are incomparable with everything.
    NullsUnderComplete,
    /// `d0` is a string column: every kernel block falls back to scalar.
    Utf8,
}

const SHAPES: [Shape; 5] = [
    Shape::Plain,
    Shape::Distinct,
    Shape::DiffMix,
    Shape::NullsUnderComplete,
    Shape::Utf8,
];

/// The table for a shape: `dims` dimension columns `d0..` plus a trailing
/// `id` payload column (arrival position), so "which of two dims-identical
/// rows survived" is visible in the raw rows.
fn table(shape: Shape, dist: &str, dims: usize, n: usize) -> (Schema, Vec<Row>) {
    let mut rows = distribution_rows(dist, 23, n, dims);
    if shape == Shape::NullsUnderComplete {
        null_every_fifth(&mut rows, dims);
    }
    let float = |v: &Value| match v {
        Value::Float64(f) => *f,
        other => panic!("generator yields floats, got {other:?}"),
    };
    let rows: Vec<Row> = rows
        .iter()
        .enumerate()
        .map(|(id, row)| {
            let mut values: Vec<Value> = row.values().to_vec();
            match shape {
                Shape::Distinct => {
                    for v in &mut values {
                        *v = Value::Float64((float(v) * 8.0).floor() / 8.0);
                    }
                }
                Shape::DiffMix => values[0] = Value::Float64((float(&values[0]) * 4.0).floor()),
                Shape::Utf8 => {
                    values[0] = Value::str(format!("{:04}", (float(&values[0]) * 1000.0) as i64))
                }
                Shape::Plain | Shape::NullsUnderComplete => {}
            }
            values.push(Value::Int64(id as i64));
            Row::new(values)
        })
        .collect();
    let mut fields: Vec<Field> = (0..dims)
        .map(|i| {
            let ty = if shape == Shape::Utf8 && i == 0 {
                DataType::Utf8
            } else {
                DataType::Float64
            };
            Field::new(format!("d{i}"), ty, shape == Shape::NullsUnderComplete)
        })
        .collect();
    fields.push(Field::new("id", DataType::Int64, false));
    (Schema::new(fields), rows)
}

fn sql(shape: Shape, dims: usize) -> String {
    let dim_list = (0..dims)
        .map(|i| {
            if shape == Shape::DiffMix && i == 0 {
                "d0 DIFF".to_string()
            } else {
                format!("d{i} MIN")
            }
        })
        .collect::<Vec<_>>()
        .join(", ");
    let distinct = if shape == Shape::Distinct {
        "DISTINCT "
    } else {
        ""
    };
    format!("SELECT * FROM t SKYLINE OF {distinct}COMPLETE {dim_list}")
}

fn checker(shape: Shape, dims: usize) -> DominanceChecker {
    let dims = (0..dims)
        .map(|i| {
            if shape == Shape::DiffMix && i == 0 {
                SkylineDim::diff(0)
            } else {
                SkylineDim::min(i)
            }
        })
        .collect();
    DominanceChecker::complete(if shape == Shape::Distinct {
        SkylineSpec::distinct(dims)
    } else {
        SkylineSpec::new(dims)
    })
}

fn config(partitions: usize) -> SessionConfig {
    SessionConfig::default().with_executors(partitions)
}

#[test]
fn every_merge_kernel_and_execution_mode_returns_the_oracle_rows() {
    for dist in DISTRIBUTIONS {
        for dims in [2usize, 4, 8] {
            for shape in SHAPES {
                let (schema, rows) = table(shape, dist, dims, 240);
                let checker = checker(shape, dims);
                let expected = naive_skyline(&rows, &checker);
                assert!(!expected.is_empty());
                let query = sql(shape, dims);
                for partitions in [1usize, 2, 3, 8] {
                    let cell = format!("{dist} d={dims} {shape:?} p={partitions}");
                    // Small batches, and one batch per partition.
                    for batch_size in [16, rows.len()] {
                        let ctx = SessionContext::with_config(
                            config(partitions).with_batch_size(batch_size),
                        );
                        ctx.register_table("t", schema.clone(), rows.clone())
                            .unwrap();
                        let got = ctx.sql(&query).unwrap().collect().unwrap();
                        assert_eq!(got.rows, expected, "{cell} batch_size={batch_size}");
                    }
                }
            }
        }
    }
}

#[test]
fn counters_and_explain_describe_the_pairwise_merge() {
    let (schema, rows) = table(Shape::Plain, "anti_correlated", 4, 4_000);
    let ctx = SessionContext::with_config(config(3));
    ctx.register_table("t", schema, rows.clone()).unwrap();
    let df = ctx.sql(&sql(Shape::Plain, 4)).unwrap();
    let (explain, result) = (df.explain().unwrap(), df.collect().unwrap());
    let global = format!(
        "GlobalSkylineExec [4 dims, pairwise merge, vectorized: {}]",
        kernel_label()
    );
    assert!(explain.contains(&global), "{explain}");
    assert!(!explain.contains("AllTuples"), "{explain}");
    let m = result.metrics;
    // One round, one task per local skyline; the merge counts the local
    // rows it gathers as exchanged and reports the merged size as window.
    assert_eq!((m.merge_rounds, m.merge_tasks), (1, 3));
    assert!(m.rows_exchanged as usize >= result.rows.len(), "{m:?}");
    assert!((m.rows_exchanged as usize) < rows.len(), "{m:?}");
    assert!(m.max_window >= result.rows.len(), "{m:?}");
    // Work is attributed to the detected tier in both phases — through
    // the fold's survivor blocks as well.
    assert!(m.dominator_walks > 0, "{m:?}");
    assert!(m.eviction_scans > 0, "step 3 of the fold scans: {m:?}");
    assert_eq!(m.dominance_tests, m.batched_tests, "{m:?}");
    assert_eq!(m.scalar_tests, 0, "{m:?}");
    assert_eq!(m.simd_tests > 0, KernelTier::detect().is_simd(), "{m:?}");
    // EXPLAIN ANALYZE prints the same kernel counters on one line.
    let analyze = df.explain_analyze().unwrap();
    let line = format!(
        "simd tests: {} ({} dominator walks, {} eviction scans)",
        m.simd_tests, m.dominator_walks, m.eviction_scans
    );
    assert!(analyze.lines().any(|l| l == line), "{line}\n{analyze}");
}

#[test]
fn a_cancelled_session_stops_the_merge_with_a_typed_error() {
    let (schema, rows) = table(Shape::Plain, "anti_correlated", 4, 3_000);
    let ctx = SessionContext::with_config(config(2));
    ctx.register_table("t", schema, rows).unwrap();
    let query = sql(Shape::Plain, 4);
    ctx.cancel();
    let err = ctx.sql(&query).unwrap().collect().unwrap_err();
    assert!(err.is_cancelled(), "{err}");
    ctx.reset_cancel();
    assert!(!ctx.sql(&query).unwrap().collect().unwrap().rows.is_empty());
}

/// 2^53: from here on `f64` addition rounds, so score keys of rows that
/// differ only in a small dimension collide.
const BIG: f64 = 9_007_199_254_740_992.0;

fn float_row(values: &[f64]) -> Row {
    Row::new(values.iter().map(|&v| Value::Float64(v)).collect())
}

/// `n` mutually incomparable rows `(i + shift, 42 - i - shift)` — one
/// score key for all of them — that neither dominate nor are dominated by
/// the tie rows of the tests below (smaller `d0`, larger `d1`).
fn diagonal(n: usize, shift: f64) -> Vec<Row> {
    (0..n)
        .map(|i| float_row(&[i as f64 + shift, 42.0 - i as f64 - shift]))
        .collect()
}

fn min_checker(dims: usize) -> DominanceChecker {
    DominanceChecker::complete(SkylineSpec::new((0..dims).map(SkylineDim::min).collect()))
}

/// The definition's skyline of `rows`, checked against the window that
/// 1-row batches leave.
fn per_row_definition(rows: &[Row], checker: &DominanceChecker) -> Vec<Row> {
    let expected = naive_skyline(rows, checker);
    let mut per_row = BnlBuilder::new(checker.clone(), false);
    rows.iter()
        .for_each(|row| per_row.push_batch(std::iter::once(row.clone())));
    assert_eq!(per_row.finish().0, expected);
    expected
}

#[test]
fn equal_key_ties_are_decided_by_the_dominance_test_not_the_key() {
    // Pairs whose keys collide although the second row dominates the
    // first — by rounding (BIG + 1 == BIG + 0.5 == BIG, 1 + 2e-17 == 1 in
    // f64) and by infinity — each among mutually incomparable filler rows
    // that neither row of the pair dominates or is dominated by. In the
    // last case the pair holds the *smallest* key of window and batch.
    let cases: [(Row, Row, Vec<Row>); 3] = [
        (
            float_row(&[BIG, 1.0]),
            float_row(&[BIG, 0.5]),
            diagonal(40, 0.0),
        ),
        (
            float_row(&[f64::NEG_INFINITY, 100.0]),
            float_row(&[f64::NEG_INFINITY, 99.0]),
            diagonal(40, 0.0),
        ),
        (
            float_row(&[1.0, 2e-17]),
            float_row(&[1.0, 1e-17]),
            (0..40)
                .map(|i| float_row(&[i as f64 / 64.0, 42.0 - i as f64]))
                .collect(),
        ),
    ];
    let checker = min_checker(2);
    for (loser, winner, filler) in &cases {
        assert!(checker.dominates(winner, loser));
        // The dominated row first (it must be evicted: in step 2 when both
        // share a batch, in step 3 when it already sits in the window),
        // the dominator first (the later row must die in step 1 or 2), and
        // both orders with the pair more than a 1024-row chunk apart.
        for (first, second) in [(loser, winner), (winner, loser)] {
            for gap in [0usize, 2 * CONTROL_CHECK_ROWS] {
                let mut rows: Vec<Row> = filler[..20].to_vec();
                rows.push(first.clone());
                // Dominated padding: dies in step 1.
                rows.extend((0..gap).map(|i| float_row(&[50.0 + i as f64, 50.0])));
                rows.extend(filler[20..].iter().cloned());
                rows.push(second.clone());
                let expected = per_row_definition(&rows, &checker);
                assert_eq!(expected.len(), filler.len() + 1);
                for vectorized in VECTORIZED {
                    for batch in [1usize, 30, CONTROL_CHECK_ROWS, rows.len()] {
                        let mut folded = BnlBuilder::new(checker.clone(), vectorized);
                        rows.chunks(batch)
                            .for_each(|chunk| folded.push_batch(chunk.to_vec()));
                        assert_eq!(
                            folded.finish().0,
                            expected,
                            "{winner} v={vectorized} batch={batch} gap={gap}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn unscorable_unencodable_and_demoting_rows_mid_batch_keep_the_arrival_order() {
    // A window of 120 incomparable rows arriving in *descending* key order
    // (so key order and arrival order disagree everywhere), then one odd
    // row in the middle of a batch of further skyline rows: few enough for
    // the sorted-insert path, or enough for steps 2-4 of the fold.
    let staircase = |from: usize, to: usize| -> Vec<Row> {
        (from..to)
            .map(|i| float_row(&[i as f64, 2.0 * (400 - i) as f64]))
            .collect()
    };
    let odd_rows = [
        // Unscorable: NULL-like under COMPLETE, a NaN key (+inf + -inf).
        Row::new(vec![Value::Null, Value::Float64(0.0)]),
        float_row(&[f64::NAN, 0.0]),
        float_row(&[f64::NEG_INFINITY, f64::INFINITY]),
        // Demotes the block: a string, an integer no f64 holds.
        Row::new(vec![Value::str("x"), Value::Float64(0.0)]),
        Row::new(vec![Value::Int64(i64::MAX), Value::Float64(0.0)]),
    ];
    let checker = min_checker(2);
    for odd in &odd_rows {
        for survivors in [6usize, 60] {
            let mut rows = staircase(0, 120);
            let batch = staircase(120, 120 + survivors);
            rows.extend(batch[..survivors / 2].iter().cloned());
            rows.push(odd.clone());
            rows.extend(batch[survivors / 2..].iter().cloned());
            // More rows after the odd one: the window must keep working.
            rows.extend(staircase(200, 260));
            rows.push(float_row(&[130.5, 530.0]));
            let expected = per_row_definition(&rows, &checker);
            for vectorized in VECTORIZED {
                let mut folded = BnlBuilder::new(checker.clone(), vectorized);
                folded.push_batch(rows[..120].to_vec());
                folded.push_batch(rows[120..121 + survivors].to_vec());
                folded.push_batch(rows[121 + survivors..].to_vec());
                assert_eq!(
                    folded.finish().0,
                    expected,
                    "{odd} v={vectorized} survivors={survivors}"
                );
            }
        }
    }
    // A candidate the block cannot encode (a fractional float against an
    // integer column) takes the scalar scan over the ordered window, then
    // upgrades the column and enters at its key.
    let int_row = |a: i64, b: i64| Row::new(vec![Value::Int64(a), Value::Int64(b)]);
    let mut rows: Vec<Row> = (0..60).map(|i| int_row(i, 2 * (400 - i))).collect();
    rows.push(Row::new(vec![Value::Float64(29.5), Value::Int64(740)]));
    rows.extend((60..90).map(|i| int_row(i, 2 * (400 - i))));
    let expected = per_row_definition(&rows, &checker);
    assert_eq!(
        expected.len(),
        rows.len() - 1,
        "(29.5, 740) evicts (30, 740)"
    );
    for vectorized in VECTORIZED {
        for batch in [1usize, 50, rows.len()] {
            let mut folded = BnlBuilder::new(checker.clone(), vectorized);
            rows.chunks(batch)
                .for_each(|chunk| folded.push_batch(chunk.to_vec()));
            assert_eq!(folded.finish().0, expected, "v={vectorized} batch={batch}");
        }
    }
}

#[test]
fn the_pairwise_merge_decides_equal_key_rows_across_partitions() {
    // Both partitions hold rows of one score key: the diagonals (every row
    // a skyline member) and the two colliding pairs, dominated row in the
    // first partition, dominator in the second and the other way round.
    let mut rows = diagonal(30, 0.0);
    rows.push(float_row(&[BIG, 1.0]));
    rows.push(float_row(&[f64::NEG_INFINITY, 99.0]));
    rows.extend(diagonal(30, 0.5));
    rows.push(float_row(&[BIG, 0.5]));
    rows.push(float_row(&[f64::NEG_INFINITY, 100.0]));
    let rows: Vec<Row> = rows
        .into_iter()
        .enumerate()
        .map(|(id, row)| {
            let mut values = row.values().to_vec();
            values.push(Value::Int64(id as i64));
            Row::new(values)
        })
        .collect();
    let schema = Schema::new(vec![
        Field::new("d0", DataType::Float64, false),
        Field::new("d1", DataType::Float64, false),
        Field::new("id", DataType::Int64, false),
    ]);
    let checker = min_checker(2);
    let expected = naive_skyline(&rows, &checker);
    assert_eq!(expected.len(), 62);
    let ctx = SessionContext::with_config(config(2));
    ctx.register_table("t", schema, rows).unwrap();
    let got = ctx.sql(&sql(Shape::Plain, 2)).unwrap().collect().unwrap();
    assert_eq!(got.rows, expected);
}

/// Locks the gain of the score-ordered window in: the local phase of one
/// anti-correlated partition, as the engine feeds it, against the
/// arrival-order fold's 30 817 946 tests for the same rows.
#[test]
fn the_ordered_window_halves_the_tests_on_anti_correlated_input() {
    let rows = anti_correlated_rows(&mut StdRng::seed_from_u64(42), 50_000, 4);
    let checker = min_checker(4);
    let mut builder = BnlBuilder::new(checker.clone(), true);
    rows.chunks(4096)
        .for_each(|batch| builder.push_batch(batch.to_vec()));
    let (skyline, stats) = builder.finish();
    assert_eq!(skyline.len(), 2_601);
    let mut chunked = BnlBuilder::new(checker, false);
    chunked.push_batch(rows);
    assert_eq!(
        skyline,
        chunked.finish().0,
        "same rows, same order as the portable tier"
    );
    assert!(stats.dominance_tests <= 16_000_000, "{stats:?}");
}

/// Rows that stress the score-ordered window, all from `seed`: key ties by
/// rounding and by infinity, and — by `seed % 3` — int/float column mixes,
/// NaN and NULL (unscorable rows in the middle of a batch), then values
/// that demote the kernel block mid-stream (`i64` extremes, a string).
fn wild_rows(seed: u64, n: usize, dims: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let level = seed % 3;
    let demoting_row = n / 2 + rng.gen_range(0..n / 2);
    (0..n)
        .map(|i| {
            Row::new(
                (0..dims)
                    .map(|d| match rng.gen_range(0..1000) {
                        0..=19 => Value::Float64(f64::INFINITY),
                        20..=39 => Value::Float64(f64::NEG_INFINITY),
                        40..=99 => Value::Float64(BIG + 2.0 * rng.gen_range(0..3) as f64),
                        100..=119 if level >= 1 => Value::Float64(f64::NAN),
                        120..=149 if level >= 1 => Value::Null,
                        150..=399 if level >= 1 => Value::Int64(rng.gen_range(0..20)),
                        400..=401 if level == 2 => Value::Int64(i64::MAX),
                        402..=403 if level == 2 => Value::Int64(i64::MIN),
                        _ if level == 2 && i == demoting_row && d == 0 => Value::str("x"),
                        _ => Value::Float64(rng.gen_range(0..40) as f64 / 2.0),
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Small-domain rows with ties, duplicates, evictions and (optionally)
/// NULLs, all from `seed`.
fn small_domain_rows(seed: u64, n: usize, dims: usize, null_share: f64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Row::new(
                (0..dims)
                    .map(|_| {
                        if rng.gen_bool(null_share) {
                            Value::Null
                        } else {
                            Value::Int64(rng.gen_range(0..40))
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Cut `rows` into batches whose sizes cycle through sizes drawn from
/// `seed` — single rows, ragged groups, and batches beyond the fold's
/// internal chunk.
fn ragged_batches(rows: &[Row], seed: u64) -> Vec<Vec<Row>> {
    const SIZES: [usize; 7] = [
        1,
        7,
        64,
        CONTROL_CHECK_ROWS - 1,
        CONTROL_CHECK_ROWS,
        CONTROL_CHECK_ROWS + 1,
        2 * CONTROL_CHECK_ROWS + 300,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rest = rows;
    let mut batches = Vec::new();
    while !rest.is_empty() {
        let take = SIZES[rng.gen_range(0..SIZES.len())].min(rest.len());
        batches.push(rest[..take].to_vec());
        rest = &rest[take..];
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// However the input is cut into batches, `push_batch` leaves the
    /// window the per-row step leaves — the definition's skyline — on
    /// both tiers, with and without DISTINCT, with NULL-bearing rows
    /// under the complete relation.
    #[test]
    fn push_batch_equals_per_row_push_under_any_batch_split(seed in 0u64..(1u64 << 40)) {
        let dims = 2 + (seed % 3) as usize;
        let null_share = if seed % 2 == 0 { 0.0 } else { 0.05 };
        let rows = small_domain_rows(seed, 3_500, dims, null_share);
        let batches = ragged_batches(&rows, seed ^ 0xBA7C);
        let min_dims: Vec<SkylineDim> = (0..dims).map(SkylineDim::min).collect();
        for spec in [SkylineSpec::new(min_dims.clone()), SkylineSpec::distinct(min_dims)] {
            let checker = DominanceChecker::complete(spec);
            let expected = per_row_definition(&rows, &checker);
            for vectorized in VECTORIZED {
                let mut folded = BnlBuilder::new(checker.clone(), vectorized);
                batches.iter().cloned().for_each(|batch| folded.push_batch(batch));
                prop_assert_eq!(&folded.finish().0, &expected);
            }
        }
    }

    /// The class-pure builders of the incomplete local phase take the
    /// fold too: per null-bitmap class (first-seen order) the window must
    /// be the class's skyline under the incomplete relation.
    #[test]
    fn grouped_builder_equals_the_per_class_oracle(seed in 0u64..(1u64 << 40)) {
        let dims = 3;
        let rows = small_domain_rows(seed, 3_000, dims, 0.25);
        let spec = SkylineSpec::new((0..dims).map(SkylineDim::min).collect());
        let checker = DominanceChecker::incomplete(spec);
        let expected = class_skylines(&rows, &checker);
        for vectorized in VECTORIZED {
            let mut grouped = GroupedBnlBuilder::new(checker.clone(), vectorized);
            for batch in ragged_batches(&rows, seed ^ 0x6A0B) {
                grouped.push_batch(batch);
            }
            prop_assert_eq!(&grouped.finish().0, &expected);
        }
    }

    /// The score-ordered window on values that stress its key — ties,
    /// infinities, unscorable and unencodable rows mid-batch, blocks
    /// demoted mid-stream — under MIN/MAX/DIFF mixes: `push_batch` ==
    /// per-row `push` == the definition, row for row, on both tiers.
    #[test]
    fn push_batch_equals_per_row_push_on_wild_values(seed in 0u64..(1u64 << 40)) {
        let dims = 2 + (seed % 3) as usize;
        let rows = wild_rows(seed, 3_500, dims);
        let batches = ragged_batches(&rows, seed ^ 0x51DE);
        let types = [SkylineType::Min, SkylineType::Max, SkylineType::Diff];
        let spec = SkylineSpec::new(
            (0..dims)
                .map(|d| SkylineDim::new(d, types[((seed >> (8 + 2 * d)) % 3) as usize]))
                .collect(),
        );
        let checker = DominanceChecker::complete(spec);
        let expected = per_row_definition(&rows, &checker);
        for vectorized in VECTORIZED {
            let mut folded = BnlBuilder::new(checker.clone(), vectorized);
            batches.iter().cloned().for_each(|batch| folded.push_batch(batch));
            prop_assert_eq!(&folded.finish().0, &expected, "vectorized={}", vectorized);
        }
    }
}
