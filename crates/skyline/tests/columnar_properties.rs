//! Property-based tests for the columnar dominance kernel: the batched
//! paths must agree with the scalar [`DominanceChecker`] on arbitrary
//! value mixes (`Int64` / `Float64` / `Boolean` / NULL / strings),
//! MIN/MAX/DIFF specs, and `DISTINCT` — including every scalar-fallback
//! route — and on the Börzsönyi correlated / independent / anti-correlated
//! benchmark distributions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sparkline_common::{Row, SkylineDim, SkylineSpec, SkylineType, Value};
use sparkline_datagen::distributions::{anti_correlated_rows, correlated_rows, independent_rows};
use sparkline_skyline::{
    naive_skyline, null_bitmap, BnlBuilder, ColumnarBlock, DominanceChecker, GroupedBnlBuilder,
    SkylineStats, MULTI_LANES,
};

/// The builders' `vectorized` flag: the chunked loop and the detected
/// tier; each must match the naive definition row for row.
const VECTORIZED: [bool; 2] = [false, true];

/// One batch through a BNL window on the tier `vectorized` selects.
fn bnl(rows: Vec<Row>, checker: &DominanceChecker, vectorized: bool) -> (Vec<Row>, SkylineStats) {
    let mut builder = BnlBuilder::new(checker.clone(), vectorized);
    builder.push_batch(rows);
    builder.finish()
}

/// Numeric-leaning values (the kernel's fast path) with NULLs mixed in.
fn numeric_value() -> BoxedStrategy<Value> {
    prop_oneof![
        4 => (0i64..6).prop_map(Value::Int64),
        2 => (0i64..12).prop_map(|v| Value::Float64(v as f64 / 2.0)),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// Anything-goes values: numerics, booleans, strings, NULLs — guaranteed
/// to exercise the scalar-fallback routes (class mixes, non-numerics).
fn wild_value() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => (0i64..6).prop_map(Value::Int64),
        2 => (0i64..12).prop_map(|v| Value::Float64(v as f64 / 2.0)),
        1 => (0u8..2).prop_map(|b| Value::Boolean(b == 1)),
        1 => (0i64..4).prop_map(|v| Value::str(format!("s{v}"))),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// Values that stress the score keys: sums that round (2^53 + small),
/// infinities of both signs (NaN sums), NaN and NULL, integers no `f64`
/// holds, int/float mixes.
fn extreme_value() -> BoxedStrategy<Value> {
    prop_oneof![
        4 => (0i64..6).prop_map(Value::Int64),
        3 => (0i64..12).prop_map(|v| Value::Float64(v as f64 / 2.0)),
        2 => (0i64..3).prop_map(|v| Value::Float64(9_007_199_254_740_992.0 + 2.0 * v as f64)),
        2 => (0i64..3).prop_map(|v| Value::Int64((1 << 53) + v)),
        1 => Just(Value::Float64(f64::INFINITY)),
        1 => Just(Value::Float64(f64::NEG_INFINITY)),
        1 => Just(Value::Float64(f64::NAN)),
        1 => Just(Value::Int64(i64::MAX)),
        1 => Just(Value::Int64(i64::MIN)),
        1 => Just(Value::Null),
    ]
    .boxed()
}

fn rows_of(value: BoxedStrategy<Value>, dims: usize, max_rows: usize) -> BoxedStrategy<Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(value, dims).prop_map(Row::new),
        0..max_rows,
    )
    .boxed()
}

fn spec(dims: usize, with_diff: bool, distinct: bool) -> SkylineSpec {
    let mut list = Vec::new();
    for i in 0..dims {
        let ty = if with_diff && i == 0 {
            SkylineType::Diff
        } else if i % 2 == 0 {
            SkylineType::Min
        } else {
            SkylineType::Max
        };
        list.push(SkylineDim::new(i, ty));
    }
    if distinct {
        SkylineSpec::distinct(list)
    } else {
        SkylineSpec::new(list)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Kernel-level agreement: every batch outcome equals the scalar
    /// `compare` for the same (candidate, row) pair, complete relation.
    #[test]
    fn kernel_agrees_with_scalar_compare(
        window in rows_of(numeric_value(), 3, 30),
        candidates in rows_of(numeric_value(), 3, 10),
    ) {
        let checker = DominanceChecker::complete(spec(3, false, false));
        let mut block = ColumnarBlock::for_checker(&checker);
        for row in &window {
            block.push(row);
        }
        prop_assume!(!block.is_fallback());
        let mut out = Vec::new();
        for cand in &candidates {
            let Some(enc) = block.encode(cand) else { continue };
            let res = block.compare_batch(&enc, &mut out, false);
            prop_assert_eq!(res.tested as usize, window.len());
            for (i, row) in window.iter().enumerate() {
                prop_assert_eq!(
                    out[i],
                    checker.compare(cand, row),
                    "cand={} row={}", cand, row
                );
            }
        }
    }

    /// Same agreement under the incomplete relation where the block stays
    /// representable (per null-bitmap classes in practice).
    #[test]
    fn kernel_agrees_with_scalar_compare_incomplete(
        window in rows_of(numeric_value(), 3, 30),
        candidates in rows_of(numeric_value(), 3, 10),
    ) {
        let checker = DominanceChecker::incomplete(spec(3, false, false));
        let mut block = ColumnarBlock::for_checker(&checker);
        for row in &window {
            block.push(row);
        }
        prop_assume!(!block.is_fallback());
        let mut out = Vec::new();
        for cand in &candidates {
            let Some(enc) = block.encode(cand) else { continue };
            block.compare_batch(&enc, &mut out, false);
            for (i, row) in window.iter().enumerate() {
                prop_assert_eq!(
                    out[i],
                    checker.compare(cand, row),
                    "cand={} row={}", cand, row
                );
            }
        }
    }

    /// The invariant the score-ordered window rests on (`bnl` module
    /// docs): a block row that strictly dominates a candidate never has
    /// the larger key — `key_member(a) <= key_cand(b)` — under MIN/MAX/DIFF
    /// mixes, under the complete relation and on class-pure incomplete
    /// rows (one NULL pattern), on values chosen to break it. And what the
    /// invariant buys: the bounded walk over the key-sorted block finds a
    /// dominator exactly where the scalar checker knows one.
    #[test]
    fn a_dominator_never_has_the_larger_key(
        rows in rows_of(extreme_value(), 4, 48),
        with_diff in 0u8..2,
        class in 0u8..32,
    ) {
        let spec = spec(4, with_diff == 1, false);
        let (checker, rows) = match class {
            16.. => (DominanceChecker::complete(spec), rows),
            // One null-bitmap class: NULL exactly where the pattern says.
            pattern => (
                DominanceChecker::incomplete(spec),
                rows.iter()
                    .map(|row| {
                        Row::new(
                            row.values()
                                .iter()
                                .enumerate()
                                .map(|(d, v)| match v {
                                    _ if pattern & (1 << d) != 0 => Value::Null,
                                    Value::Null => Value::Int64(0),
                                    v => v.clone(),
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        };
        // The members: every row the block takes without being demoted.
        let mut block = ColumnarBlock::for_checker(&checker);
        let mut members = Vec::new();
        for row in &rows {
            let mut grown = block.clone();
            grown.push(row);
            if !grown.is_fallback() {
                block = grown;
                members.push(row.clone());
            }
        }
        prop_assert!(block.keys().iter().all(|key| !key.is_nan()));
        let candidates: Vec<_> = rows
            .iter()
            .filter_map(|row| block.encode(row).map(|enc| (row, enc)))
            .collect();
        for (cand, enc) in &candidates {
            prop_assert!(!enc.key().is_nan());
            for (member, key) in members.iter().zip(block.keys()) {
                if checker.dominates(member, cand) {
                    prop_assert!(
                        *key <= enc.key(),
                        "{} (key {}) dominates {} (key {})", member, key, cand, enc.key()
                    );
                }
            }
        }
        block.sort_by_key();
        prop_assert!(block.is_ordered());
        let mut dominated = Vec::new();
        for group in candidates.chunks(MULTI_LANES) {
            let encoded: Vec<_> = group.iter().map(|(_, enc)| enc.clone()).collect();
            block.first_dominators(&encoded, &mut dominated);
            for ((cand, _), hit) in group.iter().zip(&dominated) {
                let expected = members.iter().any(|m| checker.dominates(m, cand));
                prop_assert_eq!(hit.is_some(), expected, "cand={}", cand);
            }
        }
    }

    /// End-to-end: batched BNL is byte-identical (rows *and* order) to
    /// the scalar definition on arbitrary value mixes — including strings,
    /// booleans, and NULLs that force the scalar-fallback path — for every
    /// MIN/MAX/DIFF/DISTINCT spec combination, on both builder tiers.
    #[test]
    fn batched_bnl_matches_scalar_on_wild_values(
        rows in rows_of(wild_value(), 3, 40),
        with_diff in 0u8..2,
        distinct in 0u8..2,
    ) {
        let checker =
            DominanceChecker::complete(spec(3, with_diff == 1, distinct == 1));
        let scalar = naive_skyline(&rows, &checker);
        for vectorized in VECTORIZED {
            let (batched, s2) = bnl(rows.clone(), &checker, vectorized);
            prop_assert_eq!(&scalar, &batched, "vectorized={}", vectorized);
            prop_assert_eq!(s2.dominance_tests, s2.batched_tests + s2.scalar_tests);
        }
    }

    /// Batched BNL under the incomplete relation, as the local phase runs
    /// it on mixed input: one window per null-bitmap class, each the
    /// class's naive skyline, classes in first-seen order.
    #[test]
    fn batched_bnl_matches_scalar_incomplete(rows in rows_of(numeric_value(), 3, 40)) {
        let checker = DominanceChecker::incomplete(spec(3, false, false));
        let mut classes: Vec<(u64, Vec<Row>)> = Vec::new();
        for row in &rows {
            let bitmap = null_bitmap(row, checker.spec());
            match classes.iter_mut().find(|(b, _)| *b == bitmap) {
                Some((_, class)) => class.push(row.clone()),
                None => classes.push((bitmap, vec![row.clone()])),
            }
        }
        let scalar: Vec<Row> = classes
            .iter()
            .flat_map(|(_, class)| naive_skyline(class, &checker))
            .collect();
        for vectorized in VECTORIZED {
            let mut grouped = GroupedBnlBuilder::new(checker.clone(), vectorized);
            grouped.push_batch(rows.clone());
            prop_assert_eq!(&scalar, &grouped.finish().0, "vectorized={}", vectorized);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Börzsönyi distributions: the batched local phase must equal the
    /// scalar definition row-for-row on correlated / independent /
    /// anti-correlated float data at several dimension counts.
    #[test]
    fn batched_matches_scalar_on_datagen_distributions(
        seed in 0u64..1_000_000,
        dims in 2usize..5,
        dist in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = match dist {
            0 => correlated_rows(&mut rng, 300, dims),
            1 => independent_rows(&mut rng, 300, dims),
            _ => anti_correlated_rows(&mut rng, 300, dims),
        };
        let checker = DominanceChecker::complete(spec(dims, false, false));
        let scalar = naive_skyline(&rows, &checker);
        for vectorized in VECTORIZED {
            let (batched, s2) = bnl(rows.clone(), &checker, vectorized);
            prop_assert_eq!(&scalar, &batched, "vectorized={}", vectorized);
            // Float data never demotes the block: the win is fully
            // attributed to the kernel.
            prop_assert_eq!(s2.scalar_tests, 0);
        }
    }
}
