//! Property-based tests for the columnar dominance kernel: the batched
//! paths must agree with the scalar [`DominanceChecker`] on arbitrary
//! value mixes (`Int64` / `Float64` / `Boolean` / NULL / strings),
//! MIN/MAX/DIFF specs, and `DISTINCT` — including every scalar-fallback
//! route — and on the Börzsönyi correlated / independent / anti-correlated
//! benchmark distributions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sparkline_common::{Row, SkylineDim, SkylineSpec, SkylineType, Value};
use sparkline_datagen::distributions::{anti_correlated_rows, correlated_rows, independent_rows};
use sparkline_skyline::{
    is_null_like, naive_skyline, null_bitmap, BnlBuilder, ColumnarBlock, Dominance,
    DominanceChecker, EncodedCandidate, GroupedBnlBuilder, KernelTier, SkylineStats, WalkTests,
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
        let mut tests = WalkTests::default();
        for (cand, enc) in &candidates {
            let hit = block.first_dominator(enc, &mut tests).dominated_at;
            let expected = members.iter().any(|m| checker.dominates(m, cand));
            prop_assert_eq!(hit.is_some(), expected, "cand={}", cand);
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

/// Column classes of the walk differential.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Int,
    Float,
    Bool,
}

/// One value of `class`: mostly a few small values (ties, equal keys),
/// sometimes NULL, NaN, an infinity, a signed zero or an `i64` extreme.
fn walk_value(rng: &mut StdRng, class: Class) -> Value {
    if rng.gen_range(0..12) == 0 {
        return Value::Null;
    }
    match class {
        Class::Int => match rng.gen_range(0..16) {
            0 => Value::Int64(i64::MAX),
            1 => Value::Int64(i64::MIN),
            2 => Value::Int64(i64::MIN + 1),
            _ => Value::Int64(rng.gen_range(-3i64..4)),
        },
        Class::Float => match rng.gen_range(0..16) {
            0 => Value::Float64(f64::NAN),
            1 => Value::Float64(f64::INFINITY),
            2 => Value::Float64(f64::NEG_INFINITY),
            3 => Value::Float64(-0.0),
            4 => Value::Float64(0.0),
            _ => Value::Float64(f64::from(rng.gen_range(-6i32..7)) / 2.0),
        },
        Class::Bool => Value::Boolean(rng.gen_bool(0.5)),
    }
}

/// One generated block of the walk and scan differentials, with the
/// generator that made its rows, for drawing further tuples.
struct KernelCase {
    rng: StdRng,
    dims: usize,
    classes: Vec<Class>,
    spec: SkylineSpec,
    checker: DominanceChecker,
    incomplete: bool,
    ordered: bool,
    /// Under the incomplete relation, the NULL columns of the block's
    /// null-bitmap class.
    class_nulls: Vec<bool>,
    rows: Vec<Row>,
}

impl KernelCase {
    /// `len` rows of shape `shape`: shapes 0–2 rank float columns only
    /// (the shape of every benchmark workload), 3–7 mix classes and DIFF
    /// dimensions, 6–7 are incomplete class blocks, and 8–9 rank nine
    /// float columns, one more than the SIMD loop holds in registers. Even
    /// shapes are sorted by key.
    fn new(seed: u64, len: usize, shape: u8) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = rng.gen_range(1usize..10);
        if shape >= 8 {
            dims = 9;
        }
        let floats_only = !(3..8).contains(&shape);
        let classes: Vec<Class> = (0..dims)
            .map(|_| match rng.gen_range(0..3) {
                _ if floats_only => Class::Float,
                0 => Class::Int,
                1 => Class::Float,
                _ => Class::Bool,
            })
            .collect();
        let spec = SkylineSpec::new(
            (0..dims)
                .map(|d| match rng.gen_range(0..5) {
                    0 if !floats_only => SkylineDim::diff(d),
                    0 | 1 => SkylineDim::max(d),
                    _ => SkylineDim::min(d),
                })
                .collect(),
        );
        let incomplete = (6..8).contains(&shape);
        // Under the incomplete relation the block is one null-bitmap
        // class: NULL (or NaN) in every row of the class's columns, a
        // value in every row of the others.
        let class_nulls: Vec<bool> = (0..dims).map(|_| incomplete && rng.gen_bool(0.3)).collect();
        let checker = if incomplete {
            DominanceChecker::incomplete(spec.clone())
        } else {
            DominanceChecker::complete(spec.clone())
        };
        let mut case = KernelCase {
            rng,
            dims,
            classes,
            spec,
            checker,
            incomplete,
            ordered: shape.is_multiple_of(2),
            class_nulls,
            rows: Vec::new(),
        };
        case.rows = (0..len).map(|_| case.row(true)).collect();
        case
    }

    /// A fresh tuple: a member of the block's class, or any tuple.
    fn row(&mut self, member: bool) -> Row {
        Row::new((0..self.dims).map(|d| self.value(d, member)).collect())
    }

    /// A fresh value of dimension `d` for a member of the block's class,
    /// or for any tuple.
    fn value(&mut self, d: usize, member: bool) -> Value {
        loop {
            let v = walk_value(&mut self.rng, self.classes[d]);
            if !member || !self.incomplete {
                return v;
            }
            if self.class_nulls[d] {
                return if self.classes[d] == Class::Float && self.rng.gen_bool(0.5) {
                    Value::Float64(f64::NAN)
                } else {
                    Value::Null
                };
            }
            if !is_null_like(&v) {
                return v;
            }
        }
    }

    /// Whether `row` is NULL-like in some dimension under the complete
    /// relation: incomparable with every row.
    fn incomparable(&self, row: &Row) -> bool {
        !self.incomplete
            && self
                .spec
                .dims
                .iter()
                .any(|d| is_null_like(row.get(d.index)))
    }

    /// The block of the rows on `tier` and its members — every row it
    /// takes without demoting — in block order.
    fn block(&self, tier: KernelTier) -> (ColumnarBlock, Vec<Row>) {
        let mut block = ColumnarBlock::with_tier(&self.spec, self.incomplete, tier);
        let mut members = Vec::new();
        for r in &self.rows {
            let mut grown = block.clone();
            grown.push(r);
            if !grown.is_fallback() {
                block = grown;
                members.push(r.clone());
            }
        }
        if self.ordered {
            if let Some(perm) = block.sort_by_key() {
                members = perm.iter().map(|&i| members[i].clone()).collect();
            }
        }
        (block, members)
    }
}

/// A point of the scan differential: generated row `i`, read back from
/// the block's buffers, or a tuple encoded against the block.
#[derive(Debug)]
enum Point {
    Member(usize),
    Tuple(Row),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused walk of `first_dominator` against the two-loop
    /// definition: each candidate's verdict is the first block row `i` with
    /// `compare(cand, row_i) == DominatedBy`, on every tier, for ordered
    /// and unordered blocks of 0–300 rows, `Int64` / `Float64` / `Boolean`
    /// columns under MIN/MAX/DIFF mixes, NULL and NaN rows, infinities,
    /// signed zeros, `i64` extremes and equal-key ties — and under the
    /// incomplete relation, a class block whose NULL columns every
    /// candidate of another class meets as `Skip` dimensions. `tested`
    /// counts the rows up to the dominator's 4-row step (or up to the key
    /// bound) and is the same on every tier.
    #[test]
    fn first_dominator_matches_the_two_loop_definition(
        seed in 0u64..1_000_000_000,
        len in 0usize..301,
        shape in 0u8..8,
    ) {
        let mut case = KernelCase::new(seed, len, shape);
        let n = case.rng.gen_range(0usize..20);
        let cand_rows: Vec<Row> = (0..n).map(|_| case.row(false)).collect();
        let checker = &case.checker;
        let mut tier_tested: Option<Vec<u64>> = None;
        for tier in KernelTier::available() {
            let (block, members) = case.block(tier);
            let cands: Vec<(&Row, EncodedCandidate)> = cand_rows
                .iter()
                .filter_map(|c| block.encode(c).map(|enc| (c, enc)))
                .collect();
            let mut tested = Vec::new();
            let mut tests = WalkTests::default();
            for (cand, enc) in &cands {
                let res = block.first_dominator(enc, &mut tests);
                let expected = members
                    .iter()
                    .position(|m| checker.compare(cand, m) == Dominance::DominatedBy);
                prop_assert_eq!(
                    res.dominated_at, expected,
                    "tier {:?}, ordered {}, cand {}", tier, block.is_ordered(), cand
                );
                let incomparable = case.incomparable(cand);
                let end = if block.is_ordered() {
                    block.keys().partition_point(|&key| key <= enc.key())
                } else {
                    block.len()
                };
                let expected_tested = match (incomparable, expected) {
                    (true, _) => 0,
                    (false, Some(at)) => end.min((at | 3) + 1) as u64,
                    (false, None) => end as u64,
                };
                prop_assert_eq!(res.tested, expected_tested, "tier {:?}", tier);
                tested.push(res.tested);
            }
            match &tier_tested {
                None => tier_tested = Some(tested),
                Some(first) => prop_assert_eq!(first, &tested, "tier {:?} tested", tier),
            }
        }
    }

    /// The eviction scan of `mark_dominated` against the two-loop
    /// definition: from a random start row, over flags some of which are
    /// already cleared, `keep_after[i] = keep_before[i] && !(i >= start &&
    /// point strictly dominates row_i)`, and the scan passes every row
    /// from `start` to the end (none for a NULL-like point under the
    /// complete relation), the same on every tier. Blocks as in the walk
    /// differential, plus nine ranked float columns; points are the
    /// block's own members read from its buffers (`encode_member_into`,
    /// which must equal encoding the member's row), members with one to
    /// three values redrawn, and fresh tuples of any class. In an ordered
    /// block no member dominates a row whose key is below its own.
    #[test]
    fn mark_dominated_matches_the_two_loop_definition(
        seed in 0u64..1_000_000_000,
        len in 0usize..301,
        shape in 0u8..10,
    ) {
        let mut case = KernelCase::new(seed, len, shape);
        let n = case.rng.gen_range(0usize..24);
        // (point, start, pre-cleared flags)
        let draws: Vec<(Point, usize, Vec<bool>)> = (0..n)
            .map(|_| {
                let member = (!case.rows.is_empty() && case.rng.gen_bool(0.7))
                    .then(|| case.rng.gen_range(0..case.rows.len()));
                let point = match member {
                    Some(i) if case.rng.gen_bool(0.5) => Point::Member(i),
                    Some(i) => {
                        let mut values = case.rows[i].values().to_vec();
                        for _ in 0..case.rng.gen_range(1..4) {
                            let d = case.rng.gen_range(0..case.dims);
                            values[d] = case.value(d, true);
                        }
                        Point::Tuple(Row::new(values))
                    }
                    None => Point::Tuple(case.row(false)),
                };
                let start = case.rng.gen_range(0..len + 3);
                let cleared = (0..len).map(|_| case.rng.gen_bool(0.2)).collect();
                (point, start, cleared)
            })
            .collect();
        let checker = &case.checker;
        let mut first_tier: Option<Vec<(Vec<bool>, u64)>> = None;
        for tier in KernelTier::available() {
            let (block, members) = case.block(tier);
            let mut outcomes = Vec::new();
            let mut tests = WalkTests::default();
            for (point, start, cleared) in &draws {
                let (point_row, encoded) = match point {
                    Point::Member(i) => {
                        // A row the block refused is no member.
                        let Some(at) = members.iter().position(|m| m == &case.rows[*i]) else {
                            continue;
                        };
                        let mut read = EncodedCandidate::new();
                        block.encode_member_into(at, &mut read);
                        if !case.incomparable(&members[at]) {
                            let encoded = block.encode(&members[at]).expect("a member encodes");
                            prop_assert_eq!(&read, &encoded, "member {}", &members[at]);
                        }
                        if block.is_ordered() {
                            for (m, key) in members.iter().zip(block.keys()) {
                                if checker.compare(&members[at], m) == Dominance::Dominates {
                                    prop_assert!(block.keys()[at] <= *key, "{} over {}", &members[at], m);
                                }
                            }
                        }
                        (&members[at], read)
                    }
                    Point::Tuple(row) => match block.encode(row) {
                        Some(encoded) => (row, encoded),
                        None => continue,
                    },
                };
                let mut keep: Vec<bool> = cleared[..block.len()].iter().map(|c| !c).collect();
                let before = keep.clone();
                let passed = block.mark_dominated(&encoded, *start, &mut keep, &mut tests);
                let expected: Vec<bool> = (before.iter().zip(&members).enumerate())
                    .map(|(i, (&kept, m))| {
                        kept && !(i >= *start && checker.compare(point_row, m) == Dominance::Dominates)
                    })
                    .collect();
                prop_assert_eq!(&keep, &expected, "tier {:?}, point {}, start {}", tier, point_row, start);
                let expected_passed = if case.incomparable(point_row) {
                    0
                } else {
                    block.len().saturating_sub(*start)
                };
                prop_assert_eq!(passed, expected_passed as u64, "tier {:?}", tier);
                outcomes.push((keep, passed));
            }
            match &first_tier {
                None => first_tier = Some(outcomes),
                Some(first) => prop_assert_eq!(first, &outcomes, "tier {:?}", tier),
            }
        }
    }
}
