//! Tier differential for the columnar dominance kernel: every compare tier
//! the CPU offers (`KernelTier::available()`: the portable chunked loop,
//! plus AVX2 where it is detected) must be invisible in the results of the
//! kernel's three callers — `BnlBuilder` (the complete local phase),
//! `GroupedBnlBuilder` (the incomplete local phase, one window per
//! null-bitmap class) and `cross_filter` (the global pairwise merge over
//! key-sorted blocks). Their rows are byte-identical across tiers, in
//! identical order, and are the rows of the naive Definition-3.2 skyline
//! on every cell of the shared Börzsönyi matrix (3 distributions × dims
//! {2, 4, 8} × NULL fractions), on DIFF/MIN/MAX mixes, and on a Utf8 DIFF
//! column that demotes the kernel to its scalar fallback. Only the
//! performed-test counters may differ between tiers, and they must
//! attribute the work: the chunked tier runs no SIMD tests, and the
//! detected AVX2 tier does.
//!
//! A query always runs on the detected tier; the builders'
//! `vectorized: false` and `ColumnarBlock::with_tier` are the only pins,
//! so this suite drives the kernel at that API.

mod common;

use common::{flat_incomplete_oracle, generate_with_null_fraction, oracle, DISTRIBUTIONS};
use proptest::prelude::*;
use sparkline::{Row, Value};
use sparkline_common::{SkylineDim, SkylineSpec, SkylineType};
use sparkline_exec::partition::split_evenly;
use sparkline_skyline::{
    cross_filter, naive_skyline, null_bitmap, BnlBuilder, ColumnarBlock, CrossFilterScratch,
    DominanceChecker, GroupedBnlBuilder, KernelTier, SkylineStats,
};

/// The builders' `vectorized` flag for `tier`: the SIMD tier of
/// `KernelTier::available()` is the detected one.
fn vectorized(tier: KernelTier) -> bool {
    tier.is_simd()
}

/// The engine's two skyline phases, by hand, on `tier`: a local skyline
/// per even partition of `rows` (pushed in 64-row batches), cut into
/// antichain blocks — a partition's local skyline under the complete
/// relation, one null-bitmap class run of it under the incomplete one —
/// then each block cross-filtered against every other block's key-sorted
/// encoding, the survivors concatenated in block order. Returns the
/// concatenated local skylines, the merged rows and the statistics of both
/// phases.
fn two_phase(
    rows: &[Row],
    checker: &DominanceChecker,
    tier: KernelTier,
    partitions: usize,
) -> (Vec<Row>, Vec<Row>, SkylineStats) {
    let incomplete = checker.is_incomplete();
    let mut stats = SkylineStats::default();
    let mut locals = Vec::new();
    let mut blocks: Vec<Vec<Row>> = Vec::new();
    for part in split_evenly(rows.to_vec(), partitions) {
        let (local, local_stats) = if incomplete {
            let mut builder = GroupedBnlBuilder::new(checker.clone(), vectorized(tier));
            part.chunks(64)
                .for_each(|batch| builder.push_batch(batch.to_vec()));
            builder.finish()
        } else {
            let mut builder = BnlBuilder::new(checker.clone(), vectorized(tier));
            part.chunks(64)
                .for_each(|batch| builder.push_batch(batch.to_vec()));
            builder.finish()
        };
        stats.merge(&local_stats);
        if incomplete {
            let class = |row: &Row| null_bitmap(row, checker.spec());
            blocks.extend(
                local
                    .chunk_by(|a, b| class(a) == class(b))
                    .map(<[Row]>::to_vec),
            );
        } else if !local.is_empty() {
            blocks.push(local.clone());
        }
        locals.extend(local);
    }
    let encoded: Vec<ColumnarBlock> = blocks
        .iter()
        .map(|block_rows| {
            let mut block = ColumnarBlock::with_tier(checker.spec(), incomplete, tier);
            block_rows.iter().for_each(|row| block.push(row));
            block.sort_by_key();
            block
        })
        .collect();
    let mut scratch = CrossFilterScratch::default();
    let mut merged = Vec::new();
    for (i, cands) in blocks.iter().enumerate() {
        let mut alive = vec![true; cands.len()];
        for (j, against) in blocks.iter().enumerate() {
            if i != j {
                cross_filter(
                    checker,
                    cands,
                    &mut alive,
                    against,
                    &encoded[j],
                    &mut scratch,
                    &mut stats,
                );
            }
        }
        merged.extend(
            cands
                .iter()
                .zip(&alive)
                .filter(|(_, &alive)| alive)
                .map(|(row, _)| row.clone()),
        );
    }
    (locals, merged, stats)
}

/// [`two_phase`] on every available tier: asserts that the local and the
/// merged rows equal the oracles and are byte-identical across tiers, and
/// returns each tier's statistics.
fn every_tier(
    rows: &[Row],
    checker: &DominanceChecker,
    partitions: usize,
    case: &str,
) -> Vec<(KernelTier, SkylineStats)> {
    // The complete plan's oracle is the definition itself (order-preserving
    // BNL emits the skyline members in arrival order); the incomplete
    // plan's is the paper's all-pairs pass over the class skylines.
    let expected = if checker.is_incomplete() {
        flat_incomplete_oracle(rows, checker, partitions).0
    } else {
        naive_skyline(rows, checker)
    };
    let mut baseline: Option<(Vec<Row>, Vec<Row>)> = None;
    let mut stats = Vec::new();
    for tier in KernelTier::available() {
        let (locals, merged, tier_stats) = two_phase(rows, checker, tier, partitions);
        assert_eq!(merged, expected, "{case} {tier:?} vs oracle");
        match &baseline {
            None => baseline = Some((locals, merged)),
            Some(rows) => assert_eq!(
                (&locals, &merged),
                (&rows.0, &rows.1),
                "{case} {tier:?}: rows (and their order) must not depend on the tier"
            ),
        }
        stats.push((tier, tier_stats));
    }
    stats
}

/// An all-MIN spec over `dims` columns, under the relation the engine
/// selects for the data (incomplete when NULLs can occur).
fn min_checker(dims: usize, incomplete: bool) -> DominanceChecker {
    let spec = SkylineSpec::new((0..dims).map(SkylineDim::min).collect());
    if incomplete {
        DominanceChecker::incomplete(spec)
    } else {
        DominanceChecker::complete(spec)
    }
}

#[test]
fn kernel_knobs_are_byte_identical_across_the_matrix() {
    for dist in DISTRIBUTIONS {
        for dims in [2usize, 4, 8] {
            for null_fraction in [0.0, 0.2] {
                let rows = generate_with_null_fraction(dist, 11, 300, dims, null_fraction);
                let incomplete = null_fraction > 0.0;
                let checker = min_checker(dims, incomplete);
                let case = format!("{dist} dims={dims} nf={null_fraction}");
                every_tier(&rows, &checker, 3, &case);
                // As a set, the two phases compute the skyline of the
                // relation itself.
                let (_, merged, _) = two_phase(&rows, &checker, KernelTier::detect(), 3);
                let mut got: Vec<String> = merged.iter().map(Row::to_string).collect();
                got.sort();
                assert_eq!(got, oracle(&rows, dims, incomplete), "{case}");
            }
        }
    }
}

#[test]
fn kernel_knobs_agree_on_diff_min_max_mixes() {
    let checker = DominanceChecker::complete(SkylineSpec::new(vec![
        SkylineDim::diff(0),
        SkylineDim::min(1),
        SkylineDim::max(2),
        SkylineDim::min(3),
    ]));
    for dist in DISTRIBUTIONS {
        let rows = generate_with_null_fraction(dist, 23, 400, 4, 0.0);
        for (tier, m) in every_tier(&rows, &checker, 3, dist) {
            // Numeric DIFF dims ride the kernel's equality mask — no
            // scalar demotion.
            assert!(m.batched_tests > 0, "{dist} {tier:?}: {m:?}");
            assert_eq!(m.scalar_tests, 0, "{dist} {tier:?}: {m:?}");
        }
    }
}

#[test]
fn non_numeric_diff_demotes_every_kernel_to_the_same_scalar_path() {
    // A string DIFF column cannot be encoded; every tier must agree with
    // the definition through the scalar fallback.
    let rows: Vec<Row> = (0..120)
        .map(|i: i64| {
            Row::new(vec![
                Value::str(format!("g{}", i % 3)),
                Value::Float64((i % 17) as f64),
                Value::Float64(((i * 7) % 13) as f64),
            ])
        })
        .collect();
    let checker = DominanceChecker::complete(SkylineSpec::new(vec![
        SkylineDim::diff(0),
        SkylineDim::min(1),
        SkylineDim::min(2),
    ]));
    for (tier, m) in every_tier(&rows, &checker, 2, "utf8 diff") {
        assert!(m.scalar_tests > 0, "{tier:?} demotes to scalar: {m:?}");
        assert_eq!(m.batched_tests, 0, "{tier:?}: {m:?}");
        assert_eq!(m.simd_tests, 0, "{tier:?}: {m:?}");
    }
}

#[test]
fn forced_knobs_attribute_work_to_the_right_tier() {
    let rows = generate_with_null_fraction("independent", 5, 500, 3, 0.0);
    let checker = min_checker(3, false);
    let stats = every_tier(&rows, &checker, 3, "independent");
    for (tier, m) in &stats {
        assert!(m.batched_tests > 0, "{tier:?}: {m:?}");
        assert_eq!(m.scalar_tests, 0, "{tier:?}: {m:?}");
        assert!(m.multi_candidate_passes > 0, "{tier:?}: {m:?}");
        assert!(
            m.simd_tests <= m.batched_tests,
            "SIMD tests are a subset of batched tests: {m:?}"
        );
        if tier.is_simd() {
            assert!(m.simd_tests > 0, "{tier:?} runs SIMD: {m:?}");
        } else {
            assert_eq!(m.simd_tests, 0, "the chunked tier must not use SIMD");
        }
    }
    assert_eq!(
        stats[0].0,
        KernelTier::Chunked,
        "the portable tier is first"
    );
    assert_eq!(
        stats.last().map(|(tier, _)| *tier),
        Some(KernelTier::detect()),
        "the detected tier is always available"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random small nullable datasets with random MIN/MAX/DIFF dimension
    /// mixes under the incomplete relation the engine selects for
    /// nullable dimensions: every tier returns exactly the same rows (and
    /// order), and as a set the naive skyline.
    #[test]
    fn random_specs_are_knob_invariant(
        rows in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![4 => (0i64..8).prop_map(Some), 1 => Just(None)],
                3,
            ),
            1..90,
        ),
        dim_kinds in prop::collection::vec(0u8..3, 2),
        partitions in 1usize..4,
    ) {
        let table: Vec<Row> = rows
            .iter()
            .map(|vals| {
                Row::new(
                    vals.iter()
                        .map(|v| v.map(Value::Int64).unwrap_or(Value::Null))
                        .collect(),
                )
            })
            .collect();
        // d0 is always a strict dimension so the spec stays meaningful.
        let types = [SkylineType::Min, SkylineType::Max, SkylineType::Diff];
        let dims: Vec<SkylineDim> = std::iter::once(SkylineDim::min(0))
            .chain(
                dim_kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| SkylineDim::new(i + 1, types[k as usize])),
            )
            .collect();
        let checker = DominanceChecker::incomplete(SkylineSpec::new(dims));
        let mut expected: Vec<String> = naive_skyline(&table, &checker)
            .iter()
            .map(Row::to_string)
            .collect();
        expected.sort();
        every_tier(&table, &checker, partitions, "random spec");
        let (_, merged, _) = two_phase(&table, &checker, KernelTier::detect(), partitions);
        let mut got: Vec<String> = merged.iter().map(Row::to_string).collect();
        got.sort();
        prop_assert_eq!(&got, &expected);
    }
}
