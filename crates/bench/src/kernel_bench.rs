//! Dominance-kernel microbenchmarks and their machine-readable
//! trajectory files.
//!
//! Two sweeps share one protocol (the `harness` best-of-N loop on the
//! Börzsönyi anti-correlated workload, the dominance-test-heavy one):
//!
//! * the PR 2 scalar-vs-columnar sweep (`BENCH_PR2.json`), timing the
//!   local skyline phase once through the scalar [`DominanceChecker`]
//!   and once through the columnar batch kernel;
//! * the PR 6 explicit-SIMD sweep (`BENCH_PR6.json`), a
//!   kernel-knob × admission-mode grid — `scalar`/`chunked`/`simd`
//!   crossed with one-candidate (per-row window step) and
//!   multi-candidate (the cross-filter batch fold, [`MULTI_LANES`]
//!   candidates per block walk) admission — plus the
//!   [`CANDIDATE_FIRST_CHUNK`] tuning curve the constant is pinned
//!   against.
//!
//! Per-test cost (ns/test) plus throughput (rows/s, tests/s) are
//! recorded; the JSON outputs are intentionally stable so later PRs can
//! track the perf trajectory file-over-file.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkline_common::{DominanceKernel, Row, SkylineDim, SkylineSpec};
use sparkline_datagen::distributions::anti_correlated_rows;
use sparkline_skyline::{
    bnl_skyline, bnl_skyline_batched, bnl_skyline_kernel, kernel_label, BnlBuilder, ColumnarBlock,
    Dominance, DominanceChecker, SkylineStats, CANDIDATE_FIRST_CHUNK, CHUNK, MULTI_LANES,
};

use crate::harness::best_of_n;

/// One timed (variant, dimension-count) cell.
#[derive(Debug, Clone)]
pub struct KernelCell {
    /// `"scalar"` or `"columnar"`.
    pub variant: &'static str,
    /// Skyline dimension count.
    pub dims: usize,
    /// Input rows.
    pub rows: usize,
    /// Skyline size (must match between variants).
    pub skyline: usize,
    /// Wall-clock seconds of the local-phase BNL pass.
    pub secs: f64,
    /// Dominance tests performed.
    pub dominance_tests: u64,
    /// Tests routed through the columnar kernel.
    pub batched_tests: u64,
    /// Tests routed through the scalar checker.
    pub scalar_tests: u64,
    /// Nanoseconds per dominance test.
    pub ns_per_test: f64,
    /// Input rows per second.
    pub rows_per_sec: f64,
    /// Dominance tests per second.
    pub tests_per_sec: f64,
}

/// The full benchmark result: cells plus the scalar/columnar ns-per-test
/// ratio per dimension count (`> 1` means the columnar kernel is cheaper
/// per *performed* test).
///
/// Read the ratio together with each cell's `dominance_tests` and `secs`:
/// the two variants count tests differently — the scalar loop early-exits
/// per pair while the kernel's exit is chunk-granular, so the columnar
/// variant performs more (cheaper) tests on dominated-quickly workloads.
/// The JSON keeps both the per-test cost and the wall clock so neither
/// story hides the other.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// All measured cells, scalar and columnar.
    pub cells: Vec<KernelCell>,
    /// `(dims, scalar_ns_per_test / columnar_ns_per_test)`.
    pub speedups: Vec<(usize, f64)>,
}

fn spec(dims: usize) -> SkylineSpec {
    SkylineSpec::new((0..dims).map(SkylineDim::min).collect())
}

fn run_cell(variant: &'static str, dims: usize, rows_n: usize, seed: u64) -> KernelCell {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = anti_correlated_rows(&mut rng, rows_n, dims);
    let checker = DominanceChecker::complete(spec(dims));
    // One untimed warm-up pass, then the best of several timed passes —
    // the cells run in well under a millisecond, where a single sample is
    // at the mercy of the scheduler and the trajectory file would jitter.
    let pass = |stats: &mut SkylineStats| {
        if variant == "columnar" {
            bnl_skyline_batched(rows.clone(), &checker, stats)
        } else {
            bnl_skyline(rows.clone(), &checker, stats)
        }
    };
    let _ = pass(&mut SkylineStats::default());
    let (secs, (skyline, stats)) = best_of_n(5, || {
        let mut pass_stats = SkylineStats::default();
        let result = pass(&mut pass_stats);
        (result, pass_stats)
    });
    let tests = stats.dominance_tests.max(1);
    KernelCell {
        variant,
        dims,
        rows: rows_n,
        skyline: skyline.len(),
        secs,
        dominance_tests: stats.dominance_tests,
        batched_tests: stats.batched_tests,
        scalar_tests: stats.scalar_tests,
        ns_per_test: secs * 1e9 / tests as f64,
        rows_per_sec: rows_n as f64 / secs.max(1e-12),
        tests_per_sec: tests as f64 / secs.max(1e-12),
    }
}

/// Run the scalar-vs-columnar sweep. `quick` shrinks the input so test
/// suites stay fast; the full run uses the `ext1`-style anti-correlated
/// workload size.
pub fn run_kernel_bench(quick: bool) -> KernelBench {
    let rows_n = if quick { 1_500 } else { 12_000 };
    let dims_list: &[usize] = if quick { &[2, 4] } else { &[2, 3, 4, 6] };
    let mut cells = Vec::new();
    let mut speedups = Vec::new();
    for &dims in dims_list {
        let scalar = run_cell("scalar", dims, rows_n, 42);
        let columnar = run_cell("columnar", dims, rows_n, 42);
        assert_eq!(
            scalar.skyline, columnar.skyline,
            "scalar and columnar skylines must agree"
        );
        speedups.push((dims, scalar.ns_per_test / columnar.ns_per_test.max(1e-12)));
        cells.push(scalar);
        cells.push(columnar);
    }
    KernelBench { cells, speedups }
}

/// Serialize a benchmark run as the `BENCH_PR2.json` document.
pub fn to_json(bench: &KernelBench) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"columnar_dominance_kernel\",\n");
    out.push_str("  \"workload\": \"anti_correlated_bnl_local_phase\",\n");
    out.push_str("  \"cells\": [\n");
    for (i, c) in bench.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"variant\": \"{}\", \"dims\": {}, \"rows\": {}, \"skyline\": {}, \
             \"secs\": {:.6}, \"dominance_tests\": {}, \"batched_tests\": {}, \
             \"scalar_tests\": {}, \"ns_per_test\": {:.3}, \"rows_per_sec\": {:.1}, \
             \"tests_per_sec\": {:.1}}}{}",
            c.variant,
            c.dims,
            c.rows,
            c.skyline,
            c.secs,
            c.dominance_tests,
            c.batched_tests,
            c.scalar_tests,
            c.ns_per_test,
            c.rows_per_sec,
            c.tests_per_sec,
            if i + 1 < bench.cells.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n  \"scalar_over_columnar_ns_per_test\": {\n");
    for (i, (dims, ratio)) in bench.speedups.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"d{dims}\": {ratio:.3}{}",
            if i + 1 < bench.speedups.len() {
                ","
            } else {
                ""
            },
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// Run the sweep and write `BENCH_PR2.json` to `path`.
pub fn write_bench_pr2(path: &str, quick: bool) -> std::io::Result<KernelBench> {
    let bench = run_kernel_bench(quick);
    std::fs::write(path, to_json(&bench))?;
    Ok(bench)
}

// ---------------------------------------------------------------------------
// PR 6: the explicit-SIMD multi-candidate sweep (`BENCH_PR6.json`).
// ---------------------------------------------------------------------------

/// One timed (kernel knob, admission mode, dimension count) cell of the
/// PR 6 sweep.
#[derive(Debug, Clone)]
pub struct SimdCell {
    /// `"scalar"`, `"chunked"`, or `"simd"` (the forced knob).
    pub kernel: &'static str,
    /// `"one_candidate"` (per-row window admission, the PR 2 protocol) or
    /// `"multi_candidate"` (`push_batch`'s cross-filter fold:
    /// [`MULTI_LANES`] candidates per block walk).
    pub mode: &'static str,
    /// Skyline dimension count.
    pub dims: usize,
    /// Input rows.
    pub rows: usize,
    /// Skyline size (must match across every knob and mode).
    pub skyline: usize,
    /// Wall-clock seconds of the local-phase BNL pass.
    pub secs: f64,
    /// Dominance tests performed.
    pub dominance_tests: u64,
    /// Tests routed through the columnar kernel.
    pub batched_tests: u64,
    /// Batched tests answered by an explicit-SIMD tier.
    pub simd_tests: u64,
    /// Multi-candidate cross-filter passes executed.
    pub multi_candidate_passes: u64,
    /// Nanoseconds per performed dominance test.
    pub ns_per_test: f64,
    /// Input rows per second.
    pub rows_per_sec: f64,
}

/// The PR 6 benchmark result: the knob × mode grid, the headline speedup
/// per dimension count, and the [`CANDIDATE_FIRST_CHUNK`] tuning curve.
///
/// The `chunked` one-candidate cells reproduce PR 2's `columnar` variant
/// (same code path, knob-pinned), so `speedups` reads as "SIMD
/// multi-candidate over the PR 2 kernel, per performed test" measured in
/// one run on one machine. As in PR 2, the knobs count tests differently
/// (chunk-granular early exit, one-directional cross-filter passes) while
/// the windows stay byte-identical; both the per-test cost and the wall clock are
/// kept so neither story hides the other.
#[derive(Debug, Clone)]
pub struct SimdBench {
    /// What the `simd` knob resolves to on this CPU (e.g.
    /// `simd(avx2), lanes=8`, or `chunked` on a host without SIMD tiers).
    pub simd_tier: String,
    /// All measured cells, grouped per dimension count.
    pub cells: Vec<SimdCell>,
    /// `(dims, chunked one-candidate ns/test ÷ simd multi-candidate
    /// ns/test)` — the PR 6 acceptance ratio.
    pub speedups: Vec<(usize, f64)>,
    /// `(first_chunk, ns per candidate-vs-window pass)` for the
    /// progressive-doubling start size, measured on the widest sweep
    /// dimension count. [`CANDIDATE_FIRST_CHUNK`] is pinned at this
    /// curve's minimum.
    pub first_chunk_tuning: Vec<(usize, f64)>,
}

/// The forced knob behind each kernel column of the sweep.
fn knob(kernel: &str) -> DominanceKernel {
    match kernel {
        "scalar" => DominanceKernel::Scalar,
        "chunked" => DominanceKernel::Chunked,
        "simd" => DominanceKernel::Simd,
        other => panic!("unknown kernel column {other}"),
    }
}

fn run_simd_cell(
    kernel: &'static str,
    mode: &'static str,
    dims: usize,
    rows_n: usize,
    seed: u64,
) -> SimdCell {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = anti_correlated_rows(&mut rng, rows_n, dims);
    let checker = DominanceChecker::complete(spec(dims));
    let forced = knob(kernel);
    let pass = |stats: &mut SkylineStats| -> Vec<Row> {
        if mode == "multi_candidate" {
            // `push_batch` folds the rows into the window a chunk at a
            // time through the cross-filter, MULTI_LANES candidates per
            // block walk; the fold's inner survivor windows run on the
            // forced knob too, so the cell's counters stay on its tier.
            bnl_skyline_kernel(rows.clone(), &checker, stats, forced)
        } else {
            // Per-row admission: the PR 2 protocol on the forced knob.
            let mut builder = BnlBuilder::with_kernel(checker.clone(), forced);
            for row in rows.clone() {
                builder.push(row);
            }
            let (window, pass_stats) = builder.finish();
            stats.merge(&pass_stats);
            window
        }
    };
    let _ = pass(&mut SkylineStats::default());
    let (secs, (skyline, stats)) = best_of_n(5, || {
        let mut pass_stats = SkylineStats::default();
        let result = pass(&mut pass_stats);
        (result, pass_stats)
    });
    let tests = stats.dominance_tests.max(1);
    SimdCell {
        kernel,
        mode,
        dims,
        rows: rows_n,
        skyline: skyline.len(),
        secs,
        dominance_tests: stats.dominance_tests,
        batched_tests: stats.batched_tests,
        simd_tests: stats.simd_tests,
        multi_candidate_passes: stats.multi_candidate_passes,
        ns_per_test: secs * 1e9 / tests as f64,
        rows_per_sec: rows_n as f64 / secs.max(1e-12),
    }
}

/// Sweep the progressive-doubling start size of the single-candidate
/// compare on a realistic window: the final skyline of the widest sweep
/// cell becomes the block, and every input row is tested against it once
/// per `first_chunk` setting. The minimum of this curve is what
/// [`CANDIDATE_FIRST_CHUNK`] is pinned to.
fn first_chunk_sweep(dims: usize, rows_n: usize, seed: u64) -> Vec<(usize, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = anti_correlated_rows(&mut rng, rows_n, dims);
    let checker = DominanceChecker::complete(spec(dims));
    let skyline = bnl_skyline(rows.clone(), &checker, &mut SkylineStats::default());
    let mut block = ColumnarBlock::for_checker(&checker);
    for row in &skyline {
        block.push(row);
    }
    assert!(!block.is_fallback(), "numeric MIN dims must encode");
    let candidates: Vec<_> = rows
        .iter()
        .map(|row| block.encode(row).expect("numeric row encodes"))
        .collect();
    let mut curve = Vec::new();
    for first_chunk in [1usize, 2, 4, 8, 16, CHUNK] {
        let mut out: Vec<Dominance> = Vec::new();
        let mut run = || {
            let mut tested = 0u64;
            for cand in &candidates {
                tested += block
                    .compare_batch_tuned(cand, &mut out, true, first_chunk)
                    .tested;
            }
            tested
        };
        let _ = run();
        let (secs, _) = best_of_n(5, run);
        curve.push((first_chunk, secs * 1e9 / candidates.len().max(1) as f64));
    }
    curve
}

/// Run the PR 6 knob × mode sweep. `quick` shrinks the input so test
/// suites stay fast; the full run mirrors the PR 2 workload sizes.
pub fn run_simd_bench(quick: bool) -> SimdBench {
    let rows_n = if quick { 1_500 } else { 12_000 };
    let dims_list: &[usize] = if quick { &[2, 4] } else { &[2, 3, 4, 6] };
    let mut cells = Vec::new();
    let mut speedups = Vec::new();
    for &dims in dims_list {
        let mut baseline_skyline = None;
        let mut chunked_one = f64::NAN;
        let mut simd_multi = f64::NAN;
        for kernel in ["scalar", "chunked", "simd"] {
            for mode in ["one_candidate", "multi_candidate"] {
                let cell = run_simd_cell(kernel, mode, dims, rows_n, 42);
                match baseline_skyline {
                    None => baseline_skyline = Some(cell.skyline),
                    Some(expected) => assert_eq!(
                        cell.skyline, expected,
                        "every knob and mode must produce the same skyline"
                    ),
                }
                if kernel == "chunked" && mode == "one_candidate" {
                    chunked_one = cell.ns_per_test;
                }
                if kernel == "simd" && mode == "multi_candidate" {
                    simd_multi = cell.ns_per_test;
                }
                cells.push(cell);
            }
        }
        speedups.push((dims, chunked_one / simd_multi.max(1e-12)));
    }
    let tuning_dims = *dims_list.last().expect("non-empty sweep");
    SimdBench {
        simd_tier: kernel_label(DominanceKernel::Simd),
        cells,
        speedups,
        first_chunk_tuning: first_chunk_sweep(tuning_dims, rows_n, 42),
    }
}

/// Serialize a PR 6 run as the `BENCH_PR6.json` document.
pub fn to_json_pr6(bench: &SimdBench) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"simd_multi_candidate_dominance_kernel\",\n");
    out.push_str("  \"workload\": \"anti_correlated_bnl_local_phase\",\n");
    let _ = writeln!(out, "  \"simd_tier\": \"{}\",", bench.simd_tier);
    let _ = writeln!(out, "  \"multi_lanes\": {MULTI_LANES},");
    let _ = writeln!(out, "  \"candidate_first_chunk\": {CANDIDATE_FIRST_CHUNK},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in bench.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"mode\": \"{}\", \"dims\": {}, \"rows\": {}, \
             \"skyline\": {}, \"secs\": {:.6}, \"dominance_tests\": {}, \
             \"batched_tests\": {}, \"simd_tests\": {}, \"multi_candidate_passes\": {}, \
             \"ns_per_test\": {:.3}, \"rows_per_sec\": {:.1}}}{}",
            c.kernel,
            c.mode,
            c.dims,
            c.rows,
            c.skyline,
            c.secs,
            c.dominance_tests,
            c.batched_tests,
            c.simd_tests,
            c.multi_candidate_passes,
            c.ns_per_test,
            c.rows_per_sec,
            if i + 1 < bench.cells.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n  \"chunked_one_candidate_over_simd_multi_ns_per_test\": {\n");
    for (i, (dims, ratio)) in bench.speedups.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"d{dims}\": {ratio:.3}{}",
            if i + 1 < bench.speedups.len() {
                ","
            } else {
                ""
            },
        );
    }
    out.push_str("  },\n  \"first_chunk_tuning_ns_per_candidate_pass\": {\n");
    for (i, (first_chunk, ns)) in bench.first_chunk_tuning.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"fc{first_chunk}\": {ns:.1}{}",
            if i + 1 < bench.first_chunk_tuning.len() {
                ","
            } else {
                ""
            },
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// Run the PR 6 sweep and write `BENCH_PR6.json` to `path`.
pub fn write_bench_pr6(path: &str, quick: bool) -> std::io::Result<SimdBench> {
    let bench = run_simd_bench(quick);
    std::fs::write(path, to_json_pr6(&bench))?;
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_consistent_cells() {
        let bench = run_kernel_bench(true);
        assert_eq!(bench.cells.len(), 4);
        assert_eq!(bench.speedups.len(), 2);
        for cell in &bench.cells {
            assert!(cell.dominance_tests > 0);
            assert!(cell.ns_per_test > 0.0);
            match cell.variant {
                "columnar" => assert_eq!(cell.scalar_tests, 0, "{cell:?}"),
                "scalar" => assert_eq!(cell.batched_tests, 0, "{cell:?}"),
                other => panic!("unexpected variant {other}"),
            }
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let bench = run_kernel_bench(true);
        let json = to_json(&bench);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"variant\"").count(), bench.cells.len());
        assert!(json.contains("\"scalar_over_columnar_ns_per_test\""));
        // Balanced braces/brackets (hand-rolled serializer sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn quick_simd_bench_attributes_work_to_the_right_cells() {
        let bench = run_simd_bench(true);
        // 3 kernels × 2 modes × 2 quick dimension counts.
        assert_eq!(bench.cells.len(), 12);
        assert_eq!(bench.speedups.len(), 2);
        assert!(!bench.simd_tier.is_empty());
        for cell in &bench.cells {
            assert!(cell.dominance_tests > 0, "{cell:?}");
            assert!(cell.ns_per_test > 0.0, "{cell:?}");
            match cell.kernel {
                "scalar" => {
                    assert_eq!(cell.batched_tests, 0, "{cell:?}");
                    assert_eq!(cell.simd_tests, 0, "{cell:?}");
                    assert_eq!(cell.multi_candidate_passes, 0, "{cell:?}");
                }
                "chunked" => {
                    assert!(cell.batched_tests > 0, "{cell:?}");
                    assert_eq!(cell.simd_tests, 0, "{cell:?}");
                }
                "simd" => {
                    assert!(cell.batched_tests > 0, "{cell:?}");
                    assert!(cell.simd_tests <= cell.batched_tests, "{cell:?}");
                }
                other => panic!("unexpected kernel column {other}"),
            }
            match cell.mode {
                "one_candidate" => {
                    assert_eq!(cell.multi_candidate_passes, 0, "{cell:?}")
                }
                "multi_candidate" => {
                    if cell.kernel != "scalar" {
                        assert!(cell.multi_candidate_passes > 0, "{cell:?}");
                    }
                }
                other => panic!("unexpected mode column {other}"),
            }
        }
        // The tuning curve covers the pinned constant.
        assert!(bench
            .first_chunk_tuning
            .iter()
            .any(|&(fc, _)| fc == CANDIDATE_FIRST_CHUNK));
        assert!(bench.first_chunk_tuning.iter().all(|&(_, ns)| ns > 0.0));
    }

    #[test]
    fn pr6_json_is_well_formed_enough() {
        let bench = run_simd_bench(true);
        let json = to_json_pr6(&bench);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"kernel\"").count(), bench.cells.len());
        assert!(json.contains("\"chunked_one_candidate_over_simd_multi_ns_per_test\""));
        assert!(json.contains("\"first_chunk_tuning_ns_per_candidate_pass\""));
        assert!(json.contains("\"simd_tier\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
