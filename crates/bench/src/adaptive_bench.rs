//! Adaptive-vs-fixed planning benchmark and the machine-readable
//! `BENCH_PR4.json` trajectory file (the `ext5` experiment).
//!
//! For each Börzsönyi distribution (correlated / independent /
//! anti-correlated, 3 dims) the same skyline query runs once under
//! `SkylineStrategy::Adaptive` — the static plan shape plus the
//! sample-driven representative-point pre-filter — and once under each
//! fixed partitioning scheme (standard / angle). Results must agree
//! exactly; the interesting numbers are how many rows the pre-filter
//! discarded before the local phase and where the adaptive wall clock
//! lands against the best and worst fixed scheme. No clock is asserted:
//! with the hash, even and grid schemes gone, the adaptive plan is the
//! standard one plus the pre-filter, which is slower than both fixed
//! plans on anti-correlated input (the pre-filter's cost is an open
//! measurement, not a bar this benchmark holds).

use std::fmt::Write as _;

use sparkline::{
    DataType, Field, Schema, SessionConfig, SessionContext, SkylinePartitioning, SkylineStrategy,
};

use crate::harness::{best_of_three, borzsonyi_rows, skyline_sql};

const DIMS: usize = 3;
const EXECUTORS: usize = 5;
const FIXED: [(&str, SkylinePartitioning); 2] = [
    ("standard", SkylinePartitioning::Standard),
    ("angle", SkylinePartitioning::AngleBased),
];

/// One timed (distribution, plan-variant) cell.
#[derive(Debug, Clone)]
pub struct AdaptiveCell {
    /// `"correlated"`, `"independent"`, or `"anti_correlated"`.
    pub distribution: &'static str,
    /// `"adaptive"` or the fixed scheme name.
    pub variant: &'static str,
    /// Input rows.
    pub rows: usize,
    /// Skyline size.
    pub result_rows: usize,
    /// Wall-clock seconds (best of three runs).
    pub secs: f64,
    /// Rows the representative pre-filter discarded (0 for fixed plans).
    pub prefilter_rows_dropped: u64,
}

/// Per-distribution summary: the adaptive plan against the fixed field.
#[derive(Debug, Clone)]
pub struct AdaptiveSummary {
    /// The distribution.
    pub distribution: &'static str,
    /// Adaptive wall clock.
    pub adaptive_secs: f64,
    /// Fastest fixed scheme and its wall clock.
    pub best_fixed: &'static str,
    /// Seconds of the fastest fixed scheme.
    pub best_fixed_secs: f64,
    /// Slowest fixed scheme and its wall clock.
    pub worst_fixed: &'static str,
    /// Seconds of the slowest fixed scheme.
    pub worst_fixed_secs: f64,
    /// Rows the pre-filter discarded under the adaptive plan.
    pub prefilter_rows_dropped: u64,
}

/// The full benchmark.
#[derive(Debug, Clone)]
pub struct AdaptiveBench {
    /// All measured cells (one adaptive + two fixed per distribution).
    pub cells: Vec<AdaptiveCell>,
    /// One summary per distribution.
    pub summaries: Vec<AdaptiveSummary>,
}

fn session(distribution: &str, n: usize) -> SessionContext {
    let ctx = SessionContext::new();
    ctx.register_table(
        "t",
        Schema::new(
            (0..DIMS)
                .map(|i| Field::new(format!("d{i}"), DataType::Float64, false))
                .collect(),
        ),
        borzsonyi_rows(distribution, n, DIMS, 42),
    )
    .expect("register bench table");
    ctx
}

/// Run one plan variant under the shared best-of-three protocol.
fn run_cell(
    base: &SessionContext,
    distribution: &'static str,
    variant: &'static str,
    config: SessionConfig,
    n: usize,
) -> (AdaptiveCell, Vec<String>) {
    let ctx = base.with_shared_catalog(config.with_executors(EXECUTORS));
    let df = ctx
        .sql(&skyline_sql(DIMS, true))
        .expect("parse bench query");
    let (secs, result) = best_of_three(&df);
    let cell = AdaptiveCell {
        distribution,
        variant,
        rows: n,
        result_rows: result.num_rows(),
        secs,
        prefilter_rows_dropped: result.metrics.prefilter_rows_dropped,
    };
    (cell, result.sorted_display())
}

/// Run the adaptive-vs-fixed sweep. `quick` shrinks the input so test
/// suites and CI smoke runs stay fast.
pub fn run_adaptive_bench(quick: bool) -> AdaptiveBench {
    let n = if quick { 3_000 } else { 20_000 };
    let mut cells = Vec::new();
    let mut summaries = Vec::new();
    for distribution in ["correlated", "independent", "anti_correlated"] {
        let base = session(distribution, n);
        let (adaptive, expected) = run_cell(
            &base,
            distribution,
            "adaptive",
            SessionConfig::default().with_skyline_strategy(SkylineStrategy::Adaptive),
            n,
        );
        assert!(
            adaptive.prefilter_rows_dropped > 0,
            "{distribution}: the representative pre-filter discarded nothing"
        );
        let mut fixed = Vec::new();
        for (label, scheme) in FIXED {
            let (cell, rows) = run_cell(
                &base,
                distribution,
                label,
                SessionConfig::default().with_skyline_partitioning(scheme),
                n,
            );
            assert_eq!(
                rows, expected,
                "{distribution}/{label}: fixed plan disagrees with adaptive"
            );
            fixed.push(cell);
        }
        let best = fixed
            .iter()
            .min_by(|a, b| a.secs.total_cmp(&b.secs))
            .expect("fixed cells")
            .clone();
        let worst = fixed
            .iter()
            .max_by(|a, b| a.secs.total_cmp(&b.secs))
            .expect("fixed cells")
            .clone();
        summaries.push(AdaptiveSummary {
            distribution,
            adaptive_secs: adaptive.secs,
            best_fixed: best.variant,
            best_fixed_secs: best.secs,
            worst_fixed: worst.variant,
            worst_fixed_secs: worst.secs,
            prefilter_rows_dropped: adaptive.prefilter_rows_dropped,
        });
        cells.push(adaptive);
        cells.extend(fixed);
    }
    AdaptiveBench { cells, summaries }
}

/// Serialize a benchmark run as the `BENCH_PR4.json` document.
pub fn to_json(bench: &AdaptiveBench) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"adaptive_planning\",\n");
    out.push_str("  \"workload\": \"skyline_3d_adaptive_vs_fixed_partitioning\",\n");
    out.push_str("  \"cells\": [\n");
    for (i, c) in bench.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"distribution\": \"{}\", \"variant\": \"{}\", \"rows\": {}, \
             \"result_rows\": {}, \"secs\": {:.6}, \"prefilter_rows_dropped\": {}}}{}",
            c.distribution,
            c.variant,
            c.rows,
            c.result_rows,
            c.secs,
            c.prefilter_rows_dropped,
            if i + 1 < bench.cells.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n  \"summary\": [\n");
    for (i, s) in bench.summaries.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"distribution\": \"{}\", \"adaptive_secs\": {:.6}, \
             \"best_fixed\": \"{}\", \"best_fixed_secs\": {:.6}, \
             \"worst_fixed\": \"{}\", \"worst_fixed_secs\": {:.6}, \
             \"prefilter_rows_dropped\": {}}}{}",
            s.distribution,
            s.adaptive_secs,
            s.best_fixed,
            s.best_fixed_secs,
            s.worst_fixed,
            s.worst_fixed_secs,
            s.prefilter_rows_dropped,
            if i + 1 < bench.summaries.len() {
                ","
            } else {
                ""
            },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run the sweep and write `BENCH_PR4.json` to `path`.
pub fn write_bench_pr4(path: &str, quick: bool) -> std::io::Result<AdaptiveBench> {
    let bench = run_adaptive_bench(quick);
    std::fs::write(path, to_json(&bench))?;
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_exercises_adaptive_planning() {
        let bench = run_adaptive_bench(true);
        assert_eq!(bench.cells.len(), 9, "1 adaptive + 2 fixed × 3");
        assert_eq!(bench.summaries.len(), 3);
        for s in &bench.summaries {
            assert!(s.prefilter_rows_dropped > 0, "{s:?}");
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let bench = run_adaptive_bench(true);
        let json = to_json(&bench);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"variant\"").count(), bench.cells.len());
        assert_eq!(
            json.matches("\"adaptive_secs\"").count(),
            bench.summaries.len()
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
