//! Sampling-based dataset statistics for adaptive skyline planning.
//!
//! The paper fixes the partitioning scheme and algorithm per query via
//! configuration, but its own experiments (§6) show the best choice flips
//! with dimensionality and correlation. This module computes the
//! statistics that decision needs from a small, **seeded** reservoir
//! sample of the input: row counts, per-dimension min/max/NULL fraction,
//! and a Spearman-style rank-correlation estimate over the ranked skyline
//! dimensions (negative ≙ anti-correlated trade-offs, positive ≙
//! correlated). `SkylinePlan::select_adaptive` consumes a
//! [`DatasetStats`] to budget the representative-point pre-filter (from
//! the skyline fraction) and to pick the incomplete family's global merge
//! (from the NULL fractions); the same sample seeds the pre-filter's
//! points (see `sparkline_skyline::prefilter`). No plan decision reads the
//! correlation estimate today.
//!
//! Everything here is deterministic: the reservoir is driven by a
//! SplitMix64 generator seeded from `SessionConfig::sample_seed`, so
//! repeated `EXPLAIN`s of the same query report the same chosen strategy.

use crate::row::Row;
use crate::skyline::{SkylineSpec, SkylineType};
use crate::value::Value;

/// Minimal deterministic generator (SplitMix64) for reservoir sampling.
/// Local so `sparkline-common` keeps its no-dependency guarantee.
#[derive(Debug, Clone)]
pub struct SampleRng(u64);

impl SampleRng {
    /// Generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SampleRng(seed)
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Incremental Algorithm-R reservoir: push rows one at a time (e.g. rows
/// of a stream, or base-table rows surviving a plan-time filter chain)
/// and take a uniform `cap`-row sample at the end, deterministic per
/// seed.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    rng: SampleRng,
    seen: usize,
    rows: Vec<Row>,
}

impl Reservoir {
    /// Empty reservoir of `cap` rows driven by `seed`.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            rng: SampleRng::new(seed),
            seen: 0,
            rows: Vec::with_capacity(cap.min(64)),
        }
    }

    /// Offer one row to the sample.
    pub fn push(&mut self, row: Row) {
        if self.cap == 0 {
            self.seen += 1;
            return;
        }
        if self.seen < self.cap {
            self.rows.push(row);
        } else {
            let j = self.rng.index(self.seen + 1);
            if j < self.cap {
                self.rows[j] = row;
            }
        }
        self.seen += 1;
    }

    /// Rows offered so far (the population size of the sample).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The sampled rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }
}

/// Algorithm-R reservoir sample of `cap` rows, deterministic per seed.
/// Returns all rows (cloned) when the input fits the reservoir.
pub fn reservoir_sample(rows: &[Row], cap: usize, seed: u64) -> Vec<Row> {
    let mut reservoir = Reservoir::new(cap, seed);
    for row in rows {
        reservoir.push(row.clone());
    }
    reservoir.into_rows()
}

/// Numeric view of a value; `None` for NULL / NaN / non-numeric values
/// (the same values the partitioners route past their numeric machinery).
pub fn numeric_value(v: &Value) -> Option<f64> {
    match v {
        Value::Int64(i) => Some(*i as f64),
        Value::Float64(f) if !f.is_nan() => Some(*f),
        Value::Boolean(b) => Some(f64::from(*b)),
        _ => None,
    }
}

/// Per-dimension statistics over the sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimStats {
    /// Smallest numeric value seen (raw space, before MIN/MAX folding);
    /// `None` when no sampled row had a numeric value in this dimension.
    pub min: Option<f64>,
    /// Largest numeric value seen.
    pub max: Option<f64>,
    /// Fraction of sampled rows that are NULL-like (NULL, NaN, or
    /// non-numeric) in this dimension.
    pub null_fraction: f64,
}

/// Dataset statistics the adaptive planner consumes, computed from a
/// (reservoir) sample of the skyline operator's input.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Rows in the sample the statistics were computed from.
    pub sample_rows: usize,
    /// Rows in the population the sample was drawn from (for the
    /// planner's samples: the rows actually surviving the filter chain
    /// above the base relation).
    pub total_rows: usize,
    /// Skyline dimensions (all kinds, in spec order).
    pub dims: usize,
    /// Per-dimension statistics, aligned with the spec's dimensions.
    pub per_dim: Vec<DimStats>,
    /// Mean pairwise Spearman rank correlation over the leading ranked
    /// dimensions, in **folded** space (MIN/MAX collapsed to
    /// smaller-is-better): `< 0` means anti-correlated trade-offs (large
    /// skylines), `> 0` correlated data (small skylines). `0.0` when the
    /// sample admits no estimate (too few rows, non-numeric dims).
    pub correlation: f64,
    /// Fraction of (a capped prefix of) the sample that is
    /// Pareto-optimal — the direct selectivity predictor the pre-filter
    /// budget keys on. Near 0 for correlated data (a few rows dominate
    /// everything), large for anti-correlated trade-offs.
    pub skyline_fraction: f64,
}

/// How many leading ranked dimensions feed the correlation estimate; the
/// pairwise average over more dims adds cost without changing the sign.
const CORRELATION_DIMS: usize = 3;

/// Cap on the rows entering the O(n²) skyline-fraction estimate, keeping
/// plan-time cost bounded independently of the configured sample size.
const SKYLINE_ESTIMATE_CAP: usize = 256;

/// Fixed seed of the estimate's sub-sample. A positional prefix would be
/// biased when the sample preserves input order (inputs at or below the
/// reservoir size come back verbatim, so a table sorted on a dimension
/// would hand the estimator only its best rows); re-sampling keeps the
/// slice uniform and the whole computation deterministic.
const SKYLINE_ESTIMATE_SEED: u64 = 0xE571_AA7E;

impl DatasetStats {
    /// Compute statistics from a sample of the skyline input.
    ///
    /// `sample` should come from [`reservoir_sample`] (or be the full
    /// input); `total_rows` is the size of the population it was drawn
    /// from.
    pub fn from_sample(sample: &[Row], total_rows: usize, spec: &SkylineSpec) -> Self {
        let n = sample.len();
        let per_dim: Vec<DimStats> = spec
            .dims
            .iter()
            .map(|dim| {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                let mut nulls = 0usize;
                let mut seen = false;
                for row in sample {
                    match numeric_value(row.get(dim.index)) {
                        Some(v) => {
                            min = min.min(v);
                            max = max.max(v);
                            seen = true;
                        }
                        None => nulls += 1,
                    }
                }
                DimStats {
                    min: seen.then_some(min),
                    max: seen.then_some(max),
                    null_fraction: if n == 0 { 0.0 } else { nulls as f64 / n as f64 },
                }
            })
            .collect();

        // Folded columns of the leading ranked dimensions: rows missing a
        // numeric value in one dimension are skipped per pair.
        let ranked: Vec<_> = spec.ranked_dims().take(CORRELATION_DIMS).collect();
        let columns: Vec<Vec<Option<f64>>> = ranked
            .iter()
            .map(|dim| {
                sample
                    .iter()
                    .map(|row| {
                        numeric_value(row.get(dim.index)).map(|v| {
                            if dim.ty == SkylineType::Max {
                                -v
                            } else {
                                v
                            }
                        })
                    })
                    .collect()
            })
            .collect();
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for a in 0..columns.len() {
            for b in (a + 1)..columns.len() {
                let (xs, ys): (Vec<f64>, Vec<f64>) = columns[a]
                    .iter()
                    .zip(&columns[b])
                    .filter_map(|(x, y)| x.zip(*y))
                    .unzip();
                if let Some(rho) = spearman(&xs, &ys) {
                    sum += rho;
                    pairs += 1;
                }
            }
        }
        DatasetStats {
            sample_rows: n,
            total_rows,
            dims: spec.dims.len(),
            per_dim,
            correlation: if pairs == 0 { 0.0 } else { sum / pairs as f64 },
            skyline_fraction: if n > SKYLINE_ESTIMATE_CAP {
                estimate_skyline_fraction(
                    &reservoir_sample(sample, SKYLINE_ESTIMATE_CAP, SKYLINE_ESTIMATE_SEED),
                    spec,
                )
            } else {
                estimate_skyline_fraction(sample, spec)
            },
        }
    }

    /// Largest per-dimension NULL fraction — the signal that the
    /// complete-data family would inflate the skyline with incomparable
    /// tuples.
    pub fn max_null_fraction(&self) -> f64 {
        self.per_dim
            .iter()
            .map(|d| d.null_fraction)
            .fold(0.0, f64::max)
    }
}

/// Whether `a` strictly dominates `b` under the complete relation,
/// evaluated in folded numeric space. Conservative: any NULL-like value
/// in a ranked dimension makes the pair incomparable (matching the
/// complete checker), and `DIFF` dimensions require exact value equality.
fn estimate_dominates(a: &Row, b: &Row, spec: &SkylineSpec) -> bool {
    let mut strictly = false;
    for dim in &spec.dims {
        let (va, vb) = (a.get(dim.index), b.get(dim.index));
        if dim.ty == SkylineType::Diff {
            if va != vb {
                return false;
            }
            continue;
        }
        let (Some(x), Some(y)) = (numeric_value(va), numeric_value(vb)) else {
            return false;
        };
        let (x, y) = if dim.ty == SkylineType::Max {
            (-x, -y)
        } else {
            (x, y)
        };
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Fraction of `rows` no other row strictly dominates — the sample's
/// skyline proportion under the (estimated) complete relation.
fn estimate_skyline_fraction(rows: &[Row], spec: &SkylineSpec) -> f64 {
    if rows.is_empty() || spec.ranked_dims().count() == 0 {
        return 0.0;
    }
    let optimal = rows
        .iter()
        .filter(|row| {
            !rows
                .iter()
                .any(|other| estimate_dominates(other, row, spec))
        })
        .count();
    optimal as f64 / rows.len() as f64
}

/// Average ranks (ties share the mean of their positions), 1-based.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaN in ranks"));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = mean_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson over average ranks); `None` when
/// fewer than 3 pairs or a column is constant.
fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len();
    if n < 3 || n != ys.len() {
        return None;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    let mean = (n as f64 + 1.0) / 2.0;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in rx.iter().zip(&ry) {
        cov += (x - mean) * (y - mean);
        var_x += (x - mean) * (x - mean);
        var_y += (y - mean) * (y - mean);
    }
    if var_x == 0.0 || var_y == 0.0 {
        return None;
    }
    Some(cov / (var_x * var_y).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline::SkylineDim;

    fn rows2(data: &[(f64, f64)]) -> Vec<Row> {
        data.iter()
            .map(|&(a, b)| Row::new(vec![Value::Float64(a), Value::Float64(b)]))
            .collect()
    }

    fn spec2() -> SkylineSpec {
        SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)])
    }

    #[test]
    fn reservoir_is_deterministic_and_sized() {
        let rows = rows2(&(0..100).map(|i| (i as f64, i as f64)).collect::<Vec<_>>());
        let a = reservoir_sample(&rows, 16, 7);
        let b = reservoir_sample(&rows, 16, 7);
        assert_eq!(a, b, "same seed, same sample");
        assert_eq!(a.len(), 16);
        let c = reservoir_sample(&rows, 16, 8);
        assert_ne!(a, c, "different seed, different sample");
        assert_eq!(reservoir_sample(&rows, 200, 7).len(), 100, "cap > input");
        assert!(reservoir_sample(&rows, 0, 7).is_empty());
    }

    #[test]
    fn incremental_reservoir_matches_slice_sampling() {
        let rows = rows2(&(0..300).map(|i| (i as f64, i as f64)).collect::<Vec<_>>());
        let mut r = Reservoir::new(16, 7);
        for row in &rows {
            r.push(row.clone());
        }
        assert_eq!(r.seen(), 300);
        assert_eq!(r.into_rows(), reservoir_sample(&rows, 16, 7));
        let mut zero = Reservoir::new(0, 7);
        zero.push(rows[0].clone());
        assert_eq!(zero.seen(), 1);
        assert!(zero.into_rows().is_empty());
    }

    #[test]
    fn correlated_data_scores_positive_anti_negative() {
        let corr: Vec<(f64, f64)> = (0..200).map(|i| (i as f64, i as f64 + 0.5)).collect();
        let anti: Vec<(f64, f64)> = (0..200).map(|i| (i as f64, 200.0 - i as f64)).collect();
        let s_corr = DatasetStats::from_sample(&rows2(&corr), 200, &spec2());
        let s_anti = DatasetStats::from_sample(&rows2(&anti), 200, &spec2());
        assert!(s_corr.correlation > 0.9, "{}", s_corr.correlation);
        assert!(s_anti.correlation < -0.9, "{}", s_anti.correlation);
    }

    #[test]
    fn max_dims_fold_into_goodness_space() {
        // d0 MIN, d1 MAX with d1 = d0: good in one means bad in the other,
        // so folded correlation is negative.
        let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::max(1)]);
        let rows = rows2(&(0..100).map(|i| (i as f64, i as f64)).collect::<Vec<_>>());
        let s = DatasetStats::from_sample(&rows, 100, &spec);
        assert!(s.correlation < -0.9, "{}", s.correlation);
    }

    #[test]
    fn per_dim_stats_track_nulls_and_bounds() {
        let rows = vec![
            Row::new(vec![Value::Int64(4), Value::Null]),
            Row::new(vec![Value::Int64(-1), Value::Float64(2.5)]),
            Row::new(vec![Value::Int64(9), Value::Null]),
            Row::new(vec![Value::Null, Value::Float64(7.0)]),
        ];
        let s = DatasetStats::from_sample(&rows, 4, &spec2());
        assert_eq!(s.per_dim[0].min, Some(-1.0));
        assert_eq!(s.per_dim[0].max, Some(9.0));
        assert_eq!(s.per_dim[0].null_fraction, 0.25);
        assert_eq!(s.per_dim[1].null_fraction, 0.5);
        assert_eq!(s.max_null_fraction(), 0.5);
    }

    #[test]
    fn degenerate_samples_yield_neutral_correlation() {
        assert_eq!(
            DatasetStats::from_sample(&[], 0, &spec2()).correlation,
            0.0,
            "empty sample"
        );
        let constant = rows2(&[(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]);
        assert_eq!(
            DatasetStats::from_sample(&constant, 3, &spec2()).correlation,
            0.0,
            "constant column"
        );
        let strings: Vec<Row> = (0..5)
            .map(|i| Row::new(vec![Value::str(format!("s{i}")), Value::Int64(i)]))
            .collect();
        assert_eq!(
            DatasetStats::from_sample(&strings, 5, &spec2()).correlation,
            0.0,
            "non-numeric column"
        );
    }

    #[test]
    fn skyline_fraction_separates_distributions() {
        // Correlated diagonal: one point dominates everything.
        let corr: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64)).collect();
        let s = DatasetStats::from_sample(&rows2(&corr), 100, &spec2());
        assert!(s.skyline_fraction <= 0.02, "{}", s.skyline_fraction);
        // Anti-correlated diagonal: everything is Pareto-optimal.
        let anti: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 100.0 - i as f64)).collect();
        let s = DatasetStats::from_sample(&rows2(&anti), 100, &spec2());
        assert_eq!(s.skyline_fraction, 1.0);
    }

    #[test]
    fn skyline_fraction_respects_diff_and_nulls() {
        // Two DIFF groups: the dominated-looking row of group 2 is
        // incomparable to group 1 and stays optimal.
        let spec = SkylineSpec::new(vec![SkylineDim::diff(0), SkylineDim::min(1)]);
        let rows = vec![
            Row::new(vec![Value::Int64(1), Value::Int64(0)]),
            Row::new(vec![Value::Int64(2), Value::Int64(9)]),
        ];
        let s = DatasetStats::from_sample(&rows, 2, &spec);
        assert_eq!(s.skyline_fraction, 1.0);
        // A NULL makes the pair incomparable: both rows optimal.
        let rows = vec![
            Row::new(vec![Value::Int64(0), Value::Int64(0)]),
            Row::new(vec![Value::Null, Value::Int64(9)]),
        ];
        let s = DatasetStats::from_sample(&rows, 2, &spec2());
        assert_eq!(s.skyline_fraction, 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0];
        let ys = [2.0, 2.0, 3.0, 5.0, 5.0, 9.0];
        let rho = spearman(&xs, &ys).unwrap();
        assert!(rho > 0.99, "{rho}");
    }
}
