//! Representative-point pre-filtering (Ciaccia & Martinenghi's
//! representative filtering, adapted to the two-phase plan).
//!
//! Before the local phase runs, the planner computes the skyline of a
//! small seeded sample of the input and broadcasts it — capped at
//! `prefilter_max_points` — to every partition stream. During the scan,
//! each incoming tuple is tested against the representative points and
//! discarded if some point **strictly dominates** it; everything else
//! (incomparable, equal, NULL-bearing) passes through untouched.
//!
//! # Soundness
//!
//! Under the **complete-data** relation dominance is transitive, so a
//! strictly dominated tuple can never be a skyline member (nor a
//! `DISTINCT` representative — representatives are skyline members), and
//! dropping it early changes neither the final row set nor which
//! representative survives a tie (ties compare `Equal`, never
//! `DominatedBy`, so they are never dropped). The filter points are
//! sample rows of the same input: if a point is itself dominated later,
//! transitivity carries its kills to the dominator, so the global phase
//! agrees with the unfiltered plan. `DIFF` dimensions are handled by the
//! [`DominanceChecker`] itself (dominance additionally requires equality
//! there), and NULLs make a pair incomparable — both only *reduce* what
//! the filter may drop.
//!
//! Under the **incomplete** relation dominance is not transitive
//! (Appendix A's cycles), so discarding dominated tuples early is
//! unsound; the planner never builds a pre-filter for that family.
//!
//! The candidate-vs-points test reuses the PR 2 columnar kernel: the
//! filter set is encoded once into a [`ColumnarBlock`] per partition
//! stream, and each tuple is tested against all points in one chunked
//! pass with early exit; rows the kernel cannot represent take the scalar
//! checker, so filtering is exact either way.

use sparkline_common::{DominanceKernel, Row, SkylineSpec};

use crate::bnl::bnl_skyline;
use crate::columnar::{ColumnarBlock, EncodedCandidate, MULTI_LANES};
use crate::dominance::{Dominance, DominanceChecker, SkylineStats};

/// Compute the representative filter set for a sample: the sample's
/// skyline under the complete relation, deduplicated (`DISTINCT` — tie
/// duplicates add no pruning power) and truncated to `max_points`.
///
/// The truncation is deterministic (BNL window order of the sample), so
/// the same sample always yields the same filter.
pub fn representative_points(sample: &[Row], spec: &SkylineSpec, max_points: usize) -> Vec<Row> {
    if max_points == 0 || sample.is_empty() {
        return Vec::new();
    }
    let dedup_spec = SkylineSpec::distinct(spec.dims.clone());
    let checker = DominanceChecker::complete(dedup_spec);
    let mut stats = SkylineStats::default();
    let mut points = bnl_skyline(
        sample.iter().cloned(),
        &checker,
        &mut stats,
        DominanceKernel::Scalar,
    );
    points.truncate(max_points);
    points
}

/// Per-partition-stream filter state: the representative points encoded
/// once, plus the scratch buffers of the chunked kernel.
#[derive(Debug)]
pub struct RepresentativeFilter {
    checker: DominanceChecker,
    points: Vec<Row>,
    /// `Some` on the vectorized path (possibly in fallback, which routes
    /// every tuple to the scalar loop), `None` on the scalar one.
    block: Option<ColumnarBlock>,
    cand: EncodedCandidate,
    out: Vec<Dominance>,
}

impl RepresentativeFilter {
    /// Filter over `points` (from [`representative_points`]) under the
    /// complete relation of `spec`, on an explicit kernel knob.
    pub fn with_kernel(points: Vec<Row>, spec: &SkylineSpec, kernel: DominanceKernel) -> Self {
        let checker = DominanceChecker::complete(spec.clone());
        let block = kernel.is_vectorized().then(|| {
            let mut block = ColumnarBlock::for_checker_with(&checker, kernel);
            for p in &points {
                block.push(p);
            }
            block
        });
        RepresentativeFilter {
            checker,
            points,
            block,
            cand: EncodedCandidate::new(),
            out: Vec::new(),
        }
    }

    /// Number of representative points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the filter holds no points (and hence drops nothing).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether some representative point strictly dominates `row`.
    fn dominated(&mut self, row: &Row, stats: &mut SkylineStats) -> bool {
        if let Some(block) = self.block.as_ref() {
            if !block.is_fallback() && block.encode_into(row, &mut self.cand) {
                let res = block.compare_batch(&self.cand, &mut self.out, true);
                stats.add_block_tests(res.tested, block.is_simd());
                return res.dominated_at.is_some();
            }
        }
        scalar_dominated(&self.checker, &self.points, row, stats)
    }

    /// Keep the rows of `batch` no representative point strictly
    /// dominates, preserving order; returns the survivors and the number
    /// of rows dropped.
    ///
    /// On the kernel path the batch is filtered in multi-candidate
    /// passes: groups of [`MULTI_LANES`] rows share one walk over the
    /// encoded points. The filter only consumes strict-dominator hits, so
    /// the multi pass *is* the complete filter decision for every
    /// encodable row; rows the kernel cannot represent take the scalar
    /// loop, exactly as before.
    pub fn retain_batch(&mut self, batch: Vec<Row>, stats: &mut SkylineStats) -> (Vec<Row>, u64) {
        if self.points.is_empty() {
            return (batch, 0);
        }
        let before = batch.len();
        let mut kept = Vec::with_capacity(batch.len());
        if self.block.as_ref().is_some_and(|b| !b.is_fallback()) {
            let block = self.block.as_ref().expect("kernel block");
            let simd = block.is_simd();
            let mut iter = batch.into_iter();
            let mut group: Vec<Row> = Vec::with_capacity(MULTI_LANES);
            let mut encoded: Vec<EncodedCandidate> = Vec::new();
            let mut lanes: Vec<usize> = Vec::with_capacity(MULTI_LANES);
            let mut dominated: Vec<Option<usize>> = Vec::new();
            loop {
                group.clear();
                group.extend(iter.by_ref().take(MULTI_LANES));
                if group.is_empty() {
                    break;
                }
                if encoded.len() < group.len() {
                    encoded.resize_with(group.len(), EncodedCandidate::new);
                }
                lanes.clear();
                let mut drop = [false; MULTI_LANES];
                let mut n = 0;
                for (i, row) in group.iter().enumerate() {
                    if block.encode_into(row, &mut encoded[n]) {
                        lanes.push(i);
                        n += 1;
                    } else {
                        drop[i] = scalar_dominated(&self.checker, &self.points, row, stats);
                    }
                }
                if n > 0 {
                    let res = block.first_dominators(&encoded[..n], &mut dominated);
                    stats.add_multi_pass(res.tested, simd);
                    for (j, d) in dominated.iter().enumerate() {
                        if d.is_some() {
                            drop[lanes[j]] = true;
                        }
                    }
                }
                let mut i = 0;
                kept.extend(group.drain(..).filter(|_| {
                    let keep = !drop[i];
                    i += 1;
                    keep
                }));
            }
        } else {
            for row in batch {
                if !self.dominated(&row, stats) {
                    kept.push(row);
                }
            }
        }
        let dropped = (before - kept.len()) as u64;
        (kept, dropped)
    }
}

/// Scalar filter decision: some point strictly dominates `row`.
fn scalar_dominated(
    checker: &DominanceChecker,
    points: &[Row],
    row: &Row,
    stats: &mut SkylineStats,
) -> bool {
    for point in points {
        stats.add_scalar();
        if checker.compare(row, point) == Dominance::DominatedBy {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_skyline;
    use sparkline_common::{SkylineDim, Value};

    fn rows(data: &[(i64, i64)]) -> Vec<Row> {
        data.iter()
            .map(|&(a, b)| Row::new(vec![Value::Int64(a), Value::Int64(b)]))
            .collect()
    }

    fn spec2() -> SkylineSpec {
        SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)])
    }

    #[test]
    fn points_are_the_sample_skyline_deduped_and_capped() {
        let sample = rows(&[(5, 5), (1, 9), (9, 1), (1, 9), (3, 3), (7, 7)]);
        let points = representative_points(&sample, &spec2(), 64);
        // Skyline of the sample: (1,9), (9,1), (3,3); the (1,9) tie
        // collapses.
        assert_eq!(points.len(), 3);
        let capped = representative_points(&sample, &spec2(), 2);
        assert_eq!(capped.len(), 2);
        assert!(representative_points(&sample, &spec2(), 0).is_empty());
        assert!(representative_points(&[], &spec2(), 8).is_empty());
    }

    #[test]
    fn filter_never_drops_a_true_skyline_member() {
        let data: Vec<(i64, i64)> = (0..300).map(|i| ((i * 37) % 97, (i * 53) % 97)).collect();
        let all = rows(&data);
        let sample: Vec<Row> = all.iter().step_by(7).cloned().collect();
        let points = representative_points(&sample, &spec2(), 16);
        let checker = DominanceChecker::complete(spec2());
        let oracle = naive_skyline(&all, &checker);
        for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
            let mut filter = RepresentativeFilter::with_kernel(points.clone(), &spec2(), kernel);
            let mut stats = SkylineStats::default();
            let (kept, dropped) = filter.retain_batch(all.clone(), &mut stats);
            assert!(dropped > 0, "{kernel:?}");
            assert_eq!(kept.len() as u64 + dropped, all.len() as u64);
            for member in &oracle {
                assert!(
                    kept.contains(member),
                    "{kernel:?}: dropped skyline member {member}"
                );
            }
            // Survivors have the same skyline as the full input.
            let mut filtered_sky: Vec<String> = naive_skyline(&kept, &checker)
                .iter()
                .map(|r| r.to_string())
                .collect();
            filtered_sky.sort();
            let mut full_sky: Vec<String> = oracle.iter().map(|r| r.to_string()).collect();
            full_sky.sort();
            assert_eq!(filtered_sky, full_sky, "{kernel:?}");
            assert!(stats.dominance_tests > 0);
        }
    }

    #[test]
    fn batched_and_scalar_filters_agree() {
        let data: Vec<(i64, i64)> = (0..200).map(|i| ((i * 29) % 61, (i * 41) % 61)).collect();
        let all = rows(&data);
        let points = representative_points(&all[..40], &spec2(), 8);
        let run = |kernel: DominanceKernel| {
            let mut f = RepresentativeFilter::with_kernel(points.clone(), &spec2(), kernel);
            let mut stats = SkylineStats::default();
            let (kept, dropped) = f.retain_batch(all.clone(), &mut stats);
            (kept, dropped, stats)
        };
        let (scalar_kept, scalar_dropped, s) = run(DominanceKernel::Scalar);
        let (vec_kept, vec_dropped, v) = run(DominanceKernel::Auto);
        assert_eq!(scalar_kept, vec_kept, "byte-identical survivors");
        assert_eq!(scalar_dropped, vec_dropped);
        assert_eq!(s.batched_tests, 0);
        assert!(s.scalar_tests > 0);
        assert!(v.batched_tests > 0);
        assert_eq!(v.scalar_tests, 0);
    }

    #[test]
    fn null_rows_and_equal_rows_pass_through() {
        let spec = spec2();
        let points = representative_points(&rows(&[(1, 1)]), &spec, 8);
        let mut filter = RepresentativeFilter::with_kernel(points, &spec, DominanceKernel::Auto);
        let mut stats = SkylineStats::default();
        let batch = vec![
            Row::new(vec![Value::Null, Value::Int64(100)]), // incomparable
            Row::new(vec![Value::Int64(1), Value::Int64(1)]), // tie: kept
            Row::new(vec![Value::Int64(2), Value::Int64(2)]), // dominated
        ];
        let (kept, dropped) = filter.retain_batch(batch, &mut stats);
        assert_eq!(dropped, 1);
        assert_eq!(kept.len(), 2);
        assert!(kept[0].get(0).is_null());
        assert_eq!(kept[1].get(0), &Value::Int64(1));
    }

    #[test]
    fn non_numeric_rows_take_the_scalar_path_exactly() {
        // String dims put the block in fallback: results must match the
        // scalar checker (which keeps incomparable strings).
        let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]);
        let point = Row::new(vec![Value::str("a"), Value::Int64(1)]);
        let mut filter =
            RepresentativeFilter::with_kernel(vec![point], &spec, DominanceKernel::Auto);
        let mut stats = SkylineStats::default();
        let batch = vec![
            Row::new(vec![Value::str("a"), Value::Int64(5)]), // dominated
            Row::new(vec![Value::str("b"), Value::Int64(0)]), // incomparable
        ];
        let (kept, dropped) = filter.retain_batch(batch, &mut stats);
        assert_eq!(dropped, 1);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].get(0), &Value::str("b"));
        assert!(stats.scalar_tests > 0, "fallback counts as scalar");
    }

    #[test]
    fn empty_filter_is_a_no_op() {
        let mut filter =
            RepresentativeFilter::with_kernel(Vec::new(), &spec2(), DominanceKernel::Auto);
        assert!(filter.is_empty());
        assert_eq!(filter.len(), 0);
        let mut stats = SkylineStats::default();
        let batch = rows(&[(1, 1), (2, 2)]);
        let (kept, dropped) = filter.retain_batch(batch.clone(), &mut stats);
        assert_eq!(kept, batch);
        assert_eq!(dropped, 0);
        assert_eq!(stats.dominance_tests, 0);
    }
}
