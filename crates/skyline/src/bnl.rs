//! The Block-Nested-Loop (BNL) skyline algorithm (Börzsönyi, Kossmann,
//! Stocker 2001), as adapted by the paper for complete data (§5.6).
//!
//! The algorithm keeps a *window* holding the skyline of all tuples
//! processed so far. For each incoming tuple `t`:
//!
//! * if some window tuple dominates `t`, drop `t` — by transitivity `t`
//!   cannot dominate anything in the window, so no further checks are
//!   needed;
//! * every window tuple dominated by `t` is evicted, and `t` enters the
//!   window — by transitivity `t` cannot be dominated by the remaining
//!   window tuples;
//! * if `t` is incomparable with every window tuple, it enters the window.
//!
//! Correctness relies on transitivity of dominance and therefore on the
//! **complete-data** relation. The same routine also serves as the local
//! skyline inside one null-bitmap partition of incomplete data, where all
//! tuples share their NULL positions and the restricted relation is
//! transitive again (paper §5.7 / Lemma 5.1).
//!
//! # The antichain cross-filter and the batch fold
//!
//! Under a transitive relation both skyline phases reduce to one
//! primitive, [`cross_filter`]: *given candidate rows and a set of rows,
//! drop every candidate strictly dominated by a row of the set* — one
//! direction, early exit per candidate, [`MULTI_LANES`] candidates per
//! walk over the set's [`ColumnarBlock`]. For antichains `A` and `B`
//! (sets without internal dominance — skylines),
//!
//! > skyline(A ∪ B) = (A \ dominated-by-B) ++ (B \ dominated-by-A)
//!
//! because a row of `A` can only be dominated from `B`, and a dominator
//! that is itself dominated hands its victims to its own dominator
//! (transitivity), so filtering against the *unfiltered* other side loses
//! nothing. The global merge of the physical layer applies the identity
//! across local skylines; [`BnlBuilder::push_batch`] applies it between
//! the window and each incoming batch (the *batch fold*):
//!
//! 1. cross-filter the batch against the window. Sound to drop: a
//!    candidate dominated by *any* row ever seen is dominated by a member
//!    of the final skyline (follow the chain of dominators; it is finite
//!    and ends in an undominated row), so it can never be output; and
//!    because the window is an antichain it dominates nothing in the
//!    window, so dropping it early changes no eviction.
//! 2. BNL the few survivors among themselves (the per-row window step on
//!    a window that starts empty): the batch skyline `S`, in arrival
//!    order.
//! 3. cross-filter the *window* against `S`. Window `W` and `S` are both
//!    antichains and no row of `S` is dominated by `W` (step 1), so the
//!    identity above gives skyline(W ∪ batch) = (W \ dominated-by-S) ++ S;
//!    steps 1 and 3 commute — neither changes the set the other filters
//!    against in a way that matters: a batch row dropped in step 1 cannot
//!    have been the only dominator of a window row (its own window
//!    dominator would dominate that row too, contradicting that `W` is an
//!    antichain).
//! 4. compact window and block once, append `S`.
//!
//! Every step keeps relative arrival order, so the window is always "the
//! skyline members seen so far, in arrival order" — byte-identical to the
//! per-row algorithm, whose order-preserving eviction yields exactly that.
//! The number of dominance tests is about the same; each is cheaper: the
//! per-row step needs both directions of every pair without early exit
//! (one `Vec<Dominance>` entry per window row) and compacts window and
//! block once per *admitted row*, the fold runs two one-directional
//! early-exit passes and compacts once per *batch*. Memory stays "window
//! plus one batch"; nothing is buffered or sorted.
//!
//! The per-row [`BnlBuilder::push`] remains where the fold's premises
//! fail: non-transitive input (mixed-bitmap incomplete data — the scalar
//! loop's mid-scan evictions can only be matched by replaying it),
//! `SKYLINE OF DISTINCT` (a dims-identical later row must die on an
//! `Equal` verdict, which the strict cross-filter never reports), the
//! scalar kernel knob, and blocks demoted to scalar fallback. Rows the
//! kernel cannot encode take a scalar scan inside [`cross_filter`].

use sparkline_common::{DominanceKernel, QueryControl, Result, Row, CONTROL_CHECK_ROWS};

use crate::columnar::{ColumnarBlock, EncodedCandidate, MULTI_LANES};
use crate::dominance::{Dominance, DominanceChecker, SkylineStats};

/// Kernel knob equivalent of the legacy `vectorized` flag.
pub(crate) fn kernel_for(vectorized: bool) -> DominanceKernel {
    if vectorized {
        DominanceKernel::Auto
    } else {
        DominanceKernel::Scalar
    }
}

/// Rows folded into the window per batch-fold step of
/// [`BnlBuilder::push_batch`]: bounds the fold's working set (one batch
/// beside the window) however large the pushed iterator is. Equal to the
/// control-check granularity, so a checked push folds exactly the chunks
/// it checks between.
const FOLD_BATCH_ROWS: usize = CONTROL_CHECK_ROWS;

/// Survivors of a fold's first cross-filter up to which steps 2–4 are not
/// worth setting up: step 3 encodes the whole window as candidates, which
/// costs more than the handful of per-row window passes it replaces
/// (correlated and independent inputs, and the small per-class batches of
/// the incomplete local phase, mostly end here).
const FOLD_MIN_SURVIVORS: usize = 2 * MULTI_LANES;

/// Compute the skyline of `rows` with the scalar BNL window algorithm,
/// recording dominance-test counts into `stats`.
///
/// With `checker.distinct()` set, tuples whose *compared* dimensions are
/// all equal keep a single representative (the first one encountered),
/// implementing `SKYLINE OF DISTINCT`.
pub fn bnl_skyline(
    rows: impl IntoIterator<Item = Row>,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
) -> Vec<Row> {
    bnl_skyline_kernel(rows, checker, stats, DominanceKernel::Scalar)
}

/// [`bnl_skyline`] with the candidate-vs-window tests routed through the
/// columnar batch kernel ([`DominanceKernel::Auto`]). Produces a
/// byte-identical window (same rows, same order) as the scalar variant.
/// Test *counts* differ: the kernel's early exit is chunk-granular, so
/// `dominance_tests` can exceed the scalar loop's — each performed test is
/// just much cheaper. `batched_tests` / `scalar_tests` record which
/// checker answered them.
pub fn bnl_skyline_batched(
    rows: impl IntoIterator<Item = Row>,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
) -> Vec<Row> {
    bnl_skyline_kernel(rows, checker, stats, DominanceKernel::Auto)
}

/// [`bnl_skyline`] on an explicit kernel knob: `Scalar` is the scalar
/// window loop, everything else routes through the columnar kernel on
/// the knob's resolved compare tier. All knobs produce byte-identical
/// windows.
pub fn bnl_skyline_kernel(
    rows: impl IntoIterator<Item = Row>,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
    kernel: DominanceKernel,
) -> Vec<Row> {
    let mut builder = BnlBuilder::with_kernel(checker.clone(), kernel);
    builder.push_batch(rows);
    let (window, builder_stats) = builder.finish();
    stats.merge(&builder_stats);
    window
}

/// The cross-filter primitive: clear `alive[i]` for every candidate
/// `cands[i]` that some row of `against` **strictly** dominates (never on
/// `Equal`). Candidates whose flag is already cleared are skipped, so a
/// caller can chain filters against several sets over one mask.
///
/// `block` is the columnar mirror of `against` (index-aligned), or `None`
/// on the scalar kernel knob. With a live block, candidates are tested
/// [`MULTI_LANES`] at a time by the early-exit multi-candidate kernel
/// ([`ColumnarBlock::first_dominators`]); a block in scalar fallback, and
/// any candidate the block cannot encode, takes a scalar scan over
/// `against` instead — same verdicts, counted as `scalar_tests`.
/// NULL-like candidates under the complete relation are incomparable with
/// everything and always survive.
///
/// Sound as a *filter* only under a transitive relation (the complete
/// relation, or the incomplete one within a single null-bitmap class):
/// see the module docs.
pub fn cross_filter(
    checker: &DominanceChecker,
    cands: &[Row],
    alive: &mut [bool],
    against: &[Row],
    block: Option<&ColumnarBlock>,
    stats: &mut SkylineStats,
) {
    debug_assert_eq!(cands.len(), alive.len());
    if against.is_empty() {
        return;
    }
    let scalar_survives = |cand: &Row, stats: &mut SkylineStats| {
        !against.iter().any(|row| {
            stats.add_scalar();
            checker.compare(cand, row) == Dominance::DominatedBy
        })
    };
    let Some(block) = block.filter(|b| !b.is_fallback()) else {
        for (cand, alive) in cands.iter().zip(alive.iter_mut()) {
            *alive = *alive && scalar_survives(cand, stats);
        }
        return;
    };
    debug_assert_eq!(block.len(), against.len());
    let mut encoded = vec![EncodedCandidate::new(); MULTI_LANES];
    let mut lanes = [0usize; MULTI_LANES];
    let mut dominated: Vec<Option<usize>> = Vec::with_capacity(MULTI_LANES);
    let mut n = 0;
    for (i, cand) in cands.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        if !block.encode_into(cand, &mut encoded[n]) {
            alive[i] = scalar_survives(cand, stats);
            continue;
        }
        lanes[n] = i;
        n += 1;
        if n == MULTI_LANES {
            flush_lanes(block, &encoded, &lanes, &mut dominated, alive, stats);
            n = 0;
        }
    }
    if n > 0 {
        flush_lanes(block, &encoded[..n], &lanes, &mut dominated, alive, stats);
    }
}

/// One multi-candidate pass of [`cross_filter`]: clear the flag of every
/// lane that found a strict dominator.
fn flush_lanes(
    block: &ColumnarBlock,
    encoded: &[EncodedCandidate],
    lanes: &[usize],
    dominated: &mut Vec<Option<usize>>,
    alive: &mut [bool],
    stats: &mut SkylineStats,
) {
    let res = block.first_dominators(encoded, dominated);
    stats.add_multi_pass(res.tested, block.is_simd());
    for (lane, hit) in dominated.iter().enumerate() {
        if hit.is_some() {
            alive[lanes[lane]] = false;
        }
    }
}

/// Keep `v[i]` iff `keep[i]`, preserving order.
fn retain_mask<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut i = 0;
    v.retain(|_| {
        i += 1;
        keep[i - 1]
    });
}

/// Incremental Block-Nested-Loop skyline — the batch-feeding entry point
/// of the streaming operators.
///
/// The window *is* the running skyline, so a stream operator can push row
/// batches as they are pulled from upstream and drop them immediately:
/// peak memory is bounded by the skyline size plus one batch, never by
/// the input size. On a vectorized kernel knob the window is mirrored
/// into the columnar kernel's [`ColumnarBlock`] (encode-once,
/// evict-by-index); [`push_batch`](Self::push_batch) folds whole batches
/// into it through [`cross_filter`] (module docs), [`push`](Self::push)
/// tests one tuple against the whole window in one chunked pass. Rows the
/// kernel cannot represent take the scalar step, so the result is always
/// byte-identical to the scalar builder.
pub struct BnlBuilder {
    checker: DominanceChecker,
    kernel: DominanceKernel,
    window: Vec<Row>,
    /// `Some` on the vectorized path (even after a fallback demotion, so
    /// the per-tuple routing below stays cheap), `None` on the scalar one.
    block: Option<ColumnarBlock>,
    /// Whether the dominance relation in effect is transitive — the
    /// complete relation, or the incomplete relation on class-pure input
    /// (one null-bitmap class, Lemma 5.1). Gates the batch fold in
    /// [`push_batch`](Self::push_batch).
    transitive: bool,
    cand: EncodedCandidate,
    out: Vec<Dominance>,
    stats: SkylineStats,
}

impl BnlBuilder {
    /// An empty builder ([`DominanceKernel::Auto`] when `vectorized`).
    pub fn new(checker: DominanceChecker, vectorized: bool) -> Self {
        Self::with_kernel(checker, kernel_for(vectorized))
    }

    /// An empty builder on an explicit kernel knob.
    pub fn with_kernel(checker: DominanceChecker, kernel: DominanceKernel) -> Self {
        let block = kernel
            .is_vectorized()
            .then(|| ColumnarBlock::for_checker_with(&checker, kernel));
        let transitive = !checker.is_incomplete();
        BnlBuilder {
            checker,
            kernel,
            window: Vec::new(),
            block,
            transitive,
            cand: EncodedCandidate::new(),
            out: Vec::new(),
            stats: SkylineStats::default(),
        }
    }

    /// Declare the input class-pure: every row pushed shares one null
    /// bitmap, so the restricted incomplete relation is transitive within
    /// it (paper Lemma 5.1) and the batch fold is sound. Used by the
    /// per-class builders of
    /// [`GroupedBnlBuilder`](crate::incomplete::GroupedBnlBuilder).
    pub(crate) fn mark_class_pure(&mut self) {
        self.transitive = true;
    }

    /// Current window occupancy (== the running skyline size).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SkylineStats {
        &self.stats
    }

    /// Feed one batch of rows.
    ///
    /// Under a transitive relation with a live kernel block (and no
    /// `DISTINCT`), the rows are folded into the window
    /// [`FOLD_BATCH_ROWS`] at a time by the cross-filter batch fold of the
    /// module docs; otherwise each row takes the per-row
    /// [`push`](Self::push) step. Either way the window afterwards is what
    /// pushing the rows one by one would have left.
    pub fn push_batch(&mut self, rows: impl IntoIterator<Item = Row>) {
        let mut rows = rows.into_iter();
        loop {
            let batch: Vec<Row> = rows.by_ref().take(FOLD_BATCH_ROWS).collect();
            if batch.is_empty() {
                return;
            }
            self.fold_batch(batch);
        }
    }

    /// [`push_batch`](Self::push_batch) under cooperative query control:
    /// the deadline/cancellation flag is consulted every
    /// [`CONTROL_CHECK_ROWS`] rows, bounding the staleness of a timeout
    /// or cancel to one folded chunk. The chunks are the ones the
    /// unchecked path folds, so admitted rows and test counts are
    /// identical to it.
    ///
    /// [`CONTROL_CHECK_ROWS`]: sparkline_common::CONTROL_CHECK_ROWS
    pub fn push_batch_checked(
        &mut self,
        rows: impl IntoIterator<Item = Row>,
        control: &QueryControl,
    ) -> Result<()> {
        let mut rows = rows.into_iter().peekable();
        while rows.peek().is_some() {
            control.check()?;
            self.push_batch(rows.by_ref().take(CONTROL_CHECK_ROWS));
        }
        Ok(())
    }

    /// Fold one batch into the window (steps 1–4 of the module docs), or
    /// push it row by row where the fold does not apply. An empty window
    /// is the fold's base case: the batch skyline *is* the new window, so
    /// the rows go through the per-row step directly.
    fn fold_batch(&mut self, mut batch: Vec<Row>) {
        let folds = self.transitive
            && !self.checker.distinct()
            && !self.window.is_empty()
            && self.block.as_ref().is_some_and(|b| !b.is_fallback());
        if !folds {
            for row in batch {
                self.push(row);
            }
            return;
        }
        // 1. batch \ dominated-by-window.
        let mut alive = vec![true; batch.len()];
        cross_filter(
            &self.checker,
            &batch,
            &mut alive,
            &self.window,
            self.block.as_ref(),
            &mut self.stats,
        );
        retain_mask(&mut batch, &alive);
        if batch.len() <= FOLD_MIN_SURVIVORS {
            for row in batch {
                self.push(row);
            }
            return;
        }
        // 2. The survivors' own skyline, on this builder's kernel knob so
        //    its tests are attributed to the same tier.
        let mut survivors = BnlBuilder::with_kernel(self.checker.clone(), self.kernel);
        for row in batch {
            survivors.push(row);
        }
        // 3. window \ dominated-by-survivors, one compaction.
        let mut keep = vec![true; self.window.len()];
        cross_filter(
            &self.checker,
            &self.window,
            &mut keep,
            &survivors.window,
            survivors.block.as_ref(),
            &mut self.stats,
        );
        if keep.contains(&false) {
            retain_mask(&mut self.window, &keep);
            if let Some(block) = self.block.as_mut() {
                block.retain(|i| keep[i]);
            }
        }
        // 4. Append. (A row the block cannot take demotes it; the row
        //    window stays authoritative and later batches go per-row.)
        if let Some(block) = self.block.as_mut() {
            for row in &survivors.window {
                block.push(row);
            }
        }
        self.window.append(&mut survivors.window);
        self.stats.merge(&survivors.stats);
        self.stats.max_window = self.stats.max_window.max(self.window.len());
    }

    /// Feed one tuple through the BNL window step.
    pub fn push(&mut self, tuple: Row) {
        let Some(block) = self.block.as_mut() else {
            scalar_window_step(
                tuple,
                &self.checker,
                &mut self.stats,
                &mut self.window,
                None,
            );
            return;
        };
        if block.is_fallback() {
            // The block is dead for good; no point mirroring into it.
            scalar_window_step(
                tuple,
                &self.checker,
                &mut self.stats,
                &mut self.window,
                None,
            );
            return;
        }
        if !block.encode_into(&tuple, &mut self.cand) {
            // Only this tuple needs the scalar path; keep the block alive
            // and aligned for the following tuples.
            scalar_window_step(
                tuple,
                &self.checker,
                &mut self.stats,
                &mut self.window,
                Some(block),
            );
            return;
        }
        let distinct = self.checker.distinct();
        if self.checker.is_incomplete() {
            // The incomplete relation is not transitive: the scalar loop
            // may evict window rows *before* discovering the tuple is
            // dominated, so its behavior on mixed-bitmap input can only be
            // matched by replaying it verbatim. Compute all outcomes in
            // one batched pass (no early exit), then replay.
            let res = block.compare_batch(&self.cand, &mut self.out, false);
            self.stats.add_block_tests(res.tested, block.is_simd());
            let mut dominated = false;
            let mut i = 0;
            while i < self.out.len() {
                match self.out[i] {
                    Dominance::Dominates => {
                        self.window.remove(i);
                        block.remove(i);
                        self.out.remove(i);
                    }
                    Dominance::DominatedBy => {
                        dominated = true;
                        break;
                    }
                    Dominance::Equal => {
                        if distinct && self.checker.identical_dims(&tuple, &self.window[i]) {
                            dominated = true;
                            break;
                        }
                        i += 1;
                    }
                    Dominance::Incomparable => i += 1,
                }
            }
            if !dominated {
                block.push(&tuple);
                self.window.push(tuple);
                self.stats.max_window = self.stats.max_window.max(self.window.len());
            }
            return;
        }
        let res = block.compare_batch(&self.cand, &mut self.out, true);
        self.stats.add_block_tests(res.tested, block.is_simd());
        if res.dominated_at.is_some() {
            return;
        }
        // Complete-data relation from here on: dominance is transitive and
        // the window holds no mutually dominating rows, so a tuple that is
        // dominated (or DISTINCT-identical to a window tuple) dominates
        // nothing in the window — dropping it without evictions matches
        // the scalar loop exactly, which is what makes the chunked early
        // exit above sound.
        if distinct
            && self.out.iter().enumerate().any(|(i, &o)| {
                o == Dominance::Equal && self.checker.identical_dims(&tuple, &self.window[i])
            })
        {
            return;
        }
        // Evict every dominated window row in one order-preserving
        // compaction (identical survivors, same relative order as the
        // scalar loop's per-row `Vec::remove`, without shifting the tail
        // once per eviction). All verdicts are precomputed in `out`, so
        // no mid-scan state needs replaying here — unlike the incomplete
        // branch above.
        let out = &self.out;
        let mut i = 0;
        self.window.retain(|_| {
            let keep = out[i] != Dominance::Dominates;
            i += 1;
            keep
        });
        block.retain(|i| out[i] != Dominance::Dominates);
        block.push(&tuple);
        self.window.push(tuple);
        self.stats.max_window = self.stats.max_window.max(self.window.len());
    }

    /// The skyline window and the accumulated statistics.
    pub fn finish(self) -> (Vec<Row>, SkylineStats) {
        (self.window, self.stats)
    }
}

/// One scalar BNL window step: test `tuple` against the window, evict
/// dominated window tuples, insert `tuple` unless dominated (or, with
/// `DISTINCT`, identical to a window tuple). When a [`ColumnarBlock`]
/// mirror is supplied, its rows are kept index-aligned with the window.
fn scalar_window_step(
    tuple: Row,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
    window: &mut Vec<Row>,
    mut block: Option<&mut ColumnarBlock>,
) {
    let distinct = checker.distinct();
    let mut dominated = false;
    let mut i = 0;
    while i < window.len() {
        stats.add_scalar();
        match checker.compare(&tuple, &window[i]) {
            Dominance::Dominates => {
                // The incoming tuple evicts a window tuple. Eviction is
                // order-preserving (`Vec::remove`): the final window is
                // then exactly the skyline members in arrival order, no
                // matter which dominated tuples transiently entered it —
                // the invariant that makes the flat and hierarchical
                // merges (and the pre-filtered plans) byte-identical.
                window.remove(i);
                if let Some(b) = block.as_deref_mut() {
                    b.remove(i);
                }
            }
            Dominance::DominatedBy => {
                dominated = true;
                break;
            }
            Dominance::Equal => {
                if distinct && checker.identical_dims(&tuple, &window[i]) {
                    // Same values in all skyline dimensions: keep the
                    // window's representative, drop the newcomer.
                    dominated = true;
                    break;
                }
                i += 1;
            }
            Dominance::Incomparable => i += 1,
        }
    }
    if !dominated {
        if let Some(b) = block {
            b.push(&tuple);
        }
        window.push(tuple);
        stats.max_window = stats.max_window.max(window.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{SkylineDim, SkylineSpec, Value};

    fn rows(data: &[(i64, i64)]) -> Vec<Row> {
        data.iter()
            .map(|&(a, b)| Row::new(vec![Value::Int64(a), Value::Int64(b)]))
            .collect()
    }

    fn min_min(distinct: bool) -> DominanceChecker {
        let dims = vec![SkylineDim::min(0), SkylineDim::min(1)];
        DominanceChecker::complete(if distinct {
            SkylineSpec::distinct(dims)
        } else {
            SkylineSpec::new(dims)
        })
    }

    fn as_pairs(mut rows: Vec<Row>) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = rows
            .drain(..)
            .map(|r| {
                let a = match r.get(0) {
                    Value::Int64(v) => *v,
                    other => panic!("unexpected {other:?}"),
                };
                let b = match r.get(1) {
                    Value::Int64(v) => *v,
                    other => panic!("unexpected {other:?}"),
                };
                (a, b)
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn hotel_example_shape() {
        // Classic price/rating trade-off; skyline = the Pareto staircase.
        let mut stats = SkylineStats::default();
        let input = rows(&[(1, 9), (2, 7), (3, 8), (4, 4), (5, 5), (6, 1), (7, 2)]);
        let sky = bnl_skyline(input, &min_min(false), &mut stats);
        assert_eq!(as_pairs(sky), vec![(1, 9), (2, 7), (4, 4), (6, 1)]);
        assert!(stats.dominance_tests > 0);
        assert!(stats.max_window >= 4);
    }

    #[test]
    fn single_tuple() {
        let mut stats = SkylineStats::default();
        let sky = bnl_skyline(rows(&[(5, 5)]), &min_min(false), &mut stats);
        assert_eq!(sky.len(), 1);
        assert_eq!(stats.dominance_tests, 0);
    }

    #[test]
    fn empty_input() {
        let mut stats = SkylineStats::default();
        let sky = bnl_skyline(rows(&[]), &min_min(false), &mut stats);
        assert!(sky.is_empty());
    }

    #[test]
    fn all_dominated_by_one() {
        let mut stats = SkylineStats::default();
        let sky = bnl_skyline(
            rows(&[(5, 5), (4, 4), (3, 3), (0, 0), (2, 2)]),
            &min_min(false),
            &mut stats,
        );
        assert_eq!(as_pairs(sky), vec![(0, 0)]);
    }

    #[test]
    fn duplicates_kept_without_distinct() {
        let mut stats = SkylineStats::default();
        let sky = bnl_skyline(rows(&[(1, 1), (1, 1), (1, 1)]), &min_min(false), &mut stats);
        assert_eq!(sky.len(), 3);
    }

    #[test]
    fn duplicates_collapsed_with_distinct() {
        let mut stats = SkylineStats::default();
        let sky = bnl_skyline(rows(&[(1, 1), (1, 1), (1, 1)]), &min_min(true), &mut stats);
        assert_eq!(sky.len(), 1);
    }

    #[test]
    fn distinct_keeps_non_dim_payload_of_first() {
        // Two tuples identical on skyline dims but different elsewhere:
        // DISTINCT keeps exactly one (the first).
        let spec = SkylineSpec::distinct(vec![SkylineDim::min(0)]);
        let checker = DominanceChecker::complete(spec);
        let r1 = Row::new(vec![Value::Int64(1), Value::str("first")]);
        let r2 = Row::new(vec![Value::Int64(1), Value::str("second")]);
        let mut stats = SkylineStats::default();
        let sky = bnl_skyline(vec![r1.clone(), r2], &checker, &mut stats);
        assert_eq!(sky, vec![r1]);
    }

    #[test]
    fn eviction_of_multiple_window_tuples() {
        // (9,9) arrives after several incomparable tuples it dominates none
        // of; (0,0) then evicts everything.
        let mut stats = SkylineStats::default();
        let sky = bnl_skyline(
            rows(&[(1, 8), (8, 1), (5, 5), (0, 0)]),
            &min_min(false),
            &mut stats,
        );
        assert_eq!(as_pairs(sky), vec![(0, 0)]);
    }

    #[test]
    fn batched_is_byte_identical_to_scalar() {
        // Mixed workload with evictions, duplicates, and incomparables;
        // result vectors must match row-for-row (same order), not just as
        // sets.
        let data: Vec<(i64, i64)> = (0..120).map(|i| ((i * 37) % 50, (i * 53) % 50)).collect();
        for distinct in [false, true] {
            let checker = min_min(distinct);
            let mut s1 = SkylineStats::default();
            let scalar = bnl_skyline(rows(&data), &checker, &mut s1);
            let mut s2 = SkylineStats::default();
            let batched = bnl_skyline_batched(rows(&data), &checker, &mut s2);
            assert_eq!(scalar, batched, "distinct={distinct}");
            assert!(s2.batched_tests > 0);
            assert_eq!(s2.scalar_tests, 0);
            assert_eq!(s2.dominance_tests, s2.batched_tests);
        }
    }

    #[test]
    fn batched_falls_back_on_non_numeric_dims() {
        let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]);
        let checker = DominanceChecker::complete(spec);
        let data: Vec<Row> = (0..20)
            .map(|i: i64| Row::new(vec![Value::str(format!("s{:02}", i % 7)), Value::Int64(i)]))
            .collect();
        let mut s1 = SkylineStats::default();
        let scalar = bnl_skyline(data.clone(), &checker, &mut s1);
        let mut s2 = SkylineStats::default();
        let batched = bnl_skyline_batched(data, &checker, &mut s2);
        assert_eq!(scalar, batched);
        assert_eq!(s2.batched_tests, 0, "strings must demote to scalar");
        assert_eq!(s2.scalar_tests, s2.dominance_tests);
        assert!(s2.scalar_tests > 0);
    }

    #[test]
    fn incremental_builder_matches_one_shot_across_batch_splits() {
        let data: Vec<(i64, i64)> = (0..150).map(|i| ((i * 37) % 60, (i * 53) % 60)).collect();
        for vectorized in [false, true] {
            for distinct in [false, true] {
                let checker = min_min(distinct);
                // Per-row reference on the same kernel.
                let mut per_row = BnlBuilder::new(checker.clone(), vectorized);
                for row in rows(&data) {
                    per_row.push(row);
                }
                let (one_shot, stats) = per_row.finish();
                // Feed the same rows in ragged batches: the batch fold on
                // the vectorized non-DISTINCT path, per-row otherwise.
                let mut builder = BnlBuilder::new(checker.clone(), vectorized);
                for chunk in rows(&data).chunks(7) {
                    builder.push_batch(chunk.to_vec());
                }
                let (incremental, inc_stats) = builder.finish();
                assert_eq!(one_shot, incremental, "v={vectorized} d={distinct}");
                // The fold performs other (cheaper) tests than the per-row
                // step and never holds the per-row step's temporary
                // admissions, so counts and peak only match where
                // `push_batch` *is* the per-row step.
                if !vectorized || distinct {
                    assert_eq!(stats.dominance_tests, inc_stats.dominance_tests);
                    assert_eq!(stats.max_window, inc_stats.max_window);
                } else {
                    assert!(inc_stats.multi_candidate_passes > 0);
                    assert!(inc_stats.max_window >= incremental.len());
                }
            }
        }
    }

    /// Feed `data` in batches of `batch` rows on `kernel`.
    fn folded(
        data: Vec<Row>,
        checker: &DominanceChecker,
        kernel: DominanceKernel,
        batch: usize,
    ) -> (Vec<Row>, SkylineStats) {
        let mut builder = BnlBuilder::with_kernel(checker.clone(), kernel);
        for chunk in data.chunks(batch) {
            builder.push_batch(chunk.to_vec());
        }
        builder.finish()
    }

    #[test]
    fn kernel_knobs_are_byte_identical() {
        let data: Vec<(i64, i64)> = (0..200).map(|i| ((i * 37) % 70, (i * 53) % 70)).collect();
        for distinct in [false, true] {
            let checker = min_min(distinct);
            let mut s_ref = SkylineStats::default();
            let reference = bnl_skyline(rows(&data), &checker, &mut s_ref);
            for kernel in [
                DominanceKernel::Scalar,
                DominanceKernel::Chunked,
                DominanceKernel::Simd,
                DominanceKernel::Auto,
            ] {
                let (sky, s) = folded(rows(&data), &checker, kernel, 16);
                assert_eq!(reference, sky, "kernel={kernel:?} distinct={distinct}");
                if kernel == DominanceKernel::Scalar {
                    assert_eq!(s.batched_tests, 0);
                    assert_eq!(s.simd_tests, 0);
                    assert_eq!(s.multi_candidate_passes, 0);
                } else {
                    assert!(s.batched_tests > 0);
                    assert_eq!(s.scalar_tests, 0);
                    // DISTINCT keeps the per-row step: no cross-filter.
                    assert_eq!(s.multi_candidate_passes > 0, !distinct, "{kernel:?}");
                    // The survivors' inner BNL runs on the builder's own
                    // knob, so a pinned tier stays pinned.
                    if kernel == DominanceKernel::Chunked {
                        assert_eq!(s.simd_tests, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn fold_matches_scalar_with_nulls_and_floats() {
        // NULL rows (all-incomparable lanes) and float columns through the
        // batch fold.
        let checker = min_min(false);
        let data: Vec<Row> = (0..90)
            .map(|i: i64| {
                let v0 = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float64(((i * 37) % 50) as f64 / 2.0)
                };
                Row::new(vec![v0, Value::Float64(((i * 53) % 50) as f64)])
            })
            .collect();
        let mut s1 = SkylineStats::default();
        let scalar = bnl_skyline(data.clone(), &checker, &mut s1);
        let (batched, s2) = folded(data, &checker, DominanceKernel::Auto, 10);
        assert_eq!(scalar, batched);
        assert!(s2.multi_candidate_passes > 0);
    }

    #[test]
    fn fold_survives_unencodable_rows_and_block_demotion() {
        // An integer column meets a non-integral float (a row the block
        // cannot encode as a candidate, and whose push upgrades the
        // column) and later a string (which demotes the block for good):
        // every batch boundary must still agree with the scalar loop.
        let checker = min_min(false);
        let mut data: Vec<Row> = (0..60)
            .map(|i: i64| {
                Row::new(vec![
                    Value::Int64((i * 37) % 40),
                    Value::Int64((i * 53) % 40),
                ])
            })
            .collect();
        data.insert(25, Row::new(vec![Value::Float64(0.5), Value::Int64(39)]));
        data.insert(45, Row::new(vec![Value::str("x"), Value::Int64(0)]));
        let mut s1 = SkylineStats::default();
        let scalar = bnl_skyline(data.clone(), &checker, &mut s1);
        for batch in [1usize, 4, 9, 64] {
            let (sky, s) = folded(data.clone(), &checker, DominanceKernel::Auto, batch);
            assert_eq!(scalar, sky, "batch={batch}");
            assert!(s.scalar_tests > 0, "batch={batch}: fallback work is scalar");
        }
    }

    #[test]
    fn cross_filter_drops_exactly_the_strictly_dominated() {
        let checker = min_min(false);
        let against = rows(&[(1, 5), (5, 1), (3, 3)]);
        let cands = rows(&[(2, 6), (3, 3), (0, 9), (6, 6), (4, 2)]);
        for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
            let block = kernel.is_vectorized().then(|| {
                let mut block = ColumnarBlock::for_checker_with(&checker, kernel);
                against.iter().for_each(|r| block.push(r));
                block
            });
            let mut alive = vec![true; cands.len()];
            let mut stats = SkylineStats::default();
            cross_filter(
                &checker,
                &cands,
                &mut alive,
                &against,
                block.as_ref(),
                &mut stats,
            );
            // (2,6) dies on (1,5), (6,6) on all three; the tie (3,3) and
            // the incomparable (0,9), (4,2) survive.
            assert_eq!(alive, [false, true, true, false, true], "{kernel:?}");
            assert!(stats.dominance_tests > 0);
            assert_eq!(stats.scalar_tests > 0, !kernel.is_vectorized());
            // A cleared flag is never tested again, or set.
            let mut dead = vec![false; cands.len()];
            let mut again = SkylineStats::default();
            cross_filter(
                &checker,
                &cands,
                &mut dead,
                &against,
                block.as_ref(),
                &mut again,
            );
            assert_eq!(dead, [false; 5]);
            assert_eq!(again.dominance_tests, 0);
        }
    }

    #[test]
    fn builder_window_len_tracks_running_skyline() {
        let checker = min_min(false);
        let mut b = BnlBuilder::new(checker, true);
        b.push_batch(rows(&[(1, 9), (9, 1)]));
        assert_eq!(b.window_len(), 2);
        b.push_batch(rows(&[(0, 0)]));
        assert_eq!(b.window_len(), 1, "dominator evicts the whole window");
        assert!(b.stats().dominance_tests > 0);
    }

    #[test]
    fn checked_push_matches_unchecked_and_observes_cancel() {
        let data: Vec<(i64, i64)> = (0..3000).map(|i| (i % 57, (i * 31) % 53)).collect();
        let mut plain = BnlBuilder::new(min_min(true), true);
        plain.push_batch(rows(&data));
        let mut checked = BnlBuilder::new(min_min(true), true);
        checked
            .push_batch_checked(rows(&data), &QueryControl::unlimited())
            .unwrap();
        assert_eq!(
            as_pairs(plain.finish().0),
            as_pairs(checked.finish().0),
            "control checks must not change admission"
        );

        let control = QueryControl::unlimited();
        control.cancel();
        let mut cancelled = BnlBuilder::new(min_min(true), true);
        let err = cancelled
            .push_batch_checked(rows(&data), &control)
            .unwrap_err();
        assert!(err.is_cancelled());
        assert_eq!(cancelled.window_len(), 0, "cancel fires before any chunk");
    }

    #[test]
    fn order_independence() {
        let checker = min_min(false);
        let data = [(3, 1), (1, 3), (2, 2), (4, 4), (0, 5), (5, 0)];
        let mut s1 = SkylineStats::default();
        let forward = bnl_skyline(rows(&data), &checker, &mut s1);
        let mut reversed = data;
        reversed.reverse();
        let mut s2 = SkylineStats::default();
        let backward = bnl_skyline(rows(&reversed), &checker, &mut s2);
        assert_eq!(as_pairs(forward), as_pairs(backward));
    }
}
