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
//! # The antichain cross-filter
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
//! the window and each incoming batch.
//!
//! # The score-ordered window
//!
//! The sort-based skyline family (SFS, LESS, SaLSa) is fast on hard inputs
//! not because its *input* is sorted but because its window is probed
//! strongest-first and a probe may stop at a monotone-score bound. The
//! builder takes exactly that and nothing else: under a transitive
//! relation, without `DISTINCT`, with a live kernel block, the **window**
//! (rows, block, and a per-row arrival number) is kept ascending by the
//! block's member score key — the `f64` sum of the sign-normalized ranked
//! dimensions (`crate::columnar`, "Score keys and the bounded walk") —
//! while the **input** stays in arrival order and nothing is buffered.
//! The invariant everything rests on:
//!
//! > `a` strictly dominates `b` ⇒ `key_member(a) <= key_cand(b)`
//!
//! (`a_i <= b_i` on every summed dimension; integer-to-float conversion
//! and IEEE addition round monotonically; both keys add in column order.)
//! Rounding and infinities can make the keys of a dominating pair *equal*,
//! so the bound is inclusive: a walk stops only at rows whose key is
//! strictly greater, and equal-key rows are always tested. A row without a
//! usable sum (NaN: `+inf + -inf`) gets member key `-inf` / candidate key
//! `+inf`: always probed, never bounded. NULL-like rows under the complete
//! relation neither dominate nor are dominated; any key does for them.
//! With the invariant, the one walk
//! ([`ColumnarBlock::first_dominators`]) probes low-score rows — the
//! likeliest dominators — first and abandons a candidate where the window
//! keys exceed the candidate's.
//!
//! The batch fold of [`BnlBuilder::push_batch`], per chunk of
//! `FOLD_BATCH_ROWS` input rows:
//!
//! 1. cross-filter the batch, *in arrival order*, against the window.
//!    Sound to drop: a candidate dominated by *any* row ever seen is
//!    dominated by a member of the final skyline (follow the chain of
//!    dominators; it is finite and ends in an undominated row), so it can
//!    never be output; and because the window is an antichain it dominates
//!    nothing in the window, so dropping it early changes no eviction.
//!    (Sorting the batch first would let later candidates skip work, but
//!    costs more than it saves where nearly every row dies here.) A
//!    handful of survivors each take a sorted insert — the per-row step —
//!    and the fold is done.
//! 2. encode the survivors into a block of their own, sort it by key and
//!    cross-filter it against *itself*: strict dominance is irreflexive
//!    and transitive, so S \ dominated-by-S is the skyline of S. In key
//!    order every candidate walks only the rows at or below its own key —
//!    the insert-only scan of SFS, with equal-key ties tested both ways.
//! 3. cross-filter the window against the survivors' skyline `S`. Window
//!    `W` and `S` are both antichains and no row of `S` is dominated by
//!    `W` (step 1), so the identity above gives skyline(W ∪ batch) =
//!    (W \ dominated-by-S) ++ S. Only the window suffix whose key reaches
//!    the smallest key of `S` can hold a victim; the prefix is not even
//!    encoded. Steps 1 and 3 commute — a
//!    batch row dropped in step 1 cannot have been the only dominator of a
//!    window row (its own window dominator would dominate that row too,
//!    contradicting that `W` is an antichain).
//! 4. compact the window once, move `S`'s encoded columns behind it
//!    ([`ColumnarBlock::append`] — no re-encode) and restore key order
//!    with one stable sort of two sorted runs.
//!
//! The window is a *set* at every step — the skyline of the rows seen so
//! far, duplicates included — so its internal order is free; each row's
//! arrival number travels with it and [`BnlBuilder::finish`] sorts by it,
//! which yields "the skyline members in arrival order", byte-identical to
//! the per-row algorithm with order-preserving eviction. Memory stays
//! "window plus one batch" (16 bytes per member for key and arrival
//! number).
//!
//! What keeps the arrival-order window and the per-row step
//! ([`BnlBuilder::push`], both directions of every pair): non-transitive
//! input (mixed-bitmap incomplete data — the scalar loop's mid-scan
//! evictions can only be matched by replaying it in arrival order),
//! `SKYLINE OF DISTINCT` (a dims-identical later row must die on an
//! `Equal` verdict, which the strict cross-filter never reports), and the
//! scalar kernel knob. A block demoted to scalar fallback mid-stream (a
//! string, an inexact int/float mix) has lost its keys: the builder sorts
//! the window back into arrival order once and continues per row. A single
//! row the block cannot encode *as a candidate* takes a scalar scan over
//! the ordered window and then enters at the key the block derives from
//! its stored values.

use sparkline_common::{DominanceKernel, QueryControl, Result, Row, CONTROL_CHECK_ROWS};

use crate::columnar::{retain_mask, ColumnarBlock, EncodedCandidate, MULTI_LANES};
use crate::dominance::{Dominance, DominanceChecker, SkylineStats};

/// Kernel knob of the boolean constructors ([`BnlBuilder::new`] and its
/// grouped / incomplete siblings): `Auto` or `Scalar`.
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

/// Survivors of a fold's first cross-filter up to which each simply takes
/// a sorted insert: steps 2–4 set up a block for the survivors and sort
/// twice, which costs more than a few window passes (correlated and
/// independent inputs, and the small per-class batches of the incomplete
/// local phase, mostly end here).
const SORTED_INSERT_MAX: usize = 2 * MULTI_LANES;

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
/// Test *counts* differ: the kernel's early exit is chunk-granular, and
/// the score-ordered window prunes tests the scalar loop performs.
/// `batched_tests` / `scalar_tests` record which checker answered them.
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

/// Reusable buffers of [`cross_filter`] — one lane group's encoded
/// candidates, their indices and their verdicts — owned by the caller so a
/// filter run per 1024-row chunk allocates nothing.
#[derive(Debug, Default)]
pub struct CrossFilterScratch {
    encoded: Vec<EncodedCandidate>,
    lanes: [usize; MULTI_LANES],
    dominated: Vec<Option<usize>>,
}

impl CrossFilterScratch {
    /// One multi-candidate pass over the first `n` lanes: clear the flag
    /// of every lane that found a strict dominator.
    fn flush(
        &mut self,
        block: &ColumnarBlock,
        n: usize,
        alive: &mut [bool],
        stats: &mut SkylineStats,
    ) {
        let res = block.first_dominators(&self.encoded[..n], &mut self.dominated);
        stats.add_multi_pass(res.tested, block.is_simd());
        for (lane, hit) in self.dominated.iter().enumerate() {
            if hit.is_some() {
                alive[self.lanes[lane]] = false;
            }
        }
    }
}

/// The cross-filter primitive: clear `alive[i]` for every candidate
/// `cands[i]` that some row of `against` **strictly** dominates (never on
/// `Equal`). Candidates whose flag is already cleared are skipped, so a
/// caller can chain filters against several sets over one mask.
///
/// `block` is the columnar encoding of the rows of `against` — in any
/// order; a key-ordered block bounds every walk (module docs) — or `None`
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
    scratch: &mut CrossFilterScratch,
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
    scratch
        .encoded
        .resize_with(MULTI_LANES, EncodedCandidate::new);
    let mut n = 0;
    for (i, cand) in cands.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        if !block.encode_into(cand, &mut scratch.encoded[n]) {
            alive[i] = scalar_survives(cand, stats);
            continue;
        }
        scratch.lanes[n] = i;
        n += 1;
        if n == MULTI_LANES {
            scratch.flush(block, n, alive, stats);
            n = 0;
        }
    }
    if n > 0 {
        scratch.flush(block, n, alive, stats);
    }
}

/// `v[i] = old v[perm[i]]`, moving (not cloning) the elements.
fn permute<T>(v: &mut Vec<T>, perm: &[usize]) {
    let mut old: Vec<Option<T>> = v.drain(..).map(Some).collect();
    v.extend(
        perm.iter()
            .map(|&i| old[i].take().expect("each index occurs once")),
    );
}

/// Incremental Block-Nested-Loop skyline — the batch-feeding entry point
/// of the streaming operators.
///
/// The window *is* the running skyline, so a stream operator can push row
/// batches as they are pulled from upstream and drop them immediately:
/// peak memory is bounded by the skyline size plus one batch, never by
/// the input size. On a vectorized kernel knob the window is mirrored
/// into the columnar kernel's [`ColumnarBlock`] (encode-once,
/// evict-by-index) and — where the module docs' premises hold — kept in
/// score order; [`push_batch`](Self::push_batch) folds whole batches into
/// it through [`cross_filter`], [`push`](Self::push) tests one tuple
/// against the whole window in one chunked pass. Rows the kernel cannot
/// represent take the scalar step, so the result is always byte-identical
/// to the scalar builder.
pub struct BnlBuilder {
    checker: DominanceChecker,
    kernel: DominanceKernel,
    window: Vec<Row>,
    /// `Some` on the vectorized path (even after a fallback demotion, so
    /// the per-tuple routing below stays cheap), `None` on the scalar one.
    /// Index-aligned with `window` while live.
    block: Option<ColumnarBlock>,
    /// Whether the window is kept in score order (module docs): the
    /// relation is transitive — the complete relation, or the incomplete
    /// one on class-pure input (Lemma 5.1) — there is no `DISTINCT`, and
    /// the block is live. Otherwise the window is in arrival order.
    ordered: bool,
    /// Arrival number of every window row while `ordered` (index-aligned),
    /// unused otherwise.
    seqs: Vec<u64>,
    next_seq: u64,
    cand: EncodedCandidate,
    out: Vec<Dominance>,
    /// The fold's reusable buffers: the current input chunk, the step-1 /
    /// step-2 and step-3 masks, the cross-filter lanes.
    batch: Vec<Row>,
    alive: Vec<bool>,
    keep: Vec<bool>,
    scratch: CrossFilterScratch,
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
        let mut builder = BnlBuilder {
            checker,
            kernel,
            window: Vec::new(),
            block,
            ordered: false,
            seqs: Vec::new(),
            next_seq: 0,
            cand: EncodedCandidate::new(),
            out: Vec::new(),
            batch: Vec::new(),
            alive: Vec::new(),
            keep: Vec::new(),
            scratch: CrossFilterScratch::default(),
            stats: SkylineStats::default(),
        };
        builder.set_transitive(!builder.checker.is_incomplete());
        builder
    }

    /// Declare the input class-pure: every row pushed shares one null
    /// bitmap, so the restricted incomplete relation is transitive within
    /// it (paper Lemma 5.1) and the score-ordered fold is sound. Used by
    /// the per-class builders of
    /// [`GroupedBnlBuilder`](crate::incomplete::GroupedBnlBuilder), before
    /// the first push.
    pub(crate) fn mark_class_pure(&mut self) {
        self.set_transitive(true);
    }

    fn set_transitive(&mut self, transitive: bool) {
        debug_assert!(self.window.is_empty(), "the window order is fixed up front");
        self.ordered = transitive
            && !self.checker.distinct()
            && self.block.as_ref().is_some_and(|b| !b.is_fallback());
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
    /// With a score-ordered window the rows are folded into it
    /// [`FOLD_BATCH_ROWS`] at a time by the cross-filter batch fold of the
    /// module docs; otherwise each row takes the per-row
    /// [`push`](Self::push) step. Either way the window afterwards holds
    /// what pushing the rows one by one would have left.
    pub fn push_batch(&mut self, rows: impl IntoIterator<Item = Row>) {
        self.push_chunks(rows, None)
            .expect("only a control check can fail");
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
        self.push_chunks(rows, Some(control))
    }

    /// Pull `rows` through the builder's own chunk buffer,
    /// [`FOLD_BATCH_ROWS`] at a time, checking `control` before each fold.
    fn push_chunks(
        &mut self,
        rows: impl IntoIterator<Item = Row>,
        control: Option<&QueryControl>,
    ) -> Result<()> {
        let mut rows = rows.into_iter();
        let mut batch = std::mem::take(&mut self.batch);
        let result = loop {
            batch.extend(rows.by_ref().take(FOLD_BATCH_ROWS));
            if batch.is_empty() {
                break Ok(());
            }
            if let Some(Err(stop)) = control.map(QueryControl::check) {
                batch.clear();
                break Err(stop);
            }
            self.fold_batch(&mut batch);
        };
        self.batch = batch;
        result
    }

    /// Fold one batch into the score-ordered window (steps 1–4 of the
    /// module docs), or push it row by row where the window is kept in
    /// arrival order. Leaves `batch` empty. An empty window is no special
    /// case: step 1 drops nothing and the batch's own skyline (step 2)
    /// becomes the window.
    fn fold_batch(&mut self, batch: &mut Vec<Row>) {
        if !self.ordered {
            batch.drain(..).for_each(|row| self.push(row));
            return;
        }
        let block = self
            .block
            .as_mut()
            .expect("a score-ordered window has a block");
        // 1. batch \ dominated-by-window, in arrival order.
        self.alive.clear();
        self.alive.resize(batch.len(), true);
        cross_filter(
            &self.checker,
            batch,
            &mut self.alive,
            &self.window,
            Some(block),
            &mut self.scratch,
            &mut self.stats,
        );
        retain_mask(batch, &self.alive);
        if batch.len() <= SORTED_INSERT_MAX {
            batch.drain(..).for_each(|row| self.push(row));
            return;
        }
        // 2. The survivors' own skyline: encode, sort by key, self-filter.
        //    (A survivor the kernel cannot hold demotes the window's block
        //    as its push would have; the window then continues per row.)
        let mut sky = ColumnarBlock::for_checker_with(&self.checker, self.kernel);
        batch.iter().for_each(|row| sky.push(row));
        if !block.reconcile(&mut sky) {
            self.restore_arrival_order();
            batch.drain(..).for_each(|row| self.push(row));
            return;
        }
        let mut seqs: Vec<u64> = (self.next_seq..).take(batch.len()).collect();
        self.next_seq += batch.len() as u64;
        if let Some(perm) = sky.sort_by_key() {
            permute(batch, &perm);
            permute(&mut seqs, &perm);
        }
        self.alive.clear();
        self.alive.resize(batch.len(), true);
        cross_filter(
            &self.checker,
            batch,
            &mut self.alive,
            batch,
            Some(&sky),
            &mut self.scratch,
            &mut self.stats,
        );
        if self.alive.contains(&false) {
            retain_mask(batch, &self.alive);
            retain_mask(&mut seqs, &self.alive);
            sky.retain_mask(&self.alive);
        }
        // 3. window \ dominated-by-survivors: only rows whose key reaches
        //    the survivors' smallest. (Member keys on both sides: fine for
        //    an unscorable row too — its NaN sum holds a -inf that every
        //    dominator shares, which makes the dominator's key -inf as
        //    well.)
        let least = sky.keys()[0];
        let start = block.keys().partition_point(|&key| key < least);
        self.keep.clear();
        self.keep.resize(self.window.len(), true);
        cross_filter(
            &self.checker,
            &self.window[start..],
            &mut self.keep[start..],
            batch,
            Some(&sky),
            &mut self.scratch,
            &mut self.stats,
        );
        if self.keep[start..].contains(&false) {
            retain_mask(&mut self.window, &self.keep);
            retain_mask(&mut self.seqs, &self.keep);
            block.retain_mask(&self.keep);
        }
        // 4. Two sorted runs into one: move the columns, sort stably.
        block.append(sky);
        self.window.append(batch);
        self.seqs.append(&mut seqs);
        if let Some(perm) = block.sort_by_key() {
            permute(&mut self.window, &perm);
            permute(&mut self.seqs, &perm);
        }
        self.stats.max_window = self.stats.max_window.max(self.window.len());
    }

    /// Feed one tuple through the BNL window step.
    pub fn push(&mut self, tuple: Row) {
        let Some(block) = self.block.as_mut().filter(|b| !b.is_fallback()) else {
            // The scalar knob, or a block that is dead for good: no mirror.
            if scalar_window_scan(
                &tuple,
                &self.checker,
                &mut self.stats,
                &mut self.window,
                |_| {},
            ) {
                self.admit(tuple);
            }
            return;
        };
        if !block.encode_into(&tuple, &mut self.cand) {
            // Only this tuple needs the scalar path; keep the block (and
            // the arrival numbers) aligned for the following tuples.
            let (seqs, ordered) = (&mut self.seqs, self.ordered);
            let evict = |i| {
                block.remove(i);
                if ordered {
                    seqs.remove(i);
                }
            };
            if scalar_window_scan(
                &tuple,
                &self.checker,
                &mut self.stats,
                &mut self.window,
                evict,
            ) {
                self.admit(tuple);
            }
            return;
        }
        let distinct = self.checker.distinct();
        if self.checker.is_incomplete() && !self.ordered {
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
                self.admit(tuple);
            }
            return;
        }
        let res = block.compare_batch(&self.cand, &mut self.out, true);
        self.stats.add_block_tests(res.tested, block.is_simd());
        if res.dominated_at.is_some() {
            return;
        }
        // A transitive relation from here on, and the window holds no
        // mutually dominating rows, so a tuple that is dominated (or
        // DISTINCT-identical to a window tuple) dominates nothing in the
        // window — dropping it without evictions matches the scalar loop
        // exactly, which is what makes the chunked early exit above sound.
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
        if self.out.contains(&Dominance::Dominates) {
            self.keep.clear();
            self.keep
                .extend(self.out.iter().map(|&o| o != Dominance::Dominates));
            retain_mask(&mut self.window, &self.keep);
            block.retain_mask(&self.keep);
            if self.ordered {
                retain_mask(&mut self.seqs, &self.keep);
            }
        }
        self.admit(tuple);
    }

    /// Let an undominated tuple into the window: at its key position when
    /// the window is score-ordered, at the end otherwise. A tuple that
    /// demotes the block of an ordered window sends the window back to
    /// arrival order first.
    fn admit(&mut self, tuple: Row) {
        let at = match self.block.as_mut() {
            Some(block) if self.ordered => block.push_ordered(&tuple),
            Some(block) => {
                block.push(&tuple);
                None
            }
            None => None,
        };
        match at {
            Some(at) => {
                self.window.insert(at, tuple);
                self.seqs.insert(at, self.next_seq);
                self.next_seq += 1;
            }
            None => {
                if self.ordered {
                    self.restore_arrival_order();
                }
                self.window.push(tuple);
            }
        }
        self.stats.max_window = self.stats.max_window.max(self.window.len());
    }

    /// Leave score order for good: sort the window by arrival number.
    fn restore_arrival_order(&mut self) {
        let mut perm: Vec<usize> = (0..self.window.len()).collect();
        perm.sort_unstable_by_key(|&i| self.seqs[i]);
        permute(&mut self.window, &perm);
        self.seqs = Vec::new();
        self.ordered = false;
    }

    /// The skyline window — the skyline members in arrival order — and the
    /// accumulated statistics.
    pub fn finish(mut self) -> (Vec<Row>, SkylineStats) {
        if self.ordered {
            self.restore_arrival_order();
        }
        (self.window, self.stats)
    }
}

/// One scalar BNL window scan: test `tuple` against the window and evict
/// the window tuples it dominates, reporting each evicted index to
/// `evicted` so index-aligned mirrors can follow. Returns whether the
/// tuple must enter the window — it is not dominated and not, with
/// `DISTINCT`, identical to a window tuple.
fn scalar_window_scan(
    tuple: &Row,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
    window: &mut Vec<Row>,
    mut evicted: impl FnMut(usize),
) -> bool {
    let distinct = checker.distinct();
    let mut i = 0;
    while i < window.len() {
        stats.add_scalar();
        match checker.compare(tuple, &window[i]) {
            Dominance::Dominates => {
                // The incoming tuple evicts a window tuple. Eviction is
                // order-preserving (`Vec::remove`): an arrival-order
                // window is then exactly the skyline members in arrival
                // order, no matter which dominated tuples transiently
                // entered it — the invariant that makes the flat and
                // hierarchical merges (and the pre-filtered plans)
                // byte-identical.
                window.remove(i);
                evicted(i);
            }
            Dominance::DominatedBy => return false,
            Dominance::Equal => {
                if distinct && checker.identical_dims(tuple, &window[i]) {
                    // Same values in all skyline dimensions: keep the
                    // window's representative, drop the newcomer.
                    return false;
                }
                i += 1;
            }
            Dominance::Incomparable => i += 1,
        }
    }
    true
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
                    // The survivors' block is built on the builder's own
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
            let mut scratch = CrossFilterScratch::default();
            cross_filter(
                &checker,
                &cands,
                &mut alive,
                &against,
                block.as_ref(),
                &mut scratch,
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
                &mut scratch,
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
