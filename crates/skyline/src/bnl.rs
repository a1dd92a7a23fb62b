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
//! skyline inside one null-bitmap class of incomplete data, where all
//! tuples share their NULL positions and the restricted relation is
//! transitive again (paper §5.7 / Lemma 5.1): the local phase groups each
//! scan partition by class, with no exchange.
//!
//! # The antichain cross-filter
//!
//! Under a transitive relation both skyline phases reduce to one
//! primitive, [`cross_filter`]: *given candidate rows and a set of rows,
//! drop every candidate strictly dominated by a row of the set* — one
//! direction, one fused walk over the set's [`ColumnarBlock`] per
//! candidate that stops at the 4-row step holding its first dominator.
//! For antichains `A` and `B` (sets without internal dominance —
//! skylines),
//!
//! > skyline(A ∪ B) = (A \ dominated-by-B) ++ (B \ dominated-by-A)
//!
//! because a row of `A` can only be dominated from `B`, and a dominator
//! that is itself dominated hands its victims to its own dominator
//! (transitivity), so filtering against the *unfiltered* other side loses
//! nothing. The global merge of the physical layer applies the identity
//! across local skylines; [`BnlBuilder::push_batch`] applies it between
//! the window and each incoming batch, filtering the window's side the
//! other way round (step 3 below).
//!
//! # The score-ordered window
//!
//! The sort-based skyline family (Sort-Filter-Skyline of Chomicki, Godfrey,
//! Gryz and Liang, ICDE 2003, and its successors LESS and SaLSa) is fast on
//! hard inputs not because its *input* is sorted but because its window is
//! probed strongest-first and a probe may stop at a monotone-score bound.
//! The builder takes exactly that and nothing else: under a transitive
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
//! ([`ColumnarBlock::first_dominator`]) probes low-score rows — the
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
//!    handful of survivors each take the per-row step (below), a sorted
//!    insert, and the fold is done.
//! 2. encode the survivors into a block of their own, sort it by key and
//!    cross-filter it against *itself*: strict dominance is irreflexive
//!    and transitive, so S \ dominated-by-S is the skyline of S. In key
//!    order every candidate walks only the rows at or below its own key —
//!    the insert-only scan of SFS, with equal-key ties tested both ways.
//! 3. filter the window against the survivors' skyline `S`, one
//!    dominator at a time: an *eviction scan* per row `s` of `S`
//!    ([`ColumnarBlock::mark`]) reads `s` from `S`'s own encoded
//!    columns and clears the keep flag of every window row `s` strictly
//!    dominates. Window `W` and `S` are both antichains and no row of `S`
//!    is dominated by `W` (step 1), so the identity above gives
//!    skyline(W ∪ batch) = (W \ dominated-by-S) ++ S. By the invariant
//!    (member keys on both sides) `s` can only dominate window rows whose
//!    key reaches its own, so its scan starts at the first of them — one
//!    binary search over the ascending window keys — and runs to the end
//!    with no early exit. That tests exactly the pairs a first-dominator
//!    walk per window row would (`key(s) <= key(w)`), for one scan set-up
//!    per row of `S` instead of one walk set-up per window row, and
//!    encodes no window row: nearly every such walk found no dominator.
//!    A NULL-like `s` dominates nothing and gets no scan; an unscorable
//!    `s` (key `-inf`) scans the whole window. Steps 1 and 3 commute — a
//!    batch row dropped in step 1 cannot have been the only dominator of a
//!    window row (its own window dominator would dominate that row too,
//!    contradicting that `W` is an antichain).
//! 4. compact the window once, move `S`'s encoded columns behind it
//!    ([`ColumnarBlock::append`] — no re-encode) and restore key order
//!    with one stable sort of two sorted runs.
//!
//! [`BnlBuilder::push_columns_checked`] folds the selected rows of a
//! column batch through the same steps and chunks: step 1 encodes each
//! candidate straight from the batch's buffers, and only its survivors —
//! nearly always a handful — are built into rows for steps 2–4.
//!
//! The window is a *set* at every step — the skyline of the rows seen so
//! far, duplicates included — so its internal order is free; each row's
//! arrival number travels with it and [`BnlBuilder::finish`] sorts by it,
//! which yields "the skyline members in arrival order", byte-identical to
//! the per-row algorithm with order-preserving eviction. Memory stays
//! "window plus one batch" (16 bytes per member for key and arrival
//! number).
//!
//! What keeps the arrival-order window, and the per-row step for every
//! row: `SKYLINE OF DISTINCT` (a dims-identical later row must die, which
//! the strict cross-filter never decides), and a block demoted to scalar
//! fallback mid-stream (a string, an inexact int/float mix), which has
//! lost its keys: the builder sorts the window back into arrival order
//! once and continues per row. A single row the block cannot encode *as a
//! candidate* takes a scalar scan over the ordered window and then enters
//! at the key the block derives from its stored values.
//!
//! # The per-row step
//!
//! One tuple against the window — a fold's few survivors, and every row of
//! an arrival-order window — runs the kernel's two loops, one per
//! direction:
//!
//! 1. the first-dominator walk ([`ColumnarBlock::first_dominator`],
//!    bounded at the tuple's key in a key-ordered block); a dominated
//!    tuple is dropped;
//! 2. under `DISTINCT`, a tuple identical to a window row on every
//!    skyline dimension (`DominanceChecker::identical_dims`) is dropped;
//! 3. one eviction scan ([`ColumnarBlock::mark`]) flags the window rows
//!    the tuple strictly dominates, which leave in one order-preserving
//!    compaction; in a key-ordered block it starts at the first row whose
//!    key reaches the tuple's, since no earlier row can be dominated by it
//!    (step 3 of the fold), and otherwise at the first row;
//! 4. the tuple enters the window, at its key position in a score-ordered
//!    window.
//!
//! Dropping a tuple in steps 1–2 changes no eviction: the relation is
//! transitive and the window an antichain, so a tuple dominated by (or
//! identical to) a window row dominates no window row. Step 2 needs no
//! kernel verdict, and asks only the rows that can be identical: identical
//! rows have equal sums, so a duplicate's member key equals the tuple's
//! candidate key, unless the sum is NaN — then the member key is `-inf`
//! and the candidate key `+inf`, so rows keyed `-inf` are asked too (and
//! step 3 cannot start from a `+inf` key, for the same reason). A tuple
//! that is NULL-like under the complete relation is incomparable with
//! every row, itself included, so it is never a duplicate, as in
//! [`naive_skyline`](crate::naive_skyline).

use std::borrow::Cow;

use sparkline_common::{ColumnBatch, QueryControl, Result, Row, CONTROL_CHECK_ROWS};

use crate::columnar::{retain_mask, ColumnarBlock, EncodedCandidate, KernelTier, WalkTests};
use crate::dominance::{Dominance, DominanceChecker, SkylineStats};

/// Compare tier of the builders' `vectorized` flag ([`BnlBuilder::new`] and
/// [`GroupedBnlBuilder::new`](crate::incomplete::GroupedBnlBuilder::new)):
/// the detected tier, or the portable chunked loop that the tier
/// differential tests pin.
pub(crate) fn tier_for(vectorized: bool) -> KernelTier {
    if vectorized {
        KernelTier::detect()
    } else {
        KernelTier::Chunked
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
const SORTED_INSERT_MAX: usize = 16;

/// Compute the skyline of `rows` under the complete relation `checker`
/// with the BNL window algorithm, folding the rows through
/// [`BnlBuilder::push_batch`] on the detected compare tier, and recording
/// dominance-test counts into `stats`.
///
/// The result is the skyline members in arrival order, what
/// [`naive_skyline`](crate::naive_skyline) returns, on every tier. Test
/// *counts* differ between tiers only in `simd_tests`; `batched_tests` /
/// `scalar_tests` record which checker answered them.
///
/// With `checker.distinct()` set, tuples whose *compared* dimensions are
/// all equal keep a single representative (the first one encountered),
/// implementing `SKYLINE OF DISTINCT`.
pub fn bnl_skyline(
    rows: impl IntoIterator<Item = Row>,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
) -> Vec<Row> {
    let mut builder = BnlBuilder::new(checker.clone(), true);
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
/// `block` is the columnar encoding of the rows of `against` — in any
/// order; a key-ordered block bounds every walk (module docs). With a live
/// block, each candidate takes the early-exit first-dominator walk
/// ([`ColumnarBlock::first_dominator`]); a block in scalar fallback, and
/// any candidate the block cannot encode, takes a scalar scan over
/// `against` instead — same verdicts, counted as `scalar_tests`.
/// NULL-like candidates under the complete relation are incomparable with
/// everything and always survive.
///
/// Sound as a *filter* only under a transitive relation (the complete
/// relation, or the incomplete one within a single null-bitmap class):
/// see the module docs. Under any relation it decides, for each live
/// candidate, whether some row of `against` strictly dominates it — what
/// the incomplete family's global phase asks of every pair of class blocks
/// (`crate::incomplete`).
pub fn cross_filter(
    checker: &DominanceChecker,
    cands: &[Row],
    alive: &mut [bool],
    against: &[Row],
    block: &ColumnarBlock,
    stats: &mut SkylineStats,
) {
    debug_assert_eq!(cands.len(), alive.len());
    cross_filter_from(checker, cands, alive, against, block, stats)
}

/// Where [`cross_filter`] reads its candidates.
trait Candidates {
    /// Encode candidate `i` against `block` ([`ColumnarBlock::encode_into`]).
    fn encode(&self, i: usize, block: &ColumnarBlock, cand: &mut EncodedCandidate) -> bool;
    /// Candidate `i` as a row, for the scalar checker.
    fn row(&self, i: usize) -> Cow<'_, Row>;
}

impl Candidates for [Row] {
    fn encode(&self, i: usize, block: &ColumnarBlock, cand: &mut EncodedCandidate) -> bool {
        block.encode_into(&self[i], cand)
    }

    fn row(&self, i: usize) -> Cow<'_, Row> {
        Cow::Borrowed(&self[i])
    }
}

/// The candidates of a column batch: physical rows `rows` of `batch`,
/// encoded from its buffers; a `Row` is built only for the scalar checker.
struct BatchRows<'a> {
    batch: &'a ColumnBatch,
    rows: &'a [usize],
}

impl Candidates for BatchRows<'_> {
    fn encode(&self, i: usize, block: &ColumnarBlock, cand: &mut EncodedCandidate) -> bool {
        block.encode_columns_into(self.batch, self.rows[i], cand)
    }

    fn row(&self, i: usize) -> Cow<'_, Row> {
        Cow::Owned(self.batch.row(self.rows[i]))
    }
}

/// [`cross_filter`] over any [`Candidates`], one per `alive` flag.
fn cross_filter_from<C: Candidates + ?Sized>(
    checker: &DominanceChecker,
    cands: &C,
    alive: &mut [bool],
    against: &[Row],
    block: &ColumnarBlock,
    stats: &mut SkylineStats,
) {
    if against.is_empty() {
        return;
    }
    let scalar_survives = |cand: &Row, stats: &mut SkylineStats| {
        !against.iter().any(|row| {
            stats.add_scalar();
            checker.compare(cand, row) == Dominance::DominatedBy
        })
    };
    if block.is_fallback() {
        for (i, alive) in alive.iter_mut().enumerate() {
            *alive = *alive && scalar_survives(&cands.row(i), stats);
        }
        return;
    }
    debug_assert_eq!(block.len(), against.len());
    let (mut cand, mut tests) = (EncodedCandidate::new(), WalkTests::default());
    for (i, alive) in alive.iter_mut().enumerate() {
        if !*alive {
            continue;
        }
        if !cands.encode(i, block, &mut cand) {
            *alive = scalar_survives(&cands.row(i), stats);
            continue;
        }
        let res = block.first_dominator(&cand, &mut tests);
        stats.add_walk(res.tested, block.is_simd());
        *alive = res.dominated_at.is_none();
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
/// the input size. The window is mirrored into the columnar kernel's
/// [`ColumnarBlock`] (encode-once, evict-by-index) and — where the module
/// docs' premises hold — kept in score order;
/// [`push_batch`](Self::push_batch) folds whole batches into it through
/// [`cross_filter`], and the per-row step tests one tuple against the
/// window with one walk and one eviction scan (module docs). Rows the
/// kernel cannot represent take the scalar step, so the result is always
/// the skyline members in arrival order.
pub struct BnlBuilder {
    checker: DominanceChecker,
    tier: KernelTier,
    window: Vec<Row>,
    /// Index-aligned with `window` while live; once demoted to scalar
    /// fallback it stays in place, inert.
    block: ColumnarBlock,
    /// Whether the window is kept in score order (module docs): there is
    /// no `DISTINCT`, and the block is live. Otherwise the window is in
    /// arrival order.
    ordered: bool,
    /// Arrival number of every window row while `ordered` (index-aligned),
    /// unused otherwise.
    seqs: Vec<u64>,
    next_seq: u64,
    cand: EncodedCandidate,
    /// The fold's reusable buffers: the current input chunk, the step-1 /
    /// step-2 and step-3 masks.
    batch: Vec<Row>,
    alive: Vec<bool>,
    keep: Vec<bool>,
    stats: SkylineStats,
}

impl BnlBuilder {
    /// An empty builder under the complete relation `checker`, on the
    /// detected compare tier when `vectorized`, on the portable chunked
    /// loop otherwise (the tier differential's pin). Panics on an
    /// incomplete-relation checker, which is not transitive across
    /// null-bitmap classes: such rows go through the class windows of
    /// [`GroupedBnlBuilder`](crate::incomplete::GroupedBnlBuilder).
    pub fn new(checker: DominanceChecker, vectorized: bool) -> Self {
        assert!(
            !checker.is_incomplete(),
            "a BNL window needs a transitive relation: incomplete data goes through GroupedBnlBuilder"
        );
        Self::for_class(checker, tier_for(vectorized))
    }

    /// An empty window for rows of one null-bitmap class — within a class
    /// the restricted incomplete relation is transitive (Lemma 5.1) — or
    /// for any rows under the complete relation.
    pub(crate) fn for_class(checker: DominanceChecker, tier: KernelTier) -> Self {
        let block = ColumnarBlock::with_tier(checker.spec(), checker.is_incomplete(), tier);
        BnlBuilder {
            ordered: !checker.distinct() && !block.is_fallback(),
            checker,
            tier,
            window: Vec::new(),
            block,
            seqs: Vec::new(),
            next_seq: 0,
            cand: EncodedCandidate::new(),
            batch: Vec::new(),
            alive: Vec::new(),
            keep: Vec::new(),
            stats: SkylineStats::default(),
        }
    }

    /// Current window occupancy (== the running skyline size).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Estimated bytes of the window's rows — what a stream operator
    /// charges to the memory budget for the running skyline.
    pub fn window_bytes(&self) -> usize {
        self.window.iter().map(Row::estimated_bytes).sum()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SkylineStats {
        &self.stats
    }

    /// Feed one batch of rows.
    ///
    /// With a score-ordered window the rows are folded into it
    /// `FOLD_BATCH_ROWS` at a time by the cross-filter batch fold of the
    /// module docs; otherwise each row takes the per-row step. Either way
    /// the window afterwards holds what pushing the rows one by one would
    /// have left.
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

    /// [`push_batch_checked`](Self::push_batch_checked) for the selected
    /// rows of a column batch, with the same chunks, control checks,
    /// window and statistics. Step 1 of the fold encodes its candidates
    /// straight from the batch's buffers; a `Row` is built only for a
    /// step-1 survivor, for a candidate the block cannot encode, and for
    /// every row of a window kept in arrival order (`DISTINCT`, a demoted
    /// block), which takes the per-row step.
    pub fn push_columns_checked(
        &mut self,
        batch: &ColumnBatch,
        control: &QueryControl,
    ) -> Result<()> {
        for chunk in batch.selection().chunks(FOLD_BATCH_ROWS) {
            control.check()?;
            self.fold_columns(batch, chunk);
        }
        Ok(())
    }

    /// Fold the physical rows `rows` of `batch` (ascending, at most one
    /// fold chunk) into the window, as [`fold_batch`](Self::fold_batch)
    /// folds them as rows.
    pub(crate) fn fold_columns(&mut self, batch: &ColumnBatch, rows: &[usize]) {
        debug_assert!(rows.len() <= FOLD_BATCH_ROWS);
        let mut built = std::mem::take(&mut self.batch);
        if self.ordered {
            // 1. batch \ dominated-by-window, on the buffers.
            self.filter_by_window(&BatchRows { batch, rows }, rows.len());
            built.extend(
                (rows.iter().zip(&self.alive))
                    .filter(|(_, &alive)| alive)
                    .map(|(&i, _)| batch.row(i)),
            );
            self.fold_survivors(&mut built);
        } else {
            built.extend(rows.iter().map(|&i| batch.row(i)));
            self.fold_batch(&mut built);
        }
        self.batch = built;
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
        // 1. batch \ dominated-by-window, in arrival order.
        self.filter_by_window(batch.as_slice(), batch.len());
        retain_mask(batch, &self.alive);
        self.fold_survivors(batch);
    }

    /// Step 1 of the fold: `alive` flags which of the `n` candidates no
    /// window row strictly dominates.
    fn filter_by_window<C: Candidates + ?Sized>(&mut self, cands: &C, n: usize) {
        self.alive.clear();
        self.alive.resize(n, true);
        cross_filter_from(
            &self.checker,
            cands,
            &mut self.alive,
            &self.window,
            &self.block,
            &mut self.stats,
        );
    }

    /// Steps 2–4 of the fold for the step-1 survivors `batch` of a
    /// score-ordered window (or a sorted insert each, for a handful).
    /// Leaves `batch` empty.
    fn fold_survivors(&mut self, batch: &mut Vec<Row>) {
        let block = &mut self.block;
        if batch.len() <= SORTED_INSERT_MAX {
            batch.drain(..).for_each(|row| self.push(row));
            return;
        }
        // 2. The survivors' own skyline: encode, sort by key, self-filter.
        //    (A survivor the kernel cannot hold demotes the window's block
        //    as its push would have; the window then continues per row.)
        let mut sky =
            ColumnarBlock::with_tier(self.checker.spec(), self.checker.is_incomplete(), self.tier);
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
            &sky,
            &mut self.stats,
        );
        if self.alive.contains(&false) {
            retain_mask(batch, &self.alive);
            retain_mask(&mut seqs, &self.alive);
            sky.retain_mask(&self.alive);
        }
        // 3. window \ dominated-by-survivors: one scan per row `s` of the
        //    survivors' skyline over the window rows whose key reaches
        //    `s`'s own. (Member keys on both sides: fine for an unscorable
        //    row too — its NaN sum holds a -inf that every dominator
        //    shares, which makes the dominator's key -inf as well.)
        self.keep.clear();
        self.keep.resize(self.window.len(), true);
        let window: &ColumnarBlock = block;
        let mut tests = WalkTests::default();
        for (s, &key) in sky.keys().iter().enumerate() {
            let start = window.keys().partition_point(|&k| k < key);
            if start == window.len() {
                // `S` is in key order: no later scan has a row either.
                break;
            }
            sky.encode_member_into(s, &mut self.cand);
            let passed = window.mark::<true>(&self.cand, start, &mut self.keep, &mut tests);
            if passed > 0 {
                self.stats.add_scan(passed, window.is_simd());
            }
        }
        if self.keep.contains(&false) {
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

    /// Feed one tuple through the per-row step (module docs).
    fn push(&mut self, tuple: Row) {
        let block = &mut self.block;
        if !block.encode_into(&tuple, &mut self.cand) {
            // A block in fallback, or a tuple only the scalar path can
            // hold: a scalar scan, keeping the block (inert once dead) and
            // the arrival numbers aligned for the following tuples.
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
        // 1. Dropped if a window row dominates it.
        let mut tests = WalkTests::default();
        let res = block.first_dominator(&self.cand, &mut tests);
        self.stats.add_block_tests(res.tested, block.is_simd());
        if res.dominated_at.is_some() {
            return;
        }
        // 2. Dropped under `DISTINCT` if identical to a window row: only a
        //    row keyed like the tuple, or keyed -inf, can be.
        let key = self.cand.key();
        if self.checker.distinct()
            && !self.cand.is_incomparable()
            && (block.keys().iter().zip(&self.window)).any(|(&k, row)| {
                (k == key || k == f64::NEG_INFINITY) && self.checker.identical_dims(&tuple, row)
            })
        {
            return;
        }
        // 3. Evict the window rows it dominates, in one order-preserving
        //    compaction (the scalar loop's per-row `Vec::remove`, without
        //    shifting the tail once per eviction).
        let start = if block.is_ordered() && key != f64::INFINITY {
            block.keys().partition_point(|&k| k < key)
        } else {
            0
        };
        self.keep.clear();
        self.keep.resize(block.len(), true);
        let passed = block.mark::<true>(&self.cand, start, &mut self.keep, &mut tests);
        self.stats.add_block_tests(passed, block.is_simd());
        if self.keep.contains(&false) {
            retain_mask(&mut self.window, &self.keep);
            block.retain_mask(&self.keep);
            if self.ordered {
                retain_mask(&mut self.seqs, &self.keep);
            }
        }
        // 4. Admit it.
        self.admit(tuple);
    }

    /// Let an undominated tuple into the window: at its key position when
    /// the window is score-ordered, at the end otherwise. A tuple that
    /// demotes the block of an ordered window sends the window back to
    /// arrival order first.
    fn admit(&mut self, tuple: Row) {
        let at = if self.ordered {
            self.block.push_ordered(&tuple)
        } else {
            self.block.push(&tuple);
            None
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
                // entered it — the invariant that makes the gathered pass
                // and the pairwise merge byte-identical.
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
    use crate::naive_skyline;
    use sparkline_common::{DataType, SkylineDim, SkylineSpec, Value};

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
        // result vectors must match the scalar definition row-for-row
        // (same order), not just as sets.
        let data: Vec<(i64, i64)> = (0..120).map(|i| ((i * 37) % 50, (i * 53) % 50)).collect();
        for distinct in [false, true] {
            let checker = min_min(distinct);
            let scalar = naive_skyline(&rows(&data), &checker);
            let mut s2 = SkylineStats::default();
            let batched = bnl_skyline(rows(&data), &checker, &mut s2);
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
        let scalar = naive_skyline(&data, &checker);
        let mut s2 = SkylineStats::default();
        let batched = bnl_skyline(data, &checker, &mut s2);
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
                // Feed the same rows in ragged batches: the batch fold
                // without DISTINCT, per-row otherwise.
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
                if distinct {
                    assert_eq!(stats.dominance_tests, inc_stats.dominance_tests);
                    assert_eq!(stats.max_window, inc_stats.max_window);
                } else {
                    assert!(inc_stats.dominator_walks > 0);
                    assert!(inc_stats.max_window >= incremental.len());
                }
            }
        }
    }

    /// Feed `data` in batches of `batch` rows, on the detected tier when
    /// `vectorized`, on the chunked loop otherwise.
    fn folded(
        data: Vec<Row>,
        checker: &DominanceChecker,
        vectorized: bool,
        batch: usize,
    ) -> (Vec<Row>, SkylineStats) {
        let mut builder = BnlBuilder::new(checker.clone(), vectorized);
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
            let reference = naive_skyline(&rows(&data), &checker);
            for vectorized in [false, true] {
                let (sky, s) = folded(rows(&data), &checker, vectorized, 16);
                assert_eq!(reference, sky, "v={vectorized} distinct={distinct}");
                assert!(s.batched_tests > 0);
                assert_eq!(s.scalar_tests, 0);
                // DISTINCT keeps the per-row step: no cross-filter.
                assert_eq!(s.dominator_walks > 0, !distinct, "v={vectorized}");
                // The survivors' block is built on the builder's own tier,
                // so a pinned tier stays pinned.
                if !vectorized {
                    assert_eq!(s.simd_tests, 0);
                }
            }
        }
    }

    #[test]
    fn fold_matches_scalar_with_nulls_and_floats() {
        // NULL rows (all-incomparable candidates) and float columns through the
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
        let scalar = naive_skyline(&data, &checker);
        let (batched, s2) = folded(data, &checker, true, 10);
        assert_eq!(scalar, batched);
        assert!(s2.dominator_walks > 0);
    }

    #[test]
    fn fold_survives_unencodable_rows_and_block_demotion() {
        // An integer column meets a non-integral float (a row the block
        // cannot encode as a candidate, and whose push upgrades the
        // column) and later a string (which demotes the block for good):
        // every batch boundary must still agree with the definition.
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
        let scalar = naive_skyline(&data, &checker);
        for batch in [1usize, 4, 9, 64] {
            let (sky, s) = folded(data.clone(), &checker, true, batch);
            assert_eq!(scalar, sky, "batch={batch}");
            assert!(s.scalar_tests > 0, "batch={batch}: fallback work is scalar");
        }
    }

    /// `rows` as one column batch: a column of Float64s (or Int64s) and
    /// NULLs becomes a typed buffer, any other a value column.
    fn column_batch(rows: &[Row]) -> ColumnBatch {
        use sparkline_common::{BatchColumn, ColumnValues};
        let width = rows.first().map_or(2, Row::width);
        let columns = (0..width)
            .map(|c| {
                let values: Vec<&Value> = rows.iter().map(|r| r.get(c)).collect();
                let nulls: Vec<bool> = values.iter().map(|v| v.is_null()).collect();
                let typed =
                    |want: fn(&Value) -> bool| values.iter().all(|v| v.is_null() || want(v));
                let values = if typed(|v| matches!(v, Value::Float64(_))) {
                    ColumnValues::Float64(
                        (values.iter())
                            .map(|v| if let Value::Float64(f) = v { *f } else { 0.0 })
                            .collect(),
                    )
                } else if typed(|v| matches!(v, Value::Int64(_))) {
                    ColumnValues::Int64(
                        (values.iter())
                            .map(|v| if let Value::Int64(i) = v { *i } else { 0 })
                            .collect(),
                    )
                } else {
                    ColumnValues::Values(values.into_iter().cloned().collect())
                };
                BatchColumn {
                    values,
                    nulls: nulls.contains(&true).then_some(nulls),
                }
            })
            .collect();
        ColumnBatch::new(columns, rows.len())
    }

    /// Fold `batches` as columns into one builder and as
    /// `batch.into_rows()` into another: same window, same order, same
    /// statistics.
    fn assert_column_fold_matches_rows(checker: &DominanceChecker, batches: Vec<ColumnBatch>) {
        let control = QueryControl::unlimited();
        let mut by_rows = BnlBuilder::new(checker.clone(), true);
        let mut by_columns = BnlBuilder::new(checker.clone(), true);
        for batch in batches {
            by_rows.push_batch(batch.clone().into_rows());
            by_columns.push_columns_checked(&batch, &control).unwrap();
        }
        assert_eq!(by_columns.finish(), by_rows.finish());
    }

    #[test]
    fn column_fold_equals_row_fold() {
        let one = |data: &[Row]| vec![column_batch(data)];
        let singles = |data: &[Row]| data.chunks(1).map(column_batch).collect::<Vec<_>>();
        // The eight small shapes above, whole and one row per batch.
        let shapes: Vec<(Vec<Row>, bool)> = vec![
            (
                rows(&[(1, 9), (2, 7), (3, 8), (4, 4), (5, 5), (6, 1), (7, 2)]),
                false,
            ),
            (rows(&[(5, 5)]), false),
            (rows(&[]), false),
            (rows(&[(5, 5), (4, 4), (3, 3), (0, 0), (2, 2)]), false),
            (rows(&[(1, 1), (1, 1), (1, 1)]), false),
            (rows(&[(1, 1), (1, 1), (1, 1)]), true),
            (
                vec![
                    Row::new(vec![Value::Int64(1), Value::str("first")]),
                    Row::new(vec![Value::Int64(1), Value::str("second")]),
                ],
                true,
            ),
            (rows(&[(1, 8), (8, 1), (5, 5), (0, 0)]), false),
        ];
        for (data, distinct) in &shapes {
            let checker = if data
                .first()
                .is_some_and(|r| r.get(1).data_type() != DataType::Int64)
            {
                DominanceChecker::complete(SkylineSpec::distinct(vec![SkylineDim::min(0)]))
            } else {
                min_min(*distinct)
            };
            assert_column_fold_matches_rows(&checker, one(data));
            assert_column_fold_matches_rows(&checker, singles(data));
        }
        // Larger than one fold chunk, through steps 2–4, with NULLs and a
        // narrowed selection; MIN and MAX dimensions.
        let data: Vec<Row> = (0..3000)
            .map(|i: i64| {
                let a = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float64(((i * 37) % 400) as f64 / 4.0)
                };
                Row::new(vec![a, Value::Int64((i * 53) % 397), Value::Int64(i)])
            })
            .collect();
        for spec in [
            SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]),
            SkylineSpec::new(vec![SkylineDim::max(0), SkylineDim::min(1)]),
            SkylineSpec::new(vec![SkylineDim::max(0), SkylineDim::max(1)]),
        ] {
            let checker = DominanceChecker::complete(spec);
            let batches = |size: usize| {
                (data.chunks(size).map(column_batch))
                    .map(|mut b| {
                        b.set_selection(
                            b.selection()
                                .iter()
                                .copied()
                                .filter(|i| i % 3 != 1)
                                .collect(),
                        );
                        b
                    })
                    .collect::<Vec<_>>()
            };
            assert_column_fold_matches_rows(&checker, batches(2500));
            assert_column_fold_matches_rows(&checker, batches(1));
        }
    }

    #[test]
    fn column_fold_equals_row_fold_across_a_mid_fold_demotion() {
        // A Float64 dimension meets an Int64 beyond 2^53: the block cannot
        // encode it as a candidate (scalar path), and its admission demotes
        // the block, sending the window back to arrival order.
        let checker = min_min(false);
        let float_rows: Vec<Row> = (0..300)
            .map(|i: i64| {
                Row::new(vec![
                    Value::Float64(((i * 37) % 100) as f64),
                    Value::Float64(((i * 53) % 100) as f64),
                ])
            })
            .collect();
        let big = Row::new(vec![Value::Int64((1 << 53) + 1), Value::Float64(-1.0)]);
        let int_rows: Vec<Row> = (0..50)
            .map(|i: i64| Row::new(vec![Value::Int64(i), Value::Float64((50 - i) as f64)]))
            .collect();
        // Typed batches: the Int64 column arrives in a batch of its own.
        let mut ints = vec![big.clone()];
        ints.extend(int_rows.iter().cloned());
        assert_column_fold_matches_rows(
            &checker,
            vec![column_batch(&float_rows), column_batch(&ints)],
        );
        // One value column mixing both types, demoting mid-chunk.
        let mut mixed = float_rows.clone();
        mixed.insert(150, big);
        mixed.extend(int_rows);
        assert_column_fold_matches_rows(&checker, vec![column_batch(&mixed)]);
        let mut builder = BnlBuilder::new(checker, true);
        builder
            .push_columns_checked(&column_batch(&mixed), &QueryControl::unlimited())
            .unwrap();
        let (_, stats) = builder.finish();
        assert!(stats.scalar_tests > 0, "the demoted block works per row");
    }

    #[test]
    fn eviction_scans_match_the_definition() {
        // Anti-correlated rows folded 1 024 at a time: each chunk leaves
        // hundreds of survivors whose skyline evicts window rows in step 3.
        // Every 97th row holds -inf and +inf in two dimensions (a NaN sum:
        // member key -inf, so it sits at the window's front and only a
        // -inf-keyed point reaches it), every 89th row -inf in one (key
        // -inf: its scan starts at row 0).
        use rand::SeedableRng;
        use sparkline_datagen::distributions::anti_correlated_rows;
        let inf = f64::INFINITY;
        let mut data = anti_correlated_rows(&mut rand::rngs::StdRng::seed_from_u64(7), 4_000, 4);
        for (i, row) in data.iter_mut().enumerate() {
            let mut values = row.values().to_vec();
            if i % 97 == 0 {
                (values[0], values[1]) = (Value::Float64(-inf), Value::Float64(inf));
            } else if i % 89 == 0 {
                values[2] = Value::Float64(-inf);
            }
            *row = Row::new(values);
        }
        let checker =
            DominanceChecker::complete(SkylineSpec::new((0..4).map(SkylineDim::min).collect()));
        let expected = naive_skyline(&data, &checker);
        let unscorable = |row: &Row| row.get(1) == &Value::Float64(inf);
        assert!(expected.iter().any(unscorable));
        let control = QueryControl::unlimited();
        for vectorized in [false, true] {
            let mut by_rows = BnlBuilder::new(checker.clone(), vectorized);
            let mut by_columns = BnlBuilder::new(checker.clone(), vectorized);
            let (mut evicted, mut evicted_unscorable) = (0, 0);
            for chunk in data.chunks(1024) {
                let before = by_rows.window.clone();
                let scans = by_rows.stats.eviction_scans;
                by_rows.push_batch(chunk.to_vec());
                by_columns
                    .push_columns_checked(&column_batch(chunk), &control)
                    .unwrap();
                // Steps 1 and 2 leave the window alone: a window row gone
                // from a fold that scanned was evicted by step 3.
                if by_rows.stats.eviction_scans > scans {
                    let gone: Vec<&Row> = (before.iter())
                        .filter(|row| !by_rows.window.contains(row))
                        .collect();
                    evicted += gone.len();
                    evicted_unscorable += gone.iter().filter(|row| unscorable(row)).count();
                }
            }
            assert!(evicted > 0, "v={vectorized}: step 3 evicts");
            assert!(
                evicted_unscorable > 0,
                "v={vectorized}: a NaN-sum row is evicted"
            );
            let (rows_sky, rows_stats) = by_rows.finish();
            assert_eq!(rows_sky, expected, "v={vectorized}");
            assert_eq!(
                by_columns.finish(),
                (rows_sky, rows_stats),
                "v={vectorized}"
            );
        }
    }

    #[test]
    fn cross_filter_drops_exactly_the_strictly_dominated() {
        let checker = min_min(false);
        let cands = rows(&[(2, 6), (3, 3), (0, 9), (6, 6), (4, 2)]);
        // A string row, incomparable with every candidate, demotes the
        // block: the scalar branch must reach the same verdicts.
        for demoted in [false, true] {
            let mut against = rows(&[(1, 5), (5, 1), (3, 3)]);
            if demoted {
                against.push(Row::new(vec![Value::str("x"), Value::Int64(0)]));
            }
            let mut block = ColumnarBlock::for_checker(&checker);
            against.iter().for_each(|r| block.push(r));
            assert_eq!(block.is_fallback(), demoted);
            let mut alive = vec![true; cands.len()];
            let mut stats = SkylineStats::default();
            cross_filter(&checker, &cands, &mut alive, &against, &block, &mut stats);
            // (2,6) dies on (1,5), (6,6) on all three; the tie (3,3) and
            // the incomparable (0,9), (4,2) survive.
            assert_eq!(alive, [false, true, true, false, true], "{demoted}");
            assert!(stats.dominance_tests > 0);
            assert_eq!(stats.scalar_tests > 0, demoted);
            // A cleared flag is never tested again, or set.
            let mut dead = vec![false; cands.len()];
            let mut again = SkylineStats::default();
            cross_filter(&checker, &cands, &mut dead, &against, &block, &mut again);
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
    fn public_constructors_reject_the_incomplete_relation() {
        let incomplete = || DominanceChecker::incomplete(min_min(false).spec().clone());
        for vectorized in [false, true] {
            let built = std::panic::catch_unwind(|| BnlBuilder::new(incomplete(), vectorized));
            assert!(built.is_err(), "vectorized={vectorized}");
        }
        // A class window takes it: one class is transitive.
        let mut class = BnlBuilder::for_class(incomplete(), KernelTier::Chunked);
        class.push_batch(rows(&[(1, 9), (9, 1), (0, 0)]));
        assert_eq!(as_pairs(class.finish().0), vec![(0, 0)]);
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
