//! Skyline computation over incomplete (NULL-containing) data, following
//! paper §5.7, Lemma 5.1, and Appendix A.
//!
//! The incomplete-data dominance relation is not transitive and may contain
//! cycles, so the BNL window trick is unsound across tuples with different
//! NULL patterns. The paper's approach:
//!
//! 1. **Partition by null bitmap.** Every tuple gets a bitmap with one bit
//!    per skyline dimension, set iff the dimension is NULL. Tuples with the
//!    same bitmap share their NULL positions; within one partition the
//!    restricted relation is transitive again, so the ordinary BNL
//!    algorithm computes each *local* skyline safely.
//! 2. **All-pairs global phase with deferred deletion.** The union of local
//!    skylines is compared pairwise; dominated tuples are only *flagged*,
//!    and flagged tuples are removed after all comparisons. Deleting
//!    eagerly is the bug of the algorithm in Gulzar et al. (see
//!    [`premature_deletion_global_skyline`], kept here to reproduce
//!    Appendix A's counterexample).
//!
//! Lemma 5.1 guarantees that the union of local skylines still contains a
//! dominating witness for every non-skyline tuple, so phase 2 over the
//! local skylines yields exactly `SKY(P)`.
//!
//! # Hierarchical (tree) merge of the global phase
//!
//! The paper runs phase 2 on a single executor. This module additionally
//! provides a *mergeable partial result* — [`IncompletePartial`] — that
//! lets the all-pairs pass run as a k-way tree merge over the executor
//! pool while remaining byte-identical to the flat plan. The soundness
//! argument:
//!
//! * **What the global phase actually computes.** Over the candidate set
//!   `C` (the union of the per-class local skylines) phase 2 returns
//!   `{ t ∈ C | ¬∃ s ∈ C : s ≺ t }` — each candidate survives iff *no*
//!   candidate dominates it. Deletion flags are **monotone** (a flag is
//!   never cleared) and flagged tuples keep participating as witnesses, so
//!   the result depends only on *which ordered pairs get compared*, never
//!   on the order of the comparisons. The flat plan compares every pair
//!   once; any schedule that also compares every pair exactly once
//!   produces the same flags.
//! * **How non-transitivity is contained.** Within one null-bitmap class
//!   every tuple shares its NULL positions, the restricted relation is
//!   transitive again, and a within-class dominator is a *stronger
//!   witness* than its victim: if `s ≺ t` with `bitmap(s) == bitmap(t)`,
//!   then `s` is at-least-as-good on every class dimension, so `t ≺ u ⇒
//!   s ≺ u` for any `u`. Within-class dominated tuples may therefore be
//!   deleted eagerly (this is exactly why the local phase is sound).
//!   *Across* classes the relation is cyclic, so a cross-class loser can
//!   only be **flagged**: it may still be the only witness dominating
//!   tuples of classes it has not met yet, and must travel with the
//!   partial result until every pair has been compared.
//! * **What must travel with a partial.** A partial covering a set of
//!   input partitions is *internally closed*: every pair of its
//!   candidates has been compared. It carries (a) the live candidates and
//!   (b) the *deferred-deletion set* — candidates flagged by a lost
//!   cross-class comparison. [`merge_incomplete_partials`] compares
//!   exactly the cross pairs of two partials (live *and* deferred on both
//!   sides — a deferred tuple still witnesses), concatenates, and stays
//!   internally closed. A leaf partial is built by
//!   [`IncompletePartialBuilder`]: per-class BNL windows (eager, sound)
//!   followed by the cross-class flag closure. Folding leaves through the
//!   merge in any tree shape compares every pair of `C` exactly once —
//!   the same flags as the flat plan.
//! * **Byte identity.** Partials keep their candidates in arrival order
//!   and the merge concatenates left-before-right, so with merges grouped
//!   in partition order the root's candidate order equals the flat plan's
//!   gathered order; identical flags then filter identical rows in an
//!   identical order. (`DISTINCT` ties flag the *later* of two identical
//!   candidates, on both paths.)

use std::collections::HashMap;

use sparkline_common::{
    DominanceKernel, QueryControl, Result, Row, SkylineSpec, CONTROL_CHECK_ROWS,
};

use crate::bnl::{bnl_skyline, kernel_for, BnlBuilder};
use crate::columnar::{ColumnarBlock, EncodedCandidate};
use crate::dominance::{Dominance, DominanceChecker, SkylineStats};

/// The null bitmap of a tuple over the skyline dimensions: bit `i` is set
/// iff dimension `i` (in spec order) is NULL (paper §5.7).
///
/// Supports up to 64 skyline dimensions, far beyond the paper's 6.
pub fn null_bitmap(row: &Row, spec: &SkylineSpec) -> u64 {
    assert!(
        spec.dims.len() <= 64,
        "at most 64 skyline dimensions are supported"
    );
    let mut bitmap = 0u64;
    for (i, dim) in spec.dims.iter().enumerate() {
        if row.get(dim.index).is_null() {
            bitmap |= 1 << i;
        }
    }
    bitmap
}

/// Group tuples by their null bitmap. Each group corresponds to one
/// partition `P_b` of the paper; the distributed engine instead realizes
/// this grouping as a hash exchange on the bitmap expression, but tests and
/// the standalone algorithms use this direct form.
pub fn partition_by_null_bitmap(
    rows: impl IntoIterator<Item = Row>,
    spec: &SkylineSpec,
) -> HashMap<u64, Vec<Row>> {
    let mut partitions: HashMap<u64, Vec<Row>> = HashMap::new();
    for row in rows {
        partitions
            .entry(null_bitmap(&row, spec))
            .or_default()
            .push(row);
    }
    partitions
}

/// Incremental per-null-bitmap local skyline for incomplete data — the
/// batch-feeding entry point of the streaming local phase (§5.7).
///
/// Rows are routed to one BNL window per bitmap class as they stream in;
/// within one class every tuple shares its NULL positions, the restricted
/// dominance relation is transitive again (Lemma 5.1), and — because a
/// class is uniformly NULL or non-NULL per column — each class window runs
/// on the columnar kernel when the kernel knob allows it. Because the
/// restricted relation *is* transitive inside a class, each class window
/// is marked class-pure and folds batches through the cross-filter
/// (`crate::bnl`). `finish` concatenates the class windows in **first-seen
/// order**, making the streamed local phase deterministic (the
/// materialized seed iterated a `HashMap`).
pub struct GroupedBnlBuilder {
    checker: DominanceChecker,
    kernel: DominanceKernel,
    index: HashMap<u64, usize>,
    groups: Vec<BnlBuilder>,
}

impl GroupedBnlBuilder {
    /// A builder over the checker's spec (must be an incomplete-relation
    /// checker when NULLs can occur).
    pub fn new(checker: DominanceChecker, vectorized: bool) -> Self {
        Self::with_kernel(checker, kernel_for(vectorized))
    }

    /// As [`Self::new`], with an explicit compare-kernel selection.
    pub fn with_kernel(checker: DominanceChecker, kernel: DominanceKernel) -> Self {
        GroupedBnlBuilder {
            checker,
            kernel,
            index: HashMap::new(),
            groups: Vec::new(),
        }
    }

    /// The window slot of a row's bitmap class, creating the class window
    /// on first sight. New windows are marked class-pure: within one class
    /// the restricted relation is transitive (Lemma 5.1), so the batch
    /// fold is sound.
    fn slot_for(&mut self, row: &Row) -> usize {
        let bitmap = null_bitmap(row, self.checker.spec());
        match self.index.get(&bitmap) {
            Some(&i) => i,
            None => {
                let mut builder = BnlBuilder::with_kernel(self.checker.clone(), self.kernel);
                builder.mark_class_pure();
                self.groups.push(builder);
                self.index.insert(bitmap, self.groups.len() - 1);
                self.groups.len() - 1
            }
        }
    }

    /// Feed one tuple into its bitmap class's window.
    pub fn push(&mut self, row: Row) {
        let slot = self.slot_for(&row);
        self.groups[slot].push(row);
    }

    /// Feed one batch of rows: the batch is routed per class first so each
    /// class window can fold its share in one step instead of
    /// row-at-a-time.
    pub fn push_batch(&mut self, rows: impl IntoIterator<Item = Row>) {
        let mut routed: Vec<(usize, Vec<Row>)> = Vec::new();
        let mut at: HashMap<usize, usize> = HashMap::new();
        for row in rows {
            let slot = self.slot_for(&row);
            let i = *at.entry(slot).or_insert_with(|| {
                routed.push((slot, Vec::new()));
                routed.len() - 1
            });
            routed[i].1.push(row);
        }
        for (slot, class_rows) in routed {
            self.groups[slot].push_batch(class_rows);
        }
    }

    /// [`push_batch`](Self::push_batch) under cooperative query control,
    /// checked every [`CONTROL_CHECK_ROWS`] routed rows.
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

    /// Total window occupancy across all bitmap classes.
    pub fn window_len(&self) -> usize {
        self.groups.iter().map(BnlBuilder::window_len).sum()
    }

    /// Concatenate the class skylines (first-seen order) and merge stats.
    pub fn finish(self) -> (Vec<Row>, SkylineStats) {
        let (classes, stats) = self.finish_classes();
        (
            classes.into_iter().flat_map(|(_, rows)| rows).collect(),
            stats,
        )
    }

    /// The per-class skylines `(bitmap, window)` in first-seen class order
    /// (the structure [`IncompletePartialBuilder`] consumes), plus merged
    /// stats.
    pub fn finish_classes(self) -> (Vec<(u64, Vec<Row>)>, SkylineStats) {
        let mut bitmaps = vec![0u64; self.groups.len()];
        for (bitmap, slot) in &self.index {
            bitmaps[*slot] = *bitmap;
        }
        let mut classes = Vec::with_capacity(self.groups.len());
        let mut stats = SkylineStats::default();
        for (bitmap, builder) in bitmaps.into_iter().zip(self.groups) {
            let (window, group_stats) = builder.finish();
            classes.push((bitmap, window));
            stats.merge(&group_stats);
        }
        (classes, stats)
    }
}

/// One candidate of an [`IncompletePartial`], tagged with its null-bitmap
/// class and its deferred-deletion flag.
#[derive(Debug, Clone)]
struct PartialEntry {
    /// Null bitmap of the row (its class).
    bitmap: u64,
    /// Whether the candidate lost a comparison and is scheduled for
    /// deletion. A deferred candidate no longer belongs to the result but
    /// keeps traveling as a dominance witness — removing it early is the
    /// premature-deletion bug of Appendix A.
    deferred: bool,
    row: Row,
}

/// A mergeable partial result of the incomplete-data global phase: the
/// candidates of one or more input partitions, **internally closed** (every
/// pair among them has been compared) with per-candidate deferred-deletion
/// flags. See the module docs for the merge algebra and its soundness
/// argument.
///
/// Candidates stay in arrival order; [`Self::finish`] drops the deferred
/// set and yields the survivors, byte-identical to what the flat all-pairs
/// pass produces on the same concatenated input.
#[derive(Debug, Clone, Default)]
pub struct IncompletePartial {
    entries: Vec<PartialEntry>,
}

impl IncompletePartial {
    /// Total candidates (live + deferred).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the partial holds no candidates at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Candidates still scheduled to appear in the result.
    pub fn live_len(&self) -> usize {
        self.entries.iter().filter(|e| !e.deferred).count()
    }

    /// Size of the deferred-deletion set.
    pub fn deferred_len(&self) -> usize {
        self.entries.iter().filter(|e| e.deferred).count()
    }

    /// Number of distinct null-bitmap classes among the candidates.
    pub fn class_count(&self) -> usize {
        let mut bitmaps: Vec<u64> = self.entries.iter().map(|e| e.bitmap).collect();
        bitmaps.sort_unstable();
        bitmaps.dedup();
        bitmaps.len()
    }

    /// Drop the deferred-deletion set and return the surviving skyline
    /// members in arrival order.
    pub fn finish(self) -> Vec<Row> {
        self.entries
            .into_iter()
            .filter_map(|e| (!e.deferred).then_some(e.row))
            .collect()
    }
}

/// Streaming builder of one *leaf* [`IncompletePartial`]: rows are routed
/// into per-null-bitmap-class BNL windows as they arrive (the
/// [`GroupedBnlBuilder`] local phase — eager within-class deletion is
/// sound, see the module docs), and [`Self::finish`] closes the leaf by
/// running the cross-class deferred-deletion flag pass. Feeding it the
/// output of a local skyline phase re-derives the same class windows
/// unchanged, so the leaf is also correct (and idempotent) on raw input.
pub struct IncompletePartialBuilder {
    checker: DominanceChecker,
    kernel: DominanceKernel,
    grouped: GroupedBnlBuilder,
}

impl IncompletePartialBuilder {
    /// A builder over an incomplete-relation checker, on an explicit
    /// compare-kernel selection.
    pub fn with_kernel(checker: DominanceChecker, kernel: DominanceKernel) -> Self {
        IncompletePartialBuilder {
            grouped: GroupedBnlBuilder::with_kernel(checker.clone(), kernel),
            checker,
            kernel,
        }
    }

    /// Feed one tuple into its class window.
    pub fn push(&mut self, row: Row) {
        self.grouped.push(row);
    }

    /// Feed one batch of rows.
    pub fn push_batch(&mut self, rows: impl IntoIterator<Item = Row>) {
        self.grouped.push_batch(rows);
    }

    /// Feed one batch under cooperative query control (checked every
    /// [`CONTROL_CHECK_ROWS`] rows).
    pub fn push_batch_checked(
        &mut self,
        rows: impl IntoIterator<Item = Row>,
        control: &QueryControl,
    ) -> Result<()> {
        self.grouped.push_batch_checked(rows, control)
    }

    /// Current window occupancy across all class windows.
    pub fn window_len(&self) -> usize {
        self.grouped.window_len()
    }

    /// Close the leaf: cross-class flag pass over the class windows
    /// (first-seen class order), yielding an internally closed partial.
    pub fn finish(self) -> (IncompletePartial, SkylineStats) {
        let (classes, mut stats) = self.grouped.finish_classes();
        let mut partial = IncompletePartial::default();
        for (bitmap, window) in classes {
            // Each class window is a skyline under the (transitive)
            // restricted relation: internally closed with no flags. The
            // incremental cross pass against the classes accumulated so
            // far is exactly one partial merge per class.
            let class_partial = IncompletePartial {
                entries: window
                    .into_iter()
                    .map(|row| PartialEntry {
                        bitmap,
                        deferred: false,
                        row,
                    })
                    .collect(),
            };
            partial = merge_incomplete_partials(
                partial,
                class_partial,
                &self.checker,
                self.kernel,
                &mut stats,
            );
        }
        (partial, stats)
    }
}

/// Merge two internally closed partials: compare exactly the cross pairs
/// (both directions of flags; deferred candidates still witness), then
/// concatenate `a`'s candidates before `b`'s. The result is internally
/// closed again. On a vectorized `kernel`, `b`'s candidates are encoded
/// once per bitmap class into the columnar kernel and every `a`-candidate
/// is tested against each class block in one batched pass (a class is
/// uniformly NULL or non-NULL per column — the layout the kernel encodes);
/// classes the kernel cannot represent fall back to the scalar checker.
/// Results are byte-identical on every kernel.
pub fn merge_incomplete_partials(
    mut a: IncompletePartial,
    mut b: IncompletePartial,
    checker: &DominanceChecker,
    kernel: DominanceKernel,
    stats: &mut SkylineStats,
) -> IncompletePartial {
    if a.is_empty() {
        return b;
    }
    if !b.is_empty() {
        cross_flag(&mut a.entries, &mut b.entries, checker, kernel, stats);
        a.entries.append(&mut b.entries);
    }
    stats.max_window = stats.max_window.max(a.entries.len());
    a
}

/// Compare every pair `(a_i, b_j)` once, updating both deferral flags.
/// `a` precedes `b` in arrival order, so `DISTINCT`-identical ties flag
/// the `b` side — matching the flat pass's "keep the first" rule.
fn cross_flag(
    a: &mut [PartialEntry],
    b: &mut [PartialEntry],
    checker: &DominanceChecker,
    kernel: DominanceKernel,
    stats: &mut SkylineStats,
) {
    if kernel.is_vectorized() {
        // Encode once per class of `b`; flags never evict, so the blocks
        // stay valid for the whole pass.
        let mut blocks: Vec<(ColumnarBlock, Vec<usize>)> = Vec::new();
        let mut slots: HashMap<u64, usize> = HashMap::new();
        for (j, entry) in b.iter().enumerate() {
            let slot = *slots.entry(entry.bitmap).or_insert_with(|| {
                blocks.push((ColumnarBlock::for_checker_with(checker, kernel), Vec::new()));
                blocks.len() - 1
            });
            let (block, members) = &mut blocks[slot];
            block.push(&entry.row);
            members.push(j);
        }
        let distinct = checker.distinct();
        let mut cand = EncodedCandidate::new();
        let mut out: Vec<Dominance> = Vec::new();
        for i in 0..a.len() {
            for (block, members) in &blocks {
                if block.is_fallback() || !block.encode_into(&a[i].row, &mut cand) {
                    scalar_cross_flag(a, i, b, members, checker, stats);
                    continue;
                }
                // No early exit: a dominated candidate must still flag the
                // rows it dominates (it is a deferred witness, not dead).
                let res = block.compare_batch(&cand, &mut out, false);
                stats.add_block_tests(res.tested, block.is_simd());
                for (&j, outcome) in members.iter().zip(&out) {
                    match outcome {
                        Dominance::Dominates => b[j].deferred = true,
                        Dominance::DominatedBy => a[i].deferred = true,
                        Dominance::Equal => {
                            if distinct && checker.identical_dims(&a[i].row, &b[j].row) {
                                b[j].deferred = true;
                            }
                        }
                        Dominance::Incomparable => {}
                    }
                }
            }
        }
        return;
    }
    let all: Vec<usize> = (0..b.len()).collect();
    for i in 0..a.len() {
        scalar_cross_flag(a, i, b, &all, checker, stats);
    }
}

/// Scalar cross pass of one `a`-candidate against the listed `b` entries.
/// Mirrors the flat pass's skip: a pair where both sides are already
/// deferred can no longer change any flag.
fn scalar_cross_flag(
    a: &mut [PartialEntry],
    i: usize,
    b: &mut [PartialEntry],
    members: &[usize],
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
) {
    let distinct = checker.distinct();
    for &j in members {
        if a[i].deferred && b[j].deferred {
            continue;
        }
        stats.add_scalar();
        match checker.compare(&a[i].row, &b[j].row) {
            Dominance::Dominates => b[j].deferred = true,
            Dominance::DominatedBy => a[i].deferred = true,
            Dominance::Equal => {
                if distinct && checker.identical_dims(&a[i].row, &b[j].row) {
                    b[j].deferred = true;
                }
            }
            Dominance::Incomparable => {}
        }
    }
}

/// Global skyline for (potentially) incomplete data: all-pairs dominance
/// checks with deferred deletion (paper §5.7 / Appendix A "Correct Skyline
/// Computation").
///
/// `rows` is typically the union of the per-bitmap local skylines, but the
/// routine is correct on arbitrary input (it implements Definition 3.2
/// directly). The checker must be an incomplete-relation checker when NULLs
/// can occur. `control` is checked every 64 outer rows (each one a pass
/// over the rest of the input), so a cancel or an expired deadline stops
/// the quadratic loop.
pub fn incomplete_global_skyline(
    rows: Vec<Row>,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
    control: &QueryControl,
) -> Result<Vec<Row>> {
    let n = rows.len();
    stats.max_window = stats.max_window.max(n);
    let mut dominated = vec![false; n];
    let distinct = checker.distinct();
    for i in 0..n {
        if i % 64 == 0 {
            control.check()?;
        }
        for j in (i + 1)..n {
            // A pair where both tuples are already flagged can no longer
            // influence the result; skip the comparison. Pairs with one
            // flagged tuple must still run: the flagged tuple may be the
            // only witness dominating the other (premature-deletion trap).
            if dominated[i] && dominated[j] {
                continue;
            }
            stats.dominance_tests += 1;
            match checker.compare(&rows[i], &rows[j]) {
                Dominance::Dominates => dominated[j] = true,
                Dominance::DominatedBy => dominated[i] = true,
                Dominance::Equal => {
                    if distinct && checker.identical_dims(&rows[i], &rows[j]) {
                        // Keep the first representative of identical tuples.
                        dominated[j] = true;
                    }
                }
                Dominance::Incomparable => {}
            }
        }
    }
    Ok(rows
        .into_iter()
        .zip(dominated)
        .filter_map(|(row, dom)| (!dom).then_some(row))
        .collect())
}

/// Compute the full incomplete skyline of a dataset standalone: partition
/// by null bitmap, local BNL per partition, then the flagged global phase.
/// This is the single-node reference composition of the distributed plan.
pub fn incomplete_skyline(
    rows: impl IntoIterator<Item = Row>,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
) -> Vec<Row> {
    let mut candidates = Vec::new();
    for (_, partition) in partition_by_null_bitmap(rows, checker.spec()) {
        candidates.extend(bnl_skyline(
            partition,
            checker,
            stats,
            DominanceKernel::Scalar,
        ));
    }
    incomplete_global_skyline(candidates, checker, stats, &QueryControl::unlimited())
        .expect("an unlimited control never stops the all-pairs pass")
}

/// The **incorrect** global-skyline procedure of Gulzar et al. (paper
/// Appendix A), kept for demonstration and regression tests.
///
/// It visits the bitmap clusters in order; for the current point `p` it
/// scans all not-yet-deleted points of *subsequent* clusters, deleting any
/// `q` with `p ≺ q` immediately and flagging `p` when `q ≺ p`. Flagged
/// points are deleted at the end of their iteration. Under cyclic dominance
/// this deletes a tuple's only dominating witness before the witness is
/// used, so a dominated tuple can survive — Appendix A's counterexample
/// `a=(1,*,10), b=(3,2,*), c=(*,5,3)` returns `{c}` instead of `{}`.
pub fn premature_deletion_global_skyline(
    clusters: Vec<Vec<Row>>,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
) -> Vec<Row> {
    // alive[c][k] tracks whether point k of cluster c is still a candidate.
    let mut alive: Vec<Vec<bool>> = clusters.iter().map(|c| vec![true; c.len()]).collect();
    for ci in 0..clusters.len() {
        for pi in 0..clusters[ci].len() {
            if !alive[ci][pi] {
                continue;
            }
            let mut flagged = false;
            for cj in (ci + 1)..clusters.len() {
                for qj in 0..clusters[cj].len() {
                    if !alive[cj][qj] {
                        continue;
                    }
                    stats.dominance_tests += 1;
                    match checker.compare(&clusters[ci][pi], &clusters[cj][qj]) {
                        Dominance::Dominates => alive[cj][qj] = false,
                        Dominance::DominatedBy => flagged = true,
                        _ => {}
                    }
                }
            }
            if flagged {
                alive[ci][pi] = false;
            }
        }
    }
    clusters
        .into_iter()
        .zip(alive)
        .flat_map(|(cluster, flags)| {
            cluster
                .into_iter()
                .zip(flags)
                .filter_map(|(row, keep)| keep.then_some(row))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{SkylineDim, Value};

    fn row(vals: &[Option<i64>]) -> Row {
        Row::new(
            vals.iter()
                .map(|v| v.map(Value::Int64).unwrap_or(Value::Null))
                .collect(),
        )
    }

    fn spec3() -> SkylineSpec {
        SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
            SkylineDim::min(2),
        ])
    }

    /// The three cyclic tuples of §3 / Appendix A.
    fn cycle() -> (Row, Row, Row) {
        (
            row(&[Some(1), None, Some(10)]),
            row(&[Some(3), Some(2), None]),
            row(&[None, Some(5), Some(3)]),
        )
    }

    #[test]
    fn bitmaps() {
        let spec = spec3();
        assert_eq!(null_bitmap(&row(&[Some(1), None, Some(10)]), &spec), 0b010);
        assert_eq!(null_bitmap(&row(&[Some(3), Some(2), None]), &spec), 0b100);
        assert_eq!(null_bitmap(&row(&[None, Some(5), Some(3)]), &spec), 0b001);
        assert_eq!(null_bitmap(&row(&[Some(1), Some(2), Some(3)]), &spec), 0);
        assert_eq!(null_bitmap(&row(&[None, None, None]), &spec), 0b111);
    }

    #[test]
    fn bitmap_uses_dim_order_not_column_order() {
        // Dimensions can reference columns in any order; the bitmap is in
        // *dimension* order.
        let spec = SkylineSpec::new(vec![SkylineDim::min(2), SkylineDim::min(0)]);
        let r = row(&[None, Some(1), Some(2)]);
        assert_eq!(null_bitmap(&r, &spec), 0b10);
    }

    #[test]
    fn partitioning_groups_by_bitmap() {
        let spec = spec3();
        let (a, b, c) = cycle();
        let complete1 = row(&[Some(9), Some(9), Some(9)]);
        let complete2 = row(&[Some(8), Some(8), Some(8)]);
        let parts = partition_by_null_bitmap(vec![a, b, c, complete1, complete2], &spec);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[&0].len(), 2);
    }

    #[test]
    fn cyclic_dominance_yields_empty_skyline() {
        // Paper §3: a ≺ b, b ≺ c, c ≺ a — every tuple is dominated, the
        // skyline must be empty.
        let checker = DominanceChecker::incomplete(spec3());
        let (a, b, c) = cycle();
        let mut stats = SkylineStats::default();
        let sky = incomplete_global_skyline(
            vec![a, b, c],
            &checker,
            &mut stats,
            &QueryControl::unlimited(),
        )
        .unwrap();
        assert!(sky.is_empty(), "cyclic dominance must empty the skyline");
    }

    #[test]
    fn appendix_a_counterexample_faulty_algorithm_returns_c() {
        // Reproduce Appendix A: the premature-deletion algorithm of [20]
        // wrongly returns {c} on the cycle while the correct result is {}.
        let checker = DominanceChecker::incomplete(spec3());
        let (a, b, c) = cycle();
        let mut stats = SkylineStats::default();
        let wrong = premature_deletion_global_skyline(
            vec![vec![a], vec![b], vec![c.clone()]],
            &checker,
            &mut stats,
        );
        assert_eq!(wrong, vec![c], "the faulty algorithm keeps tuple c");
    }

    #[test]
    fn full_incomplete_pipeline_on_cycle_plus_survivor() {
        let checker = DominanceChecker::incomplete(spec3());
        let (a, b, c) = cycle();
        // This tuple is dominated by nothing: 0 is minimal on dim 0 and 2,
        // and dim 1 is NULL, so only dims 0/2 can be compared.
        let survivor = row(&[Some(0), None, Some(0)]);
        let mut stats = SkylineStats::default();
        let sky = incomplete_skyline(vec![a, b, c, survivor.clone()], &checker, &mut stats);
        assert_eq!(sky, vec![survivor]);
    }

    #[test]
    fn incomplete_pipeline_equals_global_on_small_input() {
        // The partition+local phase must not change the result, only
        // shrink the candidate set.
        let checker = DominanceChecker::incomplete(spec3());
        let data = vec![
            row(&[Some(1), Some(2), Some(3)]),
            row(&[Some(1), Some(2), None]),
            row(&[Some(2), Some(2), Some(3)]),
            row(&[None, Some(1), Some(4)]),
            row(&[Some(1), None, Some(3)]),
        ];
        let mut s1 = SkylineStats::default();
        let with_partitioning = incomplete_skyline(data.clone(), &checker, &mut s1);
        let mut s2 = SkylineStats::default();
        let direct =
            incomplete_global_skyline(data, &checker, &mut s2, &QueryControl::unlimited()).unwrap();
        let key = |r: &Row| format!("{r}");
        let mut a: Vec<String> = with_partitioning.iter().map(key).collect();
        let mut b: Vec<String> = direct.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn global_distinct_dedups_identical_tuples() {
        let mut spec = spec3();
        spec.distinct = true;
        let checker = DominanceChecker::incomplete(spec);
        let r = row(&[Some(1), None, Some(1)]);
        let mut stats = SkylineStats::default();
        let sky = incomplete_global_skyline(
            vec![r.clone(), r.clone(), r.clone()],
            &checker,
            &mut stats,
            &QueryControl::unlimited(),
        )
        .unwrap();
        assert_eq!(sky.len(), 1);
    }

    #[test]
    fn complete_data_single_partition() {
        // On complete data the bitmap partitioner degenerates to a single
        // partition (the paper's worst case for the incomplete algorithm).
        let spec = spec3();
        let parts = partition_by_null_bitmap(
            vec![
                row(&[Some(1), Some(2), Some(3)]),
                row(&[Some(4), Some(5), Some(6)]),
            ],
            &spec,
        );
        assert_eq!(parts.len(), 1);
        assert!(parts.contains_key(&0));
    }

    #[test]
    fn stats_are_recorded() {
        let checker = DominanceChecker::incomplete(spec3());
        let (a, b, c) = cycle();
        let mut stats = SkylineStats::default();
        incomplete_global_skyline(
            vec![a, b, c],
            &checker,
            &mut stats,
            &QueryControl::unlimited(),
        )
        .unwrap();
        assert_eq!(stats.dominance_tests, 3); // all pairs of 3 tuples
        assert_eq!(stats.max_window, 3);
    }

    #[test]
    fn all_pairs_pass_observes_the_control() {
        let checker = DominanceChecker::incomplete(spec3());
        let (a, b, c) = cycle();
        let control = QueryControl::unlimited();
        control.cancel();
        let mut stats = SkylineStats::default();
        let err =
            incomplete_global_skyline(vec![a, b, c], &checker, &mut stats, &control).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert_eq!(stats.dominance_tests, 0, "checked before the first row");
    }

    /// Deterministic mixed-bitmap test data: ~30% NULLs over `dims`
    /// small-domain dimensions, so dominance, equality, and cycles all
    /// occur.
    fn mixed_rows(n: usize, dims: usize, seed: u64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(
                    (0..dims)
                        .map(|d| {
                            let h = (i as u64)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .wrapping_add(seed)
                                .wrapping_add((d as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                            let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
                            if h % 10 < 3 {
                                Value::Null
                            } else {
                                Value::Int64(((h >> 8) % 6) as i64)
                            }
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Tree-merge the rows split into `parts` leaf partials with the given
    /// fan-in; returns the surviving rows in order.
    fn tree_merge(
        rows: &[Row],
        checker: &DominanceChecker,
        parts: usize,
        fan_in: usize,
        kernel: DominanceKernel,
    ) -> (Vec<Row>, usize) {
        let chunk = rows.len().div_ceil(parts.max(1)).max(1);
        let mut partials: Vec<IncompletePartial> = rows
            .chunks(chunk)
            .map(|chunk| {
                let mut builder = IncompletePartialBuilder::with_kernel(checker.clone(), kernel);
                builder.push_batch(chunk.to_vec());
                builder.finish().0
            })
            .collect();
        let mut stats = SkylineStats::default();
        while partials.len() > 1 {
            let mut next = Vec::new();
            let mut iter = partials.into_iter().peekable();
            while iter.peek().is_some() {
                let group: Vec<IncompletePartial> = iter.by_ref().take(fan_in).collect();
                let mut merged = IncompletePartial::default();
                for p in group {
                    merged = merge_incomplete_partials(merged, p, checker, kernel, &mut stats);
                }
                next.push(merged);
            }
            partials = next;
        }
        let root = partials.pop().unwrap_or_default();
        let deferred = root.deferred_len();
        (root.finish(), deferred)
    }

    #[test]
    fn grouped_builder_kernel_knobs_are_byte_identical() {
        // Per-class windows are class-pure, so the vectorized knobs fold
        // batches through the cross-filter; every knob must produce the
        // same rows in the same order.
        let checker = DominanceChecker::incomplete(spec3());
        let data = mixed_rows(240, 3, 7);
        let mut baseline = GroupedBnlBuilder::with_kernel(checker.clone(), DominanceKernel::Scalar);
        baseline.push_batch(data.clone());
        let (expected, base_stats) = baseline.finish();
        assert_eq!(base_stats.multi_candidate_passes, 0);
        for kernel in [DominanceKernel::Auto, DominanceKernel::Chunked] {
            let mut builder = GroupedBnlBuilder::with_kernel(checker.clone(), kernel);
            for batch in data.chunks(24) {
                builder.push_batch(batch.to_vec());
            }
            let (rows, stats) = builder.finish();
            assert_eq!(rows, expected, "kernel {kernel:?}");
            // The fold never holds a temporary admission the per-row step
            // would not.
            assert!(stats.max_window <= base_stats.max_window);
            assert!(
                stats.multi_candidate_passes > 0,
                "class-pure windows must batch candidates under {kernel:?}"
            );
        }
    }

    #[test]
    fn partial_tree_merge_is_byte_identical_to_flat() {
        // Local phase first (as in the distributed plan), then flat vs
        // every tree shape: identical rows in identical order.
        let checker = DominanceChecker::incomplete(spec3());
        for seed in 0..4u64 {
            let data = mixed_rows(120, 3, seed);
            let mut local = GroupedBnlBuilder::new(checker.clone(), true);
            local.push_batch(data);
            let (candidates, _) = local.finish();
            let mut stats = SkylineStats::default();
            let flat = incomplete_global_skyline(
                candidates.clone(),
                &checker,
                &mut stats,
                &QueryControl::unlimited(),
            )
            .unwrap();
            let flat_deferred = candidates.len() - flat.len();
            for parts in [1usize, 2, 3, 5] {
                for fan_in in [2usize, 3] {
                    for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
                        let (tree, deferred) =
                            tree_merge(&candidates, &checker, parts, fan_in, kernel);
                        assert_eq!(
                            tree, flat,
                            "seed {seed}, {parts} parts, fan-in {fan_in}, {kernel:?}"
                        );
                        assert_eq!(deferred, flat_deferred, "same tuples flagged");
                    }
                }
            }
        }
    }

    #[test]
    fn partial_merge_handles_the_cycle_across_partials() {
        // The Appendix A cycle split over three leaves: every tuple loses
        // one cross-class comparison, so the deferred set swallows all
        // three and the root survivor set is empty — the case eager
        // deletion gets wrong.
        let checker = DominanceChecker::incomplete(spec3());
        let (a, b, c) = cycle();
        let (sky, deferred) = tree_merge(&[a, b, c], &checker, 3, 2, DominanceKernel::Scalar);
        assert!(sky.is_empty());
        assert_eq!(deferred, 3);
    }

    #[test]
    fn partial_counters_and_classes() {
        let checker = DominanceChecker::incomplete(spec3());
        let (a, b, c) = cycle();
        let mut builder =
            IncompletePartialBuilder::with_kernel(checker.clone(), DominanceKernel::Auto);
        builder.push_batch(vec![a, b, c, row(&[Some(9), Some(9), Some(9)])]);
        assert_eq!(builder.window_len(), 4);
        let (partial, stats) = builder.finish();
        assert_eq!(partial.len(), 4);
        assert_eq!(partial.class_count(), 4, "three NULL classes + complete");
        assert!(stats.dominance_tests > 0);
        // The cycle members flag each other; the complete row is dominated
        // by a=(1,*,10)? No: (9,9,9) vs (1,*,10) compares dims 0,2 → a
        // dominates. So at least the three cycle members plus the complete
        // row carry flags.
        assert_eq!(partial.deferred_len(), 4);
        assert_eq!(partial.live_len(), 0);
        assert!(partial.clone().finish().is_empty());
        assert!(!partial.is_empty());
    }

    #[test]
    fn distinct_ties_flag_the_later_candidate_across_partials() {
        let mut spec = spec3();
        spec.distinct = true;
        let checker = DominanceChecker::incomplete(spec);
        let r = row(&[Some(1), None, Some(1)]);
        for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
            let (sky, deferred) =
                tree_merge(&[r.clone(), r.clone(), r.clone()], &checker, 3, 2, kernel);
            assert_eq!(sky, vec![r.clone()], "{kernel:?}");
            assert_eq!(deferred, 2);
        }
    }

    #[test]
    fn vectorized_merge_falls_back_on_non_numeric_classes() {
        // String dimensions demote the class blocks to the scalar path;
        // results must not change.
        let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]);
        let checker = DominanceChecker::incomplete(spec);
        let data: Vec<Row> = (0..30)
            .map(|i: i64| {
                Row::new(vec![
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("s{:02}", i % 5))
                    },
                    Value::Int64(i % 7),
                ])
            })
            .collect();
        let mut stats = SkylineStats::default();
        let flat = incomplete_skyline(data.clone(), &checker, &mut stats);
        let key = |rows: &[Row]| {
            let mut v: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
            v.sort();
            v
        };
        for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
            let (tree, _) = tree_merge(&data, &checker, 3, 2, kernel);
            assert_eq!(key(&tree), key(&flat), "{kernel:?}");
        }
    }
}
