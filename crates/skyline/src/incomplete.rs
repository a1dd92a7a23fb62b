//! Skyline computation over incomplete (NULL-containing) data, following
//! paper §5.7, Lemma 5.1, and Appendix A.
//!
//! The incomplete-data dominance relation is not transitive and may contain
//! cycles, so the BNL window trick is unsound across tuples with different
//! NULL patterns. The paper's approach:
//!
//! 1. **Group by null bitmap.** Every tuple gets a bitmap with one bit
//!    per skyline dimension, set iff the dimension is missing (NULL, or
//!    NaN, which the relation skips alike). Tuples with the same bitmap
//!    share their missing positions; within one class the
//!    restricted relation is transitive again, so the ordinary BNL
//!    algorithm computes each *local* skyline safely. The engine groups
//!    each scan partition on its own (see "Phase 1 on the scan's
//!    partitions").
//! 2. **All-pairs global phase with deferred deletion.** The union of local
//!    skylines is compared pairwise; dominated tuples are only *flagged*,
//!    and flagged tuples are removed after all comparisons. Deleting
//!    eagerly is the bug of the algorithm in Gulzar et al. (Appendix A;
//!    `tests/incomplete_semantics.rs` reproduces the counterexample).
//!
//! Lemma 5.1 guarantees that the union of local skylines still contains a
//! dominating witness for every non-skyline tuple, so phase 2 over the
//! local skylines yields exactly `SKY(P)`.
//!
//! # Phase 1 on the scan's partitions
//!
//! A deviation from §5.7, as the pairwise merge below is from the paper's
//! gather: there is no null-bitmap exchange. The local phase groups each
//! scan partition by class ([`GroupedBnlBuilder`]), so nothing moves
//! before the first dominance test, and one class may span partitions.
//! The witness argument of Lemma 5.1 holds for any partitioning:
//!
//! * Let the local phase drop `a` because a same-class `b` dominates it.
//!   `a` and `b` share their NULL positions, hence their common
//!   dimensions with any third row `c`, on which `b` is at least as good
//!   as `a`: if `a` dominates `c`, so does `b`.
//! * `b` may be dropped in turn by a same-class row; the chain ends in a
//!   local survivor, which by the same step dominates `c` too.
//! * So every dropped row is dominated, and each of its victims keeps a
//!   dominator among the candidates. Under `DISTINCT` the local phase
//!   also drops later dims-identical rows; the kept one shares every
//!   verdict.
//!
//! In phase 2 a class in several partitions forms one block per
//! partition. No block is deleted from before the round ends, so the
//! argument below holds over any number of blocks per class, and
//! dims-identical rows from different partitions meet in its
//! first-occurrence dedup.
//!
//! [`incomplete_global_skyline`] is phase 2 as the paper writes it, one
//! scalar pass on one executor; it and [`incomplete_skyline`] (which runs
//! [`naive_skyline`] per class for phase 1) are the references the test
//! suites compare the engine against.
//!
//! # Phase 2 as a pairwise cross-filter over class blocks
//!
//! The engine's global operator (`GlobalSkylineExec` in
//! `sparkline-physical`) runs phase 2 in one parallel round of the
//! antichain [`cross_filter`](crate::bnl::cross_filter), the primitive of
//! the complete family's pairwise merge. Its blocks are the null-bitmap
//! class runs of each partition's local skyline, each encoded once into a
//! [`ColumnarBlock`](crate::columnar::ColumnarBlock) sorted by score key.
//! One task per block filters the block's rows against every *other*
//! block, unfiltered; the survivors are concatenated in block order. The
//! result is byte-identical to the all-pairs pass over the gathered
//! candidates:
//!
//! * **What the phase computes.** Over the candidate set `C` (the
//!   concatenated local skylines) the all-pairs pass returns
//!   `{ t ∈ C | ¬∃ s ∈ C : s ≺ t }`. Flags are monotone and a flagged
//!   tuple keeps witnessing, so that set depends on which ordered pairs are
//!   compared, never on the order of the comparisons.
//! * **No row is tested against its own block.** A class window is a BNL
//!   skyline under the restricted relation, which is transitive inside the
//!   class (Lemma 5.1): an antichain. No row of a block strictly dominates
//!   another row of it, so the pairs inside a block can flag nothing.
//! * **Nothing is deleted before the round ends.** Every task filters
//!   against the unfiltered blocks, so a candidate that loses a comparison
//!   still witnesses against every other candidate — the deferred deletion
//!   the paper requires, with the cyclic cases of Appendix A included.
//! * **The score bound holds across classes.** A block's member keys sum
//!   the dimensions its class materializes. A candidate NULL on one of
//!   them gets key `+inf` (`crate::columnar`, "Score keys and the bounded
//!   walk"), so its walks never stop early. Any other candidate is
//!   non-NULL on every summed dimension, where a dominator is at least as
//!   good, so the dominator's key is at most the candidate's.
//! * **`DISTINCT`.** Under the incomplete relation `compare(r, r)` is
//!   always `Equal` (each dimension is equal to itself or skipped as
//!   NULL), and dims-identical rows share every verdict, because a verdict
//!   reads only the dimension values. The all-pairs pass flags the later of
//!   two identical candidates; so its result is the undominated candidates
//!   with only the first of each dims-identical group kept. That is the
//!   first-occurrence dedup on the dimension values that the merge applies
//!   to its survivors, in block order, which is candidate order.

use std::collections::HashMap;

use sparkline_common::{
    BatchColumn, ColumnBatch, ColumnValues, QueryControl, Result, Row, SkylineSpec,
    CONTROL_CHECK_ROWS,
};

use crate::bnl::{tier_for, BnlBuilder};
use crate::columnar::{is_null_like, KernelTier};
use crate::dominance::{Dominance, DominanceChecker, SkylineStats};
use crate::naive::naive_skyline;

/// The null bitmap of a tuple over the skyline dimensions: bit `i` is set
/// iff dimension `i` (in spec order) is missing — NULL, or NaN, which the
/// incomplete relation skips alike ([`is_null_like`]) — paper §5.7. A
/// class whose members differ in which dimensions they miss would not be
/// transitive (Lemma 5.1).
///
/// Supports up to 64 skyline dimensions, far beyond the paper's 6.
pub fn null_bitmap(row: &Row, spec: &SkylineSpec) -> u64 {
    assert!(
        spec.dims.len() <= 64,
        "at most 64 skyline dimensions are supported"
    );
    let mut bitmap = 0u64;
    for (i, dim) in spec.dims.iter().enumerate() {
        if is_null_like(row.get(dim.index)) {
            bitmap |= 1 << i;
        }
    }
    bitmap
}

/// Whether physical row `i` of `column` is missing: [`null_bitmap`]'s
/// test, read from the column's buffers.
fn is_missing(column: &BatchColumn, i: usize) -> bool {
    match &column.values {
        ColumnValues::Float64(v) => v[i].is_nan() || column.is_null(i),
        ColumnValues::Int64(_) => column.is_null(i),
        ColumnValues::Values(v) => is_null_like(&v[i]),
    }
}

/// Group tuples by their null bitmap: the paper's partitions `P_b`, which
/// tests and [`incomplete_skyline`] build; the engine groups each scan
/// partition separately ([`GroupedBnlBuilder`]).
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
/// on the columnar kernel. Because the restricted relation *is* transitive
/// inside a class, each class window folds batches through the
/// cross-filter (`crate::bnl`); these class windows are the only way an
/// incomplete-relation checker enters a [`BnlBuilder`]. `finish`
/// concatenates the class windows in **first-seen order**, making the
/// streamed local phase deterministic (the materialized seed iterated a
/// `HashMap`).
pub struct GroupedBnlBuilder {
    checker: DominanceChecker,
    tier: KernelTier,
    index: HashMap<u64, usize>,
    groups: Vec<BnlBuilder>,
}

impl GroupedBnlBuilder {
    /// A builder over the checker's spec (must be an incomplete-relation
    /// checker when NULLs can occur), whose class windows run on the
    /// detected compare tier when `vectorized`, on the portable chunked
    /// loop otherwise (the tier differential's pin).
    pub fn new(checker: DominanceChecker, vectorized: bool) -> Self {
        GroupedBnlBuilder {
            checker,
            tier: tier_for(vectorized),
            index: HashMap::new(),
            groups: Vec::new(),
        }
    }

    /// The window slot of a row's bitmap class, creating the class window
    /// on first sight: within one class the restricted relation is
    /// transitive (Lemma 5.1), so the batch fold is sound.
    fn slot_for(&mut self, bitmap: u64) -> usize {
        match self.index.get(&bitmap) {
            Some(&i) => i,
            None => {
                let builder = BnlBuilder::for_class(self.checker.clone(), self.tier);
                self.groups.push(builder);
                self.index.insert(bitmap, self.groups.len() - 1);
                self.groups.len() - 1
            }
        }
    }

    /// Feed one batch of rows: the batch is routed per class first so each
    /// class window can fold its share in one step instead of
    /// row-at-a-time.
    pub fn push_batch(&mut self, rows: impl IntoIterator<Item = Row>) {
        let mut routed: Vec<(usize, Vec<Row>)> = Vec::new();
        let mut at: HashMap<usize, usize> = HashMap::new();
        for row in rows {
            let slot = self.slot_for(null_bitmap(&row, self.checker.spec()));
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

    /// [`push_batch_checked`](Self::push_batch_checked) for the selected
    /// rows of a column batch, with the same routing, folds, control
    /// checks, windows and statistics. Each run of [`CONTROL_CHECK_ROWS`]
    /// selected rows is routed by the NULL flags of the ranked columns,
    /// and each class window folds its share straight from the buffers, as
    /// [`BnlBuilder::push_columns_checked`] does: a `Row` is built only
    /// where that fold builds one. The run's null bitmaps are built one
    /// dimension at a time from the columns' buffers (a NULL flag or a
    /// NaN sets a bit, as in [`null_bitmap`]), and each distinct bitmap
    /// looks up its class window once.
    pub fn push_columns_checked(
        &mut self,
        batch: &ColumnBatch,
        control: &QueryControl,
    ) -> Result<()> {
        assert!(
            self.checker.spec().dims.len() <= 64,
            "at most 64 skyline dimensions are supported"
        );
        let mut bitmaps: Vec<u64> = Vec::new();
        // (bitmap, class window, its rows), classes in first-seen order.
        let mut routed: Vec<(u64, usize, Vec<usize>)> = Vec::new();
        for run in batch.selection().chunks(CONTROL_CHECK_ROWS) {
            control.check()?;
            bitmaps.clear();
            bitmaps.resize(run.len(), 0);
            for (d, dim) in self.checker.spec().dims.iter().enumerate() {
                let column = batch.column(dim.index);
                for (bitmap, &i) in bitmaps.iter_mut().zip(run) {
                    *bitmap |= u64::from(is_missing(column, i)) << d;
                }
            }
            routed.clear();
            for (&i, &bitmap) in run.iter().zip(&bitmaps) {
                match routed.iter_mut().find(|(b, _, _)| *b == bitmap) {
                    Some((_, _, rows)) => rows.push(i),
                    None => routed.push((bitmap, self.slot_for(bitmap), vec![i])),
                }
            }
            for (_, slot, rows) in &routed {
                self.groups[*slot].fold_columns(batch, rows);
            }
        }
        Ok(())
    }

    /// Total window occupancy across all bitmap classes.
    pub fn window_len(&self) -> usize {
        self.groups.iter().map(BnlBuilder::window_len).sum()
    }

    /// Estimated bytes of the rows of every class window.
    pub fn window_bytes(&self) -> usize {
        self.groups.iter().map(BnlBuilder::window_bytes).sum()
    }

    /// Concatenate the class skylines (first-seen order) and merge stats.
    pub fn finish(self) -> (Vec<Row>, SkylineStats) {
        let mut rows = Vec::new();
        let mut stats = SkylineStats::default();
        for builder in self.groups {
            let (window, group_stats) = builder.finish();
            rows.extend(window);
            stats.merge(&group_stats);
        }
        (rows, stats)
    }
}

/// Global skyline for (potentially) incomplete data: all-pairs dominance
/// checks with deferred deletion (paper §5.7 / Appendix A "Correct Skyline
/// Computation") — the reference the engine's pairwise merge is tested
/// against (module docs).
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
/// by null bitmap, the naive skyline per partition, then the flagged
/// global phase. This is the single-node reference composition of the
/// distributed plan.
pub fn incomplete_skyline(
    rows: impl IntoIterator<Item = Row>,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
) -> Vec<Row> {
    let mut candidates = Vec::new();
    for (_, partition) in partition_by_null_bitmap(rows, checker.spec()) {
        candidates.extend(naive_skyline(&partition, checker));
    }
    incomplete_global_skyline(candidates, checker, stats, &QueryControl::unlimited())
        .expect("an unlimited control never stops the all-pairs pass")
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

    /// Mirrors `bnl::tests::column_fold_equals_row_fold` for the class
    /// windows: the same rows and statistics from columns as from rows,
    /// over runs longer than one routing window and one row per batch,
    /// whole and narrowed selections, MIN/MAX and `DISTINCT`.
    #[test]
    fn column_intake_equals_row_intake() {
        use sparkline_common::{DataType, Field, MemTable, Schema, SkylineDim};
        let data = mixed_rows(2600, 3, 11);
        let schema = Schema::new(
            (0..3)
                .map(|c| Field::new(format!("d{c}"), DataType::Int64, true))
                .collect(),
        );
        let table = MemTable::from_rows(&schema, data.clone());
        let control = QueryControl::unlimited();
        let mixed = SkylineSpec::new(vec![
            SkylineDim::max(0),
            SkylineDim::min(1),
            SkylineDim::max(2),
        ]);
        let distinct = SkylineSpec::distinct(spec3().dims);
        for spec in [spec3(), mixed, distinct] {
            let checker = DominanceChecker::incomplete(spec);
            for size in [1, 24, 1500, data.len()] {
                for narrowed in [false, true] {
                    let mut by_rows = GroupedBnlBuilder::new(checker.clone(), true);
                    let mut by_columns = GroupedBnlBuilder::new(checker.clone(), true);
                    for start in (0..data.len()).step_by(size) {
                        let mut batch = table.batch(start, (start + size).min(data.len()));
                        if narrowed {
                            let kept = (batch.selection().iter().copied())
                                .filter(|i| i % 3 != 1)
                                .collect();
                            batch.set_selection(kept);
                        }
                        let rows = batch.clone().into_rows();
                        by_rows.push_batch_checked(rows, &control).unwrap();
                        by_columns.push_columns_checked(&batch, &control).unwrap();
                    }
                    let case = format!(
                        "{:?}, batches of {size}, narrowed {narrowed}",
                        checker.spec()
                    );
                    let (rows, stats) = by_rows.finish();
                    assert_eq!(by_columns.finish(), (rows, stats), "{case}");
                    assert!(stats.dominance_tests > 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn grouped_builder_kernel_knobs_are_byte_identical() {
        // Per-class windows fold batches through the cross-filter; every
        // tier must produce the naive skyline of each class, classes in
        // first-seen order.
        let checker = DominanceChecker::incomplete(spec3());
        let data = mixed_rows(240, 3, 7);
        let mut classes: Vec<(u64, Vec<Row>)> = Vec::new();
        for row in &data {
            let bitmap = null_bitmap(row, checker.spec());
            match classes.iter_mut().find(|(b, _)| *b == bitmap) {
                Some((_, class)) => class.push(row.clone()),
                None => classes.push((bitmap, vec![row.clone()])),
            }
        }
        let expected: Vec<Row> = classes
            .iter()
            .flat_map(|(_, class)| naive_skyline(class, &checker))
            .collect();
        for vectorized in [true, false] {
            let mut builder = GroupedBnlBuilder::new(checker.clone(), vectorized);
            for batch in data.chunks(24) {
                builder.push_batch(batch.to_vec());
            }
            let (rows, stats) = builder.finish();
            assert_eq!(rows, expected, "vectorized={vectorized}");
            assert!(
                stats.dominator_walks > 0,
                "class-pure windows must batch candidates, vectorized={vectorized}"
            );
            if !vectorized {
                assert_eq!(stats.simd_tests, 0, "the chunked pin reaches every class");
            }
        }
    }
}
