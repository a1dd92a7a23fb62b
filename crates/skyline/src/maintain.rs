//! Incremental skyline maintenance over a k-skyband (the continuous /
//! data-stream technique of the Kalyvas & Tzouramanis survey): instead of
//! recomputing the skyline after every INSERT/DELETE, a
//! [`MaintainedSkyline`] keeps, for the tuples near the Pareto front, a
//! per-tuple *dominator count* and applies each mutation as a delta,
//! returning the skyline change-set.
//!
//! # Structure
//!
//! The maintained state mirrors the relation in arrival order and tracks a
//! **band** of tuples whose dominator count was at most `k` when they
//! arrived:
//!
//! * `rows` — every live tuple, in arrival order (deletes shift positions,
//!   exactly like the relation's own row vector).
//! * `counts[i]` — `Some(c)` when row `i` is *tracked* (a band member with
//!   stated dominator count `c`), `None` when untracked.
//! * the band's rows are also transposed into a [`ColumnarBlock`], so two
//!   scans ([`mark`](ColumnarBlock::mark), one per direction) yield, for a
//!   candidate, the band members it strictly dominates and its strict
//!   dominators in the band — the two sets an insert and a delete read.
//!
//! The maintained skyline is the set of tracked tuples with stated count
//! 0, in arrival order — byte-identical to a cold BNL recompute, whose
//! order-preserving window also emits skyline members in arrival order.
//!
//! # Soundness: why the stated counts are exact where it matters
//!
//! Dominance on a **complete** relation is a strict partial order
//! (transitive, irreflexive). Write `true(q)` for the number of live
//! tuples strictly dominating `q`. The skyline is `{q : true(q) = 0}`.
//!
//! A tracked tuple's stated count is the size of its live **counted set**:
//! the dominators that were tracked when the tuple was inserted, plus
//! every dominator inserted later. Each mutation preserves this meaning
//! exactly:
//!
//! * **Insert of `q`** counts `q`'s dominators among the band (tracked
//!   tuples) and increments every tracked tuple `q` dominates — so each
//!   later-inserted dominator is counted the moment it arrives. Tuples are
//!   never evicted for growing past `k`; only a rebuild retires them.
//! * **Delete of `x`** decrements a tracked `t` dominated by `x` iff `x`
//!   was counted by `t` — that is, iff `x` is tracked (tracked status is
//!   decided at insert and never changes between rebuilds, so "tracked
//!   now" equals "tracked when `t` arrived") or `x` arrived after `t`
//!   (later-inserted dominators are always counted). Each counted
//!   dominator therefore contributes exactly one increment and exactly one
//!   decrement, and `stated(t) = |live counted dominators of t|` holds at
//!   all times.
//!
//! Since the counted set is a subset of the dominators,
//! `stated(t) <= true(t)`; hence `true(t) = 0` implies `stated(t) = 0` —
//! **no skyline member is ever missed**.
//!
//! For the converse, the **erosion budget** `e` (the number of *tracked*
//! deletions since the last rebuild) maintains the invariant that every
//! untracked live tuple `u` satisfies `true(u) >= k + 1 - e`:
//!
//! * `u` became untracked only by arriving with stated count `> k`, and
//!   stated ≤ true, so `true(u) >= k + 1` at that moment;
//! * inserts only grow `true(u)`;
//! * deleting an *untracked* `x` with `x ≻ u` cannot break the bound: the
//!   dominators of `x` all dominate `u` too (transitivity), so
//!   `true(u) >= true(x) + 1 >= k + 2 - e` before the delete;
//! * deleting a *tracked* `x` lowers the bound by one — and bumps `e`.
//!
//! While `e <= k` the bound keeps every untracked tuple at
//! `true >= k + 1 - e >= 1`, so **every true-skyline tuple is tracked**.
//! Now suppose a tracked `t` has `stated(t) = 0` but `true(t) > 0`, and
//! let `t*` be a minimal live dominator of `t`. Minimality plus
//! transitivity gives `true(t*) = 0` (any dominator of `t*` would be a
//! smaller dominator of `t`), so `t*` is in the true skyline, hence
//! tracked — and a tracked dominator is always counted (it was tracked at
//! `t`'s insert, or arrived later), so `stated(t) >= 1`: contradiction.
//! Therefore, while `e <= k`, `stated = 0 ⇔ true = 0` and the maintained
//! skyline **is** the true skyline. This is the classical "shadow
//! promotion is complete" argument: the (k+1)-deep shadow of any deleted
//! point is tracked, so each promotion surfaces from the band instead of
//! requiring a scan.
//!
//! When a tracked deletion would push `e` past `k`, the structure
//! **rebuilds**: the whole relation is replayed through the insert path
//! (a pure-insert history has `e = 0`, so the theorem applies to the
//! replayed state). Rebuilds also fire when stale band entries (stated
//! count past `k`) outnumber the live ones, bounding band bloat.
//!
//! # Scope
//!
//! Complete relations only — incomplete (`§5.7`) dominance is not
//! transitive, which breaks both the counted-set argument and the erosion
//! invariant, so [`MaintainedSkyline::new`] rejects incomplete specs and
//! callers fall back to recomputation. `SKYLINE OF DISTINCT` is likewise
//! rejected: duplicate elimination makes membership depend on arrival
//! *identity*, not just dominance counts. NULLs in skyline dimensions are
//! permitted and behave exactly like the complete-relation checker:
//! a NULL-bearing tuple is incomparable to everything, dominates nothing,
//! and sits in the skyline as an isolated point.

use sparkline_common::{Error, Result, Row, SkylineSpec};

use crate::columnar::{ColumnarBlock, EncodedCandidate, WalkTests};
use crate::dominance::{Dominance, DominanceChecker};

/// Rebuild when stale band entries (stated count > k) outnumber fresh
/// ones and the band is at least this large.
const STALE_REBUILD_FLOOR: usize = 64;

/// The skyline change-set produced by one mutation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkylineDelta {
    /// Tuples that entered the skyline.
    pub added: Vec<Row>,
    /// Tuples that left the skyline.
    pub removed: Vec<Row>,
}

impl SkylineDelta {
    /// Whether the mutation left the skyline unchanged (the common case
    /// for inserts of dominated tuples — the served result needs no
    /// re-rendering).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// An incrementally maintained skyline over a complete relation — see the
/// module docs for the structure and the soundness argument.
#[derive(Debug)]
pub struct MaintainedSkyline {
    checker: DominanceChecker,
    k: u32,
    /// Live tuples in arrival order (positions mirror the relation's).
    rows: Vec<Row>,
    /// Monotone arrival stamps, parallel to `rows`.
    seqs: Vec<u64>,
    /// `Some(stated count)` for tracked rows, `None` for untracked.
    counts: Vec<Option<u32>>,
    next_seq: u64,
    /// Tracked deletions since the last rebuild.
    erosion: u32,
    rebuilds: u64,
    /// Positions of tracked rows, ascending (arrival order).
    band: Vec<usize>,
    /// The band rows, transposed; index-aligned with `band`.
    block: ColumnarBlock,
    /// [`band_outcomes`](Self::band_outcomes) of the last candidate, one
    /// flag per band row: cleared where the candidate strictly dominates
    /// the row, and where the row strictly dominates the candidate.
    not_dominated: Vec<bool>,
    not_dominator: Vec<bool>,
    cand: EncodedCandidate,
}

impl MaintainedSkyline {
    /// Build the maintained state over the current rows. `k` is the band
    /// depth: up to `k` tracked deletions are absorbed as deltas before a
    /// rebuild. Rejects incomplete and `DISTINCT` specs (fall back to
    /// recomputation for those).
    pub fn new(spec: SkylineSpec, k: u32, rows: &[Row]) -> Result<Self> {
        if spec.distinct {
            return Err(Error::plan(
                "maintained skylines do not support SKYLINE OF DISTINCT",
            ));
        }
        let checker = DominanceChecker::complete(spec);
        let block = ColumnarBlock::for_checker(&checker);
        let mut this = MaintainedSkyline {
            checker,
            k,
            rows: Vec::with_capacity(rows.len()),
            seqs: Vec::with_capacity(rows.len()),
            counts: Vec::with_capacity(rows.len()),
            next_seq: 0,
            erosion: 0,
            rebuilds: 0,
            band: Vec::new(),
            block,
            not_dominated: Vec::new(),
            not_dominator: Vec::new(),
            cand: EncodedCandidate::new(),
        };
        for row in rows {
            this.insert_internal(row.clone());
        }
        Ok(this)
    }

    /// The band depth `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Live tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Full rebuilds performed so far (erosion budget exhausted or band
    /// hygiene).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The maintained skyline, in arrival order — byte-identical to a
    /// cold BNL recompute over the current rows.
    pub fn skyline_rows(&self) -> Vec<Row> {
        self.band
            .iter()
            .filter(|&&p| self.counts[p] == Some(0))
            .map(|&p| self.rows[p].clone())
            .collect()
    }

    /// Apply an insert, returning the skyline change-set.
    pub fn apply_insert(&mut self, row: Row) -> SkylineDelta {
        let delta = self.insert_internal(row);
        // Band hygiene: replay when stale entries dominate. The replayed
        // state is exact for a pure-insert history, and exact-in implies
        // exact-out, so the skyline (and the delta) is unaffected.
        if self.band.len() >= STALE_REBUILD_FLOOR {
            let stale = self
                .band
                .iter()
                .filter(|&&p| self.counts[p].is_some_and(|c| c > self.k))
                .count();
            if stale * 2 > self.band.len() {
                self.rebuild();
            }
        }
        delta
    }

    /// Apply a delete by row position (positions mirror the relation:
    /// the value returned alongside `SessionCatalog::delete_rows`).
    /// Batched deletes must be applied in descending position order.
    pub fn apply_delete(&mut self, pos: usize) -> Result<SkylineDelta> {
        if pos >= self.rows.len() {
            return Err(Error::internal(format!(
                "maintained skyline: delete position {pos} out of bounds ({} rows)",
                self.rows.len()
            )));
        }
        let was_tracked = self.counts[pos].is_some();
        let in_skyline = self.counts[pos] == Some(0);
        let seq_x = self.seqs[pos];

        // Exactness holds only while erosion <= k; when this tracked
        // delete would exhaust the budget, diff a rebuild instead.
        if was_tracked && self.erosion >= self.k {
            let before = self.skyline_rows();
            self.remove_row(pos, true);
            self.rebuild();
            return Ok(diff_ordered(&before, &self.skyline_rows()));
        }

        let x = self.rows[pos].clone();
        self.remove_row(pos, was_tracked);

        let mut delta = SkylineDelta::default();
        if in_skyline {
            delta.removed.push(x.clone());
        }
        // Decrement the tracked tuples that counted x: x strictly
        // dominates them, and x was tracked (hence counted at their
        // insert) or arrived after them (hence counted on arrival).
        self.band_outcomes(&x);
        for i in 0..self.band.len() {
            if self.not_dominated[i] {
                continue;
            }
            let p = self.band[i];
            if !(was_tracked || seq_x > self.seqs[p]) {
                continue;
            }
            let c = self.counts[p].expect("band member untracked");
            debug_assert!(c > 0, "decrementing a zero stated count");
            self.counts[p] = Some(c.saturating_sub(1));
            if c == 1 {
                // Promotion: the deleted point's shadow surfaces.
                delta.added.push(self.rows[p].clone());
            }
        }
        if was_tracked {
            self.erosion += 1;
        }
        Ok(delta)
    }

    /// Shared insert path (no hygiene check — used by the replay too).
    fn insert_internal(&mut self, row: Row) -> SkylineDelta {
        let mut delta = SkylineDelta::default();
        self.band_outcomes(&row);
        let dominators = self.not_dominator.iter().filter(|&&kept| !kept).count() as u32;
        for i in 0..self.band.len() {
            if self.not_dominated[i] {
                continue;
            }
            let p = self.band[i];
            let c = self.counts[p].expect("band member untracked");
            self.counts[p] = Some(c + 1);
            if c == 0 {
                delta.removed.push(self.rows[p].clone());
            }
        }
        let pos = self.rows.len();
        self.rows.push(row);
        self.seqs.push(self.next_seq);
        self.next_seq += 1;
        if dominators <= self.k {
            self.counts.push(Some(dominators));
            self.band.push(pos);
            self.block.push(&self.rows[pos]);
            if dominators == 0 {
                delta.added.push(self.rows[pos].clone());
            }
        } else {
            self.counts.push(None);
        }
        delta
    }

    /// Fill `not_dominated` and `not_dominator` for `candidate` against
    /// the band: one scan per direction when the block can hold the
    /// candidate, the scalar checker otherwise.
    fn band_outcomes(&mut self, candidate: &Row) {
        for flags in [&mut self.not_dominated, &mut self.not_dominator] {
            flags.clear();
            flags.resize(self.band.len(), true);
        }
        if !self.block.is_fallback() && self.block.encode_into(candidate, &mut self.cand) {
            let mut tests = WalkTests::default();
            (self.block).mark::<true>(&self.cand, 0, &mut self.not_dominated, &mut tests);
            (self.block).mark::<false>(&self.cand, 0, &mut self.not_dominator, &mut tests);
        } else {
            for (i, &p) in self.band.iter().enumerate() {
                match self.checker.compare(candidate, &self.rows[p]) {
                    Dominance::Dominates => self.not_dominated[i] = false,
                    Dominance::DominatedBy => self.not_dominator[i] = false,
                    Dominance::Equal | Dominance::Incomparable => {}
                }
            }
        }
    }

    /// Remove row `pos` from the mirror (and the band, when tracked),
    /// shifting later positions down by one.
    fn remove_row(&mut self, pos: usize, was_tracked: bool) {
        if was_tracked {
            let bi = self
                .band
                .binary_search(&pos)
                .expect("tracked row missing from band");
            self.band.remove(bi);
            self.block.remove(bi);
        }
        self.rows.remove(pos);
        self.seqs.remove(pos);
        self.counts.remove(pos);
        for b in &mut self.band {
            if *b > pos {
                *b -= 1;
            }
        }
    }

    /// Replay the live rows through the insert path: exact counts for a
    /// pure-insert history, erosion budget reset.
    fn rebuild(&mut self) {
        let rows = std::mem::take(&mut self.rows);
        self.seqs.clear();
        self.counts.clear();
        self.band.clear();
        self.block = ColumnarBlock::for_checker(&self.checker);
        self.erosion = 0;
        self.rebuilds += 1;
        for row in rows {
            self.insert_internal(row);
        }
    }
}

/// Order-preserving multiset diff between two skyline renderings (used
/// for the rebuild path, where per-tuple deltas are not tracked).
fn diff_ordered(before: &[Row], after: &[Row]) -> SkylineDelta {
    let mut used = vec![false; before.len()];
    let mut added = Vec::new();
    for row in after {
        match before
            .iter()
            .enumerate()
            .find(|(i, b)| !used[*i] && *b == row)
        {
            Some((i, _)) => used[i] = true,
            None => added.push(row.clone()),
        }
    }
    let removed = before
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(r, _)| r.clone())
        .collect();
    SkylineDelta { added, removed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{SkylineDim, Value};

    fn row2(a: i64, b: i64) -> Row {
        Row::new(vec![Value::Int64(a), Value::Int64(b)])
    }

    fn spec2() -> SkylineSpec {
        SkylineSpec {
            dims: vec![SkylineDim::min(0), SkylineDim::min(1)],
            distinct: false,
        }
    }

    fn recompute(spec: &SkylineSpec, rows: &[Row]) -> Vec<Row> {
        crate::naive_skyline(rows, &DominanceChecker::complete(spec.clone()))
    }

    #[test]
    fn insert_and_delete_track_the_front() {
        let mut m = MaintainedSkyline::new(spec2(), 2, &[]).unwrap();
        assert!(m.apply_insert(row2(5, 5)).added.len() == 1);
        // Dominated insert: no change.
        let d = m.apply_insert(row2(9, 9));
        assert!(d.is_empty());
        // Dominating insert: replaces (5,5) in the front.
        let d = m.apply_insert(row2(1, 1));
        assert_eq!(d.added, vec![row2(1, 1)]);
        assert_eq!(d.removed, vec![row2(5, 5)]);
        assert_eq!(m.skyline_rows(), vec![row2(1, 1)]);
        // Deleting (1,1) promotes its shadow (5,5).
        let d = m.apply_delete(2).unwrap();
        assert_eq!(d.removed, vec![row2(1, 1)]);
        assert_eq!(d.added, vec![row2(5, 5)]);
        assert_eq!(
            m.skyline_rows(),
            recompute(&spec2(), &[row2(5, 5), row2(9, 9)])
        );
    }

    #[test]
    fn erosion_budget_triggers_rebuild() {
        // k = 0: the very first tracked delete exhausts the budget.
        let rows: Vec<Row> = (0..20).map(|i| row2(i, 20 - i)).collect();
        let mut m = MaintainedSkyline::new(spec2(), 0, &rows).unwrap();
        let mut live = rows.clone();
        for _ in 0..10 {
            m.apply_delete(0).unwrap();
            live.remove(0);
            assert_eq!(m.skyline_rows(), recompute(&spec2(), &live));
        }
        assert!(m.rebuilds() > 0);
    }

    #[test]
    fn rejects_distinct_spec() {
        let spec = SkylineSpec {
            dims: vec![SkylineDim::min(0)],
            distinct: true,
        };
        assert!(MaintainedSkyline::new(spec, 4, &[]).is_err());
    }

    #[test]
    fn delete_out_of_bounds_is_an_error() {
        let mut m = MaintainedSkyline::new(spec2(), 4, &[row2(1, 1)]).unwrap();
        assert!(m.apply_delete(3).is_err());
    }

    #[test]
    fn duplicates_and_nulls_match_recompute() {
        let mut rows = vec![row2(3, 3), row2(3, 3), row2(1, 9)];
        rows.push(Row::new(vec![Value::Null, Value::Int64(0)]));
        let m = MaintainedSkyline::new(spec2(), 2, &rows).unwrap();
        assert_eq!(m.skyline_rows(), recompute(&spec2(), &rows));
    }
}
