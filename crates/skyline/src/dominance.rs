//! Tuple dominance testing (paper Definition 3.1 and its incomplete-data
//! modification from §3).

use std::cmp::Ordering;

use sparkline_common::{Row, SkylineSpec, SkylineType, Value};

/// Outcome of comparing two tuples on the skyline dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// The left tuple dominates the right one (`l ≺ r`).
    Dominates,
    /// The right tuple dominates the left one (`r ≺ l`).
    DominatedBy,
    /// All *compared* dimensions are pairwise equal — neither tuple is
    /// strictly better. Relevant for `SKYLINE OF DISTINCT` handling.
    Equal,
    /// Neither tuple dominates the other.
    Incomparable,
}

/// Counters recorded while running a skyline algorithm. The paper uses the
/// number of dominance tests as the main cost factor of skyline
/// computation (§2); the benchmark harness reports them alongside time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkylineStats {
    /// Number of pairwise dominance tests performed. The scalar checker
    /// counts each pair it compares; the columnar kernel counts the rows
    /// its loops reach — whole 64-row chunks (the first one smaller) in
    /// the per-row step, the rows up to the 4-row step holding the
    /// dominator (or up to the key bound) in the first-dominator walk, and
    /// every row from its start to the block's end in an eviction scan —
    /// so per candidate a kernel count exceeds the pairs the scalar loop
    /// would compare by less than a chunk in the per-row step and by at
    /// most three rows in the walk.
    pub dominance_tests: u64,
    /// Largest window (complete BNL) or candidate set (incomplete global)
    /// observed, in tuples.
    pub max_window: usize,
    /// Dominance tests answered by the columnar batch kernel
    /// (`columnar::ColumnarBlock`). Always `<= dominance_tests`.
    pub batched_tests: u64,
    /// Dominance tests answered by the scalar [`DominanceChecker`] —
    /// either because the scalar path was selected or because the columnar
    /// kernel fell back. Always `<= dominance_tests`.
    pub scalar_tests: u64,
    /// Dominance tests answered on an explicit-SIMD compare tier. Always
    /// `<= batched_tests` (SIMD tests are batched tests).
    pub simd_tests: u64,
    /// First-dominator walks performed
    /// (`columnar::ColumnarBlock::first_dominator`): one per candidate a
    /// cross-filter tests against a live block — the batch fold's step 1
    /// and step 2, the pairwise merge, the disk scan's dominance gate.
    pub dominator_walks: u64,
    /// Eviction scans performed (`columnar::ColumnarBlock::mark_dominated`)
    /// in step 3 of the BNL batch fold (`crate::bnl`): one per row of a
    /// batch's survivor skyline that has window rows to scan (a NULL-like
    /// row scans none).
    pub eviction_scans: u64,
}

impl SkylineStats {
    /// Merge another stats record into this one (used when combining the
    /// per-partition statistics of the distributed local phase).
    pub fn merge(&mut self, other: &SkylineStats) {
        self.dominance_tests += other.dominance_tests;
        self.max_window = self.max_window.max(other.max_window);
        self.batched_tests += other.batched_tests;
        self.scalar_tests += other.scalar_tests;
        self.simd_tests += other.simd_tests;
        self.dominator_walks += other.dominator_walks;
        self.eviction_scans += other.eviction_scans;
    }

    /// Record `n` dominance tests performed by the columnar batch kernel,
    /// attributing them to the SIMD counter when the block's tier is a
    /// SIMD one.
    pub fn add_block_tests(&mut self, n: u64, simd: bool) {
        self.dominance_tests += n;
        self.batched_tests += n;
        if simd {
            self.simd_tests += n;
        }
    }

    /// Record one first-dominator walk of `tested` pairwise tests.
    pub fn add_walk(&mut self, tested: u64, simd: bool) {
        self.add_block_tests(tested, simd);
        self.dominator_walks += 1;
    }

    /// Record one eviction scan that passed `tested` rows.
    pub fn add_scan(&mut self, tested: u64, simd: bool) {
        self.add_block_tests(tested, simd);
        self.eviction_scans += 1;
    }

    /// Record one dominance test performed by the scalar checker.
    pub fn add_scalar(&mut self) {
        self.dominance_tests += 1;
        self.scalar_tests += 1;
    }
}

/// The dominance test of Definition 3.1, resolved against row positions.
///
/// The checker is constructed once per skyline operator and then applied to
/// every pair of tuples; it mirrors the paper's "new utility … which takes
/// as input the values and types of the skyline dimensions of two tuples
/// and checks if one tuple dominates the other" (§5.5). Comparisons match
/// on the value's type directly (no casting of column data).
///
/// With `incomplete` set, the comparison of two tuples is restricted to the
/// dimensions where **both** are non-NULL, which is the modified dominance
/// relation for incomplete data (§3). Note that this relation is *not*
/// transitive and admits cycles, so algorithms must not delete dominated
/// tuples prematurely (Appendix A).
#[derive(Debug, Clone)]
pub struct DominanceChecker {
    spec: SkylineSpec,
    incomplete: bool,
}

impl DominanceChecker {
    /// Checker using the complete-data dominance relation.
    pub fn complete(spec: SkylineSpec) -> Self {
        DominanceChecker {
            spec,
            incomplete: false,
        }
    }

    /// Checker using the incomplete-data (NULL-restricted) relation.
    pub fn incomplete(spec: SkylineSpec) -> Self {
        DominanceChecker {
            spec,
            incomplete: true,
        }
    }

    /// The skyline specification this checker implements.
    pub fn spec(&self) -> &SkylineSpec {
        &self.spec
    }

    /// Whether `SKYLINE OF DISTINCT` deduplication is requested.
    pub fn distinct(&self) -> bool {
        self.spec.distinct
    }

    /// Whether the incomplete-data relation is in effect.
    pub fn is_incomplete(&self) -> bool {
        self.incomplete
    }

    /// Compare tuples `a` and `b` on the skyline dimensions.
    pub fn compare(&self, a: &Row, b: &Row) -> Dominance {
        let mut a_better = false;
        let mut b_better = false;
        for dim in &self.spec.dims {
            let (va, vb) = (a.get(dim.index), b.get(dim.index));
            match va.sql_compare(vb) {
                None => {
                    if self.incomplete {
                        // At least one side is NULL: the comparison is
                        // restricted to dimensions where both are non-NULL,
                        // so this dimension is skipped entirely.
                        continue;
                    }
                    // Complete-data relation with a NULL (or incomparable
                    // types, which the analyzer rules out): the tuples are
                    // incomparable. This is the safe answer — it can only
                    // enlarge the skyline, never drop a valid tuple.
                    return Dominance::Incomparable;
                }
                Some(Ordering::Equal) => {}
                Some(ord) => match dim.ty {
                    SkylineType::Diff => return Dominance::Incomparable,
                    SkylineType::Min => {
                        if ord == Ordering::Less {
                            a_better = true;
                        } else {
                            b_better = true;
                        }
                    }
                    SkylineType::Max => {
                        if ord == Ordering::Greater {
                            a_better = true;
                        } else {
                            b_better = true;
                        }
                    }
                },
            }
            if a_better && b_better {
                return Dominance::Incomparable;
            }
        }
        match (a_better, b_better) {
            (true, false) => Dominance::Dominates,
            (false, true) => Dominance::DominatedBy,
            (false, false) => Dominance::Equal,
            (true, true) => unreachable!("early return above"),
        }
    }

    /// `a ≺ b` under this checker's relation.
    pub fn dominates(&self, a: &Row, b: &Row) -> bool {
        self.compare(a, b) == Dominance::Dominates
    }

    /// Whether the two tuples have *identical* values in every skyline
    /// dimension (NULL counts as identical to NULL). This — not
    /// [`Dominance::Equal`], which only looks at the compared dimensions —
    /// is the condition under which `SKYLINE OF DISTINCT` keeps a single
    /// representative.
    pub fn identical_dims(&self, a: &Row, b: &Row) -> bool {
        self.spec
            .dims
            .iter()
            .all(|d| a.get(d.index) == b.get(d.index))
    }

    /// The grouping key for `DISTINCT` deduplication: the values of all
    /// skyline dimensions.
    pub fn dim_values(&self, row: &Row) -> Vec<Value> {
        self.spec
            .dims
            .iter()
            .map(|d| row.get(d.index).clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::SkylineDim;

    fn row(vals: &[Option<i64>]) -> Row {
        Row::new(
            vals.iter()
                .map(|v| v.map(Value::Int64).unwrap_or(Value::Null))
                .collect(),
        )
    }

    fn min_min() -> DominanceChecker {
        DominanceChecker::complete(SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
        ]))
    }

    #[test]
    fn strictly_better_in_one_at_least_as_good_elsewhere() {
        let c = min_min();
        let a = row(&[Some(1), Some(2)]);
        let b = row(&[Some(1), Some(3)]);
        assert_eq!(c.compare(&a, &b), Dominance::Dominates);
        assert_eq!(c.compare(&b, &a), Dominance::DominatedBy);
        assert!(c.dominates(&a, &b));
        assert!(!c.dominates(&b, &a));
    }

    #[test]
    fn trade_off_is_incomparable() {
        let c = min_min();
        let a = row(&[Some(1), Some(5)]);
        let b = row(&[Some(2), Some(3)]);
        assert_eq!(c.compare(&a, &b), Dominance::Incomparable);
    }

    #[test]
    fn equal_tuples() {
        let c = min_min();
        let a = row(&[Some(1), Some(2)]);
        assert_eq!(c.compare(&a, &a.clone()), Dominance::Equal);
        assert!(c.identical_dims(&a, &a.clone()));
    }

    #[test]
    fn max_direction() {
        let c = DominanceChecker::complete(SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::max(1),
        ]));
        // Cheaper and better rated dominates.
        let a = row(&[Some(50), Some(9)]);
        let b = row(&[Some(80), Some(7)]);
        assert_eq!(c.compare(&a, &b), Dominance::Dominates);
    }

    #[test]
    fn diff_dimension_partitions_comparability() {
        let c = DominanceChecker::complete(SkylineSpec::new(vec![
            SkylineDim::diff(0),
            SkylineDim::min(1),
        ]));
        let a = row(&[Some(1), Some(10)]);
        let b = row(&[Some(1), Some(20)]);
        let other_group = row(&[Some(2), Some(99)]);
        assert_eq!(c.compare(&a, &b), Dominance::Dominates);
        assert_eq!(c.compare(&a, &other_group), Dominance::Incomparable);
        assert_eq!(c.compare(&other_group, &b), Dominance::Incomparable);
    }

    #[test]
    fn complete_checker_treats_null_as_incomparable() {
        let c = min_min();
        let a = row(&[Some(1), None]);
        let b = row(&[Some(2), Some(3)]);
        assert_eq!(c.compare(&a, &b), Dominance::Incomparable);
    }

    #[test]
    fn incomplete_restricts_to_shared_non_null_dims() {
        let c = DominanceChecker::incomplete(SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
            SkylineDim::min(2),
        ]));
        // Paper §3 example: a=(1,*,10), b=(3,2,*), c=(*,5,3) forms a cycle.
        let a = row(&[Some(1), None, Some(10)]);
        let b = row(&[Some(3), Some(2), None]);
        let cc = row(&[None, Some(5), Some(3)]);
        assert_eq!(c.compare(&a, &b), Dominance::Dominates); // 1 < 3 on dim 0
        assert_eq!(c.compare(&b, &cc), Dominance::Dominates); // 2 < 5 on dim 1
        assert_eq!(c.compare(&cc, &a), Dominance::Dominates); // 3 < 10 on dim 2
        assert_eq!(c.compare(&a, &cc), Dominance::DominatedBy);
    }

    #[test]
    fn incomplete_no_shared_dims_is_equal_not_dominated() {
        let c = DominanceChecker::incomplete(SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
        ]));
        let a = row(&[Some(1), None]);
        let b = row(&[None, Some(1)]);
        // No dimension where both are non-NULL: restricted comparison is
        // vacuous, neither is strictly better anywhere.
        assert_eq!(c.compare(&a, &b), Dominance::Equal);
        assert!(!c.dominates(&a, &b));
        assert!(!c.dominates(&b, &a));
        // But the tuples are not identical for DISTINCT purposes.
        assert!(!c.identical_dims(&a, &b));
    }

    #[test]
    fn incomplete_diff_dim_restricted() {
        let c = DominanceChecker::incomplete(SkylineSpec::new(vec![
            SkylineDim::diff(0),
            SkylineDim::min(1),
        ]));
        // DIFF dim is NULL on one side: restriction skips it, dominance can
        // still arise from dim 1.
        let a = row(&[None, Some(1)]);
        let b = row(&[Some(7), Some(2)]);
        assert_eq!(c.compare(&a, &b), Dominance::Dominates);
        // DIFF dim present on both sides and different: incomparable.
        let a2 = row(&[Some(5), Some(1)]);
        assert_eq!(c.compare(&a2, &b), Dominance::Incomparable);
    }

    #[test]
    fn identical_dims_with_nulls() {
        let c = min_min();
        let a = row(&[Some(1), None]);
        let b = row(&[Some(1), None]);
        assert!(c.identical_dims(&a, &b));
        assert_eq!(c.dim_values(&a), vec![Value::Int64(1), Value::Null]);
    }

    #[test]
    fn dimension_order_does_not_change_outcome() {
        let fwd = DominanceChecker::complete(SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::max(1),
        ]));
        let rev = DominanceChecker::complete(SkylineSpec::new(vec![
            SkylineDim::max(1),
            SkylineDim::min(0),
        ]));
        let a = row(&[Some(1), Some(5)]);
        let b = row(&[Some(2), Some(5)]);
        assert_eq!(fwd.compare(&a, &b), rev.compare(&a, &b));
    }

    #[test]
    fn mixed_int_float_dimensions() {
        let c = DominanceChecker::complete(SkylineSpec::new(vec![SkylineDim::min(0)]));
        let a = Row::new(vec![Value::Float64(1.5)]);
        let b = Row::new(vec![Value::Int64(2)]);
        assert_eq!(c.compare(&a, &b), Dominance::Dominates);
    }

    #[test]
    fn stats_merge() {
        let mut a = SkylineStats {
            dominance_tests: 10,
            max_window: 4,
            batched_tests: 6,
            scalar_tests: 4,
            simd_tests: 3,
            dominator_walks: 2,
            eviction_scans: 4,
        };
        let b = SkylineStats {
            dominance_tests: 5,
            max_window: 9,
            batched_tests: 0,
            scalar_tests: 5,
            simd_tests: 0,
            dominator_walks: 1,
            eviction_scans: 1,
        };
        a.merge(&b);
        assert_eq!(a.dominance_tests, 15);
        assert_eq!(a.max_window, 9);
        assert_eq!(a.batched_tests, 6);
        assert_eq!(a.scalar_tests, 9);
        assert_eq!(a.simd_tests, 3);
        assert_eq!(a.dominator_walks, 3);
        assert_eq!(a.eviction_scans, 5);
    }

    #[test]
    fn stats_kernel_helpers() {
        let mut s = SkylineStats::default();
        s.add_block_tests(10, false);
        assert_eq!(
            (s.dominance_tests, s.batched_tests, s.simd_tests),
            (10, 10, 0)
        );
        s.add_block_tests(5, true);
        assert_eq!(
            (s.dominance_tests, s.batched_tests, s.simd_tests),
            (15, 15, 5)
        );
        s.add_walk(64, true);
        assert_eq!(s.dominator_walks, 1);
        assert_eq!(s.simd_tests, 69);
        assert_eq!(s.dominance_tests, 79);
        s.add_scan(100, false);
        assert_eq!(s.eviction_scans, 1);
        assert_eq!(s.dominator_walks, 1);
        assert_eq!((s.dominance_tests, s.simd_tests), (179, 69));
    }
}
