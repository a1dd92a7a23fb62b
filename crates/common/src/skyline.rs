//! Skyline vocabulary shared between the planner and the algorithms:
//! dimension types (`MIN`/`MAX`/`DIFF`), the resolved, physical
//! description of a skyline computation, and the per-query choice of
//! algorithm.

use std::fmt;

/// How a skyline dimension participates in dominance (paper §3, Def. 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkylineType {
    /// Smaller values are better (`D_min`).
    Min,
    /// Larger values are better (`D_max`).
    Max,
    /// Values must be equal for dominance to apply (`D_diff`); the skyline
    /// is computed separately per distinct value of this dimension.
    Diff,
}

impl SkylineType {
    /// The SQL keyword for this dimension type.
    pub fn keyword(self) -> &'static str {
        match self {
            SkylineType::Min => "MIN",
            SkylineType::Max => "MAX",
            SkylineType::Diff => "DIFF",
        }
    }
}

impl fmt::Display for SkylineType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A resolved skyline dimension: a column index into the operator's input
/// rows plus its dimension type. This is the form the physical skyline
/// operators and the pure algorithms in `sparkline-skyline` consume; the
/// logical plan carries unresolved expressions instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SkylineDim {
    /// Column position in the input row.
    pub index: usize,
    /// MIN / MAX / DIFF.
    pub ty: SkylineType,
}

impl SkylineDim {
    /// Shorthand constructor.
    pub fn new(index: usize, ty: SkylineType) -> Self {
        SkylineDim { index, ty }
    }

    /// A `MIN` dimension on column `index`.
    pub fn min(index: usize) -> Self {
        SkylineDim::new(index, SkylineType::Min)
    }

    /// A `MAX` dimension on column `index`.
    pub fn max(index: usize) -> Self {
        SkylineDim::new(index, SkylineType::Max)
    }

    /// A `DIFF` dimension on column `index`.
    pub fn diff(index: usize) -> Self {
        SkylineDim::new(index, SkylineType::Diff)
    }
}

/// The complete, resolved description of a skyline computation over rows.
///
/// `distinct` mirrors the `SKYLINE OF DISTINCT` modifier: when set, out of
/// several tuples with identical values in *all* skyline dimensions only one
/// (arbitrary) representative is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkylineSpec {
    /// The dimensions, in user-declared order (the order has no semantic
    /// effect but determines comparison order, paper §5.1).
    pub dims: Vec<SkylineDim>,
    /// `SKYLINE OF DISTINCT ...`
    pub distinct: bool,
}

impl SkylineSpec {
    /// Spec without `DISTINCT`.
    pub fn new(dims: Vec<SkylineDim>) -> Self {
        SkylineSpec {
            dims,
            distinct: false,
        }
    }

    /// Spec with `DISTINCT`.
    pub fn distinct(dims: Vec<SkylineDim>) -> Self {
        SkylineSpec {
            dims,
            distinct: true,
        }
    }

    /// Indices of the DIFF dimensions.
    pub fn diff_dims(&self) -> impl Iterator<Item = &SkylineDim> {
        self.dims.iter().filter(|d| d.ty == SkylineType::Diff)
    }

    /// Column indices of all dimensions, in declaration order.
    pub fn columns(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.index).collect()
    }
}

/// Which of the paper's four evaluated algorithms executes the skyline
/// operators of a query (§6.3), chosen per query. `Auto` applies
/// Listing 8's selection; the others each force one algorithm, which is
/// how the benchmark harness produces the paper's comparison series.
/// Whichever choice plans the complete family also gets the disk
/// dominance gate when its input is a disk table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Listing 8: the complete algorithm when `COMPLETE` is declared or no
    /// skyline dimension is nullable, otherwise the incomplete one.
    #[default]
    Auto,
    /// Algorithm (1), "distributed complete": local skylines on the
    /// input's own partitions, merged pairwise over the executor pool
    /// where the paper gathers them onto one executor (same rows, same
    /// order). Only valid on complete data.
    DistributedComplete,
    /// Algorithm (2), "non-distributed complete": no local phase; one
    /// executor computes the skyline over the gathered input. Only valid
    /// on complete data.
    NonDistributedComplete,
    /// Algorithm (3), "distributed incomplete": local skylines per
    /// null-bitmap class of each scan partition, then the all-pairs
    /// flagged global skyline, computed as the pairwise merge of the class
    /// blocks (same rows, same order). Valid on any data.
    DistributedIncomplete,
    /// Algorithm (4), "reference": the plain-SQL rewrite of Listing 4,
    /// applied before optimization; it leaves no skyline operator.
    Reference,
}

impl Algorithm {
    /// The paper's chart label.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::DistributedComplete => "distributed complete",
            Algorithm::NonDistributedComplete => "non-distributed complete",
            Algorithm::DistributedIncomplete => "distributed incomplete",
            Algorithm::Reference => "reference",
        }
    }

    /// All four evaluated algorithms, in the paper's chart order.
    pub fn paper_algorithms() -> [Algorithm; 4] {
        [
            Algorithm::DistributedComplete,
            Algorithm::NonDistributedComplete,
            Algorithm::DistributedIncomplete,
            Algorithm::Reference,
        ]
    }

    /// The algorithms applicable to incomplete datasets (§6.3: "for
    /// incomplete datasets, the complete algorithms are not applicable").
    pub fn incomplete_algorithms() -> [Algorithm; 2] {
        [Algorithm::DistributedIncomplete, Algorithm::Reference]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords() {
        assert_eq!(SkylineType::Min.to_string(), "MIN");
        assert_eq!(SkylineType::Max.to_string(), "MAX");
        assert_eq!(SkylineType::Diff.to_string(), "DIFF");
    }

    #[test]
    fn spec_partitions_dim_kinds() {
        let spec = SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::max(2),
            SkylineDim::diff(1),
        ]);
        assert_eq!(spec.diff_dims().count(), 1);
        assert_eq!(spec.columns(), vec![0, 2, 1]);
        assert!(!spec.distinct);
        assert!(SkylineSpec::distinct(vec![]).distinct);
    }
}
