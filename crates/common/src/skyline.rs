//! Skyline vocabulary shared between the planner and the algorithms:
//! dimension types (`MIN`/`MAX`/`DIFF`) and the resolved, physical
//! description of a skyline computation.

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
