#![warn(missing_docs)]

//! # sparkline-skyline
//!
//! Engine-independent skyline (Pareto-front) algorithms, implemented
//! directly from *"Integration of Skyline Queries into Spark SQL"*
//! (EDBT 2023):
//!
//! * [`dominance`] — the tuple dominance test of Definition 3.1, in both
//!   the complete and the incomplete (NULL-aware) variant, with
//!   type-matched comparisons.
//! * [`bnl`] — the Block-Nested-Loop skyline algorithm of Börzsönyi et
//!   al. used for local and global skylines on complete data (§5.6), and
//!   the antichain [`cross_filter`] primitive both phases of the
//!   transitive family are built on (the local batch fold, the global
//!   pairwise merge).
//! * [`columnar`] — the struct-of-arrays dominance kernel: row windows are
//!   transposed into sign-normalized `i64`/`f64` column buffers once, and
//!   candidates are tested against the whole window in chunked or
//!   explicit-SIMD passes (AVX2/SSE2, runtime-dispatched), one candidate
//!   at a time or [`columnar::MULTI_LANES`] at once; the batched BNL/SFS
//!   variants, the pre-filter, the incomplete family's class blocks, and
//!   the grid partitioner's corner pruning run on it.
//! * [`incomplete`] — null-bitmap partitioning and the all-pairs,
//!   deferred-deletion global skyline for incomplete data (§5.7 and
//!   Lemma 5.1); the mergeable bitmap-class-aware partial results that
//!   turn that global phase into a hierarchical tree merge (see the
//!   module docs for the soundness argument); plus the intentionally
//!   faulty premature-deletion variant of Appendix A used to demonstrate
//!   the cyclic-dominance pitfall.
//! * [`maintain`] — incremental skyline maintenance under INSERT/DELETE:
//!   a k-skyband of per-tuple dominator counts over the columnar kernel,
//!   applying each mutation as a delta and returning the skyline
//!   change-set (complete relations only — see the module docs for the
//!   erosion-budget soundness argument).
//! * [`prefilter`] — representative-point pre-filtering (Ciaccia &
//!   Martinenghi): the skyline of a seeded input sample, encoded once into
//!   the columnar kernel, discards strictly dominated tuples during the
//!   scan before they reach any BNL window (complete data only — see the
//!   module docs for the soundness argument).
//! * [`naive`] — an O(n²) oracle straight from Definition 3.2, used by the
//!   test suites as ground truth.
//!
//! All algorithms operate on plain [`sparkline_common::Row`]s and a
//! resolved [`sparkline_common::SkylineSpec`]; the physical operators in
//! `sparkline-physical` wire them into the distributed runtime.

pub mod bnl;
pub mod columnar;
pub mod dominance;
pub mod incomplete;
pub mod maintain;
pub mod naive;
pub mod prefilter;
pub mod sfs;

pub use bnl::{
    bnl_skyline, bnl_skyline_batched, bnl_skyline_kernel, cross_filter, BnlBuilder,
    CrossFilterScratch,
};
pub use columnar::{
    kernel_label, BatchResult, ColumnarBlock, EncodedCandidate, KernelTier, MultiBatchResult,
    PointBlock, CANDIDATE_FIRST_CHUNK, CHUNK, MULTI_LANES,
};
pub use dominance::{Dominance, DominanceChecker, SkylineStats};
pub use incomplete::{
    incomplete_global_skyline, incomplete_skyline, merge_incomplete_partials,
    merge_incomplete_partials_kernel, null_bitmap, partition_by_null_bitmap,
    premature_deletion_global_skyline, GroupedBnlBuilder, IncompletePartial,
    IncompletePartialBuilder,
};
pub use maintain::{MaintainedSkyline, SkylineDelta};
pub use naive::naive_skyline;
pub use prefilter::{representative_points, RepresentativeFilter};
pub use sfs::{monotone_score, sfs_skyline, sfs_skyline_batched, sfs_skyline_kernel};
