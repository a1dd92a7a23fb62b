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
//!   the antichain [`cross_filter`] primitive the local batch fold and the
//!   global pairwise merge of both relations are built on.
//! * [`columnar`] — the struct-of-arrays dominance kernel: row windows are
//!   transposed into sign-normalized `i64`/`f64` column buffers once, and
//!   candidates are tested against the whole window in chunked or
//!   explicit-SIMD passes (AVX2, runtime-dispatched), one candidate at a
//!   time or [`columnar::MULTI_LANES`] at once; the batched BNL window, the
//!   incomplete family's class blocks, and the disk scan's dominance skip
//!   run on it.
//! * [`incomplete`] — null-bitmap partitioning, the per-class local
//!   skyline, and the all-pairs, deferred-deletion global skyline for
//!   incomplete data (§5.7 and Lemma 5.1), with the argument that the
//!   engine's pairwise cross-filter over class blocks computes the same
//!   rows in the same order (see the module docs).
//! * [`maintain`] — incremental skyline maintenance under INSERT/DELETE:
//!   a k-skyband of per-tuple dominator counts over the columnar kernel,
//!   applying each mutation as a delta and returning the skyline
//!   change-set (complete relations only — see the module docs for the
//!   erosion-budget soundness argument).
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

pub use bnl::{bnl_skyline, cross_filter, BnlBuilder, CrossFilterScratch};
pub use columnar::{
    kernel_label, BatchResult, ColumnarBlock, EncodedCandidate, KernelTier, MultiBatchResult,
    PointBlock, CANDIDATE_FIRST_CHUNK, CHUNK, MULTI_LANES,
};
pub use dominance::{Dominance, DominanceChecker, SkylineStats};
pub use incomplete::{
    incomplete_global_skyline, incomplete_skyline, null_bitmap, partition_by_null_bitmap,
    GroupedBnlBuilder,
};
pub use maintain::{MaintainedSkyline, SkylineDelta};
pub use naive::naive_skyline;
