//! Skyline physical-strategy selection.
//!
//! The paper's Listing 8 chooses between the complete and incomplete
//! algorithm from one bit of plan metadata (can a skyline dimension be
//! NULL?). This module generalizes that into a single, testable decision
//! point consumed by the physical planner: given the [`SessionConfig`] and
//! the [`SkylineMeta`] extracted from the plan, [`SkylinePlan::select`]
//! fixes the algorithm family, the local-phase partitioning scheme, and
//! the compare kernel. Keeping the decision here (rather than
//! inlined in the planner) lets the optimizer, the planner, and the
//! benchmark harness agree on one notion of "what will this query run".

use crate::config::{DominanceKernel, SessionConfig, SkylinePartitioning, SkylineStrategy};
use crate::skyline::SkylineSpec;
use crate::stats::DatasetStats;

/// Plan metadata the strategy decision needs, extracted from the logical
/// skyline node and its input schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkylineMeta {
    /// Whether any skyline dimension is nullable in the input schema.
    pub nullable: bool,
    /// Whether the user asserted `COMPLETE` (or the optimizer inferred it).
    pub declared_complete: bool,
    /// Number of ranked (`MIN`/`MAX`) dimensions.
    pub ranked_dims: usize,
}

impl SkylineMeta {
    /// Metadata for a resolved spec.
    pub fn new(spec: &SkylineSpec, nullable: bool, declared_complete: bool) -> Self {
        SkylineMeta {
            nullable,
            declared_complete,
            ranked_dims: spec.ranked_dims().count(),
        }
    }
}

/// The planner-facing outcome: which physical skyline plan to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkylinePlan {
    /// Complete-data algorithm family (two-phase BNL) vs the incomplete
    /// (null-bitmap + all-pairs) family.
    pub use_complete: bool,
    /// Whether a distributed local phase runs before the global phase.
    pub distributed: bool,
    /// Effective local-phase partitioning (downgraded to `Standard` where
    /// the scheme cannot apply: angles over fewer than two ranked
    /// dimensions).
    pub partitioning: SkylinePartitioning,
    /// The session's `dominance_kernel` selection: which compare tier the
    /// columnar batch kernel runs per operator (unrepresentable rows still
    /// fall back to the scalar checker tuple-by-tuple), or `Scalar` for
    /// the scalar checker throughout.
    pub kernel: DominanceKernel,
    /// Cap on the representative-point pre-filter broadcast before the
    /// local phase; `0` disables the filter (always `0` outside the
    /// distributed complete family — the incomplete relation is not
    /// transitive, so early discards are unsound there).
    pub prefilter_max_points: usize,
}

impl SkylinePlan {
    /// Listing 8, extended: select the physical plan shape from the
    /// session configuration and the skyline's plan metadata.
    pub fn select(config: &SessionConfig, meta: &SkylineMeta) -> Self {
        // Listing 8, line 2: the complete algorithm may be used when the
        // user asserted COMPLETE or no skyline dimension is nullable.
        // Forced strategies (the harness's algorithm series) override.
        let use_complete = match config.skyline_strategy {
            SkylineStrategy::Auto | SkylineStrategy::Adaptive => {
                meta.declared_complete || !meta.nullable
            }
            SkylineStrategy::DistributedComplete | SkylineStrategy::NonDistributedComplete => true,
            SkylineStrategy::DistributedIncomplete => false,
        };
        let distributed = !matches!(
            config.skyline_strategy,
            SkylineStrategy::NonDistributedComplete
        );

        // Partitioning only applies to the distributed complete local
        // phase; angles need at least two ranked dimensions to have any
        // structure, so below that the input distribution is kept.
        let partitioning = if !use_complete || !distributed || meta.ranked_dims < 2 {
            SkylinePartitioning::Standard
        } else {
            config.skyline_partitioning
        };

        SkylinePlan {
            use_complete,
            distributed,
            partitioning,
            // Semantics-preserving on every algorithm family (the kernel
            // falls back per tuple where it cannot represent the data),
            // so the knob passes through unconditionally.
            kernel: config.dominance_kernel,
            prefilter_max_points: 0,
        }
    }

    /// Statistics-driven selection for [`SkylineStrategy::Adaptive`]: the
    /// plan shape is [`Self::select`]'s — Listing 8's algorithm family,
    /// the configured partitioning, the pairwise merge — and, on the
    /// distributed **complete** family, the sampled [`DatasetStats`] budget
    /// the representative-point pre-filter (whose points also drive the
    /// disk scan's dominance skip), keyed on the sample's skyline fraction:
    /// trade-off-heavy data gets a quarter of the configured budget. Every
    /// other plan is [`Self::select`]'s unchanged: the pre-filter is
    /// unsound under the non-transitive incomplete relation.
    ///
    /// The choice is semantically neutral (the pre-filter only discards
    /// provably dominated tuples); the statistics steer cost only. The
    /// decision is a pure function of config + meta + stats, so repeated
    /// `EXPLAIN`s of one query agree.
    pub fn select_adaptive(
        config: &SessionConfig,
        meta: &SkylineMeta,
        stats: &DatasetStats,
    ) -> Self {
        let mut plan = SkylinePlan::select(config, meta);
        if plan.use_complete
            && plan.distributed
            && config.representative_prefilter
            && config.prefilter_max_points > 0
        {
            // Budget the filter by expected selectivity: on trade-off-heavy
            // data most tuples survive, so every tuple pays a scan over the
            // whole point set — a quarter of the budget keeps most of the
            // pruning at a quarter of the per-tuple cost.
            plan.prefilter_max_points = if stats.skyline_fraction >= 0.35 {
                (config.prefilter_max_points / 4).max(1)
            } else {
                config.prefilter_max_points
            };
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyline::SkylineDim;

    fn meta(ranked: usize, nullable: bool, complete: bool) -> SkylineMeta {
        let spec = SkylineSpec::new((0..ranked).map(SkylineDim::min).collect());
        SkylineMeta::new(&spec, nullable, complete)
    }

    #[test]
    fn listing_8_auto_selection() {
        let config = SessionConfig::default();
        assert!(SkylinePlan::select(&config, &meta(2, false, false)).use_complete);
        assert!(SkylinePlan::select(&config, &meta(2, true, true)).use_complete);
        assert!(!SkylinePlan::select(&config, &meta(2, true, false)).use_complete);
    }

    #[test]
    fn forced_strategies_override_metadata() {
        let inc =
            SessionConfig::default().with_skyline_strategy(SkylineStrategy::DistributedIncomplete);
        assert!(!SkylinePlan::select(&inc, &meta(2, false, true)).use_complete);
        let non_dist =
            SessionConfig::default().with_skyline_strategy(SkylineStrategy::NonDistributedComplete);
        let plan = SkylinePlan::select(&non_dist, &meta(2, true, false));
        assert!(plan.use_complete);
        assert!(!plan.distributed);
    }

    #[test]
    fn angle_degrades_below_two_ranked_dims() {
        let config =
            SessionConfig::default().with_skyline_partitioning(SkylinePartitioning::AngleBased);
        assert_eq!(
            SkylinePlan::select(&config, &meta(1, false, false)).partitioning,
            SkylinePartitioning::Standard
        );
        assert_eq!(
            SkylinePlan::select(&config, &meta(3, false, false)).partitioning,
            SkylinePartitioning::AngleBased
        );
    }

    #[test]
    fn partitioning_is_standard_outside_the_distributed_complete_path() {
        let angle =
            SessionConfig::default().with_skyline_partitioning(SkylinePartitioning::AngleBased);
        for strategy in [
            SkylineStrategy::DistributedIncomplete,
            SkylineStrategy::NonDistributedComplete,
        ] {
            let config = angle.clone().with_skyline_strategy(strategy);
            assert_eq!(
                SkylinePlan::select(&config, &meta(3, true, false)).partitioning,
                SkylinePartitioning::Standard,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn kernel_knob_passes_through() {
        let plan = SkylinePlan::select(&SessionConfig::default(), &meta(2, false, false));
        assert_eq!(plan.kernel, DominanceKernel::Auto);
        for kernel in [
            DominanceKernel::Auto,
            DominanceKernel::Chunked,
            DominanceKernel::Scalar,
        ] {
            let config = SessionConfig::default().with_dominance_kernel(kernel);
            for incomplete in [false, true] {
                let plan = SkylinePlan::select(&config, &meta(2, incomplete, false));
                assert_eq!(plan.kernel, kernel);
            }
        }
    }

    fn stats_with(correlation: f64, skyline_fraction: f64, sample_rows: usize) -> DatasetStats {
        DatasetStats {
            sample_rows,
            total_rows: sample_rows * 10,
            dims: 2,
            correlation,
            skyline_fraction,
        }
    }

    #[test]
    fn adaptive_complete_plan_shape_is_the_static_one() {
        // Whatever the sample says, the complete family's partitioning is
        // `select()`'s: the statistics only budget the pre-filter.
        for executors in [2usize, 8] {
            for scheme in [
                SkylinePartitioning::Standard,
                SkylinePartitioning::AngleBased,
            ] {
                let config = SessionConfig::default()
                    .with_executors(executors)
                    .with_skyline_partitioning(scheme)
                    .with_skyline_strategy(SkylineStrategy::Adaptive);
                for ranked in [1usize, 2, 8] {
                    let m = meta(ranked, false, false);
                    let fixed = SkylinePlan::select(&config, &m);
                    for (corr, frac) in [(0.8, 0.02), (-0.8, 0.6), (0.0, 0.25)] {
                        let plan =
                            SkylinePlan::select_adaptive(&config, &m, &stats_with(corr, frac, 500));
                        assert_eq!(plan.partitioning, fixed.partitioning, "{plan:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_prefilter_budget_follows_config() {
        let m = meta(2, false, false);
        let stats = stats_with(0.0, 0.1, 500);
        let on = SessionConfig::default().with_skyline_strategy(SkylineStrategy::Adaptive);
        assert_eq!(
            SkylinePlan::select_adaptive(&on, &m, &stats).prefilter_max_points,
            on.prefilter_max_points
        );
        let off = on.clone().with_representative_prefilter(false);
        assert_eq!(
            SkylinePlan::select_adaptive(&off, &m, &stats).prefilter_max_points,
            0
        );
        // Static plans never carry a pre-filter budget.
        assert_eq!(SkylinePlan::select(&on, &m).prefilter_max_points, 0);
    }

    #[test]
    fn adaptive_incomplete_keeps_partitioning_and_prefilter_fixed() {
        let config = SessionConfig::default()
            .with_executors(8)
            .with_skyline_strategy(SkylineStrategy::Adaptive);
        // Nullable, not declared complete: Listing 8 selects the
        // incomplete family; the statistics change nothing — partitioning
        // stays Standard and the pre-filter stays off (non-transitive
        // relation).
        let m = meta(2, true, false);
        let plan = SkylinePlan::select_adaptive(&config, &m, &stats_with(-0.9, 0.5, 500));
        assert!(!plan.use_complete);
        assert_eq!(plan.partitioning, SkylinePartitioning::Standard);
        assert_eq!(plan.prefilter_max_points, 0);
        assert_eq!(plan, SkylinePlan::select(&config, &m));
    }
}
