//! Skyline physical-strategy selection.
//!
//! The paper's Listing 8 chooses between the complete and incomplete
//! algorithm from one bit of plan metadata (can a skyline dimension be
//! NULL?). This module generalizes that into a single, testable decision
//! point consumed by the physical planner: given the [`SessionConfig`] and
//! the [`SkylineMeta`] extracted from the plan, [`SkylinePlan::select`]
//! fixes the algorithm family, the local-phase partitioning scheme, and
//! the global merge strategy. Keeping the decision here (rather than
//! inlined in the planner) lets the optimizer, the planner, and the
//! benchmark harness agree on one notion of "what will this query run".

use crate::config::{
    DominanceKernel, MergeStrategy, SessionConfig, SkylinePartitioning, SkylineStrategy,
};
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
    /// Complete-data algorithm family (two-phase BNL / SFS) vs the
    /// incomplete (null-bitmap + all-pairs) family.
    pub use_complete: bool,
    /// Whether a distributed local phase runs before the global phase.
    pub distributed: bool,
    /// Sort-Filter-Skyline windows instead of BNL windows.
    pub use_sfs: bool,
    /// Effective local-phase partitioning (downgraded where the scheme
    /// cannot apply, e.g. a grid over fewer than two ranked dimensions).
    pub partitioning: SkylinePartitioning,
    /// Global merge strategy for the complete-data family.
    pub merge: MergeStrategy,
    /// The session's `dominance_kernel` selection: which compare tier the
    /// columnar batch kernel runs per operator (unrepresentable rows still
    /// fall back to the scalar checker tuple-by-tuple), or `Scalar` for
    /// the scalar checker throughout.
    pub kernel: DominanceKernel,
    /// Buckets per dimension for the grid partitioner (adaptive plans size
    /// this from the statistics; static plans copy the config knob).
    pub grid_cells_per_dim: usize,
    /// Cap on the representative-point pre-filter broadcast before the
    /// local phase; `0` disables the filter (always `0` outside the
    /// distributed complete family — the incomplete relation is not
    /// transitive, so early discards are unsound there).
    pub prefilter_max_points: usize,
    /// Whether dataset statistics drove this plan (the `Adaptive`
    /// strategy with a usable sample).
    pub adaptive: bool,
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
            SkylineStrategy::DistributedComplete
            | SkylineStrategy::NonDistributedComplete
            | SkylineStrategy::SortFilterSkyline => true,
            SkylineStrategy::DistributedIncomplete => false,
        };
        let distributed = !matches!(
            config.skyline_strategy,
            SkylineStrategy::NonDistributedComplete
        );
        let use_sfs = matches!(config.skyline_strategy, SkylineStrategy::SortFilterSkyline);

        // Partitioning only applies to the distributed complete local
        // phase; angle and grid need at least two ranked dimensions to
        // have any structure and degrade to an even split below that.
        let partitioning = if !use_complete || !distributed {
            SkylinePartitioning::Standard
        } else {
            match config.skyline_partitioning {
                SkylinePartitioning::AngleBased | SkylinePartitioning::Grid
                    if meta.ranked_dims < 2 =>
                {
                    SkylinePartitioning::Even
                }
                p => p,
            }
        };

        // The hierarchical merge replaces the flat one-round merge (the
        // complete BNL family's pairwise merge; elsewhere the paper's
        // single-executor `AllTuples` phase) once enough partitions exist
        // for tree rounds to pay off; tiny pools keep the flat plan. The
        // incomplete family joins in via its deferred-deletion partial
        // merge (`sparkline_skyline::incomplete`) unless the
        // `incomplete_tree_merge` knob pins it to the paper's flat plan.
        let merge = if distributed
            && config.num_executors >= config.hierarchical_merge_min_partitions
            && (use_complete || config.incomplete_tree_merge)
        {
            MergeStrategy::Hierarchical {
                fan_in: config.merge_fan_in.max(2),
            }
        } else {
            MergeStrategy::Flat
        };

        SkylinePlan {
            use_complete,
            distributed,
            use_sfs,
            partitioning,
            merge,
            // Semantics-preserving on every algorithm family (the kernel
            // falls back per tuple where it cannot represent the data),
            // so the knob passes through unconditionally.
            kernel: config.dominance_kernel,
            grid_cells_per_dim: config.grid_cells_per_dim,
            prefilter_max_points: 0,
            adaptive: false,
        }
    }

    /// Statistics-driven selection for [`SkylineStrategy::Adaptive`]: the
    /// algorithm family still follows Listing 8 (via [`Self::select`]),
    /// but the partitioning scheme, merge strategy, grid granularity, and
    /// pre-filter budget are derived from the sampled [`DatasetStats`]
    /// instead of the static config knobs.
    ///
    /// The heuristics encode the shape of the paper's §6 results and the
    /// partitioning experiments (`ext1`), keyed on the sample's skyline
    /// fraction (the direct dominance-selectivity predictor) with the
    /// Spearman estimate as a secondary trade-off signal:
    ///
    /// * **dominance-heavy** data (small skyline fraction, non-negative
    ///   correlation, ≤ 3 ranked dims) → **grid** partitioning: most
    ///   cells are provably dominated and pruned before any local phase;
    /// * **trade-off-heavy** data (large skyline fraction or clearly
    ///   negative correlation, ≤ 3 ranked dims) → **angle-based**
    ///   partitioning: rows on the same trade-off must compete in one
    ///   partition for the local phase to prune anything;
    /// * everything else (independent data, > 3 ranked dims where neither
    ///   grid corners nor 2-d angles capture the structure) → **even**
    ///   split for balance;
    /// * the **hierarchical merge** engages only when enough executors
    ///   exist *and* the skyline fraction is large — a dominance-heavy
    ///   dataset's global phase is too small to amortize tree rounds;
    /// * the **grid granularity** targets a bounded cell count per
    ///   executor instead of the fixed `grid_cells_per_dim`.
    ///
    /// Every choice is semantically neutral (any partitioning of complete
    /// data is sound, the merge strategies agree, the pre-filter only
    /// discards provably dominated tuples); the statistics steer cost
    /// only. The decision is a pure function of config + meta + stats, so
    /// repeated `EXPLAIN`s of one query agree.
    pub fn select_adaptive(
        config: &SessionConfig,
        meta: &SkylineMeta,
        stats: &DatasetStats,
    ) -> Self {
        let mut plan = SkylinePlan::select(config, meta);
        if !plan.use_complete || !plan.distributed {
            // Incomplete family (or no local phase): partitioning is fixed
            // by the null-bitmap exchange and the pre-filter is unsound
            // under the non-transitive relation — but the per-dimension
            // NULL fractions still steer the *global merge*. A sample
            // without NULLs means a single bitmap class: the local phase
            // degenerates to one partition, the global phase receives one
            // already-merged skyline, and tree rounds would only add plan
            // churn — the merge is refused (flat). NULL-bearing samples
            // spread candidates over several classes and partitions, where
            // the deferred-deletion tree merge parallelizes the §5.7
            // all-pairs phase.
            if !plan.use_complete && plan.distributed {
                plan.adaptive = true;
                let null_frac = stats.max_null_fraction();
                plan.merge = if config.incomplete_tree_merge
                    && config.num_executors >= config.hierarchical_merge_min_partitions
                    && null_frac > 0.0
                {
                    MergeStrategy::Hierarchical {
                        fan_in: (config.num_executors / 2).clamp(2, config.merge_fan_in.max(2)),
                    }
                } else {
                    MergeStrategy::Flat
                };
            }
            return plan;
        }
        plan.adaptive = true;
        let corr = stats.correlation;
        let frac = stats.skyline_fraction;
        plan.partitioning = if meta.ranked_dims < 2 || meta.ranked_dims > 3 {
            SkylinePartitioning::Even
        } else if frac >= 0.35 || corr <= -0.25 {
            SkylinePartitioning::AngleBased
        } else if frac <= 0.15 && corr >= 0.0 {
            SkylinePartitioning::Grid
        } else {
            SkylinePartitioning::Even
        };
        // Grid granularity: aim for ~8 cells per executor (enough for the
        // LPT packing to balance) but never a finer grid than the sample
        // can populate.
        if plan.partitioning == SkylinePartitioning::Grid {
            let g = meta.ranked_dims.min(3) as f64;
            let target = (config.num_executors * 8).max(16) as f64;
            let by_executors = target.powf(1.0 / g).round() as usize;
            let by_sample = (stats.sample_rows.max(1) as f64).powf(1.0 / g) as usize;
            plan.grid_cells_per_dim = by_executors.min(by_sample.max(2)).clamp(2, 16);
        }
        // Merge: tree rounds pay off when the local skylines gathered into
        // the global phase are large (trade-off-heavy data); tiny
        // skylines keep the flat one-round merge.
        plan.merge =
            if config.num_executors >= config.hierarchical_merge_min_partitions && frac >= 0.15 {
                MergeStrategy::Hierarchical {
                    fan_in: (config.num_executors / 2).clamp(2, config.merge_fan_in.max(2)),
                }
            } else {
                MergeStrategy::Flat
            };
        if config.representative_prefilter && config.prefilter_max_points > 0 {
            // Budget the filter by expected selectivity: on trade-off-heavy
            // data most tuples survive, so every tuple pays a scan over the
            // whole point set — a quarter of the budget keeps most of the
            // pruning at a quarter of the per-tuple cost.
            plan.prefilter_max_points = if frac >= 0.35 {
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
        assert_eq!(plan.merge, MergeStrategy::Flat);
    }

    #[test]
    fn grid_and_angle_degrade_below_two_ranked_dims() {
        let config = SessionConfig::default().with_skyline_partitioning(SkylinePartitioning::Grid);
        assert_eq!(
            SkylinePlan::select(&config, &meta(1, false, false)).partitioning,
            SkylinePartitioning::Even
        );
        assert_eq!(
            SkylinePlan::select(&config, &meta(3, false, false)).partitioning,
            SkylinePartitioning::Grid
        );
    }

    #[test]
    fn partitioning_is_standard_outside_the_distributed_complete_path() {
        let config = SessionConfig::default()
            .with_skyline_partitioning(SkylinePartitioning::Grid)
            .with_skyline_strategy(SkylineStrategy::DistributedIncomplete);
        assert_eq!(
            SkylinePlan::select(&config, &meta(3, true, false)).partitioning,
            SkylinePartitioning::Standard
        );
    }

    #[test]
    fn merge_strategy_tracks_executor_count() {
        let small = SessionConfig::default().with_executors(2);
        assert_eq!(
            SkylinePlan::select(&small, &meta(2, false, false)).merge,
            MergeStrategy::Flat
        );
        let big = SessionConfig::default().with_executors(8);
        assert_eq!(
            SkylinePlan::select(&big, &meta(2, false, false)).merge,
            MergeStrategy::Hierarchical { fan_in: 4 }
        );
        let forced_flat = SessionConfig::default()
            .with_executors(8)
            .with_hierarchical_merge_min_partitions(usize::MAX);
        assert_eq!(
            SkylinePlan::select(&forced_flat, &meta(2, false, false)).merge,
            MergeStrategy::Flat
        );
    }

    #[test]
    fn kernel_knob_passes_through() {
        let plan = SkylinePlan::select(&SessionConfig::default(), &meta(2, false, false));
        assert_eq!(plan.kernel, DominanceKernel::Auto);
        for kernel in [
            DominanceKernel::Auto,
            DominanceKernel::Simd,
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

    #[test]
    fn incomplete_family_tree_merges_with_enough_executors() {
        // The §5.7 global phase is no longer pinned to one executor: with
        // a big enough pool the deferred-deletion tree merge engages.
        let config = SessionConfig::default().with_executors(16);
        assert_eq!(
            SkylinePlan::select(&config, &meta(2, true, false)).merge,
            MergeStrategy::Hierarchical { fan_in: 4 }
        );
        // The knob restores the paper's flat single-executor plan.
        let pinned = SessionConfig::default()
            .with_executors(16)
            .with_incomplete_tree_merge(false);
        assert_eq!(
            SkylinePlan::select(&pinned, &meta(2, true, false)).merge,
            MergeStrategy::Flat
        );
        // Tiny pools keep the flat plan, exactly like the complete family.
        let small = SessionConfig::default().with_executors(2);
        assert_eq!(
            SkylinePlan::select(&small, &meta(2, true, false)).merge,
            MergeStrategy::Flat
        );
    }

    fn stats_with(correlation: f64, skyline_fraction: f64, sample_rows: usize) -> DatasetStats {
        DatasetStats {
            sample_rows,
            total_rows: sample_rows * 10,
            dims: 2,
            per_dim: Vec::new(),
            correlation,
            skyline_fraction,
        }
    }

    fn with_null_fraction(mut stats: DatasetStats, null_fraction: f64) -> DatasetStats {
        stats.per_dim = vec![
            crate::stats::DimStats {
                min: Some(0.0),
                max: Some(1.0),
                null_fraction,
            };
            stats.dims
        ];
        stats
    }

    #[test]
    fn adaptive_picks_grid_on_dominance_heavy_angle_on_trade_off_heavy() {
        let config = SessionConfig::default()
            .with_executors(5)
            .with_skyline_strategy(SkylineStrategy::Adaptive);
        let m = meta(2, false, false);
        let grid = SkylinePlan::select_adaptive(&config, &m, &stats_with(0.8, 0.02, 500));
        assert_eq!(grid.partitioning, SkylinePartitioning::Grid);
        assert!(grid.adaptive);
        assert!(grid.grid_cells_per_dim >= 2);
        assert_eq!(grid.merge, MergeStrategy::Flat, "tiny skyline: flat merge");
        let angle = SkylinePlan::select_adaptive(&config, &m, &stats_with(0.3, 0.6, 500));
        assert_eq!(angle.partitioning, SkylinePartitioning::AngleBased);
        let angle2 = SkylinePlan::select_adaptive(&config, &m, &stats_with(-0.8, 0.2, 500));
        assert_eq!(
            angle2.partitioning,
            SkylinePartitioning::AngleBased,
            "negative correlation alone also selects angles"
        );
        let even = SkylinePlan::select_adaptive(&config, &m, &stats_with(0.0, 0.25, 500));
        assert_eq!(even.partitioning, SkylinePartitioning::Even);
    }

    #[test]
    fn adaptive_high_dims_fall_back_to_even() {
        let config = SessionConfig::default()
            .with_executors(5)
            .with_skyline_strategy(SkylineStrategy::Adaptive);
        let plan = SkylinePlan::select_adaptive(
            &config,
            &meta(8, false, false),
            &stats_with(0.9, 0.02, 500),
        );
        assert_eq!(plan.partitioning, SkylinePartitioning::Even);
    }

    #[test]
    fn adaptive_merge_tracks_skyline_size_and_executors() {
        let config = SessionConfig::default()
            .with_executors(8)
            .with_skyline_strategy(SkylineStrategy::Adaptive);
        let m = meta(2, false, false);
        let big = SkylinePlan::select_adaptive(&config, &m, &stats_with(-0.5, 0.5, 500));
        assert!(matches!(big.merge, MergeStrategy::Hierarchical { .. }));
        let tiny = SkylinePlan::select_adaptive(&config, &m, &stats_with(0.9, 0.01, 500));
        assert_eq!(tiny.merge, MergeStrategy::Flat);
        let small_pool = SessionConfig::default()
            .with_executors(2)
            .with_skyline_strategy(SkylineStrategy::Adaptive);
        let plan = SkylinePlan::select_adaptive(&small_pool, &m, &stats_with(-0.5, 0.5, 500));
        assert_eq!(plan.merge, MergeStrategy::Flat, "tiny pool keeps flat");
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
        // incomplete family; partitioning stays Standard and the
        // pre-filter must stay off (non-transitive relation) — only the
        // global merge is steered by the statistics.
        let plan = SkylinePlan::select_adaptive(
            &config,
            &meta(2, true, false),
            &with_null_fraction(stats_with(-0.9, 0.5, 500), 0.3),
        );
        assert!(!plan.use_complete);
        assert_eq!(plan.partitioning, SkylinePartitioning::Standard);
        assert_eq!(plan.prefilter_max_points, 0);
        assert!(plan.adaptive, "the merge choice is statistics-driven");
    }

    #[test]
    fn adaptive_incomplete_merge_follows_null_fractions() {
        let config = SessionConfig::default()
            .with_executors(8)
            .with_skyline_strategy(SkylineStrategy::Adaptive);
        let m = meta(2, true, false);
        // NULL-bearing sample: several bitmap classes → tree merge.
        let tree = SkylinePlan::select_adaptive(
            &config,
            &m,
            &with_null_fraction(stats_with(0.0, 0.3, 500), 0.4),
        );
        assert!(
            matches!(tree.merge, MergeStrategy::Hierarchical { .. }),
            "{tree:?}"
        );
        // A sample without NULLs predicts a single bitmap class: the
        // global phase receives one already-merged local skyline, so the
        // tree merge is refused even though the static knobs allow it.
        let flat = SkylinePlan::select_adaptive(
            &config,
            &m,
            &with_null_fraction(stats_with(0.0, 0.3, 500), 0.0),
        );
        assert_eq!(flat.merge, MergeStrategy::Flat);
        assert!(flat.adaptive);
        // The knob and the executor floor still gate the tree.
        let pinned = SkylinePlan::select_adaptive(
            &config.clone().with_incomplete_tree_merge(false),
            &m,
            &with_null_fraction(stats_with(0.0, 0.3, 500), 0.4),
        );
        assert_eq!(pinned.merge, MergeStrategy::Flat);
        let small = SkylinePlan::select_adaptive(
            &SessionConfig::default()
                .with_executors(2)
                .with_skyline_strategy(SkylineStrategy::Adaptive),
            &m,
            &with_null_fraction(stats_with(0.0, 0.3, 500), 0.4),
        );
        assert_eq!(small.merge, MergeStrategy::Flat);
    }
}
