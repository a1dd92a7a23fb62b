//! Skyline physical-strategy selection.
//!
//! The paper's Listing 8 chooses between the complete and incomplete
//! algorithm from one bit of plan metadata (can a skyline dimension be
//! NULL?). This module generalizes that into a single, testable decision
//! point consumed by the physical planner: given the [`SessionConfig`] and
//! the [`SkylineMeta`] extracted from the plan, [`SkylinePlan::select`]
//! fixes the algorithm family and the local-phase partitioning scheme.
//! Keeping the decision here (rather than inlined in the planner) lets the
//! optimizer, the planner, and the benchmark harness agree on one notion
//! of "what will this query run".

use crate::config::{SessionConfig, SkylinePartitioning, SkylineStrategy};
use crate::skyline::SkylineSpec;

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
    /// family (a local phase per null-bitmap class of each scan partition,
    /// with no exchange, then the all-pairs global phase).
    pub use_complete: bool,
    /// Whether a distributed local phase runs before the global phase.
    pub distributed: bool,
    /// Effective local-phase partitioning (downgraded to `Standard` where
    /// the scheme cannot apply: angles over fewer than two ranked
    /// dimensions).
    pub partitioning: SkylinePartitioning,
}

impl SkylinePlan {
    /// Listing 8, extended: select the physical plan shape from the
    /// session configuration and the skyline's plan metadata.
    pub fn select(config: &SessionConfig, meta: &SkylineMeta) -> Self {
        // Listing 8, line 2: the complete algorithm may be used when the
        // user asserted COMPLETE or no skyline dimension is nullable.
        // Forced strategies (the harness's algorithm series) override.
        let use_complete = match config.skyline_strategy {
            SkylineStrategy::Auto => meta.declared_complete || !meta.nullable,
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
        }
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
}
