//! Listing 8, extended: the skyline strategy `PhysicalPlanner::plan_skyline`
//! selects — algorithm family, local phase and local-phase partitioning —
//! checked on the plan it builds.

mod tests {
    use crate::planner::tests::skyline_display;
    use sparkline_common::SkylineType::{self, *};
    use sparkline_common::{SessionConfig, SkylinePartitioning, SkylineStrategy};

    const COMPLETE: &str = "LocalSkylineExec [2 dims, complete";
    const INCOMPLETE: &str = "GlobalSkylineExec [2 dims, incomplete";
    const LOCAL: &str = "LocalSkylineExec";
    const GATHER: &str = "ExchangeExec [AllTuples]";
    const ANGLES: &str = "AngleBased";

    /// Plans `SKYLINE OF [COMPLETE] d0 t0, d1 t1` over columns that are
    /// `nullable` or not and checks the plan display.
    fn assert_plan(
        config: &SessionConfig,
        nullable: bool,
        complete: bool,
        types: [SkylineType; 2],
        present: &[&str],
        absent: &[&str],
    ) {
        let display = skyline_display(config, nullable, complete, types);
        for fragment in present {
            assert!(
                display.contains(fragment),
                "missing {fragment:?}\n{display}"
            );
        }
        for fragment in absent {
            assert!(
                !display.contains(fragment),
                "unexpected {fragment:?}\n{display}"
            );
        }
    }

    fn angle() -> SessionConfig {
        SessionConfig::default().with_skyline_partitioning(SkylinePartitioning::AngleBased)
    }

    #[test]
    fn listing_8_auto_selection() {
        let config = SessionConfig::default();
        assert_plan(
            &config,
            false,
            false,
            [Min, Min],
            &[COMPLETE],
            &[INCOMPLETE],
        );
        assert_plan(&config, true, true, [Min, Min], &[COMPLETE], &[INCOMPLETE]);
        assert_plan(&config, true, false, [Min, Min], &[INCOMPLETE], &[COMPLETE]);
    }

    #[test]
    fn forced_strategies_override_metadata() {
        let inc =
            SessionConfig::default().with_skyline_strategy(SkylineStrategy::DistributedIncomplete);
        assert_plan(&inc, false, true, [Min, Min], &[INCOMPLETE], &[COMPLETE]);
        let non_dist =
            SessionConfig::default().with_skyline_strategy(SkylineStrategy::NonDistributedComplete);
        assert_plan(
            &non_dist,
            true,
            false,
            [Min, Min],
            &[GATHER, "GlobalSkylineExec [2 dims, pairwise merge"],
            &[INCOMPLETE, LOCAL],
        );
    }

    #[test]
    fn angle_degrades_below_two_ranked_dims() {
        assert_plan(&angle(), false, false, [Min, Diff], &[COMPLETE], &[ANGLES]);
        assert_plan(
            &angle(),
            false,
            false,
            [Min, Min],
            &[COMPLETE, "ExchangeExec [AngleBased on 2 dims]"],
            &[],
        );
    }

    #[test]
    fn partitioning_is_standard_outside_the_distributed_complete_path() {
        for strategy in [
            SkylineStrategy::DistributedIncomplete,
            SkylineStrategy::NonDistributedComplete,
        ] {
            let config = angle().with_skyline_strategy(strategy);
            let display = skyline_display(&config, true, false, [Min, Min]);
            assert!(!display.contains(ANGLES), "{strategy:?}\n{display}");
        }
    }
}
