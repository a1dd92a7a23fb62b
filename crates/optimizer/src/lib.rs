#![warn(missing_docs)]

//! # sparkline-optimizer
//!
//! Rule-based logical-plan optimizer — the Catalyst-optimizer analogue of
//! *"Integration of Skyline Queries into Spark SQL"* (EDBT 2023). It
//! combines:
//!
//! * the generic rewrites skyline queries benefit from (§5.4 "the default
//!   optimizations of Spark also apply to skyline queries"): expression
//!   simplification, filter merging and pushdown, projection collapsing;
//! * the `[NOT] EXISTS` → semi/anti-join rewrite that makes the paper's
//!   *reference* plain-SQL skyline queries executable ([`subquery`]);
//! * the skyline-specific rules: §5.4's O(n) single-dimension rewrite and
//!   pushdown of skylines below non-reductive joins, plus the metadata
//!   rules (`COMPLETE` inference, DIFF-only removal) that feed the
//!   physical strategy selection ([`skyline_rules`]).
//!
//! Every rule runs on every query: the batches are applied to fixpoint.

pub mod expr_simplify;
pub mod pushdown;
pub mod skyline_rules;
pub mod subquery;

use sparkline_common::{Result, SessionConfig};
use sparkline_plan::{CatalogProvider, LogicalPlan};

pub use expr_simplify::simplify_expressions;
pub use pushdown::{collapse_projections, merge_filters, push_down_filters, push_down_limits};
pub use skyline_rules::{
    drop_diff_only_skyline, infer_complete_skyline, push_skyline_below_join,
    rewrite_single_dim_skyline,
};
pub use subquery::rewrite_exists_subqueries;

/// Maximum fixpoint iterations (Catalyst's default batch limit is 100).
const MAX_ITERATIONS: usize = 25;

/// The rule-based optimizer.
pub struct Optimizer<'a> {
    catalog: Option<&'a dyn CatalogProvider>,
}

impl<'a> Optimizer<'a> {
    /// Optimizer with no catalog metadata (foreign-key-based join
    /// pushdown disabled). Every rule runs under any configuration, so
    /// `config` is not read; the parameter stays only because the
    /// benchmark's traced pipeline (`benchmark/src/pipeline.rs`) passes
    /// it, and a `[benchmark]` change deletes it.
    pub fn new(_config: &'a SessionConfig) -> Self {
        Optimizer { catalog: None }
    }

    /// Provide catalog metadata for constraint-based rules.
    pub fn with_catalog(mut self, catalog: &'a dyn CatalogProvider) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Optimize a resolved logical plan.
    pub fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        // Subquery rewriting runs once, first: it is a prerequisite for
        // execution (EXISTS has no physical operator) and exposes the
        // resulting joins to the later batches.
        let mut current = rewrite_exists_subqueries(plan)?;
        for _ in 0..MAX_ITERATIONS {
            let mut next = simplify_expressions(&current)?;
            next = merge_filters(&next)?;
            next = push_down_filters(&next)?;
            next = push_down_limits(&next)?;
            next = collapse_projections(&next)?;
            next = drop_diff_only_skyline(&next)?;
            next = infer_complete_skyline(&next)?;
            next = rewrite_single_dim_skyline(&next)?;
            next = push_skyline_below_join(&next, self.catalog)?;
            if next == current {
                break;
            }
            current = next;
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_analyzer::Analyzer;
    use sparkline_common::{DataType, Field, Schema};
    use sparkline_parser::parse_query;
    use sparkline_plan::StaticCatalog;

    fn catalog() -> StaticCatalog {
        let mut c = StaticCatalog::new();
        c.register_table(
            "hotels",
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("price", DataType::Float64, false),
                Field::new("rating", DataType::Int64, true),
            ])
            .into_ref(),
        );
        c.register_table(
            "rooms",
            Schema::new(vec![
                Field::new("hotel_id", DataType::Int64, false),
                Field::new("beds", DataType::Int64, false),
            ])
            .into_ref(),
        );
        c.register_foreign_key("rooms", "hotel_id", "hotels", "id");
        c
    }

    fn analyze(cat: &StaticCatalog, sql: &str) -> LogicalPlan {
        Analyzer::new(cat)
            .analyze(&parse_query(sql).unwrap())
            .unwrap()
    }

    fn optimize(sql: &str) -> LogicalPlan {
        let cat = catalog();
        Optimizer::new(&SessionConfig::default())
            .with_catalog(&cat)
            .optimize(&analyze(&cat, sql))
            .unwrap_or_else(|e| panic!("optimization failed for {sql:?}: {e}"))
    }

    /// The plan with no rule but the `EXISTS` rewrite applied — what the
    /// optimizer's rules are measured against.
    fn unoptimized(sql: &str) -> LogicalPlan {
        rewrite_exists_subqueries(&analyze(&catalog(), sql)).unwrap()
    }

    #[test]
    fn end_to_end_reference_query_becomes_anti_join() {
        let plan = optimize(
            "SELECT price, rating FROM hotels AS o WHERE NOT EXISTS( \
               SELECT * FROM hotels AS i WHERE \
                 i.price <= o.price AND i.rating >= o.rating \
                 AND (i.price < o.price OR i.rating > o.rating))",
        );
        let d = plan.display_indent();
        assert!(d.contains("Join [LeftAnti"), "{d}");
        assert!(!d.contains("EXISTS"), "{d}");
    }

    #[test]
    fn single_dim_skyline_rewritten_end_to_end() {
        let plan = optimize("SELECT price FROM hotels SKYLINE OF price MIN");
        let d = plan.display_indent();
        assert!(d.contains("MinMaxFilter [MIN"), "{d}");
        assert!(!d.contains("Skyline"), "{d}");
    }

    #[test]
    fn single_dim_rewrite_is_the_optimizers_alone() {
        let plan = unoptimized("SELECT price FROM hotels SKYLINE OF price MIN");
        let d = plan.display_indent();
        assert!(d.contains("Skyline"), "{d}");
        assert!(!d.contains("MinMaxFilter"), "{d}");
    }

    #[test]
    fn two_dim_skyline_not_rewritten() {
        let plan = optimize("SELECT price FROM hotels SKYLINE OF price MIN, rating MAX");
        assert!(plan.display_indent().contains("Skyline"), "{plan}");
    }

    #[test]
    fn skyline_pushed_below_fk_inner_join() {
        let plan = optimize(
            "SELECT rooms.beds FROM rooms JOIN hotels ON rooms.hotel_id = hotels.id \
             SKYLINE OF beds MAX, hotel_id MIN",
        );
        let d = plan.display_indent();
        // The skyline must appear below the join, on the rooms side.
        let join_line = d.lines().position(|l| l.contains("Join")).unwrap();
        let sky_line = d.lines().position(|l| l.contains("Skyline")).unwrap();
        assert!(sky_line > join_line, "skyline below join:\n{d}");
    }

    #[test]
    fn skyline_pushdown_is_the_optimizers_alone() {
        let plan = unoptimized(
            "SELECT rooms.beds FROM rooms JOIN hotels ON rooms.hotel_id = hotels.id \
             SKYLINE OF beds MAX, hotel_id MIN",
        );
        let d = plan.display_indent();
        let join_line = d.lines().position(|l| l.contains("Join")).unwrap();
        let sky_line = d.lines().position(|l| l.contains("Skyline")).unwrap();
        assert!(sky_line < join_line, "skyline above join:\n{d}");
    }

    #[test]
    fn where_filter_pushed_below_skyline_input_projection() {
        // The filter applies *before* the skyline (WHERE precedes SKYLINE
        // semantically); optimization must keep it on the input side.
        let plan = optimize(
            "SELECT price, rating FROM hotels WHERE price < 100 \
             SKYLINE OF price MIN, rating MAX",
        );
        let d = plan.display_indent();
        let sky_line = d.lines().position(|l| l.contains("Skyline")).unwrap();
        let filter_line = d.lines().position(|l| l.contains("Filter")).unwrap();
        assert!(filter_line > sky_line, "{d}");
        assert!(d.contains("TableScan"), "{d}");
    }

    #[test]
    fn constant_predicates_fold() {
        let plan = optimize("SELECT price FROM hotels WHERE 1 < 2 AND price > 0");
        let d = plan.display_indent();
        assert!(!d.contains("(1 < 2)"), "{d}");
    }

    #[test]
    fn optimizer_is_idempotent() {
        let cat = catalog();
        let analyzer = Analyzer::new(&cat);
        let config = SessionConfig::default();
        let analyzed = analyzer
            .analyze(
                &parse_query(
                    "SELECT price FROM hotels WHERE rating > 1 \
                     SKYLINE OF price MIN, rating MAX ORDER BY price",
                )
                .unwrap(),
            )
            .unwrap();
        let optimizer = Optimizer::new(&config).with_catalog(&cat);
        let once = optimizer.optimize(&analyzed).unwrap();
        let twice = optimizer.optimize(&once).unwrap();
        assert_eq!(once, twice);
    }
}
