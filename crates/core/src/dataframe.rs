//! The DataFrame API (paper §5.8): programmatic construction of skyline
//! queries, bypassing the parser and "directly creat\[ing\] a new skyline
//! operator node in the logical plan".

use sparkline_common::{Algorithm, Result, SchemaRef};
use sparkline_plan::{
    Expr, JoinCondition, JoinType, LogicalPlan, LogicalPlanBuilder, SkylineDimension, SortExpr,
};

use crate::result::QueryResult;
use crate::session::SessionContext;

/// A lazily evaluated relational computation bound to a session.
#[derive(Clone)]
pub struct DataFrame {
    session: SessionContext,
    plan: LogicalPlan,
}

impl DataFrame {
    /// Wrap a logical plan (used by [`SessionContext`]).
    pub(crate) fn new(session: SessionContext, plan: LogicalPlan) -> Self {
        DataFrame { session, plan }
    }

    /// The underlying logical plan.
    pub fn logical_plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The output schema (analyzes lazily built additions).
    pub fn schema(&self) -> Result<SchemaRef> {
        if self.plan.resolved() {
            self.plan.schema()
        } else {
            // Re-analyze to resolve builder-added, still-named expressions.
            let analyzed = self.session.sql_plan(&self.plan)?;
            analyzed.schema()
        }
    }

    fn with_plan(&self, plan: LogicalPlan) -> DataFrame {
        DataFrame {
            session: self.session.clone(),
            plan,
        }
    }

    /// `SELECT exprs`.
    pub fn select(&self, exprs: Vec<Expr>) -> DataFrame {
        self.with_plan(
            LogicalPlanBuilder::from(self.plan.clone())
                .project(exprs)
                .plan()
                .clone(),
        )
    }

    /// `WHERE predicate`.
    pub fn filter(&self, predicate: Expr) -> DataFrame {
        self.with_plan(
            LogicalPlanBuilder::from(self.plan.clone())
                .filter(predicate)
                .plan()
                .clone(),
        )
    }

    /// `GROUP BY group_exprs` with result expressions `aggr_exprs`.
    pub fn aggregate(&self, group_exprs: Vec<Expr>, aggr_exprs: Vec<Expr>) -> DataFrame {
        self.with_plan(
            LogicalPlanBuilder::from(self.plan.clone())
                .aggregate(group_exprs, aggr_exprs)
                .plan()
                .clone(),
        )
    }

    /// `ORDER BY keys`.
    pub fn sort(&self, keys: Vec<SortExpr>) -> DataFrame {
        self.with_plan(
            LogicalPlanBuilder::from(self.plan.clone())
                .sort(keys)
                .plan()
                .clone(),
        )
    }

    /// `LIMIT n`.
    pub fn limit(&self, n: usize) -> DataFrame {
        self.with_plan(
            LogicalPlanBuilder::from(self.plan.clone())
                .limit(n)
                .plan()
                .clone(),
        )
    }

    /// `SELECT DISTINCT`.
    pub fn distinct(&self) -> DataFrame {
        self.with_plan(
            LogicalPlanBuilder::from(self.plan.clone())
                .distinct()
                .plan()
                .clone(),
        )
    }

    /// Alias this relation (`AS name`).
    pub fn alias(&self, name: impl Into<String>) -> DataFrame {
        self.with_plan(
            LogicalPlanBuilder::from(self.plan.clone())
                .alias(name)
                .plan()
                .clone(),
        )
    }

    /// Join with another DataFrame.
    pub fn join(
        &self,
        right: &DataFrame,
        join_type: JoinType,
        condition: JoinCondition,
    ) -> DataFrame {
        self.with_plan(
            LogicalPlanBuilder::from(self.plan.clone())
                .join(right.plan.clone(), join_type, condition)
                .plan()
                .clone(),
        )
    }

    /// The skyline operator (paper §5.8): `skyline(vec![smin(col("price")),
    /// smax(col("rating"))])`.
    pub fn skyline(&self, dims: Vec<SkylineDimension>) -> DataFrame {
        self.skyline_with(false, false, dims)
    }

    /// Skyline with the `DISTINCT` / `COMPLETE` modifiers.
    pub fn skyline_with(
        &self,
        distinct: bool,
        complete: bool,
        dims: Vec<SkylineDimension>,
    ) -> DataFrame {
        self.with_plan(
            LogicalPlanBuilder::from(self.plan.clone())
                .skyline(distinct, complete, dims)
                .plan()
                .clone(),
        )
    }

    /// Execute with the session's (Listing 8 `Auto`) algorithm selection.
    pub fn collect(&self) -> Result<QueryResult> {
        self.session.execute_plan(&self.plan)
    }

    /// Execute forcing one of the paper's four algorithms.
    pub fn collect_with_algorithm(&self, algorithm: Algorithm) -> Result<QueryResult> {
        self.session.execute_plan_with(&self.plan, algorithm)
    }

    /// Number of result rows.
    pub fn count(&self) -> Result<usize> {
        Ok(self.collect()?.num_rows())
    }

    /// Render all pipeline stages (`EXPLAIN EXTENDED`).
    pub fn explain(&self) -> Result<String> {
        self.session.explain_plan(&self.plan, Algorithm::Auto)
    }

    /// Render the pipeline for a specific algorithm.
    pub fn explain_with(&self, algorithm: Algorithm) -> Result<String> {
        self.session.explain_plan(&self.plan, algorithm)
    }

    /// `EXPLAIN ANALYZE`: execute and render the physical plan with the
    /// measured metrics, including the stream gauges (`batches emitted`,
    /// `peak rows in flight`).
    pub fn explain_analyze(&self) -> Result<String> {
        self.session.explain_analyze(&self.plan, Algorithm::Auto)
    }

    /// [`explain_analyze`](Self::explain_analyze) forcing an algorithm.
    pub fn explain_analyze_with(&self, algorithm: Algorithm) -> Result<String> {
        self.session.explain_analyze(&self.plan, algorithm)
    }
}

impl SessionContext {
    /// Analyze an arbitrary (possibly DataFrame-built) plan against this
    /// session's catalog.
    pub(crate) fn sql_plan(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        let catalog = self.catalog_read();
        sparkline_analyzer::Analyzer::new(&*catalog).analyze(plan)
    }
}
