#![warn(missing_docs)]

//! # sparkline-plan
//!
//! Expression trees and logical query plans for the `sparkline` engine,
//! including the first-class skyline operator of the EDBT 2023 paper:
//!
//! * [`expr`] — the expression AST ([`Expr`]), evaluated with SQL NULL
//!   semantics; contains [`SkylineDimension`], the paper's §5.2 expression
//!   that wraps a dimension expression with its `MIN`/`MAX`/`DIFF` type.
//! * [`logical`] — the [`LogicalPlan`] operator tree with
//!   [`LogicalPlan::Skyline`] as a single-child node, plus the
//!   [`LogicalPlan::MinMaxFilter`] node produced by the single-dimension
//!   rewrite of §5.4.
//! * [`builder`] — fluent plan construction for the DataFrame API.

pub mod builder;
pub mod catalog;
pub mod expr;
pub mod logical;

pub use builder::LogicalPlanBuilder;
pub use catalog::{CatalogProvider, ForeignKey, StaticCatalog};
pub use expr::{
    conjoin, split_conjuncts, AggregateFunction, BinaryOp, BoundColumn, Column, Expr,
    ScalarFunction, SkylineDimension, SortExpr,
};
pub use logical::{JoinCondition, JoinType, LogicalPlan, MinMaxDirection};
