#![warn(missing_docs)]

//! # sparkline-common
//!
//! Shared foundation types for the `sparkline` query engine: scalar
//! [`Value`]s, [`Row`]s, column-major [`ColumnBatch`]es, [`Schema`]s,
//! error types, session configuration, and the skyline-specific
//! vocabulary ([`SkylineType`], [`SkylineStrategy`]) used across the
//! parser, planner, optimizer, and execution layers.
//!
//! The engine reproduces *"Integration of Skyline Queries into Spark SQL"*
//! (EDBT 2023). This crate intentionally has no dependencies so that every
//! other crate in the workspace can build on it without cycles.

pub mod batch;
pub mod config;
pub mod control;
pub mod error;
pub mod row;
pub mod schema;
pub mod skyline;
pub mod stats;
pub mod types;
pub mod value;

pub use batch::{BatchColumn, ColumnBatch, ColumnValues};
pub use config::{DominanceKernel, SessionConfig, SkylineStrategy};
pub use control::{Deadline, QueryControl, CONTROL_CHECK_ROWS};
pub use error::{Error, Result};
pub use row::Row;
pub use schema::{Field, Schema, SchemaRef};
pub use skyline::{SkylineDim, SkylineSpec, SkylineType};
pub use stats::Reservoir;
pub use types::DataType;
pub use value::Value;
