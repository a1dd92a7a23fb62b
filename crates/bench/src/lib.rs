//! # sparkline-bench
//!
//! The paper-evaluation harness: code that regenerates every table and
//! figure of the EDBT 2023 skyline paper's evaluation (§6 + Appendices C–E)
//! at reproduction scale. See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured outcomes.
//!
//! Scaling: datasets default to 1:100 of the paper's sizes and the timeout
//! to 30 s (the paper's 3600 s scales with them). Absolute times differ
//! from the paper (simulator vs 18-node YARN cluster); the reproduction
//! target is the *shape*: which algorithm wins, how series scale, where
//! timeouts appear.

pub mod adaptive_bench;
pub mod chaos_bench;
pub mod experiments;
pub mod harness;
pub mod kernel_bench;
pub mod mutation_bench;
pub mod report;
pub mod runner;
pub mod server_bench;
pub mod storage_bench;
pub mod stream_bench;

pub use adaptive_bench::{run_adaptive_bench, write_bench_pr4, AdaptiveBench};
pub use chaos_bench::{run_chaos_bench, write_bench_pr7, ChaosBench};
pub use kernel_bench::{run_kernel_bench, write_bench_pr2, KernelBench};
pub use mutation_bench::{run_mutation_bench, write_bench_pr10, MutationBench};
pub use report::{format_relative_table, format_series_table, Cell};
pub use runner::{EvalContext, EvalSettings, Measurement, Metric};
pub use server_bench::{run_server_bench, write_bench_pr9, ServerBench};
pub use storage_bench::{run_storage_bench, write_bench_pr8, StorageBench};
