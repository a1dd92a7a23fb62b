//! # sparkline-bench
//!
//! The paper-evaluation harness: code that regenerates every figure of the
//! EDBT 2023 skyline paper's evaluation (§6 + Appendices C–E, Figs. 3–19
//! with the Appendix D relative tables) at reproduction scale, plus two
//! extension experiments the benchmark spine does not take: ext9 (disk
//! scans with block skipping and the out-of-core cell, `BENCH_PR8.json`)
//! and ext10 (N concurrent clients of the TCP server, `BENCH_PR9.json`).
//! `paper_eval list` names them all; the criterion micro-benchmarks live
//! in `benches/`.
//!
//! Scaling: datasets default to 1:100 of the paper's sizes and the timeout
//! to 30 s (the paper's 3600 s scales with them). Absolute times differ
//! from the paper (simulator vs 18-node YARN cluster); the reproduction
//! target is the *shape*: which algorithm wins, how series scale, where
//! timeouts appear.

pub mod experiments;
pub mod report;
pub mod runner;
pub mod server_bench;
pub mod storage_bench;

pub use report::{format_relative_table, format_series_table, Cell};
pub use runner::{EvalContext, EvalSettings, Measurement, Metric};
pub use server_bench::{run_server_bench, write_bench_pr9, ServerBench};
pub use storage_bench::{run_storage_bench, write_bench_pr8, StorageBench};
