//! The benchmark spine of the sparkline engine: five workloads, the
//! end-to-end metrics a user sees, and — in a separate traced run — the
//! per-layer numbers, all taken from outside the engine through its
//! public functions. See `README.md` for the glossary and how to run it.

pub mod checker;
pub mod inproc;
pub mod layers;
pub mod metrics;
pub mod pipeline;
pub mod served;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;

use metrics::RunResult;

/// What one run of one workload is given.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Every input is made from it: the same seed gives the same rows,
    /// the same schedule and the same exact counts.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Multiplies every row count (1.0 measures, 0.05 smokes).
    pub scale: f64,
    /// Where SPKB files and trace files go.
    pub out_dir: PathBuf,
}

/// Run one workload in this process, timed (`trace` off) or traced.
pub fn run_workload(name: &str, args: &RunArgs, trace: bool) -> sparkline::Result<RunResult> {
    match (workload::inproc_spec(name, args.scale), trace) {
        (Some(spec), false) => inproc::run_timed(&spec, args),
        (Some(spec), true) => inproc::run_traced(&spec, args),
        (None, false) if name == "served_mix" => served::run_timed(args),
        (None, true) if name == "served_mix" => served::run_traced(args),
        _ => Err(sparkline::Error::plan(format!(
            "no workload named '{name}'"
        ))),
    }
}
