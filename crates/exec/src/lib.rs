#![warn(missing_docs)]

//! # sparkline-exec
//!
//! The distributed execution substrate of the `sparkline` engine — the
//! stand-in for Spark's executor runtime that the paper's algorithms run
//! on:
//!
//! * [`stream`] — the pull-based, batched execution substrate:
//!   [`PartitionStream`]s yielding [`stream::RowBatch`]es with in-flight
//!   accounting, plus the shared pipeline-breaker and lazy-build stage
//!   helpers;
//! * [`partition`] — materialized partition helpers with the distribution
//!   schemes the skyline plans require (even split, `AllTuples`
//!   coalescing, hash / null-bitmap partitioning, angle-based routing),
//!   used by breaker stages and the materialized adapter;
//! * [`runtime`] — the executor pool (`num_executors` worker threads), the
//!   stream fan-out (`Runtime::drain_streams`), and its retrying twin
//!   (`Runtime::drain_streams_with_retry`) that recomputes failed
//!   partitions from source;
//! * [`fault`] — the deterministic, seeded fault injector behind the
//!   `fault_seed` / `fault_rate` session knobs;
//! * [`metrics`] — row/dominance-test counters reported by the harness,
//!   including the stream gauges (`batches_emitted`,
//!   `peak_rows_in_flight`) and the resilience counters
//!   (`faults_injected`, `retries_attempted`, `budget_denials`,
//!   `degraded_paths`);
//! * [`memory`] — byte-accounted buffer tracking with per-executor
//!   overhead and an enforced per-query budget.
//!
//! [`TaskContext`] bundles the per-query state every physical operator
//! receives: the pool, the [`QueryControl`] (deadline + cancellation),
//! the fault injector, the retry policy, budgeted memory accounting, the
//! stream batch size, and the materialized-mode switch (the seed model's
//! memory profile, kept for A/B benchmarks).

pub mod fault;
pub mod memory;
pub mod metrics;
pub mod partition;
pub mod runtime;
pub mod stream;

use std::sync::Arc;
use std::time::Duration;

pub use fault::{FaultInjector, FaultSite};
pub use memory::{MemoryReservation, MemoryTracker};
pub use metrics::{ExecMetrics, InFlightRows, MetricsSnapshot};
pub use partition::Partition;
pub use runtime::{
    retry_loop, Deadline, QueryControl, Runtime, CONTROL_CHECK_ROWS, MAX_BACKOFF_MULTIPLIER,
};
pub use stream::{PartitionStream, RowBatch, DEFAULT_BATCH_SIZE};

use sparkline_common::Result;

/// Per-query execution state handed to every operator.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// The executor pool.
    pub runtime: Arc<Runtime>,
    /// Cooperative control: wall-clock deadline + cancellation flag.
    pub control: QueryControl,
    /// Metric counters.
    pub metrics: Arc<ExecMetrics>,
    /// Buffer memory accounting (optionally budget-enforcing).
    pub memory: Arc<MemoryTracker>,
    /// Deterministic transient-fault injector (disabled by default).
    pub faults: Arc<FaultInjector>,
    /// Per-partition retry cap for retryable failures.
    pub max_retries: u32,
    /// Backoff base between retry attempts: the wait is `base * attempt`
    /// with the multiplier capped at
    /// [`runtime::MAX_BACKOFF_MULTIPLIER`], and it aborts early on
    /// cancel/deadline (see [`QueryControl::backoff_wait`]).
    pub retry_backoff: Duration,
    /// Rows per stream batch.
    pub batch_size: usize,
    /// Materialize every operator boundary (the seed model) instead of
    /// pipelining batches — the A/B switch of the streaming benchmarks.
    pub materialized: bool,
}

impl TaskContext {
    /// Context over a pool with `num_executors`, no timeout, streaming
    /// execution with the default batch size, no fault injection, no
    /// memory budget.
    pub fn new(num_executors: usize) -> Self {
        TaskContext {
            runtime: Arc::new(Runtime::new(num_executors)),
            control: QueryControl::unlimited(),
            metrics: Arc::new(ExecMetrics::new()),
            memory: Arc::new(MemoryTracker::new()),
            faults: FaultInjector::disabled(),
            max_retries: 3,
            retry_backoff: Duration::ZERO,
            batch_size: DEFAULT_BATCH_SIZE,
            materialized: false,
        }
    }

    /// Replace the deadline, keeping the cancellation flag.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.control = QueryControl::with_cancel_flag(
            deadline,
            // Re-wrap the existing flag so clones made earlier still
            // observe cancels. QueryControl clones share it.
            {
                let control = self.control.clone();
                control.cancel_flag()
            },
        );
        self
    }

    /// Replace the whole control handle (deadline + cancellation flag).
    pub fn with_control(mut self, control: QueryControl) -> Self {
        self.control = control;
        self
    }

    /// The wall-clock deadline (through the control handle).
    pub fn deadline(&self) -> Deadline {
        self.control.deadline()
    }

    /// Install a fault injector.
    pub fn with_fault_injector(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Set the retry policy for retryable partition failures.
    pub fn with_retry_policy(mut self, max_retries: u32, backoff: Duration) -> Self {
        self.max_retries = max_retries;
        self.retry_backoff = backoff;
        self
    }

    /// Replace the memory tracker with a budget-enforcing one.
    pub fn with_memory_budget(mut self, budget: Option<usize>) -> Self {
        self.memory = Arc::new(MemoryTracker::with_budget(budget));
        self
    }

    /// Set the stream batch size (>= 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be at least 1");
        self.batch_size = batch_size;
        self
    }

    /// Toggle the materialized (per-boundary `Vec<Partition>`) model.
    pub fn with_materialized(mut self, materialized: bool) -> Self {
        self.materialized = materialized;
        self
    }

    /// Fault-injection decision for one step, counting fired faults.
    pub fn maybe_inject(&self, site: FaultSite, partition: usize, seq: u64) -> Result<()> {
        match self.faults.check(site, partition, seq) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.metrics.add_fault_injected();
                Err(e)
            }
        }
    }

    /// Budget-checked reservation, counting denials.
    pub fn try_reserve(&self, bytes: usize) -> Result<MemoryReservation> {
        self.memory.try_reserve(bytes).inspect_err(|_| {
            self.metrics.add_budget_denial();
        })
    }

    /// Budget-checked reservation growth, counting denials.
    pub fn try_grow(&self, reservation: &mut MemoryReservation, bytes: usize) -> Result<()> {
        reservation.try_grow(bytes).inspect_err(|_| {
            self.metrics.add_budget_denial();
        })
    }

    /// Drain partition streams with this context's retry policy: failed
    /// partitions are recomputed via `recreate` (typically re-running
    /// `execute_stream` on the immutable plan subtree and keeping the
    /// failed partition's stream), siblings keep their results, and every
    /// recomputation is counted in `retries_attempted`.
    pub fn drain_streams_retrying<R>(
        &self,
        streams: Vec<PartitionStream>,
        recreate: R,
    ) -> Result<Vec<Partition>>
    where
        R: Fn(usize) -> Result<PartitionStream> + Sync,
    {
        self.runtime.drain_streams_with_retry(
            streams,
            &self.control,
            self.max_retries,
            self.retry_backoff,
            recreate,
            |_, _| self.metrics.add_retry_attempted(),
        )
    }
}
