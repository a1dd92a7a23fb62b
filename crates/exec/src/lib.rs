#![warn(missing_docs)]

//! # sparkline-exec
//!
//! The distributed execution substrate of the `sparkline` engine — the
//! stand-in for Spark's executor runtime that the paper's algorithms run
//! on:
//!
//! * [`stream`] — the pull-based, batched execution substrate:
//!   [`PartitionStream`]s yielding [`stream::Batch`]es — rows, or column
//!   buffers that become rows where a consumer asks — with in-flight
//!   accounting of each yielded batch, plus the shared pipeline-breaker
//!   and lazy-build stage helpers;
//! * [`partition`] — buffered partition helpers with the distribution
//!   schemes the skyline plans require (even split, `AllTuples`
//!   coalescing), used by breaker stages;
//! * [`runtime`] — the executor pool (`num_executors` worker threads) and
//!   the fail-fast stream fan-out (`Runtime::drain_streams`);
//! * [`metrics`] — row/dominance-test counters reported by the harness,
//!   including the stream gauges (`batches_emitted`,
//!   `peak_rows_in_flight`) and the memory-budget counter
//!   (`budget_denials`);
//! * [`memory`] — byte-accounted buffer tracking with per-executor
//!   overhead and an enforced per-query budget.
//!
//! [`TaskContext`] bundles the per-query state every physical operator
//! receives: the pool, the [`QueryControl`] (deadline + cancellation),
//! budgeted memory accounting, and the stream batch size. Every buffer an
//! operator holds is one [`MemoryReservation`] from
//! [`TaskContext::try_reserve`], which charges the budget and the row
//! gauge together.

pub mod memory;
pub mod metrics;
pub mod partition;
pub mod runtime;
pub mod stream;

use std::sync::Arc;
use std::time::Duration;

pub use memory::{MemoryReservation, MemoryTracker};
pub use metrics::{ExecMetrics, MetricsSnapshot};
pub use partition::Partition;
pub use runtime::{Deadline, QueryControl, Runtime, CONTROL_CHECK_ROWS};
pub use stream::{Batch, PartitionStream, RowBatch, DEFAULT_BATCH_SIZE};

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
    /// Rows per stream batch.
    pub batch_size: usize,
}

impl TaskContext {
    /// Context over a pool with `num_executors`, no timeout, streaming
    /// execution with the default batch size, no memory budget.
    pub fn new(num_executors: usize) -> Self {
        TaskContext {
            runtime: Arc::new(Runtime::new(num_executors)),
            control: QueryControl::unlimited(),
            metrics: Arc::new(ExecMetrics::new()),
            memory: Arc::new(MemoryTracker::new()),
            batch_size: DEFAULT_BATCH_SIZE,
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

    /// A no-op: nothing retries a partition. It stays only because the
    /// benchmark's traced pipeline (`benchmark/src/pipeline.rs`) calls it;
    /// a `[benchmark]` change deletes it together with that call.
    pub fn with_retry_policy(self, _max_retries: u32, _backoff: Duration) -> Self {
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

    /// A no-op: every query runs on the stream model. It stays only
    /// because the benchmark's traced pipeline (`benchmark/src/pipeline.rs`)
    /// calls it; a `[benchmark]` change deletes it together with that call.
    pub fn with_materialized(self, _materialized: bool) -> Self {
        self
    }

    /// Reserve a buffer of `rows` rows and `bytes` bytes: the one entry
    /// point of memory accounting. The bytes are checked against the
    /// budget (a denial counts one `budget_denials` and reserves nothing),
    /// the rows join the `rows_in_flight` gauge, and dropping the handle
    /// releases both.
    pub fn try_reserve(&self, rows: usize, bytes: usize) -> Result<MemoryReservation> {
        MemoryReservation::try_new(&self.memory, &self.metrics, rows, bytes)
    }
}
