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
//! * [`partition`] — buffered partition helpers (even split, flatten);
//! * [`runtime`] — the executor pool (`num_executors` worker threads) and
//!   its fail-fast task fan-out (`Runtime::map_indexed`);
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
//! [`TaskContext::reservation`], which charges the budget and the row
//! gauge together; a breaker drains its input through
//! [`TaskContext::drain`], charged batch by batch.

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
pub use stream::{Batch, HeldPartition, PartitionStream, RowBatch, DEFAULT_BATCH_SIZE};

use parking_lot::Mutex;
use sparkline_common::{Result, Row};

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
        // Keep the flag itself, so clones made earlier still observe
        // cancels.
        self.control = QueryControl::with_cancel_flag(deadline, self.control.cancel_flag());
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

    /// A new, empty reservation: the one entry point of memory accounting.
    /// It charges through [`MemoryReservation::try_resize`], which checks
    /// the growth against the budget (a denial counts one
    /// `budget_denials`) and moves the `rows_in_flight` gauge with it;
    /// dropping the handle releases both.
    pub fn reservation(&self) -> MemoryReservation {
        MemoryReservation::new(&self.memory, &self.metrics)
    }

    /// Fold `streams` concurrently over the executor pool, one state per
    /// stream from `init`, each under one reservation resized after every
    /// pulled batch to the `(rows, bytes)` that `fold` returns for its
    /// state — so a state past the budget fails on the batch that grew it.
    /// The query control is checked before every pull. The first failure
    /// fails the fold and stops the other streams before their next
    /// charge: one failure is one denial.
    pub fn fold<S: Send>(
        &self,
        streams: Vec<PartitionStream>,
        init: impl Fn() -> S + Sync,
        fold: impl Fn(&mut S, RowBatch) -> Result<(usize, usize)> + Sync,
    ) -> Result<Vec<(S, MemoryReservation)>> {
        let failed = Mutex::new(false);
        self.runtime.map_indexed(streams, |_, mut stream| {
            let (mut state, mut held) = (init(), self.reservation());
            loop {
                let pulled = self.control.check().and_then(|()| stream.next_batch());
                let size = pulled.and_then(|batch| batch.map(|b| fold(&mut state, b)).transpose());
                // Checking and charging under one lock: two streams cannot
                // both cross the budget.
                let mut failed = failed.lock();
                match size {
                    Ok(Some((rows, bytes))) if !*failed => held.try_resize(rows, bytes),
                    Ok(_) => return Ok((state, held)),
                    Err(e) => Err(e),
                }
                .inspect_err(|_| *failed = true)?;
            }
        })
    }

    /// Drain `streams` into one held partition each: the one way a breaker
    /// buffers its input, charged batch by batch (see [`fold`](Self::fold)).
    pub fn drain(&self, streams: Vec<PartitionStream>) -> Result<Vec<HeldPartition>> {
        let drain = |(rows, bytes): &mut (Partition, usize), batch: RowBatch| {
            *bytes += batch.iter().map(Row::estimated_bytes).sum::<usize>();
            rows.extend(batch);
            Ok((rows.len(), *bytes))
        };
        let drained = self.fold(streams, Default::default, drain)?;
        Ok(drained
            .into_iter()
            .map(|((rows, _), held)| (rows, held))
            .collect())
    }

    /// [`drain`](Self::drain) into one partition, in stream order, under
    /// one reservation: Spark's `AllTuples` gather.
    pub fn gather(&self, streams: Vec<PartitionStream>) -> Result<HeldPartition> {
        let (mut rows, mut reservation) = (Vec::new(), self.reservation());
        for (part, held) in self.drain(streams)? {
            rows.extend(part);
            reservation.merge(held);
        }
        Ok((rows, reservation))
    }
}
