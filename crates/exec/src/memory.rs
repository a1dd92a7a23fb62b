//! Byte-accounted memory tracking with enforced per-query budgets.
//!
//! Every buffer an operator holds is one [`MemoryReservation`], taken
//! empty through the one entry point
//! [`TaskContext::reservation`](crate::TaskContext::reservation) and
//! charged with [`try_resize`](MemoryReservation::try_resize)`(rows,
//! bytes)`, which checks only the growth. A reservation charges two
//! gauges together: the tracker's bytes and the `rows_in_flight` row
//! gauge of `ExecMetrics` (a payload that is not rows, such as a disk
//! block, holds `rows = 0`). [`merge`](MemoryReservation::merge) moves a
//! charge without charging it again; dropping the reservation releases
//! both gauges.
//!
//! Charged as they grow, after every batch: the rows a breaker drains
//! ([`TaskContext::drain`](crate::TaskContext::drain): sort, gather, join
//! build sides, the merge's local skylines), held resized to what it keeps
//! of them; skyline windows; `MinMaxFilterExec` candidates; the
//! `DistinctExec` seen-set; aggregation tables; disk block payloads. A
//! held partition or finished skyline releases each batch's charge as it
//! emits the batch, so a consumer that drains it charges those rows once.
//! A query's result is not charged: `ExecutionPlan::execute` hands it to
//! the caller.
//!
//! Two jobs share the tracker. First, *measurement*: it keeps the
//! high-water mark of reserved bytes, reproducing the paper's
//! peak-memory charts (Appendix C); a fixed per-executor overhead models
//! its observation that "every single executor must include the entire
//! execution environment of Spark". Second, *enforcement*: a tracker built
//! with [`MemoryTracker::with_budget`] denies any reservation or growth
//! that would push `current_bytes` past the budget with
//! [`Error::ResourceExhausted`], counting one `budget_denials`. There is
//! no unchecked path: a tracker without a budget admits everything, a
//! tracker with one admits nothing past it. The budget caps the sum of
//! concurrent reservations, and a query's executors reserve concurrently,
//! so near its peak whether a query passes depends on how they
//! interleave. A denied query fails; nothing re-runs it.
//!
//! Accounting is RAII throughout: an error unwinding through an operator
//! — I/O failure, timeout, cancellation, budget denial — leaves
//! `current_bytes == 0` and `rows_in_flight == 0` once the query's streams
//! are dropped. Releases saturate at zero and debug-assert on imbalance,
//! so an over-release (a bug) can't wrap the gauge and poison every later
//! budget decision.
//!
//! [`Error::ResourceExhausted`]: sparkline_common::Error::ResourceExhausted

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sparkline_common::{Error, Result};

use crate::metrics::ExecMetrics;

/// Tracks current and peak reserved bytes for one query execution, with
/// an optional hard budget.
#[derive(Debug, Default)]
pub struct MemoryTracker {
    current: AtomicUsize,
    peak: AtomicUsize,
    budget: Option<usize>,
}

impl MemoryTracker {
    /// Fresh tracker without a budget (measurement only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tracker enforcing `budget` bytes across all live reservations;
    /// `None` is equivalent to [`MemoryTracker::new`].
    pub fn with_budget(budget: Option<usize>) -> Self {
        MemoryTracker {
            budget,
            ..Self::default()
        }
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Admit `bytes` only if the gauge stays within the budget,
    /// atomically (concurrent reservations cannot jointly overshoot).
    fn charge(&self, bytes: usize) -> Result<()> {
        let mut current = self.current.load(Ordering::Relaxed);
        loop {
            let new = current.saturating_add(bytes);
            if let Some(budget) = self.budget.filter(|&budget| new > budget) {
                return Err(Error::ResourceExhausted {
                    requested: bytes,
                    used: current,
                    budget,
                });
            }
            match self.current.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Release `bytes`. Saturates at zero: an over-release (releasing more
    /// than is currently reserved) is an accounting bug and trips a debug
    /// assertion, but must not wrap the gauge in release builds — a
    /// wrapped `current` would make every later budget check admit
    /// unbounded reservations.
    fn release(&self, bytes: usize) {
        let result = self
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
                Some(current.saturating_sub(bytes))
            });
        debug_assert!(
            result.unwrap_or(0) >= bytes,
            "memory accounting imbalance: releasing {bytes} bytes with only \
             {} reserved",
            result.unwrap_or(0),
        );
    }

    /// Currently reserved bytes.
    pub fn current_bytes(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark of data buffers.
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Peak including the per-executor environment overhead (the quantity
    /// the paper's memory charts report).
    pub fn peak_with_overhead(&self, num_executors: usize, overhead_per_executor: usize) -> usize {
        self.peak_bytes() + num_executors * overhead_per_executor
    }
}

/// RAII handle for one buffer an operator holds: its bytes on the
/// tracker, its rows on the `rows_in_flight` gauge. Drop releases both.
#[derive(Debug)]
pub struct MemoryReservation {
    tracker: Arc<MemoryTracker>,
    metrics: Arc<ExecMetrics>,
    rows: usize,
    bytes: usize,
}

impl MemoryReservation {
    /// An empty reservation; it charges as it grows.
    pub(crate) fn new(tracker: &Arc<MemoryTracker>, metrics: &Arc<ExecMetrics>) -> Self {
        MemoryReservation {
            tracker: Arc::clone(tracker),
            metrics: Arc::clone(metrics),
            rows: 0,
            bytes: 0,
        }
    }

    /// Follow the buffer to `rows` rows and `bytes` bytes (a skyline
    /// window grows and shrinks as batches fold in). Only growth is
    /// budget-checked; a denial counts one `budget_denials` and leaves the
    /// reservation at its current size.
    pub fn try_resize(&mut self, rows: usize, bytes: usize) -> Result<()> {
        if bytes > self.bytes {
            self.tracker
                .charge(bytes - self.bytes)
                .inspect_err(|_| self.metrics.add_budget_denial())?;
        } else {
            self.tracker.release(self.bytes - bytes);
        }
        self.bytes = bytes;
        if rows > self.rows {
            self.metrics.add_rows_in_flight(rows - self.rows);
        } else {
            self.metrics.sub_rows_in_flight(self.rows - rows);
        }
        self.rows = rows;
        Ok(())
    }

    /// Take over `other`'s rows and bytes, charging nothing again.
    pub fn merge(&mut self, mut other: MemoryReservation) {
        debug_assert!(Arc::ptr_eq(&self.tracker, &other.tracker));
        self.rows += std::mem::take(&mut other.rows);
        self.bytes += std::mem::take(&mut other.bytes);
    }

    /// Rows held by this reservation.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes held by this reservation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.tracker.release(self.bytes);
        self.metrics.sub_rows_in_flight(self.rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskContext;

    fn rows_in_flight(ctx: &TaskContext) -> usize {
        ctx.metrics.rows_in_flight.load(Ordering::Relaxed)
    }

    fn reserve(ctx: &TaskContext, rows: usize, bytes: usize) -> Result<MemoryReservation> {
        let mut reservation = ctx.reservation();
        reservation.try_resize(rows, bytes)?;
        Ok(reservation)
    }

    #[test]
    fn peak_survives_release() {
        let ctx = TaskContext::new(1);
        {
            let _r1 = reserve(&ctx, 10, 1000).unwrap();
            let _r2 = reserve(&ctx, 5, 500).unwrap();
            assert_eq!(ctx.memory.current_bytes(), 1500);
            assert_eq!(rows_in_flight(&ctx), 15);
        }
        assert_eq!(ctx.memory.current_bytes(), 0);
        assert_eq!(rows_in_flight(&ctx), 0);
        assert_eq!(ctx.memory.peak_bytes(), 1500);
        assert_eq!(ctx.metrics.snapshot().peak_rows_in_flight, 15);
    }

    #[test]
    fn reservation_growth() {
        let ctx = TaskContext::new(1);
        let mut r = reserve(&ctx, 1, 100).unwrap();
        r.try_resize(3, 150).unwrap();
        assert_eq!((r.rows(), r.bytes()), (3, 150));
        assert_eq!(ctx.memory.current_bytes(), 150);
        // Shrinking releases the difference and keeps the peaks.
        r.try_resize(2, 40).unwrap();
        assert_eq!(ctx.memory.current_bytes(), 40);
        assert_eq!(rows_in_flight(&ctx), 2);
        drop(r);
        assert_eq!(ctx.memory.current_bytes(), 0);
        assert_eq!(rows_in_flight(&ctx), 0);
        assert_eq!(ctx.memory.peak_bytes(), 150);
        assert_eq!(ctx.metrics.snapshot().peak_rows_in_flight, 3);
    }

    #[test]
    fn merge_moves_a_charge_without_recharging_it() {
        let ctx = TaskContext::new(1).with_memory_budget(Some(100));
        let mut a = reserve(&ctx, 2, 40).unwrap();
        a.merge(reserve(&ctx, 3, 60).unwrap());
        assert_eq!((a.rows(), a.bytes()), (5, 100));
        // The budget is full and nothing was denied.
        assert_eq!(ctx.memory.current_bytes(), 100);
        assert_eq!(rows_in_flight(&ctx), 5);
        assert_eq!(ctx.metrics.snapshot().budget_denials, 0);
        drop(a);
        assert_eq!(ctx.memory.current_bytes(), 0);
        assert_eq!(rows_in_flight(&ctx), 0);
    }

    #[test]
    fn overhead_scales_with_executors() {
        let t = MemoryTracker::new();
        t.charge(10).unwrap();
        assert_eq!(t.peak_with_overhead(5, 1000), 10 + 5000);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "imbalance"))]
    fn shrink_saturates_instead_of_wrapping() {
        let t = MemoryTracker::new();
        t.charge(10).unwrap();
        // Over-release: debug builds assert, release builds saturate.
        t.release(25);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn budget_denies_past_the_cap() {
        let ctx = TaskContext::new(1).with_memory_budget(Some(1000));
        let r = reserve(&ctx, 8, 800).unwrap();
        let err = reserve(&ctx, 3, 300).unwrap_err();
        assert_eq!(
            err,
            Error::ResourceExhausted {
                requested: 300,
                used: 800,
                budget: 1000,
            }
        );
        // The denied reservation reserved nothing, rows included.
        assert_eq!(ctx.memory.current_bytes(), 800);
        assert_eq!(rows_in_flight(&ctx), 8);
        assert_eq!(ctx.metrics.snapshot().budget_denials, 1);
        drop(r);
        assert_eq!(ctx.memory.current_bytes(), 0);
        // Released bytes are admissible again.
        assert!(reserve(&ctx, 0, 1000).is_ok());
    }

    #[test]
    fn try_resize_denial_keeps_reservation_size() {
        let ctx = TaskContext::new(1).with_memory_budget(Some(100));
        let mut r = reserve(&ctx, 6, 60).unwrap();
        assert!(r.try_resize(9, 90).is_ok());
        assert!(r.try_resize(12, 120).unwrap_err().is_resource_exhausted());
        assert_eq!((r.rows(), r.bytes()), (9, 90));
        assert_eq!(rows_in_flight(&ctx), 9);
        assert_eq!(ctx.metrics.snapshot().budget_denials, 1);
        // Shrinking is never denied.
        assert!(r.try_resize(1, 10).is_ok());
        drop(r);
        assert_eq!(ctx.memory.current_bytes(), 0);
        assert_eq!(rows_in_flight(&ctx), 0);
    }

    #[test]
    fn no_budget_try_paths_never_deny() {
        let ctx = TaskContext::new(1);
        let mut r = reserve(&ctx, 0, usize::MAX / 4).unwrap();
        assert!(r.try_resize(0, usize::MAX / 2).is_ok());
        assert!(ctx.memory.budget().is_none());
        assert_eq!(ctx.metrics.snapshot().budget_denials, 0);
    }
}
