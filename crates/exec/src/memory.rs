//! Byte-accounted memory tracking with enforced per-query budgets.
//!
//! Two jobs share the tracker. First, *measurement*: operators report the
//! buffers they materialize (gathered partitions, hash tables, skyline
//! windows) and the tracker keeps the high-water mark, reproducing the
//! paper's peak-memory charts (Appendix C); a fixed per-executor overhead
//! models its observation that "every single executor must include the
//! entire execution environment of Spark". Second, *enforcement*: a
//! tracker built with [`MemoryTracker::with_budget`] turns
//! [`try_reserve`](MemoryTracker::try_reserve) /
//! [`try_grow`](MemoryTracker::try_grow) into admission checks — a
//! reservation that would push `current_bytes` past the budget is denied
//! with [`Error::ResourceExhausted`] instead of silently growing. The
//! budget caps the sum of concurrent reservations, and a query's executors
//! reserve concurrently, so near its peak whether a query passes depends
//! on how they interleave. A denied query fails; nothing re-runs it.
//!
//! Accounting is RAII throughout: every reservation releases its bytes on
//! drop, so an error unwinding through an operator — I/O failure,
//! timeout, cancellation, budget denial — leaves `current_bytes == 0`
//! once the query's streams are dropped. Releases saturate at zero and
//! debug-assert on imbalance, so an over-release (a bug) can't wrap the
//! gauge and poison every later budget decision.
//!
//! The infallible [`reserve`](MemoryTracker::reserve) /
//! [`grow`](MemoryTracker::grow) remain for measurement-only callers (tests,
//! benches without budgets); budgeted call sites go through the fallible
//! variants — `TaskContext::try_reserve` wires the denial metric on top.
//!
//! [`Error::ResourceExhausted`]: sparkline_common::Error::ResourceExhausted

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sparkline_common::{Error, Result};

/// Tracks current and peak buffered bytes for one query execution, with
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

    /// Record `bytes` of newly materialized buffer space; returns an RAII
    /// reservation that releases on drop. Ignores the budget — prefer
    /// [`try_reserve`](Self::try_reserve) on enforced paths.
    pub fn reserve(self: &Arc<Self>, bytes: usize) -> MemoryReservation {
        self.grow(bytes);
        MemoryReservation {
            tracker: Arc::clone(self),
            bytes,
        }
    }

    /// Budget-checked [`reserve`](Self::reserve): denies the whole
    /// reservation with [`Error::ResourceExhausted`] if it would exceed
    /// the budget, reserving nothing.
    ///
    /// [`Error::ResourceExhausted`]: sparkline_common::Error::ResourceExhausted
    pub fn try_reserve(self: &Arc<Self>, bytes: usize) -> Result<MemoryReservation> {
        self.try_grow(bytes)?;
        Ok(MemoryReservation {
            tracker: Arc::clone(self),
            bytes,
        })
    }

    /// Raw accounting (prefer [`MemoryTracker::reserve`]).
    pub fn grow(&self, bytes: usize) {
        let new = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(new, Ordering::Relaxed);
    }

    /// Budget-checked raw growth: admits `bytes` only if the gauge stays
    /// within the budget, atomically (concurrent reservations cannot
    /// jointly overshoot).
    pub fn try_grow(&self, bytes: usize) -> Result<()> {
        let Some(budget) = self.budget else {
            self.grow(bytes);
            return Ok(());
        };
        let mut current = self.current.load(Ordering::Relaxed);
        loop {
            let new = current.saturating_add(bytes);
            if new > budget {
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

    /// Raw release. Saturates at zero: an over-release (releasing more
    /// than is currently reserved) is an accounting bug and trips a debug
    /// assertion, but must not wrap the gauge in release builds — a
    /// wrapped `current` would make every later budget check admit
    /// unbounded reservations.
    pub fn shrink(&self, bytes: usize) {
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

/// RAII guard for a tracked buffer; releases its bytes on drop.
#[derive(Debug)]
pub struct MemoryReservation {
    tracker: Arc<MemoryTracker>,
    bytes: usize,
}

impl MemoryReservation {
    /// Grow this reservation by `bytes` (e.g. as a window expands),
    /// ignoring the budget.
    pub fn grow(&mut self, bytes: usize) {
        self.tracker.grow(bytes);
        self.bytes += bytes;
    }

    /// Budget-checked [`grow`](Self::grow): on denial the reservation
    /// keeps its current size.
    pub fn try_grow(&mut self, bytes: usize) -> Result<()> {
        self.tracker.try_grow(bytes)?;
        self.bytes += bytes;
        Ok(())
    }

    /// Bytes held by this reservation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.tracker.shrink(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_survives_release() {
        let t = Arc::new(MemoryTracker::new());
        {
            let _r1 = t.reserve(1000);
            let _r2 = t.reserve(500);
            assert_eq!(t.current_bytes(), 1500);
        }
        assert_eq!(t.current_bytes(), 0);
        assert_eq!(t.peak_bytes(), 1500);
    }

    #[test]
    fn reservation_growth() {
        let t = Arc::new(MemoryTracker::new());
        let mut r = t.reserve(100);
        r.grow(50);
        assert_eq!(r.bytes(), 150);
        assert_eq!(t.current_bytes(), 150);
        drop(r);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn overhead_scales_with_executors() {
        let t = MemoryTracker::new();
        t.grow(10);
        assert_eq!(t.peak_with_overhead(5, 1000), 10 + 5000);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "imbalance"))]
    fn shrink_saturates_instead_of_wrapping() {
        let t = MemoryTracker::new();
        t.grow(10);
        // Over-release: debug builds assert, release builds saturate.
        t.shrink(25);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn budget_denies_past_the_cap() {
        let t = Arc::new(MemoryTracker::with_budget(Some(1000)));
        let r = t.try_reserve(800).unwrap();
        let err = t.try_reserve(300).unwrap_err();
        assert_eq!(
            err,
            Error::ResourceExhausted {
                requested: 300,
                used: 800,
                budget: 1000,
            }
        );
        // The denied reservation reserved nothing.
        assert_eq!(t.current_bytes(), 800);
        drop(r);
        assert_eq!(t.current_bytes(), 0);
        // Released bytes are admissible again.
        assert!(t.try_reserve(1000).is_ok());
    }

    #[test]
    fn try_grow_denial_keeps_reservation_size() {
        let t = Arc::new(MemoryTracker::with_budget(Some(100)));
        let mut r = t.try_reserve(60).unwrap();
        assert!(r.try_grow(30).is_ok());
        assert!(r.try_grow(30).unwrap_err().is_resource_exhausted());
        assert_eq!(r.bytes(), 90);
        drop(r);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn no_budget_try_paths_never_deny() {
        let t = Arc::new(MemoryTracker::new());
        let mut r = t.try_reserve(usize::MAX / 4).unwrap();
        assert!(r.try_grow(usize::MAX / 4).is_ok());
        assert!(t.budget().is_none());
    }
}
