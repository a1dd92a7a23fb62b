//! Cooperative query control: wall-clock deadlines and cancellation.
//!
//! Every operator receives a [`QueryControl`] (via the execution layer's
//! task context) and calls [`QueryControl::check`] at batch/chunk
//! granularity — per pulled batch in streaming operators, every
//! [`CONTROL_CHECK_ROWS`] rows inside the tight skyline admission and
//! merge loops — so a timeout or a `SessionContext::cancel` aborts a
//! running query with bounded staleness, unwinding through `Result` so
//! every RAII memory reservation and in-flight gauge is released.
//!
//! The types live in `sparkline-common` (not the execution crate) because
//! the skyline kernels sit *below* the execution crate in the dependency
//! order and still need to observe deadlines inside their hot loops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

/// How many rows a tight loop may process between two
/// [`QueryControl::check`] calls. Coarse enough that the `Instant::now`
/// cost vanishes against the dominance tests done per chunk, fine enough
/// that timeouts fire within a few thousand rows of the limit.
pub const CONTROL_CHECK_ROWS: usize = 1024;

/// Wall-clock budget for a query (the paper uses 3600 s; the reproduction
/// harness scales this down). Cheap to clone; checked cooperatively by
/// operators.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    limit: Option<Duration>,
}

impl Deadline {
    /// A deadline starting now.
    pub fn new(limit: Option<Duration>) -> Self {
        Deadline {
            started: Instant::now(),
            limit,
        }
    }

    /// Unlimited deadline.
    pub fn unlimited() -> Self {
        Deadline::new(None)
    }

    /// Elapsed time since the query started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Error with [`Error::Timeout`] if the budget is exhausted.
    pub fn check(&self) -> Result<()> {
        if let Some(limit) = self.limit {
            let elapsed = self.started.elapsed();
            if elapsed > limit {
                return Err(Error::Timeout {
                    elapsed_ms: elapsed.as_millis() as u64,
                    limit_ms: limit.as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

/// The per-query control handle: deadline + shared cancellation flag.
///
/// Cancellation is *cooperative*: `SessionContext::cancel` flips the flag,
/// and the next [`check`](QueryControl::check) in any operator unwinds the
/// query with [`Error::Cancelled`]. Cloning shares the flag, so a control
/// captured by a stream closure observes a cancel issued on the session
/// thread.
#[derive(Debug, Clone)]
pub struct QueryControl {
    deadline: Deadline,
    cancelled: Arc<AtomicBool>,
}

impl Default for QueryControl {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl QueryControl {
    /// Control with a deadline and a fresh (un-cancelled) flag.
    pub fn new(deadline: Deadline) -> Self {
        QueryControl {
            deadline,
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Control sharing an externally owned cancellation flag (the
    /// session's), so `cancel()` on the session reaches a running query.
    pub fn with_cancel_flag(deadline: Deadline, cancelled: Arc<AtomicBool>) -> Self {
        QueryControl {
            deadline,
            cancelled,
        }
    }

    /// No deadline, fresh flag.
    pub fn unlimited() -> Self {
        QueryControl::new(Deadline::unlimited())
    }

    /// The wall-clock deadline.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// The shared cancellation flag (for rebuilding a control with a new
    /// deadline without orphaning earlier clones).
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancelled)
    }

    /// Request cancellation; observed at the next cooperative check.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Error with [`Error::Cancelled`] if cancellation was requested, else
    /// with [`Error::Timeout`] if the deadline has passed.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(Error::Cancelled);
        }
        self.deadline.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_checks() {
        let d = Deadline::new(Some(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.check().unwrap_err().is_timeout());
        assert!(Deadline::unlimited().check().is_ok());
        assert!(Deadline::new(Some(Duration::from_secs(60))).check().is_ok());
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let control = QueryControl::unlimited();
        let clone = control.clone();
        assert!(clone.check().is_ok());
        control.cancel();
        assert_eq!(clone.check().unwrap_err(), Error::Cancelled);
        assert!(control.is_cancelled());
    }

    #[test]
    fn cancellation_wins_over_timeout() {
        let control = QueryControl::new(Deadline::new(Some(Duration::from_millis(1))));
        std::thread::sleep(Duration::from_millis(5));
        control.cancel();
        assert_eq!(control.check().unwrap_err(), Error::Cancelled);
    }

    #[test]
    fn external_flag_reaches_the_control() {
        let flag = Arc::new(AtomicBool::new(false));
        let control = QueryControl::with_cancel_flag(Deadline::unlimited(), Arc::clone(&flag));
        assert!(control.check().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert!(control.check().unwrap_err().is_cancelled());
    }
}
