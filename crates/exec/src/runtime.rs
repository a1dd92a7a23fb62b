//! The executor pool: a thread-based stand-in for Spark's executors.
//!
//! `num_executors` worker threads process partitions concurrently — the
//! same parallelism model the paper sweeps in its `--num-executors`
//! experiments (§6.4, Figures 6/7): the local skyline phase and the
//! merge tasks of the global phase scale with executors, while
//! `AllTuples` phases run on a single executor.
//!
//! # Failure semantics
//!
//! [`Runtime::map_indexed`] is fail-fast: the first task error stops the
//! pool from *starting* new tasks, and that error propagates to the
//! caller. Finished sibling tasks keep their results — a failure never
//! invalidates work that already completed. Nothing is retried: an
//! executor here is a thread of the query's own process, so the loss of
//! an executor process, which Spark's lineage recomputation recovers
//! from, cannot happen, and a retry of any error that can (I/O, budget
//! denial, timeout, cancellation) would fail the same way again. The
//! error surfaces as is.
//!
//! The query [`Deadline`] and cancellation handle live in
//! `sparkline_common::control` (re-exported here) so the skyline kernels
//! below this crate can observe them inside their hot loops.

use std::collections::VecDeque;

use parking_lot::Mutex;
use sparkline_common::{Error, Result};

pub use sparkline_common::control::{Deadline, QueryControl, CONTROL_CHECK_ROWS};

/// The executor pool.
#[derive(Debug, Clone)]
pub struct Runtime {
    num_executors: usize,
}

impl Runtime {
    /// Pool with `n >= 1` executors.
    pub fn new(num_executors: usize) -> Self {
        assert!(num_executors >= 1, "at least one executor required");
        Runtime { num_executors }
    }

    /// Number of executors (also the default partition count).
    pub fn num_executors(&self) -> usize {
        self.num_executors
    }

    /// Run `task` over every input concurrently on up to `num_executors`
    /// executors, preserving input order in the result. The first error
    /// wins; remaining tasks are drained without being run.
    pub fn map_indexed<I, O, F>(&self, inputs: Vec<I>, task: F) -> Result<Vec<O>>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> Result<O> + Sync,
    {
        let n_tasks = inputs.len();
        if n_tasks == 0 {
            return Ok(Vec::new());
        }
        let workers = self.num_executors.min(n_tasks);
        if workers <= 1 {
            return inputs
                .into_iter()
                .enumerate()
                .map(|(i, input)| task(i, input))
                .collect();
        }

        let queue: Mutex<VecDeque<(usize, I)>> =
            Mutex::new(inputs.into_iter().enumerate().collect());
        let results: Mutex<Vec<Option<Result<O>>>> =
            Mutex::new((0..n_tasks).map(|_| None).collect());
        let failed = std::sync::atomic::AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if failed.load(std::sync::atomic::Ordering::Relaxed) {
                        return;
                    }
                    let next = queue.lock().pop_front();
                    let Some((index, input)) = next else {
                        return;
                    };
                    let outcome = task(index, input);
                    if outcome.is_err() {
                        failed.store(true, std::sync::atomic::Ordering::Relaxed);
                    }
                    results.lock()[index] = Some(outcome);
                });
            }
        });

        let collected = results.into_inner();
        let mut out = Vec::with_capacity(n_tasks);
        for slot in collected {
            match slot {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => return Err(e),
                // Task skipped because another one failed first.
                None => {
                    return Err(Error::internal(
                        "task skipped after failure without reported error",
                    ))
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::PartitionStream;
    use sparkline_common::{DataType, Field, Schema};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn maps_in_order() {
        let rt = Runtime::new(4);
        let out = rt
            .map_indexed((0..100).collect(), |i, x: i32| Ok(x * 2 + i as i32))
            .unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out[10], 30);
    }

    #[test]
    fn single_executor_is_sequential() {
        let rt = Runtime::new(1);
        let counter = AtomicUsize::new(0);
        let out = rt
            .map_indexed((0..10).collect::<Vec<i32>>(), |_, x| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(x)
            })
            .unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn parallelism_is_bounded_by_executors() {
        let rt = Runtime::new(3);
        let active = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        rt.map_indexed((0..50).collect::<Vec<i32>>(), |_, x| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            max_seen.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(300));
            active.fetch_sub(1, Ordering::SeqCst);
            Ok(x)
        })
        .unwrap();
        assert!(max_seen.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn first_error_propagates() {
        let rt = Runtime::new(4);
        let result: Result<Vec<i32>> = rt.map_indexed((0..20).collect::<Vec<i32>>(), |_, x| {
            if x == 7 {
                Err(Error::execution("boom"))
            } else {
                Ok(x)
            }
        });
        assert!(result.is_err());
    }

    #[test]
    fn empty_input() {
        let rt = Runtime::new(4);
        let out: Vec<i32> = rt.map_indexed(Vec::<i32>::new(), |_, x| Ok(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn deadline_checks() {
        let d = Deadline::new(Some(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        let err = d.check().unwrap_err();
        assert!(err.is_timeout());
        assert!(Deadline::unlimited().check().is_ok());
        assert!(Deadline::new(Some(Duration::from_secs(60))).check().is_ok());
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        // A failed partition fails the drain with its own error, pulled
        // once: nothing recomputes it.
        let ctx = crate::TaskContext::new(1);
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]).into_ref();
        let pulls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&pulls);
        let stream = PartitionStream::new(schema, Arc::clone(&ctx.metrics), move || {
            counted.fetch_add(1, Ordering::SeqCst);
            Err(Error::execution("deterministic failure"))
        });
        let err = ctx.drain(vec![stream]).unwrap_err();
        assert_eq!(err, Error::execution("deterministic failure"));
        assert_eq!(pulls.load(Ordering::SeqCst), 1);
    }
}
