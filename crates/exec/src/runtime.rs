//! The executor pool: a thread-based stand-in for Spark's executors,
//! with the partition-retry semantics that make Spark's model viable.
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
//! invalidates work that already completed.
//!
//! [`Runtime::drain_streams_with_retry`] layers Spark's lineage story on
//! top: each partition stream is drained inside a bounded retry loop, and
//! when a drain fails with a *retryable* error ([`Error::is_retryable`] —
//! in this engine, injected transient faults), the partition is recomputed
//! from its source via the caller-supplied `recreate` factory (re-running
//! `execute_stream` on the immutable plan subtree) with capped linear
//! backoff whose wait is cancel/deadline-aware ([`retry_loop`]). Retries
//! are per-partition and happen inside the owning task, so sibling
//! partitions are never recomputed. Fatal errors (timeout, cancellation,
//! budget denial, real execution errors) surface immediately.
//!
//! The query [`Deadline`] and cancellation handle live in
//! `sparkline_common::control` (re-exported here) so the skyline kernels
//! below this crate can observe them inside their hot loops.

use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::Mutex;
use sparkline_common::{Error, Result};

pub use sparkline_common::control::{
    Deadline, QueryControl, CONTROL_CHECK_ROWS, MAX_BACKOFF_MULTIPLIER,
};

/// Run `run` on `state`, retrying retryable failures up to `max_retries`
/// times with capped, cancel/deadline-aware backoff — the one retry loop
/// shared by every lineage-recomputation site (stream drains here, the
/// incremental incomplete-leaf consumption in the physical layer).
///
/// On a retryable error with budget left, `recover(attempt, &error)` is
/// called first (metrics notification + rebuilding the state from its
/// immutable source), then the loop waits `backoff * attempt` via
/// [`QueryControl::backoff_wait`] — the multiplier capped at
/// [`MAX_BACKOFF_MULTIPLIER`], the wait sliced so a cancel or deadline
/// expiry aborts it within milliseconds instead of parking a shared
/// worker (the failure mode that matters once a server multiplexes many
/// queries onto one pool). Fatal errors, exhausted budgets, and aborted
/// waits surface immediately.
pub fn retry_loop<S, T, F, R>(
    control: &QueryControl,
    max_retries: u32,
    backoff: Duration,
    state: S,
    mut run: F,
    mut recover: R,
) -> Result<T>
where
    F: FnMut(S) -> Result<T>,
    R: FnMut(u32, &Error) -> Result<S>,
{
    let mut current = state;
    let mut attempt = 0u32;
    loop {
        match run(current) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt < max_retries => {
                attempt += 1;
                let next = recover(attempt, &e)?;
                control.backoff_wait(backoff, attempt)?;
                current = next;
            }
            Err(e) => return Err(e),
        }
    }
}

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

    /// Drain a set of partition streams concurrently, one stream per
    /// executor slot — the fan-out point of the stream model: a pipeline
    /// breaker (or the final collect) pulls all upstream pipelines to
    /// completion in parallel, which is where the `num_executors`-way
    /// parallelism of the materialized model re-enters the pull model.
    ///
    /// No retry: a failed partition fails the drain. Use
    /// [`drain_streams_with_retry`](Self::drain_streams_with_retry) (or
    /// `TaskContext::drain_streams_retrying`, which wires the session's
    /// retry policy) where the streams are re-creatable from their source.
    pub fn drain_streams(
        &self,
        streams: Vec<crate::stream::PartitionStream>,
    ) -> Result<Vec<crate::partition::Partition>> {
        self.map_indexed(streams, |_, stream| stream.drain())
    }

    /// Drain partition streams with bounded per-partition retry.
    ///
    /// When partition `i` fails with a retryable error and fewer than
    /// `max_retries` attempts have been burned, `on_retry(i, error)` is
    /// notified (metrics hook), `recreate(i)` rebuilds the stream from its
    /// source, and the task waits `attempt * backoff` — multiplier capped,
    /// the wait aborted early by `control`'s cancel flag or deadline (see
    /// [`retry_loop`]). The retry loop runs inside partition `i`'s own
    /// task: sibling partitions keep draining (and keep their results)
    /// undisturbed.
    pub fn drain_streams_with_retry<R, N>(
        &self,
        streams: Vec<crate::stream::PartitionStream>,
        control: &QueryControl,
        max_retries: u32,
        backoff: Duration,
        recreate: R,
        on_retry: N,
    ) -> Result<Vec<crate::partition::Partition>>
    where
        R: Fn(usize) -> Result<crate::stream::PartitionStream> + Sync,
        N: Fn(usize, &Error) + Sync,
    {
        self.map_indexed(streams, |i, stream| {
            retry_loop(
                control,
                max_retries,
                backoff,
                stream,
                |s| s.drain(),
                |_, e| {
                    on_retry(i, e);
                    recreate(i)
                },
            )
        })
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
    use crate::metrics::ExecMetrics;
    use crate::stream::PartitionStream;
    use sparkline_common::{DataType, Field, Row, Schema, SchemaRef, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("x", DataType::Int64, false)]).into_ref()
    }

    /// A stream that fails with a retryable error until `fail_left`
    /// attempts have been burned, then yields one row.
    fn flaky_stream(
        metrics: &Arc<ExecMetrics>,
        attempts: Arc<AtomicUsize>,
        fail_first: usize,
    ) -> PartitionStream {
        let metrics = Arc::clone(metrics);
        PartitionStream::new(schema(), Arc::clone(&metrics), move || {
            let n = attempts.fetch_add(1, Ordering::SeqCst);
            if n < fail_first {
                Err(Error::Injected {
                    site: "scan",
                    partition: 0,
                    seq: n as u64,
                })
            } else {
                Ok(None)
            }
        })
    }

    #[test]
    fn retry_recomputes_only_the_failed_partition() {
        let rt = Runtime::new(2);
        let metrics = Arc::new(ExecMetrics::new());
        let attempts = Arc::new(AtomicUsize::new(0));
        let recreations = Arc::new(AtomicUsize::new(0));
        let streams = vec![
            flaky_stream(&metrics, Arc::clone(&attempts), 2),
            PartitionStream::from_partition(
                schema(),
                Arc::clone(&metrics),
                4,
                vec![Row::new(vec![Value::Int64(7)])],
                false,
            ),
        ];
        let retried = Arc::new(AtomicUsize::new(0));
        let out = rt
            .drain_streams_with_retry(
                streams,
                &QueryControl::unlimited(),
                3,
                Duration::ZERO,
                |i| {
                    assert_eq!(i, 0, "only the flaky partition is recreated");
                    recreations.fetch_add(1, Ordering::SeqCst);
                    Ok(flaky_stream(&metrics, Arc::clone(&attempts), 2))
                },
                |_, e| {
                    assert!(e.is_retryable());
                    retried.fetch_add(1, Ordering::SeqCst);
                },
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].is_empty());
        assert_eq!(out[1].len(), 1);
        assert_eq!(retried.load(Ordering::SeqCst), 2);
        assert_eq!(recreations.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_fault() {
        let rt = Runtime::new(1);
        let metrics = Arc::new(ExecMetrics::new());
        // Fails forever: every recreation fails again.
        let make = |metrics: &Arc<ExecMetrics>| {
            let metrics = Arc::clone(metrics);
            PartitionStream::new(schema(), metrics, move || {
                Err(Error::Injected {
                    site: "scan",
                    partition: 0,
                    seq: 0,
                })
            })
        };
        let err = rt
            .drain_streams_with_retry(
                vec![make(&metrics)],
                &QueryControl::unlimited(),
                2,
                Duration::ZERO,
                |_| Ok(make(&metrics)),
                |_, _| {},
            )
            .unwrap_err();
        assert!(err.is_retryable(), "{err}");
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let rt = Runtime::new(1);
        let metrics = Arc::new(ExecMetrics::new());
        let stream = PartitionStream::new(schema(), Arc::clone(&metrics), move || {
            Err(Error::execution("deterministic failure"))
        });
        let recreations = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&recreations);
        let err = rt
            .drain_streams_with_retry(
                vec![stream],
                &QueryControl::unlimited(),
                5,
                Duration::ZERO,
                move |_| {
                    r2.fetch_add(1, Ordering::SeqCst);
                    Err(Error::internal("recreate must not be called"))
                },
                |_, _| {},
            )
            .unwrap_err();
        assert_eq!(err, Error::execution("deterministic failure"));
        assert_eq!(recreations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn retry_backoff_wait_aborts_on_cancel() {
        // A retryable failure with an enormous backoff: the cancel lands
        // while the worker waits out the backoff, and the drain surfaces
        // Cancelled promptly instead of parking for the full wait.
        let rt = Runtime::new(1);
        let metrics = Arc::new(ExecMetrics::new());
        let attempts = Arc::new(AtomicUsize::new(0));
        let stream = flaky_stream(&metrics, Arc::clone(&attempts), 1);
        let control = QueryControl::unlimited();
        let clone = control.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            clone.cancel();
        });
        let start = std::time::Instant::now();
        let err = rt
            .drain_streams_with_retry(
                vec![stream],
                &control,
                3,
                Duration::from_secs(30),
                |_| Ok(flaky_stream(&metrics, Arc::clone(&attempts), 1)),
                |_, _| {},
            )
            .unwrap_err();
        canceller.join().unwrap();
        assert!(err.is_cancelled(), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
