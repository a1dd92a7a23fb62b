//! Pull-based batched execution streams — the substrate of the engine's
//! streaming model.
//!
//! A physical operator returns one [`PartitionStream`] per output
//! partition. A stream is a
//! pull iterator yielding batches of at most
//! `SessionConfig::batch_size` rows, plus the output schema and
//! close/metrics hooks. A batch is a [`Batch`]: a [`RowBatch`], or a
//! [`ColumnBatch`] — column buffers with a selection vector, which the
//! in-memory and disk scans yield. [`PartitionStream::next_batch`] hands every consumer
//! rows, building them from a column batch's selected rows, so an
//! operator that does not read columns never sees one;
//! [`PartitionStream::pull_batch`] hands over the batch as produced, for
//! the consumers that do (the local skyline) and for pass-through
//! adapters. Narrow operators (scan, project, filter, limit,
//! distinct, join probe sides) are pipelined: pulling one batch from the
//! root pulls exactly one batch through the whole chain, so peak memory is
//! `O(batch_size × pipeline depth)` instead of the sum of all
//! intermediates, and `LIMIT k` stops upstream work after
//! `O(k / batch_size)` batches. Pipeline breakers (sort, aggregation,
//! exchange, skyline phases, join build sides) consume their input stream
//! batch-by-batch into their internal state and only then start emitting.
//!
//! Accounting: every yielded batch counts toward
//! `ExecMetrics::batches_emitted` and is held in the
//! `rows_in_flight` gauge until the consumer pulls the next batch (or
//! closes the stream); a buffer an operator holds is one
//! [`MemoryReservation`] from [`TaskContext::reservation`], which charges
//! the same gauge and the memory budget together. The high-water mark is
//! reported as `peak_rows_in_flight`.
//!
//! [`breaker_streams`] and [`LazyBuild`] are the two sharing primitives
//! breakers need: the former computes all output partitions once on first
//! pull (any output stream may be pulled first, from any executor
//! thread), the latter computes a shared build-side structure once.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use sparkline_common::{ColumnBatch, Error, Result, Row, SchemaRef};

use crate::memory::MemoryReservation;
use crate::metrics::ExecMetrics;
use crate::partition::Partition;
use crate::TaskContext;

/// A batch of rows flowing through the stream pipeline.
pub type RowBatch = Vec<Row>;

/// One batch as a producer yields it: rows, or column buffers whose
/// selected rows are the batch.
#[derive(Debug)]
pub enum Batch {
    /// Materialized rows.
    Rows(RowBatch),
    /// Column buffers and a selection vector.
    Columns(ColumnBatch),
}

impl Batch {
    /// Rows in the batch (the selected rows of a column batch).
    pub fn len(&self) -> usize {
        match self {
            Batch::Rows(rows) => rows.len(),
            Batch::Columns(columns) => columns.len(),
        }
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The batch as rows, built from the buffers for a column batch.
    pub fn into_rows(self) -> RowBatch {
        match self {
            Batch::Rows(rows) => rows,
            Batch::Columns(columns) => columns.into_rows(),
        }
    }
}

/// Default rows per batch (`SessionConfig::batch_size`).
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// One output partition of an operator: a pull iterator over row batches
/// with the partition's schema and metric accounting attached.
///
/// The stream releases the previously yielded batch from the in-flight
/// gauge on every pull (the pull protocol means the consumer is done with
/// it) and registers the new one; [`close`](Self::close) / `Drop` release
/// the last batch and drop the producer state (which recursively drops
/// upstream streams — this is what makes `LIMIT` cancel upstream work).
pub struct PartitionStream {
    schema: SchemaRef,
    metrics: Arc<ExecMetrics>,
    outstanding: usize,
    done: bool,
    /// Pass-through adapters (e.g. [`chain_streams`]) skip the
    /// batch/in-flight accounting: their batches are the wrapped streams'
    /// batches, already counted there.
    accounted: bool,
    next: Box<dyn FnMut() -> Result<Option<Batch>> + Send>,
}

impl fmt::Debug for PartitionStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartitionStream")
            .field("outstanding", &self.outstanding)
            .field("done", &self.done)
            .finish()
    }
}

impl PartitionStream {
    /// Stream over a producer closure. The closure yields `Ok(Some(_))`
    /// per batch and `Ok(None)` at end-of-partition.
    pub fn new(
        schema: SchemaRef,
        metrics: Arc<ExecMetrics>,
        mut next: impl FnMut() -> Result<Option<RowBatch>> + Send + 'static,
    ) -> Self {
        PartitionStream::of_batches(schema, metrics, move || Ok(next()?.map(Batch::Rows)))
    }

    /// Stream over a producer of [`Batch`]es, rows or columns.
    pub fn of_batches(
        schema: SchemaRef,
        metrics: Arc<ExecMetrics>,
        next: impl FnMut() -> Result<Option<Batch>> + Send + 'static,
    ) -> Self {
        PartitionStream {
            schema,
            metrics,
            outstanding: 0,
            done: false,
            accounted: true,
            next: Box::new(next),
        }
    }

    /// Like [`of_batches`](Self::of_batches) but without batch/in-flight
    /// accounting — for pass-through adapters that merely forward batches
    /// some wrapped stream already counts.
    pub fn new_passthrough(
        schema: SchemaRef,
        metrics: Arc<ExecMetrics>,
        next: impl FnMut() -> Result<Option<Batch>> + Send + 'static,
    ) -> Self {
        let mut stream = PartitionStream::of_batches(schema, metrics, next);
        stream.accounted = false;
        stream
    }

    /// An empty partition.
    pub fn empty(schema: SchemaRef, metrics: Arc<ExecMetrics>) -> Self {
        PartitionStream::new(schema, metrics, || Ok(None))
    }

    /// The partition's schema.
    pub fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// Pull the next batch as rows. Returns `Ok(None)` once the partition
    /// is exhausted (and stays exhausted).
    pub fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.pull_batch()?.map(Batch::into_rows))
    }

    /// Pull the next batch as the producer yielded it: a column batch
    /// stays columns.
    pub fn pull_batch(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        self.metrics.sub_rows_in_flight(self.outstanding);
        self.outstanding = 0;
        match (self.next)() {
            Ok(Some(batch)) => {
                if self.accounted {
                    self.outstanding = batch.len();
                    self.metrics.begin_batch(batch.len());
                }
                Ok(Some(batch))
            }
            Ok(None) => {
                self.finish();
                Ok(None)
            }
            Err(e) => {
                self.finish();
                Err(e)
            }
        }
    }

    /// Close early: release accounting and drop the producer (and with it
    /// the upstream streams) without draining.
    pub fn close(&mut self) {
        self.metrics.sub_rows_in_flight(self.outstanding);
        self.outstanding = 0;
        self.finish();
    }

    fn finish(&mut self) {
        self.done = true;
        // Replace the producer so captured upstream state is freed now,
        // not when the handle happens to be dropped.
        self.next = Box::new(|| Ok(None));
    }

    /// Drain the remaining batches into one partition (the drain helper
    /// used by `ExecutionPlan::execute`, tests, and breakers).
    pub fn drain(mut self) -> Result<Partition> {
        let mut rows: Partition = Vec::new();
        while let Some(batch) = self.next_batch()? {
            rows.extend(batch);
        }
        Ok(rows)
    }
}

impl Drop for PartitionStream {
    fn drop(&mut self) {
        self.metrics.sub_rows_in_flight(self.outstanding);
        self.outstanding = 0;
    }
}

/// Chain several streams into one, preserving stream order — the
/// streaming analogue of `partition::coalesce` for consumers that want a
/// single sequential view.
pub fn chain_streams(
    schema: SchemaRef,
    metrics: Arc<ExecMetrics>,
    streams: Vec<PartitionStream>,
) -> PartitionStream {
    let mut queue: VecDeque<PartitionStream> = streams.into();
    PartitionStream::new_passthrough(schema, metrics, move || loop {
        let Some(front) = queue.front_mut() else {
            return Ok(None);
        };
        match front.pull_batch()? {
            Some(batch) => return Ok(Some(batch)),
            None => {
                queue.pop_front();
            }
        }
    })
}

/// A partition an operator holds: its rows and the one reservation that
/// charges them (see [`TaskContext::drain`]).
pub type HeldPartition = (Partition, MemoryReservation);

/// The next `batch_size` rows of a held partition, their charge released
/// from `held` as they leave: the consumer charges what it keeps, so a
/// drained row is charged once. The last batch releases the rest.
pub fn emit_held(
    rows: &mut std::vec::IntoIter<Row>,
    held: &mut MemoryReservation,
    batch_size: usize,
) -> Result<Option<RowBatch>> {
    let batch: RowBatch = rows.by_ref().take(batch_size).collect();
    let bytes = batch.iter().map(Row::estimated_bytes).sum::<usize>();
    let left = match rows.len() {
        0 => (0, 0),
        _ => (
            held.rows().saturating_sub(batch.len()),
            held.bytes().saturating_sub(bytes),
        ),
    };
    held.try_resize(left.0, left.1)?;
    Ok((!batch.is_empty()).then_some(batch))
}

/// A shared pipeline-breaker stage.
///
/// The first output stream pulled runs `compute` exactly once — producing
/// *all* output partitions — then every output stream emits its own
/// partition in batches. `compute` hands back held partitions: the
/// reservations it drained or folded its input into, resized to what it
/// returns, so nothing is reserved a second time. Each output stream
/// releases its partition's charge batch by batch ([`emit_held`]). An
/// error from `compute` is passed on as it is to every puller: a denial
/// inside it was counted where it happened. Fewer than `n_outputs`
/// partitions are padded with empty ones (partition counts must be fixed
/// before execution in the stream model).
pub fn breaker_streams(
    schema: SchemaRef,
    ctx: &TaskContext,
    n_outputs: usize,
    compute: impl FnOnce() -> Result<Vec<HeldPartition>> + Send + 'static,
) -> Vec<PartitionStream> {
    let n_outputs = n_outputs.max(1);
    let stage = LazyBuild::new(move || {
        let parts = compute()?;
        debug_assert!(
            parts.len() <= n_outputs,
            "breaker produced more partitions than declared"
        );
        Ok(parts
            .into_iter()
            .map(Some)
            .chain(std::iter::repeat_with(|| None))
            .take(n_outputs)
            .map(Mutex::new)
            .collect::<Vec<Mutex<Option<HeldPartition>>>>())
    });
    let batch_size = ctx.batch_size.max(1);
    (0..n_outputs)
        .map(|i| {
            let stage = Arc::clone(&stage);
            let mut slot = None;
            PartitionStream::new(Arc::clone(&schema), Arc::clone(&ctx.metrics), move || {
                if slot.is_none() {
                    let held = stage.get()?[i].lock().take();
                    slot = Some(held.map(|(rows, held)| (rows.into_iter(), held)));
                }
                match slot.as_mut().and_then(Option::as_mut) {
                    Some((rows, held)) => emit_held(rows, held, batch_size),
                    None => Ok(None),
                }
            })
        })
        .collect()
}

enum LazyState<T> {
    Pending(Box<dyn FnOnce() -> Result<T> + Send>),
    Ready(Arc<T>),
    Failed(Error),
}

/// A lazily computed, shared build stage (hash-join build side,
/// nested-loop inner side): the first probe stream that pulls runs the
/// build once; every stream then shares the result.
pub struct LazyBuild<T> {
    state: Mutex<LazyState<T>>,
}

impl<T: Send + Sync> LazyBuild<T> {
    /// Wrap a one-shot build closure.
    pub fn new(build: impl FnOnce() -> Result<T> + Send + 'static) -> Arc<Self> {
        Arc::new(LazyBuild {
            state: Mutex::new(LazyState::Pending(Box::new(build))),
        })
    }

    /// The built value, computing it on first call. A build failure is
    /// replayed (cloned) to every later caller, so the real error — a
    /// timeout in particular — survives whichever stream reports first.
    pub fn get(&self) -> Result<Arc<T>> {
        let mut state = self.state.lock();
        match &*state {
            LazyState::Ready(v) => Ok(Arc::clone(v)),
            LazyState::Failed(e) => Err(e.clone()),
            LazyState::Pending(_) => {
                let placeholder = LazyState::Failed(Error::internal(
                    "shared build stage re-entered while computing",
                ));
                let LazyState::Pending(build) = std::mem::replace(&mut *state, placeholder) else {
                    return Err(Error::internal("shared build stage lost its closure"));
                };
                match build() {
                    Ok(value) => {
                        let value = Arc::new(value);
                        *state = LazyState::Ready(Arc::clone(&value));
                        Ok(value)
                    }
                    Err(e) => {
                        *state = LazyState::Failed(e.clone());
                        Err(e)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{DataType, Field, Schema, Value};
    use std::sync::atomic::Ordering;

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("x", DataType::Int64, false)]).into_ref()
    }

    fn rows(n: usize) -> Partition {
        (0..n)
            .map(|i| Row::new(vec![Value::Int64(i as i64)]))
            .collect()
    }

    /// A stream yielding `part` in chunks of `batch_size` rows.
    fn chunked(m: &Arc<ExecMetrics>, batch_size: usize, part: Partition) -> PartitionStream {
        let mut iter = part.into_iter();
        PartitionStream::new(schema(), Arc::clone(m), move || {
            let batch: RowBatch = iter.by_ref().take(batch_size).collect();
            Ok((!batch.is_empty()).then_some(batch))
        })
    }

    #[test]
    fn buffer_stream_batches_and_accounts() {
        let m = Arc::new(ExecMetrics::new());
        let mut s = chunked(&m, 4, rows(10));
        let mut seen = 0;
        let mut batches = 0;
        while let Some(b) = s.next_batch().unwrap() {
            assert!(b.len() <= 4);
            seen += b.len();
            batches += 1;
        }
        assert_eq!(seen, 10);
        assert_eq!(batches, 3);
        let snap = m.snapshot();
        assert_eq!(snap.batches_emitted, 3);
        assert!(snap.peak_rows_in_flight >= 4);
        assert_eq!(m.rows_in_flight.load(Ordering::Relaxed), 0);
    }

    /// A breaker compute that drains `parts` as streams, as a breaker
    /// drains its input.
    fn drained(
        ctx: &TaskContext,
        parts: Vec<Partition>,
    ) -> impl FnOnce() -> Result<Vec<HeldPartition>> {
        let ctx = ctx.clone();
        let streams = parts
            .into_iter()
            .map(|p| chunked(&ctx.metrics, 3, p))
            .collect();
        move || ctx.drain(streams)
    }

    #[test]
    fn held_buffer_counts_whole_partition() {
        // A breaker's computed partition is held, rows and bytes, while
        // its stream emits it; each emitted batch leaves the charge.
        let row_bytes = rows(1)[0].estimated_bytes();
        let ctx = TaskContext::new(1).with_batch_size(4);
        let mut streams = breaker_streams(schema(), &ctx, 1, drained(&ctx, vec![rows(10)]));
        let in_flight = || ctx.metrics.rows_in_flight.load(Ordering::Relaxed);
        assert_eq!(streams[0].next_batch().unwrap().unwrap().len(), 4);
        assert_eq!(in_flight(), 6 + 4, "the held rest plus the pulled batch");
        assert_eq!(ctx.memory.current_bytes(), 6 * row_bytes);
        assert_eq!(ctx.memory.peak_bytes(), 10 * row_bytes);
        drop(streams);
        assert_eq!(in_flight(), 0);
        assert_eq!(ctx.memory.current_bytes(), 0);
    }

    #[test]
    fn close_releases_without_draining() {
        let m = Arc::new(ExecMetrics::new());
        let mut s = chunked(&m, 4, rows(10));
        let _ = s.next_batch().unwrap();
        assert_eq!(m.rows_in_flight.load(Ordering::Relaxed), 4);
        s.close();
        assert_eq!(m.rows_in_flight.load(Ordering::Relaxed), 0);
        assert!(s.next_batch().unwrap().is_none());
    }

    /// A stream of one 10-row column batch with rows 3..7 selected.
    fn column_stream(m: &Arc<ExecMetrics>) -> PartitionStream {
        let mut batch = sparkline_common::ColumnBatch::new(
            vec![sparkline_common::BatchColumn {
                values: sparkline_common::ColumnValues::Int64((0..10).collect()),
                nulls: None,
            }],
            10,
        );
        batch.set_selection((3..7).collect());
        let mut once = Some(batch);
        PartitionStream::of_batches(schema(), Arc::clone(m), move || {
            Ok(once.take().map(Batch::Columns))
        })
    }

    #[test]
    fn column_batches_become_rows_on_demand_and_release_on_close() {
        let m = Arc::new(ExecMetrics::new());
        assert_eq!(column_stream(&m).drain().unwrap(), rows(7)[3..].to_vec());
        assert_eq!(m.rows_in_flight.load(Ordering::Relaxed), 0);
        // A pulled column batch is in flight as its selected rows, until
        // the stream is closed.
        let mut s = column_stream(&m);
        let Some(Batch::Columns(batch)) = s.pull_batch().unwrap() else {
            panic!("the column batch must pass through as columns");
        };
        assert_eq!(batch.len(), 4);
        assert_eq!(m.rows_in_flight.load(Ordering::Relaxed), 4);
        s.close();
        assert_eq!(m.rows_in_flight.load(Ordering::Relaxed), 0);
        assert!(s.pull_batch().unwrap().is_none());
    }

    #[test]
    fn a_drain_is_charged_batch_by_batch() {
        // Two partitions of 10 rows pulled 3 at a time: each batch is
        // charged as it arrives, so a budget below the input denies the
        // drain once, mid-input, and leaves nothing held.
        let row_bytes = rows(1)[0].estimated_bytes();
        let ctx = TaskContext::new(1).with_memory_budget(Some(8 * row_bytes));
        let pulled = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let streams = [rows(10), rows(10)]
            .into_iter()
            .map(|p| {
                let (pulled, mut inner) = (Arc::clone(&pulled), chunked(&ctx.metrics, 3, p));
                PartitionStream::new(schema(), Arc::clone(&ctx.metrics), move || {
                    let batch = inner.next_batch()?;
                    pulled.fetch_add(batch.as_ref().map_or(0, Vec::len), Ordering::SeqCst);
                    Ok(batch)
                })
            })
            .collect();
        let err = ctx.drain(streams).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        assert_eq!(ctx.metrics.snapshot().budget_denials, 1);
        assert_eq!(pulled.load(Ordering::SeqCst), 9, "the third batch crossed");
        assert_eq!(ctx.memory.current_bytes(), 0);
        assert_eq!(ctx.metrics.rows_in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_failed_drain_stops_its_siblings() {
        // Two 60-row partitions drained at once under a budget of 30 rows:
        // whichever drain crosses it first is denied, and the other stops
        // before its next charge instead of being denied in turn.
        let row_bytes = rows(1)[0].estimated_bytes();
        for _ in 0..50 {
            let ctx = TaskContext::new(2).with_memory_budget(Some(30 * row_bytes));
            let streams = (0..2).map(|_| chunked(&ctx.metrics, 3, rows(60))).collect();
            let err = ctx.drain(streams).unwrap_err();
            assert!(err.is_resource_exhausted(), "{err}");
            assert_eq!(ctx.metrics.snapshot().budget_denials, 1);
            assert_eq!(ctx.memory.current_bytes(), 0);
            assert_eq!(ctx.metrics.rows_in_flight.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn gather_merges_preserving_order() {
        // The gather keeps stream order, and one reservation holds every
        // row.
        let row_bytes = rows(1)[0].estimated_bytes();
        let ctx = TaskContext::new(2);
        let streams = vec![
            chunked(&ctx.metrics, 3, rows(4)),
            chunked(&ctx.metrics, 3, rows(2)),
        ];
        let (gathered, held) = ctx.gather(streams).unwrap();
        assert_eq!(gathered, [rows(4), rows(2)].concat());
        assert_eq!((held.rows(), held.bytes()), (6, 6 * row_bytes));
        assert_eq!(ctx.memory.current_bytes(), 6 * row_bytes);
    }

    #[test]
    fn chained_streams_preserve_order() {
        let m = Arc::new(ExecMetrics::new());
        let parts = vec![rows(3), rows(2)];
        let streams: Vec<PartitionStream> = parts.into_iter().map(|p| chunked(&m, 2, p)).collect();
        let chained = chain_streams(schema(), Arc::clone(&m), streams);
        let all = chained.drain().unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all[3], Row::new(vec![Value::Int64(0)]));
    }

    #[test]
    fn breaker_computes_once_and_pads() {
        let ctx = TaskContext::new(2);
        let count = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let compute = drained(&ctx, vec![rows(5)]);
        let streams = breaker_streams(schema(), &ctx, 3, move || {
            c2.fetch_add(1, Ordering::SeqCst);
            compute()
        });
        assert_eq!(streams.len(), 3);
        let drained: Vec<Partition> = streams.into_iter().map(|s| s.drain().unwrap()).collect();
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(drained[0].len(), 5);
        assert!(drained[1].is_empty() && drained[2].is_empty());
        assert_eq!(ctx.metrics.rows_in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn lazy_build_runs_once() {
        let count = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let build = LazyBuild::new(move || {
            c2.fetch_add(1, Ordering::SeqCst);
            Ok(41usize + 1)
        });
        assert_eq!(*build.get().unwrap(), 42);
        assert_eq!(*build.get().unwrap(), 42);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn lazy_build_error_poisons() {
        let build: Arc<LazyBuild<usize>> = LazyBuild::new(|| Err(Error::execution("boom")));
        assert!(build.get().is_err());
        assert!(build.get().is_err());
    }

    #[test]
    fn breaker_replays_the_real_error_to_every_stream() {
        // A timeout inside the compute closure must surface as a timeout
        // on every output stream, not as a sibling-failure placeholder —
        // the bench harness distinguishes timeouts from hard errors.
        let ctx = TaskContext::new(2);
        let streams = breaker_streams(schema(), &ctx, 3, move || {
            Err(Error::Timeout {
                elapsed_ms: 10,
                limit_ms: 5,
            })
        });
        for mut s in streams {
            let err = s.next_batch().unwrap_err();
            assert!(err.is_timeout(), "{err}");
        }
    }

    #[test]
    fn lazy_build_replays_timeouts() {
        let build: Arc<LazyBuild<usize>> = LazyBuild::new(|| {
            Err(Error::Timeout {
                elapsed_ms: 10,
                limit_ms: 5,
            })
        });
        assert!(build.get().unwrap_err().is_timeout());
        assert!(build.get().unwrap_err().is_timeout(), "replayed clone");
    }
}
