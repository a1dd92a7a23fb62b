//! Physical skyline operators (paper §5.5–§5.7):
//!
//! * [`LocalSkylineExec`] — distributed local skyline: each executor runs
//!   the Block-Nested-Loop algorithm on its partition. In incomplete mode
//!   it additionally groups the partition's tuples by null bitmap first, so
//!   correctness never depends on how the exchange mapped bitmaps to
//!   executors (Lemma 5.1 applies per bitmap class).
//! * [`GlobalSkylineExec`] — complete-data global skyline over the local
//!   skylines: the one-round pairwise cross-filter merge (every local
//!   skyline filtered against every other, one task per partition on the
//!   executor pool) or the hierarchical k-way tree merge that applies the
//!   same primitive group by group (see [`MergeStrategy`]).
//! * [`IncompleteGlobalSkylineExec`] — global skyline over the per-class
//!   local skylines of incomplete data: either the paper's single-executor
//!   all-pairs pass with deferred deletion (immune to cyclic dominance,
//!   Appendix A) or the bitmap-class-aware hierarchical merge, whose
//!   partial results carry their deferred-deletion sets as traveling
//!   witnesses (see `sparkline_skyline::incomplete`).
//! * [`MinMaxFilterExec`] — the O(n) single-dimension rewrite target
//!   (§5.4): two linear passes, keeping optimum tuples (and NULL tuples,
//!   which are incomparable and hence skyline members).

use std::collections::HashSet;
use std::sync::Arc;

use sparkline_common::{
    DominanceKernel, Error, MergeStrategy, QueryControl, Result, Row, SchemaRef, SkylineSpec,
    Value, CONTROL_CHECK_ROWS,
};
use sparkline_exec::{
    partition::{flatten, total_rows},
    stream::breaker_streams,
    FaultSite, InFlightRows, Partition, PartitionStream, TaskContext,
};
use sparkline_plan::{Expr, MinMaxDirection};
use sparkline_skyline::{
    cross_filter, incomplete_global_skyline, kernel_label, merge_incomplete_partials_kernel,
    sfs_skyline_kernel, BnlBuilder, ColumnarBlock, CrossFilterScratch, Dominance, DominanceChecker,
    GroupedBnlBuilder, IncompletePartial, IncompletePartialBuilder, RepresentativeFilter,
    SkylineStats,
};

use crate::ExecutionPlan;

/// The incremental consumer of one skyline phase: input batches are fed
/// straight into the phase's algorithm state — the columnar kernel's
/// encode-once BNL window, the per-bitmap-class window map, or (for the
/// sort-based variants, which inherently need all rows) a plain buffer.
enum SkylineSink {
    /// Complete-data BNL window (scalar or columnar).
    Bnl(Box<BnlBuilder>),
    /// Sort-Filter-Skyline: buffers, then sorts and scans at finish.
    Sfs {
        rows: Vec<Row>,
        checker: DominanceChecker,
        kernel: DominanceKernel,
    },
    /// Incomplete local phase: one BNL window per null-bitmap class.
    Grouped(GroupedBnlBuilder),
    /// Incomplete global phase: buffers for the all-pairs deferred-
    /// deletion pass.
    AllPairs {
        rows: Vec<Row>,
        checker: DominanceChecker,
    },
}

impl SkylineSink {
    /// Fold one batch into the phase state, checking the query control at
    /// [`CONTROL_CHECK_ROWS`] granularity inside the window sinks (whose
    /// admission loops do the dominance work; the buffering sinks only
    /// append and rely on the per-batch check in the stream loop).
    fn push_batch_checked(&mut self, batch: Vec<Row>, control: &QueryControl) -> Result<()> {
        match self {
            SkylineSink::Bnl(b) => b.push_batch_checked(batch, control),
            SkylineSink::Grouped(g) => g.push_batch_checked(batch, control),
            SkylineSink::Sfs { rows, .. } | SkylineSink::AllPairs { rows, .. } => {
                rows.extend(batch);
                Ok(())
            }
        }
    }

    /// Rows currently buffered (the phase's working-set size — for the
    /// BNL sinks this is the running skyline, not the consumed input).
    fn buffered(&self) -> usize {
        match self {
            SkylineSink::Bnl(b) => b.window_len(),
            SkylineSink::Grouped(g) => g.window_len(),
            SkylineSink::Sfs { rows, .. } | SkylineSink::AllPairs { rows, .. } => rows.len(),
        }
    }

    /// Whether the sink buffers its raw input (the sort-based and
    /// all-pairs variants) rather than folding it into a window.
    fn buffers_input(&self) -> bool {
        matches!(self, SkylineSink::Sfs { .. } | SkylineSink::AllPairs { .. })
    }

    fn finish(self, ctx: &TaskContext) -> Result<(Vec<Row>, SkylineStats)> {
        match self {
            SkylineSink::Bnl(b) => Ok(b.finish()),
            SkylineSink::Grouped(g) => Ok(g.finish()),
            SkylineSink::Sfs {
                rows,
                checker,
                kernel,
            } => {
                let mut stats = SkylineStats::default();
                let result = sfs_skyline_kernel(rows, &checker, &mut stats, kernel);
                Ok((result, stats))
            }
            SkylineSink::AllPairs { rows, checker } => {
                let mut stats = SkylineStats::default();
                let candidates = rows.len();
                let result = incomplete_global_with_deadline(rows, &checker, &mut stats, ctx)?;
                // Every dropped candidate carried a deferred-deletion flag
                // until this final filter.
                ctx.metrics
                    .add_deferred_deletions((candidates - result.len()) as u64);
                Ok((result, stats))
            }
        }
    }
}

/// One skyline phase as a stream: pull the input streams (in order) to
/// exhaustion feeding the sink, record the stats, then emit the resulting
/// skyline in batches. The in-flight gauge follows the sink's working
/// set, so a BNL phase charges only its window — the memory story that
/// makes the streamed local phase survive inputs the materialized model
/// cannot hold.
fn skyline_phase_stream(
    schema: SchemaRef,
    ctx: &TaskContext,
    part: usize,
    inputs: Vec<PartitionStream>,
    sink: SkylineSink,
) -> PartitionStream {
    let ctx = ctx.clone();
    let batch_size = ctx.batch_size.max(1);
    let mut input =
        sparkline_exec::stream::chain_streams(schema.clone(), Arc::clone(&ctx.metrics), inputs);
    let mut sink = Some(sink);
    let mut guard = InFlightRows::new(Arc::clone(&ctx.metrics), 0);
    // Byte accounting mirrors the row gauge: buffering sinks charge their
    // input as it accumulates, every sink charges its result while it is
    // being emitted. Growth is budget-checked: a phase whose buffer would
    // exceed the query's memory budget fails with `ResourceExhausted`
    // instead of allocating past the limit.
    let mut reservation = Some(ctx.memory.reserve(0));
    let mut seq = 0u64;
    let mut emit: Option<std::vec::IntoIter<Row>> = None;
    PartitionStream::new(schema, Arc::clone(&ctx.metrics), move || loop {
        if let Some(iter) = emit.as_mut() {
            let batch: Vec<Row> = iter.by_ref().take(batch_size).collect();
            if batch.is_empty() {
                guard.set(0);
                reservation.take();
                return Ok(None);
            }
            return Ok(Some(batch));
        }
        ctx.control.check()?;
        match input.next_batch()? {
            Some(batch) => {
                ctx.maybe_inject(FaultSite::SkylineSink, part, seq)?;
                seq += 1;
                let sink = sink
                    .as_mut()
                    .ok_or_else(|| Error::internal("skyline sink gone while input remains"))?;
                if sink.buffers_input() {
                    if let Some(r) = reservation.as_mut() {
                        ctx.try_grow(r, batch.iter().map(Row::estimated_bytes).sum())?;
                    }
                }
                sink.push_batch_checked(batch, &ctx.control)?;
                guard.set(sink.buffered());
            }
            None => {
                // The sink consumes its buffer into the result; release
                // the input reservation before charging the output so the
                // two are not double counted.
                reservation.take();
                let (rows, stats) = sink
                    .take()
                    .ok_or_else(|| Error::internal("skyline sink finished twice"))?
                    .finish(&ctx)?;
                record_stats(&ctx, &stats);
                guard.set(rows.len());
                reservation = Some(ctx.try_reserve(rows.iter().map(Row::estimated_bytes).sum())?);
                emit = Some(rows.into_iter());
            }
        }
    })
}

fn record_stats(ctx: &TaskContext, stats: &SkylineStats) {
    ctx.metrics.add_dominance_tests(stats.dominance_tests);
    ctx.metrics
        .add_dominance_breakdown(stats.batched_tests, stats.scalar_tests);
    ctx.metrics
        .add_kernel_breakdown(stats.simd_tests, stats.multi_candidate_passes);
    ctx.metrics.add_sfs_fallbacks(stats.sfs_fallbacks);
    ctx.metrics.observe_window(stats.max_window);
}

/// The EXPLAIN fragment naming the operator's compare kernel: empty for
/// the scalar path, `", vectorized: simd(avx2), lanes=8"`-style otherwise.
fn kernel_fragment(kernel: DominanceKernel) -> String {
    if kernel.is_vectorized() {
        format!(", vectorized: {}", kernel_label(kernel))
    } else {
        String::new()
    }
}

/// How a complete-data skyline phase computes its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkylineAlgo {
    /// Block-Nested-Loop window (the paper's algorithm, §5.6).
    Bnl,
    /// Sort-Filter-Skyline: presorted, insert-only window (the §7
    /// future-work extension).
    SortFilter,
}

/// Distributed local skyline phase.
#[derive(Debug)]
pub struct LocalSkylineExec {
    spec: SkylineSpec,
    incomplete: bool,
    algo: SkylineAlgo,
    kernel: DominanceKernel,
    input: Arc<dyn ExecutionPlan>,
}

impl LocalSkylineExec {
    /// Local skyline with the chosen dominance relation (BNL windows).
    pub fn new(spec: SkylineSpec, incomplete: bool, input: Arc<dyn ExecutionPlan>) -> Self {
        LocalSkylineExec {
            spec,
            incomplete,
            algo: SkylineAlgo::Bnl,
            kernel: DominanceKernel::Auto,
            input,
        }
    }

    /// Local Sort-Filter-Skyline (complete data only).
    pub fn sort_filter(spec: SkylineSpec, input: Arc<dyn ExecutionPlan>) -> Self {
        LocalSkylineExec {
            spec,
            incomplete: false,
            algo: SkylineAlgo::SortFilter,
            kernel: DominanceKernel::Auto,
            input,
        }
    }

    /// Choose the compare kernel (builder-style).
    pub fn with_kernel(mut self, kernel: DominanceKernel) -> Self {
        self.kernel = kernel;
        self
    }
}

impl ExecutionPlan for LocalSkylineExec {
    fn name(&self) -> &'static str {
        "LocalSkylineExec"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = crate::input_streams(&self.input, ctx)?;
        let checker = if self.incomplete {
            DominanceChecker::incomplete(self.spec.clone())
        } else {
            DominanceChecker::complete(self.spec.clone())
        };
        Ok(inputs
            .into_iter()
            .enumerate()
            .map(|(part, input)| {
                let sink = if self.incomplete {
                    // Route by null bitmap inside the partition: within one
                    // class the restricted dominance relation is transitive,
                    // so plain BNL is sound (paper §5.7) — and because a
                    // class shares its NULL positions, every column is
                    // uniformly NULL or non-NULL, exactly what the columnar
                    // kernel encodes.
                    SkylineSink::Grouped(GroupedBnlBuilder::with_kernel(
                        checker.clone(),
                        self.kernel,
                    ))
                } else if self.algo == SkylineAlgo::SortFilter {
                    SkylineSink::Sfs {
                        rows: Vec::new(),
                        checker: checker.clone(),
                        kernel: self.kernel,
                    }
                } else {
                    SkylineSink::Bnl(Box::new(BnlBuilder::with_kernel(
                        checker.clone(),
                        self.kernel,
                    )))
                };
                skyline_phase_stream(self.schema(), ctx, part, vec![input], sink)
            })
            .collect())
    }

    fn describe(&self) -> String {
        format!(
            "LocalSkylineExec [{} dims, {}{}{}{}]",
            self.spec.dims.len(),
            if self.incomplete {
                "incomplete"
            } else {
                "complete"
            },
            if self.algo == SkylineAlgo::SortFilter {
                ", SFS"
            } else {
                ""
            },
            if self.spec.distinct { ", distinct" } else { "" },
            kernel_fragment(self.kernel),
        )
    }
}

/// Global skyline for complete data over the local skylines.
///
/// Two merge strategies (selected by the planner through
/// [`MergeStrategy`]), both built on the antichain identity of
/// `sparkline_skyline::bnl` — for skylines `A`, `B`,
/// *skyline(A ∪ B) = (A \ dominated-by-B) ++ (B \ dominated-by-A)*:
///
/// * **Flat** — one round, no gather. The operator drains its input
///   partitions (the local skylines) in parallel, encodes each once into a
///   [`ColumnarBlock`] sorted by score key, and runs one task per
///   partition on the executor pool: task *i* cross-filters `L_i`, in
///   arrival order, against every other `L_j` ([`cross_filter`]:
///   one-directional, early exit, eight candidates per block walk, each
///   walk probing `L_j`'s lowest-key rows first and stopping at the first
///   chunk whose leading key exceeds the candidate's — a dominator's key
///   never does). The result is the survivors concatenated in partition
///   order, each partition's in arrival order. Soundness: a row of `L_i` is in the global skyline iff no row
///   of any partition dominates it; inside `L_i` nothing does (it is a
///   skyline), and a dominator in `L_j` that is itself dominated elsewhere
///   still proves the row dominated (transitivity), so testing against
///   the *unfiltered* `L_j` is exact and the tasks are independent — no
///   task waits for another's output. Byte-identity with the paper's
///   single-executor BNL pass over the `AllTuples` gather of the same
///   partitions: order-preserving BNL yields the skyline members of its
///   input in arrival order, which for the concatenation `L_0 ++ L_1 ++ …`
///   is exactly "survivors in partition order". `SKYLINE OF DISTINCT`
///   additionally keeps the first of each group of dims-identical rows:
///   within a partition the local phase already did, across partitions a
///   sequential pass over the (small) merged result does — a later
///   duplicate of a surviving row survives the strict cross-filter too, so
///   deduplicating the survivors is deduplicating the skyline. SFS cannot
///   merge pairwise (it re-sorts): it streams the chained inputs through
///   one sink, as does any plan that hands this operator a single
///   partition (non-distributed plans keep the `AllTuples` gather).
/// * **Hierarchical** — a k-way tree merge: partitions are combined in
///   groups of `fan_in` per round, each group on its own executor, until
///   one partition remains. Inside a group the same pairwise cross-filter
///   runs sequentially. Because every merge returns the skyline members of
///   its group in partition order, the tree merge is row-for-row identical
///   to the flat merge no matter how rounds interleave; only the
///   wall-clock distribution of the dominance tests changes. SFS merges
///   yield the same *set* — the final round re-sorts by monotone score,
///   but when `sfs_skyline`'s non-numeric fallback engages, the fallback's
///   BNL order depends on arrival order and may differ from the flat
///   plan's. Round and task counts are reported through `exec::metrics`
///   (the flat merge is one round of one task per non-empty partition).
///
/// Input contract: with **more than one input partition** both BNL merges
/// require every partition to already be a skyline (the planner guarantees
/// this — a `LocalSkylineExec` always sits below, and later rounds consume
/// earlier merge outputs), because a partition is never tested against
/// itself; debug builds spot-check it. A **single** input partition (a
/// gather, or a one-partition child) may hold anything: it streams through
/// an ordinary BNL window.
#[derive(Debug)]
pub struct GlobalSkylineExec {
    spec: SkylineSpec,
    algo: SkylineAlgo,
    merge: MergeStrategy,
    kernel: DominanceKernel,
    input: Arc<dyn ExecutionPlan>,
}

impl GlobalSkylineExec {
    /// Flat global complete skyline: the pairwise merge over the input's
    /// partitions (the planner feeds it the local skylines directly), or a
    /// streaming pass when the input is a single partition.
    pub fn new(spec: SkylineSpec, input: Arc<dyn ExecutionPlan>) -> Self {
        GlobalSkylineExec {
            spec,
            algo: SkylineAlgo::Bnl,
            merge: MergeStrategy::Flat,
            kernel: DominanceKernel::Auto,
            input,
        }
    }

    /// Flat global Sort-Filter-Skyline.
    pub fn sort_filter(spec: SkylineSpec, input: Arc<dyn ExecutionPlan>) -> Self {
        GlobalSkylineExec {
            spec,
            algo: SkylineAlgo::SortFilter,
            merge: MergeStrategy::Flat,
            kernel: DominanceKernel::Auto,
            input,
        }
    }

    /// Choose the merge strategy (builder-style). A hierarchical fan-in
    /// below 2 cannot shrink the partition count and is clamped to 2.
    pub fn with_merge(mut self, merge: MergeStrategy) -> Self {
        self.merge = clamp_fan_in(merge);
        self
    }

    /// Choose the compare kernel (builder-style).
    pub fn with_kernel(mut self, kernel: DominanceKernel) -> Self {
        self.kernel = kernel;
        self
    }
}

/// A merge strategy whose hierarchical fan-in is at least 2 (a group of
/// one merges nothing, so the rounds would never terminate).
fn clamp_fan_in(merge: MergeStrategy) -> MergeStrategy {
    match merge {
        MergeStrategy::Hierarchical { fan_in } => MergeStrategy::Hierarchical {
            fan_in: fan_in.max(2),
        },
        flat => flat,
    }
}

/// Local skylines encoded once for the pairwise cross-filter merge: the
/// row partitions, in arrival order, plus, on a vectorized kernel knob,
/// each partition's columnar encoding **sorted by score key** — so every
/// candidate probes a partition's strongest rows first and stops at the
/// score bound (`sparkline_skyline::bnl`, "The score-ordered window"). A
/// block demoted to scalar fallback stays unsorted; the primitive routes
/// around it.
struct EncodedSkylines {
    checker: DominanceChecker,
    parts: Vec<Partition>,
    blocks: Vec<Option<ColumnarBlock>>,
}

/// How many leading rows of each partition the debug-build contract check
/// compares pairwise.
const ANTICHAIN_SPOT_CHECK_ROWS: usize = 32;

impl EncodedSkylines {
    fn new(checker: DominanceChecker, kernel: DominanceKernel, parts: Vec<Partition>) -> Self {
        debug_assert!(
            parts.iter().all(|p| {
                let head = &p[..p.len().min(ANTICHAIN_SPOT_CHECK_ROWS)];
                head.iter()
                    .all(|a| head.iter().all(|b| !checker.dominates(a, b)))
            }),
            "pairwise merge input partition is not a skyline"
        );
        let blocks = parts
            .iter()
            .map(|part| {
                kernel.is_vectorized().then(|| {
                    let mut block = ColumnarBlock::for_checker_with(&checker, kernel);
                    part.iter().for_each(|row| block.push(row));
                    // Only the block is reordered: the cross-filter never
                    // indexes the rows through it, and the survivor masks
                    // stay in the partition's arrival order.
                    block.sort_by_key();
                    block
                })
            })
            .collect();
        EncodedSkylines {
            checker,
            parts,
            blocks,
        }
    }

    /// Pairwise task `i`: which rows of partition `i` no row of any other
    /// partition strictly dominates. Cancel and deadline are observed
    /// every [`CONTROL_CHECK_ROWS`] candidates of every pair.
    fn survivors(
        &self,
        ctx: &TaskContext,
        i: usize,
        stats: &mut SkylineStats,
    ) -> Result<Vec<bool>> {
        let cands = &self.parts[i];
        let mut alive = vec![true; cands.len()];
        let mut scratch = CrossFilterScratch::default();
        for (j, against) in self.parts.iter().enumerate() {
            if j == i {
                continue;
            }
            for (cands, alive) in cands
                .chunks(CONTROL_CHECK_ROWS)
                .zip(alive.chunks_mut(CONTROL_CHECK_ROWS))
            {
                ctx.control.check()?;
                cross_filter(
                    &self.checker,
                    cands,
                    alive,
                    against,
                    self.blocks[j].as_ref(),
                    &mut scratch,
                    stats,
                );
            }
        }
        Ok(alive)
    }

    /// The merged skyline: each partition's survivors, in partition order;
    /// under `DISTINCT` only the first of every group of dims-identical
    /// rows (the partitions are internally distinct already, so this only
    /// removes cross-partition duplicates). As in the BNL window, a row
    /// with a NULL-like dimension is not even `Equal` to itself and is
    /// never deduplicated.
    fn finish(self, alive: Vec<Vec<bool>>) -> Partition {
        let checker = &self.checker;
        let mut seen = HashSet::new();
        self.parts
            .into_iter()
            .zip(alive)
            .flat_map(|(part, alive)| part.into_iter().zip(alive))
            .filter_map(|(row, alive)| alive.then_some(row))
            .filter(|row| {
                !checker.distinct()
                    || checker.compare(row, row) != Dominance::Equal
                    || seen.insert(checker.dim_values(row))
            })
            .collect()
    }
}

/// The pairwise cross-filter merge of `parts` (each a skyline): encode
/// once, one task per partition — fanned over the executor pool when
/// `parallel`, in turn otherwise (a hierarchical merge task already owns
/// one executor) — survivors concatenated in partition order.
fn pairwise_merge(
    ctx: &TaskContext,
    spec: &SkylineSpec,
    kernel: DominanceKernel,
    parts: Vec<Partition>,
    parallel: bool,
) -> Result<Partition> {
    ctx.control.check()?;
    if parts.len() <= 1 {
        // Nothing to merge against: a lone local skyline is the result.
        return Ok(parts.into_iter().next().unwrap_or_default());
    }
    if parallel {
        // The flat merge is one round of its own; a hierarchical group's
        // round is counted by the round scheduler.
        ctx.metrics.add_merge_round(parts.len());
    }
    let bytes = parts.iter().flatten().map(Row::estimated_bytes).sum();
    let reservation = ctx.try_reserve(bytes)?;
    let encoded = EncodedSkylines::new(DominanceChecker::complete(spec.clone()), kernel, parts);
    let task = |i: usize| {
        let mut stats = SkylineStats::default();
        let alive = encoded.survivors(ctx, i, &mut stats)?;
        Ok((alive, stats))
    };
    let tasks: Vec<usize> = (0..encoded.parts.len()).collect();
    let outcomes: Vec<(Vec<bool>, SkylineStats)> = if parallel {
        ctx.runtime.map_indexed(tasks, |i, _| {
            // A lost pairwise task fails the stage; the consumer's retry
            // path recomputes the subtree from lineage.
            ctx.maybe_inject(FaultSite::Merge, i, 0)?;
            task(i)
        })?
    } else {
        tasks.into_iter().map(task).collect::<Result<_>>()?
    };
    let mut stats = SkylineStats::default();
    let mut alive = Vec::with_capacity(outcomes.len());
    for (mask, task_stats) in outcomes {
        stats.merge(&task_stats);
        alive.push(mask);
    }
    let merged = encoded.finish(alive);
    drop(reservation);
    stats.max_window = merged.len();
    record_stats(ctx, &stats);
    Ok(merged)
}

/// One k-way merge task of the hierarchical strategy. Every partition of
/// the group is a skyline (a local skyline or an earlier round's output),
/// so BNL groups merge by pairwise cross-filter on this task's executor;
/// SFS re-sorts the concatenated group.
fn merge_group(
    ctx: &TaskContext,
    spec: &SkylineSpec,
    algo: SkylineAlgo,
    kernel: DominanceKernel,
    group: Vec<Partition>,
) -> Result<Partition> {
    if algo == SkylineAlgo::Bnl {
        return pairwise_merge(ctx, spec, kernel, group, false);
    }
    ctx.control.check()?;
    let checker = DominanceChecker::complete(spec.clone());
    let mut stats = SkylineStats::default();
    let rows = flatten(group);
    let reservation = ctx.try_reserve(rows.iter().map(Row::estimated_bytes).sum())?;
    let merged = sfs_skyline_kernel(rows, &checker, &mut stats, kernel);
    drop(reservation);
    record_stats(ctx, &stats);
    Ok(merged)
}

/// The k-way round scheduler shared by the complete and incomplete
/// hierarchical merges: combine `parts` in groups of `fan_in` per round,
/// each group merged by `merge` on its own executor, until at most one
/// remains. A trailing singleton group is already a merged result —
/// carrying it over unchanged skips a useless re-scan, so only real merges
/// count as tasks (and toward `merge_rounds` / `max_merge_fanout`).
fn kway_merge_rounds<T: Send>(
    ctx: &TaskContext,
    mut parts: Vec<T>,
    fan_in: usize,
    merge: impl Fn(Vec<T>) -> Result<T> + Sync,
) -> Result<Option<T>> {
    let mut round = 0u64;
    while parts.len() > 1 {
        ctx.control.check()?;
        let groups: Vec<Vec<T>> = {
            let mut groups = Vec::with_capacity(parts.len().div_ceil(fan_in));
            let mut iter = parts.into_iter().peekable();
            while iter.peek().is_some() {
                groups.push(iter.by_ref().take(fan_in).collect());
            }
            groups
        };
        let merging = groups.iter().filter(|g| g.len() > 1).count();
        ctx.metrics.add_merge_round(merging);
        parts = ctx.runtime.map_indexed(groups, |gi, mut group| {
            if group.len() == 1 {
                return group
                    .pop()
                    .ok_or_else(|| Error::internal("empty merge group"));
            }
            // A lost merge task fails the stage; the consumer's retry
            // path recomputes the subtree from lineage.
            ctx.maybe_inject(FaultSite::Merge, gi, round)?;
            merge(group)
        })?;
        round += 1;
    }
    Ok(parts.pop())
}

impl ExecutionPlan for GlobalSkylineExec {
    fn name(&self) -> &'static str {
        "GlobalSkylineExec"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = crate::input_streams(&self.input, ctx)?;
        let streamed = self.algo == SkylineAlgo::SortFilter || inputs.len() <= 1;
        if self.merge == MergeStrategy::Flat && streamed {
            // One partition (a gather, or a one-partition child) or SFS:
            // feed the input batches straight into an unseeded sink — the
            // input need not be a skyline, and the only buffered state is
            // the BNL window itself. SFS must buffer: it re-sorts.
            let checker = DominanceChecker::complete(self.spec.clone());
            let sink = if self.algo == SkylineAlgo::SortFilter {
                SkylineSink::Sfs {
                    rows: Vec::new(),
                    checker,
                    kernel: self.kernel,
                }
            } else {
                SkylineSink::Bnl(Box::new(BnlBuilder::with_kernel(checker, self.kernel)))
            };
            return Ok(vec![skyline_phase_stream(
                self.schema(),
                ctx,
                0,
                inputs,
                sink,
            )]);
        }
        // A breaker: the input streams (each a local skyline pipeline) are
        // drained in parallel over the executor pool, then merged — in one
        // pairwise round, or in k-way rounds.
        let spec = self.spec.clone();
        let algo = self.algo;
        let kernel = self.kernel;
        let merge = self.merge;
        let ctx2 = ctx.clone();
        let input_plan = Arc::clone(&self.input);
        Ok(breaker_streams(self.schema(), ctx, 1, move || {
            // Transient faults in a local-skyline pipeline are recovered
            // per partition: recompute only the failed stream from the
            // input plan's lineage.
            let expected = inputs.len();
            let input = ctx2.drain_streams_retrying(inputs, |i| {
                crate::recreate_partition_stream(input_plan.as_ref(), &ctx2, expected, i)
            })?;
            ctx2.control.check()?;
            let parts: Vec<Partition> = input.into_iter().filter(|p| !p.is_empty()).collect();
            let merged = match merge {
                MergeStrategy::Flat => {
                    // The local skylines gathered here are what the
                    // `AllTuples` exchange used to move.
                    ctx2.metrics.rows_exchanged.fetch_add(
                        total_rows(&parts) as u64,
                        std::sync::atomic::Ordering::Relaxed,
                    );
                    pairwise_merge(&ctx2, &spec, kernel, parts, true)?
                }
                MergeStrategy::Hierarchical { fan_in } => {
                    kway_merge_rounds(&ctx2, parts, fan_in, |group| {
                        merge_group(&ctx2, &spec, algo, kernel, group)
                    })?
                    .unwrap_or_default()
                }
            };
            Ok(vec![merged])
        }))
    }

    fn describe(&self) -> String {
        let merge = match self.merge {
            MergeStrategy::Flat if self.algo == SkylineAlgo::Bnl => ", pairwise merge".to_string(),
            MergeStrategy::Flat => String::new(),
            MergeStrategy::Hierarchical { fan_in } => {
                format!(", hierarchical fan-in {fan_in}")
            }
        };
        format!(
            "GlobalSkylineExec [{} dims{}{}{}{}]",
            self.spec.dims.len(),
            if self.algo == SkylineAlgo::SortFilter {
                ", SFS"
            } else {
                ""
            },
            if self.spec.distinct { ", distinct" } else { "" },
            merge,
            kernel_fragment(self.kernel),
        )
    }
}

/// Representative-point pre-filter (adaptive plans): tests every scanned
/// tuple against a small broadcast set of sample-skyline points and drops
/// the strictly dominated ones before they reach the exchange or any BNL
/// window — Ciaccia & Martinenghi's representative filtering, complementing
/// the grid partitioner's cell pruning exactly where the grid is weakest
/// (correlation structures no axis-aligned cell captures).
///
/// A pipelined narrow operator: each partition stream encodes the filter
/// set once into the columnar kernel (`sparkline_skyline::prefilter`) and
/// filters batch-at-a-time, so the stream model's memory story is
/// unchanged. Sound only under the complete-data relation — the planner
/// never inserts this node for the incomplete family (see the prefilter
/// module docs). Dropped rows flow into `prefilter_rows_dropped`; the
/// planner's sample size is surfaced as `sample_rows`.
#[derive(Debug)]
pub struct SkylinePreFilterExec {
    spec: SkylineSpec,
    points: Arc<Vec<Row>>,
    sample_rows: usize,
    kernel: DominanceKernel,
    input: Arc<dyn ExecutionPlan>,
}

impl SkylinePreFilterExec {
    /// Pre-filter with `points` (the capped sample skyline) computed by
    /// the planner from a `sample_rows`-row reservoir sample.
    pub fn new(
        spec: SkylineSpec,
        points: Vec<Row>,
        sample_rows: usize,
        input: Arc<dyn ExecutionPlan>,
    ) -> Self {
        SkylinePreFilterExec {
            spec,
            points: Arc::new(points),
            sample_rows,
            kernel: DominanceKernel::Auto,
            input,
        }
    }

    /// Choose the compare kernel (builder-style).
    pub fn with_kernel(mut self, kernel: DominanceKernel) -> Self {
        self.kernel = kernel;
        self
    }
}

impl ExecutionPlan for SkylinePreFilterExec {
    fn name(&self) -> &'static str {
        "SkylinePreFilterExec"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = crate::input_streams(&self.input, ctx)?;
        ctx.metrics.note_sample_rows(self.sample_rows as u64);
        Ok(inputs
            .into_iter()
            .map(|mut input| {
                let mut filter = RepresentativeFilter::with_kernel(
                    self.points.as_ref().clone(),
                    &self.spec,
                    self.kernel,
                );
                let ctx = ctx.clone();
                PartitionStream::new(self.schema(), Arc::clone(&ctx.metrics), move || loop {
                    ctx.control.check()?;
                    let Some(batch) = input.next_batch()? else {
                        return Ok(None);
                    };
                    let mut stats = SkylineStats::default();
                    let (kept, dropped) = filter.retain_batch(batch, &mut stats);
                    record_stats(&ctx, &stats);
                    ctx.metrics.add_prefilter_dropped(dropped);
                    // Like FilterExec: keep pulling until something
                    // survives, so downstream never sees empty batches.
                    if !kept.is_empty() {
                        return Ok(Some(kept));
                    }
                })
            })
            .collect())
    }

    fn describe(&self) -> String {
        format!(
            "SkylinePreFilterExec [{} representative points from {} sampled rows{}]",
            self.points.len(),
            self.sample_rows,
            kernel_fragment(self.kernel),
        )
    }
}

/// Global skyline for (potentially) incomplete data (§5.7 / Appendix A).
///
/// Two merge strategies, mirroring [`GlobalSkylineExec`]:
///
/// * **Flat** — the paper's plan: every candidate is gathered onto one
///   executor (`AllTuples`) for the all-pairs deferred-deletion pass —
///   the engine's last serial bottleneck before this operator learned to
///   tree-merge.
/// * **Hierarchical** — the bitmap-class-aware tree merge: each input
///   partition is consumed incrementally into an
///   [`IncompletePartialBuilder`] (per-class BNL windows + cross-class
///   flag closure), and the resulting [`IncompletePartial`]s — per-class
///   candidate windows plus the deferred-deletion set that must keep
///   traveling as dominance witnesses — are combined in k-way rounds over
///   the executor pool. The leaf builders *fuse the local phase*: the
///   planner feeds this operator the null-bitmap exchange directly (no
///   `LocalSkylineExec` below, whose window work the leaves would only
///   repeat), and input that already is a per-class local skyline passes
///   through the leaf windows unchanged. Byte-identical to the flat pass
///   (same rows, same order — see `sparkline_skyline::incomplete` for the
///   argument); `merge_rounds` / `merge_tasks` / `deferred_deletions` /
///   `classes_merged` flow through `exec::metrics`.
#[derive(Debug)]
pub struct IncompleteGlobalSkylineExec {
    spec: SkylineSpec,
    merge: MergeStrategy,
    kernel: DominanceKernel,
    /// Planner-provided note on how the merge strategy was chosen
    /// (adaptive plans); rendered in EXPLAIN.
    plan_note: Option<String>,
    input: Arc<dyn ExecutionPlan>,
}

impl IncompleteGlobalSkylineExec {
    /// Flat global incomplete skyline; the planner feeds it a single
    /// partition via an `AllTuples` exchange.
    pub fn new(spec: SkylineSpec, input: Arc<dyn ExecutionPlan>) -> Self {
        IncompleteGlobalSkylineExec {
            spec,
            merge: MergeStrategy::Flat,
            kernel: DominanceKernel::Auto,
            plan_note: None,
            input,
        }
    }

    /// Choose the merge strategy (builder-style). A hierarchical fan-in
    /// below 2 is clamped to 2, as in [`GlobalSkylineExec::with_merge`].
    pub fn with_merge(mut self, merge: MergeStrategy) -> Self {
        self.merge = clamp_fan_in(merge);
        self
    }

    /// Choose the compare kernel of the tree merge (builder-style; the
    /// flat all-pairs pass is scalar either way).
    pub fn with_kernel(mut self, kernel: DominanceKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Attach the planner's merge-selection note for EXPLAIN.
    pub fn with_plan_note(mut self, note: Option<String>) -> Self {
        self.plan_note = note;
        self
    }
}

impl ExecutionPlan for IncompleteGlobalSkylineExec {
    fn name(&self) -> &'static str {
        "IncompleteGlobalSkylineExec"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = crate::input_streams(&self.input, ctx)?;
        match self.merge {
            MergeStrategy::Flat => {
                // The all-pairs pass needs every candidate buffered; the
                // sink consumes the gathered stream batch-by-batch and
                // runs the deadline-chunked flag loop at finish.
                let sink = SkylineSink::AllPairs {
                    rows: Vec::new(),
                    checker: DominanceChecker::incomplete(self.spec.clone()),
                };
                Ok(vec![skyline_phase_stream(
                    self.schema(),
                    ctx,
                    0,
                    inputs,
                    sink,
                )])
            }
            MergeStrategy::Hierarchical { fan_in } => {
                let spec = self.spec.clone();
                let kernel = self.kernel;
                let ctx2 = ctx.clone();
                let input_plan = Arc::clone(&self.input);
                Ok(breaker_streams(self.schema(), ctx, 1, move || {
                    let checker = DominanceChecker::incomplete(spec.clone());
                    // Leaf phase (parallel over the pool): consume each
                    // input partition stream incrementally into a
                    // per-class partial. The builder fuses the local phase
                    // — its per-class windows plus one batch are the only
                    // buffered state while the stream drains, which the
                    // in-flight gauge charges like any other window sink.
                    // A transient fault mid-stream restarts only this
                    // leaf: the stream is recomputed from the input plan's
                    // lineage and the builder starts over, up to the
                    // context's retry budget.
                    let expected = inputs.len();
                    let mut parts: Vec<IncompletePartial> =
                        ctx2.runtime.map_indexed(inputs, |i, stream| {
                            sparkline_exec::retry_loop(
                                &ctx2.control,
                                ctx2.max_retries,
                                ctx2.retry_backoff,
                                stream,
                                |mut s| {
                                    consume_incomplete_partial(&ctx2, &checker, kernel, i, &mut s)
                                },
                                |_, _| {
                                    ctx2.metrics.add_retry_attempted();
                                    crate::recreate_partition_stream(
                                        input_plan.as_ref(),
                                        &ctx2,
                                        expected,
                                        i,
                                    )
                                },
                            )
                        })?;
                    parts.retain(|p| !p.is_empty());
                    // k-way rounds, exactly like the complete tree merge;
                    // deferred candidates travel with their partial.
                    let merged = kway_merge_rounds(&ctx2, parts, fan_in, |group| {
                        ctx2.control.check()?;
                        let mut stats = SkylineStats::default();
                        let mut iter = group.into_iter();
                        let mut acc = iter
                            .next()
                            .ok_or_else(|| Error::internal("empty merge group"))?;
                        for next in iter {
                            acc = merge_incomplete_partials_kernel(
                                acc, next, &checker, kernel, &mut stats,
                            );
                        }
                        record_stats(&ctx2, &stats);
                        Ok(acc)
                    })?;
                    let Some(root) = merged else {
                        return Ok(vec![Vec::new()]);
                    };
                    ctx2.metrics
                        .add_deferred_deletions(root.deferred_len() as u64);
                    ctx2.metrics.add_classes_merged(root.class_count() as u64);
                    Ok(vec![root.finish()])
                }))
            }
        }
    }

    fn describe(&self) -> String {
        let merge = match self.merge {
            MergeStrategy::Flat => String::new(),
            MergeStrategy::Hierarchical { fan_in } => {
                format!(", hierarchical fan-in {fan_in}")
            }
        };
        let note = match &self.plan_note {
            Some(note) => format!(", {note}"),
            None => String::new(),
        };
        format!(
            "IncompleteGlobalSkylineExec [{} dims{}{}{}{}]",
            self.spec.dims.len(),
            if self.spec.distinct { ", distinct" } else { "" },
            merge,
            if matches!(self.merge, MergeStrategy::Flat) {
                String::new()
            } else {
                kernel_fragment(self.kernel)
            },
            note,
        )
    }
}

/// Drain one input partition stream into an incomplete-skyline partial —
/// the leaf task of the bitmap-class-aware tree merge. Fault-injection
/// site `skyline-sink` fires here (per consumed batch), and the window
/// work runs control-checked at [`CONTROL_CHECK_ROWS`] granularity.
fn consume_incomplete_partial(
    ctx: &TaskContext,
    checker: &DominanceChecker,
    kernel: DominanceKernel,
    part: usize,
    stream: &mut PartitionStream,
) -> Result<IncompletePartial> {
    let mut builder = IncompletePartialBuilder::with_kernel(checker.clone(), kernel);
    let mut guard = InFlightRows::new(Arc::clone(&ctx.metrics), 0);
    let mut seq = 0u64;
    while let Some(batch) = stream.next_batch()? {
        ctx.control.check()?;
        ctx.maybe_inject(FaultSite::SkylineSink, part, seq)?;
        seq += 1;
        builder.push_batch_checked(batch, &ctx.control)?;
        guard.set(builder.window_len());
    }
    let (partial, stats) = builder.finish();
    record_stats(ctx, &stats);
    guard.set(partial.len());
    Ok(partial)
}

/// All-pairs global skyline in deadline-checked chunks.
fn incomplete_global_with_deadline(
    rows: Vec<Row>,
    checker: &DominanceChecker,
    stats: &mut SkylineStats,
    ctx: &TaskContext,
) -> Result<Vec<Row>> {
    // Small inputs: run directly.
    if rows.len() <= 2048 {
        ctx.control.check()?;
        return Ok(incomplete_global_skyline(rows, checker, stats));
    }
    // Large inputs: reuse the library routine but check the deadline
    // between row-blocks by replicating its flag loop.
    let n = rows.len();
    stats.max_window = stats.max_window.max(n);
    let mut dominated = vec![false; n];
    let distinct = checker.distinct();
    for i in 0..n {
        if i % 64 == 0 {
            ctx.control.check()?;
        }
        for j in (i + 1)..n {
            if dominated[i] && dominated[j] {
                continue;
            }
            stats.dominance_tests += 1;
            match checker.compare(&rows[i], &rows[j]) {
                Dominance::Dominates => dominated[j] = true,
                Dominance::DominatedBy => dominated[i] = true,
                Dominance::Equal => {
                    if distinct && checker.identical_dims(&rows[i], &rows[j]) {
                        dominated[j] = true;
                    }
                }
                Dominance::Incomparable => {}
            }
        }
    }
    Ok(rows
        .into_iter()
        .zip(dominated)
        .filter_map(|(row, dom)| (!dom).then_some(row))
        .collect())
}

/// Two-pass single-dimension optimum filter (§5.4 rewrite target).
#[derive(Debug)]
pub struct MinMaxFilterExec {
    expr: Expr,
    direction: MinMaxDirection,
    distinct: bool,
    input: Arc<dyn ExecutionPlan>,
}

impl MinMaxFilterExec {
    /// Filter keeping tuples that attain the optimum of `expr` (plus NULL
    /// tuples, which are incomparable under skyline semantics).
    pub fn new(
        expr: Expr,
        direction: MinMaxDirection,
        distinct: bool,
        input: Arc<dyn ExecutionPlan>,
    ) -> Self {
        MinMaxFilterExec {
            expr,
            direction,
            distinct,
            input,
        }
    }
}

/// Whether `a` beats `b` in the filter's direction.
fn minmax_better(direction: MinMaxDirection, a: &Value, b: &Value) -> bool {
    match a.sql_compare(b) {
        Some(ord) => match direction {
            MinMaxDirection::Min => ord == std::cmp::Ordering::Less,
            MinMaxDirection::Max => ord == std::cmp::Ordering::Greater,
        },
        None => false,
    }
}

impl ExecutionPlan for MinMaxFilterExec {
    fn name(&self) -> &'static str {
        "MinMaxFilterExec"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = crate::input_streams(&self.input, ctx)?;
        // The filter needs two passes over its input, so it is a breaker:
        // the streamed input is drained (fanned over the executor pool)
        // and the two O(n) passes run on the buffer.
        let n_outputs = if self.distinct {
            1
        } else {
            inputs.len().max(1)
        };
        let expr = self.expr.clone();
        let direction = self.direction;
        let distinct = self.distinct;
        let ctx2 = ctx.clone();
        Ok(breaker_streams(self.schema(), ctx, n_outputs, move || {
            let input = ctx2.runtime.drain_streams(inputs)?;
            // Pass 1 (parallel): the best non-NULL value per partition.
            let bests: Vec<Option<Value>> =
                ctx2.runtime
                    .map_indexed(input.iter().collect::<Vec<_>>(), |_, part| {
                        ctx2.control.check()?;
                        let mut best: Option<Value> = None;
                        for row in part {
                            let v = expr.evaluate(row)?;
                            if v.is_null() {
                                continue;
                            }
                            let take = match &best {
                                None => true,
                                Some(b) => minmax_better(direction, &v, b),
                            };
                            if take {
                                best = Some(v);
                            }
                        }
                        Ok(best)
                    })?;
            let mut global_best: Option<Value> = None;
            for b in bests.into_iter().flatten() {
                let take = match &global_best {
                    None => true,
                    Some(g) => minmax_better(direction, &b, g),
                };
                if take {
                    global_best = Some(b);
                }
            }
            // Pass 2 (parallel): keep NULL tuples and optimum tuples.
            let mut out = ctx2.runtime.map_indexed(input, |_, part| {
                ctx2.control.check()?;
                let mut rows = Vec::new();
                for row in part {
                    let v = expr.evaluate(&row)?;
                    let keep = v.is_null()
                        || global_best
                            .as_ref()
                            .is_some_and(|b| v.sql_compare(b) == Some(std::cmp::Ordering::Equal));
                    if keep {
                        rows.push(row);
                    }
                }
                Ok(rows)
            })?;
            // DISTINCT: one representative per distinct dimension value —
            // at most one NULL tuple and one optimum tuple.
            if distinct {
                let rows = flatten(out);
                let mut null_rep: Option<Row> = None;
                let mut best_rep: Option<Row> = None;
                for row in rows {
                    let v = expr.evaluate(&row)?;
                    if v.is_null() {
                        null_rep.get_or_insert(row);
                    } else {
                        best_rep.get_or_insert(row);
                    }
                }
                out = vec![null_rep.into_iter().chain(best_rep).collect()];
            }
            Ok(out)
        }))
    }

    fn describe(&self) -> String {
        format!(
            "MinMaxFilterExec [{} {}{}]",
            self.direction,
            self.expr,
            if self.distinct { ", distinct" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::ExchangeExec;
    use crate::scan::ScanExec;
    use sparkline_common::{DataType, Field, Schema, SkylineDim};
    use sparkline_plan::BoundColumn;

    fn input(rows: Vec<Vec<Value>>) -> Arc<dyn ExecutionPlan> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Int64, true),
        ])
        .into_ref();
        Arc::new(ScanExec::new(
            "t",
            Arc::new(rows.into_iter().map(Row::new).collect()),
            schema,
        ))
    }

    fn int_rows(data: &[(i64, i64)]) -> Vec<Vec<Value>> {
        data.iter()
            .map(|&(a, b)| vec![Value::Int64(a), Value::Int64(b)])
            .collect()
    }

    fn run(plan: &dyn ExecutionPlan, executors: usize) -> Vec<Row> {
        let ctx = TaskContext::new(executors);
        let mut rows = flatten(plan.execute(&ctx).unwrap());
        rows.sort_by_key(|r| r.to_string());
        rows
    }

    fn spec2() -> SkylineSpec {
        SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)])
    }

    #[test]
    fn two_phase_complete_plan_produces_skyline() {
        let data = int_rows(&[(1, 9), (2, 7), (3, 8), (4, 4), (5, 5), (6, 1), (7, 2)]);
        let local = Arc::new(LocalSkylineExec::new(spec2(), false, input(data)));
        let gathered = Arc::new(ExchangeExec::single(local));
        let global = GlobalSkylineExec::new(spec2(), gathered);
        let rows = run(&global, 3);
        assert_eq!(rows.len(), 4);
        // Same result with one executor.
        let data = int_rows(&[(1, 9), (2, 7), (3, 8), (4, 4), (5, 5), (6, 1), (7, 2)]);
        let local = Arc::new(LocalSkylineExec::new(spec2(), false, input(data)));
        let gathered = Arc::new(ExchangeExec::single(local));
        let global = GlobalSkylineExec::new(spec2(), gathered);
        assert_eq!(run(&global, 1).len(), 4);
    }

    #[test]
    fn incomplete_plan_handles_cycles() {
        // Appendix A cycle must yield an empty skyline.
        let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]);
        // Build a 2-dim cycle analogue: a=(1,*), b=(*,1) are incomparable;
        // use the 3-dim example instead via 2 columns is impossible, so
        // check the operator end-to-end with 3 columns.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64, true),
            Field::new("y", DataType::Int64, true),
            Field::new("z", DataType::Int64, true),
        ])
        .into_ref();
        let rows = vec![
            Row::new(vec![Value::Int64(1), Value::Null, Value::Int64(10)]),
            Row::new(vec![Value::Int64(3), Value::Int64(2), Value::Null]),
            Row::new(vec![Value::Null, Value::Int64(5), Value::Int64(3)]),
        ];
        let spec3 = SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
            SkylineDim::min(2),
        ]);
        let scan: Arc<dyn ExecutionPlan> = Arc::new(ScanExec::new("t", Arc::new(rows), schema));
        let bitmap_exchange = Arc::new(ExchangeExec::new(
            crate::exchange::ExchangeMode::NullBitmap(spec3.clone()),
            scan,
        ));
        let local = Arc::new(LocalSkylineExec::new(spec3.clone(), true, bitmap_exchange));
        let gathered = Arc::new(ExchangeExec::single(local));
        let global = IncompleteGlobalSkylineExec::new(spec3, gathered);
        assert!(run(&global, 2).is_empty(), "cycle must cancel out");
        let _ = spec; // silence unused in this branch
    }

    #[test]
    fn incomplete_hierarchical_merge_is_byte_identical_to_flat() {
        // Mixed-bitmap data over several partitions: the deferred-deletion
        // tree merge must produce the same rows in the same order as the
        // paper's flat all-pairs pass, and flag the same tuples.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64, true),
            Field::new("y", DataType::Int64, true),
            Field::new("z", DataType::Int64, true),
        ])
        .into_ref();
        let rows: Vec<Row> = (0..180)
            .map(|i: i64| {
                let v = |k: i64| {
                    if (i * 7 + k * 3) % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int64((i * (11 + k)) % 9)
                    }
                };
                Row::new(vec![v(0), v(1), v(2)])
            })
            .collect();
        let spec3 = SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
            SkylineDim::min(2),
        ]);
        let build = |merge: Option<(usize, DominanceKernel)>| {
            let scan: Arc<dyn ExecutionPlan> =
                Arc::new(ScanExec::new("t", Arc::new(rows.clone()), schema.clone()));
            let bitmap_exchange = Arc::new(ExchangeExec::new(
                crate::exchange::ExchangeMode::NullBitmap(spec3.clone()),
                scan,
            ));
            let local = Arc::new(LocalSkylineExec::new(spec3.clone(), true, bitmap_exchange));
            match merge {
                None => Arc::new(IncompleteGlobalSkylineExec::new(
                    spec3.clone(),
                    Arc::new(ExchangeExec::single(local)),
                )),
                Some((fan_in, kernel)) => Arc::new(
                    IncompleteGlobalSkylineExec::new(spec3.clone(), local)
                        .with_merge(MergeStrategy::Hierarchical { fan_in })
                        .with_kernel(kernel),
                ),
            }
        };
        let flat_ctx = TaskContext::new(6);
        let flat = flatten(build(None).execute(&flat_ctx).unwrap());
        let flat_deferred = flat_ctx.metrics.snapshot().deferred_deletions;
        assert!(!flat.is_empty());
        for fan_in in [2usize, 3] {
            for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
                let ctx = TaskContext::new(6);
                let plan = build(Some((fan_in, kernel)));
                let parts = plan.execute(&ctx).unwrap();
                assert_eq!(parts.len(), 1, "global phase yields one partition");
                let tree = flatten(parts);
                assert_eq!(tree, flat, "fan-in {fan_in}, {kernel:?}");
                let m = ctx.metrics.snapshot();
                assert_eq!(
                    m.deferred_deletions, flat_deferred,
                    "flat and tree flag the same tuples"
                );
                assert!(m.classes_merged > 0, "{m:?}");
                assert!(m.merge_rounds >= 1, "{m:?}");
            }
        }
    }

    #[test]
    fn incomplete_hierarchical_merge_handles_cycles_and_empty_input() {
        let spec3 = SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
            SkylineDim::min(2),
        ]);
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64, true),
            Field::new("y", DataType::Int64, true),
            Field::new("z", DataType::Int64, true),
        ])
        .into_ref();
        let cycle = vec![
            Row::new(vec![Value::Int64(1), Value::Null, Value::Int64(10)]),
            Row::new(vec![Value::Int64(3), Value::Int64(2), Value::Null]),
            Row::new(vec![Value::Null, Value::Int64(5), Value::Int64(3)]),
        ];
        let build = |rows: Vec<Row>| {
            let scan: Arc<dyn ExecutionPlan> =
                Arc::new(ScanExec::new("t", Arc::new(rows), schema.clone()));
            let bitmap_exchange = Arc::new(ExchangeExec::new(
                crate::exchange::ExchangeMode::NullBitmap(spec3.clone()),
                scan,
            ));
            let local = Arc::new(LocalSkylineExec::new(spec3.clone(), true, bitmap_exchange));
            IncompleteGlobalSkylineExec::new(spec3.clone(), local)
                .with_merge(MergeStrategy::Hierarchical { fan_in: 2 })
        };
        let ctx = TaskContext::new(3);
        assert!(
            flatten(build(cycle).execute(&ctx).unwrap()).is_empty(),
            "cycle must cancel out across merge tasks"
        );
        assert_eq!(ctx.metrics.snapshot().deferred_deletions, 3);
        assert!(flatten(build(Vec::new()).execute(&ctx).unwrap()).is_empty());
    }

    #[test]
    fn incomplete_describe_names_the_merge() {
        let spec3 = SkylineSpec::new(vec![SkylineDim::min(0)]);
        let flat = IncompleteGlobalSkylineExec::new(spec3.clone(), input(Vec::new()));
        assert!(
            !flat.describe().contains("hierarchical"),
            "{}",
            flat.describe()
        );
        let tree = IncompleteGlobalSkylineExec::new(spec3.clone(), input(Vec::new()))
            .with_merge(MergeStrategy::Hierarchical { fan_in: 3 })
            .with_plan_note(Some("adaptive: tree (max NULL fraction 0.25)".into()));
        let describe = tree.describe();
        assert!(describe.contains("hierarchical fan-in 3"), "{describe}");
        assert!(describe.contains("adaptive: tree"), "{describe}");
        assert!(describe.contains("vectorized"), "{describe}");
    }

    #[test]
    fn minmax_filter_keeps_all_optima() {
        let col = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: Field::new("a", DataType::Int64, true),
        });
        let plan = MinMaxFilterExec::new(
            col,
            MinMaxDirection::Min,
            false,
            input(int_rows(&[(2, 1), (1, 2), (1, 3), (5, 4)])),
        );
        let rows = run(&plan, 2);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.get(0) == &Value::Int64(1)));
    }

    #[test]
    fn minmax_filter_keeps_null_tuples() {
        let col = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: Field::new("a", DataType::Int64, true),
        });
        let plan = MinMaxFilterExec::new(
            col,
            MinMaxDirection::Min,
            false,
            Arc::new(ScanExec::new(
                "t",
                Arc::new(vec![
                    Row::new(vec![Value::Null, Value::Int64(1)]),
                    Row::new(vec![Value::Int64(3), Value::Int64(2)]),
                    Row::new(vec![Value::Int64(7), Value::Int64(3)]),
                ]),
                Schema::new(vec![
                    Field::new("a", DataType::Int64, true),
                    Field::new("b", DataType::Int64, false),
                ])
                .into_ref(),
            )),
        );
        let rows = run(&plan, 2);
        // NULL tuple is incomparable => skyline member; 3 is the minimum.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn minmax_distinct_keeps_single_representatives() {
        let col = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: Field::new("a", DataType::Int64, true),
        });
        let plan = MinMaxFilterExec::new(
            col,
            MinMaxDirection::Max,
            true,
            input(int_rows(&[(5, 1), (5, 2), (5, 3), (1, 4)])),
        );
        let rows = run(&plan, 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int64(5));
    }

    #[test]
    fn local_incomplete_groups_by_bitmap_within_partition() {
        // Force everything into ONE partition: grouping inside the
        // operator must still separate bitmap classes, so the cycle
        // tuples all survive the local phase.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64, true),
            Field::new("y", DataType::Int64, true),
            Field::new("z", DataType::Int64, true),
        ])
        .into_ref();
        let rows = vec![
            Row::new(vec![Value::Int64(1), Value::Null, Value::Int64(10)]),
            Row::new(vec![Value::Int64(3), Value::Int64(2), Value::Null]),
            Row::new(vec![Value::Null, Value::Int64(5), Value::Int64(3)]),
        ];
        let spec3 = SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
            SkylineDim::min(2),
        ]);
        let scan: Arc<dyn ExecutionPlan> = Arc::new(ScanExec::new("t", Arc::new(rows), schema));
        let local = LocalSkylineExec::new(spec3, true, scan);
        // One executor => single partition holding all three bitmaps.
        let rows = run(&local, 1);
        assert_eq!(rows.len(), 3, "local phase must not delete cycle members");
    }

    /// Round-robin local skylines over `data`, merged by `merge`; `gather`
    /// puts the paper's `AllTuples` exchange below a flat merge (the
    /// streaming single-partition pass — the oracle of the merges).
    fn merged(
        data: &[Vec<Value>],
        spec: SkylineSpec,
        merge: MergeStrategy,
        gather: bool,
        kernel: DominanceKernel,
        executors: usize,
    ) -> (Vec<Row>, sparkline_exec::MetricsSnapshot) {
        let local: Arc<dyn ExecutionPlan> = Arc::new(
            LocalSkylineExec::new(
                spec.clone(),
                false,
                Arc::new(ExchangeExec::new(
                    crate::exchange::ExchangeMode::RoundRobin,
                    input(data.to_vec()),
                )),
            )
            .with_kernel(kernel),
        );
        let global_input = if gather {
            Arc::new(ExchangeExec::single(local))
        } else {
            local
        };
        let global = GlobalSkylineExec::new(spec, global_input)
            .with_merge(merge)
            .with_kernel(kernel);
        let ctx = TaskContext::new(executors);
        let parts = global.execute(&ctx).unwrap();
        assert_eq!(parts.len(), 1, "global phase yields one partition");
        (flatten(parts), ctx.metrics.snapshot())
    }

    #[test]
    fn pairwise_and_hierarchical_merges_are_byte_identical_to_the_gathered_pass() {
        // Many partitions of mixed data: both merges must produce the
        // same rows in the same order as one BNL pass over the gather.
        let data: Vec<Vec<Value>> = (0..200)
            .map(|i: i64| vec![Value::Int64((i * 37) % 100), Value::Int64((i * 53) % 100)])
            .collect();
        let auto = DominanceKernel::Auto;
        let (gathered, gathered_metrics) =
            merged(&data, spec2(), MergeStrategy::Flat, true, auto, 8);
        assert_eq!(gathered_metrics.merge_rounds, 0, "one partition: no merge");
        let local_rows = gathered_metrics.rows_exchanged - 200;

        let (pairwise, metrics) = merged(&data, spec2(), MergeStrategy::Flat, false, auto, 8);
        assert_eq!(pairwise, gathered);
        assert_eq!(metrics.merge_rounds, 1, "{metrics:?}");
        assert_eq!(metrics.merge_tasks, 8, "one task per local skyline");
        assert_eq!(metrics.max_merge_fanout, 8, "{metrics:?}");
        assert_eq!(
            metrics.rows_exchanged - 200,
            local_rows,
            "the merge gathers what the exchange moved"
        );
        assert!(metrics.multi_candidate_passes > 0, "{metrics:?}");

        for fan_in in [2usize, 3, 4] {
            let merge = MergeStrategy::Hierarchical { fan_in };
            let (tree, metrics) = merged(&data, spec2(), merge, false, auto, 8);
            assert_eq!(tree, gathered, "fan-in {fan_in}");
            assert!(metrics.merge_rounds >= 1, "fan-in {fan_in}: {metrics:?}");
            assert!(
                metrics.max_merge_fanout > 1,
                "merge work must parallelize over executors: {metrics:?}"
            );
        }
    }

    #[test]
    fn pairwise_merge_handles_distinct_nulls_and_fallback_blocks() {
        let distinct = SkylineSpec::distinct(vec![SkylineDim::min(0), SkylineDim::min(1)]);
        // Every row twice, the copies landing in different partitions:
        // DISTINCT must keep the first occurrence in partition order.
        let dupes: Vec<Vec<Value>> = (0..120)
            .map(|i: i64| {
                let k = i % 60;
                vec![Value::Int64((k * 37) % 30), Value::Int64((k * 53) % 30)]
            })
            .collect();
        // NULL-bearing rows under the complete relation are incomparable
        // with everything: all of them survive, in place.
        let nulls: Vec<Vec<Value>> = (0..90)
            .map(|i: i64| {
                let a = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int64((i * 37) % 40)
                };
                vec![a, Value::Int64((i * 53) % 40)]
            })
            .collect();
        // A string dimension demotes every block to scalar fallback.
        let strings: Vec<Vec<Value>> = (0..60)
            .map(|i: i64| {
                vec![
                    Value::str(format!("s{:02}", (i * 7) % 13)),
                    Value::Int64(i % 9),
                ]
            })
            .collect();
        // NULL-bearing duplicates are not `Equal` to anything, themselves
        // included: DISTINCT keeps every copy, as the BNL window does.
        let null_dupes: Vec<Vec<Value>> = nulls.iter().chain(&nulls).cloned().collect();
        for (name, data, spec) in [
            ("distinct", &dupes, distinct.clone()),
            ("distinct nulls", &null_dupes, distinct),
            ("nulls", &nulls, spec2()),
            ("strings", &strings, spec2()),
        ] {
            let (expected, _) = merged(
                data,
                spec.clone(),
                MergeStrategy::Flat,
                true,
                DominanceKernel::Scalar,
                5,
            );
            assert!(!expected.is_empty());
            for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
                for merge in [
                    MergeStrategy::Flat,
                    MergeStrategy::Hierarchical { fan_in: 2 },
                ] {
                    let (rows, m) = merged(data, spec.clone(), merge, false, kernel, 5);
                    assert_eq!(rows, expected, "{name} {kernel:?} {merge:?}");
                    if name == "strings" {
                        assert_eq!(m.batched_tests, 0, "{name} {kernel:?}: {m:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_merge_skips_empty_partitions_and_single_survivors() {
        // Two rows over eight executors: most local skylines are empty,
        // and an all-empty input merges to nothing without a round.
        let data = int_rows(&[(1, 2), (2, 1)]);
        let (rows, m) = merged(
            &data,
            spec2(),
            MergeStrategy::Flat,
            false,
            DominanceKernel::Auto,
            8,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(m.merge_rounds, 1);
        assert_eq!(m.merge_tasks, 2, "only non-empty partitions get a task");
        let (rows, m) = merged(
            &[],
            spec2(),
            MergeStrategy::Flat,
            false,
            DominanceKernel::Auto,
            8,
        );
        assert!(rows.is_empty());
        assert_eq!(m.merge_rounds, 0);
    }

    #[test]
    fn hierarchical_merge_handles_empty_input() {
        let global = GlobalSkylineExec::new(spec2(), input(Vec::new()))
            .with_merge(MergeStrategy::Hierarchical { fan_in: 2 });
        assert!(run(&global, 4).is_empty());
    }

    #[test]
    fn hierarchical_sfs_merge_matches_flat_as_a_set() {
        // SFS order can differ between flat and tree when its fallback
        // engages; the row *set* must always match (compared sorted).
        let data: Vec<Vec<Value>> = (0..120)
            .map(|i: i64| vec![Value::Int64((i * 29) % 60), Value::Int64((i * 41) % 60)])
            .collect();
        let build = |merge: Option<usize>| {
            let local = Arc::new(LocalSkylineExec::sort_filter(
                spec2(),
                Arc::new(ExchangeExec::new(
                    crate::exchange::ExchangeMode::RoundRobin,
                    input(data.clone()),
                )),
            ));
            match merge {
                None => {
                    GlobalSkylineExec::sort_filter(spec2(), Arc::new(ExchangeExec::single(local)))
                }
                Some(fan_in) => GlobalSkylineExec::sort_filter(spec2(), local)
                    .with_merge(MergeStrategy::Hierarchical { fan_in }),
            }
        };
        let flat = run(&build(None), 6);
        let tree = run(&build(Some(2)), 6);
        assert_eq!(flat, tree, "run() sorts, so this is set equality");
        assert!(!flat.is_empty());
    }

    #[test]
    fn pairwise_tasks_observe_cancel_deadline_and_injected_faults() {
        // Two interleaved 2-d staircases, each an antichain longer than
        // one control-check chunk; the second dominates half of the first.
        let stair = |shift: i64| -> Partition {
            (0..1500i64)
                .map(|i| {
                    Row::new(vec![
                        Value::Int64(2 * i + shift),
                        Value::Int64(3000 - 2 * i),
                    ])
                })
                .collect()
        };
        let parts = vec![stair(1), stair(0)];
        let checker = DominanceChecker::complete(spec2());
        let encoded = EncodedSkylines::new(checker, DominanceKernel::Auto, parts.clone());
        let ctx = TaskContext::new(2);
        let mut stats = SkylineStats::default();
        let alive = encoded.survivors(&ctx, 0, &mut stats).unwrap();
        assert!(alive.iter().all(|&a| !a), "(2i+1, y) dies on (2i, y)");
        assert!(stats.dominance_tests > 0);

        // A cancel is seen before the next chunk of candidates is tested.
        ctx.control.cancel();
        let mut stats = SkylineStats::default();
        let err = encoded.survivors(&ctx, 1, &mut stats).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert_eq!(stats.dominance_tests, 0);

        // So is an expired deadline, through the whole merge.
        let late = TaskContext::new(2).with_deadline(sparkline_exec::Deadline::new(Some(
            std::time::Duration::ZERO,
        )));
        let err = pairwise_merge(&late, &spec2(), DominanceKernel::Auto, parts.clone(), true)
            .unwrap_err();
        assert!(err.is_timeout(), "{err}");

        // A fault injected into a pairwise task surfaces as the retryable
        // merge-site error (the consumer's retry path recomputes the
        // stage); the in-group merge of the tree strategy injects nothing
        // itself — its round scheduler does.
        let faulty = TaskContext::new(2)
            .with_fault_injector(Arc::new(sparkline_exec::FaultInjector::new(7, 1.0)));
        let err = pairwise_merge(
            &faulty,
            &spec2(),
            DominanceKernel::Auto,
            parts.clone(),
            true,
        )
        .unwrap_err();
        assert!(
            err.is_retryable() && err.to_string().contains("merge"),
            "{err}"
        );
        let merged = pairwise_merge(
            &faulty,
            &spec2(),
            DominanceKernel::Auto,
            parts.clone(),
            false,
        )
        .unwrap();
        assert_eq!(merged, parts[1], "only the dominating staircase is left");
    }

    #[test]
    fn describe_names_the_merge() {
        let global = GlobalSkylineExec::new(spec2(), input(Vec::new()))
            .with_merge(MergeStrategy::Hierarchical { fan_in: 4 });
        assert!(
            global.describe().contains("hierarchical fan-in 4"),
            "{}",
            global.describe()
        );
        let flat = GlobalSkylineExec::new(spec2(), input(Vec::new()));
        assert!(
            flat.describe()
                .starts_with("GlobalSkylineExec [2 dims, pairwise merge, vectorized: "),
            "{}",
            flat.describe()
        );
        // SFS re-sorts in one pass; it never merges pairwise.
        let sfs = GlobalSkylineExec::sort_filter(spec2(), input(Vec::new()));
        assert!(!sfs.describe().contains("pairwise"), "{}", sfs.describe());
    }

    #[test]
    fn merge_fan_in_below_two_is_clamped() {
        let global = GlobalSkylineExec::new(spec2(), input(Vec::new()))
            .with_merge(MergeStrategy::Hierarchical { fan_in: 0 });
        assert!(global.describe().contains("hierarchical fan-in 2"));
        let incomplete = IncompleteGlobalSkylineExec::new(spec2(), input(Vec::new()))
            .with_merge(MergeStrategy::Hierarchical { fan_in: 1 });
        assert!(incomplete.describe().contains("hierarchical fan-in 2"));
        // And the clamped plans run (a fan-in of 1 would never terminate).
        let data = int_rows(&[(1, 9), (2, 7), (3, 8), (4, 4), (5, 5), (6, 1), (7, 2)]);
        let merge = MergeStrategy::Hierarchical { fan_in: 1 };
        let (rows, _) = merged(&data, spec2(), merge, false, DominanceKernel::Auto, 3);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn vectorized_and_scalar_plans_are_byte_identical() {
        let data: Vec<Vec<Value>> = (0..200)
            .map(|i: i64| vec![Value::Int64((i * 37) % 80), Value::Int64((i * 53) % 80)])
            .collect();
        let run_plan = |vectorized: bool, merge: MergeStrategy| {
            let kernel = if vectorized {
                DominanceKernel::Auto
            } else {
                DominanceKernel::Scalar
            };
            let local = Arc::new(
                LocalSkylineExec::new(
                    spec2(),
                    false,
                    Arc::new(ExchangeExec::new(
                        crate::exchange::ExchangeMode::RoundRobin,
                        input(data.clone()),
                    )),
                )
                .with_kernel(kernel),
            );
            let global: Arc<dyn ExecutionPlan> = match merge {
                MergeStrategy::Flat => Arc::new(
                    GlobalSkylineExec::new(spec2(), Arc::new(ExchangeExec::single(local)))
                        .with_kernel(kernel),
                ),
                hierarchical => Arc::new(
                    GlobalSkylineExec::new(spec2(), local)
                        .with_merge(hierarchical)
                        .with_kernel(kernel),
                ),
            };
            let ctx = TaskContext::new(6);
            let parts = global.execute(&ctx).unwrap();
            (flatten(parts), ctx.metrics.snapshot())
        };
        let (scalar_rows, s) = run_plan(false, MergeStrategy::Flat);
        assert_eq!(s.batched_tests, 0, "scalar plan must not batch: {s:?}");
        assert!(s.scalar_tests > 0);
        assert_eq!(s.scalar_tests, s.dominance_tests);
        for merge in [
            MergeStrategy::Flat,
            MergeStrategy::Hierarchical { fan_in: 2 },
        ] {
            let (vec_rows, v) = run_plan(true, merge);
            // Row-for-row identical, including order.
            assert_eq!(scalar_rows, vec_rows, "{merge:?}");
            assert!(v.batched_tests > 0, "{merge:?}: {v:?}");
            assert_eq!(v.scalar_tests, 0, "{merge:?}: {v:?}");
        }
    }

    #[test]
    fn vectorized_describe_names_the_kernel() {
        // The default (Auto) must resolve to a concrete tier label; the
        // exact tier depends on the host CPU, so assert via kernel_label.
        let auto_label = kernel_label(DominanceKernel::Auto);
        let local = LocalSkylineExec::new(spec2(), false, input(Vec::new()));
        assert!(
            local
                .describe()
                .contains(&format!("vectorized: {auto_label}")),
            "{}",
            local.describe()
        );
        let scalar = LocalSkylineExec::new(spec2(), false, input(Vec::new()))
            .with_kernel(DominanceKernel::Scalar);
        assert!(!scalar.describe().contains("vectorized"));
        let global = GlobalSkylineExec::new(spec2(), input(Vec::new()));
        assert!(
            global
                .describe()
                .contains(&format!("vectorized: {auto_label}")),
            "{}",
            global.describe()
        );
        // Pinned knobs render their own tier.
        let chunked = GlobalSkylineExec::new(spec2(), input(Vec::new()))
            .with_kernel(DominanceKernel::Chunked);
        assert!(
            chunked.describe().contains("vectorized: chunked"),
            "{}",
            chunked.describe()
        );
        let prefilter = SkylinePreFilterExec::new(spec2(), Vec::new(), 0, input(Vec::new()))
            .with_kernel(DominanceKernel::Simd);
        assert!(
            prefilter.describe().contains(&format!(
                "vectorized: {}",
                kernel_label(DominanceKernel::Simd)
            )),
            "{}",
            prefilter.describe()
        );
    }

    #[test]
    fn kernel_knob_plans_are_byte_identical() {
        // Forcing every knob through the physical operators must not
        // change a single row; the counters attribute the work instead —
        // through the pairwise merge's cross-filter passes as well.
        let data: Vec<Vec<Value>> = (0..300)
            .map(|i: i64| vec![Value::Int64((i * 37) % 80), Value::Int64((i * 53) % 80)])
            .collect();
        let run_plan = |kernel| merged(&data, spec2(), MergeStrategy::Flat, false, kernel, 4);
        let (expected, s) = run_plan(DominanceKernel::Scalar);
        assert_eq!(s.simd_tests, 0);
        assert_eq!(s.batched_tests, 0);
        assert_eq!(s.multi_candidate_passes, 0);
        for kernel in [
            DominanceKernel::Auto,
            DominanceKernel::Simd,
            DominanceKernel::Chunked,
        ] {
            let (rows, m) = run_plan(kernel);
            assert_eq!(rows, expected, "{kernel:?}");
            assert!(m.batched_tests > 0, "{kernel:?}: {m:?}");
            assert_eq!(m.scalar_tests, 0, "{kernel:?}: {m:?}");
            assert!(m.multi_candidate_passes > 0, "{kernel:?}: {m:?}");
            if kernel == DominanceKernel::Chunked {
                assert_eq!(m.simd_tests, 0, "{m:?}");
            }
        }
    }

    #[test]
    fn prefilter_exec_drops_only_dominated_rows() {
        let data = int_rows(&[(0, 2), (2, 2), (1, 1), (5, 5), (2, 0)]);
        let points = vec![Row::new(vec![Value::Int64(1), Value::Int64(1)])];
        for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
            let vectorized = kernel.is_vectorized();
            let plan = SkylinePreFilterExec::new(spec2(), points.clone(), 3, input(data.clone()))
                .with_kernel(kernel);
            let ctx = TaskContext::new(2);
            let rows = run(&plan, 2);
            // (2,2) and (5,5) are strictly dominated by (1,1); the tie
            // (1,1) and the incomparable trade-offs survive.
            assert_eq!(rows.len(), 3, "vectorized={vectorized}");
            let s = ctx.metrics.snapshot();
            assert_eq!(s.prefilter_rows_dropped, 0, "fresh context");
            let parts = plan.execute(&ctx).unwrap();
            assert_eq!(flatten(parts).len(), 3);
            let s = ctx.metrics.snapshot();
            assert_eq!(s.prefilter_rows_dropped, 2, "vectorized={vectorized}");
            assert_eq!(s.sample_rows, 3);
            assert!(s.dominance_tests > 0);
        }
    }

    #[test]
    fn prefilter_exec_with_no_points_passes_everything() {
        let data = int_rows(&[(1, 2), (2, 1)]);
        let plan = SkylinePreFilterExec::new(spec2(), Vec::new(), 0, input(data));
        let ctx = TaskContext::new(2);
        let parts = plan.execute(&ctx).unwrap();
        assert_eq!(flatten(parts).len(), 2);
        assert_eq!(ctx.metrics.snapshot().prefilter_rows_dropped, 0);
        assert!(plan.describe().contains("0 representative points"));
    }

    #[test]
    fn dominance_metrics_flow_to_context() {
        let data = int_rows(&[(1, 2), (2, 1), (3, 3), (0, 0)]);
        let local = LocalSkylineExec::new(spec2(), false, input(data));
        let ctx = TaskContext::new(1);
        local.execute(&ctx).unwrap();
        assert!(ctx.metrics.snapshot().dominance_tests > 0);
        assert!(ctx.metrics.snapshot().max_window > 0);
    }
}
