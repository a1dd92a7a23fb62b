//! Physical skyline operators (paper §5.5–§5.7):
//!
//! * [`LocalSkylineExec`] — distributed local skyline: each executor runs
//!   the Block-Nested-Loop algorithm on its partition. In incomplete mode
//!   it groups the partition's tuples by null bitmap first (Lemma 5.1
//!   applies per bitmap class), so it runs directly on the scan's
//!   partitions: a class may span partitions, and correctness never
//!   depends on how its rows are spread over them.
//! * [`GlobalSkylineExec`] — the global skyline over the local skylines,
//!   for both dominance relations: the one-round pairwise cross-filter
//!   merge (every antichain block filtered against every other, one task
//!   per block on the executor pool), at every executor count. A block is
//!   a local skyline under the complete relation, and one null-bitmap
//!   class run of one partition's local skyline under the incomplete
//!   relation, where the merge computes the paper's all-pairs pass with
//!   deferred deletion (Appendix A; see `sparkline_skyline::incomplete`).
//! * [`MinMaxFilterExec`] — the O(n) single-dimension rewrite target
//!   (§5.4): one linear pass per partition keeps optimum tuples (and
//!   NULL-like tuples, which are incomparable and hence skyline members).

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use sparkline_common::{
    Error, QueryControl, Result, Row, SchemaRef, SkylineSpec, Value, CONTROL_CHECK_ROWS,
};
use sparkline_exec::{
    stream::{breaker_streams, emit_held},
    Batch, HeldPartition, Partition, PartitionStream, TaskContext,
};
use sparkline_plan::{Expr, MinMaxDirection};
use sparkline_skyline::{
    cross_filter, is_null_like, kernel_label, null_bitmap, BnlBuilder, ColumnarBlock, Dominance,
    DominanceChecker, GroupedBnlBuilder, SkylineStats,
};

use crate::ExecutionPlan;

/// The incremental consumer of one skyline phase: input batches are fed
/// straight into the phase's BNL state — the columnar kernel's
/// encode-once window, or the per-bitmap-class window map.
enum SkylineSink {
    /// Complete-data BNL window.
    Bnl(Box<BnlBuilder>),
    /// Incomplete local phase: one BNL window per null-bitmap class.
    Grouped(GroupedBnlBuilder),
}

impl SkylineSink {
    /// Fold one batch into the window, checking the query control at
    /// [`CONTROL_CHECK_ROWS`] granularity inside the admission loops. A
    /// column batch reaches a BNL window or the class windows as columns,
    /// so only the rows that survive a window's first cross-filter become
    /// `Row`s.
    fn push_batch_checked(&mut self, batch: Batch, control: &QueryControl) -> Result<()> {
        match (self, batch) {
            (SkylineSink::Bnl(b), Batch::Columns(columns)) => {
                b.push_columns_checked(&columns, control)
            }
            (SkylineSink::Bnl(b), Batch::Rows(rows)) => b.push_batch_checked(rows, control),
            (SkylineSink::Grouped(g), Batch::Columns(columns)) => {
                g.push_columns_checked(&columns, control)
            }
            (SkylineSink::Grouped(g), Batch::Rows(rows)) => g.push_batch_checked(rows, control),
        }
    }

    /// Rows and bytes currently buffered: the running skyline, not the
    /// consumed input.
    fn buffered(&self) -> (usize, usize) {
        match self {
            SkylineSink::Bnl(b) => (b.window_len(), b.window_bytes()),
            SkylineSink::Grouped(g) => (g.window_len(), g.window_bytes()),
        }
    }

    fn finish(self) -> (Vec<Row>, SkylineStats) {
        match self {
            SkylineSink::Bnl(b) => b.finish(),
            SkylineSink::Grouped(g) => g.finish(),
        }
    }
}

/// The dominance relation of a skyline operator.
fn checker_for(spec: &SkylineSpec, incomplete: bool) -> DominanceChecker {
    if incomplete {
        DominanceChecker::incomplete(spec.clone())
    } else {
        DominanceChecker::complete(spec.clone())
    }
}

/// One skyline phase as a stream: pull the input streams (in order) to
/// exhaustion feeding the sink, record the stats, then emit the resulting
/// skyline in batches. One reservation follows the sink's working set,
/// resized after every pulled batch, so a BNL phase charges only its
/// window, never its whole input — and a window that outgrows the
/// query's memory budget fails with `ResourceExhausted` on the batch that
/// grew it past the budget. The finished skyline is the last window, so
/// the same reservation holds it while it is emitted, releasing each
/// batch as it leaves.
fn skyline_phase_stream(
    schema: SchemaRef,
    ctx: &TaskContext,
    inputs: Vec<PartitionStream>,
    sink: SkylineSink,
) -> PartitionStream {
    let ctx = ctx.clone();
    let batch_size = ctx.batch_size.max(1);
    let mut input =
        sparkline_exec::stream::chain_streams(schema.clone(), Arc::clone(&ctx.metrics), inputs);
    let mut sink = Some(sink);
    let mut reservation = ctx.reservation();
    let mut emit: Option<std::vec::IntoIter<Row>> = None;
    PartitionStream::new(schema, Arc::clone(&ctx.metrics), move || loop {
        if let Some(rows) = emit.as_mut() {
            return emit_held(rows, &mut reservation, batch_size);
        }
        ctx.control.check()?;
        match input.pull_batch()? {
            Some(batch) => {
                let sink = sink
                    .as_mut()
                    .ok_or_else(|| Error::internal("skyline sink gone while input remains"))?;
                sink.push_batch_checked(batch, &ctx.control)?;
                let (rows, bytes) = sink.buffered();
                reservation.try_resize(rows, bytes)?;
            }
            None => {
                let (rows, stats) = sink
                    .take()
                    .ok_or_else(|| Error::internal("skyline sink finished twice"))?
                    .finish();
                record_stats(&ctx, &stats);
                emit = Some(rows.into_iter());
            }
        }
    })
}

fn record_stats(ctx: &TaskContext, stats: &SkylineStats) {
    ctx.metrics.add_dominance_tests(stats.dominance_tests);
    ctx.metrics
        .add_dominance_breakdown(stats.batched_tests, stats.scalar_tests);
    ctx.metrics.add_kernel_breakdown(
        stats.simd_tests,
        stats.dominator_walks,
        stats.eviction_scans,
    );
    ctx.metrics.observe_window(stats.max_window);
}

/// Distributed local skyline phase.
#[derive(Debug)]
pub struct LocalSkylineExec {
    spec: SkylineSpec,
    incomplete: bool,
    input: Arc<dyn ExecutionPlan>,
}

impl LocalSkylineExec {
    /// Local skyline with the chosen dominance relation (BNL windows on
    /// the detected compare tier).
    pub fn new(spec: SkylineSpec, incomplete: bool, input: Arc<dyn ExecutionPlan>) -> Self {
        LocalSkylineExec {
            spec,
            incomplete,
            input,
        }
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
        let inputs = self.input.execute_stream(ctx)?;
        let checker = checker_for(&self.spec, self.incomplete);
        Ok(inputs
            .into_iter()
            .map(|input| {
                let sink = if self.incomplete {
                    // Route by null bitmap inside the partition: within one
                    // class the restricted dominance relation is transitive,
                    // so plain BNL is sound (paper §5.7) — and because a
                    // class shares its NULL positions, every column is
                    // uniformly NULL or non-NULL, exactly what the columnar
                    // kernel encodes.
                    SkylineSink::Grouped(GroupedBnlBuilder::new(checker.clone(), true))
                } else {
                    SkylineSink::Bnl(Box::new(BnlBuilder::new(checker.clone(), true)))
                };
                skyline_phase_stream(self.schema(), ctx, vec![input], sink)
            })
            .collect())
    }

    fn describe(&self) -> String {
        format!(
            "LocalSkylineExec [{} dims, {}{}, vectorized: {}]",
            self.spec.dims.len(),
            if self.incomplete {
                "incomplete"
            } else {
                "complete"
            },
            if self.spec.distinct { ", distinct" } else { "" },
            kernel_label(),
        )
    }
}

/// Global skyline over the local skylines, for both dominance relations.
///
/// The pairwise cross-filter merge, built on the antichain identity of
/// `sparkline_skyline::bnl` — for skylines `A`, `B`,
/// *skyline(A ∪ B) = (A \ dominated-by-B) ++ (B \ dominated-by-A)* — in
/// one round, with no gather. The operator drains its input partitions
/// (the local skylines) in parallel and cuts them into antichain
/// **blocks**: under the complete relation a block is a partition, under
/// the incomplete relation one null-bitmap class run of a partition (the
/// local phase emits one class window after another; a class that spans
/// several scan partitions forms one block in each). Each block is
/// encoded once into a [`ColumnarBlock`] sorted by score key, and one task
/// per block runs on the executor pool: task *i* cross-filters block `B_i`,
/// in arrival order, against every other `B_j` ([`cross_filter`]:
/// one-directional, early exit, eight candidates per block walk, each walk
/// probing `B_j`'s lowest-key rows first and stopping at the first chunk
/// whose leading key exceeds the candidate's — a dominator's key never
/// does). The result is the survivors concatenated in block order, each
/// block's in arrival order; round and task counts are reported through
/// `exec::metrics` (one round of one task per non-empty block).
///
/// Soundness, complete relation: a row of `B_i` is in the global skyline
/// iff no row of any partition dominates it; inside `B_i` nothing does (it
/// is a skyline), and a dominator in `B_j` that is itself dominated
/// elsewhere still proves the row dominated (transitivity), so testing
/// against the *unfiltered* `B_j` is exact and the tasks are independent —
/// no task waits for another's output. Byte-identity with the paper's
/// single-executor BNL pass over the `AllTuples` gather of the same
/// partitions: order-preserving BNL yields the skyline members of its
/// input in arrival order, which for the concatenation `B_0 ++ B_1 ++ …`
/// is exactly "survivors in block order". `SKYLINE OF DISTINCT`
/// additionally keeps the first of each group of dims-identical rows:
/// within a partition the local phase already did, across partitions a
/// sequential pass over the (small) merged result does — a later
/// duplicate of a surviving row survives the strict cross-filter too, so
/// deduplicating the survivors is deduplicating the skyline.
///
/// Soundness, incomplete relation: the round computes the paper's
/// all-pairs pass with deferred deletion (§5.7, Appendix A) over the
/// gathered candidates, same rows in the same order, `DISTINCT` included
/// — the argument is in `sparkline_skyline::incomplete`. Every candidate
/// the pass would flag counts toward `deferred_deletions`.
///
/// Input contract: the merge requires every block to be an antichain
/// (the planner guarantees this — a `LocalSkylineExec` always sits
/// below), because a block is never tested against itself; debug builds
/// spot-check it. Under the complete relation a **single** input partition
/// (the `AllTuples` gather of a non-distributed plan, or a one-partition
/// child) may hold anything: it streams through an ordinary BNL window.
/// The incomplete relation has no such shortcut — it is not transitive
/// across classes, so even one partition is merged block by block.
#[derive(Debug)]
pub struct GlobalSkylineExec {
    spec: SkylineSpec,
    incomplete: bool,
    input: Arc<dyn ExecutionPlan>,
}

impl GlobalSkylineExec {
    /// Global skyline under the chosen dominance relation: the pairwise
    /// merge over the input's partitions (the planner feeds it the local
    /// skylines directly), or, for the complete relation, a streaming pass
    /// when the input is a single partition.
    pub fn new(spec: SkylineSpec, incomplete: bool, input: Arc<dyn ExecutionPlan>) -> Self {
        GlobalSkylineExec {
            spec,
            incomplete,
            input,
        }
    }
}

/// Antichain blocks encoded once for the pairwise cross-filter merge: the
/// block rows, in arrival order, plus each block's columnar encoding
/// **sorted by score key** — so every candidate
/// probes a block's strongest rows first and stops at the score bound
/// (`sparkline_skyline::bnl`, "The score-ordered window"). A block demoted
/// to scalar fallback stays unsorted; the primitive routes around it.
struct EncodedSkylines {
    checker: DominanceChecker,
    antichains: Vec<Partition>,
    blocks: Vec<ColumnarBlock>,
}

/// How many leading rows of each block the debug-build contract check
/// compares pairwise.
const ANTICHAIN_SPOT_CHECK_ROWS: usize = 32;

impl EncodedSkylines {
    fn new(checker: DominanceChecker, antichains: Vec<Partition>) -> Self {
        debug_assert!(
            antichains.iter().all(|p| {
                let head = &p[..p.len().min(ANTICHAIN_SPOT_CHECK_ROWS)];
                head.iter()
                    .all(|a| head.iter().all(|b| !checker.dominates(a, b)))
            }),
            "pairwise merge input block is not an antichain"
        );
        let blocks = antichains
            .iter()
            .map(|rows| {
                let mut block = ColumnarBlock::for_checker(&checker);
                rows.iter().for_each(|row| block.push(row));
                // Only the block is reordered: the cross-filter never
                // indexes the rows through it, and the survivor masks stay
                // in the antichain's arrival order.
                block.sort_by_key();
                block
            })
            .collect();
        EncodedSkylines {
            checker,
            antichains,
            blocks,
        }
    }

    /// Pairwise task `i`: which rows of block `i` no row of any other
    /// block strictly dominates. Cancel and deadline are observed every
    /// [`CONTROL_CHECK_ROWS`] candidates of every pair.
    fn survivors(
        &self,
        ctx: &TaskContext,
        i: usize,
        stats: &mut SkylineStats,
    ) -> Result<Vec<bool>> {
        let cands = &self.antichains[i];
        let mut alive = vec![true; cands.len()];
        for (j, against) in self.antichains.iter().enumerate() {
            if j == i {
                continue;
            }
            for (cands, alive) in cands
                .chunks(CONTROL_CHECK_ROWS)
                .zip(alive.chunks_mut(CONTROL_CHECK_ROWS))
            {
                ctx.control.check()?;
                cross_filter(&self.checker, cands, alive, against, &self.blocks[j], stats);
            }
        }
        Ok(alive)
    }

    /// The merged skyline: each block's survivors, in block order; under
    /// `DISTINCT` only the first of every group of dims-identical rows
    /// (the local phase already deduplicated each partition, so this only
    /// removes duplicates across partitions). As in the BNL window, a row
    /// the relation does not find `Equal` to itself — one with a NULL-like
    /// dimension under the complete relation — is never deduplicated.
    fn finish(self, alive: Vec<Vec<bool>>) -> Partition {
        let checker = &self.checker;
        let mut seen = HashSet::new();
        self.antichains
            .into_iter()
            .zip(alive)
            .flat_map(|(rows, alive)| rows.into_iter().zip(alive))
            .filter_map(|(row, alive)| alive.then_some(row))
            .filter(|row| {
                !checker.distinct()
                    || checker.compare(row, row) != Dominance::Equal
                    || seen.insert(checker.dim_values(row))
            })
            .collect()
    }
}

/// Cut a local skyline of the incomplete relation into its null-bitmap
/// class runs, in order — the class windows the local phase emitted one
/// after another, each an antichain.
fn class_runs(part: Partition, spec: &SkylineSpec) -> Vec<Partition> {
    let mut runs: Vec<Partition> = Vec::new();
    let mut current = None;
    for row in part {
        let bitmap = null_bitmap(&row, spec);
        match runs.last_mut() {
            Some(run) if current == Some(bitmap) => run.push(row),
            _ => runs.push(vec![row]),
        }
        current = Some(bitmap);
    }
    runs
}

/// The pairwise cross-filter merge of the drained local skylines `held`:
/// cut into antichain blocks, encode once, one task per block fanned over
/// the executor pool, survivors concatenated in block order, under the
/// drained reservations merged and shrunk to them.
fn pairwise_merge(
    ctx: &TaskContext,
    checker: DominanceChecker,
    held: Vec<HeldPartition>,
) -> Result<HeldPartition> {
    ctx.control.check()?;
    let (mut parts, mut reservation) = (Vec::new(), ctx.reservation());
    for (part, held) in held {
        reservation.merge(held);
        if !part.is_empty() {
            parts.push(part);
        }
    }
    // The local skylines gathered here are what the `AllTuples` exchange
    // used to move.
    let candidates = reservation.rows();
    ctx.metrics
        .rows_exchanged
        .fetch_add(candidates as u64, std::sync::atomic::Ordering::Relaxed);
    let incomplete = checker.is_incomplete();
    let antichains: Vec<Partition> = if incomplete {
        parts
            .into_iter()
            .flat_map(|part| class_runs(part, checker.spec()))
            .collect()
    } else {
        parts
    };
    if antichains.len() <= 1 {
        // Nothing to merge against: a lone antichain is the result.
        let lone = antichains.into_iter().next().unwrap_or_default();
        return Ok((lone, reservation));
    }
    ctx.metrics.add_merge_round(antichains.len());
    let encoded = EncodedSkylines::new(checker, antichains);
    let tasks: Vec<usize> = (0..encoded.antichains.len()).collect();
    // A failed pairwise task fails the stage.
    let outcomes: Vec<(Vec<bool>, SkylineStats)> = ctx.runtime.map_indexed(tasks, |i, _| {
        let mut stats = SkylineStats::default();
        let alive = encoded.survivors(ctx, i, &mut stats)?;
        Ok((alive, stats))
    })?;
    let mut stats = SkylineStats::default();
    let mut alive = Vec::with_capacity(outcomes.len());
    for (mask, task_stats) in outcomes {
        stats.merge(&task_stats);
        alive.push(mask);
    }
    let merged = encoded.finish(alive);
    let bytes = merged.iter().map(Row::estimated_bytes).sum();
    reservation.try_resize(merged.len(), bytes)?;
    stats.max_window = merged.len();
    record_stats(ctx, &stats);
    if incomplete {
        // Every candidate the all-pairs pass would flag is a deferred
        // deletion.
        ctx.metrics
            .add_deferred_deletions((candidates - merged.len()) as u64);
    }
    Ok((merged, reservation))
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
        let inputs = self.input.execute_stream(ctx)?;
        let checker = checker_for(&self.spec, self.incomplete);
        if inputs.len() <= 1 && !self.incomplete {
            // One partition (a gather, or a one-partition child): feed the
            // input batches straight into an unseeded BNL window — the
            // input need not be a skyline, and the only buffered state is
            // the window itself.
            let sink = SkylineSink::Bnl(Box::new(BnlBuilder::new(checker, true)));
            return Ok(vec![skyline_phase_stream(self.schema(), ctx, inputs, sink)]);
        }
        // A breaker: the input streams (each a local skyline pipeline) are
        // drained in parallel over the executor pool, then merged in one
        // pairwise round.
        let ctx2 = ctx.clone();
        Ok(breaker_streams(self.schema(), ctx, 1, move || {
            // A failed local-skyline pipeline fails the merge.
            let held = ctx2.drain(inputs)?;
            Ok(vec![pairwise_merge(&ctx2, checker, held)?])
        }))
    }

    fn describe(&self) -> String {
        format!(
            "GlobalSkylineExec [{} dims{}{}, pairwise merge, vectorized: {}]",
            self.spec.dims.len(),
            if self.incomplete { ", incomplete" } else { "" },
            if self.spec.distinct { ", distinct" } else { "" },
            kernel_label(),
        )
    }
}

/// Single-dimension optimum filter (§5.4 rewrite target): one O(n) pass
/// per input partition keeps that partition's candidates, and one more
/// over the candidates, in partition order, keeps the global optimum's.
#[derive(Debug, Clone)]
pub struct MinMaxFilterExec {
    expr: Expr,
    direction: MinMaxDirection,
    distinct: bool,
    complete: bool,
    input: Arc<dyn ExecutionPlan>,
}

impl MinMaxFilterExec {
    /// Keep the tuples that attain the optimum of `expr` and the NULL-like
    /// ones (NULL or NaN: incomparable, hence skyline members). `distinct`
    /// keeps one tuple per identical value, except NULL-like tuples under
    /// the skyline's `complete` relation, which are not even equal to
    /// themselves and all stay.
    pub fn new(
        expr: Expr,
        direction: MinMaxDirection,
        distinct: bool,
        complete: bool,
        input: Arc<dyn ExecutionPlan>,
    ) -> Self {
        MinMaxFilterExec {
            expr,
            direction,
            distinct,
            complete,
            input,
        }
    }
}

/// The rows a [`MinMaxFilterExec`] pass has kept so far — those tied at
/// the best value seen, and the NULL-like ones — with their bytes.
#[derive(Default)]
struct MinMaxCandidates {
    best: Option<Value>,
    ties: Vec<Row>,
    nulls: Vec<Row>,
    seen_nulls: HashSet<Value>,
    bytes: (usize, usize),
}

impl MinMaxCandidates {
    /// Admit one row. Under `DISTINCT` only the first optimum row stays,
    /// and, under the incomplete relation, the first NULL-like row of each
    /// identical value.
    fn push(&mut self, filter: &MinMaxFilterExec, row: Row) -> Result<()> {
        let value = filter.expr.evaluate(&row)?;
        let size = row.estimated_bytes();
        if is_null_like(&value) {
            if !filter.distinct || filter.complete || self.seen_nulls.insert(value) {
                self.bytes.1 += size;
                self.nulls.push(row);
            }
            return Ok(());
        }
        let order = self.best.as_ref().map(|best| value.sql_compare(best));
        match (order, filter.direction) {
            (None, _)
            | (Some(Some(Ordering::Less)), MinMaxDirection::Min)
            | (Some(Some(Ordering::Greater)), MinMaxDirection::Max) => {
                (self.best, self.ties, self.bytes.0) = (Some(value), vec![row], size);
            }
            (Some(Some(Ordering::Equal)), _) if !filter.distinct => {
                self.bytes.0 += size;
                self.ties.push(row);
            }
            _ => {}
        }
        Ok(())
    }

    /// Rows and bytes held, charged like a skyline window.
    fn size(&self) -> (usize, usize) {
        (
            self.ties.len() + self.nulls.len(),
            self.bytes.0 + self.bytes.1,
        )
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
        let inputs = self.input.execute_stream(ctx)?;
        // The global optimum is known only once every partition is read,
        // so the filter is a breaker; but it holds only candidates, never
        // its input.
        let (filter, ctx2) = (self.clone(), ctx.clone());
        Ok(breaker_streams(self.schema(), ctx, 1, move || {
            let folded = ctx2.fold(inputs, MinMaxCandidates::default, |kept, batch| {
                for row in batch {
                    kept.push(&filter, row)?;
                }
                Ok(kept.size())
            })?;
            // A partition's ties fall to a better partition's, exactly as
            // within a partition; the reservations shrink to what is kept.
            let (mut all, mut reservation) = (MinMaxCandidates::default(), ctx2.reservation());
            for (part, held) in folded {
                reservation.merge(held);
                for row in part.ties.into_iter().chain(part.nulls) {
                    all.push(&filter, row)?;
                }
            }
            let (rows, bytes) = all.size();
            reservation.try_resize(rows, bytes)?;
            all.ties.append(&mut all.nulls);
            Ok(vec![(all.ties, reservation)])
        }))
    }

    fn describe(&self) -> String {
        format!(
            "MinMaxFilterExec [{} {}{}{}]",
            self.direction,
            self.expr,
            if self.distinct { ", distinct" } else { "" },
            if self.complete { ", complete" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::ExchangeExec;
    use crate::scan::ScanExec;
    use sparkline_common::{DataType, Field, Schema, SkylineDim};
    use sparkline_exec::partition::flatten;
    use sparkline_plan::BoundColumn;
    use sparkline_skyline::{incomplete_global_skyline, naive_skyline};

    fn input(rows: Vec<Vec<Value>>) -> Arc<dyn ExecutionPlan> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Int64, true),
        ])
        .into_ref();
        Arc::new(
            ScanExec::from_rows("t", rows.into_iter().map(Row::new).collect(), schema).unwrap(),
        )
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
        let global = GlobalSkylineExec::new(spec2(), false, gathered);
        let rows = run(&global, 3);
        assert_eq!(rows.len(), 4);
        // Same result with one executor.
        let data = int_rows(&[(1, 9), (2, 7), (3, 8), (4, 4), (5, 5), (6, 1), (7, 2)]);
        let local = Arc::new(LocalSkylineExec::new(spec2(), false, input(data)));
        let gathered = Arc::new(ExchangeExec::single(local));
        let global = GlobalSkylineExec::new(spec2(), false, gathered);
        assert_eq!(run(&global, 1).len(), 4);
    }

    fn spec3() -> SkylineSpec {
        SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
            SkylineDim::min(2),
        ])
    }

    /// The engine's incomplete plan over three nullable columns: the
    /// per-class local phase on the scan's partitions, the incomplete
    /// global merge fed the local skylines directly.
    fn incomplete_plan(rows: Vec<Row>, spec: SkylineSpec) -> GlobalSkylineExec {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64, true),
            Field::new("y", DataType::Int64, true),
            Field::new("z", DataType::Int64, true),
        ])
        .into_ref();
        let scan: Arc<dyn ExecutionPlan> =
            Arc::new(ScanExec::from_rows("t", rows, schema).unwrap());
        let local = LocalSkylineExec::new(spec.clone(), true, scan);
        GlobalSkylineExec::new(spec, true, Arc::new(local))
    }

    #[test]
    fn incomplete_plan_handles_cycles() {
        // The Appendix A cycle a ≺ b ≺ c ≺ a: every tuple is dominated, so
        // the skyline is empty however the classes fall into partitions,
        // and all three candidates are deferred deletions.
        let cycle = vec![
            Row::new(vec![Value::Int64(1), Value::Null, Value::Int64(10)]),
            Row::new(vec![Value::Int64(3), Value::Int64(2), Value::Null]),
            Row::new(vec![Value::Null, Value::Int64(5), Value::Int64(3)]),
        ];
        for executors in [1usize, 2, 3] {
            let ctx = TaskContext::new(executors);
            let plan = incomplete_plan(cycle.clone(), spec3());
            assert!(
                flatten(plan.execute(&ctx).unwrap()).is_empty(),
                "{executors} executors: the cycle must cancel out"
            );
            let m = ctx.metrics.snapshot();
            assert_eq!(m.deferred_deletions, 3, "{m:?}");
            assert_eq!(m.merge_rounds, 1, "{m:?}");
        }
        let ctx = TaskContext::new(3);
        let empty = incomplete_plan(Vec::new(), spec3());
        assert!(flatten(empty.execute(&ctx).unwrap()).is_empty());
        assert_eq!(ctx.metrics.snapshot().merge_rounds, 0);
    }

    #[test]
    fn incomplete_pairwise_merge_is_byte_identical_to_the_all_pairs_pass() {
        // Mixed-bitmap data, DISTINCT over duplicated rows, and a string
        // dimension that demotes the class blocks holding strings to
        // scalar fallback: the merge returns the rows of the paper's
        // all-pairs pass over the gathered local skylines, in the same
        // order, and defers exactly the candidates that pass flags.
        let mixed: Vec<Row> = (0..180)
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
        let dupes: Vec<Row> = mixed.iter().chain(&mixed).cloned().collect();
        let strings: Vec<Row> = (0..60)
            .map(|i: i64| {
                Row::new(vec![
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("s{:02}", i % 5))
                    },
                    Value::Int64(i % 7),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(i % 5)
                    },
                ])
            })
            .collect();
        let distinct = SkylineSpec::distinct(spec3().dims);
        for (name, rows, spec) in [
            ("mixed", mixed, spec3()),
            ("distinct", dupes, distinct),
            ("strings", strings, spec3()),
        ] {
            let checker = DominanceChecker::incomplete(spec.clone());
            let plan = incomplete_plan(rows, spec.clone());
            let locals = plan.children()[0].execute(&TaskContext::new(6)).unwrap();
            // One block per (partition, class) run: a class may span
            // partitions, and each partition emits it as one window.
            let runs: usize = locals
                .iter()
                .map(|part| {
                    let classes: HashSet<u64> =
                        part.iter().map(|row| null_bitmap(row, &spec)).collect();
                    classes.len()
                })
                .sum();
            let candidates = flatten(locals);
            let expected = incomplete_global_skyline(
                candidates.clone(),
                &checker,
                &mut SkylineStats::default(),
                &QueryControl::unlimited(),
            )
            .unwrap();
            assert!(!expected.is_empty(), "{name}");
            let ctx = TaskContext::new(6);
            let parts = plan.execute(&ctx).unwrap();
            assert_eq!(parts.len(), 1, "global phase yields one partition");
            assert_eq!(flatten(parts), expected, "{name}");
            let m = ctx.metrics.snapshot();
            assert_eq!(
                m.deferred_deletions as usize,
                candidates.len() - expected.len(),
                "{name}: {m:?}"
            );
            assert_eq!(m.merge_rounds, 1, "{name}: {m:?}");
            assert_eq!(m.merge_tasks as usize, runs, "{name}");
            if name == "strings" {
                assert!(m.scalar_tests > 0, "{name}: {m:?}");
            } else {
                assert!(m.batched_tests > 0, "{name}: {m:?}");
            }
        }
    }

    #[test]
    fn incomplete_describe_names_the_merge() {
        let global = GlobalSkylineExec::new(spec2(), true, input(Vec::new()));
        assert_eq!(
            global.describe(),
            format!(
                "GlobalSkylineExec [2 dims, incomplete, pairwise merge, vectorized: {}]",
                kernel_label()
            )
        );
        let distinct = SkylineSpec::distinct(spec2().dims);
        let distinct = GlobalSkylineExec::new(distinct, true, input(Vec::new()));
        assert_eq!(
            distinct.describe(),
            format!(
                "GlobalSkylineExec [2 dims, incomplete, distinct, pairwise merge, vectorized: {}]",
                kernel_label()
            )
        );
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
            false,
            Arc::new(
                ScanExec::from_rows(
                    "t",
                    vec![
                        Row::new(vec![Value::Null, Value::Int64(1)]),
                        Row::new(vec![Value::Int64(3), Value::Int64(2)]),
                        Row::new(vec![Value::Int64(7), Value::Int64(3)]),
                    ],
                    Schema::new(vec![
                        Field::new("a", DataType::Int64, true),
                        Field::new("b", DataType::Int64, false),
                    ])
                    .into_ref(),
                )
                .unwrap(),
            ),
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
            false,
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
        let scan: Arc<dyn ExecutionPlan> =
            Arc::new(ScanExec::from_rows("t", rows, schema).unwrap());
        let local = LocalSkylineExec::new(spec3, true, scan);
        // One executor => single partition holding all three bitmaps.
        let rows = run(&local, 1);
        assert_eq!(rows.len(), 3, "local phase must not delete cycle members");
    }

    /// Local skylines over `data` (the scan's even split), merged
    /// pairwise; `gather` puts the paper's `AllTuples` exchange below the
    /// merge (the streaming single-partition pass — the merge's oracle).
    fn merged(
        data: &[Vec<Value>],
        spec: SkylineSpec,
        gather: bool,
        executors: usize,
    ) -> (Vec<Row>, sparkline_exec::MetricsSnapshot) {
        let local: Arc<dyn ExecutionPlan> = Arc::new(LocalSkylineExec::new(
            spec.clone(),
            false,
            input(data.to_vec()),
        ));
        let global_input = if gather {
            Arc::new(ExchangeExec::single(local))
        } else {
            local
        };
        let global = GlobalSkylineExec::new(spec, false, global_input);
        let ctx = TaskContext::new(executors);
        let parts = global.execute(&ctx).unwrap();
        assert_eq!(parts.len(), 1, "global phase yields one partition");
        (flatten(parts), ctx.metrics.snapshot())
    }

    #[test]
    fn pairwise_merge_is_byte_identical_to_the_gathered_pass() {
        // Many partitions of mixed data: the merge must produce the same
        // rows in the same order as one BNL pass over the gather.
        let data: Vec<Vec<Value>> = (0..200)
            .map(|i: i64| vec![Value::Int64((i * 37) % 100), Value::Int64((i * 53) % 100)])
            .collect();
        let (gathered, gathered_metrics) = merged(&data, spec2(), true, 8);
        assert_eq!(gathered_metrics.merge_rounds, 0, "one partition: no merge");

        let (pairwise, metrics) = merged(&data, spec2(), false, 8);
        assert_eq!(pairwise, gathered);
        assert_eq!(metrics.merge_rounds, 1, "{metrics:?}");
        assert_eq!(metrics.merge_tasks, 8, "one task per local skyline");
        assert_eq!(
            metrics.rows_exchanged, gathered_metrics.rows_exchanged,
            "the merge gathers what the exchange moved"
        );
        assert!(metrics.dominator_walks > 0, "{metrics:?}");
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
            let rows: Vec<Row> = data.iter().cloned().map(Row::new).collect();
            let expected = naive_skyline(&rows, &DominanceChecker::complete(spec.clone()));
            assert!(!expected.is_empty());
            for gather in [true, false] {
                let (rows, m) = merged(data, spec.clone(), gather, 5);
                assert_eq!(rows, expected, "{name} gather={gather}");
                if name == "strings" {
                    assert_eq!(m.batched_tests, 0, "{name}: {m:?}");
                }
            }
        }
    }

    #[test]
    fn pairwise_merge_skips_empty_partitions_and_single_survivors() {
        // Two rows over eight executors: most local skylines are empty,
        // and an all-empty input merges to nothing without a round.
        let data = int_rows(&[(1, 2), (2, 1)]);
        let (rows, m) = merged(&data, spec2(), false, 8);
        assert_eq!(rows.len(), 2);
        assert_eq!(m.merge_rounds, 1);
        assert_eq!(m.merge_tasks, 2, "only non-empty partitions get a task");
        let (rows, m) = merged(&[], spec2(), false, 8);
        assert!(rows.is_empty());
        assert_eq!(m.merge_rounds, 0);
    }

    #[test]
    fn pairwise_tasks_observe_cancel_and_deadline() {
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
        let checker = || DominanceChecker::complete(spec2());
        let encoded = EncodedSkylines::new(checker(), parts.clone());
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
        let held = |ctx: &TaskContext| -> Vec<HeldPartition> {
            let bytes = |p: &Partition| p.iter().map(Row::estimated_bytes).sum();
            let reserve = |p: &Partition| {
                let mut held = ctx.reservation();
                held.try_resize(p.len(), bytes(p)).unwrap();
                held
            };
            parts.iter().map(|p| (p.clone(), reserve(p))).collect()
        };
        let err = pairwise_merge(&late, checker(), held(&late)).unwrap_err();
        assert!(err.is_timeout(), "{err}");
        assert_eq!(late.memory.current_bytes(), 0);

        // The drained reservations shrink to the survivors.
        let ctx = TaskContext::new(2);
        let (merged, reservation) = pairwise_merge(&ctx, checker(), held(&ctx)).unwrap();
        assert_eq!(merged, parts[1], "only the dominating staircase is left");
        assert_eq!(reservation.rows(), merged.len());
        assert_eq!(ctx.memory.current_bytes(), reservation.bytes());
    }

    #[test]
    fn describe_names_the_merge() {
        let global = GlobalSkylineExec::new(spec2(), false, input(Vec::new()));
        assert_eq!(
            global.describe(),
            format!(
                "GlobalSkylineExec [2 dims, pairwise merge, vectorized: {}]",
                kernel_label()
            )
        );
    }

    #[test]
    fn vectorized_and_scalar_plans_are_byte_identical() {
        // The vectorized plans against the scalar definition.
        let data: Vec<Vec<Value>> = (0..200)
            .map(|i: i64| vec![Value::Int64((i * 37) % 80), Value::Int64((i * 53) % 80)])
            .collect();
        let rows: Vec<Row> = data.iter().cloned().map(Row::new).collect();
        let scalar_rows = naive_skyline(&rows, &DominanceChecker::complete(spec2()));
        for gather in [true, false] {
            let (vec_rows, v) = merged(&data, spec2(), gather, 6);
            // Row-for-row identical, including order.
            assert_eq!(scalar_rows, vec_rows, "gather={gather}");
            assert!(v.batched_tests > 0, "gather={gather}: {v:?}");
            assert_eq!(v.scalar_tests, 0, "gather={gather}: {v:?}");
        }
    }

    #[test]
    fn vectorized_describe_names_the_kernel() {
        // Both phases name the tier detected on the host CPU.
        let label = format!("vectorized: {}]", kernel_label());
        let local = LocalSkylineExec::new(spec2(), false, input(Vec::new()));
        assert!(local.describe().ends_with(&label), "{}", local.describe());
        let global = GlobalSkylineExec::new(spec2(), false, input(Vec::new()));
        assert!(global.describe().ends_with(&label), "{}", global.describe());
    }

    #[test]
    fn one_denied_reservation_is_one_budget_denial() {
        // Two scan partitions: 200 mutually incomparable rows (a 9 600 B
        // local skyline, past the 5 000 B budget) and a 200-row chain (a
        // one-row local skyline). The first local phase's window
        // reservation is the only denial; each breaker the error then
        // passes through must not count it again.
        let mut data: Vec<(i64, i64)> = (0..200).map(|i| (i, 200 - i)).collect();
        data.extend((0..200).map(|i| (300 + i, 300 + i)));
        let plan = || -> Arc<dyn ExecutionPlan> {
            let local = LocalSkylineExec::new(spec2(), false, input(int_rows(&data)));
            Arc::new(GlobalSkylineExec::new(spec2(), false, Arc::new(local)))
        };
        let sorted: Arc<dyn ExecutionPlan> = Arc::new(crate::basic::SortExec::new(
            vec![sparkline_plan::SortExpr::asc(Expr::BoundColumn(
                BoundColumn {
                    index: 0,
                    field: Field::new("a", DataType::Int64, true),
                },
            ))],
            plan(),
        ));
        for (name, plan) in [("bare", plan()), ("under a sort", sorted)] {
            let ctx = TaskContext::new(2).with_memory_budget(Some(5_000));
            let err = plan.execute(&ctx).unwrap_err();
            assert!(err.is_resource_exhausted(), "{name}: {err}");
            assert_eq!(ctx.metrics.snapshot().budget_denials, 1, "{name}");
        }
    }

    #[test]
    fn a_window_past_the_budget_fails_before_the_input_ends() {
        // 1 000 mutually incomparable rows of 48 B in one partition,
        // pulled 64 at a time: the window grows by 3 072 B per batch, so
        // the 5 000 B budget denies it on the second batch, long before
        // the scan has read the input.
        let data: Vec<(i64, i64)> = (0..1000).map(|i| (i, 1000 - i)).collect();
        let local = LocalSkylineExec::new(spec2(), false, input(int_rows(&data)));
        let ctx = TaskContext::new(1)
            .with_batch_size(64)
            .with_memory_budget(Some(5_000));
        let err = local.execute(&ctx).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        let m = ctx.metrics.snapshot();
        assert_eq!(m.budget_denials, 1);
        assert!(m.rows_scanned < 1000, "read {} rows", m.rows_scanned);
        assert_eq!(ctx.memory.current_bytes(), 0);
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

    /// 20 000 two-column rows (48 B each) whose `a` is `a(i)`.
    fn rows_by(a: impl Fn(i64) -> i64) -> Arc<dyn ExecutionPlan> {
        input(int_rows(
            &(0..20_000).map(|i| (a(i), i)).collect::<Vec<_>>(),
        ))
    }

    fn col_a() -> Expr {
        Expr::BoundColumn(BoundColumn {
            index: 0,
            field: Field::new("a", DataType::Int64, true),
        })
    }

    #[test]
    fn a_gathered_skyline_is_denied_while_it_drains() {
        // The non-distributed plan gathers every row before its BNL pass:
        // the gather is charged batch by batch (256 rows, 12 288 B), so a
        // 5 000 B budget stops it on its first batch.
        let gathered = Arc::new(ExchangeExec::single(rows_by(|i| -i)));
        let plan = GlobalSkylineExec::new(spec2(), false, gathered);
        let ctx = TaskContext::new(1)
            .with_batch_size(256)
            .with_memory_budget(Some(5_000));
        let err = plan.execute(&ctx).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        let m = ctx.metrics.snapshot();
        assert_eq!(m.budget_denials, 1);
        assert!(m.rows_scanned < 20_000, "read {} rows", m.rows_scanned);
        assert_eq!(ctx.memory.current_bytes(), 0);
    }

    #[test]
    fn minmax_filter_holds_only_its_candidates() {
        // Every row ties at the optimum: all are candidates, and a
        // 1 000 B budget denies them mid-input.
        let tied =
            MinMaxFilterExec::new(col_a(), MinMaxDirection::Min, false, false, rows_by(|_| 1));
        let ctx = TaskContext::new(2).with_memory_budget(Some(1_000));
        let err = tied.execute(&ctx).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        assert!(ctx.metrics.snapshot().rows_scanned < 20_000);
        assert_eq!(ctx.memory.current_bytes(), 0);

        // Distinct values, falling so that every row improves on the last:
        // each partition holds one candidate at a time.
        let falling =
            MinMaxFilterExec::new(col_a(), MinMaxDirection::Min, false, false, rows_by(|i| -i));
        let ctx = TaskContext::new(2).with_memory_budget(Some(1_000));
        let rows = flatten(falling.execute(&ctx).unwrap());
        assert_eq!(
            rows,
            vec![Row::new(vec![Value::Int64(-19_999), Value::Int64(19_999)])]
        );
        assert_eq!(ctx.metrics.snapshot().budget_denials, 0);
        assert!(
            ctx.memory.peak_bytes() <= 2 * 48,
            "peak {} B",
            ctx.memory.peak_bytes()
        );
    }
}
