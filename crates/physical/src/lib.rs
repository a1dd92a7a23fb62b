#![warn(missing_docs)]

//! # sparkline-physical
//!
//! Physical operators and the physical planner of the `sparkline` engine.
//! The planner translates optimized logical plans into executable operator
//! trees and performs the paper's skyline **algorithm selection**
//! (Listing 8): complete data runs the two-phase Block-Nested-Loop plan
//! (`LocalSkylineExec` + `GlobalSkylineExec` merging the local skylines
//! pairwise over the executor pool); for potentially incomplete data the
//! local phase groups each scan partition by null bitmap, with no
//! exchange, and the same `GlobalSkylineExec` finishes under the
//! incomplete relation, whose pairwise merge over the bitmap-class runs
//! computes the paper's all-pairs pass with deferred deletion.
//!
//! Operators follow a **pull-based, batched stream model** (the analogue
//! of Spark's pipelined narrow transformations): `execute_stream` returns
//! one [`PartitionStream`] per output partition, and each stream yields
//! batches of `SessionConfig::batch_size` rows on demand — row batches,
//! or, from the disk scan, column batches that become rows only where an
//! operator asks for them. Narrow
//! operators — scan, project, filter, limit, distinct, join probe sides —
//! are true pipelined transforms: pulling one batch from the root pulls
//! exactly one batch through the whole chain, so peak memory is bounded
//! by `batch_size × pipeline depth` (plus breaker state) instead of the
//! sum of all intermediates, and `LIMIT k` cancels upstream work after
//! `O(k / batch_size)` batches. Pipeline breakers — sort, aggregation,
//! exchanges, the skyline phases, join build sides — consume their input
//! streams batch-by-batch into their internal state (the skyline
//! operators feed batches straight into the columnar kernel's
//! encode-once window builders) and fan the draining of multiple input
//! streams over the executor pool, which is where the `num_executors`-way
//! parallelism of the paper's local/global structure lives. A breaker
//! that buffers its input does so through `TaskContext::drain`, which
//! charges every pulled batch to the memory budget.
//!
//! The provided [`ExecutionPlan::execute`] helper drains all streams into
//! one `Vec<Row>` per partition, for callers that want the whole result.

pub mod aggregate;
pub mod basic;
pub mod exchange;
pub mod join;
pub mod planner;
pub mod scan;
pub mod scan_disk;
pub mod skyline_exec;

use std::fmt;
use std::sync::{Arc, OnceLock};

use sparkline_common::{Result, SchemaRef};
use sparkline_exec::{Partition, PartitionStream, TaskContext};

pub use aggregate::HashAggregateExec;
pub use basic::{DistinctExec, FilterExec, LimitExec, ProjectExec, SortExec};
pub use exchange::ExchangeExec;
pub use join::{HashJoinExec, NestedLoopJoinExec};
pub use planner::{ExecTableSource, PhysicalPlanner};
pub use scan::ScanExec;
pub use scan_disk::{ColumnPredicate, DiskScanExec, DominanceSkip, GateSample};
pub use skyline_exec::{GlobalSkylineExec, LocalSkylineExec, MinMaxFilterExec};

/// A physical operator.
pub trait ExecutionPlan: fmt::Debug + Send + Sync {
    /// Operator name for plan display.
    fn name(&self) -> &'static str;

    /// Output schema.
    fn schema(&self) -> SchemaRef;

    /// Child operators.
    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>>;

    /// Execute, producing one pull-based batch stream per output
    /// partition. Streams are lazy: no work happens until a batch is
    /// pulled, and dropping a stream cancels its remaining upstream work.
    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>>;

    /// Drain every partition stream (fanned over the executor pool) into
    /// one `Vec<Row>` per partition. Byte-identical to consuming the
    /// streams directly; used by tests and the bench harness. Fail-fast:
    /// the first partition error is the result. The result is the
    /// caller's, not an operator's, so it is not charged to the memory
    /// budget ([`TaskContext::drain`] is the charged drain).
    fn execute(&self, ctx: &TaskContext) -> Result<Vec<Partition>> {
        ctx.runtime
            .map_indexed(self.execute_stream(ctx)?, |_, stream| stream.drain())
    }

    /// One-line description (operator plus parameters).
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// The write-once dominance-skip slot of a disk scan and the table's
    /// footer sample, narrowed to the rows the scan's own filter passes,
    /// with the blocks that filter passes whole, letting the skyline
    /// planner install gate points after the tree is built. `None` (the
    /// default) for every other operator.
    fn dominance_skip_slot(&self) -> Option<(&OnceLock<DominanceSkip>, GateSample)> {
        None
    }

    /// Pass a disk scan's footer `sample` through this operator on the
    /// planner's walk from a skyline operator down to the scan: keep
    /// exactly the rows this operator would output unchanged and return
    /// `true`, or return `false` (the default) when its output rows are
    /// not unmodified input rows and the walk must stop. Filters drop the
    /// rows their predicate rejects, every block (they cannot prove that
    /// a whole block passes), and record the `Float64` columns the
    /// predicate reads; sorts and distinct keep every row and block.
    /// Through a chain that returns `true`, column positions and values
    /// are those of the scan, so every surviving sample row is a row of
    /// the skyline's input, and every row of a surviving block is one.
    fn pass_sample(&self, _sample: &mut GateSample) -> bool {
        false
    }
}

/// Walk a single-child chain of value-preserving operators down to a disk
/// scan's dominance-skip slot, if one is reachable. Returns the slot with
/// the scan's footer sample narrowed to the rows every filter on the way
/// passes — real rows of `plan`'s output — the blocks whose rows all
/// reach it, and the columns those filters read.
pub fn find_dominance_skip_slot(
    plan: &dyn ExecutionPlan,
) -> Option<(&OnceLock<DominanceSkip>, GateSample)> {
    if let Some(found) = plan.dominance_skip_slot() {
        return Some(found);
    }
    let children = plan.children();
    if children.len() != 1 {
        return None;
    }
    let only: &Arc<dyn ExecutionPlan> = children[0];
    let (slot, mut sample) = find_dominance_skip_slot(only.as_ref())?;
    plan.pass_sample(&mut sample).then_some((slot, sample))
}

/// Render a physical plan tree, one operator per line.
pub fn display_physical(plan: &Arc<dyn ExecutionPlan>) -> String {
    fn build(plan: &Arc<dyn ExecutionPlan>, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&plan.describe());
        out.push('\n');
        for child in plan.children() {
            build(child, depth + 1, out);
        }
    }
    let mut out = String::new();
    build(plan, 0, &mut out);
    out
}
