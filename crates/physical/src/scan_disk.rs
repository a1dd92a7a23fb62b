//! The out-of-core scan: streams a [`DiskTable`]'s blocks, skipping whole
//! blocks from metadata — static min/max pruning for pushed-down filter
//! conjuncts and dominance pruning against the skyline of the table's
//! footer sample — before any I/O or decode happens.
//!
//! Skipping is not a mode: every scan consults both tiers, and both are
//! sound on their own (see `sparkline_storage`'s crate docs). Min/max
//! pruning only discards blocks the scan's filter would empty, and the
//! dominance gate — present only when the skyline planner installed one —
//! only blocks whose rows a real input row strictly dominates. Neither
//! skips a block with a NaN in a `Float64` column a filter reads, where
//! the filter may fail (see [`GateSample`]). The gate's
//! points live in a [`ColumnarBlock`] and each block's best corner is
//! tested as one encoded candidate, on the same dominance kernel as the
//! skyline operators.
//!
//! **Pruning comes before the split.** Every verdict is footer metadata,
//! so [`DiskScanExec`] decides all of them when it starts (the loop its
//! `EXPLAIN` tag already runs) and only then deals the kept blocks to the
//! executors, in contiguous, even runs. A filter that refutes a region
//! of the file therefore leaves no executor idle, and the partitions read
//! in order are the kept blocks in file order whatever the executor
//! count, so a query's output does not depend on it.
//!
//! **Blocks stay columns.** A kept block decodes batch by batch into a
//! [`ColumnBatch`] — `f64`/`i64` buffers, NULL flags and a selection
//! vector — and goes downstream as one; an operator that wants rows gets
//! them built from the selected rows, and the local skyline builds one
//! only for a row that survives its first cross-filter. The `Filter`
//! directly above the scan is the scan's own when its whole predicate is
//! an `AND` of exactly comparable `column <op> literal` conjuncts
//! ([`exact_conjuncts`]): a `Float64` column against a non-NaN `Float64`
//! literal or an `Int64` literal `f64` holds exactly, an `Int64` column
//! against an `Int64` literal, with `<`, `<=`, `>`, `>=` or `=`. The scan
//! then evaluates it on the buffers, with `Expr::evaluate`'s Kleene
//! semantics and errors, narrows each batch's selection, and the planner
//! plans no `FilterExec`. Any other predicate keeps its `FilterExec`
//! above the scan, which evaluates it exactly, and only its comparable
//! conjuncts reach the scan, as min/max bounds.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use sparkline_common::{
    BatchColumn, ColumnBatch, ColumnValues, DataType, Result, Row, Schema, SchemaRef, SkylineDim,
    SkylineSpec, SkylineType, Value,
};
use sparkline_exec::{partition::even_ranges, Batch, PartitionStream, TaskContext};
use sparkline_plan::{split_conjuncts, BinaryOp, Expr};
use sparkline_skyline::{bnl_skyline, ColumnarBlock, DominanceChecker, SkylineStats};
use sparkline_storage::{BlockDecoder, BlockMeta, DiskTable};

use crate::ExecutionPlan;

/// One pushed-down comparison `column <op> literal` of the `Filter` on a
/// disk scan. A block's min/max can refute it; and when every conjunct of
/// the filter is exactly comparable ([`exact_conjuncts`]) the scan
/// evaluates them all on its column buffers and the planner drops the
/// `FilterExec`. Otherwise the `FilterExec` above the scan evaluates
/// the predicate, and pruning only discards blocks *no* row of which can
/// pass, so results are identical with pruning on or off.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Column position in the scan schema.
    pub col: usize,
    /// The comparison, normalized to `column <op> literal`.
    pub op: BinaryOp,
    /// The literal: an `Int64`, or a `Float64` that is never NaN but may
    /// be ±inf (an infinite bound refutes only what every finite value
    /// would, so it is as sound as any other).
    pub literal: Value,
}

/// A comparison's outcome on one row, as `Expr::evaluate` would give it.
enum Truth {
    True,
    False,
    /// The column is NULL: the comparison is NULL.
    Unknown,
    /// The values do not compare (a NaN): evaluation fails.
    Incomparable,
}

impl ColumnPredicate {
    /// The literal as an `f64`, for the footer's `f64` bounds.
    fn bound(&self) -> f64 {
        match self.literal {
            Value::Int64(i) => i as f64,
            Value::Float64(f) => f,
            _ => f64::NAN,
        }
    }

    /// Whether comparing a column of type `ty` with the literal is exact
    /// on the scan's buffers: a `Float64` column with a `Float64` literal
    /// or an `Int64` literal that `f64` holds exactly (the values then
    /// compare as their `f64`s do), or an `Int64` column with an `Int64`
    /// literal.
    fn exact_on(&self, ty: DataType) -> bool {
        match (ty, &self.literal) {
            (DataType::Float64, Value::Float64(_)) | (DataType::Int64, Value::Int64(_)) => true,
            (DataType::Float64, Value::Int64(i)) => *i != i64::MAX && (*i as f64) as i64 == *i,
            _ => false,
        }
    }

    /// The comparison on physical row `i` of `col`, with the semantics of
    /// `Value::sql_compare`: a NULL row is unknown, a NaN incomparable.
    fn truth(&self, col: &BatchColumn, i: usize) -> Truth {
        if col.is_null(i) {
            return Truth::Unknown;
        }
        let ord = match &col.values {
            // Exact: the literal is a non-NaN f64, or an integer it holds.
            ColumnValues::Float64(v) => v[i].partial_cmp(&self.bound()),
            _ => col.value(i).sql_compare(&self.literal),
        };
        let Some(ord) = ord else {
            return Truth::Incomparable;
        };
        let pass = match self.op {
            BinaryOp::Lt => ord.is_lt(),
            BinaryOp::LtEq => ord.is_le(),
            BinaryOp::Gt => ord.is_gt(),
            BinaryOp::GtEq => ord.is_ge(),
            _ => ord.is_eq(),
        };
        if pass {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Whether the block provably contains no row satisfying this
    /// predicate. NULL rows never satisfy a comparison (SQL three-valued
    /// logic: the filter keeps only `TRUE`), so the decision rests on the
    /// numeric `[min, max]` alone — unless the column holds non-numeric
    /// values (strings, NaN), which the bounds don't cover, or its bounds
    /// are not exact (Int64 beyond 2^53, where the literal and the rows
    /// may round differently); those blocks are never pruned.
    fn refutes(&self, meta: &BlockMeta) -> bool {
        let Some(col) = meta.columns.get(self.col) else {
            return false;
        };
        if col.non_numeric > 0 || !col.exact_bounds() {
            return false;
        }
        let (Some(min), Some(max)) = (col.min, col.max) else {
            // Every row is NULL: no row satisfies any comparison.
            return true;
        };
        let v = self.bound();
        match self.op {
            BinaryOp::Lt => min >= v,
            BinaryOp::LtEq => min > v,
            BinaryOp::Gt => max <= v,
            BinaryOp::GtEq => max < v,
            BinaryOp::Eq => v < min || v > max,
            _ => false,
        }
    }
}

/// The predicate of one `column <op> literal` comparison (either
/// orientation), normalized; `None` for any other expression.
fn comparison(e: &Expr) -> Option<ColumnPredicate> {
    fn literal(e: &Expr) -> Option<Value> {
        match e {
            Expr::Literal(v @ Value::Int64(_)) => Some(v.clone()),
            Expr::Literal(Value::Float64(f)) if !f.is_nan() => Some(Value::Float64(*f)),
            _ => None,
        }
    }
    fn flip(op: BinaryOp) -> BinaryOp {
        match op {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }
    let Expr::BinaryOp { left, op, right } = e else {
        return None;
    };
    if !matches!(
        op,
        BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq | BinaryOp::Eq
    ) {
        return None;
    }
    let (col, op, literal) = match (left.as_ref(), right.as_ref()) {
        (Expr::BoundColumn(c), lit) => (c, *op, literal(lit)?),
        (lit, Expr::BoundColumn(c)) => (c, flip(*op), literal(lit)?),
        _ => return None,
    };
    Some(ColumnPredicate {
        col: col.index,
        op,
        literal,
    })
}

/// Extract the min/max-prunable conjuncts of a filter predicate sitting
/// directly on a disk scan: `BoundColumn <op> numeric-literal` (either
/// orientation) joined by `AND`. Everything else is ignored — missing a
/// conjunct costs only pruning power.
pub fn extract_column_predicates(predicate: &Expr) -> Vec<ColumnPredicate> {
    split_conjuncts(predicate)
        .iter()
        .filter_map(comparison)
        .collect()
}

/// The conjuncts of `predicate`, in evaluation order, when it is an `AND`
/// of comparisons each exactly comparable on its column of `schema`: the
/// predicate a disk scan evaluates itself. `None` for any other predicate.
pub fn exact_conjuncts(predicate: &Expr, schema: &Schema) -> Option<Vec<ColumnPredicate>> {
    (split_conjuncts(predicate).iter())
        .map(|e| {
            comparison(e)
                .filter(|p| p.col < schema.len() && p.exact_on(schema.field(p.col).data_type()))
        })
        .collect()
}

/// The `WHERE` clause a disk scan evaluates on its column buffers, in
/// place of the `FilterExec` it replaces.
#[derive(Debug, Clone)]
struct ScanFilter {
    /// The filter's predicate, as written.
    predicate: Expr,
    /// Its conjuncts, in evaluation order.
    conjuncts: Vec<ColumnPredicate>,
}

impl ScanFilter {
    /// Narrow `batch`'s selection to the rows `predicate` evaluates to
    /// TRUE on. Kleene `AND` evaluates the conjuncts left to right and
    /// stops at the first FALSE, so a row stays a candidate while its
    /// conjuncts are TRUE or NULL, and only a NULL-free row passes. A
    /// comparison that fails (a NaN) is an error unless an earlier
    /// conjunct is FALSE on that row; then the batch is evaluated row by
    /// row through `Expr::evaluate`, exactly as the `FilterExec` would,
    /// which raises its error.
    fn apply(&self, batch: &mut ColumnBatch) -> Result<()> {
        let mut rows = batch.selection().to_vec();
        let mut unknown = vec![false; rows.len()];
        for conjunct in &self.conjuncts {
            let col = batch.column(conjunct.col);
            let mut kept = 0;
            for j in 0..rows.len() {
                match conjunct.truth(col, rows[j]) {
                    Truth::False => continue,
                    Truth::True => {}
                    Truth::Unknown => unknown[j] = true,
                    Truth::Incomparable => return self.apply_by_rows(batch),
                }
                rows[kept] = rows[j];
                unknown[kept] = unknown[j];
                kept += 1;
            }
            rows.truncate(kept);
            unknown.truncate(kept);
        }
        let mut known = unknown.iter();
        rows.retain(|_| known.next() == Some(&false));
        batch.set_selection(rows);
        Ok(())
    }

    fn apply_by_rows(&self, batch: &mut ColumnBatch) -> Result<()> {
        let mut rows = Vec::new();
        for &i in batch.selection() {
            if self.predicate.evaluate(&batch.row(i))? == Value::Boolean(true) {
                rows.push(i);
            }
        }
        batch.set_selection(rows);
        Ok(())
    }
}

/// The `Float64` columns `predicate` reads in `schema`: a NaN in one of
/// them may make the predicate fail.
pub(crate) fn float_columns(predicate: &Expr, schema: &Schema) -> Vec<usize> {
    let mut columns = Vec::new();
    predicate.referenced_indices(&mut columns);
    columns.retain(|&c| c < schema.len() && schema.field(c).data_type() == DataType::Float64);
    columns
}

/// Whether the block holds a NaN in one of the `Float64` `columns`.
fn holds_nan(meta: &BlockMeta, columns: &[usize]) -> bool {
    (columns.iter()).any(|&c| meta.columns.get(c).is_some_and(|col| col.non_numeric > 0))
}

/// A disk scan's footer sample on the planner's walk up to the skyline
/// operator (see `ExecutionPlan::pass_sample`).
#[derive(Debug)]
pub struct GateSample {
    /// The sample rows every operator on the way passes.
    pub rows: Vec<Row>,
    /// The `Float64` columns the filters above the scan read: a block
    /// with a NaN in one of them is never dominance-skipped.
    pub filter_columns: Vec<usize>,
}

/// Dominance-skipping state: the gate's points — the skyline of the
/// footer-sample rows that reach the skyline operator — in a
/// [`ColumnarBlock`] on the plan's kernel. Installed by the skyline
/// planner *after* the scan is built (the points are the footer sample
/// narrowed by the filters above the scan), hence the write-once slot.
#[derive(Debug)]
pub struct DominanceSkip {
    /// Per ranked dimension: its column in the scan, whether it is a MAX
    /// dimension, and the type of its corner value (the points' type).
    dims: Vec<(usize, bool, DataType)>,
    /// The gate's points, projected onto the ranked dimensions: point
    /// column `i` is dimension `i`, so two dimensions over one column
    /// keep their own corner values.
    points: ColumnarBlock,
    /// [`GateSample::filter_columns`].
    filter_columns: Vec<usize>,
}

impl DominanceSkip {
    /// Build the gate from `sample`'s rows, real rows of the skyline's
    /// input: their skyline under the complete relation becomes the points,
    /// never truncated. Keeping only the skyline
    /// skips exactly the blocks the whole sample would: a sample row that
    /// dominates a corner is a skyline member or dominated by one, and
    /// complete dominance is transitive. Returns `None` when `dims`
    /// contains a DIFF dimension — corner dominance is only defined over
    /// ranked MIN/MAX dimensions — when the points cannot be held by the
    /// kernel's block (it demoted to scalar fallback, e.g. on a string
    /// dimension), or when every point is NULL in some dimension (no
    /// point can dominate then); each only costs skips, never rows.
    pub fn from_sample(dims: &[SkylineDim], sample: GateSample) -> Option<Self> {
        if dims.iter().any(|d| d.ty == SkylineType::Diff) {
            return None;
        }
        let filter_columns = sample.filter_columns;
        let sample: Vec<Row> = (sample.rows.iter())
            .map(|r| Row::new(dims.iter().map(|d| r.get(d.index).clone()).collect()))
            .collect();
        // `DISTINCT`: tied points skip the same blocks, so one suffices.
        let spec = SkylineSpec::distinct(
            (dims.iter().enumerate())
                .map(|(i, d)| SkylineDim::new(i, d.ty))
                .collect(),
        );
        let checker = DominanceChecker::complete(spec);
        let skyline = bnl_skyline(sample, &checker, &mut SkylineStats::default());
        let mut points = ColumnarBlock::for_checker(&checker);
        for p in &skyline {
            points.push(p);
        }
        // Ascending score keys end each corner's walk at its bound.
        points.sort_by_key();
        if points.is_empty() || points.is_fallback() {
            return None;
        }
        let dims = (dims.iter().enumerate())
            .map(|(i, d)| {
                let ty = (skyline.iter())
                    .map(|p| p.get(i).data_type())
                    .find(|ty| *ty != DataType::Null)?;
                Some((d.index, d.ty == SkylineType::Max, ty))
            })
            .collect::<Option<_>>()?;
        Some(DominanceSkip {
            dims,
            points,
            filter_columns,
        })
    }

    /// Whether some point strictly dominates the block's best corner —
    /// then it dominates every row of the block (the corner is at least
    /// as good as each row in every dimension, dominance is transitive on
    /// the complete relation) and the block can be skipped unread.
    /// Requires the ranked columns fully numeric (no NULLs, no
    /// strings/NaN), else the corner doesn't bound every row, and their
    /// bounds exact, else the `f64` footer bound of an Int64 column beyond
    /// 2^53 may have rounded past the row it stands for; otherwise the
    /// block must be read. So must a block with a NaN in one of the
    /// `filter_columns`. Returns the corner tests spent alongside the
    /// verdict.
    fn skips(&self, meta: &BlockMeta) -> (u64, bool) {
        if holds_nan(meta, &self.filter_columns) {
            return (0, false);
        }
        let mut corner = Vec::with_capacity(self.dims.len());
        for &(index, max, ty) in &self.dims {
            let Some(c) = meta.columns.get(index) else {
                return (0, false);
            };
            if !c.fully_numeric() || !c.exact_bounds() {
                return (0, false);
            }
            match c.best_corner(max, ty) {
                Some(v) => corner.push(v),
                None => return (0, false),
            }
        }
        let Some(corner) = self.points.encode(&Row::new(corner)) else {
            return (0, false);
        };
        let mut dominated = Vec::with_capacity(1);
        let pass = self
            .points
            .first_dominators(std::slice::from_ref(&corner), &mut dominated);
        (pass.tested, dominated[0].is_some())
    }
}

/// Scans a persistent [`DiskTable`], distributing whole blocks across
/// `num_executors` partition streams. Each stream holds at most one
/// block's *encoded* payload (budget-reserved against the query's
/// [`MemoryTracker`](sparkline_exec::MemoryTracker)) and decodes it
/// batch-by-batch into column buffers, so peak scan memory is one raw
/// block plus one decoded [`ColumnBatch`] per executor — independent of
/// file size — and a `Row` exists only where a consumer builds one.
/// Blocks refuted by the min/max bounds or dominated through the skip
/// slot are never read. A `WHERE` clause that is an `AND` of exactly
/// comparable conjuncts ([`exact_conjuncts`]) is evaluated here, on the
/// buffers, and narrows each batch's selection vector.
#[derive(Debug)]
pub struct DiskScanExec {
    label: String,
    table: Arc<DiskTable>,
    schema: SchemaRef,
    bounds: Vec<ColumnPredicate>,
    /// The `Float64` columns the filter's predicate reads: a block with a
    /// NaN in one of them is never skipped.
    filter_columns: Vec<usize>,
    filter: Option<ScanFilter>,
    skip: Arc<OnceLock<DominanceSkip>>,
}

impl DiskScanExec {
    /// Scan over an opened disk table. `schema` is the analyzer's (its
    /// qualified field names), structurally identical to the file's.
    pub fn new(label: impl Into<String>, table: Arc<DiskTable>, schema: SchemaRef) -> Self {
        DiskScanExec {
            label: label.into(),
            table,
            schema,
            bounds: Vec::new(),
            filter_columns: Vec::new(),
            filter: None,
            skip: Arc::new(OnceLock::new()),
        }
    }

    /// Attach pushed-down min/max bounds, which only prune blocks.
    fn with_bounds(mut self, bounds: Vec<ColumnPredicate>) -> Self {
        self.bounds = bounds;
        self
    }

    /// Take over the `Filter` directly above the scan: its prunable
    /// conjuncts become min/max bounds, and when the whole predicate is an
    /// `AND` of exactly comparable conjuncts the scan evaluates it too
    /// ([`evaluates_filter`](Self::evaluates_filter)).
    pub fn with_filter(self, predicate: &Expr) -> Self {
        let filter = exact_conjuncts(predicate, &self.schema).map(|conjuncts| ScanFilter {
            predicate: predicate.clone(),
            conjuncts,
        });
        let filter_columns = float_columns(predicate, &self.schema);
        let mut scan = self.with_bounds(extract_column_predicates(predicate));
        scan.filter = filter;
        scan.filter_columns = filter_columns;
        scan
    }

    /// Whether the scan evaluates its filter's whole predicate, so no
    /// `FilterExec` is needed above it.
    pub fn evaluates_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// The scanned table.
    pub fn table(&self) -> &Arc<DiskTable> {
        &self.table
    }
}

/// Which tier skipped a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SkipKind {
    MinMax,
    Dominance,
}

/// Skip decision for one block: `(corner tests, Some(kind))` with `kind`
/// telling which tier fired. A block with a NaN in one of the filter's
/// `filter_columns` is read, so that the filter error it may raise is not
/// hidden (see `sparkline_storage`'s crate docs). Otherwise min/max runs
/// first — it is cheaper (no dominance tests) and its skips don't depend
/// on the skyline plan.
fn skip_verdict(
    bounds: &[ColumnPredicate],
    filter_columns: &[usize],
    skip: &OnceLock<DominanceSkip>,
    meta: &BlockMeta,
) -> (u64, Option<SkipKind>) {
    if holds_nan(meta, filter_columns) {
        return (0, None);
    }
    if bounds.iter().any(|b| b.refutes(meta)) {
        return (0, Some(SkipKind::MinMax));
    }
    match skip.get().map(|skip| skip.skips(meta)) {
        Some((tests, true)) => (tests, Some(SkipKind::Dominance)),
        Some((tests, false)) => (tests, None),
        None => (0, None),
    }
}

/// Every block's verdict, taken from footer metadata alone.
#[derive(Debug, Default)]
struct Pruned {
    /// Blocks to read, in file order.
    kept: Vec<usize>,
    minmax: u64,
    dominance: u64,
    corner_tests: u64,
}

impl DiskScanExec {
    /// Take every block's skip verdict, in file order.
    fn prune(&self) -> Pruned {
        let mut pruned = Pruned::default();
        for (i, meta) in self.table.blocks().iter().enumerate() {
            let (tests, verdict) =
                skip_verdict(&self.bounds, &self.filter_columns, &self.skip, meta);
            pruned.corner_tests += tests;
            match verdict {
                Some(SkipKind::MinMax) => pruned.minmax += 1,
                Some(SkipKind::Dominance) => pruned.dominance += 1,
                None => pruned.kept.push(i),
            }
        }
        pruned
    }
}

impl ExecutionPlan for DiskScanExec {
    fn name(&self) -> &'static str {
        "DiskScanExec"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![]
    }

    fn dominance_skip_slot(&self) -> Option<(&OnceLock<DominanceSkip>, GateSample)> {
        // Narrowed by the scan's own filter, as the `FilterExec` it
        // replaces would pass the sample: every point is a row the skyline
        // receives. The scan guards its own filter's columns itself.
        let sample = self.table.sample().iter();
        let rows = match &self.filter {
            Some(filter) => sample
                .filter(|row| matches!(filter.predicate.evaluate(row), Ok(Value::Boolean(true))))
                .cloned()
                .collect(),
            None => sample.cloned().collect(),
        };
        let sample = GateSample {
            rows,
            filter_columns: Vec::new(),
        };
        Some((&self.skip, sample))
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        ctx.control.check()?;
        // Prune, then split: whole kept blocks are the distribution unit,
        // a contiguous run of them per executor, so a block decodes on
        // exactly one executor and a skipped one costs none of them.
        let pruned = self.prune();
        ctx.metrics
            .corner_tests
            .fetch_add(pruned.corner_tests, Ordering::Relaxed);
        ctx.metrics
            .add_blocks_skipped(pruned.minmax, pruned.dominance);
        let kept: Arc<[usize]> = pruned.kept.into();
        let ranges = even_ranges(kept.len(), ctx.runtime.num_executors());
        let batch_size = ctx.batch_size.max(1);
        Ok(ranges
            .into_iter()
            .map(|(start, end)| {
                let table = Arc::clone(&self.table);
                let schema = self.schema();
                let kept = Arc::clone(&kept);
                let filter = self.filter.clone();
                let ctx = ctx.clone();
                let mut next = start;
                // (decoder, next row, reservation): the raw payload stays
                // reserved until the last batch of the block is decoded.
                let mut current: Option<(BlockDecoder, usize, sparkline_exec::MemoryReservation)> =
                    None;
                PartitionStream::of_batches(
                    Arc::clone(&schema),
                    Arc::clone(&ctx.metrics),
                    move || loop {
                        ctx.control.check()?;
                        if let Some((decoder, pos, _res)) = current.as_mut() {
                            let upto = (*pos + batch_size).min(decoder.rows());
                            let mut batch = decoder.decode_columns(*pos, upto)?;
                            *pos = upto;
                            if *pos >= decoder.rows() {
                                current = None;
                            }
                            ctx.metrics
                                .rows_scanned
                                .fetch_add(batch.len() as u64, Ordering::Relaxed);
                            if let Some(filter) = &filter {
                                filter.apply(&mut batch)?;
                                // Like the `FilterExec` it replaces: no
                                // empty batch goes downstream.
                                if batch.is_empty() {
                                    continue;
                                }
                            }
                            return Ok(Some(Batch::Columns(batch)));
                        }
                        if next >= end {
                            return Ok(None);
                        }
                        let decoder = table.block_decoder(kept[next], Arc::clone(&schema))?;
                        next += 1;
                        let reservation = ctx.try_reserve(decoder.raw_bytes())?;
                        ctx.metrics.add_block_read(decoder.raw_bytes() as u64);
                        if decoder.rows() == 0 {
                            continue;
                        }
                        current = Some((decoder, 0, reservation));
                    },
                )
            })
            .collect())
    }

    fn describe(&self) -> String {
        // The skip decision is pure metadata, so the EXPLAIN tag can
        // report it exactly without executing anything.
        let pruned = self.prune();
        let filter = match &self.filter {
            Some(filter) => {
                let conjuncts: Vec<String> = (filter.conjuncts.iter())
                    .map(|c| {
                        let column = self.schema.field(c.col).name();
                        format!("{column} {} {}", c.op.symbol(), c.literal)
                    })
                    .collect();
                format!(", filter: {}", conjuncts.join(" AND "))
            }
            None => String::new(),
        };
        format!(
            "DiskScanExec [{}: {} rows, disk(blocks={}, skipped={} minmax + {} dominance){filter}]",
            self.label,
            self.table.total_rows(),
            self.table.num_blocks(),
            pruned.minmax,
            pruned.dominance,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{DataType, Field, Row, Schema, SkylineDim, SkylineType};
    use sparkline_plan::BoundColumn;
    use sparkline_storage::{TableWriter, WriterOptions};

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sparkline-diskscan-test-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.spk")
    }

    fn disk_table(name: &str, rows: &[Row], block_rows: usize) -> (Arc<DiskTable>, SchemaRef) {
        disk_table_of(name, DataType::Float64, rows, block_rows)
    }

    fn disk_table_of(
        name: &str,
        data_type: DataType,
        rows: &[Row],
        block_rows: usize,
    ) -> (Arc<DiskTable>, SchemaRef) {
        let schema = Schema::new(vec![
            Field::new("a", data_type, false),
            Field::new("b", data_type, false),
        ])
        .into_ref();
        // Input order: each test lays its blocks out by hand.
        let path = temp_file(name);
        let mut writer = TableWriter::create(
            &path,
            Arc::clone(&schema),
            WriterOptions {
                block_rows,
                ..WriterOptions::default()
            },
        )
        .unwrap();
        writer.write_rows(rows).unwrap();
        writer.finish().unwrap();
        (Arc::new(DiskTable::open(&path).unwrap()), schema)
    }

    fn ascending(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Float64(i as f64),
                    Value::Float64((n - i) as f64),
                ])
            })
            .collect()
    }

    #[test]
    fn full_scan_returns_every_row_in_order() {
        let rows = ascending(1000);
        let (table, schema) = disk_table("full", &rows, 128);
        let scan = DiskScanExec::new("t", table, schema);
        let ctx = TaskContext::new(3);
        let parts = scan.execute(&ctx).unwrap();
        let got = sparkline_exec::partition::flatten(parts);
        assert_eq!(got, rows);
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.rows_scanned, 1000);
        assert_eq!(snap.blocks_read, 8, "ceil(1000/128)");
        assert!(snap.bytes_decoded > 0);
    }

    #[test]
    fn minmax_bounds_skip_blocks_without_changing_results() {
        let rows = ascending(1000);
        let (table, schema) = disk_table("minmax", &rows, 100);
        // a < 250 refutes blocks whose min >= 250 (blocks 3..9).
        let bound = ColumnPredicate {
            col: 0,
            op: BinaryOp::Lt,
            literal: Value::Float64(250.0),
        };
        let scan = DiskScanExec::new("t", Arc::clone(&table), Arc::clone(&schema))
            .with_bounds(vec![bound]);
        let ctx = TaskContext::new(2);
        let got = sparkline_exec::partition::flatten(scan.execute(&ctx).unwrap());
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.blocks_skipped_minmax, 7, "blocks [300..1000) pruned");
        assert_eq!(snap.blocks_read, 3);
        // Pruning is a superset guarantee: every row satisfying the
        // predicate is still present (the filter above does the exact cut).
        let kept: Vec<&Row> = rows.iter().filter(|r| f(r, 0) < 250.0).collect();
        assert!(kept.iter().all(|r| got.contains(r)));
        // Without bounds the scan reads every block.
        let all = DiskScanExec::new("t", table, schema);
        let ctx2 = TaskContext::new(2);
        let everything = sparkline_exec::partition::flatten(all.execute(&ctx2).unwrap());
        assert_eq!(everything, rows);
        assert_eq!(ctx2.metrics.snapshot().blocks_skipped_minmax, 0);
    }

    #[test]
    fn pruning_comes_before_the_split() {
        // Ten 100-row blocks; `a >= 500` refutes the first five. The five
        // kept blocks are dealt to both executors, 3 + 2, in file order.
        let rows = ascending(1000);
        let (table, schema) = disk_table("split", &rows, 100);
        let bound = ColumnPredicate {
            col: 0,
            op: BinaryOp::GtEq,
            literal: Value::Float64(500.0),
        };
        let scan = DiskScanExec::new("t", table, schema).with_bounds(vec![bound]);
        let ctx = TaskContext::new(2);
        let parts = scan.execute(&ctx).unwrap();
        let blocks: Vec<usize> = parts.iter().map(|p| p.len() / 100).collect();
        assert_eq!(blocks.len(), 2);
        assert!(
            blocks.iter().all(|&b| b > 0),
            "an executor idles: {blocks:?}"
        );
        assert!(blocks[0].abs_diff(blocks[1]) <= 1, "{blocks:?}");
        assert_eq!(
            sparkline_exec::partition::flatten(parts),
            rows[500..].to_vec()
        );
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.blocks_skipped_minmax, 5);
        assert_eq!(snap.blocks_read, 5);
    }

    fn f(row: &Row, i: usize) -> f64 {
        match row.get(i) {
            Value::Float64(v) => *v,
            other => panic!("not a float: {other:?}"),
        }
    }

    #[test]
    fn refutation_rules_match_predicate_semantics() {
        // One block with a in [100, 199].
        let rows: Vec<Row> = (100..200)
            .map(|i| Row::new(vec![Value::Float64(i as f64), Value::Float64(0.0)]))
            .collect();
        let (table, _) = disk_table("rules", &rows, 1000);
        let meta = table.block_meta(0);
        let refutes = |op, value| {
            ColumnPredicate {
                col: 0,
                op,
                literal: Value::Float64(value),
            }
            .refutes(meta)
        };
        assert!(refutes(BinaryOp::Lt, 100.0));
        assert!(!refutes(BinaryOp::Lt, 100.5));
        assert!(refutes(BinaryOp::LtEq, 99.0));
        assert!(!refutes(BinaryOp::LtEq, 100.0));
        assert!(refutes(BinaryOp::Gt, 199.0));
        assert!(!refutes(BinaryOp::Gt, 198.5));
        assert!(refutes(BinaryOp::GtEq, 199.5));
        assert!(!refutes(BinaryOp::GtEq, 199.0));
        assert!(refutes(BinaryOp::Eq, 99.5));
        assert!(refutes(BinaryOp::Eq, 200.0));
        assert!(!refutes(BinaryOp::Eq, 150.0));
    }

    /// Install the gate built from the scan's own footer sample, run the
    /// scan, and return its rows with the scan's metrics.
    fn gated_scan(
        scan: &DiskScanExec,
        dims: &[SkylineDim],
    ) -> (Vec<Row>, sparkline_exec::MetricsSnapshot) {
        let (slot, sample) = scan.dominance_skip_slot().unwrap();
        let skip = DominanceSkip::from_sample(dims, sample).unwrap();
        slot.set(skip).unwrap();
        let ctx = TaskContext::new(2);
        let got = sparkline_exec::partition::flatten(scan.execute(&ctx).unwrap());
        (got, ctx.metrics.snapshot())
    }

    #[test]
    fn dominance_skip_drops_dominated_blocks() {
        // Blocks of 100 rows; rows in block k have a = b = k*100 + i, so
        // block 0's rows dominate every later block's corner.
        let n = 500;
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Float64(i as f64), Value::Float64(i as f64)]))
            .collect();
        let (table, schema) = disk_table("dom", &rows, 100);
        let scan = DiskScanExec::new("t", table, schema);
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(1, SkylineType::Min),
        ];
        // The footer sample holds every row; its skyline is the global
        // optimum (0, 0), which strictly dominates the best corner of
        // every block but its own.
        assert_eq!(scan.dominance_skip_slot().unwrap().1.rows, rows);
        let (got, snap) = gated_scan(&scan, &dims);
        assert_eq!(snap.blocks_skipped_dominance, 4, "blocks 1..5 dominated");
        assert_eq!(snap.blocks_read, 1);
        assert!(snap.corner_tests > 0);
        assert_eq!(got, rows[..100].to_vec(), "only block 0 survives");
        assert!(scan.describe().contains("skipped=0 minmax + 4 dominance"));
    }

    #[test]
    fn blocks_with_nulls_or_max_dims_fold_correctly() {
        // MAX dimensions: the corner is the max; the sample's skyline
        // (299, 299) dominates blocks of smaller values.
        let rows: Vec<Row> = (0..300)
            .map(|i| Row::new(vec![Value::Float64(i as f64), Value::Float64(i as f64)]))
            .collect();
        let (table, schema) = disk_table("maxdim", &rows, 100);
        let scan = DiskScanExec::new("t", table, schema);
        let dims = [
            SkylineDim::new(0, SkylineType::Max),
            SkylineDim::new(1, SkylineType::Max),
        ];
        let (got, snap) = gated_scan(&scan, &dims);
        assert_eq!(got, rows[200..].to_vec(), "only the top block survives");
        assert_eq!(snap.blocks_skipped_dominance, 2);
    }

    #[test]
    fn corners_equal_to_a_gate_point_are_read() {
        // Blocks of two rows; the DISTINCT point (0, 0) equals the corner
        // of blocks 0 and 1 — each holds a tied skyline row, so neither
        // may be skipped — and strictly dominates block 2's (1, 1).
        let rows: Vec<Row> = [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (2.0, 2.0)]
            .into_iter()
            .chain([(1.0, 1.0), (3.0, 3.0)])
            .map(|(a, b)| Row::new(vec![Value::Float64(a), Value::Float64(b)]))
            .collect();
        let (table, schema) = disk_table("ties", &rows, 2);
        let scan = DiskScanExec::new("t", table, schema);
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(1, SkylineType::Min),
        ];
        let (got, snap) = gated_scan(&scan, &dims);
        assert_eq!(snap.blocks_skipped_dominance, 1, "only block 2");
        assert_eq!(snap.blocks_read, 2);
        assert_eq!(got, rows[..4].to_vec());
    }

    #[test]
    fn int64_corners_compare_as_integers() {
        // Int64 columns near 2^53 (bounds still exact): the corners are
        // typed Int64 and compared on the integer lanes. a MIN, b MAX.
        const B: i64 = (1 << 53) - 4;
        let rows: Vec<Row> = [
            (B, 9),
            (B + 1, 5),
            (B + 1, 8),
            (B + 2, 8),
            (B + 3, 10),
            (B + 3, 9),
        ]
        .into_iter()
        .map(|(a, b)| Row::new(vec![Value::Int64(a), Value::Int64(b)]))
        .collect();
        let (table, schema) = disk_table_of("int64", DataType::Int64, &rows, 2);
        let scan = DiskScanExec::new("t", table, schema);
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(1, SkylineType::Max),
        ];
        // Block 1's corner (B + 1, 8) is strictly dominated by (B, 9);
        // block 2's (B + 3, 10) is better on b than every point but its own.
        let (got, snap) = gated_scan(&scan, &dims);
        assert_eq!(snap.blocks_skipped_dominance, 1, "{snap:?}");
        assert_eq!(snap.blocks_read, 2);
        assert_eq!(got, [&rows[..2], &rows[4..]].concat());
    }

    #[test]
    fn repeated_dims_keep_their_own_corners() {
        // `a MIN, a MAX, b MIN`: block 0's corner is (1, 2, 5). The point
        // (2, 2, 0) is worse on the MIN copy of `a`, so block 0 is read.
        let rows: Vec<Row> = [(1.0, 5.0), (2.0, 5.0), (2.0, 0.0)]
            .into_iter()
            .map(|(a, b)| Row::new(vec![Value::Float64(a), Value::Float64(b)]))
            .collect();
        let (table, schema) = disk_table("repeated", &rows, 2);
        let scan = DiskScanExec::new("t", table, schema);
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(0, SkylineType::Max),
            SkylineDim::new(1, SkylineType::Min),
        ];
        let (got, snap) = gated_scan(&scan, &dims);
        assert_eq!(snap.blocks_skipped_dominance, 0, "{snap:?}");
        assert_eq!(got, rows);
    }

    #[test]
    fn diff_dims_disable_dominance_skipping() {
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(1, SkylineType::Diff),
        ];
        let sample = GateSample {
            rows: vec![Row::new(vec![Value::Float64(0.0), Value::Float64(0.0)])],
            filter_columns: Vec::new(),
        };
        assert!(DominanceSkip::from_sample(&dims, sample).is_none());
    }

    #[test]
    fn predicate_extraction_normalizes_orientation() {
        let field = Field::new("a", DataType::Float64, false);
        let col = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: field.clone(),
        });
        let lit = |v: f64| Expr::Literal(Value::Float64(v));
        // a < 5 AND 10 > a AND a = 3
        let pred = col
            .clone()
            .lt(lit(5.0))
            .and(Expr::BinaryOp {
                left: Box::new(lit(10.0)),
                op: BinaryOp::Gt,
                right: Box::new(col.clone()),
            })
            .and(col.clone().eq(lit(3.0)));
        let got = extract_column_predicates(&pred);
        assert_eq!(
            got,
            vec![
                ColumnPredicate {
                    col: 0,
                    op: BinaryOp::Lt,
                    literal: Value::Float64(5.0)
                },
                ColumnPredicate {
                    col: 0,
                    op: BinaryOp::Lt,
                    literal: Value::Float64(10.0)
                },
                ColumnPredicate {
                    col: 0,
                    op: BinaryOp::Eq,
                    literal: Value::Float64(3.0)
                },
            ]
        );
        // NaN literals and non-column comparisons are ignored.
        assert!(extract_column_predicates(&col.clone().lt(lit(f64::NAN))).is_empty());
        assert!(extract_column_predicates(&lit(1.0).lt(lit(2.0))).is_empty());
    }

    #[test]
    fn decode_buffers_are_charged_to_the_memory_budget() {
        let rows = ascending(2000);
        let (table, schema) = disk_table("budget", &rows, 500);
        let scan = DiskScanExec::new("t", Arc::clone(&table), schema);
        let block_bytes = table.block_meta(0).bytes as usize;
        // A budget below one encoded block must deny the scan.
        let ctx = TaskContext::new(1).with_memory_budget(Some(block_bytes / 2));
        let err = scan.execute(&ctx).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        assert!(ctx.metrics.snapshot().budget_denials > 0);
        // A budget of ~one block per executor succeeds: blocks are
        // released as they drain.
        let ctx = TaskContext::new(1).with_memory_budget(Some(block_bytes * 2));
        let got = sparkline_exec::partition::flatten(scan.execute(&ctx).unwrap());
        assert_eq!(got.len(), 2000);
    }
}
