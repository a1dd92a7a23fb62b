//! The out-of-core scan: streams a [`DiskTable`]'s blocks, skipping whole
//! blocks from metadata — static min/max pruning for pushed-down filter
//! conjuncts and dominance pruning against the skyline of the table's
//! footer sample — before any I/O or decode happens.
//!
//! Skipping is not a mode: every scan consults both tiers, and both are
//! sound on their own (see `sparkline_storage`'s crate docs). Min/max
//! pruning only discards blocks the filter above the scan would empty,
//! and the dominance gate — present only when the skyline planner
//! installed one — only blocks whose rows a real input row strictly
//! dominates. The gate's points live in a [`ColumnarBlock`] and each
//! block's best corner is tested as one encoded candidate, on the same
//! dominance kernel as the skyline operators.
//!
//! **Pruning comes before the split.** Every verdict is footer metadata,
//! so [`DiskScanExec`] decides all of them when it starts (the loop its
//! `EXPLAIN` tag already runs) and only then deals the kept blocks to the
//! executors, in contiguous, even runs. A filter that refutes a region
//! of the file therefore leaves no executor idle, and the partitions read
//! in order are the kept blocks in file order whatever the executor
//! count, so a query's output does not depend on it.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use sparkline_common::{
    DataType, DominanceKernel, Result, Row, SchemaRef, SkylineDim, SkylineSpec, SkylineType, Value,
};
use sparkline_exec::{partition::even_ranges, PartitionStream, TaskContext};
use sparkline_plan::{BinaryOp, Expr};
use sparkline_skyline::{bnl_skyline, ColumnarBlock, DominanceChecker, SkylineStats};
use sparkline_storage::{BlockDecoder, BlockMeta, DiskTable};

use crate::ExecutionPlan;

/// One pushed-down comparison `column <op> literal` a block's min/max can
/// refute. The `FilterExec` above the scan still evaluates the predicate
/// exactly — pruning only discards blocks *no* row of which can pass, so
/// results are identical with pruning on or off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnPredicate {
    /// Column position in the scan schema.
    pub col: usize,
    /// The comparison, normalized to `column <op> value`.
    pub op: BinaryOp,
    /// The literal as an `f64`: never NaN, possibly ±inf (an infinite
    /// bound refutes only what every finite value would, so it is as
    /// sound as any other).
    pub value: f64,
}

impl ColumnPredicate {
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
        let v = self.value;
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

/// Extract the min/max-prunable conjuncts of a filter predicate sitting
/// directly on a disk scan: `BoundColumn <op> numeric-literal` (either
/// orientation) joined by `AND`. Everything else is ignored — the filter
/// still runs, so missing a conjunct costs only pruning power.
pub fn extract_column_predicates(predicate: &Expr) -> Vec<ColumnPredicate> {
    fn literal_f64(e: &Expr) -> Option<f64> {
        match e {
            Expr::Literal(Value::Int64(i)) => Some(*i as f64),
            Expr::Literal(Value::Float64(f)) if !f.is_nan() => Some(*f),
            _ => None,
        }
    }
    fn flip(op: BinaryOp) -> Option<BinaryOp> {
        Some(match op {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            BinaryOp::Eq => BinaryOp::Eq,
            _ => return None,
        })
    }
    fn walk(e: &Expr, out: &mut Vec<ColumnPredicate>) {
        match e {
            Expr::BinaryOp {
                left,
                op: BinaryOp::And,
                right,
            } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::BinaryOp { left, op, right } => {
                if let (Expr::BoundColumn(c), Some(value)) = (left.as_ref(), literal_f64(right)) {
                    if matches!(
                        op,
                        BinaryOp::Lt
                            | BinaryOp::LtEq
                            | BinaryOp::Gt
                            | BinaryOp::GtEq
                            | BinaryOp::Eq
                    ) {
                        out.push(ColumnPredicate {
                            col: c.index,
                            op: *op,
                            value,
                        });
                    }
                } else if let (Some(value), Expr::BoundColumn(c)) =
                    (literal_f64(left), right.as_ref())
                {
                    if let Some(op) = flip(*op) {
                        out.push(ColumnPredicate {
                            col: c.index,
                            op,
                            value,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(predicate, &mut out);
    out
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
}

impl DominanceSkip {
    /// Build the gate from `sample`, real rows of the skyline's input:
    /// their skyline under the complete relation becomes the points,
    /// computed on `kernel` and never truncated. Keeping only the skyline
    /// skips exactly the blocks the whole sample would: a sample row that
    /// dominates a corner is a skyline member or dominated by one, and
    /// complete dominance is transitive. Returns `None` when `dims`
    /// contains a DIFF dimension — corner dominance is only defined over
    /// ranked MIN/MAX dimensions — when the points cannot be held by the
    /// kernel's block (it demoted to scalar fallback, e.g. on a string
    /// dimension), or when every point is NULL in some dimension (no
    /// point can dominate then); each only costs skips, never rows.
    pub fn from_sample(
        dims: &[SkylineDim],
        sample: Vec<Row>,
        kernel: DominanceKernel,
    ) -> Option<Self> {
        if dims.iter().any(|d| d.ty == SkylineType::Diff) {
            return None;
        }
        let sample: Vec<Row> = sample
            .iter()
            .map(|r| Row::new(dims.iter().map(|d| r.get(d.index).clone()).collect()))
            .collect();
        // `DISTINCT`: tied points skip the same blocks, so one suffices.
        let spec = SkylineSpec::distinct(
            (dims.iter().enumerate())
                .map(|(i, d)| SkylineDim::new(i, d.ty))
                .collect(),
        );
        let checker = DominanceChecker::complete(spec);
        let skyline = bnl_skyline(sample, &checker, &mut SkylineStats::default(), kernel);
        let mut points = ColumnarBlock::for_checker_with(&checker, kernel);
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
        Some(DominanceSkip { dims, points })
    }

    /// Whether some point strictly dominates the block's best corner —
    /// then it dominates every row of the block (the corner is at least
    /// as good as each row in every dimension, dominance is transitive on
    /// the complete relation) and the block can be skipped unread.
    /// Requires the ranked columns fully numeric (no NULLs, no
    /// strings/NaN), else the corner doesn't bound every row, and their
    /// bounds exact, else the `f64` footer bound of an Int64 column beyond
    /// 2^53 may have rounded past the row it stands for; otherwise the
    /// block must be read. Returns the corner tests spent alongside the
    /// verdict.
    fn skips(&self, meta: &BlockMeta) -> (u64, bool) {
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
/// batch-by-batch, so peak scan memory is one raw block plus one decoded
/// batch per executor — independent of file size. Blocks refuted by the
/// min/max bounds or dominated through the skip slot are never read.
#[derive(Debug)]
pub struct DiskScanExec {
    label: String,
    table: Arc<DiskTable>,
    schema: SchemaRef,
    bounds: Vec<ColumnPredicate>,
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
            skip: Arc::new(OnceLock::new()),
        }
    }

    /// Attach pushed-down min/max bounds (the planner extracts them from
    /// the `Filter` directly above the scan).
    pub fn with_bounds(mut self, bounds: Vec<ColumnPredicate>) -> Self {
        self.bounds = bounds;
        self
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
/// telling which tier fired. Min/max runs first — it is cheaper (no
/// dominance tests) and its skips don't depend on the skyline plan.
fn skip_verdict(
    bounds: &[ColumnPredicate],
    skip: &OnceLock<DominanceSkip>,
    meta: &BlockMeta,
) -> (u64, Option<SkipKind>) {
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
            let (tests, verdict) = skip_verdict(&self.bounds, &self.skip, meta);
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

    fn dominance_skip_slot(&self) -> Option<(&OnceLock<DominanceSkip>, &[Row])> {
        Some((&self.skip, self.table.sample().as_slice()))
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
                let ctx = ctx.clone();
                let mut next = start;
                // (decoder, next row, reservation): the raw payload stays
                // reserved until the last batch of the block is decoded.
                let mut current: Option<(BlockDecoder, usize, sparkline_exec::MemoryReservation)> =
                    None;
                PartitionStream::new(
                    Arc::clone(&schema),
                    Arc::clone(&ctx.metrics),
                    move || loop {
                        ctx.control.check()?;
                        if let Some((decoder, pos, _res)) = current.as_mut() {
                            let upto = (*pos + batch_size).min(decoder.rows());
                            let batch = decoder.decode_range(*pos, upto)?;
                            *pos = upto;
                            if *pos >= decoder.rows() {
                                current = None;
                            }
                            ctx.metrics
                                .rows_scanned
                                .fetch_add(batch.len() as u64, Ordering::Relaxed);
                            return Ok(Some(batch));
                        }
                        if next >= end {
                            return Ok(None);
                        }
                        let raw = table.read_block_raw(kept[next])?;
                        next += 1;
                        let reservation = ctx.try_reserve(raw.len())?;
                        ctx.metrics.add_block_read(raw.len() as u64);
                        let decoder = BlockDecoder::new(raw, Arc::clone(&schema))?;
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
        format!(
            "DiskScanExec [{}: {} rows, disk(blocks={}, skipped={} minmax + {} dominance)]",
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
    use sparkline_common::{
        DataType, DominanceKernel, Field, Row, Schema, SkylineDim, SkylineType,
    };
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
            value: 250.0,
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
            value: 500.0,
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
        let refutes = |op, value| ColumnPredicate { col: 0, op, value }.refutes(meta);
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
        let skip =
            DominanceSkip::from_sample(dims, sample.to_vec(), DominanceKernel::Auto).unwrap();
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
        assert_eq!(scan.dominance_skip_slot().unwrap().1, rows.as_slice());
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
        let sample = vec![Row::new(vec![Value::Float64(0.0), Value::Float64(0.0)])];
        assert!(DominanceSkip::from_sample(&dims, sample, DominanceKernel::Auto).is_none());
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
                    value: 5.0
                },
                ColumnPredicate {
                    col: 0,
                    op: BinaryOp::Lt,
                    value: 10.0
                },
                ColumnPredicate {
                    col: 0,
                    op: BinaryOp::Eq,
                    value: 3.0
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
