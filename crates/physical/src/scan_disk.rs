//! The disk half of the table scan: how [`ScanExec`](crate::ScanExec)
//! reads a [`DiskTable`]'s blocks, skipping whole blocks from metadata —
//! static min/max pruning for pushed-down filter conjuncts and dominance
//! pruning against the gate's points — before any I/O or decode happens.
//!
//! Skipping is not a mode: every disk scan consults both tiers, and both
//! are sound on their own (see `sparkline_storage`'s crate docs). Min/max
//! pruning only discards blocks the scan's filter would empty, and the
//! dominance gate — present only when the skyline planner installed one —
//! only blocks whose rows a real input row strictly dominates. The gate's
//! points are the skyline of two kinds of point: footer-sample rows that
//! reach the skyline operator, and **corner points** of the blocks whose
//! rows all reach it (see [`DominanceSkip`]), each weakly dominated by a
//! real row of its block. Neither tier
//! skips a block with a NaN in a `Float64` column a filter reads, where
//! the filter may fail (see [`GateSample`]). The gate's
//! points live in a [`ColumnarBlock`] and each block's best corner is
//! tested as one encoded candidate, on the same dominance kernel as the
//! skyline operators.
//!
//! **Pruning comes before the split.** Every verdict is footer metadata,
//! so the scan decides all of them when it starts (the loop its `EXPLAIN`
//! tag already runs) and only then deals the kept blocks to the
//! executors, in contiguous, even runs. A filter that refutes a region
//! of the file therefore leaves no executor idle, and the partitions read
//! in order are the kept blocks in file order whatever the executor
//! count, so a query's output does not depend on it.
//!
//! **Blocks stay columns.** A kept block decodes batch by batch into a
//! [`ColumnBatch`] — `f64`/`i64` buffers, NULL flags and a selection
//! vector — and goes through the scan's one stream epilogue, which
//! evaluates the scan's [`ScanFilter`] on the buffers, as it does for an
//! in-memory table. A predicate the scan does not evaluate keeps its
//! `FilterExec` above the scan, which evaluates it exactly, and only its
//! comparable conjuncts on `Int64` and `Float64` columns reach the scan,
//! as min/max bounds.
//!
//! **The gate is built once per input.** A `DiskTable` never changes, so
//! the gate the planner builds for one set of ranked dimensions, passing
//! sample rows, eligible blocks and filtered columns is the same every
//! time: [`DominanceSkip::cached`] keeps it on the table
//! ([`DiskTable::memoized`]), and every later plan with the same input
//! shares it.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use sparkline_common::{
    ColumnBatch, DataType, Result, Row, SchemaRef, SkylineDim, SkylineSpec, SkylineType, Value,
};
use sparkline_exec::{partition::even_ranges, MemoryReservation, TaskContext};
use sparkline_skyline::{bnl_skyline, ColumnarBlock, DominanceChecker, SkylineStats};
use sparkline_storage::{BlockDecoder, BlockMeta, DiskTable, TableFile};

use crate::scan_filter::{ColumnPredicate, ScanFilter};

/// Whether the block holds a NaN in one of the `Float64` `columns`.
fn holds_nan(meta: &BlockMeta, columns: &[usize]) -> bool {
    (columns.iter()).any(|&c| meta.columns.get(c).is_some_and(|col| col.non_numeric > 0))
}

/// A disk scan's footer sample on the planner's walk up to the skyline
/// operator (see `ExecutionPlan::pass_sample`).
#[derive(Debug)]
pub struct GateSample {
    /// The scanned table: its footer sample, blocks and column types.
    pub table: Arc<DiskTable>,
    /// The positions, in the table's footer sample, of the rows every
    /// operator on the way passes.
    pub rows: Vec<usize>,
    /// The blocks whose rows all reach the skyline operator: blocks
    /// holding a row, every conjunct of the scan's filter implied by their
    /// bounds, with no operator above the scan that may drop a row. Each
    /// adds corner points to the gate.
    pub blocks: Vec<usize>,
    /// The `Float64` columns the filters above the scan read: a block
    /// with a NaN in one of them is never dominance-skipped.
    pub filter_columns: Vec<usize>,
}

impl GateSample {
    /// Keep the sample rows `keep` accepts.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(&Row) -> bool) {
        let sample = Arc::clone(self.table.sample());
        self.rows.retain(|&i| keep(&sample[i]));
    }
}

/// Everything a gate is built from besides the table: a gate built for an
/// equal key over the same table is the same gate.
#[derive(Debug, PartialEq)]
struct GateKey {
    dims: Vec<SkylineDim>,
    rows: Vec<usize>,
    blocks: Vec<usize>,
    filter_columns: Vec<usize>,
}

/// One ranked dimension of the gate: its column in the scan, whether it
/// is a MAX dimension, and the column's type (the points' type).
type GateDim = (usize, bool, DataType);

/// The block's best corner over `dims` (`best`), or its worst: `None`
/// unless every ranked column is fully numeric with exact bounds, the
/// precondition under which the corner bounds every row of the block —
/// no NULLs (incomparable under the complete relation), no strings or
/// NaN, and no `f64` footer bound of an Int64 column beyond 2^53 that
/// may have rounded past the row it stands for.
fn corner(dims: &[GateDim], meta: &BlockMeta, best: bool) -> Option<Vec<Value>> {
    (dims.iter())
        .map(|&(index, max, ty)| {
            let c = meta.columns.get(index)?;
            if !c.fully_numeric() || !c.exact_bounds() {
                return None;
            }
            c.best_corner(max == best, ty)
        })
        .collect()
}

/// The corner points of a block whose rows all reach the skyline: per
/// ranked dimension `k`, the block's worst corner with dimension `k` set
/// to its best value. The row that attains that best value is at least as
/// good as the point in every dimension, so whatever the point strictly
/// dominates, that real row strictly dominates too.
fn corner_points(dims: &[GateDim], meta: &BlockMeta) -> Vec<Row> {
    let (Some(best), Some(worst)) = (corner(dims, meta, true), corner(dims, meta, false)) else {
        return Vec::new();
    };
    (0..dims.len())
        .map(|k| {
            let mut point = worst.clone();
            point[k] = best[k].clone();
            Row::new(point)
        })
        .collect()
}

/// Dominance-skipping state: the gate's points in a [`ColumnarBlock`] on
/// the plan's kernel. The points are the skyline of the footer-sample
/// rows that reach the skyline operator and of the corner points of the
/// blocks whose rows all reach it ([`GateSample::blocks`]). Installed by
/// the skyline planner *after* the scan is built (the points depend on
/// the operators above the scan), hence the write-once slot.
#[derive(Debug)]
pub struct DominanceSkip {
    /// The ranked dimensions, in the points' column order.
    dims: Vec<GateDim>,
    /// The gate's points, projected onto the ranked dimensions: point
    /// column `i` is dimension `i`, so two dimensions over one column
    /// keep their own corner values.
    points: ColumnarBlock,
    /// How many of the points no sample row provides: the corner points
    /// that joined the sample's skyline.
    from_corners: usize,
    /// [`GateSample::filter_columns`].
    filter_columns: Vec<usize>,
}

impl DominanceSkip {
    /// Build the gate from `sample`. Every point stands for a real row of
    /// the skyline's input: a sample row is one, and a corner point is
    /// weakly dominated by one. Their skyline under the complete relation
    /// becomes the points, never truncated. Keeping only the skyline skips
    /// exactly the blocks all of them would: a point that dominates a
    /// corner is a skyline member or dominated by one, and complete
    /// dominance is transitive. A block's own corner points never skip it
    /// (each is no better than its best corner anywhere), and two blocks
    /// never skip each other (strict dominance is irreflexive and
    /// transitive). Returns `None` when `dims` contains a DIFF dimension —
    /// corner dominance is only defined over ranked MIN/MAX dimensions —
    /// when there are no points, or when the points cannot be held by the
    /// kernel's block (it demoted to scalar fallback, e.g. on a string
    /// dimension); each only costs skips, never rows.
    pub fn from_sample(dims: &[SkylineDim], sample: &GateSample) -> Option<Self> {
        if dims.iter().any(|d| d.ty == SkylineType::Diff) {
            return None;
        }
        // `DISTINCT`: tied points skip the same blocks, so one suffices.
        let spec = SkylineSpec::distinct(
            (dims.iter().enumerate())
                .map(|(i, d)| SkylineDim::new(i, d.ty))
                .collect(),
        );
        let checker = DominanceChecker::complete(spec);
        let (table, schema) = (&sample.table, sample.table.schema());
        let dims: Vec<GateDim> = (dims.iter())
            .map(|d| {
                let ty = schema.field(d.index).data_type();
                (d.index, d.ty == SkylineType::Max, ty)
            })
            .collect();
        let project = |r: &Row| Row::new(dims.iter().map(|d| r.get(d.0).clone()).collect());
        let sampled = bnl_skyline(
            sample.rows.iter().map(|&i| project(&table.sample()[i])),
            &checker,
            &mut SkylineStats::default(),
        );
        let corners =
            (sample.blocks.iter()).flat_map(|&b| corner_points(&dims, table.block_meta(b)));
        let skyline = bnl_skyline(
            sampled.iter().cloned().chain(corners),
            &checker,
            &mut SkylineStats::default(),
        );
        let from_corners = (skyline.iter()).filter(|p| !sampled.contains(p)).count();
        let mut points = ColumnarBlock::for_checker(&checker);
        for p in &skyline {
            points.push(p);
        }
        // Ascending score keys end each corner's walk at its bound.
        points.sort_by_key();
        if points.is_empty() || points.is_fallback() {
            return None;
        }
        Some(DominanceSkip {
            dims,
            points,
            from_corners,
            filter_columns: sample.filter_columns.clone(),
        })
    }

    /// [`from_sample`](Self::from_sample), built once per input and
    /// table: the gate is kept on the table
    /// ([`DiskTable::memoized`]), keyed by the ranked dimensions, the
    /// passing sample rows, the eligible blocks and the filtered columns —
    /// all of its input besides the table — so a later plan over an equal
    /// key shares this one.
    pub fn cached(dims: &[SkylineDim], sample: GateSample) -> Option<Arc<Self>> {
        let key = GateKey {
            dims: dims.to_vec(),
            rows: sample.rows.clone(),
            blocks: sample.blocks.clone(),
            filter_columns: sample.filter_columns.clone(),
        };
        (sample.table).memoized(key, || Self::from_sample(dims, &sample).map(Arc::new))
    }

    /// Whether some point strictly dominates the block's best corner —
    /// then it dominates every row of the block (the corner is at least
    /// as good as each row in every dimension, dominance is transitive on
    /// the complete relation) and the block can be skipped unread. A
    /// block whose corner does not bound its rows ([`corner`]) must be
    /// read; so must a block with a NaN in one of the `filter_columns`.
    /// Returns the corner tests spent alongside the verdict.
    fn skips(&self, meta: &BlockMeta) -> (u64, bool) {
        if holds_nan(meta, &self.filter_columns) {
            return (0, false);
        }
        let Some(corner) = corner(&self.dims, meta, true) else {
            return (0, false);
        };
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

/// What a disk scan decides from footer metadata before it reads a
/// block: the pushed-down min/max bounds, the `Float64` columns its
/// filter reads (a block with a NaN in one of them is never skipped), and
/// the gate's write-once slot. Blocks refuted by the bounds or dominated
/// through the slot are never read.
#[derive(Debug, Default)]
pub(crate) struct BlockPruning {
    pub(crate) bounds: Vec<ColumnPredicate>,
    pub(crate) filter_columns: Vec<usize>,
    pub(crate) skip: OnceLock<Arc<DominanceSkip>>,
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

impl BlockPruning {
    /// Take every block's skip verdict, in file order. A block with a NaN
    /// in one of the filter's columns is read, so that the filter error it
    /// may raise is not hidden (see `sparkline_storage`'s crate docs).
    /// Otherwise min/max runs first — it is cheaper (no dominance tests)
    /// and its skips don't depend on the skyline plan.
    fn prune(&self, table: &DiskTable) -> Pruned {
        let mut pruned = Pruned::default();
        for (i, meta) in table.blocks().iter().enumerate() {
            if !holds_nan(meta, &self.filter_columns) {
                if self.bounds.iter().any(|b| b.refutes(meta)) {
                    pruned.minmax += 1;
                    continue;
                }
                if let Some(skip) = self.skip.get() {
                    let (tests, skips) = skip.skips(meta);
                    pruned.corner_tests += tests;
                    if skips {
                        pruned.dominance += 1;
                        continue;
                    }
                }
            }
            pruned.kept.push(i);
        }
        pruned
    }

    /// The footer sample the gate is built from, narrowed by the scan's
    /// own `filter`, as the `FilterExec` it replaces would pass the
    /// sample: every point is a row the skyline receives. A block passes
    /// whole when its bounds imply every conjunct (the `FilterExec` above
    /// a scan that does not evaluate its filter drops the blocks itself).
    /// The scan guards its own filter's columns itself.
    pub(crate) fn gate_sample(
        &self,
        table: &Arc<DiskTable>,
        filter: Option<&ScanFilter>,
    ) -> GateSample {
        let mut sample = GateSample {
            table: Arc::clone(table),
            rows: (0..table.sample().len()).collect(),
            blocks: (table.blocks().iter().enumerate())
                .filter(|(_, meta)| meta.rows > 0 && self.bounds.iter().all(|b| b.implied_by(meta)))
                .map(|(i, _)| i)
                .collect(),
            filter_columns: Vec::new(),
        };
        if let Some(filter) = filter {
            sample.retain_rows(|row| {
                matches!(filter.predicate().evaluate(row), Ok(Value::Boolean(true)))
            });
        }
        sample
    }

    /// Prune, then split: whole kept blocks are the distribution unit, a
    /// contiguous run of them per executor, so a block decodes on exactly
    /// one executor and a skipped one costs none of them.
    pub(crate) fn readers(
        &self,
        table: &Arc<DiskTable>,
        schema: &SchemaRef,
        ctx: &TaskContext,
    ) -> Result<Vec<BlockReader>> {
        let pruned = self.prune(table);
        ctx.metrics
            .corner_tests
            .fetch_add(pruned.corner_tests, Ordering::Relaxed);
        ctx.metrics
            .add_blocks_skipped(pruned.minmax, pruned.dominance);
        // One handle for every stream, checked against the footer the
        // pruning above read: a file replaced since fails the query.
        let file = Arc::new(table.open_file()?);
        let ranges = even_ranges(pruned.kept.len(), ctx.runtime.num_executors());
        let readers = (ranges.into_iter())
            .map(|(start, end)| BlockReader {
                table: Arc::clone(table),
                file: Arc::clone(&file),
                schema: Arc::clone(schema),
                blocks: Vec::from(&pruned.kept[start..end]).into_iter(),
                current: None,
            })
            .collect();
        Ok(readers)
    }

    /// The scan's `EXPLAIN` tag for `table`: its blocks, how many each
    /// tier skips, and the gate once one is installed.
    pub(crate) fn describe(&self, table: &DiskTable) -> String {
        let pruned = self.prune(table);
        let gate = match self.skip.get() {
            Some(skip) => format!(
                ", gate: {} points ({} from corners)",
                skip.points.len(),
                skip.from_corners
            ),
            None => String::new(),
        };
        format!(
            ", disk(blocks={}, skipped={} minmax + {} dominance){gate}",
            table.num_blocks(),
            pruned.minmax,
            pruned.dominance,
        )
    }
}

/// One partition of a disk scan: a contiguous run of kept blocks, each
/// decoded batch by batch into column buffers.
pub(crate) struct BlockReader {
    table: Arc<DiskTable>,
    file: Arc<TableFile>,
    schema: SchemaRef,
    /// The kept blocks still to open, in file order.
    blocks: std::vec::IntoIter<usize>,
    /// (decoder, next row, reservation): the raw payload stays reserved
    /// until the last batch of the block is decoded.
    current: Option<(BlockDecoder, usize, MemoryReservation)>,
}

impl BlockReader {
    /// The next batch of at most `batch_size` rows, `None` after the last
    /// kept block.
    pub(crate) fn next(
        &mut self,
        ctx: &TaskContext,
        batch_size: usize,
    ) -> Result<Option<ColumnBatch>> {
        loop {
            if let Some((decoder, pos, _reservation)) = self.current.as_mut() {
                let upto = (*pos + batch_size).min(decoder.rows());
                let batch = decoder.decode_columns(*pos, upto)?;
                *pos = upto;
                if *pos >= decoder.rows() {
                    self.current = None;
                }
                return Ok(Some(batch));
            }
            let Some(block) = self.blocks.next() else {
                return Ok(None);
            };
            let decoder =
                (self.table).block_decoder(&self.file, block, Arc::clone(&self.schema))?;
            let mut reservation = ctx.reservation();
            reservation.try_resize(0, decoder.raw_bytes())?;
            ctx.metrics.add_block_read(decoder.raw_bytes() as u64);
            if decoder.rows() > 0 {
                self.current = Some((decoder, 0, reservation));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{ScanExec, TableData};
    use crate::scan_filter::extract_column_predicates;
    use crate::ExecutionPlan;
    use sparkline_common::{DataType, Field, Row, Schema, SkylineDim, SkylineType};
    use sparkline_plan::{BinaryOp, BoundColumn, Expr};
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
        let sample_cap = WriterOptions::default().sample_cap;
        sampled_disk_table(name, data_type, rows, block_rows, sample_cap)
    }

    /// A two-column table whose footer sample holds at most `sample_cap`
    /// rows (0: none, so only corner points can skip).
    fn sampled_disk_table(
        name: &str,
        data_type: DataType,
        rows: &[Row],
        block_rows: usize,
        sample_cap: usize,
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
                sample_cap,
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
        let scan = ScanExec::new("t", TableData::Disk(table), schema);
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
        let scan = ScanExec::new(
            "t",
            TableData::Disk(Arc::clone(&table)),
            Arc::clone(&schema),
        )
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
        let all = ScanExec::new("t", TableData::Disk(table), schema);
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
        let scan = ScanExec::new("t", TableData::Disk(table), schema).with_bounds(vec![bound]);
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
        scan: &ScanExec,
        dims: &[SkylineDim],
    ) -> (Vec<Row>, sparkline_exec::MetricsSnapshot) {
        let (slot, sample) = scan.dominance_skip_slot().unwrap();
        let skip = DominanceSkip::from_sample(dims, &sample).unwrap();
        slot.set(Arc::new(skip)).unwrap();
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
        let scan = ScanExec::new("t", TableData::Disk(table), schema);
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(1, SkylineType::Min),
        ];
        // The footer sample holds every row; its skyline is the global
        // optimum (0, 0), which strictly dominates the best corner of
        // every block but its own.
        let (_, sample) = scan.dominance_skip_slot().unwrap();
        let sampled: Vec<Row> = (sample.rows.iter())
            .map(|&i| sample.table.sample()[i].clone())
            .collect();
        assert_eq!(sampled, rows);
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
        let scan = ScanExec::new("t", TableData::Disk(table), schema);
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
        let scan = ScanExec::new("t", TableData::Disk(table), schema);
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
        let scan = ScanExec::new("t", TableData::Disk(table), schema);
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
        let scan = ScanExec::new("t", TableData::Disk(table), schema);
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(0, SkylineType::Max),
            SkylineDim::new(1, SkylineType::Min),
        ];
        let (got, snap) = gated_scan(&scan, &dims);
        assert_eq!(snap.blocks_skipped_dominance, 0, "{snap:?}");
        assert_eq!(got, rows);
    }

    fn floats(pairs: &[(f64, f64)]) -> Vec<Row> {
        (pairs.iter())
            .map(|&(a, b)| Row::new(vec![Value::Float64(a), Value::Float64(b)]))
            .collect()
    }

    fn min_min() -> [SkylineDim; 2] {
        [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(1, SkylineType::Min),
        ]
    }

    #[test]
    fn corners_skip_blocks_the_sample_does_not() {
        // No footer sample. Block 0's corner points are (0, 1) and (1, 0),
        // each weakly dominated by one of its rows; (0, 1) strictly
        // dominates block 1's best corner (2, 2). Block 2's (0.5, 0.5)
        // holds skyline members and is read.
        let rows = floats(&[(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (3.0, 3.0)]);
        let rows = [rows, floats(&[(0.5, 4.0), (4.0, 0.5)])].concat();
        let (table, schema) = sampled_disk_table("corners", DataType::Float64, &rows, 2, 0);
        let scan = ScanExec::new("t", TableData::Disk(table), schema);
        let (_, sample) = scan.dominance_skip_slot().unwrap();
        assert!(sample.rows.is_empty());
        assert_eq!(sample.blocks.len(), 3, "every block passes whole");
        let sample_only = GateSample {
            blocks: Vec::new(),
            ..sample
        };
        assert!(
            DominanceSkip::from_sample(&min_min(), &sample_only).is_none(),
            "the sample alone has no point"
        );
        let (got, snap) = gated_scan(&scan, &min_min());
        assert_eq!(snap.blocks_skipped_dominance, 1, "{snap:?}");
        assert_eq!(got, [&rows[..2], &rows[4..]].concat());
        let tag = scan.describe();
        assert!(tag.contains("gate: 2 points (2 from corners)"), "{tag}");
    }

    /// A two-row block whose corner point (0, 9) would strictly dominate
    /// the next block's only row (1, 10), but whose witness (0, 9) the
    /// filter removes: the rows the skyline receives are (9, 0) and
    /// (1, 10), both members.
    fn corner_witness_table(name: &str) -> (Vec<Row>, Arc<DiskTable>, SchemaRef) {
        let rows = floats(&[(0.0, 9.0), (9.0, 0.0), (1.0, 10.0)]);
        let (table, schema) = disk_table(name, &rows, 2);
        (rows, table, schema)
    }

    /// Install the gate the planner would find below `plan` and run it.
    fn gated_plan(
        plan: &dyn ExecutionPlan,
        dims: &[SkylineDim],
    ) -> (Vec<Row>, sparkline_exec::MetricsSnapshot) {
        let (slot, sample) = crate::find_dominance_skip_slot(plan).unwrap();
        let skip = DominanceSkip::from_sample(dims, &sample).unwrap();
        slot.set(Arc::new(skip)).unwrap();
        let ctx = TaskContext::new(2);
        let got = sparkline_exec::partition::flatten(plan.execute(&ctx).unwrap());
        (got, ctx.metrics.snapshot())
    }

    #[test]
    fn a_filter_above_the_scan_drops_the_corners() {
        // `a <> 0` is no scan conjunct: a `FilterExec` evaluates it.
        let (rows, table, schema) = corner_witness_table("filtered");
        let a = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: schema.field(0).clone(),
        });
        let predicate = Expr::BinaryOp {
            left: Box::new(a),
            op: BinaryOp::NotEq,
            right: Box::new(Expr::Literal(Value::Float64(0.0))),
        };
        let scan = ScanExec::new("t", TableData::Disk(table), schema).with_filter(&predicate);
        assert!(!scan.evaluates_filter());
        let filter = crate::basic::FilterExec::new(predicate, Arc::new(scan));
        let (_, sample) = crate::find_dominance_skip_slot(&filter).unwrap();
        assert!(sample.blocks.is_empty());
        let (got, snap) = gated_plan(&filter, &min_min());
        assert_eq!(snap.blocks_skipped_dominance, 0, "{snap:?}");
        assert_eq!(got, rows[1..].to_vec());
    }

    #[test]
    fn a_block_straddling_a_scan_conjunct_adds_no_points() {
        // `a > 0` is the scan's own filter. Block 0's `a` spans [0, 9], so
        // the filter does not pass it whole; block 1 (a = 1) passes whole.
        let (rows, table, schema) = corner_witness_table("straddle");
        let a = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: schema.field(0).clone(),
        });
        let predicate = a.gt(Expr::Literal(Value::Float64(0.0)));
        let scan = ScanExec::new("t", TableData::Disk(table), schema).with_filter(&predicate);
        assert!(scan.evaluates_filter());
        let (_, sample) = scan.dominance_skip_slot().unwrap();
        assert_eq!(sample.blocks, vec![1]);
        let (got, snap) = gated_plan(&scan, &min_min());
        assert_eq!(snap.blocks_skipped_dominance, 0, "{snap:?}");
        assert_eq!(got, rows[1..].to_vec());
    }

    #[test]
    fn implication_rules_mirror_refutation() {
        // One block with a in [100, 199]; a second one with a = 5 only.
        let rows: Vec<Row> = (100..200)
            .map(|i| Row::new(vec![Value::Float64(i as f64), Value::Float64(0.0)]))
            .collect();
        let (table, _) = disk_table("implied", &rows, 1000);
        let meta = table.block_meta(0);
        let implied = |op, value| {
            ColumnPredicate {
                col: 0,
                op,
                literal: Value::Float64(value),
            }
            .implied_by(meta)
        };
        assert!(implied(BinaryOp::Lt, 199.5));
        assert!(!implied(BinaryOp::Lt, 199.0));
        assert!(implied(BinaryOp::LtEq, 199.0));
        assert!(!implied(BinaryOp::LtEq, 198.5));
        assert!(implied(BinaryOp::Gt, 99.5));
        assert!(!implied(BinaryOp::Gt, 100.0));
        assert!(implied(BinaryOp::GtEq, 100.0));
        assert!(!implied(BinaryOp::GtEq, 100.5));
        assert!(!implied(BinaryOp::Eq, 100.0));
        assert!(!implied(BinaryOp::Eq, 199.0));
        let (table, _) = disk_table("implied-eq", &floats(&[(5.0, 0.0)]), 1000);
        let eq = |value| ColumnPredicate {
            col: 0,
            op: BinaryOp::Eq,
            literal: Value::Float64(value),
        };
        assert!(eq(5.0).implied_by(table.block_meta(0)));
        assert!(!eq(5.5).implied_by(table.block_meta(0)));
    }

    #[test]
    fn corner_points_compare_max_repeated_and_int64_dims_exactly() {
        // Int64 values near -2^53 (column a) and +2^53 (column b), bounds
        // still exact; no footer sample, so only corner points skip.
        const N: i64 = -(1 << 53) + 16;
        const M: i64 = (1 << 53) - 16;
        let table_of = |name: &str, pairs: &[(i64, i64)]| {
            let rows: Vec<Row> = (pairs.iter())
                .map(|&(a, b)| Row::new(vec![Value::Int64(N + a), Value::Int64(M + b)]))
                .collect();
            let (table, schema) = sampled_disk_table(name, DataType::Int64, &rows, 2, 0);
            (rows, ScanExec::new("t", TableData::Disk(table), schema))
        };
        // a MIN, b MAX. Block 0's corner points are (0, 1) and (1, 5);
        // (1, 5) strictly dominates block 1's best corner (1, 4) by one
        // unit of b. Blocks 2 and 3 hold the members (2, 6) and (0, 4).
        let pairs = [
            (0, 1),
            (1, 5),
            (1, 4),
            (2, 4),
            (2, 6),
            (3, 2),
            (0, 4),
            (5, 0),
        ];
        let (rows, scan) = table_of("int64-max", &pairs);
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(1, SkylineType::Max),
        ];
        let (got, snap) = gated_scan(&scan, &dims);
        assert_eq!(snap.blocks_skipped_dominance, 1, "{snap:?}");
        assert_eq!(got, [&rows[..2], &rows[4..]].concat());
        // a MIN, a MAX, b MAX: block 0 (a = 3) adds the point (3, 3, 5),
        // which strictly dominates block 1's corner (3, 3, 4). Block 2's
        // a spans [2, 4]: its corner (2, 4, 4) is better on the MIN copy
        // of a, and (2, 4) is a member.
        let pairs = [(3, 5), (3, 1), (3, 4), (3, 2), (2, 4), (4, 4)];
        let (rows, scan) = table_of("repeated", &pairs);
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(0, SkylineType::Max),
            SkylineDim::new(1, SkylineType::Max),
        ];
        let (got, snap) = gated_scan(&scan, &dims);
        assert_eq!(snap.blocks_skipped_dominance, 1, "{snap:?}");
        assert_eq!(got, [&rows[..2], &rows[4..]].concat());
    }

    #[test]
    fn diff_dims_disable_dominance_skipping() {
        let dims = [
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(1, SkylineType::Diff),
        ];
        let rows = vec![Row::new(vec![Value::Float64(0.0), Value::Float64(0.0)])];
        let (table, _) = disk_table("diff", &rows, 2);
        let sample = GateSample {
            table,
            rows: vec![0],
            blocks: Vec::new(),
            filter_columns: Vec::new(),
        };
        assert!(DominanceSkip::from_sample(&dims, &sample).is_none());
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
        let schema = Schema::new(vec![field]);
        let got = extract_column_predicates(&pred, &schema);
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
        assert!(extract_column_predicates(&col.clone().lt(lit(f64::NAN)), &schema).is_empty());
        assert!(extract_column_predicates(&lit(1.0).lt(lit(2.0)), &schema).is_empty());
        // A `Boolean` column's 0/1 bounds are not its values: a comparison
        // with a number fails on its rows, so no block may be pruned by it.
        let flag = Field::new("f", DataType::Boolean, false);
        let flag_col = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: flag.clone(),
        });
        let flags = Schema::new(vec![flag]);
        assert!(extract_column_predicates(&flag_col.lt(lit(0.0)), &flags).is_empty());
    }

    #[test]
    fn decode_buffers_are_charged_to_the_memory_budget() {
        let rows = ascending(2000);
        let (table, schema) = disk_table("budget", &rows, 500);
        let scan = ScanExec::new("t", TableData::Disk(Arc::clone(&table)), schema);
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
