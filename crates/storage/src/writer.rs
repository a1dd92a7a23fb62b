//! The COPY-style table writers. [`write_table`] lays a whole table out
//! in coarse Z order (see the crate docs' "Row order") so block bounds
//! are tight; [`TableWriter`] streams rows in the order they arrive.
//! Both encode blocks at a fixed row granularity, accumulate the skipping
//! metadata on the way and write the footer last.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use sparkline_common::stats::Reservoir;
use sparkline_common::{
    Chunk, ColumnValues, DataType, MemTable, Result, Row, Schema, SchemaRef, Value, CHUNK_ROWS,
};

use crate::format::{
    encode_block, encode_schema, put_f64, put_u32, put_u64, storage_err, FOOTER_MAGIC,
    FORMAT_VERSION, MAGIC,
};
use crate::reader::BlockMeta;

/// Writer knobs; the session exposes these as `SessionConfig` fields.
#[derive(Debug, Clone, Copy)]
pub struct WriterOptions {
    /// Rows per block — the skipping and decode granularity.
    pub block_rows: usize,
    /// Capacity of the footer's reservoir sample (the skyline planner
    /// takes the dominance gate's points from it without touching
    /// blocks).
    pub sample_cap: usize,
    /// Seed of the reservoir sample, for deterministic plans.
    pub sample_seed: u64,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            block_rows: 2048,
            sample_cap: 1024,
            sample_seed: 0x5EED_B10C,
        }
    }
}

/// What a finished write produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskTableSummary {
    /// Rows written.
    pub rows: u64,
    /// Blocks written.
    pub blocks: usize,
    /// Total file size in bytes (header + blocks + footer + trailer).
    pub bytes: u64,
}

/// Streaming writer for one table file; it keeps rows in the order they
/// are written, so it is the primitive for a hand-laid block layout.
/// Rows are validated against the schema as they arrive; blocks are
/// encoded and flushed every [`WriterOptions::block_rows`] rows, so peak
/// writer memory is one block regardless of table size.
pub struct TableWriter {
    out: BufWriter<File>,
    schema: SchemaRef,
    opts: WriterOptions,
    buffer: Vec<Row>,
    blocks: Vec<BlockMeta>,
    offset: u64,
    total_rows: u64,
    reservoir: Reservoir,
}

impl TableWriter {
    /// Create (truncate) `path` and write the header + schema.
    pub fn create(path: impl AsRef<Path>, schema: SchemaRef, opts: WriterOptions) -> Result<Self> {
        if opts.block_rows == 0 {
            return Err(storage_err("block_rows must be positive"));
        }
        let file = File::create(path.as_ref())
            .map_err(|e| storage_err(format!("create {}: {e}", path.as_ref().display())))?;
        let mut out = BufWriter::new(file);
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        put_u32(&mut header, FORMAT_VERSION);
        header.extend_from_slice(&encode_schema(&schema));
        out.write_all(&header)
            .map_err(|e| storage_err(format!("write header: {e}")))?;
        Ok(TableWriter {
            out,
            schema,
            buffer: Vec::new(),
            blocks: Vec::new(),
            offset: header.len() as u64,
            total_rows: 0,
            reservoir: Reservoir::new(opts.sample_cap, opts.sample_seed),
            opts,
        })
    }

    /// Append one row.
    pub fn write_row(&mut self, row: &Row) -> Result<()> {
        self.buffer.push(row.clone());
        self.reservoir.push(row.clone());
        if self.buffer.len() >= self.opts.block_rows {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Append a slice of rows.
    pub fn write_rows(&mut self, rows: &[Row]) -> Result<()> {
        for row in rows {
            self.write_row(row)?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let buffer = std::mem::take(&mut self.buffer);
        self.write_block(&buffer.iter().map(Row::values).collect::<Vec<_>>())?;
        self.buffer = buffer;
        self.buffer.clear();
        Ok(())
    }

    /// Encode `rows` as the next block and write it.
    fn write_block(&mut self, rows: &[&[Value]]) -> Result<()> {
        let (payload, columns) = encode_block(&self.schema, rows)?;
        self.out
            .write_all(&payload)
            .map_err(|e| storage_err(format!("write block: {e}")))?;
        self.blocks.push(BlockMeta {
            offset: self.offset,
            bytes: payload.len() as u64,
            rows: rows.len() as u32,
            columns,
        });
        self.offset += payload.len() as u64;
        self.total_rows += rows.len() as u64;
        Ok(())
    }

    /// Flush the tail block, write the footer + trailer, and sync.
    pub fn finish(mut self) -> Result<DiskTableSummary> {
        self.flush_block()?;
        let sample = std::mem::replace(&mut self.reservoir, Reservoir::new(0, 0)).into_rows();
        self.finish_with_sample(&sample)
    }

    /// Write the footer, with `sample` as its reservoir sample, and the
    /// trailer, then sync.
    fn finish_with_sample(mut self, sample: &[Row]) -> Result<DiskTableSummary> {
        let footer_offset = self.offset;
        let mut footer = Vec::new();
        put_u64(&mut footer, self.total_rows);
        put_u32(&mut footer, self.opts.block_rows as u32);
        put_u32(&mut footer, self.blocks.len() as u32);
        for block in &self.blocks {
            put_u64(&mut footer, block.offset);
            put_u64(&mut footer, block.bytes);
            put_u32(&mut footer, block.rows);
            for col in &block.columns {
                put_u32(&mut footer, col.null_count);
                put_u32(&mut footer, col.non_numeric);
                match (col.min, col.max) {
                    (Some(min), Some(max)) => {
                        footer.push(1);
                        put_f64(&mut footer, min);
                        put_f64(&mut footer, max);
                    }
                    _ => {
                        footer.push(0);
                        put_f64(&mut footer, 0.0);
                        put_f64(&mut footer, 0.0);
                    }
                }
            }
        }
        put_u64(&mut footer, self.opts.sample_seed);
        let sample: Vec<&[Value]> = sample.iter().map(Row::values).collect();
        let (sample_payload, _) = encode_block(&self.schema, &sample)?;
        put_u64(&mut footer, sample_payload.len() as u64);
        footer.extend_from_slice(&sample_payload);
        // Trailer: footer locator + magic, fixed size so `open` can seek
        // to it without parsing anything else.
        put_u64(&mut footer, footer_offset);
        footer.extend_from_slice(&FOOTER_MAGIC);
        self.out
            .write_all(&footer)
            .map_err(|e| storage_err(format!("write footer: {e}")))?;
        self.out
            .flush()
            .map_err(|e| storage_err(format!("flush table file: {e}")))?;
        Ok(DiskTableSummary {
            rows: self.total_rows,
            blocks: self.blocks.len(),
            bytes: footer_offset + footer.len() as u64,
        })
    }
}

/// One-shot COPY: write `rows` to `path` under `opts`, **clustered**: the
/// file holds a permutation of `rows`, not their input order (see the
/// crate docs' "Row order"). The permutation depends only on the rows
/// and `block_rows`, so the same input writes the same bytes every time.
/// Use [`TableWriter`] to keep input order.
pub fn write_table(
    path: impl AsRef<Path>,
    schema: SchemaRef,
    rows: &[Row],
    opts: WriterOptions,
) -> Result<DiskTableSummary> {
    write_clustered(path, schema, &[rows], opts)
}

/// [`write_table`] for an in-memory table: the session's COPY. The Z
/// order and the blocks read the table's column chunks directly, so the
/// table is never built as rows; only the footer sample's rows are. The
/// file is the one [`write_table`] writes for the table's rows.
pub fn write_mem_table(
    path: impl AsRef<Path>,
    schema: SchemaRef,
    table: &MemTable,
    opts: WriterOptions,
) -> Result<DiskTableSummary> {
    let chunks: Vec<&Chunk> = table.chunks().iter().map(|c| c.as_ref()).collect();
    write_clustered(path, schema, &chunks, opts)
}

/// A run of consecutive input rows of [`write_clustered`], read by
/// position: a slice of rows is one run, and each chunk of an in-memory
/// table is one.
trait Run {
    /// Rows in the run.
    fn len(&self) -> usize;
    /// Column `c` of row `i` as a number on the Z grid: an `Int64` or
    /// `Float64` value, `None` for NULL and any other value.
    fn number(&self, i: usize, c: usize) -> Option<f64>;
    /// Append row `i`'s values to `out`.
    fn values_into(&self, i: usize, out: &mut Vec<Value>);
    /// Row `i`.
    fn row(&self, i: usize) -> Row;
}

impl Run for [Row] {
    fn len(&self) -> usize {
        <[Row]>::len(self)
    }

    fn number(&self, i: usize, c: usize) -> Option<f64> {
        match self[i].values().get(c) {
            Some(Value::Int64(v)) => Some(*v as f64),
            Some(Value::Float64(f)) => Some(*f),
            _ => None,
        }
    }

    fn values_into(&self, i: usize, out: &mut Vec<Value>) {
        out.extend_from_slice(self[i].values());
    }

    fn row(&self, i: usize) -> Row {
        self[i].clone()
    }
}

impl Run for Chunk {
    fn len(&self) -> usize {
        Chunk::len(self)
    }

    fn number(&self, i: usize, c: usize) -> Option<f64> {
        let column = self.columns().get(c)?;
        if column.is_null(i) {
            return None;
        }
        match &column.values {
            ColumnValues::Float64(v) => Some(v[i]),
            ColumnValues::Int64(v) => Some(v[i] as f64),
            ColumnValues::Values(v) => match &v[i] {
                Value::Int64(v) => Some(*v as f64),
                Value::Float64(f) => Some(*f),
                _ => None,
            },
        }
    }

    fn values_into(&self, i: usize, out: &mut Vec<Value>) {
        for column in self.columns() {
            out.push(column.value(i));
        }
    }

    fn row(&self, i: usize) -> Row {
        Chunk::row(self, i)
    }
}

/// The clustered write of [`write_table`] over consecutive `runs` of
/// input rows; a row's position is its place in their concatenation.
fn write_clustered<R: Run + ?Sized>(
    path: impl AsRef<Path>,
    schema: SchemaRef,
    runs: &[&R],
    opts: WriterOptions,
) -> Result<DiskTableSummary> {
    // `create` rejects a zero `block_rows` before the order divides by it.
    let mut writer = TableWriter::create(path, Arc::clone(&schema), opts)?;
    let mut starts = Vec::with_capacity(runs.len() + 1);
    starts.push(0);
    for run in runs {
        starts.push(starts[starts.len() - 1] + run.len());
    }
    let rows = starts[runs.len()];
    let locate = |pos: usize| {
        // Runs of `CHUNK_ROWS` rows but for the last are the common case.
        let guess = (pos / CHUNK_ROWS).min(runs.len() - 1);
        let k = if starts[guess] <= pos && pos < starts[guess + 1] {
            guess
        } else {
            starts.partition_point(|&s| s <= pos) - 1
        };
        (runs[k], pos - starts[k])
    };
    let perm = z_order(&schema, runs, rows, opts.block_rows)?;
    // One block's values, row after row, and where each row ends.
    let mut values: Vec<Value> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    for chunk in perm.chunks(opts.block_rows) {
        values.clear();
        ends.clear();
        for &pos in chunk {
            let (run, i) = locate(pos as usize);
            run.values_into(i, &mut values);
            ends.push(values.len());
        }
        let block: Vec<&[Value]> = (0..ends.len())
            .map(|k| &values[if k == 0 { 0 } else { ends[k - 1] }..ends[k]])
            .collect();
        writer.write_block(&block)?;
    }
    drop(perm);
    // The sample is drawn over input positions, so it is the one a
    // `TableWriter` fed the same rows would keep, without building a row
    // that is not sampled.
    let mut reservoir = Reservoir::new(opts.sample_cap, opts.sample_seed);
    for i in 0..rows {
        reservoir.push(i);
    }
    let sample: Vec<Row> = (reservoir.into_rows().into_iter())
        .map(|pos| {
            let (run, i) = locate(pos);
            run.row(i)
        })
        .collect();
    writer.finish_with_sample(&sample)
}

/// Z cells per block the grid aims for: enough that a block covers a
/// small box of the space, few enough that the counting sort's buckets
/// stay a fraction of the table. On 1M independent 4-dim rows in 489
/// blocks, 4, 8 and 16 let the scan skip 0.51, 0.53 and 0.53 of the
/// blocks, at query times within noise of each other.
const CELLS_PER_BLOCK: usize = 8;
/// Cap on the Z cell's bits, so a cell fits a `u16`: past 8192 blocks the
/// grid stops refining, and a cell's rows fill several blocks in input
/// order.
const MAX_CELL_BITS: u32 = 16;

/// One axis of the Z grid: an Int64 or Float64 column quantized linearly
/// into `2^bits` slots between its finite min and max.
struct Axis {
    col: usize,
    half_lo: f64,
    scale: f64,
    /// Where each bit of the slot lands in the cell, least significant
    /// first; its length is the axis' bit count.
    positions: Vec<u32>,
}

impl Axis {
    /// The slot of `v`: values below the range (−inf) fall in slot 0,
    /// above it (+inf) in the top slot; NULL, NaN and a constant column
    /// in slot 0. Halving both sides keeps `max − min` finite for any
    /// pair of finite `f64`s.
    fn slot(&self, v: Option<f64>) -> u32 {
        let Some(x) = v else {
            return 0;
        };
        let t = (x / 2.0 - self.half_lo) * self.scale;
        // `as` saturates: NaN and negatives go to 0, overflow to the top.
        (t as u32).min((1 << self.positions.len()) - 1)
    }
}

/// The Z cell of a row whose column `c` is the number `number(c)`: its
/// axes' slots, bit-interleaved.
fn z_cell(axes: &[Axis], number: impl Fn(usize) -> Option<f64>) -> u16 {
    let mut cell = 0;
    for axis in axes {
        let slot = axis.slot(number(axis.col));
        for (bit, &pos) in axis.positions.iter().enumerate() {
            cell |= ((slot >> bit & 1) as u16) << pos;
        }
    }
    cell
}

/// The row order [`write_table`] writes, as input positions in Z-cell
/// order, stable within a cell. Two passes over the `rows` of `runs`: the
/// first finds each numeric column's finite range, the second computes
/// each row's cell; a stable counting sort over the cells then gives the
/// permutation, one `u16` cell and one `u32` entry per row.
fn z_order<R: Run + ?Sized>(
    schema: &Schema,
    runs: &[&R],
    rows: usize,
    block_rows: usize,
) -> Result<Vec<u32>> {
    if u32::try_from(rows).is_err() {
        return Err(storage_err(format!(
            "{rows} rows exceed one file's u32 row positions"
        )));
    }
    let each_row = || (runs.iter()).flat_map(|run| (0..run.len()).map(move |i| (*run, i)));
    let numeric: Vec<usize> = (schema.fields().iter().enumerate())
        .filter(|(_, f)| matches!(f.data_type(), DataType::Int64 | DataType::Float64))
        .map(|(c, _)| c)
        .collect();
    let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); numeric.len()];
    for (run, i) in each_row() {
        for (range, &c) in ranges.iter_mut().zip(&numeric) {
            let Some(x) = run.number(i, c).filter(|x| x.is_finite()) else {
                continue;
            };
            range.0 = range.0.min(x);
            range.1 = range.1.max(x);
        }
    }
    // About CELLS_PER_BLOCK cells per block, the bits dealt round-robin
    // over the axes.
    let cells = rows.div_ceil(block_rows).max(1) * CELLS_PER_BLOCK;
    let total_bits = if numeric.is_empty() {
        0
    } else {
        cells
            .next_power_of_two()
            .trailing_zeros()
            .min(MAX_CELL_BITS)
    };
    let axes_count = numeric.len() as u32;
    let bits = |k: usize| total_bits / axes_count + u32::from((k as u32) < total_bits % axes_count);
    let mut axes: Vec<Axis> = (numeric.iter().zip(&ranges).enumerate())
        .map(|(k, (&col, &(lo, hi)))| {
            let span = hi / 2.0 - lo / 2.0;
            Axis {
                col,
                half_lo: lo / 2.0,
                scale: if span > 0.0 {
                    f64::from(1u32 << bits(k)) / span
                } else {
                    0.0
                },
                positions: vec![0; bits(k) as usize],
            }
        })
        .collect();
    // Interleave from the most significant bit down: at each level,
    // every axis that still has a bit there contributes it in turn.
    let mut pos = total_bits;
    for level in (0..total_bits).rev() {
        for axis in &mut axes {
            if let Some(at) = axis.positions.get_mut(level as usize) {
                pos -= 1;
                *at = pos;
            }
        }
    }
    let mut starts = vec![0u32; 1 << total_bits];
    let cells: Vec<u16> = each_row()
        .map(|(run, i)| {
            let cell = z_cell(&axes, |c| run.number(i, c));
            starts[cell as usize] += 1;
            cell
        })
        .collect();
    let mut next = 0u32;
    for start in &mut starts {
        let count = *start;
        *start = next;
        next += count;
    }
    let mut perm = vec![0u32; rows];
    for (i, &cell) in cells.iter().enumerate() {
        let slot = &mut starts[cell as usize];
        perm[*slot as usize] = i as u32;
        *slot += 1;
    }
    Ok(perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::DiskTable;
    use sparkline_common::Field;
    use std::sync::Arc;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sparkline-storage-test-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.spk")
    }

    fn float_rows(n: usize) -> (SchemaRef, Vec<Row>) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Float64, false),
            Field::new("b", DataType::Float64, false),
        ])
        .into_ref();
        let rows = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Float64(i as f64),
                    Value::Float64((n - i) as f64),
                ])
            })
            .collect();
        (schema, rows)
    }

    /// A bit-exact, order-free key of a row (NaN payloads and −0.0
    /// included), for multiset comparisons.
    fn key(row: &Row) -> String {
        (row.values().iter())
            .map(|v| match v {
                Value::Float64(f) => format!("f{:016x}", f.to_bits()),
                other => format!("{other:?}"),
            })
            .collect::<Vec<_>>()
            .join("|")
    }

    fn keys(rows: &[Row]) -> Vec<String> {
        let mut keys: Vec<String> = rows.iter().map(key).collect();
        keys.sort();
        keys
    }

    /// `write_table` holds a permutation of `rows` and writes the same
    /// bytes every time; returns the file, open.
    fn check_permutation(
        name: &str,
        schema: &SchemaRef,
        rows: &[Row],
        block_rows: usize,
    ) -> DiskTable {
        let path = temp_path(name);
        let opts = WriterOptions {
            block_rows,
            ..WriterOptions::default()
        };
        let summary = write_table(&path, Arc::clone(schema), rows, opts).unwrap();
        assert_eq!(summary.rows, rows.len() as u64, "{name}");
        let bytes = std::fs::read(&path).unwrap();
        write_table(&path, Arc::clone(schema), rows, opts).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "{name}: same rows, same bytes"
        );
        let table = DiskTable::open(&path).unwrap();
        assert_eq!(table.num_blocks(), summary.blocks, "{name}");
        assert_eq!(
            keys(&table.decode_all().unwrap()),
            keys(rows),
            "{name}: a permutation of the input"
        );
        table
    }

    #[test]
    fn write_read_roundtrip_across_blocks() {
        let (schema, rows) = float_rows(700);
        let table = check_permutation("roundtrip", &schema, &rows, 256);
        // Block metadata matches each block's rows.
        let mut lens = Vec::new();
        for i in 0..table.num_blocks() {
            let block = table.decode_block(i).unwrap();
            lens.push(block.len());
            let meta = table.block_meta(i);
            assert_eq!(meta.rows as usize, block.len());
            let a = block.iter().map(|r| match r.get(0) {
                Value::Float64(f) => *f,
                _ => unreachable!(),
            });
            assert_eq!(meta.columns[0].min, a.clone().reduce(f64::min));
            assert_eq!(meta.columns[0].max, a.reduce(f64::max));
            assert_eq!(meta.columns[0].null_count, 0);
        }
        assert_eq!(lens, [256, 256, 188]);
        std::fs::remove_file(table.path()).ok();
    }

    #[test]
    fn table_writer_keeps_input_order() {
        let (schema, rows) = float_rows(700);
        let path = temp_path("ordered");
        let opts = WriterOptions {
            block_rows: 256,
            ..WriterOptions::default()
        };
        let mut writer = TableWriter::create(&path, Arc::clone(&schema), opts).unwrap();
        writer.write_rows(&rows).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.rows, 700);
        assert_eq!(summary.blocks, 3, "256+256+188");
        let table = DiskTable::open(&path).unwrap();
        assert_eq!(table.total_rows(), 700);
        assert_eq!(table.num_blocks(), 3);
        assert_eq!(
            table.decode_all().unwrap(),
            rows,
            "byte-identical round trip"
        );
        // Block metadata matches the data.
        let b0 = table.block_meta(0);
        assert_eq!(b0.rows, 256);
        assert_eq!(b0.columns[0].min, Some(0.0));
        assert_eq!(b0.columns[0].max, Some(255.0));
        assert_eq!(b0.columns[0].null_count, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clustered_write_is_a_deterministic_permutation() {
        const BIG: i64 = 1 << 53;
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64, true),
            Field::new("f", DataType::Float64, true),
            Field::new("s", DataType::Utf8, true),
            Field::new("k", DataType::Int64, false),
        ])
        .into_ref();
        let floats = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.5,
            -2.25,
        ];
        let rows: Vec<Row> = (0..300i64)
            .map(|n| {
                let big = [BIG, -BIG, i64::MAX, i64::MIN][(n % 4) as usize];
                Row::new(vec![
                    if n % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(big.saturating_add(n % 7 - 3))
                    },
                    if n % 13 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(floats[n as usize % floats.len()] * (n as f64))
                    },
                    if n % 17 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("s{n}"))
                    },
                    Value::Int64(7),
                ])
            })
            .collect();
        for (name, rows, block_rows) in [
            ("mixed", &rows[..], 16),
            ("mixed-one-block", &rows[..], 1000),
            ("mixed-short", &rows[..5], 16),
            ("mixed-empty", &rows[..0], 16),
        ] {
            let table = check_permutation(name, &schema, rows, block_rows);
            std::fs::remove_file(table.path()).ok();
        }
    }

    #[test]
    fn clustered_blocks_have_tight_bounds() {
        // 4096 rows on a 64 × 64 grid, in row-major order: arrival-order
        // blocks of 256 rows would each span the whole `b` range.
        let schema = Schema::new(vec![
            Field::new("a", DataType::Float64, false),
            Field::new("b", DataType::Float64, false),
        ])
        .into_ref();
        let rows: Vec<Row> = (0..4096)
            .map(|i| {
                Row::new(vec![
                    Value::Float64(f64::from(i / 64)),
                    Value::Float64(f64::from(i % 64)),
                ])
            })
            .collect();
        let path = temp_path("tight");
        let opts = WriterOptions {
            block_rows: 256,
            ..WriterOptions::default()
        };
        write_table(&path, Arc::clone(&schema), &rows, opts).unwrap();
        let table = DiskTable::open(&path).unwrap();
        assert_eq!(table.num_blocks(), 16);
        for meta in table.blocks() {
            for col in &meta.columns {
                let span = col.max.unwrap() - col.min.unwrap();
                assert!(span < 32.0, "a block spans half an axis: {meta:?}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footer_sample_is_drawn_over_input_positions() {
        let (schema, rows) = float_rows(3000);
        let opts = WriterOptions {
            block_rows: 128,
            sample_cap: 50,
            sample_seed: 11,
        };
        let clustered = temp_path("sample-clustered");
        write_table(&clustered, Arc::clone(&schema), &rows, opts).unwrap();
        let ordered = temp_path("sample-ordered");
        let mut writer = TableWriter::create(&ordered, Arc::clone(&schema), opts).unwrap();
        writer.write_rows(&rows).unwrap();
        writer.finish().unwrap();
        assert_eq!(
            DiskTable::open(&clustered).unwrap().sample(),
            DiskTable::open(&ordered).unwrap().sample(),
            "the row order leaves the sample alone"
        );
        std::fs::remove_file(&clustered).ok();
        std::fs::remove_file(&ordered).ok();
    }

    #[test]
    fn footer_sample_is_deterministic_and_bounded() {
        let (schema, rows) = float_rows(5000);
        let path = temp_path("sample");
        let opts = WriterOptions {
            block_rows: 512,
            sample_cap: 64,
            sample_seed: 7,
        };
        write_table(&path, Arc::clone(&schema), &rows, opts).unwrap();
        let t1 = DiskTable::open(&path).unwrap();
        assert_eq!(t1.sample().len(), 64);
        write_table(&path, Arc::clone(&schema), &rows, opts).unwrap();
        let t2 = DiskTable::open(&path).unwrap();
        assert_eq!(t1.sample(), t2.sample(), "same seed, same sample");
        for row in t1.sample().iter() {
            assert!(rows.contains(row), "sample rows are real rows");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_table_roundtrips() {
        let (schema, _) = float_rows(0);
        let path = temp_path("empty");
        let summary =
            write_table(&path, Arc::clone(&schema), &[], WriterOptions::default()).unwrap();
        assert_eq!(summary.rows, 0);
        assert_eq!(summary.blocks, 0);
        let table = DiskTable::open(&path).unwrap();
        assert_eq!(table.total_rows(), 0);
        assert_eq!(table.num_blocks(), 0);
        assert!(table.sample().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_mem_table_writes_the_file_of_its_rows() {
        // Mixed types, NULLs, NaN and uneven chunks after DELETE and INSERT.
        let schema = Schema::new(vec![
            Field::new("f", DataType::Float64, true),
            Field::new("i", DataType::Int64, true),
            Field::new("s", DataType::Utf8, true),
        ])
        .into_ref();
        let row = |k: usize| {
            let f = match k % 9 {
                0 => Value::Null,
                1 => Value::Float64(f64::NAN),
                _ => Value::Float64((k * 37 % 101) as f64 - 50.0),
            };
            let i = if k.is_multiple_of(11) {
                Value::Null
            } else {
                Value::Int64((k * 53 % 97) as i64)
            };
            Row::new(vec![f, i, Value::str(format!("r{}", k % 5))])
        };
        let chunk = sparkline_common::CHUNK_ROWS;
        let mut table = MemTable::from_rows(&schema, (0..2 * chunk + 300).map(row).collect());
        table.delete(&(chunk - 40..chunk + 40).collect::<Vec<_>>());
        table.append((5000..5000 + chunk).map(row).collect());
        let rows: Vec<Row> = table.rows().collect();
        let opts = WriterOptions {
            block_rows: 100,
            sample_cap: 64,
            sample_seed: 3,
        };
        let (from_rows, from_chunks) = (temp_path("rows-file"), temp_path("chunks-file"));
        let a = write_table(&from_rows, Arc::clone(&schema), &rows, opts).unwrap();
        let b = write_mem_table(&from_chunks, schema, &table, opts).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            std::fs::read(&from_rows).unwrap(),
            std::fs::read(&from_chunks).unwrap()
        );
        std::fs::remove_file(&from_rows).ok();
        std::fs::remove_file(&from_chunks).ok();
    }

    #[test]
    fn schema_violations_fail_the_write() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64, false)]).into_ref();
        let path = temp_path("badrow");
        let err = write_table(
            &path,
            schema,
            &[Row::new(vec![Value::str("nope")])],
            WriterOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("storage"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
