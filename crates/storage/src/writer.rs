//! The COPY-style table writers. [`write_mem_table`] lays an in-memory
//! table out in coarse Z order (see the crate docs' "Row order"), each
//! block gathered out of its column chunks; [`write_table`] checks a slice
//! of rows and writes it as that table; [`TableWriter`] keeps the order
//! rows arrive in. Every block is encoded from column buffers, with its
//! skipping metadata, the footer comes last, and the file is published by
//! a rename once complete (see the crate docs).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sparkline_common::stats::Reservoir;
use sparkline_common::{
    ColumnBatch, ColumnValues, DataType, MemTable, Result, Row, Schema, SchemaRef,
};

use crate::format::{
    check_row, encode_block, encode_schema, put_f64, put_u32, put_u64, storage_err, FOOTER_MAGIC,
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
/// writer memory is one block regardless of table size. The bytes go to a
/// temporary file beside the destination until [`finish`](Self::finish)
/// publishes them; a writer dropped unfinished removes it.
pub struct TableWriter {
    out: BufWriter<File>,
    path: PathBuf,
    temp: PathBuf,
    published: bool,
    schema: SchemaRef,
    opts: WriterOptions,
    buffer: Vec<Row>,
    blocks: Vec<BlockMeta>,
    offset: u64,
    total_rows: u64,
    reservoir: Reservoir,
}

impl TableWriter {
    /// Start a table file that [`finish`](Self::finish) publishes at
    /// `path`, and write the header + schema. `path` itself is untouched
    /// until then.
    pub fn create(path: impl AsRef<Path>, schema: SchemaRef, opts: WriterOptions) -> Result<Self> {
        /// Tells apart the temporary files of concurrent writes.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        if opts.block_rows == 0 {
            return Err(storage_err("block_rows must be positive"));
        }
        let path = path.as_ref().to_path_buf();
        let write = WRITES.fetch_add(1, Ordering::Relaxed);
        let temp = path.with_extension(format!("{}-{write}.tmp", std::process::id()));
        let file = File::create(&temp)
            .map_err(|e| storage_err(format!("create {}: {e}", temp.display())))?;
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        put_u32(&mut header, FORMAT_VERSION);
        header.extend_from_slice(&encode_schema(&schema));
        let mut writer = TableWriter {
            out: BufWriter::new(file),
            path,
            temp,
            published: false,
            schema,
            buffer: Vec::new(),
            blocks: Vec::new(),
            offset: header.len() as u64,
            total_rows: 0,
            reservoir: Reservoir::new(opts.sample_cap, opts.sample_seed),
            opts,
        };
        writer.write(&header, "header")?;
        Ok(writer)
    }

    fn write(&mut self, bytes: &[u8], what: &str) -> Result<()> {
        self.out
            .write_all(bytes)
            .map_err(|e| storage_err(format!("write {what}: {e}")))
    }

    /// Append one row.
    pub fn write_row(&mut self, row: &Row) -> Result<()> {
        check_row(&self.schema, row)?;
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
        let block = MemTable::from_rows(&self.schema, std::mem::take(&mut self.buffer));
        self.write_block(&block.batch(0, block.len()))
    }

    /// Encode `batch` as the next block and write it.
    fn write_block(&mut self, batch: &ColumnBatch) -> Result<()> {
        let (payload, columns) = encode_block(&self.schema, batch)?;
        self.write(&payload, "block")?;
        self.blocks.push(BlockMeta {
            offset: self.offset,
            bytes: payload.len() as u64,
            rows: batch.len() as u32,
            columns,
        });
        self.offset += payload.len() as u64;
        self.total_rows += batch.len() as u64;
        Ok(())
    }

    /// Flush the tail block, write the footer + trailer, sync the file
    /// and publish it at the destination.
    pub fn finish(mut self) -> Result<DiskTableSummary> {
        self.flush_block()?;
        let sample = std::mem::replace(&mut self.reservoir, Reservoir::new(0, 0)).into_rows();
        let sample = MemTable::from_rows(&self.schema, sample);
        self.finish_with_sample(&sample.batch(0, sample.len()))
    }

    /// Write the footer, with `sample` as its reservoir sample, and the
    /// trailer; then sync the file and rename it over the destination.
    fn finish_with_sample(mut self, sample: &ColumnBatch) -> Result<DiskTableSummary> {
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
                let bounds = col.min.zip(col.max);
                footer.push(u8::from(bounds.is_some()));
                let (min, max) = bounds.unwrap_or((0.0, 0.0));
                put_f64(&mut footer, min);
                put_f64(&mut footer, max);
            }
        }
        put_u64(&mut footer, self.opts.sample_seed);
        let (sample_payload, _) = encode_block(&self.schema, sample)?;
        put_u64(&mut footer, sample_payload.len() as u64);
        footer.extend_from_slice(&sample_payload);
        // Trailer: footer locator + magic, fixed size so `open` can seek
        // to it without parsing anything else.
        put_u64(&mut footer, footer_offset);
        footer.extend_from_slice(&FOOTER_MAGIC);
        self.write(&footer, "footer")?;
        (self.out.flush())
            .and_then(|()| self.out.get_ref().sync_all())
            .map_err(|e| storage_err(format!("sync {}: {e}", self.temp.display())))?;
        std::fs::rename(&self.temp, &self.path)
            .map_err(|e| storage_err(format!("publish {}: {e}", self.path.display())))?;
        self.published = true;
        // The rename is durable once the directory holding it is synced.
        let dir = self.path.with_file_name(".");
        (File::open(&dir).and_then(|dir| dir.sync_all()))
            .map_err(|e| storage_err(format!("sync {}: {e}", dir.display())))?;
        Ok(DiskTableSummary {
            rows: self.total_rows,
            blocks: self.blocks.len(),
            bytes: footer_offset + footer.len() as u64,
        })
    }
}

impl Drop for TableWriter {
    fn drop(&mut self) {
        if !self.published {
            let _ = std::fs::remove_file(&self.temp);
        }
    }
}

/// One-shot COPY of a slice of rows: each row is checked against
/// `schema` (width, types, nullability), the rows become an in-memory
/// table and [`write_mem_table`] writes it, **clustered**: the file holds
/// a permutation of `rows`, not their input order (see the crate docs'
/// "Row order"). The permutation depends only on the rows and
/// `block_rows`, so the same input writes the same bytes every time. Use
/// [`TableWriter`] to keep input order.
pub fn write_table(
    path: impl AsRef<Path>,
    schema: SchemaRef,
    rows: &[Row],
    opts: WriterOptions,
) -> Result<DiskTableSummary> {
    let table = MemTable::from_checked_rows(&schema, rows, |_, row| check_row(&schema, row))?;
    write_mem_table(path, schema, &table, opts)
}

/// The session's COPY: write `table` to `path` under `opts`, in the Z
/// order of the crate docs' "Row order". The order reads the chunks'
/// column buffers, and each block and the footer sample are gathered out
/// of the chunks by table position ([`MemTable::take`]) and encoded from
/// the gathered buffers, so no row is built. A `Float64` or `Int64` column
/// a value of another type turned into values fails the write.
pub fn write_mem_table(
    path: impl AsRef<Path>,
    schema: SchemaRef,
    table: &MemTable,
    opts: WriterOptions,
) -> Result<DiskTableSummary> {
    // `create` rejects a zero `block_rows` before the order divides by it.
    let mut writer = TableWriter::create(path, Arc::clone(&schema), opts)?;
    let perm = z_order(&schema, table, opts.block_rows)?;
    for block in perm.chunks(opts.block_rows) {
        writer.write_block(&table.take(block))?;
    }
    drop(perm);
    // The sample is drawn over input positions, so it is the one a
    // `TableWriter` fed the same rows would keep.
    let mut reservoir = Reservoir::new(opts.sample_cap, opts.sample_seed);
    for pos in 0..table.len() as u32 {
        reservoir.push(pos);
    }
    writer.finish_with_sample(&table.take(&reservoir.into_rows()))
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

    /// The bits `v`'s slot sets in a cell.
    fn cell_bits(&self, v: Option<f64>) -> u16 {
        let slot = self.slot(v);
        (self.positions.iter().enumerate()).fold(0, |cell, (bit, &pos)| {
            cell | ((slot >> bit & 1) as u16) << pos
        })
    }
}

/// Column `c` of `table` as numbers on the Z grid, chunk by chunk: `f`
/// gets each row's table position and its `Int64` or `Float64` value,
/// `None` for NULL and for a column held as values (which the encoder
/// rejects). One slice loop per chunk column.
fn each_number(table: &MemTable, c: usize, mut f: impl FnMut(usize, Option<f64>)) {
    for (k, chunk) in table.chunks().iter().enumerate() {
        let start = table.chunk_start(k);
        let Some(column) = chunk.columns().get(c) else {
            (start..start + chunk.len()).for_each(|pos| f(pos, None));
            continue;
        };
        let null = |i: usize| column.nulls.as_ref().is_some_and(|n| n[i]);
        match &column.values {
            ColumnValues::Float64(v) => {
                for (i, &x) in v.iter().enumerate() {
                    f(start + i, (!null(i)).then_some(x));
                }
            }
            ColumnValues::Int64(v) => {
                for (i, &x) in v.iter().enumerate() {
                    f(start + i, (!null(i)).then_some(x as f64));
                }
            }
            ColumnValues::Values(_) => (start..start + chunk.len()).for_each(|pos| f(pos, None)),
        }
    }
}

/// The row order [`write_mem_table`] writes, as table positions in Z-cell
/// order, stable within a cell. Two passes over each numeric column of
/// the chunks: the first finds its finite range, the second adds its bits
/// to each row's cell; a stable counting sort over the cells then gives
/// the permutation, one `u16` cell and one `u32` entry per row.
fn z_order(schema: &Schema, table: &MemTable, block_rows: usize) -> Result<Vec<u32>> {
    let rows = table.len();
    if u32::try_from(rows).is_err() {
        return Err(storage_err(format!(
            "{rows} rows exceed one file's u32 row positions"
        )));
    }
    let numeric: Vec<usize> = (schema.fields().iter().enumerate())
        .filter(|(_, f)| matches!(f.data_type(), DataType::Int64 | DataType::Float64))
        .map(|(c, _)| c)
        .collect();
    let ranges: Vec<(f64, f64)> = (numeric.iter())
        .map(|&c| {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            each_number(table, c, |_, x| {
                if let Some(x) = x.filter(|x| x.is_finite()) {
                    (lo, hi) = (lo.min(x), hi.max(x));
                }
            });
            (lo, hi)
        })
        .collect();
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
    let mut cells = vec![0u16; rows];
    for axis in &axes {
        each_number(table, axis.col, |pos, x| cells[pos] |= axis.cell_bits(x));
    }
    let mut starts = vec![0u32; 1 << total_bits];
    for &cell in &cells {
        starts[cell as usize] += 1;
    }
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
    use sparkline_common::{Field, Value, CHUNK_ROWS};
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

    /// The file's length and its 64-bit FNV-1a hash.
    fn fingerprint(path: &Path) -> (usize, u64) {
        let bytes = std::fs::read(path).unwrap();
        let hash = (bytes.iter()).fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        (bytes.len(), hash)
    }

    /// Every type and edge value the encoder handles, in chunks left
    /// uneven by a DELETE across a chunk boundary and an INSERT.
    fn golden_table() -> (SchemaRef, MemTable) {
        const BIG: i64 = 1 << 53;
        let schema = Schema::new(vec![
            Field::new("f", DataType::Float64, true),
            Field::new("i", DataType::Int64, true),
            Field::new("s", DataType::Utf8, true),
            Field::new("b", DataType::Boolean, false),
        ])
        .into_ref();
        let floats = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let ints = [BIG + 1, BIG - 1, -BIG - 1, -BIG + 1, i64::MIN, i64::MAX];
        let row = |k: usize| {
            let f = match k % 13 {
                0 => Value::Null,
                m @ 1..=5 => Value::Float64(floats[m - 1]),
                _ => Value::Float64((k * 37 % 1009) as f64 / 8.0 - 60.0),
            };
            let i = match k % 17 {
                0 => Value::Null,
                m @ 1..=6 => Value::Int64(ints[m - 1]),
                _ => Value::Int64((k * 53 % 997) as i64 - 400),
            };
            let s = if k.is_multiple_of(3) {
                Value::Null
            } else {
                Value::str(format!("s{}", k % 29))
            };
            Row::new(vec![f, i, s, Value::Boolean(k % 5 < 2)])
        };
        let mut table = MemTable::from_rows(&schema, (0..2 * CHUNK_ROWS + 300).map(row).collect());
        table.delete(&(CHUNK_ROWS - 40..CHUNK_ROWS + 40).collect::<Vec<_>>());
        table.append((9000..9000 + CHUNK_ROWS).map(row).collect());
        assert!(
            table
                .chunks()
                .iter()
                .filter(|c| c.len() < CHUNK_ROWS)
                .count()
                > 1
        );
        (schema, table)
    }

    #[test]
    fn every_writer_writes_the_golden_bytes() {
        // The lengths and hashes of the files before the writers read
        // column buffers: the encoder's rewrite changed no byte.
        /// A file's length and hash.
        type Print = (usize, u64);
        const GOLDEN: [(usize, Print, Print); 2] = [
            (
                100,
                (157_711, 16_685_183_952_078_626_688),
                (157_711, 17_604_534_990_958_614_843),
            ),
            (
                3000,
                (150_023, 7_403_348_823_915_280_603),
                (150_023, 13_150_038_468_940_083_236),
            ),
        ];
        let (schema, table) = golden_table();
        let rows: Vec<Row> = table.rows().collect();
        for (block_rows, clustered, ordered) in GOLDEN {
            let opts = WriterOptions {
                block_rows,
                sample_cap: 64,
                sample_seed: 3,
            };
            let path = temp_path(&format!("golden-{block_rows}"));
            write_table(&path, Arc::clone(&schema), &rows, opts).unwrap();
            assert_eq!(fingerprint(&path), clustered, "write_table, {block_rows}");
            write_mem_table(&path, Arc::clone(&schema), &table, opts).unwrap();
            assert_eq!(
                fingerprint(&path),
                clustered,
                "write_mem_table, {block_rows}"
            );
            let mut writer = TableWriter::create(&path, Arc::clone(&schema), opts).unwrap();
            writer.write_rows(&rows).unwrap();
            writer.finish().unwrap();
            assert_eq!(fingerprint(&path), ordered, "TableWriter, {block_rows}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_failed_write_leaves_the_old_file_in_place() {
        let (schema, rows) = float_rows(5000);
        let path = temp_path("failed-write");
        write_table(&path, Arc::clone(&schema), &rows, WriterOptions::default()).unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut bad = rows.clone();
        bad[4000] = Row::new(vec![Value::Float64(1.0), Value::Null]);
        let err =
            write_table(&path, Arc::clone(&schema), &bad, WriterOptions::default()).unwrap_err();
        assert!(
            err.to_string().starts_with("execution error: storage: "),
            "{err}"
        );
        let after = std::fs::read(&path).unwrap();
        assert!(
            after == before,
            "{} bytes left of {}",
            after.len(),
            before.len()
        );
        assert_eq!(DiskTable::open(&path).unwrap().total_rows(), 5000);
        let dir = path.parent().unwrap();
        let names: Vec<_> = (std::fs::read_dir(dir).unwrap())
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["t.spk"], "no temporary file is left");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn schema_violations_fail_the_write() {
        // Each entry point: a typed `storage:` error, not a panic.
        let is_storage = |result: Result<DiskTableSummary>| {
            let err = result.unwrap_err();
            assert!(err.to_string().contains("storage: "), "{err}");
        };
        let path = temp_path("badrow");
        let schema = Schema::new(vec![Field::new("a", DataType::Int64, false)]).into_ref();
        let rows = [Row::new(vec![Value::str("nope")])];
        is_storage(write_table(&path, schema, &rows, WriterOptions::default()));
        // `TableWriter`: a row of the wrong width, a NULL in a non-nullable
        // column.
        let (schema, rows) = float_rows(10);
        for bad in [
            Row::new(vec![Value::Float64(1.0)]),
            Row::new(vec![Value::Float64(1.0), Value::Null]),
        ] {
            let opts = WriterOptions::default();
            let mut writer = TableWriter::create(&path, Arc::clone(&schema), opts).unwrap();
            let mut input = rows.clone();
            input.insert(3, bad);
            is_storage(writer.write_rows(&input).and_then(|()| writer.finish()));
        }
        // `write_mem_table` over a table built unchecked: a string in an
        // Int64 column (its chunk column turns into values) and in a
        // Boolean column.
        for (data_type, good) in [
            (DataType::Int64, Value::Int64(1)),
            (DataType::Boolean, Value::Boolean(true)),
        ] {
            let schema = Schema::new(vec![Field::new("c", data_type, true)]).into_ref();
            let input = vec![Row::new(vec![good]), Row::new(vec![Value::str("x")])];
            let table = MemTable::from_rows(&schema, input);
            is_storage(write_mem_table(
                &path,
                schema,
                &table,
                WriterOptions::default(),
            ));
        }
        assert!(!path.exists(), "no failed write publishes a file");
    }
}
