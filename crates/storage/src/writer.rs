//! The COPY-style table writer: one forward pass over the rows, blocks
//! flushed at a fixed row granularity, skipping metadata and a seeded
//! reservoir sample accumulated on the way, footer written last.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use sparkline_common::stats::Reservoir;
use sparkline_common::{Result, Row, SchemaRef};

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

/// Streaming writer for one table file. Rows are validated against the
/// schema as they arrive; blocks are encoded and flushed every
/// [`WriterOptions::block_rows`] rows, so peak writer memory is one
/// block regardless of table size.
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
            buffer: Vec::with_capacity(opts.block_rows),
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
        self.total_rows += 1;
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
        let (payload, columns) = encode_block(&self.schema, &self.buffer)?;
        self.out
            .write_all(&payload)
            .map_err(|e| storage_err(format!("write block: {e}")))?;
        self.blocks.push(BlockMeta {
            offset: self.offset,
            bytes: payload.len() as u64,
            rows: self.buffer.len() as u32,
            columns,
        });
        self.offset += payload.len() as u64;
        self.buffer.clear();
        Ok(())
    }

    /// Flush the tail block, write the footer + trailer, and sync.
    pub fn finish(mut self) -> Result<DiskTableSummary> {
        self.flush_block()?;
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
        let sample = std::mem::replace(&mut self.reservoir, Reservoir::new(0, 0)).into_rows();
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

/// One-shot COPY: write `rows` to `path` under `opts`.
pub fn write_table(
    path: impl AsRef<Path>,
    schema: SchemaRef,
    rows: &[Row],
    opts: WriterOptions,
) -> Result<DiskTableSummary> {
    let mut writer = TableWriter::create(path, schema, opts)?;
    writer.write_rows(rows)?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::DiskTable;
    use sparkline_common::{DataType, Field, Schema, Value};
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

    #[test]
    fn write_read_roundtrip_across_blocks() {
        let (schema, rows) = float_rows(700);
        let path = temp_path("roundtrip");
        let opts = WriterOptions {
            block_rows: 256,
            ..WriterOptions::default()
        };
        let summary = write_table(&path, Arc::clone(&schema), &rows, opts).unwrap();
        assert_eq!(summary.rows, 700);
        assert_eq!(summary.blocks, 3, "256+256+188");
        let table = DiskTable::open(&path).unwrap();
        assert_eq!(table.total_rows(), 700);
        assert_eq!(table.num_blocks(), 3);
        let mut back = Vec::new();
        for i in 0..table.num_blocks() {
            back.extend(table.decode_block(i).unwrap());
        }
        assert_eq!(back, rows, "byte-identical round trip");
        // Block metadata matches the data.
        let b0 = table.block_meta(0);
        assert_eq!(b0.rows, 256);
        assert_eq!(b0.columns[0].min, Some(0.0));
        assert_eq!(b0.columns[0].max, Some(255.0));
        assert_eq!(b0.columns[0].null_count, 0);
        std::fs::remove_file(&path).ok();
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
