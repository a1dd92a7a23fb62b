//! Opening and scanning table files: the footer-only `open`, per-block
//! random access, the skipping metadata (`BlockMeta`/`ColumnMeta`), and
//! the batch-at-a-time `BlockDecoder`, which decodes a block into column
//! buffers ([`ColumnBatch`]); rows are built from those on request.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sparkline_common::{ColumnBatch, DataType, Result, Row, SchemaRef, Value};

use crate::format::{
    decode_schema, storage_err, BlockLayout, ByteReader, FOOTER_MAGIC, FORMAT_VERSION, MAGIC,
};

/// Skipping metadata of one column within one block.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ColumnMeta {
    /// NULL rows in this block's column.
    pub null_count: u32,
    /// Non-NULL rows without a numeric interpretation (strings, NaN).
    /// Any such row disables min/max pruning and dominance skipping for
    /// this column — the bounds below don't cover it.
    pub non_numeric: u32,
    /// Smallest numeric value (raw space), `None` when no row has one.
    pub min: Option<f64>,
    /// Largest numeric value (raw space).
    pub max: Option<f64>,
}

impl ColumnMeta {
    /// Whether every row of the block is covered by the numeric bounds —
    /// the precondition of the dominance-skipping argument (see the
    /// crate docs): no NULLs (incomparable under the complete relation)
    /// and no non-numeric values.
    pub fn fully_numeric(&self) -> bool {
        self.null_count == 0 && self.non_numeric == 0
    }

    /// Whether `min` and `max` hold the column's true extremes exactly.
    /// The writer stores them as `f64`, which holds every integer only
    /// below 2^53 in magnitude, so an Int64 bound at or beyond that may
    /// have been rounded. Exact bounds compare against any value as its
    /// rounded `f64` does — rounding is monotone and leaves
    /// representable values in place — so skip decisions on them are
    /// the ones the true values give.
    pub fn exact_bounds(&self) -> bool {
        const F64_EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
        [self.min, self.max]
            .into_iter()
            .flatten()
            .all(|v| v.abs() < F64_EXACT_INT_LIMIT)
    }

    /// The column's contribution to the block's **best corner**, typed
    /// as the column's values: `min` for a MIN dimension, `max` for a MAX
    /// dimension (`max = true`). `None` when no row has a numeric value
    /// or the type has no numeric bounds. An Int64 bound is the column's
    /// true extreme only under [`exact_bounds`](Self::exact_bounds).
    pub fn best_corner(&self, max: bool, data_type: DataType) -> Option<Value> {
        let v = if max { self.max } else { self.min }?;
        match data_type {
            DataType::Int64 => Some(Value::Int64(v as i64)),
            DataType::Float64 => Some(Value::Float64(v)),
            DataType::Boolean => Some(Value::Boolean(v != 0.0)),
            DataType::Null | DataType::Utf8 => None,
        }
    }
}

/// Location and skipping metadata of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// Byte offset of the block payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Rows stored in the block.
    pub rows: u32,
    /// Per-column metadata, aligned with the schema.
    pub columns: Vec<ColumnMeta>,
}

/// Whole-table aggregate of the per-block column metadata — exact
/// per-column statistics without sampling the file.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AggregateColumnStats {
    /// NULL rows across all blocks.
    pub nulls: u64,
    /// Non-numeric (non-NULL) rows across all blocks.
    pub non_numeric: u64,
    /// Global numeric minimum (raw space).
    pub min: Option<f64>,
    /// Global numeric maximum (raw space).
    pub max: Option<f64>,
}

/// An opened table file: schema, block directory, footer sample. Opening
/// reads the header and footer only; block payloads are read on demand
/// through [`DiskTable::read_block_raw`]. The handle is immutable and
/// thread-safe — concurrent partition streams each open their own file
/// descriptor per block read.
#[derive(Debug)]
pub struct DiskTable {
    path: PathBuf,
    schema: SchemaRef,
    blocks: Vec<BlockMeta>,
    total_rows: u64,
    block_rows: u32,
    sample: Arc<Vec<Row>>,
    sample_seed: u64,
    file_bytes: u64,
}

impl DiskTable {
    /// Open `path`, reading header, schema, and footer (not the blocks).
    pub fn open(path: impl AsRef<Path>) -> Result<DiskTable> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            File::open(&path).map_err(|e| storage_err(format!("open {}: {e}", path.display())))?;
        let file_bytes = file
            .seek(SeekFrom::End(0))
            .map_err(|e| storage_err(format!("seek {}: {e}", path.display())))?;

        // Header + schema.
        let mut head = vec![
            0u8;
            (file_bytes.min(1 << 20)) as usize // schema is tiny; cap the speculative read
        ];
        file.seek(SeekFrom::Start(0))
            .map_err(|e| storage_err(format!("seek: {e}")))?;
        read_fully(&mut file, &mut head)?;
        let mut r = ByteReader::new(&head);
        if r.bytes(4)? != MAGIC {
            return Err(storage_err(format!(
                "{} is not a sparkline table (bad magic)",
                path.display()
            )));
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(storage_err(format!(
                "unsupported format version {version} (reader supports {FORMAT_VERSION})"
            )));
        }
        let schema = decode_schema(&mut r)?.into_ref();

        // Trailer → footer.
        if file_bytes < 12 {
            return Err(storage_err("file too short for a trailer"));
        }
        let mut trailer = [0u8; 12];
        file.seek(SeekFrom::End(-12))
            .map_err(|e| storage_err(format!("seek trailer: {e}")))?;
        read_fully(&mut file, &mut trailer)?;
        if trailer[8..12] != FOOTER_MAGIC {
            return Err(storage_err("missing footer magic (truncated write?)"));
        }
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        if footer_offset > file_bytes - 12 {
            return Err(storage_err("footer offset out of bounds"));
        }
        let mut footer = vec![0u8; (file_bytes - 12 - footer_offset) as usize];
        file.seek(SeekFrom::Start(footer_offset))
            .map_err(|e| storage_err(format!("seek footer: {e}")))?;
        read_fully(&mut file, &mut footer)?;
        let mut r = ByteReader::new(&footer);
        let total_rows = r.u64()?;
        let block_rows = r.u32()?;
        let nblocks = r.u32()? as usize;
        // Smallest directory entry: offset, bytes, rows, and per column
        // two counts, the bounds flag and two bounds.
        let entry_bytes = 8 + 8 + 4 + schema.len() * (4 + 4 + 1 + 8 + 8);
        let mut blocks = Vec::with_capacity(nblocks.min(r.remaining() / entry_bytes));
        for _ in 0..nblocks {
            let offset = r.u64()?;
            let bytes = r.u64()?;
            let rows = r.u32()?;
            let mut columns = Vec::with_capacity(schema.len());
            for _ in 0..schema.len() {
                let null_count = r.u32()?;
                let non_numeric = r.u32()?;
                let has_bounds = r.u8()? != 0;
                let min = r.f64()?;
                let max = r.f64()?;
                columns.push(ColumnMeta {
                    null_count,
                    non_numeric,
                    min: has_bounds.then_some(min),
                    max: has_bounds.then_some(max),
                });
            }
            if offset
                .checked_add(bytes)
                .is_none_or(|end| end > footer_offset)
            {
                return Err(storage_err("block extends past the footer"));
            }
            blocks.push(BlockMeta {
                offset,
                bytes,
                rows,
                columns,
            });
        }
        let block_total: u64 = blocks.iter().map(|b| u64::from(b.rows)).sum();
        if block_total != total_rows {
            return Err(storage_err(format!(
                "footer claims {total_rows} rows, its blocks hold {block_total}"
            )));
        }
        let sample_seed = r.u64()?;
        let sample_bytes = r.u64()? as usize;
        let sample_payload = r.bytes(sample_bytes)?;
        let sample = BlockLayout::parse(sample_payload, &schema)?;
        let sample = sample
            .decode_columns(sample_payload, &schema, 0, sample.rows())?
            .into_rows();
        Ok(DiskTable {
            path,
            schema,
            blocks,
            total_rows,
            block_rows,
            sample: Arc::new(sample),
            sample_seed,
            file_bytes,
        })
    }

    /// The table schema.
    pub fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total rows across all blocks.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Configured rows per block (the last block may be shorter).
    pub fn block_rows(&self) -> u32 {
        self.block_rows
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Metadata of block `i`.
    pub fn block_meta(&self, i: usize) -> &BlockMeta {
        &self.blocks[i]
    }

    /// All block metadata, in file order.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// The footer's seeded reservoir sample — a uniform draw over the
    /// whole table, available without any block I/O.
    pub fn sample(&self) -> &Arc<Vec<Row>> {
        &self.sample
    }

    /// Seed the footer sample was drawn with.
    pub fn sample_seed(&self) -> u64 {
        self.sample_seed
    }

    /// Exact whole-table per-column statistics from the block directory.
    pub fn column_stats(&self) -> Vec<AggregateColumnStats> {
        let mut out = vec![AggregateColumnStats::default(); self.schema.len()];
        for block in &self.blocks {
            for (agg, col) in out.iter_mut().zip(&block.columns) {
                agg.nulls += u64::from(col.null_count);
                agg.non_numeric += u64::from(col.non_numeric);
                agg.min = match (agg.min, col.min) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                agg.max = match (agg.max, col.max) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        out
    }

    /// Read block `i`'s raw (still encoded) payload from disk.
    pub fn read_block_raw(&self, i: usize) -> Result<Vec<u8>> {
        let meta = self
            .blocks
            .get(i)
            .ok_or_else(|| storage_err(format!("block {i} out of range")))?;
        let mut file = File::open(&self.path)
            .map_err(|e| storage_err(format!("open {}: {e}", self.path.display())))?;
        file.seek(SeekFrom::Start(meta.offset))
            .map_err(|e| storage_err(format!("seek block {i}: {e}")))?;
        let mut buf = vec![0u8; meta.bytes as usize];
        read_fully(&mut file, &mut buf)?;
        Ok(buf)
    }

    /// Read block `i` and parse it against `schema`, checking that the
    /// payload holds exactly the rows its footer entry claims: a mismatch
    /// is a corrupt file, and a typed `storage:` error.
    pub fn block_decoder(&self, i: usize, schema: SchemaRef) -> Result<BlockDecoder> {
        let decoder = BlockDecoder::new(self.read_block_raw(i)?, schema)?;
        let claimed = self.blocks[i].rows;
        if decoder.rows() != claimed as usize {
            return Err(storage_err(format!(
                "block {i} holds {} rows, its footer entry claims {claimed}",
                decoder.rows()
            )));
        }
        Ok(decoder)
    }

    /// Convenience: read and fully decode block `i` into rows.
    pub fn decode_block(&self, i: usize) -> Result<Vec<Row>> {
        let decoder = self.block_decoder(i, self.schema())?;
        Ok(decoder.decode_columns(0, decoder.rows())?.into_rows())
    }

    /// Convenience: read and decode every block into rows, in file order.
    pub fn decode_all(&self) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        for i in 0..self.num_blocks() {
            rows.extend(self.decode_block(i)?);
        }
        Ok(rows)
    }
}

/// Owning decoder over one block's raw payload: parse once, then decode
/// row ranges batch-by-batch into column buffers. The encoded buffer is
/// the only resident copy of the whole block while a scan drains it;
/// beside it lives one decoded [`ColumnBatch`] (about the encoded size of
/// its rows: the buffers are the payload's words, decoded), and `Row`s
/// only for the rows a consumer builds.
pub struct BlockDecoder {
    raw: Vec<u8>,
    schema: SchemaRef,
    layout: BlockLayout,
}

impl BlockDecoder {
    /// Parse `raw` against `schema` (validates the layout eagerly and
    /// keeps it, so batches decode without re-parsing).
    pub fn new(raw: Vec<u8>, schema: SchemaRef) -> Result<Self> {
        let layout = BlockLayout::parse(&raw, &schema)?;
        Ok(BlockDecoder {
            raw,
            schema,
            layout,
        })
    }

    /// Rows in the block.
    pub fn rows(&self) -> usize {
        self.layout.rows()
    }

    /// Size of the resident encoded buffer.
    pub fn raw_bytes(&self) -> usize {
        self.raw.len()
    }

    /// Decode rows `start..end` into column buffers, every row selected.
    pub fn decode_columns(&self, start: usize, end: usize) -> Result<ColumnBatch> {
        self.layout
            .decode_columns(&self.raw, &self.schema, start, end)
    }
}

fn read_fully(file: &mut File, buf: &mut [u8]) -> Result<()> {
    file.read_exact(buf)
        .map_err(|e| storage_err(format!("read: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{TableWriter, WriterOptions};
    use sparkline_common::{DataType, Field, Schema, Value};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sparkline-storage-reader-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.spk")
    }

    fn table_with_nulls(path: &Path) -> DiskTable {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Float64, true),
            Field::new("s", DataType::Utf8, true),
        ])
        .into_ref();
        let rows: Vec<Row> = (0..600)
            .map(|i| {
                Row::new(vec![
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64)
                    },
                    Value::str(format!("row{i}")),
                ])
            })
            .collect();
        // Input order: every block holds NULLs.
        let mut writer = TableWriter::create(
            path,
            Arc::clone(&schema),
            WriterOptions {
                block_rows: 250,
                ..WriterOptions::default()
            },
        )
        .unwrap();
        writer.write_rows(&rows).unwrap();
        writer.finish().unwrap();
        DiskTable::open(path).unwrap()
    }

    #[test]
    fn open_reads_directory_and_aggregates() {
        let path = temp_path("dir");
        let table = table_with_nulls(&path);
        assert_eq!(table.num_blocks(), 3);
        assert_eq!(table.total_rows(), 600);
        assert_eq!(table.block_rows(), 250);
        let stats = table.column_stats();
        assert_eq!(stats[0].nulls, 120, "every fifth row");
        assert_eq!(stats[0].min, Some(1.0));
        assert_eq!(stats[0].max, Some(599.0));
        assert_eq!(stats[1].non_numeric, 600, "strings are non-numeric");
        assert!(!table.block_meta(0).columns[0].fully_numeric());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corner_folding_matches_min_max() {
        let meta = ColumnMeta {
            null_count: 0,
            non_numeric: 0,
            min: Some(-2.0),
            max: Some(7.0),
        };
        let float = |max| meta.best_corner(max, DataType::Float64);
        assert_eq!(float(false), Some(Value::Float64(-2.0)), "MIN dim: min");
        assert_eq!(float(true), Some(Value::Float64(7.0)), "MAX dim: max");
        let int = |max| meta.best_corner(max, DataType::Int64);
        assert_eq!(int(false), Some(Value::Int64(-2)), "typed as the column");
        assert_eq!(int(true), Some(Value::Int64(7)));
        assert_eq!(
            meta.best_corner(true, DataType::Boolean),
            Some(Value::Boolean(true))
        );
        assert_eq!(meta.best_corner(false, DataType::Utf8), None);
        assert!(meta.fully_numeric());
    }

    #[test]
    fn batch_decoding_equals_full_decode() {
        let path = temp_path("batches");
        let table = table_with_nulls(&path);
        let full = table.decode_block(1).unwrap();
        let decoder = BlockDecoder::new(table.read_block_raw(1).unwrap(), table.schema()).unwrap();
        assert_eq!(decoder.rows(), 250);
        assert!(decoder.raw_bytes() > 0);
        // Batches of 64, and of one row: each batch decodes from the
        // layout `new` parsed, Utf8 offsets included.
        for batch in [64, 1] {
            let mut batched = Vec::new();
            let mut pos = 0;
            while pos < decoder.rows() {
                let end = (pos + batch).min(decoder.rows());
                batched.extend(decoder.decode_columns(pos, end).unwrap().into_rows());
                pos = end;
            }
            assert_eq!(batched, full, "batches of {batch}");
        }
        assert_eq!(
            decoder.decode_columns(249, 250).unwrap().value(1, 0),
            Value::str("row499")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_files_error_cleanly() {
        let path = temp_path("corrupt");
        table_with_nulls(&path);
        let bytes = std::fs::read(&path).unwrap();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(DiskTable::open(&path).is_err());
        // Truncated trailer.
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        assert!(DiskTable::open(&path).is_err());
        // Unsupported version.
        let mut versioned = bytes.clone();
        versioned[4] = 99;
        std::fs::write(&path, &versioned).unwrap();
        let err = DiskTable::open(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// Write a valid table, overwrite `bytes.len()` bytes at `at` (an
    /// offset from the footer when `from_footer`), and open the result.
    fn open_patched(name: &str, from_footer: bool, at: usize, bytes: &[u8]) -> Result<DiskTable> {
        let path = temp_path(name);
        table_with_nulls(&path);
        let mut file = std::fs::read(&path).unwrap();
        let trailer = file.len() - 12;
        let footer = u64::from_le_bytes(file[trailer..trailer + 8].try_into().unwrap()) as usize;
        let at = if from_footer { footer + at } else { at };
        file[at..at + bytes.len()].copy_from_slice(bytes);
        std::fs::write(&path, &file).unwrap();
        let opened = DiskTable::open(&path);
        std::fs::remove_file(&path).ok();
        opened
    }

    #[test]
    fn a_corrupt_column_count_is_an_error_not_an_abort() {
        // The schema's column count follows magic and version.
        let err = open_patched("ncols", false, 8, &u32::MAX.to_le_bytes()).unwrap_err();
        assert!(err.to_string().contains("storage"), "{err}");
    }

    #[test]
    fn a_corrupt_block_count_is_an_error_not_an_abort() {
        // The footer opens with total_rows u64 and block_rows u32.
        let err = open_patched("nblocks", true, 12, &u32::MAX.to_le_bytes()).unwrap_err();
        assert!(err.to_string().contains("storage"), "{err}");
    }

    #[test]
    fn a_total_row_count_the_blocks_do_not_hold_is_rejected() {
        let err = open_patched("total", true, 0, &u64::MAX.to_le_bytes()).unwrap_err();
        assert!(err.to_string().contains("its blocks hold 600"), "{err}");
    }
}
