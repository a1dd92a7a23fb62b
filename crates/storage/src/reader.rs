//! Opening and scanning table files: the footer-only `open`, the checked
//! per-scan file handle (`TableFile`), per-block random access, the
//! skipping metadata (`BlockMeta`/`ColumnMeta`), and the batch-at-a-time
//! `BlockDecoder`, which decodes a block into column buffers
//! ([`ColumnBatch`]); rows are built from those on request.

use std::any::Any;
use std::fmt;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

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

/// How many values [`DiskTable::memoized`] keeps per table.
const MEMO_ENTRIES: usize = 8;

/// A memo entry: a key and the value built for it, both type-erased.
type MemoEntry = (Box<dyn Any + Send + Sync>, Box<dyn Any + Send + Sync>);

/// The values [`DiskTable::memoized`] keeps, least recently used first.
#[derive(Default)]
struct Memo(Mutex<Vec<MemoEntry>>);

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.0.lock().map_or(0, |memo| memo.len());
        write!(f, "Memo({entries} entries)")
    }
}

/// An opened table file: schema, block directory, footer sample. Opening
/// reads the header and footer only; block payloads are read on demand.
/// The handle is immutable and thread-safe. A scan reads its blocks
/// through one [`TableFile`] ([`DiskTable::open_file`]), which checks
/// that the file at the path is still the one whose footer was read here.
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
    /// The footer and trailer bytes, as `open` read them.
    tail: Box<[u8]>,
    memo: Memo,
}

/// A table's backing file, opened once for a scan and checked against the
/// footer its [`DiskTable`] was opened with; every block the scan reads
/// comes through this one handle, with positional reads, so concurrent
/// streams share it.
#[derive(Debug)]
pub struct TableFile(File);

impl DiskTable {
    /// Open `path`, reading header, schema, and footer (not the blocks).
    pub fn open(path: impl AsRef<Path>) -> Result<DiskTable> {
        let path = path.as_ref().to_path_buf();
        let (file, file_bytes) = open_at(&path)?;

        // Header + schema.
        let mut head = vec![
            0u8;
            (file_bytes.min(1 << 20)) as usize // schema is tiny; cap the speculative read
        ];
        read_at(&file, &mut head, 0)?;
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
        read_at(&file, &mut trailer, file_bytes - 12)?;
        if trailer[8..12] != FOOTER_MAGIC {
            return Err(storage_err("missing footer magic (truncated write?)"));
        }
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        if footer_offset > file_bytes - 12 {
            return Err(storage_err("footer offset out of bounds"));
        }
        let mut tail = vec![0u8; (file_bytes - footer_offset) as usize];
        read_at(&file, &mut tail, footer_offset)?;
        let footer = &tail[..tail.len() - 12];
        let mut r = ByteReader::new(footer);
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
            tail: tail.into(),
            memo: Memo::default(),
        })
    }

    /// The value `build` makes for `key`, built once per key while it
    /// stays among the table's last few keys. The handle never changes, so
    /// a value that depends only on the table and on everything `key`
    /// holds is the same at every call; the planner keeps the dominance
    /// gate here. `build` runs outside the table's lock, and when two
    /// callers race, the first value stored is the one both get.
    pub fn memoized<K, V>(&self, key: K, build: impl FnOnce() -> V) -> V
    where
        K: PartialEq + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        let lookup = |memo: &mut Vec<MemoEntry>, key: &K| {
            let at = (memo.iter()).position(|(k, _)| k.downcast_ref::<K>() == Some(key))?;
            let entry = memo.remove(at);
            let value = entry.1.downcast_ref::<V>().cloned();
            memo.push(entry);
            value
        };
        let lock = || self.memo.0.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(value) = lookup(&mut lock(), &key) {
            return value;
        }
        let value = build();
        let mut memo = lock();
        if let Some(stored) = lookup(&mut memo, &key) {
            return stored;
        }
        if memo.len() == MEMO_ENTRIES {
            memo.remove(0);
        }
        memo.push((Box::new(key), Box::new(value.clone())));
        value
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

    /// Open the backing file for a scan, checking that it is the file this
    /// table was opened from: the same length, footer and trailer bytes.
    /// A file removed, truncated or replaced under the path since fails
    /// with a typed `storage:` error, so no block is read with another
    /// file's footer: its bounds, its sample or its gate.
    pub fn open_file(&self) -> Result<TableFile> {
        let (file, len) = open_at(&self.path)?;
        let mut tail = vec![0u8; self.tail.len()];
        if len == self.file_bytes {
            read_at(&file, &mut tail, len - self.tail.len() as u64)?;
        }
        if len != self.file_bytes || tail != *self.tail {
            let path = self.path.display();
            return Err(storage_err(format!(
                "{path} changed since it was registered"
            )));
        }
        Ok(TableFile(file))
    }

    /// Read block `i`'s raw (still encoded) payload from `file`.
    fn read_block(&self, file: &File, i: usize) -> Result<Vec<u8>> {
        let meta = self
            .blocks
            .get(i)
            .ok_or_else(|| storage_err(format!("block {i} out of range")))?;
        let mut buf = vec![0u8; meta.bytes as usize];
        read_at(file, &mut buf, meta.offset)?;
        Ok(buf)
    }

    /// Read block `i`'s raw (still encoded) payload through a fresh handle
    /// on the path. It does not check the file against the footer, as
    /// [`open_file`](Self::open_file) does for a scan.
    pub fn read_block_raw(&self, i: usize) -> Result<Vec<u8>> {
        self.read_block(&open_at(&self.path)?.0, i)
    }

    /// Read block `i` from `file` and parse it against `schema`, checking
    /// that the payload holds exactly the rows its footer entry claims: a
    /// mismatch is a corrupt file, and a typed `storage:` error.
    pub fn block_decoder(
        &self,
        file: &TableFile,
        i: usize,
        schema: SchemaRef,
    ) -> Result<BlockDecoder> {
        self.decoder(self.read_block(&file.0, i)?, i, schema)
    }

    fn decoder(&self, raw: Vec<u8>, i: usize, schema: SchemaRef) -> Result<BlockDecoder> {
        let decoder = BlockDecoder::new(raw, schema)?;
        let claimed = self.blocks[i].rows;
        if decoder.rows() != claimed as usize {
            return Err(storage_err(format!(
                "block {i} holds {} rows, its footer entry claims {claimed}",
                decoder.rows()
            )));
        }
        Ok(decoder)
    }

    /// Convenience: read block `i` as [`read_block_raw`](Self::read_block_raw)
    /// does and fully decode it into rows.
    pub fn decode_block(&self, i: usize) -> Result<Vec<Row>> {
        let decoder = self.decoder(self.read_block_raw(i)?, i, self.schema())?;
        Ok(decoder.decode_columns(0, decoder.rows())?.into_rows())
    }

    /// Convenience: read every block through one checked
    /// [`open_file`](Self::open_file) and decode it into rows, in file
    /// order.
    pub fn decode_all(&self) -> Result<Vec<Row>> {
        let file = self.open_file()?;
        let mut rows = Vec::new();
        for i in 0..self.num_blocks() {
            let decoder = self.block_decoder(&file, i, self.schema())?;
            rows.extend(decoder.decode_columns(0, decoder.rows())?.into_rows());
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

/// Open `path` for reading, with its length.
fn open_at(path: &Path) -> Result<(File, u64)> {
    let file =
        File::open(path).map_err(|e| storage_err(format!("open {}: {e}", path.display())))?;
    let meta =
        (file.metadata()).map_err(|e| storage_err(format!("stat {}: {e}", path.display())))?;
    Ok((file, meta.len()))
}

/// Fill `buf` from `file` at `offset`; a short file is a `storage:` error.
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> Result<()> {
    file.read_exact_at(buf, offset)
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
        let columns = |c: usize| table.blocks().iter().map(move |b| b.columns[c]);
        let nulls: u32 = columns(0).map(|m| m.null_count).sum();
        assert_eq!(nulls, 120, "every fifth row");
        let min = columns(0).filter_map(|m| m.min).reduce(f64::min);
        let max = columns(0).filter_map(|m| m.max).reduce(f64::max);
        assert_eq!((min, max), (Some(1.0), Some(599.0)));
        let strings: u32 = columns(1).map(|m| m.non_numeric).sum();
        assert_eq!(strings, 600, "strings are non-numeric");
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
    fn memoized_values_are_built_once_per_key_and_bounded() {
        let path = temp_path("memo");
        let table = table_with_nulls(&path);
        let builds = std::cell::Cell::new(0);
        let value = |key: u32| {
            table.memoized(key, || {
                builds.set(builds.get() + 1);
                Arc::new(key * 10)
            })
        };
        let first = value(1);
        assert!(Arc::ptr_eq(&first, &value(1)), "a hit shares the value");
        assert_eq!(builds.get(), 1);
        assert_eq!(*value(2), 20);
        assert_eq!(builds.get(), 2);
        // Keys beyond the bound push out the least recently used.
        for key in 3..3 + MEMO_ENTRIES as u32 {
            value(key);
        }
        let before = builds.get();
        assert!(!Arc::ptr_eq(&first, &value(1)), "key 1 was evicted");
        assert_eq!(builds.get(), before + 1);
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
