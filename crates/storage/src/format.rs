//! Byte-level encode/decode of the block format: little-endian
//! primitives, the sign-normalized `Float64` map, schema serialization,
//! and the self-contained block payload codec (see the crate docs for
//! the full file layout).

use sparkline_common::stats::numeric_value;
use sparkline_common::{
    BatchColumn, ColumnBatch, ColumnValues, DataType, Error, Field, Result, Row, Schema, Value,
};

use crate::reader::ColumnMeta;

/// File magic, first four bytes of every table file.
pub const MAGIC: [u8; 4] = *b"SPKB";
/// Trailer magic, last four bytes of every table file.
pub const FOOTER_MAGIC: [u8; 4] = *b"SPKF";
/// Format version the writer emits and the reader accepts.
pub const FORMAT_VERSION: u32 = 1;

/// Storage error shorthand: everything surfaces as a typed execution
/// error (the engine error enum is deliberately closed).
pub(crate) fn storage_err(msg: impl std::fmt::Display) -> Error {
    Error::execution(format!("storage: {msg}"))
}

/// Order-preserving bijection from `f64` bits to `u64` integer order —
/// the same sign-normalization trick the columnar kernel's encode path
/// uses: flip all bits of negatives, set the sign bit of positives.
/// Integer comparison of normalized values agrees with IEEE-754 total
/// order, and the map is invertible, so stored floats round-trip
/// bit-exactly (NaN payloads included).
pub fn sign_normalize_f64(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 0x8000_0000_0000_0000
    }
}

/// Inverse of [`sign_normalize_f64`].
pub fn sign_restore_f64(n: u64) -> f64 {
    let bits = if n >> 63 == 1 {
        n & 0x7FFF_FFFF_FFFF_FFFF
    } else {
        !n
    };
    f64::from_bits(bits)
}

/// Append little-endian primitives to a byte buffer.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read. A count read from the file reserves at most
    /// this many entries of the smallest encoding, so a corrupt count
    /// fails as a truncated read instead of a huge allocation.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| storage_err("truncated file (byte range out of bounds)"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Stable on-disk code of a [`DataType`].
fn dtype_code(t: DataType) -> u8 {
    match t {
        DataType::Null => 0,
        DataType::Boolean => 1,
        DataType::Int64 => 2,
        DataType::Float64 => 3,
        DataType::Utf8 => 4,
    }
}

fn dtype_from_code(c: u8) -> Result<DataType> {
    Ok(match c {
        0 => DataType::Null,
        1 => DataType::Boolean,
        2 => DataType::Int64,
        3 => DataType::Float64,
        4 => DataType::Utf8,
        other => return Err(storage_err(format!("unknown data type code {other}"))),
    })
}

/// Serialize a schema (unqualified field names, type codes, null flags).
pub(crate) fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, schema.len() as u32);
    for field in schema.fields() {
        let name = field.name().as_bytes();
        put_u32(&mut out, name.len() as u32);
        out.extend_from_slice(name);
        out.push(dtype_code(field.data_type()));
        out.push(u8::from(field.nullable()));
    }
    out
}

/// Parse a serialized schema.
pub(crate) fn decode_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    // Smallest field: name length, empty name, type and null flag.
    const MIN_FIELD_BYTES: usize = 4 + 1 + 1;
    let ncols = r.u32()? as usize;
    let mut fields = Vec::with_capacity(ncols.min(r.remaining() / MIN_FIELD_BYTES));
    for _ in 0..ncols {
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|_| storage_err("schema field name is not UTF-8"))?
            .to_string();
        let dtype = dtype_from_code(r.u8()?)?;
        let nullable = r.u8()? != 0;
        fields.push(Field::new(name, dtype, nullable));
    }
    Ok(Schema::new(fields))
}

/// Check one value against its column's declared type; a value column is
/// checked value by value as it is encoded, so decode can trust the
/// payload classes unconditionally.
fn check_value(field: &Field, v: &Value) -> Result<()> {
    let ok = match v {
        Value::Null => field.nullable() || field.data_type() == DataType::Null,
        Value::Boolean(_) => field.data_type() == DataType::Boolean,
        Value::Int64(_) => field.data_type() == DataType::Int64,
        Value::Float64(_) => field.data_type() == DataType::Float64,
        Value::Utf8(_) => field.data_type() == DataType::Utf8,
    };
    if ok {
        Ok(())
    } else {
        Err(storage_err(format!(
            "value {v} does not fit column '{}' ({}{})",
            field.name(),
            field.data_type(),
            if field.nullable() { ", nullable" } else { "" },
        )))
    }
}

/// Check a row entering a writer against `schema`: its width, and each
/// value's type and nullability.
pub(crate) fn check_row(schema: &Schema, row: &Row) -> Result<()> {
    if row.width() != schema.len() {
        return Err(storage_err(format!(
            "row width {} does not match schema width {}",
            row.width(),
            schema.len()
        )));
    }
    (schema.fields().iter().zip(row.values())).try_for_each(|(field, v)| check_value(field, v))
}

/// Encode the selected rows of `batch`, whose columns follow `schema`, as
/// one self-contained block payload, and compute the per-column skipping
/// metadata in the same pass. It reads what
/// [`BlockLayout::decode_columns`] writes: a `Float64` or `Int64` field
/// from its typed buffer, any other field from its values, each value
/// checked against the field. A numeric field held as values (a chunk
/// column a value of another type turned into values), a value that does
/// not fit its field and a NULL in a non-nullable field are `storage:`
/// errors.
pub(crate) fn encode_block(
    schema: &Schema,
    batch: &ColumnBatch,
) -> Result<(Vec<u8>, Vec<ColumnMeta>)> {
    if batch.columns().len() != schema.len() {
        return Err(storage_err(format!(
            "batch width {} does not match schema width {}",
            batch.columns().len(),
            schema.len()
        )));
    }
    let rows = batch.selection();
    let mut out = Vec::new();
    put_u32(&mut out, rows.len() as u32);
    let mut metas = Vec::with_capacity(schema.len());
    for (field, column) in schema.fields().iter().zip(batch.columns()) {
        // NULL bitmap (bit set = NULL), the buffer after it (a NULL row
        // holds zero) and a Utf8 column's bytes after that.
        let mut bitmap = vec![0u8; rows.len().div_ceil(8)];
        let (mut data, mut strings) = (Vec::with_capacity(rows.len() * 8), Vec::new());
        let mut meta = ColumnMeta::default();
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (k, &i) in rows.iter().enumerate() {
            // `None` for NULL, else the row's numeric view (`None` for a
            // string or NaN).
            let number = match (field.data_type(), &column.values) {
                (DataType::Float64, ColumnValues::Float64(v)) => {
                    let x = (!column.is_null(i)).then(|| v[i]);
                    put_u64(&mut data, sign_normalize_f64(x.unwrap_or(0.0)));
                    x.map(|x| Some(x).filter(|x| !x.is_nan()))
                }
                (DataType::Int64, ColumnValues::Int64(v)) => {
                    let x = (!column.is_null(i)).then(|| v[i]);
                    put_u64(&mut data, x.unwrap_or(0) as u64);
                    x.map(|x| Some(x as f64))
                }
                (DataType::Boolean | DataType::Utf8 | DataType::Null, ColumnValues::Values(v)) => {
                    let value = &v[i];
                    check_value(field, value)?;
                    match (value, field.data_type()) {
                        (Value::Boolean(b), _) => data.push(u8::from(*b)),
                        (Value::Utf8(s), _) => {
                            put_u32(&mut data, s.len() as u32);
                            strings.extend_from_slice(s.as_bytes());
                        }
                        (_, DataType::Boolean) => data.push(0),
                        (_, DataType::Utf8) => put_u32(&mut data, 0),
                        _ => {}
                    }
                    (!value.is_null()).then(|| numeric_value(value))
                }
                (data_type, _) => {
                    let name = field.name();
                    return Err(storage_err(format!(
                        "column '{name}' holds a value that is not {data_type}"
                    )));
                }
            };
            match number {
                None => {
                    check_value(field, &Value::Null)?;
                    bitmap[k / 8] |= 1 << (k % 8);
                    meta.null_count += 1;
                }
                Some(Some(x)) => {
                    min = min.min(x);
                    max = max.max(x);
                }
                Some(None) => meta.non_numeric += 1,
            }
        }
        if min <= max {
            meta.min = Some(min);
            meta.max = Some(max);
        }
        out.extend_from_slice(&bitmap);
        out.extend_from_slice(&data);
        out.extend_from_slice(&strings);
        metas.push(meta);
    }
    Ok((out, metas))
}

/// Where one column's buffer sits in a parsed block payload: byte
/// offsets into the raw buffer plus, for strings, precomputed row
/// offsets into the column's data.
enum ColumnLayout {
    Empty,
    Bool(usize),
    Fixed64(usize),
    Utf8 { data: usize, offsets: Vec<u32> },
}

/// The parsed layout of one block payload: every column's position in
/// the raw bytes, computed once, so a scan can materialize one batch at a
/// time while the (much smaller) encoded buffer is the only resident copy
/// of the block. It holds offsets, not slices, so its owner can keep it
/// beside the buffer it describes.
pub(crate) struct BlockLayout {
    rows: usize,
    bitmaps: Vec<usize>,
    columns: Vec<ColumnLayout>,
}

impl BlockLayout {
    /// Parse the column layout of `raw` against `schema`. Cost is O(ncols
    /// + string rows); no row values are materialized.
    pub(crate) fn parse(raw: &[u8], schema: &Schema) -> Result<Self> {
        let mut r = ByteReader::new(raw);
        let rows = r.u32()? as usize;
        let mut bitmaps = Vec::with_capacity(schema.len());
        let mut columns = Vec::with_capacity(schema.len());
        for field in schema.fields() {
            bitmaps.push(r.position());
            r.bytes(rows.div_ceil(8))?;
            let at = r.position();
            columns.push(match field.data_type() {
                DataType::Null => ColumnLayout::Empty,
                DataType::Boolean => {
                    r.bytes(rows)?;
                    ColumnLayout::Bool(at)
                }
                DataType::Int64 | DataType::Float64 => {
                    r.bytes(rows * 8)?;
                    ColumnLayout::Fixed64(at)
                }
                DataType::Utf8 => {
                    let lens = r.bytes(rows * 4)?;
                    let mut offsets = Vec::with_capacity(rows + 1);
                    let mut total = 0u32;
                    offsets.push(0);
                    for len in lens.chunks_exact(4) {
                        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]);
                        total = total
                            .checked_add(len)
                            .ok_or_else(|| storage_err("string column overflows u32"))?;
                        offsets.push(total);
                    }
                    let data = r.position();
                    r.bytes(total as usize)?;
                    ColumnLayout::Utf8 { data, offsets }
                }
            });
        }
        if r.position() != raw.len() {
            return Err(storage_err("trailing bytes after block payload"));
        }
        Ok(BlockLayout {
            rows,
            bitmaps,
            columns,
        })
    }

    /// Rows stored in the block.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Decode rows `start..end` of `raw`, the payload this layout was
    /// parsed from, under the same `schema`, into column buffers: `Float64`
    /// and `Int64` columns as `f64`/`i64` vectors, the others as values,
    /// with the NULL bitmap unpacked into flags (none for a NULL-free
    /// range). No [`Row`](sparkline_common::Row) is built.
    pub(crate) fn decode_columns(
        &self,
        raw: &[u8],
        schema: &Schema,
        start: usize,
        end: usize,
    ) -> Result<ColumnBatch> {
        if start > end || end > self.rows {
            return Err(storage_err(format!(
                "row range {start}..{end} out of bounds for {}-row block",
                self.rows
            )));
        }
        let words = |at: usize| {
            raw[at + start * 8..at + end * 8]
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
        };
        let mut columns = Vec::with_capacity(schema.len());
        for (c, field) in schema.fields().iter().enumerate() {
            let bitmap = &raw[self.bitmaps[c]..];
            let is_null = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
            let nulls = (start..end)
                .any(is_null)
                .then(|| (start..end).map(is_null).collect::<Vec<bool>>());
            let values = match (&self.columns[c], field.data_type()) {
                (ColumnLayout::Fixed64(at), DataType::Int64) => {
                    ColumnValues::Int64(words(*at).map(|w| w as i64).collect())
                }
                (ColumnLayout::Fixed64(at), _) => {
                    ColumnValues::Float64(words(*at).map(sign_restore_f64).collect())
                }
                (layout, _) => {
                    let mut values = Vec::with_capacity(end - start);
                    for i in start..end {
                        values.push(match layout {
                            _ if is_null(i) => Value::Null,
                            ColumnLayout::Bool(at) => Value::Boolean(raw[at + i] != 0),
                            ColumnLayout::Utf8 { data, offsets } => {
                                let s = &raw
                                    [data + offsets[i] as usize..data + offsets[i + 1] as usize];
                                Value::str(
                                    std::str::from_utf8(s)
                                        .map_err(|_| storage_err("string value is not UTF-8"))?,
                                )
                            }
                            ColumnLayout::Empty => {
                                return Err(storage_err(format!(
                                    "non-NULL row {i} in NULL-typed column '{}'",
                                    field.name()
                                )))
                            }
                            ColumnLayout::Fixed64(_) => {
                                unreachable!("fixed-width columns decode into buffers above")
                            }
                        });
                    }
                    ColumnValues::Values(values)
                }
            };
            columns.push(BatchColumn { values, nulls });
        }
        Ok(ColumnBatch::new(columns, end - start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::MemTable;

    /// `rows` as one column batch of `schema`'s column types.
    fn batch(schema: &Schema, rows: Vec<Row>) -> ColumnBatch {
        let table = MemTable::from_rows(schema, rows);
        table.batch(0, table.len())
    }

    #[test]
    fn sign_normalization_preserves_order_and_bits() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.25,
            1e300,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(
                sign_normalize_f64(w[0]) < sign_normalize_f64(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        for v in values {
            assert_eq!(
                sign_restore_f64(sign_normalize_f64(v)).to_bits(),
                v.to_bits()
            );
        }
        // NaN payloads round-trip bit-exactly too.
        let nan_bits = 0x7FF8_0000_0000_1234u64;
        let nan = f64::from_bits(nan_bits);
        assert_eq!(
            sign_restore_f64(sign_normalize_f64(nan)).to_bits(),
            nan_bits
        );
    }

    #[test]
    fn block_roundtrip_all_types() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64, true),
            Field::new("f", DataType::Float64, true),
            Field::new("b", DataType::Boolean, true),
            Field::new("s", DataType::Utf8, true),
        ]);
        let rows: Vec<Row> = vec![
            Row::new(vec![
                Value::Int64(-5),
                Value::Float64(1.25),
                Value::Boolean(true),
                Value::str("alpha"),
            ]),
            Row::new(vec![
                Value::Null,
                Value::Float64(f64::NAN),
                Value::Null,
                Value::str(""),
            ]),
            Row::new(vec![
                Value::Int64(i64::MIN),
                Value::Null,
                Value::Boolean(false),
                Value::Null,
            ]),
        ];
        let (payload, metas) = encode_block(&schema, &batch(&schema, rows.clone())).unwrap();
        let dec = BlockLayout::parse(&payload, &schema).unwrap();
        assert_eq!(dec.rows(), 3);
        let back = dec
            .decode_columns(&payload, &schema, 0, 3)
            .unwrap()
            .into_rows();
        for (a, b) in rows.iter().zip(&back) {
            for (x, y) in a.values().iter().zip(b.values()) {
                match (x, y) {
                    // NaN != NaN under PartialEq; compare bits.
                    (Value::Float64(p), Value::Float64(q)) => {
                        assert_eq!(p.to_bits(), q.to_bits())
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
        // Partial decode sees the same rows (row 2 is NaN-free, so plain
        // equality is meaningful).
        assert_eq!(
            dec.decode_columns(&payload, &schema, 2, 3)
                .unwrap()
                .into_rows(),
            back[2..3].to_vec()
        );
        // Metadata: NULLs and NaN counted, bounds over numeric values only.
        assert_eq!(metas[0].null_count, 1);
        assert_eq!(metas[0].min, Some(i64::MIN as f64));
        assert_eq!(metas[0].max, Some(-5.0));
        assert_eq!(metas[1].non_numeric, 1, "NaN is non-numeric");
        assert_eq!(metas[1].min, Some(1.25));
        assert_eq!(metas[3].min, None, "strings have no numeric bounds");
        assert_eq!(metas[3].non_numeric, 2);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let schema = Schema::new(vec![Field::new("i", DataType::Int64, false)]);
        let one = |v: Value| batch(&schema, vec![Row::new(vec![v])]);
        let err = encode_block(&schema, &one(Value::Float64(1.0))).unwrap_err();
        assert!(err.to_string().contains("storage"), "{err}");
        let err = encode_block(&schema, &one(Value::Null)).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let schema = Schema::new(vec![Field::new("f", DataType::Float64, false)]);
        let rows = vec![Row::new(vec![Value::Float64(3.5)])];
        let (payload, _) = encode_block(&schema, &batch(&schema, rows)).unwrap();
        for cut in 0..payload.len() {
            assert!(BlockLayout::parse(&payload[..cut], &schema).is_err());
        }
    }
}
