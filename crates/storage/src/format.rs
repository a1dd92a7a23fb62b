//! Byte-level encode/decode of the block format: little-endian
//! primitives, the sign-normalized `Float64` map, schema serialization,
//! and the self-contained block payload codec (see the crate docs for
//! the full file layout).

use sparkline_common::stats::numeric_value;
use sparkline_common::{DataType, Error, Field, Result, Row, Schema, Value};

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
    let ncols = r.u32()? as usize;
    let mut fields = Vec::with_capacity(ncols);
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

/// Check one value against its column's declared type; the writer runs
/// this so decode can trust the payload classes unconditionally.
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

/// Encode `rows` as one self-contained block payload and compute the
/// per-column skipping metadata in the same pass. Each row is a borrowed
/// value slice, so a writer can lay out a block from any subset of its
/// input without copying a row.
pub(crate) fn encode_block(
    schema: &Schema,
    rows: &[&[Value]],
) -> Result<(Vec<u8>, Vec<ColumnMeta>)> {
    let n = rows.len();
    let mut out = Vec::new();
    put_u32(&mut out, n as u32);
    let mut metas = Vec::with_capacity(schema.len());
    for (c, field) in schema.fields().iter().enumerate() {
        for row in rows {
            if row.len() != schema.len() {
                return Err(storage_err(format!(
                    "row width {} does not match schema width {}",
                    row.len(),
                    schema.len()
                )));
            }
            check_value(field, &row[c])?;
        }
        // NULL bitmap: bit set = NULL.
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        let mut meta = ColumnMeta::default();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut bounded = false;
        for (i, row) in rows.iter().enumerate() {
            let v = &row[c];
            if v.is_null() {
                bitmap[i / 8] |= 1 << (i % 8);
                meta.null_count += 1;
            } else {
                match numeric_value(v) {
                    Some(x) => {
                        min = min.min(x);
                        max = max.max(x);
                        bounded = true;
                    }
                    None => meta.non_numeric += 1,
                }
            }
        }
        if bounded {
            meta.min = Some(min);
            meta.max = Some(max);
        }
        out.extend_from_slice(&bitmap);
        match field.data_type() {
            DataType::Null => {}
            DataType::Boolean => {
                for row in rows {
                    out.push(match &row[c] {
                        Value::Boolean(b) => u8::from(*b),
                        _ => 0,
                    });
                }
            }
            DataType::Int64 => {
                for row in rows {
                    let v = match &row[c] {
                        Value::Int64(i) => *i,
                        _ => 0,
                    };
                    put_u64(&mut out, v as u64);
                }
            }
            DataType::Float64 => {
                for row in rows {
                    let v = match &row[c] {
                        Value::Float64(f) => *f,
                        _ => 0.0,
                    };
                    put_u64(&mut out, sign_normalize_f64(v));
                }
            }
            DataType::Utf8 => {
                let mut data = Vec::new();
                for row in rows {
                    match &row[c] {
                        Value::Utf8(s) => {
                            put_u32(&mut out, s.len() as u32);
                            data.extend_from_slice(s.as_bytes());
                        }
                        _ => put_u32(&mut out, 0),
                    }
                }
                out.extend_from_slice(&data);
            }
        }
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

    /// Materialize rows `start..end` of `raw`, the payload this layout
    /// was parsed from, under the same `schema`.
    pub(crate) fn decode_range(
        &self,
        raw: &[u8],
        schema: &Schema,
        start: usize,
        end: usize,
    ) -> Result<Vec<Row>> {
        if start > end || end > self.rows {
            return Err(storage_err(format!(
                "row range {start}..{end} out of bounds for {}-row block",
                self.rows
            )));
        }
        let word = |at: usize, i: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&raw[at + i * 8..at + i * 8 + 8]);
            u64::from_le_bytes(w)
        };
        let mut out = Vec::with_capacity(end - start);
        for i in start..end {
            let mut values = Vec::with_capacity(schema.len());
            for (c, field) in schema.fields().iter().enumerate() {
                if raw[self.bitmaps[c] + i / 8] & (1 << (i % 8)) != 0 {
                    values.push(Value::Null);
                    continue;
                }
                values.push(match (&self.columns[c], field.data_type()) {
                    (ColumnLayout::Bool(at), _) => Value::Boolean(raw[at + i] != 0),
                    (ColumnLayout::Fixed64(at), DataType::Int64) => {
                        Value::Int64(word(*at, i) as i64)
                    }
                    (ColumnLayout::Fixed64(at), _) => {
                        Value::Float64(sign_restore_f64(word(*at, i)))
                    }
                    (ColumnLayout::Utf8 { data, offsets }, _) => {
                        let s = &raw[data + offsets[i] as usize..data + offsets[i + 1] as usize];
                        Value::str(
                            std::str::from_utf8(s)
                                .map_err(|_| storage_err("string value is not UTF-8"))?,
                        )
                    }
                    (ColumnLayout::Empty, _) => {
                        return Err(storage_err(format!(
                            "non-NULL row {i} in NULL-typed column '{}'",
                            field.name()
                        )))
                    }
                });
            }
            out.push(Row::new(values));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slices(rows: &[Row]) -> Vec<&[Value]> {
        rows.iter().map(Row::values).collect()
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
        let (payload, metas) = encode_block(&schema, &slices(&rows)).unwrap();
        let dec = BlockLayout::parse(&payload, &schema).unwrap();
        assert_eq!(dec.rows(), 3);
        let back = dec.decode_range(&payload, &schema, 0, 3).unwrap();
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
            dec.decode_range(&payload, &schema, 2, 3).unwrap(),
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
        let err = encode_block(&schema, &[&[Value::Float64(1.0)]]).unwrap_err();
        assert!(err.to_string().contains("storage"), "{err}");
        let err = encode_block(&schema, &[&[Value::Null]]).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let schema = Schema::new(vec![Field::new("f", DataType::Float64, false)]);
        let rows = vec![Row::new(vec![Value::Float64(3.5)])];
        let (payload, _) = encode_block(&schema, &slices(&rows)).unwrap();
        for cut in 0..payload.len() {
            assert!(BlockLayout::parse(&payload[..cut], &schema).is_err());
        }
    }
}
