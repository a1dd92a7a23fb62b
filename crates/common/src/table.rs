//! In-memory tables as immutable column chunks.
//!
//! A [`MemTable`] holds a table as a sequence of `Arc`'d [`Chunk`]s: the
//! column buffers of at most [`CHUNK_ROWS`] rows each, laid out as a
//! [`ColumnBatch`]'s columns are (`f64`/`i64` buffers, a `Vec<Value>` for
//! any other type, NULL flags) but with no selection vector. A chunk never
//! changes once built. Cloning a table copies its chunk pointers, so a
//! query's snapshot is a clone, and a write builds new chunks only where it
//! must: [`append`](MemTable::append) copies the last partly filled chunk
//! and adds full ones after it, [`delete`](MemTable::delete) rewrites the
//! chunks that hold a deleted row and shares every other. A [`Row`] exists
//! only where a consumer builds one.

use std::borrow::Borrow;
use std::ops::Range;
use std::sync::Arc;

use crate::batch::{BatchColumn, ColumnBatch, ColumnBuilder, ColumnValues};
use crate::error::Result;
use crate::row::Row;
use crate::schema::Schema;
use crate::types::DataType;

/// Rows per chunk when a table is built or grows: the default block size
/// of the disk format, so a chunk and a block hold the same rows.
pub const CHUNK_ROWS: usize = 2048;

/// The column buffers of up to [`CHUNK_ROWS`] consecutive rows of a
/// [`MemTable`]; never empty.
#[derive(Debug, PartialEq)]
pub struct Chunk {
    columns: Vec<BatchColumn>,
    rows: usize,
}

impl Chunk {
    /// The rows of `prefix`, if any, then the next `take` of `rows`, as
    /// columns of `types`. Each row goes to `check` first and is dropped
    /// once its values are copied, while it is still in cache; the first
    /// error is the result.
    fn build<R: Borrow<Row>>(
        types: &[DataType],
        prefix: Option<&Chunk>,
        rows: &mut impl ExactSizeIterator<Item = R>,
        take: usize,
        check: &mut impl FnMut(&Row) -> Result<()>,
    ) -> Result<Chunk> {
        let take = take.min(rows.len());
        let len = prefix.map_or(0, Chunk::len) + take;
        let mut columns: Vec<ColumnBuilder> = (types.iter().enumerate())
            .map(|(c, &ty)| {
                let mut column = ColumnBuilder::new(ty, len);
                if let Some(prefix) = prefix {
                    column.extend_from(&prefix.columns[c], 0..prefix.rows);
                }
                column
            })
            .collect();
        for row in rows.take(take) {
            let row = row.borrow();
            check(row)?;
            for (column, value) in columns.iter_mut().zip(row.values()) {
                column.push_ref(value);
            }
        }
        let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
        Ok(Chunk { columns, rows: len })
    }

    /// This chunk without its rows `dropped` (ascending, distinct).
    fn without(&self, types: &[DataType], dropped: &[usize]) -> Chunk {
        let mut kept: Vec<Range<usize>> = Vec::with_capacity(dropped.len() + 1);
        let mut from = 0;
        for &i in dropped.iter().chain([&self.rows]) {
            if i > from {
                kept.push(from..i);
            }
            from = i + 1;
        }
        let rows = self.rows - dropped.len();
        let columns = (types.iter().zip(&self.columns))
            .map(|(&ty, source)| {
                let mut column = ColumnBuilder::new(ty, rows);
                for range in &kept {
                    column.extend_from(source, range.clone());
                }
                column.finish()
            })
            .collect();
        Chunk { columns, rows }
    }

    /// Rows in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the chunk holds no row (a stored chunk never does).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Every column, in schema order.
    #[inline]
    pub fn columns(&self) -> &[BatchColumn] {
        &self.columns
    }

    /// Row `i`, built from the buffers.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect())
    }
}

/// Rows `at` (chunk, place in it) of one typed buffer per chunk, or `None`
/// when some chunk holds the column otherwise.
fn gather_typed<'a, T: Copy + 'a>(
    at: &[(usize, usize)],
    buffers: impl Iterator<Item = Option<&'a [T]>>,
) -> Option<Vec<T>> {
    let buffers: Vec<&[T]> = buffers.collect::<Option<_>>()?;
    Some(at.iter().map(|&(k, i)| buffers[k][i]).collect())
}

/// A table held in memory as immutable column chunks (module docs).
#[derive(Debug, Clone)]
pub struct MemTable {
    types: Arc<[DataType]>,
    /// Behind one `Arc`, so a snapshot costs a reference count, not one
    /// per chunk; a write copies the list when a snapshot shares it.
    chunks: Arc<Vec<Arc<Chunk>>>,
    /// The table position of each chunk's first row, then the row count.
    starts: Arc<Vec<usize>>,
}

impl MemTable {
    /// An empty table of `schema`'s column types.
    pub fn new(schema: &Schema) -> Self {
        MemTable {
            types: schema.fields().iter().map(|f| f.data_type()).collect(),
            chunks: Arc::new(Vec::new()),
            starts: Arc::new(vec![0]),
        }
    }

    /// `rows` as a table of `schema`'s column types, consumed one chunk
    /// at a time: each row is dropped once its values are copied, so the
    /// table is never held as rows and columns at once.
    pub fn from_rows(schema: &Schema, rows: Vec<Row>) -> Self {
        MemTable::from_checked_rows(schema, rows, |_, _| Ok(())).expect("no check to fail")
    }

    /// [`from_rows`](Self::from_rows), handing each row and its position
    /// to `check` before its values join the columns; the first error is
    /// the result. `rows` may also be borrowed, and is then copied.
    pub fn from_checked_rows<R: Borrow<Row>>(
        schema: &Schema,
        rows: impl IntoIterator<Item = R, IntoIter: ExactSizeIterator>,
        mut check: impl FnMut(usize, &Row) -> Result<()>,
    ) -> Result<Self> {
        let mut table = MemTable::new(schema);
        let mut at = 0;
        table.append_checked(rows, |row| {
            at += 1;
            check(at - 1, row)
        })?;
        Ok(table)
    }

    /// Rows in the table.
    pub fn len(&self) -> usize {
        self.starts[self.chunks.len()]
    }

    /// Whether the table holds no row.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The chunks, in row order.
    pub fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// The table position of chunk `k`'s first row.
    pub fn chunk_start(&self, k: usize) -> usize {
        self.starts[k]
    }

    /// The chunk holding row `pos`, and the row's place in it.
    #[inline]
    fn locate(&self, pos: usize) -> (usize, usize) {
        // Full chunks of `CHUNK_ROWS` rows are the common case.
        let guess = (pos / CHUNK_ROWS).min(self.chunks.len().saturating_sub(1));
        let k = if self.starts[guess] <= pos && pos < self.starts[guess + 1] {
            guess
        } else {
            self.starts.partition_point(|&s| s <= pos) - 1
        };
        (k, pos - self.starts[k])
    }

    /// Every row, in order, each built from its chunk as it is reached.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (self.chunks.iter()).flat_map(|chunk| (0..chunk.len()).map(move |i| chunk.row(i)))
    }

    /// Rows `start..end` copied out of the chunks into one column batch,
    /// every row selected, across chunk boundaries.
    pub fn batch(&self, start: usize, end: usize) -> ColumnBatch {
        assert!(
            start <= end && end <= self.len(),
            "batch range out of bounds"
        );
        let mut columns: Vec<ColumnBuilder> = (self.types.iter())
            .map(|&ty| ColumnBuilder::new(ty, end - start))
            .collect();
        let mut pos = start;
        while pos < end {
            let (k, at) = self.locate(pos);
            let chunk = &self.chunks[k];
            let take = (chunk.rows - at).min(end - pos);
            for (column, source) in columns.iter_mut().zip(&chunk.columns) {
                column.extend_from(source, at..at + take);
            }
            pos += take;
        }
        let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
        ColumnBatch::new(columns, end - start)
    }

    /// The rows at table `positions`, in that order, gathered out of the
    /// chunks into one column batch, every row selected. Each row is
    /// located once; then each column is gathered on its own, a `Float64`
    /// or `Int64` column typed in every chunk in one loop over typed
    /// slices. Panics on a position out of bounds.
    pub fn take(&self, positions: &[u32]) -> ColumnBatch {
        let at: Vec<(usize, usize)> = (positions.iter())
            .map(|&pos| self.locate(pos as usize))
            .collect();
        let columns = (self.types.iter().enumerate())
            .map(|(c, &ty)| self.gather(c, ty, &at))
            .collect();
        ColumnBatch::new(columns, positions.len())
    }

    /// Column `c` (of type `ty`) of the rows `at` (chunk, place in it), in
    /// order: the column [`ColumnBuilder`] builds from them row by row,
    /// with a typed column gathered from the chunks' slices.
    fn gather(&self, c: usize, ty: DataType, at: &[(usize, usize)]) -> BatchColumn {
        let columns = || (self.chunks.iter()).map(move |chunk| &chunk.columns[c].values);
        let values = match ty {
            DataType::Float64 => gather_typed(
                at,
                columns().map(|values| match values {
                    ColumnValues::Float64(v) => Some(&v[..]),
                    _ => None,
                }),
            )
            .map(ColumnValues::Float64),
            DataType::Int64 => gather_typed(
                at,
                columns().map(|values| match values {
                    ColumnValues::Int64(v) => Some(&v[..]),
                    _ => None,
                }),
            )
            .map(ColumnValues::Int64),
            _ => None,
        };
        let Some(values) = values else {
            let mut column = ColumnBuilder::new(ty, at.len());
            for &(k, i) in at {
                column.push_from(&self.chunks[k].columns[c], i);
            }
            return column.finish();
        };
        let nullable = (self.chunks.iter()).any(|chunk| chunk.columns[c].nulls.is_some());
        let nulls = nullable
            .then(|| -> Vec<bool> {
                (at.iter())
                    .map(|&(k, i)| self.chunks[k].columns[c].is_null(i))
                    .collect()
            })
            .filter(|flags| flags.contains(&true));
        BatchColumn { values, nulls }
    }

    /// Append `rows`, consumed one chunk at a time. Only the last chunk,
    /// when partly filled, is copied (filled up with the first rows); the
    /// rest become new chunks of [`CHUNK_ROWS`] rows, the last perhaps
    /// short. Every other chunk is shared with earlier clones.
    pub fn append(&mut self, rows: Vec<Row>) {
        self.append_checked(rows, |_| Ok(()))
            .expect("no check to fail");
    }

    /// [`append`](Self::append), each row passed to `check` first. On an
    /// error the table holds the chunks completed before it.
    fn append_checked<R: Borrow<Row>>(
        &mut self,
        rows: impl IntoIterator<Item = R, IntoIter: ExactSizeIterator>,
        mut check: impl FnMut(&Row) -> Result<()>,
    ) -> Result<()> {
        let mut rows = rows.into_iter();
        while rows.len() > 0 {
            let last = (self.chunks.last()).filter(|chunk| chunk.rows < CHUNK_ROWS);
            let prefix = last.map(Arc::clone);
            let take = CHUNK_ROWS - prefix.as_ref().map_or(0, |c| c.rows);
            let chunk = Chunk::build(&self.types, prefix.as_deref(), &mut rows, take, &mut check)?;
            if prefix.is_some() {
                Arc::make_mut(&mut self.chunks).pop();
                Arc::make_mut(&mut self.starts).pop();
            }
            self.push_chunk(chunk);
        }
        Ok(())
    }

    fn push_chunk(&mut self, chunk: Chunk) {
        let end = self.len() + chunk.rows;
        Arc::make_mut(&mut self.chunks).push(Arc::new(chunk));
        Arc::make_mut(&mut self.starts).push(end);
    }

    /// Remove the rows at `positions`, which must be ascending, distinct
    /// and in bounds. A chunk holding a removed row is rewritten without
    /// it (or dropped, when it loses every row); every other chunk is
    /// shared with earlier clones.
    pub fn delete(&mut self, positions: &[usize]) {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(positions.last().is_none_or(|&p| p < self.len()));
        if positions.is_empty() {
            return;
        }
        let old = Arc::unwrap_or_clone(std::mem::take(&mut self.chunks));
        let old_starts = std::mem::replace(&mut self.starts, Arc::new(vec![0]));
        let mut rest = positions;
        for (k, chunk) in old.into_iter().enumerate() {
            let here = rest.partition_point(|&p| p < old_starts[k + 1]);
            let (dropped, after) = rest.split_at(here);
            rest = after;
            if dropped.is_empty() {
                let end = self.len() + chunk.rows;
                Arc::make_mut(&mut self.chunks).push(chunk);
                Arc::make_mut(&mut self.starts).push(end);
            } else if dropped.len() < chunk.rows {
                let local: Vec<usize> = dropped.iter().map(|&p| p - old_starts[k]).collect();
                self.push_chunk(chunk.without(&self.types, &local));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ColumnValues;
    use crate::schema::Field;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("f", DataType::Float64, true),
            Field::new("i", DataType::Int64, true),
            Field::new("s", DataType::Utf8, true),
        ])
    }

    fn row(k: usize) -> Row {
        let f = if k.is_multiple_of(5) {
            Value::Null
        } else {
            Value::Float64(k as f64 / 4.0)
        };
        let s = if k.is_multiple_of(3) {
            Value::Null
        } else {
            Value::str(format!("r{k}"))
        };
        Row::new(vec![f, Value::Int64(k as i64), s])
    }

    fn rows(range: Range<usize>) -> Vec<Row> {
        range.map(row).collect()
    }

    #[test]
    fn rows_round_trip_through_chunks() {
        let data = rows(0..2 * CHUNK_ROWS + 5);
        let table = MemTable::from_rows(&schema(), data.clone());
        assert_eq!(table.len(), data.len());
        assert_eq!(table.chunks().len(), 3);
        assert_eq!(table.rows().collect::<Vec<_>>(), data);
        // A batch across a chunk boundary copies both sides.
        let batch = table.batch(CHUNK_ROWS - 3, CHUNK_ROWS + 4);
        assert_eq!(batch.into_rows(), data[CHUNK_ROWS - 3..CHUNK_ROWS + 4]);
        assert!(table.batch(7, 7).is_empty());
    }

    #[test]
    fn a_checked_build_stops_at_the_first_failing_row() {
        let n = 2 * CHUNK_ROWS + 77;
        let mut seen = Vec::new();
        let err = MemTable::from_checked_rows(&schema(), rows(0..n), |i, r| {
            assert_eq!(r, &row(i));
            seen.push(i);
            match i {
                CHUNK_ROWS | 3000 => Err(crate::Error::plan(format!("row {i}"))),
                _ => Ok(()),
            }
        })
        .unwrap_err();
        assert!(
            err.to_string().contains(&format!("row {CHUNK_ROWS}")),
            "{err}"
        );
        assert_eq!(seen, (0..=CHUNK_ROWS).collect::<Vec<_>>());
    }

    #[test]
    fn the_first_null_free_range_has_no_flags() {
        let table = MemTable::from_rows(&schema(), rows(1..5));
        let batch = table.batch(0, 4);
        assert!(batch.column(0).nulls.is_none());
        assert!(batch.column(2).nulls.is_some());
        assert!(matches!(batch.column(0).values, ColumnValues::Float64(_)));
        assert!(matches!(batch.column(1).values, ColumnValues::Int64(_)));
    }

    #[test]
    fn a_value_of_another_type_keeps_its_type() {
        let schema = Schema::new(vec![Field::new("x", DataType::Float64, true)]);
        let data = vec![
            Row::new(vec![Value::Float64(1.5)]),
            Row::new(vec![Value::Int64(2)]),
            Row::new(vec![Value::Null]),
        ];
        let table = MemTable::from_rows(&schema, data.clone());
        assert_eq!(table.rows().collect::<Vec<_>>(), data);
        assert_eq!(table.batch(0, 3).into_rows(), data);
    }

    #[test]
    fn take_gathers_rows_by_table_position() {
        let mut table = MemTable::from_rows(&schema(), rows(0..2 * CHUNK_ROWS + 30));
        table.delete(&(CHUNK_ROWS - 9..CHUNK_ROWS + 9).collect::<Vec<_>>());
        table.append(rows(7000..7100));
        let all: Vec<Row> = table.rows().collect();
        let positions: Vec<u32> = (0..all.len() as u32)
            .rev()
            .step_by(7)
            .chain([3, 3])
            .collect();
        let batch = table.take(&positions);
        let expected: Vec<Row> = positions.iter().map(|&p| all[p as usize].clone()).collect();
        assert_eq!(batch.into_rows(), expected);
        // NULL flags only where a gathered row is NULL, typed buffers kept.
        let batch = table.take(&[1, 2, 4]);
        assert!(batch.column(0).nulls.is_none());
        assert!(matches!(batch.column(0).values, ColumnValues::Float64(_)));
        assert_eq!(table.take(&[5, 1]).column(0).nulls, Some(vec![true, false]));
        assert!(table.take(&[]).is_empty());
        // A value of another type turns the gathered column into values.
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, true)]);
        let odd = vec![
            Row::new(vec![Value::Int64(1)]),
            Row::new(vec![Value::str("a")]),
        ];
        let table = MemTable::from_rows(&schema, odd.clone());
        assert!(matches!(
            table.take(&[0]).column(0).values,
            ColumnValues::Int64(_)
        ));
        assert_eq!(
            table.take(&[1, 0]).into_rows(),
            [odd[1].clone(), odd[0].clone()]
        );
    }

    #[test]
    fn append_copies_only_the_last_partly_filled_chunk() {
        let mut table = MemTable::from_rows(&schema(), rows(0..CHUNK_ROWS + 10));
        let before = table.clone();
        table.append(rows(CHUNK_ROWS + 10..2 * CHUNK_ROWS + 20));
        assert!(Arc::ptr_eq(&table.chunks()[0], &before.chunks()[0]));
        assert!(!Arc::ptr_eq(&table.chunks()[1], &before.chunks()[1]));
        let sizes: Vec<usize> = table.chunks().iter().map(|c| c.len()).collect();
        assert_eq!(sizes, [CHUNK_ROWS, CHUNK_ROWS, 20]);
        assert_eq!(
            table.rows().collect::<Vec<_>>(),
            rows(0..2 * CHUNK_ROWS + 20)
        );
        assert_eq!(before.len(), CHUNK_ROWS + 10, "a clone is a snapshot");
    }

    #[test]
    fn delete_rewrites_only_the_chunks_it_touches() {
        let mut table = MemTable::from_rows(&schema(), rows(0..3 * CHUNK_ROWS));
        let before = table.clone();
        let all: Vec<usize> = (CHUNK_ROWS..2 * CHUNK_ROWS).collect();
        table.delete(&all[..all.len() - 2]);
        table.delete(&[3, 5]);
        assert!(!Arc::ptr_eq(&table.chunks()[0], &before.chunks()[0]));
        assert!(Arc::ptr_eq(&table.chunks()[2], &before.chunks()[2]));
        let mut expected = rows(0..3 * CHUNK_ROWS);
        expected.retain(|r| {
            let k = match r.get(1) {
                Value::Int64(k) => *k as usize,
                _ => unreachable!(),
            };
            k != 3 && k != 5 && !(CHUNK_ROWS..2 * CHUNK_ROWS - 2).contains(&k)
        });
        assert_eq!(table.rows().collect::<Vec<_>>(), expected);
        // Deleting a chunk's last rows drops the chunk.
        table.delete(&[CHUNK_ROWS - 2, CHUNK_ROWS - 1]);
        assert_eq!(table.chunks().len(), 2);
        assert_eq!(table.len(), expected.len() - 2);
        table.delete(&(0..table.len()).collect::<Vec<_>>());
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
    }
}
