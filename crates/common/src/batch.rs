//! Column-major batches: the form a disk block takes between the decoder
//! and the skyline window.
//!
//! A [`ColumnBatch`] holds one buffer per column — `f64` or `i64` for the
//! numeric types, a `Vec<Value>` for any other — with per-row NULL bits,
//! and a **selection vector**: the physical rows, in order, that the batch
//! still carries. A filter narrows the selection without touching the
//! buffers, and a [`Row`] is built only for a row a consumer asks for
//! ([`ColumnBatch::row`], [`ColumnBatch::into_rows`]).

use crate::row::Row;
use crate::types::DataType;
use crate::value::Value;

/// The values of one column, typed where the type is numeric.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    /// `Float64` values; a NULL row holds an unspecified placeholder.
    Float64(Vec<f64>),
    /// `Int64` values; a NULL row holds an unspecified placeholder.
    Int64(Vec<i64>),
    /// Any other column, NULLs as [`Value::Null`].
    Values(Vec<Value>),
}

impl ColumnValues {
    fn len(&self) -> usize {
        match self {
            ColumnValues::Float64(v) => v.len(),
            ColumnValues::Int64(v) => v.len(),
            ColumnValues::Values(v) => v.len(),
        }
    }
}

/// One column of a [`ColumnBatch`]: its values and NULL bits.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchColumn {
    /// The values, one per physical row.
    pub values: ColumnValues,
    /// One flag per physical row, set where the row is NULL; `None` when
    /// no row is.
    pub nulls: Option<Vec<bool>>,
}

impl BatchColumn {
    /// Whether physical row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n[i])
    }

    /// Physical row `i` as a [`Value`].
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.values {
            ColumnValues::Float64(v) => Value::Float64(v[i]),
            ColumnValues::Int64(v) => Value::Int64(v[i]),
            ColumnValues::Values(v) => v[i].clone(),
        }
    }
}

/// Builds one [`BatchColumn`] value by value, or by copying ranges of
/// other columns. A `Float64` or `Int64` column gets a typed buffer for
/// as long as every non-NULL value it receives has that type; a value of
/// another type turns the buffer into values, so any value is kept as is.
/// NULL flags are set for every NULL, whatever the buffer.
#[derive(Debug)]
pub(crate) struct ColumnBuilder {
    values: ColumnValues,
    nulls: Option<Vec<bool>>,
}

impl ColumnBuilder {
    /// An empty column of type `ty`, with room for `capacity` rows.
    pub(crate) fn new(ty: DataType, capacity: usize) -> Self {
        let values = match ty {
            DataType::Float64 => ColumnValues::Float64(Vec::with_capacity(capacity)),
            DataType::Int64 => ColumnValues::Int64(Vec::with_capacity(capacity)),
            _ => ColumnValues::Values(Vec::with_capacity(capacity)),
        };
        ColumnBuilder {
            values,
            nulls: None,
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// The NULL flags, created (all clear) on the first NULL.
    fn nulls(&mut self) -> &mut Vec<bool> {
        let len = self.len();
        self.nulls.get_or_insert_with(|| vec![false; len])
    }

    /// Append one value.
    pub(crate) fn push(&mut self, value: Value) {
        let fits = matches!(
            (&self.values, &value),
            (ColumnValues::Float64(_), Value::Float64(_))
                | (ColumnValues::Int64(_), Value::Int64(_))
                | (ColumnValues::Values(_), _)
                | (_, Value::Null)
        );
        if !fits {
            self.demote();
        }
        // The flag first: a new flag vector takes its length from the
        // values before this one.
        if value.is_null() {
            self.nulls().push(true);
        } else if let Some(nulls) = &mut self.nulls {
            nulls.push(false);
        }
        match (&mut self.values, value) {
            (ColumnValues::Float64(v), Value::Float64(f)) => v.push(f),
            (ColumnValues::Float64(v), _) => v.push(0.0),
            (ColumnValues::Int64(v), Value::Int64(i)) => v.push(i),
            (ColumnValues::Int64(v), _) => v.push(0),
            (ColumnValues::Values(v), value) => v.push(value),
        }
    }

    /// Append one value by reference: a copy into a typed buffer of its
    /// type, [`push`](Self::push) otherwise.
    pub(crate) fn push_ref(&mut self, value: &Value) {
        match (&mut self.values, value) {
            (ColumnValues::Float64(v), Value::Float64(f)) => v.push(*f),
            (ColumnValues::Int64(v), Value::Int64(i)) => v.push(*i),
            (ColumnValues::Float64(_) | ColumnValues::Int64(_), Value::Null) => {
                self.nulls().push(true);
                match &mut self.values {
                    ColumnValues::Float64(v) => v.push(0.0),
                    ColumnValues::Int64(v) => v.push(0),
                    ColumnValues::Values(_) => unreachable!("matched a typed buffer"),
                }
                return;
            }
            _ => return self.push(value.clone()),
        }
        if let Some(nulls) = &mut self.nulls {
            nulls.push(false);
        }
    }

    /// Append row `i` of `column`: a copy between typed buffers of one
    /// kind, [`push`](Self::push) otherwise.
    #[inline]
    pub(crate) fn push_from(&mut self, column: &BatchColumn, i: usize) {
        match (&mut self.values, &column.values) {
            (ColumnValues::Float64(v), ColumnValues::Float64(src)) => v.push(src[i]),
            (ColumnValues::Int64(v), ColumnValues::Int64(src)) => v.push(src[i]),
            _ => return self.push(column.value(i)),
        }
        let null = column.is_null(i);
        if null || self.nulls.is_some() {
            let before = self.len() - 1;
            self.nulls
                .get_or_insert_with(|| vec![false; before])
                .push(null);
        }
    }

    /// Turn a typed buffer into values.
    fn demote(&mut self) {
        let column = BatchColumn {
            values: std::mem::replace(&mut self.values, ColumnValues::Values(Vec::new())),
            nulls: self.nulls.clone(),
        };
        self.values =
            ColumnValues::Values((0..column.values.len()).map(|i| column.value(i)).collect());
    }

    /// Append rows `range` of `column`: a slice copy where both buffers
    /// have one kind, value by value otherwise.
    pub(crate) fn extend_from(&mut self, column: &BatchColumn, range: std::ops::Range<usize>) {
        let same_kind = matches!(
            (&self.values, &column.values),
            (ColumnValues::Float64(_), ColumnValues::Float64(_))
                | (ColumnValues::Int64(_), ColumnValues::Int64(_))
                | (ColumnValues::Values(_), ColumnValues::Values(_))
        );
        if !same_kind {
            for i in range {
                self.push(column.value(i));
            }
            return;
        }
        // The flags first: a new flag vector takes its length from the
        // values not yet extended.
        match &column.nulls {
            Some(flags) if self.nulls.is_some() || flags[range.clone()].contains(&true) => {
                self.nulls().extend_from_slice(&flags[range.clone()]);
            }
            _ => {
                if let Some(nulls) = &mut self.nulls {
                    nulls.resize(nulls.len() + range.len(), false);
                }
            }
        }
        match (&mut self.values, &column.values) {
            (ColumnValues::Float64(v), ColumnValues::Float64(src)) => {
                v.extend_from_slice(&src[range])
            }
            (ColumnValues::Int64(v), ColumnValues::Int64(src)) => v.extend_from_slice(&src[range]),
            (ColumnValues::Values(v), ColumnValues::Values(src)) => {
                v.extend_from_slice(&src[range])
            }
            _ => unreachable!("the kinds were matched above"),
        }
    }

    /// The finished column.
    pub(crate) fn finish(self) -> BatchColumn {
        BatchColumn {
            values: self.values,
            nulls: self.nulls,
        }
    }
}

/// Column buffers plus a selection vector of the rows they still carry.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<BatchColumn>,
    selection: Vec<usize>,
}

impl ColumnBatch {
    /// A batch of `rows` physical rows over `columns`, every row selected.
    /// Panics when a column's length differs from `rows` — a decoder bug.
    pub fn new(columns: Vec<BatchColumn>, rows: usize) -> Self {
        for c in &columns {
            assert_eq!(c.values.len(), rows, "column length");
            assert!(c.nulls.as_ref().is_none_or(|n| n.len() == rows));
        }
        ColumnBatch {
            columns,
            selection: (0..rows).collect(),
        }
    }

    /// Selected rows.
    pub fn len(&self) -> usize {
        self.selection.len()
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        self.selection.is_empty()
    }

    /// Column `c`.
    pub fn column(&self, c: usize) -> &BatchColumn {
        &self.columns[c]
    }

    /// Every column, in schema order.
    pub fn columns(&self) -> &[BatchColumn] {
        &self.columns
    }

    /// The selected physical rows, ascending.
    pub fn selection(&self) -> &[usize] {
        &self.selection
    }

    /// Replace the selection; `selection` must be ascending physical rows.
    pub fn set_selection(&mut self, selection: Vec<usize>) {
        debug_assert!(selection.windows(2).all(|w| w[0] < w[1]));
        self.selection = selection;
    }

    /// The value of column `c` at physical row `i`.
    pub fn value(&self, c: usize, i: usize) -> Value {
        self.columns[c].value(i)
    }

    /// Physical row `i` as a [`Row`].
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// The selected rows, in order.
    pub fn into_rows(self) -> Vec<Row> {
        self.selection.iter().map(|&i| self.row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> ColumnBatch {
        ColumnBatch::new(
            vec![
                BatchColumn {
                    values: ColumnValues::Float64(vec![1.5, 0.0, -2.0]),
                    nulls: Some(vec![false, true, false]),
                },
                BatchColumn {
                    values: ColumnValues::Int64(vec![7, 8, 9]),
                    nulls: None,
                },
                BatchColumn {
                    values: ColumnValues::Values(vec![
                        Value::str("a"),
                        Value::Null,
                        Value::Boolean(true),
                    ]),
                    nulls: Some(vec![false, true, false]),
                },
            ],
            3,
        )
    }

    #[test]
    fn rows_are_built_from_the_buffers() {
        let b = batch();
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.row(1),
            Row::new(vec![Value::Null, Value::Int64(8), Value::Null])
        );
        assert_eq!(b.value(0, 2), Value::Float64(-2.0));
        assert_eq!(b.clone().into_rows().len(), 3);
    }

    #[test]
    fn the_selection_decides_which_rows_come_out() {
        let mut b = batch();
        b.set_selection(vec![0, 2]);
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.into_rows(),
            vec![
                Row::new(vec![Value::Float64(1.5), Value::Int64(7), Value::str("a")]),
                Row::new(vec![
                    Value::Float64(-2.0),
                    Value::Int64(9),
                    Value::Boolean(true)
                ]),
            ]
        );
    }
}
