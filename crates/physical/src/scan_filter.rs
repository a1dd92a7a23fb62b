//! The `WHERE` clause a scan ([`ScanExec`](crate::ScanExec)) evaluates on
//! its column buffers, whether they were copied out of in-memory chunks
//! or decoded out of disk blocks.
//!
//! A predicate is the scan's own when it is an `AND` of exactly
//! comparable `column <op> literal` conjuncts ([`exact_conjuncts`]): a
//! `Float64` column against a non-NaN `Float64` literal or an `Int64`
//! literal `f64` holds exactly, an `Int64` column against an `Int64`
//! literal, with `<`, `<=`, `>`, `>=` or `=`. A [`ScanFilter`] evaluates
//! it on the buffers with `Expr::evaluate`'s Kleene semantics and errors,
//! narrowing a batch's selection, and the planner plans no `FilterExec`.
//! Any other predicate keeps its `FilterExec` above the scan; on disk its
//! comparable conjuncts on `Int64` and `Float64` columns still prune
//! blocks as min/max bounds ([`extract_column_predicates`]).

use sparkline_common::{
    BatchColumn, ColumnBatch, ColumnValues, DataType, Result, Row, Schema, Value,
};
use sparkline_plan::{split_conjuncts, BinaryOp, Expr};
use sparkline_storage::{BlockMeta, ColumnMeta};

/// One pushed-down comparison `column <op> literal` of the `Filter` on a
/// scan. When every conjunct of the filter is exactly comparable
/// ([`exact_conjuncts`]) the scan evaluates them all on its column
/// buffers and the planner drops the `FilterExec`. On disk, a block's
/// min/max can also refute a conjunct; where the `FilterExec` above the
/// scan evaluates the predicate, pruning only discards blocks *no* row of
/// which can pass, so results are identical with pruning on or off.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Column position in the scan schema: an `Int64` or `Float64`
    /// column, the only types whose footer bounds are their values' (a
    /// `Boolean` column's 0/1 bounds do not compare with a number the way
    /// its values do — that comparison fails).
    pub col: usize,
    /// The comparison, normalized to `column <op> literal`.
    pub op: BinaryOp,
    /// The literal: an `Int64`, or a `Float64` that is never NaN but may
    /// be ±inf (an infinite bound refutes only what every finite value
    /// would, so it is as sound as any other).
    pub literal: Value,
}

/// A comparison's outcome on one row, as `Expr::evaluate` would give it.
enum Truth {
    True,
    False,
    /// The column is NULL: the comparison is NULL.
    Unknown,
    /// The values do not compare (a NaN): evaluation fails.
    Incomparable,
}

impl ColumnPredicate {
    /// The literal as an `f64`, for the footer's `f64` bounds.
    fn bound(&self) -> f64 {
        match self.literal {
            Value::Int64(i) => i as f64,
            Value::Float64(f) => f,
            _ => f64::NAN,
        }
    }

    /// Whether comparing a column of type `ty` with the literal is exact
    /// on the scan's buffers: a `Float64` column with a `Float64` literal
    /// or an `Int64` literal that `f64` holds exactly (the values then
    /// compare as their `f64`s do), or an `Int64` column with an `Int64`
    /// literal.
    fn exact_on(&self, ty: DataType) -> bool {
        match (ty, &self.literal) {
            (DataType::Float64, Value::Float64(_)) | (DataType::Int64, Value::Int64(_)) => true,
            (DataType::Float64, Value::Int64(i)) => *i != i64::MAX && (*i as f64) as i64 == *i,
            _ => false,
        }
    }

    /// The comparison on physical row `i` of `col`, with the semantics of
    /// `Value::sql_compare`: a NULL row is unknown, a NaN incomparable.
    fn truth(&self, col: &BatchColumn, i: usize) -> Truth {
        if col.is_null(i) {
            return Truth::Unknown;
        }
        let ord = match &col.values {
            // Exact: the literal is a non-NaN f64, or an integer it holds.
            ColumnValues::Float64(v) => v[i].partial_cmp(&self.bound()),
            _ => col.value(i).sql_compare(&self.literal),
        };
        let Some(ord) = ord else {
            return Truth::Incomparable;
        };
        let pass = match self.op {
            BinaryOp::Lt => ord.is_lt(),
            BinaryOp::LtEq => ord.is_le(),
            BinaryOp::Gt => ord.is_gt(),
            BinaryOp::GtEq => ord.is_ge(),
            _ => ord.is_eq(),
        };
        if pass {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// The column's footer entry when its bounds cover every non-NULL
    /// row: no non-numeric values (strings, NaN), which the bounds don't
    /// cover, and exact bounds (not an Int64 beyond 2^53, where the
    /// literal and the rows may round differently).
    fn covered<'a>(&self, meta: &'a BlockMeta) -> Option<&'a ColumnMeta> {
        (meta.columns.get(self.col)).filter(|col| col.non_numeric == 0 && col.exact_bounds())
    }

    /// Whether the block provably contains no row satisfying this
    /// predicate. NULL rows never satisfy a comparison (SQL three-valued
    /// logic: the filter keeps only `TRUE`), so the decision rests on the
    /// numeric `[min, max]` alone — unless the bounds do not cover the
    /// column ([`covered`](Self::covered)); those blocks are never pruned.
    pub(crate) fn refutes(&self, meta: &BlockMeta) -> bool {
        let Some(col) = self.covered(meta) else {
            return false;
        };
        let (Some(min), Some(max)) = (col.min, col.max) else {
            // Every row is NULL: no row satisfies any comparison.
            return true;
        };
        let v = self.bound();
        match self.op {
            BinaryOp::Lt => min >= v,
            BinaryOp::LtEq => min > v,
            BinaryOp::Gt => max <= v,
            BinaryOp::GtEq => max < v,
            BinaryOp::Eq => v < min || v > max,
            _ => false,
        }
    }

    /// Whether every row of the block satisfies this predicate, the
    /// mirror of [`refutes`](Self::refutes). A NULL row satisfies no
    /// comparison, so the column must also be NULL-free, and the block
    /// must hold a row.
    pub(crate) fn implied_by(&self, meta: &BlockMeta) -> bool {
        let Some(col) = self.covered(meta).filter(|col| col.null_count == 0) else {
            return false;
        };
        let (Some(min), Some(max)) = (col.min, col.max) else {
            return false;
        };
        let v = self.bound();
        match self.op {
            BinaryOp::Lt => max < v,
            BinaryOp::LtEq => max <= v,
            BinaryOp::Gt => min > v,
            BinaryOp::GtEq => min >= v,
            BinaryOp::Eq => min == v && max == v,
            _ => false,
        }
    }
}

/// The predicate of one `column <op> literal` comparison (either
/// orientation), normalized, over an `Int64` or `Float64` column of
/// `schema`; `None` for any other expression.
fn comparison(e: &Expr, schema: &Schema) -> Option<ColumnPredicate> {
    fn literal(e: &Expr) -> Option<Value> {
        match e {
            Expr::Literal(v @ Value::Int64(_)) => Some(v.clone()),
            Expr::Literal(Value::Float64(f)) if !f.is_nan() => Some(Value::Float64(*f)),
            _ => None,
        }
    }
    fn flip(op: BinaryOp) -> BinaryOp {
        match op {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }
    let Expr::BinaryOp { left, op, right } = e else {
        return None;
    };
    if !matches!(
        op,
        BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq | BinaryOp::Eq
    ) {
        return None;
    }
    let (col, op, literal) = match (left.as_ref(), right.as_ref()) {
        (Expr::BoundColumn(c), lit) => (c, *op, literal(lit)?),
        (lit, Expr::BoundColumn(c)) => (c, flip(*op), literal(lit)?),
        _ => return None,
    };
    let numeric = col.index < schema.len()
        && matches!(
            schema.field(col.index).data_type(),
            DataType::Int64 | DataType::Float64
        );
    numeric.then_some(ColumnPredicate {
        col: col.index,
        op,
        literal,
    })
}

/// Extract the min/max-prunable conjuncts of a filter predicate sitting
/// directly on a scan: `BoundColumn <op> numeric-literal` (either
/// orientation) over an `Int64` or `Float64` column of `schema`, joined by
/// `AND`. Everything else is ignored — missing a conjunct costs only
/// pruning power.
pub fn extract_column_predicates(predicate: &Expr, schema: &Schema) -> Vec<ColumnPredicate> {
    (split_conjuncts(predicate).iter())
        .filter_map(|e| comparison(e, schema))
        .collect()
}

/// The conjuncts of `predicate`, in evaluation order, when it is an `AND`
/// of comparisons each exactly comparable on its column of `schema`: the
/// predicate a scan evaluates itself. `None` for any other predicate.
pub fn exact_conjuncts(predicate: &Expr, schema: &Schema) -> Option<Vec<ColumnPredicate>> {
    (split_conjuncts(predicate).iter())
        .map(|e| comparison(e, schema).filter(|p| p.exact_on(schema.field(p.col).data_type())))
        .collect()
}

/// The `WHERE` clause a scan evaluates on its column buffers, in place of
/// the `FilterExec` it replaces.
#[derive(Debug, Clone)]
pub struct ScanFilter {
    /// The filter's predicate, as written.
    predicate: Expr,
    /// Its conjuncts, in evaluation order.
    conjuncts: Vec<ColumnPredicate>,
}

impl ScanFilter {
    /// The filter for `predicate` over `schema` when it is an `AND` of
    /// exactly comparable conjuncts ([`exact_conjuncts`]); `None`
    /// otherwise, and a `FilterExec` must evaluate it.
    pub fn new(predicate: &Expr, schema: &Schema) -> Option<Self> {
        exact_conjuncts(predicate, schema).map(|conjuncts| ScanFilter {
            predicate: predicate.clone(),
            conjuncts,
        })
    }

    /// The predicate, as written.
    pub fn predicate(&self) -> &Expr {
        &self.predicate
    }

    /// Narrow `batch`'s selection to the rows the predicate is TRUE on
    /// ([`select`](Self::select)).
    pub fn apply(&self, batch: &mut ColumnBatch) -> Result<()> {
        let rows = self.select(batch.columns(), batch.selection())?;
        batch.set_selection(rows);
        Ok(())
    }

    /// The rows among `candidates` — ascending physical rows of `columns` — that
    /// the predicate evaluates to TRUE on. Kleene `AND` evaluates the
    /// conjuncts left to right and stops at the first FALSE, so a row
    /// stays a candidate while its conjuncts are TRUE or NULL, and only a
    /// NULL-free row passes. A comparison that fails (a NaN) is an error
    /// unless an earlier conjunct is FALSE on that row; then the rows are
    /// evaluated one by one through `Expr::evaluate`, exactly as the
    /// `FilterExec` would, which raises its error.
    pub fn select(&self, columns: &[BatchColumn], candidates: &[usize]) -> Result<Vec<usize>> {
        let mut rows = candidates.to_vec();
        let mut unknown = vec![false; rows.len()];
        for conjunct in &self.conjuncts {
            let col = &columns[conjunct.col];
            let mut kept = 0;
            for j in 0..rows.len() {
                match conjunct.truth(col, rows[j]) {
                    Truth::False => continue,
                    Truth::True => {}
                    Truth::Unknown => unknown[j] = true,
                    Truth::Incomparable => return self.select_by_rows(columns, candidates),
                }
                rows[kept] = rows[j];
                unknown[kept] = unknown[j];
                kept += 1;
            }
            rows.truncate(kept);
            unknown.truncate(kept);
        }
        let mut known = unknown.iter();
        rows.retain(|_| known.next() == Some(&false));
        Ok(rows)
    }

    fn select_by_rows(&self, columns: &[BatchColumn], rows: &[usize]) -> Result<Vec<usize>> {
        let mut selected = Vec::new();
        for &i in rows {
            let row = Row::new(columns.iter().map(|c| c.value(i)).collect());
            if self.predicate.evaluate(&row)? == Value::Boolean(true) {
                selected.push(i);
            }
        }
        Ok(selected)
    }

    /// The conjuncts in `column <op> literal` form, joined by `AND`, with
    /// `schema`'s column names: what `EXPLAIN` shows after `filter:`.
    pub fn describe(&self, schema: &Schema) -> String {
        let conjuncts: Vec<String> = (self.conjuncts.iter())
            .map(|c| {
                let column = schema.field(c.col).name();
                format!("{column} {} {}", c.op.symbol(), c.literal)
            })
            .collect();
        conjuncts.join(" AND ")
    }
}

/// The `Float64` columns `predicate` reads in `schema`: a NaN in one of
/// them may make the predicate fail.
pub fn float_columns(predicate: &Expr, schema: &Schema) -> Vec<usize> {
    let mut columns = Vec::new();
    predicate.referenced_indices(&mut columns);
    columns.retain(|&c| c < schema.len() && schema.field(c).data_type() == DataType::Float64);
    columns
}
