//! Expression trees.
//!
//! Expressions start out *unresolved* (named [`Expr::Column`] references,
//! untyped aggregates) as produced by the parser or the DataFrame API, and
//! are rewritten by the analyzer into *bound* form ([`Expr::BoundColumn`]
//! with input positions) before optimization and execution. This mirrors
//! Spark's single-AST design where resolution is a tree rewrite rather than
//! a change of type.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use sparkline_common::{DataType, Error, Field, Result, Row, Schema, SkylineType, Value};

use crate::logical::LogicalPlan;

/// An unresolved column reference `[qualifier.]name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    /// Relation qualifier, e.g. `hotels` in `hotels.price`.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl Column {
    /// Unqualified reference.
    pub fn new(name: impl Into<String>) -> Self {
        Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Qualified reference.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// A column reference resolved to a position in the input schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundColumn {
    /// Position in the input row.
    pub index: usize,
    /// The resolved field (name, type, nullability, qualifier).
    pub field: Field,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// Logical conjunction (Kleene three-valued).
    And,
    /// Logical disjunction (Kleene three-valued).
    Or,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Multiply,
    /// `/` (NULL on division by zero, like Spark).
    Divide,
    /// `%` (NULL on modulo by zero).
    Modulo,
}

impl BinaryOp {
    /// Whether this is a comparison producing a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// Whether this is a boolean connective.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// SQL token for display.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `count(expr)` / `count(*)` when the argument is absent.
    Count,
    /// `sum(expr)` over non-NULL values.
    Sum,
    /// `min(expr)` over non-NULL values.
    Min,
    /// `max(expr)` over non-NULL values.
    Max,
    /// `avg(expr)` over non-NULL values.
    Avg,
}

impl AggregateFunction {
    /// Function name in SQL.
    pub fn name(self) -> &'static str {
        match self {
            AggregateFunction::Count => "count",
            AggregateFunction::Sum => "sum",
            AggregateFunction::Min => "min",
            AggregateFunction::Max => "max",
            AggregateFunction::Avg => "avg",
        }
    }

    /// Parse a function name into an aggregate, if it is one.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggregateFunction::Count),
            "sum" => Some(AggregateFunction::Sum),
            "min" => Some(AggregateFunction::Min),
            "max" => Some(AggregateFunction::Max),
            "avg" => Some(AggregateFunction::Avg),
            _ => None,
        }
    }

    /// Output type given the input type.
    pub fn output_type(self, input: DataType) -> DataType {
        match self {
            AggregateFunction::Count => DataType::Int64,
            AggregateFunction::Avg => DataType::Float64,
            AggregateFunction::Sum => {
                if input == DataType::Float64 {
                    DataType::Float64
                } else {
                    DataType::Int64
                }
            }
            AggregateFunction::Min | AggregateFunction::Max => input,
        }
    }
}

/// Scalar (non-aggregate) functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunction {
    /// `ifnull(a, b)`: `a` unless it is NULL, else `b`.
    IfNull,
    /// `coalesce(a, b, ...)`: first non-NULL argument.
    Coalesce,
    /// `abs(a)`.
    Abs,
}

impl ScalarFunction {
    /// Function name in SQL.
    pub fn name(self) -> &'static str {
        match self {
            ScalarFunction::IfNull => "ifnull",
            ScalarFunction::Coalesce => "coalesce",
            ScalarFunction::Abs => "abs",
        }
    }

    /// Parse a function name into a scalar function, if it is one.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "ifnull" | "nvl" => Some(ScalarFunction::IfNull),
            "coalesce" => Some(ScalarFunction::Coalesce),
            "abs" => Some(ScalarFunction::Abs),
            _ => None,
        }
    }
}

/// A skyline dimension in the logical plan: a child expression plus its
/// `MIN`/`MAX`/`DIFF` type (paper §5.2: `SkylineDimension` extends the
/// default expression and stores the database dimension as its child so
/// that the analyzer's generic expression resolution applies to it).
#[derive(Debug, Clone, PartialEq)]
pub struct SkylineDimension {
    /// The dimension expression (usually a column, possibly an aggregate).
    pub child: Expr,
    /// MIN / MAX / DIFF.
    pub ty: SkylineType,
}

impl SkylineDimension {
    /// Shorthand constructor.
    pub fn new(child: Expr, ty: SkylineType) -> Self {
        SkylineDimension { child, ty }
    }
}

impl fmt::Display for SkylineDimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.child, self.ty)
    }
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortExpr {
    /// Key expression.
    pub expr: Expr,
    /// Ascending?
    pub asc: bool,
    /// NULLs first? (Spark default: NULLS FIRST for ASC, NULLS LAST for DESC.)
    pub nulls_first: bool,
}

impl SortExpr {
    /// An ascending key with Spark's default null ordering.
    pub fn asc(expr: Expr) -> Self {
        SortExpr {
            expr,
            asc: true,
            nulls_first: true,
        }
    }

    /// A descending key with Spark's default null ordering.
    pub fn desc(expr: Expr) -> Self {
        SortExpr {
            expr,
            asc: false,
            nulls_first: false,
        }
    }
}

impl fmt::Display for SortExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}{}",
            self.expr,
            if self.asc { "ASC" } else { "DESC" },
            if self.nulls_first == self.asc {
                ""
            } else if self.nulls_first {
                " NULLS FIRST"
            } else {
                " NULLS LAST"
            }
        )
    }
}

/// An expression tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Unresolved `[qualifier.]name` reference.
    Column(Column),
    /// Reference bound to an input position.
    BoundColumn(BoundColumn),
    /// Reference to a column of the *outer* query, bound to a position in
    /// the outer row. Appears only inside correlated subqueries.
    OuterColumn(BoundColumn),
    /// Constant.
    Literal(Value),
    /// `left op right`.
    BinaryOp {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL` (negated = true).
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
    /// `- expr`.
    Negate(Box<Expr>),
    /// Scalar function call.
    ScalarFn {
        /// The function.
        func: ScalarFunction,
        /// Its arguments.
        args: Vec<Expr>,
    },
    /// Aggregate function call; only valid beneath an `Aggregate` node
    /// (the analyzer hoists it there and replaces it with a bound column).
    Aggregate {
        /// The aggregate function.
        func: AggregateFunction,
        /// `None` encodes `count(*)`.
        arg: Option<Box<Expr>>,
    },
    /// `expr AS name`.
    Alias {
        /// The aliased expression.
        expr: Box<Expr>,
        /// The output name.
        name: String,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// The expression to convert.
        expr: Box<Expr>,
        /// The target type.
        to: DataType,
    },
    /// `*` or `qualifier.*` in a projection (expanded by the analyzer).
    Wildcard {
        /// `Some` for `qualifier.*`, `None` for a bare `*`.
        qualifier: Option<String>,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The (correlated) subquery plan.
        subquery: Arc<LogicalPlan>,
        /// `true` for `NOT EXISTS`.
        negated: bool,
    },
}

impl Expr {
    /// Column reference shorthand.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(Column::new(name))
    }

    /// Qualified column reference shorthand.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column(Column::qualified(qualifier, name))
    }

    /// Literal shorthand.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// `self AS name`.
    pub fn alias(self, name: impl Into<String>) -> Expr {
        Expr::Alias {
            expr: Box::new(self),
            name: name.into(),
        }
    }

    /// Build `self op other`.
    pub fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Lt, other)
    }

    /// `self <= other`.
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Gt, other)
    }

    /// `self >= other`.
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, other)
    }

    /// Direct children of this expression.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Column(_)
            | Expr::BoundColumn(_)
            | Expr::OuterColumn(_)
            | Expr::Literal(_)
            | Expr::Wildcard { .. }
            | Expr::Exists { .. } => vec![],
            Expr::BinaryOp { left, right, .. } => vec![left, right],
            Expr::Not(e) | Expr::Negate(e) => vec![e],
            Expr::IsNull { expr, .. } => vec![expr],
            Expr::ScalarFn { args, .. } => args.iter().collect(),
            Expr::Aggregate { arg, .. } => arg.iter().map(|b| b.as_ref()).collect(),
            Expr::Alias { expr, .. } => vec![expr],
            Expr::Cast { expr, .. } => vec![expr],
        }
    }

    /// Rebuild this node with transformed children, bottom-up. `f` is
    /// applied to every node after its children have been rewritten.
    pub fn transform_up(self, f: &mut dyn FnMut(Expr) -> Result<Expr>) -> Result<Expr> {
        let rewritten = match self {
            Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
                left: Box::new(left.transform_up(f)?),
                op,
                right: Box::new(right.transform_up(f)?),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.transform_up(f)?)),
            Expr::Negate(e) => Expr::Negate(Box::new(e.transform_up(f)?)),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform_up(f)?),
                negated,
            },
            Expr::ScalarFn { func, args } => Expr::ScalarFn {
                func,
                args: args
                    .into_iter()
                    .map(|a| a.transform_up(f))
                    .collect::<Result<_>>()?,
            },
            Expr::Aggregate { func, arg } => Expr::Aggregate {
                func,
                arg: match arg {
                    Some(a) => Some(Box::new(a.transform_up(f)?)),
                    None => None,
                },
            },
            Expr::Alias { expr, name } => Expr::Alias {
                expr: Box::new(expr.transform_up(f)?),
                name,
            },
            Expr::Cast { expr, to } => Expr::Cast {
                expr: Box::new(expr.transform_up(f)?),
                to,
            },
            leaf => leaf,
        };
        f(rewritten)
    }

    /// Top-down transformation: `f` rewrites each node *before* its
    /// children are visited; children of the rewritten node are then
    /// transformed. Useful when a whole subtree should be replaced (e.g.
    /// matching a group expression during aggregate compilation).
    pub fn transform_down(self, f: &mut dyn FnMut(Expr) -> Result<Expr>) -> Result<Expr> {
        let rewritten = f(self)?;
        Ok(match rewritten {
            Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
                left: Box::new(left.transform_down(f)?),
                op,
                right: Box::new(right.transform_down(f)?),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.transform_down(f)?)),
            Expr::Negate(e) => Expr::Negate(Box::new(e.transform_down(f)?)),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform_down(f)?),
                negated,
            },
            Expr::ScalarFn { func, args } => Expr::ScalarFn {
                func,
                args: args
                    .into_iter()
                    .map(|a| a.transform_down(f))
                    .collect::<Result<_>>()?,
            },
            Expr::Aggregate { func, arg } => Expr::Aggregate {
                func,
                arg: match arg {
                    Some(a) => Some(Box::new(a.transform_down(f)?)),
                    None => None,
                },
            },
            Expr::Alias { expr, name } => Expr::Alias {
                expr: Box::new(expr.transform_down(f)?),
                name,
            },
            Expr::Cast { expr, to } => Expr::Cast {
                expr: Box::new(expr.transform_down(f)?),
                to,
            },
            leaf => leaf,
        })
    }

    /// Whether the whole tree is resolved (no named columns or wildcards;
    /// `Exists` subqueries must be resolved plans).
    pub fn resolved(&self) -> bool {
        match self {
            Expr::Column(_) | Expr::Wildcard { .. } => false,
            Expr::Exists { subquery, .. } => subquery.resolved(),
            _ => self.children().iter().all(|c| c.resolved()),
        }
    }

    /// Whether the tree contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            _ => self.children().iter().any(|c| c.contains_aggregate()),
        }
    }

    /// Collect all bound input positions referenced by this tree
    /// (excluding outer references).
    pub fn referenced_indices(&self, out: &mut Vec<usize>) {
        match self {
            Expr::BoundColumn(c) => out.push(c.index),
            Expr::Exists { subquery, .. } => {
                // Outer references inside the subquery point at *our*
                // input; collect them so pruning keeps those columns.
                collect_outer_refs(subquery, out);
            }
            _ => {
                for c in self.children() {
                    c.referenced_indices(out);
                }
            }
        }
    }

    /// The output column name this expression produces in a projection,
    /// following Spark's conventions (alias > column name > canonical text).
    pub fn output_name(&self) -> String {
        match self {
            Expr::Alias { name, .. } => name.clone(),
            Expr::Column(c) => c.name.clone(),
            Expr::BoundColumn(c) | Expr::OuterColumn(c) => c.field.name().to_string(),
            other => other.to_string(),
        }
    }

    /// The field this (resolved) expression contributes to an output
    /// schema, given its input schema.
    pub fn to_field(&self, input: &Schema) -> Result<Field> {
        let (dt, nullable) = self.data_type_and_nullable(input)?;
        Ok(match self {
            Expr::BoundColumn(c) => c.field.clone(),
            Expr::Alias { expr, name } => {
                let inner = expr.to_field(input)?;
                Field::new(name.clone(), inner.data_type(), inner.nullable())
            }
            _ => Field::new(self.output_name(), dt, nullable),
        })
    }

    /// Type and nullability of a resolved expression.
    #[allow(clippy::only_used_in_recursion)]
    pub fn data_type_and_nullable(&self, input: &Schema) -> Result<(DataType, bool)> {
        match self {
            Expr::Column(c) => Err(Error::internal(format!(
                "cannot type unresolved column '{c}'"
            ))),
            Expr::Wildcard { .. } => Err(Error::internal("cannot type unexpanded wildcard")),
            Expr::BoundColumn(c) | Expr::OuterColumn(c) => {
                Ok((c.field.data_type(), c.field.nullable()))
            }
            Expr::Literal(v) => Ok((v.data_type(), v.is_null())),
            Expr::BinaryOp { left, op, right } => {
                let (lt, ln) = left.data_type_and_nullable(input)?;
                let (rt, rn) = right.data_type_and_nullable(input)?;
                let nullable = ln || rn;
                if op.is_comparison() || op.is_logical() {
                    return Ok((DataType::Boolean, nullable));
                }
                let common = lt.common_type(rt).ok_or_else(|| {
                    Error::analysis(format!(
                        "incompatible operand types {lt} and {rt} for operator {}",
                        op.symbol()
                    ))
                })?;
                // Integer division stays integral (Spark's `div` is `/` on
                // doubles; we follow Rust/ANSI semantics for BIGINT).
                Ok((common, nullable || *op == BinaryOp::Divide))
            }
            Expr::Not(e) => {
                let (_, n) = e.data_type_and_nullable(input)?;
                Ok((DataType::Boolean, n))
            }
            Expr::IsNull { .. } => Ok((DataType::Boolean, false)),
            Expr::Negate(e) => e.data_type_and_nullable(input),
            Expr::ScalarFn { func, args } => match func {
                ScalarFunction::IfNull | ScalarFunction::Coalesce => {
                    let mut ty = DataType::Null;
                    let mut all_nullable = true;
                    for a in args {
                        let (at, an) = a.data_type_and_nullable(input)?;
                        ty = ty.common_type(at).ok_or_else(|| {
                            Error::analysis(format!(
                                "incompatible argument types in {}",
                                func.name()
                            ))
                        })?;
                        all_nullable &= an;
                    }
                    Ok((ty, all_nullable))
                }
                ScalarFunction::Abs => args[0].data_type_and_nullable(input),
            },
            Expr::Aggregate { func, arg } => {
                let input_ty = match arg {
                    Some(a) => a.data_type_and_nullable(input)?.0,
                    None => DataType::Int64,
                };
                let nullable = !matches!(func, AggregateFunction::Count);
                Ok((func.output_type(input_ty), nullable))
            }
            Expr::Alias { expr, .. } => expr.data_type_and_nullable(input),
            Expr::Cast { expr, to } => {
                let (_, n) = expr.data_type_and_nullable(input)?;
                Ok((*to, n))
            }
            Expr::Exists { .. } => Ok((DataType::Boolean, false)),
        }
    }

    /// Evaluate a fully bound, aggregate-free expression against a row.
    pub fn evaluate(&self, row: &Row) -> Result<Value> {
        self.evaluate_inner(row, None)
    }

    /// Evaluate against a pair of rows (join predicate evaluation): bound
    /// indices `< split` read from `left`, the rest from `right` at
    /// `index - split`.
    pub fn evaluate_joined(&self, left: &Row, right: &Row, split: usize) -> Result<Value> {
        self.evaluate_inner(left, Some((right, split)))
    }

    fn evaluate_inner(&self, row: &Row, joined: Option<(&Row, usize)>) -> Result<Value> {
        let fetch = |index: usize| -> &Value {
            match joined {
                Some((right, split)) if index >= split => right.get(index - split),
                _ => row.get(index),
            }
        };
        match self {
            Expr::BoundColumn(c) => Ok(fetch(c.index).clone()),
            Expr::OuterColumn(c) => Err(Error::internal(format!(
                "unbound outer reference to {} during evaluation",
                c.field.qualified_name()
            ))),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::BinaryOp { left, op, right } => {
                // Short-circuit Kleene logic for AND/OR.
                if *op == BinaryOp::And || *op == BinaryOp::Or {
                    return evaluate_logical(left.evaluate_inner(row, joined)?, *op, || {
                        right.evaluate_inner(row, joined)
                    });
                }
                let l = left.evaluate_inner(row, joined)?;
                let r = right.evaluate_inner(row, joined)?;
                evaluate_binary(&l, *op, &r)
            }
            Expr::Not(e) => match e.evaluate_inner(row, joined)? {
                Value::Null => Ok(Value::Null),
                Value::Boolean(b) => Ok(Value::Boolean(!b)),
                other => Err(Error::execution(format!("NOT applied to {other}"))),
            },
            Expr::IsNull { expr, negated } => {
                let v = expr.evaluate_inner(row, joined)?;
                Ok(Value::Boolean(v.is_null() != *negated))
            }
            Expr::Negate(e) => match e.evaluate_inner(row, joined)? {
                Value::Null => Ok(Value::Null),
                Value::Int64(i) => Ok(Value::Int64(-i)),
                Value::Float64(f) => Ok(Value::Float64(-f)),
                other => Err(Error::execution(format!("cannot negate {other}"))),
            },
            Expr::ScalarFn { func, args } => match func {
                ScalarFunction::IfNull | ScalarFunction::Coalesce => {
                    for a in args {
                        let v = a.evaluate_inner(row, joined)?;
                        if !v.is_null() {
                            return Ok(v);
                        }
                    }
                    Ok(Value::Null)
                }
                ScalarFunction::Abs => match args[0].evaluate_inner(row, joined)? {
                    Value::Null => Ok(Value::Null),
                    Value::Int64(i) => Ok(Value::Int64(i.abs())),
                    Value::Float64(f) => Ok(Value::Float64(f.abs())),
                    other => Err(Error::execution(format!("abs() applied to {other}"))),
                },
            },
            Expr::Aggregate { func, .. } => Err(Error::internal(format!(
                "aggregate {}() evaluated outside an Aggregate node",
                func.name()
            ))),
            Expr::Alias { expr, .. } => expr.evaluate_inner(row, joined),
            Expr::Cast { expr, to } => {
                let v = expr.evaluate_inner(row, joined)?;
                v.cast_to(*to)
                    .ok_or_else(|| Error::execution(format!("cannot cast {v} to {to}")))
            }
            Expr::Column(c) => Err(Error::internal(format!(
                "unresolved column '{c}' during evaluation"
            ))),
            Expr::Wildcard { .. } => Err(Error::internal("wildcard during evaluation")),
            Expr::Exists { .. } => Err(Error::internal(
                "EXISTS must be planned as a semi/anti join before execution",
            )),
        }
    }
}

/// Split a predicate into its top-level `AND` conjuncts, in evaluation
/// order (left to right).
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::BinaryOp {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut v = split_conjuncts(left);
            v.extend(split_conjuncts(right));
            v
        }
        other => vec![other.clone()],
    }
}

/// `AND` together a list of conjuncts (`None` for the empty list).
pub fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts.into_iter().reduce(|a, b| a.and(b))
}

/// Kleene three-valued AND/OR with short-circuiting.
fn evaluate_logical(
    left: Value,
    op: BinaryOp,
    right: impl FnOnce() -> Result<Value>,
) -> Result<Value> {
    let lb = match &left {
        Value::Null => None,
        Value::Boolean(b) => Some(*b),
        other => {
            return Err(Error::execution(format!(
                "{} applied to {other}",
                op.symbol()
            )))
        }
    };
    match (op, lb) {
        (BinaryOp::And, Some(false)) => return Ok(Value::Boolean(false)),
        (BinaryOp::Or, Some(true)) => return Ok(Value::Boolean(true)),
        _ => {}
    }
    let rv = right()?;
    let rb = match &rv {
        Value::Null => None,
        Value::Boolean(b) => Some(*b),
        other => {
            return Err(Error::execution(format!(
                "{} applied to {other}",
                op.symbol()
            )))
        }
    };
    let out = match op {
        BinaryOp::And => match (lb, rb) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinaryOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!(),
    };
    Ok(out.map(Value::Boolean).unwrap_or(Value::Null))
}

/// Evaluate a non-logical binary operator with SQL NULL semantics.
fn evaluate_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.sql_compare(r).ok_or_else(|| {
            Error::execution(format!(
                "cannot compare {} with {}",
                l.data_type(),
                r.data_type()
            ))
        })?;
        let b = match op {
            BinaryOp::Eq => ord == Ordering::Equal,
            BinaryOp::NotEq => ord != Ordering::Equal,
            BinaryOp::Lt => ord == Ordering::Less,
            BinaryOp::LtEq => ord != Ordering::Greater,
            BinaryOp::Gt => ord == Ordering::Greater,
            BinaryOp::GtEq => ord != Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Boolean(b));
    }
    // Arithmetic with Int64/Float64 promotion.
    let result = match (l, r) {
        (Value::Int64(a), Value::Int64(b)) => {
            let a = *a;
            let b = *b;
            match op {
                BinaryOp::Plus => a.checked_add(b).map(Value::Int64),
                BinaryOp::Minus => a.checked_sub(b).map(Value::Int64),
                BinaryOp::Multiply => a.checked_mul(b).map(Value::Int64),
                BinaryOp::Divide => {
                    if b == 0 {
                        return Ok(Value::Null); // Spark: x / 0 -> NULL
                    }
                    a.checked_div(b).map(Value::Int64)
                }
                BinaryOp::Modulo => {
                    if b == 0 {
                        return Ok(Value::Null);
                    }
                    a.checked_rem(b).map(Value::Int64)
                }
                _ => unreachable!(),
            }
        }
        _ => {
            let fa = numeric_as_f64(l)?;
            let fb = numeric_as_f64(r)?;
            let v = match op {
                BinaryOp::Plus => fa + fb,
                BinaryOp::Minus => fa - fb,
                BinaryOp::Multiply => fa * fb,
                BinaryOp::Divide => {
                    if fb == 0.0 {
                        return Ok(Value::Null);
                    }
                    fa / fb
                }
                BinaryOp::Modulo => {
                    if fb == 0.0 {
                        return Ok(Value::Null);
                    }
                    fa % fb
                }
                _ => unreachable!(),
            };
            Some(Value::Float64(v))
        }
    };
    result.ok_or_else(|| {
        Error::execution(format!(
            "arithmetic overflow evaluating {l} {} {r}",
            op.symbol()
        ))
    })
}

fn numeric_as_f64(v: &Value) -> Result<f64> {
    match v {
        Value::Int64(i) => Ok(*i as f64),
        Value::Float64(f) => Ok(*f),
        other => Err(Error::execution(format!(
            "expected a numeric value, got {other}"
        ))),
    }
}

/// Collect outer-reference indices appearing anywhere in a subquery plan.
fn collect_outer_refs(plan: &LogicalPlan, out: &mut Vec<usize>) {
    plan.visit_expressions(&mut |e| {
        if let Expr::OuterColumn(c) = e {
            out.push(c.index);
        }
    });
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::BoundColumn(c) => write!(f, "{}#{}", c.field.qualified_name(), c.index),
            Expr::OuterColumn(c) => write!(f, "outer({}#{})", c.field.qualified_name(), c.index),
            Expr::Literal(v) => match v {
                Value::Utf8(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::BinaryOp { left, op, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Negate(e) => write!(f, "(- {e})"),
            Expr::ScalarFn { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Aggregate { func, arg } => match arg {
                Some(a) => write!(f, "{}({a})", func.name()),
                None => write!(f, "{}(*)", func.name()),
            },
            Expr::Alias { expr, name } => write!(f, "{expr} AS {name}"),
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Wildcard { qualifier } => match qualifier {
                Some(q) => write!(f, "{q}.*"),
                None => f.write_str("*"),
            },
            Expr::Exists { negated, .. } => {
                write!(
                    f,
                    "{}EXISTS(<subquery>)",
                    if *negated { "NOT " } else { "" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(index: usize, name: &str, dt: DataType) -> Expr {
        Expr::BoundColumn(BoundColumn {
            index,
            field: Field::new(name, dt, true),
        })
    }

    fn row(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    #[test]
    fn evaluate_comparisons() {
        let e = bound(0, "a", DataType::Int64).lt(Expr::lit(5i64));
        assert_eq!(
            e.evaluate(&row(vec![Value::Int64(3)])).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            e.evaluate(&row(vec![Value::Int64(7)])).unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(e.evaluate(&row(vec![Value::Null])).unwrap(), Value::Null);
    }

    #[test]
    fn evaluate_arithmetic() {
        let e = bound(0, "a", DataType::Int64)
            .binary(BinaryOp::Plus, Expr::lit(10i64))
            .binary(BinaryOp::Multiply, Expr::lit(2i64));
        assert_eq!(
            e.evaluate(&row(vec![Value::Int64(5)])).unwrap(),
            Value::Int64(30)
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::lit(1i64).binary(BinaryOp::Divide, Expr::lit(0i64));
        assert_eq!(e.evaluate(&Row::empty()).unwrap(), Value::Null);
        let f = Expr::lit(1.0).binary(BinaryOp::Modulo, Expr::lit(0.0));
        assert_eq!(f.evaluate(&Row::empty()).unwrap(), Value::Null);
    }

    #[test]
    fn kleene_logic() {
        let t = Expr::lit(true);
        let fls = Expr::lit(false);
        let null = Expr::Literal(Value::Null);
        assert_eq!(
            fls.clone()
                .and(null.clone())
                .evaluate(&Row::empty())
                .unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(
            null.clone()
                .and(fls.clone())
                .evaluate(&Row::empty())
                .unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(
            t.clone().and(null.clone()).evaluate(&Row::empty()).unwrap(),
            Value::Null
        );
        assert_eq!(
            t.clone().or(null.clone()).evaluate(&Row::empty()).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            null.clone().or(t).evaluate(&Row::empty()).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            null.clone().or(fls).evaluate(&Row::empty()).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn is_null_and_not() {
        let e = Expr::IsNull {
            expr: Box::new(bound(0, "a", DataType::Int64)),
            negated: false,
        };
        assert_eq!(
            e.evaluate(&row(vec![Value::Null])).unwrap(),
            Value::Boolean(true)
        );
        let n = Expr::Not(Box::new(Expr::lit(true)));
        assert_eq!(n.evaluate(&Row::empty()).unwrap(), Value::Boolean(false));
    }

    #[test]
    fn ifnull_and_coalesce() {
        let e = Expr::ScalarFn {
            func: ScalarFunction::IfNull,
            args: vec![bound(0, "a", DataType::Int64), Expr::lit(0i64)],
        };
        assert_eq!(
            e.evaluate(&row(vec![Value::Null])).unwrap(),
            Value::Int64(0)
        );
        assert_eq!(
            e.evaluate(&row(vec![Value::Int64(7)])).unwrap(),
            Value::Int64(7)
        );
        let c = Expr::ScalarFn {
            func: ScalarFunction::Coalesce,
            args: vec![
                Expr::Literal(Value::Null),
                Expr::Literal(Value::Null),
                Expr::lit(3i64),
            ],
        };
        assert_eq!(c.evaluate(&Row::empty()).unwrap(), Value::Int64(3));
    }

    #[test]
    fn joined_evaluation_splits_indices() {
        // Predicate over a pair: left has 2 columns, right has 1.
        let pred = bound(0, "l", DataType::Int64).lt(bound(2, "r", DataType::Int64));
        let left = row(vec![Value::Int64(1), Value::Int64(99)]);
        let right = row(vec![Value::Int64(5)]);
        assert_eq!(
            pred.evaluate_joined(&left, &right, 2).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn output_names() {
        assert_eq!(Expr::col("x").output_name(), "x");
        assert_eq!(Expr::col("x").alias("y").output_name(), "y");
        let agg = Expr::Aggregate {
            func: AggregateFunction::Sum,
            arg: Some(Box::new(Expr::col("x"))),
        };
        assert_eq!(agg.output_name(), "sum(x)");
    }

    #[test]
    fn resolution_tracking() {
        assert!(!Expr::col("x").resolved());
        assert!(bound(0, "x", DataType::Int64).resolved());
        assert!(!Expr::col("x").lt(Expr::lit(1i64)).resolved());
        assert!(!Expr::Wildcard { qualifier: None }.resolved());
    }

    #[test]
    fn transform_up_rewrites_leaves() {
        let e = Expr::col("a").lt(Expr::col("b"));
        let rewritten = e
            .transform_up(&mut |node| {
                Ok(match node {
                    Expr::Column(c) if c.name == "a" => Expr::lit(1i64),
                    other => other,
                })
            })
            .unwrap();
        assert_eq!(rewritten.to_string(), "(1 < b)");
    }

    #[test]
    fn referenced_indices_collects() {
        let e = bound(3, "a", DataType::Int64).lt(bound(1, "b", DataType::Int64));
        let mut idx = vec![];
        e.referenced_indices(&mut idx);
        idx.sort_unstable();
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn type_derivation() {
        let schema = Schema::new(vec![]);
        let cmp = Expr::lit(1i64).lt(Expr::lit(2.0));
        assert_eq!(
            cmp.data_type_and_nullable(&schema).unwrap().0,
            DataType::Boolean
        );
        let arith = Expr::lit(1i64).binary(BinaryOp::Plus, Expr::lit(2.0));
        assert_eq!(
            arith.data_type_and_nullable(&schema).unwrap().0,
            DataType::Float64
        );
        let bad = Expr::lit("s").binary(BinaryOp::Plus, Expr::lit(1i64));
        assert!(bad.data_type_and_nullable(&schema).is_err());
    }

    #[test]
    fn aggregate_types() {
        assert_eq!(
            AggregateFunction::Count.output_type(DataType::Utf8),
            DataType::Int64
        );
        assert_eq!(
            AggregateFunction::Avg.output_type(DataType::Int64),
            DataType::Float64
        );
        assert_eq!(
            AggregateFunction::Sum.output_type(DataType::Int64),
            DataType::Int64
        );
        assert_eq!(
            AggregateFunction::Min.output_type(DataType::Utf8),
            DataType::Utf8
        );
        assert_eq!(
            AggregateFunction::from_name("SUM"),
            Some(AggregateFunction::Sum)
        );
        assert_eq!(AggregateFunction::from_name("nope"), None);
    }

    #[test]
    fn display_round_trip_shapes() {
        let e = Expr::qcol("t", "a")
            .lt_eq(Expr::lit(3i64))
            .and(Expr::Not(Box::new(Expr::IsNull {
                expr: Box::new(Expr::col("b")),
                negated: false,
            })));
        assert_eq!(e.to_string(), "((t.a <= 3) AND (NOT (b IS NULL)))");
    }

    #[test]
    fn string_equality() {
        let e = Expr::lit("abc").eq(Expr::lit("abc"));
        assert_eq!(e.evaluate(&Row::empty()).unwrap(), Value::Boolean(true));
    }

    #[test]
    fn overflow_is_an_error() {
        let e = Expr::lit(i64::MAX).binary(BinaryOp::Plus, Expr::lit(1i64));
        assert!(e.evaluate(&Row::empty()).is_err());
    }
}
