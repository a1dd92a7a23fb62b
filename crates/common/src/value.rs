//! Dynamically typed scalar values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::types::DataType;

/// A dynamically typed scalar value flowing through the engine.
///
/// Strings are reference-counted (`Arc<str>`) because rows are cloned when
/// they enter skyline windows, hash tables, and exchanges; cloning a `Value`
/// is therefore always cheap.
///
/// # Equality and ordering semantics
///
/// `Value` implements **total** equality and hashing, which is what grouping,
/// distinct, and join hash tables need (`NULL` equals `NULL`, `NaN` equals
/// `NaN`, `-0.0` equals `0.0`). SQL's *three-valued* comparison semantics
/// (where `NULL = NULL` is unknown) are provided separately by
/// [`Value::sql_compare`] and used by the expression evaluator and the
/// dominance checker.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / missing value (the paper's `*` placeholder).
    Null,
    /// Boolean.
    Boolean(bool),
    /// 64-bit signed integer.
    Int64(i64),
    /// 64-bit float.
    Float64(f64),
    /// UTF-8 string.
    Utf8(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Utf8(Arc::from(s.as_ref()))
    }

    /// The logical type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Boolean(_) => DataType::Boolean,
            Value::Int64(_) => DataType::Int64,
            Value::Float64(_) => DataType::Float64,
            Value::Utf8(_) => DataType::Utf8,
        }
    }

    /// Whether this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL comparison: returns `None` if either side is NULL or the types
    /// are incomparable; otherwise the ordering after numeric promotion.
    ///
    /// Integers compare to floats without loss by promoting through `f64`
    /// only when necessary; pure integer comparisons stay exact (the paper's
    /// dominance utility "matches the data type to avoid costly casting and
    /// potential loss of accuracy").
    pub fn sql_compare(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Int64(a), Int64(b)) => Some(a.cmp(b)),
            (Float64(a), Float64(b)) => a.partial_cmp(b),
            (Int64(a), Float64(b)) => compare_int_float(*a, *b),
            (Float64(a), Int64(b)) => compare_int_float(*b, *a).map(Ordering::reverse),
            (Utf8(a), Utf8(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// Total ordering for `ORDER BY` and sort operators: NULLs sort first
    /// (Spark's default `NULLS FIRST` for ascending order), NaN sorts last
    /// among floats, and numeric types are promoted.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (Int64(a), Float64(b)) => {
                compare_int_float(*a, *b).unwrap_or_else(|| (*a as f64).total_cmp(b))
            }
            (Float64(a), Int64(b)) => compare_int_float(*b, *a)
                .map(Ordering::reverse)
                .unwrap_or_else(|| a.total_cmp(&(*b as f64))),
            _ => self
                .sql_compare(other)
                // Incompatible types should have been rejected by the
                // analyzer; fall back to a stable order by type tag.
                .unwrap_or_else(|| self.type_tag().cmp(&other.type_tag())),
        }
    }

    /// Cast this value to `target`, if a lossless or standard SQL cast
    /// exists. `Null` casts to anything.
    pub fn cast_to(&self, target: DataType) -> Option<Value> {
        use Value::*;
        match (self, target) {
            (Null, _) => Some(Null),
            (v, t) if v.data_type() == t => Some(v.clone()),
            (Int64(i), DataType::Float64) => Some(Float64(*i as f64)),
            (Float64(f), DataType::Int64) => {
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    Some(Int64(*f as i64))
                } else {
                    None
                }
            }
            (Boolean(b), DataType::Int64) => Some(Int64(i64::from(*b))),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes, used by the runtime's
    /// memory accounting (reproducing the paper's memory measurements).
    pub fn estimated_bytes(&self) -> usize {
        match self {
            Value::Null => 8,
            Value::Boolean(_) => 8,
            Value::Int64(_) => 8,
            Value::Float64(_) => 8,
            // Arc header + string payload.
            Value::Utf8(s) => 16 + s.len(),
        }
    }

    fn type_tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Boolean(_) => 1,
            Value::Int64(_) => 2,
            Value::Float64(_) => 3,
            Value::Utf8(_) => 4,
        }
    }

    /// Canonical bit pattern for float hashing: all NaNs collapse to one
    /// pattern and `-0.0` collapses to `0.0` so that total equality and
    /// hashing agree.
    fn canonical_f64_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0f64.to_bits()
        } else {
            f.to_bits()
        }
    }
}

/// Exact comparison of an `i64` with an `f64` (no double-rounding for large
/// integers that are not representable as `f64`).
fn compare_int_float(a: i64, b: f64) -> Option<Ordering> {
    if b.is_nan() {
        return None;
    }
    // Any f64 >= 2^63 is greater than every i64; any f64 < -2^63 is smaller.
    if b >= 9_223_372_036_854_775_808.0 {
        return Some(Ordering::Less);
    }
    if b < -9_223_372_036_854_775_808.0 {
        return Some(Ordering::Greater);
    }
    let bt = b.trunc();
    let bi = bt as i64;
    match a.cmp(&bi) {
        Ordering::Equal => {
            let frac = b - bt;
            if frac > 0.0 {
                Some(Ordering::Less)
            } else if frac < 0.0 {
                Some(Ordering::Greater)
            } else {
                Some(Ordering::Equal)
            }
        }
        other => Some(other),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Boolean(a), Boolean(b)) => a == b,
            (Int64(a), Int64(b)) => a == b,
            (Float64(a), Float64(b)) => {
                Value::canonical_f64_bits(*a) == Value::canonical_f64_bits(*b)
            }
            // Cross-type numeric equality so that grouping keys built from
            // coerced expressions behave consistently.
            (Int64(a), Float64(b)) | (Float64(b), Int64(a)) => {
                compare_int_float(*a, *b) == Some(Ordering::Equal)
            }
            (Utf8(a), Utf8(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Boolean(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int64(i) => {
                state.write_u8(2);
                // Integers that are exactly representable as floats must
                // hash like the equivalent float (see PartialEq).
                state.write_u64(Value::canonical_f64_bits(*i as f64));
                state.write_i64(*i);
            }
            Value::Float64(f) => {
                state.write_u8(2);
                state.write_u64(Value::canonical_f64_bits(*f));
                // Mirror the integer arm when the float is integral so the
                // Hash/Eq contract holds across Int64/Float64.
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    state.write_i64(*f as i64);
                } else {
                    state.write_i64(0);
                }
            }
            Value::Utf8(s) => {
                state.write_u8(4);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Int64(i) => write!(f, "{i}"),
            Value::Float64(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Utf8(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int64(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Utf8(Arc::from(v.as_str()))
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sql_compare_null_is_unknown() {
        assert_eq!(Value::Null.sql_compare(&Value::Int64(1)), None);
        assert_eq!(Value::Int64(1).sql_compare(&Value::Null), None);
        assert_eq!(Value::Null.sql_compare(&Value::Null), None);
    }

    #[test]
    fn sql_compare_numeric_promotion() {
        assert_eq!(
            Value::Int64(2).sql_compare(&Value::Float64(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float64(2.5).sql_compare(&Value::Int64(2)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int64(3).sql_compare(&Value::Float64(3.0)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn sql_compare_large_integers_exact() {
        // 2^60 + 1 is not representable as f64; a naive `as f64` comparison
        // would wrongly report equality with 2^60.
        let big = (1i64 << 60) + 1;
        assert_eq!(
            Value::Int64(big).sql_compare(&Value::Float64((1i64 << 60) as f64)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn sql_compare_strings() {
        assert_eq!(
            Value::str("abc").sql_compare(&Value::str("abd")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_compare_incompatible_types() {
        assert_eq!(Value::Int64(1).sql_compare(&Value::str("1")), None);
        assert_eq!(Value::Boolean(true).sql_compare(&Value::Int64(1)), None);
    }

    #[test]
    fn total_cmp_nulls_first() {
        assert_eq!(
            Value::Null.total_cmp(&Value::Int64(i64::MIN)),
            Ordering::Less
        );
        assert_eq!(Value::Int64(0).total_cmp(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn total_cmp_nan_ordering() {
        assert_eq!(
            Value::Float64(f64::NAN).total_cmp(&Value::Float64(f64::INFINITY)),
            Ordering::Greater
        );
    }

    #[test]
    fn grouping_equality_treats_null_as_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Float64(f64::NAN), Value::Float64(f64::NAN));
        assert_eq!(Value::Float64(-0.0), Value::Float64(0.0));
    }

    #[test]
    fn hash_agrees_with_eq() {
        assert_eq!(
            hash_of(&Value::Float64(-0.0)),
            hash_of(&Value::Float64(0.0))
        );
        assert_eq!(
            hash_of(&Value::Float64(f64::NAN)),
            hash_of(&Value::Float64(f64::NAN))
        );
        assert_eq!(hash_of(&Value::Int64(42)), hash_of(&Value::Float64(42.0)));
        assert_eq!(Value::Int64(42), Value::Float64(42.0));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Int64(3).cast_to(DataType::Float64),
            Some(Value::Float64(3.0))
        );
        assert_eq!(
            Value::Float64(3.0).cast_to(DataType::Int64),
            Some(Value::Int64(3))
        );
        assert_eq!(Value::Float64(3.5).cast_to(DataType::Int64), None);
        assert_eq!(Value::Null.cast_to(DataType::Utf8), Some(Value::Null));
        assert_eq!(Value::str("x").cast_to(DataType::Int64), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int64(5).to_string(), "5");
        assert_eq!(Value::Float64(2.5).to_string(), "2.5");
        assert_eq!(Value::Float64(2.0).to_string(), "2.0");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(1i64), Value::Int64(1));
        assert_eq!(Value::from(Some(2.0f64)), Value::Float64(2.0));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from("s"), Value::str("s"));
    }
}
