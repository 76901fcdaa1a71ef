//! The value universe `U`: a totally ordered set with O(1) comparisons.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An `f64` wrapper with a *total* order (`f64::total_cmp`), equality and
/// hashing by bit pattern.
///
/// The paper assumes the universe `U` is totally ordered; IEEE-754 floats
/// are not (`NaN`), so all floating point attribute values are stored
/// through this wrapper. Equality by bit pattern is exactly the equality
/// induced by `total_cmp`, so `Eq`/`Ord`/`Hash` are mutually consistent.
#[derive(Clone, Copy, Debug)]
pub struct TotalF64(pub f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl Hash for TotalF64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}
impl From<f64> for TotalF64 {
    fn from(v: f64) -> Self {
        TotalF64(v)
    }
}
impl fmt::Display for TotalF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A single attribute value.
///
/// Values are totally ordered (`Null < Int < Float < Text`, and within
/// each variant by the natural order). Text values are reference-counted
/// so that dictionaries and interners can share them without copying.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Missing / unknown. Two `Null`s are *equal* (they do not separate a
    /// pair), matching the semantics used for quasi-identifier discovery
    /// in noisy data.
    Null,
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float under the total order of [`TotalF64`].
    Float(TotalF64),
    /// An interned / shared string.
    Text(Arc<str>),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for float values.
    pub fn float(v: f64) -> Self {
        Value::Float(TotalF64(v))
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(v.0),
            _ => None,
        }
    }

    /// The string payload, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// A borrowed, typed attribute value: what a streaming scan holds for a
/// field it has typed in place but not (yet) copied out of its read
/// buffer. [`ValueRef::to_value`] owns it; `From<&Value>` borrows an
/// owned one, so code that only inspects a value (hashing, say) can be
/// written once over `ValueRef`. There is deliberately no `PartialEq`:
/// compare owned values, whose float equality is by bit pattern.
#[derive(Clone, Copy, Debug)]
pub enum ValueRef<'a> {
    /// See [`Value::Null`].
    Null,
    /// See [`Value::Int`].
    Int(i64),
    /// See [`Value::Float`].
    Float(f64),
    /// See [`Value::Text`]; borrowed instead of shared.
    Text(&'a str),
}

impl ValueRef<'_> {
    /// The owned [`Value`] (text is copied into a fresh `Arc<str>`).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::float(f),
            ValueRef::Text(s) => Value::text(s),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(f.0),
            Value::Text(s) => ValueRef::Text(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v.as_str()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn total_f64_orders_nan_and_zero() {
        let neg_zero = TotalF64(-0.0);
        let pos_zero = TotalF64(0.0);
        let nan = TotalF64(f64::NAN);
        assert!(neg_zero < pos_zero);
        assert!(pos_zero < nan);
        assert_eq!(nan, TotalF64(f64::NAN));
    }

    #[test]
    fn total_f64_hash_consistent_with_eq() {
        let a = TotalF64(1.5);
        let b = TotalF64(1.5);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(TotalF64(-0.0), TotalF64(0.0));
    }

    #[test]
    fn value_variant_order() {
        let mut vs = vec![
            Value::text("a"),
            Value::Int(3),
            Value::Null,
            Value::float(2.0),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Int(3),
                Value::float(2.0),
                Value::text("a"),
            ]
        );
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), None);
        assert_eq!(Value::float(1.25).as_float(), Some(1.25));
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::text("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::float(0.5).to_string(), "0.5");
    }

    #[test]
    fn value_from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("s"), Value::text("s"));
        assert_eq!(Value::from(String::from("s")), Value::text("s"));
        assert_eq!(Value::from(2.0f64), Value::float(2.0));
    }

    #[test]
    fn null_equals_null() {
        // Nulls do not separate a pair of tuples.
        assert_eq!(Value::Null, Value::Null);
    }
}
