//! Attribute identifiers, attribute metadata, and schemas.

use std::collections::HashMap;
use std::fmt;

use crate::value::Value;

/// Identifies one of the `m` attributes (coordinates) of a data set.
///
/// The paper writes attribute subsets as `A ⊆ [m]`; an `AttrId` is an
/// element of `[m]`, a plain index newtype kept `Copy` and 4 bytes so
/// subsets are compact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(u32);

impl AttrId {
    /// Creates an `AttrId` from a zero-based attribute index.
    ///
    /// # Panics
    /// Panics if `index` exceeds `u32::MAX` (over 4 billion attributes).
    pub fn new(index: usize) -> Self {
        AttrId(u32::try_from(index).expect("attribute index exceeds u32::MAX"))
    }

    /// The zero-based attribute index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// All attribute ids `0..m`.
    pub fn all(m: usize) -> impl Iterator<Item = AttrId> + Clone {
        (0..m).map(AttrId::new)
    }
}

impl From<usize> for AttrId {
    fn from(i: usize) -> Self {
        AttrId::new(i)
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The inferred type of an attribute's values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// All non-null values are integers.
    Int,
    /// All non-null values are floats.
    Float,
    /// All non-null values are text.
    Text,
    /// Values of more than one type (or only nulls).
    Mixed,
}

impl DataType {
    /// The type of an attribute holding `values`: the one type all its
    /// non-null values share, else [`DataType::Mixed`] (also for only
    /// nulls).
    pub fn of<'a>(values: impl IntoIterator<Item = &'a Value>) -> DataType {
        let (mut int, mut float, mut text) = (false, false, false);
        for v in values {
            match v {
                Value::Int(_) => int = true,
                Value::Float(_) => float = true,
                Value::Text(_) => text = true,
                Value::Null => {}
            }
        }
        match (int, float, text) {
            (true, false, false) => DataType::Int,
            (false, true, false) => DataType::Float,
            (false, false, true) => DataType::Text,
            _ => DataType::Mixed,
        }
    }
}

/// Metadata for one attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    name: String,
    dtype: DataType,
}

impl Attribute {
    /// Creates attribute metadata.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Attribute {
            name: name.into(),
            dtype,
        }
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's inferred data type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }
}

/// An ordered list of attributes with name lookup.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    attrs: Vec<Attribute>,
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// Builds a schema from attribute metadata.
    ///
    /// Duplicate names are allowed (real-world CSVs have them); name
    /// lookup resolves to the *first* attribute with that name.
    pub fn new(attrs: Vec<Attribute>) -> Self {
        let mut by_name = HashMap::with_capacity(attrs.len());
        for (i, a) in attrs.iter().enumerate() {
            by_name
                .entry(a.name.clone())
                .or_insert_with(|| AttrId::new(i));
        }
        Schema { attrs, by_name }
    }

    /// Number of attributes `m`.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True iff the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Metadata for attribute `id`.
    pub fn attr(&self, id: AttrId) -> &Attribute {
        &self.attrs[id.index()]
    }

    /// All attributes in order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Resolves an attribute by name (first match).
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// The names of all attributes, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.attrs.iter().map(|a| a.name())
    }

    /// A new schema containing only `keep`, in the given order.
    pub fn project(&self, keep: &[AttrId]) -> Schema {
        Schema::new(
            keep.iter()
                .map(|&a| self.attrs[a.index()].clone())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema3() -> Schema {
        Schema::new(vec![
            Attribute::new("a", DataType::Int),
            Attribute::new("b", DataType::Text),
            Attribute::new("c", DataType::Float),
        ])
    }

    #[test]
    fn attr_id_roundtrip() {
        let id = AttrId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(AttrId::from(7usize), id);
        assert_eq!(id.to_string(), "#7");
    }

    #[test]
    fn attr_id_all() {
        let ids: Vec<_> = AttrId::all(3).collect();
        assert_eq!(ids, vec![AttrId::new(0), AttrId::new(1), AttrId::new(2)]);
    }

    #[test]
    fn name_lookup() {
        let s = schema3();
        assert_eq!(s.attr_by_name("b"), Some(AttrId::new(1)));
        assert_eq!(s.attr_by_name("nope"), None);
        assert_eq!(s.attr(AttrId::new(2)).dtype(), DataType::Float);
    }

    #[test]
    fn duplicate_names_resolve_to_first() {
        let s = Schema::new(vec![
            Attribute::new("x", DataType::Int),
            Attribute::new("x", DataType::Text),
        ]);
        assert_eq!(s.attr_by_name("x"), Some(AttrId::new(0)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn projection_reorders() {
        let s = schema3();
        let p = s.project(&[AttrId::new(2), AttrId::new(0)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.attr(AttrId::new(0)).name(), "c");
        assert_eq!(p.attr(AttrId::new(1)).name(), "a");
    }

    #[test]
    fn empty_schema() {
        let s = Schema::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.names().count(), 0);
    }
}
