//! Row-at-a-time construction of dictionary-encoded data sets.

use std::collections::HashMap;
use std::sync::Arc;

use crate::column::Column;
use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::schema::{Attribute, DataType, Schema};
use crate::value::Value;

/// Per-column build state: dictionary under construction.
struct ColumnBuilder {
    name: String,
    codes: Vec<u32>,
    dict: Vec<Value>,
    index: HashMap<Value, u32>,
}

impl ColumnBuilder {
    fn new(name: String) -> Self {
        ColumnBuilder {
            name,
            codes: Vec::new(),
            dict: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Codes `v`, cloning it only when it is new to the dictionary.
    fn push(&mut self, v: &Value) -> Result<(), DatasetError> {
        let code = match self.index.get(v) {
            Some(&c) => c,
            None => {
                let c = u32::try_from(self.dict.len())
                    .map_err(|_| DatasetError::DictionaryOverflow(self.name.clone()))?;
                self.dict.push(v.clone());
                self.index.insert(v.clone(), c);
                c
            }
        };
        self.codes.push(code);
        Ok(())
    }

    fn finish(self) -> (Attribute, Column) {
        // The dictionary holds each value pushed, once.
        let dtype = DataType::of(&self.dict);
        let dict: Arc<[Value]> = self.dict.into();
        (
            Attribute::new(self.name, dtype),
            Column::new(self.codes, dict),
        )
    }
}

/// Builds a [`Dataset`] one tuple at a time, dictionary-encoding values
/// as they arrive.
///
/// The builder is the single ingestion path shared by CSV parsing,
/// streaming reservoirs, and hand-written fixtures:
///
/// ```
/// use qid_dataset::{DatasetBuilder, Value};
/// let mut b = DatasetBuilder::new(["id", "color"]);
/// b.push_row([Value::Int(1), Value::text("red")]).unwrap();
/// b.push_row([Value::Int(2), Value::text("red")]).unwrap();
/// let ds = b.finish();
/// assert_eq!(ds.column(1.into()).cardinality(), 1);
/// ```
pub struct DatasetBuilder {
    columns: Vec<ColumnBuilder>,
    n_rows: usize,
}

impl DatasetBuilder {
    /// Creates a builder with the given attribute names.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        DatasetBuilder {
            columns: names
                .into_iter()
                .map(|n| ColumnBuilder::new(n.into()))
                .collect(),
            n_rows: 0,
        }
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Appends one tuple. The tuple length must equal the attribute count.
    pub fn push_row<I>(&mut self, row: I) -> Result<(), DatasetError>
    where
        I: IntoIterator<Item = Value>,
    {
        let values: Vec<Value> = row.into_iter().collect();
        self.push_row_ref(&values)
    }

    /// Appends one borrowed tuple: a value is cloned only when it is new
    /// to its column's dictionary. The tuple length must equal the
    /// attribute count.
    pub fn push_row_ref(&mut self, row: &[Value]) -> Result<(), DatasetError> {
        if row.len() != self.columns.len() {
            return Err(DatasetError::RowArity {
                row: self.n_rows,
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (cb, v) in self.columns.iter_mut().zip(row) {
            cb.push(v)?;
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Finalises the data set.
    pub fn finish(self) -> Dataset {
        let mut attrs = Vec::with_capacity(self.columns.len());
        let mut cols = Vec::with_capacity(self.columns.len());
        for cb in self.columns {
            let (a, c) = cb.finish();
            attrs.push(a);
            cols.push(Arc::new(c));
        }
        Dataset::new(Schema::new(attrs), cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;

    #[test]
    fn builds_and_infers_types() {
        let mut b = DatasetBuilder::new(["i", "f", "t", "mix"]);
        b.push_row([
            Value::Int(1),
            Value::float(0.5),
            Value::text("a"),
            Value::Int(1),
        ])
        .unwrap();
        b.push_row([
            Value::Int(2),
            Value::float(1.5),
            Value::text("b"),
            Value::text("x"),
        ])
        .unwrap();
        let ds = b.finish();
        let s = ds.schema();
        assert_eq!(s.attr(AttrId::new(0)).dtype(), DataType::Int);
        assert_eq!(s.attr(AttrId::new(1)).dtype(), DataType::Float);
        assert_eq!(s.attr(AttrId::new(2)).dtype(), DataType::Text);
        assert_eq!(s.attr(AttrId::new(3)).dtype(), DataType::Mixed);
    }

    #[test]
    fn dictionary_codes_by_first_appearance() {
        let mut b = DatasetBuilder::new(["x"]);
        for v in [3, 1, 3, 2, 1] {
            b.push_row([Value::Int(v)]).unwrap();
        }
        let ds = b.finish();
        assert_eq!(ds.column(0.into()).codes(), &[0, 1, 0, 2, 1]);
        assert_eq!(ds.column(0.into()).cardinality(), 3);
    }

    #[test]
    fn arity_mismatch_short_row() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        let err = b.push_row([Value::Int(1)]).unwrap_err();
        assert!(matches!(err, DatasetError::RowArity { expected: 2, .. }));
        // builder still usable and aligned
        b.push_row([Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(b.n_rows(), 1);
        let ds = b.finish();
        assert_eq!(ds.n_rows(), 1);
    }

    #[test]
    fn arity_mismatch_long_row_rolls_back() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        let err = b
            .push_row([Value::Int(1), Value::Int(2), Value::Int(3)])
            .unwrap_err();
        assert!(matches!(err, DatasetError::RowArity { got: 3, .. }));
        assert_eq!(b.n_rows(), 0);
        b.push_row([Value::Int(9), Value::Int(9)]).unwrap();
        let ds = b.finish();
        assert_eq!(ds.n_rows(), 1);
        assert_eq!(ds.value(0, AttrId::new(0)), &Value::Int(9));
    }

    #[test]
    fn nulls_compare_equal() {
        let mut b = DatasetBuilder::new(["a"]);
        b.push_row([Value::Null]).unwrap();
        b.push_row([Value::Null]).unwrap();
        let ds = b.finish();
        assert_eq!(ds.code(0, 0.into()), ds.code(1, 0.into()));
    }

    #[test]
    fn empty_dataset() {
        let ds = DatasetBuilder::new(["a", "b"]).finish();
        assert_eq!(ds.n_rows(), 0);
        assert_eq!(ds.n_attrs(), 2);
    }

    #[test]
    fn zero_attr_dataset() {
        let mut b = DatasetBuilder::new(Vec::<String>::new());
        b.push_row([]).unwrap();
        b.push_row([]).unwrap();
        let ds = b.finish();
        assert_eq!(ds.n_attrs(), 0);
        // No columns means n_rows falls back to 0 — zero-attribute data
        // sets are degenerate; rows carry no information.
        assert_eq!(ds.n_rows(), 0);
    }
}
