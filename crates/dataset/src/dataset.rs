//! The immutable, columnar data set.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::column::Column;
use crate::schema::{AttrId, Attribute, DataType, Schema};
use crate::value::Value;

/// An immutable data set of `n` tuples over `m` attributes.
///
/// This is the object the paper calls `X = {x_1, …, x_n} ⊆ U^m`. Storage
/// is columnar and dictionary-encoded (see [`Column`]); columns are
/// behind `Arc`, so [`Dataset::project`] is O(|A|) and
/// [`Dataset::gather`] copies only the selected codes.
#[derive(Clone)]
pub struct Dataset {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    n_rows: usize,
}

impl Dataset {
    /// Assembles a data set from a schema and matching columns.
    ///
    /// # Panics
    /// Panics if the column count differs from the schema or the columns
    /// disagree on row count.
    pub fn new(schema: Schema, columns: Vec<Arc<Column>>) -> Self {
        assert_eq!(
            schema.len(),
            columns.len(),
            "schema has {} attributes but {} columns were provided",
            schema.len(),
            columns.len()
        );
        let n_rows = columns.first().map_or(0, |c| c.len());
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(
                c.len(),
                n_rows,
                "column {i} has {} rows, expected {n_rows}",
                c.len()
            );
        }
        Dataset {
            schema: Arc::new(schema),
            columns,
            n_rows,
        }
    }

    /// Number of tuples `n`.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes `m`.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Number of unordered tuple pairs, `C(n, 2)`.
    pub fn n_pairs(&self) -> u128 {
        let n = self.n_rows as u128;
        n * (n.saturating_sub(1)) / 2
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The column for attribute `attr`.
    #[inline]
    pub fn column(&self, attr: AttrId) -> &Column {
        &self.columns[attr.index()]
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Dictionary code of `(row, attr)` — the O(1) equality token.
    #[inline]
    pub fn code(&self, row: usize, attr: AttrId) -> u32 {
        self.columns[attr.index()].code(row)
    }

    /// Decoded value of `(row, attr)`.
    #[inline]
    pub fn value(&self, row: usize, attr: AttrId) -> &Value {
        self.columns[attr.index()].value(row)
    }

    /// A borrowed view of one tuple.
    pub fn row(&self, row: usize) -> RowRef<'_> {
        assert!(row < self.n_rows, "row {row} out of range {}", self.n_rows);
        RowRef { ds: self, row }
    }

    /// Iterates over all tuples.
    pub fn rows(&self) -> impl Iterator<Item = RowRef<'_>> + '_ {
        (0..self.n_rows).map(move |r| RowRef { ds: self, row: r })
    }

    /// Do rows `r1` and `r2` agree on *every* attribute in `attrs`?
    ///
    /// Equivalently: `attrs` fails to separate the pair `(r1, r2)`.
    #[inline]
    pub fn rows_agree_on(&self, r1: usize, r2: usize, attrs: &[AttrId]) -> bool {
        attrs
            .iter()
            .all(|&a| self.columns[a.index()].code(r1) == self.columns[a.index()].code(r2))
    }

    /// Does `attrs` separate the pair `(r1, r2)` (differ somewhere)?
    #[inline]
    pub fn separates(&self, attrs: &[AttrId], r1: usize, r2: usize) -> bool {
        !self.rows_agree_on(r1, r2, attrs)
    }

    /// Lexicographic comparison of the projections of rows `r1`, `r2`
    /// onto `attrs`, in code order (a total order on tuples).
    pub fn cmp_projected(&self, r1: usize, r2: usize, attrs: &[AttrId]) -> Ordering {
        for &a in attrs {
            let col = &self.columns[a.index()];
            match col.code(r1).cmp(&col.code(r2)) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// A new data set containing only the attributes in `keep` (in that
    /// order). Columns are shared, so this is O(|keep|).
    pub fn project(&self, keep: &[AttrId]) -> Dataset {
        let columns = keep
            .iter()
            .map(|&a| Arc::clone(&self.columns[a.index()]))
            .collect();
        Dataset {
            schema: Arc::new(self.schema.project(keep)),
            columns,
            n_rows: self.n_rows,
        }
    }

    /// A new data set containing the given rows (in order, repeats
    /// allowed). Dictionaries are shared; codes remain comparable with
    /// the parent data set's codes.
    ///
    /// This is the primitive behind every sampling-based sketch in the
    /// paper: "sample `R` tuples" is `gather` of a random index set.
    pub fn gather(&self, rows: &[usize]) -> Dataset {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(rows)))
            .collect();
        Dataset {
            schema: Arc::clone(&self.schema),
            columns,
            n_rows: rows.len(),
        }
    }

    /// A new data set of `rows` (in order, repeats allowed), each a
    /// `(part, row)` of `parts` — data sets over the attributes of the
    /// first — with each column cut to a dictionary of the values those
    /// rows hold, coded by first appearance, and each attribute typed by
    /// those values: the data set that pushing the rows' values through
    /// a [`crate::DatasetBuilder`] in turn builds. No row's value is
    /// hashed; see [`Column::gather_first_seen`].
    ///
    /// # Panics
    /// Panics if `parts` is empty, or a part has fewer attributes than
    /// the first.
    pub fn gather_first_seen(parts: &[&Dataset], rows: &[(usize, usize)]) -> Dataset {
        let schema = parts[0].schema();
        let columns: Vec<Arc<Column>> = (0..schema.len())
            .map(|a| {
                let cols: Vec<&Column> = parts.iter().map(|p| &*p.columns[a]).collect();
                Arc::new(Column::gather_first_seen(&cols, rows))
            })
            .collect();
        let attrs = schema
            .attrs()
            .iter()
            .zip(&columns)
            .map(|(a, c)| Attribute::new(a.name(), DataType::of(c.dict().iter())))
            .collect();
        Dataset {
            schema: Arc::new(Schema::new(attrs)),
            columns,
            n_rows: rows.len(),
        }
    }

    /// All attribute ids `0..m`.
    pub fn all_attrs(&self) -> Vec<AttrId> {
        AttrId::all(self.n_attrs()).collect()
    }

    /// Estimated resident size in bytes (codes only; dictionaries are
    /// shared and usually negligible).
    pub fn code_bytes(&self) -> usize {
        self.columns.len() * self.n_rows * std::mem::size_of::<u32>()
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("n_rows", &self.n_rows)
            .field("n_attrs", &self.n_attrs())
            .field("attrs", &self.schema.names().collect::<Vec<_>>())
            .finish()
    }
}

/// A borrowed view of one tuple of a [`Dataset`].
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    ds: &'a Dataset,
    row: usize,
}

impl<'a> RowRef<'a> {
    /// The row index within the data set.
    pub fn index(&self) -> usize {
        self.row
    }

    /// The value of attribute `attr`.
    pub fn value(&self, attr: AttrId) -> &'a Value {
        self.ds.value(self.row, attr)
    }

    /// The dictionary code of attribute `attr`.
    pub fn code(&self, attr: AttrId) -> u32 {
        self.ds.code(self.row, attr)
    }

    /// All values of this tuple, in schema order.
    pub fn values(&self) -> impl Iterator<Item = &'a Value> + '_ {
        let ds = self.ds;
        let row = self.row;
        (0..ds.n_attrs()).map(move |a| ds.value(row, AttrId::new(a)))
    }

    /// Materialises the tuple as an owned `Vec<Value>`.
    pub fn to_vec(&self) -> Vec<Value> {
        self.values().cloned().collect()
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatasetBuilder;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new(["a", "b", "c"]);
        b.push_row([Value::Int(1), Value::text("x"), Value::Int(10)])
            .unwrap();
        b.push_row([Value::Int(1), Value::text("y"), Value::Int(10)])
            .unwrap();
        b.push_row([Value::Int(2), Value::text("x"), Value::Int(10)])
            .unwrap();
        b.finish()
    }

    #[test]
    fn dims_and_pairs() {
        let ds = sample();
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_attrs(), 3);
        assert_eq!(ds.n_pairs(), 3);
    }

    #[test]
    fn n_pairs_edge_cases() {
        let empty = DatasetBuilder::new(["a"]).finish();
        assert_eq!(empty.n_pairs(), 0);
        let mut b = DatasetBuilder::new(["a"]);
        b.push_row([Value::Int(1)]).unwrap();
        assert_eq!(b.finish().n_pairs(), 0);
    }

    #[test]
    fn separation_predicates() {
        let ds = sample();
        let a0 = AttrId::new(0);
        let a1 = AttrId::new(1);
        let a2 = AttrId::new(2);
        assert!(ds.rows_agree_on(0, 1, &[a0, a2]));
        assert!(!ds.rows_agree_on(0, 1, &[a1]));
        assert!(ds.separates(&[a1], 0, 1));
        assert!(!ds.separates(&[a2], 0, 2)); // column c is constant
        assert!(ds.rows_agree_on(0, 1, &[])); // empty set separates nothing
    }

    #[test]
    fn cmp_projected_is_lexicographic() {
        let ds = sample();
        let attrs = ds.all_attrs();
        assert_eq!(ds.cmp_projected(0, 0, &attrs), Ordering::Equal);
        // Row 0 and row 2 differ on attribute 0 (codes 0 vs 1).
        assert_eq!(ds.cmp_projected(0, 2, &[AttrId::new(0)]), Ordering::Less);
        assert_eq!(ds.cmp_projected(2, 0, &[AttrId::new(0)]), Ordering::Greater);
        assert_eq!(ds.cmp_projected(0, 1, &[AttrId::new(2)]), Ordering::Equal);
    }

    #[test]
    fn projection_shares_columns() {
        let ds = sample();
        let p = ds.project(&[AttrId::new(2), AttrId::new(0)]);
        assert_eq!(p.n_attrs(), 2);
        assert_eq!(p.schema().attr(AttrId::new(0)).name(), "c");
        assert_eq!(p.value(1, AttrId::new(1)), &Value::Int(1));
        assert_eq!(p.n_rows(), 3);
    }

    #[test]
    fn gather_keeps_code_compatibility() {
        let ds = sample();
        let g = ds.gather(&[2, 0]);
        assert_eq!(g.n_rows(), 2);
        // Row 0 of g is row 2 of ds; codes must match across the two.
        assert_eq!(g.code(0, AttrId::new(0)), ds.code(2, AttrId::new(0)));
        assert_eq!(g.value(1, AttrId::new(1)), &Value::text("x"));
    }

    #[test]
    fn row_ref_views() {
        let ds = sample();
        let r = ds.row(1);
        assert_eq!(r.index(), 1);
        assert_eq!(
            r.to_vec(),
            vec![Value::Int(1), Value::text("y"), Value::Int(10)]
        );
        assert_eq!(format!("{r:?}"), "[Int(1), Text(\"y\"), Int(10)]");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        let ds = sample();
        let _ = ds.row(3);
    }

    #[test]
    fn debug_format_mentions_dims() {
        let ds = sample();
        let s = format!("{ds:?}");
        assert!(s.contains("n_rows: 3"));
        assert!(s.contains("n_attrs: 3"));
    }
}

/// [`Dataset::gather_first_seen`] against pushing the same rows' values
/// through a [`crate::DatasetBuilder`].
#[cfg(test)]
mod gather_tests {
    use proptest::prelude::*;

    use super::*;
    use crate::builder::DatasetBuilder;

    /// A value of every type, with repeats across types (`Int(1)`,
    /// `Float(1.0)`, `Text("1")`) and `-0.0` beside `0.0`.
    fn value(pick: u8) -> Value {
        match pick % 9 {
            0 => Value::Null,
            1 => Value::Int(1),
            2 => Value::Int(2),
            3 => Value::float(1.0),
            4 => Value::float(0.0),
            5 => Value::float(-0.0),
            6 => Value::text("1"),
            7 => Value::text("b"),
            _ => Value::Int(i64::from(pick)),
        }
    }

    fn built(rows: &[Vec<Value>]) -> Dataset {
        let mut b = DatasetBuilder::new(["x", "y"]);
        for row in rows {
            b.push_row(row.iter().cloned()).unwrap();
        }
        b.finish()
    }

    /// Each attribute, and each column's codes and dictionary.
    type Table = (Vec<Attribute>, Vec<(Vec<u32>, Vec<Value>)>);

    fn table(ds: &Dataset) -> Table {
        let cols = ds.columns().iter();
        let cols = cols.map(|c| (c.codes().to_vec(), c.dict().to_vec()));
        (ds.schema().attrs().to_vec(), cols.collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn gathering_equals_pushing_the_rows_in_turn(
            a in proptest::collection::vec((0u8..40, 0u8..40), 0..30),
            b in proptest::collection::vec((0u8..40, 0u8..40), 0..30),
            picks in proptest::collection::vec((0u8..2, 0usize..30), 0..80),
        ) {
            let rows = |part: &[(u8, u8)]| -> Vec<Vec<Value>> {
                part.iter().map(|&(x, y)| vec![value(x), value(y)]).collect()
            };
            let (a, b) = (rows(&a), rows(&b));
            let parts = [&a, &b];
            let layout: Vec<(usize, usize)> = picks
                .iter()
                .filter(|&&(part, _)| !parts[part as usize].is_empty())
                .map(|&(part, row)| (part as usize, row % parts[part as usize].len()))
                .collect();
            let expected: Vec<Vec<Value>> =
                layout.iter().map(|&(p, r)| parts[p][r].clone()).collect();
            let gathered = Dataset::gather_first_seen(&[&built(&a), &built(&b)], &layout);
            prop_assert_eq!(table(&gathered), table(&built(&expected)));
            prop_assert_eq!(gathered.n_rows(), layout.len());
            let only_a: Vec<(usize, usize)> =
                layout.iter().filter(|&&(p, _)| p == 0).copied().collect();
            let expected: Vec<Vec<Value>> = only_a.iter().map(|&(_, r)| a[r].clone()).collect();
            let gathered = Dataset::gather_first_seen(&[&built(&a)], &only_a);
            prop_assert_eq!(table(&gathered), table(&built(&expected)));
        }
    }
}
