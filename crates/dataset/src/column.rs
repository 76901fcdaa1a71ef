//! Dictionary-encoded columns.

use std::collections::HashMap;
use std::sync::Arc;

use crate::value::Value;

/// One dictionary-encoded column: a `u32` code per row plus a shared
/// dictionary mapping codes to [`Value`]s.
///
/// Equality of codes is equality of values, so the paper's central
/// predicate — "do tuples `x_i` and `x_j` agree on attribute `a`?" — is a
/// single integer comparison. Codes are assigned in order of first
/// appearance; any injective assignment works because the algorithms only
/// need *a* total order on `U`, not a particular one.
///
/// Dictionaries are behind `Arc` so that row subsets of a data set
/// ([`crate::Dataset::gather`]) can share them without copying.
#[derive(Clone, Debug)]
pub struct Column {
    codes: Vec<u32>,
    dict: Arc<[Value]>,
}

impl Column {
    /// Creates a column from codes and their dictionary.
    ///
    /// # Panics
    /// Panics if any code is out of range for the dictionary.
    pub fn new(codes: Vec<u32>, dict: Arc<[Value]>) -> Self {
        debug_assert!(
            codes.iter().all(|&c| (c as usize) < dict.len()),
            "column code out of dictionary range"
        );
        if cfg!(not(debug_assertions)) {
            // In release builds validate lazily via the max, still O(n) but
            // branch-free; an out-of-range code is a construction bug.
            if let Some(&max) = codes.iter().max() {
                assert!(
                    (max as usize) < dict.len(),
                    "column code {max} out of dictionary range {}",
                    dict.len()
                );
            }
        }
        Column { codes, dict }
    }

    /// Creates an integer column where code `c` decodes to `Value::Int(c)`.
    ///
    /// Synthetic generators produce category codes directly; this
    /// constructor skips the hash-map dictionary build.
    pub fn from_int_codes(codes: Vec<u32>, cardinality: u32) -> Self {
        let dict: Arc<[Value]> = (0..cardinality as i64).map(Value::Int).collect();
        Column::new(codes, dict)
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The dictionary code of `row`.
    #[inline]
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// All codes, one per row.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The decoded value of `row`.
    #[inline]
    pub fn value(&self, row: usize) -> &Value {
        &self.dict[self.codes[row] as usize]
    }

    /// The shared dictionary (index = code).
    pub fn dict(&self) -> &Arc<[Value]> {
        &self.dict
    }

    /// Dictionary size — an upper bound on the number of distinct values
    /// in this column (exact for freshly built data sets; after
    /// [`crate::Dataset::gather`] some dictionary entries may be unused).
    pub fn dict_size(&self) -> usize {
        self.dict.len()
    }

    /// Exact number of distinct values currently present (O(n)).
    pub fn cardinality(&self) -> usize {
        let mut seen = vec![false; self.dict.len()];
        let mut count = 0usize;
        for &c in &self.codes {
            let slot = &mut seen[c as usize];
            if !*slot {
                *slot = true;
                count += 1;
            }
        }
        count
    }

    /// A new column containing `rows` (in order), sharing this dictionary.
    pub fn gather(&self, rows: &[usize]) -> Column {
        Column {
            codes: rows.iter().map(|&r| self.codes[r]).collect(),
            dict: Arc::clone(&self.dict),
        }
    }

    /// A new column of `rows` — each a `(part, row)` of `parts` — over a
    /// dictionary of just the values they hold, coded by first
    /// appearance among them: for parts whose codes each name distinct
    /// values, the column that pushing those values in turn builds.
    ///
    /// No row's value is hashed. When more than one part has values,
    /// each part's dictionary is hashed once, to give equal values in
    /// different parts one code.
    pub fn gather_first_seen(parts: &[&Column], rows: &[(usize, usize)]) -> Column {
        // Every part's codes in one space, and the value of each.
        let mut values: Vec<&Value> = Vec::new();
        let shared: Vec<Vec<u32>> = if parts.iter().filter(|p| !p.dict.is_empty()).count() > 1 {
            let mut index = HashMap::new();
            parts
                .iter()
                .map(|p| {
                    p.dict
                        .iter()
                        .map(|v| {
                            *index.entry(v).or_insert_with(|| {
                                values.push(v);
                                values.len() as u32 - 1
                            })
                        })
                        .collect()
                })
                .collect()
        } else {
            parts
                .iter()
                .map(|p| {
                    let base = values.len() as u32;
                    values.extend(p.dict.iter());
                    (base..values.len() as u32).collect()
                })
                .collect()
        };
        let mut recode = vec![u32::MAX; values.len()];
        let mut dict = Vec::new();
        let codes = rows
            .iter()
            .map(|&(part, row)| {
                let code = shared[part][parts[part].codes[row] as usize] as usize;
                if recode[code] == u32::MAX {
                    recode[code] = dict.len() as u32;
                    dict.push(values[code].clone());
                }
                recode[code]
            })
            .collect();
        Column {
            codes,
            dict: dict.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col() -> Column {
        let dict: Arc<[Value]> = vec![Value::text("x"), Value::text("y")].into();
        Column::new(vec![0, 1, 0, 0], dict)
    }

    #[test]
    fn code_and_value_access() {
        let c = col();
        assert_eq!(c.len(), 4);
        assert_eq!(c.code(1), 1);
        assert_eq!(c.value(2), &Value::text("x"));
    }

    #[test]
    fn cardinality_counts_present_values() {
        let c = col();
        assert_eq!(c.dict_size(), 2);
        assert_eq!(c.cardinality(), 2);
        let g = c.gather(&[0, 2]);
        assert_eq!(g.dict_size(), 2); // dictionary shared, still size 2
        assert_eq!(g.cardinality(), 1); // only "x" remains
    }

    #[test]
    fn gather_preserves_order_and_repeats() {
        let c = col();
        let g = c.gather(&[3, 3, 1]);
        assert_eq!(g.codes(), &[0, 0, 1]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn from_int_codes_decodes_identity() {
        let c = Column::from_int_codes(vec![2, 0, 1], 3);
        assert_eq!(c.value(0), &Value::Int(2));
        assert_eq!(c.value(1), &Value::Int(0));
        assert_eq!(c.cardinality(), 3);
    }

    #[test]
    #[should_panic(expected = "dictionary range")]
    fn out_of_range_code_panics() {
        let dict: Arc<[Value]> = vec![Value::Int(0)].into();
        let _ = Column::new(vec![1], dict);
    }

    #[test]
    fn empty_column() {
        let dict: Arc<[Value]> = Vec::<Value>::new().into();
        let c = Column::new(vec![], dict);
        assert!(c.is_empty());
        assert_eq!(c.cardinality(), 0);
    }
}
