//! Hashing and sketching a field in place equals hashing and sketching
//! its owned value.
//!
//! Fields are typed by the CSV row cursor (`CsvTupleSource::next_row`),
//! as the registry's scan types them. `oracle` holds the KMV hash and
//! sketch update as they were defined over owned values, before
//! `hash_value_ref` and the cached maximum.

use std::io::Cursor;

use proptest::prelude::*;

use qid_core::sketch::distinct::{hash_value, hash_value_ref};
use qid_core::sketch::DistinctSketch;
use qid_dataset::csv::{CsvOptions, CsvTupleSource};
use qid_dataset::Value;

mod oracle {
    use std::collections::BTreeSet;

    use qid_dataset::Value;

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn hash_value(v: &Value) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        };
        match v {
            Value::Null => eat(0),
            Value::Int(i) => {
                eat(1);
                i.to_le_bytes().into_iter().for_each(&mut eat);
            }
            Value::Float(f) => {
                eat(2);
                f.0.to_bits().to_le_bytes().into_iter().for_each(&mut eat);
            }
            Value::Text(s) => {
                eat(3);
                s.as_bytes().iter().copied().for_each(&mut eat);
            }
        }
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The `k` smallest distinct hashes, kept as the sketch kept them.
    pub fn minima(k: usize, values: &[Value]) -> Vec<u64> {
        let mut minima = BTreeSet::new();
        for v in values {
            let h = hash_value(v);
            if minima.len() < k {
                minima.insert(h);
            } else if Some(&h) < minima.iter().next_back() && minima.insert(h) {
                let &max = minima.iter().next_back().expect("non-empty");
                minima.remove(&max);
            }
        }
        minima.into_iter().collect()
    }
}

const SHAPES: &[&str] = &[
    "-9223372036854775808",
    "9223372036854775807",
    "9223372036854775808",
    "+5",
    "-0",
    "1e3",
    ".5",
    "inf",
    "NaN",
    "infinity",
    "",
    "?",
    "\u{a0}12\u{a0}",
    " 1.5 ",
    "naïve",
    "日本語",
    "say \"what\"",
    "a,b",
    "line1\nline2",
];

fn field() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..SHAPES.len()).prop_map(|i| SHAPES[i].to_string()),
        (-100_000i64..100_000).prop_map(|i| i.to_string()),
        (-1000i64..1000).prop_map(|i| format!("{}.{}", i, (i * 7).rem_euclid(100))),
        "[a-z0-9]{0,6}",
    ]
}

/// A one-column CSV holding `fields`, every field quoted.
fn one_column(fields: &[String]) -> String {
    let mut text = String::from("v\n");
    for f in fields {
        text += &format!("\"{}\"\n", f.replace('"', "\"\""));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `hash_value_ref` on a field typed in place equals `hash_value`
    /// (and the pre-`ValueRef` hash) on its owned value; a sketch fed
    /// with `observe_ref` ends in exactly the state `observe` and the
    /// uncached update reach.
    #[test]
    fn in_place_hash_and_sketch_match_owned(
        fields in proptest::collection::vec(field(), 0..300),
        k in 2usize..24,
    ) {
        let text = one_column(&fields);
        let mut src =
            CsvTupleSource::from_reader(Cursor::new(text.clone()), &CsvOptions::default()).unwrap();
        let mut by_ref = DistinctSketch::new(k);
        let mut owned = Vec::new();
        while let Some(row) = src.next_row().unwrap() {
            let v = row.values().next().expect("one column");
            let value = v.to_value();
            prop_assert_eq!(hash_value_ref(v), hash_value(&value), "field {:?}", value);
            prop_assert_eq!(hash_value_ref(v), oracle::hash_value(&value), "field {:?}", value);
            by_ref.observe_ref(v);
            owned.push(value);
        }
        prop_assert_eq!(owned.len(), fields.len());
        let mut by_value = DistinctSketch::new(k);
        owned.iter().for_each(|v| by_value.observe(v));
        prop_assert_eq!(&by_ref, &by_value);
        prop_assert_eq!(by_ref.minima().collect::<Vec<_>>(), oracle::minima(k, &owned));
        prop_assert_eq!(
            DistinctSketch::from_minima(k, by_ref.minima()).estimate(),
            by_ref.estimate()
        );
    }
}

#[test]
fn variants_hash_apart_by_ref() {
    let values = [
        Value::Null,
        Value::Int(1),
        Value::float(1.0),
        Value::text("1"),
    ];
    let hashes: Vec<u64> = values.iter().map(|v| hash_value_ref(v.into())).collect();
    for (i, a) in hashes.iter().enumerate() {
        for b in &hashes[i + 1..] {
            assert_ne!(a, b);
        }
    }
}
