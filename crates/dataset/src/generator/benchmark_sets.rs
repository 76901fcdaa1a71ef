//! Generators reproducing the shapes of the paper's evaluation data sets.
//!
//! The paper (Section 4) evaluates on UCI **Adult** (32,561 × 14), UCI
//! **Covtype** (581,012 × 54) and the 2016 Current Population Survey
//! (millions × 388). Those files are not redistributable here, so each
//! generator reproduces the *structural* properties the algorithms are
//! sensitive to — row count, attribute count, per-attribute cardinality
//! and skew, functional dependencies and one-hot blocks. When real CSVs
//! are available, [`crate::csv::read_csv_path`] loads them with the
//! same downstream API.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dataset::Dataset;
use crate::generator::spec::{ColumnSpec, DatasetSpec, SourceRef};

/// The three named evaluation workloads of the paper's Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchmarkSet {
    /// UCI Adult shape: 32,561 rows × 14 attributes.
    Adult,
    /// UCI Covtype shape: 581,012 rows × 54 attributes.
    Covtype,
    /// US Census CPS 2016 shape: 388 attributes; row count configurable
    /// (the real file has millions of rows; both filters' sample sizes
    /// are independent of `n`).
    Cps,
}

impl BenchmarkSet {
    /// Canonical display name matching the paper's Table 1.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkSet::Adult => "Adult",
            BenchmarkSet::Covtype => "Covtype",
            BenchmarkSet::Cps => "CPS",
        }
    }

    /// Generates this workload at its default scale.
    pub fn generate(self, seed: u64) -> Dataset {
        match self {
            BenchmarkSet::Adult => adult_like(seed),
            BenchmarkSet::Covtype => covtype_like(seed),
            BenchmarkSet::Cps => cps_like(seed, 150_000),
        }
    }
}

/// UCI Adult shape: 32,561 rows, 14 attributes with the real schema's
/// names, cardinalities and skew; `education-num` is an exact functional
/// copy of `education` as in the real data.
pub fn adult_like(seed: u64) -> Dataset {
    DatasetSpec::new(32_561)
        .column(
            "age",
            ColumnSpec::Zipf {
                cardinality: 73,
                exponent: 0.4,
            },
        )
        .column(
            "workclass",
            ColumnSpec::Zipf {
                cardinality: 9,
                exponent: 1.6,
            },
        )
        .column(
            "fnlwgt",
            ColumnSpec::Uniform {
                cardinality: 21_648,
            },
        )
        .column(
            "education",
            ColumnSpec::Zipf {
                cardinality: 16,
                exponent: 0.9,
            },
        )
        .column(
            "education-num",
            ColumnSpec::Derived {
                source: SourceRef::Column(3),
                collapse: 1,
            },
        )
        .column(
            "marital-status",
            ColumnSpec::Zipf {
                cardinality: 7,
                exponent: 1.2,
            },
        )
        .column(
            "occupation",
            ColumnSpec::Zipf {
                cardinality: 15,
                exponent: 0.5,
            },
        )
        .column(
            "relationship",
            ColumnSpec::Zipf {
                cardinality: 6,
                exponent: 0.9,
            },
        )
        .column(
            "race",
            ColumnSpec::Zipf {
                cardinality: 5,
                exponent: 2.2,
            },
        )
        .column("sex", ColumnSpec::Binary { p_one: 0.331 })
        .column(
            "capital-gain",
            ColumnSpec::Zipf {
                cardinality: 119,
                exponent: 2.4,
            },
        )
        .column(
            "capital-loss",
            ColumnSpec::Zipf {
                cardinality: 92,
                exponent: 2.6,
            },
        )
        .column(
            "hours-per-week",
            ColumnSpec::Zipf {
                cardinality: 94,
                exponent: 1.1,
            },
        )
        .column(
            "native-country",
            ColumnSpec::Zipf {
                cardinality: 41,
                exponent: 2.4,
            },
        )
        .generate(seed)
        .expect("adult_like spec is statically valid")
}

/// UCI Covtype shape: 581,012 rows, 54 attributes — 10 numeric columns
/// plus the 4-way wilderness and 40-way soil one-hot indicator blocks.
pub fn covtype_like(seed: u64) -> Dataset {
    covtype_like_scaled(seed, 581_012)
}

/// [`covtype_like`] with a custom row count (tests use small scales).
pub fn covtype_like_scaled(seed: u64, n_rows: usize) -> Dataset {
    let mut spec = DatasetSpec::new(n_rows)
        // Latent 0: wilderness area (4 categories); latent 1: soil type (40).
        .latent(ColumnSpec::Zipf {
            cardinality: 4,
            exponent: 0.9,
        })
        .latent(ColumnSpec::Zipf {
            cardinality: 40,
            exponent: 0.8,
        })
        .column("elevation", ColumnSpec::Uniform { cardinality: 1_978 })
        .column("aspect", ColumnSpec::Uniform { cardinality: 361 })
        .column(
            "slope",
            ColumnSpec::Zipf {
                cardinality: 67,
                exponent: 0.8,
            },
        )
        .column(
            "horiz-dist-hydrology",
            ColumnSpec::Zipf {
                cardinality: 551,
                exponent: 0.5,
            },
        )
        .column(
            "vert-dist-hydrology",
            ColumnSpec::Zipf {
                cardinality: 700,
                exponent: 0.5,
            },
        )
        .column(
            "horiz-dist-roadways",
            ColumnSpec::Uniform { cardinality: 5_785 },
        )
        .column(
            "hillshade-9am",
            ColumnSpec::Zipf {
                cardinality: 207,
                exponent: 0.4,
            },
        )
        .column(
            "hillshade-noon",
            ColumnSpec::Zipf {
                cardinality: 185,
                exponent: 0.4,
            },
        )
        .column(
            "hillshade-3pm",
            ColumnSpec::Zipf {
                cardinality: 255,
                exponent: 0.4,
            },
        )
        .column(
            "horiz-dist-fire",
            ColumnSpec::Uniform { cardinality: 5_827 },
        );
    for w in 0..4u64 {
        spec = spec.column(
            format!("wilderness-{w}"),
            ColumnSpec::OneHotOf {
                source: SourceRef::Latent(0),
                value: w,
            },
        );
    }
    for s in 0..40u64 {
        spec = spec.column(
            format!("soil-{s}"),
            ColumnSpec::OneHotOf {
                source: SourceRef::Latent(1),
                value: s,
            },
        );
    }
    spec.generate(seed)
        .expect("covtype_like spec is statically valid")
}

/// US Census CPS 2016 shape: 388 attributes in census-style blocks —
/// skewed low-cardinality flags and demographics, medium-cardinality
/// coded fields, high-cardinality numeric amounts, and a handful of
/// near-unique weight columns.
///
/// `n_rows` scales the data set; the paper's file has millions of rows
/// but every algorithm under study has cost independent of `n` (they see
/// only samples), so 150k rows reproduces the same behaviour.
pub fn cps_like(seed: u64, n_rows: usize) -> Dataset {
    // Column parameters are drawn from a dedicated RNG so the *schema* is
    // stable for a given seed, then generation uses DatasetSpec's own rng.
    let mut schema_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut spec = DatasetSpec::new(n_rows);
    for i in 0..388usize {
        let name = format!("cps-{i:03}");
        let col = match i % 8 {
            // Flags: binary/ternary, heavily skewed (allocation flags,
            // top-coding indicators …).
            0..=2 => ColumnSpec::Zipf {
                cardinality: schema_rng.random_range(2..=3),
                exponent: 2.5,
            },
            // Demographics: small categorical (sex, race, relationship …).
            3 | 4 => ColumnSpec::Zipf {
                cardinality: schema_rng.random_range(4..=20),
                exponent: 1.2,
            },
            // Coded fields: occupation/industry/geography codes.
            5 | 6 => ColumnSpec::Zipf {
                cardinality: schema_rng.random_range(20..=520),
                exponent: 0.9,
            },
            // Amounts: earnings, hours, weights — high cardinality.
            _ => ColumnSpec::Uniform {
                cardinality: schema_rng.random_range(500..=40_000),
            },
        };
        spec = spec.column(name, col);
    }
    spec.generate(seed)
        .expect("cps_like spec is statically valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;

    #[test]
    fn adult_shape_matches_paper() {
        let ds = adult_like(1);
        assert_eq!(ds.n_rows(), 32_561);
        assert_eq!(ds.n_attrs(), 14);
        // Paper: "slightly more than 32,000 values with 14 attributes".
        assert_eq!(ds.schema().attr_by_name("sex"), Some(AttrId::new(9)));
        assert!(ds.column(AttrId::new(9)).cardinality() <= 2);
    }

    #[test]
    fn adult_education_num_is_functional() {
        let ds = adult_like(2);
        let edu = ds.schema().attr_by_name("education").unwrap();
        let num = ds.schema().attr_by_name("education-num").unwrap();
        for r1 in (0..ds.n_rows()).step_by(1000) {
            for r2 in (0..ds.n_rows()).step_by(997) {
                let same_e = ds.code(r1, edu) == ds.code(r2, edu);
                let same_n = ds.code(r1, num) == ds.code(r2, num);
                assert_eq!(same_e, same_n);
            }
        }
    }

    #[test]
    fn covtype_shape_small_scale() {
        let ds = covtype_like_scaled(1, 5_000);
        assert_eq!(ds.n_rows(), 5_000);
        assert_eq!(ds.n_attrs(), 54);
        // One-hot blocks: each row is 1 in exactly one wilderness column.
        for r in (0..5_000).step_by(117) {
            let ones: i64 = (10..14)
                .map(|a| ds.value(r, AttrId::new(a)).as_int().unwrap())
                .sum();
            assert_eq!(ones, 1, "row {r} has {ones} wilderness indicators set");
        }
    }

    #[test]
    fn cps_shape_scaled() {
        let ds = cps_like(1, 2_000);
        assert_eq!(ds.n_rows(), 2_000);
        assert_eq!(ds.n_attrs(), 388);
    }

    #[test]
    fn cps_schema_stable_across_scales() {
        // Same seed, different n: per-column cardinality *classes* match.
        let a = cps_like(7, 500);
        let b = cps_like(7, 1_000);
        assert_eq!(a.n_attrs(), b.n_attrs());
        for i in (0..388).step_by(31) {
            assert_eq!(
                a.schema().attr(AttrId::new(i)).name(),
                b.schema().attr(AttrId::new(i)).name()
            );
        }
    }

    #[test]
    fn benchmark_set_names() {
        assert_eq!(BenchmarkSet::Adult.name(), "Adult");
        assert_eq!(BenchmarkSet::Covtype.name(), "Covtype");
        assert_eq!(BenchmarkSet::Cps.name(), "CPS");
    }
}
