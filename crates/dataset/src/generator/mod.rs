//! Seedable synthetic data generators.
//!
//! Two families:
//!
//! * a declarative per-column distribution language
//!   ([`ColumnSpec`] / [`DatasetSpec`]) used to build arbitrary
//!   workloads, plus [`adult_like`] / [`covtype_like`] / [`cps_like`]
//!   which instantiate it to reproduce the *shapes* of the paper's
//!   three evaluation data sets (UCI Adult, UCI Covtype, US Census CPS
//!   2016; those files are not redistributable, so the substitutes
//!   keep their row and attribute counts, cardinalities, skew and
//!   dependencies).
//! * the two adversarial constructions from the
//!   paper's lower-bound proofs: the grid data set `[q]^m` of Lemma 3
//!   (kept implicit: `q^m` rows are never materialised) and the
//!   planted-clique data set of Lemma 4.

mod benchmark_sets;
mod lower_bounds;
mod spec;
mod zipf;

pub use benchmark_sets::{adult_like, covtype_like, covtype_like_scaled, cps_like, BenchmarkSet};
pub use lower_bounds::{planted_clique, planted_clique_size, GridDataset};
pub use spec::{ColumnSpec, DatasetSpec, SourceRef};
pub use zipf::ZipfSampler;
