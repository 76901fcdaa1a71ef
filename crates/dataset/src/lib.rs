//! # qid-dataset — data substrate for quasi-identifier discovery
//!
//! This crate implements the data-set model of Hildebrant, Le, Ta and Vu,
//! *"Towards Better Bounds for Finding Quasi-Identifiers"* (PODS 2023):
//! a data set is `n` tuples over `m` attributes whose values live in a
//! totally ordered universe `U` with constant-time comparisons.
//!
//! Design highlights:
//!
//! * **Dictionary-encoded columnar storage.** Every column stores one
//!   `u32` code per row plus a dictionary mapping codes back to
//!   [`Value`]s. Two rows agree on an attribute iff their codes are
//!   equal, so the separation predicates at the heart of the paper are
//!   single integer comparisons. Codes themselves form a total order
//!   (any total order suffices for the paper's sort-based algorithms).
//! * **Immutable, cheaply shareable data.** Columns and dictionaries are
//!   behind `Arc`, so projections ([`Dataset::project`]) and row subsets
//!   ([`Dataset::gather`]) — the operations sketching algorithms perform
//!   constantly — are cheap and allocation-light.
//! * **Synthetic workload generators** ([`generator`]) reproducing the
//!   shapes of the paper's three evaluation data sets (UCI Adult, UCI
//!   Covtype, Census CPS 2016) and the two lower-bound constructions of
//!   Lemmas 3 and 4.
//! * **CSV I/O** ([`csv`]) so real UCI files can be swapped in.
//!
//! ```
//! use qid_dataset::{DatasetBuilder, Value};
//!
//! let mut b = DatasetBuilder::new(["city", "zip", "age"]);
//! b.push_row([Value::text("SD"), Value::Int(92101), Value::Int(33)]).unwrap();
//! b.push_row([Value::text("SD"), Value::Int(92102), Value::Int(41)]).unwrap();
//! let ds = b.finish();
//! assert_eq!(ds.n_rows(), 2);
//! assert_eq!(ds.n_attrs(), 3);
//! // The two rows agree on "city" but differ on "zip".
//! assert_eq!(ds.code(0, 0.into()), ds.code(1, 0.into()));
//! assert_ne!(ds.code(0, 1.into()), ds.code(1, 1.into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod column;
pub mod csv;
mod dataset;
mod error;
pub mod generator;
mod schema;
mod stream;
mod symbol;
mod value;

pub use builder::DatasetBuilder;
pub use column::Column;
pub use dataset::{Dataset, RowRef};
pub use error::DatasetError;
pub use schema::{AttrId, Attribute, DataType, Schema};
pub use stream::{collect_stream, project_tuple, DatasetTupleSource, TupleSource, VecTupleSource};
pub use symbol::Interner;
pub use value::{TotalF64, Value, ValueRef};
