//! # qid-sampling — uniform sampling substrate
//!
//! Every algorithm in Hildebrant–Le–Ta–Vu (PODS 2023) is "an algorithm
//! based on uniform sampling": it draws tuples or pairs of tuples
//! uniformly at random and answers queries from the sample alone. This
//! crate provides that machinery, built from scratch:
//!
//! * [`swor`] — sampling `k` distinct indices from `0..n` (Floyd's
//!   algorithm for `k ≪ n`, partial Fisher–Yates otherwise) — the
//!   "sample without replacement Θ(m/√ε) tuples" step of Algorithm 1.
//! * [`reservoir`] — one-pass reservoirs: Algorithm R, the reference,
//!   and [`reservoir::MultiReservoir`], `s` independent skip-based
//!   Algorithm L reservoirs sharing one skip heap. One slot is
//!   Algorithm 1's tuple sample in the streaming model; slots of two
//!   are one-pass uniform *pair* sampling for the Motwani–Xu filter and
//!   the Theorem 2 sketch.
//! * [`pairs`] — unordered-pair (un)ranking and uniform pair samplers
//!   with and without replacement.
//! * [`alias`] — Walker's alias method for multinomial draws, used by the
//!   worst-case clique-profile experiments (`D_s` in the paper's
//!   Section 2.1).
//! * [`birthday`] — the birthday-problem calculators of Theorem 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod birthday;
pub mod pairs;
pub mod reservoir;
pub mod swor;

pub use alias::AliasTable;
pub use birthday::{collision_prob_lower_bound, non_collision_prob_uniform, q_for_collision};
pub use pairs::{pair_count, rank_pair, sample_pair, unrank_pair, PairSampler};
pub use reservoir::{MultiReservoir, Reservoir};
pub use swor::{sample_indices, sample_indices_fisher_yates, sample_indices_floyd};
