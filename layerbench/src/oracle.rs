//! Expected replies, computed in-process from the reference artifacts
//! with the library's own query functions. A served reply is correct
//! iff it is byte-identical to the encoding of the expected response.

use qid_core::filter::TupleSampleFilter;
use qid_core::minkey::{enumerate_minimal_keys, LatticeConfig};
use qid_core::separation::group_sizes;
use qid_dataset::AttrId;
use qid_server::proto::{Request, Response, SKETCH_ALPHA, SKETCH_K, SKETCH_REL_EPS};
use qid_server::resolve_attr_names;

use crate::data::Reference;

/// `audit`'s lattice cap, as the server applies it.
const MAX_LATTICE_CANDIDATES: usize = 500_000;

fn resolve(
    filter: &TupleSampleFilter,
    attrs: &[String],
) -> Result<(Vec<AttrId>, Vec<String>), String> {
    let sample = filter.sample();
    let resolved = resolve_attr_names(sample.schema(), sample.n_attrs(), attrs)?;
    let names = resolved
        .attrs
        .iter()
        .map(|&a| sample.schema().attr(a).name().to_string())
        .collect();
    Ok((resolved.attrs, names))
}

/// The `check` reply `filter` gives for `attrs`.
pub fn check(filter: &TupleSampleFilter, attrs: &[String]) -> Result<Response, String> {
    let (ids, names) = resolve(filter, attrs)?;
    Ok(Response::Check {
        attrs: names,
        accept: filter.query_sorted(&ids).is_accept(),
    })
}

/// The reply to `request` from an entry over the grown file.
pub fn expected(request: &Request, r: &Reference) -> Result<Response, String> {
    Ok(match request {
        Request::Check { attrs, .. } => check(&r.grown, attrs)?,
        Request::Batch { requests } => Response::Batch {
            results: requests
                .iter()
                .map(|sub| expected(sub, r))
                .collect::<Result<_, _>>()?,
        },
        Request::Stats { .. } => {
            let schema = r.grown.sample().schema();
            Response::Stats {
                rows: r.grown_rows,
                exact: r.cols.iter().all(|sk| sk.is_exact()),
                columns: r
                    .cols
                    .iter()
                    .enumerate()
                    .map(|(a, sk)| {
                        (
                            schema.attr(AttrId::new(a)).name().to_string(),
                            sk.estimate(),
                        )
                    })
                    .collect(),
            }
        }
        Request::Sketch { attrs, .. } => {
            let (ids, names) = resolve(&r.grown, attrs)?;
            Response::Sketch {
                attrs: names,
                estimate: r.sketch.query(&ids).estimate(),
                raw_pairs: r.sketch.raw_count(&ids),
                sample_pairs: r.sketch.sample_size(),
                alpha: SKETCH_ALPHA,
                rel_error: SKETCH_REL_EPS,
                k: SKETCH_K,
            }
        }
        Request::Audit { max_key_size, .. } => {
            let sample = r.grown.sample();
            let keys = enumerate_minimal_keys(
                sample,
                LatticeConfig {
                    max_size: *max_key_size,
                    max_candidates: MAX_LATTICE_CANDIDATES,
                },
            );
            Response::Audit {
                keys: keys
                    .into_iter()
                    .map(|key| {
                        let unique = group_sizes(sample, &key)
                            .iter()
                            .filter(|&&s| s == 1)
                            .count();
                        let names = key
                            .iter()
                            .map(|&a| sample.schema().attr(a).name().to_string())
                            .collect();
                        (names, unique as f64 / sample.n_rows() as f64)
                    })
                    .collect(),
            }
        }
        other => return Err(format!("no oracle for {:?}", other.command_name())),
    })
}
