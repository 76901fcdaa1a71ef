//! Seeded inputs and the in-process reference every served answer is
//! checked against.
//!
//! The data set is `N_BASE + N_APPEND` rows × 12 columns from
//! `qid_dataset::generator::DatasetSpec`: a `RowId` key, a `Constant`
//! column, Zipf and uniform integers of cardinality 2 to 10⁶ and a
//! `NoisyCopy` of one of them. Two columns are written as text tokens
//! and one as decimal floats, so CSV field typing infers all three
//! types. The first `N_BASE` rows form the base file; the rest are the
//! bytes a cycle appends.

use std::fs::File;
use std::io::{BufWriter, Cursor, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use qid_core::filter::{FilterParams, TupleSampleFilter};
use qid_core::sketch::{DistinctSketch, NonSeparationSketch};
use qid_core::stream::{PairIngest, TupleIngest};
use qid_dataset::csv::{CsvOptions, CsvTupleSource};
use qid_dataset::generator::{ColumnSpec, DatasetSpec, SourceRef};
use qid_dataset::{AttrId, TupleSource, Value};
use qid_server::registry::COLUMN_SKETCH_K;

use crate::alloc;

/// Rows in the base file (~26 MB). Half the row count of the sizing
/// the ledger was first planned at: a cycle then costs half as much, so
/// a run fits twice as many cycles and their figures hold steady on a
/// shared machine.
pub const N_BASE: usize = 500_000;
/// Rows a cycle appends (7 % of the base).
pub const N_APPEND: usize = 35_000;
/// Separation slack of every dataset key: a 120-tuple sample at m = 12.
pub const EPS: f64 = 0.01;
/// The column every `check` must accept (a key).
pub const KEY_COLUMN: &str = "id";
/// The column every `check` must reject (separates nothing).
pub const CONSTANT_COLUMN: &str = "const";

/// Rows parsed per timed chunk of the reference pass. Divides
/// [`N_BASE`], so the base prefix ends on a chunk boundary.
const CHUNK_ROWS: usize = 50_000;

/// How a column's raw integers are written to the CSV.
#[derive(Clone, Copy)]
enum Render {
    Int,
    /// A text token: the prefix followed by the integer.
    Text(&'static str),
    /// A decimal float: the integer followed by `.5`.
    Float,
}

fn columns() -> Vec<(&'static str, ColumnSpec, Render)> {
    use ColumnSpec::{Constant, NoisyCopy, RowId, Uniform, Zipf};
    vec![
        (KEY_COLUMN, RowId, Render::Int),
        (CONSTANT_COLUMN, Constant, Render::Int),
        ("sex", Uniform { cardinality: 2 }, Render::Int),
        ("region", Uniform { cardinality: 10 }, Render::Int),
        (
            "dept",
            Zipf {
                cardinality: 50,
                exponent: 0.8,
            },
            Render::Text("dept-"),
        ),
        ("age", Uniform { cardinality: 100 }, Render::Int),
        (
            "city",
            Zipf {
                cardinality: 1_000,
                exponent: 1.0,
            },
            Render::Text("city-"),
        ),
        (
            "visits",
            Zipf {
                cardinality: 10_000,
                exponent: 1.2,
            },
            Render::Int,
        ),
        (
            "income",
            Uniform {
                cardinality: 10_000,
            },
            Render::Float,
        ),
        (
            "zip",
            Zipf {
                cardinality: 100_000,
                exponent: 1.1,
            },
            Render::Int,
        ),
        (
            "zip_noisy",
            NoisyCopy {
                source: SourceRef::Column(9),
                flip_prob: 0.1,
                cardinality: 100_000,
            },
            Render::Int,
        ),
        (
            "account",
            Uniform {
                cardinality: 1_000_000,
            },
            Render::Int,
        ),
    ]
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The base CSV (header + `N_BASE` rows).
    pub base: PathBuf,
    /// Size of the base file, bytes.
    pub base_bytes: u64,
    /// The `N_APPEND` rows a cycle appends, as CSV bytes.
    pub suffix: Vec<u8>,
    /// Column names in schema order.
    pub names: Vec<String>,
}

/// Writes the base file into `dir` and returns it with the append
/// suffix. The same seed gives byte-identical inputs.
pub fn generate(dir: &Path, seed: u64) -> Result<Inputs, String> {
    let cols = columns();
    let spec = cols
        .iter()
        .fold(DatasetSpec::new(N_BASE + N_APPEND), |spec, (name, c, _)| {
            spec.column(*name, c.clone())
        });
    let ds = spec
        .generate(seed)
        .map_err(|e| format!("generating inputs: {e}"))?;
    let names: Vec<String> = cols.iter().map(|(name, _, _)| name.to_string()).collect();
    let render = |rows: std::ops::Range<usize>, out: &mut dyn Write| -> std::io::Result<()> {
        for r in rows {
            for (c, (_, _, how)) in cols.iter().enumerate() {
                if c > 0 {
                    out.write_all(b",")?;
                }
                let v = ds
                    .value(r, AttrId::new(c))
                    .as_int()
                    .expect("generated columns are integers");
                match how {
                    Render::Int => write!(out, "{v}")?,
                    Render::Text(prefix) => write!(out, "{prefix}{v}")?,
                    Render::Float => write!(out, "{v}.5")?,
                }
            }
            out.write_all(b"\n")?;
        }
        Ok(())
    };
    let base = dir.join("base.csv");
    let write_base = || -> std::io::Result<u64> {
        let mut w = BufWriter::with_capacity(1 << 20, File::create(&base)?);
        writeln!(w, "{}", names.join(","))?;
        render(0..N_BASE, &mut w)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(std::fs::metadata(&base)?.len())
    };
    let base_bytes = write_base().map_err(|e| format!("writing {}: {e}", base.display()))?;
    let mut suffix = Vec::new();
    render(N_BASE..N_BASE + N_APPEND, &mut suffix).map_err(|e| format!("rendering suffix: {e}"))?;
    Ok(Inputs {
        base,
        base_bytes,
        suffix,
        names,
    })
}

/// Copies `from` to `to` and syncs the copy, so no writeback of it is
/// left to land inside a later timed step (an fsync by the server would
/// otherwise wait for it).
pub fn copy_synced(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to)
        .and_then(|_| File::open(to)?.sync_all())
        .map_err(|e| format!("copying {} to {}: {e}", from.display(), to.display()))
}

/// Appends `bytes` to the file at `path` and syncs it.
pub fn append_synced(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .map_err(|e| format!("appending to {}: {e}", path.display()))
}

/// What a cold in-process stream build of the base and of the grown
/// file produces; served answers must equal these.
pub struct Reference {
    /// The tuple-sample filter over the base file.
    pub base: TupleSampleFilter,
    /// The tuple-sample filter over the grown file (base + suffix).
    pub grown: TupleSampleFilter,
    /// Per-column KMV sketches over the grown file (what `stats` reads).
    pub cols: Vec<DistinctSketch>,
    /// The Theorem 2 sketch over the grown file (what `sketch` reads).
    pub sketch: NonSeparationSketch,
    /// Rows in the grown file.
    pub grown_rows: usize,
}

/// Per-layer times of the reference pass over the base prefix: the
/// same rows a served cold build scans.
pub struct ParseLayers {
    /// Draining `CsvTupleSource` (framing + typing), seconds.
    pub parse_s: f64,
    /// Heap allocations per parsed row.
    pub allocs_per_row: f64,
    /// Feeding every value to the per-column KMV sketches, seconds.
    pub observe_s: f64,
    /// Offering every tuple to the tuple reservoir, seconds.
    pub tuple_ingest_s: f64,
    /// Offering every tuple to the sketch's pair reservoirs, seconds.
    pub pair_ingest_s: f64,
}

/// One pass over the grown file (base file chained with the suffix)
/// that builds every reference artifact, timing each layer separately
/// over pre-parsed chunks of the base prefix.
pub fn reference_pass(inputs: &Inputs, seed: u64) -> Result<(Reference, ParseLayers), String> {
    let file = File::open(&inputs.base).map_err(|e| format!("opening base: {e}"))?;
    let reader = file.chain(Cursor::new(inputs.suffix.clone()));
    let mut src = CsvTupleSource::from_reader(reader, &CsvOptions::default())
        .map_err(|e| format!("opening reference stream: {e}"))?;
    let names = src.attr_names();
    let params = FilterParams::new(EPS);
    let sketch_params = qid_server::sketch_params();
    let mut cols: Vec<DistinctSketch> = names
        .iter()
        .map(|_| DistinctSketch::new(COLUMN_SKETCH_K))
        .collect();
    let mut tuples = TupleIngest::new(names.clone(), params, seed);
    let pair_slots = sketch_params.pair_sample_size(names.len()).max(1);
    let mut pairs = PairIngest::new(names.clone(), pair_slots, seed);

    let mut layers = ParseLayers {
        parse_s: 0.0,
        allocs_per_row: 0.0,
        observe_s: 0.0,
        tuple_ingest_s: 0.0,
        pair_ingest_s: 0.0,
    };
    let mut parse_allocs = 0u64;
    let mut base = None;
    let mut chunk: Vec<Vec<Value>> = Vec::with_capacity(CHUNK_ROWS);
    let mut rows = 0usize;
    loop {
        let timed = rows < N_BASE;
        let allocs_before = alloc::allocations();
        let t = Instant::now();
        while chunk.len() < CHUNK_ROWS {
            match src.next_tuple() {
                Ok(Some(tuple)) => chunk.push(tuple),
                Ok(None) => break,
                Err(e) => return Err(format!("reference parse: {e}")),
            }
        }
        let parse = t.elapsed().as_secs_f64();
        let allocs = alloc::allocations() - allocs_before;
        if chunk.is_empty() {
            break;
        }
        let t = Instant::now();
        for tuple in &chunk {
            for (sk, v) in cols.iter_mut().zip(tuple) {
                sk.observe(v);
            }
        }
        let observe = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for tuple in &chunk {
            pairs.push(tuple);
        }
        let pair = t.elapsed().as_secs_f64();
        rows += chunk.len();
        let t = Instant::now();
        for tuple in chunk.drain(..) {
            tuples.push(tuple);
        }
        let tuple = t.elapsed().as_secs_f64();
        if timed {
            layers.parse_s += parse;
            parse_allocs += allocs;
            layers.observe_s += observe;
            layers.pair_ingest_s += pair;
            layers.tuple_ingest_s += tuple;
        }
        if rows == N_BASE {
            base = Some(
                tuples
                    .to_filter(params)
                    .map_err(|e| format!("reference base filter: {e}"))?,
            );
        }
    }
    layers.allocs_per_row = parse_allocs as f64 / N_BASE as f64;
    let base = base.ok_or_else(|| format!("reference pass saw only {rows} rows"))?;
    if rows != N_BASE + N_APPEND {
        return Err(format!(
            "reference pass saw {rows} rows, expected {}",
            N_BASE + N_APPEND
        ));
    }
    let grown = tuples
        .to_filter(params)
        .map_err(|e| format!("reference grown filter: {e}"))?;
    let sketch = pairs
        .to_sketch(sketch_params)
        .map_err(|e| format!("reference sketch: {e}"))?;
    Ok((
        Reference {
            base,
            grown,
            cols,
            sketch,
            grown_rows: rows,
        },
        layers,
    ))
}
