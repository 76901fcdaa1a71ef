//! The warm tier's on-disk format: one checksummed binary artifact per
//! cache key.
//!
//! A key's whole persisted state lives in a single file named by the
//! key's 16-hex FNV-64 stem ([`CacheKey::fnv64`]): the key identity,
//! shape and source stamp, the tuple sample, and two optional sections
//! behind presence flags — the per-column KMV minima, once `stats`
//! built them, and the Theorem 2 pair sample with its sketch
//! parameters, once `sketch` ran. The reservoir behind the tuple sample is not stored: its
//! state follows from the key's seed and the row count, so an append
//! replays it (`TupleIngest::resume`). It is published with one temp
//! write + rename, so a reader sees the old artifact or the new one,
//! never a mix, and disk GC and `unload` remove one file per key. This
//! module is the only one that knows the byte layout.
//!
//! Values are stored typed, as each column's dictionary plus codes, so a
//! restore is exact: `Int(1)` and `Float(1.0)` stay distinct and every
//! sample is persistable. Codes take the narrowest width the dictionary
//! allows (u8/u16/u32) and dictionary integers are zigzag varints.
//!
//! ```text
//! artifact = "QIDA" · version u16 · header · kmv · sample · pairs · checksum u64
//! header   = path str · eps_bits u64 · seed u64 · rows var · attrs var
//!            · len u64 · mtime_s u64 · mtime_ns u32 · prefix_hash u64
//!            · full_hash u64 · captured_ms u64
//! kmv      = 0u8 | 1u8 · attrs × (count var · count × u64)
//! pairs    = 0u8 | 1u8 · alpha u64 · eps u64 · k var · multiplier u64 · table
//! table    = byte_len var · rows var · attrs × column
//! column   = name str · dtype u8 · dict_len var · dict_len × value
//!            · rows × code (u8 if dict_len ≤ 2⁸, u16 if ≤ 2¹⁶, else u32)
//! value    = 0u8 null | 1u8 zigzag var | 2u8 f64 bits u64 | 3u8 str
//! str      = byte_len var · UTF-8
//! ```
//!
//! Fixed-width integers are little-endian, `var` is LEB128, and the
//! trailing checksum is the hash of every preceding byte under the
//! word-wide `ContentHasher` that also computes the source stamp's
//! `prefix_hash` and `full_hash` (the `freshness` module specifies it),
//! so a change confined to one aligned 8-byte word of the body is
//! always caught. The version is read before the checksum: an artifact
//! of another version (whose checksum may be another hash) is reported
//! as such, never as corrupt. Bytes read back from
//! disk are untrusted: the decoder checks every length against the
//! bytes that remain, every code against its dictionary and every
//! table's width against the header *before* a `Column` or `Dataset` is
//! built (their constructors panic on bad input). A truncated or
//! corrupted file decodes to an error, and the lookup re-scans.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qid_core::filter::FilterParams;
use qid_core::sketch::{DistinctSketch, SketchParams};
use qid_core::stream::TupleIngest;
use qid_dataset::{Attribute, Column, DataType, Dataset, Schema, Value};

/// The artifact checksum: the source stamps' content hash.
pub(crate) use crate::freshness::content_hash as checksum;
use crate::freshness::SourceStamp;
use crate::registry::CacheKey;

const MAGIC: &[u8; 4] = b"QIDA";

/// On-disk format version; bump on any layout change so old files are
/// rejected, not misread. Versions 1–3 were the text formats
/// (`.sample.csv` + `.meta.json` + `.pairs.*`); 4 was this layout with
/// FNV-1a stamp hashes and checksum; 5 also stored the paused
/// reservoir's checkpoint; 6 always held the KMV section; 7 is this
/// artifact.
pub(crate) const VERSION: u16 = 7;

/// A decode result; the error says what was wrong.
type Decoded<T> = Result<T, &'static str>;

/// The scalar state persisted for one key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Header {
    /// The cache key the artifact belongs to.
    pub key: CacheKey,
    /// Source rows the entry was built from.
    pub rows: usize,
    /// Attribute count; every table in the artifact has this width.
    pub attrs: usize,
    /// The source stamp the entry was built against.
    pub source: SourceStamp,
}

/// A parsed artifact whose checksum held. The sample and pair tables
/// stay encoded until asked for, so restoring an entry never decodes
/// the pair sample.
#[derive(Debug)]
pub(crate) struct Artifact<'a> {
    pub header: Header,
    /// Per-column KMV minima, one list per attribute, if the artifact
    /// has the section.
    pub cols: Option<Vec<Vec<u64>>>,
    sample: &'a [u8],
    pairs: Option<(SketchParams, &'a [u8])>,
}

impl Artifact<'_> {
    /// Decodes the tuple sample, which must hold the `min(rows, r)` rows
    /// a reservoir of size `r = ⌈m/√ε⌉` keeps of `rows`: the items an
    /// append replays it from. Restore and `qid wal` both decode it here,
    /// so they agree on which artifacts are usable.
    pub fn sample(&self) -> Decoded<Dataset> {
        let h = &self.header;
        let sample = table(self.sample, h.attrs)?;
        let params = FilterParams::new(f64::from_bits(h.key.eps_bits));
        if sample.n_rows() != h.rows.min(TupleIngest::capacity(params, h.attrs)) {
            return Err("sample does not fit the row count");
        }
        Ok(sample)
    }

    /// Decodes the pair section, if the artifact has one: the sketch
    /// parameters it was built with and its `2s` pair rows.
    pub fn pairs(&self) -> Decoded<Option<(SketchParams, Dataset)>> {
        let Some((params, bytes)) = self.pairs else {
            return Ok(None);
        };
        let pairs = table(bytes, self.header.attrs)?;
        if !pairs.n_rows().is_multiple_of(2) {
            return Err("odd pair-row count");
        }
        Ok(Some((params, pairs)))
    }
}

/// Renders one key's artifact, checksum included.
pub(crate) fn encode(
    header: &Header,
    cols: Option<&[DistinctSketch]>,
    sample: &Dataset,
    pairs: Option<(SketchParams, &Dataset)>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_str(&mut out, &header.key.path);
    put_u64(&mut out, header.key.eps_bits);
    put_u64(&mut out, header.key.seed);
    put_var(&mut out, header.rows as u64);
    put_var(&mut out, header.attrs as u64);
    let s = header.source;
    put_u64(&mut out, s.len);
    put_u64(&mut out, s.mtime_s);
    out.extend_from_slice(&s.mtime_ns.to_le_bytes());
    put_u64(&mut out, s.prefix_hash);
    put_u64(&mut out, s.full_hash);
    put_u64(&mut out, s.captured_ms);
    match cols {
        None => out.push(0),
        Some(cols) => {
            out.push(1);
            for sk in cols {
                put_var(&mut out, sk.minima().count() as u64);
                for h in sk.minima() {
                    put_u64(&mut out, h);
                }
            }
        }
    }
    put_table(&mut out, sample);
    match pairs {
        None => out.push(0),
        Some((params, table)) => {
            out.push(1);
            put_u64(&mut out, params.alpha.to_bits());
            put_u64(&mut out, params.eps.to_bits());
            put_var(&mut out, params.k as u64);
            put_u64(&mut out, params.multiplier.to_bits());
            put_table(&mut out, table);
        }
    }
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    out
}

/// Checks the version, verifies the checksum and parses everything but
/// the two tables.
pub(crate) fn parse(bytes: &[u8]) -> Decoded<Artifact<'_>> {
    if bytes.len() < MAGIC.len() + 2 + 8 || &bytes[..MAGIC.len()] != MAGIC {
        return Err("not an artifact");
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    let mut r = Reader(&body[MAGIC.len()..]);
    if r.u16()? != VERSION {
        return Err("unsupported version");
    }
    if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
        return Err("checksum mismatch");
    }
    let key = CacheKey {
        path: r.str()?.to_string(),
        eps_bits: r.u64()?,
        seed: r.u64()?,
    };
    let eps = f64::from_bits(key.eps_bits);
    if !(eps > 0.0 && eps < 1.0) {
        return Err("eps outside (0, 1)");
    }
    let rows = r.usize()?;
    // Every attribute owns at least its name's length byte in the
    // sample table, which bounds `attrs` by the bytes that remain.
    let attrs = r.count(1)?;
    let source = SourceStamp {
        len: r.u64()?,
        mtime_s: r.u64()?,
        mtime_ns: u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")),
        prefix_hash: r.u64()?,
        full_hash: r.u64()?,
        captured_ms: r.u64()?,
    };
    let cols = match r.u8()? {
        0 => None,
        1 => Some(
            (0..attrs)
                .map(|_| {
                    let n = r.count(8)?;
                    (0..n).map(|_| r.u64()).collect()
                })
                .collect::<Decoded<Vec<Vec<u64>>>>()?,
        ),
        _ => return Err("bad KMV-section flag"),
    };
    let sample = r.section()?;
    let pairs = match r.u8()? {
        0 => None,
        1 => {
            let params = SketchParams {
                alpha: f64::from_bits(r.u64()?),
                eps: f64::from_bits(r.u64()?),
                k: r.usize()?,
                multiplier: f64::from_bits(r.u64()?),
            };
            Some((params, r.section()?))
        }
        _ => return Err("bad pair-section flag"),
    };
    if !r.0.is_empty() {
        return Err("trailing bytes");
    }
    Ok(Artifact {
        header: Header {
            key,
            rows,
            attrs,
            source,
        },
        cols,
        sample,
        pairs,
    })
}

// ------------------------------------------------------------ files

/// Where the artifact for key stem `stem` lives under `dir`.
pub(crate) fn path(dir: &Path, stem: u64) -> PathBuf {
    dir.join(format!("{stem:016x}"))
}

/// The key stem of an artifact file name, or `None` for every other
/// file: artifact names are exactly 16 hex digits, so foreign files in
/// a shared dir and in-flight temp files are never mistaken for one.
pub(crate) fn stem(name: &str) -> Option<u64> {
    let hex = name.len() == 16 && name.bytes().all(|b| b.is_ascii_hexdigit());
    hex.then(|| u64::from_str_radix(name, 16).ok())?
}

/// True iff `name` is a temp file an artifact publish writes: a
/// 16-hex key stem, a dot, and a `.tmp` suffix.
pub(crate) fn is_tmp(name: &str) -> bool {
    name.ends_with(".tmp")
        && name.get(..17).is_some_and(|head| head.ends_with('.'))
        && stem(&name[..16]).is_some()
}

/// Every artifact under `dir` as `(stem, path, metadata)`.
pub(crate) fn list(dir: &Path) -> Vec<(u64, PathBuf, std::fs::Metadata)> {
    let Ok(listing) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    listing
        .flatten()
        .filter_map(|dirent| {
            let stem = dirent.file_name().to_str().and_then(stem)?;
            Some((stem, dirent.path(), dirent.metadata().ok()?))
        })
        .collect()
}

/// Writes `bytes` as `key`'s artifact: a temp file unique to this
/// writer (pid + counter), renamed into place. A reader therefore sees
/// a complete artifact or none, and with several processes sharing one
/// dir a rename can only publish bytes its own process wrote. The temp
/// file is removed if either step fails; a killed writer's debris is
/// swept at registry creation.
pub(crate) fn publish(dir: &Path, key: &CacheKey, bytes: &[u8]) -> std::io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let dest = path(dir, key.fnv64());
    let tmp = dir.join(format!(
        "{:016x}.{}-{}.tmp",
        key.fnv64(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, &dest));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// What `qid wal` reports about one artifact.
#[derive(Clone, Debug)]
pub struct ArtifactInfo {
    /// The file's key stem.
    pub stem: u64,
    /// The file's size.
    pub bytes: u64,
    /// What a full decode found, or why it failed.
    pub contents: Result<ArtifactContents, String>,
}

/// The decoded shape of an artifact that verifies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactContents {
    /// The source path the key names.
    pub path: String,
    /// Source rows.
    pub rows: usize,
    /// Attributes.
    pub attrs: usize,
    /// Rows in the tuple sample.
    pub sample_rows: usize,
    /// True iff the artifact carries a pair sample.
    pub pairs: bool,
}

/// Fully decodes every artifact under `dir`, pair sections included,
/// without touching them — the artifact half of `qid wal`.
pub fn inspect(dir: &Path) -> Vec<ArtifactInfo> {
    let decode = |bytes: &[u8], stem: u64| -> Decoded<ArtifactContents> {
        let art = parse(bytes)?;
        if art.header.key.fnv64() != stem {
            return Err("file name does not match its key");
        }
        Ok(ArtifactContents {
            path: art.header.key.path.clone(),
            rows: art.header.rows,
            attrs: art.header.attrs,
            sample_rows: art.sample()?.n_rows(),
            pairs: art.pairs()?.is_some(),
        })
    };
    let mut out: Vec<ArtifactInfo> = list(dir)
        .into_iter()
        .map(|(stem, file, meta)| ArtifactInfo {
            stem,
            bytes: meta.len(),
            contents: std::fs::read(&file)
                .map_err(|e| e.to_string())
                .and_then(|bytes| decode(&bytes, stem).map_err(str::to_string)),
        })
        .collect();
    out.sort_by_key(|a| a.stem);
    out
}

// ----------------------------------------------------------- codec

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_var(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_var(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The byte width of one code in a column with `dict_len` values.
fn code_width(dict_len: usize) -> usize {
    match dict_len {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        _ => 4,
    }
}

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Mixed => 3,
    }
}

fn put_table(out: &mut Vec<u8>, ds: &Dataset) {
    let mut body = Vec::new();
    put_var(&mut body, ds.n_rows() as u64);
    for (attr, col) in ds.schema().attrs().iter().zip(ds.columns()) {
        put_str(&mut body, attr.name());
        body.push(dtype_tag(attr.dtype()));
        put_var(&mut body, col.dict().len() as u64);
        for v in col.dict().iter() {
            match v {
                Value::Null => body.push(0),
                Value::Int(i) => {
                    body.push(1);
                    put_var(&mut body, ((*i << 1) ^ (*i >> 63)) as u64);
                }
                Value::Float(f) => {
                    body.push(2);
                    put_u64(&mut body, f.0.to_bits());
                }
                Value::Text(t) => {
                    body.push(3);
                    put_str(&mut body, t);
                }
            }
        }
        // Every code is below the dictionary length, so its low
        // `width` little-endian bytes hold it exactly.
        let width = code_width(col.dict().len());
        for &code in col.codes() {
            body.extend_from_slice(&code.to_le_bytes()[..width]);
        }
    }
    put_var(out, body.len() as u64);
    out.extend_from_slice(&body);
}

/// Decodes one table of width `attrs`, validating everything the
/// `Column`/`Dataset` constructors would otherwise panic on.
fn table(bytes: &[u8], attrs: usize) -> Decoded<Dataset> {
    let mut r = Reader(bytes);
    let rows = r.usize()?;
    if attrs == 0 && rows != 0 {
        return Err("rows without columns");
    }
    let mut schema = Vec::with_capacity(attrs);
    let mut columns = Vec::with_capacity(attrs);
    for _ in 0..attrs {
        let name = r.str()?.to_string();
        let dtype = match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Text,
            3 => DataType::Mixed,
            _ => return Err("bad column type"),
        };
        let dict_len = r.count(1)?;
        let dict = (0..dict_len)
            .map(|_| {
                Ok(match r.u8()? {
                    0 => Value::Null,
                    1 => {
                        let z = r.var()?;
                        Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
                    }
                    2 => Value::float(f64::from_bits(r.u64()?)),
                    3 => Value::text(r.str()?),
                    _ => return Err("bad value tag"),
                })
            })
            .collect::<Decoded<Vec<Value>>>()?;
        let width = code_width(dict_len);
        let raw = r.take(rows.checked_mul(width).ok_or("row count overflows")?)?;
        let codes: Vec<u32> = raw
            .chunks_exact(width)
            .map(|chunk| {
                let mut word = [0u8; 4];
                word[..width].copy_from_slice(chunk);
                u32::from_le_bytes(word)
            })
            .collect();
        if codes.iter().any(|&c| c as usize >= dict_len) {
            return Err("code outside its dictionary");
        }
        schema.push(Attribute::new(name, dtype));
        columns.push(Arc::new(Column::new(codes, Arc::from(dict))));
    }
    if !r.0.is_empty() {
        return Err("trailing bytes in table");
    }
    Ok(Dataset::new(Schema::new(schema), columns))
}

/// A bounds-checked cursor over untrusted bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if n > self.0.len() {
            return Err("truncated");
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Decoded<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u64(&mut self) -> Decoded<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn var(&mut self) -> Decoded<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err("varint overflows u64");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint overflows u64")
    }

    fn usize(&mut self) -> Decoded<usize> {
        usize::try_from(self.var()?).map_err(|_| "value overflows usize")
    }

    /// A count of items that each take at least `unit` bytes — bounded
    /// by the bytes that remain, so a corrupted count can never drive a
    /// huge allocation.
    fn count(&mut self, unit: usize) -> Decoded<usize> {
        let n = self.usize()?;
        if n.saturating_mul(unit) > self.0.len() {
            return Err("count exceeds the artifact");
        }
        Ok(n)
    }

    fn str(&mut self) -> Decoded<&'a str> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| "invalid UTF-8")
    }

    /// A length-prefixed section, returned undecoded.
    fn section(&mut self) -> Decoded<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    impl Artifact<'_> {
        /// The sample section and the pair section's sketch parameters
        /// and table, undecoded.
        pub(crate) fn sections(&self) -> (&[u8], Option<(SketchParams, &[u8])>) {
            (self.sample, self.pairs)
        }
    }

    /// The values the codec must keep apart exactly, weighted towards
    /// the awkward ones.
    fn value() -> impl Strategy<Value = Value> {
        (0u8..11, 0u64..=u64::MAX, "[a-zé漢🙂,\"\n ]{0,6}").prop_map(|(tag, bits, text)| {
            match tag {
                0 => Value::Null,
                1 => Value::Int(bits as i64),
                2 => Value::Int(i64::MIN),
                3 => Value::Int(i64::MAX),
                4 => Value::float(f64::from_bits(bits)),
                5 => Value::float(-0.0),
                // NaN with an arbitrary payload and sign.
                6 => Value::float(f64::from_bits(0x7ff0_0000_0000_0001 | bits)),
                7 => Value::Int(1),
                8 => Value::float(1.0),
                9 => Value::text(text),
                _ => {
                    let fixed = ["", ",", "\"", "\n", "a,\"b\"\nc", "é漢🙂"];
                    Value::text(fixed[bits as usize % fixed.len()])
                }
            }
        })
    }

    /// A table of `rows` rows and `attrs` columns with arbitrary
    /// dictionaries (duplicates and unused entries included).
    fn table_of(rows: usize, attrs: usize) -> impl Strategy<Value = Dataset> {
        let column = (
            "[a-z,é]{0,4}",
            0u8..4,
            vec(value(), 1..12),
            vec(0u32..=u32::MAX, rows),
        );
        vec(column, attrs).prop_map(|cols| {
            let mut schema = Vec::new();
            let mut columns = Vec::new();
            for (name, tag, dict, raw) in cols {
                let dtype = [
                    DataType::Int,
                    DataType::Float,
                    DataType::Text,
                    DataType::Mixed,
                ];
                schema.push(Attribute::new(name, dtype[tag as usize]));
                let codes = raw.iter().map(|c| c % dict.len() as u32).collect();
                columns.push(Arc::new(Column::new(codes, Arc::from(dict))));
            }
            Dataset::new(Schema::new(schema), columns)
        })
    }

    /// A header for a source of `rows` rows, whose sample therefore
    /// holds `min(rows, 10·attrs)` rows.
    fn header(attrs: usize, rows: usize, bits: u64) -> Header {
        Header {
            key: CacheKey {
                path: "/data/é漢🙂,\"q\"\n.csv".to_string(),
                eps_bits: 0.01f64.to_bits(),
                seed: bits,
            },
            rows,
            attrs,
            source: SourceStamp {
                len: bits,
                mtime_s: bits.rotate_left(7),
                mtime_ns: bits as u32,
                prefix_hash: !bits,
                full_hash: bits.rotate_left(31),
                captured_ms: bits ^ 0x5555,
            },
        }
    }

    fn sketch_params() -> SketchParams {
        SketchParams::with_multiplier(0.05, 0.25, 3, 1.5)
    }

    fn cols_of(attrs: usize, bits: u64) -> Vec<DistinctSketch> {
        (0..attrs)
            .map(|a| {
                let n = (bits as usize + a * 37) % 300;
                DistinctSketch::from_minima(256, (0..n as u64).map(|i| i.wrapping_mul(bits | 1)))
            })
            .collect()
    }

    /// Code-for-code, dictionary-for-dictionary table equality (the
    /// dictionary compares values by bit pattern, so NaN payloads and
    /// `-0.0` count).
    fn same_table(a: &Dataset, b: &Dataset) -> bool {
        a.n_rows() == b.n_rows()
            && a.schema().attrs() == b.schema().attrs()
            && a.columns()
                .iter()
                .zip(b.columns())
                .all(|(x, y)| x.codes() == y.codes() && x.dict() == y.dict())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn encode_then_decode_is_the_identity(
            (attrs, sample, pairs) in (1usize..5, 0usize..9).prop_flat_map(|(attrs, rows)| {
                (Just(attrs), table_of(rows, attrs), table_of(2 * rows, attrs))
            }),
            bits in 0u64..=u64::MAX,
            with_pairs in 0u8..2,
            with_cols in 0u8..2,
            bad_flag in 2u8..=u8::MAX,
        ) {
            // Fewer rows than the reservoir holds: the sample is all of them.
            let header = header(attrs, sample.n_rows(), bits);
            let cols = cols_of(attrs, bits);
            let kmv_section = (with_cols == 1).then_some(cols.as_slice());
            let pair_section = (with_pairs == 1).then_some((sketch_params(), &pairs));
            let bytes = encode(&header, kmv_section, &sample, pair_section);

            let art = parse(&bytes).expect("a fresh artifact parses");
            prop_assert_eq!(&art.header, &header);
            prop_assert_eq!(art.header.source.captured_ms, header.source.captured_ms);
            let minima: Vec<Vec<u64>> = cols.iter().map(|sk| sk.minima().collect()).collect();
            prop_assert_eq!(&art.cols, &(with_cols == 1).then_some(minima));
            prop_assert!(same_table(&art.sample().unwrap(), &sample));
            match art.pairs().unwrap() {
                None => prop_assert!(with_pairs == 0),
                Some((params, table)) => {
                    prop_assert!(with_pairs == 1);
                    prop_assert_eq!(params, sketch_params());
                    prop_assert!(same_table(&table, &pairs));
                }
            }

            // Any KMV-section flag but 0 and 1, sealed like a good one,
            // is rejected as such.
            let mut bad = bytes.clone();
            bad[kmv_flag_at(&bytes)] = bad_flag;
            prop_assert_eq!(parse(&reseal(bad)).err(), Some("bad KMV-section flag"));
        }
    }

    /// Where the KMV-section flag sits in `bytes`: right after the
    /// header.
    fn kmv_flag_at(bytes: &[u8]) -> usize {
        let mut r = Reader(&bytes[MAGIC.len() + 2..]);
        r.str().unwrap();
        r.take(16).unwrap();
        r.var().unwrap();
        r.var().unwrap();
        r.take(8 + 8 + 4 + 8 + 8 + 8).unwrap();
        bytes.len() - r.0.len()
    }

    /// `bytes` with the checksum recomputed over its body.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        if bytes.len() >= 8 {
            let body = bytes.len() - 8;
            let sum = checksum(&bytes[..body]);
            bytes[body..].copy_from_slice(&sum.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn codes_take_the_narrowest_width_the_dictionary_allows() {
        let encoded_len = |dict_len: usize| {
            let dict: Arc<[Value]> = (0..dict_len as i64).map(Value::Int).collect();
            let codes = vec![dict_len as u32 - 1; 100];
            let ds = Dataset::new(
                Schema::new(vec![Attribute::new("c", DataType::Int)]),
                vec![Arc::new(Column::new(codes, Arc::clone(&dict)))],
            );
            let mut out = Vec::new();
            put_table(&mut out, &ds);
            let back = table(Reader(&out).section().unwrap(), 1).unwrap();
            assert!(same_table(&back, &ds), "dict of {dict_len}");
            out.len()
        };
        // One more dictionary entry costs its varint; crossing a width
        // boundary costs one more byte for each of the 100 codes.
        assert_eq!(encoded_len(257) - encoded_len(256), 3 + 100);
        assert_eq!(encoded_len(65_537) - encoded_len(65_536), 4 + 2 * 100);
    }

    /// A small artifact with every section present.
    fn small_artifact() -> Vec<u8> {
        let dict: Arc<[Value]> =
            vec![Value::Int(1), Value::float(1.0), Value::text("a,\"b\"")].into();
        let column = |codes: Vec<u32>| Arc::new(Column::new(codes, Arc::clone(&dict)));
        let schema = || Schema::new(vec![Attribute::new("v", DataType::Mixed)]);
        let sample = Dataset::new(schema(), vec![column(vec![0, 1, 2])]);
        let pairs = Dataset::new(schema(), vec![column(vec![0, 1, 1, 2])]);
        encode(
            &header(1, 3, 42),
            Some(&cols_of(1, 3)),
            &sample,
            Some((sketch_params(), &pairs)),
        )
    }

    /// Parses and decodes every section — what a restore plus the
    /// first `sketch` would do.
    fn decode_all(bytes: &[u8]) -> Decoded<()> {
        let art = parse(bytes)?;
        art.sample()?;
        art.pairs()?;
        Ok(())
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let good = small_artifact();
        assert!(decode_all(&good).is_ok());
        for len in 0..good.len() {
            assert!(decode_all(&good[..len]).is_err(), "truncated to {len}");
        }
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 1 << (at % 8);
            assert!(decode_all(&bad).is_err(), "bit flipped in byte {at}");
        }
    }

    #[test]
    fn a_resealed_corruption_never_panics_the_decoder() {
        // Re-sealing the checksum after each corruption drives the
        // damage past the checksum into the structural checks, which
        // must turn it into an error — or a valid decode — but never a
        // panic in `Column::new`/`Dataset::new`.
        let good = small_artifact();
        for len in 0..good.len() {
            let _ = decode_all(&reseal(good[..len].to_vec()));
        }
        for at in 0..good.len() - 8 {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[at] ^= 1 << bit;
                let _ = decode_all(&reseal(bad));
            }
        }
    }

    #[test]
    fn an_artifact_whose_sample_does_not_fit_its_row_count_is_invalid() {
        // One attribute at ε = 0.01: the reservoir holds 10 rows, so a
        // 3-row source keeps all 3 and a 1000-row source keeps 10. A
        // sample one row short or over is sealed like any other, and
        // `qid wal` reports it invalid, as a restore refuses it.
        let dir = std::env::temp_dir().join(format!("qid-artifact-fit-{}", std::process::id()));
        let dict: Arc<[Value]> = (0..12).map(Value::Int).collect();
        let sample = |rows: u32| {
            let column = Column::new((0..rows).collect(), Arc::clone(&dict));
            let schema = Schema::new(vec![Attribute::new("v", DataType::Int)]);
            Dataset::new(schema, vec![Arc::new(column)])
        };
        for (rows, kept) in [(3, 3), (1_000, 10)] {
            let header = header(1, rows, 42);
            for n in [kept - 1, kept, kept + 1] {
                let bytes = encode(&header, None, &sample(n as u32), None);
                publish(&dir, &header.key, &bytes).unwrap();
                let listed = inspect(&dir);
                assert_eq!(listed.len(), 1);
                let at = format!("{rows} rows, {n} in the sample");
                assert_eq!(listed[0].contents.is_ok(), n == kept, "{at}");
                if n != kept {
                    let err = parse(&bytes).unwrap().sample().err();
                    assert_eq!(err, Some("sample does not fit the row count"), "{at}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
