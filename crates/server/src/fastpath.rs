//! The zero-allocation `check` fast path.
//!
//! The steady-state traffic of a separation-audit service is `check`:
//! the same client asking "is this attribute set still a candidate
//! key?" over the same cached dataset, thousands of times per second.
//! The general path pays for generality on every such line — a
//! [`crate::json::Json`] tree for the request, `String`s for the specs,
//! a [`crate::proto::Request`], a [`crate::proto::Response`], and a
//! rendered `String` for the answer. None of that is needed when the
//! request is plain and the entry is resident.
//!
//! `try_answer_check` recognises exactly that case and answers it
//! allocation-free:
//!
//! * a **byte-level scanner** walks the request line in place — string
//!   values become spans into the line, numbers are parsed from their
//!   token bytes, nothing is copied;
//! * the **cache key is memoised** in the per-connection [`Scratch`]
//!   (path canonicalisation allocates, so it is paid once per
//!   revalidation window, not per request);
//! * the entry comes from the registry's windowed peek (see
//!   [`crate::registry::Registry::peek`]), which serves without
//!   statting the source inside the configured revalidation window and
//!   counts the hit only once the answer is certain;
//! * attribute resolution and the filter query run in reusable scratch
//!   buffers: the query is the exact hashed collision kernel
//!   ([`qid_core::filter::TupleSampleFilter::query_with`]), `O(|A| · r)`
//!   expected, over a [`qid_core::filter::CollisionScratch`] that grows
//!   to the sample size once and is reused by every later `check`;
//! * the response is serialised straight into the connection's write
//!   batch with `json::write_escaped_bytes`, byte-identical to
//!   what [`crate::proto::Response::encode`] would have produced.
//!
//! ## The bail contract
//!
//! The fast path never produces an error: anything it does not fully
//! recognise — an escape sequence, a duplicate or unknown key, a
//! string `seed`, an unknown attribute, a cold or stale cache entry,
//! a sample larger than the caller's cell budget (the poller shard
//! leaves big queries to the worker pool) — makes it return `false`
//! untouched, and the line is re-parsed on the general path, which
//! remains the single authority for error messages and edge-case
//! semantics. A fast-path `true` must be **observably identical** to
//! what the general path would have sent; the
//! `fastpath_agrees_with_general_path` integration test pins this
//! byte-for-byte.
//!
//! New commands that want the same treatment must follow the same
//! rule: parse from the line bytes into [`Scratch`], answer only from
//! already-resident state, serialise with `write_escaped_bytes`, and
//! bail to the general path on anything unusual.

use std::time::{Duration, Instant};

use qid_core::filter::{CollisionScratch, FilterDecision};
use qid_dataset::AttrId;

use crate::json::write_escaped_bytes;
use crate::proto::{DatasetRef, DEFAULT_EPS, DEFAULT_SEED};
use crate::registry::CacheKey;
use crate::server::ServerState;

/// The per-connection scratch arena: every buffer the fast path needs,
/// owned by the connection and reused across requests so the steady
/// state allocates nothing. Buffers are cleared, never shrunk.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Byte spans (into the request line) of the `attrs` array entries.
    attr_spans: Vec<(usize, usize)>,
    /// Resolved attribute ids, deduplicated, first-occurrence order.
    attrs: Vec<AttrId>,
    /// Dedup table, one flag per schema attribute.
    seen: Vec<bool>,
    /// Row hashes and probe table of the collision kernel.
    collisions: CollisionScratch,
    /// The memoised cache key (canonicalisation is the one allocating
    /// step, paid once per revalidation window).
    memo: Option<KeyMemo>,
    /// Span records for the requests served in the current poller
    /// wake, published to the trace ring by the wake epilogue
    /// ([`crate::server::ServerState::finish_wake`]). Fixed-size:
    /// filling it never allocates.
    pub(crate) spans: crate::obs::PendingSpans,
}

impl Scratch {
    /// An empty arena; buffers grow to their steady-state sizes over
    /// the first few requests and stay there.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// The FNV-1a hash of the memoised cache key — what the fast path
    /// stamps into its trace spans without recomputing (or allocating)
    /// anything. Zero when no key has been memoised yet.
    pub(crate) fn memo_key_hash(&self) -> u64 {
        self.memo.as_ref().map_or(0, |m| m.hash)
    }
}

/// One memoised `raw request fields → canonical cache key` mapping.
#[derive(Debug)]
struct KeyMemo {
    /// The raw (un-canonicalised) path bytes the key was computed from.
    raw_path: Vec<u8>,
    eps_bits: u64,
    seed: u64,
    key: CacheKey,
    /// `key.fnv64()`, precomputed so span capture costs one copy.
    hash: u64,
    /// When the key was computed; re-canonicalised after the registry's
    /// revalidation window so a retargeted path cannot stay bound to an
    /// old entry for longer than staleness is already tolerated.
    at: Instant,
}

/// What the scanner extracted from a recognised `check` line.
struct ParsedCheck {
    path: (usize, usize),
    eps: f64,
    seed: u64,
}

/// Answers a `check` request line allocation-free if — and only if —
/// the line is plain (no escapes, no unknown or duplicate fields), the
/// dataset entry is resident, and its freshness window is open.
/// Appends the response (plus newline) to `out` and records metrics,
/// exactly like the general path would have. Returns `false` with
/// `out` untouched in every other case, and also when the answer would
/// query more than `max_cells` sample cells (rows × resolved
/// attributes); the caller falls back to the general path.
pub(crate) fn try_answer_check(
    state: &ServerState,
    line: &str,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
    max_cells: usize,
) -> bool {
    let window = state.registry.revalidate_window_ms();
    if window == 0 {
        return false; // fast path disabled: strict stat-on-every-hit
    }
    let started = Instant::now();
    let bytes = line.as_bytes();
    scratch.attr_spans.clear();
    let Some(req) = parse_check(bytes, &mut scratch.attr_spans) else {
        return false;
    };
    let raw_path = &bytes[req.path.0..req.path.1];
    let eps_bits = req.eps.to_bits();
    let fresh = scratch.memo.as_ref().is_some_and(|m| {
        m.raw_path == raw_path
            && m.eps_bits == eps_bits
            && m.seed == req.seed
            && started.saturating_duration_since(m.at) < Duration::from_millis(window)
    });
    if !fresh {
        // The one allocating step, paid at most once per window per
        // connection: canonicalise the path into a cache key and
        // memoise it against the raw request fields.
        let Ok(path) = std::str::from_utf8(raw_path) else {
            return false; // unreachable: `line` is a &str
        };
        let key = CacheKey::of(&DatasetRef {
            path: path.to_string(),
            eps: req.eps,
            seed: req.seed,
        });
        let hash = key.fnv64();
        match &mut scratch.memo {
            Some(m) => {
                m.raw_path.clear();
                m.raw_path.extend_from_slice(raw_path);
                m.eps_bits = eps_bits;
                m.seed = req.seed;
                m.key = key;
                m.hash = hash;
                m.at = started;
            }
            memo @ None => {
                *memo = Some(KeyMemo {
                    raw_path: raw_path.to_vec(),
                    eps_bits,
                    seed: req.seed,
                    key,
                    hash,
                    at: started,
                });
            }
        }
    }
    let memo = scratch.memo.as_ref().expect("memo just refreshed");
    // Resident + freshness-checked within the window, or bail to the
    // general path (whose stat re-opens the window). The peek counts
    // its hit only if the closure answers, so a bail below leaves the
    // one lookup to the general path.
    let answered = state.registry.peek_with(&memo.key, |entry| {
        let sample = entry.filter.sample();
        let schema = sample.schema();
        let n_attrs = sample.n_attrs();
        scratch.attrs.clear();
        scratch.seen.clear();
        scratch.seen.resize(n_attrs, false);
        for &(lo, hi) in &scratch.attr_spans {
            // Unreachable `Err`: `line` is a &str.
            let spec = std::str::from_utf8(&bytes[lo..hi]).ok()?;
            // Mirrors `resolve_attr_names`: trimmed name, or index given
            // as digits, deduplicated keeping the first occurrence.
            let spec = spec.trim();
            // An unknown attribute bails: the general path errors.
            let attr = schema.attr_by_name(spec).or_else(|| {
                spec.parse::<usize>()
                    .ok()
                    .filter(|&i| i < n_attrs)
                    .map(AttrId::new)
            })?;
            if !scratch.seen[attr.index()] {
                scratch.seen[attr.index()] = true;
                scratch.attrs.push(attr);
            }
        }
        if sample.n_rows().saturating_mul(scratch.attrs.len()) > max_cells {
            return None; // too big for this caller: answer it elsewhere
        }
        let accept = entry
            .filter
            .query_with(&scratch.attrs, &mut scratch.collisions)
            == FilterDecision::Accept;
        // Byte-identical to `Response::Check { .. }.encode()` plus newline.
        out.extend_from_slice(b"{\"ok\":true,\"kind\":\"check\",\"attrs\":[");
        for (i, &attr) in scratch.attrs.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_escaped_bytes(out, schema.attr(attr).name());
        }
        out.extend_from_slice(if accept {
            b"],\"accept\":true}\n".as_slice()
        } else {
            b"],\"accept\":false}\n".as_slice()
        });
        Some(())
    });
    if answered.is_none() {
        return false;
    }
    state.metrics.record("check", started.elapsed(), false);
    true
}

/// Recognises a plain `check` request line, collecting the `attrs`
/// spans into `attr_spans`. Returns `None` — never an error — on
/// anything the fast path does not handle bit-exactly like the general
/// parser: escapes or control bytes in strings, duplicate or unknown
/// keys, non-number `eps`, a `seed` that is not a plain integer
/// literal, nested values, or trailing garbage.
fn parse_check(bytes: &[u8], attr_spans: &mut Vec<(usize, usize)>) -> Option<ParsedCheck> {
    let mut s = Scan { bytes, pos: 0 };
    let mut cmd_ok = false;
    let mut path: Option<(usize, usize)> = None;
    let mut eps: Option<f64> = None;
    let mut seed: Option<u64> = None;
    let mut attrs_seen = false;
    s.skip_ws();
    s.eat(b'{')?;
    s.skip_ws();
    if !s.eat_if(b'}') {
        loop {
            s.skip_ws();
            let (klo, khi) = s.plain_string()?;
            s.skip_ws();
            s.eat(b':')?;
            s.skip_ws();
            match &bytes[klo..khi] {
                b"cmd" => {
                    if cmd_ok {
                        return None;
                    }
                    let (lo, hi) = s.plain_string()?;
                    if &bytes[lo..hi] != b"check" {
                        return None;
                    }
                    cmd_ok = true;
                }
                b"path" => {
                    if path.is_some() {
                        return None;
                    }
                    path = Some(s.plain_string()?);
                }
                b"eps" => {
                    if eps.is_some() {
                        return None;
                    }
                    let (lo, hi) = s.number_token()?;
                    // Same value the general parser's `as_f64` yields
                    // for any token it accepts (integer or float).
                    eps = Some(std::str::from_utf8(&bytes[lo..hi]).ok()?.parse().ok()?);
                }
                b"seed" => {
                    if seed.is_some() {
                        return None;
                    }
                    // Strictly a plain digit run within `i64` — exactly
                    // the tokens the general parser turns into a
                    // non-negative `Json::Int`. Signs, floats, huge
                    // digit runs and string seeds all bail.
                    let (lo, hi) = s.number_token()?;
                    let token = &bytes[lo..hi];
                    if !token.iter().all(u8::is_ascii_digit) {
                        return None;
                    }
                    let parsed: i64 = std::str::from_utf8(token).ok()?.parse().ok()?;
                    seed = Some(parsed as u64);
                }
                b"attrs" => {
                    if attrs_seen {
                        return None;
                    }
                    s.eat(b'[')?;
                    s.skip_ws();
                    if !s.eat_if(b']') {
                        loop {
                            s.skip_ws();
                            attr_spans.push(s.plain_string()?);
                            s.skip_ws();
                            match s.next()? {
                                b',' => {}
                                b']' => break,
                                _ => return None,
                            }
                        }
                    }
                    attrs_seen = true;
                }
                _ => return None, // unknown key: let the general path decide
            }
            s.skip_ws();
            match s.next()? {
                b',' => {}
                b'}' => break,
                _ => return None,
            }
        }
    }
    s.skip_ws();
    if s.pos != bytes.len() {
        return None; // trailing garbage: the general parser errors
    }
    if !(cmd_ok && attrs_seen) {
        return None;
    }
    Some(ParsedCheck {
        path: path?,
        eps: eps.unwrap_or(DEFAULT_EPS),
        seed: seed.unwrap_or(DEFAULT_SEED),
    })
}

/// A forward-only byte cursor over the request line.
struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scan<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn eat_if(&mut self, b: u8) -> bool {
        self.eat(b).is_some()
    }

    /// A string containing no escapes and no control bytes: the span
    /// between the quotes needs no decoding (it *is* the value).
    /// Anything fancier returns `None`.
    fn plain_string(&mut self) -> Option<(usize, usize)> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos)? {
                b'"' => {
                    let end = self.pos;
                    self.pos += 1;
                    return Some((start, end));
                }
                b'\\' => return None,
                b if *b < 0x20 => return None,
                _ => self.pos += 1,
            }
        }
    }

    /// A number token under the wire grammar: an optional leading `-`,
    /// then a run of `[0-9.eE+-]`. The first byte must open a number
    /// the general parser would also accept (`-` or a digit).
    fn number_token(&mut self) -> Option<(usize, usize)> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        Some((start, self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Option<(ParsedCheck, Vec<(usize, usize)>)> {
        let mut spans = Vec::new();
        parse_check(line.as_bytes(), &mut spans).map(|p| (p, spans))
    }

    #[test]
    fn recognises_a_plain_check_line() {
        let line =
            r#"{"cmd":"check","path":"/tmp/a.csv","eps":0.01,"seed":42,"attrs":["zip","age"]}"#;
        let (p, spans) = parse(line).expect("plain line recognised");
        assert_eq!(&line.as_bytes()[p.path.0..p.path.1], b"/tmp/a.csv");
        assert_eq!(p.eps, 0.01);
        assert_eq!(p.seed, 42);
        let attrs: Vec<&[u8]> = spans
            .iter()
            .map(|&(lo, hi)| &line.as_bytes()[lo..hi])
            .collect();
        assert_eq!(attrs, vec![b"zip".as_slice(), b"age".as_slice()]);
    }

    #[test]
    fn defaults_and_whitespace_and_key_order() {
        let line = r#" { "attrs" : [ "x" ] , "path" : "a.csv" , "cmd" : "check" } "#;
        let (p, spans) = parse(line).expect("reordered line recognised");
        assert_eq!(p.eps, DEFAULT_EPS);
        assert_eq!(p.seed, DEFAULT_SEED);
        assert_eq!(spans.len(), 1);
    }

    #[test]
    fn empty_attrs_array_is_recognised() {
        let (_, spans) = parse(r#"{"cmd":"check","path":"a.csv","attrs":[]}"#).unwrap();
        assert!(spans.is_empty());
    }

    #[test]
    fn bails_on_everything_unusual() {
        for line in [
            // not check / missing required fields
            r#"{"cmd":"stats","path":"a.csv"}"#,
            r#"{"cmd":"check","attrs":["x"]}"#,
            r#"{"cmd":"check","path":"a.csv"}"#,
            r#"{"path":"a.csv","attrs":["x"]}"#,
            "{}",
            // unknown and duplicate keys
            r#"{"cmd":"check","path":"a.csv","attrs":["x"],"future":1}"#,
            r#"{"cmd":"check","path":"a.csv","path":"b.csv","attrs":["x"]}"#,
            r#"{"cmd":"check","cmd":"check","path":"a.csv","attrs":["x"]}"#,
            // escapes and control bytes must fall back to the full parser
            r#"{"cmd":"check","path":"a\tb.csv","attrs":["x"]}"#,
            r#"{"cmd":"check","path":"a.csv","attrs":["x\n"]}"#,
            "{\"cmd\":\"check\",\"path\":\"a\u{1}b\",\"attrs\":[]}",
            // seeds that are not plain i64 digit runs
            r#"{"cmd":"check","path":"a.csv","seed":-3,"attrs":["x"]}"#,
            r#"{"cmd":"check","path":"a.csv","seed":1.5,"attrs":["x"]}"#,
            r#"{"cmd":"check","path":"a.csv","seed":"42","attrs":["x"]}"#,
            r#"{"cmd":"check","path":"a.csv","seed":99999999999999999999,"attrs":["x"]}"#,
            // eps oddities
            r#"{"cmd":"check","path":"a.csv","eps":"0.01","attrs":["x"]}"#,
            r#"{"cmd":"check","path":"a.csv","eps":1.2.3,"attrs":["x"]}"#,
            // structure the scanner does not model
            r#"{"cmd":"check","path":"a.csv","attrs":["x",1]}"#,
            r#"{"cmd":"check","path":"a.csv","attrs":"x"}"#,
            r#"{"cmd":"check","path":"a.csv","attrs":["x"]} trailing"#,
            r#"{"cmd":"check","path":"a.csv","attrs":["x"]"#,
            "not json",
            "",
        ] {
            assert!(parse(line).is_none(), "should bail on {line:?}");
        }
    }

    #[test]
    fn huge_but_valid_seed_is_kept_exact() {
        let line = format!(
            r#"{{"cmd":"check","path":"a.csv","seed":{},"attrs":["x"]}}"#,
            i64::MAX
        );
        let (p, _) = parse(&line).unwrap();
        assert_eq!(p.seed, i64::MAX as u64);
    }
}
