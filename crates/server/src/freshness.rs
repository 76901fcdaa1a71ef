//! Source freshness: what an entry records about the file it was built
//! from ([`SourceStamp`]) and how a later look at the file classifies
//! against that record ([`classify`]) — fresh, a pure append, or stale.
//!
//! Every scan the registry runs reads exactly the bytes its stamp
//! describes (see [`crate::build::scan`]), so a stamp is a complete
//! description of what an entry has absorbed: `[0, stamp.len)`.
//!
//! Content is hashed with [`ContentHasher`], a word-wide streaming hash
//! that also seals the warm tier's artifacts ([`crate::artifact`]):
//!
//! ```text
//! lanes  = 4 × u64, seeded with SEEDS; each 32-byte block is 4 LE words
//! block  : lane[i] = rotl((lane[i] ^ word[i]) · K, 31)       (K odd)
//! finish : the tail, zero-padded to a block, steps a copy of the lanes;
//!          h = len; h = rotl((h ^ lane[i]) · K, 31) for i in 0..4;
//!          fmix64(h)
//! ```
//!
//! Every step is a bijection of the lane for a fixed word and of the
//! word for a fixed lane, so two inputs of one length that differ only
//! inside one aligned 8-byte word always hash differently, and two
//! inputs whose lanes agree but whose lengths differ do too. It is not
//! a cryptographic hash: it detects accidental change, not a crafted
//! collision. Its output is persisted, so it is spelled out here rather
//! than borrowed from std's unstable `DefaultHasher`.

use std::io::Read;
use std::time::UNIX_EPOCH;

/// How many leading bytes of the source file the content fingerprint
/// covers. Large enough that any realistic header + early rows are
/// inside it, small enough that re-stamping a hit is one buffered read
/// of a page-cached region, not a scan.
pub const FINGERPRINT_PREFIX: u64 = 64 * 1024;

/// How close (milliseconds) a stamp's capture time must be to the
/// file's mtime for a later same-mtime rewrite to be able to hide from
/// a stat-based check. Sized for the coarsest common filesystem
/// timestamp granularity (FAT: 2 s) plus a little scheduler slack.
/// Outside this window a rewrite necessarily moves the mtime, so the
/// stat alone proves freshness; inside it, hits re-read the content
/// fingerprint (the git "racy stat" discipline).
pub const MTIME_RACE_WINDOW_MS: u64 = 2_500;

/// The source-file identity captured when an entry is built: length,
/// modification time, a content-hash fingerprint over the first
/// [`FINGERPRINT_PREFIX`] bytes, and a content hash over the entire
/// content (both from the word-wide `ContentHasher`). Hits classify a fresh stamp against this to catch in-place
/// rewrites (even same-length ones inside the filesystem's mtime
/// resolution, via the fingerprint) and to recognise pure appends —
/// the whole-content hash is what proves a grown file's old bytes are
/// untouched, however large the file is.
#[derive(Clone, Copy, Debug)]
pub struct SourceStamp {
    /// File length in bytes.
    pub len: u64,
    /// Modification time, seconds since the Unix epoch.
    pub mtime_s: u64,
    /// Sub-second part of the modification time, nanoseconds.
    pub mtime_ns: u32,
    /// Content hash of the first `min(len, FINGERPRINT_PREFIX)` bytes.
    pub prefix_hash: u64,
    /// Content hash of all `len` bytes. On a grown file, the running
    /// hash at the old length must equal the old stamp's `full_hash` for the
    /// growth to classify as a pure append.
    pub full_hash: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    /// Excluded from equality: it records *when* the identity was
    /// taken, not what the file contained — see [`SourceStamp::eq`].
    pub captured_ms: u64,
}

/// The one "same source" predicate: two stamps are equal iff they
/// describe the same file *content* (length, mtime, both hashes). The
/// capture time is deliberately ignored: re-stamping an unchanged file
/// at a later moment must compare equal, or every restore and sketch
/// check would see a phantom change. Restores, the sketch scan's
/// post-check and the artifact-describes-entry test all compare
/// through this and nothing else.
impl PartialEq for SourceStamp {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.mtime_s == other.mtime_s
            && self.mtime_ns == other.mtime_ns
            && self.prefix_hash == other.prefix_hash
            && self.full_hash == other.full_hash
    }
}

impl Eq for SourceStamp {}

impl SourceStamp {
    /// Stats `path` and hashes its content (prefix window + full
    /// length); `None` if the file cannot be statted or read (missing,
    /// permissions) or its mtime predates the epoch. The stat is taken
    /// *before* the read, matching the build discipline: a file
    /// mutated between the two yields a stamp that cannot match any
    /// future capture, which classifies as stale — never as silently
    /// fresh.
    pub fn capture(path: &str) -> Option<SourceStamp> {
        let captured_ms = unix_ms_now();
        let (len, mtime_s, mtime_ns) = stat(path)?;
        let scan = scan_content(path, len, len).ok()?;
        Some(SourceStamp {
            len,
            mtime_s,
            mtime_ns,
            prefix_hash: scan.prefix_hash,
            full_hash: scan.full_hash,
            captured_ms,
        })
    }

    /// The file's mtime as milliseconds since the Unix epoch.
    fn mtime_ms(&self) -> u64 {
        self.mtime_s
            .saturating_mul(1_000)
            .saturating_add(u64::from(self.mtime_ns) / 1_000_000)
    }

    /// The wall-clock moment after which any rewrite of the file must
    /// move its mtime past the recorded one.
    fn race_horizon_ms(&self) -> u64 {
        self.mtime_ms().saturating_add(MTIME_RACE_WINDOW_MS)
    }

    /// True while a same-length same-mtime rewrite could still be
    /// hiding from the stat: the stamp was captured inside the mtime
    /// race window, so content written after the capture may share the
    /// recorded mtime. Racy stamps pay a fingerprint re-read on hits
    /// until one check passes beyond the horizon.
    pub(crate) fn is_racy(&self) -> bool {
        self.captured_ms < self.race_horizon_ms()
    }
}

/// `path`'s length and mtime (seconds, nanoseconds); `None` if it
/// cannot be statted or its mtime predates the epoch.
fn stat(path: &str) -> Option<(u64, u64, u32)> {
    let meta = std::fs::metadata(path).ok()?;
    let mtime = meta.modified().ok()?.duration_since(UNIX_EPOCH).ok()?;
    Some((meta.len(), mtime.as_secs(), mtime.subsec_nanos()))
}

/// Wall-clock milliseconds since the Unix epoch (0 on a pre-epoch
/// clock, which only makes every stamp permanently racy — safe).
fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// The running content hash of one sequential read of a source file:
/// the hash at the prefix-window boundary, at the caller's `mark`
/// (the old length, on grown-file checks), and at the end, plus the
/// byte just before the mark (the old content's final byte — the
/// row-boundary check) and how many bytes were actually read.
#[derive(Debug, PartialEq, Eq)]
struct ContentScan {
    /// Hash of the first `min(upto, FINGERPRINT_PREFIX)` bytes.
    prefix_hash: u64,
    /// Hash of the first `mark` bytes.
    mark_hash: u64,
    /// Hash of every byte read.
    full_hash: u64,
    /// The byte at offset `mark - 1`, if the read got that far.
    byte_before_mark: Option<u8>,
    /// Bytes actually read — short of `upto` when the file shrank
    /// between the stat and the read.
    read: u64,
}

/// Bytes asked of the kernel per `read`.
const READ_CHUNK: usize = 64 * 1024;

/// One sequential read of `path`'s first `upto` bytes, hashing to every
/// boundary a freshness check needs (`mark ≤ upto`). A single read
/// serves capture (`mark == upto`), the same-length fingerprint
/// re-check (`upto ≤ FINGERPRINT_PREFIX`), and the grown-file append
/// check (`mark == old length`) — so no check ever reads the file twice.
fn scan_content(path: &str, mark: u64, upto: u64) -> std::io::Result<ContentScan> {
    scan_reader(std::fs::File::open(path)?, mark, upto)
}

/// [`scan_content`] over an open reader. Each chunk is split at the
/// mark and at the prefix boundary, so the hash at either is a
/// [`ContentHasher::finish`] of exactly the bytes before it.
fn scan_reader(mut src: impl Read, mark: u64, upto: u64) -> std::io::Result<ContentScan> {
    debug_assert!(mark <= upto);
    let mut hasher = ContentHasher::new();
    let empty = hasher.finish();
    let mut scan = ContentScan {
        prefix_hash: empty,
        mark_hash: empty,
        full_hash: empty,
        byte_before_mark: None,
        read: 0,
    };
    let mut pos: u64 = 0;
    let mut buf = [0u8; READ_CHUNK];
    while pos < upto {
        let want = (upto - pos).min(READ_CHUNK as u64) as usize;
        let got = src.read(&mut buf[..want])?;
        if got == 0 {
            // Shorter than the stat said (raced a truncation): the
            // partial hashes cannot match a complete stamp, so the
            // caller classifies this as stale.
            break;
        }
        let mut chunk = &buf[..got];
        while !chunk.is_empty() {
            let end = pos + chunk.len() as u64;
            let cut = [mark, FINGERPRINT_PREFIX]
                .into_iter()
                .filter(|&at| pos < at && at < end)
                .min()
                .map_or(chunk.len(), |at| (at - pos) as usize);
            let (head, rest) = chunk.split_at(cut);
            hasher.update(head);
            pos += cut as u64;
            if pos == mark {
                scan.mark_hash = hasher.finish();
                scan.byte_before_mark = head.last().copied();
            }
            if pos == FINGERPRINT_PREFIX {
                scan.prefix_hash = hasher.finish();
            }
            chunk = rest;
        }
    }
    scan.full_hash = hasher.finish();
    if upto <= FINGERPRINT_PREFIX {
        // The whole file fits inside the prefix window.
        scan.prefix_hash = scan.full_hash;
    }
    scan.read = pos;
    Ok(scan)
}

/// Bytes per [`ContentHasher`] block: one little-endian word per lane.
const BLOCK: usize = 32;
/// The odd multiplier of every lane step.
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// The lanes' starting values (the leading hex digits of π).
const SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// One lane step: a bijection of `lane` for a fixed `word` and of
/// `word` for a fixed `lane` (xor, an odd multiply and a rotate).
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K).rotate_left(31)
}

/// Steps the lanes over every whole block of `bytes`, one word each,
/// and returns the bytes consumed. Indexed and unrolled rather than
/// built from iterator adapters: in unoptimised (test) builds that is
/// ~4× faster, and no slower once optimised.
fn absorb_blocks(lanes: &mut [u64; 4], bytes: &[u8]) -> usize {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let mut at = 0;
    while at + BLOCK <= bytes.len() {
        lanes[0] = step(lanes[0], word(at));
        lanes[1] = step(lanes[1], word(at + 8));
        lanes[2] = step(lanes[2], word(at + 16));
        lanes[3] = step(lanes[3], word(at + 24));
        at += BLOCK;
    }
    at
}

/// The streaming content hash behind every source stamp and artifact
/// checksum (the module docs give its spec). Feeding bytes in any split
/// gives the hash of their concatenation, and [`ContentHasher::finish`]
/// leaves the running state untouched, so one pass can report the hash
/// at several offsets.
struct ContentHasher {
    lanes: [u64; 4],
    /// Bytes not yet folded into the lanes: fewer than one block.
    tail: [u8; BLOCK],
    tail_len: usize,
    /// Bytes fed so far.
    len: u64,
}

impl ContentHasher {
    fn new() -> Self {
        ContentHasher {
            lanes: SEEDS,
            tail: [0; BLOCK],
            tail_len: 0,
            len: 0,
        }
    }

    /// Feeds `bytes`.
    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (BLOCK - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < BLOCK {
                return;
            }
            absorb_blocks(&mut self.lanes, &self.tail);
            self.tail_len = 0;
        }
        let rest = &bytes[absorb_blocks(&mut self.lanes, bytes)..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The hash of everything fed so far.
    fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.tail_len > 0 {
            let mut padded = [0u8; BLOCK];
            padded[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
            absorb_blocks(&mut lanes, &padded);
        }
        let h = lanes.into_iter().fold(self.len, step);
        // fmix64: a bijective avalanche, so every bit of `h` reaches
        // every bit of the result.
        let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        let h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The [`ContentHasher`] hash of `bytes`.
pub(crate) fn content_hash(bytes: &[u8]) -> u64 {
    let mut hasher = ContentHasher::new();
    hasher.update(bytes);
    hasher.finish()
}

/// The verdict of re-stamping a source file against the stamp its
/// entry was built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Freshness {
    /// Unchanged (or unstattable — the sample is all we have, and the
    /// paper's point is that it keeps answering queries).
    Fresh,
    /// The file *grew*, the old prefix window hashes identically, and
    /// the old bytes ended on a row boundary: a pure append. `new` is
    /// the full stamp of the grown file (captured before the check
    /// reads), ready to record on the absorbed entry.
    Appended {
        /// Stamp of the grown file.
        new: SourceStamp,
    },
    /// Rewritten, truncated, or a grown file whose prefix changed (or
    /// whose old tail straddles a row): only a full rebuild is sound.
    Stale,
}

/// Classifies the current state of `path` against the stamp `then` the
/// entry was built from. Entries built from an unstattable source
/// (`then == None`) never invalidate. The returned flag is `true` iff
/// the same-length arm *read and matched* the content fingerprint
/// after the stamp's race window closed: from then on any rewrite must
/// move the mtime, so the caller may trust the stat alone for this
/// stamp (the racy-stat discipline, settled once per resident slot).
///
/// With `verify_content`, the same-length same-mtime arm re-reads the
/// prefix fingerprint instead of trusting the stat — required while
/// the stamp is racy ([`SourceStamp::is_racy`]): a rewrite inside the
/// filesystem's mtime resolution is invisible to the stat alone. The
/// residual blind spots are a *racy* same-length rewrite that only
/// touches bytes beyond [`FINGERPRINT_PREFIX`], and deliberate mtime
/// forgery from outside the race window.
///
/// The grown arm never trusts a prefix alone: the entire old content
/// is re-hashed and must equal the stamp's whole-content hash before
/// the growth classifies as [`Freshness::Appended`] — a rewrite
/// beyond the prefix combined with growth is `Stale`, not a silently
/// absorbed append.
pub(crate) fn classify(
    then: Option<SourceStamp>,
    path: &str,
    verify_content: bool,
) -> (Freshness, bool) {
    let captured_ms = unix_ms_now();
    let Some(then) = then else {
        return (Freshness::Fresh, false);
    };
    let Some((len, mtime_s, mtime_ns)) = stat(path) else {
        return (Freshness::Fresh, false); // missing ≠ stale
    };
    if len < then.len {
        return (Freshness::Stale, false); // truncated
    }
    if len == then.len {
        if mtime_s != then.mtime_s || mtime_ns != then.mtime_ns {
            return (Freshness::Stale, false);
        }
        if !verify_content {
            // Outside the race window (or already settled) a matching
            // stat is proof: any rewrite would have moved the mtime.
            return (Freshness::Fresh, false);
        }
        // Same length, same mtime, racy stamp: the stat alone proves
        // nothing (the false-negative family) — verify the content
        // fingerprint.
        let upto = len.min(FINGERPRINT_PREFIX);
        return match scan_content(path, 0, upto) {
            Ok(scan) if scan.read == upto && scan.prefix_hash == then.prefix_hash => {
                (Freshness::Fresh, captured_ms >= then.race_horizon_ms())
            }
            Ok(_) => (Freshness::Stale, false),
            Err(_) => (Freshness::Fresh, false), // unreadable now: keep serving
        };
    }
    // Grown. One read re-hashes the *entire* old content (a prefix
    // match is not enough — a rewrite beyond it plus growth must
    // rebuild, not absorb) and continues over the suffix, yielding the
    // grown file's prefix and whole-content hashes for the new stamp.
    if then.len == 0 {
        return (Freshness::Stale, false);
    }
    let Ok(scan) = scan_content(path, then.len, len) else {
        return (Freshness::Fresh, false);
    };
    if scan.read < len || scan.mark_hash != then.full_hash {
        // Shrank mid-read (volatile) or the old bytes changed: only a
        // full rebuild is sound.
        return (Freshness::Stale, false);
    }
    // The old content must end exactly on a row boundary; otherwise
    // the append completed a partial final line and the already-counted
    // last row changed meaning — only a full rebuild is sound.
    if scan.byte_before_mark != Some(b'\n') {
        return (Freshness::Stale, false);
    }
    (
        Freshness::Appended {
            new: SourceStamp {
                len,
                mtime_s,
                mtime_ns,
                prefix_hash: scan.prefix_hash,
                full_hash: scan.full_hash,
                captured_ms,
            },
        },
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const P: usize = FINGERPRINT_PREFIX as usize;

    /// `n` pseudo-random bytes drawn from `seed` (splitmix64).
    fn bytes_of(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(n);
        out
    }

    /// The hash as the module docs specify it, one block at a time over
    /// the whole input — independent of [`ContentHasher`]'s buffering.
    fn spec_hash(bytes: &[u8]) -> u64 {
        let mut lanes = SEEDS;
        let mut padded = bytes.to_vec();
        padded.resize(bytes.len().div_ceil(BLOCK) * BLOCK, 0);
        for block in padded.chunks_exact(BLOCK) {
            for (i, lane) in lanes.iter_mut().enumerate() {
                let word = u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().unwrap());
                *lane = ((*lane ^ word).wrapping_mul(K)).rotate_left(31);
            }
        }
        let mut h = bytes.len() as u64;
        for lane in lanes {
            h = ((h ^ lane).wrapping_mul(K)).rotate_left(31);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    /// A reader over `bytes` that returns a pseudo-random short count
    /// (1 to the asked length) on every call.
    struct ShortReads<'a> {
        bytes: &'a [u8],
        state: u64,
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let most = buf.len().min(self.bytes.len());
            // Mostly tiny reads, sometimes as much as was asked for.
            let n = match self.state % 4 {
                0 => most,
                1 => (self.state >> 8) as usize % 40,
                _ => (self.state >> 8) as usize % (most + 1),
            }
            .clamp(most.min(1), most);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Lengths around every boundary the hasher and the scan split at:
    /// empty, one block, the prefix window, several read chunks plus an
    /// odd tail — and anything up to five chunks.
    fn length() -> impl Strategy<Value = usize> {
        (0usize..16, 0usize..5 * READ_CHUNK).prop_map(|(pick, any)| {
            let edges = [
                0,
                1,
                31,
                32,
                33,
                P - 1,
                P,
                P + 1,
                2 * READ_CHUNK,
                3 * READ_CHUNK + 13,
                4 * READ_CHUNK - 1,
            ];
            edges.get(pick).copied().unwrap_or(any)
        })
    }

    /// A mark of 0, the end, just below / at / above the prefix
    /// boundary (clamped to `len`), or anywhere.
    fn mark_in(len: usize, pick: usize, any: usize) -> usize {
        let marks = [0, len, P - 1, P, P + 1, any % (len + 1)];
        marks[pick % marks.len()].min(len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn short_reads_hash_like_one_shot_prefixes(
            len in length(),
            mark_pick in 0usize..6,
            any in 0usize..=usize::MAX / 2,
            seed in 0u64..=u64::MAX,
        ) {
            let bytes = bytes_of(len, seed);
            let mark = mark_in(len, mark_pick, any);
            let reader = ShortReads { bytes: &bytes, state: seed | 1 };
            let scan = scan_reader(reader, mark as u64, len as u64).unwrap();
            prop_assert_eq!(scan, ContentScan {
                prefix_hash: spec_hash(&bytes[..len.min(P)]),
                mark_hash: spec_hash(&bytes[..mark]),
                full_hash: spec_hash(&bytes),
                byte_before_mark: mark.checked_sub(1).map(|at| bytes[at]),
                read: len as u64,
            });
        }

        #[test]
        fn a_short_source_reports_what_it_read(
            len in length(),
            short in 1usize..100,
            seed in 0u64..=u64::MAX,
        ) {
            let bytes = bytes_of(len, seed);
            let upto = (len + short) as u64;
            let scan = scan_reader(ShortReads { bytes: &bytes, state: seed | 1 }, upto, upto).unwrap();
            prop_assert_eq!(scan.read, len as u64);
            prop_assert_eq!(scan.full_hash, content_hash(&bytes));
            prop_assert_eq!(scan.byte_before_mark, None);
        }

        #[test]
        fn flipping_any_one_word_changes_the_hash(
            len in 1usize..300,
            word in 0usize..=usize::MAX / 2,
            mask in 1u64..=u64::MAX,
            seed in 0u64..=u64::MAX,
        ) {
            let bytes = bytes_of(len, seed);
            let at = (word % len.div_ceil(8)) * 8;
            let mut flipped = bytes.clone();
            let end = (at + 8).min(len);
            // Keep only mask bytes that land inside the input.
            let mask = mask.to_le_bytes();
            prop_assume!(mask[..end - at].iter().any(|&b| b != 0));
            for (b, m) in flipped[at..end].iter_mut().zip(mask) {
                *b ^= m;
            }
            prop_assert_ne!(content_hash(&flipped), content_hash(&bytes));
        }

        #[test]
        fn appending_zero_bytes_changes_the_hash(
            len in 0usize..300,
            zeros in 1usize..70,
            seed in 0u64..=u64::MAX,
        ) {
            let bytes = bytes_of(len, seed);
            let mut grown = bytes.clone();
            grown.resize(len + zeros, 0);
            prop_assert_ne!(content_hash(&grown), content_hash(&bytes));
        }
    }
}
