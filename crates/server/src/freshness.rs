//! Source freshness: what an entry records about the file it was built
//! from ([`SourceStamp`]) and how a later look at the file classifies
//! against that record ([`classify`]) — fresh, a pure append, or stale.
//!
//! Every scan the registry runs reads exactly the bytes its stamp
//! describes (see [`crate::build::scan`]), so a stamp is a complete
//! description of what an entry has absorbed: `[0, stamp.len)`.

use std::io::Read as _;
use std::time::UNIX_EPOCH;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

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
/// modification time, an FNV-64 fingerprint over the first
/// [`FINGERPRINT_PREFIX`] bytes, and an FNV-64 over the entire
/// content. Hits classify a fresh stamp against this to catch in-place
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
    /// FNV-1a over the first `min(len, FINGERPRINT_PREFIX)` bytes.
    pub prefix_fnv: u64,
    /// FNV-1a over all `len` bytes. On a grown file, the running hash
    /// at the old length must equal the old stamp's `full_fnv` for the
    /// growth to classify as a pure append.
    pub full_fnv: u64,
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
            && self.prefix_fnv == other.prefix_fnv
            && self.full_fnv == other.full_fnv
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
            prefix_fnv: scan.prefix_fnv,
            full_fnv: scan.full_fnv,
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

/// The running FNV-1a state of one sequential read of a source file:
/// the hash at the prefix-window boundary, at the caller's `mark`
/// (the old length, on grown-file checks), and at the end, plus the
/// byte just before the mark (the old content's final byte — the
/// row-boundary check) and how many bytes were actually read.
struct ContentScan {
    /// Hash after `min(upto, FINGERPRINT_PREFIX)` bytes.
    prefix_fnv: u64,
    /// Hash after `mark` bytes.
    mark_fnv: u64,
    /// Hash after every byte read.
    full_fnv: u64,
    /// The byte at offset `mark - 1`, if the read got that far.
    byte_before_mark: Option<u8>,
    /// Bytes actually read — short of `upto` when the file shrank
    /// between the stat and the read.
    read: u64,
}

/// One buffered sequential read of `path`'s first `upto` bytes,
/// tracking the running FNV-1a at every boundary a freshness check
/// needs (`mark ≤ upto`). A single read serves capture (`mark ==
/// upto`), the same-length fingerprint re-check (`upto ≤
/// FINGERPRINT_PREFIX`), and the grown-file append check (`mark ==
/// old length`) — so no check ever reads the file twice.
fn scan_content(path: &str, mark: u64, upto: u64) -> std::io::Result<ContentScan> {
    debug_assert!(mark <= upto);
    let mut file = std::fs::File::open(path)?;
    let mut h = FNV_OFFSET;
    let mut scan = ContentScan {
        prefix_fnv: h,
        mark_fnv: h,
        full_fnv: h,
        byte_before_mark: None,
        read: 0,
    };
    let mut pos: u64 = 0;
    let mut buf = [0u8; 8192];
    while pos < upto {
        let want = (upto - pos).min(buf.len() as u64) as usize;
        let got = file.read(&mut buf[..want])?;
        if got == 0 {
            // Shorter than the stat said (raced a truncation): the
            // partial hashes cannot match a complete stamp, so the
            // caller classifies this as stale.
            break;
        }
        for &b in &buf[..got] {
            if pos + 1 == mark {
                scan.byte_before_mark = Some(b);
            }
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            pos += 1;
            if pos == mark {
                scan.mark_fnv = h;
            }
            if pos == FINGERPRINT_PREFIX {
                scan.prefix_fnv = h;
            }
        }
    }
    if upto <= FINGERPRINT_PREFIX {
        // The whole file fits inside the prefix window.
        scan.prefix_fnv = h;
    }
    scan.full_fnv = h;
    scan.read = pos;
    Ok(scan)
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
/// is re-hashed and must equal the stamp's whole-content FNV before
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
            Ok(scan) if scan.read == upto && scan.prefix_fnv == then.prefix_fnv => {
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
    if scan.read < len || scan.mark_fnv != then.full_fnv {
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
                prefix_fnv: scan.prefix_fnv,
                full_fnv: scan.full_fnv,
                captured_ms,
            },
        },
        false,
    )
}
