//! Minimal CSV reader/writer (RFC-4180 quoting, type inference).
//!
//! Implemented in-crate so the library has no I/O dependencies; it is
//! enough to load the UCI Adult / Covtype files the paper evaluates on
//! when they are available locally, and to round-trip our synthetic
//! data sets.

use std::fs::File;
use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{mpsc, Arc};

use crate::builder::DatasetBuilder;
use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::schema::AttrId;
use crate::stream::TupleSource;
use crate::symbol::Interner;
use crate::value::{Value, ValueRef};

/// Options controlling CSV parsing.
#[derive(Clone, Debug)]
pub struct CsvOptions {
    /// Field delimiter, an ASCII byte (default `,`).
    pub delimiter: u8,
    /// Whether the first record is a header row (default `true`).
    pub has_header: bool,
    /// Strings parsed as [`Value::Null`] (default: empty string and `"?"`,
    /// the UCI missing-value convention).
    pub null_tokens: Vec<String>,
    /// Whether to trim whitespace ([`str::trim`], so Unicode-aware)
    /// around each unescaped field (default `true`; UCI files pad fields
    /// after commas).
    pub trim: bool,
    /// Attempt numeric type inference (default `true`). When `false`,
    /// every non-null field becomes [`Value::Text`].
    pub infer_types: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            has_header: true,
            null_tokens: vec![String::new(), "?".to_string()],
            trim: true,
            infer_types: true,
        }
    }
}

/// Unescaped field text the framer stage of a
/// [`scan_rows`](CsvTupleSource::scan_rows) puts in one batch before it
/// hands the batch to the row stage: the size a full-source scan uses.
pub const SCAN_BATCH_BYTES: usize = 64 << 10;

/// Batches one [`scan_rows`](CsvTupleSource::scan_rows) keeps in
/// circulation between its two stages, recycled rather than
/// reallocated.
const SCAN_BATCHES: usize = 3;

/// Framed records, end to end, in reused buffers.
#[derive(Debug, Default)]
struct Batch {
    /// The records' unescaped fields, end to end, each field followed
    /// by the delimiter byte except a record's last, after which the
    /// next record starts.
    fields: String,
    /// The end offset in `fields` of each field ([`batch_offset`]).
    ends: Vec<u32>,
    /// Per record, one past its last field's entry in `ends`.
    records: Vec<u32>,
    /// What stopped the framing after the last record.
    stop: Stop,
}

/// Why a batch holds no further records.
#[derive(Debug, Default)]
enum Stop {
    /// The batch is full; more records may follow.
    #[default]
    More,
    /// The input ended.
    End,
    /// Framing the next record failed: the first error in source order
    /// after the batch's records.
    Failed(DatasetError),
}

impl Batch {
    /// Empties the batch for refilling, keeping its buffers.
    fn clear(&mut self) {
        self.fields.clear();
        self.ends.clear();
        self.records.clear();
    }

    /// Record `k`'s text start in `fields` and its field ends.
    fn record(&self, k: usize) -> (usize, &[u32]) {
        let first = k.checked_sub(1).map_or(0, |j| self.records[j] as usize);
        let start = first.checked_sub(1).map_or(0, |j| self.ends[j] as usize);
        (start, &self.ends[first..self.records[k] as usize])
    }
}

/// `at` as an offset into a [`Batch`]: a record whose field text would
/// reach past `u32::MAX` bytes of its batch fails at its `line` rather
/// than wrapping.
fn batch_offset(at: usize, line: usize) -> Result<u32, DatasetError> {
    u32::try_from(at).map_err(|_| DatasetError::Csv {
        line,
        message: format!("record too long: its fields pass {} bytes", u32::MAX),
    })
}

/// Bytes a [`RecordReader`] asks its source for per read: small enough
/// to stay in L1 while it is decoded and framed.
const READ_BYTES: usize = 8 << 10;

/// Frames one logical CSV record at a time (which may span multiple
/// physical lines when quotes contain newlines) into a [`Batch`], so
/// framing allocates nothing once the buffers have grown.
///
/// The reader holds its own buffer: it reads [`READ_BYTES`] at a time
/// and decodes each read as UTF-8 once, onto `text`, where each record
/// is framed in place. A record whose one line holds no `"` is framed
/// eight bytes per step ([`scan_line`]); any other goes through
/// [`frame`] one physical line at a time.
struct RecordReader<R: Read> {
    reader: R,
    delimiter: u8,
    line: usize,
    /// Bytes read and not yet decoded: a UTF-8 sequence the read cut
    /// off, or, once `invalid`, the source from its first byte that is
    /// not UTF-8 on.
    bytes: Box<[u8]>,
    /// How many of `bytes` are filled.
    held: usize,
    /// Decoded text; what precedes `pos` is framed.
    text: String,
    pos: usize,
    /// `text` ends where the source stops being UTF-8, so the line it
    /// ends on is an error, and so is every later call.
    invalid: bool,
    /// The source has ended.
    eof: bool,
}

/// Where [`scan_line`] stopped.
enum Scanned {
    /// At the line's LF, this many bytes in.
    Lf(usize),
    /// At a `"`, this many bytes in: [`frame`] takes the record on.
    Quote(usize),
    /// At the end of the text decoded so far.
    End,
}

/// `byte` in each byte of a word.
const fn splat(byte: u8) -> u64 {
    u64::from_ne_bytes([byte; 8])
}

/// The high bit of each zero byte of `word`, and no other bit. Each
/// byte's sum stays below 0x100, so no carry reaches the next byte.
fn zero_bytes(word: u64) -> u64 {
    const LOW7: u64 = splat(0x7f);
    !(((word & LOW7) + LOW7) | word | LOW7)
}

/// Scans `line[from..]` for its first LF or `"`, eight bytes per step,
/// pushing `base + i` to `ends` for each delimiter at `i` before it. A
/// `"` or LF delimiter counts as a quote or a line end, as in [`frame`].
fn scan_line(line: &[u8], from: usize, delimiter: u8, base: usize, ends: &mut Vec<u32>) -> Scanned {
    let mut hit = |i: usize| match line[i] {
        b'"' => Some(Scanned::Quote(i)),
        b'\n' => Some(Scanned::Lf(i)),
        // Fits: the record's end is checked against `u32::MAX`.
        _ => {
            ends.push((base + i) as u32);
            None
        }
    };
    let (lf, quote, delim) = (splat(b'\n'), splat(b'"'), splat(delimiter));
    let mut i = from;
    while let Some(&word) = line[i..].first_chunk::<8>() {
        let word = u64::from_le_bytes(word);
        let mut hits = zero_bytes(word ^ lf) | zero_bytes(word ^ quote) | zero_bytes(word ^ delim);
        while hits != 0 {
            if let Some(stop) = hit(i + hits.trailing_zeros() as usize / 8) {
                return stop;
            }
            hits &= hits - 1;
        }
        i += 8;
    }
    for (j, &byte) in line.iter().enumerate().skip(i) {
        if matches!(byte, b'"' | b'\n') || byte == delimiter {
            if let Some(stop) = hit(j) {
                return stop;
            }
        }
    }
    Scanned::End
}

/// The index of the first LF in `bytes[from..]`, eight bytes per step.
fn find_lf(bytes: &[u8], from: usize) -> Option<usize> {
    let lf = splat(b'\n');
    let mut i = from;
    while let Some(&word) = bytes[i..].first_chunk::<8>() {
        let hits = zero_bytes(u64::from_le_bytes(word) ^ lf);
        if hits != 0 {
            return Some(i + hits.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    bytes[i..].iter().position(|&b| b == b'\n').map(|j| i + j)
}

/// The error `BufRead::read_line` returns for a line that is not UTF-8,
/// made by std itself, so that it matches to its `Debug`.
fn invalid_utf8() -> io::Error {
    io::Cursor::new([0xff])
        .read_line(&mut String::new())
        .expect_err("0xff is not UTF-8")
}

impl<R: Read> RecordReader<R> {
    fn new(reader: R, delimiter: u8) -> Self {
        RecordReader {
            reader,
            delimiter,
            line: 0,
            bytes: vec![0; READ_BYTES].into_boxed_slice(),
            held: 0,
            text: String::new(),
            pos: 0,
            invalid: false,
            eof: false,
        }
    }

    /// Reads more of the source after the `held` bytes.
    fn read(&mut self) -> io::Result<usize> {
        loop {
            match self.reader.read(&mut self.bytes[self.held..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                read => {
                    let n = read?;
                    self.held += n;
                    return Ok(n);
                }
            }
        }
    }

    /// Moves the UTF-8 prefix of the held bytes onto `text`, keeping
    /// back a sequence cut off at their end, or every byte from an
    /// invalid sequence on.
    fn decode(&mut self) {
        let held = &self.bytes[..self.held];
        let valid = match std::str::from_utf8(held) {
            Ok(text) => {
                self.text.push_str(text);
                self.held = 0;
                return;
            }
            Err(e) => {
                self.invalid = e.error_len().is_some();
                e.valid_up_to()
            }
        };
        if let Ok(text) = std::str::from_utf8(&held[..valid]) {
            self.text.push_str(text);
        }
        self.bytes.copy_within(valid..self.held, 0);
        self.held -= valid;
    }

    /// Drops the text before `pos` and decodes one more read of the
    /// source onto `text`; `Ok(false)` once no more text will come.
    fn refill(&mut self) -> io::Result<bool> {
        if self.invalid || self.eof {
            return Ok(false);
        }
        self.text.drain(..self.pos);
        self.pos = 0;
        if self.read()? == 0 {
            self.eof = true;
            // A sequence cut off by the end of the input is not UTF-8.
            self.invalid = self.held > 0;
            return Ok(false);
        }
        self.decode();
        Ok(true)
    }

    /// Refills `batch` with the next records until it holds `budget`
    /// bytes of field text, the input ends or a record fails to frame;
    /// `budget == 0` frames at most one.
    fn fill(&mut self, batch: &mut Batch, budget: usize) {
        batch.clear();
        batch.stop = loop {
            match self.advance(batch) {
                Ok(true) if batch.fields.len() < budget => {}
                Ok(true) => break Stop::More,
                Ok(false) => break Stop::End,
                Err(e) => break Stop::Failed(e),
            }
        };
    }

    /// Frames the next record onto the end of `batch`; `Ok(false)` at
    /// EOF.
    ///
    /// An unquoted record's raw text, line terminator aside, already
    /// has the batch layout: its fields end to end, each followed by
    /// its delimiter. So it is copied whole, its field ends found by
    /// [`scan_line`]. The first `"` hands the record to
    /// [`advance_quoted`](Self::advance_quoted) from its start.
    fn advance(&mut self, batch: &mut Batch) -> Result<bool, DatasetError> {
        let base = batch.fields.len();
        let ends = batch.ends.len();
        let mut scanned = 0;
        loop {
            let line = &self.text.as_bytes()[self.pos..];
            match scan_line(line, scanned, self.delimiter, base, &mut batch.ends) {
                Scanned::Lf(lf) => {
                    // As `trim_newline`: the LF, then one CR before it.
                    let cr = lf > 0 && line[lf - 1] == b'\r';
                    if cr && self.delimiter == b'\r' {
                        batch.ends.pop();
                    }
                    self.push_line(batch, lf - usize::from(cr), lf + 1)?;
                    return Ok(true);
                }
                Scanned::Quote(quote) => {
                    batch.ends.truncate(ends);
                    return self.advance_quoted(batch, quote);
                }
                Scanned::End => scanned = line.len(),
            }
            // The record may cross the end of the text: scan on after a
            // refill.
            if !self.refill()? {
                if self.invalid {
                    batch.ends.truncate(ends);
                    return Err(invalid_utf8().into());
                }
                if scanned == 0 {
                    return Ok(false);
                }
                // The last line, unterminated.
                self.push_line(batch, scanned, scanned)?;
                return Ok(true);
            }
        }
    }

    /// Ends the unquoted record whose text is the `len` bytes at `pos`
    /// and whose delimiters' field ends are in `batch`, then moves past
    /// the `consumed` bytes of its line.
    fn push_line(
        &mut self,
        batch: &mut Batch,
        len: usize,
        consumed: usize,
    ) -> Result<(), DatasetError> {
        self.line += 1;
        let start = self.pos;
        self.pos += consumed;
        let end = batch_offset(batch.fields.len() + len, self.line)?;
        batch.fields.push_str(&self.text[start..start + len]);
        batch.ends.push(end);
        batch
            .records
            .push(batch_offset(batch.ends.len(), self.line)?);
        Ok(())
    }

    /// Frames the record starting at `pos` in place with [`frame`], one
    /// physical line after another; its text before `scanned` holds no
    /// LF. A line that crosses the end of `text` is looked for again
    /// after a refill, which keeps the text from `pos` on.
    fn advance_quoted(
        &mut self,
        batch: &mut Batch,
        mut scanned: usize,
    ) -> Result<bool, DatasetError> {
        let mut at = Framing {
            field_start: batch.fields.len(),
            ..Framing::default()
        };
        // How much of the record's text is framed.
        let mut framed = 0;
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let line_end = match find_lf(rest, scanned) {
                Some(lf) => lf + 1,
                None => {
                    scanned = rest.len();
                    if self.refill()? {
                        continue;
                    }
                    if self.invalid {
                        return Err(invalid_utf8().into());
                    }
                    if framed == scanned {
                        self.pos += scanned;
                        return Err(DatasetError::Csv {
                            line: self.line,
                            message: "unterminated quoted field at end of input".into(),
                        });
                    }
                    // The last line, unterminated.
                    scanned
                }
            };
            self.line += 1;
            // A line ending inside a quoted field continues on the next
            // one, its line terminator part of the field.
            let more = frame(
                &self.text[self.pos..self.pos + line_end],
                self.delimiter,
                self.line,
                &mut at,
                &mut batch.fields,
                &mut batch.ends,
            );
            if !matches!(more, Ok(true)) {
                // The record's lines are read, framed or not.
                self.pos += line_end;
            }
            if !more? {
                batch
                    .records
                    .push(batch_offset(batch.ends.len(), self.line)?);
                return Ok(true);
            }
            (framed, scanned) = (line_end, line_end);
        }
    }
}

/// Splits the fields of a framed record starting at `start` at their
/// `ends`, skipping the delimiter byte after each.
fn split_fields<'a>(
    fields: &'a str,
    mut start: usize,
    ends: &'a [u32],
) -> impl ExactSizeIterator<Item = &'a str> {
    ends.iter().map(move |&end| {
        let end = end as usize;
        let field = &fields[start..end];
        start = end + 1;
        field
    })
}

fn trim_newline(s: &str) -> &str {
    s.strip_suffix('\n')
        .map(|s| s.strip_suffix('\r').unwrap_or(s))
        .unwrap_or(s)
}

/// How far [`frame`] has got through a record's raw text.
#[derive(Default)]
struct Framing {
    /// The next raw byte to scan.
    next: usize,
    /// The first raw byte not yet copied to the fields buffer.
    copied: usize,
    /// Where the current field starts in the fields buffer.
    field_start: usize,
    in_quotes: bool,
}

/// Frames the raw record text `raw` from `at.next` on into unescaped
/// fields: `out` receives them end to end, each followed by its
/// delimiter, and `ends` each field's end offset. Runs of raw bytes
/// between quotes are copied whole, so a record without quotes is one
/// copy plus a scan for delimiters, while a quoted field drops its
/// quotes and unescapes `""` to `"` in the same loop.
///
/// Returns `true` when `raw` ends inside a quoted field: the record
/// continues on the next physical line, to be appended to `raw`.
fn frame(
    raw: &str,
    delimiter: u8,
    line_no: usize,
    at: &mut Framing,
    out: &mut String,
    ends: &mut Vec<u32>,
) -> Result<bool, DatasetError> {
    let bytes = raw.as_bytes();
    let end = trim_newline(raw).len();
    let mut i = at.next;
    while i < end {
        let b = bytes[i];
        if b == b'"' {
            out.push_str(&raw[at.copied..i]);
            if !at.in_quotes {
                if !out.as_bytes()[at.field_start..]
                    .iter()
                    .all(u8::is_ascii_whitespace)
                {
                    return Err(DatasetError::Csv {
                        line: line_no,
                        message: "quote in the middle of an unquoted field".into(),
                    });
                }
                // Tolerate padding before an opening quote (`a, "x"`).
                out.truncate(at.field_start);
                at.in_quotes = true;
            } else if bytes.get(i + 1) == Some(&b'"') {
                out.push('"');
                i += 1;
            } else {
                at.in_quotes = false;
            }
            i += 1;
            at.copied = i;
        } else {
            if b == delimiter && !at.in_quotes {
                let field_end = out.len() + (i - at.copied);
                ends.push(batch_offset(field_end, line_no)?);
                at.field_start = field_end + 1;
            }
            i += 1;
        }
    }
    at.next = i;
    if at.in_quotes {
        return Ok(true);
    }
    out.push_str(&raw[at.copied..end]);
    ends.push(batch_offset(out.len(), line_no)?);
    Ok(false)
}

/// Types one raw field in place: trimmed (if configured), then a null
/// token, an `i64`, a finite `f64`, or else text borrowed from `field`.
fn type_field<'a>(field: &'a str, opts: &CsvOptions) -> ValueRef<'a> {
    let field = if opts.trim { field.trim() } else { field };
    if opts.null_tokens.iter().any(|t| t == field) {
        return ValueRef::Null;
    }
    if opts.infer_types {
        if let Ok(i) = field.parse::<i64>() {
            return ValueRef::Int(i);
        }
        // Only finite parses count as numbers: `f64::parse` also accepts
        // "nan"/"inf"/"infinity" (any case), but coercing those would not
        // survive a write → read round-trip, so they stay text.
        if let Ok(f) = field.parse::<f64>() {
            if f.is_finite() {
                return ValueRef::Float(f);
            }
        }
    }
    ValueRef::Text(field)
}

/// One data record of a [`CsvTupleSource`], borrowed from the source's
/// reused buffers until its next [`next_row`](CsvTupleSource::next_row).
/// Each field is typed on access, without being copied out of the
/// buffer, so a scan that only hashes most rows never allocates for
/// them; [`to_values`](Self::to_values) owns the rows it keeps.
#[derive(Debug)]
pub struct CsvRow<'a> {
    fields: &'a str,
    start: usize,
    ends: &'a [u32],
    opts: &'a CsvOptions,
    interner: &'a mut Interner,
}

impl<'a> CsvRow<'a> {
    /// The typed fields, in attribute order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = ValueRef<'a>> + 'a {
        let opts = self.opts;
        self.raw_fields().map(move |f| type_field(f, opts))
    }

    /// The unescaped fields, untrimmed and untyped, in attribute order:
    /// each is [`typed`](Self::typed) into the value
    /// [`values`](Self::values) yields for it.
    pub fn raw_fields(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        split_fields(self.fields, self.start, self.ends)
    }

    /// Types one of this row's [`raw_fields`](Self::raw_fields) exactly
    /// as [`values`](Self::values) does: a pure function of the field's
    /// bytes and the source's [`CsvOptions`].
    pub fn typed(&self, field: &'a str) -> ValueRef<'a> {
        type_field(field, self.opts)
    }

    /// The row as owned values, text shared through the source's intern
    /// cache — what [`TupleSource::next_tuple`] yields for it.
    pub fn to_values(&mut self) -> Vec<Value> {
        self.owned_values().collect()
    }

    /// [`to_values`](Self::to_values) as one shared allocation: the
    /// values are written straight into the `Arc`, with no `Vec`
    /// between.
    pub fn to_shared_values(&mut self) -> Arc<[Value]> {
        self.owned_values().collect()
    }

    fn owned_values(&mut self) -> impl Iterator<Item = Value> + '_ {
        let values = self.values();
        let interner = &mut *self.interner;
        values.map(move |v| match v {
            ValueRef::Text(s) => Value::Text(interner.intern(s)),
            v => v.to_value(),
        })
    }
}

/// Reads a CSV data set from any reader.
///
/// This drains a [`CsvTupleSource`] into a [`Dataset`], so the
/// materialising and streaming paths share one parser by construction
/// (header naming, trimming, blank-line tolerance, type inference).
pub fn read_csv<R: Read>(reader: R, opts: &CsvOptions) -> Result<Dataset, DatasetError> {
    // Unbounded interner: the dataset retains every value anyway.
    let mut source = CsvTupleSource::from_read(reader, opts, Interner::new())?;
    let mut builder = DatasetBuilder::new(source.attr_names());
    while let Some(row) = source.next_tuple()? {
        builder.push_row(row)?;
    }
    Ok(builder.finish())
}

/// Reads a CSV data set from a file path.
pub fn read_csv_path(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Dataset, DatasetError> {
    read_csv(File::open(path)?, opts)
}

/// Reads a CSV data set from an in-memory string.
pub fn read_csv_str(data: &str, opts: &CsvOptions) -> Result<Dataset, DatasetError> {
    read_csv(data.as_bytes(), opts)
}

/// How many distinct text values a *streaming* source's interner may
/// retain. Beyond this, unseen strings are returned uncached: a
/// high-cardinality text column (the canonical quasi-identifier) must
/// not grow resident memory to `O(n)` while the reservoir downstream
/// stays `O(m/√ε)`.
const STREAM_INTERN_LIMIT: usize = 1 << 16;

/// A one-pass [`TupleSource`] over a CSV file, for the streaming sketch
/// builders (`qid_core::stream`): memory stays `O(m)` per yielded tuple
/// (plus a bounded intern cache and reused framing buffers) instead of the
/// `O(n·m)` of [`read_csv_path`]. Values are type-inferred exactly like
/// the materialising reader — which is itself implemented on top of
/// this source — so a sample drawn from the stream matches one drawn
/// from the loaded [`Dataset`].
///
/// [`next_row`](Self::next_row) yields each row borrowed, typed in
/// place; [`next_tuple`](TupleSource::next_tuple) is `next_row` plus the
/// owned conversion ([`CsvRow::to_values`]). [`scan_rows`](Self::scan_rows)
/// feeds every row to a closure with the framing on a helper thread.
pub struct CsvTupleSource<R: Read = Box<dyn Read + Send>> {
    records: RecordReader<R>,
    rows: Rows,
    /// The records framed and not yet all yielded.
    batch: Batch,
    /// The next record of `batch` to yield.
    next: usize,
}

/// The row stage of a scan: turns framed records into data rows.
struct Rows {
    opts: CsvOptions,
    names: Vec<String>,
    interner: Interner,
    rows_read: usize,
}

/// The attribute names the first record of `batch` gives, and the index
/// of the first data record: the record names the attributes, or is the
/// first data row of a headerless source.
fn header(batch: &Batch, opts: &CsvOptions) -> (Vec<String>, usize) {
    let (start, ends) = batch.record(0);
    if opts.has_header {
        let names = split_fields(&batch.fields, start, ends)
            .map(|f| if opts.trim { f.trim() } else { f }.to_string())
            .collect();
        (names, 1)
    } else {
        ((0..ends.len()).map(|i| format!("col{i}")).collect(), 0)
    }
}

impl Rows {
    /// Whether record `k` of `batch` is a data row, counting it if so.
    /// A blank line is not one; a ragged row is an error.
    fn admit(&mut self, batch: &Batch, k: usize) -> Result<bool, DatasetError> {
        let (start, ends) = batch.record(k);
        let got = ends.len();
        if got == 1
            && batch.fields[start..ends[0] as usize].trim().is_empty()
            && self.names.len() != 1
        {
            return Ok(false);
        }
        if got != self.names.len() {
            return Err(DatasetError::RowArity {
                row: self.rows_read,
                expected: self.names.len(),
                got,
            });
        }
        self.rows_read += 1;
        Ok(true)
    }

    /// Record `k` of `batch` as a row.
    fn row<'a>(&'a mut self, batch: &'a Batch, k: usize) -> CsvRow<'a> {
        let (start, ends) = batch.record(k);
        CsvRow {
            fields: &batch.fields,
            start,
            ends,
            opts: &self.opts,
            interner: &mut self.interner,
        }
    }

    /// Feeds the data rows among `batch`'s records from `from` on to
    /// `each`, in order; then `Ok(true)` if more records may follow, or
    /// the framing error that ended the batch.
    fn walk(
        &mut self,
        batch: &mut Batch,
        from: usize,
        each: &mut impl FnMut(CsvRow<'_>),
    ) -> Result<bool, DatasetError> {
        for k in from..batch.records.len() {
            if self.admit(batch, k)? {
                each(self.row(batch, k));
            }
        }
        match std::mem::take(&mut batch.stop) {
            Stop::More => Ok(true),
            Stop::End => Ok(false),
            Stop::Failed(e) => Err(e),
        }
    }
}

impl CsvTupleSource {
    /// Opens a CSV file as a tuple stream (reads only the header row).
    pub fn open(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Self, DatasetError> {
        let file = File::open(path)?;
        Self::from_reader(file, opts)
    }

    /// Streams CSV from any reader.
    ///
    /// The source is read 8 KiB at a time, each read decoded as UTF-8
    /// once, so `reader` needs no buffering of its own. A line that is
    /// not UTF-8 fails with the error `BufRead::read_line` returns for
    /// it, after every record before it, and ends the stream: every
    /// later call returns that error again.
    pub fn from_reader<R: Read + Send + 'static>(
        reader: R,
        opts: &CsvOptions,
    ) -> Result<Self, DatasetError> {
        Self::from_read(
            Box::new(reader) as Box<dyn Read + Send>,
            opts,
            Interner::with_limit(STREAM_INTERN_LIMIT),
        )
    }

    /// Opens exactly the byte range `[offset, offset + len)` of a CSV
    /// file as a tuple stream of *data rows only*, with externally
    /// supplied attribute names — the append-suffix path: the header
    /// was parsed when the file was first ingested, and the caller
    /// guarantees `offset` sits on a row boundary. The hard `len` cap
    /// means rows appended after the caller captured its stat are left
    /// for the next revalidation rather than silently consumed.
    ///
    /// Values are inferred per-field exactly like [`open`](Self::open)
    /// (a fresh intern cache changes nothing observable: `Value`
    /// equality is by content), so a sample continued over a suffix
    /// matches one rebuilt over the whole file.
    pub fn open_suffix(
        path: impl AsRef<Path>,
        offset: u64,
        len: u64,
        names: Vec<String>,
        opts: &CsvOptions,
    ) -> Result<Self, DatasetError> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let reader = Box::new(file.take(len)) as Box<dyn Read + Send>;
        Ok(CsvTupleSource {
            records: RecordReader::new(reader, opts.delimiter),
            rows: Rows {
                opts: opts.clone(),
                names,
                interner: Interner::with_limit(STREAM_INTERN_LIMIT),
                rows_read: 0,
            },
            batch: Batch::default(),
            next: 0,
        })
    }
}

impl<R: Read> CsvTupleSource<R> {
    fn from_read(reader: R, opts: &CsvOptions, interner: Interner) -> Result<Self, DatasetError> {
        let mut records = RecordReader::new(reader, opts.delimiter);
        let mut batch = Batch::default();
        let (names, next) = if records.advance(&mut batch)? {
            header(&batch, opts)
        } else {
            (Vec::new(), 0)
        };
        Ok(CsvTupleSource {
            records,
            rows: Rows {
                opts: opts.clone(),
                names,
                interner,
                rows_read: 0,
            },
            batch,
            next,
        })
    }

    /// Data rows yielded so far (the stream length, once exhausted).
    pub fn rows_read(&self) -> usize {
        self.rows.rows_read
    }

    /// Yields the next data row, borrowed and typed in place, or
    /// `Ok(None)` at end of stream. Blank lines are skipped and ragged
    /// rows are errors, exactly as for
    /// [`next_tuple`](TupleSource::next_tuple).
    ///
    /// After a record that fails to frame, the next call goes on from
    /// the line after it. A line that is not UTF-8 instead ends the
    /// stream: that call and every later one return std's
    /// `InvalidData` error.
    pub fn next_row(&mut self) -> Result<Option<CsvRow<'_>>, DatasetError> {
        loop {
            while self.next < self.batch.records.len() {
                let k = self.next;
                self.next += 1;
                if self.rows.admit(&self.batch, k)? {
                    return Ok(Some(self.rows.row(&self.batch, k)));
                }
            }
            // Framed inline, one record at a time.
            self.batch.clear();
            self.next = 0;
            if !self.records.advance(&mut self.batch)? {
                return Ok(None);
            }
        }
    }
}

impl<R: Read + Send> CsvTupleSource<R> {
    /// Feeds every remaining data row to `each`, in source order.
    ///
    /// The scan runs in two stages joined by a bounded channel. A
    /// helper thread frames records ahead into batches of about
    /// `batch_bytes` of field text ([`SCAN_BATCH_BYTES`] for a
    /// full-source scan; `0` puts every record in a batch of its own).
    /// The calling thread checks each record for blank lines and arity
    /// and hands `each` the row, typed on access, exactly as
    /// [`next_row`](Self::next_row) yields it. A few batches circulate
    /// between the stages and are reused, so memory stays bounded
    /// whatever the source's length. The first error in source order
    /// wins, as with `next_row`: a framing error reaches the calling
    /// thread only after every record before it. On an error the
    /// framer stops at its next hand-off and is joined before this
    /// returns; it never reads past what the reader yields, so a
    /// `Take`-capped reader bounds it.
    pub fn scan_rows(
        self,
        batch_bytes: usize,
        mut each: impl FnMut(CsvRow<'_>),
    ) -> Result<(), DatasetError> {
        let CsvTupleSource {
            mut records,
            mut rows,
            mut batch,
            next,
        } = self;
        if !rows.walk(&mut batch, next, &mut each)? {
            return Ok(());
        }
        let framer = &mut records;
        std::thread::scope(|scope| {
            let (full_tx, full_rx) = mpsc::sync_channel::<Batch>(SCAN_BATCHES);
            let (free_tx, free_rx) = mpsc::sync_channel::<Batch>(SCAN_BATCHES);
            free_tx.send(batch).expect("the receiver is alive");
            for _ in 1..SCAN_BATCHES {
                free_tx
                    .send(Batch::default())
                    .expect("the receiver is alive");
            }
            let framing = scope.spawn(move || {
                while let Ok(mut batch) = free_rx.recv() {
                    framer.fill(&mut batch, batch_bytes);
                    let last = !matches!(batch.stop, Stop::More);
                    // A failed send means the row stage has stopped.
                    if full_tx.send(batch).is_err() || last {
                        return;
                    }
                }
            });
            let walked = walk_batches(&mut rows, full_rx, free_tx, &mut each);
            // The channels are gone, so a framer mid-batch stops at its
            // next hand-off.
            if let Err(panic) = framing.join() {
                std::panic::resume_unwind(panic);
            }
            walked
        })
    }
}

/// The row stage of [`CsvTupleSource::scan_rows`]: walks each framed
/// batch in order and returns it to the framer for reuse, until the
/// input ends or a record fails. Dropping the channels on return is
/// what stops the framer early.
fn walk_batches(
    rows: &mut Rows,
    full: mpsc::Receiver<Batch>,
    free: mpsc::SyncSender<Batch>,
    each: &mut impl FnMut(CsvRow<'_>),
) -> Result<(), DatasetError> {
    // The framer hangs up early only by panicking, which the caller
    // re-raises.
    while let Ok(mut batch) = full.recv() {
        if !rows.walk(&mut batch, 0, each)? {
            break;
        }
        let _ = free.send(batch);
    }
    Ok(())
}

impl<R: Read> TupleSource for CsvTupleSource<R> {
    fn attr_names(&self) -> Vec<String> {
        self.rows.names.clone()
    }

    fn n_attrs(&self) -> usize {
        self.rows.names.len()
    }

    fn next_tuple(&mut self) -> Result<Option<Vec<Value>>, DatasetError> {
        Ok(self.next_row()?.map(|mut row| row.to_values()))
    }
}

/// Writes a data set as CSV (always with a header row; fields are quoted
/// only when necessary).
pub fn write_csv<W: Write>(ds: &Dataset, mut w: W) -> io::Result<()> {
    let names: Vec<&str> = ds.schema().names().collect();
    write_record(&mut w, names.iter().copied())?;
    for row in 0..ds.n_rows() {
        let fields: Vec<String> = (0..ds.n_attrs())
            .map(|a| ds.value(row, AttrId::new(a)).to_string())
            .collect();
        write_record(&mut w, fields.iter().map(|s| s.as_str()))?;
    }
    Ok(())
}

fn write_record<'a, W: Write>(w: &mut W, fields: impl Iterator<Item = &'a str>) -> io::Result<()> {
    let mut first = true;
    for f in fields {
        if !first {
            w.write_all(b",")?;
        }
        first = false;
        if f.contains(['"', ',', '\n', '\r']) {
            let escaped = f.replace('"', "\"\"");
            write!(w, "\"{escaped}\"")?;
        } else {
            w.write_all(f.as_bytes())?;
        }
    }
    w.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    #[test]
    fn a_batch_offset_past_u32_max_is_an_error_naming_its_line() {
        let max = u32::MAX as usize;
        assert_eq!(batch_offset(max, 7).unwrap(), u32::MAX);
        match batch_offset(max + 1, 7) {
            Err(DatasetError::Csv { line: 7, message }) => {
                assert!(message.contains("too long"), "{message}")
            }
            other => panic!("expected a CSV error at line 7, got {other:?}"),
        }
    }

    #[test]
    fn open_suffix_reads_exactly_the_byte_range() {
        let dir = std::env::temp_dir().join("qid-csv-suffix");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suffix.csv");
        let head = "a,b\n1,x\n2,y\n";
        let tail = "3,z\n4,w\n";
        std::fs::write(&path, format!("{head}{tail}extra,row\n")).unwrap();

        let mut src = CsvTupleSource::open_suffix(
            &path,
            head.len() as u64,
            tail.len() as u64,
            vec!["a".into(), "b".into()],
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(src.n_attrs(), 2);
        // Rows inside the range come through with full type inference;
        // the row past `len` (appended after a hypothetical stat) does
        // not — even though it is on disk.
        assert_eq!(
            src.next_tuple().unwrap(),
            Some(vec![Value::Int(3), Value::text("z")])
        );
        assert_eq!(
            src.next_tuple().unwrap(),
            Some(vec![Value::Int(4), Value::text("w")])
        );
        assert_eq!(src.next_tuple().unwrap(), None);
        assert_eq!(src.rows_read(), 2);
    }

    #[test]
    fn basic_parse_with_header() {
        let ds = read_csv_str("a,b\n1,x\n2,y\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.n_attrs(), 2);
        assert_eq!(ds.schema().attr(0.into()).name(), "a");
        assert_eq!(ds.value(0, 0.into()), &Value::Int(1));
        assert_eq!(ds.value(1, 1.into()), &Value::text("y"));
    }

    #[test]
    fn headerless_parse() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let ds = read_csv_str("1,x\n2,y\n", &opts).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.schema().attr(0.into()).name(), "col0");
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let ds = read_csv_str(
            "a,b\n\"hi, there\",\"say \"\"what\"\"\"\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(ds.value(0, 0.into()), &Value::text("hi, there"));
        assert_eq!(ds.value(0, 1.into()), &Value::text("say \"what\""));
    }

    #[test]
    fn quoted_newline_inside_field() {
        let ds = read_csv_str("a,b\n\"line1\nline2\",3\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 1);
        assert_eq!(ds.value(0, 0.into()), &Value::text("line1\nline2"));
        assert_eq!(ds.value(0, 1.into()), &Value::Int(3));
    }

    #[test]
    fn uci_missing_values_and_padding() {
        let ds = read_csv_str("age,job\n39, State-gov\n50, ?\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.value(0, 1.into()), &Value::text("State-gov"));
        assert_eq!(ds.value(1, 1.into()), &Value::Null);
        assert_eq!(ds.schema().attr(0.into()).dtype(), DataType::Int);
    }

    #[test]
    fn float_inference() {
        let ds = read_csv_str("x\n1.5\n-2.25\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.schema().attr(0.into()).dtype(), DataType::Float);
        assert_eq!(ds.value(0, 0.into()), &Value::float(1.5));
    }

    #[test]
    fn no_inference_when_disabled() {
        let opts = CsvOptions {
            infer_types: false,
            ..CsvOptions::default()
        };
        let ds = read_csv_str("x\n42\n", &opts).unwrap();
        assert_eq!(ds.value(0, 0.into()), &Value::text("42"));
    }

    #[test]
    fn crlf_line_endings() {
        let ds = read_csv_str("a,b\r\n1,2\r\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 1);
        assert_eq!(ds.value(0, 1.into()), &Value::Int(2));
    }

    #[test]
    fn unterminated_quote_is_error() {
        let err = read_csv_str("a\n\"oops\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DatasetError::Csv { .. }));
    }

    #[test]
    fn stray_quote_is_error() {
        let err = read_csv_str("a\nab\"c\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DatasetError::Csv { .. }));
    }

    #[test]
    fn ragged_row_is_error() {
        let err = read_csv_str("a,b\n1\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DatasetError::RowArity { .. }));
    }

    #[test]
    fn empty_input() {
        let ds = read_csv_str("", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 0);
        assert_eq!(ds.n_attrs(), 0);
    }

    #[test]
    fn roundtrip_write_read() {
        let ds = read_csv_str(
            "name,score\n\"comma, inc\",3\nplain,4\n",
            &CsvOptions::default(),
        )
        .unwrap();
        let mut out = Vec::new();
        write_csv(&ds, &mut out).unwrap();
        let back =
            read_csv_str(std::str::from_utf8(&out).unwrap(), &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), ds.n_rows());
        assert_eq!(back.value(0, 0.into()), &Value::text("comma, inc"));
        assert_eq!(back.value(1, 1.into()), &Value::Int(4));
    }

    #[test]
    fn semicolon_delimiter() {
        let opts = CsvOptions {
            delimiter: b';',
            ..CsvOptions::default()
        };
        let ds = read_csv_str("a;b\n1;2\n", &opts).unwrap();
        assert_eq!(ds.value(0, 1.into()), &Value::Int(2));
    }

    #[test]
    fn tuple_source_matches_materialised_reader() {
        let text = "a,b\n1,x\n2,\"y,z\"\n3, ?\n";
        let opts = CsvOptions::default();
        let ds = read_csv_str(text, &opts).unwrap();
        let mut src =
            CsvTupleSource::from_reader(std::io::Cursor::new(text.to_string()), &opts).unwrap();
        assert_eq!(src.attr_names(), vec!["a".to_string(), "b".to_string()]);
        let mut rows = Vec::new();
        while let Some(t) = src.next_tuple().unwrap() {
            rows.push(t);
        }
        assert_eq!(src.rows_read(), 3);
        assert_eq!(rows.len(), ds.n_rows());
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert_eq!(v, ds.value(i, AttrId::new(j)), "row {i} col {j}");
            }
        }
    }

    #[test]
    fn tuple_source_headerless_and_blank_lines() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let mut src =
            CsvTupleSource::from_reader(std::io::Cursor::new("1,x\n2,y\n\n".to_string()), &opts)
                .unwrap();
        assert_eq!(
            src.attr_names(),
            vec!["col0".to_string(), "col1".to_string()]
        );
        let mut n = 0;
        while src.next_tuple().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn tuple_source_ragged_row_is_error() {
        let mut src = CsvTupleSource::from_reader(
            std::io::Cursor::new("a,b\n1\n".to_string()),
            &CsvOptions::default(),
        )
        .unwrap();
        assert!(src.next_tuple().is_err());
    }

    #[test]
    fn tuple_source_empty_input() {
        let mut src = CsvTupleSource::from_reader(
            std::io::Cursor::new(String::new()),
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(src.n_attrs(), 0);
        assert_eq!(src.next_tuple().unwrap(), None);
    }

    #[test]
    fn unicode_fields() {
        let ds = read_csv_str("a\nnaïve\n\"héllo, wörld\"\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.value(0, 0.into()), &Value::text("naïve"));
        assert_eq!(ds.value(1, 0.into()), &Value::text("héllo, wörld"));
    }
}

/// The buffered framer against the reader it replaced, which called
/// `BufRead::read_line` once per physical line and framed each line with
/// [`frame`]: the same records, fields and errors, whatever the reads'
/// sizes and wherever they split a record or a UTF-8 sequence.
#[cfg(test)]
mod framer_tests {
    use std::io::BufReader;

    use proptest::prelude::*;

    use super::*;

    /// The line-at-a-time framer, kept as the reference.
    struct LineReader<R: BufRead> {
        reader: R,
        delimiter: u8,
        line: usize,
        raw: String,
    }

    impl<R: BufRead> LineReader<R> {
        fn advance(&mut self, batch: &mut Batch) -> Result<bool, DatasetError> {
            self.raw.clear();
            let mut at = Framing {
                field_start: batch.fields.len(),
                ..Framing::default()
            };
            loop {
                if self.reader.read_line(&mut self.raw)? == 0 {
                    if self.raw.is_empty() {
                        return Ok(false);
                    }
                    return Err(DatasetError::Csv {
                        line: self.line,
                        message: "unterminated quoted field at end of input".into(),
                    });
                }
                self.line += 1;
                if !frame(
                    &self.raw,
                    self.delimiter,
                    self.line,
                    &mut at,
                    &mut batch.fields,
                    &mut batch.ends,
                )? {
                    batch
                        .records
                        .push(batch_offset(batch.ends.len(), self.line)?);
                    return Ok(true);
                }
            }
        }
    }

    /// A source that hands out its bytes a few at a time, the read
    /// sizes cycling through `sizes`.
    struct Dribble {
        bytes: Vec<u8>,
        at: usize,
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Dribble {
        fn new(bytes: &[u8], sizes: &[usize]) -> Self {
            Dribble {
                bytes: bytes.to_vec(),
                at: 0,
                sizes: sizes.to_vec(),
                reads: 0,
            }
        }
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(buf.len()).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// What one `advance` after another frames: each record's fields
    /// and each error (`Debug`-formatted, so the variant and every field
    /// of it compare). A record that fails to frame is passed over; a
    /// read error ends the list, since the line framer skips a line
    /// that is not UTF-8 where the buffered one stops. Each entry reads
    /// at least one byte of the `len`, except one last error at the end
    /// of the input.
    fn records(
        len: usize,
        mut advance: impl FnMut(&mut Batch) -> Result<bool, DatasetError>,
    ) -> Vec<Result<Vec<String>, String>> {
        let mut batch = Batch::default();
        let mut out = Vec::new();
        loop {
            assert!(out.len() <= len + 1, "no progress: {out:?}");
            batch.clear();
            match advance(&mut batch) {
                Ok(true) => {
                    let (start, ends) = batch.record(0);
                    let fields = split_fields(&batch.fields, start, ends);
                    out.push(Ok(fields.map(str::to_string).collect()));
                }
                Ok(false) => return out,
                Err(e) => {
                    out.push(Err(format!("{e:?}")));
                    if matches!(e, DatasetError::Io(_)) {
                        return out;
                    }
                }
            }
        }
    }

    /// The attribute names, each data row's raw fields and the first
    /// error, or the constructor's error.
    type Scan = Result<(Vec<String>, Vec<Vec<String>>, Option<String>), String>;

    fn raw_fields(row: CsvRow<'_>) -> Vec<String> {
        row.raw_fields().map(str::to_string).collect()
    }

    /// Every record framed by the line reader into one batch, then
    /// walked by the row stage.
    fn line_scan(source: Dribble, opts: &CsvOptions) -> Scan {
        let mut lines = LineReader {
            reader: BufReader::new(source),
            delimiter: opts.delimiter,
            line: 0,
            raw: String::new(),
        };
        let mut batch = Batch::default();
        batch.stop = loop {
            match lines.advance(&mut batch) {
                Ok(true) => {}
                Ok(false) => break Stop::End,
                Err(e) => break Stop::Failed(e),
            }
        };
        if batch.records.is_empty() {
            return match std::mem::take(&mut batch.stop) {
                Stop::Failed(e) => Err(format!("{e:?}")),
                _ => Ok((Vec::new(), Vec::new(), None)),
            };
        }
        let (names, next) = header(&batch, opts);
        let mut rows = Rows {
            opts: opts.clone(),
            names: names.clone(),
            interner: Interner::new(),
            rows_read: 0,
        };
        let mut out = Vec::new();
        let walked = rows.walk(&mut batch, next, &mut |row| out.push(raw_fields(row)));
        Ok((names, out, walked.err().map(|e| format!("{e:?}"))))
    }

    fn buffered_scan(source: Dribble, opts: &CsvOptions, batch_bytes: usize) -> Scan {
        let src = CsvTupleSource::from_reader(source, opts).map_err(|e| format!("{e:?}"))?;
        let names = src.attr_names();
        let mut out = Vec::new();
        let scanned = src.scan_rows(batch_bytes, |row| out.push(raw_fields(row)));
        Ok((names, out, scanned.err().map(|e| format!("{e:?}"))))
    }

    /// Input pieces that frame cleanly: field text (a run of eight fills
    /// a word with no hit), a delimiter, line ends, a lone CR and a
    /// whole 3-byte character.
    const CLEAN: &[&[u8]] = &[
        b"a",
        b"1",
        b" ",
        b"?",
        b"abcdefgh",
        b"\xe6\x97\xa5",
        b",",
        b"\n",
        b"\r\n",
        b"\n\n",
        b"\r",
    ];

    /// Pieces that take the quoted path or fail: quotes, a byte that is
    /// never UTF-8 and a 3-byte character cut short.
    const HAZARDS: &[&[u8]] = &[b"\"", b"\"\"", b"\xff", b"\xe6\x97"];

    /// A CSV of up to ~200 KB (one case in eight; the rest up to 200
    /// pieces), with hazards at one of four rates, none to one piece
    /// in seven.
    fn csv_bytes() -> impl Strategy<Value = Vec<u8>> {
        (0u8..8, 0usize..4).prop_flat_map(|(size, rate)| {
            let pieces = if size == 0 { 100_000 } else { 200 };
            let piece = (0u16..1000, 0..CLEAN.len(), 0..HAZARDS.len());
            proptest::collection::vec(piece, 0..pieces).prop_map(move |picks| {
                let per_mille = [0, 2, 20, 150][rate];
                let mut bytes = Vec::new();
                for (roll, clean, hazard) in picks {
                    let piece = if roll < per_mille {
                        HAZARDS[hazard]
                    } else {
                        CLEAN[clean]
                    };
                    bytes.extend_from_slice(piece);
                }
                bytes
            })
        })
    }

    /// Mostly `,`; `;` never occurs in the pieces, so every record is
    /// one field and the row stage runs to the end; CR, LF and `"`
    /// delimiters are edge cases of [`frame`] the fast path must keep.
    const DELIMITERS: &[u8] = b",,,;\r\n\"";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn buffered_framer_matches_the_line_framer(
            bytes in csv_bytes(),
            sizes in proptest::collection::vec(1usize..12, 1..8),
            delimiter in 0..DELIMITERS.len(),
            headerless in 0u8..2,
            trim in 0u8..2,
            batch_bytes in prop_oneof![Just(0usize), 1usize..64, Just(SCAN_BATCH_BYTES)],
        ) {
            let opts = CsvOptions {
                delimiter: DELIMITERS[delimiter],
                has_header: headerless == 0,
                trim: trim == 1,
                ..CsvOptions::default()
            };
            let source = || Dribble::new(&bytes, &sizes);
            let mut lines = LineReader {
                reader: BufReader::new(source()),
                delimiter: opts.delimiter,
                line: 0,
                raw: String::new(),
            };
            let mut buffered = RecordReader::new(source(), opts.delimiter);
            let want = records(bytes.len(), |batch| lines.advance(batch));
            let got = records(bytes.len(), |batch| buffered.advance(batch));
            prop_assert_eq!(&want, &got, "csv {:?}", String::from_utf8_lossy(&bytes));
            let want = line_scan(source(), &opts);
            let got = buffered_scan(source(), &opts, batch_bytes);
            prop_assert_eq!(
                &want,
                &got,
                "batch {} csv {:?}",
                batch_bytes,
                String::from_utf8_lossy(&bytes)
            );
        }
    }

    #[test]
    fn a_line_that_is_not_utf8_is_std_s_error_after_every_record_before_it() {
        // The invalid line's valid prefix would fail to frame, and the
        // read before it splits a 3-byte character.
        let bytes = b"a,b\n\xe6\x97\xa5,x\nx\"y,\xff\n1,2\n";
        let mut reader = RecordReader::new(Dribble::new(bytes, &[5]), b',');
        let got = records(bytes.len(), |batch| reader.advance(batch));
        let want_err = format!("{:?}", DatasetError::Io(invalid_utf8()));
        assert!(
            want_err.contains("stream did not contain valid UTF-8"),
            "{want_err}"
        );
        assert_eq!(
            got,
            vec![
                Ok(vec!["a".to_string(), "b".to_string()]),
                Ok(vec!["日".to_string(), "x".to_string()]),
                Err(want_err.clone()),
            ]
        );
        // The error stays: later calls read nothing more.
        let mut batch = Batch::default();
        let again = reader.advance(&mut batch).map_err(|e| format!("{e:?}"));
        assert_eq!(again, Err(want_err));
    }
}
