//! Minimal CSV reader/writer (RFC-4180 quoting, type inference).
//!
//! Implemented in-crate so the library has no I/O dependencies; it is
//! enough to load the UCI Adult / Covtype files the paper evaluates on
//! when they are available locally, and to round-trip our synthetic
//! data sets.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::mpsc;

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

/// Frames one logical CSV record at a time (which may span multiple
/// physical lines when quotes contain newlines) into a [`Batch`], so
/// framing allocates nothing once the buffers have grown.
struct RecordReader<R: BufRead> {
    reader: R,
    delimiter: u8,
    line: usize,
    /// The raw text of the current record, line terminators included.
    raw: String,
}

impl<R: BufRead> RecordReader<R> {
    fn new(reader: R, delimiter: u8) -> Self {
        RecordReader {
            reader,
            delimiter,
            line: 0,
            raw: String::new(),
        }
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
            // A line ending inside a quoted field continues on the next
            // one, its line terminator part of the field.
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
        self.values()
            .map(|v| match v {
                ValueRef::Text(s) => Value::Text(self.interner.intern(s)),
                v => v.to_value(),
            })
            .collect()
    }
}

/// Reads a CSV data set from any reader.
///
/// This drains a [`CsvTupleSource`] into a [`Dataset`], so the
/// materialising and streaming paths share one parser by construction
/// (header naming, trimming, blank-line tolerance, type inference).
pub fn read_csv<R: Read>(reader: R, opts: &CsvOptions) -> Result<Dataset, DatasetError> {
    // Unbounded interner: the dataset retains every value anyway.
    let mut source = CsvTupleSource::from_bufread(BufReader::new(reader), opts, Interner::new())?;
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
pub struct CsvTupleSource<R: BufRead = Box<dyn BufRead + Send>> {
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
    pub fn from_reader<R: Read + Send + 'static>(
        reader: R,
        opts: &CsvOptions,
    ) -> Result<Self, DatasetError> {
        Self::from_bufread(
            Box::new(BufReader::new(reader)) as Box<dyn BufRead + Send>,
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
        let reader = Box::new(BufReader::new(file.take(len))) as Box<dyn BufRead + Send>;
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

impl<R: BufRead> CsvTupleSource<R> {
    fn from_bufread(
        reader: R,
        opts: &CsvOptions,
        interner: Interner,
    ) -> Result<Self, DatasetError> {
        let mut records = RecordReader::new(reader, opts.delimiter);
        let mut batch = Batch::default();
        // The first record names the attributes, or is the first data
        // row of a headerless source.
        let (names, next) = if !records.advance(&mut batch)? {
            (Vec::new(), 0)
        } else {
            let (start, ends) = batch.record(0);
            if opts.has_header {
                let names = split_fields(&batch.fields, start, ends)
                    .map(|f| if opts.trim { f.trim() } else { f }.to_string())
                    .collect();
                (names, 1)
            } else {
                ((0..ends.len()).map(|i| format!("col{i}")).collect(), 0)
            }
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

impl<R: BufRead + Send> CsvTupleSource<R> {
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

impl<R: BufRead> TupleSource for CsvTupleSource<R> {
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
