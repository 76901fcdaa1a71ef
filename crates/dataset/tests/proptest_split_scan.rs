//! Equivalence of the two-stage scan (`CsvTupleSource::scan_rows`,
//! records framed on a helper thread) with the inline reader
//! (`CsvTupleSource::next_row`).
//!
//! Both stages run the same framer and the same row checks, so every
//! generated CSV must yield the same rows, typed the same, and stop at
//! the same first error — the same `DatasetError` variant, line and
//! row — at every batch size, down to one record per batch, where every
//! record boundary is a batch edge.

use std::io::{Cursor, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use qid_dataset::csv::{CsvOptions, CsvTupleSource, SCAN_BATCH_BYTES};
use qid_dataset::{DatasetError, TupleSource, Value};

/// What a scan yields: the attribute names, the data rows before the
/// first error, and that error (`Debug`-formatted, so the variant and
/// every field of it compare), or the constructor's error.
type Scan = Result<(Vec<String>, Vec<Vec<Value>>, Option<String>), String>;

/// The source over `bytes`, or the constructor's error.
fn open(bytes: &[u8], opts: &CsvOptions) -> Result<CsvTupleSource, String> {
    CsvTupleSource::from_reader(Cursor::new(bytes.to_vec()), opts).map_err(|e| format!("{e:?}"))
}

/// The row as owned values, after checking that typing each field in
/// place agrees with the owned conversion.
fn owned(row: &mut qid_dataset::csv::CsvRow<'_>) -> Vec<Value> {
    let values = row.to_values();
    let by_field: Vec<Value> = row.values().map(|v| v.to_value()).collect();
    assert_eq!(values, by_field);
    values
}

fn inline_scan(bytes: &[u8], opts: &CsvOptions) -> Scan {
    let mut src = open(bytes, opts)?;
    let names = src.attr_names();
    let mut rows = Vec::new();
    loop {
        match src.next_row() {
            Ok(Some(mut row)) => rows.push(owned(&mut row)),
            Ok(None) => return Ok((names, rows, None)),
            Err(e) => return Ok((names, rows, Some(format!("{e:?}")))),
        }
    }
}

fn split_scan(bytes: &[u8], opts: &CsvOptions, batch_bytes: usize) -> Scan {
    let src = open(bytes, opts)?;
    let names = src.attr_names();
    let mut rows = Vec::new();
    match src.scan_rows(batch_bytes, |mut row| rows.push(owned(&mut row))) {
        Ok(()) => Ok((names, rows, None)),
        Err(e) => Ok((names, rows, Some(format!("{e:?}")))),
    }
}

/// Field contents: numbers, null tokens, multibyte text, quotes,
/// delimiters and embedded line breaks.
const SHAPES: &[&str] = &[
    "0",
    "-17",
    "9223372036854775808",
    "1.5",
    "1e3",
    "inf",
    "",
    "?",
    " padded ",
    "naïve",
    "日本語",
    "😀",
    "say \"what\"",
    "\"",
    "a,b",
    "line1\nline2",
    "cr\r\nlf",
    "\r",
];

fn field() -> impl Strategy<Value = String> {
    (
        prop_oneof![
            (0..SHAPES.len()).prop_map(|i| SHAPES[i].to_string()),
            "[a-z0-9]{0,5}",
        ],
        0u8..3,
    )
        .prop_map(|(content, quote)| {
            if quote == 0 || content.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", content.replace('"', "\"\""))
            } else {
                content
            }
        })
}

/// A CSV as bytes: a header, rows with LF or CRLF endings, blank lines
/// between and after them, and a few rows mangled into errors — one
/// field short or over, a quote in the middle of a field, a quote left
/// open to the end of the input, or a byte that is not UTF-8.
fn csv_bytes() -> impl Strategy<Value = Vec<u8>> {
    (1usize..5).prop_flat_map(|width| {
        (
            proptest::collection::vec(
                (proptest::collection::vec(field(), width), 0u8..120, 0u8..8),
                0..40,
            ),
            0u8..2,
        )
            .prop_map(move |(rows, crlf)| {
                let eol = if crlf == 1 { "\r\n" } else { "\n" };
                let header: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
                let mut text = (header.join(",") + eol).into_bytes();
                for (mut row, mangle, blank) in rows {
                    let mut invalid = false;
                    match mangle {
                        0 => {
                            row.pop();
                        }
                        1 => row.push("extra".into()),
                        2 => row[0] = format!("x\"{}", row[0]),
                        3 => row[0] = format!("\"{}", row[0]),
                        4 => invalid = true,
                        _ => {}
                    }
                    text.extend_from_slice(row.join(",").as_bytes());
                    if invalid {
                        text.push(0xff);
                    }
                    text.extend_from_slice(eol.as_bytes());
                    if blank == 0 {
                        text.extend_from_slice(eol.as_bytes());
                    }
                }
                text
            })
    })
}

/// Batch sizes from one record per batch up to the default.
fn batch_bytes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 1usize..256, Just(SCAN_BATCH_BYTES)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn split_scan_matches_the_inline_reader(
        bytes in csv_bytes(),
        batch in batch_bytes(),
        headerless in 0u8..4,
        untrimmed in 0u8..3,
    ) {
        let opts = CsvOptions {
            has_header: headerless != 0,
            trim: untrimmed != 0,
            ..CsvOptions::default()
        };
        let inline = inline_scan(&bytes, &opts);
        let split = split_scan(&bytes, &opts, batch);
        prop_assert_eq!(
            &inline,
            &split,
            "batch {} csv {:?}",
            batch,
            String::from_utf8_lossy(&bytes)
        );
    }
}

#[test]
fn the_first_error_in_source_order_wins() {
    // A ragged row before a framing error, and a framing error before a
    // ragged row, each at every batch size.
    let cases: [(&str, &str); 3] = [
        (
            "a,b\n1,2\n3\n\"open\n",
            "RowArity { row: 1, expected: 2, got: 1 }",
        ),
        (
            "a,b\n1,2\nx\"y,3\n4\n",
            "Csv { line: 3, message: \"quote in the middle of an unquoted field\" }",
        ),
        (
            "a,b\n1,2\n\n3,\"open\n",
            "Csv { line: 4, message: \"unterminated quoted field at end of input\" }",
        ),
    ];
    for (text, want) in cases {
        for batch in [0, 1, 4, SCAN_BATCH_BYTES] {
            let got = split_scan(text.as_bytes(), &CsvOptions::default(), batch);
            let (_, rows, err) = got.unwrap();
            assert_eq!(rows.len(), 1, "{text:?} at batch {batch}");
            assert_eq!(err.as_deref(), Some(want), "{text:?} at batch {batch}");
        }
    }
}

/// A reader that counts the bytes it hands out.
struct Counting {
    inner: Cursor<Vec<u8>>,
    read: Arc<AtomicUsize>,
}

impl Read for Counting {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read.fetch_add(n, Ordering::SeqCst);
        Ok(n)
    }
}

#[test]
fn an_early_error_stops_the_framer_within_a_few_batches() {
    let mut text = String::from("id,name,score\n");
    for i in 0..100_000 {
        if i == 10 {
            text.push_str("10,ragged\n");
        } else {
            text.push_str(&format!("{i},name-{i},{}.5\n", i % 97));
        }
    }
    let stamped = text.len() as u64 - 1_000;
    let read = Arc::new(AtomicUsize::new(0));
    let reader = Counting {
        inner: Cursor::new(text.into_bytes()),
        read: Arc::clone(&read),
    }
    .take(stamped);
    let src = CsvTupleSource::from_reader(reader, &CsvOptions::default()).unwrap();
    let mut rows = 0;
    let err = src.scan_rows(SCAN_BATCH_BYTES, |_| rows += 1).unwrap_err();
    assert!(
        matches!(
            err,
            DatasetError::RowArity {
                row: 10,
                expected: 3,
                got: 2
            }
        ),
        "{err}"
    );
    assert_eq!(rows, 10);
    // The framer works at most a few batches ahead of the row stage,
    // and is joined before the scan returns: nothing reads afterwards.
    let after = read.load(Ordering::SeqCst);
    assert!(
        after <= 8 * SCAN_BATCH_BYTES,
        "read {after} of {stamped} bytes"
    );
    assert_eq!(Arc::strong_count(&read), 1, "the reader is dropped");
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert_eq!(read.load(Ordering::SeqCst), after);
}

#[test]
fn the_scan_reads_no_byte_past_the_reader_s_cap() {
    // Everything past the cap is garbage that would fail the scan.
    let body = "a,b\n1,x\n2,y\n";
    let text = format!("{body}3\n\"open");
    let read = Arc::new(AtomicUsize::new(0));
    let reader = Counting {
        inner: Cursor::new(text.into_bytes()),
        read: Arc::clone(&read),
    }
    .take(body.len() as u64);
    let src = CsvTupleSource::from_reader(reader, &CsvOptions::default()).unwrap();
    let mut rows = Vec::new();
    src.scan_rows(0, |mut row| rows.push(row.to_values()))
        .unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::text("x")],
            vec![Value::Int(2), Value::text("y")]
        ]
    );
    assert_eq!(read.load(Ordering::SeqCst), body.len());
}
