//! Equivalence of the borrowed row cursor with the owned CSV reader it
//! replaced.
//!
//! `oracle` below is the reader as it was before rows were typed in
//! place: one `String` per physical line, one `String` per field, and
//! each field typed straight into an owned `Value`. Every generated
//! CSV must frame, type and fail identically through
//! `CsvTupleSource::next_row` (and through `next_tuple`, which is
//! `next_row` plus the owned conversion).

use std::io::Cursor;

use proptest::prelude::*;

use qid_dataset::csv::{CsvOptions, CsvTupleSource};
use qid_dataset::{DatasetError, TupleSource, Value};

/// The reader before the row cursor, kept as the reference.
mod oracle {
    use std::io::BufRead;

    use qid_dataset::csv::CsvOptions;
    use qid_dataset::{DatasetError, Value};

    fn count_quotes(s: &str) -> usize {
        s.bytes().filter(|&b| b == b'"').count()
    }

    fn trim_newline(s: &str) -> &str {
        s.strip_suffix('\n')
            .map(|s| s.strip_suffix('\r').unwrap_or(s))
            .unwrap_or(s)
    }

    fn utf8_len(first_byte: u8) -> usize {
        match first_byte {
            b if b < 0x80 => 1,
            b if b >= 0xF0 => 4,
            b if b >= 0xE0 => 3,
            _ => 2,
        }
    }

    fn parse_record(line: &str, delimiter: u8) -> Result<Vec<String>, String> {
        let bytes = line.as_bytes();
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut i = 0usize;
        let mut in_quotes = false;
        while i < bytes.len() {
            let b = bytes[i];
            if in_quotes {
                if b == b'"' {
                    if i + 1 < bytes.len() && bytes[i + 1] == b'"' {
                        field.push('"');
                        i += 2;
                        continue;
                    }
                    in_quotes = false;
                    i += 1;
                } else {
                    let ch_len = utf8_len(b);
                    field.push_str(&line[i..i + ch_len]);
                    i += ch_len;
                }
            } else if b == b'"' {
                if field.chars().all(|c| c.is_ascii_whitespace()) {
                    field.clear();
                } else {
                    return Err("quote in the middle of an unquoted field".into());
                }
                in_quotes = true;
                i += 1;
            } else if b == delimiter {
                fields.push(std::mem::take(&mut field));
                i += 1;
            } else {
                let ch_len = utf8_len(b);
                field.push_str(&line[i..i + ch_len]);
                i += ch_len;
            }
        }
        if in_quotes {
            return Err("unterminated quoted field".into());
        }
        fields.push(field);
        Ok(fields)
    }

    /// Every record of `text`, or the message of the first error.
    pub fn records(text: &str, delimiter: u8) -> Result<Vec<Vec<String>>, String> {
        let mut reader = text.as_bytes();
        let mut out = Vec::new();
        loop {
            let mut raw = String::new();
            if reader.read_line(&mut raw).map_err(|e| e.to_string())? == 0 {
                return Ok(out);
            }
            while count_quotes(&raw) % 2 == 1 {
                let mut cont = String::new();
                if reader.read_line(&mut cont).map_err(|e| e.to_string())? == 0 {
                    return Err("unterminated quoted field at end of input".into());
                }
                raw.push_str(&cont);
            }
            out.push(parse_record(trim_newline(&raw), delimiter)?);
        }
    }

    /// The field typing before `ValueRef`.
    pub fn field_to_value(field: &str, opts: &CsvOptions) -> Value {
        let field = if opts.trim { field.trim() } else { field };
        if opts.null_tokens.iter().any(|t| t == field) {
            return Value::Null;
        }
        if opts.infer_types {
            if let Ok(i) = field.parse::<i64>() {
                return Value::Int(i);
            }
            if let Ok(f) = field.parse::<f64>() {
                if f.is_finite() {
                    return Value::float(f);
                }
            }
        }
        Value::text(field)
    }

    /// Attribute names and typed data rows, as the old `CsvTupleSource`
    /// yielded them.
    pub fn rows(text: &str, opts: &CsvOptions) -> Result<(Vec<String>, Vec<Vec<Value>>), String> {
        let mut records = records(text, opts.delimiter)?.into_iter();
        let (names, first) = match records.next() {
            None => return Ok((Vec::new(), Vec::new())),
            Some(first) if opts.has_header => (
                first
                    .into_iter()
                    .map(|f| if opts.trim { f.trim().to_string() } else { f })
                    .collect::<Vec<_>>(),
                None,
            ),
            Some(first) => (
                (0..first.len()).map(|i| format!("col{i}")).collect(),
                Some(first),
            ),
        };
        let mut rows = Vec::new();
        for record in first.into_iter().chain(records) {
            if record.len() == 1 && record[0].trim().is_empty() && names.len() != 1 {
                continue;
            }
            if record.len() != names.len() {
                return Err(DatasetError::RowArity {
                    row: rows.len(),
                    expected: names.len(),
                    got: record.len(),
                }
                .to_string());
            }
            rows.push(record.iter().map(|f| field_to_value(f, opts)).collect());
        }
        Ok((names, rows))
    }
}

/// Field contents the typing rules treat specially, plus text that
/// needs quoting.
const SHAPES: &[&str] = &[
    "-9223372036854775808",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "+5",
    "-0",
    "0",
    "007",
    "1e3",
    "-1.5E-3",
    ".5",
    "5.",
    "1.5",
    "-2.25",
    "1_000",
    "0x10",
    "inf",
    "-inf",
    "NaN",
    "nan",
    "infinity",
    "Infinity",
    "",
    "?",
    " ? ",
    "naïve",
    "日本語",
    "😀 emoji",
    "héllo, wörld",
    "say \"what\"",
    "\"",
    "a,b",
    ",",
    "line1\nline2",
    "cr\r\nlf",
    "\n",
];

/// Padding around a field's content: ASCII blanks and NBSP, which
/// `str::trim` removes and an ASCII-only trim would not.
const PADS: &[&str] = &["", "", " ", "  ", "\t", "\u{a0}", " \u{a0} "];

fn pick(list: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..list.len()).prop_map(move |i| list[i].to_string())
}

/// One field's content, before escaping.
fn content() -> impl Strategy<Value = String> {
    prop_oneof![
        pick(SHAPES),
        pick(SHAPES),
        (-100_000i64..100_000).prop_map(|i| i.to_string()),
        (-1000i64..1000).prop_map(|i| format!("{}.{}", i, (i * 7).rem_euclid(100))),
        "[a-z0-9]{0,6}",
    ]
}

/// One field as it appears in a record: padded, then quoted when it
/// must be (or by choice), possibly with ASCII blanks around the quotes.
fn field() -> impl Strategy<Value = String> {
    (content(), pick(PADS), pick(PADS), 0u8..4, 0u8..3).prop_map(
        |(content, left, right, quote, outer)| {
            let padded = format!("{left}{content}{right}");
            let must_quote = padded.contains([',', '"', '\n', '\r']);
            if must_quote || quote == 0 {
                let blank = [" ", "", ""][outer as usize];
                format!("{blank}\"{}\"{blank}", padded.replace('"', "\"\""))
            } else {
                padded
            }
        },
    )
}

/// A whole CSV text: header, rows, line endings and trailing blank
/// lines. A few rows are mangled into errors: a missing or extra
/// field, a stray quote, or a quote left open.
fn csv_text() -> impl Strategy<Value = String> {
    (1usize..5).prop_flat_map(|width| {
        (
            proptest::collection::vec((proptest::collection::vec(field(), width), 0u8..40), 0..12),
            0u8..2,
            0u8..4,
        )
            .prop_map(move |(rows, crlf, blanks)| {
                let eol = if crlf == 1 { "\r\n" } else { "\n" };
                let header: Vec<String> = (0..width).map(|i| format!(" c{i} ")).collect();
                let mut text = header.join(",") + eol;
                for (mut row, mangle) in rows {
                    match mangle {
                        0 => {
                            row.pop();
                        }
                        1 => row.push("extra".into()),
                        2 => row[0] = format!("x\"{}", row[0]),
                        3 => row[0] = format!("\"{}", row[0]),
                        _ => {}
                    }
                    text += &row.join(",");
                    text += eol;
                }
                for _ in 0..blanks {
                    text += eol;
                }
                text
            })
    })
}

/// What the cursor yields for `text`: names, then each row both as
/// owned values (`CsvRow::to_values`) and field by field
/// (`ValueRef::to_value`), which must agree.
fn cursor_rows(text: &str, opts: &CsvOptions) -> Result<(Vec<String>, Vec<Vec<Value>>), String> {
    let mut src = CsvTupleSource::from_reader(Cursor::new(text.to_string()), opts)
        .map_err(|e| e.to_string())?;
    let names = src.attr_names();
    let mut rows = Vec::new();
    while let Some(mut row) = src.next_row().map_err(|e| e.to_string())? {
        let owned = row.to_values();
        let by_field: Vec<Value> = row.values().map(|v| v.to_value()).collect();
        assert_eq!(owned, by_field);
        assert_eq!(row.values().len(), names.len());
        rows.push(owned);
    }
    assert_eq!(src.rows_read(), rows.len());
    Ok((names, rows))
}

/// The same through `next_tuple`.
fn tuple_rows(text: &str, opts: &CsvOptions) -> Result<(Vec<String>, Vec<Vec<Value>>), String> {
    let mut src = CsvTupleSource::from_reader(Cursor::new(text.to_string()), opts)
        .map_err(|e| e.to_string())?;
    let names = src.attr_names();
    let mut rows = Vec::new();
    while let Some(tuple) = src.next_tuple().map_err(|e| e.to_string())? {
        rows.push(tuple);
    }
    Ok((names, rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Framing, blank-line tolerance, arity and typing all match the
    /// old reader, value for value (floats by bit pattern).
    #[test]
    fn cursor_matches_old_reader(text in csv_text(), headerless in 0u8..4, untrimmed in 0u8..3) {
        let opts = CsvOptions {
            has_header: headerless != 0,
            trim: untrimmed != 0,
            ..CsvOptions::default()
        };
        let expected = oracle::rows(&text, &opts);
        let got = cursor_rows(&text, &opts);
        match (&expected, &got) {
            (Ok(e), Ok(g)) => prop_assert_eq!(e, g, "csv {:?}", text),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "csv {:?}: old {:?}, cursor {:?}", text, expected, got),
        }
        let tuples = tuple_rows(&text, &opts);
        prop_assert_eq!(got.is_ok(), tuples.is_ok());
        if let (Ok(g), Ok(t)) = (&got, &tuples) {
            prop_assert_eq!(g, t);
        }
    }

    /// Typing a row's raw fields one by one (`CsvRow::typed`) gives
    /// what `values()` yields, field for field, under every option mix.
    #[test]
    fn raw_fields_typed_one_by_one_match_values(
        text in csv_text(),
        trim in 0u8..2,
        infer in 0u8..2,
    ) {
        let opts = CsvOptions {
            trim: trim == 1,
            infer_types: infer == 1,
            ..CsvOptions::default()
        };
        let Ok(mut src) = CsvTupleSource::from_reader(Cursor::new(text.clone()), &opts) else {
            return Ok(());
        };
        let width = src.attr_names().len();
        while let Ok(Some(row)) = src.next_row() {
            let raw: Vec<&str> = row.raw_fields().collect();
            prop_assert_eq!(raw.len(), width);
            let typed: Vec<Value> = raw.iter().map(|f| row.typed(f).to_value()).collect();
            let values: Vec<Value> = row.values().map(|v| v.to_value()).collect();
            prop_assert_eq!(typed, values, "csv {:?}", text);
        }
    }

    /// Each generated field types the same in place as the old
    /// `field_to_value`, with and without trimming and inference.
    #[test]
    fn typing_matches_field_to_value(
        contents in proptest::collection::vec((content(), pick(PADS), pick(PADS)), 1..8),
        trim in 0u8..2,
        infer in 0u8..2,
    ) {
        let opts = CsvOptions {
            trim: trim == 1,
            infer_types: infer == 1,
            ..CsvOptions::default()
        };
        let raw: Vec<String> = contents
            .iter()
            .map(|(c, l, r)| format!("{l}{c}{r}"))
            .collect();
        let record = raw
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "\"\"")))
            .collect::<Vec<_>>()
            .join(",");
        let header = (0..raw.len()).map(|i| format!("c{i}")).collect::<Vec<_>>().join(",");
        let text = format!("{header}\n{record}\n");
        let mut src = CsvTupleSource::from_reader(Cursor::new(text.clone()), &opts).unwrap();
        let row = src.next_row().unwrap().expect("one data row");
        let typed: Vec<Value> = row.values().map(|v| v.to_value()).collect();
        let expected: Vec<Value> = raw.iter().map(|f| oracle::field_to_value(f, &opts)).collect();
        prop_assert_eq!(typed, expected, "csv {:?}", text);
    }
}

#[test]
fn boundary_fields_type_as_before() {
    let text = "a,b,c,d,e,f,g,h,i,j,k,l\n\
                -9223372036854775808,9223372036854775807,9223372036854775808,+5,-0,1e3,.5,inf,NaN,infinity,\u{a0}7\u{a0},?\n";
    let mut src =
        CsvTupleSource::from_reader(Cursor::new(text.to_string()), &CsvOptions::default()).unwrap();
    let row = src.next_row().unwrap().unwrap().to_values();
    assert_eq!(
        row,
        vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::float(9_223_372_036_854_775_808.0),
            Value::Int(5),
            Value::Int(0),
            Value::float(1000.0),
            Value::float(0.5),
            Value::text("inf"),
            Value::text("NaN"),
            Value::text("infinity"),
            Value::Int(7),
            Value::Null,
        ]
    );
    assert!(src.next_row().unwrap().is_none());
}

#[test]
fn invalid_utf8_is_an_error() {
    let mut bytes = b"a,b\n1,x\n2,".to_vec();
    bytes.extend_from_slice(&[0xff, 0xfe]);
    bytes.extend_from_slice(b"\n3,z\n");
    let opts = CsvOptions::default();
    let mut src = CsvTupleSource::from_reader(Cursor::new(bytes.clone()), &opts).unwrap();
    assert!(src.next_row().unwrap().is_some());
    assert!(matches!(src.next_row(), Err(DatasetError::Io(_))));
    let mut src = CsvTupleSource::from_reader(Cursor::new(bytes), &opts).unwrap();
    assert!(src.next_tuple().unwrap().is_some());
    assert!(matches!(src.next_tuple(), Err(DatasetError::Io(_))));
}

#[test]
fn ragged_rows_are_errors() {
    for text in ["a,b\n1,2\n3\n", "a,b\n1,2\n3,4,5\n", "a,b\n\"x,y\"\n"] {
        let opts = CsvOptions::default();
        let mut src = CsvTupleSource::from_reader(Cursor::new(text.to_string()), &opts).unwrap();
        let err = loop {
            match src.next_row() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("{text:?}: no error"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, DatasetError::RowArity { .. }),
            "{text:?}: {err}"
        );
        let mut src = CsvTupleSource::from_reader(Cursor::new(text.to_string()), &opts).unwrap();
        assert!(std::iter::from_fn(|| src.next_tuple().transpose()).any(|r| r.is_err()));
    }
}
