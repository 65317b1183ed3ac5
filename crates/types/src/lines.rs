//! The line codec of every file the workspace reads back: shard files,
//! cell-cache packs and artifact-store entries.
//!
//! Such a file is a sequence of lines ended by `\n`; a `\r` before the `\n`
//! is dropped, so a text-mode transfer changes nothing. Most lines are
//! `key value` fields. A value is a decimal or `0x`-prefixed number, a
//! [`hex`](crate::hex) payload, or a string quoted the way Rust's `Debug`
//! quotes it ([`quote`]).
//!
//! [`LineReader`] reads such a file from any [`BufRead`] one line at a time,
//! as bytes, into one buffer it reuses. It refuses a line of
//! [`MAX_LINE_BYTES`] or more before reading further, so no input —
//! corrupt, truncated or endless — makes a reader hold more than one line
//! of it. Each line it hands out carries its number, and its parsers report
//! a [`ParseError`] at that line.
//!
//! A line is handed out as text ([`Line`], checked to be UTF-8) or as its
//! bytes ([`RawLine`]), which a reader of long payload lines decodes
//! without a UTF-8 pass or a copy into a `String`. A line read as bytes
//! fails as a text read would only once [`RawLine::text`] reads it as
//! text, so a parser of bytes that meets a line it refuses reads it as
//! text to name the problem, and names it as a text parser would.
//!
//! Shard files and cell-cache records are read through a buffer of
//! [`READ_BUFFER_BYTES`], in which the longest lines the workspace writes
//! fit whole.
//!
//! # Example
//!
//! ```
//! use nvariant_types::lines::{quote, LineReader};
//!
//! let text = format!("name {}\r\nshape 3 4\n", quote("a \"b\""));
//! let mut reader = LineReader::new(text.as_bytes());
//! assert_eq!(reader.field("name")?.quoted()?, "a \"b\"");
//! let [rows, columns] = reader.field("shape")?.tokens("shape needs 2 sizes")?;
//! assert_eq!((rows.number::<u32>()?, columns.number::<u32>()?), (3, 4));
//! let end = reader.next_line().unwrap_err();
//! assert_eq!(end.line, 3);
//! assert_eq!(end.to_string(), "parse error at line 3: unexpected end of input");
//! # Ok::<(), nvariant_types::lines::ParseError>(())
//! ```

use crate::fnv::Fnv1a;
use std::fmt;
use std::io::{BufRead, Read};
use std::str::FromStr;

/// The longest line, terminator included, a [`LineReader`] reads. The
/// longest lines written are a shard's `exchange` lines, about 20 KiB in
/// the security matrix; the cap stops a line that never ends from growing
/// one allocation until the reader runs out of memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The buffer a shard file is read through, by a merge or a fleet's
/// validation, and a cell-cache record, by a lookup. At 64 KiB it holds
/// three of the longest `exchange` lines, and reading the 19.2 MB of a cold
/// security-matrix pass's shard files takes about 300 `read` calls, where
/// an 8 KiB buffer took about 2,400.
pub const READ_BUFFER_BYTES: usize = 1 << 16;

/// The message of a line that is not UTF-8 read as text: what `std`'s
/// `BufRead::read_line` reports.
const NOT_UTF8: &str = "cannot read line: stream did not contain valid UTF-8";

/// Why a file failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error was detected on; for an unexpected end of
    /// input, the line that should have followed (0 for an error that has no
    /// line, such as a file that cannot be opened).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Quotes `s` as Rust's `Debug` does: the form [`Line::quoted`] and
/// [`Line::take_quoted`] parse back.
#[must_use]
pub fn quote(s: &str) -> String {
    format!("{s:?}")
}

/// The quoted string at the start of `input` and everything after its
/// closing quote.
fn split_quoted(input: &str) -> Result<(String, &str), String> {
    let inner = input
        .strip_prefix('"')
        .ok_or_else(|| format!("expected a quoted string, got {input:?}"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.char_indices();
    while let Some((index, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &inner[index + 1..])),
            '\\' => {
                let escaped = match chars.next().map(|(_, c)| c) {
                    Some('"') => Some('"'),
                    Some('\'') => Some('\''),
                    Some('\\') => Some('\\'),
                    Some('n') => Some('\n'),
                    Some('r') => Some('\r'),
                    Some('t') => Some('\t'),
                    Some('0') => Some('\0'),
                    Some('u') => {
                        let code: String = chars
                            .by_ref()
                            .map(|(_, c)| c)
                            .take_while(|&c| c != '}')
                            .collect();
                        code.strip_prefix('{')
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .and_then(char::from_u32)
                    }
                    _ => None,
                };
                out.push(escaped.ok_or_else(|| format!("bad escape in {input:?}"))?);
            }
            c => out.push(c),
        }
    }
    Err(format!("unterminated quoted string in {input:?}"))
}

/// Reads a line-codec file one line at a time into one reused buffer, and
/// numbers the lines for errors.
#[derive(Debug)]
pub struct LineReader<R> {
    reader: R,
    buffer: Vec<u8>,
    line: usize,
    checksum: Option<LineChecksum>,
}

/// FNV-1a 64 over lines joined by `\n`, leaving out trailing blank lines:
/// `held` counts the line ends not yet folded, which a later non-blank line
/// folds first.
#[derive(Debug)]
struct LineChecksum {
    digest: Fnv1a,
    held: usize,
}

impl LineChecksum {
    fn fold(&mut self, line: &[u8]) {
        if !line.is_empty() {
            for _ in 0..self.held {
                self.digest.write_u8(b'\n');
            }
            self.digest.write(line);
            self.held = 0;
        }
        self.held += 1;
    }
}

impl<R: BufRead> LineReader<R> {
    /// Wraps `reader`, positioned before line 1.
    pub fn new(reader: R) -> Self {
        LineReader {
            reader,
            buffer: Vec::new(),
            line: 0,
            checksum: None,
        }
    }

    /// The number of the line read last (0 before the first).
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }

    /// The wrapped reader, positioned just after the line read last: a
    /// caller that frames the file can seek past a body it skips, or ask
    /// how far it has read.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.reader
    }

    /// Reads one line's bytes without its terminator, or `None` at the end
    /// of input. A line of [`MAX_LINE_BYTES`] or more is an error, raised
    /// before more than that much of it is read; so is a read failure.
    /// Bytes that are not UTF-8 fail only when the line is read as text,
    /// except in a line over the cap: a text read checks them first.
    pub fn read_raw(&mut self) -> Result<Option<RawLine<'_>>, ParseError> {
        self.buffer.clear();
        match (&mut self.reader)
            .take(MAX_LINE_BYTES as u64)
            .read_until(b'\n', &mut self.buffer)
        {
            Ok(0) => return Ok(None),
            Ok(_) => self.line += 1,
            Err(e) => {
                return Err(ParseError {
                    line: self.line + 1,
                    message: format!("cannot read line: {e}"),
                })
            }
        }
        if self.buffer.ends_with(b"\n") {
            self.buffer.pop();
            if self.buffer.ends_with(b"\r") {
                self.buffer.pop();
            }
        } else if self.buffer.len() == MAX_LINE_BYTES {
            let message = match std::str::from_utf8(&self.buffer) {
                Ok(_) => format!("line exceeds {MAX_LINE_BYTES} bytes"),
                Err(_) => NOT_UTF8.to_string(),
            };
            return Err(ParseError {
                line: self.line,
                message,
            });
        }
        if let Some(checksum) = &mut self.checksum {
            checksum.fold(&self.buffer);
        }
        Ok(Some(RawLine {
            bytes: &self.buffer,
            number: self.line,
        }))
    }

    /// Reads one line's bytes that must be there: the end of input is an
    /// error at the line that should have followed.
    pub fn next_raw(&mut self) -> Result<RawLine<'_>, ParseError> {
        let missing = self.line + 1;
        self.read_raw()?.ok_or_else(|| ParseError {
            line: missing,
            message: "unexpected end of input".to_string(),
        })
    }

    /// Reads one line as text without its terminator, or `None` at the end
    /// of input: [`read_raw`](Self::read_raw), and bytes that are not
    /// UTF-8 are an error.
    pub fn read_line(&mut self) -> Result<Option<Line<'_>>, ParseError> {
        self.read_raw()?.map(|line| line.text()).transpose()
    }

    /// Reads one line as text that must be there: the end of input is an
    /// error at the line that should have followed.
    pub fn next_line(&mut self) -> Result<Line<'_>, ParseError> {
        self.next_raw()?.text()
    }

    /// Reads the next line as a `key value` field and returns its value.
    pub fn field(&mut self, key: &str) -> Result<Line<'_>, ParseError> {
        self.next_line()?.value(key)
    }

    /// Starts a checksum over every line read from now on: FNV-1a 64 over
    /// those lines joined by `\n`, leaving out trailing blank lines. For a
    /// text written with `\n` line ends, that is
    /// [`fnv1a_64`](crate::fnv1a_64) of the text after this point with its
    /// trailing `\n`s trimmed.
    pub fn start_checksum(&mut self) {
        self.checksum = Some(LineChecksum {
            digest: Fnv1a::new(),
            held: 0,
        });
    }

    /// The checksum of the lines read since
    /// [`start_checksum`](Self::start_checksum), if it was called.
    #[must_use]
    pub fn checksum(&self) -> Option<u64> {
        self.checksum
            .as_ref()
            .map(|checksum| checksum.digest.finish())
    }
}

/// The bytes of one line a [`LineReader`] read, or of a part of it, not
/// yet checked to be UTF-8: they borrow the reader's buffer until the next
/// read.
#[derive(Clone, Copy, Debug)]
pub struct RawLine<'a> {
    bytes: &'a [u8],
    number: usize,
}

impl<'a> RawLine<'a> {
    /// The bytes of the line, or of the part of it this value covers.
    #[must_use]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The bytes after `key` and one space, or `None` if this is not a
    /// `key` line: [`Line::strip`] over bytes.
    #[must_use]
    pub fn strip(&self, key: &str) -> Option<RawLine<'a>> {
        let bytes = self
            .bytes
            .strip_prefix(key.as_bytes())?
            .strip_prefix(b" ")?;
        Some(RawLine { bytes, ..*self })
    }

    /// The line as text: an error at its number, as a text read of the
    /// line reports it, if its bytes are not UTF-8.
    pub fn text(&self) -> Result<Line<'a>, ParseError> {
        match std::str::from_utf8(self.bytes) {
            Ok(text) => Ok(Line {
                text,
                number: self.number,
            }),
            Err(_) => Err(ParseError {
                line: self.number,
                message: NOT_UTF8.to_string(),
            }),
        }
    }
}

/// One line a [`LineReader`] read as text, or a part of it: its text
/// borrows the reader's buffer until the next read, and every parser
/// reports its errors at the line's number.
#[derive(Clone, Copy, Debug)]
pub struct Line<'a> {
    text: &'a str,
    number: usize,
}

impl<'a> Line<'a> {
    /// The text of the line, or of the part of it this value covers.
    #[must_use]
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// An error at this line.
    pub fn fail<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.number,
            message: message.into(),
        })
    }

    /// Places a message error at this line.
    pub fn lift<T>(&self, result: Result<T, String>) -> Result<T, ParseError> {
        result.or_else(|message| self.fail(message))
    }

    /// The value of a `key value` line: the text after the key and one
    /// space, or `None` if this is not a `key` line.
    #[must_use]
    pub fn strip(&self, key: &str) -> Option<Line<'a>> {
        let text = self.text.strip_prefix(key)?.strip_prefix(' ')?;
        Some(Line { text, ..*self })
    }

    /// The value of a `key value` line, which this must be.
    pub fn value(&self, key: &str) -> Result<Line<'a>, ParseError> {
        match self.strip(key) {
            Some(value) => Ok(value),
            None => self.fail(format!("expected {key:?} field, got {:?}", self.text)),
        }
    }

    /// Splits the text into exactly `N` space-separated tokens. `what` says
    /// what the value needs, as in `"metrics needs 6 counters"`.
    pub fn tokens<const N: usize>(&self, what: &str) -> Result<[Line<'a>; N], ParseError> {
        let mut tokens = [*self; N];
        let mut count = 0;
        for text in self.text.split(' ') {
            if let Some(token) = tokens.get_mut(count) {
                token.text = text;
            }
            count += 1;
        }
        if count == N {
            Ok(tokens)
        } else {
            self.fail(format!("{what}, got {count}"))
        }
    }

    /// Parses the text as a decimal number.
    pub fn number<T: FromStr>(&self) -> Result<T, ParseError> {
        self.text
            .parse()
            .or_else(|_| self.fail(format!("expected a number, got {:?}", self.text)))
    }

    /// Parses the text as a `0x`-prefixed hexadecimal number.
    pub fn hex_number(&self) -> Result<u64, ParseError> {
        match self
            .text
            .strip_prefix("0x")
            .and_then(|digits| u64::from_str_radix(digits, 16).ok())
        {
            Some(value) => Ok(value),
            None => self.fail(format!(
                "expected a 0x-prefixed number, got {:?}",
                self.text
            )),
        }
    }

    /// Parses the text as exactly one [`quote`]d string, with nothing after
    /// its closing quote.
    pub fn quoted(&self) -> Result<String, ParseError> {
        match split_quoted(self.text) {
            Ok((value, "")) => Ok(value),
            Ok((_, rest)) => self.fail(format!(
                "unexpected content {rest:?} after the quoted string"
            )),
            Err(message) => self.fail(message),
        }
    }

    /// Parses a [`quote`]d string at the start of the text, returning the
    /// string and what follows its closing quote and one separating space.
    /// Anything else after the closing quote is an error.
    pub fn take_quoted(&self) -> Result<(String, Line<'a>), ParseError> {
        let (value, rest) = self.lift(split_quoted(self.text))?;
        match rest.strip_prefix(' ').or(rest.is_empty().then_some(rest)) {
            Some(text) => Ok((value, Line { text, ..*self })),
            None => self.fail(format!(
                "unexpected content {rest:?} after the quoted string"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a_64;

    fn reader(text: &str) -> LineReader<&[u8]> {
        LineReader::new(text.as_bytes())
    }

    fn quoted(token: &str) -> Result<String, ParseError> {
        reader(token).next_line()?.quoted()
    }

    fn take_quoted(token: &str) -> Result<(String, String), ParseError> {
        let mut lines = reader(token);
        let (value, rest) = lines.next_line()?.take_quoted()?;
        Ok((value, rest.text().to_string()))
    }

    #[test]
    fn quoting_round_trips_awkward_strings() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab and nul\0",
            "unicode: héllo → 世界",
            "control \u{7} and \u{1b}",
        ] {
            assert_eq!(quoted(&quote(s)).unwrap(), s, "{s:?}");
            assert_eq!(
                take_quoted(&quote(s)).unwrap(),
                (s.to_string(), String::new())
            );
        }
        assert!(quoted("no quotes").is_err());
        assert!(quoted("\"bad \\q escape\"").is_err());
        assert!(quoted("\"unterminated").is_err());
        assert!(quoted("\"bad \\u{110000} escape\"").is_err());
        // Content after the closing quote: a separating space belongs to
        // take_quoted's caller, anything else is an error everywhere.
        assert_eq!(
            take_quoted("\"a\" 12 int").unwrap(),
            ("a".to_string(), "12 int".to_string())
        );
        assert!(take_quoted("\"a\"b").is_err());
        for token in ["\"a\"b\"", "\"a\" ", "\"a\" b"] {
            let err = quoted(token).unwrap_err();
            assert!(err.message.contains("after the quoted string"), "{err}");
        }
    }

    #[test]
    fn lines_split_at_newlines_and_drop_a_carriage_return_before_them() {
        let mut lines = reader("a\r\nb\n\nc\rd\ne");
        let mut read = Vec::new();
        while let Some(line) = lines.read_line().unwrap() {
            read.push(line.text().to_string());
            assert_eq!(lines.line(), read.len());
        }
        assert_eq!(read, ["a", "b", "", "c\rd", "e"]);
        // The end of input stays the end, and is an error at the line that
        // should have followed where a line must follow.
        assert!(lines.read_line().unwrap().is_none());
        let err = lines.next_line().unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("unexpected end"), "{err}");
    }

    #[test]
    fn value_parsers_name_their_line() {
        let mut lines = reader("first 1\nseed 0x1f\nsplit 1 2 3\nname \"x\"\n");
        assert_eq!(lines.field("first").unwrap().number::<u8>().unwrap(), 1);
        let seed = lines.field("seed").unwrap();
        assert_eq!(seed.hex_number().unwrap(), 0x1f);
        assert_eq!(seed.number::<u8>().unwrap_err().line, 2);
        let split = lines.field("split").unwrap();
        let [a, _, c] = split.tokens("split needs 3").unwrap();
        assert_eq!((a.text(), c.number::<u8>().unwrap()), ("1", 3));
        assert_eq!(a.hex_number().unwrap_err().line, 3);
        let err = split.tokens::<2>("split needs 2").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 3: split needs 2, got 3"
        );
        let line = lines.next_line().unwrap();
        assert_eq!(line.strip("name").unwrap().quoted().unwrap(), "x");
        assert!(line.strip("nam").is_none());
        let err = line.value("other").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("\"other\" field"), "{err}");
        assert_eq!(line.lift::<()>(Err("bad".to_string())).unwrap_err().line, 4);
    }

    #[test]
    fn an_endless_line_fails_at_the_cap_without_reading_on() {
        /// Counts the bytes its reader hands out.
        struct Counted<R>(R, std::rc::Rc<std::cell::Cell<usize>>);
        impl<R: Read> Read for Counted<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.read(buf)?;
                self.1.set(self.1.get() + n);
                Ok(n)
            }
        }
        let consumed = std::rc::Rc::new(std::cell::Cell::new(0));
        let text = std::io::Cursor::new(b"short\n".to_vec())
            .chain(std::io::repeat(b'x').take(4 * MAX_LINE_BYTES as u64));
        let buffered = std::io::BufReader::new(Counted(text, std::rc::Rc::clone(&consumed)));
        let capacity = buffered.capacity();
        let mut lines = LineReader::new(buffered);
        assert_eq!(lines.next_line().unwrap().text(), "short");
        let err = lines.next_line().unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains("line exceeds"), "{err}");
        assert!(
            consumed.get() <= MAX_LINE_BYTES + capacity,
            "read {} bytes for a cap of {MAX_LINE_BYTES}",
            consumed.get()
        );
        // One byte under the cap, terminator included, still reads.
        let longest = format!("{}\n", "x".repeat(MAX_LINE_BYTES - 1));
        assert_eq!(
            reader(&longest).next_line().unwrap().text().len(),
            MAX_LINE_BYTES - 1
        );
    }

    #[test]
    fn bytes_that_are_not_utf8_fail_only_when_read_as_text() {
        let text = b"key \xff\xfe\r\nnext 1\n";
        let mut lines = LineReader::new(&text[..]);
        let raw = lines.next_raw().unwrap();
        assert_eq!(raw.bytes(), b"key \xff\xfe");
        assert_eq!(raw.strip("key").unwrap().bytes(), b"\xff\xfe");
        assert!(raw.strip("ke").is_none());
        let err = raw.text().unwrap_err();
        // The message is the one a text read of the line gives, std's own.
        let std_err = (&text[..]).read_line(&mut String::new()).unwrap_err();
        assert_eq!(err.message, format!("cannot read line: {std_err}"));
        assert_eq!(err.line, 1);
        assert_eq!(LineReader::new(&text[..]).next_line().unwrap_err(), err);
        assert_eq!(lines.next_line().unwrap().text(), "next 1");
    }

    #[test]
    fn an_over_long_line_that_is_not_utf8_fails_as_not_utf8() {
        // A text read checked a line's bytes before its length, so a raw
        // read does too.
        let mut long = vec![b'x'; MAX_LINE_BYTES + 8];
        let err = LineReader::new(&long[..]).next_raw().unwrap_err();
        assert_eq!(err.message, format!("line exceeds {MAX_LINE_BYTES} bytes"));
        long[MAX_LINE_BYTES - 1] = 0xc3;
        for err in [
            LineReader::new(&long[..]).next_raw().unwrap_err(),
            LineReader::new(&long[..]).next_line().unwrap_err(),
        ] {
            assert_eq!((err.line, err.message.as_str()), (1, NOT_UTF8));
        }
    }

    #[test]
    fn the_checksum_is_the_trimmed_text_hash_whatever_the_line_ends() {
        let body = "\nfingerprint 0x1\n\nstats 1 2\nend";
        for text in [
            format!("head\n{body}"),
            format!("head\n{body}\n\n\n"),
            format!("head\r\n{}\r\n", body.replace('\n', "\r\n")),
        ] {
            let mut lines = reader(&text);
            assert_eq!(lines.checksum(), None);
            lines.next_line().unwrap();
            lines.start_checksum();
            while lines.read_line().unwrap().is_some() {}
            assert_eq!(
                lines.checksum(),
                Some(fnv1a_64(body.as_bytes())),
                "{text:?}"
            );
            // Lines read as bytes fold the same.
            let mut lines = reader(&text);
            lines.next_raw().unwrap();
            lines.start_checksum();
            while lines.read_raw().unwrap().is_some() {}
            assert_eq!(lines.checksum(), Some(fnv1a_64(body.as_bytes())));
        }
    }
}
