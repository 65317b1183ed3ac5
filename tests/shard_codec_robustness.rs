//! The shard interchange codec against hostile input: a coordinator parses
//! shard files written by workers it does not trust to have survived —
//! truncated writes, corrupted bytes, duplicated lines, or no shard at all.
//! `from_shard_text` and a [`ShardCursor`] must always return a precise
//! line-numbered error, and must never panic.

use nvariant::DeploymentConfig;
use nvariant_apps::campaigns::full_matrix_campaign;
use nvariant_campaign::{cell_seed, CampaignReport, CheckSummary, ShardCursor};
use nvariant_types::fnv1a_64;
use nvariant_types::lines::MAX_LINE_BYTES;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

/// A rich, real shard text: attack cells with alarms, judged verdicts and
/// binary exchange payloads, benign cells with per-seed request sequences.
/// None of the quick matrix's cells terminate in a single-process fault,
/// so one faulted cell is grafted in to cover that optional line too, and
/// a model-checking summary covers the v3 `checked` line. Wall times are
/// zeroed, so the text is the same on every run.
fn sample_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut report = full_matrix_campaign(&[DeploymentConfig::TwoVariantUid], &[], 3, 1).run(2);
        report.total_wall = Duration::ZERO;
        for cell in &mut report.cells {
            cell.wall = Duration::ZERO;
        }
        report.cells[0].checked = Some(CheckSummary {
            property: "P1".to_string(),
            status: "pass".to_string(),
            states: 4242,
            depth: 24,
        });
        let mut faulted = report.cells[0].clone();
        faulted.spec.replicate += 1;
        faulted.outcome.exit_status = None;
        faulted.outcome.fault = Some("segfault: read of unmapped 0x7fff0000".to_string());
        report.cells.push(faulted);
        report.to_shard_text()
    })
}

#[test]
fn sample_covers_the_grammar() {
    // The mutation tests below are only as good as the sample they mutate:
    // make sure every optional construct of the format appears.
    let text = sample_text();
    for field in [
        "plan_hash ",
        "shape ",
        "alarm ",
        "fault ",
        "observed ",
        "expected ",
        "checked ",
        "exchange ",
        "endcell",
    ] {
        assert!(text.contains(field), "sample lacks {field:?} lines");
    }
    let parsed = CampaignReport::from_shard_text(text).unwrap();
    assert_eq!(parsed.to_shard_text(), text);
}

#[test]
fn every_line_truncation_is_a_clean_lined_error() {
    let text = sample_text();
    let lines: Vec<&str> = text.lines().collect();
    for keep in 0..lines.len() {
        let truncated = lines[..keep].iter().fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
        let err = CampaignReport::from_shard_text(&truncated)
            .expect_err("a proper prefix can never be a complete shard file");
        assert!(
            err.line <= keep + 1,
            "kept {keep} lines, error names line {} ({err})",
            err.line
        );
    }
}

#[test]
fn duplicated_lines_are_rejected_with_the_offending_line() {
    let text = sample_text();
    let lines: Vec<&str> = text.lines().collect();
    // Duplicating any single line must fail (the grammar has no repeatable
    // line except `exchange`, whose duplication changes the cell but still
    // parses) — and the reported line must be at or after the duplicate.
    for (index, line) in lines.iter().enumerate() {
        if line.starts_with("exchange ") {
            continue;
        }
        let mut mutated: Vec<&str> = lines.clone();
        mutated.insert(index + 1, line);
        let joined = mutated.join("\n");
        if let Err(err) = CampaignReport::from_shard_text(&joined) {
            assert!(
                err.line <= mutated.len() + 1,
                "line {index} duplicated, error line {} out of range",
                err.line
            );
        } else {
            panic!("duplicating line {index} ({line:?}) parsed successfully");
        }
    }
}

/// `len` bytes drawn from `seed` through the campaign's seed derivation.
/// Half of them come from the codec's own alphabet — line ends, spaces,
/// quotes, escapes, digits — so a draw sometimes gets past a line's first
/// token; the rest are any byte at all.
fn arbitrary_bytes(seed: u64, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"\n\r \"\\-0123456789abcdefx";
    (0..len)
        .map(|index| match cell_seed(seed, index, 0, 0, 0) {
            draw if draw & 1 == 0 => ALPHABET[(draw >> 8) as usize % ALPHABET.len()],
            draw => (draw >> 8) as u8,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, alone or after the first `kept` lines of a valid
    /// shard (its header is the first 7): a cursor drained to the end
    /// returns, and any error names a line no later than the input's line
    /// count plus one.
    #[test]
    fn arbitrary_bytes_after_a_valid_prefix_are_a_lined_error(
        kept in 0usize..16,
        seed in any::<u64>(),
        len in 0usize..400,
    ) {
        let mut input: Vec<u8> = sample_text()
            .lines()
            .take(kept)
            .flat_map(|line| [line.as_bytes(), b"\n"].concat())
            .collect();
        input.extend(arbitrary_bytes(seed, len));
        let drained = ShardCursor::new(input.as_slice()).and_then(|mut cursor| {
            while cursor.next_cell()?.is_some() {}
            Ok(())
        });
        if let Err(err) = drained {
            let line_count = String::from_utf8_lossy(&input).lines().count();
            prop_assert!(
                err.line <= line_count + 1,
                "{line_count} lines, error names line {} ({err})",
                err.line
            );
        }
    }

    /// Byte-level fuzz over the shard text: overwrite, insert, delete,
    /// truncate or line-duplicate at a random position. The parser must
    /// return (never panic), and anything it accepts must itself re-encode
    /// and re-parse — mutations can land in quoted labels or hex payloads
    /// and still yield a structurally valid file.
    #[test]
    fn mutated_shard_texts_never_panic(
        position in any::<u64>(),
        kind in 0usize..5,
        value in any::<u8>(),
    ) {
        let mut bytes = sample_text().as_bytes().to_vec();
        let at = (position as usize) % bytes.len();
        match kind {
            0 => bytes[at] = value,
            1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, value),
            3 => bytes.truncate(at),
            _ => {
                // Duplicate the line containing `at`.
                let start = bytes[..at].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| at + p + 1);
                let line: Vec<u8> = bytes[start..end].to_vec();
                bytes.splice(start..start, line);
            }
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(report) = CampaignReport::from_shard_text(&mutated) {
            let reparsed = CampaignReport::from_shard_text(&report.to_shard_text());
            prop_assert!(reparsed.is_ok(), "accepted text failed to round-trip");
        }
    }
}

/// The bytes a damaged position is replaced with: digits, uppercase and
/// near-miss letters, the sentinel, the separators and line ends, and bytes
/// that are not ASCII or start no valid UTF-8 character here.
const REPLACEMENTS: &[u8] = b"09afAFgG- \r\n\0\x7f\x80\xc3\xe9";

/// How many digits at each end of a token are damaged.
const TOKEN_EDGE: usize = 24;

/// One outcome line: `ok <fnv of canonical text> <fnv of re-rendered shard
/// text>`, or `err <line> <message>`. A long message (one quoting a whole
/// damaged line) keeps its first 100 bytes and its length and FNV-1a, which
/// still pin every byte.
fn outcome(bytes: &[u8]) -> String {
    let parsed = ShardCursor::new(bytes).and_then(|mut cursor| {
        let mut cells = Vec::new();
        while let Some(cell) = cursor.next_cell()? {
            cells.push(cell);
        }
        let header = cursor.into_header();
        Ok(CampaignReport::new(
            header.name,
            header.base_seed,
            header.plan_hash,
            header.shape,
            header.workers,
            cells,
            header.total_wall,
        ))
    });
    match parsed {
        Ok(report) => format!(
            "ok {:#018x} {:#018x}",
            fnv1a_64(report.canonical_text().as_bytes()),
            fnv1a_64(report.to_shard_text().as_bytes())
        ),
        Err(err) if err.message.len() > 120 => {
            let mut cut = 100;
            while !err.message.is_char_boundary(cut) {
                cut -= 1;
            }
            format!(
                "err {} {}… [{} bytes, fnv {:#018x}]",
                err.line,
                &err.message[..cut],
                err.message.len(),
                fnv1a_64(err.message.as_bytes())
            )
        }
        Err(err) => format!("err {} {}", err.line, err.message),
    }
}

/// A valid `exchange` line of `len` bytes before its `\n`: an empty or
/// one-byte request, whichever makes the response a whole number of bytes.
fn exchange_line_of(len: usize) -> Vec<u8> {
    let request: &[u8] = if len.is_multiple_of(2) { b"00" } else { b"-" };
    let mut line = b"exchange ".to_vec();
    line.extend_from_slice(request);
    line.push(b' ');
    let digits = len - line.len();
    line.extend((0..digits).map(|at| b"0123456789abcdef"[at % 16]));
    line.push(b'\n');
    line
}

/// The error golden: what parsing the sample shard returns after each
/// one-byte damage to two `exchange` lines, the first of the first cell
/// that holds exchanges (after the cell's head) and the last of the last
/// such cell (before its `endcell`). Damaged are every byte of the
/// `exchange` key, its space and the line ends on either side, the
/// separator, and the first and last [`TOKEN_EDGE`] digits of each token:
/// each is replaced by every byte of [`REPLACEMENTS`], deleted, or preceded
/// by an inserted `0`. Last, the first of the two lines is replaced by
/// valid exchange lines of `MAX_LINE_BYTES - 1`, `MAX_LINE_BYTES` and
/// `MAX_LINE_BYTES + 1` bytes before the `\n`.
fn exchange_damage_text() -> String {
    let text = sample_text().as_bytes();
    let mut starts = vec![0];
    starts.extend(
        text.iter()
            .enumerate()
            .filter(|&(_, &byte)| byte == b'\n')
            .map(|(at, _)| at + 1),
    );
    starts.pop();
    // The exchange lines of each cell, by index into `starts`.
    let mut cells: Vec<Vec<usize>> = Vec::new();
    for (index, &start) in starts.iter().enumerate() {
        if text[start..].starts_with(b"cell ") {
            cells.push(Vec::new());
        } else if text[start..].starts_with(b"exchange ") {
            cells
                .last_mut()
                .expect("exchanges sit in cells")
                .push(index);
        }
    }
    let cells: Vec<&Vec<usize>> = cells.iter().filter(|lines| !lines.is_empty()).collect();
    let lines = [cells[0][0], *cells[cells.len() - 1].last().unwrap()];

    let mut out = String::new();
    for &index in &lines {
        let start = starts[index];
        let end = start + text[start..].iter().position(|&b| b == b'\n').unwrap();
        let separator = start
            + 9
            + text[start + 9..end]
                .iter()
                .position(|&b| b == b' ')
                .unwrap();
        let mut positions: std::collections::BTreeSet<usize> = (start - 1..=start + 9).collect();
        positions.insert(end);
        for (first, last) in [(start + 9, separator), (separator + 1, end)] {
            positions.extend(first..last.min(first + TOKEN_EDGE));
            positions.extend(last.saturating_sub(TOKEN_EDGE).max(first)..last);
        }
        for at in positions {
            let line = starts.partition_point(|&s| s <= at);
            let column = at - starts[line - 1] + 1;
            let mut damaged = |label: String, bytes: Vec<u8>| {
                out.push_str(&format!("{line}:{column} {label} {}\n", outcome(&bytes)));
            };
            for &byte in REPLACEMENTS.iter().filter(|&&byte| byte != text[at]) {
                let mut bytes = text.to_vec();
                bytes[at] = byte;
                damaged(format!("set {byte:02x}"), bytes);
            }
            let mut bytes = text.to_vec();
            bytes.remove(at);
            damaged("del".to_string(), bytes);
            let mut bytes = text.to_vec();
            bytes.insert(at, b'0');
            damaged("ins 30".to_string(), bytes);
        }
    }
    let index = lines[0];
    let (start, end) = (starts[index], starts[index + 1]);
    for len in [MAX_LINE_BYTES - 1, MAX_LINE_BYTES, MAX_LINE_BYTES + 1] {
        let mut bytes = text[..start].to_vec();
        bytes.extend(exchange_line_of(len));
        bytes.extend_from_slice(&text[end..]);
        out.push_str(&format!(
            "{}:1 line of {len} bytes and a newline {}\n",
            index + 1,
            outcome(&bytes)
        ));
    }
    out
}

#[test]
fn damaged_exchange_lines_fail_where_and_how_the_golden_says() {
    let text = exchange_damage_text();
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("shard_exchange_errors_golden.txt");
    if std::env::var_os("NVARIANT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it on a known-good \
             tree with NVARIANT_REGEN_GOLDEN=1 cargo test --test shard_codec_robustness",
            path.display()
        )
    });
    if text != golden {
        let first = text
            .lines()
            .zip(golden.lines())
            .find(|(got, want)| got != want);
        panic!(
            "damaged exchange lines no longer fail as the golden says ({} lines, golden {}); \
             first difference: {first:?}",
            text.lines().count(),
            golden.lines().count()
        );
    }
}
