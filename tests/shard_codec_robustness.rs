//! The shard interchange codec against hostile input: a coordinator parses
//! shard files written by workers it does not trust to have survived —
//! truncated writes, corrupted bytes, duplicated lines, or no shard at all.
//! `from_shard_text` and a [`ShardCursor`] must always return a precise
//! line-numbered error, and must never panic.

use nvariant::DeploymentConfig;
use nvariant_apps::campaigns::full_matrix_campaign;
use nvariant_campaign::{cell_seed, CampaignReport, CheckSummary, ShardCursor};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A rich, real shard text: attack cells with alarms, judged verdicts and
/// binary exchange payloads, benign cells with per-seed request sequences.
/// None of the quick matrix's cells terminate in a single-process fault,
/// so one faulted cell is grafted in to cover that optional line too, and
/// a model-checking summary covers the v3 `checked` line.
fn sample_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut report = full_matrix_campaign(&[DeploymentConfig::TwoVariantUid], &[], 3, 1).run(2);
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
