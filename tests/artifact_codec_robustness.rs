//! The artifact store's reader against hostile input. A store entry is a
//! file another process wrote; the header and checksum catch most damage,
//! but an entry whose body was rewritten together with its checksum, or
//! whose damage the parser meets before the checksum can be checked, reaches
//! the structural parser. That parser must return `Ok` or `Err` for any
//! input, never panic, and name a line the input has.

use nvariant::store::{fnv1a_64, from_artifact_text, to_artifact_text};
use nvariant::{DeploymentConfig, NVariantSystemBuilder};
use nvariant_campaign::cell_seed;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A verified two-variant UID build (so its entry carries a quoted verdict
/// and two program blocks) and its artifact text.
fn sample() -> &'static (NVariantSystemBuilder, String) {
    static SAMPLE: OnceLock<(NVariantSystemBuilder, String)> = OnceLock::new();
    SAMPLE.get_or_init(|| {
        let builder = NVariantSystemBuilder::from_source(
            r"
            var greeting: buf[16];
            fn main() -> int {
                var uid: uid_t;
                uid = getuid();
                if (uid == 0) { return setuid(48); }
                return 0;
            }
            ",
        )
        .expect("sample source parses")
        .config(DeploymentConfig::TwoVariantUid)
        .verify_diversity(true);
        let text = to_artifact_text(&builder.clone().compile().expect("sample compiles"));
        (builder, text)
    })
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
    /// entry (header, checksum, fingerprint, ...): the reader returns, and
    /// any error names a line no later than the input's line count plus
    /// one.
    #[test]
    fn arbitrary_bytes_after_a_valid_prefix_are_a_lined_error(
        kept in 0usize..16,
        seed in any::<u64>(),
        len in 0usize..400,
    ) {
        let (builder, text) = sample();
        let mut input: Vec<u8> = text
            .lines()
            .take(kept)
            .flat_map(|line| [line.as_bytes(), b"\n"].concat())
            .collect();
        input.extend(arbitrary_bytes(seed, len));
        let input = String::from_utf8_lossy(&input);
        if let Err(err) = from_artifact_text(&input, builder) {
            let line_count = input.lines().count();
            prop_assert!(
                err.line <= line_count + 1,
                "{line_count} lines, error names line {} ({err})",
                err.line
            );
        }
    }

    /// Drops, duplicates or swaps body lines, overwrites a body byte, or
    /// truncates the body, then rewrites the checksum line to match. The
    /// reader must return; anything it accepts must re-encode to a text it
    /// accepts again.
    #[test]
    fn rechecksummed_mutated_bodies_never_panic(
        first in any::<u64>(),
        second in any::<u64>(),
        kind in 0usize..5,
        value in any::<u8>(),
    ) {
        let (builder, text) = sample();
        let mut parts = text.splitn(3, '\n');
        let header = parts.next().expect("header line");
        let body = parts.nth(1).expect("body after the checksum line");
        let mut lines: Vec<&str> = body.lines().collect();
        let (a, b) = (first as usize % lines.len(), second as usize % lines.len());
        let mutated = match kind {
            0 => {
                lines.remove(a);
                lines.join("\n")
            }
            1 => {
                lines.insert(a, lines[a]);
                lines.join("\n")
            }
            2 => {
                lines.swap(a, b);
                lines.join("\n")
            }
            3 => {
                let mut bytes = body.as_bytes().to_vec();
                bytes[first as usize % body.len()] = value;
                String::from_utf8_lossy(&bytes).into_owned()
            }
            _ => String::from_utf8_lossy(&body.as_bytes()[..first as usize % body.len()])
                .into_owned(),
        };
        let entry = format!(
            "{header}\nchecksum {:#018x}\n{mutated}",
            fnv1a_64(mutated.trim_end_matches('\n').as_bytes())
        );
        if let Ok(system) = from_artifact_text(&entry, builder) {
            let again = from_artifact_text(&to_artifact_text(&system), builder);
            prop_assert!(again.is_ok(), "accepted entry failed to round-trip");
        }
    }
}
