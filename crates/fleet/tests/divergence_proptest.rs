//! Property tests for the lockstep divergence check: over randomly sized
//! streams and mutation positions, the reported coordinate is always the
//! *minimal* differing one, with both lines, equal streams never diverge,
//! and a truncated stream is a length mismatch.

use nvariant_fleet::{first_divergence, Coordinates, Divergence};
use proptest::prelude::*;

/// One synthetic canonical cell line, salted by `salt` (so two streams with
/// different salts differ everywhere) and optionally mutated at index `i`.
fn line(i: usize, salt: u64, mutate: Option<usize>) -> String {
    if mutate == Some(i) {
        format!("cell {i} salt {salt} MUTATED")
    } else {
        format!("cell {i} salt {salt}")
    }
}

fn coords(i: usize) -> Coordinates {
    (i, i / 2, i / 3, i / 5)
}

/// The expected side: `n` distinct cells with their coordinates.
fn expected(n: usize, salt: u64) -> impl Iterator<Item = (Coordinates, String)> {
    (0..n).map(move |i| (coords(i), line(i, salt, None)))
}

/// The observed side: `n` cells, optionally mutated at one index.
fn observed(n: usize, salt: u64, mutate: Option<usize>) -> impl Iterator<Item = String> {
    (0..n).map(move |i| line(i, salt, mutate))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reported divergence index is exactly the mutated position — the
    /// minimal differing coordinate — wherever the mutation lands, with
    /// that cell's coordinates and both canonical lines.
    #[test]
    fn reported_coordinate_is_the_minimal_differing_one(
        n in 1usize..300,
        k_raw in any::<usize>(),
        salt in any::<u64>(),
    ) {
        let k = k_raw % n;
        prop_assert_eq!(
            first_divergence(expected(n, salt), observed(n, salt, Some(k))),
            Some(Divergence::Cell {
                index: k,
                coordinates: coords(k),
                expected: line(k, salt, None),
                observed: line(k, salt, Some(k)),
            })
        );
    }

    /// Identical streams never report a divergence, regardless of size.
    #[test]
    fn equal_streams_never_diverge(n in 0usize..300, salt in any::<u64>()) {
        prop_assert_eq!(first_divergence(expected(n, salt), observed(n, salt, None)), None);
    }

    /// A truncated but otherwise honest stream is reported as a length
    /// mismatch naming the exact shared prefix.
    #[test]
    fn truncation_is_a_length_mismatch(
        n in 2usize..300,
        cut_raw in any::<usize>(),
        salt in any::<u64>(),
    ) {
        let cut = 1 + cut_raw % (n - 1); // 1..n
        prop_assert_eq!(
            first_divergence(expected(n, salt), observed(cut, salt, None)),
            Some(Divergence::Length { common: cut, expected: n, observed: cut })
        );
    }
}
