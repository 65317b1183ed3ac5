//! The lockstep divergence check: two canonical per-cell streams that
//! *should* be identical (a retrieved shard against the shared cache, or a
//! merged report against a verification re-run) are walked together, once,
//! in canonical order, and the first unequal pair of canonical lines is the
//! divergence — the way the monitor alarms at the first system call where
//! its variants disagree.
//!
//! The comparison runs in the pass that reads the cells, so it needs no
//! state of its own beyond the current pair, and the evidence it reports is
//! the pair it compared: the exact first differing coordinate
//! (config × world × scenario × replicate) and both rendered lines.

use std::fmt;

/// A cell's position in the campaign matrix:
/// (config, world, scenario, replicate).
pub type Coordinates = (usize, usize, usize, usize);

/// Where two streams first disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Divergence {
    /// Both streams have a cell at `index` and the cells differ; this is
    /// the *first* such index.
    Cell {
        /// Index of the first differing cell in canonical order.
        index: usize,
        /// That cell's matrix coordinates
        /// (config, world, scenario, replicate), taken from the expected
        /// stream.
        coordinates: Coordinates,
        /// The expected side's rendered canonical line.
        expected: String,
        /// The observed side's rendered canonical line.
        observed: String,
    },
    /// One stream is a strict prefix of the other: every shared cell
    /// agrees but the lengths differ.
    Length {
        /// Number of cells the streams share (all equal).
        common: usize,
        /// Expected stream length.
        expected: usize,
        /// Observed stream length.
        observed: usize,
    },
}

impl Divergence {
    /// The divergence at cell `index` when its two canonical lines differ,
    /// `None` when they agree.
    #[must_use]
    pub fn at_cell(
        index: usize,
        coordinates: Coordinates,
        expected: String,
        observed: String,
    ) -> Option<Self> {
        (expected != observed).then_some(Divergence::Cell {
            index,
            coordinates,
            expected,
            observed,
        })
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Cell {
                index,
                coordinates: (c, w, s, r),
                expected,
                observed,
            } => {
                writeln!(
                    f,
                    "first divergence at cell #{index} (config {c}, world {w}, scenario {s}, replicate {r}):"
                )?;
                writeln!(f, "  expected: {expected}")?;
                write!(f, "  observed: {observed}")
            }
            Divergence::Length {
                common,
                expected,
                observed,
            } => write!(
                f,
                "streams agree on all {common} shared cells but differ in length: expected {expected} cells, observed {observed}"
            ),
        }
    }
}

/// Walks two canonical cell streams in lockstep and returns where they
/// first disagree: the first pair of unequal lines, or — when every shared
/// line agrees but one stream ends first — the length mismatch. `None`
/// means the streams are equal.
///
/// The expected side carries each cell's coordinates, for the evidence.
/// Both streams are read only up to the first unequal pair, except that a
/// length mismatch counts what is left of the longer one.
pub fn first_divergence(
    expected: impl IntoIterator<Item = (Coordinates, String)>,
    observed: impl IntoIterator<Item = String>,
) -> Option<Divergence> {
    let mut expected = expected.into_iter();
    let mut observed = observed.into_iter();
    let mut index = 0;
    loop {
        match (expected.next(), observed.next()) {
            (Some((coordinates, expected)), Some(observed)) => {
                let divergence = Divergence::at_cell(index, coordinates, expected, observed);
                if divergence.is_some() {
                    return divergence;
                }
            }
            (None, None) => return None,
            (extra_expected, extra_observed) => {
                return Some(Divergence::Length {
                    common: index,
                    expected: index + usize::from(extra_expected.is_some()) + expected.count(),
                    observed: index + usize::from(extra_observed.is_some()) + observed.count(),
                });
            }
        }
        index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: usize, corrupted: bool) -> String {
        if corrupted {
            format!("cell line {i} CORRUPTED")
        } else {
            format!("cell line {i}")
        }
    }

    fn coords(i: usize) -> Coordinates {
        (i, i + 1, i + 2, i + 3)
    }

    /// The expected side: `n` cells with distinct lines.
    fn synthetic(n: usize) -> impl Iterator<Item = (Coordinates, String)> {
        (0..n).map(|i| (coords(i), line(i, false)))
    }

    /// The observed side of an honest transfer: `synthetic(n)`'s lines.
    fn honest(n: usize) -> impl Iterator<Item = String> {
        (0..n).map(|i| line(i, false))
    }

    /// The observed side: `n` cells with the cell at `k` rewritten.
    fn mutated(n: usize, k: usize) -> impl Iterator<Item = String> {
        (0..n).map(move |i| line(i, i == k))
    }

    #[test]
    fn equal_streams_have_no_divergence() {
        assert_eq!(first_divergence(synthetic(100), honest(100)), None);
    }

    #[test]
    fn empty_streams_are_equal() {
        assert_eq!(first_divergence(synthetic(0), honest(0)), None);
    }

    #[test]
    fn first_cell_divergence_is_found() {
        assert_eq!(
            first_divergence(synthetic(64), mutated(64, 0)),
            Some(Divergence::Cell {
                index: 0,
                coordinates: (0, 1, 2, 3),
                expected: "cell line 0".to_string(),
                observed: "cell line 0 CORRUPTED".to_string(),
            })
        );
    }

    #[test]
    fn last_cell_divergence_is_found() {
        match first_divergence(synthetic(64), mutated(64, 63)).expect("diverges") {
            Divergence::Cell { index, .. } => assert_eq!(index, 63),
            Divergence::Length { .. } => panic!("not a length mismatch"),
        }
    }

    #[test]
    fn middle_divergence_reports_the_first_of_two() {
        // Cells 20 and 40 both differ; the check must name 20.
        let observed = (0..64).map(|i| line(i, i == 20 || i == 40));
        match first_divergence(synthetic(64), observed).expect("diverges") {
            Divergence::Cell {
                index, coordinates, ..
            } => {
                assert_eq!(index, 20);
                assert_eq!(coordinates, (20, 21, 22, 23));
            }
            Divergence::Length { .. } => panic!("not a length mismatch"),
        }
    }

    #[test]
    fn length_mismatch_with_equal_shared_prefix() {
        let expected = Some(Divergence::Length {
            common: 40,
            expected: 50,
            observed: 40,
        });
        assert_eq!(first_divergence(synthetic(50), honest(40)), expected);
        // And the other way round: the observed stream runs on.
        assert_eq!(
            first_divergence(synthetic(40), honest(50)),
            Some(Divergence::Length {
                common: 40,
                expected: 40,
                observed: 50,
            })
        );
    }

    #[test]
    fn differing_cell_wins_over_length_mismatch() {
        // Shorter stream that also differs at cell 5: the cell divergence
        // is earlier, so it is what gets reported.
        let observed = (0..40).map(|i| {
            if i == 5 {
                "tampered".to_string()
            } else {
                line(i, false)
            }
        });
        match first_divergence(synthetic(50), observed).expect("diverges") {
            Divergence::Cell { index, .. } => assert_eq!(index, 5),
            Divergence::Length { .. } => panic!("cell divergence precedes length mismatch"),
        }
    }

    #[test]
    fn display_names_the_exact_coordinate() {
        let rendered = first_divergence(synthetic(8), mutated(8, 3))
            .expect("diverges")
            .to_string();
        assert!(
            rendered.contains("cell #3 (config 3, world 4, scenario 5, replicate 6)"),
            "{rendered}"
        );
        assert!(rendered.contains("expected: cell line 3"), "{rendered}");
        assert!(
            rendered.contains("observed: cell line 3 CORRUPTED"),
            "{rendered}"
        );
    }

    #[test]
    fn swapped_cells_diverge_at_the_first_swapped_position() {
        // The same set of lines in another order is a different stream.
        let expected = [
            ((0, 0, 0, 0), "x".to_string()),
            ((0, 0, 0, 1), "y".to_string()),
        ];
        let observed = ["y".to_string(), "x".to_string()];
        match first_divergence(expected, observed).expect("diverges") {
            Divergence::Cell { index, .. } => assert_eq!(index, 0),
            Divergence::Length { .. } => panic!("not a length mismatch"),
        }
    }
}
