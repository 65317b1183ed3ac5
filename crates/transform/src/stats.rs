//! Per-category change counts for the UID transformation.

use std::fmt;
use std::ops::Add;

/// The number of source changes made by each transformation pass — the
/// analogue of the paper's Section 4 breakdown of the 73 changes made to
/// Apache (15 reexpressed constants, 16 single-value exposures, 22
/// comparison exposures, 20 conditional checks).
///
/// # Example
///
/// ```
/// use nvariant_transform::TransformStats;
///
/// let stats = TransformStats {
///     uid_constants_reexpressed: 15,
///     implicit_constants_made_explicit: 3,
///     single_value_exposures: 16,
///     comparison_exposures: 22,
///     conditional_checks: 20,
///     log_sinks_sanitized: 1,
/// };
/// assert_eq!(stats.total(), 77);
/// assert_eq!(stats.paper_change_total(), 73);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransformStats {
    /// Constant UID values rewritten with the reexpression function
    /// ("15 of the changes involved applying the reexpression function to
    /// constant UID values").
    pub uid_constants_reexpressed: usize,
    /// Implicit comparisons to a UID constant made explicit
    /// (`if (!getuid())` → `if (getuid() == 0)`).
    pub implicit_constants_made_explicit: usize,
    /// `uid_value` detection calls inserted to expose single UID uses
    /// ("16 changes to introduce the new system calls to expose single UID
    /// value usages").
    pub single_value_exposures: usize,
    /// UID comparisons rewritten to `cc_*` detection calls ("22 changes to
    /// expose conditional statements that compared UID values").
    pub comparison_exposures: usize,
    /// `cond_chk` detection calls inserted around UID-influenced
    /// conditionals ("20 changes to check conditional statements").
    pub conditional_checks: usize,
    /// Log/format sinks from which UID values were removed (the Apache error
    /// log workaround described in §4).
    pub log_sinks_sanitized: usize,
}

impl TransformStats {
    /// Total number of source changes across all categories.
    #[must_use]
    pub fn total(&self) -> usize {
        self.uid_constants_reexpressed
            + self.implicit_constants_made_explicit
            + self.single_value_exposures
            + self.comparison_exposures
            + self.conditional_checks
            + self.log_sinks_sanitized
    }

    /// Total over the four categories the paper's "73 changes" figure counts
    /// (constants, single-value exposures, comparison exposures, conditional
    /// checks).
    #[must_use]
    pub fn paper_change_total(&self) -> usize {
        self.uid_constants_reexpressed
            + self.single_value_exposures
            + self.comparison_exposures
            + self.conditional_checks
    }

    /// Renders the statistics as aligned report lines.
    #[must_use]
    pub fn report_lines(&self) -> Vec<String> {
        vec![
            format!(
                "UID constants re-expressed ............ {:>4}",
                self.uid_constants_reexpressed
            ),
            format!(
                "Implicit constants made explicit ...... {:>4}",
                self.implicit_constants_made_explicit
            ),
            format!(
                "Single UID value exposures (uid_value)  {:>4}",
                self.single_value_exposures
            ),
            format!(
                "UID comparison exposures (cc_*) ....... {:>4}",
                self.comparison_exposures
            ),
            format!(
                "Conditional checks (cond_chk) ......... {:>4}",
                self.conditional_checks
            ),
            format!(
                "Log sinks sanitized .................... {:>4}",
                self.log_sinks_sanitized
            ),
            format!(
                "Total changes .......................... {:>4}",
                self.total()
            ),
        ]
    }
}

impl Add for TransformStats {
    type Output = TransformStats;

    fn add(self, other: TransformStats) -> TransformStats {
        TransformStats {
            uid_constants_reexpressed: self.uid_constants_reexpressed
                + other.uid_constants_reexpressed,
            implicit_constants_made_explicit: self.implicit_constants_made_explicit
                + other.implicit_constants_made_explicit,
            single_value_exposures: self.single_value_exposures + other.single_value_exposures,
            comparison_exposures: self.comparison_exposures + other.comparison_exposures,
            conditional_checks: self.conditional_checks + other.conditional_checks,
            log_sinks_sanitized: self.log_sinks_sanitized + other.log_sinks_sanitized,
        }
    }
}

impl fmt::Display for TransformStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in self.report_lines() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let stats = TransformStats {
            uid_constants_reexpressed: 1,
            implicit_constants_made_explicit: 2,
            single_value_exposures: 3,
            comparison_exposures: 4,
            conditional_checks: 5,
            log_sinks_sanitized: 6,
        };
        assert_eq!(stats.total(), 21);
        assert_eq!(stats.paper_change_total(), 13);
        assert_eq!(TransformStats::default().total(), 0);
    }

    #[test]
    fn addition_sums_fields() {
        let a = TransformStats {
            uid_constants_reexpressed: 1,
            comparison_exposures: 2,
            ..TransformStats::default()
        };
        let b = TransformStats {
            uid_constants_reexpressed: 10,
            conditional_checks: 7,
            ..TransformStats::default()
        };
        let sum = a + b;
        assert_eq!(sum.uid_constants_reexpressed, 11);
        assert_eq!(sum.comparison_exposures, 2);
        assert_eq!(sum.conditional_checks, 7);
    }

    #[test]
    fn display_contains_every_category() {
        let text = TransformStats::default().to_string();
        assert!(text.contains("uid_value"));
        assert!(text.contains("cc_*"));
        assert!(text.contains("cond_chk"));
        assert!(text.contains("Total changes"));
        assert_eq!(TransformStats::default().report_lines().len(), 7);
    }
}
