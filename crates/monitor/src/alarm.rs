//! Alarms: how the monitor reports detected divergence.

use nvariant_simos::Sysno;
use nvariant_types::{VariantId, Word};
use nvariant_vm::Fault;
use std::fmt;

/// The specific way in which the variants diverged.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DivergenceKind {
    /// The variants issued different system calls at the same
    /// synchronization point.
    SyscallMismatch {
        /// The call each variant attempted (`None` if that variant exited).
        calls: Vec<Option<Sysno>>,
    },
    /// The variants issued the same call but with arguments whose canonical
    /// meanings differ.
    ArgumentMismatch {
        /// The system call in question.
        sysno: Sysno,
        /// Which argument position diverged.
        arg_index: usize,
        /// The canonicalized value each variant supplied.
        canonical_values: Vec<Word>,
    },
    /// Output system calls attempted to emit different bytes.
    OutputMismatch {
        /// The system call in question.
        sysno: Sysno,
    },
    /// A `uid_value`, `cc_*` or `cond_chk` detection call observed
    /// non-equivalent values.
    DetectionCheckFailed {
        /// The detection call.
        sysno: Sysno,
        /// The canonicalized value each variant supplied (first argument).
        canonical_values: Vec<Word>,
    },
    /// One or more variants faulted while the group was still running.
    VariantFault {
        /// Which variant faulted.
        variant: VariantId,
        /// The fault it suffered.
        fault: Fault,
    },
    /// The variants exited with different statuses.
    ExitMismatch {
        /// The status each variant exited with (`None` if it had not exited).
        statuses: Vec<Option<i32>>,
    },
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceKind::SyscallMismatch { calls } => {
                write!(f, "variants issued different system calls: {calls:?}")
            }
            DivergenceKind::ArgumentMismatch {
                sysno,
                arg_index,
                canonical_values,
            } => write!(
                f,
                "argument {arg_index} of {sysno} has divergent canonical values: {canonical_values:?}"
            ),
            DivergenceKind::OutputMismatch { sysno } => {
                write!(f, "variants attempted to emit different output via {sysno}")
            }
            DivergenceKind::DetectionCheckFailed {
                sysno,
                canonical_values,
            } => write!(
                f,
                "detection call {sysno} observed divergent values: {canonical_values:?}"
            ),
            DivergenceKind::VariantFault { variant, fault } => {
                write!(f, "{variant} faulted: {fault}")
            }
            DivergenceKind::ExitMismatch { statuses } => {
                write!(f, "variants exited with different statuses: {statuses:?}")
            }
        }
    }
}

/// An alarm raised by the monitor: the divergence plus where it happened.
///
/// # Example
///
/// ```
/// use nvariant_monitor::{Alarm, DivergenceKind};
/// use nvariant_simos::Sysno;
/// use nvariant_types::Word;
///
/// let alarm = Alarm::new(
///     DivergenceKind::DetectionCheckFailed {
///         sysno: Sysno::UidValue,
///         canonical_values: vec![Word::from_u32(0), Word::from_u32(0x7FFF_FFFF)],
///     },
///     12,
/// );
/// assert!(alarm.to_string().contains("uid_value"));
/// assert_eq!(alarm.syscall_index, 12);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alarm {
    /// What diverged.
    pub kind: DivergenceKind,
    /// The index of the synchronization point (system call number within the
    /// run) at which the divergence was detected.
    pub syscall_index: u64,
}

impl Alarm {
    /// Creates an alarm.
    #[must_use]
    pub fn new(kind: DivergenceKind, syscall_index: u64) -> Self {
        Alarm {
            kind,
            syscall_index,
        }
    }
}

impl fmt::Display for Alarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ALARM at synchronization point {}: {}",
            self.syscall_index, self.kind
        )
    }
}

impl std::error::Error for Alarm {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let alarm = Alarm::new(
            DivergenceKind::ArgumentMismatch {
                sysno: Sysno::SetEuid,
                arg_index: 0,
                canonical_values: vec![Word::from_u32(0), Word::from_u32(48)],
            },
            7,
        );
        let text = alarm.to_string();
        assert!(text.contains("seteuid"));
        assert!(text.contains("point 7"));
        assert!(!text.contains("detection call"));
    }

    #[test]
    fn detection_call_classification() {
        let alarm = Alarm::new(
            DivergenceKind::DetectionCheckFailed {
                sysno: Sysno::CcEq,
                canonical_values: vec![],
            },
            0,
        );
        assert!(alarm.to_string().contains("detection call cc_eq"));
    }

    #[test]
    fn all_kinds_render() {
        let kinds = vec![
            DivergenceKind::SyscallMismatch {
                calls: vec![Some(Sysno::Read), Some(Sysno::Write)],
            },
            DivergenceKind::OutputMismatch { sysno: Sysno::Send },
            DivergenceKind::VariantFault {
                variant: VariantId::P1,
                fault: Fault::StackOverflow,
            },
            DivergenceKind::ExitMismatch {
                statuses: vec![Some(0), None],
            },
        ];
        for kind in kinds {
            assert!(!kind.to_string().is_empty());
        }
    }
}
