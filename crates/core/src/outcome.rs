//! Unified outcomes and metrics across single-process and N-variant runs.

pub use nvariant_monitor::ExecutionMetrics;
use nvariant_monitor::{Alarm, NVariantOutcome};
use nvariant_vm::RunOutcome;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The outcome of running a deployed system to completion.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemOutcome {
    /// Exit status, if the program (or agreeing variant group) exited.
    pub exit_status: Option<i32>,
    /// The alarm that terminated an N-variant group, if any.
    pub alarm: Option<Alarm>,
    /// Human-readable description of a fault that terminated a
    /// single-process run, if any.
    pub fault: Option<String>,
    /// Execution counters.
    pub metrics: ExecutionMetrics,
}

impl SystemOutcome {
    /// Returns `true` if the monitor raised an alarm (N-variant deployments
    /// only; single-process deployments cannot detect attacks).
    #[must_use]
    pub fn detected_attack(&self) -> bool {
        self.alarm.is_some()
    }

    /// Returns `true` if the run ended with a normal, agreed exit.
    #[must_use]
    pub fn exited_normally(&self) -> bool {
        self.exit_status.is_some() && self.alarm.is_none() && self.fault.is_none()
    }

    /// Builds an outcome from a single-process run.
    #[must_use]
    pub fn from_single(outcome: &RunOutcome) -> Self {
        SystemOutcome {
            exit_status: outcome.exit_status,
            alarm: None,
            fault: outcome.fault.map(|f| f.to_string()),
            metrics: ExecutionMetrics {
                variants: 1,
                total_instructions: outcome.instructions,
                syscalls: outcome.syscalls,
                monitor_checks: 0,
                detection_calls: 0,
                io_bytes: outcome.io_bytes,
            },
        }
    }

    /// Builds an outcome from an N-variant monitored run.
    #[must_use]
    pub fn from_nvariant(outcome: &NVariantOutcome) -> Self {
        SystemOutcome {
            exit_status: outcome.exit_status,
            alarm: outcome.alarm.clone(),
            fault: None,
            metrics: outcome.metrics,
        }
    }
}

impl fmt::Display for SystemOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.alarm, &self.fault, self.exit_status) {
            (Some(alarm), _, _) => write!(f, "attack detected: {alarm}"),
            (None, Some(fault), _) => write!(f, "faulted: {fault}"),
            (None, None, Some(status)) => write!(f, "exited with status {status}"),
            (None, None, None) => write!(f, "did not terminate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_monitor::DivergenceKind;
    use nvariant_simos::Sysno;
    use nvariant_types::Word;

    #[test]
    fn single_process_conversion() {
        let run = RunOutcome {
            exit_status: Some(0),
            fault: None,
            instructions: 1234,
            syscalls: 7,
            io_bytes: 512,
        };
        let outcome = SystemOutcome::from_single(&run);
        assert!(outcome.exited_normally());
        assert!(!outcome.detected_attack());
        assert_eq!(outcome.metrics.variants, 1);
        assert_eq!(outcome.metrics.total_instructions, 1234);
        assert_eq!(outcome.metrics.io_bytes, 512);
        assert!(outcome.to_string().contains("status 0"));
    }

    #[test]
    fn faulted_single_process() {
        let run = RunOutcome {
            exit_status: None,
            fault: Some(nvariant_vm::Fault::StackOverflow),
            instructions: 10,
            syscalls: 0,
            io_bytes: 0,
        };
        let outcome = SystemOutcome::from_single(&run);
        assert!(!outcome.exited_normally());
        assert!(outcome.fault.as_deref().unwrap().contains("stack overflow"));
        assert!(outcome.to_string().contains("faulted"));
    }

    #[test]
    fn nvariant_conversion_carries_alarm_and_metrics() {
        let monitor_outcome = NVariantOutcome {
            exit_status: None,
            alarm: Some(Alarm::new(
                DivergenceKind::DetectionCheckFailed {
                    sysno: Sysno::UidValue,
                    canonical_values: vec![Word::ZERO, Word::from_u32(1)],
                },
                3,
            )),
            metrics: ExecutionMetrics {
                variants: 2,
                total_instructions: 999,
                monitor_checks: 12,
                detection_calls: 2,
                io_bytes: 100,
                ..ExecutionMetrics::default()
            },
        };
        let outcome = SystemOutcome::from_nvariant(&monitor_outcome);
        assert!(outcome.detected_attack());
        assert_eq!(outcome.metrics.variants, 2);
        assert_eq!(outcome.metrics.monitor_checks, 12);
        assert_eq!(outcome.metrics.io_bytes, 100);
        assert!(outcome.to_string().contains("attack detected"));
    }

    #[test]
    fn metrics_absorb_accumulates() {
        let mut total = ExecutionMetrics::default();
        let one = ExecutionMetrics {
            variants: 2,
            total_instructions: 10,
            syscalls: 2,
            monitor_checks: 3,
            detection_calls: 1,
            io_bytes: 64,
        };
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.variants, 2);
        assert_eq!(total.total_instructions, 20);
        assert_eq!(total.io_bytes, 128);
        assert!(total.to_string().contains("2 variants"));
    }
}
