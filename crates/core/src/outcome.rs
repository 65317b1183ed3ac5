//! Unified outcomes and metrics across single-process and N-variant runs.

pub use nvariant_monitor::ExecutionMetrics;
use nvariant_monitor::{Alarm, NVariantOutcome};
use std::fmt;

/// The outcome of running a deployed system to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemOutcome {
    /// Exit status, if the program (or agreeing variant group) exited.
    pub exit_status: Option<i32>,
    /// The alarm that terminated an N-variant group, if any.
    pub alarm: Option<Alarm>,
    /// Human-readable description of the fault that terminated a
    /// single-process run (a group of one), if any.
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

    /// Builds an outcome from a monitored run: an N-variant group or a
    /// single process running as a group of one.
    #[must_use]
    pub fn from_nvariant(outcome: &NVariantOutcome) -> Self {
        SystemOutcome {
            exit_status: outcome.exit_status,
            alarm: outcome.alarm.clone(),
            fault: outcome.fault.map(|f| f.to_string()),
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
    use nvariant_vm::Fault;

    /// The outcome of a group of one that ran to `exit_status` or `fault`.
    fn single_process(exit_status: Option<i32>, fault: Option<Fault>) -> NVariantOutcome {
        NVariantOutcome {
            exit_status,
            alarm: None,
            fault,
            metrics: ExecutionMetrics {
                variants: 1,
                total_instructions: 1234,
                syscalls: 7,
                io_bytes: 512,
                ..ExecutionMetrics::default()
            },
        }
    }

    #[test]
    fn single_process_conversion() {
        let outcome = SystemOutcome::from_nvariant(&single_process(Some(0), None));
        assert!(outcome.exited_normally());
        assert!(!outcome.detected_attack());
        assert_eq!(outcome.fault, None);
        assert_eq!(outcome.metrics.variants, 1);
        assert_eq!(outcome.metrics.total_instructions, 1234);
        assert_eq!(outcome.metrics.io_bytes, 512);
        assert!(outcome.to_string().contains("status 0"));
    }

    #[test]
    fn faulted_single_process() {
        let run = single_process(None, Some(Fault::StackOverflow));
        assert!(!run.exited_normally());
        let outcome = SystemOutcome::from_nvariant(&run);
        assert!(!outcome.exited_normally());
        assert!(!outcome.detected_attack());
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
            fault: None,
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
        assert_eq!(outcome.fault, None);
        assert_eq!(outcome.metrics.variants, 2);
        assert_eq!(outcome.metrics.monitor_checks, 12);
        assert_eq!(outcome.metrics.io_bytes, 100);
        assert!(outcome.to_string().contains("attack detected"));

        // A group of one carries its fault, and no alarm, across.
        let faulted = SystemOutcome::from_nvariant(&NVariantOutcome {
            exit_status: None,
            alarm: None,
            fault: Some(Fault::StepLimitExceeded),
            metrics: monitor_outcome.metrics,
        });
        assert!(!faulted.detected_attack());
        assert!(!faulted.exited_normally());
        assert_eq!(
            faulted.fault,
            Some(Fault::StepLimitExceeded.to_string()),
            "{faulted}"
        );
        assert_eq!(faulted.metrics, monitor_outcome.metrics);
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
