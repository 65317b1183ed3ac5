//! Counterexample traces: the per-step actions the explorer chose, the
//! syscalls they produced, and a deterministic text rendering.

use crate::property::Property;
use std::fmt::Write as _;

/// The annotations the explorer attaches to one synchronization step: an
/// optional attacker move before the step, and an optional receive cap
/// (schedule choice) for the step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Action {
    /// Apply the target's attacker move before this step (at most one move
    /// per trace — the one-shot corruption model).
    pub corrupt: bool,
    /// Cap the bytes a `recv` at this step may deliver (the scheduling
    /// freedom the kernel has in delivering network input).
    pub recv_cap: Option<usize>,
}

impl Action {
    /// Returns `true` for the default annotation (no move, no cap) — the
    /// step the benign deterministic schedule would take.
    #[must_use]
    pub fn is_default(self) -> bool {
        self == Action::default()
    }
}

/// One rendered step of a counterexample trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// Step index (0-based synchronization point).
    pub index: usize,
    /// The explorer's annotation for this step.
    pub action: Action,
    /// The syscall processed at this step (`Debug` form), `"-"` when the
    /// step terminated before reaching one.
    pub sysno: String,
    /// Alarms raised during this step.
    pub alarms: usize,
}

/// A minimal counterexample: the shortest annotated schedule prefix the
/// minimizer could not shrink further that still violates the property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The violated property.
    pub property: Property,
    /// Configuration label of the checked system.
    pub config_label: String,
    /// World template name the system was deployed into.
    pub world_label: String,
    /// The annotated steps, in execution order, up to the violating step.
    pub steps: Vec<TraceStep>,
    /// What went wrong at the final step.
    pub violation: String,
}

impl Counterexample {
    /// Renders the trace as deterministic, line-oriented text: one header,
    /// one line per step, one violation line. Two identical counterexamples
    /// render byte-identically.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "counterexample {} config={:?} world={:?} steps={}",
            self.property.key(),
            self.config_label,
            self.world_label,
            self.steps.len()
        );
        for step in &self.steps {
            let corrupt = if step.action.corrupt { "corrupt" } else { "-" };
            let cap = step
                .action
                .recv_cap
                .map_or_else(|| "-".to_string(), |c| c.to_string());
            let _ = writeln!(
                out,
                "step {} move={} recv_cap={} syscall={} alarms={}",
                step.index, corrupt, cap, step.sysno, step.alarms
            );
        }
        let _ = writeln!(out, "violation {}", self.violation);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counterexample {
        Counterexample {
            property: Property::UidIntegrity,
            config_label: "2-Variant UID".to_string(),
            world_label: "standard".to_string(),
            steps: vec![
                TraceStep {
                    index: 0,
                    action: Action::default(),
                    sysno: "Socket".to_string(),
                    alarms: 0,
                },
                TraceStep {
                    index: 1,
                    action: Action {
                        corrupt: true,
                        recv_cap: Some(4),
                    },
                    sysno: "SetEuid".to_string(),
                    alarms: 0,
                },
            ],
            violation: "credential call executed with corrupted uid and no alarm".to_string(),
        }
    }

    #[test]
    fn rendering_is_deterministic_and_line_oriented() {
        let c = sample();
        assert_eq!(c.render(), c.render());
        let text = c.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("counterexample P1 "));
        assert_eq!(lines[1], "step 0 move=- recv_cap=- syscall=Socket alarms=0");
        assert_eq!(
            lines[2],
            "step 1 move=corrupt recv_cap=4 syscall=SetEuid alarms=0"
        );
        assert!(lines[3].starts_with("violation "));
    }

    #[test]
    fn default_action_is_recognized() {
        assert!(Action::default().is_default());
        assert!(!Action {
            corrupt: true,
            recv_cap: None
        }
        .is_default());
        assert!(!Action {
            corrupt: false,
            recv_cap: Some(1)
        }
        .is_default());
    }
}
