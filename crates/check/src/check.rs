//! The checker interface: what to check ([`CheckTarget`]), how hard
//! ([`CheckRequest`]), and what came back ([`CheckReport`]).

use crate::property::Property;
use crate::trace::Counterexample;
use nvariant::CompiledSystem;
use nvariant_simos::WorldTemplate;
use nvariant_types::Port;
use std::fmt;
use std::sync::Arc;

/// The attacker move the explorer may inject before any synchronization
/// point (at most once per trace). Each model corresponds to one memory
/// corruption class of the paper's evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackerModel {
    /// No attacker: the only branching is over schedules. Properties that
    /// quantify over attacker moves pass vacuously.
    Passive,
    /// The relative-overflow class: the same concrete value is written into
    /// each variant's *own* copy of `global` (a replicated relative write
    /// lands at the same logical object everywhere). UID reexpression makes
    /// the copies canonically divergent.
    CorruptReplicated {
        /// The corrupted global variable.
        global: String,
        /// The concrete value written.
        value: u32,
    },
    /// The absolute-write class: `value` is written at variant 0's concrete
    /// address of `global` in *every* variant. Address partitioning makes
    /// that address unmapped in the other variants.
    CorruptAbsolute {
        /// The global whose variant-0 address the attacker aims at.
        global: String,
        /// The concrete value written.
        value: u32,
    },
}

impl AttackerModel {
    /// Returns `true` if this model has a move to inject.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !matches!(self, AttackerModel::Passive)
    }
}

/// An instantiated system to check: a compiled artifact, the world to deploy
/// it into, and the benign workload staged on its port.
#[derive(Clone)]
pub struct CheckTarget {
    /// The compiled artifact.
    pub system: Arc<CompiledSystem>,
    /// The world template the system is deployed into.
    pub world: WorldTemplate,
    /// Label identifying the configuration in reports.
    pub config_label: String,
    /// Benign requests preloaded on `port` before exploration starts.
    pub requests: Vec<Vec<u8>>,
    /// The port the workload arrives on.
    pub port: Port,
    /// The attacker move available to the explorer.
    pub attacker: AttackerModel,
}

/// Receive caps the schedule enumerator applies at `recv` steps, after the
/// uncapped delivery: the kernel's freedom to deliver network input in
/// chunks.
pub(crate) const RECV_CHUNKS: [usize; 1] = [4];

/// Hard cap on visited states; exploration stops (and the report is marked
/// truncated) when it is hit.
pub(crate) const MAX_STATES: u64 = 200_000;

/// What one check run checks, and how deep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckRequest {
    /// The property to check.
    pub property: Property,
    /// Maximum synchronization points per explored trace.
    pub depth: usize,
}

impl CheckRequest {
    /// A request for `property` at `depth`.
    #[must_use]
    pub fn new(property: Property, depth: usize) -> Self {
        CheckRequest { property, depth }
    }
}

/// Counters describing how much of the bounded state space one check run
/// explored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct steps executed (tree nodes expanded).
    pub states_visited: u64,
    /// Branches cut because a canonically identical state had already been
    /// explored with at least as much remaining depth.
    pub states_pruned: u64,
    /// Traces that ran to group termination within the bound.
    pub terminal_runs: u64,
    /// Deepest synchronization point reached.
    pub deepest: usize,
    /// `true` if the state bound (200,000) stopped exploration before the
    /// bounded space was exhausted (a Pass is then only a bounded pass).
    pub truncated: bool,
}

/// Verdict of one check run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckStatus {
    /// No violating trace exists within the bound.
    Pass,
    /// A violating trace was found (see the counterexample).
    Fail,
}

impl fmt::Display for CheckStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckStatus::Pass => write!(f, "pass"),
            CheckStatus::Fail => write!(f, "FAIL"),
        }
    }
}

/// The result of checking one property against one target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// The property checked.
    pub property: Property,
    /// Pass or fail.
    pub status: CheckStatus,
    /// Configuration label of the target.
    pub config_label: String,
    /// World the target was deployed into.
    pub world_label: String,
    /// The depth bound the exploration ran at.
    pub depth: usize,
    /// Exploration counters.
    pub stats: ExploreStats,
    /// The minimized counterexample, when the check failed.
    pub counterexample: Option<Counterexample>,
}

impl CheckReport {
    /// One-line summary for logs and CLI output.
    #[must_use]
    pub fn summary_line(&self) -> String {
        format!(
            "{} {} config={:?} world={:?} depth={} states={} pruned={} terminal={}{}",
            self.property.key(),
            self.status,
            self.config_label,
            self.world_label,
            self.depth,
            self.stats.states_visited,
            self.stats.states_pruned,
            self.stats.terminal_runs,
            if self.stats.truncated {
                " (truncated)"
            } else {
                ""
            }
        )
    }
}

/// Something that can check a property against a target. The bounded
/// explorer ([`BoundedChecker`](crate::explore::BoundedChecker)) is the one
/// implementation here; the trait exists so reports and callers do not care
/// how the verdict was obtained.
pub trait Checker {
    /// Checks `request` against `target`.
    fn check(&self, target: &CheckTarget, request: &CheckRequest) -> CheckReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_attacker_is_inactive() {
        assert!(!AttackerModel::Passive.is_active());
        assert!(AttackerModel::CorruptReplicated {
            global: "server_uid".to_string(),
            value: 0
        }
        .is_active());
    }
}
