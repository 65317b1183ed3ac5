//! The bounded explorer: exhaustive DFS over attacker moves and receive
//! schedules at syscall granularity, with visited-state pruning over the
//! monitor's canonical state digest, plus deterministic replay and greedy
//! counterexample minimization.
//!
//! The explorer clones a monitor only where the tree branches. The DFS owns
//! each state's monitor, and every attacker option but the last runs on a
//! clone of it while the last takes it. The option's move is applied, then
//! [`NVariantMonitor::advance`] runs the step's variants once, to the call
//! they trap on. A receive cap only changes how the kernel serves `recv`,
//! so the capped sibling is stepped only where that call is `recv`: the
//! uncapped child then serves a clone of the advanced monitor and the
//! capped one takes it. Anywhere else the single, uncapped child takes it.
//! A depth-48 sweep of the paper matrix visits 1,684 states and clones 372
//! monitors.

use crate::check::{
    AttackerModel, CheckReport, CheckRequest, CheckStatus, CheckTarget, Checker, ExploreStats,
    MAX_STATES, RECV_CHUNKS,
};
use crate::property::Property;
use crate::trace::{Action, Counterexample, TraceStep};
use nvariant_monitor::{NVariantMonitor, StepEvent};
use nvariant_simos::Sysno;
use nvariant_types::{Fnv1a, VariantId, Word};
use std::collections::HashMap;

/// Deploys the target into its world and stages the benign workload,
/// returning the monitor at its initial synchronization state. Every call
/// returns an identical monitor — the root of the explored tree and the
/// anchor of deterministic replay.
fn instantiate(target: &CheckTarget) -> NVariantMonitor {
    let provisioned = target.system.provision_world(target.world.kernel());
    let mut monitor = target.system.instantiate_monitor_in(&provisioned);
    for request in &target.requests {
        monitor
            .kernel_mut()
            .net_mut()
            .preload_request(target.port, request.clone());
    }
    monitor
}

/// Applies the target's attacker move to the monitor's variant memories.
fn apply_attack(monitor: &mut NVariantMonitor, attacker: &AttackerModel) {
    let write = |monitor: &mut NVariantMonitor, index: usize, addr, value: u32| {
        let process = monitor.variant_process_mut(VariantId::new(index));
        if let Err(fault) = process.write_word(addr, Word::from_u32(value)) {
            // An absolute write into an unmapped partition faults that
            // variant, exactly as a wild pointer store would.
            process.set_faulted(fault);
        }
    };
    match attacker {
        AttackerModel::Passive => {}
        AttackerModel::CorruptReplicated { global, value } => {
            for index in 0..monitor.variant_count() {
                let addr = monitor
                    .variant_process(VariantId::new(index))
                    .global_addr(global);
                if let Some(addr) = addr {
                    write(monitor, index, addr, *value);
                }
            }
        }
        AttackerModel::CorruptAbsolute { global, value } => {
            let addr = monitor
                .variant_process(VariantId::new(0))
                .global_addr(global);
            if let Some(addr) = addr {
                for index in 0..monitor.variant_count() {
                    write(monitor, index, addr, *value);
                }
            }
        }
    }
}

/// Executes one annotated step against `monitor`, returning the event.
fn apply_step(monitor: &mut NVariantMonitor, target: &CheckTarget, action: Action) -> StepEvent {
    if action.corrupt {
        apply_attack(monitor, &target.attacker);
    }
    step_with_cap(monitor, action.recv_cap)
}

/// Completes the monitor's next synchronization point with the kernel's
/// receive chunks capped at `recv_cap`.
fn step_with_cap(monitor: &mut NVariantMonitor, recv_cap: Option<usize>) -> StepEvent {
    monitor.kernel_mut().net_mut().set_recv_cap(recv_cap);
    let event = monitor.step();
    // The cap is a per-step schedule choice; clearing it keeps the state
    // digest independent of how the state was reached.
    monitor.kernel_mut().net_mut().set_recv_cap(None);
    event
}

fn is_credential_call(sysno: Sysno) -> bool {
    matches!(
        sysno,
        Sysno::SetUid | Sysno::SetEuid | Sysno::SetGid | Sysno::SetReUid
    )
}

/// Checks whether the step that just executed violates `property`.
/// `corrupted` reflects attacker moves up to and including this step.
fn violation(
    property: Property,
    corrupted: bool,
    event: &StepEvent,
    monitor: &NVariantMonitor,
) -> Option<String> {
    match property {
        // Every alarm ends the group, so only a terminal step carries one
        // and a step that keeps the group running raised none.
        Property::BenignLockstep => {
            let StepEvent::Done(outcome) = event else {
                return None;
            };
            let alarm = outcome.alarm.as_ref()?;
            Some(format!("alarm on benign trace: {:?}", alarm.kind))
        }
        Property::UidIntegrity => {
            let StepEvent::Progress(obs) = event else {
                return None;
            };
            // The corrupted value actually reached the call: the variants'
            // canonicalized arguments disagreed, yet the call executed
            // without an alarm.
            if corrupted && is_credential_call(obs.sysno) && obs.divergent_args {
                return Some(format!(
                    "credential call {:?} executed with corrupted uid and no alarm",
                    obs.sysno
                ));
            }
            None
        }
        Property::AlarmBeforeOutput => {
            let StepEvent::Progress(obs) = event else {
                return None;
            };
            let sent_output = obs.sysno == Sysno::Send && obs.output_delta > 0;
            let privileged = monitor
                .kernel()
                .credentials(monitor.group_pid())
                .is_ok_and(|cred| cred.euid().is_root());
            if corrupted && sent_output && privileged {
                return Some(format!(
                    "{} bytes of network output left a corrupted, still-privileged \
                     group with no alarm",
                    obs.output_delta
                ));
            }
            None
        }
    }
}

/// The bounded model checker: exhaustive DFS over every interleaving of
/// attacker moves and receive schedules up to the request's depth bound.
pub struct BoundedChecker;

struct Explorer<'a> {
    target: &'a CheckTarget,
    request: &'a CheckRequest,
    stats: ExploreStats,
    /// Canonical state digest → most remaining depth it was explored with.
    visited: HashMap<u64, usize>,
    /// The actions from the root to the state being explored. The DFS is
    /// recursive, so a violating trace is this path, copied once when the
    /// violation is found.
    path: Vec<Action>,
}

impl Explorer<'_> {
    fn visit_key(monitor: &NVariantMonitor, corrupted: bool) -> u64 {
        let mut digest = Fnv1a::new();
        digest.write_u64(monitor.state_digest());
        digest.write_u8(u8::from(corrupted));
        digest.finish()
    }

    /// DFS from `monitor` (reached via `self.path`), returning the first
    /// violating trace in deterministic branch order: the step without the
    /// attacker's move before the step with it, and for each the uncapped
    /// schedule before the capped one.
    fn dfs(&mut self, monitor: NVariantMonitor, corrupted: bool) -> Option<(Vec<Action>, String)> {
        if self.path.len() >= self.request.depth {
            return None;
        }
        let try_corrupt =
            self.request.property.uses_attacker() && self.target.attacker.is_active() && !corrupted;
        if try_corrupt {
            if let Some(found) = self.expand(monitor.clone(), false, corrupted) {
                return Some(found);
            }
            return self.expand(monitor, true, corrupted);
        }
        self.expand(monitor, false, corrupted)
    }

    /// Steps every child of one attacker option from `monitor`, the state
    /// at the end of `self.path`.
    ///
    /// Which syscall a step reaches is fixed before the kernel sees the
    /// receive cap, so where the step does not reach `recv` its capped
    /// siblings would duplicate it: they are skipped, unstepped and
    /// uncounted. The truncation checks come first at every cap index, so
    /// every count is what stepping and discarding them gave.
    fn expand(
        &mut self,
        mut monitor: NVariantMonitor,
        corrupt: bool,
        corrupted: bool,
    ) -> Option<(Vec<Action>, String)> {
        if corrupt {
            apply_attack(&mut monitor, &self.target.attacker);
        }
        let last_cap_index = if monitor.advance() == Some(Sysno::Recv) {
            RECV_CHUNKS.len()
        } else {
            0
        };
        let mut advanced = Some(monitor);
        // The uncapped schedule first, then each configured chunk cap.
        for cap_index in 0..=RECV_CHUNKS.len() {
            if self.stats.truncated {
                return None;
            }
            if self.stats.states_visited >= MAX_STATES {
                self.stats.truncated = true;
                return None;
            }
            if cap_index > last_cap_index {
                continue;
            }
            let recv_cap = cap_index.checked_sub(1).map(|i| RECV_CHUNKS[i]);
            let action = Action { corrupt, recv_cap };
            // The last child stepped takes the advanced monitor.
            let mut child = if cap_index == last_cap_index {
                advanced.take()
            } else {
                advanced.clone()
            }
            .expect("only the last child takes the advanced monitor");
            let event = step_with_cap(&mut child, recv_cap);
            self.stats.states_visited += 1;
            self.path.push(action);
            let found = self.explore_child(child, &event, corrupted || corrupt);
            self.path.pop();
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Checks the state `child` reached at the end of `self.path`, then
    /// explores it unless it is terminal or already explored as deep.
    fn explore_child(
        &mut self,
        child: NVariantMonitor,
        event: &StepEvent,
        corrupted: bool,
    ) -> Option<(Vec<Action>, String)> {
        let depth_here = self.path.len();
        self.stats.deepest = self.stats.deepest.max(depth_here);
        if let Some(why) = violation(self.request.property, corrupted, event, &child) {
            return Some((self.path.clone(), why));
        }
        if matches!(event, StepEvent::Done(_)) {
            self.stats.terminal_runs += 1;
            return None;
        }
        let remaining = self.request.depth - depth_here;
        let key = Self::visit_key(&child, corrupted);
        if self
            .visited
            .get(&key)
            .is_some_and(|&seen| seen >= remaining)
        {
            self.stats.states_pruned += 1;
            return None;
        }
        self.visited.insert(key, remaining);
        self.dfs(child, corrupted)
    }
}

/// The outcome of replaying an annotated trace from the target's initial
/// state: the rendered steps and the violation, if one occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replay {
    /// One rendered step per executed action (replay stops at the violating
    /// step or at group termination, whichever comes first).
    pub steps: Vec<TraceStep>,
    /// The violation message, when the trace still violates the property.
    pub violation: Option<String>,
}

/// Deterministically replays `actions` against a fresh instantiation of
/// `target`, checking `property` after every step. Identical inputs produce
/// identical replays — this is what makes counterexamples reproducible.
#[must_use]
pub fn replay(target: &CheckTarget, property: Property, actions: &[Action]) -> Replay {
    let mut monitor = instantiate(target);
    let mut corrupted = false;
    let mut steps = Vec::new();
    for (index, action) in actions.iter().enumerate() {
        let event = apply_step(&mut monitor, target, *action);
        corrupted = corrupted || action.corrupt;
        steps.push(TraceStep {
            index,
            action: *action,
            sysno: monitor
                .last_sysno()
                .map_or_else(|| "-".to_string(), |s| format!("{s:?}")),
            // Replay stops at the first terminal step, the only one that
            // can carry an alarm.
            alarms: match &event {
                StepEvent::Done(outcome) => usize::from(outcome.alarm.is_some()),
                StepEvent::Progress(_) => 0,
            },
        });
        if let Some(why) = violation(property, corrupted, &event, &monitor) {
            return Replay {
                steps,
                violation: Some(why),
            };
        }
        if matches!(event, StepEvent::Done(_)) {
            break;
        }
    }
    Replay {
        steps,
        violation: None,
    }
}

/// Greedily shrinks a violating trace: every non-default annotation is reset
/// to the default step (no move, no cap) if the trace still violates without
/// it, and the tail beyond the violating step is dropped. The result is
/// 1-minimal with respect to annotation resets.
#[must_use]
pub fn minimize(
    target: &CheckTarget,
    property: Property,
    actions: &[Action],
) -> (Vec<Action>, Replay) {
    let mut best = actions.to_vec();
    let mut best_replay = replay(target, property, &best);
    assert!(
        best_replay.violation.is_some(),
        "minimize requires a violating trace"
    );
    best.truncate(best_replay.steps.len());
    let mut changed = true;
    while changed {
        changed = false;
        for index in 0..best.len() {
            if best[index].is_default() {
                continue;
            }
            // Try dropping the whole annotation, then each component alone.
            let mut candidates = vec![Action::default()];
            if best[index].corrupt && best[index].recv_cap.is_some() {
                candidates.push(Action {
                    corrupt: best[index].corrupt,
                    recv_cap: None,
                });
                candidates.push(Action {
                    corrupt: false,
                    recv_cap: best[index].recv_cap,
                });
            }
            for candidate in candidates {
                let mut attempt = best.clone();
                attempt[index] = candidate;
                let attempt_replay = replay(target, property, &attempt);
                if attempt_replay.violation.is_some() {
                    attempt.truncate(attempt_replay.steps.len());
                    best = attempt;
                    best_replay = attempt_replay;
                    changed = true;
                    break;
                }
            }
        }
    }
    (best, best_replay)
}

impl Checker for BoundedChecker {
    fn check(&self, target: &CheckTarget, request: &CheckRequest) -> CheckReport {
        let mut explorer = Explorer {
            target,
            request,
            stats: ExploreStats::default(),
            visited: HashMap::new(),
            // Grown as the DFS deepens: the depth bound may be far beyond
            // where every trace terminates.
            path: Vec::new(),
        };
        let found = explorer.dfs(instantiate(target), false);
        let stats = explorer.stats;
        let (status, counterexample) = match found {
            None => (CheckStatus::Pass, None),
            Some((actions, _)) => {
                let (_, min_replay) = minimize(target, request.property, &actions);
                let counterexample = Counterexample {
                    property: request.property,
                    config_label: target.config_label.clone(),
                    world_label: target.world.name().to_string(),
                    steps: min_replay.steps,
                    violation: min_replay
                        .violation
                        .expect("minimized trace still violates"),
                };
                (CheckStatus::Fail, Some(counterexample))
            }
        };
        CheckReport {
            property: request.property,
            status,
            config_label: target.config_label.clone(),
            world_label: target.world.name().to_string(),
            depth: request.depth,
            stats,
            counterexample,
        }
    }
}
