//! Bounded model checking for N-variant detection properties.
//!
//! The campaign engine measures what a deployed N-variant system *did* on
//! concrete runs; this crate asks what it *could* do. A
//! [`CheckTarget`] names a compiled artifact, a world, and a benign
//! workload; the [`BoundedChecker`] then exhaustively explores every
//! interleaving of
//!
//! * **attacker moves** — a one-shot memory corruption from the target's
//!   [`AttackerModel`], injectable before any synchronization point, and
//! * **receive schedules** — the kernel's freedom to deliver network input
//!   in chunks (uncapped, and capped at 4 bytes per `recv`),
//!
//! up to a depth bound, checking one of three [`Property`]s after every
//! step:
//!
//! * **P1 (UID integrity)** — no corrupted UID reaches a
//!   credential-changing syscall without an alarm;
//! * **P2 (benign lockstep)** — variants never diverge on benign traces;
//! * **P3 (alarm before output)** — an alarm precedes any privileged
//!   network output after corruption.
//!
//! States are pruned through the monitor's canonical
//! [`state_digest`](nvariant_monitor::NVariantMonitor::state_digest), so
//! schedules that converge to the same semantic state are explored once.
//! A violation is reported as a minimal [`Counterexample`]: the explorer's
//! trace is greedily shrunk ([`minimize`]) until no annotation can be
//! dropped, then rendered as deterministic, byte-stable text. Every
//! counterexample is replayable ([`replay`]) from the target's initial
//! state.
//!
//! # Example
//!
//! ```
//! use nvariant::{DeploymentConfig, NVariantSystemBuilder};
//! use nvariant_check::{
//!     AttackerModel, BoundedChecker, CheckRequest, CheckStatus, CheckTarget, Checker, Property,
//! };
//! use nvariant_simos::WorldTemplate;
//! use nvariant_types::{Port, Uid};
//! use std::sync::Arc;
//!
//! let system = NVariantSystemBuilder::from_source(
//!     "fn main() -> int { var u: uid_t; u = getuid(); return setuid(u); }",
//! )?
//! .config(DeploymentConfig::TwoVariantUid)
//! .initial_uid(Uid::ROOT)
//! .compile()?;
//! let target = CheckTarget {
//!     system: Arc::new(system),
//!     world: WorldTemplate::standard(),
//!     config_label: "2-Variant UID".to_string(),
//!     requests: Vec::new(),
//!     port: Port::HTTP,
//!     attacker: AttackerModel::Passive,
//! };
//! let report = BoundedChecker.check(&target, &CheckRequest::new(Property::BenignLockstep, 16));
//! assert_eq!(report.status, CheckStatus::Pass);
//! assert!(report.stats.states_visited > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod explore;
pub mod property;
pub mod trace;

pub use check::{
    AttackerModel, CheckReport, CheckRequest, CheckStatus, CheckTarget, Checker, ExploreStats,
};
pub use explore::{minimize, replay, BoundedChecker, Replay};
pub use property::Property;
pub use trace::{Action, Counterexample, TraceStep};

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant::{CompiledSystem, DeploymentConfig, NVariantSystemBuilder};
    use nvariant_monitor::MonitorConfig;
    use nvariant_simos::WorldTemplate;
    use nvariant_types::{Port, Uid};
    use std::sync::Arc;

    /// A miniature of the case-study server: cache the service UID in a
    /// global, then per request drop privileges, echo, and re-escalate.
    /// Corrupting `server_uid` to 0 makes the privilege drop a no-op.
    const ECHO_SERVER: &str = r"
        var server_uid: uid_t;
        fn main() -> int {
            var fd: int;
            var conn: int;
            var n: int;
            var req: buf[64];
            server_uid = 48;
            fd = socket();
            bind(fd, 80);
            listen(fd);
            conn = accept(fd);
            while (conn >= 0) {
                n = recv(conn, &req, 60);
                seteuid(server_uid);
                send(conn, &req, n);
                close(conn);
                seteuid(0);
                conn = accept(fd);
            }
            return 0;
        }
    ";

    fn compiled(config: DeploymentConfig, weakened: bool) -> Arc<CompiledSystem> {
        let mut builder = NVariantSystemBuilder::from_source(ECHO_SERVER)
            .expect("echo server parses")
            .config(config)
            .initial_uid(Uid::ROOT);
        if weakened {
            builder = builder.monitor_config(MonitorConfig::default().without_detection_checks());
        }
        Arc::new(builder.compile().expect("echo server compiles"))
    }

    fn target(config: DeploymentConfig, weakened: bool, attacker: AttackerModel) -> CheckTarget {
        let label = config.label();
        CheckTarget {
            system: compiled(config, weakened),
            world: WorldTemplate::standard(),
            config_label: label,
            requests: vec![b"hello".to_vec()],
            port: Port::HTTP,
            attacker,
        }
    }

    fn uid_attacker() -> AttackerModel {
        AttackerModel::CorruptReplicated {
            global: "server_uid".to_string(),
            value: 0,
        }
    }

    const DEPTH: usize = 40;

    #[test]
    fn benign_lockstep_holds_for_the_uid_variation() {
        let target = target(
            DeploymentConfig::TwoVariantUid,
            false,
            AttackerModel::Passive,
        );
        let report =
            BoundedChecker.check(&target, &CheckRequest::new(Property::BenignLockstep, DEPTH));
        assert_eq!(
            report.status,
            CheckStatus::Pass,
            "{}",
            report.summary_line()
        );
        assert!(report.stats.terminal_runs > 0, "{}", report.summary_line());
        assert!(!report.stats.truncated);
    }

    #[test]
    fn uid_integrity_holds_with_detection_enabled() {
        let target = target(DeploymentConfig::TwoVariantUid, false, uid_attacker());
        let report =
            BoundedChecker.check(&target, &CheckRequest::new(Property::UidIntegrity, DEPTH));
        assert_eq!(
            report.status,
            CheckStatus::Pass,
            "{}",
            report.summary_line()
        );
        assert!(report.stats.states_visited > 0);
    }

    #[test]
    fn weakened_monitor_produces_a_uid_integrity_counterexample() {
        let target = target(DeploymentConfig::TwoVariantUid, true, uid_attacker());
        let report =
            BoundedChecker.check(&target, &CheckRequest::new(Property::UidIntegrity, DEPTH));
        assert_eq!(
            report.status,
            CheckStatus::Fail,
            "{}",
            report.summary_line()
        );
        let cex = report
            .counterexample
            .expect("failure carries a counterexample");
        assert_eq!(cex.steps.iter().filter(|s| s.action.corrupt).count(), 1);
        let rendered = cex.render();
        assert!(rendered.contains("violation credential call"), "{rendered}");
        // The minimized trace must itself replay to a violation.
        let actions: Vec<Action> = cex.steps.iter().map(|s| s.action).collect();
        let replayed = replay(&target, Property::UidIntegrity, &actions);
        assert_eq!(replayed.violation.as_deref(), Some(cex.violation.as_str()));
    }

    #[test]
    fn weakened_monitor_also_fails_alarm_before_output() {
        let target = target(DeploymentConfig::TwoVariantUid, true, uid_attacker());
        let report = BoundedChecker.check(
            &target,
            &CheckRequest::new(Property::AlarmBeforeOutput, DEPTH),
        );
        assert_eq!(
            report.status,
            CheckStatus::Fail,
            "{}",
            report.summary_line()
        );
    }

    #[test]
    fn counterexamples_render_identically_across_runs() {
        let target = target(DeploymentConfig::TwoVariantUid, true, uid_attacker());
        let request = CheckRequest::new(Property::UidIntegrity, DEPTH);
        let first = BoundedChecker.check(&target, &request);
        let second = BoundedChecker.check(&target, &request);
        assert_eq!(first, second);
        assert_eq!(
            first.counterexample.expect("fails").render(),
            second.counterexample.expect("fails").render()
        );
    }

    #[test]
    fn absolute_writes_are_caught_by_address_partitioning() {
        let target = target(
            DeploymentConfig::TwoVariantAddress,
            false,
            AttackerModel::CorruptAbsolute {
                global: "server_uid".to_string(),
                value: 0,
            },
        );
        let report =
            BoundedChecker.check(&target, &CheckRequest::new(Property::UidIntegrity, DEPTH));
        assert_eq!(
            report.status,
            CheckStatus::Pass,
            "{}",
            report.summary_line()
        );
    }

    #[test]
    fn passive_targets_pass_attacker_properties_vacuously() {
        let target = target(DeploymentConfig::Unmodified, false, AttackerModel::Passive);
        for property in [Property::UidIntegrity, Property::AlarmBeforeOutput] {
            let report = BoundedChecker.check(&target, &CheckRequest::new(property, DEPTH));
            assert_eq!(
                report.status,
                CheckStatus::Pass,
                "{}",
                report.summary_line()
            );
        }
    }

    #[test]
    fn an_unbounded_depth_explores_what_a_terminating_depth_does() {
        // Every trace of the echo server terminates long before depth
        // 1,000, so a bound of usize::MAX explores exactly the same space;
        // nothing may be sized by the bound itself.
        for config in DeploymentConfig::paper_configurations() {
            let attacker = match config {
                DeploymentConfig::TwoVariantUid => uid_attacker(),
                DeploymentConfig::TwoVariantAddress => AttackerModel::CorruptAbsolute {
                    global: "server_uid".to_string(),
                    value: 0,
                },
                _ => AttackerModel::Passive,
            };
            let target = target(config, false, attacker);
            for property in Property::all() {
                let bounded = BoundedChecker.check(&target, &CheckRequest::new(property, 1_000));
                let unbounded =
                    BoundedChecker.check(&target, &CheckRequest::new(property, usize::MAX));
                let line = bounded.summary_line();
                assert_eq!(bounded.status, CheckStatus::Pass, "{line}");
                assert!(bounded.stats.terminal_runs > 0, "{line}");
                assert!(!bounded.stats.truncated, "{line}");
                assert_eq!(unbounded.status, bounded.status, "{line}");
                assert_eq!(unbounded.stats, bounded.stats, "{line}");
            }
        }
    }

    #[test]
    fn pruning_merges_converging_schedules() {
        // A request shorter than the recv chunk cap makes the capped and
        // uncapped schedules deliver identical bytes: the branches converge
        // to the same canonical state and pruning must fire.
        let mut target = target(
            DeploymentConfig::TwoVariantUid,
            false,
            AttackerModel::Passive,
        );
        target.requests = vec![b"hi".to_vec()];
        let report =
            BoundedChecker.check(&target, &CheckRequest::new(Property::BenignLockstep, DEPTH));
        assert!(report.stats.states_pruned > 0, "{}", report.summary_line());
    }
}
