//! Workspace smoke test: one pass over the whole stack — build a SimC
//! program, deploy it under all four paper configurations, serve a benign
//! workload, and confirm a seeded UID-corruption attack makes the variants
//! diverge where (and only where) the paper says it must.

use nvariant::{DeploymentConfig, NVariantSystemBuilder};
use nvariant_apps::attacks::{run_attack, Attack, AttackClass};
use nvariant_apps::scenarios::run_requests;
use nvariant_apps::workload::WorkloadMix;
use nvariant_types::Uid;

/// A deliberately tiny SimC program: confirm the process starts as root,
/// then exit cleanly. Small enough that a failure points at the deployment
/// pipeline (parse → typecheck → transform → provision → monitor), not at
/// the program.
const TINY_PROGRAM: &str = r"
    var service_uid: uid_t;

    fn main() -> int {
        service_uid = geteuid();
        if (service_uid == 0) {
            return 0;
        }
        return 1;
    }
";

#[test]
fn tiny_program_deploys_under_all_four_paper_configurations() {
    for config in DeploymentConfig::paper_configurations() {
        let mut system = NVariantSystemBuilder::from_source(TINY_PROGRAM)
            .expect("tiny program parses")
            .config(config.clone())
            .initial_uid(Uid::ROOT)
            .build()
            .unwrap_or_else(|e| panic!("{config}: build failed: {e}"));
        assert_eq!(system.variant_count(), config.variant_count(), "{config}");
        let outcome = system.run();
        assert!(outcome.exited_normally(), "{config}: {outcome}");
        assert_eq!(outcome.exit_status, Some(0), "{config}");
        assert!(outcome.alarm.is_none(), "{config}: spurious alarm");
    }
}

#[test]
fn benign_workload_is_served_identically_under_all_four_configurations() {
    // Same seed everywhere, so every configuration serves the same 8 requests.
    let requests = WorkloadMix::standard().request_sequence(8, 0xD1CE);
    let mut reference_bytes = None;
    for config in DeploymentConfig::paper_configurations() {
        let cell = run_requests(&config, &requests);
        assert!(cell.outcome.exited_normally(), "{config}: {}", cell.outcome);
        assert_eq!(
            cell.tally().ok,
            requests.len(),
            "{config}: all benign requests must get a 200"
        );
        // Normal equivalence across configurations: byte-identical service.
        let bytes: usize = cell.exchanges.iter().map(|r| r.response.len()).sum();
        match reference_bytes {
            None => reference_bytes = Some(bytes),
            Some(expected) => assert_eq!(bytes, expected, "{config}"),
        }
    }
}

#[test]
fn seeded_uid_corruption_diverges_exactly_where_the_paper_predicts() {
    // The relative-overflow corruption: it clobbers the cached UID without
    // touching diversified addresses, so of the four paper configurations
    // only the UID variation can see it.
    let uid_attack = Attack::all()
        .into_iter()
        .find(|a| a.class == AttackClass::UidCorruptionRelative)
        .expect("attack catalogue has a relative UID-corruption attack");

    for config in DeploymentConfig::paper_configurations() {
        let cell = run_attack(&config, &uid_attack);
        let verdict = cell.verdict.as_ref().expect("attack cells are judged");
        if config == DeploymentConfig::TwoVariantUid {
            // The UID variation re-expresses the corrupted data, so the
            // variants' canonical UID values disagree and the monitor kills
            // the group with a divergence alarm.
            assert_eq!(verdict.observed, "detected", "{config}: {}", cell.outcome);
            let alarm = cell.outcome.alarm.as_deref().expect("divergence alarm");
            assert!(
                alarm.contains("divergent"),
                "alarm should report divergent variants: {alarm}"
            );
        } else {
            // Every other paper configuration leaves UID data uniform across
            // the deployment, so the same attack must keep succeeding —
            // the class-specificity half of the paper's claim.
            assert_eq!(verdict.observed, "SUCCEEDED", "{config}: {}", cell.outcome);
            assert!(cell.outcome.alarm.is_none(), "{config}: {}", cell.outcome);
        }
        assert!(verdict.matches(), "{config}: {verdict:?}");
    }
}
