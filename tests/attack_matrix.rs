//! Integration test: the security evaluation matrix.
//!
//! Every attack class is launched against every deployment configuration
//! and the observed result must match what the paper's arguments predict —
//! including the negative results (class-specificity), which are as
//! important to the paper's story as the detections.

use nvariant::DeploymentConfig;
use nvariant_apps::attacks::{attack_campaign, run_attack, Attack, AttackClass};
use nvariant_campaign::{CellResult, CellVerdict};

fn matrix_configs() -> Vec<DeploymentConfig> {
    vec![
        DeploymentConfig::Unmodified,
        DeploymentConfig::TransformedSingle,
        DeploymentConfig::TwoVariantAddress,
        DeploymentConfig::TwoVariantUid,
        DeploymentConfig::composed_uid_and_address(),
    ]
}

/// The verdict every attack cell carries.
fn verdict(cell: &CellResult) -> &CellVerdict {
    cell.verdict.as_ref().expect("attack cells are judged")
}

#[test]
fn every_attack_outcome_matches_the_papers_prediction() {
    let report = attack_campaign(&matrix_configs()).run(2);
    assert_eq!(report.cells.len(), 3 * 5);
    for cell in &report.cells {
        let verdict = verdict(cell);
        assert!(
            verdict.matches(),
            "{} vs {}: observed {}, predicted {} (alarm: {:?})",
            cell.spec.scenario_label,
            cell.spec.config_label,
            verdict.observed,
            verdict.expected,
            cell.outcome.alarm
        );
    }
}

#[test]
fn uid_corruption_is_guaranteed_detected_by_the_uid_variation() {
    for attack in Attack::all() {
        if matches!(
            attack.class,
            AttackClass::UidCorruptionRelative | AttackClass::UidCorruptionAbsolute
        ) {
            let cell = run_attack(&DeploymentConfig::TwoVariantUid, &attack);
            assert_eq!(verdict(&cell).observed, "detected", "{}", cell.outcome);
            assert!(cell.outcome.alarm.is_some());
        }
    }
}

#[test]
fn the_composed_variation_covers_both_attack_classes() {
    let composed = DeploymentConfig::composed_uid_and_address();
    for attack in Attack::all() {
        let cell = run_attack(&composed, &attack);
        assert_eq!(
            verdict(&cell).observed,
            "detected",
            "composition should detect {}: {}",
            attack.name,
            cell.outcome
        );
    }
}

#[test]
fn detection_alarms_identify_the_uid_data_class() {
    let attack = &Attack::all()[0];
    let cell = run_attack(&DeploymentConfig::TwoVariantUid, attack);
    let alarm = cell.outcome.alarm.expect("attack must be detected");
    // The divergence is observed at a UID use: either a detection call or a
    // UID-carrying system call argument.
    assert!(
        alarm.contains("seteuid") || alarm.contains("uid_value") || alarm.contains("cc_"),
        "alarm should implicate a UID use: {alarm}"
    );
}

#[test]
fn single_process_configurations_never_raise_alarms() {
    for attack in Attack::all() {
        for config in [
            DeploymentConfig::Unmodified,
            DeploymentConfig::TransformedSingle,
        ] {
            let cell = run_attack(&config, &attack);
            assert!(
                cell.outcome.alarm.is_none(),
                "single-process deployments cannot detect: {}",
                cell.outcome
            );
            assert_ne!(verdict(&cell).observed, "detected");
        }
    }
}
