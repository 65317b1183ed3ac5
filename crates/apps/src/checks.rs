//! Model-checking entry points for the mini Apache: ready-made
//! [`CheckTarget`]s for the paper's four configurations, the attacker model
//! each configuration is meant to stop, and a campaign variant whose cells
//! carry a bounded-checking summary next to their runtime observations.
//!
//! The campaign engine answers "what *did* the deployed server do on these
//! runs"; these entry points ask the [`BoundedChecker`] what it *could* do
//! under every bounded interleaving of attacker moves and receive
//! schedules. Both views run over the same compiled artifacts from the
//! process-wide [`artifact_store`].

use crate::httpd::httpd_source;
use crate::scenarios::artifact_store;
use crate::workload::benign_request;
use nvariant::prelude::MonitorConfig;
use nvariant::{AnalysisReport, CompiledSystem, DeploymentConfig, NVariantSystemBuilder};
use nvariant_campaign::{CampaignPlan, CheckSummary, Scenario};
use nvariant_check::{
    AttackerModel, BoundedChecker, CheckReport, CheckRequest, CheckTarget, Checker, Property,
};
use nvariant_simos::WorldTemplate;
use nvariant_transform::TransformOptions;
use nvariant_types::{Port, Uid};
use std::sync::Arc;

/// The global the paper's UID attacks corrupt: the server's cached
/// unprivileged service UID (see [`httpd_source`]).
pub const ATTACKED_GLOBAL: &str = "server_uid";

/// The attacker model that exercises the detection mechanism `config`
/// deploys, mirroring the attack classes of the paper's evaluation:
///
/// * the UID variation is meant to catch *replicated* corruption (the same
///   concrete value landing in every variant's copy of the global);
/// * address partitioning is meant to catch *absolute* writes (variant 0's
///   concrete address dereferenced in every variant);
/// * single-process configurations have no divergence to detect, so their
///   attacker is passive and attack properties hold vacuously.
#[must_use]
pub fn httpd_attacker(config: &DeploymentConfig) -> AttackerModel {
    match config {
        DeploymentConfig::TwoVariantUid => AttackerModel::CorruptReplicated {
            global: ATTACKED_GLOBAL.to_string(),
            value: 0,
        },
        DeploymentConfig::TwoVariantAddress => AttackerModel::CorruptAbsolute {
            global: ATTACKED_GLOBAL.to_string(),
            value: 0,
        },
        _ => AttackerModel::Passive,
    }
}

/// The worlds the checking matrix sweeps: the standard world plus the
/// alternate-accounts world (different service UIDs, so UID reexpression
/// runs over different concrete values).
#[must_use]
pub fn check_worlds() -> Vec<WorldTemplate> {
    vec![
        WorldTemplate::standard(),
        WorldTemplate::alternate_accounts(),
    ]
}

/// Compiles the mini Apache for `config` with the monitor's detection
/// checks disabled — the "weakened monitor" regression target. The bounded
/// checker must find a minimal counterexample against this artifact where
/// the real monitor passes; it exists so the checker itself is continuously
/// tested against a system that is actually broken.
///
/// Cached through the process-wide artifact store like every other build
/// (the artifact fingerprint covers the monitor configuration, so the
/// weakened build never collides with the real one).
///
/// # Panics
///
/// Panics if the bundled server source fails to compile — a bug in this
/// crate, not in the caller.
#[must_use]
pub fn weakened_httpd_system(config: &DeploymentConfig) -> Arc<CompiledSystem> {
    let builder = NVariantSystemBuilder::from_source(httpd_source())
        .expect("bundled httpd source parses")
        .config(config.clone())
        .initial_uid(Uid::ROOT)
        .monitor_config(MonitorConfig::default().without_detection_checks());
    artifact_store()
        .get_or_compile(builder)
        .expect("bundled httpd source compiles under every configuration")
}

/// Transform options with UID reexpression deliberately skipping
/// [`ATTACKED_GLOBAL`] — the seeded weakened-*transform* regression, the
/// static-analysis counterpart of [`weakened_httpd_system`]'s weakened
/// monitor. The static verifier must surface a P-Residual finding against
/// artifacts built with these options; it exists so the verifier itself is
/// continuously tested against a transform that is actually broken.
#[must_use]
pub fn weakened_transform_options() -> TransformOptions {
    TransformOptions {
        skip_reexpression_globals: vec![ATTACKED_GLOBAL.to_string()],
        ..TransformOptions::default()
    }
}

fn httpd_analysis_builder(
    config: &DeploymentConfig,
    options: TransformOptions,
) -> NVariantSystemBuilder {
    NVariantSystemBuilder::from_source(httpd_source())
        .expect("bundled httpd source parses")
        .config(config.clone())
        .initial_uid(Uid::ROOT)
        .transform_options(options)
}

/// Runs the static diversity verifier over the mini Apache's variant pairs
/// under `config`, returning the full per-pair reports (empty for
/// single-process configurations, which have no pair to relate).
///
/// # Panics
///
/// Panics if the bundled server source fails to compile — a bug in this
/// crate, not in the caller.
#[must_use]
pub fn httpd_analysis_reports(config: &DeploymentConfig) -> Vec<AnalysisReport> {
    httpd_analysis_builder(config, TransformOptions::default())
        .analyze_diversity()
        .expect("bundled httpd source compiles under every configuration")
}

/// Like [`httpd_analysis_reports`] but over artifacts built with
/// [`weakened_transform_options`] — the pairs that must *fail* P-Residual.
///
/// # Panics
///
/// Panics if the bundled server source fails to compile — a bug in this
/// crate, not in the caller.
#[must_use]
pub fn weakened_transform_analysis_reports(config: &DeploymentConfig) -> Vec<AnalysisReport> {
    httpd_analysis_builder(config, weakened_transform_options())
        .analyze_diversity()
        .expect("bundled httpd source compiles under every configuration")
}

/// A check target deploying the (cached) mini Apache under `config` into
/// `world`, with one benign request staged and the configuration's natural
/// attacker ([`httpd_attacker`]).
#[must_use]
pub fn httpd_check_target(config: &DeploymentConfig, world: WorldTemplate) -> CheckTarget {
    httpd_target_for(
        crate::scenarios::compiled_httpd_system(config),
        config,
        world,
    )
}

/// Like [`httpd_check_target`] but over the weakened artifact from
/// [`weakened_httpd_system`] — the target that must *fail* UID integrity.
#[must_use]
pub fn weakened_httpd_check_target(config: &DeploymentConfig, world: WorldTemplate) -> CheckTarget {
    httpd_target_for(weakened_httpd_system(config), config, world)
}

fn httpd_target_for(
    system: Arc<CompiledSystem>,
    config: &DeploymentConfig,
    world: WorldTemplate,
) -> CheckTarget {
    CheckTarget {
        system,
        world,
        config_label: config.label(),
        requests: vec![benign_request("/index.html")],
        port: Port::HTTP,
        attacker: httpd_attacker(config),
    }
}

/// Flattens a [`CheckReport`] into the campaign-side [`CheckSummary`] cells
/// carry through the shard codec and canonical report text.
#[must_use]
pub fn check_summary(report: &CheckReport) -> CheckSummary {
    CheckSummary {
        property: report.property.key().to_string(),
        status: report.status.to_string(),
        states: report.stats.states_visited,
        depth: report.depth as u64,
    }
}

/// Checks `property` at `depth` for every paper configuration × every
/// [`check_worlds`] world, in matrix order. This is the sweep the
/// `nvariant_check` binary (and CI) runs.
#[must_use]
pub fn check_paper_matrix(property: Property, depth: usize) -> Vec<CheckReport> {
    let mut reports = Vec::new();
    for config in DeploymentConfig::paper_configurations() {
        let system = crate::scenarios::compiled_httpd_system(&config);
        for world in check_worlds() {
            let target = httpd_target_for(Arc::clone(&system), &config, world);
            reports.push(BoundedChecker.check(&target, &CheckRequest::new(property, depth)));
        }
    }
    reports
}

/// A benign campaign over the paper configurations whose scenario carries a
/// bounded-checking hook: every cell additionally records a UID-integrity
/// check of its own (configuration, world) deployment at `depth`, so the
/// campaign report's canonical text pairs each runtime verdict with a
/// `checked=P1:...` column.
#[must_use]
pub fn checked_httpd_campaign(depth: usize) -> CampaignPlan {
    let scenario = Scenario::fixed_requests("benign-checked", vec![benign_request("/index.html")])
        .with_check(move |system, world, spec| {
            let world = world.cloned().unwrap_or_else(WorldTemplate::standard);
            let target = CheckTarget {
                system: Arc::clone(system),
                world,
                config_label: spec.config_label.clone(),
                requests: vec![benign_request("/index.html")],
                port: Port::HTTP,
                attacker: httpd_attacker(system.config()),
            };
            let report =
                BoundedChecker.check(&target, &CheckRequest::new(Property::UidIntegrity, depth));
            Some(check_summary(&report))
        });
    CampaignPlan::new("httpd-checked")
        .configs(
            DeploymentConfig::paper_configurations()
                .iter()
                .map(crate::scenarios::compiled_httpd_system),
        )
        .worlds(check_worlds())
        .scenario(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_check::CheckStatus;

    // Exploration depth that reaches the credential calls of one full
    // request service under every paper configuration.
    const DEPTH: usize = 48;

    #[test]
    fn benign_lockstep_holds_across_the_paper_matrix() {
        for report in check_paper_matrix(Property::BenignLockstep, DEPTH) {
            assert_eq!(
                report.status,
                CheckStatus::Pass,
                "{}",
                report.summary_line()
            );
            assert!(report.stats.states_visited > 0, "{}", report.summary_line());
        }
    }

    #[test]
    fn uid_integrity_holds_across_the_paper_matrix() {
        for report in check_paper_matrix(Property::UidIntegrity, DEPTH) {
            assert_eq!(
                report.status,
                CheckStatus::Pass,
                "{}",
                report.summary_line()
            );
        }
    }

    #[test]
    fn weakened_uid_monitor_fails_uid_integrity_with_a_minimal_trace() {
        let target = weakened_httpd_check_target(
            &DeploymentConfig::TwoVariantUid,
            WorldTemplate::standard(),
        );
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
        assert!(
            cex.render().contains("violation credential call"),
            "{}",
            cex.render()
        );
    }

    #[test]
    fn checked_campaign_attaches_summaries_to_every_cell() {
        let report = checked_httpd_campaign(12).run(2);
        assert_eq!(report.cells.len(), 8);
        for cell in &report.cells {
            let checked = cell.checked.as_ref().expect("every cell checked");
            assert_eq!(checked.property, "P1");
            assert_eq!(checked.status, "pass");
            assert!(checked.states > 0);
        }
        assert!(report.canonical_text().contains("checked=P1:pass:"));
    }
}
