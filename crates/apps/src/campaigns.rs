//! Ready-made experiment plans over the mini Apache: benign workloads, the
//! attack corpus, and the full security × workload sweep across every world
//! template, all sharing the process-wide content-addressed
//! [`artifact_store`](crate::scenarios::artifact_store) (and, when it has a
//! disk layer, skipping recompilation across processes too).

use crate::attacks::{attack_scenario, Attack};
use crate::scenarios::compiled_httpd_system;
use crate::workload::WorkloadMix;
use nvariant::DeploymentConfig;
use nvariant_campaign::{CampaignPlan, Scenario};
use nvariant_simos::WorldTemplate;

/// A scenario serving `count` requests drawn from `mix`, re-seeded per cell
/// (replicates of the same triple see different request orders, but the
/// same cell always sees the same order — on any shard, at any worker
/// count).
#[must_use]
pub fn benign_scenario(mix: &WorkloadMix, count: usize) -> Scenario {
    let mix = mix.clone();
    Scenario::new(format!("benign-{count}"), move |_, seed| {
        mix.request_sequence(count, seed)
    })
}

/// A plan skeleton over the given configurations, with the compiled
/// artifacts taken from (or added to) the process-wide artifact store.
/// Cache misses compile in parallel — the compile is the expensive half of
/// deployment, so a cold campaign shouldn't pay it serially before the pool
/// spins up.
#[must_use]
pub fn httpd_campaign(name: &str, configs: &[DeploymentConfig]) -> CampaignPlan {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let compiled = nvariant_campaign::run_parallel(configs.to_vec(), workers, |_, config| {
        compiled_httpd_system(&config)
    });
    CampaignPlan::new(name).configs(compiled)
}

/// The configurations the security evaluation sweeps: the paper's four plus
/// the composed UID + address variation.
#[must_use]
pub fn security_sweep_configs() -> Vec<DeploymentConfig> {
    let mut configs = DeploymentConfig::paper_configurations();
    configs.push(DeploymentConfig::composed_uid_and_address());
    configs
}

/// The world templates the security evaluation sweeps as its environment
/// axis: every built-in template ([`WorldTemplate::catalogue`]).
#[must_use]
pub fn security_sweep_worlds() -> Vec<WorldTemplate> {
    WorldTemplate::catalogue()
}

/// The one plan every mode of the `campaign_report` binary — and every
/// worker the `campaignd` coordinator spawns — derives from: the full
/// security × world × workload matrix, shrunk by `quick` for smoke runs.
///
/// Shard workers and the merging coordinator all rebuild the plan from the
/// same `quick` flag, which is what makes per-cell seeds *and the plan
/// hash* agree across processes: a worker invoked with the wrong flag
/// produces shards whose [`CampaignPlan::plan_hash`] differs, and the
/// coordinator rejects them up front instead of blending incompatible
/// matrices.
#[must_use]
pub fn report_matrix_plan(
    quick: bool,
) -> (CampaignPlan, Vec<DeploymentConfig>, Vec<WorldTemplate>) {
    let configs = if quick {
        vec![
            DeploymentConfig::Unmodified,
            DeploymentConfig::TwoVariantAddress,
            DeploymentConfig::TwoVariantUid,
        ]
    } else {
        security_sweep_configs()
    };
    let worlds = if quick {
        vec![
            WorldTemplate::standard(),
            WorldTemplate::alternate_docroot(),
            WorldTemplate::faulty_fs(),
        ]
    } else {
        security_sweep_worlds()
    };
    let (benign_requests, replicates) = if quick { (4, 1) } else { (24, 2) };

    // Replicates apply to the whole matrix; attack scenarios ignore the
    // per-cell seed, so their replicated cells reproduce identical outcomes
    // — cheap, and a standing stability check on the engine.
    let plan = full_matrix_campaign(&configs, &worlds, benign_requests, replicates).scenario(
        benign_scenario(&WorkloadMix::standard(), benign_requests * 2),
    );
    (plan, configs, worlds)
}

/// The full evaluation matrix as one plan: every supplied configuration ×
/// every supplied world × (a benign workload scenario + every attack of
/// [`Attack::all`]). An empty `worlds` slice runs every cell in the
/// artifacts' own compile-time template, the pre-world-axis behaviour.
#[must_use]
pub fn full_matrix_campaign(
    configs: &[DeploymentConfig],
    worlds: &[WorldTemplate],
    benign_requests_per_cell: usize,
    replicates: usize,
) -> CampaignPlan {
    let mut plan = httpd_campaign("full-matrix", configs)
        .worlds(worlds.iter().cloned())
        .scenario(benign_scenario(
            &WorkloadMix::standard(),
            benign_requests_per_cell,
        ))
        .replicates(replicates);
    for attack in Attack::all() {
        plan = plan.scenario(attack_scenario(&attack));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_campaign::CellVerdict;

    #[test]
    fn benign_scenario_reseeds_per_cell() {
        let configs = [DeploymentConfig::Unmodified];
        let report = httpd_campaign("reseed", &configs)
            .scenario(benign_scenario(&WorkloadMix::standard(), 6))
            .replicates(2)
            .run(2);
        assert_eq!(report.cells.len(), 2);
        assert!(report.cells.iter().all(|c| c.outcome.exited_normally()));
        assert_ne!(report.cells[0].spec.seed, report.cells[1].spec.seed);
        // Same mix, same count — but the replicate's distinct seed draws a
        // different request order (the standard mix has 6 weighted pages,
        // so 6 draws from different seeds virtually never agree; if they
        // did, the campaign seed derivation would be broken).
        let first: Vec<_> = report.cells[0]
            .exchanges
            .iter()
            .map(|e| &e.request)
            .collect();
        let second: Vec<_> = report.cells[1]
            .exchanges
            .iter()
            .map(|e| &e.request)
            .collect();
        assert_ne!(first, second);
    }

    #[test]
    fn full_matrix_campaign_matches_paper_predictions() {
        let configs = security_sweep_configs();
        let report = full_matrix_campaign(&configs, &[], 4, 1).run(4);
        // 5 configs × 1 implicit world × (1 benign + 3 attacks).
        assert_eq!(report.cells.len(), 20);
        assert_eq!(report.fold_aggregator().judged_cells(), 15);
        assert!(
            report.verdict_mismatches().is_empty(),
            "{:?}",
            report
                .verdict_mismatches()
                .iter()
                .map(|c| c.canonical_line())
                .collect::<Vec<_>>()
        );
        // The benign scenario serves pages everywhere.
        assert!(report
            .cells
            .iter()
            .filter(|c| c.spec.scenario_label == "benign-4")
            .all(|c| c.outcome.exited_normally() && c.tally().ok > 0));
        // Configuration 4 detects the UID overflow.
        let overflow = report
            .cells
            .iter()
            .find(|c| {
                c.spec.config_label == "2-Variant UID" && c.spec.scenario_label == "uid-overflow"
            })
            .unwrap();
        assert!(overflow.outcome.detected_attack());
        assert!(overflow.verdict.as_ref().is_some_and(CellVerdict::matches));
    }

    #[test]
    fn full_matrix_campaign_spans_the_world_axis() {
        // One protected and one unprotected configuration across every
        // world template: attack verdicts must match the paper's
        // config-level predictions in *every* world, because the predictions
        // are about the variant structure, not the environment.
        let configs = [
            DeploymentConfig::Unmodified,
            DeploymentConfig::TwoVariantUid,
        ];
        let worlds = security_sweep_worlds();
        let report = full_matrix_campaign(&configs, &worlds, 4, 1).run(4);
        assert_eq!(report.cells.len(), 2 * 4 * 4);
        assert_eq!(report.fold_aggregator().world_labels().len(), 4);
        assert!(
            report.verdict_mismatches().is_empty(),
            "{:?}",
            report
                .verdict_mismatches()
                .iter()
                .map(|c| c.canonical_line())
                .collect::<Vec<_>>()
        );
        // The faulty-fs world degrades benign service (news.html is on a
        // bad sector) without ever causing a spurious alarm: the fault is
        // shared kernel state, identical across variants.
        let faulty: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.spec.world_label == "faulty-fs")
            .collect();
        assert_eq!(faulty.len(), 2 * 4);
        assert!(faulty
            .iter()
            .filter(|c| c.spec.scenario_label == "benign-4")
            .all(|c| c.outcome.exited_normally()));
        // The alternate-accounts world really runs under the alternate UID:
        // detection still works there for the protected configuration.
        let alt_uid_overflow = report
            .cells
            .iter()
            .find(|c| {
                c.spec.world_label == "alt-accounts"
                    && c.spec.config_label == "2-Variant UID"
                    && c.spec.scenario_label == "uid-overflow"
            })
            .unwrap();
        assert!(alt_uid_overflow.outcome.detected_attack());
    }
}
