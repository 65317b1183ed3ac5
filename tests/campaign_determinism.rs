//! The campaign engine's determinism contract, end to end over the real
//! case-study server: a plan run with the same seed produces a
//! byte-identical canonical `CampaignReport` serialization regardless of
//! the worker count — and regardless of how the matrix is sharded across
//! runs.

use nvariant::DeploymentConfig;
use nvariant_apps::campaigns::{
    full_matrix_campaign, security_sweep_configs, security_sweep_worlds,
};
use nvariant_apps::scenarios::compiled_httpd_system;
use nvariant_campaign::{CampaignPlan, CampaignReport, Scenario};
use nvariant_simos::WorldTemplate;

#[test]
fn full_matrix_campaign_is_byte_identical_at_1_and_4_workers() {
    let campaign = full_matrix_campaign(&security_sweep_configs(), &[], 6, 2).seed(0x0D15_EA5E);
    let serial = campaign.run(1);
    let parallel = campaign.run(4);
    assert_eq!(serial.cells.len(), 5 * 4 * 2);
    assert_eq!(serial.canonical_text(), parallel.canonical_text());
    // The reports really observed work: attacks were judged, pages served.
    assert!(parallel.fold_aggregator().judged_cells() > 0);
    assert!(parallel.cells.iter().any(|cell| cell.tally().ok > 0));
    assert!(parallel.verdict_mismatches().is_empty());
}

#[test]
fn world_axis_campaign_is_byte_identical_across_worker_counts() {
    let configs = [
        DeploymentConfig::Unmodified,
        DeploymentConfig::TwoVariantUid,
    ];
    let campaign = full_matrix_campaign(&configs, &security_sweep_worlds(), 4, 1).seed(0xA5);
    let serial = campaign.run(1);
    let parallel = campaign.run(4);
    // 2 configs × 4 worlds × (1 benign + 3 attacks).
    assert_eq!(serial.cells.len(), 2 * 4 * 4);
    assert_eq!(serial.canonical_text(), parallel.canonical_text());
    // Every world really appears in the canonical serialization.
    for world in ["standard", "alt-accounts", "alt-docroot", "faulty-fs"] {
        assert!(
            serial
                .canonical_text()
                .contains(&format!("world={world:?}")),
            "{world} missing from canonical text"
        );
    }
}

#[test]
fn different_seeds_change_the_canonical_serialization() {
    let configs = [DeploymentConfig::TwoVariantUid];
    let base = full_matrix_campaign(&configs, &[], 6, 1);
    let a = base.clone().seed(1).run(2);
    let b = base.seed(2).run(2);
    // Seeded benign workloads draw different request sequences, so the
    // canonical text must differ (the seeds are embedded in it anyway).
    assert_ne!(a.canonical_text(), b.canonical_text());
}

#[test]
fn seed_guarantees_reach_per_cell_exchanges() {
    // Byte-identical exchanges, not just matching summaries: rerun the same
    // plan twice at different worker counts and diff the raw traffic.
    let campaign = CampaignPlan::new("exchange-level")
        .config(compiled_httpd_system(&DeploymentConfig::TwoVariantAddress))
        .world(WorldTemplate::standard())
        .world(WorldTemplate::alternate_docroot())
        .scenario(Scenario::new("seeded-path", |_, seed| {
            vec![format!("GET /index.html HTTP/1.0\r\nX-Seed: {seed}\r\n\r\n").into_bytes()]
        }))
        .replicates(3);
    let first = campaign.run(4);
    let second = campaign.run(2);
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.exchanges, b.exchanges);
        assert_eq!(a.outcome, b.outcome);
    }
    // Both worlds serve the page (same names, different trees).
    assert!(first.cells.iter().all(|c| c.tally().ok == 1));
}

#[test]
fn shard_merge_reproduces_the_unsharded_report_through_the_codec() {
    let configs = [
        DeploymentConfig::Unmodified,
        DeploymentConfig::TwoVariantUid,
    ];
    let worlds = [WorldTemplate::standard(), WorldTemplate::faulty_fs()];
    let plan = full_matrix_campaign(&configs, &worlds, 4, 2).seed(0x00C0_FFEE);
    let whole = plan.run(4);
    for (count, workers) in [(2, 1), (4, 4)] {
        let merged = CampaignReport::merge((0..count).map(|index| {
            // Round-trip every shard through the interchange text format,
            // exactly what separate processes exchange.
            let shard = plan.run_shard(index, count, workers);
            CampaignReport::from_shard_text(&shard.to_shard_text()).expect("shard text parses")
        }))
        .expect("shards merge");
        assert_eq!(
            merged.canonical_text(),
            whole.canonical_text(),
            "{count} shards at {workers} workers"
        );
    }
}
