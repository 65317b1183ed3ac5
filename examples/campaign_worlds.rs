//! The experiment-plan API: sweep deployment configurations across several
//! *worlds* (alternative account databases, document roots, injected
//! filesystem faults), shard the matrix as a distributed coordinator
//! would, and merge the shard reports back into the exact unsharded
//! result.
//!
//! Run with: `cargo run --release --example campaign_worlds`

use nvariant::DeploymentConfig;
use nvariant_apps::campaigns::{benign_scenario, httpd_campaign};
use nvariant_apps::workload::WorkloadMix;
use nvariant_campaign::CampaignReport;
use nvariant_simos::WorldTemplate;

fn main() {
    // A plan is a pure description: configurations enter as build-once
    // compiled artifacts, worlds as named templates, and every cell's seed
    // is derived from its (config, world, scenario, replicate) coordinates.
    let plan = httpd_campaign(
        "worlds-demo",
        &[
            DeploymentConfig::Unmodified,
            DeploymentConfig::TwoVariantUid,
        ],
    )
    .worlds(WorldTemplate::catalogue())
    .scenario(benign_scenario(&WorkloadMix::standard(), 12))
    .replicates(2);

    println!(
        "== Experiment plan across {} worlds ==\n",
        plan.world_count()
    );
    println!(
        "matrix: {} configs x {} worlds x 1 scenario x 2 replicates = {} cells",
        plan.compiled_configs().len(),
        plan.world_count(),
        plan.cells().len()
    );
    // The canonical plan hash (name + seed + full axes) travels in every
    // report and shard file; merges are gated on it, so shards from a
    // differently-shaped plan can never blend in silently.
    println!(
        "plan hash: {:#018x} (shape {})\n",
        plan.plan_hash(),
        plan.shape()
    );

    // Run the whole matrix on a worker pool.
    let whole = plan.run(4);
    for (world_index, world) in plan.world_labels().iter().enumerate() {
        let mut tally = nvariant_campaign::RequestTally::default();
        for cell in whole
            .cells
            .iter()
            .filter(|c| c.spec.world_index == world_index)
        {
            tally.absorb(&cell.tally());
        }
        println!("  {world:<14} {tally}");
    }
    println!();
    println!("{}", whole.render_summary());

    // Shard the same plan three ways — as three processes or machines
    // would — and merge the reports. The canonical serialization is
    // byte-identical to the unsharded run.
    let merged = CampaignReport::merge((0..3).map(|index| plan.run_shard(index, 3, 2)))
        .expect("shards of one plan always merge");
    println!(
        "3-way shard + merge reproduces the unsharded report: {}",
        if merged.canonical_text() == whole.canonical_text() {
            "byte-identical"
        } else {
            "MISMATCH"
        }
    );
}
