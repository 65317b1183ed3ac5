//! The result-cache determinism contract, end to end and in-process:
//! running the same plan twice against one cache directory produces
//! byte-identical canonical reports with the second run served entirely
//! from cache; flipping any plan axis or transform option changes the plan
//! hash and therefore never reuses the old entries; and the builder
//! fingerprint that keys the artifact store is stable and axis-sensitive,
//! mirroring `plan_hash_is_stable_and_axis_sensitive`, and matches the
//! committed absolute values in `tests/fixtures/fingerprint_golden.txt`.
//!
//! Regenerate that fixture only when a change deliberately moves artifact
//! fingerprints, on the tree before the change:
//! `NVARIANT_REGEN_GOLDEN=1 cargo test --test result_caching`.

use nvariant::store::{from_artifact_text, to_artifact_text};
use nvariant::{ArtifactStore, DeploymentConfig, NVariantSystemBuilder};
use nvariant_apps::campaigns::full_matrix_campaign;
use nvariant_apps::httpd_source;
use nvariant_campaign::{CampaignPlan, CampaignReport, Scenario};
use nvariant_monitor::MonitorConfig;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("result-caching-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn two_config_plan() -> CampaignPlan {
    full_matrix_campaign(
        &[
            DeploymentConfig::Unmodified,
            DeploymentConfig::TwoVariantUid,
        ],
        &[],
        3,
        1,
    )
}

#[test]
fn warm_runs_are_byte_identical_and_fully_cached() {
    let cache = scratch("warm-identity");
    let plan = two_config_plan();
    let cached = plan.clone().with_cache_dir(&cache);
    let cells = plan.cells().len() as u64;

    // Cold: every cell misses, executes, and is persisted.
    let cold = cached.run(2);
    let cold_stats = cold.cache.expect("cached run reports stats");
    assert_eq!(cold_stats.hits, 0);
    assert_eq!(cold_stats.misses, cells);
    assert_eq!(cold_stats.invalidations, 0);

    // Warm: every cell is a file read, and the canonical serialization is
    // byte-identical — at any worker count.
    for workers in [1, 4] {
        let warm = cached.run(workers);
        let stats = warm.cache.expect("cached run reports stats");
        assert_eq!(stats.hits, cells, "workers = {workers}");
        assert_eq!(stats.misses, 0, "workers = {workers}");
        assert_eq!(warm.canonical_text(), cold.canonical_text());
    }

    // And caching never changed content: an uncached run agrees too.
    assert_eq!(plan.run(2).canonical_text(), cold.canonical_text());
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn sharded_and_whole_runs_share_one_cell_keyspace() {
    let cache = scratch("shard-keyspace");
    let plan = two_config_plan().with_cache_dir(&cache);

    // Run the plan as two cold shards (what two worker processes do)...
    let shard0 = plan.run_shard(0, 2, 2);
    let shard1 = plan.run_shard(1, 2, 2);
    assert_eq!(shard0.cache.unwrap().hits, 0);

    // ...then the whole plan: every cell is already there.
    let whole = plan.run(2);
    let stats = whole.cache.unwrap();
    assert_eq!(stats.hits, plan.cells().len() as u64);
    assert_eq!(stats.misses, 0);
    let merged = CampaignReport::merge([shard0, shard1]).expect("shards merge");
    assert_eq!(merged.canonical_text(), whole.canonical_text());

    // A coordinator can now assemble any shard purely from file reads.
    let warm_shard = plan
        .cached_shard_report(1, 2)
        .expect("fully cached shard is served warm");
    assert_eq!(
        warm_shard.canonical_text(),
        plan.run_shard(1, 2, 1).canonical_text()
    );
    // An uncached plan never serves warm shards.
    assert!(two_config_plan().cached_shard_report(0, 2).is_none());
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn flipping_any_plan_axis_leaves_old_entries_unused() {
    let cache = scratch("axis-invalidation");
    let base = two_config_plan().with_cache_dir(&cache);
    let base_cells = base.cells().len() as u64;
    let cold = base.run(2);
    assert_eq!(cold.cache.unwrap().misses, base_cells);

    // Each variation of the plan carries a different plan hash, so none of
    // its cells can hit the base plan's entries: every cell misses again.
    let variations: Vec<CampaignPlan> = vec![
        base.clone().seed(99),
        base.clone().replicates(2),
        base.clone()
            .world(nvariant_simos::WorldTemplate::alternate_accounts()),
        base.clone()
            .scenario(Scenario::fixed_requests("extra", vec![])),
    ];
    for (index, plan) in variations.into_iter().enumerate() {
        assert_ne!(plan.plan_hash(), base.plan_hash(), "variation {index}");
        let report = plan.run(2);
        let stats = report.cache.unwrap();
        assert_eq!(stats.hits, 0, "variation {index}: {stats:?}");
        assert_eq!(stats.misses, plan.cells().len() as u64, "variation {index}");
    }

    // Flipping a *transform option* reshapes the compiled artifact (its
    // transform counters enter the plan descriptor), so even an
    // identically-shaped matrix gets a fresh keyspace.
    let ablated = Arc::new(
        NVariantSystemBuilder::from_source(httpd_source())
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .initial_uid(nvariant_types::Uid::ROOT)
            .transform_options(nvariant_transform::TransformOptions {
                insert_detection_calls: false,
                ..Default::default()
            })
            .compile()
            .unwrap(),
    );
    let ablated_plan = full_matrix_campaign(&[DeploymentConfig::Unmodified], &[], 3, 1)
        .config(ablated)
        .with_cache_dir(&cache);
    assert_ne!(ablated_plan.plan_hash(), base.plan_hash());
    let report = ablated_plan.run(2);
    assert_eq!(report.cache.unwrap().hits, 0);

    // The base plan's entries are untouched throughout: still all hits.
    let warm = base.run(2);
    assert_eq!(warm.cache.unwrap().hits, base_cells);
    assert_eq!(warm.canonical_text(), cold.canonical_text());
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn corrupted_cell_entries_recompute_without_changing_bytes() {
    let cache = scratch("cell-corruption");
    let plan = two_config_plan().with_cache_dir(&cache);
    let cold = plan.run(2);

    // The cold run appended one record per cell to its pack. Damage two of
    // them: one digit of each record's `metrics` line, so both still parse
    // and only their checksums catch the damage.
    let cell_dir = cache
        .join("cells")
        .join(format!("{:016x}", plan.plan_hash()));
    let packs: Vec<PathBuf> = std::fs::read_dir(&cell_dir)
        .expect("cell packs written")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    assert_eq!(packs.len(), 1, "{packs:?}");
    let mut bytes = std::fs::read(&packs[0]).unwrap();
    let records: Vec<usize> = bytes
        .windows(8)
        .enumerate()
        .filter(|(_, window)| *window == b"\nrecord ")
        .map(|(at, _)| at)
        .collect();
    assert_eq!(records.len(), plan.cells().len());
    for &record in &records[..2] {
        let digit = record
            + bytes[record..]
                .windows(9)
                .position(|window| window == b"\nmetrics ")
                .unwrap()
            + 9;
        bytes[digit] = if bytes[digit] == b'1' { b'2' } else { b'1' };
    }
    std::fs::write(&packs[0], bytes).unwrap();

    // The damaged cells recompute (invalidations, not crashes), the rest
    // hit, and the output is byte-identical.
    let recovered = plan.run(2);
    let stats = recovered.cache.unwrap();
    assert_eq!(stats.invalidations, 2, "{stats:?}");
    assert_eq!(stats.hits, plan.cells().len() as u64 - 2);
    assert_eq!(recovered.canonical_text(), cold.canonical_text());

    // And the recompute healed the entries: fully warm again.
    let healed = plan.run(2);
    assert_eq!(healed.cache.unwrap().hits, plan.cells().len() as u64);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn artifact_store_round_trips_the_httpd_across_stores() {
    let cache = scratch("artifact-httpd");
    let builder = || {
        NVariantSystemBuilder::from_source(httpd_source())
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .initial_uid(nvariant_types::Uid::ROOT)
    };
    let cold_store = ArtifactStore::at(&cache);
    let compiled = cold_store.get_or_compile(builder()).unwrap();
    assert_eq!(cold_store.stats().misses, 1);

    // A second store over the same directory models a second process: the
    // artifact loads from disk, skipping recompilation, and behaves
    // identically — including the symbol addresses attack payloads read.
    let warm_store = ArtifactStore::at(&cache);
    let loaded = warm_store.get_or_compile(builder()).unwrap();
    assert_eq!(warm_store.stats().hits, 1);
    assert_eq!(warm_store.stats().misses, 0);
    assert_eq!(loaded.fingerprint(), compiled.fingerprint());
    assert_eq!(
        loaded.instantiate().global_addr("server_uid"),
        compiled.instantiate().global_addr("server_uid")
    );
    let a = compiled.instantiate().run();
    let b = loaded.instantiate().run();
    assert_eq!(a, b);

    // Corrupting the entry falls back to recompilation.
    let entry = warm_store.entry_path(compiled.fingerprint()).unwrap();
    let text = std::fs::read_to_string(&entry).unwrap();
    std::fs::write(&entry, &text[..text.len() / 3]).unwrap();
    let healed_store = ArtifactStore::at(&cache);
    let recompiled = healed_store.get_or_compile(builder()).unwrap();
    assert_eq!(healed_store.stats().invalidations, 1);
    assert_eq!(recompiled.instantiate().run(), a);
    // ...and overwrites the bad entry with a good one.
    assert_eq!(std::fs::read_to_string(&entry).unwrap(), text);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn concurrent_stores_on_one_directory_never_produce_torn_artifacts() {
    let cache = scratch("artifact-concurrency");
    let builder = |config: DeploymentConfig| {
        NVariantSystemBuilder::from_source(httpd_source())
            .unwrap()
            .config(config)
            .initial_uid(nvariant_types::Uid::ROOT)
    };
    // Several "processes" (independent stores) race to populate the same
    // key while readers keep loading it. Atomic write-then-rename means a
    // reader sees either nothing (miss → compiles) or a complete entry —
    // an invalidation would mean a torn write leaked through.
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let store = ArtifactStore::at(&cache);
                for _ in 0..3 {
                    let entry = store
                        .entry_path(builder(DeploymentConfig::TwoVariantUid).fingerprint())
                        .unwrap();
                    let _ = std::fs::remove_file(&entry);
                    store
                        .get_or_compile(builder(DeploymentConfig::TwoVariantUid))
                        .unwrap();
                }
            });
        }
        scope.spawn(|| {
            let baseline = builder(DeploymentConfig::TwoVariantUid)
                .compile()
                .unwrap()
                .instantiate()
                .run();
            for _ in 0..6 {
                let store = ArtifactStore::at(&cache);
                let loaded = store
                    .get_or_compile(builder(DeploymentConfig::TwoVariantUid))
                    .unwrap();
                assert_eq!(loaded.instantiate().run(), baseline);
                assert_eq!(store.stats().invalidations, 0, "torn artifact observed");
            }
        });
    });
    let _ = std::fs::remove_dir_all(&cache);
}

/// One line per security-sweep configuration and builder shape the
/// workspace compiles the httpd with: the scenario builder, the weakened
/// monitor (detection checks off) and the weakened transform.
fn fingerprint_golden_text() -> String {
    let mut text = String::new();
    for config in nvariant_apps::campaigns::security_sweep_configs() {
        let base = NVariantSystemBuilder::from_source(httpd_source())
            .unwrap()
            .config(config.clone())
            .initial_uid(nvariant_types::Uid::ROOT);
        let builders = [
            ("scenario", base.clone()),
            (
                "weakened-monitor",
                base.clone()
                    .monitor_config(MonitorConfig::default().without_detection_checks()),
            ),
            (
                "weakened-transform",
                base.transform_options(nvariant_apps::checks::weakened_transform_options()),
            ),
        ];
        for (shape, builder) in builders {
            text.push_str(&format!(
                "{:?} {shape} {:#018x}\n",
                config.label(),
                builder.fingerprint()
            ));
        }
    }
    text
}

#[test]
fn fingerprints_match_the_committed_golden() {
    let text = fingerprint_golden_text();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("fingerprint_golden.txt");
    if std::env::var_os("NVARIANT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it on a known-good \
             tree with NVARIANT_REGEN_GOLDEN=1 cargo test --test result_caching",
            path.display()
        )
    });
    assert_eq!(
        text, golden,
        "artifact fingerprints drifted from the committed golden fixture; \
         every cached artifact and plan hash moves with them"
    );
}

#[test]
fn artifact_codec_is_a_fixed_point_on_the_httpd() {
    // The full mini-Apache — the largest real program in the workspace —
    // survives the codec byte-for-byte stably under every configuration the
    // sweeps use.
    for config in nvariant_apps::campaigns::security_sweep_configs() {
        let builder = NVariantSystemBuilder::from_source(httpd_source())
            .unwrap()
            .config(config.clone())
            .initial_uid(nvariant_types::Uid::ROOT);
        let compiled = builder.clone().compile().unwrap();
        let text = to_artifact_text(&compiled);
        let loaded = from_artifact_text(&text, &builder).expect("artifact parses");
        assert_eq!(to_artifact_text(&loaded), text, "{config}");
        assert_eq!(loaded.instantiate().run(), compiled.instantiate().run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The artifact fingerprint mirrors `plan_hash_is_stable_and_axis_sensitive`:
    /// stable for identical builder inputs, perturbed by every input axis
    /// (source, configuration shape, UID mask, variant count, transform
    /// flag, limits) — the property the cache key needs so stale reuse and
    /// spurious recompiles are both impossible.
    #[test]
    fn fingerprint_is_stable_and_axis_sensitive(
        mask in any::<u32>(),
        variants in 2usize..5,
        transform in any::<bool>(),
        max_syscalls in 1u64..1_000_000,
    ) {
        let source = "fn main() -> int { var uid: uid_t; uid = getuid(); return 0; }";
        let build = |mask: u32, variants: usize, transform: bool, max_syscalls: u64| {
            NVariantSystemBuilder::from_source(source)
                .unwrap()
                .config(DeploymentConfig::Custom {
                    variation: nvariant_diversity::Variation::UidDiversity { mask },
                    variants,
                    transform_uids: transform,
                })
                .monitor_config(MonitorConfig {
                    max_steps_per_slice: 1_000_000,
                    max_syscalls,
                    ..MonitorConfig::default()
                })
                .fingerprint()
        };
        let base = build(mask, variants, transform, max_syscalls);
        // Stable: recomputing from identical inputs reproduces it.
        prop_assert_eq!(base, build(mask, variants, transform, max_syscalls));
        // Sensitive: every axis perturbs it.
        prop_assert_ne!(base, build(mask ^ 1, variants, transform, max_syscalls));
        prop_assert_ne!(base, build(mask, variants + 1, transform, max_syscalls));
        prop_assert_ne!(base, build(mask, variants, !transform, max_syscalls));
        prop_assert_ne!(base, build(mask, variants, transform, max_syscalls + 1));
        // The source text is an axis too.
        let other_source = NVariantSystemBuilder::from_source(
            "fn main() -> int { var uid: uid_t; uid = geteuid(); return 0; }",
        )
        .unwrap()
        .config(DeploymentConfig::Custom {
            variation: nvariant_diversity::Variation::UidDiversity { mask },
            variants,
            transform_uids: transform,
        })
        .monitor_config(MonitorConfig {
            max_steps_per_slice: 1_000_000,
            max_syscalls,
            ..MonitorConfig::default()
        })
        .fingerprint();
        prop_assert_ne!(base, other_source);
    }
}
