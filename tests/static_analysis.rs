//! Repo-level tests for the static diversity verifier (`nvariant_analyze`):
//!
//! 1. A **proptest over the security sweep**: for every sampled
//!    (configuration, world) point of the evaluation matrix, the verifier
//!    is clean over the bundled httpd's variant pairs, and the artifact
//!    still deploys into the sampled world — analysis is a static property
//!    of the artifact, so the world axis must never change it.
//! 2. A **committed golden fixture** pinning the rendered diagnostics of
//!    the seeded weakened-transform regression (UID reexpression skipping
//!    `server_uid`): the P-Residual finding must keep naming the exact pc.
//!    Regenerate (only when a PR deliberately changes the compiler's code
//!    layout or the report format) with
//!    `NVARIANT_REGEN_GOLDEN=1 cargo test --test static_analysis`.

use nvariant::analyze::{combined_verdict, verdict_is_clean};
use nvariant::{DeploymentConfig, NVariantSystemBuilder};
use nvariant_apps::campaigns::{security_sweep_configs, security_sweep_worlds};
use nvariant_apps::{
    httpd_analysis_reports, httpd_source, weakened_transform_analysis_reports,
    weakened_transform_options,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("static_analysis_weakened_golden.txt")
}

/// The rendered weakened-transform reports over the one configuration
/// whose pair relates UIDs — deterministic down to the byte.
fn weakened_report_text() -> String {
    let reports = weakened_transform_analysis_reports(&DeploymentConfig::TwoVariantUid);
    let mut text = String::new();
    for report in &reports {
        text.push_str(&report.render());
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every point of the security evaluation matrix analyzes clean, and
    /// the world axis is irrelevant to the (static) analysis.
    #[test]
    fn security_sweep_is_clean_at_every_matrix_point(
        config_index in 0usize..5,
        world_index in 0usize..6,
    ) {
        let configs = security_sweep_configs();
        let worlds = security_sweep_worlds();
        let config = &configs[config_index % configs.len()];
        let world = &worlds[world_index % worlds.len()];

        let reports = httpd_analysis_reports(config);
        for report in &reports {
            prop_assert!(
                report.is_clean(),
                "{} in world {}: {}",
                config.label(),
                world.name(),
                report.render()
            );
        }
        let verdict = combined_verdict(&reports);
        prop_assert!(verdict_is_clean(&verdict), "{verdict}");

        // The artifact must still deploy into the sampled world.
        let compiled = NVariantSystemBuilder::from_source(httpd_source())
            .unwrap()
            .config(config.clone())
            .compile()
            .unwrap();
        drop(compiled.instantiate_in(world.kernel()));
    }
}

#[test]
fn weakened_transform_diagnostics_match_the_committed_golden_fixture() {
    let text = weakened_report_text();
    let path = golden_path();
    if std::env::var_os("NVARIANT_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it on a known-good \
             tree with NVARIANT_REGEN_GOLDEN=1 cargo test --test static_analysis",
            path.display()
        )
    });
    assert!(
        text == golden,
        "weakened-transform diagnostics drifted from the committed golden \
         fixture; if this PR deliberately changes the compiler's layout or \
         the report format, regenerate with NVARIANT_REGEN_GOLDEN=1.\n\
         got:\n{text}\ngolden:\n{golden}"
    );
    // Belt and braces on the property the fixture exists to pin: the
    // residual finding names an exact pc at the untransformed constant.
    assert!(text.contains("P-Residual at pc 0x"), "{text}");
    assert!(text.contains("cc_eq"), "{text}");
}

#[test]
fn weakened_transform_is_flagged_exactly_where_uids_are_related() {
    for config in DeploymentConfig::paper_configurations() {
        let reports = weakened_transform_analysis_reports(&config);
        let expect_findings = matches!(config, DeploymentConfig::TwoVariantUid);
        let found: usize = reports.iter().map(|r| r.findings.len()).sum();
        assert_eq!(
            found > 0,
            expect_findings,
            "{}: {} finding(s)",
            config.label(),
            found
        );
    }
    // The skip list is what weakens the transform — it must name the
    // attacked global and nothing else.
    assert_eq!(
        weakened_transform_options().skip_reexpression_globals,
        vec![nvariant_apps::checks::ATTACKED_GLOBAL.to_string()]
    );
}
