//! Repo-level regressions for the bounded model checker wired through the
//! application layer: the weakened-monitor counterexample is deterministic
//! down to the byte, and greedy minimization preserves the violation under
//! randomized perturbation of the trace it starts from.
//!
//! The counterexample and its summary line are also pinned across commits
//! by `tests/fixtures/weakened_counterexample_golden.txt`, so an explorer
//! change that finds a different minimal trace, or counts states
//! differently, fails here. Regenerate (only when a PR *deliberately*
//! changes what the checker explores) with
//! `NVARIANT_REGEN_GOLDEN=1 cargo test --test model_checking`.
//!
//! `tests/fixtures/check_sweep_golden.txt` pins the explorer per target: the
//! summary line and deepest point of P1–P3 over every paper configuration
//! and check world, and over the weakened two-variant UID target, at depths
//! 8 to 48. Depths short of termination exercise remaining-depth pruning,
//! and the failing weakened checks pin the order in which the first
//! violation is found.

use nvariant::DeploymentConfig;
use nvariant_apps::checks::{check_worlds, httpd_check_target};
use nvariant_apps::weakened_httpd_check_target;
use nvariant_check::{
    minimize, replay, Action, BoundedChecker, CheckRequest, CheckStatus, CheckTarget, Checker,
    Property,
};
use nvariant_simos::WorldTemplate;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Matches the CLI's `--quick` bound; deep enough for the weakened
/// two-variant UID deployment to reach its credential call.
const DEPTH: usize = 32;

fn weakened_target() -> CheckTarget {
    weakened_httpd_check_target(&DeploymentConfig::TwoVariantUid, WorldTemplate::standard())
}

/// The seeded regression's counterexample, computed once: the rendered form
/// plus the minimized action trace it was rendered from, and the check's
/// summary line.
fn baseline() -> &'static (String, Vec<Action>, String) {
    static BASELINE: OnceLock<(String, Vec<Action>, String)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let report = BoundedChecker.check(
            &weakened_target(),
            &CheckRequest::new(Property::UidIntegrity, DEPTH),
        );
        assert_eq!(report.status, CheckStatus::Fail);
        let summary = report.summary_line();
        let counterexample = report
            .counterexample
            .expect("a failed check carries a counterexample");
        let actions = counterexample.steps.iter().map(|s| s.action).collect();
        (counterexample.render(), actions, summary)
    })
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// Compares `text` with the committed fixture `name`, or rewrites the
/// fixture under `NVARIANT_REGEN_GOLDEN`.
fn assert_matches_golden(name: &str, text: &str, what: &str) {
    let path = golden_path(name);
    if std::env::var_os("NVARIANT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it on a known-good \
             tree with NVARIANT_REGEN_GOLDEN=1 cargo test --test model_checking",
            path.display()
        )
    });
    assert_eq!(
        text, golden,
        "{what} drifted from the committed golden fixture; if a change \
         deliberately alters what the checker explores, regenerate with \
         NVARIANT_REGEN_GOLDEN=1"
    );
}

#[test]
fn weakened_counterexample_matches_the_committed_golden_fixture() {
    let (render, _, summary) = baseline();
    assert_matches_golden(
        "weakened_counterexample_golden.txt",
        &format!("{summary}\n{render}"),
        "the weakened counterexample or its state counts",
    );
}

/// The depths the sweep golden pins: from well short of the paper targets'
/// termination (48 synchronization points) up to it.
const SWEEP_DEPTHS: [usize; 6] = [8, 16, 24, 32, 40, 48];

#[test]
fn per_target_sweeps_match_the_committed_golden_fixture() {
    let mut targets = Vec::new();
    for property in Property::all() {
        for config in DeploymentConfig::paper_configurations() {
            for world in check_worlds() {
                targets.push(("", property, httpd_check_target(&config, world)));
            }
        }
    }
    for property in Property::all() {
        targets.push(("weakened ", property, weakened_target()));
    }
    let mut text = String::new();
    for depth in SWEEP_DEPTHS {
        for (prefix, property, target) in &targets {
            let report = BoundedChecker.check(target, &CheckRequest::new(*property, depth));
            text.push_str(&format!(
                "{prefix}{} deepest={}\n",
                report.summary_line(),
                report.stats.deepest
            ));
        }
    }
    assert_matches_golden(
        "check_sweep_golden.txt",
        &text,
        "a per-target checker sweep",
    );
}

#[test]
fn weakened_counterexample_renders_byte_identically_across_independent_checks() {
    let (first_render, ..) = baseline();
    // A completely independent run: fresh target instantiation, fresh
    // exploration. Bounded checking is deterministic end to end, so the
    // rendered counterexample must match byte for byte.
    let report = BoundedChecker.check(
        &weakened_target(),
        &CheckRequest::new(Property::UidIntegrity, DEPTH),
    );
    let counterexample = report
        .counterexample
        .expect("the weakened monitor misses the corrupted credential call");
    assert_eq!(&counterexample.render(), first_render);
}

#[test]
fn weakened_counterexample_replays_to_the_same_violation() {
    let (render, actions, _) = baseline();
    let replayed = replay(&weakened_target(), Property::UidIntegrity, actions);
    let violation = replayed
        .violation
        .expect("the minimized trace replays to a violation");
    assert!(
        render.contains(&violation),
        "rendered counterexample should carry the replayed violation:\n{render}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Minimization soundness: take the known violating trace, pad it with
    /// arbitrary extra annotations (a receive cap and a redundant corrupt
    /// move at random positions), and whenever the perturbed trace still
    /// violates, its minimization must (a) still replay to a violation and
    /// (b) carry no more non-default annotations than what it started from.
    #[test]
    fn prop_minimized_traces_still_fail_when_replayed(
        cap_seed in any::<u64>(),
        corrupt_seed in any::<u64>(),
    ) {
        let target = weakened_target();
        let (_, base_actions, _) = baseline();
        let mut perturbed = base_actions.clone();
        let len = perturbed.len();
        let cap_at = (cap_seed as usize) % len;
        perturbed[cap_at].recv_cap = Some(1 + (cap_seed >> 32) as usize % 4);
        let corrupt_at = (corrupt_seed as usize) % len;
        perturbed[corrupt_at].corrupt = true;
        let perturbed_replay = replay(&target, Property::UidIntegrity, &perturbed);
        // When the perturbation changes the schedule enough to defuse the
        // attack (or alarm early), minimize's precondition does not hold and
        // there is nothing to shrink in this case.
        if perturbed_replay.violation.is_some() {
            let (minimized, min_replay) = minimize(&target, Property::UidIntegrity, &perturbed);
            prop_assert!(min_replay.violation.is_some());
            // Replaying the minimized actions independently reproduces it.
            let independent = replay(&target, Property::UidIntegrity, &minimized);
            prop_assert_eq!(independent.violation, min_replay.violation);
            let annotations =
                |actions: &[Action]| actions.iter().filter(|a| !a.is_default()).count();
            prop_assert!(annotations(&minimized) <= annotations(&perturbed));
        }
    }
}
