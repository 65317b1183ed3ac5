//! One-pass smoke runs of every workload, untraced and traced.

use perfbench::run::{run, Options, Report, Workload};

const END_TO_END: [&str; 6] = [
    "cells_per_s",
    "cell_p50_ms",
    "cell_p99_ms",
    "verdict_ms",
    "setup_s",
    "peak_rss_mb",
];

fn one_pass(workload: Workload, seed: u64, trace: bool) -> Report {
    let mut options = Options::new(workload, env!("CARGO_TARGET_TMPDIR"));
    options.seed = seed;
    options.seconds = 0.0;
    options.min_passes = 1;
    options.trace = trace;
    run(&options).expect("the run completes")
}

fn assert_correct(report: &Report, units: u64) {
    assert!(report.correct, "{:?}", report.errors);
    assert_eq!(report.failed, 0);
    assert_eq!(report.failed_ratio(), 0.0);
    assert!(report.attempted >= units, "{} < {units}", report.attempted);
    let json = report.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

fn assert_end_to_end(report: &Report) {
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END);
    for metric in &report.metrics {
        assert!(metric.value > 0.0, "{metric:?}");
    }
}

#[test]
fn matrix_cold_runs_one_correct_pass() {
    let report = one_pass(Workload::MatrixCold, perfbench::pins::DEFAULT_SEED, false);
    assert_correct(&report, 200);
    assert_end_to_end(&report);
}

#[test]
fn matrix_warm_runs_one_correct_pass() {
    let report = one_pass(Workload::MatrixWarm, perfbench::pins::DEFAULT_SEED, false);
    assert_correct(&report, 200);
    assert_end_to_end(&report);
}

#[test]
fn model_check_runs_one_correct_sweep() {
    let report = one_pass(Workload::ModelCheck, perfbench::pins::DEFAULT_SEED, false);
    assert_correct(&report, 24);
    assert_end_to_end(&report);
}

#[test]
fn other_seeds_fall_back_to_seed_independent_checks() {
    let report = one_pass(Workload::MatrixCold, 7, false);
    assert_correct(&report, 200);
}

#[test]
fn traced_run_matches_the_untraced_program_and_measures_every_layer() {
    // The traced warm run also drives one traced cold pass and one traced
    // checker sweep, so every layer gets a number.
    let report = one_pass(Workload::MatrixWarm, perfbench::pins::DEFAULT_SEED, true);
    assert_correct(&report, 200 + 200 + 24);
    assert!(report.metrics.len() > 30);
    let value = |name: &str| report.metric(name).unwrap_or_else(|| panic!("{name}"));
    assert_eq!(
        value("vm.instructions"),
        perfbench::pins::matrix::INSTRUCTIONS as f64
    );
    assert_eq!(
        value("check.states_visited"),
        perfbench::pins::check::STATES_VISITED as f64
    );
    assert_eq!(value("campaign.cache_hit_ratio"), 1.0);
    assert_eq!(value("apps.verdict_match_ratio"), 1.0);
    for metric in &report.metrics {
        assert!(metric.value > 0.0, "{metric:?}");
    }
}
