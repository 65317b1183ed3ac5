//! The Table 3 figures, pinned byte for byte.
//!
//! `performance_shape.rs` checks only the shape of Table 3 (which
//! configuration is slower than which); this golden records every field of
//! the eight `BenchmarkResult`s behind the table: the four paper
//! configurations under the unsaturated and the saturated load, measured
//! as one campaign. Floats are written with `{:?}`, the shortest text that
//! reads back as the same value, so no digit is rounded away.
//!
//! Regenerate (only when the workload, the cost model or what a cell
//! executes changes on purpose) with
//! `NVARIANT_REGEN_GOLDEN=1 cargo test --test table3_golden`.

use nvariant::DeploymentConfig;
use nvariant_apps::workload::{LoadLevel, WebBench};
use std::path::PathBuf;

fn table3_text() -> String {
    let results = WebBench::default().measure_matrix(
        &DeploymentConfig::paper_configurations(),
        &[LoadLevel::unsaturated(), LoadLevel::saturated()],
        1,
    );
    let mut text = String::new();
    for result in &results {
        text.push_str(&format!(
            "config={:?} clients={} requests={} throughput_kb_s={:?} latency_ms={:?} \
             cpu_service_ms={:?} total_instructions={} monitor_checks={} \
             all_requests_succeeded={}\n",
            result.config_label,
            result.clients,
            result.requests,
            result.throughput_kb_s,
            result.latency_ms,
            result.cpu_service_ms,
            result.total_instructions,
            result.monitor_checks,
            result.all_requests_succeeded,
        ));
    }
    text
}

#[test]
fn table3_figures_match_the_committed_golden() {
    let text = table3_text();
    assert_eq!(text.lines().count(), 8, "four configurations x two loads");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("table3_golden.txt");
    if std::env::var_os("NVARIANT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it on a known-good \
             tree with NVARIANT_REGEN_GOLDEN=1 cargo test --test table3_golden",
            path.display()
        )
    });
    assert_eq!(text, golden, "Table 3 figures drifted from the golden");
}
