//! Regenerates the paper's **Table 3**: throughput and latency of the four
//! configurations under unsaturated (1 client) and saturated (15 clients)
//! load, with the relative overheads the paper reports alongside the
//! published numbers. The 4 × 2 measurement matrix is declared as a
//! campaign: each configuration compiles once and the eight cells run in
//! parallel (per-cell numbers are worker-count invariant).

use nvariant::DeploymentConfig;
use nvariant_apps::workload::{LoadLevel, WebBench};
use nvariant_bench::{measure_table3, paper_table3, percent_change, render_table};

/// `--ladder`: instead of the paper's two load points, sweep a doubling
/// client-count ladder (1, 2, 4, ..., 64) over the same campaign path so
/// the saturation knee of each configuration is visible.
fn ladder_report(bench: &WebBench, workers: usize) {
    println!("WebBench client-count ladder (1..64 clients, x2 steps)");
    println!("======================================================\n");

    let configs = DeploymentConfig::paper_configurations();
    let loads = LoadLevel::ladder(64);
    let results = bench.measure_matrix(&configs, &loads, workers);

    // measure_matrix returns config-major rows: every load for configs[0],
    // then every load for configs[1], and so on.
    let mut table: Vec<Vec<String>> = Vec::new();
    for (i, result) in results.iter().enumerate() {
        let config = &configs[i / loads.len()];
        table.push(vec![
            config.label().clone(),
            format!("{}", result.clients),
            format!("{:.0}", result.throughput_kb_s),
            format!("{:.2}", result.latency_ms),
            format!("{:.3}", result.cpu_service_ms),
            if result.all_requests_succeeded {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Configuration",
                "Clients",
                "KB/s",
                "Latency ms",
                "CPU ms/req",
                "All OK"
            ],
            &table,
        )
    );
    println!(
        "Throughput climbs until the closed-loop clients saturate the simulated CPU,\n\
         then latency grows linearly with the client count while KB/s flattens; the\n\
         two-variant configurations flatten at roughly half the unmodified ceiling."
    );
}

fn main() {
    let bench = WebBench::default();
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if std::env::args().any(|a| a == "--ladder") {
        ladder_report(&bench, workers);
        return;
    }

    println!("Table 3: Performance Results (reproduction)");
    println!("===========================================\n");

    let rows = measure_table3(&bench, workers);

    let mut table: Vec<Vec<String>> = Vec::new();
    for row in &rows {
        table.push(vec![
            row.config.to_string(),
            format!("{:.0}", row.unsaturated.throughput_kb_s),
            format!("{:.2}", row.unsaturated.latency_ms),
            format!("{:.0}", row.saturated.throughput_kb_s),
            format!("{:.2}", row.saturated.latency_ms),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Configuration",
                "Unsat KB/s",
                "Unsat ms",
                "Sat KB/s",
                "Sat ms",
            ],
            &table,
        )
    );

    let base = &rows[0];
    let addr = &rows[2];
    println!("Relative overheads (measured):");
    for row in &rows[1..] {
        println!(
            "  {:<38} unsat throughput {:+6.1}%  latency {:+6.1}%   sat throughput {:+6.1}%  latency {:+6.1}%",
            row.config.label(),
            percent_change(base.unsaturated.throughput_kb_s, row.unsaturated.throughput_kb_s),
            percent_change(base.unsaturated.latency_ms, row.unsaturated.latency_ms),
            percent_change(base.saturated.throughput_kb_s, row.saturated.throughput_kb_s),
            percent_change(base.saturated.latency_ms, row.saturated.latency_ms),
        );
    }
    let uid = &rows[3];
    println!(
        "  {:<38} relative to Configuration 3: unsat throughput {:+.1}%, sat throughput {:+.1}%",
        "2-Variant UID (vs 2-Variant Address)",
        percent_change(
            addr.unsaturated.throughput_kb_s,
            uid.unsaturated.throughput_kb_s
        ),
        percent_change(
            addr.saturated.throughput_kb_s,
            uid.saturated.throughput_kb_s
        ),
    );

    println!("\nPaper's published Table 3 (1.4 GHz Pentium 4, WebBench 5.0):");
    let paper_rows: Vec<Vec<String>> = paper_table3()
        .into_iter()
        .map(|(n, u_kb, u_ms, s_kb, s_ms)| {
            vec![
                format!("Configuration {n}"),
                format!("{u_kb:.0}"),
                format!("{u_ms:.2}"),
                format!("{s_kb:.0}"),
                format!("{s_ms:.2}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Configuration",
                "Unsat KB/s",
                "Unsat ms",
                "Sat KB/s",
                "Sat ms",
            ],
            &paper_rows,
        )
    );
    println!(
        "Absolute numbers are not expected to match (different substrate); the shape to compare is:\n\
         the source transformation alone is ~free, running two variants roughly halves saturated\n\
         throughput while costing ~10-15% unsaturated, and the UID variation adds only a few percent\n\
         on top of the two-variant baseline."
    );

    println!("\nPer-request measured cost (all variants + monitor):");
    for row in &rows {
        println!(
            "  {:<38} {:>10} instructions, {:>6} checks, CPU {:.3} ms/request",
            row.config.label(),
            row.saturated.total_instructions / row.saturated.requests.max(1) as u64,
            row.saturated.monitor_checks / row.saturated.requests.max(1) as u64,
            row.saturated.cpu_service_ms,
        );
    }
}
