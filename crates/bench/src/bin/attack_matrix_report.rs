//! The security evaluation: every attack class against every deployment
//! configuration, declared as one judged campaign over build-once compiled
//! artifacts and executed in parallel, with the result the paper's
//! arguments predict next to the observed result. Exits 1 when any pair
//! misses its prediction.

use nvariant_apps::attacks::{attack_campaign, Attack};
use nvariant_apps::campaigns::security_sweep_configs;
use nvariant_bench::render_table;

fn main() {
    println!("Attack detection matrix");
    println!("=======================\n");

    for attack in Attack::all() {
        println!("{:<16} {}", attack.name, attack.description);
    }
    println!();

    let configs = security_sweep_configs();
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = attack_campaign(&configs).run(workers);

    // Rows in attack-major order, the order the paper's matrix is read in
    // (the campaign's cells are config-major).
    let mut cells: Vec<_> = report.cells.iter().collect();
    cells.sort_by_key(|cell| (cell.spec.scenario_index, cell.spec.config_index));
    let rows: Vec<Vec<String>> = cells
        .into_iter()
        .map(|cell| {
            let verdict = cell.verdict.as_ref().expect("attack cells are judged");
            vec![
                cell.spec.scenario_label.clone(),
                cell.spec.config_label.clone(),
                verdict.observed.clone(),
                verdict.expected.clone(),
                if verdict.matches() { "yes" } else { "MISMATCH" }.to_string(),
                cell.outcome.alarm.as_deref().unwrap_or("-").to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Attack",
                "Configuration",
                "Observed",
                "Predicted",
                "Matches",
                "Alarm"
            ],
            &rows,
        )
    );

    let aggregate = report.fold_aggregator();
    println!(
        "{} of {} attack/configuration pairs behave as the paper's arguments predict.",
        aggregate.judged_cells() - aggregate.verdict_mismatches(),
        aggregate.judged_cells()
    );
    println!("\n{}", aggregate.render_summary());
    if aggregate.verdict_mismatches() > 0 {
        std::process::exit(1);
    }
}
