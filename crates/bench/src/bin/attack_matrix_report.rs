//! The security evaluation: every attack class against every deployment
//! configuration, declared as one judged campaign over build-once compiled
//! artifacts and executed in parallel, with the result the paper's
//! arguments predict next to the observed result.

use nvariant_apps::attacks::{attack_campaign, attack_outcomes_from_report, Attack};
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

    // Rows in attack-major order, the order the paper's matrix is read in.
    let rows: Vec<Vec<String>> = attack_outcomes_from_report(&report, &configs)
        .into_iter()
        .map(|outcome| {
            let matches = if outcome.matches_expectation() {
                "yes".to_string()
            } else {
                "MISMATCH".to_string()
            };
            vec![
                outcome.attack,
                outcome.config_label,
                outcome.result.to_string(),
                outcome.expected.to_string(),
                matches,
                outcome.alarm.unwrap_or_else(|| "-".to_string()),
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
}
