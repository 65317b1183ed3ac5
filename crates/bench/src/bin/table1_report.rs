//! Regenerates the paper's **Table 1**: the reexpression functions of the
//! four variations, plus mechanized verification of the inverse and
//! disjointedness properties each depends on (fanned out across the
//! machine's cores by the campaign engine's worker pool). Exits 1 when any
//! property is violated.

use nvariant_bench::render_table;
use nvariant_campaign::run_parallel;
use nvariant_diversity::{verify_variation, Variation};

fn main() {
    println!("Table 1: Reexpression Functions");
    println!("===============================\n");

    let rows: Vec<Vec<String>> = Variation::table1()
        .into_iter()
        .map(|row| {
            vec![
                row.variation,
                row.target_type,
                format!("{}; {}", row.reexpression_p0, row.reexpression_p1),
                format!("{}; {}", row.inverse_p0, row.inverse_p1),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Variation",
                "Target Type",
                "Reexpression Functions",
                "Inverse Functions"
            ],
            &rows,
        )
    );

    println!("Property verification (inverse + pairwise disjointedness):\n");
    let variations = vec![
        Variation::address_partitioning(),
        Variation::extended_address_partitioning(0x40),
        Variation::instruction_tagging(),
        Variation::uid_diversity(),
        Variation::uid_diversity_full_mask(),
        Variation::composed(vec![
            Variation::uid_diversity(),
            Variation::address_partitioning(),
        ]),
    ];
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let reports = run_parallel(variations, workers, |_, variation| {
        let report = verify_variation(&variation, 2);
        (variation, report)
    });
    for (variation, report) in &reports {
        println!(
            "  {:<55} {}",
            variation.name(),
            if report.all_hold() {
                "all properties hold"
            } else {
                "PROPERTY VIOLATION"
            }
        );
        for check in &report.checks {
            println!(
                "      [{}] {}",
                if check.holds { "ok" } else { "FAIL" },
                check.description
            );
        }
    }
    if !reports.iter().all(|(_, report)| report.all_hold()) {
        std::process::exit(1);
    }
}
