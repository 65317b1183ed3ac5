//! Regenerates the paper's **Table 2**: the detection system calls, plus a
//! measurement of how often the transformed case-study server actually
//! issues them while serving a benign workload.

use nvariant::DeploymentConfig;
use nvariant_apps::campaigns::httpd_campaign;
use nvariant_apps::workload::WorkloadMix;
use nvariant_bench::render_table;
use nvariant_campaign::Scenario;
use nvariant_simos::Sysno;

fn main() {
    println!("Table 2: Detection System Calls");
    println!("===============================\n");

    let descriptions: &[(&str, &str)] = &[
        (
            "uid_t uid_value(uid_t)",
            "Compares parameter value (across variants) and returns passed value.",
        ),
        (
            "bool cond_chk(bool)",
            "Checks conditional value given between variants is the same.",
        ),
        (
            "bool cc_eq(uid_t, uid_t)",
            "Compares parameters and returns the truth value for ==.",
        ),
        (
            "bool cc_neq(uid_t, uid_t)",
            "Compares parameters and returns the truth value for !=.",
        ),
        (
            "bool cc_lt(uid_t, uid_t)",
            "Compares parameters and returns the truth value for <.",
        ),
        (
            "bool cc_leq(uid_t, uid_t)",
            "Compares parameters and returns the truth value for <=.",
        ),
        (
            "bool cc_gt(uid_t, uid_t)",
            "Compares parameters and returns the truth value for >.",
        ),
        (
            "bool cc_geq(uid_t, uid_t)",
            "Compares parameters and returns the truth value for >=.",
        ),
    ];
    let rows: Vec<Vec<String>> = descriptions
        .iter()
        .map(|(sig, desc)| vec![sig.to_string(), desc.to_string()])
        .collect();
    println!(
        "{}",
        render_table(&["Function Signature", "Description"], &rows)
    );

    println!("Syscall numbers assigned in this reproduction:");
    for sysno in Sysno::ALL.iter().filter(|s| s.is_detection_call()) {
        println!("    {:<12} = {}", sysno.name(), sysno.as_u32());
    }

    // Measure how often the transformed server hits these calls while
    // serving a benign page mix under Configuration 4, declared as a
    // one-cell campaign over the cached compiled artifact.
    let requests = WorkloadMix::standard().request_sequence(24, 7);
    let request_count = requests.len();
    let report = httpd_campaign("table2", &[DeploymentConfig::TwoVariantUid])
        .scenario(Scenario::fixed_requests("benign-24", requests))
        .run(1);
    let metrics = report.fold_aggregator().metrics();
    println!("\nObserved while serving {request_count} benign requests under Configuration 4:");
    println!(
        "    detection calls ............ {}",
        metrics.detection_calls
    );
    println!("    synchronization points ..... {}", metrics.syscalls);
    println!(
        "    equivalence checks ......... {}",
        metrics.monitor_checks
    );
    println!(
        "    detection calls / request .. {:.2}",
        metrics.detection_calls as f64 / request_count as f64
    );
}
