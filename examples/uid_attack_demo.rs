//! The headline result of the paper: a non-control-data attack that corrupts
//! the server's cached UID succeeds against an unprotected server (and even
//! against address-space partitioning), but is detected with certainty by
//! the 2-variant UID data variation.
//!
//! Run with: `cargo run --example uid_attack_demo`

use nvariant::DeploymentConfig;
use nvariant_apps::attacks::{run_attack, Attack};

fn main() {
    let attacks = Attack::all();
    let configs = vec![
        DeploymentConfig::Unmodified,
        DeploymentConfig::TransformedSingle,
        DeploymentConfig::TwoVariantAddress,
        DeploymentConfig::TwoVariantUid,
        DeploymentConfig::composed_uid_and_address(),
    ];

    println!("== UID corruption attacks against the mini Apache ==\n");
    for attack in &attacks {
        println!("[{}] {}\n", attack.name, attack.description);
        for config in &configs {
            let cell = run_attack(config, attack);
            let verdict = cell.verdict.as_ref().expect("attack cells are judged");
            println!(
                "    {:<45} -> {:<9} (predicted: {}){}",
                config.to_string(),
                verdict.observed,
                verdict.expected,
                if verdict.matches() {
                    ""
                } else {
                    "  <-- UNEXPECTED"
                }
            );
            if let Some(alarm) = &cell.outcome.alarm {
                println!("        {alarm}");
            }
        }
        println!();
    }
    println!(
        "Note the class-specificity in both directions: the relative UID overwrite sails past\n\
         address-space partitioning, and the non-UID data corruption sails past the UID variation —\n\
         each variation gives a guarantee only for its own attack class, which is why the paper\n\
         proposes composing them (the last configuration)."
    );
}
