//! Bounded model checking of the deployed mini Apache: exhaustively explore
//! every interleaving of attacker moves and receive schedules up to a depth
//! bound, checking the detection properties P1 (UID integrity), P2 (benign
//! lockstep) and P3 (alarm before output) over the paper's four
//! configurations × the standard and alternate-accounts worlds.
//!
//! Usage:
//!
//! * `nvariant_check [--quick] [--property P1|P2|P3|all] [--depth N]` —
//!   sweep the paper matrix and print one summary line per
//!   (property, configuration, world), with visited/pruned state counts.
//!   Exits non-zero if any check fails.
//! * `nvariant_check --weakened [--trace-out FILE]` — check UID integrity
//!   against the deliberately weakened monitor (detection checks disabled).
//!   This must *fail*: the minimal counterexample trace is printed (and
//!   written to `FILE` when given), and the run exits non-zero if the
//!   checker does **not** find one — it is the checker's own regression
//!   mode, which CI runs.
//!
//! `--quick` lowers the default depth bound for CI; an explicit `--depth`
//! always wins. All exploration is deterministic: the same invocation
//! prints byte-identical summaries and traces.

use nvariant::DeploymentConfig;
use nvariant_apps::checks::{check_paper_matrix, weakened_httpd_check_target};
use nvariant_check::{BoundedChecker, CheckRequest, CheckStatus, Checker, Property};
use nvariant_simos::WorldTemplate;
use std::path::PathBuf;

#[derive(Clone, Debug, Default)]
struct Args {
    quick: bool,
    depth: Option<usize>,
    properties: Vec<Property>,
    weakened: bool,
    trace_out: Option<PathBuf>,
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: nvariant_check [--quick] [--depth N] [--property P1|P2|P3|all] \
         [--weakened [--trace-out FILE]]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--depth" => {
                let value = args.next().and_then(|v| v.parse::<usize>().ok());
                let Some(value) = value.filter(|&v| v > 0) else {
                    eprintln!("--depth expects a positive integer");
                    usage_exit();
                };
                parsed.depth = Some(value);
            }
            "--property" => {
                let Some(value) = args.next() else {
                    eprintln!("--property expects P1, P2, P3 or all");
                    usage_exit();
                };
                if value.eq_ignore_ascii_case("all") {
                    parsed.properties = Property::all().to_vec();
                } else {
                    let Some(property) = Property::parse(&value) else {
                        eprintln!("unknown property {value:?} (expected P1, P2, P3 or all)");
                        usage_exit();
                    };
                    parsed.properties.push(property);
                }
            }
            "--weakened" => parsed.weakened = true,
            "--trace-out" => {
                let Some(file) = args.next() else {
                    eprintln!("--trace-out expects a file path");
                    usage_exit();
                };
                parsed.trace_out = Some(PathBuf::from(file));
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit();
            }
        }
    }
    if parsed.trace_out.is_some() && !parsed.weakened {
        eprintln!("--trace-out only applies to --weakened");
        usage_exit();
    }
    parsed
}

/// Depth that reaches the credential calls of one full request service
/// (48), or a CI-friendly bound that still crosses the privilege drop (32).
fn effective_depth(args: &Args) -> usize {
    args.depth.unwrap_or(if args.quick { 32 } else { 48 })
}

/// The regression mode: the weakened monitor must yield a counterexample.
fn run_weakened(args: &Args) -> bool {
    let depth = effective_depth(args);
    let target =
        weakened_httpd_check_target(&DeploymentConfig::TwoVariantUid, WorldTemplate::standard());
    let report = BoundedChecker.check(&target, &CheckRequest::new(Property::UidIntegrity, depth));
    println!("{}", report.summary_line());
    let Some(counterexample) = &report.counterexample else {
        eprintln!(
            "weakened monitor produced no counterexample at depth {depth} — \
             the checker lost its detection power"
        );
        return false;
    };
    let rendered = counterexample.render();
    println!("\n{rendered}");
    if let Some(file) = &args.trace_out {
        if let Err(error) = std::fs::write(file, &rendered) {
            eprintln!("cannot write trace to {}: {error}", file.display());
            return false;
        }
        println!("Wrote counterexample trace to {}", file.display());
    }
    true
}

fn main() {
    let args = parse_args();
    if args.weakened {
        if !run_weakened(&args) {
            std::process::exit(1);
        }
        return;
    }

    let depth = effective_depth(&args);
    let properties = if args.properties.is_empty() {
        Property::all().to_vec()
    } else {
        args.properties.clone()
    };
    println!(
        "Bounded check: {} propert{} x 4 configurations x 2 worlds, depth {depth}",
        properties.len(),
        if properties.len() == 1 { "y" } else { "ies" }
    );
    let mut failures = 0usize;
    for property in properties {
        println!("\n{} — {}", property.key(), property.describe());
        for report in check_paper_matrix(property, depth) {
            println!("  {}", report.summary_line());
            if report.status == CheckStatus::Fail {
                failures += 1;
                if let Some(counterexample) = &report.counterexample {
                    println!("{}", counterexample.render());
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} check(s) failed");
        std::process::exit(1);
    }
    println!("\nAll checks passed");
}
