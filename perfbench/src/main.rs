//! Command line: `perfbench --workload NAME|all [--seed N] [--seconds S]
//! [--trace 0|1] [--work-dir DIR]`.
//!
//! For each workload, prints notes, then the metrics with their units, then
//! one JSON line with `correct`, `attempted`, `failed` and `metrics`. `all`
//! runs the three workloads one after another in this process. Exits 0 when
//! every output was correct, 1 when one was not or a run could not
//! complete, and 2 on a usage error.

use perfbench::run::{reset_peak_rss, run, Options, Workload};
use std::process::exit;

const USAGE: &str = "usage: perfbench --workload matrix-cold|matrix-warm|model-check|all \
                     [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]";

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!("{USAGE}");
    exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} expects a value of the right kind")))
}

fn parse_args() -> (Options, Vec<Workload>) {
    let mut workloads = None;
    let mut options = Options::new(Workload::MatrixCold, ".perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = parse(&flag, args.next());
                workloads = Some(if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")))]
                });
            }
            "--seed" => options.seed = parse(&flag, args.next()),
            "--seconds" => {
                options.seconds = parse(&flag, args.next());
                if !(options.seconds.is_finite() && options.seconds >= 0.0) {
                    usage("--seconds expects a non-negative number");
                }
            }
            "--trace" => {
                options.trace = match parse::<u8>(&flag, args.next()) {
                    0 => false,
                    1 => true,
                    _ => usage("--trace expects 0 or 1"),
                }
            }
            "--work-dir" => options.work_dir = parse::<String>(&flag, args.next()).into(),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workloads = workloads.unwrap_or_else(|| usage("--workload is required"));
    (options, workloads)
}

fn main() {
    let (mut options, workloads) = parse_args();
    let mut correct = true;
    for (index, workload) in workloads.into_iter().enumerate() {
        if index > 0 {
            // Each workload reports its own peak, not the process's.
            reset_peak_rss();
        }
        options.workload = workload;
        let report = match run(&options) {
            Ok(report) => report,
            Err(error) => {
                eprintln!("perfbench: {}: {error}", workload.name());
                exit(1);
            }
        };
        println!(
            "perfbench {} seed {} on {} worker(s)",
            workload.name(),
            options.seed,
            options.workers
        );
        for note in &report.notes {
            println!("{note}");
        }
        for metric in &report.metrics {
            println!("{:<28} {:>16.4} {}", metric.name, metric.value, metric.unit);
        }
        for error in &report.errors {
            println!("FAILED: {error}");
        }
        println!("{}", report.json());
        correct &= report.correct;
    }
    exit(i32::from(!correct));
}
