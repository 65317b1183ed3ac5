//! `campaignd` — the distributed campaign coordinator, a thin CLI over the
//! [`nvariant_fleet`] scheduler.
//!
//! The coordinator computes the canonical plan hash of the full security ×
//! world × workload matrix, then hands the run to a [`Fleet`]: shards are
//! assigned to a host pool through a pluggable transport (local child
//! processes, or an arbitrary command prefix like `ssh {host}`), workers
//! that crash, hang, time out, or hand back unusable files are retried up
//! to a per-shard attempt cap, hosts that fail repeatedly are quarantined
//! (and re-admitted only when no healthy host remains), fully cached
//! shards are served warm without spawning anything, and the collected
//! shard files are merged **validation-only** through the same streamed
//! merge `campaign_report --merge` runs ([`stream_merge_shards`]) — the
//! plan identity gates every shard and the merged cell set is checked
//! against the plan's expected matrix, so a wrong-but-plausible report is
//! structurally impossible and no cell is ever re-run by the coordinator;
//! the merge holds one decoded cell per shard, writing `--out` and
//! `--canonical-out` cell by cell. When a retrieved shard is valid but
//! *disagrees* with the shared cache (or the `--verify-rerun`
//! recomputation), the two canonical cell streams are compared in
//! lockstep as they are read, and the first unequal pair names the exact
//! differing cell coordinate with both canonical lines instead of dumping
//! a whole-report diff.
//!
//! Usage:
//!
//! ```text
//! campaignd [--quick] [--shards N] [--workers N] [--attempts K]
//!           [--timeout-secs T] [--dir DIR] [--out FILE]
//!           [--cache-dir DIR | --no-cache] [--canonical-out FILE]
//!           [--worker-bin PATH] [--hosts H1,H2,...]
//!           [--transport local|cmd:TEMPLATE] [--quarantine-after K]
//!           [--kill-shard I]... [--corrupt-shard I]... [--verify-rerun]
//! ```
//!
//! * `--shards N` — worker count (default 3); shard `I` runs
//!   `campaign_report --shard I/N`.
//! * `--workers N` — threads per worker process (default: cores/shards).
//! * `--attempts K` — per-shard attempt cap (default 3). A shard that
//!   exhausts its attempts fails the whole run.
//! * `--timeout-secs T` — per-attempt wall budget (default 600); a worker
//!   over budget is killed and the shard retried.
//! * `--dir DIR` — coordinator-side scratch for shard files (default: a
//!   fresh directory under the system temp dir; kept for post-mortems).
//! * `--out FILE` — additionally write the merged report in the shard
//!   interchange format.
//! * `--worker-bin PATH` — the worker binary (default: the
//!   `campaign_report` next to this executable).
//! * `--hosts H1,H2,...` — the host pool (default `local`). Shards go to
//!   the least-loaded healthy host; a host is quarantined after
//!   `--quarantine-after` consecutive failures and re-admitted only when
//!   no healthy host remains. Per-host stats print at end of run.
//! * `--transport local|cmd:TEMPLATE` — how workers reach their hosts.
//!   `local` (default) spawns child processes; `cmd:TEMPLATE` runs every
//!   worker through the whitespace-split command prefix TEMPLATE with
//!   `{host}` substituted (e.g. `cmd:ssh {host}`, or a wrapper script
//!   simulating remote hosts in CI). Prefix transports retrieve shard
//!   files *through the prefix* (`... cat FILE`), never off the local
//!   filesystem.
//! * `--quarantine-after K` — consecutive failures before a host is
//!   quarantined (default 2).
//! * `--cache-dir DIR` — the shared result cache (artifact store + cell
//!   memoization), forwarded to every worker. This is what makes the pool
//!   elastic: a shard whose cells are all already cached is served warm by
//!   the coordinator (file reads, no worker), and hosts only execute cells
//!   nobody has computed yet. The cache is also the *authority* retrieved
//!   shards are cross-checked against — a valid shard that disagrees is a
//!   divergence, not a retry. Without the flag `NVARIANT_CACHE_DIR` is
//!   honoured; `--no-cache` disables caching.
//! * `--canonical-out FILE` — write the merged report's canonical
//!   (wall-clock-free) serialization, for byte-identity comparisons.
//! * `--kill-shard I` — fault injection (repeatable): kill shard `I`'s
//!   first attempt right after spawn, exercising retry, host-failure
//!   accounting and quarantine (the first attempt is never served warm, so
//!   the injection always fires).
//! * `--corrupt-shard I` — fault injection (repeatable, requires
//!   `--cache-dir`): corrupt shard `I`'s first retrieved file in transit
//!   (one metrics counter bumped — still parseable, cell set intact), which
//!   must be caught by the divergence cross-check, not the parser.
//! * `--verify-rerun` — re-run the plan unsharded in-process (uncached)
//!   and compare the merged cells with the re-run's in the merge pass; a
//!   disagreement names the first differing cell with both canonical
//!   lines.
//! * `--surface` — after the merged summary, print the
//!   attack-success-probability surface: per (configuration, world,
//!   attack class), success and detection rates over judged cells with
//!   the Wilson 95% interval on the success probability (exit 1 when the
//!   plan judged no cells).
//!
//! Exit codes:
//!
//! * `0` — success.
//! * `1` — generic failure (setup errors, verdict mismatches).
//! * `2` — usage error.
//! * `3` — a shard exhausted its attempt cap (worker exhaustion).
//! * `4` — merge validation rejected the collected shard set.
//! * `5` — divergence: a valid result disagrees with the shared cache or
//!   the verification re-run; the first differing cell coordinate is
//!   printed.

use nvariant_apps::campaigns::report_matrix_plan;
use nvariant_apps::scenarios::{artifact_store, init_artifact_store};
use nvariant_bench::{
    resolve_cache_dir, stream_merge_shards, verify_diversity_gate, MergeOutputs, ShardMergeError,
    EXIT_ANALYSIS_FINDINGS,
};
use nvariant_campaign::CampaignReport;
use nvariant_fleet::{
    CommandTransport, Fleet, FleetConfig, FleetError, LocalProcessTransport, WorkerTransport,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const EXIT_USAGE: i32 = 2;
const EXIT_EXHAUSTED: i32 = 3;
const EXIT_MERGE: i32 = 4;
const EXIT_DIVERGENCE: i32 = 5;

#[derive(Clone, Debug)]
enum TransportChoice {
    Local,
    Command(String),
}

// A CLI flag set: each bool mirrors one independent on/off flag.
#[allow(clippy::struct_excessive_bools)]
#[derive(Clone, Debug)]
struct Args {
    quick: bool,
    shards: usize,
    workers: usize,
    attempts: usize,
    timeout: Duration,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    worker_bin: Option<PathBuf>,
    hosts: Vec<String>,
    transport: TransportChoice,
    quarantine_after: usize,
    kill_shards: BTreeSet<usize>,
    corrupt_shards: BTreeSet<usize>,
    verify_rerun: bool,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    canonical_out: Option<PathBuf>,
    analyze: bool,
    surface: bool,
}

const USAGE: &str = "usage: campaignd [--quick] [--analyze] [--shards N] [--workers N] \
                     [--attempts K] [--timeout-secs T] [--dir DIR] [--out FILE] \
                     [--cache-dir DIR | --no-cache] [--canonical-out FILE] \
                     [--worker-bin PATH] [--hosts H1,H2,...] \
                     [--transport local|cmd:TEMPLATE] [--quarantine-after K] \
                     [--kill-shard I]... [--corrupt-shard I]... [--verify-rerun] [--surface]";

const EXIT_CODE_DOC: &str = "exit codes: 0 success, 1 generic failure (setup, verdict \
                             mismatches), 2 usage, 3 worker exhaustion (a shard used up its \
                             attempt cap), 4 merge validation rejected the shard set, \
                             5 divergence (a valid result disagrees with the cache or the \
                             verification re-run), 6 static diversity findings (--analyze \
                             refused to run cells)";

fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    eprintln!("{EXIT_CODE_DOC}");
    std::process::exit(EXIT_USAGE);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        quick: false,
        shards: 3,
        workers: 0,
        attempts: 3,
        timeout: Duration::from_mins(10),
        dir: None,
        out: None,
        worker_bin: None,
        hosts: vec!["local".to_string()],
        transport: TransportChoice::Local,
        quarantine_after: 2,
        kill_shards: BTreeSet::new(),
        corrupt_shards: BTreeSet::new(),
        verify_rerun: false,
        cache_dir: None,
        no_cache: false,
        canonical_out: None,
        analyze: false,
        surface: false,
    };
    let mut args = std::env::args().skip(1);
    let number = |args: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
        if let Some(value) = args.next().and_then(|v| v.parse::<usize>().ok()) {
            value
        } else {
            eprintln!("{flag} expects a non-negative integer");
            usage_exit();
        }
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("{EXIT_CODE_DOC}");
                std::process::exit(0);
            }
            "--quick" => parsed.quick = true,
            "--analyze" => parsed.analyze = true,
            "--shards" => parsed.shards = number(&mut args, "--shards").max(1),
            "--workers" => parsed.workers = number(&mut args, "--workers").max(1),
            "--attempts" => parsed.attempts = number(&mut args, "--attempts").max(1),
            "--timeout-secs" => {
                parsed.timeout = Duration::from_secs(number(&mut args, "--timeout-secs") as u64);
            }
            "--dir" => {
                parsed.dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage_exit())));
            }
            "--out" => {
                parsed.out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage_exit())));
            }
            "--worker-bin" => {
                parsed.worker_bin =
                    Some(PathBuf::from(args.next().unwrap_or_else(|| usage_exit())));
            }
            "--hosts" => {
                let list = args.next().unwrap_or_else(|| usage_exit());
                parsed.hosts = list
                    .split(',')
                    .map(str::trim)
                    .filter(|h| !h.is_empty())
                    .map(String::from)
                    .collect();
                if parsed.hosts.is_empty() {
                    eprintln!("--hosts expects a comma-separated list of host names");
                    usage_exit();
                }
            }
            "--transport" => {
                let value = args.next().unwrap_or_else(|| usage_exit());
                parsed.transport = if value == "local" {
                    TransportChoice::Local
                } else if let Some(template) = value.strip_prefix("cmd:") {
                    if template.split_whitespace().next().is_none() {
                        eprintln!("--transport cmd: expects a non-empty command template");
                        usage_exit();
                    }
                    TransportChoice::Command(template.to_string())
                } else {
                    eprintln!("--transport expects 'local' or 'cmd:TEMPLATE' (got {value:?})");
                    usage_exit();
                };
            }
            "--quarantine-after" => {
                parsed.quarantine_after = number(&mut args, "--quarantine-after").max(1);
            }
            "--kill-shard" => {
                parsed.kill_shards.insert(number(&mut args, "--kill-shard"));
            }
            "--corrupt-shard" => {
                parsed
                    .corrupt_shards
                    .insert(number(&mut args, "--corrupt-shard"));
            }
            "--verify-rerun" => parsed.verify_rerun = true,
            "--surface" => parsed.surface = true,
            "--cache-dir" => {
                parsed.cache_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage_exit())));
            }
            "--no-cache" => parsed.no_cache = true,
            "--canonical-out" => {
                parsed.canonical_out =
                    Some(PathBuf::from(args.next().unwrap_or_else(|| usage_exit())));
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit();
            }
        }
    }
    for (flag, shards) in [
        ("--kill-shard", &parsed.kill_shards),
        ("--corrupt-shard", &parsed.corrupt_shards),
    ] {
        if let Some(index) = shards.iter().find(|&&index| index >= parsed.shards) {
            eprintln!(
                "{flag} index {index} out of range for {} shards",
                parsed.shards
            );
            usage_exit();
        }
    }
    if parsed.no_cache && parsed.cache_dir.is_some() {
        eprintln!("--cache-dir and --no-cache are mutually exclusive");
        usage_exit();
    }
    if !parsed.corrupt_shards.is_empty() && parsed.cache_dir.is_none() && parsed.no_cache {
        eprintln!(
            "--corrupt-shard requires a cache (the shared cache is the authority the \
             divergence cross-check compares against); drop --no-cache or pass --cache-dir"
        );
        usage_exit();
    }
    parsed
}

/// The worker binary: `campaign_report` next to this executable (both are
/// bin targets of the same crate, so any build that produced `campaignd`
/// also knows how to produce its worker).
fn default_worker_bin() -> PathBuf {
    let mut path = std::env::current_exe().unwrap_or_else(|error| {
        eprintln!("cannot locate this executable: {error}");
        std::process::exit(1);
    });
    path.set_file_name(format!("campaign_report{}", std::env::consts::EXE_SUFFIX));
    path
}

fn exit_code(error: &FleetError) -> i32 {
    match error {
        FleetError::Exhausted { .. } => EXIT_EXHAUSTED,
        FleetError::Divergence { .. } => EXIT_DIVERGENCE,
    }
}

/// A final-merge failure's exit code: the merge rejecting the collected
/// shard set, or an output that cannot be written.
fn merge_exit_code(error: &ShardMergeError) -> i32 {
    match error {
        ShardMergeError::Rejected(_) => EXIT_MERGE,
        ShardMergeError::Write(_) => 1,
    }
}

fn main() {
    let started = Instant::now();
    let mut args = parse_args();
    // Resolve the cache configuration before the plan is built (building
    // it compiles the matrix's artifacts through the process-wide store)
    // and pin the resolution into `args`, so workers inherit exactly it.
    args.cache_dir = resolve_cache_dir(args.cache_dir.take(), args.no_cache);
    init_artifact_store(args.cache_dir.clone());
    if !args.corrupt_shards.is_empty() && args.cache_dir.is_none() {
        eprintln!(
            "--corrupt-shard requires a cache (the shared cache is the authority the \
             divergence cross-check compares against); pass --cache-dir or set \
             NVARIANT_CACHE_DIR"
        );
        std::process::exit(EXIT_USAGE);
    }
    let args = args;

    // Building the plan compiles the matrix's artifacts (cached
    // process-wide, and across processes when a cache directory is
    // configured) but runs zero cells: the coordinator needs the plan only
    // for its hash, shape and shard cell sets.
    let (uncached_plan, configs, worlds) = report_matrix_plan(args.quick);
    let plan = match &args.cache_dir {
        Some(dir) => uncached_plan.clone().with_cache_dir(dir),
        None => uncached_plan.clone(),
    };
    if args.analyze {
        let findings = verify_diversity_gate(&configs);
        if findings > 0 {
            eprintln!(
                "refusing to dispatch campaign shards: {findings} static diversity finding(s) — \
                 fix the transform before measuring the deployment"
            );
            std::process::exit(EXIT_ANALYSIS_FINDINGS);
        }
        println!();
    }

    let expected_hash = plan.plan_hash();
    let total_cells = plan.cells().len();
    let per_worker_threads = if args.workers > 0 {
        args.workers
    } else {
        (std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) / args.shards)
            .max(1)
    };

    let dir = args
        .dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("campaignd-{}", std::process::id())));
    if let Err(error) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create shard directory {}: {error}", dir.display());
        std::process::exit(1);
    }
    let worker_bin = args.worker_bin.clone().unwrap_or_else(default_worker_bin);
    if !worker_bin.is_file() {
        eprintln!(
            "worker binary {} not found; build it first (cargo build --release -p nvariant_bench) \
             or pass --worker-bin",
            worker_bin.display()
        );
        std::process::exit(1);
    }

    let transport: Box<dyn WorkerTransport> = match &args.transport {
        TransportChoice::Local => Box::new(LocalProcessTransport),
        TransportChoice::Command(template) => match CommandTransport::from_template(template) {
            Ok(transport) => Box::new(transport),
            Err(error) => {
                eprintln!("--transport cmd: {error}");
                std::process::exit(EXIT_USAGE);
            }
        },
    };

    println!(
        "campaignd: {} configurations x {} worlds, {total_cells} cells, plan hash {expected_hash:#018x}",
        configs.len(),
        worlds.len(),
    );
    println!(
        "fleet: {} host(s) [{}] via {}, {} shard(s) x {} thread(s) ({} attempt(s) per shard, \
         {:?} timeout, quarantine after {} consecutive failure(s)), shard files in {}",
        args.hosts.len(),
        args.hosts.join(", "),
        transport.label(),
        args.shards,
        per_worker_threads,
        args.attempts,
        args.timeout,
        args.quarantine_after,
        dir.display()
    );

    // Workers share the coordinator's result cache: their cells become
    // reusable by later runs (and retries), and a partially warm shard
    // only executes its missing cells. The coordinator resolved the
    // environment already; a worker must not re-apply it differently.
    let mut worker_args: Vec<String> = Vec::new();
    if args.quick {
        worker_args.push("--quick".to_string());
    }
    worker_args.push("--workers".to_string());
    worker_args.push(per_worker_threads.to_string());
    match &args.cache_dir {
        Some(cache_dir) => {
            worker_args.push("--cache-dir".to_string());
            worker_args.push(cache_dir.display().to_string());
        }
        None => worker_args.push("--no-cache".to_string()),
    }

    let fleet = Fleet::new(&plan, transport, worker_bin, dir)
        .hosts(args.hosts.clone())
        .worker_args(worker_args)
        .config(FleetConfig {
            shards: args.shards,
            attempts: args.attempts,
            timeout: args.timeout,
            quarantine_after: args.quarantine_after,
            kill_shards: args.kill_shards.clone(),
            corrupt_shards: args.corrupt_shards.clone(),
        })
        .on_progress(|line| println!("{line}"));

    let run = match fleet.run() {
        Ok(run) => run,
        Err(error) => {
            eprintln!("{error}");
            std::process::exit(exit_code(&error));
        }
    };
    let retries = run.retries;

    // The independent cross-check must actually recompute: it runs on the
    // *uncached* plan, so a poisoned cache cannot vouch for itself. It runs
    // before the merge, which compares each merged cell with it.
    let whole = args.verify_rerun.then(|| {
        uncached_plan
            .run(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    });
    let mut reference = whole.iter().flat_map(CampaignReport::canonical_cells);
    // The merge writes --out and --canonical-out as it reads the cells; a
    // failed merge leaves neither behind.
    let create = |path: &PathBuf| {
        let file = std::fs::File::create(path).unwrap_or_else(|error| {
            eprintln!("cannot write {}: {error}", path.display());
            std::process::exit(1);
        });
        std::io::BufWriter::new(file)
    };
    let mut shard_out = args.out.as_ref().map(create);
    let mut canonical_out = args.canonical_out.as_ref().map(create);
    let outputs = MergeOutputs {
        shard: shard_out.as_mut().map(|out| out as _),
        canonical: canonical_out.as_mut().map(|out| out as _),
    };
    let reference = whole.is_some().then_some(&mut reference as _);
    let planned = plan.cells();
    let (mut aggregator, divergence) = stream_merge_shards(
        &run.spools,
        &plan.identity(),
        Some(&planned),
        reference,
        outputs,
    )
    .unwrap_or_else(|error| {
        eprintln!("{error}");
        for path in args.out.iter().chain(&args.canonical_out) {
            let _ = std::fs::remove_file(path);
        }
        std::process::exit(merge_exit_code(&error));
    });
    aggregator.set_cache(run.cache);

    println!(
        "\nMerged report ({} shards, {retries} retr{}, plan hash {:#018x}, coordinator wall {:.1?}):",
        args.shards,
        if retries == 1 { "y" } else { "ies" },
        aggregator.plan_hash(),
        started.elapsed()
    );
    println!("{}", aggregator.render_summary());
    print!("{}", run.render_host_summary());
    // Cache + retry effectiveness, for operators watching repeated or
    // retried campaigns turn into file reads.
    match &args.cache_dir {
        Some(cache_dir) => {
            let cold = total_cells - run.warm_cells;
            println!(
                "cache ({}): {}/{} shards served warm from cache ({} cell hits, {} cells \
                 delegated to workers), {retries} shard retr{}; artifact store: {}",
                cache_dir.display(),
                run.warm_shards,
                args.shards,
                run.warm_cells,
                cold,
                if retries == 1 { "y" } else { "ies" },
                artifact_store().stats()
            );
        }
        None => println!(
            "cache: disabled (0 shards served warm), {retries} shard retr{}",
            if retries == 1 { "y" } else { "ies" }
        ),
    }

    if args.surface {
        if aggregator.judged_cells() == 0 {
            eprintln!(
                "no judged cells: the attack-success surface is empty \
                 (run a plan with attack scenarios)"
            );
            std::process::exit(1);
        }
        print!("{}", aggregator.render_surface());
    }

    if let Some(out) = &args.out {
        println!("Wrote merged report to {}", out.display());
    }
    if let Some(out) = &args.canonical_out {
        println!("Wrote canonical report to {}", out.display());
    }

    let mismatches = aggregator.verdict_mismatches();
    if mismatches > 0 {
        println!("VERDICT MISMATCHES: {mismatches}");
        std::process::exit(1);
    }

    if args.verify_rerun {
        println!(
            "Distributed determinism check ({} worker processes vs unsharded in-process run): {}",
            args.shards,
            if divergence.is_none() {
                "byte-identical canonical reports"
            } else {
                "MISMATCH"
            }
        );
        if let Some(divergence) = divergence {
            let error = FleetError::Divergence {
                shard: None,
                against: "verification re-run".to_string(),
                divergence: Box::new(divergence),
            };
            eprintln!("{error}");
            std::process::exit(EXIT_DIVERGENCE);
        }
    }
}
