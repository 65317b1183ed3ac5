//! The full-matrix campaign sweep: every deployment configuration of the
//! security evaluation × every world template × (benign workloads + every
//! attack class), executed in parallel over build-once compiled artifacts —
//! runnable whole, or sharded across processes and merged.
//!
//! Usage:
//!
//! * `campaign_report [--quick] [--workers N]` — run the whole matrix,
//!   print the per-configuration/world table, and self-check determinism
//!   (serial vs. parallel, and an in-process shard+merge round trip).
//! * `campaign_report [--quick] --shard I/N --out FILE` — run only shard
//!   `I` of `N` and write the report to `FILE` in the shard interchange
//!   format.
//! * `campaign_report [--quick] --merge FILE...` — merge shard files
//!   written by `--shard`. Merging is **validation-only**: every shard must
//!   carry this plan's canonical hash, keep its cells in canonical order,
//!   and the merged cell set must cover the plan's full matrix (missing,
//!   duplicated or out-of-order cells are named exactly) — no cell is ever
//!   re-run. The merge is [`stream_merge_shards`], the one `campaignd` runs
//!   too: a k-way merge over one shard cursor per file folds every cell
//!   straight into a [`StreamingAggregator`], so peak memory holds one
//!   decoded cell per shard regardless of shard size. Pass `--verify-rerun`
//!   to additionally re-run the whole plan unsharded in-process and assert
//!   the merged canonical cell stream is **byte-identical**: each merged
//!   cell is compared with the re-run's cell in lockstep, in the pass that
//!   merges it, and a mismatch names the first differing cell with both
//!   canonical lines.
//! * `campaign_report --surface` — additionally print the
//!   attack-success-probability surface: per (configuration, world,
//!   attack class), the success and detection rates over judged cells
//!   with the Wilson 95% interval on the success probability. Applies to
//!   the full-matrix run, `--merge`, and `--synthetic`; it is a usage
//!   error with `--shard` (a single shard's surface would be misleading —
//!   merge first). `--surface-out FILE` writes the same bytes to `FILE`.
//! * `campaign_report --synthetic [--replicate-factor N]` — run the
//!   in-process synthetic sweep (5 configs × 4 worlds × 3 attack classes ×
//!   N replicates, no VM, every cell judged) through the constant-memory
//!   streaming fold: at 10^6 cells it runs under the CI address-space cap.
//!   `--synthetic --shard I/N --out FILE` writes one round-robin shard of
//!   the sweep as an interchange file through the streaming
//!   [`ShardWriter`] (one cell in memory at a time), and `--synthetic
//!   --merge FILE...` stream-merges such files gated by the synthetic
//!   plan's identity, always comparing the merged canonical cell stream
//!   with an in-process regeneration in the same pass — so the "merge peak
//!   memory is independent of shard size" experiment runs end-to-end under
//!   the same cap.
//!
//! `--replicate-factor N` also applies to the real matrix: it multiplies
//! the plan's replicate axis N-fold (changing the plan hash, like any
//! other axis change).
//!
//! Caching: `--cache-dir DIR` enables the two-level result cache under
//! `DIR` — compiled artifacts (`DIR/artifacts/`, skipping the parse →
//! transform → compile pipeline across processes) and completed campaign
//! cells (`DIR/cells/<plan_hash>/`, turning re-runs of identical plans
//! into file reads). Without the flag, the `NVARIANT_CACHE_DIR`
//! environment variable is honoured; `--no-cache` disables both layers'
//! disk side regardless. Caching never changes report content: a warm run
//! is byte-identical to a cold one (the canonical serialization can be
//! captured with `--canonical-out FILE` to prove it).
//!
//! All processes of a sharded run must use the same `--quick` setting: the
//! plan — its per-cell seeds *and* its plan hash, which gates the merge —
//! is derived from it.

use nvariant::{DeploymentConfig, NVariantSystemBuilder};
use nvariant_apps::campaigns::report_matrix_plan;
use nvariant_apps::httpd_source;
use nvariant_apps::scenarios::{artifact_store, init_artifact_store};
use nvariant_bench::{
    render_table, resolve_cache_dir, stream_merge_shards, verify_diversity_gate, MergeOutputs,
    EXIT_ANALYSIS_FINDINGS,
};
use nvariant_campaign::{
    CampaignPlan, CampaignReport, CellSpec, ShardHeader, ShardWriter, StreamingAggregator,
    SyntheticSweep,
};
use nvariant_fleet::{Coordinates, Divergence};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

// A CLI flag set: each bool mirrors one independent on/off flag.
#[allow(clippy::struct_excessive_bools)]
#[derive(Clone, Debug, Default)]
struct Args {
    quick: bool,
    workers: usize,
    shard: Option<(usize, usize)>,
    out: Option<String>,
    merge: Vec<String>,
    verify_rerun: bool,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    canonical_out: Option<PathBuf>,
    analyze: bool,
    surface: bool,
    surface_out: Option<PathBuf>,
    synthetic: bool,
    replicate_factor: usize,
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: campaign_report [--quick] [--analyze] [--workers N] \
         [--cache-dir DIR | --no-cache] [--canonical-out FILE] \
         [--replicate-factor N] [--surface [--surface-out FILE]] \
         [--shard I/N --out FILE] [--merge FILE... [--verify-rerun]] \
         [--synthetic [--shard I/N --out FILE | --merge FILE...]]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        // At least 4 workers even on small machines, so the determinism
        // check against the serial run always exercises a genuinely
        // parallel schedule.
        workers: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .max(4),
        replicate_factor: 1,
        ..Args::default()
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--workers" => {
                let value = args.next().and_then(|v| v.parse::<usize>().ok());
                let Some(value) = value else {
                    eprintln!("--workers expects a positive integer");
                    usage_exit();
                };
                parsed.workers = value.max(1);
            }
            "--shard" => {
                let spec = args.next().unwrap_or_default();
                let parts: Option<(usize, usize)> = spec
                    .split_once('/')
                    .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)));
                // Reject degenerate shard specs explicitly: N == 0 would
                // divide the plan into nothing and I >= N would run an
                // undefined (empty) shard whose "report" could poison a
                // merge; neither may silently produce output.
                match parts {
                    Some((index, count)) if count > 0 && index < count => {
                        parsed.shard = Some((index, count));
                    }
                    Some((_, 0)) => {
                        eprintln!("--shard {spec}: shard count must be positive (N >= 1)");
                        usage_exit();
                    }
                    Some((index, count)) => {
                        eprintln!(
                            "--shard {spec}: shard index {index} out of range for {count} \
                             shard(s); valid indices are 0..{count}"
                        );
                        usage_exit();
                    }
                    None => {
                        eprintln!("--shard expects I/N with I < N (got {spec:?})");
                        usage_exit();
                    }
                }
            }
            "--cache-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("--cache-dir expects a directory path");
                    usage_exit();
                };
                parsed.cache_dir = Some(PathBuf::from(dir));
            }
            "--no-cache" => parsed.no_cache = true,
            "--canonical-out" => {
                let Some(file) = args.next() else {
                    eprintln!("--canonical-out expects a file path");
                    usage_exit();
                };
                parsed.canonical_out = Some(PathBuf::from(file));
            }
            "--out" => {
                parsed.out = args.next();
                if parsed.out.is_none() {
                    eprintln!("--out expects a file path");
                    usage_exit();
                }
            }
            "--merge" => {
                // Consume file paths up to the next flag, so `--merge a b
                // --quick` still sees --quick as a flag.
                while args.peek().is_some_and(|next| !next.starts_with("--")) {
                    parsed.merge.push(args.next().expect("peeked"));
                }
                if parsed.merge.is_empty() {
                    eprintln!("--merge expects one or more shard files");
                    usage_exit();
                }
            }
            "--verify-rerun" => parsed.verify_rerun = true,
            "--analyze" => parsed.analyze = true,
            "--surface" => parsed.surface = true,
            "--surface-out" => {
                let Some(file) = args.next() else {
                    eprintln!("--surface-out expects a file path");
                    usage_exit();
                };
                parsed.surface = true;
                parsed.surface_out = Some(PathBuf::from(file));
            }
            "--synthetic" => parsed.synthetic = true,
            "--replicate-factor" => {
                let value = args.next().and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(value) if value > 0 => parsed.replicate_factor = value,
                    _ => {
                        eprintln!("--replicate-factor expects a positive integer");
                        usage_exit();
                    }
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit();
            }
        }
    }
    if parsed.shard.is_some() && !parsed.merge.is_empty() {
        eprintln!("--shard and --merge are mutually exclusive");
        usage_exit();
    }
    if parsed.shard.is_some() && parsed.out.is_none() {
        eprintln!("--shard requires --out FILE");
        usage_exit();
    }
    if parsed.verify_rerun && parsed.merge.is_empty() {
        eprintln!("--verify-rerun only applies to --merge");
        usage_exit();
    }
    if parsed.no_cache && parsed.cache_dir.is_some() {
        eprintln!("--cache-dir and --no-cache are mutually exclusive");
        usage_exit();
    }
    if parsed.canonical_out.is_some() && (parsed.shard.is_some() || !parsed.merge.is_empty()) {
        eprintln!("--canonical-out only applies to the full-matrix run");
        usage_exit();
    }
    if parsed.surface && parsed.shard.is_some() {
        eprintln!(
            "--surface does not apply to a single shard (a partial matrix would make the \
             success-probability surface misleading); merge the shards, then ask for the surface"
        );
        usage_exit();
    }
    if parsed.synthetic
        && (parsed.analyze
            || parsed.cache_dir.is_some()
            || parsed.canonical_out.is_some()
            || parsed.verify_rerun)
    {
        eprintln!(
            "--synthetic runs the in-process synthetic sweep; it combines only with \
             --workers, --replicate-factor, --surface[-out], \
             --shard I/N --out FILE and --merge FILE... (the synthetic merge \
             always cross-checks against a regenerated stream, so --verify-rerun \
             is implied, not accepted)"
        );
        usage_exit();
    }
    parsed
}

/// Prints (and optionally writes) the attack-success-probability surface,
/// exiting non-zero when the plan judged no cells — an empty surface is an
/// operator error, not a report.
fn emit_surface(aggregator: &StreamingAggregator, surface_out: Option<&Path>) {
    if aggregator.judged_cells() == 0 {
        eprintln!(
            "no judged cells: the attack-success surface is empty \
             (run a plan with attack scenarios)"
        );
        std::process::exit(1);
    }
    let surface = aggregator.render_surface();
    print!("{surface}");
    if let Some(file) = surface_out {
        if let Err(error) = std::fs::write(file, &surface) {
            eprintln!("cannot write surface report {}: {error}", file.display());
            std::process::exit(1);
        }
        println!("Wrote surface report to {}", file.display());
    }
}

/// `--synthetic`: the in-process synthetic sweep — the workload that
/// scales the streaming pipeline to millions of cells (no VM, no HTTP,
/// every cell judged). The streamed fold's memory is O(workers ×
/// aggregator), whatever the cell count.
fn run_synthetic_mode(args: &Args) {
    let sweep = SyntheticSweep::new(args.replicate_factor);
    if let Some((index, count)) = args.shard {
        run_synthetic_shard(&sweep, index, count, args.out.as_deref().unwrap());
        return;
    }
    if !args.merge.is_empty() {
        run_synthetic_merge(
            &sweep,
            &args.merge,
            args.surface,
            args.surface_out.as_deref(),
        );
        return;
    }
    let shape = sweep.shape;
    println!(
        "Synthetic sweep: {} cells ({} configs x {} worlds x {} attacks x {} replicates), \
         plan hash {:#018x}, {} worker(s), streamed",
        sweep.cell_count(),
        shape.configs,
        shape.worlds,
        shape.scenarios,
        shape.replicates,
        sweep.plan_hash(),
        args.workers,
    );
    let aggregator = sweep.run_streamed(args.workers);
    println!("{}", aggregator.render_summary());
    if args.surface {
        emit_surface(&aggregator, args.surface_out.as_deref());
    }
}

fn per_cell_table(report: &CampaignReport, configs: &[DeploymentConfig]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (config_index, config) in configs.iter().enumerate() {
        let config_cells: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.spec.config_index == config_index)
            .collect();
        let mut world_labels: Vec<&str> = Vec::new();
        for cell in &config_cells {
            if !world_labels.contains(&cell.spec.world_label.as_str()) {
                world_labels.push(&cell.spec.world_label);
            }
        }
        for world in world_labels {
            let cells: Vec<_> = config_cells
                .iter()
                .filter(|c| c.spec.world_label == world)
                .collect();
            let detected = cells.iter().filter(|c| c.outcome.detected_attack()).count();
            let survived = cells.iter().filter(|c| c.outcome.exited_normally()).count();
            let judged: Vec<_> = cells.iter().filter(|c| c.verdict.is_some()).collect();
            let matched = judged
                .iter()
                .filter(|c| {
                    c.verdict
                        .as_ref()
                        .is_some_and(nvariant_campaign::CellVerdict::matches)
                })
                .count();
            let mut tally = nvariant_campaign::RequestTally::default();
            for cell in &cells {
                tally.absorb(&cell.tally());
            }
            let wall: std::time::Duration = cells.iter().map(|c| c.wall).sum();
            rows.push(vec![
                config.label(),
                world.to_string(),
                cells.len().to_string(),
                format!("{detected}/{}", cells.len()),
                format!("{survived}/{}", cells.len()),
                format!("{matched}/{}", judged.len()),
                format!(
                    "{}/{}/{}/{}",
                    tally.ok, tally.forbidden, tally.not_found, tally.other
                ),
                format!("{wall:.1?}"),
            ]);
        }
    }
    render_table(
        &[
            "Configuration",
            "World",
            "Cells",
            "Alarmed",
            "Survived",
            "Matched",
            "200/403/404/other",
            "Cell wall",
        ],
        &rows,
    )
}

fn measure_build_once_speedup() {
    // Compile the heaviest paper configuration from scratch, then compare
    // the cost of re-running the full pipeline with the cost of stamping
    // out another instance of the artifact.
    let full_build = Instant::now();
    let compiled = NVariantSystemBuilder::from_source(httpd_source())
        .expect("bundled httpd parses")
        .config(DeploymentConfig::TwoVariantUid)
        .compile()
        .expect("bundled httpd compiles");
    let build_cost = full_build.elapsed();

    let runs = 20u32;
    let instantiate = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(compiled.instantiate());
    }
    let instantiate_cost = instantiate.elapsed() / runs;
    let speedup = build_cost.as_secs_f64() / instantiate_cost.as_secs_f64().max(1e-9);
    println!(
        "Build-once/run-many: full pipeline {build_cost:.1?}, instantiate {instantiate_cost:.1?} \
         ({speedup:.0}x cheaper per run)"
    );
}

/// `--shard I/N --out FILE`: run one shard, write the interchange file.
fn run_shard_mode(plan: &CampaignPlan, index: usize, count: usize, workers: usize, out: &str) {
    let cells = plan.shard(index, count).len();
    println!(
        "Shard {index}/{count}: {cells} of {} cells on {workers} worker(s), plan hash {:#018x}",
        plan.cells().len(),
        plan.plan_hash()
    );
    let report = plan.run_shard(index, count, workers);
    if let Err(error) = std::fs::write(out, report.to_shard_text()) {
        eprintln!("cannot write shard file {out}: {error}");
        std::process::exit(1);
    }
    println!("{}", report.render_summary());
    print_artifact_store_stats();
    println!("Wrote shard report to {out}");
}

/// Merges shard files through [`stream_merge_shards`], checking the
/// merged cells against `planned` and comparing them with `reference` in
/// the same pass, and prints the merged summary (and surface); a merge
/// failure prints its cause and exits 1.
fn merge_and_summarize(
    files: &[String],
    plan: &ShardHeader,
    planned: Option<&[CellSpec]>,
    reference: Option<&mut dyn Iterator<Item = (Coordinates, String)>>,
    surface: bool,
    surface_out: Option<&Path>,
) -> (StreamingAggregator, Option<Divergence>) {
    let (aggregator, divergence) =
        stream_merge_shards(files, plan, planned, reference, MergeOutputs::default())
            .unwrap_or_else(|error| {
                eprintln!("{error}");
                std::process::exit(1);
            });
    println!(
        "\nMerged report (plan hash {:#018x}):",
        aggregator.plan_hash()
    );
    println!("{}", aggregator.render_summary());
    if surface {
        emit_surface(&aggregator, surface_out);
    }
    (aggregator, divergence)
}

/// Prints a determinism check's verdict line (`identical` when the merge
/// matched its reference) and, on a mismatch, the first differing cell
/// with both canonical lines, then exits 1.
fn report_determinism(check: &str, identical: &str, divergence: Option<Divergence>) {
    println!(
        "{check}: {}",
        if divergence.is_none() {
            identical
        } else {
            "MISMATCH"
        }
    );
    if let Some(divergence) = divergence {
        eprintln!("{divergence}");
        std::process::exit(1);
    }
}

/// `--synthetic --shard I/N --out FILE`: write one round-robin shard of
/// the synthetic sweep as an interchange file, through the streaming
/// [`ShardWriter`] — the producer's peak memory is one cell, so even a
/// half-million-cell shard file can be generated under the CI memory cap.
fn run_synthetic_shard(sweep: &SyntheticSweep, index: usize, count: usize, out: &str) {
    let total = sweep.cell_count();
    let indices = || (index..total).step_by(count);
    println!(
        "Synthetic shard {index}/{count}: {} of {total} cells, plan hash {:#018x}",
        indices().count(),
        sweep.plan_hash()
    );
    // The header carries the shard's total wall, which precedes the cells
    // in the file — sum it in a first pass and regenerate the cells in the
    // second rather than holding them.
    let header = ShardHeader {
        workers: 1,
        total_wall: indices().map(|linear| sweep.cell(linear).wall).sum(),
        ..sweep.identity()
    };
    let fail = |error: &dyn std::fmt::Display| -> ! {
        eprintln!("cannot write shard file {out}: {error}");
        std::process::exit(1);
    };
    let file = std::fs::File::create(out).unwrap_or_else(|error| fail(&error));
    let mut writer =
        ShardWriter::new(BufWriter::new(file), &header).unwrap_or_else(|error| fail(&error));
    for linear in indices() {
        writer
            .push(&sweep.cell(linear))
            .unwrap_or_else(|error| fail(&error));
    }
    writer.finish().unwrap_or_else(|error| fail(&error));
    println!("Wrote synthetic shard report to {out}");
}

/// `--synthetic --merge FILE...`: stream-merge synthetic shard files,
/// gated by the synthetic plan's identity. Because every synthetic cell is
/// regenerable in-process for the cost of a fold, the canonical
/// byte-identity cross-check that the real matrix gates behind
/// `--verify-rerun` runs unconditionally here — still in constant memory,
/// comparing each merged cell with its regeneration in the merge pass.
fn run_synthetic_merge(
    sweep: &SyntheticSweep,
    files: &[String],
    surface: bool,
    surface_out: Option<&Path>,
) {
    let mut regenerated = (0..sweep.cell_count()).map(|linear| {
        let cell = sweep.cell(linear);
        (cell.spec.coordinates(), cell.canonical_line())
    });
    // Each regenerated canonical line carries its cell's seed and labels,
    // so the comparison below also refuses a cell that is not the plan's.
    let (_, divergence) = merge_and_summarize(
        files,
        &sweep.identity(),
        None,
        Some(&mut regenerated),
        surface,
        surface_out,
    );
    // Unlike the real matrix, verdict mismatches are *modeled data* in the
    // synthetic sweep (the surface reports them per group), not a failure.
    report_determinism(
        &format!(
            "Synthetic determinism check ({} shard file(s) vs regenerated stream)",
            files.len()
        ),
        "byte-identical canonical cell streams",
        divergence,
    );
}

/// `--merge FILE...`: validate and merge shard files. Validation-only by
/// default — the plan identity gates the merge and the plan's cell matrix
/// is checked for coverage, so no cell is ever re-run. The merge itself
/// streams through [`stream_merge_shards`]: every merged cell folds into a
/// [`StreamingAggregator`] and is dropped, so peak memory holds one
/// decoded cell per shard however large the shards are. `--verify-rerun`
/// additionally re-runs the plan unsharded first and compares each merged
/// cell with the re-run's in the merge pass.
fn run_merge_mode(
    plan: &CampaignPlan,
    files: &[String],
    workers: usize,
    verify_rerun: bool,
    surface: bool,
    surface_out: Option<&Path>,
) {
    // The belt-and-braces cross-check: the whole plan re-run unsharded
    // in-process is the reference the merged cells are compared with.
    let whole = verify_rerun.then(|| plan.run(workers));
    let mut reference = whole.iter().flat_map(CampaignReport::canonical_cells);
    let (aggregator, divergence) = merge_and_summarize(
        files,
        &plan.identity(),
        Some(&plan.cells()),
        verify_rerun.then_some(&mut reference),
        surface,
        surface_out,
    );

    let mismatches = aggregator.verdict_mismatches();
    if mismatches > 0 {
        println!("VERDICT MISMATCHES: {mismatches}");
        std::process::exit(1);
    }

    if verify_rerun {
        report_determinism(
            &format!(
                "Shard determinism check ({} shard file(s) vs unsharded re-run)",
                files.len()
            ),
            "byte-identical canonical reports",
            divergence,
        );
    } else {
        println!(
            "Validated {} shard file(s) against plan identity and cell matrix (no re-run; \
             pass --verify-rerun for the in-process byte-identity cross-check)",
            files.len()
        );
    }
}

/// One line of artifact-store effectiveness for operators (and the CI
/// cold/warm assertions).
fn print_artifact_store_stats() {
    let store = artifact_store();
    match store.disk_root() {
        Some(root) => println!("Artifact store ({}): {}", root.display(), store.stats()),
        None => println!("Artifact store (memory-only): {}", store.stats()),
    }
}

fn main() {
    let args = parse_args();
    // The synthetic sweep never touches the artifact store or the real
    // matrix: branch before any of that machinery allocates, so the CI
    // address-space experiment measures the pipeline, not the setup.
    if args.synthetic {
        run_synthetic_mode(&args);
        return;
    }
    // Resolve and install the cache configuration *before* the plan is
    // built — building it compiles the matrix's artifacts through the
    // process-wide store.
    let cache_dir = resolve_cache_dir(args.cache_dir.clone(), args.no_cache);
    init_artifact_store(cache_dir.clone());
    let (mut uncached_plan, configs, worlds) = report_matrix_plan(args.quick);
    if args.replicate_factor > 1 {
        let replicates = uncached_plan.shape().replicates * args.replicate_factor;
        uncached_plan = uncached_plan.replicates(replicates);
    }
    let plan = match &cache_dir {
        Some(dir) => uncached_plan.clone().with_cache_dir(dir),
        None => uncached_plan.clone(),
    };

    if args.analyze {
        let findings = verify_diversity_gate(&configs);
        if findings > 0 {
            eprintln!(
                "refusing to run campaign cells: {findings} static diversity finding(s) — \
                 fix the transform before measuring the deployment"
            );
            std::process::exit(EXIT_ANALYSIS_FINDINGS);
        }
        println!();
    }

    if let Some((index, count)) = args.shard {
        run_shard_mode(
            &plan,
            index,
            count,
            args.workers,
            args.out.as_deref().unwrap(),
        );
        return;
    }
    if !args.merge.is_empty() {
        // Merge mode validates without executing cells; its opt-in
        // --verify-rerun is the *independent* recomputation cross-check, so
        // it runs on the uncached plan — a poisoned cache cannot vouch for
        // itself.
        run_merge_mode(
            &uncached_plan,
            &args.merge,
            args.workers,
            args.verify_rerun,
            args.surface,
            args.surface_out.as_deref(),
        );
        return;
    }

    let attack_count = nvariant_apps::Attack::all().len();
    println!(
        "Campaign sweep: {} configurations x {} worlds x (2 benign workloads + {} attacks), \
         {} cells total, {} worker(s)",
        configs.len(),
        worlds.len(),
        attack_count,
        plan.cells().len(),
        args.workers
    );
    println!("==========================================================================\n");

    let report = plan.run(args.workers);
    println!("{}", per_cell_table(&report, &configs));
    println!("{}", report.render_summary());
    print_artifact_store_stats();
    if args.surface {
        emit_surface(&report.fold_aggregator(), args.surface_out.as_deref());
    }

    if let Some(file) = &args.canonical_out {
        if let Err(error) = std::fs::write(file, report.canonical_text()) {
            eprintln!("cannot write canonical report {}: {error}", file.display());
            std::process::exit(1);
        }
        println!("Wrote canonical report to {}", file.display());
    }

    let mismatches = report.verdict_mismatches();
    if !mismatches.is_empty() {
        println!("VERDICT MISMATCHES:");
        for cell in &mismatches {
            println!("  {}", cell.canonical_line());
        }
    }

    // The determinism contract, part 1: the same plan at 1 worker must
    // produce byte-identical canonical output. (With caching enabled this
    // re-run is served from the cache the first run just wrote, so the
    // byte-identity assertion doubles as a cache-correctness check: a hit
    // must reproduce the cold cell exactly.)
    let serial = plan.run(1);
    let deterministic = serial.canonical_text() == report.canonical_text();
    println!(
        "Determinism check ({} workers vs 1): {}",
        args.workers,
        if deterministic {
            "identical per-cell outcomes"
        } else {
            "MISMATCH"
        }
    );

    // Part 2: an in-process shard + merge round trip (through the shard
    // interchange text format, exactly what separate processes exchange)
    // must reassemble the same bytes.
    let shard_texts: Vec<String> = (0..3)
        .map(|index| plan.run_shard(index, 3, args.workers).to_shard_text())
        .collect();
    let reparsed: Vec<CampaignReport> = shard_texts
        .iter()
        .map(|text| CampaignReport::from_shard_text(text).expect("own shard text parses"))
        .collect();
    let merged = CampaignReport::merge(reparsed).expect("own shards merge");
    let shard_deterministic = merged.canonical_text() == report.canonical_text();
    println!(
        "Shard determinism check (3 shards, codec round trip): {}",
        if shard_deterministic {
            "byte-identical canonical reports"
        } else {
            "MISMATCH"
        }
    );

    measure_build_once_speedup();

    if !deterministic || !shard_deterministic || !mismatches.is_empty() {
        std::process::exit(1);
    }
}
