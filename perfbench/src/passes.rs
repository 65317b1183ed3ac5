//! The timed passes, run through the crates' own entry points with no
//! tracing: one pass is the unit a user waits for — a full matrix, cold or
//! from the cell cache, or a full P1–P3 checker sweep.

use crate::setup::Matrix;
use nvariant::DeploymentConfig;
use nvariant_apps::benign_request;
use nvariant_apps::checks::{check_worlds, httpd_attacker};
use nvariant_campaign::{
    run_parallel, CampaignPlan, CampaignReport, CellResult, ShardCursor, ShardHeader, ShardMerger,
    ShardWriter, StreamingAggregator,
};
use nvariant_check::{
    BoundedChecker, CheckReport, CheckRequest, CheckStatus, CheckTarget, Checker, Property,
};
use nvariant_types::{Fnv1a, Port};
use std::hint::black_box;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shards a cold pass splits the matrix into, as `campaignd` does.
pub const SHARDS: usize = 3;
/// The checker's depth bound.
pub const CHECK_DEPTH: usize = 48;

/// FNV-1a over newline-terminated lines: the digest of a canonical cell
/// stream (or a checker sweep's summary lines), with no plan header.
#[derive(Debug, Default)]
pub struct LineDigest {
    hasher: Fnv1a,
}

impl LineDigest {
    /// Adds one line.
    pub fn push(&mut self, line: &str) {
        self.hasher.write_str(line);
        self.hasher.write_str("\n");
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.hasher.finish()
    }
}

/// The digest of `cells`' canonical lines, in order.
#[must_use]
pub fn cells_digest<'a>(cells: impl IntoIterator<Item = &'a CellResult>) -> u64 {
    let mut digest = LineDigest::default();
    for cell in cells {
        digest.push(&cell.canonical_line());
    }
    digest.finish()
}

/// Deterministic work counted over one pass. Equal inputs give equal
/// counts on any machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Matrix cells or checker targets.
    pub units: u64,
    /// Simulated instructions, over every variant.
    pub instructions: u64,
    /// System calls (synchronisation points).
    pub syscalls: u64,
    /// Monitor equivalence checks.
    pub checks: u64,
    /// Bytes the simulated kernel moved.
    pub io_bytes: u64,
    /// Cells the monitor alarmed on.
    pub alarms: u64,
    /// Cells with a verdict.
    pub judged: u64,
    /// Judged cells that matched the paper's prediction.
    pub matched: u64,
    /// Checker states expanded.
    pub states_visited: u64,
    /// Checker branches cut as already explored.
    pub states_pruned: u64,
    /// Checker traces that reached termination.
    pub terminal_runs: u64,
}

impl Work {
    /// Counts one matrix cell.
    pub fn add_cell(&mut self, cell: &CellResult) {
        let metrics = &cell.outcome.metrics;
        self.units += 1;
        self.instructions += metrics.total_instructions;
        self.syscalls += metrics.syscalls;
        self.checks += metrics.monitor_checks;
        self.io_bytes += metrics.io_bytes;
        self.alarms += u64::from(cell.outcome.detected_attack());
        if let Some(verdict) = &cell.verdict {
            self.judged += 1;
            self.matched += u64::from(verdict.matches());
        }
    }

    /// Counts one checker target.
    pub fn add_check(&mut self, report: &CheckReport) {
        self.units += 1;
        self.states_visited += report.stats.states_visited;
        self.states_pruned += report.stats.states_pruned;
        self.terminal_runs += report.stats.terminal_runs;
    }

    /// Units that failed: judged cells off the prediction.
    #[must_use]
    pub fn mismatches(&self) -> u64 {
        self.judged - self.matched
    }
}

/// One finished pass.
#[derive(Clone, Debug)]
pub struct Pass {
    /// What the user waited for.
    pub wall: Duration,
    /// Digest of the pass's canonical output lines.
    pub digest: u64,
    /// Work done.
    pub work: Work,
    /// Per-unit walls: engine-recorded cell walls (cold), cache lookups
    /// (warm), `BoundedChecker::check` calls (model-check).
    pub unit_walls: Vec<Duration>,
    /// Units that failed: verdict mismatches, missing cells, checker FAIL
    /// or truncation.
    pub failed_units: u64,
}

/// Writes `cells` under `header` through a [`ShardWriter`] to `path`.
fn write_shard<'a>(
    path: &Path,
    header: &ShardHeader,
    cells: impl IntoIterator<Item = &'a CellResult>,
) -> Result<(), String> {
    let fail = |error: std::io::Error| format!("{}: {error}", path.display());
    let file = std::fs::File::create(path).map_err(fail)?;
    let mut writer = ShardWriter::new(BufWriter::new(file), header).map_err(fail)?;
    for cell in cells {
        writer.push(cell).map_err(fail)?;
    }
    writer.finish().map_err(fail)?;
    Ok(())
}

/// The shard header of an engine report.
fn report_header(report: &CampaignReport) -> ShardHeader {
    ShardHeader {
        name: report.name.clone(),
        base_seed: report.base_seed,
        plan_hash: report.plan_hash,
        shape: report.shape,
        workers: report.workers,
        total_wall: report.total_wall,
    }
}

/// Renders what a merged matrix reports: the summary and the surface.
pub fn render(aggregator: &StreamingAggregator) {
    black_box(aggregator.render_summary());
    black_box(aggregator.render_surface());
}

/// A merged matrix: its aggregator, digest and work.
struct Merged {
    aggregator: StreamingAggregator,
    digest: u64,
    work: Work,
}

/// K-way merges shard `files` into a fresh [`StreamingAggregator`].
fn merge_shards(files: &[PathBuf]) -> Result<Merged, String> {
    let cursors = files
        .iter()
        .map(|file| ShardCursor::open(file).map_err(|error| error.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut merger = ShardMerger::new(cursors).map_err(|error| error.to_string())?;
    let mut aggregator = StreamingAggregator::from_header(merger.header());
    let mut digest = LineDigest::default();
    let mut work = Work::default();
    while let Some(cell) = merger.next_cell().map_err(|error| error.to_string())? {
        aggregator.absorb(&cell);
        digest.push(&cell.canonical_line());
        work.add_cell(&cell);
    }
    Ok(Merged {
        aggregator,
        digest: digest.finish(),
        work,
    })
}

/// One cold pass, the way `campaignd` runs the matrix in one process: the
/// plan in [`SHARDS`] shards on `workers` threads with a fresh cell cache
/// under `dir` (every cell a miss, then an insert), each shard streamed to
/// a file, the files merged into a [`StreamingAggregator`], and the summary
/// and surface rendered.
///
/// # Errors
///
/// Fails on an I/O error, a merge error or a cache that was not cold.
pub fn cold_pass(plan: &CampaignPlan, dir: &Path, workers: usize) -> Result<Pass, String> {
    std::fs::create_dir_all(dir).map_err(|error| format!("{}: {error}", dir.display()))?;
    let plan = plan.clone().with_cache_dir(dir.join("cache"));
    let started = Instant::now();
    let mut unit_walls = Vec::new();
    let mut files = Vec::with_capacity(SHARDS);
    let mut misses = 0;
    for index in 0..SHARDS {
        let report = plan.run_shard(index, SHARDS, workers);
        let path = dir.join(format!("shard-{index}.txt"));
        write_shard(&path, &report_header(&report), &report.cells)?;
        unit_walls.extend(report.cells.iter().map(|cell| cell.wall));
        misses += report.cache.map_or(0, |stats| stats.misses);
        files.push(path);
    }
    let merged = merge_shards(&files)?;
    render(&merged.aggregator);
    let wall = started.elapsed();
    if misses != merged.work.units {
        return Err(format!(
            "cold pass: {misses} cache misses for {} cells",
            merged.work.units
        ));
    }
    Ok(Pass {
        wall,
        digest: merged.digest,
        work: merged.work,
        unit_walls,
        failed_units: merged.work.mismatches() + missing(&plan, merged.work.units),
    })
}

/// Plan cells a pass did not produce.
fn missing(plan: &CampaignPlan, produced: u64) -> u64 {
    (plan.shape().cell_count() as u64).saturating_sub(produced)
}

/// One warm pass: every cell of `plan` (which must carry a filled cache
/// directory) looked up in the cell cache on `workers` threads, then
/// folded into a [`StreamingAggregator`] and rendered.
///
/// # Errors
///
/// Fails if `plan` has no cache directory.
pub fn warm_pass(plan: &CampaignPlan, workers: usize) -> Result<Pass, String> {
    let cache = plan
        .cell_cache()
        .ok_or("warm pass: the plan has no cache directory")?;
    let started = Instant::now();
    let lookups = run_parallel(plan.cells(), workers, |_, spec| {
        let looked_up = Instant::now();
        let hit = cache.lookup(&spec);
        (hit, looked_up.elapsed())
    });
    let mut aggregator = StreamingAggregator::new(
        plan.name(),
        plan.base_seed(),
        plan.plan_hash(),
        plan.shape(),
    );
    aggregator.set_workers(workers);
    let mut digest = LineDigest::default();
    let mut work = Work::default();
    let mut unit_walls = Vec::with_capacity(lookups.len());
    for (hit, wall) in &lookups {
        unit_walls.push(*wall);
        if let Some(cell) = hit {
            aggregator.absorb(cell);
            digest.push(&cell.canonical_line());
            work.add_cell(cell);
        }
    }
    aggregator.set_cache(Some(cache.stats()));
    render(&aggregator);
    let wall = started.elapsed();
    Ok(Pass {
        wall,
        digest: digest.finish(),
        work,
        unit_walls,
        failed_units: work.mismatches() + missing(plan, work.units),
    })
}

/// The targets of `check_paper_matrix` for every property, in its order
/// (property, then paper configuration, then check world), over the
/// matrix's own artifacts.
///
/// # Panics
///
/// Panics if the matrix lacks a paper configuration.
#[must_use]
pub fn check_targets(matrix: &Matrix) -> Vec<(Property, CheckTarget)> {
    let mut targets = Vec::new();
    for property in Property::all() {
        for config in DeploymentConfig::paper_configurations() {
            let index = matrix
                .configs
                .iter()
                .position(|swept| *swept == config)
                .expect("the security sweep holds every paper configuration");
            for world in check_worlds() {
                targets.push((
                    property,
                    CheckTarget {
                        system: matrix.compiled[index].clone(),
                        world,
                        config_label: config.label(),
                        requests: vec![benign_request("/index.html")],
                        port: Port::HTTP,
                        attacker: httpd_attacker(&config),
                    },
                ));
            }
        }
    }
    targets
}

/// Whether a checker report fails the sweep.
#[must_use]
pub fn check_failed(report: &CheckReport) -> bool {
    report.status == CheckStatus::Fail || report.stats.truncated
}

/// One model-check pass: every target checked at [`CHECK_DEPTH`] on the
/// calling thread.
#[must_use]
pub fn check_sweep(targets: &[(Property, CheckTarget)]) -> Pass {
    let started = Instant::now();
    let mut digest = LineDigest::default();
    let mut work = Work::default();
    let mut unit_walls = Vec::with_capacity(targets.len());
    let mut failed_units = 0;
    for (property, target) in targets {
        let checked = Instant::now();
        let report = BoundedChecker.check(target, &CheckRequest::new(*property, CHECK_DEPTH));
        unit_walls.push(checked.elapsed());
        digest.push(&report.summary_line());
        work.add_check(&report);
        failed_units += u64::from(check_failed(&report));
    }
    Pass {
        wall: started.elapsed(),
        digest: digest.finish(),
        work,
        unit_walls,
        failed_units,
    }
}
