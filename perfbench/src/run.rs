//! One benchmark run: set up, measure one workload in a closed loop, check
//! every output, and gather the metrics.
//!
//! Untraced runs report the end-to-end metrics. Traced runs alternate
//! untraced and traced passes of the workload (their rate ratio is the
//! tracing overhead), add one traced pass of each other path so that every
//! layer is measured, and report the per-layer metrics.

use crate::passes::{self, cells_digest, check_targets, LineDigest, Pass, Work};
use crate::pins::{self, DEFAULT_SEED};
use crate::setup::{self, Matrix, SetupTimes};
use crate::stats::{self, median, ms, ratio, tail_percentile, us};
use crate::trace::{self, Span, Tracer};
use crate::traced::{self, TracedPass};
use nvariant_campaign::CampaignPlan;
use nvariant_check::{CheckTarget, Property};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run, whose median is `setup_s`.
pub const SETUPS: usize = 9;
/// Set-ups per matrix-warm run, each with its own cache fill.
pub const WARM_SETUPS: usize = 5;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The full matrix, every cell executed into a fresh cell cache.
    MatrixCold,
    /// The full matrix, every cell served from a filled cell cache.
    MatrixWarm,
    /// P1–P3 over the paper configurations and check worlds.
    ModelCheck,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::MatrixCold,
        Workload::MatrixWarm,
        Workload::ModelCheck,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixCold => "matrix-cold",
            Workload::MatrixWarm => "matrix-warm",
            Workload::ModelCheck => "model-check",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed (the matrix plan's base seed).
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Worker threads of the matrix passes.
    pub workers: usize,
    /// Passes to measure at least, however short `seconds` is.
    pub min_passes: usize,
    /// Directory for caches, shard files and the span dump.
    pub work_dir: PathBuf,
}

impl Options {
    /// Defaults: the default seed, 10 seconds, untraced, one worker per
    /// core, at least 3 passes.
    #[must_use]
    pub fn new(workload: Workload, work_dir: impl Into<PathBuf>) -> Self {
        Options {
            workload,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            min_passes: 3,
            work_dir: work_dir.into(),
        }
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every output was checked and correct.
    pub correct: bool,
    /// Units (cells or checker targets) attempted.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// The metrics: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: samples, set-up split, where the time went.
    pub notes: Vec<String>,
    /// Every failed check.
    pub errors: Vec<String>,
}

impl Report {
    /// Failed over attempted units.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|metric| {
                // JSON has no NaN or infinity; a run producing one is not
                // correct anyway.
                let value = if metric.value.is_finite() {
                    metric.value
                } else {
                    0.0
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    metric.name, metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set size of this process, from `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so that the next workload
/// run in this process reports its own peak. Best effort: where the kernel
/// refuses, the peak stays that of the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs `pass` in a closed loop — the next pass starts when the last ends —
/// until `budget` has passed and at least `min` passes ran.
fn closed_loop<T>(
    budget: Duration,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut done = Vec::new();
    while done.len() < min.max(1) || started.elapsed() < budget {
        done.push(pass(done.len())?);
    }
    Ok(done)
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs `options` in a fresh directory under its work directory, which is
/// removed afterwards; only the span dump of a traced run stays.
///
/// # Errors
///
/// Fails when set-up fails or a pass cannot run at all; wrong outputs are
/// reported in [`Report::errors`] instead.
pub fn run(options: &Options) -> Result<Report, String> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    // The crates' own entry points that the checks call compile through the
    // process-wide artifact store; keep it in memory, whatever the
    // environment says, so the run writes nowhere but its work directory.
    nvariant_apps::scenarios::init_artifact_store(None);
    let dir = options.work_dir.join(format!(
        "run-{}-{}-{}",
        options.workload.name(),
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    remove(&dir);
    std::fs::create_dir_all(&dir).map_err(|error| format!("{}: {error}", dir.display()))?;
    let result = Run::new(options, &dir).and_then(Run::finish);
    remove(&dir);
    result
}

/// The state of one run between its phases.
struct Run<'a> {
    options: &'a Options,
    dir: &'a Path,
    tracer: Tracer,
    spans: Vec<Span>,
    setups: Vec<SetupTimes>,
    fill_digest: Option<u64>,
    matrix: Matrix,
    plan: CampaignPlan,
    /// The plan served from the set-up's cache fill (matrix-warm).
    warm_plan: CampaignPlan,
    targets: Vec<(Property, CheckTarget)>,
    errors: Vec<String>,
}

impl<'a> Run<'a> {
    fn new(options: &'a Options, dir: &'a Path) -> Result<Self, String> {
        let tracer = Tracer::new();
        let mut spans = Vec::new();
        let artifacts = dir.join("artifacts");
        setup::prime_artifacts(&artifacts)?;
        let warm = options.workload == Workload::MatrixWarm;
        let count = if warm { WARM_SETUPS } else { SETUPS };
        let mut setups = Vec::with_capacity(count);
        let mut last = None;
        for index in 0..count {
            let fill_dir = dir.join(format!("fill-{index}"));
            let fill = warm.then_some((fill_dir.as_path(), options.seed, options.workers));
            let done = setup::set_up(&artifacts, fill, &tracer, &mut spans)?;
            if index > 0 {
                remove(&dir.join(format!("fill-{}", index - 1)));
            }
            setups.push(done.times);
            last = Some(done);
        }
        let last = last.expect("at least one set-up ran");
        let plan = last.matrix.plan(options.seed);
        let warm_plan = plan
            .clone()
            .with_cache_dir(dir.join(format!("fill-{}", count - 1)));
        let targets = check_targets(&last.matrix);
        Ok(Run {
            options,
            dir,
            tracer,
            spans,
            setups,
            fill_digest: last.fill_digest,
            matrix: last.matrix,
            plan,
            warm_plan,
            targets,
            errors: Vec::new(),
        })
    }

    fn untraced_pass(&self) -> Result<Pass, String> {
        match self.options.workload {
            Workload::MatrixCold => {
                let dir = self.dir.join("cold");
                let pass = passes::cold_pass(&self.plan, &dir, self.options.workers);
                remove(&dir);
                pass
            }
            Workload::MatrixWarm => passes::warm_pass(&self.warm_plan, self.options.workers),
            Workload::ModelCheck => Ok(passes::check_sweep(&self.targets)),
        }
    }

    fn traced_pass(&self) -> Result<TracedPass, String> {
        match self.options.workload {
            Workload::MatrixCold => self.traced_cold(),
            Workload::MatrixWarm => {
                traced::traced_warm_pass(&self.warm_plan, self.options.workers, &self.tracer)
            }
            Workload::ModelCheck => Ok(traced::traced_check_sweep(&self.targets, &self.tracer)),
        }
    }

    fn traced_cold(&self) -> Result<TracedPass, String> {
        let dir = self.dir.join("traced-cold");
        remove(&dir);
        traced::traced_cold_pass(
            &self.matrix,
            &self.plan,
            &dir,
            self.options.workers,
            &self.tracer,
        )
    }

    fn check(&mut self, ok: bool, error: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(error());
        }
    }

    /// The checks every pass of the workload must pass, against its first.
    fn check_passes(&mut self, passes: &[Pass]) {
        let first = &passes[0];
        for (index, pass) in passes.iter().enumerate().skip(1) {
            self.check(
                pass.digest == first.digest && pass.work == first.work,
                || format!("pass {index} differs from pass 0"),
            );
        }
        let work = first.work;
        match self.options.workload {
            Workload::MatrixCold | Workload::MatrixWarm => {
                self.check(
                    work.units == pins::matrix::CELLS && work.judged == pins::matrix::JUDGED,
                    || format!("{} cells, {} judged", work.units, work.judged),
                );
                let (reference, _, _) = nvariant_apps::campaigns::report_matrix_plan(false);
                let hash = reference.seed(self.options.seed).plan_hash();
                self.check(hash == self.plan.plan_hash(), || {
                    "the benchmark plan is not report_matrix_plan(false)".to_string()
                });
                if self.options.seed == DEFAULT_SEED {
                    let pinned = (
                        pins::matrix::DIGEST,
                        pins::matrix::INSTRUCTIONS,
                        pins::matrix::SYSCALLS,
                        pins::matrix::CHECKS,
                        pins::matrix::IO_BYTES,
                    );
                    let seen = (
                        first.digest,
                        work.instructions,
                        work.syscalls,
                        work.checks,
                        work.io_bytes,
                    );
                    self.check(seen == pinned, || {
                        format!("matrix drifted from its pins: (digest, instructions, syscalls, checks, io bytes) = {seen:#x?}")
                    });
                }
            }
            Workload::ModelCheck => {
                let pinned = (
                    pins::check::DIGEST,
                    pins::check::TARGETS,
                    pins::check::STATES_VISITED,
                    pins::check::STATES_PRUNED,
                    pins::check::TERMINAL_RUNS,
                );
                let seen = (
                    first.digest,
                    work.units,
                    work.states_visited,
                    work.states_pruned,
                    work.terminal_runs,
                );
                self.check(seen == pinned, || {
                    format!("checker drifted from its pins: (digest, targets, visited, pruned, terminal) = {seen:#x?}")
                });
            }
        }
    }

    /// Checks that hold at any seed: the same output from one worker as
    /// from the pool, and from the crates' own entry points.
    fn check_reference(&mut self, digest: u64) -> Result<(), String> {
        match self.options.workload {
            Workload::MatrixCold => {
                let serial = cells_digest(&self.plan.run(1).cells);
                self.check(serial == digest, || {
                    "one worker and the pool disagree".to_string()
                });
            }
            Workload::MatrixWarm => {
                let serial = passes::warm_pass(&self.warm_plan, 1)?.digest;
                self.check(serial == digest, || {
                    "one worker and the pool disagree".to_string()
                });
                let fill = self.fill_digest;
                self.check(fill == Some(digest), || {
                    "cache hits differ from the cells that filled the cache".to_string()
                });
            }
            Workload::ModelCheck => {
                let mut direct = LineDigest::default();
                for property in Property::all() {
                    for report in nvariant_apps::check_paper_matrix(property, passes::CHECK_DEPTH) {
                        direct.push(&report.summary_line());
                    }
                }
                self.check(direct.finish() == digest, || {
                    "the sweep differs from check_paper_matrix".to_string()
                });
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Report, String> {
        let options = self.options;
        let budget = Duration::from_secs_f64(options.seconds.max(0.0));
        // A traced run alternates untraced and traced passes, so a drift in
        // machine speed during the run hits both sides alike.
        let (passes, own): (Vec<Pass>, Vec<TracedPass>) = if options.trace {
            closed_loop(budget, options.min_passes, |_| {
                Ok((self.untraced_pass()?, self.traced_pass()?))
            })?
            .into_iter()
            .unzip()
        } else {
            let passes = closed_loop(budget, options.min_passes, |_| self.untraced_pass())?;
            (passes, Vec::new())
        };
        self.check_passes(&passes);
        self.check_reference(passes[0].digest)?;
        let mut attempted: u64 = passes.iter().map(|pass| pass.work.units).sum();
        let mut failed: u64 = passes.iter().map(|pass| pass.failed_units).sum();
        let mut notes = vec![format!(
            "setup medians over {} set-ups: compile {:.3} ms, analyze {:.3} ms, artifact load {:.3} ms, provision {:.3} ms, cache fill {:.3} ms",
            self.setups.len(),
            self.setup_median(|t| t.compile),
            self.setup_median(|t| t.analyze),
            self.setup_median(|t| t.artifact_load),
            self.setup_median(|t| t.provision),
            self.setup_median(|t| t.cache_fill),
        )];

        let metrics = if options.trace {
            let layers = self.traced_layers(&passes, own, &mut notes)?;
            for pass in layers.all() {
                attempted += pass.work.units;
                failed += pass.failed_units;
            }
            self.layer_metrics(&passes, &layers, &mut notes)
        } else {
            self.end_to_end(&passes, &mut notes)?
        };

        if !self.errors.is_empty() {
            failed = attempted;
        }
        notes.push(format!(
            "failed_ratio {} ({failed} of {attempted} units)",
            ratio(failed as f64, attempted as f64)
        ));
        Ok(Report {
            correct: self.errors.is_empty() && failed == 0,
            attempted,
            failed,
            metrics,
            notes,
            errors: self.errors,
        })
    }

    fn setup_median(&self, step: impl Fn(&SetupTimes) -> Duration) -> f64 {
        let samples: Vec<f64> = self.setups.iter().map(|t| ms(step(t))).collect();
        median(&samples).unwrap_or_default()
    }

    fn end_to_end(&self, passes: &[Pass], notes: &mut Vec<String>) -> Result<Vec<Metric>, String> {
        let walls: Vec<f64> = passes.iter().map(|pass| ms(pass.wall)).collect();
        let verdict_ms = median(&walls).unwrap_or_default();
        let units = passes[0].work.units as f64;
        let pass_ms =
            |pass: &Pass| -> Vec<f64> { pass.unit_walls.iter().map(|w| ms(*w)).collect() };
        // The median over passes of each pass's median: pooled, the median
        // of a checker sweep's 24 targets would sit on the gap between its
        // 12 fast and 12 slow targets and read that gap's noisiest edge.
        let pass_medians: Vec<f64> = passes
            .iter()
            .filter_map(|pass| median(&pass_ms(pass)))
            .collect();
        let p50 = median(&pass_medians).unwrap_or_default();
        let unit_ms: Vec<f64> = passes.iter().flat_map(pass_ms).collect();
        let p99 = tail_percentile(&unit_ms, 99.0)
            .ok_or_else(|| format!("{} unit walls are too few for a tail", unit_ms.len()))?;
        let setup_s = self.setup_median(SetupTimes::total) / 1e3;
        let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        let quartile = |p: f64| stats::percentile(&walls, p).unwrap_or_default();
        notes.push(format!(
            "{} passes of {units} units, pass wall ms min {:.3} p25 {:.3} p50 {:.3} p75 {:.3} max {:.3}; unit walls: {} samples, tail at p{:.2}",
            passes.len(),
            quartile(0.0),
            quartile(25.0),
            quartile(50.0),
            quartile(75.0),
            quartile(100.0),
            p99.samples,
            p99.percentile
        ));
        Ok(vec![
            metric("cells_per_s", units / (verdict_ms / 1e3), "1/s"),
            metric("cell_p50_ms", p50, "ms"),
            metric("cell_p99_ms", p99.value, "ms"),
            metric("verdict_ms", verdict_ms, "ms"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", rss, "MB"),
        ])
    }

    /// The traced side of a traced run: the workload's own traced passes
    /// (`own`), then one traced pass of each path it does not take, then the
    /// clone probes. Every traced digest must equal its untraced reference.
    fn traced_layers(
        &mut self,
        passes: &[Pass],
        own: Vec<TracedPass>,
        notes: &mut Vec<String>,
    ) -> Result<Layers, String> {
        let workload = self.options.workload;
        let mut layers = Layers::default();
        let untraced_wall = median(&passes.iter().map(|p| ms(p.wall)).collect::<Vec<_>>());
        let traced_wall = median(&own.iter().map(|p| ms(p.wall)).collect::<Vec<_>>());
        layers.rate_ratio = ratio(
            untraced_wall.unwrap_or_default(),
            traced_wall.unwrap_or_default(),
        );
        notes.extend(where_the_time_went(workload, &own));
        match workload {
            Workload::MatrixCold => layers.cold = own,
            Workload::MatrixWarm => layers.warm = own,
            Workload::ModelCheck => layers.check = own,
        }
        if layers.cold.is_empty() {
            layers.cold.push(self.traced_cold()?);
        }
        if layers.warm.is_empty() {
            let plan = self
                .plan
                .clone()
                .with_cache_dir(self.dir.join("traced-cold").join("cache"));
            layers.warm.push(traced::traced_warm_pass(
                &plan,
                self.options.workers,
                &self.tracer,
            )?);
        }
        if layers.check.is_empty() {
            layers
                .check
                .push(traced::traced_check_sweep(&self.targets, &self.tracer));
        }

        let matrix_reference = match workload {
            Workload::MatrixCold | Workload::MatrixWarm => passes[0].digest,
            Workload::ModelCheck => cells_digest(&self.plan.run(self.options.workers).cells),
        };
        let check_reference = match workload {
            Workload::ModelCheck => passes[0].digest,
            _ => passes::check_sweep(&self.targets).digest,
        };
        let traced_ok = layers
            .cold
            .iter()
            .chain(&layers.warm)
            .all(|p| p.digest == matrix_reference)
            && layers.check.iter().all(|p| p.digest == check_reference);
        self.check(traced_ok, || {
            "a traced pass differs from the untraced program".to_string()
        });

        let mut spans = std::mem::take(&mut self.spans);
        for pass in layers
            .cold
            .iter_mut()
            .chain(&mut layers.warm)
            .chain(&mut layers.check)
        {
            spans.append(&mut pass.spans);
        }
        spans.extend(traced::probe_clones(&self.matrix, &self.tracer));
        let dump = self
            .options
            .work_dir
            .join(format!("spans-{}.tsv", workload.name()));
        trace::write_tsv(&dump, &spans).map_err(|error| format!("{}: {error}", dump.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            dump.display()
        ));
        layers.spans = spans;
        Ok(layers)
    }

    fn layer_metrics(
        &self,
        passes: &[Pass],
        layers: &Layers,
        notes: &mut Vec<String>,
    ) -> Vec<Metric> {
        let spans = &layers.spans;
        let each = |name: &str| -> Vec<f64> { trace::durations(spans, name).map(us).collect() };
        let total = |name: &str| -> Duration { trace::durations(spans, name).sum() };
        let mean_us = |name: &str| stats::mean(&each(name));
        let cold = &layers.cold;
        let first_cold = cold[0].work;
        let cold_work: Work = sum_work(cold);
        let rounds = each("monitor.round");
        let round_p99 = tail_percentile(&rounds, 99.0).map_or(0.0, |p| p.value);
        let single: u64 = cold.iter().map(|p| p.single_instructions).sum();
        let stepping = total("vm.run") + total("monitor.round");
        let cold_wall: Duration = cold.iter().map(|p| p.wall).sum();
        let lookups = (layers.warm.len() * self.plan.shape().cell_count()) as u64;
        let hits: u64 = layers.warm.iter().map(|p| p.hits).sum();
        let check = layers.check[0].work;
        let check_work = sum_work(&layers.check);

        let compile = self.setup_median(|t| t.compile);
        let load = self.setup_median(|t| t.artifact_load);
        let cell_time = total("campaign.cell");
        notes.push(format!(
            "roadmap estimates: stepping (vm.run + monitor.round) {:.1}% of cell time, instantiate {:.1}%; artifact load {:.3} ms vs compile {:.3} ms per configuration",
            100.0 * ratio(stepping.as_secs_f64(), cell_time.as_secs_f64()),
            100.0 * ratio(total("core.instantiate").as_secs_f64(), cell_time.as_secs_f64()),
            load / self.matrix.configs.len() as f64,
            compile / self.matrix.configs.len() as f64,
        ));
        notes.push(format!(
            "trace.rate_ratio {:.4}: traced over untraced {} rate ({} untraced passes)",
            layers.rate_ratio,
            self.options.workload.name(),
            passes.len()
        ));

        vec![
            metric("core.compile_ms", compile, "ms"),
            metric("analyze.verify_ms", self.setup_median(|t| t.analyze), "ms"),
            metric(
                "core.provision_ms",
                self.setup_median(|t| t.provision),
                "ms",
            ),
            metric("core.artifact_load_ms", load, "ms"),
            metric(
                "core.instantiate_p50_us",
                median(&each("core.instantiate")).unwrap_or_default(),
                "us",
            ),
            metric(
                "simos.world_clone_us",
                median(&each("simos.world_clone")).unwrap_or_default(),
                "us",
            ),
            metric("vm.instructions", first_cold.instructions as f64, "count"),
            metric(
                "vm.ns_per_instr",
                ratio(total("vm.run").as_secs_f64() * 1e9, single as f64),
                "ns",
            ),
            metric(
                "vm.sim_instr_per_s",
                ratio(cold_work.instructions as f64, stepping.as_secs_f64()),
                "1/s",
            ),
            metric("monitor.rounds", cold[0].rounds as f64, "count"),
            metric("monitor.checks", first_cold.checks as f64, "count"),
            metric("monitor.alarms", first_cold.alarms as f64, "count"),
            metric(
                "monitor.round_p50_us",
                median(&rounds).unwrap_or_default(),
                "us",
            ),
            metric("monitor.round_p99_us", round_p99, "us"),
            metric(
                "monitor.clone_us",
                median(&each("monitor.clone")).unwrap_or_default(),
                "us",
            ),
            metric("simos.syscalls", first_cold.syscalls as f64, "count"),
            metric("simos.io_bytes", first_cold.io_bytes as f64, "bytes"),
            metric("apps.request_gen_us", mean_us("apps.request_gen"), "us"),
            metric("apps.judge_us", mean_us("apps.judge"), "us"),
            metric(
                "apps.verdict_match_ratio",
                ratio(cold_work.matched as f64, cold_work.judged as f64),
                "ratio",
            ),
            metric("campaign.encode_us", mean_us("campaign.encode"), "us"),
            metric("campaign.encode_bytes", cold[0].bytes as f64, "bytes"),
            metric(
                "campaign.cache_insert_us",
                mean_us("campaign.cache_insert"),
                "us",
            ),
            metric(
                "campaign.cache_lookup_us",
                mean_us("campaign.cache_lookup"),
                "us",
            ),
            metric(
                "campaign.cache_hit_ratio",
                ratio(hits as f64, lookups as f64),
                "ratio",
            ),
            metric("campaign.absorb_ns", mean_us("campaign.absorb") * 1e3, "ns"),
            metric("campaign.render_us", mean_us("campaign.render"), "us"),
            metric(
                "campaign.merge_cell_us",
                mean_us("campaign.merge_cell"),
                "us",
            ),
            metric(
                "campaign.decode_bytes",
                layers.warm[0].bytes as f64,
                "bytes",
            ),
            metric(
                "campaign.worker_busy_ratio",
                stats::busy_ratio(cell_time, self.options.workers, cold_wall),
                "ratio",
            ),
            metric("check.states_visited", check.states_visited as f64, "count"),
            metric("check.states_pruned", check.states_pruned as f64, "count"),
            metric("check.terminal_runs", check.terminal_runs as f64, "count"),
            metric(
                "check.prune_ratio",
                ratio(check.states_pruned as f64, check.states_visited as f64),
                "ratio",
            ),
            metric("check.target_ms", mean_us("check.target") / 1e3, "ms"),
            metric(
                "check.states_per_s",
                ratio(
                    check_work.states_visited as f64,
                    total("check.target").as_secs_f64(),
                ),
                "1/s",
            ),
            metric("trace.rate_ratio", layers.rate_ratio, "ratio"),
        ]
    }
}

/// The traced passes of a traced run, by path.
#[derive(Default)]
struct Layers {
    cold: Vec<TracedPass>,
    warm: Vec<TracedPass>,
    check: Vec<TracedPass>,
    /// Every span of the run: set-up, traced passes and probes.
    spans: Vec<Span>,
    /// Traced over untraced units per second, for the run's workload.
    rate_ratio: f64,
}

impl Layers {
    fn all(&self) -> impl Iterator<Item = &TracedPass> {
        self.cold.iter().chain(&self.warm).chain(&self.check)
    }
}

fn sum_work(passes: &[TracedPass]) -> Work {
    let mut total = Work::default();
    for pass in passes {
        let work = pass.work;
        total.units += work.units;
        total.instructions += work.instructions;
        total.syscalls += work.syscalls;
        total.checks += work.checks;
        total.io_bytes += work.io_bytes;
        total.alarms += work.alarms;
        total.judged += work.judged;
        total.matched += work.matched;
        total.states_visited += work.states_visited;
        total.states_pruned += work.states_pruned;
        total.terminal_runs += work.terminal_runs;
    }
    total
}

/// Self-time shares per layer over the spans of `passes`, largest first.
fn where_the_time_went(workload: Workload, passes: &[TracedPass]) -> Vec<String> {
    let mut own: BTreeMap<&str, Duration> = BTreeMap::new();
    for pass in passes {
        for (name, time) in trace::self_times(&pass.spans) {
            *own.entry(name).or_default() += time;
        }
    }
    let total: Duration = own.values().sum();
    let mut rows: Vec<(&str, Duration)> = own.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    let mut lines = vec![format!(
        "where the time went in traced {} passes (self time, {:.1} ms over all threads):",
        workload.name(),
        ms(total)
    )];
    for (name, time) in rows {
        lines.push(format!(
            "  {name:<24} {:>6.2}%  {:>10.3} ms",
            100.0 * ratio(time.as_secs_f64(), total.as_secs_f64()),
            ms(time)
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_round_trip_their_names() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("matrix"), None);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let report = Report {
            correct: true,
            attempted: 200,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "verdict_ms",
                    value: 237.125,
                    unit: "ms",
                },
                Metric {
                    name: "cells_per_s",
                    value: f64::NAN,
                    unit: "1/s",
                },
            ],
            notes: Vec::new(),
            errors: Vec::new(),
        };
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 200, \"failed\": 0, \"metrics\": \
             {\"verdict_ms\": {\"value\": 237.125, \"unit\": \"ms\"}, \
             \"cells_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(report.metric("verdict_ms"), Some(237.125));
        assert_eq!(report.failed_ratio(), 0.0);
    }
}
