//! The `Fleet` scheduler: shard assignment over a host pool, per-host
//! attempt/health accounting with consecutive-failure quarantine and
//! re-admission, warm serving from the shared cell cache, fault injection
//! for tests, and the lockstep cross-check of retrieved shards against the
//! cache.
//!
//! The scheduler is written entirely against
//! [`WorkerTransport`](crate::WorkerTransport), so the same supervision
//! loop drives local child processes and command-prefix (ssh-style)
//! fleets. Elasticity comes from the shared cache, not from the scheduler:
//! a host only ever executes cells nobody has computed yet, because fully
//! cached shards are served warm by the coordinator (file reads, no worker)
//! and workers themselves skip cached cells via `--cache-dir`.

use std::collections::BTreeSet;
use std::fmt;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nvariant_campaign::{CacheStats, CampaignPlan, ShardCursor};

use crate::divergence::Divergence;
use crate::transport::{ShardAssignment, WorkerHandle, WorkerStatus, WorkerTransport};

/// Tuning and fault-injection knobs for one fleet run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of shards the plan is split into (one worker per shard
    /// attempt).
    pub shards: usize,
    /// Per-shard attempt cap; a shard that exhausts it fails the run.
    pub attempts: usize,
    /// Per-attempt wall budget; a worker over budget is killed and the
    /// shard retried.
    pub timeout: Duration,
    /// A host is quarantined after this many *consecutive* failures; a
    /// success resets the count. Quarantined hosts receive no new work
    /// until re-admitted (which happens only when no healthy host
    /// remains).
    pub quarantine_after: usize,
    /// Fault injection: these shards' first attempts are killed right
    /// after spawn, exercising retry, host-failure accounting and (with a
    /// populated cache) warm recovery.
    pub kill_shards: BTreeSet<usize>,
    /// Fault injection: these shards' first retrieved files are corrupted
    /// in transit (one metrics counter bumped — the file stays parseable
    /// and the cell set intact, so only the divergence cross-check can
    /// catch it).
    pub corrupt_shards: BTreeSet<usize>,
    /// Supervision loop sleep between polls.
    pub poll_interval: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 3,
            attempts: 3,
            timeout: Duration::from_mins(10),
            quarantine_after: 2,
            kill_shards: BTreeSet::new(),
            corrupt_shards: BTreeSet::new(),
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// End-of-run health accounting for one host of the pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostStats {
    /// The host's name as configured in the pool.
    pub name: String,
    /// Worker attempts started on this host.
    pub attempts: usize,
    /// Attempts that produced a valid, collected shard.
    pub successes: usize,
    /// Attempts that failed (crash, timeout, unusable file).
    pub failures: usize,
    /// How many times the host entered quarantine.
    pub quarantines: usize,
    /// Whether the host ended the run quarantined.
    pub quarantined: bool,
}

impl fmt::Display for HostStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host {}: {} attempt(s), {} succeeded, {} failed, {} quarantine(s), {}",
            self.name,
            self.attempts,
            self.successes,
            self.failures,
            self.quarantines,
            if self.quarantined {
                "quarantined at end of run"
            } else {
                "healthy at end of run"
            }
        )
    }
}

/// Why a fleet run failed. The two variants map to two of `campaignd`'s
/// distinct failure exit codes.
#[derive(Debug)]
pub enum FleetError {
    /// A shard used up its attempt cap without producing a valid shard
    /// file.
    Exhausted {
        /// The exhausted shard.
        shard: usize,
        /// The attempt cap it hit.
        attempts: usize,
        /// Why each attempt failed, in order.
        failures: Vec<String>,
    },
    /// A retrieved shard is a *valid* report that disagrees with the
    /// authoritative result (shared cache or verification re-run): a data
    /// integrity failure, never retried.
    Divergence {
        /// The shard whose retrieved report diverged, if the disagreement
        /// was found during collection (`None` for whole-report checks).
        shard: Option<usize>,
        /// What the report disagreed with ("shared cell cache",
        /// "verification re-run").
        against: String,
        /// The first disagreement, with exact matrix coordinates (boxed to
        /// keep the `Err` variant small — the happy path returns `Ok`).
        divergence: Box<Divergence>,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Exhausted {
                shard,
                attempts,
                failures,
            } => write!(
                f,
                "shard {shard}: exhausted {attempts} attempt(s): {}",
                failures.join("; ")
            ),
            FleetError::Divergence {
                shard,
                against,
                divergence,
            } => {
                match shard {
                    Some(index) => write!(f, "shard {index}: ")?,
                    None => write!(f, "merged report: ")?,
                }
                writeln!(f, "retrieved result diverges from {against}:")?;
                write!(f, "{divergence}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// What a successful fleet run produced.
#[derive(Debug)]
pub struct FleetRun {
    /// The validated shard files, in shard order, ready for a streamed
    /// merge.
    pub spools: Vec<PathBuf>,
    /// The cell-cache counters of the shards served warm, when any were
    /// (the shard codec does not carry them).
    pub cache: Option<CacheStats>,
    /// Per-host health accounting, in pool order.
    pub hosts: Vec<HostStats>,
    /// Shards the coordinator served warm from the cell cache (no worker
    /// spawned).
    pub warm_shards: usize,
    /// Cells those warm shards covered.
    pub warm_cells: usize,
    /// Total retries across all shards.
    pub retries: usize,
}

impl FleetRun {
    /// The per-host stats block the coordinator prints at end of run.
    #[must_use]
    pub fn render_host_summary(&self) -> String {
        let mut out = String::from("per-host stats:\n");
        for host in &self.hosts {
            out.push_str(&format!("  {host}\n"));
        }
        out
    }
}

/// Deterministic in-transit corruption for fault injection: copies a shard
/// stream line by line, bumping the last counter of the first `metrics`
/// line, so the file stays parseable and its cell set intact — every
/// structural validation passes and only the divergence cross-check can
/// catch it.
fn corrupt_in_transit(reader: impl BufRead, writer: &mut impl Write) -> std::io::Result<()> {
    let mut done = false;
    for line in reader.lines() {
        let line = line?;
        if !done && line.starts_with("metrics ") {
            if let Some((head, last)) = line.rsplit_once(' ') {
                if let Ok(value) = last.parse::<u64>() {
                    writeln!(writer, "{head} {}", value + 1)?;
                    done = true;
                    continue;
                }
            }
        }
        writeln!(writer, "{line}")?;
    }
    Ok(())
}

/// Mutable health state for one host of the pool.
struct HostState {
    stats: HostStats,
    /// Failures since the last success; quarantine triggers on this.
    consecutive_failures: usize,
    /// Attempts currently running on this host.
    running: usize,
    /// When the host was quarantined (monotone counter), for
    /// oldest-first re-admission.
    quarantined_at: usize,
}

struct HostPool {
    states: Vec<HostState>,
    quarantine_after: usize,
    quarantine_seq: usize,
}

impl HostPool {
    fn new(names: &[String], quarantine_after: usize) -> Self {
        HostPool {
            states: names
                .iter()
                .map(|name| HostState {
                    stats: HostStats {
                        name: name.clone(),
                        attempts: 0,
                        successes: 0,
                        failures: 0,
                        quarantines: 0,
                        quarantined: false,
                    },
                    consecutive_failures: 0,
                    running: 0,
                    quarantined_at: 0,
                })
                .collect(),
            quarantine_after: quarantine_after.max(1),
            quarantine_seq: 0,
        }
    }

    fn name(&self, host: usize) -> &str {
        &self.states[host].stats.name
    }

    /// The healthy host with the fewest running attempts (ties broken by
    /// pool order). When every host is quarantined, the oldest-quarantined
    /// one is re-admitted — the pool never deadlocks; a host that failed
    /// its way out gets another chance only when nobody else is left.
    fn pick(&mut self, progress: &dyn Fn(&str)) -> usize {
        let healthy = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, state)| !state.stats.quarantined)
            .min_by_key(|(index, state)| (state.running, *index))
            .map(|(index, _)| index);
        if let Some(index) = healthy {
            return index;
        }
        let oldest = self
            .states
            .iter()
            .enumerate()
            .min_by_key(|(index, state)| (state.quarantined_at, *index))
            .map_or(0, |(index, _)| index);
        let state = &mut self.states[oldest];
        state.stats.quarantined = false;
        state.consecutive_failures = 0;
        progress(&format!(
            "host {}: re-admitted from quarantine (no healthy hosts remain)",
            state.stats.name
        ));
        oldest
    }

    fn attempt_started(&mut self, host: usize) {
        self.states[host].stats.attempts += 1;
        self.states[host].running += 1;
    }

    fn attempt_finished(&mut self, host: usize, success: bool, progress: &dyn Fn(&str)) {
        let quarantine_after = self.quarantine_after;
        let state = &mut self.states[host];
        state.running = state.running.saturating_sub(1);
        if success {
            state.stats.successes += 1;
            state.consecutive_failures = 0;
            return;
        }
        state.stats.failures += 1;
        state.consecutive_failures += 1;
        if state.consecutive_failures >= quarantine_after && !state.stats.quarantined {
            state.stats.quarantined = true;
            state.stats.quarantines += 1;
            self.quarantine_seq += 1;
            state.quarantined_at = self.quarantine_seq;
            progress(&format!(
                "host {}: quarantined after {} consecutive failure(s)",
                state.stats.name, state.consecutive_failures
            ));
        }
    }

    fn into_stats(self) -> Vec<HostStats> {
        self.states.into_iter().map(|state| state.stats).collect()
    }
}

/// One running worker attempt.
struct RunningAttempt {
    handle: Box<dyn WorkerHandle>,
    host: usize,
    started: Instant,
}

/// A validated shard sitting on disk, ready for the streamed merge.
struct CollectedShard {
    /// The validated spool file (shard interchange format).
    spool: PathBuf,
    /// Cells the shard covers (from the streaming validation walk).
    cells: usize,
    /// Cache counters to credit to the merged report (warm-served shards).
    cache: Option<CacheStats>,
}

/// The scheduler's bookkeeping for one shard of the plan.
struct ShardJob {
    index: usize,
    attempts_used: usize,
    running: Option<RunningAttempt>,
    collected: Option<CollectedShard>,
    failures: Vec<String>,
}

/// Why a retrieved shard was not collected: a retryable defect (counts
/// against the attempt cap) or an integrity failure that aborts the run.
enum CollectFailure {
    Retry(String),
    Abort(FleetError),
}

/// A campaign run over a host pool through a pluggable transport.
pub struct Fleet<'plan> {
    plan: &'plan CampaignPlan,
    transport: Box<dyn WorkerTransport>,
    hosts: Vec<String>,
    config: FleetConfig,
    worker_bin: PathBuf,
    worker_args: Vec<String>,
    scratch_dir: PathBuf,
    progress: Box<dyn Fn(&str)>,
}

impl<'plan> Fleet<'plan> {
    /// A fleet over `plan`, spawning `worker_bin` through `transport`,
    /// with shard files in `scratch_dir` (for transports that keep them
    /// coordinator-local). Defaults: one host named `local`, default
    /// [`FleetConfig`], no extra worker arguments, silent progress.
    #[must_use]
    pub fn new(
        plan: &'plan CampaignPlan,
        transport: Box<dyn WorkerTransport>,
        worker_bin: PathBuf,
        scratch_dir: PathBuf,
    ) -> Self {
        Fleet {
            plan,
            transport,
            hosts: vec!["local".to_string()],
            config: FleetConfig::default(),
            worker_bin,
            worker_args: Vec::new(),
            scratch_dir,
            progress: Box::new(|_| {}),
        }
    }

    /// Replaces the host pool (empty pools fall back to one `local` host).
    #[must_use]
    pub fn hosts(mut self, hosts: Vec<String>) -> Self {
        self.hosts = if hosts.is_empty() {
            vec!["local".to_string()]
        } else {
            hosts
        };
        self
    }

    /// Replaces the run configuration. A plan always runs as at least one
    /// shard, so a shard count of 0 means 1.
    #[must_use]
    pub fn config(mut self, config: FleetConfig) -> Self {
        self.config = FleetConfig {
            shards: config.shards.max(1),
            ..config
        };
        self
    }

    /// Extra arguments forwarded to every worker before `--shard`/`--out`
    /// (quick mode, worker threads, cache flags).
    #[must_use]
    pub fn worker_args(mut self, args: Vec<String>) -> Self {
        self.worker_args = args;
        self
    }

    /// Registers a progress sink (the coordinator's stdout; tests collect
    /// the lines).
    #[must_use]
    pub fn on_progress(mut self, progress: impl Fn(&str) + 'static) -> Self {
        self.progress = Box::new(progress);
        self
    }

    /// Runs the campaign: assigns shards to hosts, supervises and retries
    /// workers, serves cached shards warm, and returns the validated shard
    /// files for the caller to merge.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] when a shard exhausts its attempts or a
    /// retrieved shard diverges from the shared cache.
    pub fn run(&self) -> Result<FleetRun, FleetError> {
        let mut pool = HostPool::new(&self.hosts, self.config.quarantine_after);
        let mut warm_shards = 0_usize;
        let mut warm_cells = 0_usize;
        let mut jobs: Vec<ShardJob> = (0..self.config.shards)
            .map(|index| ShardJob {
                index,
                attempts_used: 0,
                running: None,
                collected: None,
                failures: Vec::new(),
            })
            .collect();
        for job in &mut jobs {
            self.start(job, &mut pool, &mut warm_shards, &mut warm_cells);
        }

        // The supervision loop: poll every running worker, respawn failed
        // shards while attempts remain, stop when every shard is collected
        // or some shard is exhausted. Divergence aborts immediately — it is
        // an integrity failure a retry cannot launder.
        loop {
            for job in &mut jobs {
                self.poll(job, &mut pool)?;
                if job.collected.is_none()
                    && job.running.is_none()
                    && job.attempts_used < self.config.attempts
                {
                    (self.progress)(&format!(
                        "shard {}: retrying (attempt {}): {}",
                        job.index,
                        job.attempts_used + 1,
                        job.failures.last().map_or("unknown failure", |f| f)
                    ));
                    self.start(job, &mut pool, &mut warm_shards, &mut warm_cells);
                }
            }
            if let Some(job) = jobs.iter().find(|job| {
                job.collected.is_none()
                    && job.running.is_none()
                    && job.attempts_used >= self.config.attempts
            }) {
                return Err(FleetError::Exhausted {
                    shard: job.index,
                    attempts: self.config.attempts,
                    failures: job.failures.clone(),
                });
            }
            if jobs.iter().all(|job| job.collected.is_some()) {
                break;
            }
            std::thread::sleep(self.config.poll_interval);
        }

        let retries = jobs.iter().map(|job| job.attempts_used - 1).sum();
        let collected: Vec<CollectedShard> = jobs
            .into_iter()
            .map(|job| {
                job.collected
                    .expect("loop exits only when every shard is collected")
            })
            .collect();
        let cache = collected.iter().fold(None::<CacheStats>, |merged, shard| {
            match (merged, shard.cache) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or_default().merged(b.unwrap_or_default())),
            }
        });
        Ok(FleetRun {
            spools: collected.into_iter().map(|shard| shard.spool).collect(),
            cache,
            hosts: pool.into_stats(),
            warm_shards,
            warm_cells,
            retries,
        })
    }

    /// Starts (or restarts) a shard: served warm from the cell cache when
    /// every one of its cells is already there, otherwise as a worker on
    /// the least-loaded healthy host. Fault injections target the first
    /// attempt, which is therefore never served warm — the injection
    /// always fires, and the *retry* demonstrates recovery.
    fn start(
        &self,
        job: &mut ShardJob,
        pool: &mut HostPool,
        warm_shards: &mut usize,
        warm_cells: &mut usize,
    ) {
        let fault_injected = job.attempts_used == 0
            && (self.config.kill_shards.contains(&job.index)
                || self.config.corrupt_shards.contains(&job.index));
        if !fault_injected {
            if let Some(report) = self.plan.cached_shard_report(job.index, self.config.shards) {
                job.attempts_used += 1;
                (self.progress)(&format!(
                    "shard {}: served warm from cache ({} cells as file reads, attempt {})",
                    job.index,
                    report.cells.len(),
                    job.attempts_used
                ));
                // Warm shards join the streamed merge like any other shard:
                // spooled to disk and dropped. The cache counters ride
                // alongside (the shard codec doesn't carry them).
                let spool = self.spool_path(job.index);
                let cells = report.cells.len();
                let cache = report.cache;
                match std::fs::write(&spool, report.to_shard_text()) {
                    Ok(()) => {
                        *warm_shards += 1;
                        *warm_cells += cells;
                        job.collected = Some(CollectedShard {
                            spool,
                            cells,
                            cache,
                        });
                    }
                    Err(error) => {
                        // A broken scratch dir degrades warm serving to a
                        // retryable failure, never to aborting the run here.
                        job.failures.push(format!(
                            "attempt {}: cannot spool warm shard: {error}",
                            job.attempts_used
                        ));
                    }
                }
                return;
            }
        }

        let host = pool.pick(self.progress.as_ref());
        let assignment = ShardAssignment {
            index: job.index,
            count: self.config.shards,
            worker_bin: self.worker_bin.clone(),
            worker_args: self.worker_args.clone(),
            scratch_dir: self.scratch_dir.clone(),
        };
        job.attempts_used += 1;
        pool.attempt_started(host);
        match self.transport.spawn(pool.name(host), &assignment) {
            Ok(mut handle) => {
                // Fault injection: kill the first attempt of the chosen
                // shard before it can write its report, so the retry path
                // (and the host's failure accounting) runs under test
                // instead of only in production incidents.
                if self.config.kill_shards.contains(&job.index) && job.attempts_used == 1 {
                    handle.kill();
                    (self.progress)(&format!(
                        "shard {}: attempt 1 killed by --kill-shard fault injection on host {}",
                        job.index,
                        pool.name(host)
                    ));
                }
                job.running = Some(RunningAttempt {
                    handle,
                    host,
                    started: Instant::now(),
                });
            }
            Err(error) => {
                job.failures.push(format!(
                    "attempt {}: spawn on host {} failed: {error}",
                    job.attempts_used,
                    pool.name(host)
                ));
                pool.attempt_finished(host, false, self.progress.as_ref());
                job.running = None;
            }
        }
    }

    /// Polls a running attempt: records a collected report, a failure to
    /// retry, or a timeout kill; does nothing while the worker is still
    /// healthy and within budget. A valid report that disagrees with the
    /// shared cache aborts the run with [`FleetError::Divergence`].
    fn poll(&self, job: &mut ShardJob, pool: &mut HostPool) -> Result<(), FleetError> {
        let Some(attempt) = job.running.as_mut() else {
            return Ok(());
        };
        match attempt.handle.poll() {
            WorkerStatus::Running => {
                if attempt.started.elapsed() > self.config.timeout {
                    attempt.handle.kill();
                    let host = attempt.host;
                    job.running = None;
                    job.failures.push(format!(
                        "attempt {}: timed out after {:?} and was killed (host {})",
                        job.attempts_used,
                        self.config.timeout,
                        pool.name(host)
                    ));
                    pool.attempt_finished(host, false, self.progress.as_ref());
                }
                Ok(())
            }
            WorkerStatus::Exited {
                success: false,
                detail,
            } => {
                let host = attempt.host;
                job.running = None;
                job.failures.push(format!(
                    "attempt {}: worker exited with {detail} (host {})",
                    job.attempts_used,
                    pool.name(host)
                ));
                pool.attempt_finished(host, false, self.progress.as_ref());
                Ok(())
            }
            WorkerStatus::Exited { success: true, .. } => {
                let host = attempt.host;
                let spooled = self.spool(job.index, job.attempts_used, attempt.handle.as_mut());
                job.running = None;
                let collected = spooled.and_then(|spool| {
                    self.validate_streamed(job.index, &spool)
                        .map(|cells| CollectedShard {
                            spool,
                            cells,
                            cache: None,
                        })
                });
                match collected {
                    Ok(shard) => {
                        pool.attempt_finished(host, true, self.progress.as_ref());
                        (self.progress)(&format!(
                            "shard {}: collected {} cells (attempt {}) via host {}",
                            job.index,
                            shard.cells,
                            job.attempts_used,
                            pool.name(host)
                        ));
                        job.collected = Some(shard);
                    }
                    Err(CollectFailure::Retry(reason)) => {
                        job.failures
                            .push(format!("attempt {}: {reason}", job.attempts_used));
                        pool.attempt_finished(host, false, self.progress.as_ref());
                    }
                    Err(CollectFailure::Abort(error)) => {
                        // An integrity failure still counts as this host's
                        // completed (successful) attempt: the worker and
                        // transport did their job; the *data* disagrees.
                        pool.attempt_finished(host, true, self.progress.as_ref());
                        return Err(error);
                    }
                }
                Ok(())
            }
        }
    }

    /// The spool file a shard's validated interchange text lives in between
    /// collection and the streamed merge.
    fn spool_path(&self, shard: usize) -> PathBuf {
        self.scratch_dir
            .join(format!("spool-shard-{shard}-of-{}.txt", self.config.shards))
    }

    /// Streams the worker's shard file to the shard's spool path —
    /// `io::copy` from the transport's reader, never the whole file in
    /// memory. The in-transit corruption injection (test-only) rewrites the
    /// stream line by line on its way to the spool.
    fn spool(
        &self,
        shard: usize,
        attempts_used: usize,
        handle: &mut dyn WorkerHandle,
    ) -> Result<PathBuf, CollectFailure> {
        let spool = self.spool_path(shard);
        let retry = |message: String| CollectFailure::Retry(message);
        let mut reader = handle
            .retrieve()
            .map_err(|error| retry(format!("shard file retrieval failed: {error}")))?;
        let file = std::fs::File::create(&spool)
            .map_err(|error| retry(format!("cannot spool shard file: {error}")))?;
        let mut writer = std::io::BufWriter::new(file);
        let copied = if self.config.corrupt_shards.contains(&shard) && attempts_used == 1 {
            (self.progress)(&format!(
                "shard {shard}: attempt 1 corrupted in transit by --corrupt-shard fault injection"
            ));
            corrupt_in_transit(reader, &mut writer)
        } else {
            std::io::copy(&mut reader, &mut writer).map(drop)
        };
        copied
            .and_then(|()| writer.flush())
            .map_err(|error| retry(format!("shard file retrieval failed: {error}")))?;
        Ok(spool)
    }

    /// Validates a spooled shard file by streaming it — the header against
    /// the plan's identity, then one cell at a time against the plan's own
    /// specs for the shard, with the shared-cache cross-check folded into
    /// the same pass: each cell the cache holds is compared with the cached
    /// cell by canonical line, in lockstep, and the first unequal pair is
    /// the divergence. Any retryable failure (truncated/corrupt file,
    /// foreign plan identity, a cell set or cell spec that is not the
    /// plan's) counts against the shard's attempt cap exactly like a crash;
    /// a cache disagreement is a data integrity failure (a host computed —
    /// or the transport delivered — a *different result for the same
    /// deterministic cell*) that aborts the run.
    ///
    /// Returns the number of cells the shard covers.
    fn validate_streamed(&self, shard: usize, spool: &Path) -> Result<usize, CollectFailure> {
        let retry = |message: String| CollectFailure::Retry(message);
        let parse_failed = |error: &dyn fmt::Display| retry(format!("shard file: {error}"));
        let mut cursor = ShardCursor::open(spool).map_err(|e| parse_failed(&e))?;
        // A corrupt or tampered header is an unusable file like any other:
        // count it against the attempt cap here instead of letting it abort
        // the whole campaign at the final merge.
        if let Some(reason) = cursor.header().identity_mismatch(&self.plan.identity()) {
            return Err(retry(reason));
        }
        let specs = self.plan.shard(shard, self.config.shards);
        let cache = self.plan.cell_cache();
        let mut expected = specs.iter();
        let mut got = 0_usize;
        let mut mismatch: Option<String> = None;
        let mut divergence: Option<Divergence> = None;
        while let Some(cell) = cursor.next_cell().map_err(|e| parse_failed(&e))? {
            let index = got;
            got += 1;
            match expected.next() {
                Some(spec) if *spec == cell.spec => {
                    // The cache is asked under the plan's spec, so a cell
                    // whose seed or labels were altered is never skipped.
                    let cached = || cache.as_ref().and_then(|cache| cache.lookup(spec));
                    if divergence.is_none() {
                        divergence = cached().and_then(|cached| {
                            Divergence::at_cell(
                                index,
                                spec.coordinates(),
                                cached.canonical_line(),
                                cell.canonical_line(),
                            )
                        });
                    }
                }
                Some(spec) => {
                    mismatch.get_or_insert_with(|| {
                        format!("; cell #{index} is {:?}, the plan's is {spec:?}", cell.spec)
                    });
                }
                None => {
                    mismatch.get_or_insert_with(String::new);
                }
            }
        }
        if mismatch.is_some() || got != specs.len() {
            return Err(retry(format!(
                "shard cell set mismatch: expected {} cells, got {got}{}",
                specs.len(),
                mismatch.unwrap_or_default()
            )));
        }
        if let Some(divergence) = divergence {
            return Err(CollectFailure::Abort(FleetError::Divergence {
                shard: Some(shard),
                against: "shared cell cache".to_string(),
                divergence: Box::new(divergence),
            }));
        }
        Ok(got)
    }
}
