//! The experiment plan: a matrix of (configuration × world × scenario ×
//! replicate) cells over build-once [`CompiledSystem`] artifacts and named
//! [`WorldTemplate`]s, enumerable as a pure cell list, shardable across
//! processes, and executable on a scoped worker pool.

use crate::cache::CellCache;
use crate::cell::{CellOutcome, CellResult, CellSpec, CellVerdict, CheckSummary};
use crate::engine::{cell_seed, run_parallel};
use crate::exchange::ServedRequest;
use crate::report::{CampaignReport, PlanShape};
use crate::shardio::ShardHeader;
use nvariant::{CompiledSystem, DeploymentConfig, RunnableSystem, SystemOutcome};
use nvariant_simos::{OsKernel, WorldTemplate};
use nvariant_types::{fnv1a_64, Port};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a scenario's judge sees: the terminated system plus the served
/// request/response pairs of one cell.
#[derive(Clone, Copy, Debug)]
pub struct CellRun<'a> {
    /// How the deployed system terminated.
    pub outcome: &'a SystemOutcome,
    /// The request/response pairs, in arrival order.
    pub exchanges: &'a [ServedRequest],
}

/// Stages `requests` on `port`, runs `system` to completion and pairs each
/// observed connection with its response. The one canonical
/// stage-run-collect sequence: campaign cells and direct scenario runners
/// share it, so what a cell reports and what a hand-driven system reports
/// cannot drift apart.
pub fn serve_requests(
    system: &mut RunnableSystem,
    port: Port,
    requests: &[Vec<u8>],
) -> (SystemOutcome, Vec<ServedRequest>) {
    for request in requests {
        system
            .kernel_mut()
            .net_mut()
            .preload_request(port, request.clone());
    }
    let outcome = system.run();
    let exchanges = system
        .kernel()
        .net()
        .connections()
        .map(|conn| ServedRequest {
            request: conn.request.clone(),
            response: conn.response.clone(),
        })
        .collect();
    (outcome, exchanges)
}

type RequestFn = dyn Fn(&RunnableSystem, u64) -> Vec<Vec<u8>> + Send + Sync;
type JudgeFn = dyn Fn(&DeploymentConfig, CellRun<'_>) -> CellVerdict + Send + Sync;
type CheckFn = dyn Fn(&Arc<CompiledSystem>, Option<&WorldTemplate>, &CellSpec) -> Option<CheckSummary>
    + Send
    + Sync;

/// One scenario of a plan: a labelled request generator plus an optional
/// judge that classifies what each cell achieved.
///
/// The generator receives the freshly instantiated system (so payloads may
/// inspect symbol addresses, exactly like a real attacker with a leaked
/// binary) and the cell's deterministic seed.
#[derive(Clone)]
pub struct Scenario {
    label: String,
    port: Port,
    requests: Arc<RequestFn>,
    judge: Option<Arc<JudgeFn>>,
    check: Option<Arc<CheckFn>>,
}

impl Scenario {
    /// Creates a scenario from a request generator.
    pub fn new(
        label: impl Into<String>,
        requests: impl Fn(&RunnableSystem, u64) -> Vec<Vec<u8>> + Send + Sync + 'static,
    ) -> Self {
        Scenario {
            label: label.into(),
            port: Port::HTTP,
            requests: Arc::new(requests),
            judge: None,
            check: None,
        }
    }

    /// Creates a scenario that always stages the same fixed request batch.
    pub fn fixed_requests(label: impl Into<String>, requests: Vec<Vec<u8>>) -> Self {
        Scenario::new(label, move |_, _| requests.clone())
    }

    /// Stages requests on `port` instead of the default HTTP port.
    #[must_use]
    pub fn on_port(mut self, port: Port) -> Self {
        self.port = port;
        self
    }

    /// Attaches a judge that classifies each cell (observed vs. expected).
    #[must_use]
    pub fn with_judge(
        mut self,
        judge: impl Fn(&DeploymentConfig, CellRun<'_>) -> CellVerdict + Send + Sync + 'static,
    ) -> Self {
        self.judge = Some(Arc::new(judge));
        self
    }

    /// Attaches a static check hook: per cell it receives the compiled
    /// artifact, the cell's world template (when the plan has explicit
    /// worlds) and the cell spec, and returns a summary of a model-checking
    /// pass to attach to the cell. The campaign crate does not know *how*
    /// the check runs — callers typically close over
    /// `nvariant_check::BoundedChecker`.
    #[must_use]
    pub fn with_check(
        mut self,
        check: impl Fn(&Arc<CompiledSystem>, Option<&WorldTemplate>, &CellSpec) -> Option<CheckSummary>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        self.check = Some(Arc::new(check));
        self
    }

    /// The scenario's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("label", &self.label)
            .field("port", &self.port)
            .field("judged", &self.judge.is_some())
            .field("checked", &self.check.is_some())
            // The generator/judge/check closures have no useful rendering;
            // the three flags above say everything the closures would.
            .finish_non_exhaustive()
    }
}

/// An experiment plan: every configuration × every world × every scenario ×
/// `replicates` cells, each with a deterministic seed.
///
/// The plan is the *description* of an experiment, fully decoupled from its
/// execution:
///
/// * [`cells`](Self::cells) is a pure function of the plan — the same plan
///   always enumerates the same cells with the same seeds, in canonical
///   config-major order;
/// * [`shard`](Self::shard) splits that list round-robin so independent
///   workers (threads, processes, machines) each run a disjoint subset;
/// * [`run`](Self::run) / [`run_shard`](Self::run_shard) execute cells on a
///   scoped worker pool, and
///   [`CampaignReport::merge`](crate::CampaignReport::merge) reassembles
///   shard reports into the exact report an unsharded run produces.
///
/// Configurations enter as [`CompiledSystem`] artifacts, so the expensive
/// parse/transform/compile/provision pipeline runs **once per
/// configuration** no matter how many cells the matrix has. Worlds enter as
/// named [`WorldTemplate`]s; each (configuration, world) pair is provisioned
/// once per run ([`CompiledSystem::provision_world`]) and every cell only
/// pays [`CompiledSystem::instantiate_in`]. A plan with no explicit worlds
/// has a single implicit `"template"` world: the artifact's own
/// compile-time kernel template.
#[derive(Clone, Debug)]
pub struct CampaignPlan {
    name: String,
    configs: Vec<Arc<CompiledSystem>>,
    worlds: Vec<WorldTemplate>,
    scenarios: Vec<Scenario>,
    replicates: usize,
    base_seed: u64,
    cache_root: Option<PathBuf>,
}

impl CampaignPlan {
    /// Starts an empty plan.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        CampaignPlan {
            name: name.into(),
            configs: Vec::new(),
            worlds: Vec::new(),
            scenarios: Vec::new(),
            replicates: 1,
            base_seed: 0x5EED,
            cache_root: None,
        }
    }

    /// Adds a compiled configuration to the matrix.
    #[must_use]
    pub fn config(mut self, compiled: impl Into<Arc<CompiledSystem>>) -> Self {
        self.configs.push(compiled.into());
        self
    }

    /// Adds every artifact in `compiled` to the matrix.
    #[must_use]
    pub fn configs(mut self, compiled: impl IntoIterator<Item = Arc<CompiledSystem>>) -> Self {
        self.configs.extend(compiled);
        self
    }

    /// Adds a world template to the matrix's environment axis.
    #[must_use]
    pub fn world(mut self, world: WorldTemplate) -> Self {
        self.worlds.push(world);
        self
    }

    /// Adds every template in `worlds` to the environment axis.
    #[must_use]
    pub fn worlds(mut self, worlds: impl IntoIterator<Item = WorldTemplate>) -> Self {
        self.worlds.extend(worlds);
        self
    }

    /// Adds a scenario to the matrix.
    #[must_use]
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Sets how many replicates of each (config, world, scenario) triple run
    /// (default 1; each replicate gets a distinct deterministic seed).
    #[must_use]
    pub fn replicates(mut self, replicates: usize) -> Self {
        self.replicates = replicates.max(1);
        self
    }

    /// Sets the plan's base seed (default `0x5EED`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Memoizes completed cells under `root` (the shared cache directory;
    /// cell entries live in `<root>/cells/<plan_hash>/`): every executed
    /// cell is persisted, and later runs of an identical plan — in this
    /// process or another — read it back instead of re-running. Corrupt or
    /// mismatched entries are recomputed, never surfaced as errors, and the
    /// per-run [`CacheStats`](nvariant::CacheStats) appear on the report.
    ///
    /// Caching never changes a report's deterministic content: a cache hit
    /// is the byte-identical cell the cold run serialized. The cache
    /// directory is *not* part of the plan's identity
    /// ([`descriptor`](Self::descriptor) / [`plan_hash`](Self::plan_hash)).
    #[must_use]
    pub fn with_cache_dir(mut self, root: impl Into<PathBuf>) -> Self {
        self.cache_root = Some(root.into());
        self
    }

    /// The cell-cache root directory, when caching is enabled.
    #[must_use]
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_root.as_deref()
    }

    /// The plan's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The plan's base seed.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The compiled configurations in the matrix.
    #[must_use]
    pub fn compiled_configs(&self) -> &[Arc<CompiledSystem>] {
        &self.configs
    }

    /// Number of worlds on the environment axis (1 for the implicit
    /// template world).
    #[must_use]
    pub fn world_count(&self) -> usize {
        self.worlds.len().max(1)
    }

    /// The per-configuration labels cells carry, disambiguated by matrix
    /// position: when two configurations render the same label (possible
    /// with `Custom` configurations), later occurrences get a `#<n>`
    /// suffix, so a label always identifies exactly one `config_index`.
    #[must_use]
    pub fn config_labels(&self) -> Vec<String> {
        disambiguate_labels(
            self.configs
                .iter()
                .map(|compiled| compiled.config().label()),
        )
    }

    /// The per-world labels cells carry (`["template"]` when the plan has
    /// no explicit worlds), disambiguated by matrix position exactly like
    /// [`config_labels`](Self::config_labels): two templates sharing a name
    /// (e.g. two tweaked variants of an environment) get `name` and
    /// `name#1`, so label-keyed lookups never conflate matrix positions.
    #[must_use]
    pub fn world_labels(&self) -> Vec<String> {
        if self.worlds.is_empty() {
            vec!["template".to_string()]
        } else {
            disambiguate_labels(self.worlds.iter().map(|w| w.name().to_string()))
        }
    }

    /// The dimensions of the plan's cell matrix.
    #[must_use]
    pub fn shape(&self) -> PlanShape {
        PlanShape {
            configs: self.configs.len(),
            worlds: self.world_count(),
            scenarios: self.scenarios.len(),
            replicates: self.replicates,
        }
    }

    /// The canonical plan descriptor: a line-oriented rendering of
    /// everything that identifies the experiment — name, base seed, matrix
    /// shape, and the full contents of every axis (configuration labels
    /// plus deployment options, compile-time transformation counts and the
    /// compiled artifact's content
    /// [fingerprint](nvariant::CompiledSystem::fingerprint) — which covers
    /// the program source, so editing the program re-keys the plan; world
    /// template labels; scenario labels with port and judging mode).
    ///
    /// Two plans with equal descriptors enumerate the same cells with the
    /// same seeds and run them under the same deployments, so the
    /// descriptor (via [`plan_hash`](Self::plan_hash)) is what a
    /// coordinator uses to decide whether two shard reports belong to the
    /// same experiment. Scenario *behaviour* (the request-generator and
    /// judge closures) cannot be hashed; scenarios are identified by label,
    /// port and whether they judge — reusing a scenario label for different
    /// behaviour within one plan name is the caller's bug, just as it is in
    /// the rendered reports.
    #[must_use]
    pub fn descriptor(&self) -> String {
        let mut out = format!(
            "plan {:?}\nseed {:#018x}\nshape {}\n",
            self.name,
            self.base_seed,
            self.shape()
        );
        for (index, (compiled, label)) in self.configs.iter().zip(self.config_labels()).enumerate()
        {
            // The artifact fingerprint covers the program source and every
            // builder knob, so editing the program (or limits, monitor
            // config, ...) re-keys the plan even when the deployment options
            // and transform counters happen to be unchanged — without it,
            // cached cells computed from an older program would be served
            // as hits for the new one.
            out.push_str(&format!(
                "config {index} {label:?} deployment={:?} stats={:?} artifact={:#018x}\n",
                compiled.config(),
                compiled.transform_stats(),
                compiled.fingerprint()
            ));
        }
        for (index, label) in self.world_labels().iter().enumerate() {
            out.push_str(&format!("world {index} {label:?}\n"));
        }
        for (index, scenario) in self.scenarios.iter().enumerate() {
            out.push_str(&format!(
                "scenario {index} {:?} port={} judged={} checked={}\n",
                scenario.label,
                scenario.port.as_u16(),
                scenario.judge.is_some(),
                scenario.check.is_some()
            ));
        }
        out
    }

    /// The canonical plan hash: FNV-1a 64 over
    /// [`descriptor`](Self::descriptor). Deterministic across processes and
    /// machines, which is what lets a coordinator gate shard merges up
    /// front: a worker that rebuilt a differently-shaped plan (different
    /// configurations, worlds, scenarios or replicates) under the same name
    /// and seed produces a different hash and its shards are rejected
    /// before any aggregation happens.
    #[must_use]
    pub fn plan_hash(&self) -> u64 {
        fnv1a_64(self.descriptor().as_bytes())
    }

    /// The full cell list, in canonical order (config-major, then world,
    /// scenario, replicate).
    ///
    /// This is a pure function of the plan: no scheduling, no randomness,
    /// no I/O — which is what makes the list shardable across processes
    /// that never communicate.
    #[must_use]
    pub fn cells(&self) -> Vec<CellSpec> {
        let config_labels = self.config_labels();
        let world_labels = self.world_labels();
        let mut cells = Vec::with_capacity(
            self.configs.len() * world_labels.len() * self.scenarios.len() * self.replicates,
        );
        for (config_index, config_label) in config_labels.iter().enumerate() {
            for (world_index, world_label) in world_labels.iter().enumerate() {
                for (scenario_index, scenario) in self.scenarios.iter().enumerate() {
                    for replicate in 0..self.replicates {
                        cells.push(CellSpec {
                            config_index,
                            world_index,
                            scenario_index,
                            replicate,
                            config_label: config_label.clone(),
                            world_label: world_label.clone(),
                            scenario_label: scenario.label.clone(),
                            seed: cell_seed(
                                self.base_seed,
                                config_index,
                                world_index,
                                scenario_index,
                                replicate,
                            ),
                        });
                    }
                }
            }
        }
        cells
    }

    /// The plan identity every shard of this plan carries — name, base
    /// seed, plan hash and shape — as a shard header with no run metadata
    /// (zero workers and wall), for
    /// [`ShardHeader::identity_mismatch`](crate::ShardHeader::identity_mismatch).
    #[must_use]
    pub fn identity(&self) -> ShardHeader {
        ShardHeader {
            name: self.name.clone(),
            base_seed: self.base_seed,
            plan_hash: self.plan_hash(),
            shape: self.shape(),
            workers: 0,
            total_wall: Duration::ZERO,
        }
    }

    /// Shard `index` of `count`: the cells whose canonical position is
    /// congruent to `index` modulo `count`. Round-robin assignment keeps
    /// every shard's load representative of the whole matrix (contiguous
    /// slices would hand one shard all the expensive configurations).
    ///
    /// The union of `shard(0, n) .. shard(n-1, n)` is exactly
    /// [`cells`](Self::cells), with no overlap, so per-shard reports merge
    /// back into the unsharded report.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index >= count`.
    #[must_use]
    pub fn shard(&self, index: usize, count: usize) -> Vec<CellSpec> {
        assert!(count > 0, "shard count must be positive");
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards"
        );
        self.cells()
            .into_iter()
            .skip(index)
            .step_by(count)
            .collect()
    }

    /// Provisions the world for one (configuration, world) pair: the
    /// artifact's own template for the implicit world, otherwise
    /// [`CompiledSystem::provision_world`] applied to the named template.
    fn provisioned_kernel(&self, config_index: usize, world_index: usize) -> OsKernel {
        let compiled = &self.configs[config_index];
        if self.worlds.is_empty() {
            compiled.kernel_template().clone()
        } else {
            compiled.provision_world(self.worlds[world_index].kernel())
        }
    }

    /// Executes every cell across `workers` threads and aggregates the
    /// results.
    #[must_use]
    pub fn run(&self, workers: usize) -> CampaignReport {
        self.run_cells(self.cells(), workers)
    }

    /// Executes shard `index` of `count` across `workers` threads (see
    /// [`shard`](Self::shard)); merge the per-shard reports with
    /// [`CampaignReport::merge`](crate::CampaignReport::merge).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index >= count`.
    #[must_use]
    pub fn run_shard(&self, index: usize, count: usize, workers: usize) -> CampaignReport {
        self.run_cells(self.shard(index, count), workers)
    }

    /// Executes an explicit cell list across `workers` threads.
    ///
    /// Each (configuration, world) pair appearing in `cells` is provisioned
    /// exactly once up front; every cell then only pays
    /// [`CompiledSystem::instantiate_in`]. Cell results come back in the
    /// order of `cells`, and each cell's behaviour depends only on its spec,
    /// so the report's deterministic content is identical at any worker
    /// count.
    #[must_use]
    pub fn run_cells(&self, cells: Vec<CellSpec>, workers: usize) -> CampaignReport {
        let started = Instant::now();
        let cache = self.cell_cache();
        // Provision only the (configuration, world) pairs that actually
        // have to execute: a fully cached shard provisions nothing.
        let pairs: BTreeSet<(usize, usize)> = cells
            .iter()
            .filter(|spec| match &cache {
                Some(cache) => !cache.entry_path(spec).is_file(),
                None => true,
            })
            .map(|spec| (spec.config_index, spec.world_index))
            .collect();
        let provisioned: BTreeMap<(usize, usize), OsKernel> = pairs
            .into_iter()
            .map(|(config_index, world_index)| {
                (
                    (config_index, world_index),
                    self.provisioned_kernel(config_index, world_index),
                )
            })
            .collect();
        // Cache entries can vanish or turn out corrupt between the
        // provisioning probe above and the lookup below; pairs provisioned
        // on demand for that case are memoized so a whole directory of
        // damaged entries still provisions each pair only about once
        // instead of once per cell.
        let fallback: Mutex<BTreeMap<(usize, usize), Arc<OsKernel>>> = Mutex::new(BTreeMap::new());
        let results = run_parallel(cells, workers, |_, spec| {
            if let Some(cache) = &cache {
                if let Some(hit) = cache.lookup(&spec) {
                    return hit;
                }
            }
            let pair = (spec.config_index, spec.world_index);
            let result = if let Some(world) = provisioned.get(&pair) {
                self.run_cell_in(spec, world)
            } else {
                // Double-checked so the expensive provisioning happens
                // outside the lock: racing workers may provision the
                // same pair twice (identical deterministic kernels, the
                // loser's is dropped), but no worker ever blocks behind
                // another pair's provisioning.
                let cached = fallback
                    .lock()
                    .expect("fallback provisioning map poisoned")
                    .get(&pair)
                    .cloned();
                let world = if let Some(world) = cached {
                    world
                } else {
                    let world = Arc::new(self.provisioned_kernel(pair.0, pair.1));
                    Arc::clone(
                        fallback
                            .lock()
                            .expect("fallback provisioning map poisoned")
                            .entry(pair)
                            .or_insert(world),
                    )
                };
                self.run_cell_in(spec, &world)
            };
            if let Some(cache) = &cache {
                cache.insert(&result);
            }
            result
        });
        let report = CampaignReport::new(
            self.name.clone(),
            self.base_seed,
            self.plan_hash(),
            self.shape(),
            workers.max(1),
            results,
            started.elapsed(),
        );
        match cache {
            Some(cache) => report.with_cache_stats(cache.stats()),
            None => report,
        }
    }

    /// The cell cache handle for this plan's identity, when a cache
    /// directory is configured.
    #[must_use]
    pub fn cell_cache(&self) -> Option<CellCache> {
        self.cache_root.as_ref().map(|root| {
            CellCache::open(
                root,
                self.name.clone(),
                self.base_seed,
                self.plan_hash(),
                self.shape(),
            )
        })
    }

    /// Assembles the report for shard `index` of `count` entirely from the
    /// cell cache, executing nothing. Returns `None` — without running any
    /// cell — unless caching is configured *and* every cell of the shard
    /// has a valid cache entry. This is what lets a coordinator serve a
    /// retried shard as file reads instead of a worker process.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index >= count`.
    #[must_use]
    pub fn cached_shard_report(&self, index: usize, count: usize) -> Option<CampaignReport> {
        let cache = self.cell_cache()?;
        let specs = self.shard(index, count);
        let mut cells = Vec::with_capacity(specs.len());
        for spec in specs {
            cells.push(cache.lookup(&spec)?);
        }
        let total_wall = cells.iter().map(|cell| cell.wall).sum();
        Some(
            CampaignReport::new(
                self.name.clone(),
                self.base_seed,
                self.plan_hash(),
                self.shape(),
                1,
                cells,
                total_wall,
            )
            .with_cache_stats(cache.stats()),
        )
    }

    /// Executes a single cell: instantiate into the provisioned world,
    /// stage, run, collect, judge.
    fn run_cell_in(&self, spec: CellSpec, world: &OsKernel) -> CellResult {
        let started = Instant::now();
        let compiled = &self.configs[spec.config_index];
        let scenario = &self.scenarios[spec.scenario_index];
        let mut system = compiled.instantiate_in(world);
        let requests = (scenario.requests)(&system, spec.seed);
        let (outcome, exchanges) = serve_requests(&mut system, scenario.port, &requests);
        let verdict = scenario.judge.as_ref().map(|judge| {
            judge(
                compiled.config(),
                CellRun {
                    outcome: &outcome,
                    exchanges: &exchanges,
                },
            )
        });
        let checked = scenario
            .check
            .as_ref()
            .and_then(|check| check(compiled, self.worlds.get(spec.world_index), &spec));
        CellResult {
            spec,
            outcome: CellOutcome::from(&outcome),
            exchanges,
            transform_stats: *compiled.transform_stats(),
            verdict,
            checked,
            wall: saturating_elapsed(started),
        }
    }
}

fn saturating_elapsed(started: Instant) -> Duration {
    Instant::now().saturating_duration_since(started)
}

/// Suffixes repeated labels with their occurrence number (`label`,
/// `label#1`, `label#2`, ...) so every axis position has a unique label.
/// Generated suffixes are checked against everything already emitted, so a
/// caller-chosen name that *looks* like a suffix (`standard#1`) can never
/// collide with a generated one.
fn disambiguate_labels(labels: impl Iterator<Item = String>) -> Vec<String> {
    let mut used: BTreeSet<String> = BTreeSet::new();
    let mut occurrences: BTreeMap<String, usize> = BTreeMap::new();
    labels
        .map(|base| {
            let occurrence = occurrences.entry(base.clone()).or_insert(0);
            let mut label = if *occurrence == 0 {
                base.clone()
            } else {
                format!("{base}#{occurrence}")
            };
            *occurrence += 1;
            while !used.insert(label.clone()) {
                label = format!("{base}#{occurrence}");
                *occurrence += 1;
            }
            label
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant::NVariantSystemBuilder;

    const ECHO_SERVER: &str = r#"
        fn main() -> int {
            var sock: int;
            var conn: int;
            var request: buf[256];
            sock = socket();
            bind(sock, 80);
            listen(sock);
            setuid(48);
            conn = accept(sock);
            while (conn >= 0) {
                recv(conn, &request, 255);
                send_str(conn, "HTTP/1.0 200 OK\r\n\r\nok");
                close(conn);
                conn = accept(sock);
            }
            return 0;
        }
    "#;

    fn compiled(config: DeploymentConfig) -> Arc<CompiledSystem> {
        Arc::new(
            NVariantSystemBuilder::from_source(ECHO_SERVER)
                .unwrap()
                .config(config)
                .compile()
                .unwrap(),
        )
    }

    fn two_config_plan() -> CampaignPlan {
        CampaignPlan::new("echo")
            .config(compiled(DeploymentConfig::Unmodified))
            .config(compiled(DeploymentConfig::TwoVariantUid))
            .scenario(Scenario::new("ping", |_, seed| {
                vec![format!("GET /{} HTTP/1.0\r\n\r\n", seed % 10).into_bytes()]
            }))
            .scenario(
                Scenario::fixed_requests(
                    "double",
                    vec![
                        b"GET /a HTTP/1.0\r\n\r\n".to_vec(),
                        b"GET /b HTTP/1.0\r\n\r\n".to_vec(),
                    ],
                )
                .with_judge(|config, run| CellVerdict {
                    observed: format!("{} served", run.exchanges.len()),
                    expected: format!("{} served", if config.variant_count() > 0 { 2 } else { 0 }),
                }),
            )
            .replicates(2)
    }

    #[test]
    fn matrix_enumerates_cells_in_canonical_order() {
        let plan = two_config_plan();
        let cells = plan.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].config_label, "Unmodified");
        assert_eq!(cells[0].world_label, "template");
        assert_eq!(cells[0].scenario_label, "ping");
        assert_eq!(cells[0].replicate, 0);
        assert_eq!(cells[1].replicate, 1);
        assert_eq!(cells[2].scenario_label, "double");
        assert_eq!(cells[4].config_label, "2-Variant UID");
        // Replicates of the same triple get distinct seeds.
        assert_ne!(cells[0].seed, cells[1].seed);
    }

    #[test]
    fn world_axis_multiplies_the_matrix() {
        let plan = two_config_plan()
            .world(WorldTemplate::standard())
            .world(WorldTemplate::alternate_accounts());
        let cells = plan.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert_eq!(plan.world_count(), 2);
        assert_eq!(cells[0].world_label, "standard");
        // World-major within a configuration: all standard-world cells of a
        // configuration come before its alt-accounts cells.
        assert_eq!(cells[3].world_label, "standard");
        assert_eq!(cells[4].world_label, "alt-accounts");
        assert_eq!(cells[4].config_label, "Unmodified");
        assert_eq!(cells[8].config_label, "2-Variant UID");
        // The world coordinate perturbs the seed: the same (config,
        // scenario, replicate) in two worlds draws different seeds.
        assert_ne!(cells[0].seed, cells[4].seed);
    }

    #[test]
    fn duplicate_config_labels_are_disambiguated_by_position() {
        let plan = CampaignPlan::new("dup")
            .config(compiled(DeploymentConfig::TwoVariantUid))
            .config(compiled(DeploymentConfig::TwoVariantUid))
            .config(compiled(DeploymentConfig::TwoVariantUid))
            .scenario(Scenario::fixed_requests("ping", vec![]));
        assert_eq!(
            plan.config_labels(),
            vec!["2-Variant UID", "2-Variant UID#1", "2-Variant UID#2"]
        );
        let cells = plan.cells();
        assert_eq!(cells[0].config_label, "2-Variant UID");
        assert_eq!(cells[1].config_label, "2-Variant UID#1");
        assert_eq!(cells[2].config_label, "2-Variant UID#2");
    }

    #[test]
    fn duplicate_world_labels_are_disambiguated_by_position() {
        // Two tweaked variants of the same environment keep distinct
        // labels, so label-keyed world lookups never conflate positions.
        let plan = two_config_plan()
            .world(WorldTemplate::standard())
            .world(WorldTemplate::new(
                "standard",
                nvariant_simos::WorldBuilder::standard()
                    .listen_port(8080)
                    .build(),
            ));
        assert_eq!(plan.world_labels(), vec!["standard", "standard#1"]);
        let cells = plan.cells();
        assert_eq!(cells[0].world_label, "standard");
        assert_eq!(cells[4].world_label, "standard#1");
    }

    #[test]
    fn disambiguation_never_collides_with_suffix_shaped_names() {
        // A caller-chosen name that looks like a generated suffix must not
        // be conflated with one: every emitted label stays unique.
        let labels = disambiguate_labels(
            ["standard", "standard", "standard#1", "standard"]
                .into_iter()
                .map(String::from),
        );
        // The second "standard" claims the generated "standard#1" first, so
        // the later caller-chosen "standard#1" is itself bumped.
        assert_eq!(
            labels,
            vec!["standard", "standard#1", "standard#1#1", "standard#2"]
        );
        let unique: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn shards_partition_the_cell_list() {
        let plan = two_config_plan().world(WorldTemplate::standard());
        let all = plan.cells();
        for count in [1, 2, 3, 4, all.len() + 1] {
            let mut reassembled: Vec<Option<CellSpec>> = vec![None; all.len()];
            for index in 0..count {
                for (offset, cell) in plan.shard(index, count).into_iter().enumerate() {
                    let position = index + offset * count;
                    assert!(reassembled[position].is_none(), "overlapping shards");
                    reassembled[position] = Some(cell);
                }
            }
            let reassembled: Vec<CellSpec> = reassembled.into_iter().map(Option::unwrap).collect();
            assert_eq!(reassembled, all, "{count} shards");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_in_range() {
        let _ = two_config_plan().shard(2, 2);
    }

    #[test]
    fn plan_hash_is_stable_and_axis_sensitive() {
        let plan = two_config_plan();
        // Stable: the same plan always hashes identically, and the hash is
        // what every report of the plan carries.
        assert_eq!(plan.plan_hash(), plan.clone().plan_hash());
        assert_eq!(plan.run(1).plan_hash, plan.plan_hash());
        assert_eq!(plan.run_shard(0, 2, 1).plan_hash, plan.plan_hash());
        // Sensitive: every axis (and the identity fields) perturbs it.
        let base = plan.plan_hash();
        assert_ne!(base, plan.clone().seed(99).plan_hash());
        assert_ne!(base, plan.clone().replicates(3).plan_hash());
        assert_ne!(
            base,
            plan.clone().world(WorldTemplate::standard()).plan_hash()
        );
        assert_ne!(
            base,
            plan.clone()
                .scenario(Scenario::fixed_requests("extra", vec![]))
                .plan_hash()
        );
        assert_ne!(
            base,
            plan.clone()
                .config(compiled(DeploymentConfig::TwoVariantAddress))
                .plan_hash()
        );
        // A scenario's port and judging mode are part of its identity.
        let with_port = CampaignPlan::new("p")
            .config(compiled(DeploymentConfig::Unmodified))
            .scenario(Scenario::fixed_requests("s", vec![]).on_port(nvariant_types::Port::new(81)));
        let without_port = CampaignPlan::new("p")
            .config(compiled(DeploymentConfig::Unmodified))
            .scenario(Scenario::fixed_requests("s", vec![]));
        assert_ne!(with_port.plan_hash(), without_port.plan_hash());
    }

    #[test]
    fn shape_matches_the_cell_list() {
        let plan = two_config_plan().world(WorldTemplate::standard());
        let shape = plan.shape();
        assert_eq!(shape.configs, 2);
        assert_eq!(shape.worlds, 1);
        assert_eq!(shape.scenarios, 2);
        assert_eq!(shape.replicates, 2);
        assert_eq!(shape.cell_count(), plan.cells().len());
        // The shape's coordinate enumeration is exactly the cell list's.
        let coords: Vec<_> = plan.cells().iter().map(CellSpec::coordinates).collect();
        assert_eq!(
            crate::CoordinateWalk::new(shape).collect::<Vec<_>>(),
            coords
        );
        // A world-less plan still has the implicit template world.
        assert_eq!(two_config_plan().shape().worlds, 1);
    }

    #[test]
    fn plan_runs_and_judges_cells() {
        let report = two_config_plan().run(2);
        assert_eq!(report.cells.len(), 8);
        assert!(report
            .cells
            .iter()
            .all(|cell| cell.outcome.exited_normally()));
        let judged: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.spec.scenario_label == "double")
            .collect();
        assert_eq!(judged.len(), 4);
        assert!(judged
            .iter()
            .all(|c| c.verdict.as_ref().is_some_and(CellVerdict::matches)));
        // Unjudged scenario cells carry no verdict.
        assert!(report
            .cells
            .iter()
            .filter(|c| c.spec.scenario_label == "ping")
            .all(|c| c.verdict.is_none()));
    }

    #[test]
    fn worker_count_does_not_change_deterministic_content() {
        let plan = two_config_plan();
        let serial = plan.run(1);
        let parallel = plan.run(4);
        assert_eq!(serial.canonical_text(), parallel.canonical_text());
    }

    #[test]
    fn sharded_run_merges_into_the_unsharded_report() {
        let plan = two_config_plan().world(WorldTemplate::standard());
        let whole = plan.run(2);
        for count in [2, 3] {
            let shards: Vec<CampaignReport> = (0..count)
                .map(|index| plan.run_shard(index, count, 2))
                .collect();
            let merged = CampaignReport::merge(shards).expect("shards merge");
            assert_eq!(merged.canonical_text(), whole.canonical_text(), "{count}");
        }
    }

    #[test]
    fn cells_run_in_their_world() {
        // The alternate-docroot world serves the same page names from a
        // different tree; an echo server doesn't read files, so assert on
        // the provisioned kernels instead.
        let plan = two_config_plan()
            .world(WorldTemplate::standard())
            .world(WorldTemplate::alternate_docroot());
        let standard = plan.provisioned_kernel(1, 0);
        let alternate = plan.provisioned_kernel(1, 1);
        assert!(standard.fs().exists("/var/www/html/index.html"));
        assert!(!standard.fs().exists("/srv/webroot/index.html"));
        assert!(alternate.fs().exists("/srv/webroot/index.html"));
        // Unshared account files are re-provisioned per world.
        assert!(standard.fs().exists("/etc/passwd-1"));
        assert!(alternate.fs().exists("/etc/passwd-1"));
    }
}
