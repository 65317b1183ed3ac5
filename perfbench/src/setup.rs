//! Set-up: everything a run pays before its first timed pass.
//!
//! Every workload sets up the same security matrix — the five
//! configurations of `security_sweep_configs` compiled from the bundled
//! httpd, checked by the static diversity gate, loaded back from a warm
//! artifact store, and provisioned into the four catalogue worlds. The
//! warm workload also fills a cell cache with one cold pass. Each step is
//! a span under one `setup` span, so `setup_s` splits by layer.

use crate::trace::{Span, Tracer};
use nvariant::{ArtifactStore, CompiledSystem, DeploymentConfig, NVariantSystemBuilder};
use nvariant_apps::campaigns::{benign_scenario, security_sweep_configs, security_sweep_worlds};
use nvariant_apps::{attack_scenario, httpd_source, Attack, WorkloadMix};
use nvariant_campaign::CampaignPlan;
use nvariant_simos::{OsKernel, WorldTemplate};
use nvariant_types::Uid;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The plan name `report_matrix_plan` gives the full matrix.
pub const MATRIX_NAME: &str = "full-matrix";
/// Requests per cell of the short benign scenario.
pub const BENIGN_SHORT: usize = 24;
/// Requests per cell of the long benign scenario.
pub const BENIGN_LONG: usize = 48;
/// Replicates of every (configuration, world, scenario) triple.
pub const REPLICATES: usize = 2;

/// What a cell of the matrix sends, by scenario index.
#[derive(Clone, Debug)]
pub enum ScenarioKind {
    /// `count` requests drawn from the standard mix under the cell's seed.
    Benign(usize),
    /// One attack's payload, judged against the paper's prediction.
    Attack(Attack),
}

/// The matrix's scenarios, in the plan's scenario order.
#[must_use]
pub fn scenario_kinds() -> Vec<ScenarioKind> {
    let mut kinds = vec![ScenarioKind::Benign(BENIGN_SHORT)];
    kinds.extend(Attack::all().into_iter().map(ScenarioKind::Attack));
    kinds.push(ScenarioKind::Benign(BENIGN_LONG));
    kinds
}

/// The compiled, verified and provisioned security matrix.
pub struct Matrix {
    /// The swept configurations.
    pub configs: Vec<DeploymentConfig>,
    /// One artifact per configuration.
    pub compiled: Vec<Arc<CompiledSystem>>,
    /// The swept worlds.
    pub worlds: Vec<WorldTemplate>,
    /// `provisioned[config][world]`: the kernel cells instantiate into.
    pub provisioned: Vec<Vec<OsKernel>>,
}

impl Matrix {
    /// The full matrix plan over these artifacts: the plan
    /// `report_matrix_plan(false)` builds, under base seed `seed`.
    #[must_use]
    pub fn plan(&self, seed: u64) -> CampaignPlan {
        let mix = WorkloadMix::standard();
        let mut plan = CampaignPlan::new(MATRIX_NAME)
            .configs(self.compiled.iter().cloned())
            .worlds(self.worlds.iter().cloned())
            .replicates(REPLICATES);
        for kind in scenario_kinds() {
            plan = plan.scenario(match kind {
                ScenarioKind::Benign(count) => benign_scenario(&mix, count),
                ScenarioKind::Attack(attack) => attack_scenario(&attack),
            });
        }
        plan.seed(seed)
    }
}

/// Wall time of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Parse, transform and compile every configuration.
    pub compile: Duration,
    /// The static diversity gate over every configuration.
    pub analyze: Duration,
    /// Every artifact loaded by a fresh store from a warm disk root.
    pub artifact_load: Duration,
    /// Every (configuration, world) pair provisioned.
    pub provision: Duration,
    /// One cold pass into a fresh cell cache (matrix-warm only).
    pub cache_fill: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.compile + self.analyze + self.artifact_load + self.provision + self.cache_fill
    }
}

/// The builder `compiled_httpd_system` compiles for `config`.
#[must_use]
pub fn httpd_builder(config: &DeploymentConfig) -> NVariantSystemBuilder {
    NVariantSystemBuilder::from_source(httpd_source())
        .expect("bundled httpd source parses")
        .config(config.clone())
        .initial_uid(Uid::ROOT)
}

/// Writes every matrix artifact under `root`, so the artifact loads of
/// [`set_up`] read a warm store.
///
/// # Errors
///
/// Returns the build error if an artifact does not compile.
pub fn prime_artifacts(root: &Path) -> Result<(), String> {
    let store = ArtifactStore::at(root);
    for config in security_sweep_configs() {
        store
            .get_or_compile(httpd_builder(&config))
            .map_err(|error| format!("{}: {error}", config.label()))?;
    }
    Ok(())
}

/// Runs `step` in a span named `name` under `parent` and returns its result
/// with its wall time.
fn timed<R>(
    tracer: &Tracer,
    log: &mut Vec<Span>,
    name: &'static str,
    parent: u64,
    step: impl FnOnce() -> R,
) -> (R, Duration) {
    tracer.span(log, name, Some(parent), None, |_, _| {
        let started = Instant::now();
        let result = step();
        (result, started.elapsed())
    })
}

/// What one set-up produced.
pub struct Setup {
    /// The matrix, ready to run.
    pub matrix: Matrix,
    /// Wall time of each step.
    pub times: SetupTimes,
    /// Digest of the canonical cell lines the cache fill produced.
    pub fill_digest: Option<u64>,
}

/// One set-up of the matrix. With `fill`, also runs one cold pass of the
/// plan under `seed` on `workers` threads into the fresh cell cache at
/// `fill`.
///
/// # Errors
///
/// Fails if an artifact does not compile, the diversity gate reports a
/// finding, a loaded artifact differs from the compiled one, or the cache
/// fill misses a cell or a prediction.
pub fn set_up(
    artifact_root: &Path,
    fill: Option<(&Path, u64, usize)>,
    tracer: &Tracer,
    log: &mut Vec<Span>,
) -> Result<Setup, String> {
    tracer.span(log, "setup", None, None, |root, log| {
        let configs = security_sweep_configs();
        let worlds = security_sweep_worlds();
        let mut times = SetupTimes::default();

        let (compiled, took) = timed(tracer, log, "setup.compile", root, || {
            configs
                .iter()
                .map(|config| {
                    httpd_builder(config)
                        .compile()
                        .map(Arc::new)
                        .map_err(|error| format!("{}: {error}", config.label()))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let compiled = compiled?;
        times.compile = took;

        let (findings, took) = timed(tracer, log, "setup.analyze", root, || {
            nvariant_bench::verify_diversity_gate(&configs)
        });
        times.analyze = took;
        if findings > 0 {
            return Err(format!("diversity gate: {findings} finding(s)"));
        }

        let (loaded, took) = timed(tracer, log, "setup.artifact_load", root, || {
            let store = ArtifactStore::at(artifact_root);
            let loaded: Result<Vec<_>, _> = configs
                .iter()
                .map(|config| store.get_or_compile(httpd_builder(config)))
                .collect();
            (loaded, store.stats())
        });
        times.artifact_load = took;
        let (loaded, stats) = loaded;
        let loaded = loaded.map_err(|error| format!("artifact load: {error}"))?;
        if stats.misses > 0 || stats.invalidations > 0 {
            return Err(format!("artifact store was not warm: {stats}"));
        }
        for (artifact, fresh) in loaded.iter().zip(&compiled) {
            if artifact.fingerprint() != fresh.fingerprint() {
                return Err(format!(
                    "{}: loaded artifact differs from the compiled one",
                    fresh.config().label()
                ));
            }
        }

        let (provisioned, took) = timed(tracer, log, "setup.provision", root, || {
            compiled
                .iter()
                .map(|artifact| {
                    worlds
                        .iter()
                        .map(|world| artifact.provision_world(world.kernel()))
                        .collect()
                })
                .collect()
        });
        times.provision = took;

        let matrix = Matrix {
            configs,
            compiled,
            worlds,
            provisioned,
        };
        let mut fill_digest = None;
        if let Some((dir, seed, workers)) = fill {
            let (report, took) = timed(tracer, log, "setup.cache_fill", root, || {
                matrix.plan(seed).with_cache_dir(dir).run(workers)
            });
            times.cache_fill = took;
            let cache = report.cache.unwrap_or_default();
            if cache.misses != report.cells.len() as u64 || cache.hits > 0 {
                return Err(format!("cache fill was not cold: {cache}"));
            }
            let mismatches = report.verdict_mismatches().len();
            if mismatches > 0 {
                return Err(format!("cache fill: {mismatches} verdict mismatch(es)"));
            }
            fill_digest = Some(crate::passes::cells_digest(&report.cells));
        }
        Ok(Setup {
            matrix,
            times,
            fill_digest,
        })
    })
}
