//! The traced drivers: the same passes as [`crate::passes`], driven cell by
//! cell through the crates' public calls so that each layer call is a span.
//!
//! A traced cold cell is what the campaign engine does for a cell —
//! `instantiate_in`, request generation, the run, the judge, the cache
//! insert — with the run split into one `monitor.round` span per
//! `NVariantMonitor::step` on multi-variant configurations. Its canonical
//! line must equal the engine's, which the run checks by digest.

use crate::passes::{render, LineDigest, Work, CHECK_DEPTH, SHARDS};
use crate::setup::{scenario_kinds, Matrix, ScenarioKind};
use crate::trace::{Span, Tracer};
use nvariant::SystemOutcome;
use nvariant_apps::{benign_request, WorkloadMix};
use nvariant_campaign::{
    run_parallel, CampaignPlan, CellCache, CellOutcome, CellResult, CellSpec, CellVerdict,
    PlanShape, ServedRequest, ShardCursor, ShardHeader, ShardMerger, ShardWriter,
    StreamingAggregator,
};
use nvariant_check::{BoundedChecker, CheckRequest, CheckTarget, Checker, Property};
use nvariant_monitor::StepEvent;
use nvariant_simos::OsKernel;
use nvariant_types::Port;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::BufWriter;
use std::path::Path;
use std::time::{Duration, Instant};

/// Clones timed per world or monitor by [`probe_clones`].
pub const CLONES: usize = 8;
/// Synchronisation points a probed monitor runs before it is cloned, so
/// the clone carries mid-run state as the checker's clones do.
pub const PROBE_STEPS: usize = 8;

/// One traced pass.
#[derive(Clone, Debug, Default)]
pub struct TracedPass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Digest of the pass's canonical output lines.
    pub digest: u64,
    /// Work done.
    pub work: Work,
    /// Units that failed.
    pub failed_units: u64,
    /// Every span of the pass, under one `pass` span.
    pub spans: Vec<Span>,
    /// Shard bytes written (cold) or cache-entry bytes read (warm).
    pub bytes: u64,
    /// Cache lookups that hit (warm).
    pub hits: u64,
    /// Instructions executed by single-variant cells (cold).
    pub single_instructions: u64,
    /// `NVariantMonitor::step` calls (cold).
    pub rounds: u64,
}

/// The canonical position of `spec` in a plan of `shape`.
fn cell_id(spec: &CellSpec, shape: PlanShape) -> u32 {
    let linear = ((spec.config_index * shape.worlds + spec.world_index) * shape.scenarios
        + spec.scenario_index)
        * shape.replicates
        + spec.replicate;
    u32::try_from(linear).expect("matrix cell index fits in u32")
}

/// Drives single cells the way the engine does, one span per layer call.
struct CellDriver<'a> {
    matrix: &'a Matrix,
    kinds: Vec<ScenarioKind>,
    mix: WorkloadMix,
    cache: CellCache,
    tracer: &'a Tracer,
    shape: PlanShape,
}

impl CellDriver<'_> {
    fn run(&self, spec: CellSpec, world: &OsKernel, pass: u64, log: &mut Vec<Span>) -> CellResult {
        let tracer = self.tracer;
        let id = Some(cell_id(&spec, self.shape));
        tracer.span(log, "campaign.cell", Some(pass), id, |cell, log| {
            // The engine looks a cell up before it runs it; in a cold pass
            // every lookup misses, which the pass checks by count.
            let _ = self.cache.lookup(&spec);
            let started = Instant::now();
            let compiled = &self.matrix.compiled[spec.config_index];
            let kind = &self.kinds[spec.scenario_index];
            let mut system = tracer.span(log, "core.instantiate", Some(cell), id, |_, _| {
                compiled.instantiate_in(world)
            });
            let requests =
                tracer.span(log, "apps.request_gen", Some(cell), id, |_, _| match kind {
                    ScenarioKind::Benign(count) => self.mix.request_sequence(*count, spec.seed),
                    ScenarioKind::Attack(attack) => attack.requests(&system),
                });
            for request in &requests {
                system
                    .kernel_mut()
                    .net_mut()
                    .preload_request(Port::HTTP, request.clone());
            }
            let outcome = if let Some(monitor) = system.monitor_mut() {
                loop {
                    let event =
                        tracer.span(log, "monitor.round", Some(cell), id, |_, _| monitor.step());
                    if let StepEvent::Done(outcome) = event {
                        break SystemOutcome::from_nvariant(&outcome);
                    }
                }
            } else {
                tracer.span(log, "vm.run", Some(cell), id, |_, _| system.run())
            };
            let exchanges: Vec<ServedRequest> = system
                .kernel()
                .net()
                .connections()
                .map(|conn| ServedRequest {
                    request: conn.request.clone(),
                    response: conn.response.clone(),
                })
                .collect();
            let verdict = match kind {
                ScenarioKind::Benign(_) => None,
                ScenarioKind::Attack(attack) => {
                    Some(tracer.span(log, "apps.judge", Some(cell), id, |_, _| {
                        CellVerdict {
                            observed: attack
                                .evaluate_parts(outcome.detected_attack(), &exchanges)
                                .to_string(),
                            expected: attack.expected_result(compiled.config()).to_string(),
                        }
                    }))
                }
            };
            let result = CellResult {
                spec,
                outcome: CellOutcome::from(&outcome),
                exchanges,
                transform_stats: *compiled.transform_stats(),
                verdict,
                checked: None,
                wall: started.elapsed(),
            };
            tracer.span(log, "campaign.cache_insert", Some(cell), id, |_, _| {
                self.cache.insert(&result);
            });
            result
        })
    }
}

fn io_error(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |error| format!("{}: {error}", path.display())
}

/// The traced twin of [`crate::passes::cold_pass`]: the same shards, cache
/// inserts, shard files, merge, fold and render, under `dir`.
///
/// # Errors
///
/// Fails on an I/O or merge error.
pub fn traced_cold_pass(
    matrix: &Matrix,
    plan: &CampaignPlan,
    dir: &Path,
    workers: usize,
    tracer: &Tracer,
) -> Result<TracedPass, String> {
    std::fs::create_dir_all(dir).map_err(io_error(dir))?;
    let shape = plan.shape();
    let driver = CellDriver {
        matrix,
        kinds: scenario_kinds(),
        mix: WorkloadMix::standard(),
        cache: CellCache::open(
            &dir.join("cache"),
            plan.name(),
            plan.base_seed(),
            plan.plan_hash(),
            shape,
        ),
        tracer,
        shape,
    };
    let mut traced = TracedPass::default();
    let mut spans = Vec::new();
    let started = Instant::now();
    let merged = tracer.span(&mut spans, "pass", None, None, |pass, log| {
        let mut files = Vec::with_capacity(SHARDS);
        for index in 0..SHARDS {
            let shard_started = Instant::now();
            let specs = plan.shard(index, SHARDS);
            // The engine provisions each (configuration, world) pair of a
            // shard that has a cell to execute once, before its cells run.
            let pairs: BTreeSet<(usize, usize)> = specs
                .iter()
                .filter(|spec| !driver.cache.entry_path(spec).is_file())
                .map(|spec| (spec.config_index, spec.world_index))
                .collect();
            let worlds: BTreeMap<(usize, usize), OsKernel> = pairs
                .into_iter()
                .map(|(config, world)| {
                    let kernel = tracer.span(log, "core.provision", Some(pass), None, |_, _| {
                        matrix.compiled[config].provision_world(matrix.worlds[world].kernel())
                    });
                    ((config, world), kernel)
                })
                .collect();
            let outputs = run_parallel(specs, workers, |_, spec| {
                let mut local = Vec::new();
                let world = &worlds[&(spec.config_index, spec.world_index)];
                let cell = driver.run(spec, world, pass, &mut local);
                (cell, local)
            });
            let mut cells = Vec::with_capacity(outputs.len());
            for (cell, local) in outputs {
                log.extend(local);
                cells.push(cell);
            }
            let header = ShardHeader {
                name: plan.name().to_string(),
                base_seed: plan.base_seed(),
                plan_hash: plan.plan_hash(),
                shape,
                workers,
                total_wall: shard_started.elapsed(),
            };
            let path = dir.join(format!("shard-{index}.txt"));
            let file = std::fs::File::create(&path).map_err(io_error(&path))?;
            let mut writer =
                ShardWriter::new(BufWriter::new(file), &header).map_err(io_error(&path))?;
            for cell in &cells {
                let id = Some(cell_id(&cell.spec, shape));
                tracer
                    .span(log, "campaign.encode", Some(pass), id, |_, _| {
                        writer.push(cell)
                    })
                    .map_err(io_error(&path))?;
                if cell.outcome.metrics.variants == 1 {
                    traced.single_instructions += cell.outcome.metrics.total_instructions;
                }
            }
            writer.finish().map_err(io_error(&path))?;
            files.push(path);
        }
        let cursors = files
            .iter()
            .map(|file| ShardCursor::open(file).map_err(|error| error.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut merger = ShardMerger::new(cursors).map_err(|error| error.to_string())?;
        let mut aggregator = StreamingAggregator::from_header(merger.header());
        let mut digest = LineDigest::default();
        loop {
            let next = tracer.span(log, "campaign.merge_cell", Some(pass), None, |_, _| {
                merger.next_cell()
            });
            let Some(cell) = next.map_err(|error| error.to_string())? else {
                break;
            };
            let id = Some(cell_id(&cell.spec, shape));
            tracer.span(log, "campaign.absorb", Some(pass), id, |_, _| {
                aggregator.absorb(&cell);
            });
            digest.push(&cell.canonical_line());
            traced.work.add_cell(&cell);
        }
        tracer.span(log, "campaign.render", Some(pass), None, |_, _| {
            render(&aggregator);
        });
        Ok::<_, String>((digest.finish(), files))
    });
    traced.wall = started.elapsed();
    let (digest, files) = merged?;
    let misses = driver.cache.stats().misses;
    if misses != traced.work.units {
        return Err(format!(
            "traced cold pass: {misses} cache misses for {} cells",
            traced.work.units
        ));
    }
    traced.digest = digest;
    traced.bytes = files.iter().map(|file| file_len(file)).sum();
    traced.rounds = spans
        .iter()
        .filter(|span| span.name == "monitor.round")
        .count() as u64;
    traced.failed_units =
        traced.work.mismatches() + (shape.cell_count() as u64).saturating_sub(traced.work.units);
    traced.spans = spans;
    Ok(traced)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |meta| meta.len())
}

/// The traced twin of [`crate::passes::warm_pass`]; `plan` must carry a
/// filled cache directory.
///
/// # Errors
///
/// Fails if `plan` has no cache directory.
pub fn traced_warm_pass(
    plan: &CampaignPlan,
    workers: usize,
    tracer: &Tracer,
) -> Result<TracedPass, String> {
    let cache = plan
        .cell_cache()
        .ok_or("warm pass: the plan has no cache directory")?;
    let shape = plan.shape();
    let mut traced = TracedPass::default();
    let mut spans = Vec::new();
    let started = Instant::now();
    let digest = tracer.span(&mut spans, "pass", None, None, |pass, log| {
        let lookups = run_parallel(plan.cells(), workers, |_, spec| {
            let mut local = Vec::new();
            let id = Some(cell_id(&spec, shape));
            let hit = tracer.span(
                &mut local,
                "campaign.cache_lookup",
                Some(pass),
                id,
                |_, _| cache.lookup(&spec),
            );
            (hit, local)
        });
        let mut aggregator =
            StreamingAggregator::new(plan.name(), plan.base_seed(), plan.plan_hash(), shape);
        aggregator.set_workers(workers);
        let mut digest = LineDigest::default();
        for (hit, local) in lookups {
            log.extend(local);
            let Some(cell) = hit else { continue };
            let id = Some(cell_id(&cell.spec, shape));
            tracer.span(log, "campaign.absorb", Some(pass), id, |_, _| {
                aggregator.absorb(&cell);
            });
            digest.push(&cell.canonical_line());
            traced.work.add_cell(&cell);
        }
        aggregator.set_cache(Some(cache.stats()));
        tracer.span(log, "campaign.render", Some(pass), None, |_, _| {
            render(&aggregator);
        });
        digest.finish()
    });
    traced.wall = started.elapsed();
    traced.digest = digest;
    traced.hits = cache.stats().hits;
    traced.bytes = plan
        .cells()
        .iter()
        .map(|spec| file_len(&cache.entry_path(spec)))
        .sum();
    traced.failed_units =
        traced.work.mismatches() + (shape.cell_count() as u64).saturating_sub(traced.work.units);
    traced.spans = spans;
    Ok(traced)
}

/// The traced twin of [`crate::passes::check_sweep`].
#[must_use]
pub fn traced_check_sweep(targets: &[(Property, CheckTarget)], tracer: &Tracer) -> TracedPass {
    let mut traced = TracedPass::default();
    let mut spans = Vec::new();
    let started = Instant::now();
    let digest = tracer.span(&mut spans, "pass", None, None, |pass, log| {
        let mut digest = LineDigest::default();
        for (index, (property, target)) in targets.iter().enumerate() {
            let id = u32::try_from(index).ok();
            let report = tracer.span(log, "check.target", Some(pass), id, |_, _| {
                BoundedChecker.check(target, &CheckRequest::new(*property, CHECK_DEPTH))
            });
            digest.push(&report.summary_line());
            traced.work.add_check(&report);
            traced.failed_units += u64::from(crate::passes::check_failed(&report));
        }
        digest.finish()
    });
    traced.wall = started.elapsed();
    traced.digest = digest;
    traced.spans = spans;
    traced
}

/// Times world and monitor clones, the copies every cell instantiation and
/// every checker branch makes: [`CLONES`] clones of each provisioned world
/// (`simos.world_clone`), and of a mid-run monitor of each multi-variant
/// configuration in each world (`monitor.clone`).
#[must_use]
pub fn probe_clones(matrix: &Matrix, tracer: &Tracer) -> Vec<Span> {
    let mut spans = Vec::new();
    tracer.span(&mut spans, "probe", None, None, |probe, log| {
        for (compiled, worlds) in matrix.compiled.iter().zip(&matrix.provisioned) {
            for world in worlds {
                for _ in 0..CLONES {
                    let copy = tracer.span(log, "simos.world_clone", Some(probe), None, |_, _| {
                        world.clone()
                    });
                    black_box(copy);
                }
                if compiled.variant_count() < 2 {
                    continue;
                }
                let mut monitor = compiled.instantiate_monitor_in(world);
                monitor
                    .kernel_mut()
                    .net_mut()
                    .preload_request(Port::HTTP, benign_request("/index.html"));
                for _ in 0..PROBE_STEPS {
                    if let StepEvent::Done(_) = monitor.step() {
                        break;
                    }
                }
                for _ in 0..CLONES {
                    let copy = tracer.span(log, "monitor.clone", Some(probe), None, |_, _| {
                        monitor.clone()
                    });
                    black_box(copy);
                }
            }
        }
    });
    spans
}
