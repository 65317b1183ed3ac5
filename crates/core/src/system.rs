//! The system builder: from SimC source to a runnable deployment.

use crate::config::DeploymentConfig;
use crate::outcome::SystemOutcome;
use nvariant_analyze::{analyze_pair, combined_verdict, AnalysisReport, VariantArtifact};
use nvariant_diversity::{AddressTransform, UidTransform, VariantSet, VariantSpec};
use nvariant_monitor::{MonitorConfig, NVariantMonitor};
use nvariant_simos::{OsKernel, WorldBuilder};
use nvariant_transform::{
    TransformError, TransformOptions, TransformStats, UidContext, UidTransformer,
};
use nvariant_types::{Uid, VariantId};
use nvariant_vm::{
    compile_program, CompileError, CompiledProgram, MemoryLayout, ParseError, Process, Program,
};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors raised while building a deployable system.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The SimC source failed to parse.
    Parse(ParseError),
    /// The program failed to compile.
    Compile(CompileError),
    /// The UID transformation failed.
    Transform(TransformError),
    /// The requested variation cannot be instantiated (e.g. a conflicting
    /// composition, or a multi-variant deployment with no variation).
    Variation(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Parse(e) => write!(f, "{e}"),
            BuildError::Compile(e) => write!(f, "{e}"),
            BuildError::Transform(e) => write!(f, "{e}"),
            BuildError::Variation(msg) => write!(f, "invalid variation: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ParseError> for BuildError {
    fn from(e: ParseError) -> Self {
        BuildError::Parse(e)
    }
}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> Self {
        BuildError::Compile(e)
    }
}

impl From<TransformError> for BuildError {
    fn from(e: TransformError) -> Self {
        BuildError::Transform(e)
    }
}

/// Builder for a deployed system.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Clone, Debug)]
pub struct NVariantSystemBuilder {
    program: Program,
    initial_uid: Uid,
    config: DeploymentConfig,
    monitor_config: MonitorConfig,
    transform_options: TransformOptions,
    verify_diversity: bool,
    /// Lazily computed [`fingerprint`](Self::fingerprint), invalidated by
    /// every setter that shapes the compiled artifact. Deriving the
    /// fingerprint walks the canonical pretty-printed source, so store
    /// lookups that probe it repeatedly should not pay that per probe.
    fingerprint_cache: OnceLock<u64>,
}

impl NVariantSystemBuilder {
    /// Starts a builder from SimC source text; the standard library is
    /// linked in automatically.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Parse`] if the source does not parse.
    pub fn from_source(source: &str) -> Result<Self, BuildError> {
        Ok(Self::from_program(nvariant_vm::parse_with_stdlib(source)?))
    }

    /// Starts a builder from an already-parsed program (no standard library
    /// is added).
    #[must_use]
    pub fn from_program(program: Program) -> Self {
        NVariantSystemBuilder {
            program,
            initial_uid: Uid::ROOT,
            config: DeploymentConfig::TwoVariantUid,
            monitor_config: MonitorConfig::default(),
            transform_options: TransformOptions::default(),
            verify_diversity: false,
            fingerprint_cache: OnceLock::new(),
        }
    }

    /// Sets the UID the program starts with (defaults to root, as the
    /// case-study server must bind a privileged port before dropping).
    #[must_use]
    pub fn initial_uid(mut self, uid: Uid) -> Self {
        self.initial_uid = uid;
        self.fingerprint_cache = OnceLock::new();
        self
    }

    /// Selects the deployment configuration (defaults to
    /// [`DeploymentConfig::TwoVariantUid`]).
    #[must_use]
    pub fn config(mut self, config: DeploymentConfig) -> Self {
        self.config = config;
        self.fingerprint_cache = OnceLock::new();
        self
    }

    /// Overrides the monitor configuration. Its limits
    /// ([`MonitorConfig::max_steps_per_slice`] and
    /// [`MonitorConfig::max_syscalls`]) govern every deployment, a single
    /// process included.
    #[must_use]
    pub fn monitor_config(mut self, config: MonitorConfig) -> Self {
        self.monitor_config = config;
        self.fingerprint_cache = OnceLock::new();
        self
    }

    /// Overrides the UID transformation options.
    #[must_use]
    pub fn transform_options(mut self, options: TransformOptions) -> Self {
        self.transform_options = options;
        self.fingerprint_cache = OnceLock::new();
        self
    }

    /// Enables the static diversity verifier: [`compile`](Self::compile)
    /// runs [`nvariant_analyze::analyze_pair`] over every variant pair of a
    /// multi-variant plan and records the combined verdict in the artifact
    /// ([`CompiledSystem::analysis`]). Off by default — verification adds
    /// compile-time cost, and its verdict participates in the artifact
    /// fingerprint, so verified and unverified builds cache separately.
    #[must_use]
    pub fn verify_diversity(mut self, verify: bool) -> Self {
        self.verify_diversity = verify;
        self.fingerprint_cache = OnceLock::new();
        self
    }

    /// The canonical content fingerprint of the artifact this builder would
    /// [`compile`](Self::compile): FNV-1a 64 over the program source (in its
    /// canonical pretty-printed form) plus every builder knob that shapes
    /// the compiled images — deployment configuration, transformation
    /// options, initial UID, monitor configuration (execution limits
    /// included) and whether the static verifier runs.
    ///
    /// No world enters it: an artifact deploys into any world through
    /// [`CompiledSystem::provision_world`]. Two builders with equal
    /// fingerprints compile byte-identical variant images, which is what
    /// lets the [`ArtifactStore`](crate::ArtifactStore) reuse compiled
    /// artifacts across processes.
    ///
    /// The value is computed once per builder state and cached; every
    /// setter that shapes the artifact resets the cache, so repeated store
    /// lookups do not re-render the canonical source each time.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint_cache
            .get_or_init(|| self.compute_fingerprint())
    }

    /// The uncached fingerprint derivation behind
    /// [`fingerprint`](Self::fingerprint).
    fn compute_fingerprint(&self) -> u64 {
        let mut descriptor = String::from("nvariant-artifact-fingerprint v1\n");
        descriptor.push_str(&format!("config {:?}\n", self.config));
        descriptor.push_str(&format!("transform_options {:?}\n", self.transform_options));
        descriptor.push_str(&format!("initial_uid {}\n", self.initial_uid.as_u32()));
        // `policy: KillAndReport`, the base layout and the empty extra
        // unshared list are constants, and the run limits repeat the
        // monitor configuration's. Their lines keep the bytes they always
        // rendered, because changing them would move every artifact
        // fingerprint and every plan hash.
        let monitor = &self.monitor_config;
        descriptor.push_str(&format!(
            "monitor_config MonitorConfig {{ unshared_files: {:?}, max_steps_per_slice: {}, \
             max_syscalls: {}, policy: KillAndReport, detection_checks: {} }}\n",
            monitor.unshared_files,
            monitor.max_steps_per_slice,
            monitor.max_syscalls,
            monitor.detection_checks
        ));
        descriptor.push_str(&format!("base_layout {:?}\n", MemoryLayout::default()));
        descriptor.push_str(&format!(
            "run_limits RunLimits {{ max_steps_per_slice: {}, max_syscalls: {} }}\n",
            monitor.max_steps_per_slice, monitor.max_syscalls
        ));
        descriptor.push_str("extra_unshared []\n");
        descriptor.push_str(&format!("verify_diversity {}\n", self.verify_diversity));
        descriptor.push_str("source\n");
        descriptor.push_str(&nvariant_vm::pretty_print(&self.program));
        crate::store::fnv1a_64(descriptor.as_bytes())
    }

    /// Runs the expensive half of deployment — parsing already happened,
    /// so this transforms, compiles and provisions — and returns a
    /// [`CompiledSystem`] artifact that can be cheaply
    /// [instantiated](CompiledSystem::instantiate) many times.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the program fails to transform or
    /// compile, or the variation cannot be instantiated.
    pub fn compile(self) -> Result<CompiledSystem, BuildError> {
        let (sources, programs, stats) = self.compile_programs()?;
        let analysis = if self.verify_diversity {
            Some(combined_verdict(
                &self.analysis_reports(&sources, &programs)?,
            ))
        } else {
            None
        };
        self.assemble(programs, stats, analysis)
    }

    /// Each variant's specification: the configuration's variation split
    /// across its variants, or one identity spec for a single process.
    fn variant_specs(&self) -> Result<Vec<VariantSpec>, BuildError> {
        let n = self.config.variant_count();
        if n == 1 {
            return Ok(vec![VariantSpec::identity()]);
        }
        let variation = self.config.variation().ok_or_else(|| {
            BuildError::Variation("a multi-variant deployment requires a variation".to_string())
        })?;
        variation
            .try_variant_specs(n)
            .map_err(BuildError::Variation)
    }

    /// The costly half of compiling: each variant's transformed source and
    /// compiled program, plus the transformation counters.
    fn compile_programs(
        &self,
    ) -> Result<(Vec<Program>, Vec<CompiledProgram>, TransformStats), BuildError> {
        let specs = self.variant_specs()?;
        let (sources, stats) = if self.config.transforms_uids() {
            let uid_transforms: Vec<UidTransform> = specs.iter().map(|s| s.uid).collect();
            let variants = UidTransformer::new(self.transform_options.clone())
                .transform_for_variants(&self.program, &uid_transforms)?;
            let stats = variants.last().map(|v| v.stats).unwrap_or_default();
            (variants.into_iter().map(|v| v.program).collect(), stats)
        } else {
            (
                vec![self.program.clone(); specs.len()],
                TransformStats::default(),
            )
        };
        let programs = sources
            .iter()
            .map(compile_program)
            .collect::<Result<_, _>>()?;
        Ok((sources, programs, stats))
    }

    /// Assembles an artifact from what compiling computes — one compiled
    /// program per variant, the transformation counters and the verifier's
    /// verdict — and derives everything else from this builder: the
    /// variant specifications, layouts and tags, the monitor configuration
    /// and the provisioned kernel template. [`compile`](Self::compile) and
    /// the [`ArtifactStore`](crate::ArtifactStore)'s disk load both build
    /// their [`CompiledSystem`] here, so the two can differ only in the
    /// products passed in.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Variation`] if the variation cannot be
    /// instantiated, or `programs` does not hold one program per variant.
    pub(crate) fn assemble(
        &self,
        programs: Vec<CompiledProgram>,
        transform_stats: TransformStats,
        analysis: Option<String>,
    ) -> Result<CompiledSystem, BuildError> {
        let specs = self.variant_specs()?;
        if programs.len() != specs.len() {
            return Err(BuildError::Variation(format!(
                "{} compiled programs for {} variants",
                programs.len(),
                specs.len()
            )));
        }
        // Register the unshared paths with the monitor: the *set* of paths
        // is a property of the configuration, while the file contents are
        // provisioned per world by `provision_world`. A group of one has no
        // sibling to keep a copy apart from.
        let mut monitor_config = self.monitor_config.clone();
        if specs.len() > 1 {
            let account_files: &[&str] = if self.config.uses_unshared_account_files() {
                &["/etc/passwd", "/etc/group"]
            } else {
                &[]
            };
            for path in account_files {
                if !monitor_config.is_unshared(path) {
                    monitor_config = monitor_config.with_unshared_file(path);
                }
            }
        }
        let plan = CompiledPlan {
            variants: programs
                .into_iter()
                .zip(&specs)
                .map(|(program, spec)| {
                    CompiledVariant::new(program, layout_for(spec.addr), spec.tag)
                })
                .collect(),
            specs: VariantSet::new(specs),
            monitor_config,
        };
        let mut system = CompiledSystem {
            fingerprint: self.fingerprint(),
            config: self.config.clone(),
            transform_stats,
            kernel_template: WorldBuilder::standard().build(),
            initial_uid: self.initial_uid,
            analysis,
            plan,
        };
        system.kernel_template = system.provision_world(&system.kernel_template);
        Ok(system)
    }

    /// Runs the static diversity verifier over this builder's configuration
    /// and returns the **full** per-pair reports (variant 0 paired with
    /// each of the others) — what the `nvariant_analyze` CLI renders.
    /// Single-process configurations have no pairs and return an empty
    /// vector; [`nvariant_analyze::combined_verdict`] collapses either
    /// result into the verdict line [`compile`](Self::compile) stores.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the program fails to transform or
    /// compile.
    pub fn analyze_diversity(&self) -> Result<Vec<AnalysisReport>, BuildError> {
        if self.config.variant_count() == 1 {
            return Ok(Vec::new());
        }
        let (sources, programs, _) = self.compile_programs()?;
        self.analysis_reports(&sources, &programs)
    }

    /// Verifies variant 0 against each sibling. The UID context is derived
    /// from variant 0's transformed AST — available only here at compile
    /// time, which is why the artifact store persists the verdict rather
    /// than recomputing it on warm hits. A single process has no pair, and
    /// the verdict of an empty pair set is vacuously clean.
    fn analysis_reports(
        &self,
        sources: &[Program],
        programs: &[CompiledProgram],
    ) -> Result<Vec<AnalysisReport>, BuildError> {
        if programs.len() < 2 {
            return Ok(Vec::new());
        }
        let ctx = UidContext::analyze(&sources[0])
            .map_err(|e| BuildError::Transform(TransformError::Type(e)))?;
        let artifacts: Vec<VariantArtifact<'_>> = programs
            .iter()
            .zip(self.variant_specs()?)
            .map(|(program, spec)| VariantArtifact {
                program,
                image: program.retagged_image(spec.tag),
                layout: layout_for(spec.addr),
                spec,
            })
            .collect();
        Ok(artifacts[1..]
            .iter()
            .map(|other| analyze_pair(&artifacts[0], other, &ctx))
            .collect())
    }

    /// Builds the runnable system (equivalent to
    /// [`compile`](Self::compile) followed by
    /// [`instantiate`](CompiledSystem::instantiate); callers that deploy the
    /// same configuration more than once should hold on to the
    /// [`CompiledSystem`] instead).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the program fails to transform or
    /// compile, or the variation cannot be instantiated.
    pub fn build(self) -> Result<RunnableSystem, BuildError> {
        Ok(self.compile()?.instantiate())
    }
}

/// The memory layout of a variant whose addresses `addr` transforms: the
/// default layout, partitioned and offset as the transform asks.
fn layout_for(addr: AddressTransform) -> MemoryLayout {
    let base = MemoryLayout::default();
    match addr {
        AddressTransform::Identity => base,
        AddressTransform::PartitionHigh => base.with_partition_bit(),
        AddressTransform::PartitionHighWithOffset(offset) => {
            base.with_partition_bit().with_offset(offset)
        }
    }
}

/// The per-variant output of compilation: bytecode plus the memory layout
/// and instruction tag the variant runs under.
#[derive(Clone, Debug)]
pub(crate) struct CompiledVariant {
    pub(crate) program: CompiledProgram,
    pub(crate) layout: MemoryLayout,
    pub(crate) tag: u8,
    /// The code image restamped with `tag`, computed once at compile time
    /// and shared by every process this variant instantiates — per-cell
    /// instantiation copies no code bytes.
    pub(crate) image: Arc<[u8]>,
}

impl CompiledVariant {
    pub(crate) fn new(program: CompiledProgram, layout: MemoryLayout, tag: u8) -> Self {
        let image = program.retagged_image(tag);
        CompiledVariant {
            program,
            layout,
            tag,
            image,
        }
    }
}

/// What a deployment runs: one compiled variant per process of the group
/// (a single process is a group of one identity variant), their
/// specifications and the monitor configuration.
#[derive(Clone, Debug)]
pub(crate) struct CompiledPlan {
    pub(crate) variants: Vec<CompiledVariant>,
    pub(crate) specs: VariantSet,
    pub(crate) monitor_config: MonitorConfig,
}

/// A build-once artifact: the transformed and compiled variant programs
/// plus the provisioned world template, for one [`DeploymentConfig`].
///
/// Producing a `CompiledSystem` (via [`NVariantSystemBuilder::compile`])
/// pays the full parse → transform → compile → provision pipeline once;
/// [`instantiate`](Self::instantiate) then stamps out independent
/// [`RunnableSystem`]s by cloning memory images only, which is an order of
/// magnitude cheaper. The artifact is immutable, `Send + Sync`, and is what
/// campaign engines share across worker threads.
#[derive(Clone, Debug)]
pub struct CompiledSystem {
    pub(crate) fingerprint: u64,
    pub(crate) config: DeploymentConfig,
    pub(crate) transform_stats: TransformStats,
    pub(crate) kernel_template: OsKernel,
    pub(crate) initial_uid: Uid,
    /// The static diversity verifier's combined verdict line, present when
    /// the artifact was compiled with
    /// [`NVariantSystemBuilder::verify_diversity`] (or loaded from a store
    /// entry that recorded one).
    pub(crate) analysis: Option<String>,
    pub(crate) plan: CompiledPlan,
}

impl CompiledSystem {
    /// The deployment configuration this artifact was compiled for.
    #[must_use]
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// The canonical content fingerprint the builder computed for this
    /// artifact ([`NVariantSystemBuilder::fingerprint`]): FNV-1a 64 over the
    /// canonical source text and every builder knob that shapes the compiled
    /// images. Stable across processes and machines, and the key under which
    /// the [`ArtifactStore`](crate::ArtifactStore) caches the artifact.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The change counts of the UID transformation applied at compile time
    /// (all zeros for untransformed configurations).
    #[must_use]
    pub fn transform_stats(&self) -> &TransformStats {
        &self.transform_stats
    }

    /// The static diversity verifier's combined verdict line, when the
    /// artifact was compiled with
    /// [`NVariantSystemBuilder::verify_diversity`] — `None` for unverified
    /// builds. Clean verdicts satisfy
    /// [`nvariant_analyze::verdict_is_clean`]; anything else names the
    /// first finding (property, pc, function). The verdict is persisted in
    /// the artifact store, so warm cache hits carry it without re-running
    /// the analysis.
    #[must_use]
    pub fn analysis(&self) -> Option<&str> {
        self.analysis.as_deref()
    }

    /// Number of variant processes an instantiation will run.
    #[must_use]
    pub fn variant_count(&self) -> usize {
        self.plan.variants.len()
    }

    /// The provisioned world template instantiations start from.
    #[must_use]
    pub fn kernel_template(&self) -> &OsKernel {
        &self.kernel_template
    }

    /// Provisions an alternative world for this artifact: clones `base` and
    /// re-derives every per-variant unshared file from *that world's* state
    /// (the `/etc/passwd-N` / `/etc/group-N` copies are rendered from the
    /// base world's account database through each variant's reexpression
    /// function).
    ///
    /// The returned kernel is what [`instantiate_in`](Self::instantiate_in)
    /// expects: provision once per (artifact, world) pair, then instantiate
    /// per run. The artifact's own [`kernel_template`](Self::kernel_template)
    /// is exactly `provision_world` applied to [`WorldBuilder::standard`].
    /// A single process has no unshared files: its world is `base`.
    #[must_use]
    pub fn provision_world(&self, base: &OsKernel) -> OsKernel {
        let mut kernel = base.clone();
        let specs = &self.plan.specs;
        if specs.len() < 2 {
            return kernel;
        }
        if self.config.uses_unshared_account_files() {
            let db = kernel.passwd().clone();
            for (variant, spec) in specs.iter() {
                let index = variant.index();
                let uid_transform = spec.uid;
                kernel.fs_mut().create(
                    &format!("/etc/passwd-{index}"),
                    db.render_passwd_with(|uid| uid_transform.apply(uid))
                        .into_bytes(),
                );
                kernel.fs_mut().create(
                    &format!("/etc/group-{index}"),
                    db.render_group_with(|gid| {
                        nvariant_types::Gid::new(
                            uid_transform.apply(Uid::new(gid.as_u32())).as_u32(),
                        )
                    })
                    .into_bytes(),
                );
            }
        }
        kernel
    }

    /// Stamps out a fresh, independent [`RunnableSystem`].
    ///
    /// This performs *no* parsing, transformation or compilation: it clones
    /// the provisioned world template and the variant memory images, and
    /// wires up a monitor. Every instantiation starts from identical state,
    /// so two instantiations fed the same inputs run identically.
    #[must_use]
    pub fn instantiate(&self) -> RunnableSystem {
        self.instantiate_in(&self.kernel_template)
    }

    /// Stamps out a fresh [`RunnableSystem`] deployed into `world` instead
    /// of the artifact's own compile-time template — the world axis of a
    /// campaign matrix.
    ///
    /// `world` must be a kernel provisioned for this artifact (the
    /// artifact's [`kernel_template`](Self::kernel_template), or the result
    /// of [`provision_world`](Self::provision_world) on an alternative base
    /// world); deployments that rely on unshared per-variant files read them
    /// from the world they are instantiated into.
    #[must_use]
    pub fn instantiate_in(&self, world: &OsKernel) -> RunnableSystem {
        RunnableSystem {
            config: self.config.clone(),
            transform_stats: self.transform_stats,
            monitor: Box::new(self.instantiate_monitor_in(world)),
        }
    }

    /// Stamps out a bare [`NVariantMonitor`] deployed into `world`, for
    /// callers that need step-wise control over the group (the model
    /// checker). Every deployment, the campaign's included, instantiates
    /// through here: a single process is a group of one identity variant
    /// under the artifact's monitor configuration.
    #[must_use]
    pub fn instantiate_monitor_in(&self, world: &OsKernel) -> NVariantMonitor {
        let plan = &self.plan;
        NVariantMonitor::new(
            world.clone(),
            plan.variants
                .iter()
                .map(|v| Process::with_image(&v.program, v.layout, v.tag, Arc::clone(&v.image)))
                .collect(),
            plan.specs.clone(),
            self.initial_uid,
            plan.monitor_config.clone(),
        )
    }
}

/// A deployed system, ready to run.
pub struct RunnableSystem {
    config: DeploymentConfig,
    transform_stats: TransformStats,
    monitor: Box<NVariantMonitor>,
}

impl RunnableSystem {
    /// The deployment configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// The change counts of the UID transformation applied at build time
    /// (all zeros for untransformed configurations).
    #[must_use]
    pub fn transform_stats(&self) -> &TransformStats {
        &self.transform_stats
    }

    /// Number of variant processes.
    #[must_use]
    pub fn variant_count(&self) -> usize {
        self.monitor.variant_count()
    }

    /// Read access to the simulated kernel (files, network, credentials).
    #[must_use]
    pub fn kernel(&self) -> &OsKernel {
        self.monitor.kernel()
    }

    /// Mutable access to the simulated kernel, used to stage client
    /// requests before calling [`RunnableSystem::run`].
    pub fn kernel_mut(&mut self) -> &mut OsKernel {
        self.monitor.kernel_mut()
    }

    /// The underlying monitor, for N-variant deployments. A single process
    /// runs as a group of one, which has nothing to compare, so it has no
    /// monitor to show: this returns `None`.
    #[must_use]
    pub fn monitor(&self) -> Option<&NVariantMonitor> {
        (self.variant_count() > 1).then_some(&*self.monitor)
    }

    /// Mutable access to the underlying monitor, for N-variant deployments
    /// (`None` for a single process, as for [`monitor`](Self::monitor)).
    pub fn monitor_mut(&mut self) -> Option<&mut NVariantMonitor> {
        (self.variant_count() > 1).then_some(&mut *self.monitor)
    }

    /// The virtual address of a named global variable in variant 0's
    /// address space, if it exists. Attack payload generators use this the
    /// way a real attacker uses a leaked or guessed address.
    #[must_use]
    pub fn global_addr(&self, name: &str) -> Option<nvariant_types::VirtAddr> {
        self.monitor
            .variant_process(VariantId::P0)
            .global_addr(name)
    }

    /// Runs the system to completion and returns the outcome. Calling `run`
    /// again returns the same outcome (the processes have terminated).
    pub fn run(&mut self) -> SystemOutcome {
        SystemOutcome::from_nvariant(&self.monitor.run_to_completion())
    }
}

impl fmt::Debug for RunnableSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunnableSystem")
            .field("config", &self.config)
            .field("transform_stats", &self.transform_stats)
            .field("variants", &self.variant_count())
            // `monitor` holds live interpreter state with no useful rendering.
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_diversity::Variation;
    use nvariant_types::Port;

    /// A minimal privilege-dropping server fragment exercising UID syscalls,
    /// file I/O and the account database.
    const DROP_PRIVILEGES: &str = r"
        var server_uid: uid_t;
        fn main() -> int {
            var rc: int;
            server_uid = getuid();
            if (server_uid == 0) {
                rc = setuid(48);
                if (rc != 0) { return 2; }
            }
            if (geteuid() == 0) { return 3; }
            return 0;
        }
    ";

    fn outcome_for(config: DeploymentConfig) -> SystemOutcome {
        let mut system = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(config)
            .initial_uid(Uid::ROOT)
            .build()
            .unwrap();
        system.run()
    }

    #[test]
    fn all_four_paper_configurations_run_the_clean_program_identically() {
        for config in DeploymentConfig::paper_configurations() {
            let label = config.to_string();
            let outcome = outcome_for(config);
            assert_eq!(outcome.exit_status, Some(0), "{label}: {outcome}");
            assert!(!outcome.detected_attack(), "{label}");
        }
    }

    #[test]
    fn paper_configurations_verify_diversity_clean() {
        for config in DeploymentConfig::paper_configurations() {
            let label = config.to_string();
            let compiled = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
                .unwrap()
                .config(config)
                .verify_diversity(true)
                .compile()
                .unwrap();
            let verdict = compiled.analysis().expect("verified build has a verdict");
            assert!(
                nvariant_analyze::verdict_is_clean(verdict),
                "{label}: {verdict}"
            );
        }
        // Unverified builds carry no verdict.
        let unverified = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .compile()
            .unwrap();
        assert!(unverified.analysis().is_none());
    }

    #[test]
    fn analyze_diversity_returns_full_reports() {
        let builder = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid);
        let reports = builder.analyze_diversity().unwrap();
        assert_eq!(reports.len(), 1, "one pair for two variants");
        assert!(reports[0].is_clean(), "{}", reports[0].render());
        assert!(reports[0].instructions > 0);
        // Single-process configurations have no pairs.
        let single = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TransformedSingle);
        assert!(single.analyze_diversity().unwrap().is_empty());
    }

    #[test]
    fn transformed_configurations_report_change_counts() {
        let system = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .build()
            .unwrap();
        let stats = system.transform_stats();
        assert!(stats.uid_constants_reexpressed >= 1);
        assert!(stats.comparison_exposures >= 2);
        assert!(stats.paper_change_total() > 0);

        let untransformed = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantAddress)
            .build()
            .unwrap();
        assert_eq!(untransformed.transform_stats().total(), 0);
    }

    #[test]
    fn two_variant_uid_provisions_unshared_account_files() {
        let system = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .build()
            .unwrap();
        let fs = system.kernel().fs();
        assert!(fs.exists("/etc/passwd-0"));
        assert!(fs.exists("/etc/passwd-1"));
        assert!(fs.exists("/etc/group-1"));
        // Variant 1's copy has the re-expressed UID for httpd.
        let text = String::from_utf8(fs.get("/etc/passwd-1").unwrap().data.to_vec()).unwrap();
        assert!(text.contains(&format!("{}", 48u32 ^ 0x7FFF_FFFF)));
        // Address-partitioned deployments do not need them.
        let system = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantAddress)
            .build()
            .unwrap();
        assert!(!system.kernel().fs().exists("/etc/passwd-0"));
    }

    #[test]
    fn variant_counts_and_monitor_access() {
        let single = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::Unmodified)
            .build()
            .unwrap();
        assert_eq!(single.variant_count(), 1);
        assert!(single.monitor().is_none());

        let multi = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .build()
            .unwrap();
        assert_eq!(multi.variant_count(), 2);
        assert!(multi.monitor().is_some());
        assert!(format!("{multi:?}").contains("TwoVariantUid"));
    }

    #[test]
    fn composed_and_tagging_configurations_run_cleanly() {
        for config in [
            DeploymentConfig::composed_uid_and_address(),
            DeploymentConfig::two_variant_instruction_tagging(),
        ] {
            let label = config.to_string();
            let outcome = outcome_for(config);
            // Instruction tagging runs the untransformed program, whose UID
            // constants stay equivalent because neither variant re-expresses
            // UID data.
            assert_eq!(outcome.exit_status, Some(0), "{label}: {outcome}");
        }
    }

    #[test]
    fn three_variant_uid_deployment_is_supported() {
        let config = DeploymentConfig::Custom {
            variation: Variation::uid_diversity(),
            variants: 3,
            transform_uids: true,
        };
        let outcome = outcome_for(config);
        assert_eq!(outcome.exit_status, Some(0), "{outcome}");
        assert_eq!(outcome.metrics.variants, 3);
    }

    #[test]
    fn compiled_system_instantiates_independent_runs() {
        let compiled = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .compile()
            .unwrap();
        assert_eq!(compiled.variant_count(), 2);
        assert_eq!(compiled.config(), &DeploymentConfig::TwoVariantUid);
        assert!(compiled.transform_stats().paper_change_total() > 0);
        // The template is provisioned once, at compile time.
        assert!(compiled.kernel_template().fs().exists("/etc/passwd-1"));

        let mut first = compiled.instantiate();
        let mut second = compiled.instantiate();
        // Mutating one instantiation leaves its siblings untouched.
        first.kernel_mut().fs_mut().create("/tmp/scratch", vec![1]);
        assert!(!second.kernel().fs().exists("/tmp/scratch"));
        assert!(!compiled.kernel_template().fs().exists("/tmp/scratch"));
        let a = first.run();
        let b = second.run();
        assert_eq!(a, b);
        assert_eq!(a.exit_status, Some(0));
        // The artifact is still usable after its instantiations ran.
        assert_eq!(compiled.instantiate().run(), a);
    }

    #[test]
    fn provision_world_rederives_unshared_files_from_the_new_world() {
        use nvariant_simos::WorldTemplate;
        let compiled = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .compile()
            .unwrap();
        let alt = WorldTemplate::alternate_accounts();
        let provisioned = compiled.provision_world(alt.kernel());
        // The per-variant copies exist and reflect the *alternate* accounts:
        // httpd is 61 in that world, re-expressed in variant 1's copy.
        let text = String::from_utf8(
            provisioned
                .fs()
                .get("/etc/passwd-1")
                .expect("unshared copy provisioned")
                .data
                .to_vec(),
        )
        .unwrap();
        assert!(text.contains(&format!("{}", 61u32 ^ 0x7FFF_FFFF)), "{text}");
        assert!(
            !text.contains(&format!("{}", 48u32 ^ 0x7FFF_FFFF)),
            "{text}"
        );
        // The template never learns about the alternate world.
        assert!(!alt.kernel().fs().exists("/etc/passwd-1"));
        // And the base world passed in is untouched (provision clones).
        let template_text = String::from_utf8(
            compiled
                .kernel_template()
                .fs()
                .get("/etc/passwd-1")
                .unwrap()
                .data
                .to_vec(),
        )
        .unwrap();
        assert!(template_text.contains(&format!("{}", 48u32 ^ 0x7FFF_FFFF)));
    }

    #[test]
    fn instantiate_in_deploys_into_the_given_world() {
        use nvariant_simos::WorldTemplate;
        let compiled = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .compile()
            .unwrap();
        let provisioned = compiled.provision_world(WorldTemplate::alternate_accounts().kernel());
        let mut system = compiled.instantiate_in(&provisioned);
        assert_eq!(
            system
                .kernel()
                .passwd()
                .lookup_user("httpd")
                .unwrap()
                .uid
                .as_u32(),
            61
        );
        let outcome = system.run();
        assert_eq!(outcome.exit_status, Some(0), "{outcome}");
        assert!(!outcome.detected_attack());
        // instantiate() is instantiate_in() on the artifact's own template.
        let a = compiled.instantiate().run();
        let b = compiled.instantiate_in(compiled.kernel_template()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn single_process_artifacts_instantiate_fresh_processes() {
        let compiled = NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
            .unwrap()
            .config(DeploymentConfig::Unmodified)
            .compile()
            .unwrap();
        assert_eq!(compiled.variant_count(), 1);
        assert_eq!(compiled.transform_stats().total(), 0);
        let a = compiled.instantiate().run();
        let b = compiled.instantiate().run();
        assert_eq!(a, b);
        assert_eq!(a.exit_status, Some(0));
    }

    #[test]
    fn run_returns_the_same_outcome_when_called_again() {
        // Variant-dependent output under UID diversity without the
        // transformation: the monitor alarms at the write.
        let alarmed = NVariantSystemBuilder::from_source(
            r"
            fn main() -> int {
                var line: buf[16];
                utoa(getuid(), &line);
                write(1, &line, 4);
                return 0;
            }
            ",
        )
        .unwrap()
        .config(DeploymentConfig::Custom {
            variation: Variation::uid_diversity(),
            variants: 2,
            transform_uids: false,
        })
        .build()
        .unwrap();
        let faulted = NVariantSystemBuilder::from_source(
            "fn main() -> int { var p: ptr; p = 4; return *p; }",
        )
        .unwrap()
        .config(DeploymentConfig::Unmodified)
        .build()
        .unwrap();
        for (mut system, alarms) in [(alarmed, true), (faulted, false)] {
            let first = system.run();
            assert_eq!(first.detected_attack(), alarms, "{first}");
            assert_eq!(first.fault.is_some(), !alarms, "{first}");
            assert_eq!(system.run(), first);
        }
    }

    #[test]
    fn single_process_limits_come_from_the_monitor_config() {
        let compiled = NVariantSystemBuilder::from_source(
            "fn main() -> int { while (1) { time(); } return 0; }",
        )
        .unwrap()
        .config(DeploymentConfig::Unmodified)
        .monitor_config(MonitorConfig {
            max_syscalls: 5,
            ..MonitorConfig::default()
        })
        .compile()
        .unwrap();
        let outcome = compiled.instantiate().run();
        assert_eq!(outcome.metrics.syscalls, 5);
        assert!(!outcome.detected_attack());
        assert_eq!(
            outcome.fault,
            Some(nvariant_vm::Fault::StepLimitExceeded.to_string())
        );
        // The checker's entry point instantiates the same way.
        let mut monitor = compiled.instantiate_monitor_in(compiled.kernel_template());
        assert_eq!(monitor.run_to_completion().metrics.syscalls, 5);
    }

    #[test]
    fn fingerprint_is_cached_and_setter_invalidated() {
        let builder = NVariantSystemBuilder::from_source(DROP_PRIVILEGES).unwrap();
        let base = builder.fingerprint();
        assert_eq!(base, builder.fingerprint());
        // A clone of an unchanged builder keeps the same fingerprint.
        assert_eq!(builder.clone().fingerprint(), base);
        // Every artifact-shaping setter re-keys it.
        let changed = builder.config(DeploymentConfig::Unmodified);
        assert_ne!(changed.fingerprint(), base);
    }

    #[test]
    fn build_errors_are_reported() {
        assert!(matches!(
            NVariantSystemBuilder::from_source("fn broken("),
            Err(BuildError::Parse(_))
        ));
        let no_main = nvariant_vm::parse_program("fn helper() -> int { return 1; }").unwrap();
        assert!(matches!(
            NVariantSystemBuilder::from_program(no_main)
                .config(DeploymentConfig::Unmodified)
                .build(),
            Err(BuildError::Compile(_))
        ));
        let conflicting = DeploymentConfig::Custom {
            variation: Variation::composed(vec![
                Variation::uid_diversity(),
                Variation::uid_diversity_full_mask(),
            ]),
            variants: 2,
            transform_uids: true,
        };
        assert!(matches!(
            NVariantSystemBuilder::from_source(DROP_PRIVILEGES)
                .unwrap()
                .config(conflicting)
                .build(),
            Err(BuildError::Variation(_))
        ));
    }

    #[test]
    fn staged_network_requests_are_served_after_build() {
        // An end-to-end mini server under Configuration 4.
        let server = r#"
            fn main() -> int {
                var sock: int;
                var conn: int;
                var request: buf[256];
                var uid: uid_t;
                sock = socket();
                bind(sock, 80);
                listen(sock);
                uid = getuid();
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
        let mut system = NVariantSystemBuilder::from_source(server)
            .unwrap()
            .config(DeploymentConfig::TwoVariantUid)
            .initial_uid(Uid::ROOT)
            .build()
            .unwrap();
        for _ in 0..3 {
            system
                .kernel_mut()
                .net_mut()
                .preload_request(Port::HTTP, b"GET / HTTP/1.0\r\n\r\n".to_vec());
        }
        let outcome = system.run();
        assert_eq!(outcome.exit_status, Some(0), "{outcome}");
        assert_eq!(system.kernel().net().connections().count(), 3);
        assert!(system
            .kernel()
            .net()
            .connections()
            .all(|c| c.response.starts_with(b"HTTP/1.0 200 OK")));
        assert!(outcome.metrics.monitor_checks > 10);
    }
}
