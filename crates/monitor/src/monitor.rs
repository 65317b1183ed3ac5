//! The monitor proper: lockstep execution, equivalence checking, I/O-once
//! replication, and alarm generation.
//!
//! A synchronization point has two halves: every variant runs to its next
//! trap, then the monitor compares the traps and serves the call. Both
//! halves normally run inside [`NVariantMonitor::step`].
//! [`NVariantMonitor::advance`] runs the first half on its own and holds
//! the traps, and the next `step` serves the held traps without running
//! anything. A monitor holding traps is between the halves of a point:
//! its [`state_digest`](NVariantMonitor::state_digest) is not defined
//! there, because held requests are not part of it.

use crate::alarm::{Alarm, DivergenceKind};
use crate::config::MonitorConfig;
use crate::fdtable::VirtualFdTable;
use crate::metrics::ExecutionMetrics;
use nvariant_diversity::{Canonicalizer, DataClass, VariantSet};
use nvariant_simos::{OpenFlags, OsKernel, SyscallRequest, Sysno};
use nvariant_types::{Errno, Fd, Fnv1a, Gid, Pid, Port, Uid, VariantId, Word};
use nvariant_vm::{Fault, Process, TrapReason};

/// The observable outcome of running an N-variant group to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NVariantOutcome {
    /// The common exit status, if all variants exited normally and agreed.
    pub exit_status: Option<i32>,
    /// The alarm that ended the run, if a divergence terminated it.
    pub alarm: Option<Alarm>,
    /// The fault that ended a group of one: a single process has no
    /// sibling to diverge from, so its fault, or reaching
    /// [`MonitorConfig::max_syscalls`], ends the run as a fault. In a larger
    /// group the same event raises a [`DivergenceKind::VariantFault`] alarm
    /// and this stays `None`.
    pub fault: Option<Fault>,
    /// Execution counters.
    pub metrics: ExecutionMetrics,
}

impl NVariantOutcome {
    /// Returns `true` if the monitor detected an attack (raised an alarm).
    #[must_use]
    pub fn detected_attack(&self) -> bool {
        self.alarm.is_some()
    }

    /// Returns `true` if the group terminated normally with agreeing exits.
    #[must_use]
    pub fn exited_normally(&self) -> bool {
        self.exit_status.is_some() && self.alarm.is_none() && self.fault.is_none()
    }
}

#[derive(Clone)]
struct VariantRuntime {
    process: Process,
    canon: Canonicalizer,
}

/// One observed synchronization step that did *not* terminate the group
/// (see [`NVariantMonitor::step`]). Any alarm terminates the group, so a
/// step that raised one is a [`StepEvent::Done`], never an observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepObservation {
    /// The syscall processed at this synchronization point.
    pub sysno: Sysno,
    /// Bytes of externally visible output (console or network) produced by
    /// this step.
    pub output_delta: u64,
    /// `true` if the canonicalized arguments disagreed across variants at
    /// this synchronization point — the monitor's divergence evidence,
    /// reported even when [`MonitorConfig::detection_checks`] is disabled
    /// (that is what lets a model checker observe what a weakened monitor
    /// silently ignores).
    pub divergent_args: bool,
}

/// The call a variant trapped on, if it trapped on one.
fn trap_sysno(trap: &TrapReason) -> Option<Sysno> {
    match trap {
        TrapReason::Syscall(req) => Some(req.sysno),
        _ => None,
    }
}

/// Result of a single monitor step (see [`NVariantMonitor::step`]).
#[derive(Clone, Debug)]
pub enum StepEvent {
    /// The group advanced one synchronization point and keeps running.
    Progress(StepObservation),
    /// The group terminated (normal exit, alarm-induced kill, or the fault
    /// that ends a group of one). Every later step returns the same outcome.
    Done(NVariantOutcome),
}

/// The N-variant monitor: owns the kernel, the variant processes and the
/// synchronized descriptor table, and drives the group to completion.
///
/// Every deployment runs here, a single process as a group of one identity
/// variant. Such a group has nothing to compare: it counts no
/// [`monitor_checks`](ExecutionMetrics::monitor_checks) and no
/// [`detection_calls`](ExecutionMetrics::detection_calls), and a fault ends
/// it as a fault ([`NVariantOutcome::fault`]) rather than an alarm.
///
/// The monitor is `Clone`: the model checker snapshots whole monitors to
/// branch over syscall interleavings and attacker moves, and clones a
/// monitor after [`advance`](Self::advance) to serve one point's traps
/// under several receive schedules.
#[derive(Clone)]
pub struct NVariantMonitor {
    kernel: OsKernel,
    group_pid: Pid,
    variants: Vec<VariantRuntime>,
    vfds: VirtualFdTable,
    config: MonitorConfig,
    metrics: ExecutionMetrics,
    /// Bytes of shared (console or network) output, the source of
    /// [`StepObservation::output_delta`].
    output_bytes: u64,
    /// Syscall processed by the most recent synchronization point (reported
    /// through [`StepEvent::Progress`]).
    last_sysno: Option<Sysno>,
    /// Whether the most recent synchronization point saw canonically
    /// divergent arguments.
    last_divergent_args: bool,
    /// The terminal outcome, once the group has terminated: the variants
    /// cannot resume, so every later step returns it.
    finished: Option<NVariantOutcome>,
    /// Buffers a synchronization point fills and leaves empty, kept so
    /// that a point allocates nothing of its own: the variants' traps,
    /// their syscall requests, and the requests' canonical arguments.
    /// `traps` is non-empty only between [`advance`](Self::advance) and
    /// the [`step`](Self::step) that serves the traps it holds.
    traps: Vec<TrapReason>,
    requests: Vec<SyscallRequest>,
    canonical: Vec<Word>,
}

impl NVariantMonitor {
    /// Creates a monitor for `processes` (one per variant specification).
    /// The variant group appears to the kernel as a single process whose
    /// initial credentials are `initial_uid`.
    ///
    /// # Panics
    ///
    /// Panics if no variants are supplied or if the number of processes does
    /// not match the number of specifications.
    #[must_use]
    #[allow(clippy::needless_pass_by_value)] // the monitor owns its specs for its lifetime
    pub fn new(
        mut kernel: OsKernel,
        processes: Vec<Process>,
        specs: VariantSet,
        initial_uid: Uid,
        config: MonitorConfig,
    ) -> Self {
        assert!(
            !processes.is_empty(),
            "an N-variant system needs at least one variant"
        );
        assert_eq!(
            processes.len(),
            specs.len(),
            "one variant specification per process is required"
        );
        let group_pid = kernel.spawn_process(initial_uid);
        let variants = processes
            .into_iter()
            .zip(specs.iter())
            .map(|(process, (_, spec))| VariantRuntime {
                process,
                canon: Canonicalizer::new(*spec),
            })
            .collect::<Vec<_>>();
        let count = variants.len();
        NVariantMonitor {
            kernel,
            group_pid,
            variants,
            vfds: VirtualFdTable::new(count),
            config,
            metrics: ExecutionMetrics {
                variants: count,
                ..ExecutionMetrics::default()
            },
            output_bytes: 0,
            last_sysno: None,
            last_divergent_args: false,
            finished: None,
            traps: Vec::new(),
            requests: Vec::new(),
            canonical: Vec::new(),
        }
    }

    /// The kernel this group runs against (for inspecting files, network
    /// responses, credentials).
    #[must_use]
    pub fn kernel(&self) -> &OsKernel {
        &self.kernel
    }

    /// Mutable access to the kernel (used by workload drivers to stage
    /// client connections before or between runs).
    pub fn kernel_mut(&mut self) -> &mut OsKernel {
        &mut self.kernel
    }

    /// The kernel process identifier representing the variant group.
    #[must_use]
    pub fn group_pid(&self) -> Pid {
        self.group_pid
    }

    /// The execution counters collected so far.
    #[must_use]
    pub fn metrics(&self) -> &ExecutionMetrics {
        &self.metrics
    }

    /// Read access to one variant's process (used by tests and the attack
    /// harness to inspect or corrupt variant memory).
    #[must_use]
    pub fn variant_process(&self, variant: VariantId) -> &Process {
        &self.variants[variant.index()].process
    }

    /// Mutable access to one variant's process.
    pub fn variant_process_mut(&mut self, variant: VariantId) -> &mut Process {
        &mut self.variants[variant.index()].process
    }

    /// Number of variants in the group.
    #[must_use]
    pub fn variant_count(&self) -> usize {
        self.variants.len()
    }

    /// The syscall processed at the most recent synchronization point, if
    /// that point reached one (also carried by [`StepEvent::Progress`]; this
    /// accessor additionally covers steps that terminated the group).
    #[must_use]
    pub fn last_sysno(&self) -> Option<Sysno> {
        self.last_sysno
    }

    /// Runs the group until it exits, an alarm terminates it or a group of
    /// one faults. Once the group has terminated, every later call returns
    /// the same outcome.
    pub fn run_to_completion(&mut self) -> NVariantOutcome {
        loop {
            if let Some(outcome) = self.step_group() {
                return outcome;
            }
        }
    }

    /// Advances the group by exactly one synchronization point, reporting
    /// what happened. This is the model checker's stepping primitive: it
    /// exposes which syscall was processed and whether external output
    /// occurred, or the terminal outcome, alarm included, once the group
    /// ends, without running to completion. After
    /// [`advance`](Self::advance) it serves the traps that call holds and
    /// runs no variant.
    pub fn step(&mut self) -> StepEvent {
        let output_before = self.output_bytes;
        self.last_sysno = None;
        self.last_divergent_args = false;
        match self.step_group() {
            Some(outcome) => StepEvent::Done(outcome),
            None => StepEvent::Progress(StepObservation {
                sysno: self
                    .last_sysno
                    .expect("a point that keeps the group running served a call"),
                output_delta: self.output_bytes - output_before,
                divergent_args: self.last_divergent_args,
            }),
        }
    }

    /// Runs every variant to its next trap and holds the traps: the first
    /// half of the next synchronization point, which the next
    /// [`step`](Self::step) completes without running any variant again.
    /// Returns the system call every variant trapped on, when they agree:
    /// the call [`last_sysno`](Self::last_sysno) reports after that step.
    ///
    /// It is idempotent: a second call before `step` runs nothing and
    /// returns the same call. A terminated group, or one at its syscall
    /// limit, runs nothing and returns `None`, and `step` ends it as it
    /// would have without this call.
    ///
    /// Memory written between this call and `step` is seen by the call's
    /// service (the bytes a `write` sends, say) but not by the held
    /// requests' arguments, which were read at the trap.
    pub fn advance(&mut self) -> Option<Sysno> {
        if self.finished.is_some() || self.metrics.syscalls >= self.config.max_syscalls {
            return None;
        }
        self.run_variants();
        let first = trap_sysno(&self.traps[0])?;
        self.traps
            .iter()
            .all(|trap| trap_sysno(trap) == Some(first))
            .then_some(first)
    }

    /// A canonical digest of the group's full semantic state: kernel (time,
    /// accounts, filesystem, network, processes), every variant's machine
    /// state and the virtual descriptor table. Monotone
    /// execution counters ([`ExecutionMetrics`] and the output-byte count)
    /// are deliberately excluded so the model checker's visited-state
    /// pruning identifies states that are behaviourally identical but were
    /// reached by different paths.
    ///
    /// It is defined between synchronization points, not between
    /// [`advance`](Self::advance) and the `step` that serves its traps.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        debug_assert!(
            self.traps.is_empty(),
            "state_digest while traps are held: held requests are not in the digest"
        );
        let mut digest = Fnv1a::new();
        self.kernel.digest_into(&mut digest);
        digest.write_u32(self.group_pid.as_u32());
        digest.write_usize(self.variants.len());
        for variant in &self.variants {
            variant.process.digest_into(&mut digest);
        }
        self.vfds.digest_into(&mut digest);
        digest.finish()
    }

    // ----- the synchronization loop -------------------------------------------

    /// Advances every variant to its next trap, unless
    /// [`advance`](Self::advance) already holds the traps, and processes the
    /// synchronization point. Returns the final outcome once the group
    /// terminates, and the same outcome on every call after that.
    fn step_group(&mut self) -> Option<NVariantOutcome> {
        if let Some(outcome) = &self.finished {
            return Some(outcome.clone());
        }
        if self.metrics.syscalls >= self.config.max_syscalls {
            return Some(self.variant_faulted(VariantId::P0, Fault::StepLimitExceeded));
        }

        self.run_variants();
        let mut traps = std::mem::take(&mut self.traps);
        for (index, trap) in traps.iter().enumerate() {
            if let TrapReason::Faulted(fault) = trap {
                return Some(self.variant_faulted(VariantId::new(index), *fault));
            }
        }

        // All exited: agree or alarm.
        if traps.iter().all(|t| matches!(t, TrapReason::Exited(_))) {
            let statuses: Vec<Option<i32>> = traps
                .iter()
                .map(|t| match t {
                    TrapReason::Exited(status) => Some(*status),
                    _ => None,
                })
                .collect();
            let first = statuses[0];
            if statuses.iter().all(|s| *s == first) {
                return Some(self.conclude(first, None, None));
            }
            let alarm = Alarm::new(
                DivergenceKind::ExitMismatch { statuses },
                self.metrics.syscalls,
            );
            return Some(self.terminate_with_alarm(alarm));
        }

        // Mixed exits/syscalls or differing call numbers.
        let first_call = trap_sysno(&traps[0]);
        if first_call.is_none() || traps.iter().any(|t| trap_sysno(t) != first_call) {
            let calls = traps.iter().map(trap_sysno).collect();
            let alarm = Alarm::new(
                DivergenceKind::SyscallMismatch { calls },
                self.metrics.syscalls,
            );
            return Some(self.terminate_with_alarm(alarm));
        }

        // Every branch above ends the group; from here on the buffers go
        // back, empty, for the next point.
        let mut requests = std::mem::take(&mut self.requests);
        requests.extend(traps.drain(..).map(|t| match t {
            TrapReason::Syscall(req) => req,
            _ => unreachable!("non-syscall traps handled above"),
        }));
        self.traps = traps;
        let outcome = self.handle_syscall(&requests);
        requests.clear();
        self.requests = requests;
        outcome
    }

    /// Runs every variant to its next trap into `self.traps`, unless traps
    /// are already held there.
    fn run_variants(&mut self) {
        if !self.traps.is_empty() {
            return;
        }
        let max_steps = self.config.max_steps_per_slice;
        self.traps.extend(
            self.variants
                .iter_mut()
                .map(|v| v.process.run_until_trap(max_steps)),
        );
        self.metrics.total_instructions = self
            .variants
            .iter()
            .map(|v| v.process.instructions_executed())
            .sum();
    }

    /// Whether the group has siblings to compare. A group of one runs the
    /// same loop but counts no checks, and its fault is not a divergence.
    fn compares(&self) -> bool {
        self.variants.len() > 1
    }

    /// Counts one cross-variant comparison, when there is anything to
    /// compare.
    fn count_check(&mut self) {
        if self.compares() {
            self.metrics.monitor_checks += 1;
        }
    }

    /// Ends the group after `variant` faulted. In a larger group the
    /// healthy variants were about to do something the faulted one could
    /// not, which is a divergence; a group of one ends as the fault.
    fn variant_faulted(&mut self, variant: VariantId, fault: Fault) -> NVariantOutcome {
        if !self.compares() {
            return self.conclude(None, None, Some(fault));
        }
        let alarm = Alarm::new(
            DivergenceKind::VariantFault { variant, fault },
            self.metrics.syscalls,
        );
        self.terminate_with_alarm(alarm)
    }

    /// Records and returns the terminal outcome.
    fn conclude(
        &mut self,
        exit_status: Option<i32>,
        alarm: Option<Alarm>,
        fault: Option<Fault>,
    ) -> NVariantOutcome {
        let outcome = NVariantOutcome {
            exit_status,
            alarm,
            fault,
            metrics: self.metrics,
        };
        self.finished = Some(outcome.clone());
        outcome
    }

    /// Ends the group on a divergence: every alarm is treated as an attack.
    fn terminate_with_alarm(&mut self, alarm: Alarm) -> NVariantOutcome {
        self.conclude(None, Some(alarm), None)
    }

    /// Ends the group with the status every variant passed to `exit`.
    fn exit_group(&mut self, status: i32) -> NVariantOutcome {
        let _ = self.kernel.exit(self.group_pid, status);
        for variant in &mut self.variants {
            variant.process.set_exited(status);
        }
        self.conclude(Some(status), None, None)
    }

    // ----- syscall handling -------------------------------------------------------

    /// The data class of argument `index` of `sysno`, which selects the
    /// inverse reexpression the monitor applies before comparing.
    fn arg_class(sysno: Sysno, index: usize) -> DataClass {
        if sysno.uid_arg_positions().contains(&index) {
            DataClass::Uid
        } else if sysno.pointer_arg_positions().contains(&index) {
            DataClass::Address
        } else {
            DataClass::Opaque
        }
    }

    fn handle_syscall(&mut self, requests: &[SyscallRequest]) -> Option<NVariantOutcome> {
        let sysno = requests[0].sysno;
        self.last_sysno = Some(sysno);
        self.metrics.syscalls += 1;
        if sysno.is_detection_call() && self.compares() {
            self.metrics.detection_calls += 1;
        }

        // Canonicalize every argument position into one flat vector, one
        // run of `arg_count` words per variant, and compare position by
        // position.
        let arg_count = requests.iter().map(|r| r.args.len()).max().unwrap_or(0);
        let mut canonical = std::mem::take(&mut self.canonical);
        for (variant, request) in self.variants.iter().zip(requests) {
            canonical.extend((0..arg_count).map(|i| {
                variant
                    .canon
                    .canonical(request.arg(i), Self::arg_class(sysno, i))
            }));
        }
        for index in 0..arg_count {
            self.count_check();
            let position = || canonical[index..].iter().step_by(arg_count).copied();
            if position().any(|word| word != canonical[index]) {
                self.last_divergent_args = true;
                let values = position().collect();
                let kind = if sysno.is_detection_call() {
                    DivergenceKind::DetectionCheckFailed {
                        sysno,
                        canonical_values: values,
                    }
                } else {
                    DivergenceKind::ArgumentMismatch {
                        sysno,
                        arg_index: index,
                        canonical_values: values,
                    }
                };
                // With detection checks disabled (a deliberately weakened
                // monitor, used to demonstrate counterexamples) the mismatch
                // is observed but never alarmed.
                if self.config.detection_checks {
                    let alarm = Alarm::new(kind, self.metrics.syscalls);
                    return Some(self.terminate_with_alarm(alarm));
                }
            }
        }

        // Execute the (single) kernel effect and deliver per-variant returns.
        let outcome = self.execute(sysno, requests, &canonical[..arg_count]);
        canonical.clear();
        self.canonical = canonical;
        outcome
    }

    /// Completes every variant's pending call with the same `ret`. The
    /// group keeps running, so there is no outcome.
    fn deliver_all(&mut self, ret: Word) -> Option<NVariantOutcome> {
        for variant in &mut self.variants {
            variant.process.complete_syscall(ret);
        }
        None
    }

    /// Performs the call once against the kernel and delivers each
    /// variant's return value (`None`), or ends the group (`Some`): `exit`
    /// with the agreed status, a divergence found while serving the call
    /// with its alarm. `canonical_args` are variant 0's canonical
    /// arguments, which every variant agreed on.
    fn execute(
        &mut self,
        sysno: Sysno,
        requests: &[SyscallRequest],
        canonical_args: &[Word],
    ) -> Option<NVariantOutcome> {
        // Injected code can issue a call with fewer operands than its arity;
        // a missing operand reads as zero.
        let arg = |index: usize| canonical_args.get(index).copied().unwrap_or(Word::ZERO);
        let errno_word = |e: Errno| Word::from_i32(e.as_syscall_ret());

        match sysno {
            Sysno::Exit => Some(self.exit_group(arg(0).as_i32())),

            // Identity queries: perform once, re-express per variant.
            Sysno::GetUid | Sysno::GetEuid | Sysno::GetGid => {
                let canonical = match sysno {
                    Sysno::GetUid => self.kernel.getuid(self.group_pid).map(Word::from_uid),
                    Sysno::GetEuid => self.kernel.geteuid(self.group_pid).map(Word::from_uid),
                    _ => self
                        .kernel
                        .getgid(self.group_pid)
                        .map(|g| Word::from_u32(g.as_u32())),
                };
                match canonical {
                    Ok(word) => {
                        for variant in &mut self.variants {
                            let ret = variant.canon.reexpress_uid(word);
                            variant.process.complete_syscall(ret);
                        }
                        None
                    }
                    Err(e) => self.deliver_all(errno_word(e)),
                }
            }

            // Credential changes: canonical value applied once.
            Sysno::SetUid | Sysno::SetEuid | Sysno::SetGid => {
                let value = arg(0);
                let result = match sysno {
                    Sysno::SetUid => self.kernel.setuid(self.group_pid, value.as_uid()),
                    Sysno::SetEuid => self.kernel.seteuid(self.group_pid, value.as_uid()),
                    _ => self.kernel.setgid(self.group_pid, Gid::new(value.as_u32())),
                };
                self.deliver_all(match result {
                    Ok(()) => Word::ZERO,
                    Err(e) => errno_word(e),
                })
            }
            Sysno::SetReUid => {
                let decode = |w: Word| {
                    if w.as_i32() == -1 {
                        None
                    } else {
                        Some(w.as_uid())
                    }
                };
                let result = self
                    .kernel
                    .setreuid(self.group_pid, decode(arg(0)), decode(arg(1)));
                self.deliver_all(match result {
                    Ok(()) => Word::ZERO,
                    Err(e) => errno_word(e),
                })
            }

            // Detection calls: already checked; answer locally.
            Sysno::UidValue | Sysno::CondChk => {
                for (variant, request) in self.variants.iter_mut().zip(requests) {
                    variant.process.complete_syscall(request.arg(0));
                }
                None
            }
            Sysno::CcEq
            | Sysno::CcNeq
            | Sysno::CcLt
            | Sysno::CcLeq
            | Sysno::CcGt
            | Sysno::CcGeq => {
                let a = arg(0).as_u32();
                let b = arg(1).as_u32();
                let result = match sysno {
                    Sysno::CcEq => a == b,
                    Sysno::CcNeq => a != b,
                    Sysno::CcLt => a < b,
                    Sysno::CcLeq => a <= b,
                    Sysno::CcGt => a > b,
                    _ => a >= b,
                };
                self.deliver_all(Word::from_bool(result))
            }

            Sysno::Open => self.execute_open(requests),
            Sysno::Read | Sysno::Recv => self.execute_read(sysno, requests),
            Sysno::Write | Sysno::Send => self.execute_write(sysno, requests),
            Sysno::Close => {
                let vfd = arg(0).as_u32();
                match self.vfds.close(vfd) {
                    Ok(fds) => {
                        for fd in fds {
                            let _ = self.kernel.close(self.group_pid, fd);
                        }
                        self.deliver_all(Word::ZERO)
                    }
                    Err(e) => self.deliver_all(errno_word(e)),
                }
            }

            Sysno::Socket => match self.kernel.socket(self.group_pid) {
                Ok(fd) => {
                    let vfd = self.vfds.insert_shared(fd);
                    self.deliver_all(Word::from_u32(vfd))
                }
                Err(e) => self.deliver_all(errno_word(e)),
            },
            Sysno::Bind => {
                let result = self.vfds.shared_fd(arg(0).as_u32()).and_then(|fd| {
                    self.kernel
                        .bind(self.group_pid, fd, Port::new(arg(1).as_u32() as u16))
                });
                self.deliver_all(match result {
                    Ok(()) => Word::ZERO,
                    Err(e) => errno_word(e),
                })
            }
            Sysno::Listen => {
                let result = self
                    .vfds
                    .shared_fd(arg(0).as_u32())
                    .and_then(|fd| self.kernel.listen(self.group_pid, fd));
                self.deliver_all(match result {
                    Ok(()) => Word::ZERO,
                    Err(e) => errno_word(e),
                })
            }
            Sysno::Accept => {
                let result = self
                    .vfds
                    .shared_fd(arg(0).as_u32())
                    .and_then(|fd| self.kernel.accept(self.group_pid, fd));
                match result {
                    Ok(fd) => {
                        let vfd = self.vfds.insert_shared(fd);
                        self.deliver_all(Word::from_u32(vfd))
                    }
                    Err(e) => self.deliver_all(errno_word(e)),
                }
            }
            Sysno::Time => self.deliver_all(Word::from_u32(self.kernel.time() as u32)),
            // `Sysno` is non-exhaustive: unknown calls behave like an
            // unimplemented syscall.
            _ => self.deliver_all(errno_word(Errno::Enosys)),
        }
    }

    fn execute_open(&mut self, requests: &[SyscallRequest]) -> Option<NVariantOutcome> {
        let n = self.variants.len();
        let errno_word = |e: Errno| Word::from_i32(e.as_syscall_ret());

        // Read the path from each variant's own memory and require equality.
        let mut paths = Vec::with_capacity(n);
        for (variant, request) in self.variants.iter().zip(requests) {
            match variant.process.read_cstring(request.arg(0).as_addr(), 4096) {
                Ok(bytes) => paths.push(String::from_utf8_lossy(&bytes).to_string()),
                Err(_) => return self.deliver_all(errno_word(Errno::Efault)),
            }
        }
        self.count_check();
        if paths.iter().any(|p| p != &paths[0]) {
            return Some(self.terminate_with_alarm(Alarm::new(
                DivergenceKind::ArgumentMismatch {
                    sysno: Sysno::Open,
                    arg_index: 0,
                    canonical_values: requests.iter().map(|r| r.arg(0)).collect(),
                },
                self.metrics.syscalls,
            )));
        }
        let path = nvariant_simos::FileSystem::normalize(&paths[0]);
        let flags = OpenFlags::from_bits(requests[0].arg(1).as_u32());

        if self.config.is_unshared(&path) && n > 1 {
            let mut fds: Vec<Fd> = Vec::with_capacity(n);
            for variant in 0..n {
                match self
                    .kernel
                    .open(self.group_pid, &format!("{path}-{variant}"), flags)
                {
                    Ok(fd) => fds.push(fd),
                    Err(e) => {
                        for fd in fds {
                            let _ = self.kernel.close(self.group_pid, fd);
                        }
                        return self.deliver_all(errno_word(e));
                    }
                }
            }
            let vfd = self.vfds.insert_unshared(fds);
            self.deliver_all(Word::from_u32(vfd))
        } else {
            match self.kernel.open(self.group_pid, &path, flags) {
                Ok(fd) => {
                    let vfd = self.vfds.insert_shared(fd);
                    self.deliver_all(Word::from_u32(vfd))
                }
                Err(e) => self.deliver_all(errno_word(e)),
            }
        }
    }

    fn execute_read(
        &mut self,
        sysno: Sysno,
        requests: &[SyscallRequest],
    ) -> Option<NVariantOutcome> {
        let errno_word = |e: Errno| Word::from_i32(e.as_syscall_ret());
        let vfd = requests[0].arg(0).as_u32();
        let count = requests[0].arg(2).as_u32() as usize;

        if self.vfds.is_unshared(vfd) {
            // Each variant reads from its own backing file.
            for (index, request) in requests.iter().enumerate() {
                let read = self
                    .vfds
                    .fd_for_variant(vfd, index)
                    .and_then(|fd| self.kernel.read(self.group_pid, fd, count));
                let process = &mut self.variants[index].process;
                let ret = match read {
                    Ok(data) => {
                        self.metrics.io_bytes += data.len() as u64;
                        match process.write_bytes(request.arg(1).as_addr(), &data) {
                            Ok(()) => Word::from_u32(data.len() as u32),
                            Err(_) => errno_word(Errno::Efault),
                        }
                    }
                    Err(e) => errno_word(e),
                };
                process.complete_syscall(ret);
            }
            return None;
        }

        // Shared: perform the input once and replicate it to every variant.
        let result = match self.vfds.shared_fd(vfd) {
            Ok(fd) => {
                if sysno == Sysno::Recv {
                    self.kernel.recv(self.group_pid, fd, count)
                } else {
                    self.kernel.read(self.group_pid, fd, count)
                }
            }
            Err(e) => Err(e),
        };
        match result {
            Ok(data) => {
                self.metrics.io_bytes += data.len() as u64;
                for (variant, request) in self.variants.iter_mut().zip(requests) {
                    let ret = match variant.process.write_bytes(request.arg(1).as_addr(), &data) {
                        Ok(()) => Word::from_u32(data.len() as u32),
                        Err(_) => errno_word(Errno::Efault),
                    };
                    variant.process.complete_syscall(ret);
                }
                None
            }
            Err(e) => self.deliver_all(errno_word(e)),
        }
    }

    fn execute_write(
        &mut self,
        sysno: Sysno,
        requests: &[SyscallRequest],
    ) -> Option<NVariantOutcome> {
        let n = self.variants.len();
        let errno_word = |e: Errno| Word::from_i32(e.as_syscall_ret());
        let vfd = requests[0].arg(0).as_u32();
        let count = requests[0].arg(2).as_u32() as usize;

        // Gather the bytes each variant wants to emit.
        let mut payloads = Vec::with_capacity(n);
        for (variant, request) in self.variants.iter().zip(requests) {
            match variant.process.read_bytes(request.arg(1).as_addr(), count) {
                Ok(bytes) => payloads.push(bytes),
                Err(_) => return self.deliver_all(errno_word(Errno::Efault)),
            }
        }

        if self.vfds.is_unshared(vfd) {
            // Per-variant output to per-variant files: no cross-check needed.
            for (index, payload) in payloads.iter().enumerate() {
                let result = self
                    .vfds
                    .fd_for_variant(vfd, index)
                    .and_then(|fd| self.kernel.write(self.group_pid, fd, payload));
                let ret = match result {
                    Ok(len) => {
                        self.metrics.io_bytes += len as u64;
                        Word::from_u32(len as u32)
                    }
                    Err(e) => errno_word(e),
                };
                self.variants[index].process.complete_syscall(ret);
            }
            return None;
        }

        // Shared output must be byte-identical across variants.
        self.count_check();
        if payloads.iter().any(|p| p != &payloads[0]) {
            return Some(self.terminate_with_alarm(Alarm::new(
                DivergenceKind::OutputMismatch { sysno },
                self.metrics.syscalls,
            )));
        }

        // Standard descriptors (console) are not in the virtual table; treat
        // them as shared writes to the group process console.
        let result = if vfd < 3 {
            self.kernel
                .write(self.group_pid, Fd::new(vfd), &payloads[0])
        } else {
            match self.vfds.shared_fd(vfd) {
                Ok(fd) => {
                    if sysno == Sysno::Send {
                        self.kernel.send(self.group_pid, fd, &payloads[0])
                    } else {
                        self.kernel.write(self.group_pid, fd, &payloads[0])
                    }
                }
                Err(e) => Err(e),
            }
        };
        match result {
            Ok(len) => {
                self.metrics.io_bytes += len as u64;
                self.output_bytes += len as u64;
                self.deliver_all(Word::from_u32(len as u32))
            }
            Err(e) => self.deliver_all(errno_word(e)),
        }
    }
}

// Reads on standard descriptors (console) are not routed through the virtual
// table either; they reach `execute_read` with vfd < 3 and fail the
// `shared_fd` lookup, returning EBADF like a real kernel would for a closed
// descriptor. The case-study programs never read from stdin, so this is the
// desired behaviour.

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_diversity::{UidTransform, VariantSet, VariantSpec, Variation};
    use nvariant_simos::WorldBuilder;
    use nvariant_types::VirtAddr;
    use nvariant_vm::{compile_program, parse_with_stdlib, MemoryLayout, Process};

    /// Builds a monitor of `variants` variants for `source` under
    /// `variation`, all variants sharing the same program text (no UID
    /// reexpression of constants — suitable for programs without UID
    /// constants). One variant is a single process: variant 0 of every
    /// variation is the identity.
    fn monitor_for(
        source: &str,
        variation: &Variation,
        uid: Uid,
        variants: usize,
    ) -> NVariantMonitor {
        let program = parse_with_stdlib(source).unwrap();
        let compiled = compile_program(&program).unwrap();
        let specs = VariantSet::from_variation(variation, variants);
        let processes: Vec<Process> = specs
            .iter()
            .map(|(_, spec)| {
                let mut layout = MemoryLayout::default();
                if !spec.addr.is_identity() {
                    layout = layout.with_partition_bit();
                }
                Process::with_tag(&compiled, layout, spec.tag)
            })
            .collect();
        let kernel = WorldBuilder::standard().build();
        NVariantMonitor::new(kernel, processes, specs, uid, MonitorConfig::default())
    }

    /// Runs `source` as a group of `variants` address-partitioned variants
    /// started as `uid`, returning the outcome and the monitor.
    fn run_group(source: &str, uid: Uid, variants: usize) -> (NVariantOutcome, NVariantMonitor) {
        let mut monitor = monitor_for(source, &Variation::address_partitioning(), uid, variants);
        let outcome = monitor.run_to_completion();
        (outcome, monitor)
    }

    #[test]
    fn clean_program_exits_normally_under_every_variation() {
        let source = r"
            fn main() -> int {
                var total: int = 0;
                var i: int = 0;
                while (i < 100) { total = total + i; i = i + 1; }
                if (total == 4950) { return 0; }
                return 1;
            }
        ";
        for variation in [
            Variation::uid_diversity(),
            Variation::address_partitioning(),
            Variation::instruction_tagging(),
        ] {
            let mut monitor = monitor_for(source, &variation, Uid::ROOT, 2);
            let outcome = monitor.run_to_completion();
            assert_eq!(outcome.exit_status, Some(0), "under {variation}");
            assert!(!outcome.detected_attack());
            assert!(outcome.metrics.total_instructions > 100);
        }
    }

    /// Runs a program that writes and sends a 2 GiB count from a 16-byte
    /// buffer as a group of `variants`: both calls must return EFAULT and
    /// move no bytes.
    fn assert_oversized_writes_return_efault(variants: usize) {
        // The monitor gathers each variant's payload before writing; a
        // program-chosen count far past the buffer must fault the read,
        // not reserve the count.
        let source = r"
            var line: buf[16];
            fn main() -> int {
                if (write(1, &line, 0x7fffffff) != 0 - 14) { return 1; }
                if (send(1, &line, 0x7fffffff) != 0 - 14) { return 2; }
                return 0;
            }
        ";
        let (outcome, _) = run_group(source, Uid::ROOT, variants);
        assert_eq!(outcome.exit_status, Some(0), "{variants} variants");
        assert!(outcome.exited_normally());
        assert!(!outcome.detected_attack());
        assert_eq!(outcome.metrics.io_bytes, 0);
    }

    #[test]
    fn oversized_write_counts_return_efault() {
        assert_oversized_writes_return_efault(1);
    }

    #[test]
    fn oversized_write_counts_return_efault_in_every_variant() {
        assert_oversized_writes_return_efault(2);
    }

    #[test]
    fn identity_syscalls_round_trip() {
        let source = r"
            fn main() -> int {
                var uid: uid_t;
                uid = getuid();
                if (uid == 0) { return 1; }
                return 0;
            }
        ";
        for variants in [1, 2] {
            let (outcome, _) = run_group(source, Uid::ROOT, variants);
            assert_eq!(outcome.exit_status, Some(1), "{variants} variants");
            assert!(outcome.exited_normally());
        }
    }

    #[test]
    fn privilege_drop_through_syscalls() {
        let source = r"
            fn main() -> int {
                var rc: int;
                rc = setuid(48);
                if (rc != 0) { return 1; }
                rc = seteuid(0);
                if (rc == 0) { return 2; }
                return 0;
            }
        ";
        for variants in [1, 2] {
            let (outcome, monitor) = run_group(source, Uid::ROOT, variants);
            assert_eq!(outcome.exit_status, Some(0), "{variants} variants");
            let credentials = monitor.kernel().credentials(monitor.group_pid()).unwrap();
            assert_eq!(credentials.euid(), Uid::new(48));
        }
    }

    #[test]
    fn file_io_against_the_standard_world() {
        let source = r#"
            fn main() -> int {
                var fd: int;
                var text: buf[256];
                fd = open("/etc/passwd", 0);
                if (fd < 0) { return 1; }
                read(fd, &text, 255);
                close(fd);
                if (str_contains(&text, "httpd")) { return 0; }
                return 2;
            }
        "#;
        for variants in [1, 2] {
            let (outcome, _) = run_group(source, Uid::new(48), variants);
            assert_eq!(outcome.exit_status, Some(0), "{variants} variants");
            assert!(outcome.metrics.io_bytes > 20);
        }
    }

    #[test]
    fn permission_errors_reach_the_program_as_negative_errno() {
        let source = r#"
            fn main() -> int {
                var fd: int;
                fd = open("/etc/shadow", 0);
                if (fd == 0 - 13) { return 0; }
                return fd;
            }
        "#;
        for variants in [1, 2] {
            let (outcome, _) = run_group(source, Uid::new(48), variants);
            assert_eq!(outcome.exit_status, Some(0), "{variants} variants");
        }
    }

    #[test]
    fn network_round_trip() {
        let source = r#"
            fn main() -> int {
                var sock: int;
                var conn: int;
                var request: buf[128];
                sock = socket();
                bind(sock, 80);
                listen(sock);
                conn = accept(sock);
                if (conn < 0) { return 1; }
                recv(conn, &request, 127);
                if (starts_with(&request, "GET /") == 0) { return 2; }
                send_str(conn, "HTTP/1.0 200 OK\r\n\r\nhello");
                close(conn);
                return 0;
            }
        "#;
        for variants in [1, 2] {
            // With no client staged, accept returns EAGAIN and the server
            // exits 1.
            let (idle, _) = run_group(source, Uid::ROOT, variants);
            assert_eq!(idle.exit_status, Some(1), "{variants} variants");

            // With a client request staged before the server starts, the
            // full request/response round trip completes.
            let mut monitor = monitor_for(
                source,
                &Variation::address_partitioning(),
                Uid::ROOT,
                variants,
            );
            monitor
                .kernel_mut()
                .net_mut()
                .preload_request(Port::HTTP, b"GET / HTTP/1.0\r\n\r\n".to_vec());
            let outcome = monitor.run_to_completion();
            assert_eq!(outcome.exit_status, Some(0), "{variants} variants");
            let conn = monitor.kernel().net().connections().next().unwrap();
            assert!(conn.response.starts_with(b"HTTP/1.0 200 OK"));
        }
    }

    #[test]
    fn console_output_via_write_str() {
        let source = r#"
            fn main() -> int {
                write_str(1, "starting up\n");
                write_str(2, "warning: test\n");
                return 0;
            }
        "#;
        for variants in [1, 2] {
            let (outcome, monitor) = run_group(source, Uid::ROOT, variants);
            assert_eq!(outcome.exit_status, Some(0), "{variants} variants");
            let console = monitor
                .kernel()
                .console_output(monitor.group_pid())
                .unwrap();
            let console = String::from_utf8(console.to_vec()).unwrap();
            assert!(console.contains("starting up"));
            assert!(console.contains("warning: test"));
        }
    }

    #[test]
    fn detection_calls_answer_a_group_of_one_without_checks() {
        // A single process has nothing to compare: its detection calls take
        // their plain meaning (`cond_chk` returns its argument) and count
        // as neither checks nor detection calls.
        let source = r"
            fn main() -> int {
                var uid: uid_t;
                uid = uid_value(getuid());
                if (cc_eq(uid, 0) == 0) { return 1; }
                if (cc_neq(uid, 5) == 0) { return 2; }
                if (cc_lt(uid, 1) == 0) { return 3; }
                if (cc_leq(uid, 0) == 0) { return 4; }
                if (cc_gt(5, uid) == 0) { return 5; }
                if (cc_geq(uid, 0) == 0) { return 6; }
                if (cond_chk(uid == 0) == 0) { return 7; }
                if (cond_chk(7) != 7) { return 8; }
                return 0;
            }
        ";
        let (outcome, _) = run_group(source, Uid::ROOT, 1);
        assert_eq!(outcome.exit_status, Some(0));
        assert_eq!(outcome.metrics.syscalls, 11);
        assert_eq!(outcome.metrics.detection_calls, 0);
        assert_eq!(outcome.metrics.monitor_checks, 0);
    }

    #[test]
    fn faults_are_reported_in_the_outcome() {
        let source = r"
            fn main() -> int {
                var p: ptr;
                p = 4;
                return *p;
            }
        ";
        // A group of one has no sibling to diverge from: the fault ends the
        // run as a fault, with no alarm.
        let (outcome, _) = run_group(source, Uid::ROOT, 1);
        assert_eq!(outcome.exit_status, None);
        assert!(matches!(outcome.fault, Some(Fault::Segfault { .. })));
        assert!(outcome.alarm.is_none());
        assert!(!outcome.exited_normally());
        // In a larger group the same fault is a divergence.
        let (outcome, _) = run_group(source, Uid::ROOT, 2);
        assert_eq!(outcome.fault, None);
        assert!(matches!(
            outcome.alarm.unwrap().kind,
            DivergenceKind::VariantFault {
                variant: VariantId::P0,
                fault: Fault::Segfault { .. }
            }
        ));
    }

    #[test]
    fn the_syscall_limit_ends_a_group_of_one_as_a_fault() {
        let source = r"
            fn main() -> int {
                while (1) { time(); }
                return 0;
            }
        ";
        for variants in [1, 2] {
            let mut monitor = monitor_for(
                source,
                &Variation::address_partitioning(),
                Uid::ROOT,
                variants,
            );
            monitor.config.max_syscalls = 3;
            let outcome = monitor.run_to_completion();
            // The group stops before the call past the limit.
            assert_eq!(outcome.metrics.syscalls, 3, "{variants} variants");
            assert_eq!(outcome.exit_status, None);
            if variants == 1 {
                assert_eq!(outcome.fault, Some(Fault::StepLimitExceeded));
                assert!(outcome.alarm.is_none());
            } else {
                assert_eq!(outcome.fault, None);
                assert!(matches!(
                    outcome.alarm.unwrap().kind,
                    DivergenceKind::VariantFault {
                        fault: Fault::StepLimitExceeded,
                        ..
                    }
                ));
            }
        }
    }

    #[test]
    fn a_terminated_group_returns_its_outcome_again() {
        // An alarm leaves the variants at a syscall nobody answered and a
        // fault leaves one unable to run: neither may resume.
        let divergent_output = r"
            fn main() -> int {
                var uid: uid_t;
                var line: buf[16];
                uid = getuid();
                utoa(uid, &line);
                write(1, &line, 4);
                return 0;
            }
        ";
        let segfault = "fn main() -> int { var p: ptr; p = 4; return *p; }";
        for (source, variants) in [(divergent_output, 2), (segfault, 1)] {
            let mut monitor =
                monitor_for(source, &Variation::uid_diversity(), Uid::new(48), variants);
            let first = monitor.run_to_completion();
            assert!(
                first.detected_attack() || first.fault.is_some(),
                "{first:?}"
            );
            assert_eq!(monitor.run_to_completion(), first);
            match monitor.step() {
                StepEvent::Done(outcome) => assert_eq!(outcome, first),
                StepEvent::Progress(observation) => panic!("resumed: {observation:?}"),
            }
        }
    }

    #[test]
    fn uid_returning_calls_are_reexpressed_per_variant() {
        // The program only passes the UID straight back to the kernel, so
        // each variant holds a different concrete value but the canonical
        // meanings agree.
        let source = r"
            fn main() -> int {
                var uid: uid_t;
                uid = getuid();
                return setuid(uid);
            }
        ";
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::new(48), 2);
        let outcome = monitor.run_to_completion();
        assert_eq!(outcome.exit_status, Some(0));
        assert!(!outcome.detected_attack());
        assert_eq!(
            monitor
                .kernel()
                .credentials(monitor.group_pid())
                .unwrap()
                .ruid(),
            Uid::new(48)
        );
    }

    #[test]
    fn file_and_network_io_is_performed_once() {
        let source = r#"
            fn main() -> int {
                var fd: int;
                var text: buf[128];
                fd = open("/etc/httpd.conf", 0);
                if (fd < 0) { return 1; }
                read(fd, &text, 100);
                close(fd);
                write(1, &text, 9);
                return 0;
            }
        "#;
        for variants in [1, 2] {
            let mut monitor =
                monitor_for(source, &Variation::uid_diversity(), Uid::new(48), variants);
            let mut output = 0;
            let outcome = loop {
                match monitor.step() {
                    StepEvent::Progress(observation) => output += observation.output_delta,
                    StepEvent::Done(outcome) => break outcome,
                }
            };
            assert_eq!(outcome.exit_status, Some(0), "{variants} variants");
            // The config file was read once and the line written once, not
            // once per variant.
            let conf_len = monitor.kernel().fs().get("/etc/httpd.conf").unwrap().len() as u64;
            assert_eq!(output, 9);
            assert_eq!(outcome.metrics.io_bytes, conf_len + 9);
            let console = monitor
                .kernel()
                .console_output(monitor.group_pid())
                .unwrap()
                .to_vec();
            assert_eq!(console, b"Listen 80");
        }
    }

    #[test]
    fn detection_calls_pass_when_canonical_values_agree() {
        // Note: the program must not contain raw UID *constants* — those
        // only stay equivalent if each variant's text has been re-expressed
        // by the transformer (covered by the integration tests). Here the
        // detection calls compare two kernel-provided UIDs.
        let source = r"
            fn main() -> int {
                var uid: uid_t;
                var euid: uid_t;
                uid = uid_value(getuid());
                euid = geteuid();
                if (cc_neq(uid, euid)) { return 1; }
                if (cond_chk(cc_leq(uid, euid))) { return 2; }
                return 0;
            }
        ";
        // Running as uid 48: uid == euid, and cc_leq is true -> exit 2.
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::new(48), 2);
        let outcome = monitor.run_to_completion();
        assert_eq!(outcome.exit_status, Some(2));
        assert!(outcome.metrics.detection_calls >= 4);
        assert!(!outcome.detected_attack());
    }

    #[test]
    fn corrupting_one_variants_uid_is_detected_at_the_next_uid_use() {
        // Simulate the effect of a memory-corruption attack by overwriting
        // the UID variable in *both* variants with the same concrete value
        // (the attacker sends one payload to the replicated input, so both
        // variants receive identical bytes).
        let source = r"
            var server_uid: uid_t;
            fn main() -> int {
                server_uid = getuid();
                time();
                server_uid = uid_value(server_uid);
                return 0;
            }
        ";
        let program = parse_with_stdlib(source).unwrap();
        let compiled = compile_program(&program).unwrap();
        let specs = VariantSet::from_variation(&Variation::uid_diversity(), 2);
        let processes: Vec<Process> = (0..2)
            .map(|_| Process::new(&compiled, MemoryLayout::default()))
            .collect();
        let kernel = WorldBuilder::standard().build();
        let mut monitor = NVariantMonitor::new(
            kernel,
            processes,
            specs,
            Uid::new(48),
            MonitorConfig::default(),
        );

        // Let the group run its first two syscalls (getuid, then time) so
        // that by the second synchronization point each variant has stored
        // its own representation into `server_uid`; then corrupt the value
        // identically in both variants, as an attacker-controlled overflow
        // would.
        assert!(monitor.step_group().is_none()); // getuid handled
        assert!(monitor.step_group().is_none()); // time handled (store done)
        for index in 0..2 {
            let addr = monitor
                .variant_process(VariantId::new(index))
                .global_addr("server_uid")
                .unwrap();
            monitor
                .variant_process_mut(VariantId::new(index))
                .write_word(addr, Word::ZERO)
                .unwrap();
        }
        let outcome = monitor.run_to_completion();
        assert!(outcome.detected_attack());
        let alarm = outcome.alarm.unwrap();
        assert!(
            matches!(alarm.kind, DivergenceKind::DetectionCheckFailed { .. }),
            "alarm was {alarm}"
        );
    }

    #[test]
    fn unshared_files_give_each_variant_its_own_reexpressed_view() {
        // /etc/passwd is unshared; variant 1's copy has its UID column
        // re-expressed. The program parses the httpd UID out of the file and
        // calls setuid on it: the concrete values differ per variant but the
        // canonical value is 48 in both, so no alarm is raised and the group
        // credentials end up at uid 48.
        let source = r#"
            fn read_passwd_uid(name: ptr) -> uid_t {
                var fd: int;
                var text: buf[512];
                var n: int;
                var pos: int;
                var field: int;
                var value: int;
                fd = open("/etc/passwd", 0);
                if (fd < 0) { return 0 - 1; }
                n = read(fd, &text, 500);
                close(fd);
                text[n] = 0;
                pos = 0;
                while (text[pos] != 0) {
                    if (starts_with(text + pos, name)) {
                        // skip name:passwd: to reach the uid column
                        field = 0;
                        while (field < 2) {
                            while (text[pos] != ':') { pos = pos + 1; }
                            pos = pos + 1;
                            field = field + 1;
                        }
                        value = 0;
                        while (text[pos] >= '0' && text[pos] <= '9') {
                            value = value * 10 + (text[pos] - '0');
                            pos = pos + 1;
                        }
                        return value;
                    }
                    while (text[pos] != 0 && text[pos] != '\n') { pos = pos + 1; }
                    if (text[pos] == '\n') { pos = pos + 1; }
                }
                return 0 - 1;
            }
            fn main() -> int {
                var uid: uid_t;
                uid = read_passwd_uid("httpd");
                return setuid(uid);
            }
        "#;
        let program = parse_with_stdlib(source).unwrap();
        let compiled = compile_program(&program).unwrap();
        let specs = VariantSet::from_variation(&Variation::uid_diversity(), 2);
        let processes: Vec<Process> = (0..2)
            .map(|_| Process::new(&compiled, MemoryLayout::default()))
            .collect();
        let mut kernel = WorldBuilder::standard().build();
        // Provision per-variant passwd copies with re-expressed UID columns.
        let db = kernel.passwd().clone();
        for (index, spec) in specs.iter() {
            let transform: UidTransform = spec.uid;
            kernel.fs_mut().create(
                &format!("/etc/passwd-{}", index.index()),
                db.render_passwd_with(|uid| transform.apply(uid))
                    .into_bytes(),
            );
        }
        let config = MonitorConfig::default().with_unshared_file("/etc/passwd");
        let mut monitor = NVariantMonitor::new(kernel, processes, specs, Uid::ROOT, config);
        let outcome = monitor.run_to_completion();
        assert_eq!(outcome.exit_status, Some(0), "alarm: {:?}", outcome.alarm);
        assert!(outcome.metrics.io_bytes > 0);
        assert_eq!(
            monitor
                .kernel()
                .credentials(monitor.group_pid())
                .unwrap()
                .euid(),
            Uid::new(48)
        );
    }

    #[test]
    fn address_partitioning_detects_absolute_address_injection() {
        // The Figure 1 attack: the program dereferences an absolute address
        // (as injected attack data would make it do); the partitioned
        // variant faults and the monitor raises an alarm.
        let source = r"
            var target: int = 5;
            fn main() -> int {
                var p: ptr;
                p = 0x00100000;
                *p = 7;
                return 0;
            }
        ";
        let mut monitor = monitor_for(source, &Variation::address_partitioning(), Uid::ROOT, 2);
        let outcome = monitor.run_to_completion();
        assert!(outcome.detected_attack());
        match outcome.alarm.unwrap().kind {
            DivergenceKind::VariantFault { variant, fault } => {
                assert_eq!(variant, VariantId::P1);
                assert!(matches!(fault, Fault::Segfault { .. }));
            }
            other => panic!("expected a variant fault, got {other}"),
        }
        // The same program under UID diversity is NOT detected (both
        // variants perform the same in-range write): class-specificity.
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::ROOT, 2);
        let outcome = monitor.run_to_completion();
        assert!(!outcome.detected_attack());
    }

    #[test]
    fn output_divergence_is_detected() {
        // A program that writes a variant-dependent value (its own UID
        // representation) to a shared descriptor: the un-sanitized logging
        // pitfall of §4.
        let source = r"
            fn main() -> int {
                var uid: uid_t;
                var line: buf[16];
                uid = getuid();
                utoa(uid, &line);
                write(1, &line, 4);
                return 0;
            }
        ";
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::new(48), 2);
        let outcome = monitor.run_to_completion();
        assert!(outcome.detected_attack());
        assert!(matches!(
            outcome.alarm.unwrap().kind,
            DivergenceKind::OutputMismatch { .. }
        ));
    }

    #[test]
    fn exit_status_divergence_is_detected() {
        // A program whose exit status depends on the raw UID representation
        // (comparing against a constant that was *not* re-expressed, i.e. an
        // untransformed program run under the UID variation).
        let source = r"
            fn main() -> int {
                var uid: uid_t;
                uid = getuid();
                if (uid == 48) { return 0; }
                return 7;
            }
        ";
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::new(48), 2);
        let outcome = monitor.run_to_completion();
        assert!(outcome.detected_attack());
        // Exit is itself a synchronized system call, so the divergence shows
        // up as non-equivalent exit-status arguments (or, if the branches had
        // made different calls first, as a syscall mismatch).
        assert!(matches!(
            outcome.alarm.unwrap().kind,
            DivergenceKind::ArgumentMismatch {
                sysno: Sysno::Exit,
                ..
            } | DivergenceKind::SyscallMismatch { .. }
                | DivergenceKind::ExitMismatch { .. }
        ));
    }

    #[test]
    fn instruction_tag_mismatch_is_detected_when_code_is_injected() {
        // Simulate a code-injection outcome: redirect variant execution to
        // bytes the attacker placed in data memory. Under instruction-set
        // tagging the injected bytes carry the wrong tag for at least one
        // variant, so the group alarms.
        let source = r"
            var scratch: buf[64];
            fn main() -> int {
                var i: int = 0;
                while (i < 10) { i = i + 1; }
                return 0;
            }
        ";
        let program = parse_with_stdlib(source).unwrap();
        let compiled = compile_program(&program).unwrap();
        let specs = VariantSet::from_variation(&Variation::instruction_tagging(), 2);
        let processes: Vec<Process> = specs
            .iter()
            .map(|(_, spec)| Process::with_tag(&compiled, MemoryLayout::default(), spec.tag))
            .collect();
        let kernel = WorldBuilder::standard().build();
        let mut monitor = NVariantMonitor::new(
            kernel,
            processes,
            specs,
            Uid::ROOT,
            MonitorConfig::default(),
        );
        // Inject tag 0 instructions.
        let outcome = run_injected(&mut monitor, &[push(0), syscall(Sysno::Exit, 1)]);
        assert!(outcome.detected_attack());
        match outcome.alarm.unwrap().kind {
            DivergenceKind::VariantFault { fault, .. } => {
                assert!(matches!(fault, Fault::TagMismatch { .. }));
            }
            other => panic!("expected tag mismatch fault, got {other}"),
        }
    }

    #[test]
    fn injected_syscalls_with_missing_operands_read_them_as_zero() {
        // Compiled code always passes a call's full arity, but injected code
        // chooses its operand count: a short call must end in an outcome,
        // never a panic.
        let source = r"
            var scratch: buf[64];
            fn main() -> int { return 0; }
        ";
        for call in [
            // setuid with no operand: setuid(0), allowed for root.
            vec![syscall(Sysno::SetUid, 0)],
            // bind with one operand: port 0 on a descriptor that is not open.
            vec![push(3), syscall(Sysno::Bind, 1)],
        ] {
            let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::ROOT, 2);
            let injected: Vec<_> = call
                .into_iter()
                .chain([push(0), syscall(Sysno::Exit, 1)])
                .collect();
            let outcome = run_injected(&mut monitor, &injected);
            assert_eq!(outcome.exit_status, Some(0), "alarm: {:?}", outcome.alarm);
        }
    }

    fn push(value: u32) -> nvariant_vm::Instr {
        nvariant_vm::Instr::new(nvariant_vm::Op::Push, value)
    }

    fn syscall(sysno: Sysno, argc: u32) -> nvariant_vm::Instr {
        nvariant_vm::Instr::new(nvariant_vm::Op::Syscall, (sysno.as_u32() << 8) | argc)
    }

    /// Test helper: places `injected` in every variant's `scratch` buffer
    /// and redirects every program counter there, exactly what a successful
    /// return-address smash would achieve, then runs the group.
    fn run_injected(
        monitor: &mut NVariantMonitor,
        injected: &[nvariant_vm::Instr],
    ) -> NVariantOutcome {
        let bytes = nvariant_vm::bytecode::encode_all(injected);
        for index in 0..monitor.variant_count() {
            let variant = VariantId::new(index);
            let addr = monitor
                .variant_process(variant)
                .global_addr("scratch")
                .unwrap();
            let process = monitor.variant_process_mut(variant);
            process.write_bytes(addr, &bytes).unwrap();
            redirect_pc(process, addr);
        }
        monitor.run_to_completion()
    }

    /// Test helper: forces a process to continue execution at `target` by
    /// smashing the return address the start stub's `Call main` pushed —
    /// i.e. exactly what a successful stack smash achieves.
    fn redirect_pc(process: &mut Process, target: VirtAddr) {
        // Execute the start stub's `Call main` so the return-address slot
        // exists at the top of the stack.
        assert_eq!(process.step(), None);
        let stack_top = process.layout().stack_top;
        process
            .write_word(VirtAddr::new(stack_top - 8), Word::from_addr(target))
            .unwrap();
        // Run the process to its natural `Ret`, which now jumps to the
        // injected code. `main` makes no syscalls before returning, so this
        // stays inside this variant.
        loop {
            if let Some(trap) = process.step() {
                panic!("unexpected trap while redirecting: {trap:?}");
            }
            if process.pc() == target {
                break;
            }
        }
    }

    #[test]
    fn composed_variation_detects_both_attack_classes() {
        let composed = Variation::composed(vec![
            Variation::uid_diversity(),
            Variation::address_partitioning(),
        ]);
        // Absolute-address attack: detected via the address class.
        let source = r"
            var target: int = 5;
            fn main() -> int {
                var p: ptr;
                p = 0x00100000;
                *p = 7;
                return 0;
            }
        ";
        let mut monitor = monitor_for(source, &composed, Uid::ROOT, 2);
        assert!(monitor.run_to_completion().detected_attack());
        // Clean program (no raw UID constants, UID used only via syscalls):
        // still exits normally.
        let clean = r"
            fn main() -> int {
                var u: uid_t;
                u = getuid();
                return setuid(u);
            }
        ";
        let mut monitor = monitor_for(clean, &composed, Uid::ROOT, 2);
        let outcome = monitor.run_to_completion();
        assert_eq!(outcome.exit_status, Some(0), "alarm: {:?}", outcome.alarm);
    }

    #[test]
    #[should_panic(expected = "at least one variant")]
    fn empty_variant_set_is_rejected() {
        let kernel = WorldBuilder::standard().build();
        let _ = NVariantMonitor::new(
            kernel,
            Vec::new(),
            VariantSet::new(vec![]),
            Uid::ROOT,
            MonitorConfig::default(),
        );
    }

    #[test]
    fn single_variant_monitor_behaves_like_a_plain_runner() {
        let source = "fn main() -> int { return geteuid(); }";
        let program = parse_with_stdlib(source).unwrap();
        let compiled = compile_program(&program).unwrap();
        let kernel = WorldBuilder::standard().build();
        let mut monitor = NVariantMonitor::new(
            kernel,
            vec![Process::new(&compiled, MemoryLayout::default())],
            VariantSet::new(vec![VariantSpec::identity()]),
            Uid::new(1000),
            MonitorConfig::default(),
        );
        let outcome = monitor.run_to_completion();
        assert_eq!(outcome.exit_status, Some(1000));
        assert_eq!(outcome.metrics.variants, 1);
        assert_eq!(outcome.metrics.syscalls, 2);
        assert_eq!(outcome.metrics.monitor_checks, 0);
    }

    #[test]
    fn a_group_of_one_runs_as_the_given_user() {
        let (outcome, _) = run_group("fn main() -> int { return geteuid(); }", Uid::new(48), 1);
        assert_eq!(outcome.exit_status, Some(48));
        assert!(outcome.exited_normally());
        assert_eq!(outcome.metrics.monitor_checks, 0);
    }

    /// A server that reads a file, serves each staged request with its own
    /// UID re-established around the reply, and exits: it reaches file,
    /// network and credential calls, and `recv` once per request.
    const ADVANCE_SERVER: &str = r#"
        fn main() -> int {
            var fd: int;
            var sock: int;
            var conn: int;
            var n: int;
            var me: uid_t;
            var text: buf[64];
            var request: buf[64];
            fd = open("/etc/passwd", 0);
            read(fd, &text, 60);
            close(fd);
            me = getuid();
            sock = socket();
            bind(sock, 80);
            listen(sock);
            conn = accept(sock);
            while (conn >= 0) {
                n = recv(conn, &request, 60);
                seteuid(me);
                send(conn, &request, n);
                close(conn);
                conn = accept(sock);
            }
            return 0;
        }
    "#;

    /// The paper's four configurations as monitor groups, with two requests
    /// staged: the unmodified and the transformed server are groups of one
    /// (variant 0 of every variation is the identity), then two-variant
    /// address partitioning and two-variant UID variation.
    fn paper_groups() -> Vec<NVariantMonitor> {
        [
            (Variation::address_partitioning(), 1),
            (Variation::uid_diversity(), 1),
            (Variation::address_partitioning(), 2),
            (Variation::uid_diversity(), 2),
        ]
        .iter()
        .map(|(variation, variants)| {
            let mut monitor = monitor_for(ADVANCE_SERVER, variation, Uid::ROOT, *variants);
            for request in [&b"GET /a"[..], b"GET /bb"] {
                monitor
                    .kernel_mut()
                    .net_mut()
                    .preload_request(Port::HTTP, request.to_vec());
            }
            monitor
        })
        .collect()
    }

    /// What a step reports and leaves behind: its event, the call it
    /// served, the state digest and the counters.
    fn observe(monitor: &NVariantMonitor, event: &StepEvent) -> String {
        format!(
            "{event:?} {:?} {:#018x} {:?}",
            monitor.last_sysno(),
            monitor.state_digest(),
            monitor.metrics()
        )
    }

    /// Steps `monitor` to termination, calling `advance` `advances(point)`
    /// times before the step of each point, and observes every step.
    /// Checks along the way that repeated calls agree and that `advance`
    /// returns the call the step then reports.
    fn observed_run(
        mut monitor: NVariantMonitor,
        advances: impl Fn(usize) -> usize,
    ) -> Vec<String> {
        let mut observed = Vec::new();
        for point in 0.. {
            let mut predicted = None;
            for _ in 0..advances(point) {
                let sysno = monitor.advance();
                assert!(
                    predicted.is_none_or(|first| first == sysno),
                    "point {point}"
                );
                predicted = Some(sysno);
            }
            let event = monitor.step();
            if let Some(sysno) = predicted {
                assert_eq!(sysno, monitor.last_sysno(), "point {point}");
            }
            observed.push(observe(&monitor, &event));
            if matches!(event, StepEvent::Done(_)) {
                return observed;
            }
        }
        unreachable!("the loop returns at termination")
    }

    #[test]
    fn advancing_before_each_step_changes_nothing_a_step_reports() {
        for monitor in paper_groups() {
            let variants = monitor.variant_count();
            let plain = observed_run(monitor.clone(), |_| 0);
            assert!(plain.len() > 15, "{variants} variants: {plain:?}");
            assert!(
                plain.last().unwrap().contains("exit_status: Some(0)"),
                "{variants} variants: {plain:?}"
            );
            assert!(plain.iter().any(|step| step.contains("Some(Recv)")));
            assert_eq!(observed_run(monitor.clone(), |_| 1), plain);
            // Sometimes twice, sometimes not at all.
            assert_eq!(observed_run(monitor, |point| point % 3), plain);
        }
    }

    #[test]
    fn a_clone_taken_after_advance_steps_like_the_original() {
        for mut monitor in paper_groups() {
            loop {
                let sysno = monitor.advance();
                let mut copy = monitor.clone();
                let event = monitor.step();
                let copy_event = copy.step();
                assert_eq!(observe(&copy, &copy_event), observe(&monitor, &event));
                assert_eq!(monitor.last_sysno(), sysno);
                if matches!(event, StepEvent::Done(_)) {
                    break;
                }
            }
        }
    }

    #[test]
    fn a_finished_group_advances_nothing() {
        for mut monitor in paper_groups() {
            let outcome = monitor.run_to_completion();
            assert_eq!(outcome.exit_status, Some(0));
            let digest = monitor.state_digest();
            assert_eq!(monitor.advance(), None);
            assert_eq!(monitor.metrics(), &outcome.metrics);
            assert_eq!(monitor.state_digest(), digest);
            assert!(matches!(monitor.step(), StepEvent::Done(again) if again == outcome));
        }
        // A group at its syscall limit runs nothing either, and its next
        // step ends it exactly as without the call.
        for variants in [1, 2] {
            let mut monitor = monitor_for(
                ADVANCE_SERVER,
                &Variation::address_partitioning(),
                Uid::ROOT,
                variants,
            );
            monitor.config.max_syscalls = 3;
            let mut reference = monitor.clone();
            for _ in 0..3 {
                monitor.step();
            }
            let instructions = monitor.metrics().total_instructions;
            assert_eq!(monitor.advance(), None);
            assert_eq!(monitor.metrics().total_instructions, instructions);
            let StepEvent::Done(outcome) = monitor.step() else {
                panic!("the step past the limit ends the group");
            };
            assert_eq!(outcome, reference.run_to_completion());
        }
    }
}
