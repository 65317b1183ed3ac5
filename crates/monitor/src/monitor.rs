//! The monitor proper: lockstep execution, equivalence checking, I/O-once
//! replication, and alarm generation.

use crate::alarm::{Alarm, DivergenceKind};
use crate::config::{DivergencePolicy, MonitorConfig};
use crate::fdtable::VirtualFdTable;
use crate::metrics::ExecutionMetrics;
use nvariant_diversity::{Canonicalizer, DataClass, VariantSet};
use nvariant_simos::{OpenFlags, OsKernel, SyscallRequest, Sysno};
use nvariant_types::{Errno, Fd, Fnv1a, Gid, Pid, Port, Uid, VariantId, Word};
use nvariant_vm::{Fault, Process, TrapReason};
use serde::{Deserialize, Serialize};

/// The observable outcome of running an N-variant group to completion.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NVariantOutcome {
    /// The common exit status, if all variants exited normally and agreed.
    pub exit_status: Option<i32>,
    /// The first alarm raised, if the run was terminated by divergence.
    pub alarm: Option<Alarm>,
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
        self.exit_status.is_some() && self.alarm.is_none()
    }
}

#[derive(Clone)]
struct VariantRuntime {
    process: Process,
    canon: Canonicalizer,
}

/// One observed synchronization step that did *not* terminate the group
/// (see [`NVariantMonitor::step`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepObservation {
    /// The syscall processed at this synchronization point, if the step
    /// reached one (`None` when the step only raised a pre-syscall alarm
    /// under [`DivergencePolicy::ReportAndContinue`]).
    pub sysno: Option<Sysno>,
    /// Alarms raised during this step.
    pub alarms_raised: usize,
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

/// Result of a single monitor step (see [`NVariantMonitor::step`]).
#[derive(Clone, Debug)]
pub enum StepEvent {
    /// The group advanced one synchronization point and keeps running.
    Progress(StepObservation),
    /// The group terminated (normal exit or alarm-induced kill).
    Done(NVariantOutcome),
}

/// The N-variant monitor: owns the kernel, the variant processes and the
/// synchronized descriptor table, and drives the group to completion.
///
/// The monitor is `Clone`: the model checker snapshots whole monitors to
/// branch over syscall interleavings and attacker moves.
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
    alarms: Vec<Alarm>,
    /// Syscall processed by the most recent synchronization point (reported
    /// through [`StepEvent::Progress`]).
    last_sysno: Option<Sysno>,
    /// Whether the most recent synchronization point saw canonically
    /// divergent arguments.
    last_divergent_args: bool,
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
            alarms: Vec::new(),
            last_sysno: None,
            last_divergent_args: false,
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

    /// Every alarm raised so far (more than one only under
    /// [`DivergencePolicy::ReportAndContinue`]).
    #[must_use]
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
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

    /// Runs the group until it exits or an alarm terminates it.
    pub fn run_to_completion(&mut self) -> NVariantOutcome {
        loop {
            if let Some(outcome) = self.step_group() {
                return outcome;
            }
        }
    }

    /// Advances the group by exactly one synchronization point, reporting
    /// what happened. This is the model checker's stepping primitive: it
    /// exposes which syscall was processed and whether alarms or external
    /// output occurred, without running to completion.
    pub fn step(&mut self) -> StepEvent {
        let alarms_before = self.alarms.len();
        let output_before = self.output_bytes;
        self.last_sysno = None;
        self.last_divergent_args = false;
        match self.step_group() {
            Some(outcome) => StepEvent::Done(outcome),
            None => StepEvent::Progress(StepObservation {
                sysno: self.last_sysno,
                alarms_raised: self.alarms.len() - alarms_before,
                output_delta: self.output_bytes - output_before,
                divergent_args: self.last_divergent_args,
            }),
        }
    }

    /// A canonical digest of the group's full semantic state: kernel (time,
    /// accounts, filesystem, network, processes), every variant's machine
    /// state, the virtual descriptor table and the alarm count. Monotone
    /// execution counters ([`ExecutionMetrics`] and the output-byte count)
    /// are deliberately excluded so the model checker's visited-state
    /// pruning identifies states that are behaviourally identical but were
    /// reached by different paths.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut digest = Fnv1a::new();
        self.kernel.digest_into(&mut digest);
        digest.write_u32(self.group_pid.as_u32());
        digest.write_usize(self.variants.len());
        for variant in &self.variants {
            variant.process.digest_into(&mut digest);
        }
        self.vfds.digest_into(&mut digest);
        digest.write_usize(self.alarms.len());
        digest.finish()
    }

    // ----- the synchronization loop -------------------------------------------

    /// Advances every variant to its next trap and processes the
    /// synchronization point. Returns the final outcome once the group
    /// terminates.
    fn step_group(&mut self) -> Option<NVariantOutcome> {
        if self.metrics.syscalls >= self.config.max_syscalls {
            let alarm = Alarm::new(
                DivergenceKind::VariantFault {
                    variant: VariantId::P0,
                    fault: Fault::StepLimitExceeded,
                },
                self.metrics.syscalls,
            );
            return Some(self.terminate_with_alarm(alarm));
        }

        let max_steps = self.config.max_steps_per_slice;
        let traps: Vec<TrapReason> = self
            .variants
            .iter_mut()
            .map(|v| v.process.run_until_trap(max_steps))
            .collect();
        self.metrics.total_instructions = self
            .variants
            .iter()
            .map(|v| v.process.instructions_executed())
            .sum();

        // A fault in any variant is a divergence (the healthy variants were
        // about to do something the faulted one could not).
        for (index, trap) in traps.iter().enumerate() {
            if let TrapReason::Faulted(fault) = trap {
                let alarm = Alarm::new(
                    DivergenceKind::VariantFault {
                        variant: VariantId::new(index),
                        fault: *fault,
                    },
                    self.metrics.syscalls,
                );
                return Some(self.terminate_with_alarm(alarm));
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
                return Some(self.finish(first));
            }
            let alarm = Alarm::new(
                DivergenceKind::ExitMismatch { statuses },
                self.metrics.syscalls,
            );
            return Some(self.terminate_with_alarm(alarm));
        }

        // Mixed exits/syscalls or differing call numbers.
        let calls: Vec<Option<Sysno>> = traps
            .iter()
            .map(|t| match t {
                TrapReason::Syscall(req) => Some(req.sysno),
                _ => None,
            })
            .collect();
        let first_call = calls[0];
        if first_call.is_none() || calls.iter().any(|c| *c != first_call) {
            let alarm = Alarm::new(
                DivergenceKind::SyscallMismatch { calls },
                self.metrics.syscalls,
            );
            return Some(self.terminate_with_alarm(alarm));
        }

        let requests: Vec<SyscallRequest> = traps
            .into_iter()
            .map(|t| match t {
                TrapReason::Syscall(req) => req,
                _ => unreachable!("non-syscall traps handled above"),
            })
            .collect();
        self.handle_syscall(&requests)
    }

    fn finish(&mut self, exit_status: Option<i32>) -> NVariantOutcome {
        NVariantOutcome {
            exit_status,
            alarm: self.alarms.first().cloned(),
            metrics: self.metrics,
        }
    }

    fn terminate_with_alarm(&mut self, alarm: Alarm) -> NVariantOutcome {
        self.alarms.push(alarm.clone());
        NVariantOutcome {
            exit_status: None,
            alarm: Some(alarm),
            metrics: self.metrics,
        }
    }

    /// Records an alarm; returns `Some(outcome)` if the policy says to stop.
    fn raise(&mut self, alarm: Alarm) -> Option<NVariantOutcome> {
        match self.config.policy {
            DivergencePolicy::KillAndReport => Some(self.terminate_with_alarm(alarm)),
            DivergencePolicy::ReportAndContinue => {
                self.alarms.push(alarm);
                None
            }
        }
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
        if sysno.is_detection_call() {
            self.metrics.detection_calls += 1;
        }

        // Canonicalize and compare every argument position.
        let arg_count = requests.iter().map(|r| r.args.len()).max().unwrap_or(0);
        let mut canonical_args: Vec<Vec<Word>> = Vec::with_capacity(self.variants.len());
        for (variant, request) in self.variants.iter().zip(requests) {
            let canon: Vec<Word> = (0..arg_count)
                .map(|i| {
                    variant
                        .canon
                        .canonical(request.arg(i), Self::arg_class(sysno, i))
                })
                .collect();
            canonical_args.push(canon);
        }
        for index in 0..arg_count {
            self.metrics.monitor_checks += 1;
            let first = canonical_args[0][index];
            if canonical_args.iter().any(|args| args[index] != first) {
                self.last_divergent_args = true;
                let values = canonical_args.iter().map(|args| args[index]).collect();
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
                    if let Some(outcome) = self.raise(alarm) {
                        return Some(outcome);
                    }
                }
            }
        }

        // Execute the (single) kernel effect and compute per-variant returns.
        match self.execute(sysno, requests, &canonical_args) {
            ExecuteResult::Deliver(returns) => {
                for (variant, ret) in self.variants.iter_mut().zip(returns) {
                    variant.process.complete_syscall(ret);
                }
                None
            }
            ExecuteResult::Exited(status) => {
                let _ = self.kernel.exit(self.group_pid, status);
                for variant in &mut self.variants {
                    variant.process.set_exited(status);
                }
                Some(self.finish(Some(status)))
            }
            ExecuteResult::Abort(alarm) => self.raise(alarm).or_else(|| {
                // Under ReportAndContinue an output mismatch still needs a
                // return value; deliver the length the first variant asked
                // for so execution can proceed.
                let fallback = requests[0].arg(2);
                for variant in &mut self.variants {
                    variant.process.complete_syscall(fallback);
                }
                None
            }),
        }
    }

    fn execute(
        &mut self,
        sysno: Sysno,
        requests: &[SyscallRequest],
        canonical_args: &[Vec<Word>],
    ) -> ExecuteResult {
        // Injected code can issue a call with fewer operands than its arity;
        // a missing operand reads as zero, as in the single-process runner.
        let arg = |index: usize| canonical_args[0].get(index).copied().unwrap_or(Word::ZERO);
        let n = self.variants.len();
        let errno_word = |e: Errno| Word::from_i32(e.as_syscall_ret());
        let all = |w: Word| vec![w; n];

        match sysno {
            Sysno::Exit => ExecuteResult::Exited(arg(0).as_i32()),

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
                    Ok(word) => ExecuteResult::Deliver(
                        self.variants
                            .iter()
                            .map(|v| v.canon.reexpress_uid(word))
                            .collect(),
                    ),
                    Err(e) => ExecuteResult::Deliver(all(errno_word(e))),
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
                ExecuteResult::Deliver(all(match result {
                    Ok(()) => Word::ZERO,
                    Err(e) => errno_word(e),
                }))
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
                ExecuteResult::Deliver(all(match result {
                    Ok(()) => Word::ZERO,
                    Err(e) => errno_word(e),
                }))
            }

            // Detection calls: already checked; answer locally.
            Sysno::UidValue => ExecuteResult::Deliver(requests.iter().map(|r| r.arg(0)).collect()),
            Sysno::CondChk => ExecuteResult::Deliver(requests.iter().map(|r| r.arg(0)).collect()),
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
                ExecuteResult::Deliver(all(Word::from_bool(result)))
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
                        ExecuteResult::Deliver(all(Word::ZERO))
                    }
                    Err(e) => ExecuteResult::Deliver(all(errno_word(e))),
                }
            }

            Sysno::Socket => match self.kernel.socket(self.group_pid) {
                Ok(fd) => {
                    let vfd = self.vfds.insert_shared(fd);
                    ExecuteResult::Deliver(all(Word::from_u32(vfd)))
                }
                Err(e) => ExecuteResult::Deliver(all(errno_word(e))),
            },
            Sysno::Bind => {
                let result = self.vfds.shared_fd(arg(0).as_u32()).and_then(|fd| {
                    self.kernel
                        .bind(self.group_pid, fd, Port::new(arg(1).as_u32() as u16))
                });
                ExecuteResult::Deliver(all(match result {
                    Ok(()) => Word::ZERO,
                    Err(e) => errno_word(e),
                }))
            }
            Sysno::Listen => {
                let result = self
                    .vfds
                    .shared_fd(arg(0).as_u32())
                    .and_then(|fd| self.kernel.listen(self.group_pid, fd));
                ExecuteResult::Deliver(all(match result {
                    Ok(()) => Word::ZERO,
                    Err(e) => errno_word(e),
                }))
            }
            Sysno::Accept => {
                let result = self
                    .vfds
                    .shared_fd(arg(0).as_u32())
                    .and_then(|fd| self.kernel.accept(self.group_pid, fd));
                match result {
                    Ok(fd) => {
                        let vfd = self.vfds.insert_shared(fd);
                        ExecuteResult::Deliver(all(Word::from_u32(vfd)))
                    }
                    Err(e) => ExecuteResult::Deliver(all(errno_word(e))),
                }
            }
            Sysno::Time => ExecuteResult::Deliver(all(Word::from_u32(self.kernel.time() as u32))),
            // `Sysno` is non-exhaustive: unknown calls behave like an
            // unimplemented syscall.
            _ => ExecuteResult::Deliver(all(errno_word(Errno::Enosys))),
        }
    }

    fn execute_open(&mut self, requests: &[SyscallRequest]) -> ExecuteResult {
        let n = self.variants.len();
        let errno_word = |e: Errno| Word::from_i32(e.as_syscall_ret());

        // Read the path from each variant's own memory and require equality.
        let mut paths = Vec::with_capacity(n);
        for (variant, request) in self.variants.iter().zip(requests) {
            match variant.process.read_cstring(request.arg(0).as_addr(), 4096) {
                Ok(bytes) => paths.push(String::from_utf8_lossy(&bytes).to_string()),
                Err(_) => return ExecuteResult::Deliver(vec![errno_word(Errno::Efault); n]),
            }
        }
        self.metrics.monitor_checks += 1;
        if paths.iter().any(|p| p != &paths[0]) {
            return ExecuteResult::Abort(Alarm::new(
                DivergenceKind::ArgumentMismatch {
                    sysno: Sysno::Open,
                    arg_index: 0,
                    canonical_values: requests.iter().map(|r| r.arg(0)).collect(),
                },
                self.metrics.syscalls,
            ));
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
                        return ExecuteResult::Deliver(vec![errno_word(e); n]);
                    }
                }
            }
            let vfd = self.vfds.insert_unshared(fds);
            ExecuteResult::Deliver(vec![Word::from_u32(vfd); n])
        } else {
            match self.kernel.open(self.group_pid, &path, flags) {
                Ok(fd) => {
                    let vfd = self.vfds.insert_shared(fd);
                    ExecuteResult::Deliver(vec![Word::from_u32(vfd); n])
                }
                Err(e) => ExecuteResult::Deliver(vec![errno_word(e); n]),
            }
        }
    }

    fn execute_read(&mut self, sysno: Sysno, requests: &[SyscallRequest]) -> ExecuteResult {
        let n = self.variants.len();
        let errno_word = |e: Errno| Word::from_i32(e.as_syscall_ret());
        let vfd = requests[0].arg(0).as_u32();
        let count = requests[0].arg(2).as_u32() as usize;

        if self.vfds.is_unshared(vfd) {
            // Each variant reads from its own backing file.
            let mut returns = Vec::with_capacity(n);
            for (index, request) in requests.iter().enumerate() {
                let fd = match self.vfds.fd_for_variant(vfd, index) {
                    Ok(fd) => fd,
                    Err(e) => {
                        returns.push(errno_word(e));
                        continue;
                    }
                };
                match self.kernel.read(self.group_pid, fd, count) {
                    Ok(data) => {
                        self.metrics.io_bytes += data.len() as u64;
                        let addr = request.arg(1).as_addr();
                        match self.variants[index].process.write_bytes(addr, &data) {
                            Ok(()) => returns.push(Word::from_u32(data.len() as u32)),
                            Err(_) => returns.push(errno_word(Errno::Efault)),
                        }
                    }
                    Err(e) => returns.push(errno_word(e)),
                }
            }
            return ExecuteResult::Deliver(returns);
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
                let mut returns = Vec::with_capacity(n);
                for (variant, request) in self.variants.iter_mut().zip(requests) {
                    let addr = request.arg(1).as_addr();
                    match variant.process.write_bytes(addr, &data) {
                        Ok(()) => returns.push(Word::from_u32(data.len() as u32)),
                        Err(_) => returns.push(errno_word(Errno::Efault)),
                    }
                }
                ExecuteResult::Deliver(returns)
            }
            Err(e) => ExecuteResult::Deliver(vec![errno_word(e); n]),
        }
    }

    fn execute_write(&mut self, sysno: Sysno, requests: &[SyscallRequest]) -> ExecuteResult {
        let n = self.variants.len();
        let errno_word = |e: Errno| Word::from_i32(e.as_syscall_ret());
        let vfd = requests[0].arg(0).as_u32();
        let count = requests[0].arg(2).as_u32() as usize;

        // Gather the bytes each variant wants to emit.
        let mut payloads = Vec::with_capacity(n);
        for (variant, request) in self.variants.iter().zip(requests) {
            match variant.process.read_bytes(request.arg(1).as_addr(), count) {
                Ok(bytes) => payloads.push(bytes),
                Err(_) => return ExecuteResult::Deliver(vec![errno_word(Errno::Efault); n]),
            }
        }

        if self.vfds.is_unshared(vfd) {
            // Per-variant output to per-variant files: no cross-check needed.
            let mut returns = Vec::with_capacity(n);
            for (index, payload) in payloads.iter().enumerate() {
                let result = self
                    .vfds
                    .fd_for_variant(vfd, index)
                    .and_then(|fd| self.kernel.write(self.group_pid, fd, payload));
                match result {
                    Ok(len) => {
                        self.metrics.io_bytes += len as u64;
                        returns.push(Word::from_u32(len as u32));
                    }
                    Err(e) => returns.push(errno_word(e)),
                }
            }
            return ExecuteResult::Deliver(returns);
        }

        // Shared output must be byte-identical across variants.
        self.metrics.monitor_checks += 1;
        if payloads.iter().any(|p| p != &payloads[0]) {
            return ExecuteResult::Abort(Alarm::new(
                DivergenceKind::OutputMismatch { sysno },
                self.metrics.syscalls,
            ));
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
                ExecuteResult::Deliver(vec![Word::from_u32(len as u32); n])
            }
            Err(e) => ExecuteResult::Deliver(vec![errno_word(e); n]),
        }
    }
}

enum ExecuteResult {
    /// Deliver one return value to each variant and keep running.
    Deliver(Vec<Word>),
    /// The group exited with the given status.
    Exited(i32),
    /// A divergence was detected while executing the call.
    Abort(Alarm),
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

    /// Builds a 2-variant monitor for `source` under `variation`, all
    /// variants sharing the same program text (no UID reexpression of
    /// constants — suitable for programs without UID constants).
    fn monitor_for(source: &str, variation: &Variation, uid: Uid) -> NVariantMonitor {
        let program = parse_with_stdlib(source).unwrap();
        let compiled = compile_program(&program).unwrap();
        let specs = VariantSet::from_variation(variation, 2);
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
            let mut monitor = monitor_for(source, &variation, Uid::ROOT);
            let outcome = monitor.run_to_completion();
            assert_eq!(outcome.exit_status, Some(0), "under {variation}");
            assert!(!outcome.detected_attack());
            assert!(outcome.metrics.total_instructions > 100);
        }
    }

    #[test]
    fn oversized_write_counts_return_efault_in_every_variant() {
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
        let mut monitor = monitor_for(source, &Variation::address_partitioning(), Uid::ROOT);
        let outcome = monitor.run_to_completion();
        assert_eq!(outcome.exit_status, Some(0));
        assert!(outcome.exited_normally());
        assert!(!outcome.detected_attack());
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
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::new(48));
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
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::new(48));
        let mut output = 0;
        let outcome = loop {
            match monitor.step() {
                StepEvent::Progress(observation) => output += observation.output_delta,
                StepEvent::Done(outcome) => break outcome,
            }
        };
        assert_eq!(outcome.exit_status, Some(0));
        // The config file was read once and the line written once, not once
        // per variant.
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
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::new(48));
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
        assert!(alarm.from_detection_call(), "alarm was {alarm}");
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
        let mut monitor = monitor_for(source, &Variation::address_partitioning(), Uid::ROOT);
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
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::ROOT);
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
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::new(48));
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
        let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::new(48));
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
    fn report_and_continue_policy_records_but_does_not_stop() {
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
        let program = parse_with_stdlib(source).unwrap();
        let compiled = compile_program(&program).unwrap();
        let specs = VariantSet::from_variation(&Variation::uid_diversity(), 2);
        let processes: Vec<Process> = (0..2)
            .map(|_| Process::new(&compiled, MemoryLayout::default()))
            .collect();
        let kernel = WorldBuilder::standard().build();
        let config = MonitorConfig {
            policy: DivergencePolicy::ReportAndContinue,
            ..MonitorConfig::default()
        };
        let mut monitor = NVariantMonitor::new(kernel, processes, specs, Uid::new(48), config);
        let outcome = monitor.run_to_completion();
        assert_eq!(outcome.exit_status, Some(0));
        assert!(!monitor.alarms().is_empty());
        assert_eq!(outcome.alarm.as_ref(), monitor.alarms().first());
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
            let mut monitor = monitor_for(source, &Variation::uid_diversity(), Uid::ROOT);
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
        let mut monitor = monitor_for(source, &composed, Uid::ROOT);
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
        let mut monitor = monitor_for(clean, &composed, Uid::ROOT);
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
    }
}
