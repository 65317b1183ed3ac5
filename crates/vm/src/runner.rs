//! The single-process runner: executes one SimC process directly against the
//! simulated kernel, with no replication and no monitor.
//!
//! This is how the paper's Configuration 1 (unmodified Apache) and
//! Configuration 2 (UID-transformed Apache running as a single process) are
//! executed, and it doubles as the oracle the N-variant integration tests
//! compare against.

use crate::fault::Fault;
use crate::interp::TrapReason;
use crate::process::Process;
use nvariant_simos::{OpenFlags, OsKernel, SyscallRequest, Sysno};
use nvariant_types::{Errno, Fd, Gid, Pid, Port, Uid, Word};
use serde::{Deserialize, Serialize};

/// Execution limits for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunLimits {
    /// Maximum bytecode instructions per system-call slice.
    pub max_steps_per_slice: u64,
    /// Maximum total system calls before the run is aborted.
    pub max_syscalls: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_steps_per_slice: 20_000_000,
            max_syscalls: 1_000_000,
        }
    }
}

/// The observable outcome of running a process to completion.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Exit status, if the process exited normally.
    pub exit_status: Option<i32>,
    /// The fault that terminated the process, if any.
    pub fault: Option<Fault>,
    /// Total bytecode instructions executed.
    pub instructions: u64,
    /// Total system calls issued.
    pub syscalls: u64,
    /// Total bytes moved by I/O system calls (read/write/recv/send).
    pub io_bytes: u64,
}

impl RunOutcome {
    /// Returns `true` if the process exited normally (with any status).
    #[must_use]
    pub fn exited_normally(&self) -> bool {
        self.exit_status.is_some() && self.fault.is_none()
    }
}

/// Runs a single process against a kernel, dispatching its system calls
/// directly (no variant replication, no equivalence checks).
///
/// # Example
///
/// ```
/// use nvariant_simos::{OsKernel, WorldBuilder};
/// use nvariant_types::Uid;
/// use nvariant_vm::{compile_program, parse_with_stdlib, MemoryLayout, Process, RunLimits, Runner};
///
/// let program = parse_with_stdlib(r#"
///     fn main() -> int {
///         var fd: int;
///         var text: buf[64];
///         fd = open("/etc/httpd.conf", 0);
///         if (fd < 0) { return 1; }
///         read(fd, &text, 63);
///         close(fd);
///         if (starts_with(&text, "Listen 80")) { return 0; }
///         return 2;
///     }
/// "#)?;
/// let compiled = compile_program(&program)?;
/// let mut process = Process::new(&compiled, MemoryLayout::default());
/// let mut kernel = WorldBuilder::standard().build();
/// let pid = kernel.spawn_process(Uid::ROOT);
/// let outcome = Runner::new(RunLimits::default()).run(&mut kernel, pid, &mut process);
/// assert_eq!(outcome.exit_status, Some(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Runner {
    limits: RunLimits,
}

impl Runner {
    /// Creates a runner with the given limits.
    #[must_use]
    pub fn new(limits: RunLimits) -> Self {
        Runner { limits }
    }

    /// Runs `process` (as kernel process `pid`) to completion.
    pub fn run(&self, kernel: &mut OsKernel, pid: Pid, process: &mut Process) -> RunOutcome {
        let mut io_bytes = 0u64;
        let mut syscalls = 0u64;
        loop {
            match process.run_until_trap(self.limits.max_steps_per_slice) {
                TrapReason::Exited(status) => {
                    return RunOutcome {
                        exit_status: Some(status),
                        fault: None,
                        instructions: process.instructions_executed(),
                        syscalls,
                        io_bytes,
                    }
                }
                TrapReason::Faulted(fault) => {
                    return RunOutcome {
                        exit_status: None,
                        fault: Some(fault),
                        instructions: process.instructions_executed(),
                        syscalls,
                        io_bytes,
                    }
                }
                TrapReason::Syscall(request) => {
                    syscalls += 1;
                    if syscalls > self.limits.max_syscalls {
                        process.set_faulted(Fault::StepLimitExceeded);
                        continue;
                    }
                    if request.sysno == Sysno::Exit {
                        let status = request.arg(0).as_i32();
                        let _ = kernel.exit(pid, status);
                        process.set_exited(status);
                        continue;
                    }
                    let (ret, bytes) = dispatch_syscall(kernel, pid, &request, process);
                    io_bytes += bytes;
                    process.complete_syscall(ret);
                }
            }
        }
    }
}

/// Executes one system call against the kernel on behalf of a process,
/// returning the value to deliver to the program and the number of I/O bytes
/// moved.
///
/// Detection calls (Table 2) are no-ops in single-process mode: they return
/// the value their untransformed semantics dictate, so an untransformed and
/// a transformed program behave identically when run alone — the *normal
/// equivalence* property at the single-variant level.
pub fn dispatch_syscall(
    kernel: &mut OsKernel,
    pid: Pid,
    request: &SyscallRequest,
    process: &mut Process,
) -> (Word, u64) {
    let ret = do_dispatch(kernel, pid, request, process);
    match ret {
        Ok((value, bytes)) => (value, bytes),
        Err(errno) => (Word::from_i32(errno.as_syscall_ret()), 0),
    }
}

fn do_dispatch(
    kernel: &mut OsKernel,
    pid: Pid,
    request: &SyscallRequest,
    process: &mut Process,
) -> Result<(Word, u64), Errno> {
    let arg = |i: usize| request.arg(i);
    match request.sysno {
        Sysno::Exit => Ok((Word::ZERO, 0)),
        Sysno::GetUid => Ok((Word::from_uid(kernel.getuid(pid)?), 0)),
        Sysno::GetEuid => Ok((Word::from_uid(kernel.geteuid(pid)?), 0)),
        Sysno::GetGid => Ok((Word::from_u32(kernel.getgid(pid)?.as_u32()), 0)),
        Sysno::SetUid => {
            kernel.setuid(pid, arg(0).as_uid())?;
            Ok((Word::ZERO, 0))
        }
        Sysno::SetEuid => {
            kernel.seteuid(pid, arg(0).as_uid())?;
            Ok((Word::ZERO, 0))
        }
        Sysno::SetGid => {
            kernel.setgid(pid, Gid::new(arg(0).as_u32()))?;
            Ok((Word::ZERO, 0))
        }
        Sysno::SetReUid => {
            let decode = |w: Word| {
                if w.as_i32() == -1 {
                    None
                } else {
                    Some(w.as_uid())
                }
            };
            kernel.setreuid(pid, decode(arg(0)), decode(arg(1)))?;
            Ok((Word::ZERO, 0))
        }
        Sysno::Open => {
            let path_bytes = process
                .read_cstring(arg(0).as_addr(), 4096)
                .map_err(|_| Errno::Efault)?;
            let path = String::from_utf8_lossy(&path_bytes).to_string();
            let flags = OpenFlags::from_bits(arg(1).as_u32());
            let fd = kernel.open(pid, &path, flags)?;
            Ok((Word::from_u32(fd.as_u32()), 0))
        }
        Sysno::Read | Sysno::Recv => {
            let fd = Fd::new(arg(0).as_u32());
            let buf_addr = arg(1).as_addr();
            let count = arg(2).as_u32() as usize;
            let data = if request.sysno == Sysno::Read {
                kernel.read(pid, fd, count)?
            } else {
                kernel.recv(pid, fd, count)?
            };
            process
                .write_bytes(buf_addr, &data)
                .map_err(|_| Errno::Efault)?;
            Ok((Word::from_u32(data.len() as u32), data.len() as u64))
        }
        Sysno::Write | Sysno::Send => {
            let fd = Fd::new(arg(0).as_u32());
            let buf_addr = arg(1).as_addr();
            let count = arg(2).as_u32() as usize;
            let data = process
                .read_bytes(buf_addr, count)
                .map_err(|_| Errno::Efault)?;
            let written = if request.sysno == Sysno::Write {
                kernel.write(pid, fd, &data)?
            } else {
                kernel.send(pid, fd, &data)?
            };
            Ok((Word::from_u32(written as u32), written as u64))
        }
        Sysno::Close => {
            kernel.close(pid, Fd::new(arg(0).as_u32()))?;
            Ok((Word::ZERO, 0))
        }
        Sysno::Socket => Ok((Word::from_u32(kernel.socket(pid)?.as_u32()), 0)),
        Sysno::Bind => {
            let fd = Fd::new(arg(0).as_u32());
            let port = Port::new(arg(1).as_u32() as u16);
            kernel.bind(pid, fd, port)?;
            Ok((Word::ZERO, 0))
        }
        Sysno::Listen => {
            kernel.listen(pid, Fd::new(arg(0).as_u32()))?;
            Ok((Word::ZERO, 0))
        }
        Sysno::Accept => {
            let fd = kernel.accept(pid, Fd::new(arg(0).as_u32()))?;
            Ok((Word::from_u32(fd.as_u32()), 0))
        }
        Sysno::Time => Ok((Word::from_u32(kernel.time() as u32), 0)),
        // Detection calls degenerate to their plain semantics when no monitor
        // is attached.
        Sysno::UidValue => Ok((arg(0), 0)),
        Sysno::CondChk => Ok((Word::from_bool(arg(0).as_bool()), 0)),
        Sysno::CcEq => Ok((Word::from_bool(arg(0) == arg(1)), 0)),
        Sysno::CcNeq => Ok((Word::from_bool(arg(0) != arg(1)), 0)),
        Sysno::CcLt => Ok((Word::from_bool(arg(0).as_u32() < arg(1).as_u32()), 0)),
        Sysno::CcLeq => Ok((Word::from_bool(arg(0).as_u32() <= arg(1).as_u32()), 0)),
        Sysno::CcGt => Ok((Word::from_bool(arg(0).as_u32() > arg(1).as_u32()), 0)),
        Sysno::CcGeq => Ok((Word::from_bool(arg(0).as_u32() >= arg(1).as_u32()), 0)),
        // `Sysno` is non-exhaustive; unknown calls are rejected like a real
        // kernel would reject an unimplemented syscall number.
        _ => Err(Errno::Enosys),
    }
}

/// Convenience: runs `process` as a freshly spawned kernel process owned by
/// `uid` and returns the outcome.
pub fn run_as_user(
    kernel: &mut OsKernel,
    uid: Uid,
    process: &mut Process,
    limits: RunLimits,
) -> RunOutcome {
    let pid = kernel.spawn_process(uid);
    Runner::new(limits).run(kernel, pid, process)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use crate::process::MemoryLayout;
    use crate::stdlib::parse_with_stdlib;
    use nvariant_simos::WorldBuilder;

    fn run_source(src: &str, uid: Uid) -> (RunOutcome, OsKernel, Pid) {
        let program = parse_with_stdlib(src).unwrap();
        let compiled = compile_program(&program).unwrap();
        let mut process = Process::new(&compiled, MemoryLayout::default());
        let mut kernel = WorldBuilder::standard().build();
        let pid = kernel.spawn_process(uid);
        let outcome = Runner::new(RunLimits::default()).run(&mut kernel, pid, &mut process);
        (outcome, kernel, pid)
    }

    #[test]
    fn identity_syscalls_round_trip() {
        let (outcome, _, _) = run_source(
            r"
            fn main() -> int {
                var uid: uid_t;
                uid = getuid();
                if (uid == 0) { return 1; }
                return 0;
            }
            ",
            Uid::ROOT,
        );
        assert_eq!(outcome.exit_status, Some(1));
        assert!(outcome.exited_normally());
    }

    #[test]
    fn privilege_drop_through_syscalls() {
        let (outcome, kernel, pid) = run_source(
            r"
            fn main() -> int {
                var rc: int;
                rc = setuid(48);
                if (rc != 0) { return 1; }
                rc = seteuid(0);
                if (rc == 0) { return 2; }
                return 0;
            }
            ",
            Uid::ROOT,
        );
        assert_eq!(outcome.exit_status, Some(0));
        assert_eq!(kernel.credentials(pid).unwrap().euid(), Uid::new(48));
    }

    #[test]
    fn file_io_against_the_standard_world() {
        let (outcome, _, _) = run_source(
            r#"
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
            "#,
            Uid::new(48),
        );
        assert_eq!(outcome.exit_status, Some(0));
        assert!(outcome.io_bytes > 20);
    }

    #[test]
    fn permission_errors_reach_the_program_as_negative_errno() {
        let (outcome, _, _) = run_source(
            r#"
            fn main() -> int {
                var fd: int;
                fd = open("/etc/shadow", 0);
                if (fd == 0 - 13) { return 0; }
                return fd;
            }
            "#,
            Uid::new(48),
        );
        assert_eq!(outcome.exit_status, Some(0));
    }

    #[test]
    fn oversized_write_counts_return_efault() {
        // The count is the program's own: the runner must not reserve it
        // before finding that the buffer ends 16 bytes in.
        let (outcome, _, _) = run_source(
            r"
            var line: buf[16];
            fn main() -> int {
                if (write(1, &line, 0x7fffffff) != 0 - 14) { return 1; }
                if (send(1, &line, 0x7fffffff) != 0 - 14) { return 2; }
                return 0;
            }
            ",
            Uid::ROOT,
        );
        assert_eq!(outcome.exit_status, Some(0));
        assert!(outcome.exited_normally());
        assert_eq!(outcome.io_bytes, 0);
    }

    #[test]
    fn network_round_trip() {
        let program = parse_with_stdlib(
            r#"
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
            "#,
        )
        .unwrap();
        let compiled = compile_program(&program).unwrap();

        // With no client staged, accept returns EAGAIN and the server exits 1.
        let mut idle_kernel = WorldBuilder::standard().build();
        let mut idle_process = Process::new(&compiled, MemoryLayout::default());
        let idle_pid = idle_kernel.spawn_process(Uid::ROOT);
        let idle =
            Runner::new(RunLimits::default()).run(&mut idle_kernel, idle_pid, &mut idle_process);
        assert_eq!(idle.exit_status, Some(1));

        // With a client request staged before the server starts, the full
        // request/response round trip completes.
        let mut kernel = WorldBuilder::standard().build();
        kernel
            .net_mut()
            .preload_request(Port::HTTP, b"GET / HTTP/1.0\r\n\r\n".to_vec());
        let mut process = Process::new(&compiled, MemoryLayout::default());
        let pid = kernel.spawn_process(Uid::ROOT);
        let outcome = Runner::new(RunLimits::default()).run(&mut kernel, pid, &mut process);
        assert_eq!(outcome.exit_status, Some(0));
        let conn = kernel.net().connections().next().unwrap();
        assert!(conn.response.starts_with(b"HTTP/1.0 200 OK"));
    }

    #[test]
    fn detection_calls_behave_transparently_without_a_monitor() {
        let (outcome, _, _) = run_source(
            r"
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
                return 0;
            }
            ",
            Uid::ROOT,
        );
        assert_eq!(outcome.exit_status, Some(0));
    }

    #[test]
    fn faults_are_reported_in_the_outcome() {
        let (outcome, _, _) = run_source(
            r"
            fn main() -> int {
                var p: ptr;
                p = 4;
                return *p;
            }
            ",
            Uid::ROOT,
        );
        assert_eq!(outcome.exit_status, None);
        assert!(matches!(outcome.fault, Some(Fault::Segfault { .. })));
        assert!(!outcome.exited_normally());
    }

    #[test]
    fn run_as_user_helper() {
        let program = parse_with_stdlib("fn main() -> int { return geteuid(); }").unwrap();
        let compiled = compile_program(&program).unwrap();
        let mut process = Process::new(&compiled, MemoryLayout::default());
        let mut kernel = WorldBuilder::standard().build();
        let outcome = run_as_user(
            &mut kernel,
            Uid::new(48),
            &mut process,
            RunLimits::default(),
        );
        assert_eq!(outcome.exit_status, Some(48));
    }

    #[test]
    fn console_output_via_write_str() {
        let (outcome, kernel, pid) = run_source(
            r#"
            fn main() -> int {
                write_str(1, "starting up\n");
                write_str(2, "warning: test\n");
                return 0;
            }
            "#,
            Uid::ROOT,
        );
        assert_eq!(outcome.exit_status, Some(0));
        let console = String::from_utf8(kernel.console_output(pid).unwrap().to_vec()).unwrap();
        assert!(console.contains("starting up"));
        assert!(console.contains("warning: test"));
    }
}
