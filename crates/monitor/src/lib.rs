//! The N-variant execution monitor: the "modified kernel" of the paper.
//!
//! The monitor owns N variant processes and the simulated kernel, and runs
//! the variants in lockstep at system-call granularity (§3.1):
//!
//! * each variant executes until it traps (system call, exit, or fault);
//! * system calls are **synchronization points**: nothing proceeds until all
//!   variants have made the *same* call with equivalent (canonicalized)
//!   arguments;
//! * **input** system calls are performed once against the kernel and their
//!   results replicated to every variant (UID-returning calls are
//!   re-expressed per variant on the way back);
//! * **output** system calls are checked for byte-identical content across
//!   variants and performed once;
//! * **unshared files** (§3.4) are opened per variant (`/etc/passwd-0`,
//!   `/etc/passwd-1`) through a slot-synchronized descriptor table;
//! * the Table 2 **detection calls** (`uid_value`, `cond_chk`, `cc_*`) are
//!   checked across variants and answered without touching kernel state;
//! * any divergence — different calls, non-equivalent arguments, a fault in
//!   one variant, differing exits — raises an [`Alarm`] and terminates the
//!   group;
//! * a single process (the paper's Configurations 1 and 2) runs through the
//!   same loop as a group of one identity variant. It has nothing to
//!   compare, so it counts no checks, and a fault or reaching
//!   [`MonitorConfig::max_syscalls`] ends it as a fault
//!   ([`NVariantOutcome::fault`]) rather than an alarm.
//!
//! # Example
//!
//! ```
//! use nvariant_diversity::{VariantSet, Variation};
//! use nvariant_monitor::{MonitorConfig, NVariantMonitor};
//! use nvariant_simos::WorldBuilder;
//! use nvariant_types::Uid;
//! use nvariant_vm::{compile_program, parse_program, MemoryLayout, Process};
//!
//! // A two-variant system running a trivially UID-clean program: the UID is
//! // obtained from the kernel and passed straight back to it, so each
//! // variant holds a different concrete value with the same canonical
//! // meaning.
//! let program = parse_program(
//!     "fn main() -> int { var u: uid_t; u = getuid(); return setuid(u); }",
//! )?;
//! let compiled = compile_program(&program)?;
//! let specs = VariantSet::from_variation(&Variation::uid_diversity(), 2);
//! let processes = vec![
//!     Process::new(&compiled, MemoryLayout::default()),
//!     Process::new(&compiled, MemoryLayout::default()),
//! ];
//! let kernel = WorldBuilder::standard().build();
//! let mut monitor = NVariantMonitor::new(kernel, processes, specs, Uid::ROOT, MonitorConfig::default());
//! let outcome = monitor.run_to_completion();
//! assert_eq!(outcome.exit_status, Some(0));
//! assert!(outcome.alarm.is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alarm;
pub mod config;
pub mod fdtable;
pub mod metrics;
pub mod monitor;

pub use alarm::{Alarm, DivergenceKind};
pub use config::MonitorConfig;
pub use fdtable::{VirtualFd, VirtualFdTable};
pub use metrics::ExecutionMetrics;
pub use monitor::{NVariantMonitor, NVariantOutcome, StepEvent, StepObservation};
