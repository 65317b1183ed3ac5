//! Simulated operating-system substrate for the *Security through Redundant
//! Data Diversity* (DSN 2008) reproduction.
//!
//! The paper's prototype is a modified Linux kernel; the security argument,
//! however, only depends on a small set of kernel behaviours:
//!
//! * a **filesystem** with per-file owner/group/mode and permission checks
//!   against the calling process' effective UID ([`fs`]),
//! * **process credentials** with POSIX `setuid`/`seteuid` semantics
//!   ([`cred`]),
//! * the **`/etc/passwd` and `/etc/group` formats** that map user names to
//!   UIDs — the trusted external data the UID variation must diversify
//!   ([`passwd`]),
//! * a **network** that delivers untrusted client input to the service
//!   ([`net`]),
//! * a **system-call interface** connecting variant processes to all of the
//!   above ([`syscall`], [`kernel`]).
//!
//! This crate implements those behaviours as a deterministic, in-memory
//! kernel ([`OsKernel`]) that the N-variant monitor executes every
//! deployment against: the paper's Configurations 3–4 as two-variant
//! groups, and Configurations 1–2 as groups of one. A [`CostModel`] assigns simulated time to CPU work and I/O so the
//! WebBench-style evaluation can distinguish I/O-bound from CPU-bound load.
//!
//! # Example
//!
//! ```
//! use nvariant_simos::{OsKernel, WorldBuilder, OpenFlags};
//! use nvariant_types::Uid;
//!
//! // Build the standard case-study world: users, passwd files, docroot.
//! let mut kernel = WorldBuilder::standard().build();
//! let pid = kernel.spawn_process(Uid::ROOT);
//!
//! // Root may read the shadow file ...
//! let fd = kernel.open(pid, "/etc/shadow", OpenFlags::RDONLY).unwrap();
//! let data = kernel.read(pid, fd, 4096).unwrap();
//! assert!(!data.is_empty());
//!
//! // ... but an unprivileged process may not.
//! let unpriv = kernel.spawn_process(Uid::new(48));
//! assert!(kernel.open(unpriv, "/etc/shadow", OpenFlags::RDONLY).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod cred;
pub mod fs;
pub mod kernel;
pub mod net;
pub mod passwd;
pub mod syscall;
pub mod world;

pub use costs::{CostModel, SimDuration, SimInstant};
pub use cred::Credentials;
pub use fs::{AccessMode, FileMode, FileSystem, Inode, OpenFlags};
pub use kernel::{FdEntry, OsKernel};
pub use net::{Connection, Listener, SimNetwork};
pub use passwd::{reexpress_group, reexpress_passwd, GroupEntry, PasswdEntry};
pub use syscall::{SyscallRequest, Sysno};
pub use world::{UserSpec, WorldBuilder, WorldTemplate};
