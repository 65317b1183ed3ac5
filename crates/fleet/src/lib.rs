//! `nvariant_fleet` — multi-host campaign execution over pluggable worker
//! transports.
//!
//! The campaign crate made sharded runs *provably* recomposable: cells are
//! deterministic, shards are pure functions of the plan, and the plan-hash
//! gate plus matrix validation make a wrong-but-plausible merge
//! structurally impossible. This crate turns that proof into distribution
//! infrastructure:
//!
//! * [`WorkerTransport`] / [`WorkerHandle`] — how a coordinator starts a
//!   shard worker *somewhere*, watches it, kills it, and retrieves the
//!   shard file it produced. [`LocalProcessTransport`] is the classic
//!   single-host child-process path; [`CommandTransport`] runs workers
//!   through an arbitrary command prefix (`ssh {host}`, or the hermetic
//!   fake-remote wrapper CI uses), retrieving files *through the prefix*
//!   so nothing assumes a shared filesystem.
//! * [`Fleet`] — the scheduler: assigns shards to a host pool
//!   (least-loaded healthy host), keeps per-host attempt/health accounting
//!   with consecutive-failure quarantine and oldest-first re-admission,
//!   serves fully cached shards warm from the shared cell cache (hosts are
//!   *elastic*: they only execute cells nobody has computed yet), and
//!   retries crashed, hung, or unusable attempts up to a cap.
//! * [`Divergence`] — when a retrieved shard *is* valid but disagrees with
//!   the authoritative result (shared cache, or a verification re-run), the
//!   two canonical per-cell streams are compared in lockstep, in the pass
//!   that reads the cells, and the first unequal pair of lines names the
//!   exact differing coordinate (config × world × scenario × replicate)
//!   with both rendered cells — the monitor's first-disagreeing-syscall
//!   alarm, applied to shards. [`first_divergence`] is that comparison
//!   over two whole streams.
//!
//! `campaignd` is a thin CLI over this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod divergence;
pub mod fleet;
pub mod transport;

pub use divergence::{first_divergence, Coordinates, Divergence};
pub use fleet::{Fleet, FleetConfig, FleetError, FleetRun, HostStats};
pub use transport::{
    CommandTransport, LocalProcessTransport, ShardAssignment, TransportError, WorkerHandle,
    WorkerStatus, WorkerTransport,
};
