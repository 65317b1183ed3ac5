//! The exact work each workload does at the default seed.
//!
//! Counts and digests do not depend on the machine, so any drift is a
//! change in behaviour: a run at [`DEFAULT_SEED`] whose output differs from
//! these values counts every unit as failed. At other seeds the run falls
//! back to checks that hold for any seed (see `run`).

/// The default workload seed: the base seed `CampaignPlan` uses by default,
/// so the pinned matrix digest is that of `campaign_report`'s full matrix.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// A full-matrix pass at [`DEFAULT_SEED`] (matrix-cold and matrix-warm).
pub mod matrix {
    /// Digest of the 200 canonical cell lines, in canonical order.
    pub const DIGEST: u64 = 0xc65f_39fd_6e62_9079;
    /// Cells.
    pub const CELLS: u64 = 200;
    /// Judged (attack) cells.
    pub const JUDGED: u64 = 120;
    /// Simulated instructions over every variant.
    pub const INSTRUCTIONS: u64 = 28_014_891;
    /// System calls.
    pub const SYSCALLS: u64 = 53_572;
    /// Monitor equivalence checks.
    pub const CHECKS: u64 = 79_484;
    /// Bytes moved by the simulated kernel.
    pub const IO_BYTES: u64 = 18_837_827;
}

/// A P1–P3 sweep over the paper matrix at depth 48 (model-check; the
/// checker's input does not depend on the seed).
pub mod check {
    /// Digest of the 24 report summary lines, in sweep order.
    pub const DIGEST: u64 = 0x3141_3ff6_49a4_2249;
    /// Targets: 3 properties x 4 configurations x 2 worlds.
    pub const TARGETS: u64 = 24;
    /// States expanded.
    pub const STATES_VISITED: u64 = 1_684;
    /// Branches pruned.
    pub const STATES_PRUNED: u64 = 140;
    /// Traces that reached termination.
    pub const TERMINAL_RUNS: u64 = 256;
}
