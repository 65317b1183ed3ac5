//! `perfbench` — the repository benchmark.
//!
//! Three closed-loop workloads, each a pass a user waits for:
//!
//! * `matrix-cold` — the full security matrix (`report_matrix_plan(false)`,
//!   200 cells) run the way `campaignd` runs it in one process: three
//!   shards on the worker pool into a fresh cell cache, each shard streamed
//!   to a file, the files merged into a streaming aggregator, the summary
//!   and surface rendered;
//! * `matrix-warm` — the same matrix served from a cell cache the set-up
//!   filled, then folded and rendered;
//! * `model-check` — `check_paper_matrix(P, 48)` for P1, P2 and P3 on one
//!   thread.
//!
//! Untraced runs give the end-to-end metrics; a traced run drives the same
//! cells through the crates' public calls, one span per layer call, and
//! gives the per-layer metrics. See `README.md` for the metric list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod passes;
pub mod pins;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod traced;
