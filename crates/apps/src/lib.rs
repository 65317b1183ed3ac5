//! Case-study applications for the *Security through Redundant Data
//! Diversity* reproduction.
//!
//! * [`httpd`] — a mini Apache written in SimC: configuration file parsing,
//!   `/etc/passwd` lookup, privilege dropping, a request loop serving static
//!   files, root-escalating log appends, and two deliberately planted
//!   vulnerabilities (an unbounded header copy adjacent to the cached server
//!   UID, and an arbitrary-write maintenance endpoint).
//! * [`workload`] — a WebBench-style closed-loop load generator plus a
//!   discrete-event performance model that reproduces the shape of the
//!   paper's Table 3.
//! * [`attacks`] — concrete attack payloads against the mini server, one per
//!   attack class discussed in the paper, each a judged campaign scenario
//!   whose verdict sets the observed result beside the one the paper
//!   predicts for the configuration.
//! * [`scenarios`] — the process-wide build-once cache of compiled
//!   artifacts, and one-cell runs of the server under a configuration that
//!   return the campaign's `CellResult`.
//! * [`campaigns`] — ready-made [`nvariant_campaign`] experiment plans
//!   (benign sweeps, the attack corpus, the full security × world ×
//!   workload matrix) over that cache.
//! * [`checks`] — bounded model-checking entry points: per-configuration
//!   attacker models, ready-made [`nvariant_check`] targets for the paper
//!   matrix, the weakened-monitor regression build, and a campaign whose
//!   cells carry check summaries.
//!
//! # Example
//!
//! ```
//! use nvariant::DeploymentConfig;
//! use nvariant_apps::scenarios::{run_requests, ServedRequest};
//! use nvariant_apps::workload::benign_request;
//!
//! // Serve two benign requests under the paper's Configuration 4.
//! let cell = run_requests(
//!     &DeploymentConfig::TwoVariantUid,
//!     &[benign_request("/index.html"), benign_request("/about.html")],
//! );
//! assert!(cell.outcome.exited_normally());
//! assert_eq!(cell.exchanges.len(), 2);
//! assert!(cell.exchanges.iter().all(ServedRequest::is_success));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod campaigns;
pub mod checks;
pub mod httpd;
pub mod scenarios;
pub mod workload;

pub use attacks::{attack_campaign, attack_scenario, Attack, AttackClass, AttackResult};
pub use campaigns::{
    benign_scenario, full_matrix_campaign, httpd_campaign, security_sweep_configs,
};
pub use checks::{
    check_paper_matrix, check_summary, check_worlds, checked_httpd_campaign,
    httpd_analysis_reports, httpd_attacker, httpd_check_target, weakened_httpd_check_target,
    weakened_httpd_system, weakened_transform_analysis_reports, weakened_transform_options,
};
pub use httpd::httpd_source;
pub use scenarios::{compiled_httpd_system, run_requests, ServedRequest};
pub use workload::{benign_request, BenchmarkResult, LoadLevel, WebBench, WorkloadMix};
