//! `nvariant_campaign` — experiment plans over the build-once/run-many
//! engine.
//!
//! The core crate's [`CompiledSystem`](nvariant::CompiledSystem) splits
//! deployment into an expensive `compile()` (parse → transform → compile →
//! provision) and a cheap `instantiate()`. This crate puts an explicit
//! **experiment plan** on top: a [`CampaignPlan`] is a matrix of
//! (deployment configuration × world × scenario × replicate) cells, where
//! worlds are named [`WorldTemplate`](nvariant_simos::WorldTemplate)s —
//! alternative environments (account databases, document roots, injected
//! filesystem faults) the same compiled artifacts deploy into via
//! [`CompiledSystem::instantiate_in`](nvariant::CompiledSystem::instantiate_in).
//!
//! Determinism is a design invariant, and it now extends across process
//! boundaries:
//!
//! * each cell's seed derives from the plan's base seed and the cell's
//!   matrix coordinates alone ([`cell_seed`]);
//! * [`CampaignPlan::cells`] is a *pure function* of the plan, so
//!   [`CampaignPlan::shard`] can split the matrix round-robin across
//!   processes that never communicate;
//! * every report carries the plan's canonical hash
//!   ([`CampaignPlan::plan_hash`]: name + seed + full axes) and matrix
//!   shape, so merging is *validation-only*: the one merge, [`ShardMerger`]
//!   (driven over shard files, or over in-memory reports by
//!   [`CampaignReport::merge`]), rejects shards from differently-shaped
//!   plans, out-of-order shards and incomplete shard sets (naming the exact
//!   missing cells) without re-running anything — and
//!   [`CampaignReport::canonical_text`] of a merged report is
//!   byte-identical to an unsharded run at any worker count.
//!
//! Aggregates come from one fold, [`StreamingAggregator`]: a
//! [`CampaignReport`] renders its summary through
//! [`CampaignReport::fold_aggregator`], exactly as a streamed merge does.
//!
//! # Example
//!
//! ```
//! use nvariant::{DeploymentConfig, NVariantSystemBuilder};
//! use nvariant_campaign::{CampaignPlan, CampaignReport, Scenario};
//! use nvariant_simos::WorldTemplate;
//! use std::sync::Arc;
//!
//! let server = r#"
//!     fn main() -> int {
//!         var sock: int; var conn: int; var request: buf[128];
//!         sock = socket(); bind(sock, 80); listen(sock); setuid(48);
//!         conn = accept(sock);
//!         while (conn >= 0) {
//!             recv(conn, &request, 127);
//!             send_str(conn, "HTTP/1.0 200 OK\r\n\r\nok");
//!             close(conn);
//!             conn = accept(sock);
//!         }
//!         return 0;
//!     }
//! "#;
//! let compiled = Arc::new(
//!     NVariantSystemBuilder::from_source(server)?
//!         .config(DeploymentConfig::TwoVariantUid)
//!         .compile()?,
//! );
//! let plan = CampaignPlan::new("smoke")
//!     .config(compiled)
//!     .world(WorldTemplate::standard())
//!     .world(WorldTemplate::alternate_accounts())
//!     .scenario(Scenario::fixed_requests(
//!         "ping",
//!         vec![b"GET / HTTP/1.0\r\n\r\n".to_vec()],
//!     ))
//!     .replicates(3);
//!
//! // 1 config x 2 worlds x 1 scenario x 3 replicates.
//! assert_eq!(plan.cells().len(), 6);
//! let whole = plan.run(2);
//! let aggregate = whole.fold_aggregator();
//! assert!(aggregate.render_summary().contains("survival rate 100.0%"));
//! assert_eq!(aggregate.verdict_mismatches(), 0);
//!
//! // Shard the same plan across two "processes" and merge: byte-identical.
//! let merged = CampaignReport::merge([
//!     plan.run_shard(0, 2, 1),
//!     plan.run_shard(1, 2, 1),
//! ])?;
//! assert_eq!(merged.canonical_text(), whole.canonical_text());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cell;
pub mod engine;
pub mod exchange;
pub mod plan;
pub mod report;
pub mod shardio;
pub mod streaming;

pub use cache::CellCache;
pub use cell::{CellOutcome, CellResult, CellSpec, CellVerdict, CheckSummary, RequestTally};
pub use engine::{cell_seed, run_parallel};
pub use exchange::ServedRequest;
pub use nvariant::CacheStats;
pub use plan::{CampaignPlan, CellRun, Scenario};
pub use report::{CampaignReport, MergeError, PlanShape};
pub use shardio::{ShardCursor, ShardHeader, ShardWriter};
pub use streaming::{
    CoordinateWalk, GroupTally, LatencyHistogram, ShardMerger, StreamingAggregator, SyntheticSweep,
    WallPercentiles, QUANTILE_RELATIVE_ERROR,
};

#[cfg(test)]
mod send_tests {
    //! Compile-time proof that the building blocks of parallel campaigns
    //! cross thread boundaries (the satellite "audit for incidental
    //! non-`Send` state" check: `Rc`, raw pointers or thread-bound state in
    //! any of these types would fail this module at compile time).

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn parallel_instantiation_building_blocks_are_send() {
        assert_send::<nvariant_vm::Process>();
        assert_send::<nvariant_simos::OsKernel>();
        assert_send::<nvariant_simos::WorldTemplate>();
        assert_send::<nvariant_monitor::NVariantMonitor>();
        assert_send::<nvariant::CompiledSystem>();
        assert_send::<nvariant::RunnableSystem>();
        assert_send::<crate::CampaignPlan>();
        assert_send::<crate::CampaignReport>();
        // Shared read-only across the worker pool.
        assert_sync::<nvariant::CompiledSystem>();
        assert_sync::<nvariant_simos::WorldTemplate>();
        assert_sync::<crate::CampaignPlan>();
    }
}
