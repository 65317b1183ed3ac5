//! Cross-process memoization of completed campaign cells.
//!
//! A cell's deterministic content is fixed by the plan and its matrix
//! coordinates alone (the determinism invariant the whole crate is built
//! on), so a completed [`CellResult`] can be reused by any later run of the
//! same plan — in this process or another. The cache key is exactly that
//! identity: the plan's canonical hash plus the cell's
//! `(config, world, scenario, replicate)` coordinates. The plan hash covers
//! every axis (configuration labels, deployment options and transform
//! counters, world labels, scenario labels/ports/judging), so flipping any
//! axis or transform option changes the hash and the old entries are simply
//! never looked up again — invalidation by construction, with no stale-entry
//! scanning.
//!
//! Entries are serialized with the shard interchange codec (a one-cell
//! shard file, written by [`ShardWriter`](crate::ShardWriter) and read by
//! [`ShardCursor`]): the codec that already proves byte-identical
//! reassembly of sharded runs is the cell serialization, so a cache hit is
//! bit-for-bit the cell a cold run would produce.
//!
//! Robustness contract, mirroring the artifact store's: a corrupted,
//! truncated or foreign entry is counted as an invalidation and recomputed
//! (then atomically overwritten) — never an error, never a crash. Writes go
//! through write-then-rename, so two processes racing on the same key can
//! never produce a torn entry; both write complete, identical bytes.

use crate::cell::{CellResult, CellSpec};
use crate::report::PlanShape;
use crate::shardio::{shard_text, ShardCursor, ShardHeader};
use nvariant::store::{atomic_write_text, CacheCounters, CacheStats};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A handle on one plan's cell-cache directory:
/// `<root>/cells/<plan_hash>/cell-<config>-<world>-<scenario>-<replicate>.txt`.
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    /// The header every entry is written under: the plan identity, one
    /// worker, zero total wall.
    header: ShardHeader,
    counters: CacheCounters,
}

impl CellCache {
    /// Opens the cache for one plan identity under `root`. Nothing is
    /// created on disk until the first [`insert`](Self::insert).
    #[must_use]
    pub fn open(
        root: &Path,
        name: impl Into<String>,
        base_seed: u64,
        plan_hash: u64,
        shape: PlanShape,
    ) -> Self {
        CellCache {
            dir: root.join("cells").join(format!("{plan_hash:016x}")),
            header: ShardHeader {
                name: name.into(),
                base_seed,
                plan_hash,
                shape,
                workers: 1,
                total_wall: Duration::ZERO,
            },
            counters: CacheCounters::default(),
        }
    }

    /// The on-disk path of one cell's entry (whether or not it exists).
    #[must_use]
    pub fn entry_path(&self, spec: &CellSpec) -> PathBuf {
        let (config, world, scenario, replicate) = spec.coordinates();
        self.dir
            .join(format!("cell-{config}-{world}-{scenario}-{replicate}.txt"))
    }

    /// Cache-effectiveness counters since this handle was opened.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Looks up the completed cell for `spec`. Returns `None` — counting a
    /// miss, or an invalidation for an entry that exists but is corrupt,
    /// truncated, keyed to a different plan hash, or describes a different
    /// cell — whenever the caller must recompute.
    ///
    /// The warm path streams the entry through a [`ShardCursor`] — header
    /// gate, one decoded cell, clean end marker — with no whole-shard
    /// `String` round trip.
    #[must_use]
    pub fn lookup(&self, spec: &CellSpec) -> Option<CellResult> {
        let path = self.entry_path(spec);
        let Ok(file) = std::fs::File::open(&path) else {
            self.counters.miss();
            return None;
        };
        // An entry that is present but unusable means recompute: the insert
        // after the recompute atomically replaces it.
        let Ok(mut cursor) = ShardCursor::new(std::io::BufReader::new(file)) else {
            self.counters.invalidation();
            return None;
        };
        if cursor.header().plan_hash != self.header.plan_hash {
            self.counters.invalidation();
            return None;
        }
        match cursor.next_cell() {
            // Exactly one cell followed by a clean end marker.
            Ok(Some(cell)) if cell.spec == *spec => {
                if let Ok(None) = cursor.next_cell() {
                    self.counters.hit();
                    Some(cell)
                } else {
                    self.counters.invalidation();
                    None
                }
            }
            _ => {
                self.counters.invalidation();
                None
            }
        }
    }

    /// Persists a completed cell as a one-cell shard file, atomically.
    /// Cache-layer I/O failures (full disk, read-only directory) are
    /// swallowed: a broken cache degrades to recomputing, never to failing
    /// the run.
    pub fn insert(&self, cell: &CellResult) {
        let path = self.entry_path(&cell.spec);
        let _ = atomic_write_text(&path, &shard_text(&self.header, [cell]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellOutcome;
    use crate::exchange::ServedRequest;
    use nvariant::ExecutionMetrics;
    use nvariant_transform::TransformStats;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cellcache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn shape() -> PlanShape {
        PlanShape {
            configs: 2,
            worlds: 1,
            scenarios: 1,
            replicates: 2,
        }
    }

    fn cell(config: usize, replicate: usize) -> CellResult {
        CellResult {
            spec: CellSpec {
                config_index: config,
                world_index: 0,
                scenario_index: 0,
                replicate,
                config_label: format!("config-{config}"),
                world_label: "template".to_string(),
                scenario_label: "ping".to_string(),
                seed: 0x5EED ^ ((config as u64) << 8) ^ replicate as u64,
            },
            outcome: CellOutcome {
                exit_status: Some(0),
                alarm: None,
                fault: None,
                metrics: ExecutionMetrics {
                    variants: 2,
                    total_instructions: 100,
                    syscalls: 4,
                    monitor_checks: 2,
                    detection_calls: 0,
                    io_bytes: 64,
                },
            },
            exchanges: vec![ServedRequest {
                request: b"GET / HTTP/1.0\r\n\r\n".to_vec(),
                response: b"HTTP/1.0 200 OK\r\n\r\nok".to_vec(),
            }],
            transform_stats: TransformStats::default(),
            verdict: None,
            checked: None,
            wall: Duration::from_millis(3),
        }
    }

    #[test]
    fn round_trips_cells_and_counts_hits_and_misses() {
        let root = scratch("roundtrip");
        let cache = CellCache::open(&root, "t", 7, 0xABCD, shape());
        let stored = cell(0, 1);
        assert!(cache.lookup(&stored.spec).is_none());
        cache.insert(&stored);
        let loaded = cache.lookup(&stored.spec).expect("entry readable");
        assert_eq!(loaded, stored);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn entries_keep_the_one_cell_report_bytes() {
        // Entries written by earlier builds, which serialized a one-cell
        // report (1 worker, zero wall), must stay byte-identical so their
        // caches stay warm.
        let root = scratch("entry-bytes");
        let cache = CellCache::open(&root, "t", 7, 0xABCD, shape());
        let stored = cell(1, 0);
        cache.insert(&stored);
        let written = std::fs::read_to_string(cache.entry_path(&stored.spec)).unwrap();
        let one_cell_report = crate::CampaignReport::new(
            "t".to_string(),
            7,
            0xABCD,
            shape(),
            1,
            vec![stored],
            Duration::ZERO,
        );
        assert_eq!(written, one_cell_report.to_shard_text());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn foreign_plan_hashes_and_mismatched_specs_are_invalidations() {
        let root = scratch("foreign");
        let stored = cell(0, 0);
        // Written under one plan hash, looked up under another: the file
        // exists at the same coordinates but proves a different plan.
        CellCache::open(&root, "t", 7, 0x1111, shape()).insert(&stored);
        let other = CellCache::open(&root, "t", 7, 0x2222, shape());
        // Different hash ⇒ different directory ⇒ plain miss.
        assert!(other.lookup(&stored.spec).is_none());
        assert_eq!(other.stats().misses, 1);

        // Same hash, but the entry body describes a different cell (e.g. a
        // hand-moved file): invalidation, not a bogus hit.
        let cache = CellCache::open(&root, "t", 7, 0x1111, shape());
        let moved = cache.entry_path(&cell(1, 0).spec);
        std::fs::create_dir_all(moved.parent().unwrap()).unwrap();
        std::fs::copy(cache.entry_path(&stored.spec), &moved).unwrap();
        assert!(cache.lookup(&cell(1, 0).spec).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_and_truncated_entries_fall_back_to_recompute() {
        let root = scratch("corrupt");
        let cache = CellCache::open(&root, "t", 7, 0xABCD, shape());
        let stored = cell(1, 1);
        cache.insert(&stored);
        let path = cache.entry_path(&stored.spec);
        let good = std::fs::read_to_string(&path).unwrap();
        for corruption in [
            String::new(),
            "garbage".to_string(),
            good[..good.len() / 2].to_string(),
            good.replace("exit 0", "exit zero"),
        ] {
            std::fs::write(&path, &corruption).unwrap();
            assert!(cache.lookup(&stored.spec).is_none(), "{corruption:?}");
            // Recompute-and-overwrite restores the entry.
            cache.insert(&stored);
            assert_eq!(cache.lookup(&stored.spec), Some(stored.clone()));
        }
        assert_eq!(cache.stats().invalidations, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_writers_and_readers_never_observe_a_torn_entry() {
        let root = scratch("concurrent");
        let stored = cell(0, 0);
        let spec = stored.spec.clone();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let writer = CellCache::open(&root, "t", 7, 0xABCD, shape());
                    for _ in 0..50 {
                        writer.insert(&stored);
                    }
                });
            }
            scope.spawn(|| {
                let reader = CellCache::open(&root, "t", 7, 0xABCD, shape());
                for _ in 0..200 {
                    if let Some(loaded) = reader.lookup(&spec) {
                        assert_eq!(loaded, stored);
                    }
                }
                // Every observed entry parsed and matched: no invalidation
                // can have been counted, because writes are atomic.
                assert_eq!(reader.stats().invalidations, 0);
            });
        });
        let _ = std::fs::remove_dir_all(&root);
    }
}
