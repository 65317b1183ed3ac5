//! The in-process result container: a run's cells plus its plan identity
//! and run metadata, with the canonical rendering that the determinism
//! contracts compare.
//!
//! The container holds no aggregation or merge logic of its own. Summaries
//! fold through [`StreamingAggregator`], the shard codec is
//! [`ShardWriter`](crate::ShardWriter)/[`ShardCursor`], and
//! [`CampaignReport::merge`] drives the one merge, [`ShardMerger`].

use crate::cell::CellResult;
use crate::shardio::ShardCursor;
use crate::streaming::{ShardMerger, StreamingAggregator};
use nvariant::CacheStats;
use nvariant_types::lines::ParseError;
use std::fmt;
use std::time::Duration;

/// The dimensions of a plan's cell matrix: how many positions each axis
/// has.
///
/// Every [`CampaignReport`] records the shape of the plan it came from, so
/// a merge can walk the plan's expected coordinate set and detect missing
/// or foreign cells *without re-running the plan* — the shape, together
/// with the plan hash, is what turns merging from "trust the shards" into
/// validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanShape {
    /// Number of configurations on the deployment axis.
    pub configs: usize,
    /// Number of worlds on the environment axis (1 when the plan has only
    /// the implicit template world).
    pub worlds: usize,
    /// Number of scenarios.
    pub scenarios: usize,
    /// Replicates per (configuration, world, scenario) triple.
    pub replicates: usize,
}

impl PlanShape {
    /// Total number of cells in the matrix.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.configs * self.worlds * self.scenarios * self.replicates
    }

    /// Total number of cells, or `None` when the product overflows `usize`
    /// — possible only for hand-crafted or corrupted shapes, which is
    /// exactly when a parser-fed [`ShardMerger`] must reject the shape
    /// instead of trusting it with arithmetic or allocations.
    #[must_use]
    pub fn checked_cell_count(&self) -> Option<usize> {
        self.configs
            .checked_mul(self.worlds)?
            .checked_mul(self.scenarios)?
            .checked_mul(self.replicates)
    }

    /// The coordinates `(config, world, scenario, replicate)` of the
    /// `linear`-th cell in canonical (config-major) order: the inverse of
    /// [`index`](Self::index), and the one definition of the order that
    /// [`CampaignPlan::cells`](crate::CampaignPlan::cells) emits, every
    /// shard keeps and [`ShardMerger`] merges back into. `linear` must be
    /// below [`cell_count`](Self::cell_count).
    #[must_use]
    pub fn coordinates(&self, linear: usize) -> (usize, usize, usize, usize) {
        let replicate = linear % self.replicates;
        let rest = linear / self.replicates;
        let scenario = rest % self.scenarios;
        let rest = rest / self.scenarios;
        (rest / self.worlds, rest % self.worlds, scenario, replicate)
    }

    /// The canonical position of coordinates inside the matrix: the
    /// inverse of [`coordinates`](Self::coordinates). Sorting cells by
    /// index sorts them by coordinates, so the two orders agree.
    #[must_use]
    pub fn index(
        &self,
        (config, world, scenario, replicate): (usize, usize, usize, usize),
    ) -> usize {
        ((config * self.worlds + world) * self.scenarios + scenario) * self.replicates + replicate
    }

    /// Whether the coordinates fall inside the matrix.
    #[must_use]
    pub fn contains(
        &self,
        (config, world, scenario, replicate): (usize, usize, usize, usize),
    ) -> bool {
        config < self.configs
            && world < self.worlds
            && scenario < self.scenarios
            && replicate < self.replicates
    }
}

impl fmt::Display for PlanShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}x{}",
            self.configs, self.worlds, self.scenarios, self.replicates
        )
    }
}

/// Why the shard merge ([`ShardMerger`], or its in-memory adapter
/// [`CampaignReport::merge`]) refused to combine shards.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// No reports were supplied.
    Empty,
    /// Two shards claim to come from differently named plans.
    NameMismatch(String, String),
    /// Two shards claim to come from plans with different base seeds.
    SeedMismatch(u64, u64),
    /// Two shards agree on name and base seed but carry different plan
    /// hashes: their plans differ somewhere on the axes (configurations,
    /// worlds, scenarios or replicates), so their cells are not comparable.
    PlanMismatch {
        /// Plan hash the merge started from.
        merged: u64,
        /// The disagreeing shard's plan hash.
        shard: u64,
    },
    /// Two shards carry different matrix shapes (possible only for
    /// hand-assembled reports — plan-produced shards with equal hashes
    /// always agree on shape).
    ShapeMismatch(PlanShape, PlanShape),
    /// Two shards both contain the cell at these canonical coordinates
    /// (config, world, scenario, replicate) — they do not partition a plan.
    DuplicateCell(usize, usize, usize, usize),
    /// A shard lists a cell at or behind one the merge already emitted:
    /// the shard repeats a cell, or its cells are not in canonical order.
    OutOfOrderCell {
        /// Index of the offending shard in the merge's input order.
        shard: usize,
        /// The offending cell's (config, world, scenario, replicate).
        coordinates: (usize, usize, usize, usize),
    },
    /// A shard contains a cell whose coordinates fall outside the plan's
    /// matrix shape.
    UnexpectedCell(usize, usize, usize, usize),
    /// The merged shards do not cover the plan's full cell matrix: the
    /// shard set is incomplete (a worker's report is missing or was
    /// truncated).
    MissingCells {
        /// The first uncovered coordinates, in canonical order (capped, so
        /// a near-empty merge of a huge plan stays cheap to report).
        missing: Vec<(usize, usize, usize, usize)>,
        /// How many cells the merged shards actually covered.
        covered: usize,
        /// How many cells the plan's matrix expects in total.
        expected: usize,
    },
    /// The reports declare a matrix shape whose cell count overflows —
    /// impossible for a real plan (its cell list exists in memory), so the
    /// shape can only come from a corrupted or adversarial shard file.
    ImplausibleShape(PlanShape),
    /// A shard hit malformed input or an I/O failure.
    Shard {
        /// Index of the failing shard in the merge's input order.
        shard: usize,
        /// The underlying parse error.
        error: ParseError,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard reports to merge"),
            MergeError::NameMismatch(a, b) => {
                write!(f, "shards come from different plans: {a:?} vs {b:?}")
            }
            MergeError::SeedMismatch(a, b) => {
                write!(f, "shards come from different base seeds: {a:#x} vs {b:#x}")
            }
            MergeError::PlanMismatch { merged, shard } => write!(
                f,
                "shards come from differently shaped plans (plan hash {merged:#018x} vs \
                 {shard:#018x}): same name and seed, but the axes differ"
            ),
            MergeError::ShapeMismatch(a, b) => {
                write!(f, "shards disagree on the matrix shape: {a} vs {b}")
            }
            MergeError::DuplicateCell(c, w, s, r) => write!(
                f,
                "cell (config {c}, world {w}, scenario {s}, replicate {r}) appears in more \
                 than one shard"
            ),
            MergeError::OutOfOrderCell {
                shard,
                coordinates: (c, w, s, r),
            } => write!(
                f,
                "shard {shard} is out of canonical order: cell (config {c}, world {w}, \
                 scenario {s}, replicate {r}) repeats or precedes a cell already merged"
            ),
            MergeError::UnexpectedCell(c, w, s, r) => write!(
                f,
                "cell (config {c}, world {w}, scenario {s}, replicate {r}) falls outside \
                 the plan's matrix"
            ),
            MergeError::MissingCells {
                missing,
                covered,
                expected,
            } => {
                write!(
                    f,
                    "merged shards cover {covered} of {expected} cells; missing"
                )?;
                let shown = missing.len().min(8);
                for (i, (c, w, s, r)) in missing.iter().take(shown).enumerate() {
                    let sep = if i == 0 { ' ' } else { ',' };
                    write!(
                        f,
                        "{sep}(config {c}, world {w}, scenario {s}, replicate {r})"
                    )?;
                }
                let unshown = expected - covered - shown;
                if unshown > 0 {
                    write!(f, " and {unshown} more")?;
                }
                Ok(())
            }
            MergeError::ImplausibleShape(shape) => {
                write!(f, "shards declare an implausible matrix shape {shape}")
            }
            MergeError::Shard { shard, error } => write!(f, "shard {shard}: {error}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Everything a campaign run produced: per-cell results plus run metadata.
///
/// The deterministic content — every cell's spec, outcome, exchanges,
/// verdict — is fixed by the plan and base seed alone;
/// [`canonical_text`](Self::canonical_text) serializes exactly that subset,
/// so runs at different worker counts, and sharded runs reassembled with
/// [`merge`](Self::merge), compare byte-identically. Wall-clock fields
/// (`total_wall`, per-cell `wall`, `workers`) are measurement metadata and
/// stay out of the canonical form.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The plan's name.
    pub name: String,
    /// The plan's base seed.
    pub base_seed: u64,
    /// The canonical hash of the plan this report came from
    /// ([`CampaignPlan::plan_hash`](crate::CampaignPlan::plan_hash)):
    /// name, base seed and the full axes. [`merge`](Self::merge) refuses to
    /// combine reports with different hashes, so shards from
    /// differently-shaped plans can never silently blend into one report.
    pub plan_hash: u64,
    /// The dimensions of the plan's cell matrix, recorded so
    /// [`merge`](Self::merge) can validate coverage without the plan.
    pub shape: PlanShape,
    /// Worker threads the run used.
    pub workers: usize,
    /// Per-cell results, in canonical (config-major) order. A
    /// [`run_shard`](crate::CampaignPlan::run_shard) report holds its
    /// subset of the matrix in that order too, which the merge requires.
    pub cells: Vec<CellResult>,
    /// Wall-clock time of the whole run (the sum of shard walls after a
    /// merge).
    pub total_wall: Duration,
    /// Cell-cache effectiveness counters of the run that produced this
    /// report, when it ran with a cache. Like `workers` and the wall-clock
    /// fields this is measurement metadata: it stays out of the canonical
    /// serialization *and* the shard interchange format (each process
    /// reports its own counters; [`merge`](Self::merge) sums the ones it is
    /// handed in-memory).
    pub cache: Option<CacheStats>,
}

impl CampaignReport {
    /// Assembles a report (used by [`CampaignPlan::run`](crate::CampaignPlan::run)).
    #[must_use]
    pub fn new(
        name: String,
        base_seed: u64,
        plan_hash: u64,
        shape: PlanShape,
        workers: usize,
        cells: Vec<CellResult>,
        total_wall: Duration,
    ) -> Self {
        CampaignReport {
            name,
            base_seed,
            plan_hash,
            shape,
            workers,
            cells,
            total_wall,
            cache: None,
        }
    }

    /// Attaches the cell-cache counters of the run that produced this
    /// report (shown by [`render_summary`](Self::render_summary)).
    #[must_use]
    pub fn with_cache_stats(mut self, stats: CacheStats) -> Self {
        self.cache = Some(stats);
        self
    }

    /// Reassembles shard reports into the report an unsharded run produces:
    /// cells come back in canonical coordinate order, so the merged
    /// [`canonical_text`](Self::canonical_text) is byte-identical to the
    /// whole run's. Shard walls sum into `total_wall` (total compute spent),
    /// `workers` records the widest shard, and cache counters sum.
    ///
    /// This is an adapter over the one merge: each report is written with
    /// the shard codec and the texts are merged by a [`ShardMerger`] over
    /// in-memory cursors, so in-process and on-disk shards are accepted and
    /// rejected identically. Merging is **validation-only** — it never
    /// re-runs cells.
    ///
    /// # Errors
    ///
    /// Returns the [`MergeError`] the [`ShardMerger`] raises: no reports,
    /// disagreeing plan identity or shape, duplicate, out-of-order or
    /// out-of-matrix cells, or incomplete coverage of the plan's matrix.
    pub fn merge(shards: impl IntoIterator<Item = CampaignReport>) -> Result<Self, MergeError> {
        let mut cache: Option<CacheStats> = None;
        let texts: Vec<String> = shards
            .into_iter()
            .map(|shard| {
                cache = match (cache, shard.cache) {
                    (None, None) => None,
                    (a, b) => Some(a.unwrap_or_default().merged(b.unwrap_or_default())),
                };
                shard.to_shard_text()
            })
            .collect();
        let merged = texts
            .iter()
            .enumerate()
            .map(|(shard, text)| {
                ShardCursor::new(text.as_bytes())
                    .map_err(|error| MergeError::Shard { shard, error })
            })
            .collect::<Result<Vec<_>, _>>()
            .and_then(ShardMerger::new)
            .and_then(ShardMerger::into_report)?;
        Ok(CampaignReport { cache, ..merged })
    }

    /// The judged cells whose observation disagreed with the prediction.
    #[must_use]
    pub fn verdict_mismatches(&self) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|cell| cell.verdict.as_ref().is_some_and(|v| !v.matches()))
            .collect()
    }

    /// The deterministic serialization of the run: plan identity plus one
    /// canonical line per cell. Byte-identical across worker counts, and —
    /// for a merged set of shards partitioning a plan — byte-identical to
    /// the unsharded run.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        let mut out = self.header().canonical_header(self.cells.len());
        for cell in &self.cells {
            out.push_str(&cell.canonical_line());
            out.push('\n');
        }
        out
    }

    /// The canonical per-cell stream: each cell's matrix coordinates
    /// (config, world, scenario, replicate) paired with its rendered
    /// canonical line, in report order (canonical order for whole and
    /// merged reports). This is the expected side a verification re-run
    /// hands the lockstep comparison of a merge: two reports of the same
    /// plan are byte-identical in [`canonical_text`](Self::canonical_text)
    /// iff their canonical cell streams are equal element-wise.
    pub fn canonical_cells(
        &self,
    ) -> impl Iterator<Item = ((usize, usize, usize, usize), String)> + '_ {
        self.cells
            .iter()
            .map(|cell| (cell.spec.coordinates(), cell.canonical_line()))
    }

    /// Folds this report's cells into a fresh aggregator carrying the
    /// report's identity and metadata. Every aggregate of a report — rates,
    /// tallies, totals, latency percentiles, the attack-success surface —
    /// comes from this fold, so a report and a streamed run of the same
    /// cells render identical bytes.
    #[must_use]
    pub fn fold_aggregator(&self) -> StreamingAggregator {
        let mut aggregator = StreamingAggregator::new(
            self.name.clone(),
            self.base_seed,
            self.plan_hash,
            self.shape,
        );
        aggregator.set_workers(self.workers);
        aggregator.set_total_wall(self.total_wall);
        aggregator.set_cache(self.cache);
        for cell in &self.cells {
            aggregator.absorb(cell);
        }
        aggregator
    }

    /// A human-oriented summary: rates, totals, latency percentiles and
    /// timing, rendered through [`fold_aggregator`](Self::fold_aggregator).
    #[must_use]
    pub fn render_summary(&self) -> String {
        self.fold_aggregator().render_summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellOutcome, CellSpec, CellVerdict};
    use crate::exchange::ServedRequest;
    use nvariant::ExecutionMetrics;
    use nvariant_transform::TransformStats;

    fn cell(config: &str, ok: bool, verdict: Option<CellVerdict>) -> CellResult {
        CellResult {
            spec: CellSpec {
                config_index: usize::from(config.as_bytes()[0] - b'A'),
                world_index: 0,
                scenario_index: 0,
                replicate: 0,
                config_label: config.to_string(),
                world_label: "template".to_string(),
                scenario_label: "s".to_string(),
                seed: 1,
            },
            outcome: CellOutcome {
                exit_status: ok.then_some(0),
                alarm: None,
                fault: (!ok).then(|| "fault".to_string()),
                metrics: ExecutionMetrics {
                    variants: 1,
                    total_instructions: 100,
                    syscalls: 5,
                    monitor_checks: 0,
                    detection_calls: 0,
                    io_bytes: 10,
                },
            },
            exchanges: vec![ServedRequest {
                request: vec![],
                response: b"HTTP/1.1 200 OK\r\n\r\nok".to_vec(),
            }],
            transform_stats: TransformStats::default(),
            verdict,
            checked: None,
            wall: Duration::from_millis(3),
        }
    }

    /// A matrix shape wide enough for every hand-built cell these tests
    /// use: the config axis spans the A..Z labels, the replicate axis the
    /// wall-percentile test's 100 replicates.
    fn test_shape() -> PlanShape {
        PlanShape {
            configs: 26,
            worlds: 1,
            scenarios: 1,
            replicates: 101,
        }
    }

    fn report(cells: Vec<CellResult>) -> CampaignReport {
        CampaignReport::new(
            "t".to_string(),
            7,
            0xABCD,
            test_shape(),
            2,
            cells,
            Duration::from_millis(9),
        )
    }

    #[test]
    fn rates_and_tallies_aggregate() {
        let report = report(vec![
            cell("A", true, None),
            cell("A", false, None),
            cell("B", true, None),
        ]);
        let summary = report.render_summary();
        assert!(summary.contains("3 cells"), "{summary}");
        assert!(
            summary.contains("survival rate 66.7%, detection rate 0.0%"),
            "{summary}"
        );
        assert!(summary.contains("(3 ok,"), "{summary}");
        assert!(summary.contains("300 instructions"), "{summary}");
        assert!(
            !summary.contains("worlds on the environment axis"),
            "{summary}"
        );
    }

    #[test]
    fn aggregation_keys_on_config_index_not_label() {
        // Two distinct matrix positions: the plan would have disambiguated
        // their labels, but aggregation must key on the index regardless.
        let a = cell("A", true, None);
        let mut b = cell("A", true, None);
        b.spec.config_index = 25;
        b.spec.config_label = "A#1".to_string();
        let aggregator = report(vec![a, b]).fold_aggregator();
        let groups: Vec<_> = aggregator
            .groups()
            .map(|(key, group)| (key.0, group.config_label.as_str(), group.cells))
            .collect();
        assert_eq!(groups, vec![(0, "A", 1), (25, "A#1", 1)]);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let report = report(vec![]);
        assert!(report
            .render_summary()
            .contains("survival rate 0.0%, detection rate 0.0%"));
        assert_eq!(report.fold_aggregator().wall_percentiles(), None);
    }

    #[test]
    fn mismatches_are_surfaced() {
        let hit = CellVerdict {
            observed: "x".to_string(),
            expected: "x".to_string(),
        };
        let miss = CellVerdict {
            observed: "x".to_string(),
            expected: "y".to_string(),
        };
        let report = report(vec![
            cell("A", true, Some(hit)),
            cell("A", true, Some(miss)),
            cell("A", true, None),
        ]);
        assert_eq!(report.fold_aggregator().judged_cells(), 2);
        assert_eq!(report.verdict_mismatches().len(), 1);
        assert!(report.render_summary().contains("1 of 2 judged"));
    }

    #[test]
    fn canonical_text_excludes_wall_clock() {
        let mut a = cell("A", true, None);
        let mut b = a.clone();
        b.wall = Duration::from_secs(1000);
        let mut ra = report(vec![a.clone()]);
        let mut rb = report(vec![b]);
        ra.total_wall = Duration::from_millis(1);
        rb.total_wall = Duration::from_secs(99);
        ra.workers = 1;
        rb.workers = 4;
        assert_eq!(ra.canonical_text(), rb.canonical_text());
        a.outcome.exit_status = Some(1);
        assert_ne!(report(vec![a]).canonical_text(), ra.canonical_text());
    }

    #[test]
    fn canonical_cells_mirror_canonical_text() {
        let report = report(vec![cell("A", true, None), cell("B", false, None)]);
        let cells: Vec<_> = report.canonical_cells().collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0, (0, 0, 0, 0));
        assert_eq!(cells[1].0, (1, 0, 0, 0));
        // The stream's lines are exactly the canonical text's cell lines.
        let text = report.canonical_text();
        let mut lines = text.lines().skip(1);
        for (_, line) in &cells {
            assert_eq!(lines.next(), Some(line.as_str()));
        }
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn wall_percentiles_use_nearest_rank() {
        let mut cells: Vec<CellResult> = (1..=100)
            .map(|ms| {
                let mut c = cell("A", true, None);
                c.spec.replicate = ms as usize;
                c.wall = Duration::from_millis(ms);
                c
            })
            .collect();
        // Shuffle-ish: percentiles must not depend on cell order.
        cells.reverse();
        let report = report(cells);
        let p = report.fold_aggregator().wall_percentiles().unwrap();
        // Sketch quantiles: each value is the nearest-rank order
        // statistic's bucket lower bound, within the documented ≤2%
        // relative error of the exact value.
        for (quantile, exact_ms) in [(p.p50, 50u64), (p.p95, 95), (p.p99, 99)] {
            let exact = Duration::from_millis(exact_ms);
            assert!(quantile <= exact, "{quantile:?} above exact {exact:?}");
            let error = exact.saturating_sub(quantile).as_secs_f64() / exact.as_secs_f64();
            assert!(error < 0.02, "{quantile:?} vs {exact:?}: error {error}");
        }
        assert!(report.render_summary().contains("per-cell wall p50"));

        // A single cell is its own percentile everywhere.
        let single = super::CampaignReport::new(
            "t".to_string(),
            7,
            0xABCD,
            test_shape(),
            1,
            vec![cell("A", true, None)],
            Duration::ZERO,
        );
        let p = single.fold_aggregator().wall_percentiles().unwrap();
        assert_eq!(p.p50, p.p99);
    }

    /// A report whose shape exactly covers `replicates` replicates of one
    /// (config 0, world 0, scenario 0) cell — the shape merge validates
    /// coverage against.
    fn shard(cells: Vec<CellResult>, replicates: usize) -> CampaignReport {
        let mut report = report(cells);
        report.shape = PlanShape {
            configs: 1,
            worlds: 1,
            scenarios: 1,
            replicates,
        };
        report
    }

    fn replicate_cell(replicate: usize) -> CellResult {
        let mut c = cell("A", true, None);
        c.spec.replicate = replicate;
        c
    }

    #[test]
    fn merge_restores_canonical_order_and_sums_walls() {
        let whole = shard(
            vec![replicate_cell(0), replicate_cell(1), replicate_cell(2)],
            3,
        );
        // Shards in round-robin order: {c0, c2} and {c1}.
        let shard_a = shard(vec![replicate_cell(0), replicate_cell(2)], 3);
        let mut shard_b = shard(vec![replicate_cell(1)], 3);
        shard_b.workers = 7;
        let merged = CampaignReport::merge([shard_a, shard_b]).unwrap();
        assert_eq!(merged.canonical_text(), whole.canonical_text());
        assert_eq!(merged.workers, 7);
        assert_eq!(merged.total_wall, Duration::from_millis(18));
    }

    #[test]
    fn merge_rejects_inconsistent_shards() {
        assert!(matches!(
            CampaignReport::merge(std::iter::empty()),
            Err(MergeError::Empty)
        ));
        let a = shard(vec![replicate_cell(0)], 1);
        let mut renamed = shard(vec![], 1);
        renamed.name = "other".to_string();
        assert!(matches!(
            CampaignReport::merge([a.clone(), renamed]),
            Err(MergeError::NameMismatch(..))
        ));
        let mut reseeded = shard(vec![], 1);
        reseeded.base_seed = 8;
        assert!(matches!(
            CampaignReport::merge([a.clone(), reseeded]),
            Err(MergeError::SeedMismatch(7, 8))
        ));
        assert!(matches!(
            CampaignReport::merge([a.clone(), a]),
            Err(MergeError::DuplicateCell(0, 0, 0, 0))
        ));
        let mismatch = MergeError::DuplicateCell(0, 0, 0, 0);
        assert!(mismatch.to_string().contains("more than one shard"));
    }

    #[test]
    fn merge_rejects_shards_from_differently_shaped_plans() {
        // Same name, same base seed — the pre-hash merge accepted this
        // pair and produced a wrong-but-plausible blended report. The plan
        // hash (covering the axes) now gates the merge.
        let a = shard(vec![replicate_cell(0)], 2);
        let mut b = shard(vec![replicate_cell(1)], 2);
        b.plan_hash = a.plan_hash ^ 1;
        assert_eq!(a.name, b.name);
        assert_eq!(a.base_seed, b.base_seed);
        let err = CampaignReport::merge([a.clone(), b]).unwrap_err();
        assert!(matches!(err, MergeError::PlanMismatch { .. }), "{err:?}");
        assert!(err.to_string().contains("differently shaped plans"));

        // Hand-assembled reports with equal hashes but disagreeing shapes
        // are still rejected.
        let mut c = shard(vec![replicate_cell(1)], 3);
        c.shape.replicates = 5;
        assert!(matches!(
            CampaignReport::merge([a, c]),
            Err(MergeError::ShapeMismatch(..))
        ));
    }

    #[test]
    fn merge_rejects_incomplete_shard_sets_naming_the_missing_cells() {
        // A strict subset of the plan's cells used to merge silently; now
        // the gap is named exactly.
        let a = shard(vec![replicate_cell(0)], 3);
        let b = shard(vec![replicate_cell(2)], 3);
        let err = CampaignReport::merge([a, b]).unwrap_err();
        match err {
            MergeError::MissingCells {
                missing,
                covered,
                expected,
            } => {
                assert_eq!(covered, 2);
                assert_eq!(expected, 3);
                assert_eq!(missing, vec![(0, 0, 0, 1)]);
            }
            other => panic!("expected MissingCells, got {other:?}"),
        }
    }

    #[test]
    fn merge_rejects_overflowing_shapes_without_enumerating_them() {
        // A shape straight out of a tampered shard file: the cell count
        // overflows usize, which no real plan can produce. The merge must
        // reject it cheaply instead of panicking or allocating.
        let mut a = shard(vec![replicate_cell(0)], 1);
        a.shape = PlanShape {
            configs: usize::MAX,
            worlds: 2,
            scenarios: 1,
            replicates: 1,
        };
        let err = CampaignReport::merge([a]).unwrap_err();
        assert!(matches!(err, MergeError::ImplausibleShape(_)), "{err:?}");
        assert!(err.to_string().contains("implausible"));

        // A huge-but-representable shape is reported as missing cells with
        // a capped listing — again without enumerating the whole matrix.
        let mut b = shard(vec![replicate_cell(0)], 1);
        b.shape = PlanShape {
            configs: 1,
            worlds: 1,
            scenarios: 1,
            replicates: usize::MAX,
        };
        match CampaignReport::merge([b]).unwrap_err() {
            MergeError::MissingCells {
                missing,
                covered,
                expected,
            } => {
                assert_eq!(covered, 1);
                assert_eq!(expected, usize::MAX);
                assert_eq!(missing.len(), 64);
                assert_eq!(missing[0], (0, 0, 0, 1));
            }
            other => panic!("expected MissingCells, got {other:?}"),
        }
    }

    #[test]
    fn merge_rejects_cells_outside_the_plan_matrix() {
        let a = shard(vec![replicate_cell(0), replicate_cell(1)], 1);
        assert!(matches!(
            CampaignReport::merge([a]),
            Err(MergeError::UnexpectedCell(0, 0, 0, 1))
        ));
    }

    #[test]
    fn merge_rejects_out_of_order_shards_naming_the_shard() {
        // Every cell is present exactly once, but shard 1 lists its cells
        // backwards: the merge must not restore order on the shard's behalf.
        let a = shard(vec![replicate_cell(0)], 3);
        let b = shard(vec![replicate_cell(2), replicate_cell(1)], 3);
        let err = CampaignReport::merge([a, b]).unwrap_err();
        assert_eq!(
            err,
            MergeError::OutOfOrderCell {
                shard: 1,
                coordinates: (0, 0, 0, 1)
            }
        );
        assert!(err
            .to_string()
            .starts_with("shard 1 is out of canonical order"));
    }

    #[test]
    fn missing_cells_display_caps_the_listing() {
        let missing: Vec<_> = (0..12).map(|r| (0, 0, 0, r)).collect();
        let rendered = MergeError::MissingCells {
            missing,
            covered: 8,
            expected: 20,
        }
        .to_string();
        assert!(rendered.contains("8 of 20 cells"), "{rendered}");
        // 20 expected - 8 covered - 8 shown = 4 unshown.
        assert!(rendered.contains("and 4 more"), "{rendered}");
    }

    /// Every shape with 0 to 3 positions on each axis: `coordinates` walks
    /// the config-major nested loops, the sort order of the coordinates,
    /// and `index` is its inverse.
    #[test]
    fn plan_shape_enumerates_its_matrix() {
        for code in 0..4_usize.pow(4) {
            let shape = PlanShape {
                configs: code % 4,
                worlds: code / 4 % 4,
                scenarios: code / 16 % 4,
                replicates: code / 64,
            };
            let mut nested = Vec::new();
            for c in 0..shape.configs {
                for w in 0..shape.worlds {
                    for s in 0..shape.scenarios {
                        for r in 0..shape.replicates {
                            nested.push((c, w, s, r));
                        }
                    }
                }
            }
            assert_eq!(nested.len(), shape.cell_count(), "{shape}");
            for (linear, &coordinates) in nested.iter().enumerate() {
                assert_eq!(shape.coordinates(linear), coordinates, "{shape} #{linear}");
                assert_eq!(shape.index(coordinates), linear, "{shape} {coordinates:?}");
                assert!(shape.contains(coordinates), "{shape} {coordinates:?}");
            }
        }
        let shape = PlanShape {
            configs: 2,
            worlds: 3,
            scenarios: 2,
            replicates: 2,
        };
        assert_eq!(shape.cell_count(), 24);
        assert_eq!(shape.coordinates(23), (1, 2, 1, 1));
        assert!(!shape.contains((2, 0, 0, 0)));
        assert_eq!(shape.to_string(), "2x3x2x2");
    }
}
