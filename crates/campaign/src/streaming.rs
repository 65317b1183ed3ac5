//! Constant-memory campaign aggregation: the stream-and-fold result path.
//!
//! Every aggregate and every merge in the crate runs through this module,
//! holding state bounded by the matrix shape rather than the cell count:
//!
//! * [`LatencyHistogram`] — a deterministic fixed-boundary log-bucket
//!   sketch of per-cell wall times. Buckets have 64 sub-buckets per octave
//!   (values below 64 ns are exact), so every quantile is a bucket lower
//!   bound within 1/64 (≤ 1.5625%, documented as ≤ 2%) of the true value,
//!   and merging two histograms is an element-wise counter add: exact,
//!   order-independent, associative and commutative.
//! * [`StreamingAggregator`] — folds cells one at a time into
//!   O(configs × worlds × scenarios) state: counts, verdict tallies, the
//!   latency sketch, and per-(config, world, scenario) group tallies. Its
//!   [`render_summary`](StreamingAggregator::render_summary) is what
//!   [`CampaignReport::render_summary`](crate::CampaignReport::render_summary)
//!   prints, and its
//!   [`render_surface`](StreamingAggregator::render_surface) emits the
//!   attack-success-probability surface: per config × world × attack,
//!   success and detection rates with Wilson 95% intervals.
//! * [`ShardMerger`] — the crate's one merge: a k-way merge over
//!   coordinate-sorted [`ShardCursor`]s with the plan-hash gate and
//!   duplicate/out-of-order/missing/unexpected-cell validation, holding
//!   at most one cell per shard in memory.
//!   [`CampaignReport::merge`](crate::CampaignReport::merge) is an adapter
//!   over it.
//! * [`SyntheticSweep`] — a judged synthetic cell generator (no VM, no
//!   HTTP) that scales the *pipeline* to millions of cells, so CI can pin
//!   the constant-memory property under an address-space cap.

use crate::cell::{CellOutcome, CellResult, CellSpec, CellVerdict, RequestTally};
use crate::engine::{cell_seed, splitmix64};
use crate::report::{CampaignReport, MergeError, PlanShape};
use crate::shardio::{ShardCursor, ShardHeader};
use nvariant::{CacheStats, ExecutionMetrics};
use nvariant_types::fnv1a_64;
use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;
use std::time::Duration;

/// Sub-bucket resolution of [`LatencyHistogram`]: 2^6 = 64 sub-buckets per
/// octave, giving a worst-case relative bucket width of 1/64 = 1.5625%.
pub const SUB_BUCKET_BITS: u32 = 6;

const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Bucket count covering the full `u64` nanosecond range: octave 0 holds
/// the exact values `0..64`, octaves 1..=58 hold exponents 6..=63.
const BUCKET_COUNT: usize = SUB_BUCKETS * 59;

/// The documented worst-case relative error of histogram quantiles: a
/// quantile is reported as its bucket's lower bound, and buckets are at
/// most 1/64 ≈ 1.57% wide relative to their value.
pub const QUANTILE_RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

/// Nearest-rank latency percentiles over per-cell wall-clock times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WallPercentiles {
    /// Median per-cell wall time.
    pub p50: Duration,
    /// 95th-percentile per-cell wall time.
    pub p95: Duration,
    /// 99th-percentile per-cell wall time.
    pub p99: Duration,
}

impl fmt::Display for WallPercentiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {:.1?}, p95 {:.1?}, p99 {:.1?}",
            self.p50, self.p95, self.p99
        )
    }
}

/// A deterministic fixed-boundary log-bucket histogram of durations.
///
/// The bucket boundaries are fixed integers (no floating point, no
/// per-instance configuration), so two histograms over the same values are
/// equal regardless of insertion order, and
/// [`merge`](LatencyHistogram::merge) — an element-wise add — is exact,
/// associative and commutative. Quantiles are nearest-rank over bucket
/// counts, reported as the bucket's lower bound (an underestimate of at
/// most [`QUANTILE_RELATIVE_ERROR`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKET_COUNT],
            total: 0,
        }
    }

    /// The bucket index of a nanosecond value. Values below 64 are exact;
    /// larger values keep their top 6 mantissa bits.
    #[must_use]
    pub fn bucket_index(nanos: u64) -> usize {
        if nanos < SUB_BUCKETS as u64 {
            usize::try_from(nanos).expect("nanos < 64 fits usize")
        } else {
            let exponent = nanos.ilog2();
            let octave = (exponent - (SUB_BUCKET_BITS - 1)) as usize;
            let mantissa = (nanos >> (exponent - SUB_BUCKET_BITS)) & (SUB_BUCKETS as u64 - 1);
            octave * SUB_BUCKETS + usize::try_from(mantissa).expect("6-bit mantissa fits usize")
        }
    }

    /// The smallest nanosecond value mapping to `index` — the value
    /// quantiles report for a bucket.
    #[must_use]
    pub fn bucket_floor(index: usize) -> u64 {
        let octave = index / SUB_BUCKETS;
        let mantissa = (index % SUB_BUCKETS) as u64;
        if octave == 0 {
            mantissa
        } else {
            (SUB_BUCKETS as u64 + mantissa) << (octave - 1)
        }
    }

    /// Records one duration (saturated to `u64` nanoseconds).
    pub fn record(&mut self, wall: Duration) {
        let nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket_index(nanos)] += 1;
        self.total += 1;
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds another histogram's counts into this one. Exact and
    /// order-independent: `a.merge(b)` equals recording both value streams
    /// into one histogram, in any order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The nearest-rank `percent`-th quantile as its bucket's lower bound,
    /// or `None` for an empty histogram.
    #[must_use]
    pub fn quantile(&self, percent: u64) -> Option<Duration> {
        if self.total == 0 {
            return None;
        }
        let rank = (u128::from(self.total) * u128::from(percent))
            .div_ceil(100)
            .max(1);
        let mut cumulative: u128 = 0;
        for (index, count) in self.counts.iter().enumerate() {
            cumulative += u128::from(*count);
            if cumulative >= rank {
                return Some(Duration::from_nanos(Self::bucket_floor(index)));
            }
        }
        // rank <= total, so the walk always terminates inside the loop.
        unreachable!("quantile rank exceeds recorded total")
    }

    /// The p50/p95/p99 sketch quantiles, or `None` for an empty histogram.
    #[must_use]
    pub fn percentiles(&self) -> Option<WallPercentiles> {
        Some(WallPercentiles {
            p50: self.quantile(50)?,
            p95: self.quantile(95)?,
            p99: self.quantile(99)?,
        })
    }
}

/// Per-(config, world, scenario) tallies the aggregator maintains — the
/// rows of the attack-success-probability surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupTally {
    /// Configuration label (first seen for this matrix position).
    pub config_label: String,
    /// World label.
    pub world_label: String,
    /// Scenario label (the attack name for judged scenarios).
    pub scenario_label: String,
    /// Cells folded into this group.
    pub cells: usize,
    /// Judged cells (cells carrying a verdict).
    pub judged: usize,
    /// Judged cells observed as `detected`.
    pub detected: usize,
    /// Judged cells observed as `SUCCEEDED`.
    pub succeeded: usize,
    /// Judged cells observed as anything else (`failed`).
    pub failed: usize,
    /// Judged cells whose observation disagreed with the prediction.
    pub mismatches: usize,
}

impl GroupTally {
    fn absorb_group(&mut self, other: &GroupTally) {
        self.cells += other.cells;
        self.judged += other.judged;
        self.detected += other.detected;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// The Wilson 95% score interval for `successes` out of `n` trials, as
/// `(low, high)` proportions. `(0, 0)` for `n == 0`.
#[must_use]
pub fn wilson_95(successes: usize, n: usize) -> (f64, f64) {
    if n == 0 {
        return (0.0, 0.0);
    }
    let z = 1.96_f64;
    #[allow(clippy::cast_precision_loss)]
    let n_f = n as f64;
    #[allow(clippy::cast_precision_loss)]
    let p = successes as f64 / n_f;
    let z2 = z * z;
    let denominator = 1.0 + z2 / n_f;
    let center = (p + z2 / (2.0 * n_f)) / denominator;
    let half = (z / denominator) * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Folds campaign cells one at a time into O(configs × worlds × scenarios)
/// state, producing the run summary and the attack-success-probability
/// surface.
///
/// Every piece of state is order-independent (counters, maxima, exact
/// histogram merges, index-keyed maps), so folding any permutation of a
/// plan's cells — or merging per-worker aggregators — yields byte-identical
/// output.
#[derive(Clone, Debug)]
pub struct StreamingAggregator {
    name: String,
    base_seed: u64,
    plan_hash: u64,
    shape: PlanShape,
    workers: usize,
    total_wall: Duration,
    cache: Option<CacheStats>,
    cells: usize,
    survived: usize,
    detected: usize,
    judged: usize,
    matched: usize,
    tally: RequestTally,
    metrics: ExecutionMetrics,
    slowest: Duration,
    histogram: LatencyHistogram,
    worlds: BTreeMap<usize, String>,
    groups: BTreeMap<(usize, usize, usize), GroupTally>,
}

impl StreamingAggregator {
    /// A fresh aggregator for the identified plan.
    #[must_use]
    pub fn new(name: impl Into<String>, base_seed: u64, plan_hash: u64, shape: PlanShape) -> Self {
        StreamingAggregator {
            name: name.into(),
            base_seed,
            plan_hash,
            shape,
            workers: 1,
            total_wall: Duration::ZERO,
            cache: None,
            cells: 0,
            survived: 0,
            detected: 0,
            judged: 0,
            matched: 0,
            tally: RequestTally::default(),
            metrics: ExecutionMetrics::default(),
            slowest: Duration::ZERO,
            histogram: LatencyHistogram::new(),
            worlds: BTreeMap::new(),
            groups: BTreeMap::new(),
        }
    }

    /// An aggregator identified by a shard header (used when folding a
    /// merge): takes the plan identity plus the header's worker and wall
    /// metadata.
    #[must_use]
    pub fn from_header(header: &ShardHeader) -> Self {
        let mut aggregator = StreamingAggregator::new(
            header.name.clone(),
            header.base_seed,
            header.plan_hash,
            header.shape,
        );
        aggregator.workers = header.workers;
        aggregator.total_wall = header.total_wall;
        aggregator
    }

    /// Sets the worker count reported in the summary.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// Sets the run wall-clock reported in the summary.
    pub fn set_total_wall(&mut self, total_wall: Duration) {
        self.total_wall = total_wall;
    }

    /// Adds to the run wall-clock (shard walls sum under a merge).
    pub fn add_wall(&mut self, wall: Duration) {
        self.total_wall += wall;
    }

    /// Sets the cell-cache counters reported in the summary.
    pub fn set_cache(&mut self, cache: Option<CacheStats>) {
        self.cache = cache;
    }

    /// Cells folded so far.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Judged cells folded so far.
    #[must_use]
    pub fn judged_cells(&self) -> usize {
        self.judged
    }

    /// Execution counters summed over the folded cells.
    #[must_use]
    pub fn metrics(&self) -> ExecutionMetrics {
        self.metrics
    }

    /// Judged cells whose observation disagreed with the prediction.
    #[must_use]
    pub fn verdict_mismatches(&self) -> usize {
        self.judged - self.matched
    }

    /// The plan hash the aggregator was identified with.
    #[must_use]
    pub fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    /// The plan's base seed.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The plan's matrix shape.
    #[must_use]
    pub fn shape(&self) -> PlanShape {
        self.shape
    }

    /// The per-(config, world, scenario) group tallies, in canonical
    /// coordinate order.
    pub fn groups(&self) -> impl Iterator<Item = (&(usize, usize, usize), &GroupTally)> {
        self.groups.iter()
    }

    /// Folds one cell into the aggregate state.
    pub fn absorb(&mut self, cell: &CellResult) {
        self.cells += 1;
        if cell.outcome.exited_normally() {
            self.survived += 1;
        }
        if cell.outcome.detected_attack() {
            self.detected += 1;
        }
        self.tally.absorb(&cell.tally());
        self.metrics.absorb(&cell.outcome.metrics);
        self.slowest = self.slowest.max(cell.wall);
        self.histogram.record(cell.wall);
        self.worlds
            .entry(cell.spec.world_index)
            .or_insert_with(|| cell.spec.world_label.clone());
        let group = self
            .groups
            .entry((
                cell.spec.config_index,
                cell.spec.world_index,
                cell.spec.scenario_index,
            ))
            .or_insert_with(|| GroupTally {
                config_label: cell.spec.config_label.clone(),
                world_label: cell.spec.world_label.clone(),
                scenario_label: cell.spec.scenario_label.clone(),
                cells: 0,
                judged: 0,
                detected: 0,
                succeeded: 0,
                failed: 0,
                mismatches: 0,
            });
        group.cells += 1;
        if let Some(verdict) = &cell.verdict {
            self.judged += 1;
            group.judged += 1;
            if verdict.matches() {
                self.matched += 1;
            } else {
                group.mismatches += 1;
            }
            match verdict.observed.as_str() {
                "detected" => group.detected += 1,
                "SUCCEEDED" => group.succeeded += 1,
                _ => group.failed += 1,
            }
        }
    }

    /// Merges another aggregator over the same plan into this one (the
    /// parallel-fold reduction: each worker folds its claimed cells
    /// locally, then the locals merge). Workers take the maximum, walls
    /// sum, everything else adds exactly.
    pub fn merge(&mut self, other: &StreamingAggregator) {
        debug_assert_eq!(
            self.plan_hash, other.plan_hash,
            "merging foreign aggregators"
        );
        self.workers = self.workers.max(other.workers);
        self.total_wall += other.total_wall;
        self.cache = match (self.cache, other.cache) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or_default().merged(b.unwrap_or_default())),
        };
        self.cells += other.cells;
        self.survived += other.survived;
        self.detected += other.detected;
        self.judged += other.judged;
        self.matched += other.matched;
        self.tally.absorb(&other.tally);
        self.metrics.absorb(&other.metrics);
        self.slowest = self.slowest.max(other.slowest);
        self.histogram.merge(&other.histogram);
        for (index, label) in &other.worlds {
            self.worlds.entry(*index).or_insert_with(|| label.clone());
        }
        for (key, tally) in &other.groups {
            match self.groups.get_mut(key) {
                Some(mine) => mine.absorb_group(tally),
                None => {
                    self.groups.insert(*key, tally.clone());
                }
            }
        }
    }

    /// The sketch quantiles of per-cell wall times, or `None` before any
    /// cell was folded.
    #[must_use]
    pub fn wall_percentiles(&self) -> Option<WallPercentiles> {
        self.histogram.percentiles()
    }

    fn rate(&self, count: usize) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let rate = count as f64 / self.cells as f64;
        rate
    }

    /// The distinct world labels, in world-index (canonical) order.
    #[must_use]
    pub fn world_labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = Vec::new();
        for label in self.worlds.values() {
            if !labels.contains(&label.as_str()) {
                labels.push(label);
            }
        }
        labels
    }

    /// The summary text: cells, rates, request tally, execution totals,
    /// latency percentiles, cache counters, worlds and verdicts.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "campaign '{}': {} cells on {} workers in {:.1?} (slowest cell {:.1?})\n",
            self.name, self.cells, self.workers, self.total_wall, self.slowest,
        );
        out.push_str(&format!(
            "  survival rate {:.1}%, detection rate {:.1}%\n",
            self.rate(self.survived) * 100.0,
            self.rate(self.detected) * 100.0
        ));
        out.push_str(&format!("  {}\n", self.tally));
        out.push_str(&format!("  {}\n", self.metrics));
        if let Some(percentiles) = self.wall_percentiles() {
            out.push_str(&format!("  per-cell wall {percentiles}\n"));
        }
        if let Some(stats) = &self.cache {
            out.push_str(&format!("  cell cache: {stats}\n"));
        }
        let worlds = self.world_labels();
        if worlds.len() > 1 {
            out.push_str(&format!(
                "  {} worlds on the environment axis: {}\n",
                worlds.len(),
                worlds.join(", ")
            ));
        }
        if self.judged > 0 {
            out.push_str(&format!(
                "  {} of {} judged cells match their prediction\n",
                self.matched, self.judged
            ));
        }
        out
    }

    /// The attack-success-probability surface: one line per judged
    /// (config, world, attack) group in canonical coordinate order, with
    /// success and detection rates and the Wilson 95% interval on the
    /// success probability.
    #[must_use]
    pub fn render_surface(&self) -> String {
        let judged_groups = self.groups.values().filter(|g| g.judged > 0).count();
        let mut out = format!(
            "surface campaign={:?} plan={:#018x} groups={} judged_cells={}\n",
            self.name, self.plan_hash, judged_groups, self.judged
        );
        for group in self.groups.values().filter(|g| g.judged > 0) {
            #[allow(clippy::cast_precision_loss)]
            let n = group.judged as f64;
            #[allow(clippy::cast_precision_loss)]
            let success_rate = group.succeeded as f64 / n * 100.0;
            #[allow(clippy::cast_precision_loss)]
            let detection_rate = group.detected as f64 / n * 100.0;
            let (low, high) = wilson_95(group.succeeded, group.judged);
            out.push_str(&format!(
                "config={:?} world={:?} attack={:?} cells={} success={} rate={:.1}% \
                 ci95=[{:.1}%, {:.1}%] detected={} rate={:.1}% failed={} mismatches={}\n",
                group.config_label,
                group.world_label,
                group.scenario_label,
                group.judged,
                group.succeeded,
                success_rate,
                low * 100.0,
                high * 100.0,
                group.detected,
                detection_rate,
                group.failed,
                group.mismatches,
            ));
        }
        out
    }
}

/// A lazy enumerator of every coordinate of a [`PlanShape`]'s matrix, in
/// canonical (config-major) order — the exact cell set a complete merge
/// must cover — so validating coverage of an absurdly declared shape costs
/// iteration, not memory.
#[derive(Clone, Debug)]
pub struct CoordinateWalk {
    shape: PlanShape,
    next: Option<(usize, usize, usize, usize)>,
}

impl CoordinateWalk {
    /// Starts a walk over `shape`'s matrix.
    #[must_use]
    pub fn new(shape: PlanShape) -> Self {
        let next = (shape.cell_count() > 0).then_some((0, 0, 0, 0));
        CoordinateWalk { shape, next }
    }

    /// The next coordinate without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<(usize, usize, usize, usize)> {
        self.next
    }
}

impl Iterator for CoordinateWalk {
    type Item = (usize, usize, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let current = self.next?;
        let (mut c, mut w, mut s, mut r) = current;
        r += 1;
        if r == self.shape.replicates {
            r = 0;
            s += 1;
            if s == self.shape.scenarios {
                s = 0;
                w += 1;
                if w == self.shape.worlds {
                    w = 0;
                    c += 1;
                }
            }
        }
        self.next = (c < self.shape.configs).then_some((c, w, s, r));
        Some(current)
    }
}

/// Cap on the missing-coordinate listing.
const MISSING_CAP: usize = 64;

/// An incremental, plan-hash-gated k-way merge over coordinate-sorted
/// shard cursors.
///
/// Construction gates the headers against each other (name, base seed,
/// plan hash, shape, shape plausibility); each
/// [`next_cell`](ShardMerger::next_cell) yields the next cell in canonical
/// order while detecting duplicate, out-of-order, unexpected and missing
/// cells on the fly. Peak memory is one buffered cell per shard,
/// independent of shard size.
pub struct ShardMerger<R> {
    cursors: Vec<ShardCursor<R>>,
    heads: Vec<Option<CellResult>>,
    expected: CoordinateWalk,
    header: ShardHeader,
    covered: usize,
    expected_count: usize,
    missing: Vec<(usize, usize, usize, usize)>,
    finished: bool,
}

impl<R: BufRead> ShardMerger<R> {
    /// Gates the cursors' headers against each other and buffers the first
    /// cell of each shard.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError`] if no cursors are supplied, the headers
    /// disagree on plan identity, the declared shape's cell count
    /// overflows, or a first cell fails to parse.
    pub fn new(cursors: Vec<ShardCursor<R>>) -> Result<Self, MergeError> {
        let first = cursors.first().ok_or(MergeError::Empty)?;
        let mut header = first.header().clone();
        for cursor in &cursors[1..] {
            let shard = cursor.header();
            if shard.name != header.name {
                return Err(MergeError::NameMismatch(header.name, shard.name.clone()));
            }
            if shard.base_seed != header.base_seed {
                return Err(MergeError::SeedMismatch(header.base_seed, shard.base_seed));
            }
            if shard.plan_hash != header.plan_hash {
                return Err(MergeError::PlanMismatch {
                    merged: header.plan_hash,
                    shard: shard.plan_hash,
                });
            }
            if shard.shape != header.shape {
                return Err(MergeError::ShapeMismatch(header.shape, shard.shape));
            }
            header.workers = header.workers.max(shard.workers);
            header.total_wall += shard.total_wall;
        }
        let expected_count = header
            .shape
            .checked_cell_count()
            .ok_or(MergeError::ImplausibleShape(header.shape))?;
        let mut merger = ShardMerger {
            heads: Vec::with_capacity(cursors.len()),
            expected: CoordinateWalk::new(header.shape),
            header,
            covered: 0,
            expected_count,
            missing: Vec::new(),
            finished: false,
            cursors,
        };
        for index in 0..merger.cursors.len() {
            let head = merger.advance_shard(index)?;
            merger.heads.push(head);
        }
        Ok(merger)
    }

    /// The merged header: plan identity from the gate, `workers` as the
    /// widest shard, `total_wall` as the sum of shard walls.
    #[must_use]
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    /// Drains the merge into a report under the merged header, holding
    /// every cell — for callers that want the cells in memory.
    ///
    /// # Errors
    ///
    /// Returns the first [`MergeError`] [`next_cell`](Self::next_cell)
    /// raises.
    pub fn into_report(mut self) -> Result<CampaignReport, MergeError> {
        let mut cells = Vec::new();
        while let Some(cell) = self.next_cell()? {
            cells.push(cell);
        }
        let header = self.header;
        Ok(CampaignReport::new(
            header.name,
            header.base_seed,
            header.plan_hash,
            header.shape,
            header.workers,
            cells,
            header.total_wall,
        ))
    }

    fn advance_shard(&mut self, index: usize) -> Result<Option<CellResult>, MergeError> {
        self.cursors[index]
            .next_cell()
            .map_err(|error| MergeError::Shard {
                shard: index,
                error,
            })
    }

    /// Yields the next cell in canonical coordinate order, or `None` once
    /// every shard is drained and the plan's matrix is fully covered.
    ///
    /// Gap detection is deferred to exhaustion (so the error can report the
    /// exact covered/expected counts), but duplicate, out-of-order and
    /// out-of-matrix cells fail as soon as they surface.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError`] on parse failure, a cell present in two
    /// shards, a shard out of canonical order, a cell outside the matrix,
    /// or (at exhaustion) incomplete coverage.
    pub fn next_cell(&mut self) -> Result<Option<CellResult>, MergeError> {
        if self.finished {
            return Ok(None);
        }
        // The shard with the least head coordinate goes next; an equal pair
        // of heads is a duplicate across shards.
        let mut least: Option<usize> = None;
        for (index, head) in self.heads.iter().enumerate() {
            let Some(cell) = head else { continue };
            match least {
                None => least = Some(index),
                Some(best) => {
                    let best_coords = self.heads[best]
                        .as_ref()
                        .expect("least head is present")
                        .spec
                        .coordinates();
                    let coords = cell.spec.coordinates();
                    if coords == best_coords {
                        let (c, w, s, r) = coords;
                        return Err(MergeError::DuplicateCell(c, w, s, r));
                    }
                    if coords < best_coords {
                        least = Some(index);
                    }
                }
            }
        }
        let Some(index) = least else {
            // Every shard is drained: the merge is complete iff the matrix
            // is covered.
            self.finished = true;
            if self.covered == self.expected_count {
                return Ok(None);
            }
            while self.missing.len() < MISSING_CAP {
                let Some(gap) = self.expected.next() else {
                    break;
                };
                self.missing.push(gap);
            }
            return Err(MergeError::MissingCells {
                missing: std::mem::take(&mut self.missing),
                covered: self.covered,
                expected: self.expected_count,
            });
        };
        let coordinates = self.heads[index]
            .as_ref()
            .expect("selected head is present")
            .spec
            .coordinates();
        if !self.header.shape.contains(coordinates) {
            let (c, w, s, r) = coordinates;
            return Err(MergeError::UnexpectedCell(c, w, s, r));
        }
        // Walk the expected enumerator up to this coordinate, recording
        // gaps (reported at exhaustion). A head *behind* the enumerator is
        // at or before a cell the merge already emitted: this shard repeats
        // a cell or lists its cells out of canonical order.
        loop {
            match self.expected.peek() {
                Some(expected) if expected < coordinates => {
                    self.expected.next();
                    if self.missing.len() < MISSING_CAP {
                        self.missing.push(expected);
                    }
                }
                Some(expected) if expected == coordinates => {
                    self.expected.next();
                    break;
                }
                _ => {
                    return Err(MergeError::OutOfOrderCell {
                        shard: index,
                        coordinates,
                    });
                }
            }
        }
        let next_head = self.advance_shard(index)?;
        let cell =
            std::mem::replace(&mut self.heads[index], next_head).expect("selected head is present");
        self.covered += 1;
        Ok(Some(cell))
    }
}

/// The synthetic sweep: a judged cell generator with no VM, no HTTP and no
/// per-cell allocs beyond its labels, deterministic in the base seed — the
/// workload that scales the streaming pipeline to millions of cells so the
/// constant-memory property can be pinned in CI under an address-space
/// cap.
///
/// The matrix models the paper's evaluation: 5 configurations × 4 worlds ×
/// 3 attack classes, with per-(config, attack) detection probabilities
/// drawn per cell from the cell seed. Every cell is judged, so the surface
/// report is fully populated and its Wilson intervals tighten as the
/// replicate axis grows.
#[derive(Clone, Debug)]
pub struct SyntheticSweep {
    /// Campaign name carried into summaries.
    pub name: String,
    /// Base seed every cell seed derives from.
    pub base_seed: u64,
    /// The matrix shape (replicates scale the cell count).
    pub shape: PlanShape,
}

/// Synthetic configuration labels (the deployment axis).
const SYNTHETIC_CONFIGS: [&str; 5] = [
    "unprotected",
    "uid-2v",
    "addr-2v",
    "uid-addr-composed",
    "full-3v",
];

/// Synthetic world labels (the environment axis).
const SYNTHETIC_WORLDS: [&str; 4] = ["standard", "alt-docroot", "alt-accounts", "faulty-fs"];

/// Synthetic attack labels (the scenario axis) — the paper's three attack
/// classes.
const SYNTHETIC_ATTACKS: [&str; 3] = ["uid-overflow", "uid-poke", "docroot-poke"];

/// Per-mille detection probability of attack `s` under configuration `c`:
/// protected pairs detect with high probability, unprotected ones almost
/// never do — noisy enough that the Wilson intervals are non-trivial.
fn synthetic_detect_per_mille(config: usize, attack: usize) -> u64 {
    let protects_uid = matches!(config, 1 | 3 | 4);
    let protects_addresses = matches!(config, 2..=4);
    let protected = match attack {
        0 => protects_uid,
        1 => protects_uid || protects_addresses,
        _ => protects_addresses,
    };
    if protected {
        970
    } else {
        15
    }
}

impl SyntheticSweep {
    /// A sweep over the full synthetic matrix with the given replicate
    /// count: `5 × 4 × 3 × replicates` cells.
    #[must_use]
    pub fn new(replicates: usize) -> Self {
        SyntheticSweep {
            name: "synthetic-sweep".to_string(),
            base_seed: 0x5EED_CE11,
            shape: PlanShape {
                configs: SYNTHETIC_CONFIGS.len(),
                worlds: SYNTHETIC_WORLDS.len(),
                scenarios: SYNTHETIC_ATTACKS.len(),
                replicates: replicates.max(1),
            },
        }
    }

    /// The canonical hash of the synthetic plan (name, seed, shape) — the
    /// same FNV-1a construction real plans use, so synthetic shards gate
    /// merges identically.
    #[must_use]
    pub fn plan_hash(&self) -> u64 {
        let descriptor = format!(
            "synthetic {:?}\nseed {:#018x}\nshape {}\n",
            self.name, self.base_seed, self.shape
        );
        fnv1a_64(descriptor.as_bytes())
    }

    /// Total cells in the sweep.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.shape.cell_count()
    }

    /// The coordinates of the `linear`-th cell in canonical (config-major)
    /// order.
    #[must_use]
    pub fn coordinates(&self, linear: usize) -> (usize, usize, usize, usize) {
        let replicate = linear % self.shape.replicates;
        let rest = linear / self.shape.replicates;
        let scenario = rest % self.shape.scenarios;
        let rest = rest / self.shape.scenarios;
        let world = rest % self.shape.worlds;
        let config = rest / self.shape.worlds;
        (config, world, scenario, replicate)
    }

    /// Generates the `linear`-th cell: a judged attack outcome drawn
    /// deterministically from the cell seed, with a seed-derived synthetic
    /// wall time (so summaries are bit-reproducible at any worker count).
    #[must_use]
    pub fn cell(&self, linear: usize) -> CellResult {
        let (config, world, scenario, replicate) = self.coordinates(linear);
        let seed = cell_seed(self.base_seed, config, world, scenario, replicate);
        let draw = splitmix64(seed);
        let detected = draw % 1000 < synthetic_detect_per_mille(config, scenario);
        // Undetected attacks usually reach their goal; file permissions
        // stop the rest.
        let succeeded = !detected && splitmix64(draw) % 1000 < 940;
        let observed = if detected {
            "detected"
        } else if succeeded {
            "SUCCEEDED"
        } else {
            "failed"
        };
        let expected = if synthetic_detect_per_mille(config, scenario) >= 500 {
            "detected"
        } else {
            "SUCCEEDED"
        };
        let wall_nanos = 200_000 + splitmix64(draw ^ 0xA5A5) % 1_800_000;
        CellResult {
            spec: CellSpec {
                config_index: config,
                world_index: world,
                scenario_index: scenario,
                replicate,
                config_label: SYNTHETIC_CONFIGS[config].to_string(),
                world_label: SYNTHETIC_WORLDS[world].to_string(),
                scenario_label: SYNTHETIC_ATTACKS[scenario].to_string(),
                seed,
            },
            outcome: CellOutcome {
                exit_status: (!detected).then_some(0),
                alarm: detected.then(|| "synthetic divergence alarm".to_string()),
                fault: None,
                metrics: ExecutionMetrics {
                    variants: 2,
                    total_instructions: 1_000 + draw % 100,
                    syscalls: 12,
                    monitor_checks: 4,
                    detection_calls: 2,
                    io_bytes: 512,
                },
            },
            exchanges: Vec::new(),
            transform_stats: nvariant_transform::TransformStats::default(),
            verdict: Some(CellVerdict {
                observed: observed.to_string(),
                expected: expected.to_string(),
            }),
            checked: None,
            wall: Duration::from_nanos(wall_nanos),
        }
    }

    /// Runs the sweep through the streaming fold: workers claim linear
    /// indices in batches, fold cells into thread-local aggregators, and
    /// the locals merge — peak memory is O(workers × aggregator), however
    /// many cells the sweep has. `total_wall` is the sum of the synthetic
    /// per-cell walls, so the summary is deterministic.
    #[must_use]
    pub fn run_streamed(&self, workers: usize) -> StreamingAggregator {
        const BATCH: usize = 1024;
        let total = self.cell_count();
        let workers = workers.clamp(1, total.max(1));
        let make_aggregator = || {
            StreamingAggregator::new(
                self.name.clone(),
                self.base_seed,
                self.plan_hash(),
                self.shape,
            )
        };
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let mut locals: Vec<StreamingAggregator> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut local = make_aggregator();
                        loop {
                            let start =
                                cursor.fetch_add(BATCH, std::sync::atomic::Ordering::Relaxed);
                            if start >= total {
                                break;
                            }
                            for linear in start..(start + BATCH).min(total) {
                                let cell = self.cell(linear);
                                local.add_wall(cell.wall);
                                local.absorb(&cell);
                            }
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                locals.push(handle.join().expect("synthetic worker panicked"));
            }
        });
        let mut merged = locals.pop().expect("at least one worker");
        for local in &locals {
            merged.merge(local);
        }
        merged.set_workers(workers);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_64_and_within_error_above() {
        for v in 0..64u64 {
            let index = LatencyHistogram::bucket_index(v);
            assert_eq!(LatencyHistogram::bucket_floor(index), v);
        }
        for v in [
            64,
            65,
            127,
            128,
            1000,
            12_345,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let index = LatencyHistogram::bucket_index(v);
            let floor = LatencyHistogram::bucket_floor(index);
            assert!(floor <= v, "floor {floor} above value {v}");
            #[allow(clippy::cast_precision_loss)]
            let error = (v - floor) as f64 / v as f64;
            assert!(
                error < QUANTILE_RELATIVE_ERROR,
                "value {v} bucket floor {floor} error {error}"
            );
            // Floors map back to their own bucket.
            assert_eq!(LatencyHistogram::bucket_index(floor), index);
        }
    }

    #[test]
    fn bucket_index_is_monotone_over_octave_boundaries() {
        let mut previous = 0;
        for v in 1..100_000u64 {
            let index = LatencyHistogram::bucket_index(v);
            assert!(index >= previous, "index regressed at {v}");
            previous = index;
        }
    }

    #[test]
    fn histogram_merge_is_exact_and_order_independent() {
        let values: Vec<u64> = (0..500).map(|i| splitmix64(i) % 10_000_000).collect();
        let mut whole = LatencyHistogram::new();
        for v in &values {
            whole.record(Duration::from_nanos(*v));
        }
        let (first, second) = values.split_at(200);
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in first {
            a.record(Duration::from_nanos(*v));
        }
        for v in second.iter().rev() {
            b.record(Duration::from_nanos(*v));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
        assert_eq!(whole.count(), 500);
    }

    #[test]
    fn quantiles_are_nearest_rank_bucket_floors() {
        let mut histogram = LatencyHistogram::new();
        for v in 1..=100u64 {
            histogram.record(Duration::from_nanos(v));
        }
        // Values 1..=63 are exact buckets; 50 is its own bucket floor.
        assert_eq!(histogram.quantile(50), Some(Duration::from_nanos(50)));
        // 95 lives in the bucket [94, 96): floor 94.
        let p95 = histogram.quantile(95).unwrap().as_nanos() as u64;
        assert!(p95 <= 95 && 95 - p95 <= 2, "p95 floor {p95}");
        assert_eq!(LatencyHistogram::new().quantile(50), None);
    }

    #[test]
    fn wilson_interval_brackets_the_proportion() {
        let (low, high) = wilson_95(8, 10);
        assert!(low < 0.8 && 0.8 < high, "({low}, {high})");
        assert!(low > 0.4 && high < 1.0, "({low}, {high})");
        assert_eq!(wilson_95(0, 0), (0.0, 0.0));
        let (zero_low, zero_high) = wilson_95(0, 20);
        assert_eq!(zero_low, 0.0);
        assert!(zero_high > 0.0 && zero_high < 0.25, "{zero_high}");
        let (full_low, full_high) = wilson_95(20, 20);
        assert_eq!(full_high, 1.0);
        assert!(full_low > 0.75, "{full_low}");
    }

    #[test]
    fn coordinate_walk_matches_materialized_enumeration() {
        let shape = PlanShape {
            configs: 2,
            worlds: 3,
            scenarios: 2,
            replicates: 2,
        };
        let walked: Vec<_> = CoordinateWalk::new(shape).collect();
        let mut materialized = Vec::new();
        for c in 0..shape.configs {
            for w in 0..shape.worlds {
                for s in 0..shape.scenarios {
                    for r in 0..shape.replicates {
                        materialized.push((c, w, s, r));
                    }
                }
            }
        }
        assert_eq!(walked, materialized);
        let empty = PlanShape {
            configs: 0,
            worlds: 1,
            scenarios: 1,
            replicates: 1,
        };
        assert_eq!(CoordinateWalk::new(empty).next(), None);
    }

    /// Writes each list of linear synthetic-sweep indices as one shard file
    /// and merges the files to completion, returning the cells covered.
    fn merge_linear(sweep: &SyntheticSweep, shards: &[&[usize]]) -> Result<usize, MergeError> {
        let header = ShardHeader {
            name: sweep.name.clone(),
            base_seed: sweep.base_seed,
            plan_hash: sweep.plan_hash(),
            shape: sweep.shape,
            workers: 1,
            total_wall: Duration::ZERO,
        };
        let texts: Vec<String> = shards
            .iter()
            .map(|linear| {
                let cells: Vec<CellResult> = linear.iter().map(|&i| sweep.cell(i)).collect();
                crate::shardio::shard_text(&header, &cells)
            })
            .collect();
        let cursors = texts
            .iter()
            .map(|text| ShardCursor::new(text.as_bytes()).expect("own shard text parses"))
            .collect();
        let mut merger = ShardMerger::new(cursors)?;
        let mut covered = 0;
        while merger.next_cell()?.is_some() {
            covered += 1;
        }
        Ok(covered)
    }

    #[test]
    fn merger_tells_duplicates_across_shards_from_unordered_shards() {
        let sweep = SyntheticSweep::new(1);
        let all: Vec<usize> = (0..sweep.cell_count()).collect();
        assert_eq!(merge_linear(&sweep, &[&all]), Ok(sweep.cell_count()));
        let (c, w, s, r) = sweep.coordinates(1);

        // The same cell in two shards.
        let across = merge_linear(&sweep, &[&[0, 1], &[1, 2]]).unwrap_err();
        assert_eq!(across, MergeError::DuplicateCell(c, w, s, r));
        assert!(
            across.to_string().contains("more than one shard"),
            "{across}"
        );

        // A cell repeated inside one shard.
        let within = merge_linear(&sweep, &[&[0, 1, 1, 2]]).unwrap_err();
        assert_eq!(
            within,
            MergeError::OutOfOrderCell {
                shard: 0,
                coordinates: (c, w, s, r)
            }
        );
        assert!(
            !within.to_string().contains("more than one shard"),
            "{within}"
        );

        // A shard whose cells run backwards, merged beside a sorted one.
        let unordered = merge_linear(&sweep, &[&[0, 2], &[3, 1]]).unwrap_err();
        assert_eq!(
            unordered,
            MergeError::OutOfOrderCell {
                shard: 1,
                coordinates: (c, w, s, r)
            }
        );
        assert!(
            unordered
                .to_string()
                .starts_with("shard 1 is out of canonical order"),
            "{unordered}"
        );
    }

    #[test]
    fn synthetic_cells_are_deterministic_and_linear_indexing_is_canonical() {
        let sweep = SyntheticSweep::new(2);
        assert_eq!(sweep.cell_count(), 5 * 4 * 3 * 2);
        let walk: Vec<_> = CoordinateWalk::new(sweep.shape).collect();
        for (linear, expected) in walk.iter().enumerate() {
            assert_eq!(sweep.coordinates(linear), *expected, "index {linear}");
        }
        let a = sweep.cell(17);
        let b = sweep.cell(17);
        assert_eq!(a, b);
        assert_eq!(a.canonical_line(), b.canonical_line());
        // Every cell is judged.
        assert!(a.verdict.is_some());
    }

    #[test]
    fn synthetic_streamed_fold_is_worker_count_invariant() {
        let sweep = SyntheticSweep::new(7);
        let serial = sweep.run_streamed(1);
        let parallel = sweep.run_streamed(4);
        assert_eq!(serial.render_surface(), parallel.render_surface());
        assert_eq!(serial.cells(), sweep.cell_count());
        assert_eq!(parallel.cells(), sweep.cell_count());
        // The summary differs only in the declared worker count.
        assert_eq!(
            serial
                .render_summary()
                .replace("on 1 workers", "on N workers"),
            parallel
                .render_summary()
                .replace("on 4 workers", "on N workers"),
        );
    }

    #[test]
    fn synthetic_streamed_matches_materialized_byte_for_byte() {
        // The same cells held in a report container render, through
        // `fold_aggregator`, exactly what the streamed fold renders.
        let sweep = SyntheticSweep::new(3);
        let streamed = sweep.run_streamed(2);
        let cells: Vec<CellResult> = (0..sweep.cell_count()).map(|i| sweep.cell(i)).collect();
        let total_wall = cells.iter().map(|cell| cell.wall).sum();
        let materialized = crate::CampaignReport::new(
            sweep.name.clone(),
            sweep.base_seed,
            sweep.plan_hash(),
            sweep.shape,
            2,
            cells,
            total_wall,
        )
        .fold_aggregator();
        assert_eq!(streamed.render_summary(), materialized.render_summary());
        assert_eq!(streamed.render_surface(), materialized.render_surface());
        // Protected configurations detect, unprotected ones leak — the
        // surface's headline shape.
        let surface = streamed.render_surface();
        assert!(surface.contains("config=\"unprotected\""), "{surface}");
        assert!(surface.starts_with("surface campaign=\"synthetic-sweep\""));
    }

    #[test]
    fn aggregator_detects_verdict_accounting() {
        let sweep = SyntheticSweep::new(1);
        let aggregator = sweep.run_streamed(1);
        assert_eq!(aggregator.judged_cells(), sweep.cell_count());
        // Probabilistic outcomes disagree with the deterministic
        // prediction sometimes, never always.
        assert!(aggregator.verdict_mismatches() < sweep.cell_count());
    }
}
