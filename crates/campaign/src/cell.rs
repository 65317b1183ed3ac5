//! One cell of an experiment plan: its coordinates in the
//! (configuration × world × scenario × replicate) matrix, its observed
//! result, and the derived per-cell summaries reports aggregate over.

use crate::exchange::ServedRequest;
use nvariant::{ExecutionMetrics, SystemOutcome};
use nvariant_transform::TransformStats;
use std::fmt;
use std::time::Duration;

/// The coordinates and derived seed of one campaign cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Index of the configuration in the plan's config list.
    pub config_index: usize,
    /// Index of the world template in the plan's world axis (0 when the
    /// plan has no explicit worlds and every cell runs in the artifact's
    /// own compile-time template).
    pub world_index: usize,
    /// Index of the scenario in the plan's scenario list.
    pub scenario_index: usize,
    /// Replicate number (0-based) of this (config, world, scenario) triple.
    pub replicate: usize,
    /// Label of the configuration, disambiguated by the plan when two
    /// configurations render the same label (`label`, `label#1`, ...).
    pub config_label: String,
    /// Label of the world template (`"template"` when the plan has no
    /// explicit world axis).
    pub world_label: String,
    /// Label of the scenario.
    pub scenario_label: String,
    /// The deterministic seed this cell runs under.
    pub seed: u64,
}

impl CellSpec {
    /// The canonical ordering key: cells sort config-major, then world,
    /// scenario, replicate — the order [`CampaignPlan::cells`] emits, every
    /// shard must keep, and [`ShardMerger`] merges shards back into.
    ///
    /// [`CampaignPlan::cells`]: crate::CampaignPlan::cells
    /// [`ShardMerger`]: crate::ShardMerger
    #[must_use]
    pub fn coordinates(&self) -> (usize, usize, usize, usize) {
        (
            self.config_index,
            self.world_index,
            self.scenario_index,
            self.replicate,
        )
    }

    /// Why `self`, the cell a shard holds at position `index`, is not
    /// `planned`, the plan's cell there: `None` when the two are equal. A
    /// cell whose seed or labels were altered keeps the plan's coordinates
    /// and fails only here. The fleet's shard validation and the streamed
    /// merge of shard files both refuse such a shard with this reason.
    #[must_use]
    pub fn mismatch(&self, index: usize, planned: &CellSpec) -> Option<String> {
        (self != planned).then(|| format!("cell #{index} is {self:?}, the plan's is {planned:?}"))
    }
}

/// A scenario's classification of a cell, alongside the prediction it was
/// expected to match (e.g. an attack's observed vs. predicted result).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellVerdict {
    /// What was observed.
    pub observed: String,
    /// What the scenario predicted.
    pub expected: String,
}

impl CellVerdict {
    /// Returns `true` if the observation matches the prediction.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.observed == self.expected
    }
}

/// A flattened summary of a model-check verdict attached to a cell by a
/// scenario's check hook (see
/// [`Scenario::with_check`](crate::Scenario::with_check)). Plain strings
/// and counters so shards and merged reports stay self-contained without
/// the campaign crate depending on the checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckSummary {
    /// Property key (`P1`/`P2`/`P3`).
    pub property: String,
    /// Verdict (`pass` or `FAIL`).
    pub status: String,
    /// States the bounded exploration visited.
    pub states: u64,
    /// The depth bound the check ran at.
    pub depth: u64,
}

impl fmt::Display for CheckSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} states={} depth={}",
            self.property, self.status, self.states, self.depth
        )
    }
}

/// How a cell's deployed system terminated, flattened to plain data.
///
/// This is the report-side counterpart of [`SystemOutcome`]: the live
/// monitor alarm is rendered to its display string at collection time, so a
/// report is self-contained — it can be serialized to a shard file,
/// reassembled by [`CampaignReport::merge`](crate::CampaignReport::merge)
/// and compared byte-for-byte without holding live monitor state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellOutcome {
    /// Exit status, if the program (or agreeing variant group) exited.
    pub exit_status: Option<i32>,
    /// The rendered alarm that terminated an N-variant group, if any.
    pub alarm: Option<String>,
    /// Human-readable description of a fault that terminated a
    /// single-process run, if any.
    pub fault: Option<String>,
    /// Execution counters.
    pub metrics: ExecutionMetrics,
}

impl CellOutcome {
    /// Returns `true` if the monitor raised an alarm.
    #[must_use]
    pub fn detected_attack(&self) -> bool {
        self.alarm.is_some()
    }

    /// Returns `true` if the run ended with a normal, agreed exit.
    #[must_use]
    pub fn exited_normally(&self) -> bool {
        self.exit_status.is_some() && self.alarm.is_none() && self.fault.is_none()
    }
}

impl From<&SystemOutcome> for CellOutcome {
    fn from(outcome: &SystemOutcome) -> Self {
        CellOutcome {
            exit_status: outcome.exit_status,
            alarm: outcome.alarm.as_ref().map(ToString::to_string),
            fault: outcome.fault.clone(),
            metrics: outcome.metrics,
        }
    }
}

impl fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Same phrasing as `SystemOutcome`'s `Display`.
        match (&self.alarm, &self.fault, self.exit_status) {
            (Some(alarm), _, _) => write!(f, "attack detected: {alarm}"),
            (None, Some(fault), _) => write!(f, "faulted: {fault}"),
            (None, None, Some(status)) => write!(f, "exited with status {status}"),
            (None, None, None) => write!(f, "did not terminate"),
        }
    }
}

/// Response status counts over a batch of served requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestTally {
    /// Total request/response pairs observed.
    pub total: usize,
    /// 200 responses.
    pub ok: usize,
    /// 403 responses.
    pub forbidden: usize,
    /// 404 responses.
    pub not_found: usize,
    /// Anything else (other statuses, empty or malformed responses).
    pub other: usize,
}

impl RequestTally {
    /// Tallies a batch of served requests.
    #[must_use]
    pub fn from_exchanges(exchanges: &[ServedRequest]) -> Self {
        let mut tally = RequestTally {
            total: exchanges.len(),
            ..RequestTally::default()
        };
        for exchange in exchanges {
            match exchange.status_code() {
                Some(200) => tally.ok += 1,
                Some(403) => tally.forbidden += 1,
                Some(404) => tally.not_found += 1,
                _ => tally.other += 1,
            }
        }
        tally
    }

    /// Merges another tally into this one.
    pub fn absorb(&mut self, other: &RequestTally) {
        self.total += other.total;
        self.ok += other.ok;
        self.forbidden += other.forbidden;
        self.not_found += other.not_found;
        self.other += other.other;
    }
}

impl fmt::Display for RequestTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests ({} ok, {} forbidden, {} not-found, {} other)",
            self.total, self.ok, self.forbidden, self.not_found, self.other
        )
    }
}

/// The complete observed result of one campaign cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The cell's coordinates and seed.
    pub spec: CellSpec,
    /// How the deployed system terminated.
    pub outcome: CellOutcome,
    /// The request/response pairs, in arrival order.
    pub exchanges: Vec<ServedRequest>,
    /// The UID-transformation change counts of the compiled artifact the
    /// cell instantiated.
    pub transform_stats: TransformStats,
    /// The scenario's verdict, when the scenario judges its cells.
    pub verdict: Option<CellVerdict>,
    /// A model-check summary, when the scenario checks its cells.
    pub checked: Option<CheckSummary>,
    /// Wall-clock time the cell took (instantiate + run + collect). This is
    /// measurement metadata: it varies run to run and is deliberately
    /// excluded from the deterministic canonical serialization.
    pub wall: Duration,
}

impl CellResult {
    /// Response status counts for this cell.
    #[must_use]
    pub fn tally(&self) -> RequestTally {
        RequestTally::from_exchanges(&self.exchanges)
    }

    /// The deterministic canonical line for this cell: everything observed,
    /// nothing wall-clock. Two runs of the same plan — at different worker
    /// counts, or sharded across processes and merged — must produce
    /// byte-identical lines.
    #[must_use]
    pub fn canonical_line(&self) -> String {
        let tally = self.tally();
        let verdict = match &self.verdict {
            Some(v) => format!("{}/{}", v.observed, v.expected),
            None => "-".to_string(),
        };
        let checked = match &self.checked {
            Some(c) => format!("{}:{}:{}:{}", c.property, c.status, c.states, c.depth),
            None => "-".to_string(),
        };
        format!(
            "config={:?} world={:?} scenario={:?} rep={} seed={:#018x} exit={} alarm={} fault={} \
             requests={}/{}/{}/{}/{} variants={} instructions={} syscalls={} checks={} \
             detections={} io={} verdict={} checked={}",
            self.spec.config_label,
            self.spec.world_label,
            self.spec.scenario_label,
            self.spec.replicate,
            self.spec.seed,
            self.outcome
                .exit_status
                .map_or("-".to_string(), |s| s.to_string()),
            self.outcome
                .alarm
                .as_ref()
                .map_or("-".to_string(), |a| format!("{a:?}")),
            self.outcome.fault.as_deref().unwrap_or("-"),
            tally.total,
            tally.ok,
            tally.forbidden,
            tally.not_found,
            tally.other,
            self.outcome.metrics.variants,
            self.outcome.metrics.total_instructions,
            self.outcome.metrics.syscalls,
            self.outcome.metrics.monitor_checks,
            self.outcome.metrics.detection_calls,
            self.outcome.metrics.io_bytes,
            verdict,
            checked,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(response: &[u8]) -> ServedRequest {
        ServedRequest {
            request: b"GET / HTTP/1.0\r\n\r\n".to_vec(),
            response: response.to_vec(),
        }
    }

    #[test]
    fn tally_counts_statuses() {
        let exchanges = vec![
            exchange(b"HTTP/1.0 200 OK\r\n\r\nhi"),
            exchange(b"HTTP/1.1 200 OK\r\n\r\nhi"),
            exchange(b"HTTP/1.0 403 Forbidden\r\n\r\n"),
            exchange(b"HTTP/1.0 404 Not Found\r\n\r\n"),
            exchange(b""),
        ];
        let tally = RequestTally::from_exchanges(&exchanges);
        assert_eq!(tally.total, 5);
        assert_eq!(tally.ok, 2);
        assert_eq!(tally.forbidden, 1);
        assert_eq!(tally.not_found, 1);
        assert_eq!(tally.other, 1);
        let mut sum = RequestTally::default();
        sum.absorb(&tally);
        sum.absorb(&tally);
        assert_eq!(sum.total, 10);
        assert!(sum.to_string().contains("10 requests"));
    }

    #[test]
    fn verdict_matching() {
        let hit = CellVerdict {
            observed: "detected".to_string(),
            expected: "detected".to_string(),
        };
        assert!(hit.matches());
        let miss = CellVerdict {
            observed: "SUCCEEDED".to_string(),
            expected: "detected".to_string(),
        };
        assert!(!miss.matches());
    }

    #[test]
    fn cell_outcome_flattens_a_system_outcome() {
        let live = SystemOutcome {
            exit_status: None,
            alarm: Some(nvariant_monitor::Alarm::new(
                nvariant_monitor::DivergenceKind::DetectionCheckFailed {
                    sysno: nvariant_simos::Sysno::UidValue,
                    canonical_values: vec![],
                },
                9,
            )),
            fault: None,
            metrics: ExecutionMetrics::default(),
        };
        let flat = CellOutcome::from(&live);
        assert!(flat.detected_attack());
        assert!(!flat.exited_normally());
        let alarm = flat.alarm.as_deref().unwrap();
        assert!(alarm.contains("uid_value"), "{alarm}");
        assert!(alarm.contains("point 9"), "{alarm}");
        assert!(flat.to_string().contains("attack detected"));

        let clean = SystemOutcome {
            exit_status: Some(0),
            alarm: None,
            fault: None,
            metrics: ExecutionMetrics::default(),
        };
        let flat = CellOutcome::from(&clean);
        assert!(flat.exited_normally());
        assert!(flat.to_string().contains("status 0"));
    }

    #[test]
    fn coordinates_order_config_major() {
        let spec = CellSpec {
            config_index: 2,
            world_index: 1,
            scenario_index: 3,
            replicate: 4,
            config_label: "c".to_string(),
            world_label: "w".to_string(),
            scenario_label: "s".to_string(),
            seed: 0,
        };
        assert_eq!(spec.coordinates(), (2, 1, 3, 4));
    }
}
