//! Shared helpers for the report binaries: the table reproductions, the
//! campaign sweep and its coordinator, and the checker and analyzer command
//! lines. The repository benchmark (`perfbench/`) reuses the diversity gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nvariant::DeploymentConfig;
use nvariant_apps::workload::{BenchmarkResult, LoadLevel, WebBench};
use nvariant_campaign::{
    CellSpec, ShardCursor, ShardHeader, ShardMerger, ShardWriter, StreamingAggregator,
};
use nvariant_fleet::{first_divergence, Coordinates, Divergence};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Resolves the result-cache directory for a report binary from its flags
/// and the environment: an explicit `--cache-dir` wins, `--no-cache`
/// disables caching even when the environment configures it, and otherwise
/// the [`NVARIANT_CACHE_DIR`](nvariant::store::CACHE_DIR_ENV) variable
/// decides. `None` means both cache layers stay memory-/process-local.
#[must_use]
pub fn resolve_cache_dir(explicit: Option<PathBuf>, no_cache: bool) -> Option<PathBuf> {
    if no_cache {
        return None;
    }
    explicit.or_else(|| {
        std::env::var_os(nvariant::store::CACHE_DIR_ENV)
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })
}

/// The exit status the campaign binaries share with `nvariant_analyze`
/// when the static diversity verifier reports findings.
pub const EXIT_ANALYSIS_FINDINGS: i32 = 6;

/// `--analyze` support for the campaign binaries: run the static diversity
/// verifier over every configuration before any cell executes, print one
/// verdict line per configuration (plus the full report for any pair with
/// findings), and return the total finding count. Callers refuse to run
/// cells — exiting [`EXIT_ANALYSIS_FINDINGS`] — when it is non-zero:
/// deploying a system whose transform is already known-broken would only
/// measure the bug.
#[must_use]
pub fn verify_diversity_gate(configs: &[DeploymentConfig]) -> usize {
    println!(
        "Static diversity verification ({} configuration(s)):",
        configs.len()
    );
    let mut total_findings = 0usize;
    for config in configs {
        let reports = nvariant_apps::httpd_analysis_reports(config);
        println!(
            "  {}: {}",
            config.label(),
            nvariant::analyze::combined_verdict(&reports)
        );
        for report in &reports {
            if !report.is_clean() {
                println!("{}", report.render());
                total_findings += report.findings.len();
            }
        }
    }
    total_findings
}

/// Where a streamed merge writes the merged report as it reads the cells.
#[derive(Default)]
pub struct MergeOutputs<'a> {
    /// The merged report in the shard interchange format.
    pub shard: Option<&'a mut dyn Write>,
    /// The merged report's canonical text.
    pub canonical: Option<&'a mut dyn Write>,
}

/// Why a streamed merge failed.
#[derive(Debug)]
pub enum ShardMergeError {
    /// The shard files do not merge into this plan's report: a file cannot
    /// be read or is not a shard of the plan, or the [`ShardMerger`]
    /// rejects the set.
    Rejected(String),
    /// An output could not be written.
    Write(std::io::Error),
}

impl fmt::Display for ShardMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardMergeError::Rejected(reason) => write!(f, "{reason}"),
            ShardMergeError::Write(error) => write!(f, "cannot write the merged report: {error}"),
        }
    }
}

impl std::error::Error for ShardMergeError {}

/// The one streamed merge of shard files, shared by `campaign_report
/// --merge` and `campaignd`: gates every file's header against `plan`'s
/// identity (name, base seed, plan hash and shape), k-way merges the files
/// through one [`ShardMerger`] — which rejects missing, duplicated,
/// out-of-order and out-of-matrix cells — and, in the same pass, refuses a
/// merged cell that is not the cell of `planned` at its coordinates (an
/// altered seed or label, [`CellSpec::mismatch`]), folds each merged
/// cell into one [`StreamingAggregator`], writes it to `outputs`, and
/// compares its canonical line in lockstep with the next cell of
/// `reference` (a verification re-run or a regenerated sweep). Returns the
/// fold and the first divergence from `reference`, if any. Peak memory is
/// one decoded cell per shard, however large the shards are.
///
/// # Errors
///
/// Returns a [`ShardMergeError`] when a file cannot be opened or is not a
/// shard of `plan`, the shard set does not merge, a merged cell is not the
/// plan's, or an output cannot be written.
pub fn stream_merge_shards(
    files: &[impl AsRef<Path>],
    plan: &ShardHeader,
    planned: Option<&[CellSpec]>,
    reference: Option<&mut dyn Iterator<Item = (Coordinates, String)>>,
    outputs: MergeOutputs<'_>,
) -> Result<(StreamingAggregator, Option<Divergence>), ShardMergeError> {
    let mut cursors = Vec::with_capacity(files.len());
    for file in files {
        let file = file.as_ref();
        let rejected = |reason: &dyn fmt::Display| {
            ShardMergeError::Rejected(format!("{}: {reason}", file.display()))
        };
        let cursor = ShardCursor::open(file).map_err(|error| rejected(&error))?;
        if let Some(reason) = cursor.header().identity_mismatch(plan) {
            return Err(rejected(&reason));
        }
        cursors.push(cursor);
    }
    let merge_failed =
        |error: &dyn fmt::Display| ShardMergeError::Rejected(format!("merge failed: {error}"));
    let mut merger = ShardMerger::new(cursors).map_err(|error| merge_failed(&error))?;
    let header = merger.header().clone();
    let mut aggregator = StreamingAggregator::from_header(&header);
    let mut shard_out = (outputs.shard.map(|out| ShardWriter::new(out, &header)))
        .transpose()
        .map_err(ShardMergeError::Write)?;
    let mut canonical_out = outputs.canonical;
    if let Some(out) = &mut canonical_out {
        let first_line = header.canonical_header(header.shape.cell_count());
        out.write_all(first_line.as_bytes())
            .map_err(ShardMergeError::Write)?;
    }
    let mut failure = None;
    let mut planned = planned.map(|cells| cells.iter().enumerate());
    let mut lines = std::iter::from_fn(|| {
        let cell = match merger.next_cell() {
            Ok(cell) => cell?,
            Err(error) => {
                failure = Some(merge_failed(&error));
                return None;
            }
        };
        // Merged cells come in the plan's order, a missing one skipped
        // until the merger reports it, so the plan's cell is found by
        // coordinates.
        let mismatch = planned.as_mut().and_then(|planned| {
            let coordinates = cell.spec.coordinates();
            let (index, spec) = planned.find(|(_, spec)| spec.coordinates() == coordinates)?;
            cell.spec.mismatch(index, spec)
        });
        if let Some(reason) = mismatch {
            failure = Some(merge_failed(&reason));
            return None;
        }
        aggregator.absorb(&cell);
        let line = cell.canonical_line();
        let written = (|| {
            if let Some(out) = &mut shard_out {
                out.push(&cell)?;
            }
            if let Some(out) = &mut canonical_out {
                writeln!(out, "{line}")?;
            }
            Ok(())
        })();
        if let Err(error) = written {
            failure = Some(ShardMergeError::Write(error));
            return None;
        }
        Some(line)
    });
    let divergence = reference.and_then(|reference| first_divergence(reference, &mut lines));
    // The comparison stops at the first divergence; the merge runs on.
    lines.for_each(drop);
    if let Some(error) = failure {
        return Err(error);
    }
    (shard_out.map(ShardWriter::finish).transpose())
        .and_then(|_| canonical_out.map(Write::flush).transpose())
        .map_err(ShardMergeError::Write)?;
    Ok((aggregator, divergence))
}

/// Renders a list of rows as a fixed-width text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let mut separator = String::from("|");
    for width in &widths {
        separator.push_str(&"-".repeat(width + 2));
        separator.push('|');
    }
    out.push_str(&separator);
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// One measured Table 3 cell pair (unsaturated and saturated) for a
/// configuration.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// The configuration.
    pub config: DeploymentConfig,
    /// Result under the 1-client load.
    pub unsaturated: BenchmarkResult,
    /// Result under the 15-client load.
    pub saturated: BenchmarkResult,
}

/// Runs the full Table 3 measurement — every paper configuration under
/// both load levels — as one campaign over the cached compiled artifacts on
/// `workers` threads (the per-cell numbers are identical at any worker
/// count).
///
/// # Panics
///
/// Panics if the campaign drops a matrix cell — that would be an engine
/// bug, not a caller error.
#[must_use]
pub fn measure_table3(bench: &WebBench, workers: usize) -> Vec<Table3Row> {
    let configs = DeploymentConfig::paper_configurations();
    let loads = [LoadLevel::unsaturated(), LoadLevel::saturated()];
    let mut results = bench.measure_matrix(&configs, &loads, workers).into_iter();
    configs
        .into_iter()
        .map(|config| {
            let unsaturated = results.next().expect("unsaturated cell for every config");
            let saturated = results.next().expect("saturated cell for every config");
            Table3Row {
                config,
                unsaturated,
                saturated,
            }
        })
        .collect()
}

/// The paper's Table 3 values, for side-by-side comparison in reports and
/// EXPERIMENTS.md: `(config number, unsat KB/s, unsat ms, sat KB/s, sat ms)`.
#[must_use]
pub fn paper_table3() -> Vec<(u8, f64, f64, f64, f64)> {
    vec![
        (1, 1010.0, 5.81, 5420.0, 16.32),
        (2, 973.0, 5.81, 5372.0, 16.24),
        (3, 887.0, 6.56, 2369.0, 37.36),
        (4, 877.0, 6.65, 2262.0, 38.49),
    ]
}

/// Percentage change from `baseline` to `value` (negative = decrease).
#[must_use]
pub fn percent_change(baseline: f64, value: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (value - baseline) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["Config", "KB/s"],
            &[
                vec!["Unmodified".to_string(), "1010".to_string()],
                vec!["2-Variant UID".to_string(), "877".to_string()],
            ],
        );
        assert!(table.contains("| Config"));
        assert!(table.contains("| 2-Variant UID"));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    fn paper_values_match_the_published_table() {
        let rows = paper_table3();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].1, 1010.0);
        assert_eq!(rows[3].4, 38.49);
    }

    #[test]
    fn percent_change_sign_convention() {
        assert!((percent_change(1010.0, 887.0) + 12.18).abs() < 0.1);
        assert!(percent_change(100.0, 150.0) > 0.0);
        assert_eq!(percent_change(0.0, 5.0), 0.0);
    }
}
