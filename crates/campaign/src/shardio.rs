//! A self-contained text codec for [`CampaignReport`]s, so shard runs in
//! separate processes (or machines) can hand their reports to a merging
//! coordinator as plain files.
//!
//! The workspace's vendored `serde` is a no-op stand-in (the build
//! environment has no registry access), so this module implements the
//! round-trip directly: a line-oriented format with Rust-`Debug`-quoted
//! strings and hex-encoded request/response payloads. The format is
//! loss-free for everything [`CampaignReport::canonical_text`] and
//! [`CampaignReport::render_summary`] consume, which is what the
//! shard-merge determinism contract needs:
//! `from_shard_text(to_shard_text(r))` reproduces `r`'s canonical text and
//! summaries byte-for-byte.

use crate::cell::{CellOutcome, CellResult, CellSpec, CellVerdict, CheckSummary};
use crate::exchange::ServedRequest;
use crate::report::{CampaignReport, PlanShape};
use nvariant::ExecutionMetrics;
use nvariant_transform::TransformStats;
use nvariant_types::hex::{hex_decode, hex_encode};
use std::fmt;
use std::io::{BufRead, Read};
use std::time::Duration;

/// Format version 3: v2 plus the optional per-cell `checked` line carrying
/// a model-checking summary. Older files are rejected at the header line:
/// v1 predates the plan hashing that gates merges, and a v2 shard merged
/// into a checked campaign would silently drop the check column from the
/// canonical text, so both must be regenerated rather than reinterpreted.
const HEADER: &str = "nvariant-campaign-shard v3";

/// The longest line, terminator included, a [`ShardCursor`] reads. The
/// writer's longest lines are `exchange` lines of about 20 KiB in the
/// security matrix; the cap stops a line that never ends from growing one
/// allocation until the reader runs out of memory.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// Why a shard file failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardParseError {
    /// 1-based line the error was detected on (0 for end-of-input errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ShardParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ShardParseError {}

fn quote(s: &str) -> String {
    format!("{s:?}")
}

/// Inverse of [`quote`]: parses a Rust-`Debug`-quoted string literal.
fn unquote(token: &str) -> Result<String, String> {
    let inner = token
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got {token}"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\'') => out.push('\''),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('0') => out.push('\0'),
            Some('u') => {
                let hex: String = chars
                    .by_ref()
                    .skip_while(|&c| c == '{')
                    .take_while(|&c| c != '}')
                    .collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape in {token}"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("bad \\u escape in {token}"))?);
            }
            other => return Err(format!("bad escape \\{other:?} in {token}")),
        }
    }
    Ok(out)
}

fn render_cell(out: &mut String, cell: &CellResult) {
    let spec = &cell.spec;
    out.push_str(&format!(
        "cell {} {} {} {} {:#018x} {}\n",
        spec.config_index,
        spec.world_index,
        spec.scenario_index,
        spec.replicate,
        spec.seed,
        cell.wall.as_nanos(),
    ));
    out.push_str(&format!("config_label {}\n", quote(&spec.config_label)));
    out.push_str(&format!("world_label {}\n", quote(&spec.world_label)));
    out.push_str(&format!("scenario_label {}\n", quote(&spec.scenario_label)));
    out.push_str(&format!(
        "exit {}\n",
        cell.outcome
            .exit_status
            .map_or("-".to_string(), |s| s.to_string())
    ));
    if let Some(alarm) = &cell.outcome.alarm {
        out.push_str(&format!("alarm {}\n", quote(alarm)));
    }
    if let Some(fault) = &cell.outcome.fault {
        out.push_str(&format!("fault {}\n", quote(fault)));
    }
    let m = &cell.outcome.metrics;
    out.push_str(&format!(
        "metrics {} {} {} {} {} {}\n",
        m.variants,
        m.total_instructions,
        m.syscalls,
        m.monitor_checks,
        m.detection_calls,
        m.io_bytes
    ));
    let s = &cell.transform_stats;
    out.push_str(&format!(
        "stats {} {} {} {} {} {}\n",
        s.uid_constants_reexpressed,
        s.implicit_constants_made_explicit,
        s.single_value_exposures,
        s.comparison_exposures,
        s.conditional_checks,
        s.log_sinks_sanitized
    ));
    if let Some(verdict) = &cell.verdict {
        out.push_str(&format!("observed {}\n", quote(&verdict.observed)));
        out.push_str(&format!("expected {}\n", quote(&verdict.expected)));
    }
    if let Some(checked) = &cell.checked {
        // Property keys ("P1") and statuses ("pass"/"FAIL") are single
        // tokens by construction, so the line splits on spaces.
        out.push_str(&format!(
            "checked {} {} {} {}\n",
            checked.property, checked.status, checked.states, checked.depth
        ));
    }
    for exchange in &cell.exchanges {
        out.push_str(&format!(
            "exchange {} {}\n",
            hex_encode(&exchange.request),
            hex_encode(&exchange.response)
        ));
    }
    out.push_str("endcell\n");
}

/// The streaming dual of [`ShardCursor`]: writes the shard header eagerly,
/// then one cell block per [`push`](Self::push), so a producer's peak
/// memory is one cell — [`CampaignReport::to_shard_text`] semantics (which
/// is implemented over this writer) without holding the whole shard.
pub struct ShardWriter<W: std::io::Write> {
    writer: W,
    scratch: String,
}

impl<W: std::io::Write> ShardWriter<W> {
    /// Writes the header lines and returns the writer, ready for cells.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O errors.
    pub fn new(mut writer: W, header: &ShardHeader) -> std::io::Result<Self> {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("name {}\n", quote(&header.name)));
        out.push_str(&format!("base_seed {:#018x}\n", header.base_seed));
        out.push_str(&format!("plan_hash {:#018x}\n", header.plan_hash));
        out.push_str(&format!(
            "shape {} {} {} {}\n",
            header.shape.configs,
            header.shape.worlds,
            header.shape.scenarios,
            header.shape.replicates
        ));
        out.push_str(&format!("workers {}\n", header.workers));
        out.push_str(&format!(
            "total_wall_nanos {}\n",
            header.total_wall.as_nanos()
        ));
        writer.write_all(out.as_bytes())?;
        Ok(ShardWriter {
            writer,
            scratch: String::new(),
        })
    }

    /// Appends one cell block. Cells must be pushed in the producing run's
    /// canonical order for the file to merge cleanly.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O errors.
    pub fn push(&mut self, cell: &CellResult) -> std::io::Result<()> {
        self.scratch.clear();
        render_cell(&mut self.scratch, cell);
        self.writer.write_all(self.scratch.as_bytes())
    }

    /// Writes the end-of-shard trailer, flushes, and returns the
    /// underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O errors.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.writer.write_all(b"end\n")?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Renders `cells` under `header` as the text of one shard file, through
/// [`ShardWriter`].
pub(crate) fn shard_text<'a>(
    header: &ShardHeader,
    cells: impl IntoIterator<Item = &'a CellResult>,
) -> String {
    let mut writer = ShardWriter::new(Vec::new(), header).expect("writing to a Vec cannot fail");
    for cell in cells {
        writer.push(cell).expect("writing to a Vec cannot fail");
    }
    let bytes = writer.finish().expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("shard text is UTF-8 by construction")
}

impl CampaignReport {
    /// The report's metadata as the shard header its shard file carries.
    #[must_use]
    pub fn header(&self) -> ShardHeader {
        ShardHeader {
            name: self.name.clone(),
            base_seed: self.base_seed,
            plan_hash: self.plan_hash,
            shape: self.shape,
            workers: self.workers,
            total_wall: self.total_wall,
        }
    }

    /// Serializes the report to the shard interchange text format.
    #[must_use]
    pub fn to_shard_text(&self) -> String {
        shard_text(&self.header(), &self.cells)
    }

    /// Parses a report from the shard interchange text format.
    ///
    /// This is the materializing convenience wrapper over [`ShardCursor`]:
    /// it drains the cursor into a cell vector. Callers that only need to
    /// fold over the cells (aggregation, merging, divergence probing)
    /// should drive a [`ShardCursor`] directly and never hold more than one
    /// cell in memory.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardParseError`] naming the offending line if the text
    /// is not a well-formed shard file.
    pub fn from_shard_text(text: &str) -> Result<Self, ShardParseError> {
        let mut cursor = ShardCursor::new(text.as_bytes())?;
        let mut cells = Vec::new();
        while let Some(cell) = cursor.next_cell()? {
            cells.push(cell);
        }
        let header = cursor.into_header();
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
}

/// The per-file metadata of a shard: everything
/// [`CampaignReport::to_shard_text`] writes before the first cell block. A
/// [`ShardCursor`] parses it eagerly, so a merging coordinator can gate on
/// the plan hash and shape *before* streaming a single cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHeader {
    /// The plan's name.
    pub name: String,
    /// The plan's base seed.
    pub base_seed: u64,
    /// The canonical plan hash the shard claims to come from.
    pub plan_hash: u64,
    /// The plan's matrix shape.
    pub shape: PlanShape,
    /// Worker threads the producing run used.
    pub workers: usize,
    /// Wall-clock time of the producing run.
    pub total_wall: Duration,
}

impl ShardHeader {
    /// Why this header is not one of `plan`'s shards, if it is not: the
    /// plan identity — name, base seed, plan hash and shape — must all
    /// match. Run metadata (`workers`, `total_wall`) is not compared.
    #[must_use]
    pub fn identity_mismatch(&self, plan: &ShardHeader) -> Option<String> {
        let identity =
            |header: &ShardHeader| (header.name.clone(), header.base_seed, header.plan_hash);
        if identity(self) != identity(plan) {
            Some(format!(
                "shard of plan {:?} (seed {:#018x}, plan hash {:#018x}) does not match this \
                 plan ({:?}, seed {:#018x}, plan hash {:#018x})",
                self.name,
                self.base_seed,
                self.plan_hash,
                plan.name,
                plan.base_seed,
                plan.plan_hash
            ))
        } else if self.shape != plan.shape {
            // Coverage is validated against the *declared* shape, so a
            // tampered shape line could otherwise shrink the expected
            // matrix and pass a subset off as complete.
            Some(format!(
                "shard declares matrix shape {} but this plan is {}",
                self.shape, plan.shape
            ))
        } else {
            None
        }
    }

    /// The first line of the canonical text of a report with this header
    /// and `cells` cells (see [`CampaignReport::canonical_text`]).
    #[must_use]
    pub fn canonical_header(&self, cells: usize) -> String {
        format!(
            "campaign={:?} seed={:#018x} plan={:#018x} shape={} cells={cells}\n",
            self.name, self.base_seed, self.plan_hash, self.shape
        )
    }
}

/// A streaming reader over the shard interchange format: parses the header
/// eagerly, then yields one [`CellResult`] at a time from any [`BufRead`]
/// source (a file, a retrieved byte stream, an in-memory slice), so a
/// consumer's peak memory is one cell — independent of shard size.
///
/// The grammar, error messages and 1-based error line numbers are exactly
/// those of [`CampaignReport::from_shard_text`], which is implemented over
/// this cursor.
pub struct ShardCursor<R> {
    reader: R,
    current: usize,
    header: ShardHeader,
    done: bool,
}

impl ShardCursor<std::io::BufReader<std::fs::File>> {
    /// Opens a shard file for streaming. The header is parsed before this
    /// returns; an unopenable file is reported as a parse error at line 0.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardParseError`] if the file cannot be opened or its
    /// header is malformed.
    pub fn open(path: &std::path::Path) -> Result<Self, ShardParseError> {
        let file = std::fs::File::open(path).map_err(|e| ShardParseError {
            line: 0,
            message: format!("cannot open shard file {}: {e}", path.display()),
        })?;
        ShardCursor::new(std::io::BufReader::new(file))
    }
}

impl<R: std::io::BufRead> ShardCursor<R> {
    /// Wraps a reader and parses the shard header.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardParseError`] if the header is malformed or the
    /// reader fails.
    pub fn new(reader: R) -> Result<Self, ShardParseError> {
        let mut cursor = ShardCursor {
            reader,
            current: 0,
            header: ShardHeader {
                name: String::new(),
                base_seed: 0,
                plan_hash: 0,
                shape: PlanShape {
                    configs: 0,
                    worlds: 0,
                    scenarios: 0,
                    replicates: 0,
                },
                workers: 0,
                total_wall: Duration::ZERO,
            },
            done: false,
        };
        cursor.header = cursor.parse_header()?;
        Ok(cursor)
    }

    /// The shard's header (available before any cell is read).
    #[must_use]
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    /// Consumes the cursor, returning the header.
    #[must_use]
    pub fn into_header(self) -> ShardHeader {
        self.header
    }

    /// Parses the next cell block, or returns `None` at the shard's `end`
    /// marker. Reaching the end validates the file's tail exactly like the
    /// whole-file parser: trailing blank lines are tolerated, any other
    /// trailing content is rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardParseError`] naming the offending line on malformed
    /// input, truncation, or reader failure.
    pub fn next_cell(&mut self) -> Result<Option<CellResult>, ShardParseError> {
        if self.done {
            return Ok(None);
        }
        let line = self.next_line()?;
        if line == "end" {
            // "end" must really end the file: trailing content would mean a
            // concatenated or corrupted shard whose tail silently vanishes.
            // Blank lines are tolerated — an extra trailing newline from an
            // editor or a text-mode transfer doesn't change the report.
            while let Some(line) = self.read_raw_line()? {
                if line.is_empty() {
                    continue;
                }
                return self.fail(format!("unexpected content after \"end\": {line:?}"));
            }
            self.done = true;
            return Ok(None);
        }
        let Some(rest) = line.strip_prefix("cell ") else {
            return self.fail(format!("expected \"cell\" or \"end\", got {line:?}"));
        };
        self.parse_cell(rest).map(Some)
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T, ShardParseError> {
        Err(ShardParseError {
            line: self.current,
            message: message.into(),
        })
    }

    /// Reads one line (without its terminator), or `None` at end of input.
    /// A line of [`MAX_LINE_BYTES`] or more is an error, raised before
    /// more than that much of it is read.
    fn read_raw_line(&mut self) -> Result<Option<String>, ShardParseError> {
        let mut buf = String::new();
        match (&mut self.reader)
            .take(MAX_LINE_BYTES as u64)
            .read_line(&mut buf)
        {
            Ok(0) => Ok(None),
            Ok(_) => {
                self.current += 1;
                if buf.ends_with('\n') {
                    buf.pop();
                    if buf.ends_with('\r') {
                        buf.pop();
                    }
                } else if buf.len() == MAX_LINE_BYTES {
                    return self.fail(format!("line exceeds {MAX_LINE_BYTES} bytes"));
                }
                Ok(Some(buf))
            }
            Err(e) => Err(ShardParseError {
                line: self.current + 1,
                message: format!("I/O error reading shard: {e}"),
            }),
        }
    }

    fn next_line(&mut self) -> Result<String, ShardParseError> {
        if let Some(line) = self.read_raw_line()? {
            Ok(line)
        } else {
            self.current = 0;
            Err(ShardParseError {
                line: 0,
                message: "unexpected end of shard file".to_string(),
            })
        }
    }

    /// Consumes a `key value...` line, returning the value part.
    fn expect_field(&mut self, key: &str) -> Result<String, ShardParseError> {
        let line = self.next_line()?;
        match line.strip_prefix(key).and_then(|r| r.strip_prefix(' ')) {
            Some(rest) => Ok(rest.to_string()),
            None => self.fail(format!("expected {key:?} field, got {line:?}")),
        }
    }

    fn parse_number<T: std::str::FromStr>(&self, token: &str) -> Result<T, ShardParseError> {
        token.parse::<T>().map_err(|_| ShardParseError {
            line: self.current,
            message: format!("expected a number, got {token:?}"),
        })
    }

    fn parse_seed(&self, token: &str) -> Result<u64, ShardParseError> {
        token
            .strip_prefix("0x")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| ShardParseError {
                line: self.current,
                message: format!("expected 0x-prefixed seed, got {token:?}"),
            })
    }

    fn parse_quoted(&self, token: &str) -> Result<String, ShardParseError> {
        unquote(token).map_err(|message| ShardParseError {
            line: self.current,
            message,
        })
    }

    fn parse_header(&mut self) -> Result<ShardHeader, ShardParseError> {
        let header = self.next_line()?;
        if header != HEADER {
            return self.fail(format!("expected {HEADER:?}, got {header:?}"));
        }
        let name = {
            let token = self.expect_field("name")?;
            self.parse_quoted(&token)?
        };
        let base_seed = {
            let token = self.expect_field("base_seed")?;
            self.parse_seed(&token)?
        };
        let plan_hash = {
            let token = self.expect_field("plan_hash")?;
            self.parse_seed(&token)?
        };
        let shape = {
            let field = self.expect_field("shape")?;
            let tokens: Vec<&str> = field.split(' ').collect();
            if tokens.len() != 4 {
                return self.fail(format!(
                    "shape needs 4 axis sizes (configs, worlds, scenarios, replicates), got {}",
                    tokens.len()
                ));
            }
            PlanShape {
                configs: self.parse_number(tokens[0])?,
                worlds: self.parse_number(tokens[1])?,
                scenarios: self.parse_number(tokens[2])?,
                replicates: self.parse_number(tokens[3])?,
            }
        };
        let workers = {
            let token = self.expect_field("workers")?;
            self.parse_number::<usize>(&token)?
        };
        let total_wall = {
            let token = self.expect_field("total_wall_nanos")?;
            Duration::from_nanos(self.parse_number::<u64>(&token)?)
        };
        Ok(ShardHeader {
            name,
            base_seed,
            plan_hash,
            shape,
            workers,
            total_wall,
        })
    }

    fn parse_cell(&mut self, coordinates: &str) -> Result<CellResult, ShardParseError> {
        let tokens: Vec<&str> = coordinates.split(' ').collect();
        if tokens.len() != 6 {
            return self.fail(format!(
                "cell line needs 6 fields (coordinates, seed, wall), got {}",
                tokens.len()
            ));
        }
        let mut spec = CellSpec {
            config_index: self.parse_number(tokens[0])?,
            world_index: self.parse_number(tokens[1])?,
            scenario_index: self.parse_number(tokens[2])?,
            replicate: self.parse_number(tokens[3])?,
            config_label: String::new(),
            world_label: String::new(),
            scenario_label: String::new(),
            seed: self.parse_seed(tokens[4])?,
        };
        let wall = Duration::from_nanos(self.parse_number::<u64>(tokens[5])?);
        spec.config_label = {
            let token = self.expect_field("config_label")?;
            self.parse_quoted(&token)?
        };
        spec.world_label = {
            let token = self.expect_field("world_label")?;
            self.parse_quoted(&token)?
        };
        spec.scenario_label = {
            let token = self.expect_field("scenario_label")?;
            self.parse_quoted(&token)?
        };
        let exit_status = {
            let token = self.expect_field("exit")?;
            if token == "-" {
                None
            } else {
                Some(self.parse_number::<i32>(&token)?)
            }
        };

        // The optional and repeated trailing fields, in fixed order:
        // alarm? fault? metrics stats (observed expected)? checked?
        // exchange* endcell.
        let mut alarm = None;
        let mut fault = None;
        let mut line = self.next_line()?;
        if let Some(token) = line.strip_prefix("alarm ") {
            alarm = Some(self.parse_quoted(token)?);
            line = self.next_line()?;
        }
        if let Some(token) = line.strip_prefix("fault ") {
            fault = Some(self.parse_quoted(token)?);
            line = self.next_line()?;
        }
        let Some(metrics_rest) = line.strip_prefix("metrics ") else {
            return self.fail(format!("expected \"metrics\" field, got {line:?}"));
        };
        let m: Vec<&str> = metrics_rest.split(' ').collect();
        if m.len() != 6 {
            return self.fail(format!("metrics needs 6 counters, got {}", m.len()));
        }
        let metrics = ExecutionMetrics {
            variants: self.parse_number(m[0])?,
            total_instructions: self.parse_number(m[1])?,
            syscalls: self.parse_number(m[2])?,
            monitor_checks: self.parse_number(m[3])?,
            detection_calls: self.parse_number(m[4])?,
            io_bytes: self.parse_number(m[5])?,
        };
        let stats_field = self.expect_field("stats")?;
        let s: Vec<&str> = stats_field.split(' ').collect();
        if s.len() != 6 {
            return self.fail(format!("stats needs 6 counters, got {}", s.len()));
        }
        let transform_stats = TransformStats {
            uid_constants_reexpressed: self.parse_number(s[0])?,
            implicit_constants_made_explicit: self.parse_number(s[1])?,
            single_value_exposures: self.parse_number(s[2])?,
            comparison_exposures: self.parse_number(s[3])?,
            conditional_checks: self.parse_number(s[4])?,
            log_sinks_sanitized: self.parse_number(s[5])?,
        };

        let mut verdict = None;
        let mut exchanges = Vec::new();
        let mut line = self.next_line()?;
        if let Some(token) = line.strip_prefix("observed ") {
            let observed = self.parse_quoted(token)?;
            let expected_token = self.expect_field("expected")?;
            let expected = self.parse_quoted(&expected_token)?;
            verdict = Some(CellVerdict { observed, expected });
            line = self.next_line()?;
        }
        let mut checked = None;
        if let Some(rest) = line.strip_prefix("checked ") {
            let c: Vec<&str> = rest.split(' ').collect();
            if c.len() != 4 {
                return self.fail(format!(
                    "checked needs 4 fields (property, status, states, depth), got {}",
                    c.len()
                ));
            }
            checked = Some(CheckSummary {
                property: c[0].to_string(),
                status: c[1].to_string(),
                states: self.parse_number(c[2])?,
                depth: self.parse_number(c[3])?,
            });
            line = self.next_line()?;
        }
        loop {
            if line == "endcell" {
                break;
            }
            let Some(rest) = line.strip_prefix("exchange ") else {
                return self.fail(format!(
                    "expected \"exchange\" or \"endcell\", got {line:?}"
                ));
            };
            let Some((request, response)) = rest.split_once(' ') else {
                return self.fail("exchange needs request and response payloads");
            };
            let decode = |token: &str| {
                hex_decode(token).map_err(|message| ShardParseError {
                    line: self.current,
                    message,
                })
            };
            exchanges.push(ServedRequest {
                request: decode(request)?,
                response: decode(response)?,
            });
            line = self.next_line()?;
        }

        Ok(CellResult {
            spec,
            outcome: CellOutcome {
                exit_status,
                alarm,
                fault,
                metrics,
            },
            exchanges,
            transform_stats,
            verdict,
            checked,
            wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CampaignReport {
        let cell = |replicate: usize, alarmed: bool| CellResult {
            spec: CellSpec {
                config_index: 1,
                world_index: 2,
                scenario_index: 0,
                replicate,
                config_label: "2-Variant \"UID\"".to_string(),
                world_label: "alt-docroot".to_string(),
                scenario_label: "uid-overflow\nline2".to_string(),
                seed: 0xDEAD_BEEF_0000_0001,
            },
            outcome: CellOutcome {
                exit_status: (!alarmed).then_some(0),
                alarm: alarmed
                    .then(|| "ALARM at synchronization point 7: values [0, 1]".to_string()),
                fault: None,
                metrics: ExecutionMetrics {
                    variants: 2,
                    total_instructions: 12345,
                    syscalls: 67,
                    monitor_checks: 89,
                    detection_calls: 4,
                    io_bytes: 4096,
                },
            },
            exchanges: vec![
                ServedRequest {
                    request: b"GET / HTTP/1.0\r\n\r\n".to_vec(),
                    response: b"HTTP/1.0 200 OK\r\n\r\nok".to_vec(),
                },
                ServedRequest {
                    request: vec![0, 255, 128],
                    response: Vec::new(),
                },
            ],
            transform_stats: TransformStats {
                uid_constants_reexpressed: 5,
                implicit_constants_made_explicit: 1,
                single_value_exposures: 2,
                comparison_exposures: 4,
                conditional_checks: 3,
                log_sinks_sanitized: 1,
            },
            verdict: alarmed.then(|| CellVerdict {
                observed: "detected".to_string(),
                expected: "detected".to_string(),
            }),
            checked: alarmed.then(|| CheckSummary {
                property: "P1".to_string(),
                status: "pass".to_string(),
                states: 1234,
                depth: 24,
            }),
            wall: Duration::from_micros(1234),
        };
        CampaignReport::new(
            "round \"trip\"".to_string(),
            0x5EED,
            0xFEED_FACE_CAFE_F00D,
            PlanShape {
                configs: 2,
                worlds: 3,
                scenarios: 1,
                replicates: 2,
            },
            4,
            vec![cell(0, false), cell(1, true)],
            Duration::from_millis(99),
        )
    }

    #[test]
    fn round_trip_preserves_canonical_text_and_summaries() {
        let report = sample_report();
        let text = report.to_shard_text();
        let parsed = CampaignReport::from_shard_text(&text).unwrap();
        assert_eq!(parsed.canonical_text(), report.canonical_text());
        assert_eq!(parsed.render_summary(), report.render_summary());
        assert_eq!(parsed.cells, report.cells);
        assert_eq!(parsed.workers, report.workers);
        assert_eq!(parsed.total_wall, report.total_wall);
        // The merge-gating identity survives the trip.
        assert_eq!(parsed.plan_hash, report.plan_hash);
        assert_eq!(parsed.shape, report.shape);
        // And the round trip is a fixed point.
        assert_eq!(parsed.to_shard_text(), text);
    }

    #[test]
    fn older_shard_files_are_rejected_at_the_header() {
        // v1 predates plan hashing; v2 predates the checked column. Either
        // merged into a current campaign would silently lose information.
        for old in ["shard v1", "shard v2"] {
            let text = sample_report().to_shard_text().replace("shard v3", old);
            let err = CampaignReport::from_shard_text(&text).unwrap_err();
            assert_eq!(err.line, 1);
            assert!(err.message.contains("v3"), "{err}");
        }
    }

    #[test]
    fn quoting_round_trips_awkward_strings() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab and nul\0",
            "unicode: héllo → 世界",
        ] {
            assert_eq!(unquote(&quote(s)).unwrap(), s, "{s:?}");
        }
        assert!(unquote("no quotes").is_err());
        assert!(unquote("\"bad \\q escape\"").is_err());
    }

    #[test]
    fn hex_round_trips_payloads() {
        for payload in [vec![], vec![0u8], vec![0xff, 0x00, 0x7f], b"GET /".to_vec()] {
            assert_eq!(hex_decode(&hex_encode(&payload)).unwrap(), payload);
        }
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
        // The encoder emits lowercase, but uppercase input (accepted by the
        // format since v1) still decodes.
        assert_eq!(hex_decode("AbFf").unwrap(), vec![0xab, 0xff]);
    }

    #[test]
    fn malformed_inputs_name_the_offending_line() {
        let err = CampaignReport::from_shard_text("not a shard file").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));

        let report = sample_report();
        let mut lines: Vec<String> = report.to_shard_text().lines().map(String::from).collect();
        // Corrupt the metrics line of the first cell.
        let metrics_line = lines.iter().position(|l| l.starts_with("metrics")).unwrap();
        lines[metrics_line] = "metrics 1 2".to_string();
        let err = CampaignReport::from_shard_text(&lines.join("\n")).unwrap_err();
        assert_eq!(err.line, metrics_line + 1);
        assert!(err.message.contains("6 counters"));

        // Truncated file.
        let err = CampaignReport::from_shard_text(HEADER).unwrap_err();
        assert!(err.message.contains("unexpected end"));

        // A duplicated metrics line is caught where "stats" was expected.
        let mut lines: Vec<String> = report.to_shard_text().lines().map(String::from).collect();
        let metrics_line = lines.iter().position(|l| l.starts_with("metrics")).unwrap();
        lines.insert(metrics_line + 1, lines[metrics_line].clone());
        let err = CampaignReport::from_shard_text(&lines.join("\n")).unwrap_err();
        assert_eq!(err.line, metrics_line + 2);
        assert!(err.message.contains("stats"), "{err}");

        // Corrupted hex names the exchange line, and non-ASCII corruption
        // (which would split a UTF-8 char under byte slicing) reports
        // instead of panicking.
        for corruption in ["zz", "é!"] {
            let mut lines: Vec<String> = report.to_shard_text().lines().map(String::from).collect();
            let exchange_line = lines
                .iter()
                .position(|l| l.starts_with("exchange"))
                .unwrap();
            lines[exchange_line] = {
                let line = &lines[exchange_line];
                format!("{}{corruption}", &line[..line.len() - 2])
            };
            let err = CampaignReport::from_shard_text(&lines.join("\n")).unwrap_err();
            assert_eq!(err.line, exchange_line + 1, "{corruption}: {err}");
            assert!(err.message.contains("hex"), "{corruption}: {err}");
        }
    }

    #[test]
    fn trailing_content_after_end_is_rejected() {
        // Two concatenated shard files must not silently parse as the
        // first one.
        let text = sample_report().to_shard_text();
        let doubled = format!("{text}{text}");
        let err = CampaignReport::from_shard_text(&doubled).unwrap_err();
        assert_eq!(err.line, text.lines().count() + 1);
        assert!(err.message.contains("after \"end\""), "{err}");
        // But harmless trailing blank lines (an editor's or a text-mode
        // transfer's extra newlines) still parse.
        let padded = format!("{text}\n\n");
        let parsed = CampaignReport::from_shard_text(&padded).unwrap();
        assert_eq!(parsed.to_shard_text(), text);
    }

    #[test]
    fn an_endless_line_fails_at_the_cap_without_reading_on() {
        /// Counts the bytes its reader hands out.
        struct Counted<R>(R, std::rc::Rc<std::cell::Cell<usize>>);
        impl<R: Read> Read for Counted<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.read(buf)?;
                self.1.set(self.1.get() + n);
                Ok(n)
            }
        }
        let consumed = std::rc::Rc::new(std::cell::Cell::new(0));
        let endless = std::io::repeat(b'x').take(4 * MAX_LINE_BYTES as u64);
        let reader = std::io::BufReader::new(Counted(endless, std::rc::Rc::clone(&consumed)));
        let capacity = reader.capacity();
        let Err(err) = ShardCursor::new(reader) else {
            panic!("an endless header line must not parse");
        };
        assert_eq!(err.line, 1, "{err}");
        assert!(err.message.contains("line exceeds"), "{err}");
        assert!(
            consumed.get() <= MAX_LINE_BYTES + capacity,
            "read {} bytes for a cap of {MAX_LINE_BYTES}",
            consumed.get()
        );
    }

    #[test]
    fn truncation_at_any_line_boundary_is_a_clean_error() {
        let text = sample_report().to_shard_text();
        let total = text.lines().count();
        for keep in 0..total {
            let truncated = text.lines().take(keep).fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
            let err = CampaignReport::from_shard_text(&truncated).unwrap_err();
            assert!(
                err.line <= keep + 1,
                "kept {keep} lines but error names line {}",
                err.line
            );
        }
    }

    #[test]
    fn empty_report_round_trips() {
        let report = CampaignReport::new(
            "empty".to_string(),
            1,
            2,
            PlanShape {
                configs: 0,
                worlds: 1,
                scenarios: 0,
                replicates: 1,
            },
            1,
            vec![],
            Duration::ZERO,
        );
        let parsed = CampaignReport::from_shard_text(&report.to_shard_text()).unwrap();
        assert_eq!(parsed.canonical_text(), report.canonical_text());
        assert!(parsed.cells.is_empty());
    }
}
