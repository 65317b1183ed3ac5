//! A self-contained text codec for [`CampaignReport`]s, so shard runs in
//! separate processes (or machines) can hand their reports to a merging
//! coordinator as plain files.
//!
//! The workspace's vendored `serde` is a no-op stand-in (the build
//! environment has no registry access), so this module implements the
//! round-trip directly, in the workspace's line codec
//! ([`nvariant_types::lines`]): `key value` lines with Rust-`Debug`-quoted
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
use nvariant_types::hex::{hex_decode, hex_decode_bytes, hex_encode_into};
use nvariant_types::lines::{quote, Line, LineReader, ParseError, RawLine, READ_BUFFER_BYTES};
use std::convert::Infallible;
use std::io::BufRead;
use std::time::Duration;

/// Format version 3: v2 plus the optional per-cell `checked` line carrying
/// a model-checking summary. Older files are rejected at the header line:
/// v1 predates the plan hashing that gates merges, and a v2 shard merged
/// into a checked campaign would silently drop the check column from the
/// canonical text, so both must be regenerated rather than reinterpreted.
const HEADER: &str = "nvariant-campaign-shard v3";

/// Appends the cell block [`ShardWriter::push`] writes for `cell` to `out`:
/// the lines before the exchanges through one small `String`, each
/// exchange's payloads hex-encoded straight into `out`.
pub(crate) fn render_cell(out: &mut Vec<u8>, cell: &CellResult) {
    let spec = &cell.spec;
    let mut head = String::with_capacity(512);
    head.push_str(&format!(
        "cell {} {} {} {} {:#018x} {}\n",
        spec.config_index,
        spec.world_index,
        spec.scenario_index,
        spec.replicate,
        spec.seed,
        cell.wall.as_nanos(),
    ));
    head.push_str(&format!("config_label {}\n", quote(&spec.config_label)));
    head.push_str(&format!("world_label {}\n", quote(&spec.world_label)));
    head.push_str(&format!("scenario_label {}\n", quote(&spec.scenario_label)));
    head.push_str(&format!(
        "exit {}\n",
        cell.outcome
            .exit_status
            .map_or("-".to_string(), |s| s.to_string())
    ));
    if let Some(alarm) = &cell.outcome.alarm {
        head.push_str(&format!("alarm {}\n", quote(alarm)));
    }
    if let Some(fault) = &cell.outcome.fault {
        head.push_str(&format!("fault {}\n", quote(fault)));
    }
    let m = &cell.outcome.metrics;
    head.push_str(&format!(
        "metrics {} {} {} {} {} {}\n",
        m.variants,
        m.total_instructions,
        m.syscalls,
        m.monitor_checks,
        m.detection_calls,
        m.io_bytes
    ));
    let s = &cell.transform_stats;
    head.push_str(&format!(
        "stats {} {} {} {} {} {}\n",
        s.uid_constants_reexpressed,
        s.implicit_constants_made_explicit,
        s.single_value_exposures,
        s.comparison_exposures,
        s.conditional_checks,
        s.log_sinks_sanitized
    ));
    if let Some(verdict) = &cell.verdict {
        head.push_str(&format!("observed {}\n", quote(&verdict.observed)));
        head.push_str(&format!("expected {}\n", quote(&verdict.expected)));
    }
    if let Some(checked) = &cell.checked {
        // Property keys ("P1") and statuses ("pass"/"FAIL") are single
        // tokens by construction, so the line splits on spaces.
        head.push_str(&format!(
            "checked {} {} {} {}\n",
            checked.property, checked.status, checked.states, checked.depth
        ));
    }
    out.extend_from_slice(head.as_bytes());
    for exchange in &cell.exchanges {
        out.extend_from_slice(b"exchange ");
        hex_encode_into(out, &exchange.request);
        out.push(b' ');
        hex_encode_into(out, &exchange.response);
        out.push(b'\n');
    }
    out.extend_from_slice(b"endcell\n");
}

/// The streaming dual of [`ShardCursor`]: writes the shard header eagerly,
/// then one cell block per [`push`](Self::push), so a producer's peak
/// memory is one cell — [`CampaignReport::to_shard_text`] semantics (which
/// is implemented over this writer) without holding the whole shard.
pub struct ShardWriter<W: std::io::Write> {
    writer: W,
    scratch: Vec<u8>,
}

impl<W: std::io::Write> ShardWriter<W> {
    /// Writes the header lines and returns the writer, ready for cells.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O errors.
    pub fn new(mut writer: W, header: &ShardHeader) -> std::io::Result<Self> {
        let mut out = String::new();
        render_header(&mut out, header);
        writer.write_all(out.as_bytes())?;
        Ok(ShardWriter {
            writer,
            scratch: Vec::new(),
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
        self.writer.write_all(&self.scratch)
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

/// Appends the header lines [`ShardWriter::new`] writes for `header`.
pub(crate) fn render_header(out: &mut String, header: &ShardHeader) {
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("name {}\n", quote(&header.name)));
    out.push_str(&format!("base_seed {:#018x}\n", header.base_seed));
    out.push_str(&format!("plan_hash {:#018x}\n", header.plan_hash));
    out.push_str(&format!(
        "shape {} {} {} {}\n",
        header.shape.configs, header.shape.worlds, header.shape.scenarios, header.shape.replicates
    ));
    out.push_str(&format!("workers {}\n", header.workers));
    out.push_str(&format!(
        "total_wall_nanos {}\n",
        header.total_wall.as_nanos()
    ));
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
    /// Returns a [`ParseError`] naming the offending line if the text is
    /// not a well-formed shard file.
    pub fn from_shard_text(text: &str) -> Result<Self, ParseError> {
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
///
/// An `exchange` line, nearly all of a shard's bytes, is parsed once, from
/// its bytes: the key, one space between two tokens, and each token checked
/// and decoded by the hex block kernel straight into the
/// [`ServedRequest`]'s buffer, with no UTF-8 pass, `String` or token split.
/// Only a line that fails is read as text, to name its first problem as a
/// text parse of the line names it: bytes that are not UTF-8, the key, the
/// token count, then each token's odd length or first bad digit. Every
/// other line is read as text.
pub struct ShardCursor<R> {
    lines: LineReader<R>,
    header: ShardHeader,
    done: bool,
}

impl ShardCursor<std::io::BufReader<std::fs::File>> {
    /// Opens a shard file for streaming, through a buffer of
    /// [`READ_BUFFER_BYTES`]. The header is parsed before this returns; an
    /// unopenable file is reported as a parse error at line 0.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the file cannot be opened or its header
    /// is malformed.
    pub fn open(path: &std::path::Path) -> Result<Self, ParseError> {
        let file = std::fs::File::open(path).map_err(|e| ParseError {
            line: 0,
            message: format!("cannot open shard file {}: {e}", path.display()),
        })?;
        ShardCursor::new(std::io::BufReader::with_capacity(READ_BUFFER_BYTES, file))
    }
}

impl<R: BufRead> ShardCursor<R> {
    /// Wraps a reader and parses the shard header.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the header is malformed or the reader
    /// fails.
    pub fn new(reader: R) -> Result<Self, ParseError> {
        let mut lines = LineReader::new(reader);
        let header = parse_header(&mut lines)?;
        Ok(ShardCursor {
            lines,
            header,
            done: false,
        })
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
    /// Returns a [`ParseError`] naming the offending line on malformed
    /// input, truncation, or reader failure.
    pub fn next_cell(&mut self) -> Result<Option<CellResult>, ParseError> {
        if self.done {
            return Ok(None);
        }
        let line = self.lines.next_line()?;
        if line.text() == "end" {
            // "end" must really end the file: trailing content would mean a
            // concatenated or corrupted shard whose tail silently vanishes.
            // Blank lines are tolerated — an extra trailing newline from an
            // editor or a text-mode transfer doesn't change the report.
            while let Some(line) = self.lines.read_line()? {
                if !line.text().is_empty() {
                    return line.fail(format!(
                        "unexpected content after \"end\": {:?}",
                        line.text()
                    ));
                }
            }
            self.done = true;
            return Ok(None);
        }
        let Some(coordinates) = line.strip("cell") else {
            return line.fail(format!(
                "expected \"cell\" or \"end\", got {:?}",
                line.text()
            ));
        };
        let (spec, wall) = parse_cell_head(coordinates)?;
        parse_cell_body(&mut self.lines, spec, wall).map(Some)
    }
}

/// Parses one cell block as [`ShardWriter::push`] writes it, `cell` line
/// first: the grammar a [`ShardCursor`] reads between the header and `end`.
pub(crate) fn parse_cell<R: BufRead>(lines: &mut LineReader<R>) -> Result<CellResult, ParseError> {
    let line = lines.next_line()?;
    let Some(coordinates) = line.strip("cell") else {
        return line.fail(format!("expected \"cell\", got {:?}", line.text()));
    };
    let (spec, wall) = parse_cell_head(coordinates)?;
    parse_cell_body(lines, spec, wall)
}

/// The coordinates, seed and wall time a `cell` line carries after its key.
fn parse_cell_head(coordinates: Line<'_>) -> Result<(CellSpec, Duration), ParseError> {
    let [config, world, scenario, replicate, seed, wall] =
        coordinates.tokens("cell line needs 6 fields (coordinates, seed, wall)")?;
    let spec = CellSpec {
        config_index: config.number()?,
        world_index: world.number()?,
        scenario_index: scenario.number()?,
        replicate: replicate.number()?,
        config_label: String::new(),
        world_label: String::new(),
        scenario_label: String::new(),
        seed: seed.hex_number()?,
    };
    Ok((spec, Duration::from_nanos(wall.number()?)))
}

/// Parses the header lines [`ShardWriter::new`] writes.
pub(crate) fn parse_header<R: BufRead>(
    lines: &mut LineReader<R>,
) -> Result<ShardHeader, ParseError> {
    let header = lines.next_line()?;
    if header.text() != HEADER {
        return header.fail(format!("expected {HEADER:?}, got {:?}", header.text()));
    }
    let name = lines.field("name")?.quoted()?;
    let base_seed = lines.field("base_seed")?.hex_number()?;
    let plan_hash = lines.field("plan_hash")?.hex_number()?;
    let [configs, worlds, scenarios, replicates] = lines
        .field("shape")?
        .tokens("shape needs 4 axis sizes (configs, worlds, scenarios, replicates)")?;
    let shape = PlanShape {
        configs: configs.number()?,
        worlds: worlds.number()?,
        scenarios: scenarios.number()?,
        replicates: replicates.number()?,
    };
    Ok(ShardHeader {
        name,
        base_seed,
        plan_hash,
        shape,
        workers: lines.field("workers")?.number()?,
        total_wall: Duration::from_nanos(lines.field("total_wall_nanos")?.number()?),
    })
}

/// The lines of a cell block after its `cell` line, whose coordinates,
/// seed and wall time are already in `spec` and `wall`.
fn parse_cell_body<R: BufRead>(
    lines: &mut LineReader<R>,
    mut spec: CellSpec,
    wall: Duration,
) -> Result<CellResult, ParseError> {
    spec.config_label = lines.field("config_label")?.quoted()?;
    spec.world_label = lines.field("world_label")?.quoted()?;
    spec.scenario_label = lines.field("scenario_label")?.quoted()?;
    let exit = lines.field("exit")?;
    let exit_status = match exit.text() {
        "-" => None,
        _ => Some(exit.number()?),
    };

    // The optional and repeated trailing fields, in fixed order:
    // alarm? fault? metrics stats (observed expected)? checked?
    // exchange* endcell.
    let mut alarm = None;
    let mut fault = None;
    let mut line = lines.next_line()?;
    if let Some(value) = line.strip("alarm") {
        alarm = Some(value.quoted()?);
        line = lines.next_line()?;
    }
    if let Some(value) = line.strip("fault") {
        fault = Some(value.quoted()?);
        line = lines.next_line()?;
    }
    let [variants, instructions, syscalls, checks, detection_calls, io_bytes] =
        line.value("metrics")?.tokens("metrics needs 6 counters")?;
    let metrics = ExecutionMetrics {
        variants: variants.number()?,
        total_instructions: instructions.number()?,
        syscalls: syscalls.number()?,
        monitor_checks: checks.number()?,
        detection_calls: detection_calls.number()?,
        io_bytes: io_bytes.number()?,
    };
    let [a, b, c, d, e, f] = lines.field("stats")?.tokens("stats needs 6 counters")?;
    let transform_stats = TransformStats {
        uid_constants_reexpressed: a.number()?,
        implicit_constants_made_explicit: b.number()?,
        single_value_exposures: c.number()?,
        comparison_exposures: d.number()?,
        conditional_checks: e.number()?,
        log_sinks_sanitized: f.number()?,
    };

    // From here lines are read as bytes, so the exchange lines need not be
    // read as text.
    let mut verdict = None;
    let mut line = lines.next_raw()?;
    if let Some(value) = line.strip("observed") {
        let observed = value.text()?.quoted()?;
        let expected = lines.field("expected")?.quoted()?;
        verdict = Some(CellVerdict { observed, expected });
        line = lines.next_raw()?;
    }
    let mut checked = None;
    if let Some(value) = line.strip("checked") {
        let [property, status, states, depth] = value
            .text()?
            .tokens("checked needs 4 fields (property, status, states, depth)")?;
        checked = Some(CheckSummary {
            property: property.text().to_string(),
            status: status.text().to_string(),
            states: states.number()?,
            depth: depth.number()?,
        });
        line = lines.next_raw()?;
    }
    let mut exchanges = Vec::new();
    while line.bytes() != b"endcell" {
        exchanges.push(parse_exchange(line)?);
        line = lines.next_raw()?;
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

/// The payloads of an `exchange` line, decoded from its bytes: the key, one
/// space, the request token, one space and the response token. A line that
/// is anything else goes to [`exchange_error`].
fn parse_exchange(line: RawLine<'_>) -> Result<ServedRequest, ParseError> {
    let decoded = line.strip("exchange").and_then(|value| {
        let value = value.bytes();
        let space = value.iter().position(|&byte| byte == b' ')?;
        Some(ServedRequest {
            request: hex_decode_bytes(&value[..space])?,
            response: hex_decode_bytes(&value[space + 1..])?,
        })
    });
    decoded.ok_or_else(|| exchange_error(line))
}

/// Names the first problem of a line [`parse_exchange`] refused, reading it
/// as text in the order a text parse checks it: bytes that are not UTF-8,
/// a key that is neither `exchange` nor `endcell`, a token count other than
/// two, then the request's and the response's odd length or first bad
/// digit.
#[cold]
fn exchange_error(line: RawLine<'_>) -> ParseError {
    let named: Result<Infallible, ParseError> = line.text().and_then(|line| {
        let Some(value) = line.strip("exchange") else {
            return line.fail(format!(
                "expected \"exchange\" or \"endcell\", got {:?}",
                line.text()
            ));
        };
        let [request, response] = value.tokens("exchange needs request and response payloads")?;
        request.lift(hex_decode(request.text()))?;
        response.lift(hex_decode(response.text()))?;
        // Read as text, a line passes exactly when its bytes decode.
        line.fail("exchange line does not decode")
    });
    let Err(error) = named;
    error
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvariant_types::hex::hex_encode;
    use nvariant_types::lines::MAX_LINE_BYTES;
    use std::io::Read;

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
    fn the_encoder_writes_the_bytes_of_the_reference_golden() {
        // Generated by the encoder that built each exchange line from two
        // `hex_encode` strings; the in-place encoder must match it byte for
        // byte.
        let golden = include_str!("../tests/fixtures/shard_codec_golden.txt");
        assert_eq!(sample_report().to_shard_text(), golden);
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

        // A quoted field ends at its first unescaped quote: an inner one
        // leaves content after the string, which the writer never emits.
        let mut lines: Vec<String> = report.to_shard_text().lines().map(String::from).collect();
        let label_line = lines
            .iter()
            .position(|l| l.starts_with("config_label"))
            .unwrap();
        lines[label_line] = "config_label \"a\"b\"".to_string();
        let err = CampaignReport::from_shard_text(&lines.join("\n")).unwrap_err();
        assert_eq!(err.line, label_line + 1, "{err}");
        assert!(err.message.contains("after the quoted string"), "{err}");

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
    fn a_damaged_exchange_line_names_its_first_problem_in_the_text_order() {
        let text = sample_report().to_shard_text();
        let number = text
            .lines()
            .position(|line| line.starts_with("exchange "))
            .unwrap()
            + 1;
        for (damaged, message) in [
            (
                &b"exchange zz 0\xff"[..],
                "cannot read line: stream did not contain valid UTF-8",
            ),
            (
                b"exchanged 00 00",
                "expected \"exchange\" or \"endcell\", got \"exchanged 00 00\"",
            ),
            (
                b"exchange zz 00 0",
                "exchange needs request and response payloads, got 3",
            ),
            (
                b"exchange 0000",
                "exchange needs request and response payloads, got 1",
            ),
            (b"exchange z00 0z", "odd-length hex payload (3 bytes)"),
            (b"exchange 0z 000", "bad hex digit 'z'"),
            (b"exchange 00 000", "odd-length hex payload (3 bytes)"),
            (b"exchange - 00\r\r\r", "bad hex digit '\\r'"),
        ] {
            let mut bytes = Vec::new();
            for (index, line) in text.lines().enumerate() {
                let line = if index + 1 == number {
                    damaged
                } else {
                    line.as_bytes()
                };
                bytes.extend_from_slice(line);
                bytes.push(b'\n');
            }
            let Err(err) = ShardCursor::new(bytes.as_slice()).and_then(|mut cursor| {
                while cursor.next_cell()?.is_some() {}
                Ok(())
            }) else {
                panic!("{damaged:?} parsed");
            };
            assert_eq!((err.line, err.message.as_str()), (number, message));
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
