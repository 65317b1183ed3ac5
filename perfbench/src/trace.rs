//! In-memory spans recorded around calls into each layer.
//!
//! A [`Tracer`] hands out span ids and a common clock; every thread keeps
//! its own `Vec<Span>` and the logs are concatenated once a pass is done,
//! so recording never takes a lock. Spans are written out when the
//! benchmark ends ([`write_tsv`]).
//!
//! A span's *self time* is its duration minus the part of its interval its
//! child spans cover ([`self_times`]). Children that overlap — cells run by
//! different workers under one pass span — are counted once.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within one [`Tracer`].
    pub id: u64,
    /// The span that made this call, if any.
    pub parent: Option<u64>,
    /// The layer call, e.g. `core.instantiate`.
    pub name: &'static str,
    /// The campaign cell or checker target the span worked on.
    pub cell: Option<u32>,
    /// Start, since the tracer's epoch.
    pub start: Duration,
    /// End, since the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// The span's wall time.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The span id source and clock shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    /// Runs `call` inside a span named `name` and appends the span to `log`
    /// once it returns. `call` receives the new span's id, to parent its
    /// own child spans, and the log to record them in.
    pub fn span<R>(
        &self,
        log: &mut Vec<Span>,
        name: &'static str,
        parent: Option<u64>,
        cell: Option<u32>,
        call: impl FnOnce(u64, &mut Vec<Span>) -> R,
    ) -> R {
        // Ids only need to be unique, not ordered with anything else.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let result = call(id, log);
        let end = self.epoch.elapsed();
        log.push(Span {
            id,
            parent,
            name,
            cell,
            start,
            end,
        });
        result
    }
}

/// Total length of the union of `intervals` clipped to `[low, high]`.
fn covered(mut intervals: Vec<(Duration, Duration)>, low: Duration, high: Duration) -> Duration {
    intervals.sort_unstable();
    let mut total = Duration::ZERO;
    let mut reach = low;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(high);
        if end > start {
            total += end.saturating_sub(start);
            reach = end;
        }
    }
    total
}

/// Self time per span name: each span's duration minus the time its
/// children cover, summed over every span of that name.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    let mut totals: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for span in spans {
        let child_time = children
            .remove(&span.id)
            .map_or(Duration::ZERO, |kids| covered(kids, span.start, span.end));
        *totals.entry(span.name).or_default() += span.duration().saturating_sub(child_time);
    }
    totals
}

/// The durations of every span named `name`, in record order.
pub fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = Duration> + 'a {
    spans
        .iter()
        .filter(move |span| span.name == name)
        .map(Span::duration)
}

/// Writes `spans` as tab-separated lines: id, parent (0 for none), name,
/// cell (`-` for none), start and end in nanoseconds since the epoch.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tcell\tstart_ns\tend_ns")?;
    for span in spans {
        let cell = span.cell.map_or("-".to_string(), |cell| cell.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            span.id,
            span.parent.unwrap_or(0),
            span.name,
            cell,
            span.start.as_nanos(),
            span.end.as_nanos()
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            cell: None,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "pass", 0, 100),
            // Two overlapping children (two workers) cover [10, 40].
            span(2, Some(1), "cell", 10, 30),
            span(3, Some(1), "cell", 20, 40),
            // A child running past its parent counts only inside it.
            span(4, Some(1), "render", 90, 120),
            // A grandchild takes time from its parent, not the pass.
            span(5, Some(2), "vm.run", 12, 27),
        ];
        let own = self_times(&spans);
        assert_eq!(own["pass"], Duration::from_micros(100 - 30 - 10));
        assert_eq!(own["cell"], Duration::from_micros((20 - 15) + 20));
        assert_eq!(own["vm.run"], Duration::from_micros(15));
        assert_eq!(own["render"], Duration::from_micros(30));
        // Self times add up to the root's wall, plus the 10 us the two
        // workers overlapped and the 20 us the render ran past the pass.
        let total: Duration = own.values().sum();
        assert_eq!(total, Duration::from_micros(100 + 10 + 20));
    }

    #[test]
    fn tracer_nests_spans_and_records_after_return() {
        let tracer = Tracer::new();
        let mut log = Vec::new();
        let value = tracer.span(&mut log, "outer", None, Some(7), |outer, log| {
            tracer.span(log, "inner", Some(outer), Some(7), |_, _| 41) + 1
        });
        assert_eq!(value, 42);
        assert_eq!(log.len(), 2);
        let (inner, outer) = (&log[0], &log[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_ne!(inner.id, outer.id);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(durations(&log, "outer").count(), 1);
        let own = self_times(&log);
        assert_eq!(own["outer"] + own["inner"], outer.duration());
    }
}
