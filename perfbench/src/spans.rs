//! The benchmark's own spans: one around each call into a layer's public
//! function, kept in memory and written out when the run ends.
//!
//! A span records its name (`layer.Function`), start, end, parent span
//! and operation id. A layer's self time is its spans' durations minus
//! the part of each interval that child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder. A disabled recorder costs one branch per
/// span.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Open a span; it closes when the guard drops.
    pub fn enter(&self, name: &'static str, parent: Option<u64>, op: u64) -> Span<'_> {
        if !self.enabled {
            return Span(None);
        }
        Span(Some(OpenSpan {
            spans: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start: Instant::now(),
        }))
    }

    /// Every finished span, in the order they closed.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().expect("span lock poisoned").clone()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.records
            .lock()
            .expect("span lock poisoned")
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.duration_ns() as f64 / 1e6)
            .collect()
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

struct OpenSpan<'a> {
    spans: &'a Spans,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start: Instant,
}

/// Guard of an open span.
pub struct Span<'a>(Option<OpenSpan<'a>>);

impl Span<'_> {
    /// The span's id, to pass as the parent of nested spans; `None` when
    /// recording is off.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|s| s.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(s) = self.0.take() else { return };
        let end = Instant::now();
        let record = SpanRecord {
            id: s.id,
            parent: s.parent,
            op: s.op,
            name: s.name,
            start_ns: s.spans.ns_since_origin(s.start),
            end_ns: s.spans.ns_since_origin(end),
        };
        if let Ok(mut records) = s.spans.records.lock() {
            records.push(record);
        }
    }
}

/// Self time of each span, in nanoseconds, in the order of `records`:
/// its duration minus the union of its children's intervals clipped to
/// its own.
pub fn self_times(records: &[SpanRecord]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        if let Some(p) = r.parent {
            children.entry(p).or_default().push((r.start_ns, r.end_ns));
        }
    }
    records
        .iter()
        .map(|r| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&r.id)
                .into_iter()
                .flatten()
                .map(|&(s, e)| (s.max(r.start_ns), e.min(r.end_ns)))
                .filter(|&(s, e)| s < e)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = r.start_ns;
            for (s, e) in kids {
                let s = s.max(cursor);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            r.duration_ns() - covered
        })
        .collect()
}

/// Per-layer totals: span count, total duration and self time (ns).
pub fn layer_summary(records: &[SpanRecord]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (r, own) in records.iter().zip(self_times(records)) {
        let e = out.entry(r.layer()).or_default();
        e.0 += 1;
        e.1 += r.duration_ns();
        e.2 += own;
    }
    out
}

/// Write every span and the per-layer self-time summary as JSON.
pub fn write_json(
    path: &Path,
    workload: &str,
    seed: u64,
    records: &[SpanRecord],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"schema\": \"batsolv-perfbench/spans/v1\",")?;
    writeln!(out, "\"workload\": \"{workload}\", \"seed\": {seed},")?;
    writeln!(out, "\"layers\": {{")?;
    let summary = layer_summary(records);
    for (k, (layer, (count, total, own))) in summary.iter().enumerate() {
        let sep = if k + 1 < summary.len() { "," } else { "" };
        writeln!(
            out,
            "  \"{layer}\": {{\"spans\": {count}, \"total_ms\": {}, \"self_ms\": {}}}{sep}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        )?;
    }
    writeln!(out, "}},")?;
    writeln!(out, "\"spans\": [")?;
    let selfs = self_times(records);
    for (k, (r, own)) in records.iter().zip(selfs).enumerate() {
        let sep = if k + 1 < records.len() { "," } else { "" };
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{sep}",
            r.id, r.op, r.name, r.start_ns, r.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 0,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let records = vec![
            rec(1, None, "bench.op", 0, 100),
            // Two overlapping children cover [10, 50); a third [60, 70).
            rec(2, Some(1), "runtime.a", 10, 40),
            rec(3, Some(1), "runtime.b", 30, 50),
            rec(4, Some(1), "fleet.c", 60, 70),
            // A grandchild counts against its parent only.
            rec(5, Some(2), "formats.d", 15, 25),
            // A child running past its parent is clipped.
            rec(6, Some(4), "solvers.e", 65, 90),
        ];
        assert_eq!(self_times(&records), vec![50, 20, 20, 5, 10, 25]);
        let layers = layer_summary(&records);
        assert_eq!(layers["bench"], (1, 100, 50));
        assert_eq!(layers["runtime"], (2, 50, 40));
        assert_eq!(layers["fleet"], (1, 10, 5));
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let spans = Spans::new(true);
        {
            let outer = spans.enter("bench.op", None, 7);
            let _inner = spans.enter("runtime.x", outer.id(), 7);
        }
        let r = spans.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].name, "runtime.x");
        assert_eq!(r[0].parent, Some(r[1].id));
        assert!(r[1].start_ns <= r[0].start_ns && r[0].end_ns <= r[1].end_ns);
        assert_eq!(spans.durations_ms("runtime.x").len(), 1);

        let off = Spans::new(false);
        let g = off.enter("bench.op", None, 0);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(off.records().is_empty());
    }
}
