//! Spans recorded by the traced run around its calls into each layer.
//!
//! Each operation is one root span (`op`) with child spans for the
//! layers it crosses. A layer's self time is its span's duration minus
//! the part of it that its child spans cover. Every operation feeds the
//! per-layer totals; the raw spans of the first [`KEEP_OPS`] operations
//! stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Operations whose raw spans are kept for the trace file.
pub const KEEP_OPS: usize = 2000;

/// One span of one operation, as the workload builds it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `orb.dispatch`.
    pub name: &'static str,
    /// Index of the parent span within the operation (`None` for the root).
    pub parent: Option<usize>,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
}

impl Span {
    /// A span under `parent`.
    pub fn new(name: &'static str, parent: usize, start: Instant, end: Instant) -> Span {
        Span {
            name,
            parent: Some(parent),
            start,
            end,
        }
    }

    fn ns(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_nanos() as f64
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Spans seen.
    pub count: u64,
    /// Sum of durations, ns.
    pub dur_ns: f64,
    /// Sum of self times, ns.
    pub self_ns: f64,
}

impl Acc {
    /// Mean duration in ns (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.dur_ns / self.count as f64
        }
    }
}

#[derive(Debug)]
struct Kept {
    op: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    ops: u64,
    acc: BTreeMap<&'static str, Acc>,
    kept: Vec<Kept>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty store; span times in the trace file count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            ops: 0,
            acc: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    /// Records one operation's spans; `spans[0]` is its root.
    pub fn record(&mut self, spans: &[Span]) {
        let op = self.ops;
        self.ops += 1;
        for (i, span) in spans.iter().enumerate() {
            let mut children: Vec<(Instant, Instant)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start.max(span.start), c.end.min(span.end)))
                .filter(|(s, e)| e > s)
                .collect();
            children.sort();
            let mut covered = 0.0;
            let mut reach = span.start;
            for (s, e) in children {
                let s = s.max(reach);
                if e > s {
                    covered += (e - s).as_nanos() as f64;
                    reach = e;
                }
            }
            let acc = self.acc.entry(span.name).or_default();
            acc.count += 1;
            acc.dur_ns += span.ns();
            acc.self_ns += (span.ns() - covered).max(0.0);
            if (op as usize) < KEEP_OPS {
                self.kept.push(Kept {
                    op,
                    name: span.name,
                    parent: span.parent.map(|p| spans[p].name),
                    start_ns: span.start.saturating_duration_since(self.epoch).as_nanos() as u64,
                    end_ns: span.end.saturating_duration_since(self.epoch).as_nanos() as u64,
                });
            }
        }
    }

    /// Adds another store's spans (a second caller thread's) to this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, acc) in other.acc {
            let mine = self.acc.entry(name).or_default();
            mine.count += acc.count;
            mine.dur_ns += acc.dur_ns;
            mine.self_ns += acc.self_ns;
        }
        let offset = self.ops;
        self.ops += other.ops;
        self.kept.extend(other.kept.into_iter().map(|mut k| {
            k.op += offset;
            k.start_ns += other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
            k.end_ns += other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
            k
        }));
    }

    /// Totals of spans named `name`.
    pub fn get(&self, name: &str) -> Acc {
        self.acc.get(name).copied().unwrap_or_default()
    }

    /// Share of the root spans' time covered by layer spans: the sum of
    /// every layer's self time over the sum of root durations.
    pub fn coverage(&self) -> f64 {
        let root = self.get("op");
        if root.dur_ns == 0.0 {
            return 0.0;
        }
        1.0 - root.self_ns / root.dur_ns
    }

    /// Writes the kept spans as tab-separated lines
    /// (`op name parent start_ns end_ns`).
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tparent\tstart_ns\tend_ns")?;
        for k in &self.kept {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                k.op,
                k.name,
                k.parent.unwrap_or("-"),
                k.start_ns,
                k.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tracer = Tracer::new();
        tracer.record(&[
            Span {
                name: "op",
                parent: None,
                start: at(0),
                end: at(100),
            },
            Span::new("a", 0, at(10), at(90)),
            Span::new("b", 1, at(20), at(40)),
            Span::new("c", 1, at(30), at(60)),
        ]);
        assert_eq!(tracer.get("op").self_ns, 20_000.0);
        // b and c overlap: together they cover 20..60.
        assert_eq!(tracer.get("a").self_ns, 40_000.0);
        assert!((tracer.coverage() - 0.8).abs() < 1e-9);
    }
}
