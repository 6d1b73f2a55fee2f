//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the serial replicas make into a crate
//! (never inside the crates), kept in memory, and written out once the run
//! ends. Span names reuse the `xgft-obs` stage names (`core.compile`,
//! `core.patch`, `flow.loads`, `netsim.run`, `tracesim.replay`,
//! `analysis.*`), so a benchmark trace and an `xgft run --telemetry` trace
//! read the same way. The layer of a span is its name up to the first dot.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent / no id.
pub const NONE: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u64,
    /// Shard, epoch or point id, or [`NONE`].
    pub id: u64,
    /// Time inside `Network` trait calls made within this span, measured by
    /// the timing adapter (credited to `netsim`, not to this span's layer).
    pub net_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder. Disabled, every [`Tracer::span`] call is a plain
/// function call: no clock reads, no allocation.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name` with id `id`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.stack.last().map_or(NONE, |&p| p as u64);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            net_ns: 0,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Attribute `ns` of `Network`-call time to the innermost open span.
    pub fn add_net_ns(&mut self, ns: u64) {
        if let Some(&top) = self.stack.last() {
            self.spans[top].net_ns += ns;
        }
    }

    /// Append another tracer's spans, re-based onto this tracer's clock.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u64;
        let shift =
            u64::try_from(other.origin.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX);
        for mut s in other.spans {
            s.start_ns += shift;
            s.end_ns += shift;
            if s.parent != NONE {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration (s) of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        // A fold from +0.0: an empty f64 `sum()` is -0.0.
        self.durations_s(name).iter().fold(0.0, |a, b| a + b)
    }

    /// The durations (s) of every span called `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Summed `Network`-call time (s) over all spans.
    pub fn net_s(&self) -> f64 {
        self.spans.iter().map(|s| s.net_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Self time (ns) of every span: its duration minus its children's and
    /// minus its `Network`-call time.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c + s.net_ns))
            .collect()
    }

    /// Self time (s) per layer; `Network`-call time is credited to `netsim`.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0.0) += ns as f64 * 1e-9;
        }
        if self.spans.iter().any(|s| s.net_ns > 0) {
            *out.entry("netsim").or_insert(0.0) += self.net_s();
        }
        out
    }

    /// Self time (s) summed over every span called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 * 1e-9)
            .sum()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let id = if s.id == NONE {
                "null".to_string()
            } else {
                s.id.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{id},\"net_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.net_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_self_time_and_parents() {
        let mut t = Tracer::new(true);
        t.span("analysis.shard", 3, |t| {
            t.span("core.compile", NONE, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("tracesim.replay", NONE, |t| t.add_net_ns(500));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].net_ns, 500);
        assert_eq!(spans[0].id, 3);
        let self_ns = t.self_ns();
        assert_eq!(
            self_ns[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert!(t.total_s("core.compile") >= 0.002);
        let layers = t.layer_self_s();
        assert!(layers["core"] >= 0.002);
        assert!(layers.contains_key("netsim"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("core.compile", NONE, |t| t.span("netsim.run", 1, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
