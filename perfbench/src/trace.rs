//! The benchmark's own span recorder and `elivagar_obs` counter deltas.
//!
//! Spans are taken from outside the program, around calls into each
//! layer's public functions; nothing is traced inside the library. Spans
//! stay in memory and are written out once, when the run ends.

use elivagar_obs::metrics::{snapshot, MetricsSnapshot};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

/// Records nested spans while enabled; does nothing (no clock reads)
/// while disabled.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off. Spans left open by a panicking job are
    /// dropped from the stack, keeping their start as their end.
    pub fn set_enabled(&mut self, on: bool) {
        self.stack.clear();
        self.enabled = on;
    }

    pub fn begin(&mut self, name: &'static str, job: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, job);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Total self time, in seconds, of the spans named `name`: each span's
    /// duration minus the part its direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut total = 0;
        for (id, span) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            let children: Vec<(u64, u64)> = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            total += crate::stats::self_time(span.start_ns, span.end_ns, &children);
        }
        total as f64 * 1e-9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.job
            )?;
        }
        out.flush()
    }
}

/// Activity of the process-global `elivagar_obs` counters and histograms
/// between two points of the run.
pub struct ObsDelta(MetricsSnapshot);

/// A point to diff against later.
pub struct ObsMark(MetricsSnapshot);

impl ObsMark {
    pub fn now() -> Self {
        ObsMark(snapshot())
    }

    pub fn delta(&self) -> ObsDelta {
        ObsDelta(snapshot().since(&self.0))
    }

    pub fn delta_to(&self, later: &ObsMark) -> ObsDelta {
        ObsDelta(later.0.since(&self.0))
    }
}

impl ObsDelta {
    pub fn counter(&self, name: &str) -> f64 {
        assert!(
            self.0.counters.iter().any(|&(n, _)| n == name),
            "no elivagar_obs counter named {name}"
        );
        self.0.counter(name) as f64
    }

    /// Sum of a nanosecond histogram, in seconds.
    pub fn hist_s(&self, name: &str) -> f64 {
        let (_, h) = self
            .0
            .histograms
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no elivagar_obs histogram named {name}"));
        h.sum as f64 * 1e-9
    }
}
