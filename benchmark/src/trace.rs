//! Harness-side spans: one record around each public call into a layer.
//!
//! Spans are kept in memory and written as JSON lines when the run ends.
//! A disabled tracer records nothing, so end-to-end metrics are measured
//! with tracing off and the traced run's slowdown is itself a metric.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded call: nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Timed repetition the span belongs to (0 for set-up and checks).
    pub rep: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when disabled.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), rep: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    /// `self_ns` is the span's time outside its child spans.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self_times_ns(&self.spans);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(own[id] as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("workload", Json::str(workload)),
                ("rep", Json::Num(f64::from(s.rep))),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// its interval that its direct children cover (overlapping children are
/// counted once, and a child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (a, b) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(parent, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = parent.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(frontier);
                if b > a {
                    covered += b - a;
                    frontier = b;
                }
            }
            (parent.end_ns - parent.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, rep: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once_and_clips_them() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 130, Some(0)),
            span("b", 120, 150, Some(0)), // overlaps a by 10
            span("c", 190, 260, Some(0)), // runs past the parent's end
            span("grandchild", 112, 118, Some(1)),
            span("other", 0, 1_000, None),
        ];
        // Children cover [110,150) and [190,200): 50 of the parent's 100.
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 50);
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[4], 6);
        assert_eq!(own[5], 1_000);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.rep = 3;
        t.scope("inner", || ());
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].rep, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.durations("inner").len(), 1);

        let mut off = Tracer::new(false);
        off.scope("x", || ());
        assert!(off.spans.is_empty());
    }
}
