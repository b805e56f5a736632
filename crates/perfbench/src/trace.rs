//! Spans around the benchmark's own calls into each layer.
//!
//! A [`Tracer`] that is off records nothing and reads no clock, so the
//! untraced pass pays for a branch per call site. Spans are kept in memory
//! and written out when the run ends.

use crate::json::{obj, Json};
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `topology.build` or `sim.run_until.slice`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An open span, to be handed back to [`Tracer::end`].
#[must_use = "a span that is never ended is never recorded"]
pub struct Open(Option<usize>);

/// Span recorder for one workload run.
pub struct Tracer {
    /// `None` when tracing is off.
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self { origin: None, spans: Vec::new(), stack: Vec::new() }
    }

    /// A recording tracer; time zero is now.
    pub fn on() -> Self {
        Self { origin: Some(mptcp_netsim::wall_clock()), ..Self::off() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let Some(origin) = self.origin else { return Open(None) };
        let id = self.spans.len();
        let start_ns = Self::now_ns(origin);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: self.stack.last().copied() });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span. Spans close innermost first.
    pub fn end(&mut self, open: Open) {
        let (Some(origin), Some(id)) = (self.origin, open.0) else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = Self::now_ns(origin);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        // `Sum` starts from -0.0, which would print as "-0" for no spans.
        self.spans.iter().filter(|s| s.name == name).fold(0.0, |total, s| total + s.secs())
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children =
            self.spans.iter().filter(|s| s.parent == Some(id)).fold(0.0, |total, s| total + s.secs());
        self.spans[id].secs() - children
    }

    /// The trace file's content: every span with its name, start, end,
    /// parent and the workload they all belong to.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("id", (id as u64).into()),
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                    ("self_s", self.self_secs(id).into()),
                    ("workload", workload.into()),
                ])
            })
            .collect();
        obj([("workload", workload.into()), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::on();
        let outer = tr.begin("setup");
        tr.span("topology.build", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        tr.span("arena.add_connection", || ());
        tr.end(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let children = s[1].secs() + s[2].secs();
        assert!((tr.self_secs(0) - (s[0].secs() - children)).abs() < 1e-12);
        assert_eq!(tr.total_secs("topology.build"), s[1].secs());
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let open = tr.begin("x");
        assert_eq!(tr.span("y", || 5), 5);
        tr.end(open);
        assert!(tr.spans().is_empty() && !tr.is_on());
    }

    #[test]
    fn trace_file_names_every_field() {
        let mut tr = Tracer::on();
        tr.span("sim.run_until.slice", || ());
        let j = tr.to_json("wan_lossy4");
        let span = &j.get("spans").and_then(Json::as_arr).unwrap()[0];
        for key in ["id", "name", "start_ns", "end_ns", "parent", "self_s", "workload"] {
            assert!(span.get(key).is_some(), "span lacks {key}");
        }
        assert_eq!(Json::parse(&j.to_line()), Ok(j));
    }
}
