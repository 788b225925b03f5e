//! The benchmark's own in-memory span list.
//!
//! Spans are recorded around the benchmark's calls into each layer's public
//! functions (spans *inside* the er-* crates are a later issue). Everything
//! stays in memory until the run ends; [`Tracer::to_json`] is written once.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `run` groups the spans of one traced repetition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// A single-threaded, stack-disciplined span recorder: a span's parent is
/// whatever span was open when it was entered.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Starts the next traced repetition; returns its run id.
    pub fn begin_run(&mut self) -> u32 {
        assert!(self.open.is_empty(), "a run starts with no span open");
        self.run += 1;
        self.run
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans exit in stack order");
        self.spans[id.0].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.run,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover. The tracer is stack-disciplined, so the direct children of a span
/// never overlap and their coverage is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time in seconds summed per span name, for the spans of one run.
pub fn self_seconds_by_name(spans: &[Span], run: u32) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if s.run == run {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            run: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children_from_the_parent_only() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 40]);
    }

    #[test]
    fn self_time_of_nested_children_charges_each_level_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("mid", Some(0), 10, 90),
            span("leaf", Some(1), 20, 50),
            span("leaf", Some(1), 60, 70),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![20, 40, 30, 10]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times sum to the root");
        let by_name = self_seconds_by_name(&spans, 1);
        assert_eq!(by_name["leaf"], 40e-9);
        assert!(self_seconds_by_name(&spans, 2).is_empty());
    }

    #[test]
    fn tracer_assigns_parents_from_the_open_stack() {
        let mut t = Tracer::new();
        assert_eq!(t.begin_run(), 1);
        let root = t.enter("root");
        let a = t.enter("a");
        t.exit(a);
        let b = t.enter("b");
        t.exit(b);
        t.exit(root);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(t.spans()[0].duration_ns() >= t.spans()[1].duration_ns());
        assert!(t.to_json("w").contains("\"parent\": null"));
    }
}
