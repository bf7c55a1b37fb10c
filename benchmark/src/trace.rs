//! Span recording for the traced run.
//!
//! The harness times every public call it makes with [`Tracer::timed`] or
//! [`Tracer::begin`]/[`Tracer::end`]; those timings feed the end-to-end
//! metrics whether or not tracing is on. With tracing on, each timing is
//! also kept as a span `{name, start_ns, end_ns, parent, iteration}` in
//! memory and written out once at exit. Spans inside the program are a
//! later change (ROADMAP item 3).

use std::time::{Duration, Instant};

use serde::Serialize;

/// Iteration number given to spans recorded during set-up and warm-up.
pub const SETUP: i64 = -1;
/// Iteration number given to spans recorded by the probes after the loop.
pub const PROBE: i64 = -2;

#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the span list.
    pub parent: Option<usize>,
    pub iteration: i64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to a span opened with [`Tracer::begin`].
pub struct Open {
    start: Instant,
    /// Index in the span list; `None` with tracing off.
    index: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    iteration: i64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: SETUP,
        }
    }

    /// Spans recorded from now on belong to this iteration.
    pub fn set_iteration(&mut self, iteration: i64) {
        self.iteration = iteration;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span that encloses later ones until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = self.since_origin(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                iteration: self.iteration,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Close a span; spans close in the reverse of the order they opened.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(index) = open.index {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = self.since_origin(now);
        }
        now.duration_since(open.start)
    }

    /// Time one call as a leaf span.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let value = f();
        (value, self.end(open))
    }

    /// Rename the span most recently closed (used to tell a `results` call
    /// that brought a new tree from one that did not, known only after).
    pub fn rename_last(&mut self, name: &'static str) {
        if self.enabled {
            if let Some(span) = self.spans.last_mut() {
                span.name = name;
            }
        }
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Every span's parent precedes it, encloses it and is of its iteration.
pub fn nesting_errors(spans: &[Span]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            errors.push(format!("span {i} `{}` ends before it starts", span.name));
        }
        let Some(p) = span.parent else { continue };
        if p >= i {
            errors.push(format!("span {i} `{}` names a later parent {p}", span.name));
            continue;
        }
        let parent = &spans[p];
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            errors.push(format!(
                "span {i} `{}` is not inside its parent `{}`",
                span.name, parent.name
            ));
        }
        if span.iteration != parent.iteration {
            errors.push(format!(
                "span {i} `{}` and its parent differ in iteration",
                span.name
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 > child 10..60 > grandchild 20..30
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_sibling_children() {
        // Siblings 10..20 and 40..70 leave 60 of the root's 100.
        let spans = [
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(40, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let mut off = Tracer::new(false);
        let open = off.begin("outer");
        off.timed("inner", || ());
        off.end(open);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.set_iteration(3);
        let open = on.begin("outer");
        on.timed("inner", || ());
        on.rename_last("renamed");
        on.end(open);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].iteration),
            ("outer", None, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("renamed", Some(0)));
        assert!(nesting_errors(spans).is_empty());
    }

    #[test]
    fn nesting_errors_are_reported() {
        let spans = [span(10, 20, None), span(5, 15, Some(0))];
        assert_eq!(nesting_errors(&spans).len(), 1);
    }
}
