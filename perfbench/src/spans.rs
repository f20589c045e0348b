//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API. Nothing inside the program is instrumented: a span
//! covers exactly one call made from this crate, or a parent grouping of
//! such calls for one request.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The decision or request the span served (0 when none applies).
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled recorder runs the timed closures and records
/// nothing, so the same loop measures the untraced cost.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open until [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request_id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request_id);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the most recently opened span, in microseconds.
    pub fn last_us(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e3)
    }

    /// Durations in microseconds of the spans called `name` recorded at or
    /// after index `from`.
    pub fn durations_us_since(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request_id\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// child time outside the parent ignored).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn child_time_outside_the_parent_is_ignored() {
        let spans = [
            span(100, 200, None),
            span(50, 150, Some(0)),
            span(190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn a_leaf_is_all_self_time() {
        assert_eq!(self_times(&[span(5, 9, None)]), vec![4]);
    }

    #[test]
    fn disabled_recorder_runs_the_call_and_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", None, 1, || 7), 7);
        assert!(spans.spans().is_empty());
        let mut on = Spans::new(true);
        let parent = on.open("request", None, 9);
        on.time("call", Some(parent), 9, || ());
        on.close(parent);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.durations_us_since("call", 0).len(), 1);
    }
}
