//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out once the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: its name, its interval relative to the recorder's
/// origin, and the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point the span covers.
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. Spans nest: a span opened inside another's closure is
/// its child.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recorded: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), recorded: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span called `name`; spans `f` opens are children.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.recorded.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.recorded.push(Span { name: name.into(), start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.recorded[id].end_ns = self.now_ns();
        out
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.recorded
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.recorded.len()
    }

    /// Write every span as a JSON array of
    /// `{"name", "start_ns", "end_ns", "parent"}` objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.recorded.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.recorded.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_interval() {
        let mut spans = Spans::default();
        spans.time("outer", |s| {
            s.time("inner", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        spans.time("inner", |_| ());
        let outer = spans.durations_ms("outer")[0];
        let inner = spans.durations_ms("inner");
        assert!(inner[0] >= 20.0 && outer >= inner[0] + 5.0, "{outer} {inner:?}");
        assert_eq!(inner.len(), 2);
        assert_eq!(spans.recorded[1].parent, Some(0));
        assert_eq!(spans.recorded[2].parent, None);
        assert!(spans.recorded[0].start_ns <= spans.recorded[1].start_ns);
        assert!(spans.recorded[1].end_ns <= spans.recorded[0].end_ns);
        assert_eq!(spans.len(), 3);
    }
}
