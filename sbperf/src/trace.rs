//! In-memory spans recorded around each call into a layer.

use std::time::Instant;

use serde::Serialize;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Layer name.
    pub name: String,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work done inside the span (sessions, events, calls, bytes).
    pub count: u64,
}

/// Records nested spans; nothing leaves memory until the caller writes
/// [`Tracer::spans`] out.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            count: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Add `n` to the innermost open span's count.
    pub fn count(&mut self, n: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].count += n;
        }
    }

    /// Total seconds spent in spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.end - s.start).sum()
    }

    /// Total count of spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.count).sum()
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.end - s.start).collect()
    }

    /// Give `name` an empty span if no span carries it yet, so every
    /// layer appears in every trace.
    pub fn ensure(&mut self, name: &str) {
        if self.named(name).next().is_none() {
            self.span(name, |_| ());
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Every span recorded, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_count_and_sum() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            for _ in 0..2 {
                tr.span("inner", |tr| tr.count(3));
            }
        });
        tr.ensure("absent");
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(tr.total("inner"), 6);
        assert_eq!(tr.durations("inner").len(), 2);
        assert!(tr.seconds("outer") >= tr.seconds("inner"));
        assert_eq!(tr.total("absent"), 0);
    }
}
