//! In-memory spans around the calls into each layer, recorded from the
//! benchmark's side of the API (spans inside the program are a later
//! change). A disabled recorder only runs the closure, so the timed
//! passes share their code with the traced one.

use std::time::Instant;

use desim::Json;

/// One recorded call.
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub workload: &'static str,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The span recorder of one process.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            workload: "",
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from here on belong to `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the recorder it is handed become children.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_s: 0.0,
            end_s: 0.0,
            parent: self.open.last().copied(),
            workload: self.workload,
        });
        self.open.push(id);
        self.spans[id].start_s = self.origin.elapsed().as_secs_f64();
        let out = f(self);
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        self.open.pop();
        out
    }

    /// A leaf span around one call.
    pub fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.scope(name, |_| f())
    }

    /// Total seconds of `workload`'s spans called `name`.
    pub fn seconds(&self, workload: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// `{name, start, end, parent, workload}` per span, times in seconds
    /// since the recorder was made.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", s.name.as_str())
                    .with("start", s.start_s)
                    .with("end", s.end_s)
                    .with("parent", s.parent.map_or(Json::Null, Json::from))
                    .with("workload", s.workload)
            })
            .collect();
        Json::obj().with("spans", Json::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_know_their_parent() {
        let mut s = Spans::new(true);
        s.set_workload("w");
        s.scope("pass", |s| {
            s.call("a", || ());
            s.call("a", || ());
        });
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        assert!(s.seconds("w", "pass") >= s.seconds("w", "a"));
        assert_eq!(s.seconds("other", "pass"), 0.0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.call("a", || 7), 7);
        assert!(s.spans.is_empty());
    }
}
