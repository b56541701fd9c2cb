//! Benchmark-side spans around the calls into each layer.
//!
//! Spans are recorded from the benchmark's own files, kept in memory and
//! written out when the run ends; spans inside the program are a later
//! change. With the tracer off, `begin`/`end` are one branch each.

use crate::json::Json;
use std::time::Instant;

/// Handle of an open or closed span (`None` when tracing is off).
pub type SpanId = Option<usize>;

#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `engine.run_query`.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The pass the span belongs to (spans of one pass share it); `None`
    /// for set-up and probes.
    pub pass: Option<u32>,
}

pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str, parent: SpanId, pass: Option<u32>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            pass,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `work` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &str,
        parent: SpanId,
        pass: Option<u32>,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, pass);
        let out = work();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: call count, total seconds, and self seconds (duration
    /// minus what child spans cover), sorted by name.
    pub fn rollup(&self) -> Vec<(String, u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered);
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| {
                (name.to_string(), n, total as f64 / 1e9, own as f64 / 1e9)
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map(Json::Int).unwrap_or(Json::Null);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Int(id as u64)),
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("parent", opt(s.parent.map(|p| p as u64))),
                        ("pass", opt(s.pass.map(u64::from))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a.b", None, None);
        t.end(id);
        assert_eq!(t.scope("c.d", id, Some(1), || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let pass = t.begin("harness.pass", None, Some(0));
        let cell = t.begin("engine.run_query", pass, Some(0));
        t.end(cell);
        t.end(pass);
        // Fix the clock so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 70;
        let rollup = t.rollup();
        assert_eq!(rollup[0], ("engine.run_query".to_string(), 1, 60e-9, 60e-9));
        assert_eq!(rollup[1].0, "harness.pass");
        assert!((rollup[1].2 - 100e-9).abs() < 1e-15);
        assert!((rollup[1].3 - 40e-9).abs() < 1e-15);
        let json = t.to_json().line();
        assert!(json.contains(r#""name": "engine.run_query""#));
        assert!(json.contains(r#""parent": 0"#));
        assert!(json.contains(r#""parent": null"#));
    }
}
