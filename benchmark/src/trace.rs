//! In-memory spans recorded from the harness's own call sites (one
//! per repetition, cell, `exec` closure, HTTP request and layer-replay
//! call) and written out when the run ends. Spans inside the program
//! under test are a later change.

use serde_json::Value;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, String)>,
}

/// Handle of an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<u32>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`. With tracing off this records
    /// nothing and costs one branch.
    pub fn open(
        &self,
        parent: SpanId,
        layer: &'static str,
        name: &str,
        attrs: Vec<(&'static str, String)>,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no tracer user panics mid-push");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent: parent.0,
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            attrs,
        });
        SpanId(Some(id))
    }

    pub fn close(&self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no tracer user panics mid-push");
        spans[id as usize].end_ns = end_ns;
    }

    /// Adds an attribute learnt while the span was open (an HTTP
    /// status, say).
    pub fn annotate(&self, id: SpanId, key: &'static str, value: String) {
        let Some(id) = id.0 else { return };
        let mut spans = self.spans.lock().expect("no tracer user panics mid-push");
        spans[id as usize].attrs.push((key, value));
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no tracer user panics mid-push")
            .clone()
    }

    /// Writes `{header..., "self_ns_by_layer": {...}, "spans": [...]}`.
    pub fn write(&self, path: &Path, header: Vec<(String, Value)>) -> std::io::Result<()> {
        let spans = self.snapshot();
        let selfs = self_times(&spans);
        let mut by_layer: Vec<(String, u64)> = Vec::new();
        for (span, self_ns) in spans.iter().zip(&selfs) {
            match by_layer.iter_mut().find(|(l, _)| l == span.layer) {
                Some((_, total)) => *total += self_ns,
                None => by_layer.push((span.layer.to_string(), *self_ns)),
            }
        }
        let span_values = spans
            .iter()
            .zip(&selfs)
            .map(|(s, self_ns)| {
                let mut fields = vec![
                    ("id".to_string(), Value::Int(s.id as i64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                    ),
                    ("layer".to_string(), Value::Str(s.layer.to_string())),
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("start_ns".to_string(), Value::Int(s.start_ns as i64)),
                    ("end_ns".to_string(), Value::Int(s.end_ns as i64)),
                    ("self_ns".to_string(), Value::Int(*self_ns as i64)),
                ];
                if !s.attrs.is_empty() {
                    fields.push((
                        "attrs".to_string(),
                        Value::Object(
                            s.attrs
                                .iter()
                                .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
                                .collect(),
                        ),
                    ));
                }
                Value::Object(fields)
            })
            .collect();
        let mut doc = header;
        doc.push((
            "self_ns_by_layer".to_string(),
            Value::Object(
                by_layer
                    .into_iter()
                    .map(|(l, ns)| (l, Value::Int(ns as i64)))
                    .collect(),
            ),
        ));
        doc.push(("spans".to_string(), Value::Array(span_values)));
        let text = serde_json::to_string(&Value::Object(doc)).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children — two
/// client threads under one root — are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(cursor, s.end_ns);
                let end = end.clamp(cursor, s.end_ns);
                covered += end - start;
                cursor = end;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "t",
            name: String::new(),
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_child_intervals() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1 on 20..30: that stretch counts once.
            span(2, Some(0), 20, 50),
            // Runs past its parent: clipped at 100.
            span(3, Some(0), 90, 120),
            // A grandchild takes nothing from the root.
            span(4, Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open(SpanId::NONE, "x", "y", Vec::new());
        t.annotate(id, "k", "v".into());
        t.close(id);
        assert_eq!(id, SpanId::NONE);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn spans_nest_by_explicit_parent_and_close_after_they_open() {
        let t = Tracer::new(true);
        let root = t.open(SpanId::NONE, "harness", "root", Vec::new());
        for _ in 0..2 {
            let cell = t.open(root, "core", "cell", vec![("p", "8".to_string())]);
            t.close(cell);
        }
        t.close(root);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
