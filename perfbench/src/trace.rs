//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name (`<layer>.<call>`), start, end, its parent span and,
//! on the serve workload, the id of the request it belongs to. Spans live
//! in memory until the run ends and are then written out in one piece, so
//! recording costs two clock reads and a push. With tracing off, `span`
//! runs the closure and reads no clock at all.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layers whose self time the traced run reports, in report order. A span
/// belongs to the layer its name starts with.
pub const LAYERS: [&str; 7] =
    ["bench", "core", "par", "supervised", "service", "planner", "spmspv"];

/// One recorded span. Ids start at 1; `parent == 0` marks a root and
/// `req == 0` a span outside any request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer prefix of the span's name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent child spans (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = Span { id, parent, name, req, start_ns: start, end_ns: end };
        self.spans.lock().expect("a thread panicked while recording a span").push(span);
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("a thread panicked while recording a span").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Seconds of self time per layer: each span's duration minus the part
/// of it that its children cover, summed over the layer's spans.
pub fn self_time_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, req: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "bench.pcg", 0, 100),
            span(2, 1, "par.spmv", 10, 40),
            span(3, 1, "par.spmv", 30, 50),
            span(4, 1, "core.spmv", 70, 80),
        ];
        let st = self_time_s(&spans);
        assert!((st["bench"] - 50e-9).abs() < 1e-15);
        assert!((st["par"] - 50e-9).abs() < 1e-15);
        assert!((st["core"] - 10e-9).abs() < 1e-15);
        assert_eq!(st["service"], 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.spmv", 0, 0, |id| id), 0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let id = t.span("bench.x", 0, 7, |outer| t.span("core.y", outer, 7, |_| outer));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.iter().find(|s| s.name == "core.y").map(|s| s.parent), Some(id));
    }
}
