//! The benchmark's own span recorder: spans are kept in memory during the
//! traced run, reduced to per-layer self times, and written out as JSON
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's base;
/// `parent` is an index into the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub call: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of the traced run, in start order.
pub struct Recorder {
    base: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing spans from `base` (share one base across
    /// threads so their spans line up).
    pub fn new(base: Instant) -> Recorder {
        Recorder {
            base,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, call: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            call,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        call: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, call, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Spans as a JSON array, one object per span; `parent` is an index
/// into the array.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"call\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.call, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self-time samples (ns) per span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t as f64);
    }
    out
}

/// Share of root-span wall time that no child layer accounts for:
/// 1 − (sum of layer self times ÷ sum of root durations), where the
/// layers are every non-root span.
pub fn residual_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut wall, mut layers) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(selfs) {
        match s.parent {
            None => wall += s.dur_ns(),
            Some(_) => layers += t,
        }
    }
    if wall == 0 {
        return 0.0;
    }
    1.0 - layers as f64 / wall as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            call: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("call", None, 0, 100),
            span("encode", Some(0), 10, 30),
            span("send", Some(0), 30, 90),
            span("inner", Some(2), 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 60, 20, 50, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("call", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 40, 60),
            span("c", Some(0), 90, 120),
        ];
        // Covered: [10, 60) and [90, 100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn residual_is_uncovered_root_time() {
        let spans = vec![
            span("call", None, 0, 100),
            span("encode", Some(0), 0, 40),
            span("send", Some(0), 40, 90),
            span("call", None, 100, 200),
            span("encode", Some(3), 100, 200),
        ];
        // Layers cover 90 of the first call and all of the second.
        assert!((residual_share(&spans) - 10.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_and_exports_json() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.begin("call", 7, None);
        rec.span("encode", 7, Some(root), || std::hint::black_box(1 + 1));
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = to_json(rec.spans());
        assert!(json.contains("\"name\":\"encode\",\"call\":7,\"parent\":0"));
    }
}
