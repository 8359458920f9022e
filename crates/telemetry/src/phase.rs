//! One recording per phase: a histogram sample and a trace span from the
//! same pair of clock reads.
//!
//! A [`Phase`] is resolved once, at bind or connect, from a histogram name
//! and a span name. Every interval it times goes to the histogram, and to
//! the flight recorder as a span when it has a parent context whose trace
//! is sampled (or the span is errored or forced), so `/metrics` and
//! `/trace.json` agree on it. Phases from a disabled registry never read
//! the clock.

use crate::histogram::Histogram;
use crate::trace::{TraceContext, TraceSpan, Tracer};
use std::time::Instant;

/// A pre-resolved phase handle; see the module docs and
/// [`Registry::phase`](crate::Registry::phase).
#[derive(Clone)]
pub struct Phase {
    pub(crate) hist: Histogram,
    pub(crate) tracer: Tracer,
    pub(crate) span: Box<str>,
}

impl Phase {
    /// Starts timing now; the guard records when dropped. Without a
    /// `parent` only the histogram records.
    pub fn start(&self, parent: Option<&TraceContext>) -> PhaseGuard<'_> {
        let start = self.hist.is_enabled().then(Instant::now);
        let span = match (parent, start) {
            (Some(p), Some(t)) => self.tracer.child_span_at(&self.span, p, t),
            _ => TraceSpan::disabled(),
        };
        PhaseGuard {
            hist: &self.hist,
            span,
            start,
        }
    }

    /// Records an interval that has already ended — for phases that end
    /// before their parent span exists (request read, queue wait) or
    /// whose two ends are seen in different places (response write).
    pub fn record(&self, parent: Option<&TraceContext>, start: Instant, end: Instant) {
        self.hist
            .record_duration(end.saturating_duration_since(start));
        if let Some(p) = parent.filter(|p| p.sampled()) {
            self.tracer.child_span_at(&self.span, p, start).end_at(end);
        }
    }
}

/// A running phase; see [`Phase::start`].
#[must_use = "a phase records when dropped; binding it to _ drops immediately"]
pub struct PhaseGuard<'a> {
    hist: &'a Histogram,
    /// The phase's span: hand its context to child spans, tag it or mark
    /// it failed. It ends when the guard drops.
    pub span: TraceSpan,
    start: Option<Instant>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let end = Instant::now();
            self.hist.record_duration(end - start);
            self.span.end_at(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Registry, TraceConfig};
    use std::time::{Duration, Instant};

    fn traced(sample_one_in: u64) -> Registry {
        let reg = Registry::new();
        reg.set_trace_config(TraceConfig::new().sample_one_in(sample_one_in));
        reg
    }

    #[test]
    fn guard_feeds_one_duration_to_both_sinks() {
        let reg = traced(1);
        let phase = reg.phase("stage_ns", "stage");
        let root = reg.tracer().root_span("root");
        {
            let _g = phase.start(Some(&root.context()));
            std::thread::sleep(Duration::from_millis(3));
        }
        let snap = reg.histogram("stage_ns").snapshot();
        let spans = reg.tracer().snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "stage");
        assert_eq!(spans[0].parent_id, root.context().span_id);
        assert_eq!(spans[0].dur_us, snap.sum / 1000, "same duration");
        assert!(snap.sum >= 3_000_000);
    }

    #[test]
    fn record_covers_exactly_the_given_interval() {
        let reg = traced(1);
        let phase = reg.phase("read_ns", "read");
        let root = reg.tracer().root_span("root");
        let start = Instant::now();
        let end = start + Duration::from_micros(1500);
        phase.record(Some(&root.context()), start, end);
        assert_eq!(reg.histogram("read_ns").snapshot().sum, 1_500_000);
        assert_eq!(reg.tracer().snapshot()[0].dur_us, 1500);
    }

    #[test]
    fn unsampled_or_parentless_phases_record_only_the_histogram() {
        let reg = traced(u64::MAX);
        let phase = reg.phase("h_ns", "h");
        drop(reg.tracer().root_span("burns.the.sampled.ticket"));
        let before = reg.tracer().recorded_total();
        let root = reg.tracer().root_span("unsampled");
        drop(phase.start(Some(&root.context())));
        drop(phase.start(None));
        let now = Instant::now();
        phase.record(Some(&root.context()), now, now);
        phase.record(None, now, now);
        assert_eq!(reg.histogram("h_ns").snapshot().count, 4);
        assert_eq!(reg.tracer().recorded_total(), before);
    }

    #[test]
    fn an_errored_guard_records_under_an_unsampled_parent() {
        let reg = traced(u64::MAX);
        let phase = reg.phase("h_ns", "h");
        drop(reg.tracer().root_span("burns.the.sampled.ticket"));
        let root = reg.tracer().root_span("unsampled");
        let mut g = phase.start(Some(&root.context()));
        assert_ne!(g.span.context().span_id, 0, "context is handed out");
        g.span.set_error();
        drop(g);
        let spans = reg.tracer().snapshot();
        assert!(spans.iter().any(|s| s.name == "h" && s.error));
    }

    #[test]
    fn disabled_phase_records_nothing() {
        let reg = Registry::disabled();
        let phase = reg.phase("x_ns", "x");
        drop(phase.start(None));
        let now = Instant::now();
        phase.record(None, now, now);
        assert_eq!(reg.histogram("x_ns").snapshot().count, 0);
    }
}
