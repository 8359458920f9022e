//! # sbq-telemetry
//!
//! Zero-dependency metrics and tracing for the SOAP-binQ stack: the
//! monitoring plane a continuous-quality-management system needs in
//! order to be *inspectable* — per-phase timings for the
//! marshal/convert/compress/transport pipeline, counters and gauges for
//! the transport runtime, and RTT/band metrics for the QoS layer.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path recording must cost nanoseconds.** Counters and
//!    histograms spread their writes over cache-line-padded atomic shards
//!    indexed per-thread; recording is a thread-local read plus a handful
//!    of relaxed atomic ops. No locks, no allocation, no syscalls.
//! 2. **Runtime-optional.** A [`Registry::disabled`] registry hands out
//!    handles that no-op (and phases that never read the clock), so
//!    instrumented code pays one branch when telemetry is off.
//! 3. **Zero dependencies.** `std` only — the offline-build rule of this
//!    workspace.
//!
//! ## Shape
//!
//! A [`Registry`] maps names to metrics and hands out cheaply-cloneable
//! handles ([`Counter`], [`Gauge`], [`Histogram`]); resolve handles once
//! and record through them (resolution takes a read-lock, recording never
//! does). A [`Phase`] times one stage of a call once and feeds that
//! duration to both a histogram and, under a sampled trace, a
//! [`TraceSpan`] — so `/metrics` and `/trace.json` agree. The process-wide
//! [`Registry::global`] is what the stack's layers default to; servers
//! expose it over `GET /metrics` (text exposition, see
//! [`Registry::render_text`]) and `GET /metrics.json`
//! ([`Registry::render_json`]).
//!
//! Metric names are dotted paths (`http.requests.post`, `qos.rtt_us`);
//! the text exposition rewrites them to underscore form. Histogram names
//! carry their unit as a suffix (`_ns`, `_us`).

pub mod expo;
pub mod health;
pub mod histogram;
pub mod metrics;
pub mod phase;
pub mod pool;
pub mod profile;
pub mod slo;
pub mod trace;

pub use health::{HealthConfig, HealthMonitor, HealthSnapshot, ProcSampler, Slowlog};
pub use histogram::{Exemplar, Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use phase::{Phase, PhaseGuard};
pub use pool::pool_observer;
pub use profile::PhaseProfile;
pub use slo::{SloConfig, SloEngine, SloSnapshot};
pub use trace::{SpanEvent, TraceConfig, TraceContext, TraceSpan, Tracer};

use histogram::HistCell;
use metrics::{CounterCell, GaugeCell};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};
use trace::TracerInner;

pub(crate) struct RegistryInner {
    pub(crate) counters: RwLock<BTreeMap<String, Arc<CounterCell>>>,
    pub(crate) gauges: RwLock<BTreeMap<String, Arc<GaugeCell>>>,
    pub(crate) histograms: RwLock<BTreeMap<String, Arc<HistCell>>>,
    pub(crate) tracer: OnceLock<Arc<TracerInner>>,
    pub(crate) trace_config: RwLock<TraceConfig>,
}

/// A named-metric registry; see the crate docs. Cloning is cheap (all
/// clones share the same metrics).
#[derive(Clone)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Read a lock, propagating a poisoner's panic payload instead of
/// surfacing `PoisonError` (registration never panics, so poison here
/// means a bug worth crashing on).
pub(crate) fn read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Metric names accept `[A-Za-z0-9._-]`; anything else becomes `_` so a
/// dynamic name (a message type, say) can never corrupt the exposition.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

pub(crate) fn get_or_insert<V: Default>(
    map: &RwLock<BTreeMap<String, Arc<V>>>,
    name: &str,
) -> Arc<V> {
    let name = sanitize(name);
    if let Some(v) = read(map).get(&name) {
        return Arc::clone(v);
    }
    Arc::clone(write(map).entry(name).or_default())
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(RegistryInner {
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
                tracer: OnceLock::new(),
                trace_config: RwLock::new(TraceConfig::new()),
            })),
        }
    }

    /// A registry whose handles all no-op (phases skip the clock read).
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// The process-wide registry every layer defaults to.
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::new)
    }

    /// Whether handles from this registry record anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter named `name` (registered on first use).
    pub fn counter(&self, name: &str) -> Counter {
        Counter(
            self.inner
                .as_ref()
                .map(|i| get_or_insert(&i.counters, name)),
        )
    }

    /// The gauge named `name` (registered on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| get_or_insert(&i.gauges, name)))
    }

    /// The histogram named `name` (registered on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(
            self.inner
                .as_ref()
                .map(|i| get_or_insert(&i.histograms, name)),
        )
    }

    /// A [`Phase`] recording nanoseconds into the histogram named
    /// `histogram` and, under a traced parent, spans named `span`.
    pub fn phase(&self, histogram: &str, span: &str) -> Phase {
        Phase {
            hist: self.histogram(histogram),
            tracer: self.tracer(),
            span: span.into(),
        }
    }

    /// Sets the tracing configuration (ring capacity, sampling ratio)
    /// for this registry. Must be called **before** the first
    /// [`Registry::tracer`] call — the flight recorder is allocated
    /// once, lazily, and later config changes are ignored. No-op on a
    /// disabled registry.
    pub fn set_trace_config(&self, config: TraceConfig) {
        if let Some(i) = &self.inner {
            *write(&i.trace_config) = config;
        }
    }

    /// The tracer for this registry (flight recorder allocated on first
    /// call, using the config from [`Registry::set_trace_config`]).
    /// Tracers are cheap to clone and share one ring per registry; a
    /// disabled registry yields a tracer that no-ops everywhere.
    pub fn tracer(&self) -> Tracer {
        match &self.inner {
            Some(i) => Tracer {
                inner: Some(Arc::clone(i.tracer.get_or_init(|| {
                    Arc::new(TracerInner::new(*read(&i.trace_config), i))
                }))),
            },
            None => Tracer::disabled(),
        }
    }

    /// Chrome `trace_event` JSON snapshot of the flight recorder (what
    /// `GET /trace.json` serves); see [`Tracer::render_chrome_json`].
    pub fn render_chrome_json(&self) -> String {
        self.tracer().render_chrome_json()
    }

    /// Per-phase profile of the flight-recorder window (what
    /// `GET /profile.json` serves); see [`profile`].
    pub fn render_profile_json(&self) -> String {
        profile::render_profile_json(&self.tracer())
    }

    /// Text exposition of every metric; see [`expo`] for the format.
    pub fn render_text(&self) -> String {
        match &self.inner {
            Some(i) => expo::render_text(i),
            None => String::from("# telemetry disabled\n"),
        }
    }

    /// JSON exposition of every metric; see [`expo`] for the shape.
    pub fn render_json(&self) -> String {
        match &self.inner {
            Some(i) => expo::render_json(i),
            None => String::from("{\"enabled\":false}"),
        }
    }
}

impl Default for Registry {
    /// The default is the **global** registry — layers that are not given
    /// an explicit registry all feed the process-wide one.
    fn default() -> Registry {
        Registry::global().clone()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => write!(
                f,
                "Registry({} counters, {} gauges, {} histograms)",
                read(&i.counters).len(),
                read(&i.gauges).len(),
                read(&i.histograms).len()
            ),
            None => write!(f, "Registry(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_resolve_to_the_same_metric() {
        let reg = Registry::new();
        reg.counter("a.b").add(2);
        reg.counter("a.b").inc();
        assert_eq!(reg.counter("a.b").get(), 3);
    }

    #[test]
    fn disabled_registry_noops_everywhere() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        reg.counter("x").inc();
        reg.gauge("y").set(9);
        reg.histogram("z").record(1);
        assert_eq!(reg.counter("x").get(), 0);
        assert_eq!(reg.gauge("y").get(), 0);
        assert_eq!(reg.histogram("z").snapshot().count, 0);
        assert_eq!(reg.render_text(), "# telemetry disabled\n");
        assert_eq!(reg.render_json(), "{\"enabled\":false}");
    }

    #[test]
    fn clones_share_metrics() {
        let reg = Registry::new();
        let reg2 = reg.clone();
        reg.counter("shared").inc();
        assert_eq!(reg2.counter("shared").get(), 1);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        Registry::global().counter("global.test.marker").inc();
        assert!(Registry::global().counter("global.test.marker").get() >= 1);
        assert!(Registry::default().is_enabled());
    }

    #[test]
    fn hostile_names_are_sanitized() {
        let reg = Registry::new();
        reg.counter("bad name\n{inject}\"quote").inc();
        let text = reg.render_text();
        expo::parse_text(&text).expect("sanitized name renders cleanly");
        assert!(text.contains("bad_name__inject__quote"));
    }

    #[test]
    fn concurrent_registration_is_safe() {
        let reg = Registry::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        reg.counter(&format!("c.{}", i % 10)).inc();
                        reg.histogram("h.shared").record(t * 100 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total: u64 = (0..10).map(|i| reg.counter(&format!("c.{i}")).get()).sum();
        assert_eq!(total, 800);
        assert_eq!(reg.histogram("h.shared").snapshot().count, 800);
    }
}
