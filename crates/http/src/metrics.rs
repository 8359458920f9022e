//! Pre-resolved telemetry handles for the transport hot path.
//!
//! Handles are resolved once at bind time; workers record through them
//! without ever touching the registry maps. Request methods map onto a
//! fixed set of counters so a hostile client cannot mint unbounded
//! metric names.

use sbq_telemetry::{Counter, Gauge, Histogram, Phase, Registry};

/// Metric names exposed by the HTTP server (dotted form; the text
/// exposition rewrites dots to underscores).
///
/// | name                  | type      | meaning                                    |
/// |-----------------------|-----------|--------------------------------------------|
/// | `http.requests.get`   | counter   | GET requests parsed                        |
/// | `http.requests.post`  | counter   | POST requests parsed                       |
/// | `http.requests.other` | counter   | requests with any other method             |
/// | `http.status.2xx`.. | counter   | responses by status class (`2xx`..`5xx`, `other`) |
/// | `http.panics`         | counter   | handler panics answered with 500           |
/// | `http.admission.shed` | counter   | requests answered by the admission hook    |
/// | `http.chunked.rx`     | counter   | requests received with chunked framing     |
/// | `http.chunked.tx`     | counter   | responses sent with chunked framing        |
/// | `http.connections.active` | gauge | connections currently open                 |
/// | `http.connections.accepted` | counter | connections accepted over the lifetime |
/// | `http.connections.open` | gauge  | connections currently registered with the reactor |
/// | `http.connections.idle` | gauge  | open connections parked between keep-alive requests |
/// | `http.connections.closed` | counter | connections closed (any reason)          |
/// | `http.requests.inflight`  | gauge | requests currently inside a handler        |
/// | `http.read_ns`        | phase     | first byte → request parsed (span `server.read`) |
/// | `http.queue_wait_ns`  | phase     | parsed → CPU-pool pickup (span `server.queue_wait`) |
/// | `http.handler_ns`     | phase     | handler call (span `server.handler`)       |
/// | `http.write_ns`       | phase     | response staged → last byte written (span `server.write`) |
/// | `http.request_us`     | histogram | end-to-end latency (first byte → response ready); tail buckets carry trace-id exemplars |
/// | `reactor.wakeups`     | counter   | event-loop unparks via the wake pipe       |
/// | `reactor.events`      | counter   | readiness events delivered by `epoll_wait` |
/// | `reactor.timeouts`    | counter   | deadline-wheel expirations acted on        |
///
/// A *phase* is one [`Phase`] handle: a histogram plus the span of the
/// same name in parentheses, both fed from one pair of clock reads. The
/// span records only when the request's trace is sampled.
///
/// The health subsystem adds `reactor.loop_lag_us` / `reactor.stalled` /
/// `reactor.stalls` (watchdog), `proc.*` (resource accounting), and
/// `slo.*` (burn rates) — see `sbq_telemetry::health`.
pub(crate) struct HttpMetrics {
    get: Counter,
    post: Counter,
    other: Counter,
    status_2xx: Counter,
    status_3xx: Counter,
    status_4xx: Counter,
    status_5xx: Counter,
    status_other: Counter,
    pub(crate) panics: Counter,
    pub(crate) shed: Counter,
    pub(crate) chunked_rx: Counter,
    pub(crate) chunked_tx: Counter,
    pub(crate) active: Gauge,
    pub(crate) accepted: Counter,
    pub(crate) open: Gauge,
    pub(crate) idle: Gauge,
    pub(crate) closed: Counter,
    pub(crate) inflight: Gauge,
    pub(crate) reactor_wakeups: Counter,
    pub(crate) reactor_events: Counter,
    pub(crate) reactor_timeouts: Counter,
    pub(crate) queue_wait: Phase,
    pub(crate) read: Phase,
    pub(crate) write: Phase,
    pub(crate) handler: Phase,
    pub(crate) request: Histogram,
}

impl HttpMetrics {
    pub(crate) fn new(reg: &Registry) -> HttpMetrics {
        HttpMetrics {
            get: reg.counter("http.requests.get"),
            post: reg.counter("http.requests.post"),
            other: reg.counter("http.requests.other"),
            status_2xx: reg.counter("http.status.2xx"),
            status_3xx: reg.counter("http.status.3xx"),
            status_4xx: reg.counter("http.status.4xx"),
            status_5xx: reg.counter("http.status.5xx"),
            status_other: reg.counter("http.status.other"),
            panics: reg.counter("http.panics"),
            shed: reg.counter("http.admission.shed"),
            chunked_rx: reg.counter("http.chunked.rx"),
            chunked_tx: reg.counter("http.chunked.tx"),
            active: reg.gauge("http.connections.active"),
            accepted: reg.counter("http.connections.accepted"),
            open: reg.gauge("http.connections.open"),
            idle: reg.gauge("http.connections.idle"),
            closed: reg.counter("http.connections.closed"),
            inflight: reg.gauge("http.requests.inflight"),
            reactor_wakeups: reg.counter("reactor.wakeups"),
            reactor_events: reg.counter("reactor.events"),
            reactor_timeouts: reg.counter("reactor.timeouts"),
            queue_wait: reg.phase("http.queue_wait_ns", "server.queue_wait"),
            read: reg.phase("http.read_ns", "server.read"),
            write: reg.phase("http.write_ns", "server.write"),
            handler: reg.phase("http.handler_ns", "server.handler"),
            request: reg.histogram("http.request_us"),
        }
    }

    pub(crate) fn method(&self, method: &str) {
        if method.eq_ignore_ascii_case("GET") {
            self.get.inc();
        } else if method.eq_ignore_ascii_case("POST") {
            self.post.inc();
        } else {
            self.other.inc();
        }
    }

    pub(crate) fn status(&self, status: u16) {
        match status / 100 {
            2 => self.status_2xx.inc(),
            3 => self.status_3xx.inc(),
            4 => self.status_4xx.inc(),
            5 => self.status_5xx.inc(),
            _ => self.status_other.inc(),
        }
    }
}
