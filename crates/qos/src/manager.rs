//! The quality manager: glue between estimator, quality file, handlers
//! and message projection — what the generated stubs embed on both the
//! client and the server side (§III-B.b: "the quality file is used both
//! by the server side and client side stubs, to determine the message
//! type and corresponding size to be used under each circumstance").

use crate::attributes::QualityAttributes;
use crate::estimator::RttEstimator;
use crate::file::{BandSelector, QualityFile, QualityRule, SwitchPolicy};
use crate::handler::HandlerRegistry;
use crate::jacobson::JacobsonEstimator;
use sbq_model::{pad_to, project, TypeDesc, Value};
use sbq_telemetry::{trace, Counter, Histogram, Registry, TraceSpan, Tracer};
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Duration;

/// Which RTT estimator drives the monitored attribute.
///
/// [`RttEstimatorKind::Ewma`] is the paper's current implementation
/// (`R = αR + (1-α)M`); [`RttEstimatorKind::Jacobson`] is its stated
/// future work — variance-aware SRTT + 4·RTTVAR selection, which reacts
/// to *jittery* links even when the mean looks healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RttEstimatorKind {
    /// Exponential weighted moving average, α = 0.875.
    #[default]
    Ewma,
    /// Jacobson/Karels SRTT + RTTVAR.
    Jacobson,
}

#[derive(Debug, Clone)]
enum AnyEstimator {
    Ewma(RttEstimator),
    Jacobson(JacobsonEstimator),
}

impl AnyEstimator {
    fn update_compensated(&mut self, rtt: Duration, server: Duration) -> Option<f64> {
        match self {
            AnyEstimator::Ewma(e) => {
                e.update_compensated(rtt, server);
                e.estimate_ms()
            }
            AnyEstimator::Jacobson(e) => {
                e.update_compensated(rtt, server);
                e.upper_bound_ms()
            }
        }
    }

    fn value_ms(&self) -> Option<f64> {
        match self {
            AnyEstimator::Ewma(e) => e.estimate_ms(),
            AnyEstimator::Jacobson(e) => e.upper_bound_ms(),
        }
    }
}

/// The outcome of quality-managing an outgoing message.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedMessage {
    /// The (possibly reduced) value to transmit.
    pub value: Value,
    /// The selected message type name (from the quality file).
    pub message_type: String,
    /// Whether a handler or projection ran and changed the value. The
    /// pass-through path is never reduced and is decided without
    /// comparing the value with itself.
    pub reduced: bool,
}

/// Per-connection continuous quality management state.
#[derive(Debug)]
pub struct QualityManager {
    selector: BandSelector,
    estimator: RttEstimator,
    /// The estimator actually driving selection (kept alongside the plain
    /// EWMA one so `estimator()` stays available for introspection).
    driving: AnyEstimator,
    attributes: QualityAttributes,
    handlers: HandlerRegistry,
    /// Message-type name → reduced schema, for the trivial projection
    /// handler. Types absent here fall back to a named handler or to
    /// identity.
    message_types: HashMap<String, TypeDesc>,
    /// RTT samples discarded because their call was retransmitted.
    suppressed: u64,
    /// Where QoS metrics go; kept so policy replacement can re-attach the
    /// fresh selector.
    telemetry: Registry,
    rtt_hist: Histogram,
    karn: Counter,
    tracer: Tracer,
}

impl QualityManager {
    /// Creates a manager over a parsed quality file.
    pub fn new(file: QualityFile) -> QualityManager {
        QualityManager::with_parts(
            file,
            SwitchPolicy::default(),
            QualityAttributes::new(),
            HandlerRegistry::new(),
        )
    }

    /// Full-control constructor.
    pub fn with_parts(
        file: QualityFile,
        policy: SwitchPolicy,
        attributes: QualityAttributes,
        handlers: HandlerRegistry,
    ) -> QualityManager {
        let telemetry = Registry::default();
        QualityManager {
            selector: BandSelector::with_policy(file, policy).telemetry(&telemetry),
            estimator: RttEstimator::new(),
            driving: AnyEstimator::Ewma(RttEstimator::new()),
            attributes,
            handlers,
            message_types: HashMap::new(),
            suppressed: 0,
            rtt_hist: telemetry.histogram("qos.rtt_us"),
            karn: telemetry.counter("qos.karn_suppressed"),
            tracer: telemetry.tracer(),
            telemetry,
        }
    }

    /// Routes this manager's metrics into `registry` (builder style):
    /// compensated RTT samples into the `qos.rtt_us` histogram,
    /// Karn-suppressed samples into `qos.karn_suppressed`, and the band
    /// selector's gauge/switch counters (see [`BandSelector::telemetry`]).
    /// Defaults to the process-wide registry; pass
    /// [`Registry::disabled`] to silence the QoS layer.
    pub fn telemetry(mut self, registry: &Registry) -> QualityManager {
        self.rtt_hist = registry.histogram("qos.rtt_us");
        self.karn = registry.counter("qos.karn_suppressed");
        self.selector = self.selector.telemetry(registry);
        self.tracer = registry.tracer();
        self.telemetry = registry.clone();
        self
    }

    /// Switches the estimator driving band selection (builder style).
    /// [`RttEstimatorKind::Jacobson`] implements the paper's future-work
    /// upgrade: selection against `SRTT + 4·RTTVAR`.
    pub fn with_estimator(mut self, kind: RttEstimatorKind) -> QualityManager {
        self.driving = match kind {
            RttEstimatorKind::Ewma => AnyEstimator::Ewma(RttEstimator::new()),
            RttEstimatorKind::Jacobson => AnyEstimator::Jacobson(JacobsonEstimator::new()),
        };
        self
    }

    /// Replaces the quality policy at runtime, keeping attributes,
    /// handlers, and estimator state.
    ///
    /// The paper's implementation "does not permit runtime changes in the
    /// handlers or policies used for quality management" and lists
    /// lifting that as future work (§III-B.d, §V); this implements it.
    /// The band selector restarts (its history belongs to the old bands).
    pub fn replace_policy(&mut self, file: QualityFile, policy: SwitchPolicy) {
        self.selector = BandSelector::with_policy(file, policy).telemetry(&self.telemetry);
    }

    /// Defines the reduced schema for a message type named in the quality
    /// file, enabling the trivial projection handler for it.
    pub fn define_message_type(&mut self, name: &str, ty: TypeDesc) {
        self.message_types.insert(name.to_string(), ty);
    }

    /// The shared attribute map (pass to application code so it can call
    /// `update_attribute`).
    pub fn attributes(&self) -> &QualityAttributes {
        &self.attributes
    }

    /// The handler registry (install resizing filters etc. here).
    pub fn handlers(&self) -> &HandlerRegistry {
        &self.handlers
    }

    /// The RTT estimator.
    pub fn estimator(&self) -> &RttEstimator {
        &self.estimator
    }

    /// Number of band switches so far.
    pub fn switches(&self) -> u64 {
        self.selector.switches()
    }

    /// Feeds a measured round-trip time (compensating for server
    /// preparation time) and refreshes the monitored attribute.
    ///
    /// A reported server time exceeding the measured RTT can only come
    /// from clock skew; the sample is discarded like a Karn-suppressed
    /// retry (counted in [`QualityManager::suppressed_samples`] and
    /// `qos.karn_suppressed`) — recording a skew-clamped 0 µs into the
    /// histogram and estimators would drag the estimate toward zero and
    /// spuriously upgrade the band.
    pub fn observe_rtt(&mut self, rtt: Duration, server_time: Duration) {
        if server_time > rtt {
            self.suppressed += 1;
            self.karn.inc();
            return;
        }
        self.rtt_hist.record((rtt - server_time).as_micros() as u64);
        self.estimator.update_compensated(rtt, server_time);
        let value = self
            .driving
            .update_compensated(rtt, server_time)
            .or_else(|| self.driving.value_ms())
            .unwrap_or(0.0);
        let attr = self.selector.file().attribute.clone();
        self.attributes.update_attribute(&attr, value);
    }

    /// Records that a call was completed only after a retransmission, so
    /// its round-trip time is ambiguous and must *not* feed the estimator
    /// (Karn's algorithm: an RTT measured across a retry cannot be
    /// attributed to either transmission). The sample is counted in
    /// [`QualityManager::suppressed_samples`] and otherwise discarded.
    pub fn observe_retry(&mut self) {
        self.suppressed += 1;
        self.karn.inc();
    }

    /// RTT samples suppressed so far because their call was retried.
    pub fn suppressed_samples(&self) -> u64 {
        self.suppressed
    }

    /// Accepts a peer-reported attribute value (in the monitored
    /// attribute's unit) — "every time the RTT is estimated by the
    /// client, the server is informed of the new value during the next
    /// request" (§IV-C.h). Servers feed the client's reported estimate in
    /// here.
    pub fn observe_reported(&mut self, value: f64) {
        let attr = self.selector.file().attribute.clone();
        self.attributes.update_attribute(&attr, value);
    }

    /// The reduced schema registered for a message type, if any.
    pub fn message_type_def(&self, name: &str) -> Option<&TypeDesc> {
        self.message_types.get(name)
    }

    /// Selects the message type for the current attribute value — called
    /// "just before sending the message" (§IV-C.h).
    pub fn select(&mut self) -> &QualityRule {
        let attr = self.selector.file().attribute.clone();
        let value = self.attributes.get_or(&attr, 0.0);
        self.selector.observe(value)
    }

    /// Quality-manages an outgoing message: selects the band, then either
    /// applies the band's named quality handler, projects onto the band's
    /// reduced message type, or passes the value through unchanged.
    ///
    /// Pass an owned value to have the pass-through path move it; a
    /// borrowed value is copied only on that path.
    pub fn prepare<'v>(&mut self, full: impl Into<Cow<'v, Value>>) -> PreparedMessage {
        let rule = self.select().clone();
        let band = self.selector.band();
        self.apply_rule(&rule, band, full)
    }

    /// Applies an externally selected quality rule, bypassing this
    /// manager's own band selector — how the fleet layer reduces a
    /// response against a *per-client* band while sharing one manager's
    /// handlers and message-type definitions. `band` only annotates the
    /// trace span.
    pub fn apply_rule<'v>(
        &self,
        rule: &QualityRule,
        band: Option<usize>,
        full: impl Into<Cow<'v, Value>>,
    ) -> PreparedMessage {
        let full = full.into();
        // Annotate the enclosing request trace (if any) with what quality
        // management decided: the active band, the selected message type,
        // and which reduction path ran.
        let mut tspan = match trace::current() {
            Some(parent) => self.tracer.child_span("qos.prepare", &parent),
            None => TraceSpan::disabled(),
        };
        if let Some(band) = band {
            tspan.add_tag_u64("band", band as u64);
        }
        tspan.add_tag("mt", &rule.message_type);
        // Reductions borrow the full value; only their output is compared
        // with it. A missing handler or a failed projection falls back to
        // the pass-through path (the "trivial quality handler", §III-A).
        let output = if let Some(hname) = &rule.handler {
            tspan.add_tag("reduce", hname);
            self.handlers
                .get(hname)
                .map(|h| h.apply(&full, &self.attributes))
        } else if let Some(ty) = self.message_types.get(&rule.message_type) {
            // "It then copies the relevant fields … and ignores the rest."
            tspan.add_tag("reduce", "project");
            project(&full, ty).ok()
        } else {
            tspan.add_tag("reduce", "none");
            None
        };
        let (value, reduced) = match output {
            Some(value) => {
                let changed = value != *full;
                (value, changed)
            }
            None => (full.into_owned(), false),
        };
        PreparedMessage {
            value,
            message_type: rule.message_type.clone(),
            reduced,
        }
    }

    /// Receiving-side reconstruction: "the relevant fields are copied from
    /// the message received from the transport, and the remaining entries
    /// are padded with zeroes", so legacy applications see the full
    /// layout.
    pub fn restore(&self, received: &Value, full_ty: &TypeDesc) -> Value {
        pad_to(received, full_ty).unwrap_or_else(|_| received.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "\
attribute rtt
0 50 - reading_full
50 inf - reading_small
";

    fn full_ty() -> TypeDesc {
        TypeDesc::struct_of(
            "reading",
            vec![
                ("seq", TypeDesc::Int),
                ("temps", TypeDesc::list_of(TypeDesc::Float)),
                ("site", TypeDesc::Str),
            ],
        )
    }

    fn small_ty() -> TypeDesc {
        TypeDesc::struct_of("reading_small", vec![("seq", TypeDesc::Int)])
    }

    fn full_value() -> Value {
        Value::struct_of(
            "reading",
            vec![
                ("seq", Value::Int(9)),
                ("temps", Value::FloatArray(vec![1.0, 2.0])),
                ("site", Value::Str("gt".into())),
            ],
        )
    }

    fn manager() -> QualityManager {
        let mut m = QualityManager::new(QualityFile::parse(FILE).unwrap());
        m.define_message_type("reading_small", small_ty());
        m
    }

    #[test]
    fn retried_calls_do_not_feed_the_estimator() {
        let mut m = manager();
        m.observe_rtt(Duration::from_millis(10), Duration::ZERO);
        let estimate = m.estimator().estimate_ms();
        // A retried call reports only the suppression, never a sample —
        // otherwise one retransmission-inflated RTT would poison the EWMA.
        m.observe_retry();
        m.observe_retry();
        assert_eq!(m.estimator().samples(), 1);
        assert_eq!(m.estimator().estimate_ms(), estimate);
        assert_eq!(m.suppressed_samples(), 2);
    }

    #[test]
    fn skewed_server_time_is_suppressed_not_recorded() {
        // Regression: server_time > rtt used to record a clamped 0 µs
        // sample into the histogram and estimators, dragging the
        // estimate toward zero and spuriously upgrading the band.
        let reg = Registry::new();
        let mut m = manager().telemetry(&reg);
        for _ in 0..5 {
            m.observe_rtt(Duration::from_millis(400), Duration::ZERO);
        }
        assert_eq!(m.prepare(full_value()).message_type, "reading_small");
        let estimate = m.estimator().estimate_ms();
        let count = reg.histogram("qos.rtt_us").snapshot().count;
        // Coarse server clock claims 1 s of prep on a 2 ms call.
        for _ in 0..20 {
            m.observe_rtt(Duration::from_millis(2), Duration::from_secs(1));
        }
        assert_eq!(m.estimator().estimate_ms(), estimate, "estimate frozen");
        assert_eq!(m.estimator().samples(), 5);
        assert_eq!(m.suppressed_samples(), 20, "counted like Karn");
        assert_eq!(reg.counter("qos.karn_suppressed").get(), 20);
        assert_eq!(
            reg.histogram("qos.rtt_us").snapshot().count,
            count,
            "no skewed sample reaches the histogram"
        );
        // Band selection still sees congestion, not a phantom upgrade.
        assert_eq!(m.prepare(full_value()).message_type, "reading_small");
    }

    #[test]
    fn apply_rule_bypasses_the_selector() {
        // The fleet layer picks the band per client; apply_rule must
        // reduce against the given rule even when this manager's own
        // selector would choose differently.
        let mut m = manager();
        m.observe_rtt(Duration::from_millis(5), Duration::ZERO); // healthy
        let file = QualityFile::parse(FILE).unwrap();
        let small = file.rules[1].clone();
        let p = m.apply_rule(&small, Some(1), full_value());
        assert_eq!(p.message_type, "reading_small");
        assert!(p.value.native_size() < full_value().native_size());
        // The manager's own view is unchanged.
        assert_eq!(m.prepare(full_value()).message_type, "reading_full");
    }

    #[test]
    fn telemetry_records_rtt_karn_and_band() {
        let reg = Registry::new();
        let mut m = manager().telemetry(&reg);
        for _ in 0..10 {
            m.observe_rtt(Duration::from_millis(2), Duration::from_millis(1));
        }
        m.observe_retry();
        m.select();
        let rtt = reg.histogram("qos.rtt_us").snapshot();
        assert_eq!(rtt.count, 10);
        // Compensated samples: 2 ms − 1 ms server time ≈ 1000 µs.
        let p50 = rtt.quantile(0.5) as f64;
        assert!((p50 - 1000.0).abs() / 1000.0 <= 0.07, "{p50}");
        assert_eq!(reg.counter("qos.karn_suppressed").get(), 1);
        assert_eq!(reg.gauge("qos.band").get(), 0);
        // Sustained congestion degrades; the switch shows up in telemetry.
        for _ in 0..5 {
            m.observe_rtt(Duration::from_millis(900), Duration::ZERO);
            m.select();
        }
        assert_eq!(reg.gauge("qos.band").get(), 1);
        assert_eq!(reg.counter("qos.band_switch.degrade").get(), 1);
        // Policy replacement keeps recording into the same registry.
        m.replace_policy(QualityFile::parse(FILE).unwrap(), Default::default());
        m.observe_retry();
        assert_eq!(reg.counter("qos.karn_suppressed").get(), 2);
        m.select();
        assert_eq!(reg.gauge("qos.band").get(), 1, "estimator state survived");
    }

    #[test]
    fn prepare_tags_the_current_trace_with_band_and_reduction() {
        let reg = Registry::new();
        let tracer = reg.tracer();
        let mut m = manager().telemetry(&reg);
        m.observe_rtt(Duration::from_millis(500), Duration::ZERO);
        // Outside any request trace, prepare must not record anything.
        m.prepare(full_value());
        assert_eq!(tracer.recorded_total(), 0);
        // Under an installed context it becomes a child span.
        let root = tracer.root_span("test.root");
        let root_span = root.context().span_id;
        {
            let _guard = trace::set_current(root.context());
            m.prepare(full_value());
        }
        drop(root);
        let spans = tracer.snapshot();
        let qos = spans
            .iter()
            .find(|s| s.name == "qos.prepare")
            .expect("qos.prepare span recorded");
        assert_eq!(qos.parent_id, root_span);
        let tag = |k: &str| {
            qos.tags
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(tag("band"), Some("1"), "congested: small band active");
        assert_eq!(tag("mt"), Some("reading_small"));
        assert_eq!(tag("reduce"), Some("project"), "projection handler ran");
    }

    #[test]
    fn jacobson_estimator_degrades_jittery_links() {
        // Same mean RTT, alternating 5/75 ms: the EWMA mean (~40 ms)
        // stays inside the full band, the Jacobson bound does not.
        let mut ewma = manager();
        let mut jac = manager().with_estimator(RttEstimatorKind::Jacobson);
        for i in 0..100 {
            let rtt = Duration::from_millis(if i % 2 == 0 { 5 } else { 75 });
            ewma.observe_rtt(rtt, Duration::ZERO);
            jac.observe_rtt(rtt, Duration::ZERO);
        }
        assert_eq!(ewma.prepare(full_value()).message_type, "reading_full");
        assert_eq!(jac.prepare(full_value()).message_type, "reading_small");
    }

    #[test]
    fn policy_replacement_at_runtime() {
        let mut m = manager();
        m.observe_rtt(Duration::from_millis(30), Duration::ZERO);
        assert_eq!(m.prepare(full_value()).message_type, "reading_full");
        // Tighten the policy: anything above 10 ms is now "small".
        let strict =
            QualityFile::parse("attribute rtt\n0 10 - reading_full\n10 inf - reading_small\n")
                .unwrap();
        m.replace_policy(strict, Default::default());
        // Estimator state survived (≈30 ms) and now lands in the small band.
        assert_eq!(m.prepare(full_value()).message_type, "reading_small");
        // Message-type definitions survived too.
        assert!(m.message_type_def("reading_small").is_some());
    }

    #[test]
    fn good_network_sends_full_message() {
        let mut m = manager();
        m.observe_rtt(Duration::from_millis(10), Duration::ZERO);
        let p = m.prepare(full_value());
        assert_eq!(p.message_type, "reading_full");
        assert_eq!(p.value, full_value());
    }

    #[test]
    fn congestion_projects_to_small_type_and_restores() {
        let mut m = manager();
        m.observe_rtt(Duration::from_millis(500), Duration::ZERO);
        let p = m.prepare(full_value());
        assert_eq!(p.message_type, "reading_small");
        assert!(p.value.native_size() < full_value().native_size());
        let restored = m.restore(&p.value, &full_ty());
        assert!(restored.conforms_to(&full_ty()));
        let s = restored.as_struct().unwrap();
        assert_eq!(s.field("seq"), Some(&Value::Int(9)));
        assert_eq!(s.field("temps"), Some(&Value::FloatArray(vec![])));
    }

    #[test]
    fn named_handler_takes_precedence() {
        let file = QualityFile::parse(
            "attribute rtt\n0 50 - full\n50 inf - reduced\nhandler reduced drop_temps\n",
        )
        .unwrap();
        let mut m = QualityManager::new(file);
        m.handlers()
            .install("drop_temps", |v: &Value, _: &QualityAttributes| {
                let mut v = v.clone();
                if let Value::Struct(s) = &mut v {
                    if let Some(t) = s.field_mut("temps") {
                        *t = Value::FloatArray(vec![]);
                    }
                }
                v
            });
        m.observe_rtt(Duration::from_millis(400), Duration::ZERO);
        let p = m.prepare(full_value());
        assert_eq!(p.message_type, "reduced");
        let s = p.value.as_struct().unwrap();
        assert_eq!(s.field("temps"), Some(&Value::FloatArray(vec![])));
        assert_eq!(s.field("site"), Some(&Value::Str("gt".into()))); // kept
    }

    #[test]
    fn app_driven_attribute_changes_affect_selection() {
        // The stock-quote example of §III-B.d: the application changes its
        // sensitivity by writing the attribute directly.
        let mut m = manager();
        m.attributes().update_attribute("rtt", 10.0);
        assert_eq!(m.prepare(full_value()).message_type, "reading_full");
        m.attributes().update_attribute("rtt", 900.0);
        assert_eq!(m.prepare(full_value()).message_type, "reading_small");
    }

    #[test]
    fn server_compensation_avoids_false_degradation() {
        let mut with = manager();
        let mut without = manager();
        // Slow server, fast network: 450 ms total, 420 ms of it compute.
        for _ in 0..5 {
            with.observe_rtt(Duration::from_millis(450), Duration::from_millis(420));
            without.observe_rtt(Duration::from_millis(450), Duration::ZERO);
        }
        assert_eq!(with.prepare(full_value()).message_type, "reading_full");
        assert_eq!(without.prepare(full_value()).message_type, "reading_small");
    }

    #[test]
    fn recovery_needs_history() {
        let mut m = manager();
        m.observe_rtt(Duration::from_millis(500), Duration::ZERO);
        assert_eq!(m.prepare(full_value()).message_type, "reading_small");
        // Estimator smooths recovery, selector needs 3 confirmations, so
        // several good samples pass before the full type returns.
        let mut steps = 0;
        loop {
            m.observe_rtt(Duration::from_millis(5), Duration::ZERO);
            let p = m.prepare(full_value());
            steps += 1;
            if p.message_type == "reading_full" {
                break;
            }
            assert!(steps < 50, "never recovered");
        }
        assert!(steps >= 3, "recovered too eagerly ({steps} steps)");
        // The very first selection establishes the band without counting
        // as a switch; only the recovery transition does.
        assert_eq!(m.switches(), 1);
    }
}
