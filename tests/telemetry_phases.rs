//! One recording per phase: every timed phase of a call lands in its
//! histogram and, under a sampled trace, in a span of the same interval.
//! So `/metrics` and `/trace.json` must agree on each phase's count and
//! on every duration, to the microsecond the span format keeps.
//!
//! The calls cover the three call shapes of the benchmark (a PBIO
//! struct echo, an XML float-array echo, a quality-managed image call
//! answered at the reduced band), one call that retries through a
//! dropped response (the backoff phase), and one request that meets a
//! 20 ms reactor stall after it was parsed. The stall is not read time.

use sbq_imaging::{image_quality_file, install_resize_handlers, ImageStore};
use sbq_model::workload;
use sbq_model::{TypeDesc, Value};
use sbq_qos::QualityManager;
use sbq_telemetry::SpanEvent;
use sbq_wsdl::ServiceDef;
use soap_binq::{
    ClientConfig, FaultAction, FaultSchedule, Registry, RetryPolicy, ServerConfig, SoapClient,
    SoapServer, SoapServerBuilder, TraceConfig, WireEncoding,
};
use std::time::{Duration, Instant};

const STALL: Duration = Duration::from_millis(20);

/// (histogram, span) pairs recorded by the servers.
const SERVER_PHASES: [(&str, &str); 8] = [
    ("http.read_ns", "server.read"),
    ("http.queue_wait_ns", "server.queue_wait"),
    ("http.handler_ns", "server.handler"),
    ("http.write_ns", "server.write"),
    ("marshal.pbio.decode", "marshal.pbio.decode"),
    ("marshal.pbio.encode", "marshal.pbio.encode"),
    ("marshal.xml.decode", "marshal.xml.decode"),
    ("marshal.xml.encode", "marshal.xml.encode"),
];

/// (histogram, span) pairs recorded by the clients.
const CLIENT_PHASES: [(&str, &str); 5] = [
    ("marshal.pbio.encode", "marshal.pbio.encode"),
    ("marshal.pbio.decode", "marshal.pbio.decode"),
    ("marshal.xml.encode", "marshal.xml.encode"),
    ("marshal.xml.decode", "marshal.xml.decode"),
    ("client.backoff_ns", "client.backoff"),
];

fn traced_registry() -> Registry {
    let reg = Registry::new();
    reg.set_trace_config(TraceConfig::new().capacity(16 * 1024).sample_one_in(1));
    reg
}

fn echo_server(
    svc: &ServiceDef,
    enc: WireEncoding,
    reg: &Registry,
    faults: FaultSchedule,
) -> SoapServer {
    SoapServerBuilder::new(svc, enc)
        .unwrap()
        .transport(
            ServerConfig::default()
                .telemetry(reg.clone())
                .faults(faults),
        )
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap()
}

fn image_server(reg: &Registry) -> SoapServer {
    let qm = QualityManager::new(image_quality_file(200.0)).telemetry(reg);
    install_resize_handlers(qm.handlers());
    let store = std::sync::Arc::new(ImageStore::with_starfields(1, 7));
    SoapServerBuilder::new(&sbq_imaging::image_service("x"), WireEncoding::Pbio)
        .unwrap()
        .transport(ServerConfig::default().telemetry(reg.clone()))
        .with_quality(qm)
        .handle("get_image", move |req| store.handle_get_image(req))
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap()
}

/// Asserts that the histogram and the spans of one phase saw the same
/// intervals: equal counts, and each span's `dur_us` the floor of its
/// sample's nanoseconds (checked on the sum and on the maximum).
fn assert_phase_agrees(side: &str, reg: &Registry, spans: &[SpanEvent], hist: &str, span: &str) {
    let h = reg.histogram(hist).snapshot();
    let durs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == span)
        .map(|s| s.dur_us)
        .collect();
    assert!(h.count > 0, "{side} {hist}: the calls must exercise it");
    assert_eq!(
        h.count,
        durs.len() as u64,
        "{side} {hist}: histogram count against {span} span count"
    );
    let sum_us: u64 = durs.iter().sum();
    let hist_us = h.sum / 1000;
    assert!(
        sum_us <= hist_us && hist_us < sum_us + h.count,
        "{side} {span}: spans sum to {sum_us} us, histogram to {} ns over {} samples",
        h.sum,
        h.count
    );
    let max_us = durs.iter().copied().max().unwrap_or(0);
    assert_eq!(
        max_us,
        h.max / 1000,
        "{side} {span}: longest span against the histogram's largest sample ({} ns)",
        h.max
    );
}

#[test]
fn histograms_and_spans_record_the_same_phases() {
    let server_reg = traced_registry();
    let client_reg = traced_registry();
    let client_config = || ClientConfig::default().telemetry(client_reg.clone());

    // PBIO struct echo. Request 1 meets the reactor stall after parsing;
    // request 2's response is dropped, so that call retries.
    let struct_ty = workload::nested_struct_type(3);
    let struct_svc = ServiceDef::new("Echo", "urn:phases:struct", "x").with_operation(
        "echo",
        struct_ty.clone(),
        struct_ty,
    );
    let mut struct_server = echo_server(
        &struct_svc,
        WireEncoding::Pbio,
        &server_reg,
        FaultSchedule::new()
            .stall_event_loop(1, STALL)
            .at(2, FaultAction::DropResponse),
    );
    let mut client = SoapClient::connect_with(
        struct_server.addr(),
        &struct_svc,
        WireEncoding::Pbio,
        client_config()
            .call_timeout(Duration::from_millis(500))
            .idempotent(true)
            .retry_policy(
                RetryPolicy::default()
                    .max_attempts(3)
                    .base_backoff(Duration::from_millis(2)),
            ),
    )
    .unwrap();
    let value = workload::nested_struct(3, 11);
    assert_eq!(client.call("echo", value.clone()).unwrap(), value);
    let t0 = Instant::now();
    assert_eq!(client.call("echo", value.clone()).unwrap(), value);
    assert!(t0.elapsed() >= STALL, "request 1 met the reactor stall");
    assert_eq!(
        client.call_with_retry("echo", value.clone()).unwrap(),
        value
    );
    assert_eq!(client.stats().retries, 1, "request 2 was retried");

    // XML float-array echo.
    let array_ty = TypeDesc::list_of(TypeDesc::Float);
    let array_svc = ServiceDef::new("Echo", "urn:phases:array", "x").with_operation(
        "echo",
        array_ty.clone(),
        array_ty,
    );
    let mut array_server = echo_server(
        &array_svc,
        WireEncoding::Xml,
        &server_reg,
        FaultSchedule::new(),
    );
    let mut client = SoapClient::connect_with(
        array_server.addr(),
        &array_svc,
        WireEncoding::Xml,
        client_config(),
    )
    .unwrap();
    let floats = workload::float_array(512, 5);
    for _ in 0..2 {
        assert_eq!(client.call("echo", floats.clone()).unwrap(), floats);
    }

    // Quality-managed image call, once at full and once at half size.
    let mut image_server = image_server(&server_reg);
    let mut client = SoapClient::connect_with(
        image_server.addr(),
        &sbq_imaging::image_service("x"),
        WireEncoding::Pbio,
        client_config(),
    )
    .unwrap()
    .with_quality(QualityManager::new(image_quality_file(200.0)));
    let request = Value::struct_of(
        "image_request",
        vec![
            ("name", Value::Str("sky-0".into())),
            ("operation", Value::Str("identity".into())),
        ],
    );
    for rtt_ms in [5, 1000] {
        let q = client.quality_mut().unwrap();
        for _ in 0..40 {
            q.observe_rtt(Duration::from_millis(rtt_ms), Duration::ZERO);
        }
        client.call("get_image", request.clone()).unwrap();
    }
    assert_eq!(image_server.reduced_responses(), 1, "one call at half size");

    // Shutdown joins the reactors, so every write phase has recorded.
    struct_server.shutdown();
    array_server.shutdown();
    image_server.shutdown();

    let server_spans = server_reg.tracer().snapshot();
    for (hist, span) in SERVER_PHASES {
        assert_phase_agrees("server", &server_reg, &server_spans, hist, span);
    }
    let client_spans = client_reg.tracer().snapshot();
    for (hist, span) in CLIENT_PHASES {
        assert_phase_agrees("client", &client_reg, &client_spans, hist, span);
    }
}
