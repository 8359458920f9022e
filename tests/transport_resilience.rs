//! Transport-runtime resilience across the full SOAP-binQ stack: an
//! event-driven reactor (epoll readiness loop + per-connection state
//! machines, handlers on a small CPU pool) holding thousands of
//! keep-alive clients, request-size and parse-error policing at the
//! HTTP layer, partial-I/O reassembly (short reads/writes, EINTR,
//! WouldBlock mid-header), retry-with-reconnect (including the PBIO
//! format-registration handshake replay and the Karn guard on the RTT
//! estimator), and graceful shutdown that drains in-flight work while
//! closing idle connections.

use sbq_http::{HttpClient, Request};
use sbq_model::{TypeDesc, Value};
use sbq_qos::{QualityFile, QualityManager};
use sbq_wsdl::ServiceDef;
use soap_binq::{
    ClientConfig, FaultAction, FaultSchedule, RetryPolicy, ServerConfig, SoapClient,
    SoapServerBuilder, WireEncoding,
};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Held by the test that counts process threads and by the test that
/// spawns dozens of client threads, so the count never sees the spawns of
/// a test running beside it.
static THREAD_COUNT: Mutex<()> = Mutex::new(());

fn thread_count_lock() -> MutexGuard<'static, ()> {
    THREAD_COUNT
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn echo_service() -> ServiceDef {
    ServiceDef::new("Echo", "urn:tr:echo", "x").with_operation(
        "echo",
        TypeDesc::list_of(TypeDesc::Int),
        TypeDesc::list_of(TypeDesc::Int),
    )
}

fn single_band_quality() -> QualityManager {
    QualityManager::new(QualityFile::parse("attribute rtt\n0 inf - full\n").unwrap())
}

/// Snapshots the registry's flight recorder, waiting briefly for `names`
/// to appear: server-side spans record when the worker drops them, which
/// can trail the client's view of the response.
fn wait_for_spans(reg: &soap_binq::Registry, names: &[&str]) -> Vec<sbq_telemetry::SpanEvent> {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let spans = reg.tracer().snapshot();
        let all_present = names.iter().all(|n| spans.iter().any(|s| s.name == *n));
        if all_present || std::time::Instant::now() > deadline {
            return spans;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn sixty_four_concurrent_clients_on_a_small_pool() {
    // Far more keep-alive connections than workers: the pool must
    // multiplex without losing, duplicating, or cross-wiring responses —
    // each client checks its own distinct payload, so a PBIO session mixup
    // between clients would be caught as a wrong echo.
    let _threads = thread_count_lock();
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(ServerConfig::default().worker_threads(4))
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let addr = server.addr();

    let handles: Vec<_> = (0..64)
        .map(|i: i64| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let mut c = SoapClient::connect(addr, &svc, WireEncoding::Pbio).unwrap();
                for call in 0..5i64 {
                    let v = Value::IntArray(vec![i, call, i * 1000 + call]);
                    assert_eq!(
                        c.call("echo", v.clone()).unwrap(),
                        v,
                        "client {i} call {call}"
                    );
                }
                c.stats().calls
            })
        })
        .collect();

    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 64 * 5, "no lost or duplicated responses");
    assert_eq!(server.connections(), 64);
    assert!(server.requests() >= 64 * 5);
}

#[test]
fn malformed_and_oversized_requests_rejected_at_the_http_layer() {
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(ServerConfig::default().max_body_bytes(4 * 1024))
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    // A request line that is not HTTP at all → 400 before any SOAP layer.
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.read_to_string(&mut reply).ok();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");

    // A body over the configured cap → 413, rejected on declared length.
    let mut http = HttpClient::connect(server.addr()).unwrap();
    let mut req = Request::post("/Echo", sbq_http::PBIO_CONTENT_TYPE, vec![0u8; 64 * 1024]);
    req.headers
        .push(("X-Soap-Op".to_string(), "echo".to_string()));
    let resp = http.send(req).unwrap();
    assert_eq!(resp.status, 413);

    // The server is still healthy for well-formed traffic.
    let mut good = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
    let v = Value::IntArray(vec![1, 2, 3]);
    assert_eq!(good.call("echo", v.clone()).unwrap(), v);
}

#[test]
fn retry_survives_a_dropped_response_and_replays_the_handshake() {
    // The server drops its very first response on the floor (fault
    // injection). The client's retry layer must notice the dead
    // connection, reconnect — starting a fresh PBIO session whose format
    // registration replays — and complete the call. Per Karn's algorithm
    // the retried call must NOT feed the client RTT estimator.
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default().faults(FaultSchedule::new().at(0, FaultAction::DropResponse)),
        )
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    // A dropped response is ambiguous (the server executed the call before
    // the fault swallowed the reply), so only idempotent calls may replay
    // through it.
    let config = ClientConfig::default()
        .call_timeout(Duration::from_millis(500))
        .idempotent(true)
        .retry_policy(
            RetryPolicy::default()
                .max_attempts(3)
                .base_backoff(Duration::from_millis(5)),
        );
    let mut client = SoapClient::connect_with(server.addr(), &svc, WireEncoding::Pbio, config)
        .unwrap()
        .with_quality(single_band_quality());

    let first_session = client.session();
    let v = Value::IntArray(vec![9, 8, 7]);
    assert_eq!(client.call_with_retry("echo", v.clone()).unwrap(), v);

    assert_eq!(client.stats().retries, 1, "exactly one retry");
    assert_eq!(client.stats().reconnects, 1, "reconnected once");
    assert_ne!(
        client.session(),
        first_session,
        "fresh PBIO session after reconnect"
    );
    // The server saw two sessions: each of them received a registration
    // message (handshake re-established), and the echoed value decoded
    // correctly under the new session's formats.
    assert_eq!(server.connections(), 2);

    let q = client.quality().unwrap();
    assert_eq!(
        q.estimator().samples(),
        0,
        "retried RTT never reaches the estimator"
    );
    assert_eq!(q.suppressed_samples(), 1, "the suppression was recorded");

    // A follow-up clean call does feed the estimator.
    assert_eq!(client.call_with_retry("echo", v.clone()).unwrap(), v);
    assert_eq!(client.quality().unwrap().estimator().samples(), 1);
}

#[test]
fn metrics_endpoint_reports_live_traffic_and_qos_bands() {
    // One shared telemetry registry wired into all three instrumented
    // layers: the HTTP transport (via ServerConfig), the SOAP client
    // (via ClientConfig), and the quality manager. After real traffic,
    // `GET /metrics` on the server must expose live per-method counters
    // and the QoS band/RTT metrics in well-formed exposition text.
    let reg = soap_binq::Registry::new();
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(ServerConfig::default().telemetry(reg.clone()))
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let quality = single_band_quality().telemetry(&reg);
    let mut client = SoapClient::connect_with(
        server.addr(),
        &svc,
        WireEncoding::Pbio,
        ClientConfig::default().telemetry(reg.clone()),
    )
    .unwrap()
    .with_quality(quality);

    let v = Value::IntArray(vec![4, 5, 6]);
    for _ in 0..3 {
        assert_eq!(client.call("echo", v.clone()).unwrap(), v);
    }

    let mut http = HttpClient::connect(server.addr()).unwrap();
    let resp = http.send(Request::get("/metrics")).unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    let samples = sbq_telemetry::expo::parse_text(&text).expect("well-formed exposition");
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.quantile.is_none())
            .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{text}"))
            .value
    };

    // Transport saw the echo POSTs (plus the PBIO registration handshake).
    assert!(value("http_requests_post") >= 3.0, "{text}");
    assert!(value("http_status_2xx") >= 3.0, "{text}");
    // Client-side instrumentation shares the registry.
    assert!(value("client_calls") >= 3.0, "{text}");
    assert!(value("marshal_pbio_encode_count") >= 3.0, "{text}");
    // Quality management: every clean call fed an RTT sample, and the
    // selector pinned the (single) band — index 0 — on the gauge.
    assert!(value("qos_rtt_us_count") >= 3.0, "{text}");
    assert_eq!(value("qos_band"), 0.0, "{text}");

    // The JSON endpoint exposes the same registry.
    let resp = http.send(Request::get("/metrics.json")).unwrap();
    assert_eq!(resp.status, 200);
    let json = String::from_utf8(resp.body).unwrap();
    assert!(json.contains("\"qos.band\""), "{json}");
    assert!(json.contains("\"http.requests.post\""), "{json}");
}

#[test]
fn protocol_errors_are_not_retried() {
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
    // Unknown operation is a protocol error: the retry loop must give up
    // immediately instead of hammering the server.
    let err = client
        .call_with_retry("no_such_op", Value::Int(1))
        .unwrap_err();
    assert!(!err.is_retryable());
    assert_eq!(client.stats().retries, 0);
}

#[test]
fn shutdown_drains_inflight_connections_and_joins_threads() {
    let svc = echo_service();
    let mut server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(ServerConfig::default().worker_threads(2))
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let addr = server.addr();

    // Park several keep-alive connections with completed calls.
    let mut clients: Vec<SoapClient> = (0..6)
        .map(|i: i64| {
            let mut c = SoapClient::connect(addr, &svc, WireEncoding::Pbio).unwrap();
            let v = Value::IntArray(vec![i]);
            assert_eq!(c.call("echo", v.clone()).unwrap(), v);
            c
        })
        .collect();
    assert!(server.active_connections() > 0);

    // shutdown() must return (all threads joined) and leave nothing open.
    server.shutdown();
    assert_eq!(server.active_connections(), 0, "all connections drained");

    // New connects are refused or die immediately; parked clients see a
    // closed connection on their next call.
    let err = clients[0]
        .call("echo", Value::IntArray(vec![1]))
        .unwrap_err();
    assert!(
        err.is_retryable_when_idempotent(),
        "closed connection is replayable for idempotent calls"
    );
    drop(clients);
}

#[test]
fn garbled_response_does_not_replay_a_non_idempotent_call() {
    // The server executes the first call but its response is cut mid-body.
    // A non-idempotent client must NOT replay the request (the server-side
    // effect already happened): the error surfaces, the handler invocation
    // counter stays at 1, and the suppression is recorded.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let svc = echo_service();
    let invocations = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&invocations);
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default()
                .faults(FaultSchedule::new().at(0, FaultAction::CloseMidResponse)),
        )
        .handle("echo", move |v| {
            seen.fetch_add(1, Ordering::SeqCst);
            v
        })
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let reg = soap_binq::Registry::new();
    let config = ClientConfig::default()
        .telemetry(reg.clone())
        .call_timeout(Duration::from_millis(500))
        .retry_policy(
            RetryPolicy::default()
                .max_attempts(3)
                .base_backoff(Duration::from_millis(5)),
        );
    let mut client =
        SoapClient::connect_with(server.addr(), &svc, WireEncoding::Pbio, config).unwrap();

    let v = Value::IntArray(vec![1, 2, 3]);
    let err = client.call_with_retry("echo", v).unwrap_err();
    assert!(
        matches!(
            &err,
            soap_binq::SoapError::Transport(soap_binq::HttpError::Protocol(_))
        ),
        "truncated response surfaces as a protocol-class transport error: {err}"
    );
    assert!(
        !err.is_retryable(),
        "ambiguous failure is not blind-retryable"
    );
    assert!(err.is_retryable_when_idempotent());
    assert_eq!(
        invocations.load(Ordering::SeqCst),
        1,
        "the call must not have been re-executed server-side"
    );
    assert_eq!(client.stats().retries, 0);
    assert_eq!(client.stats().retries_suppressed, 1);
    assert_eq!(reg.counter("client.retry.suppressed").get(), 1);
}

#[test]
fn idempotent_calls_replay_through_a_garbled_response() {
    // Same fault as above, but the call is marked idempotent: the retry
    // layer reconnects and replays, the call completes, and the handler
    // ran twice (which is fine — that is what idempotent means).
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let svc = echo_service();
    let invocations = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&invocations);
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default()
                .faults(FaultSchedule::new().at(0, FaultAction::CloseMidResponse)),
        )
        .handle("echo", move |v| {
            seen.fetch_add(1, Ordering::SeqCst);
            v
        })
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let config = ClientConfig::default()
        .call_timeout(Duration::from_millis(500))
        .retry_policy(
            RetryPolicy::default()
                .max_attempts(3)
                .base_backoff(Duration::from_millis(5)),
        );
    let mut client =
        SoapClient::connect_with(server.addr(), &svc, WireEncoding::Pbio, config).unwrap();

    let v = Value::IntArray(vec![4, 5, 6]);
    // Per-call override: the client default is non-idempotent.
    assert_eq!(
        client
            .call_with_retry_idempotent("echo", v.clone())
            .unwrap(),
        v
    );
    assert_eq!(
        invocations.load(Ordering::SeqCst),
        2,
        "the replay re-executed the handler"
    );
    assert_eq!(client.stats().retries, 1);
    assert_eq!(client.stats().retries_suppressed, 0);
}

#[test]
fn bad_content_length_cannot_desync_a_pipelined_connection() {
    // Regression for the Content-Length desync: a request declaring a
    // malformed length followed by pipelined bytes that look like a second
    // request. Lenient parsing (treating the bad length as 0) would answer
    // the smuggled "request" too; strict framing must answer exactly one
    // 400 and close the connection.
    use std::io::{Read, Write};

    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(
        b"POST /Echo HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n\
          GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    .unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).ok();

    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");
    assert_eq!(
        reply.matches("HTTP/1.1").count(),
        1,
        "the pipelined bytes must not be parsed as a second request: {reply:?}"
    );
}

#[test]
fn spaced_content_length_name_cannot_desync_a_pipelined_connection() {
    // `Content-Length : 5` is not a Content-Length header (RFC 7230
    // §3.2.4). A parser that trimmed the name would frame a five-byte body
    // and answer the pipelined GET as a second request; the server must
    // answer exactly one 400 and close.
    use std::io::{Read, Write};

    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(
        b"POST /Echo HTTP/1.1\r\nHost: x\r\nContent-Length : 5\r\n\r\nhello\
          GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    .unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).ok();

    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");
    assert_eq!(
        reply.matches("HTTP/1.1").count(),
        1,
        "the pipelined bytes must not be parsed as a second request: {reply:?}"
    );
}

#[test]
fn chunked_round_trip_through_the_soap_stack() {
    // End-to-end chunked framing in both directions: a client above its
    // chunk threshold streams the request chunked; the server parses it,
    // echoes, and streams the response chunked under its own policy.
    let reg = soap_binq::Registry::new();
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default()
                .telemetry(reg.clone())
                .chunk_threshold(4 * 1024),
        )
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let config = ClientConfig::default().chunk_threshold(4 * 1024);
    let mut client =
        SoapClient::connect_with(server.addr(), &svc, WireEncoding::Pbio, config).unwrap();

    // ~160 KiB of payload: far above both thresholds.
    let big = Value::IntArray((0..20_000i64).collect());
    assert_eq!(client.call("echo", big.clone()).unwrap(), big);
    assert!(
        reg.counter("http.chunked.rx").get() >= 1,
        "request arrived chunked"
    );
    assert!(
        reg.counter("http.chunked.tx").get() >= 1,
        "response left chunked"
    );

    // A small call on the same connection drops back to Content-Length
    // framing and still round-trips.
    let small = Value::IntArray(vec![7]);
    assert_eq!(client.call("echo", small.clone()).unwrap(), small);
}

#[test]
fn truncated_chunked_response_surfaces_as_protocol_error() {
    // Fault injection cuts a chunked response mid-chunk; the client must
    // classify it as a protocol error (ambiguous — not blind-retryable).
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default()
                .chunk_threshold(1024)
                .faults(FaultSchedule::new().at(0, FaultAction::CloseMidResponse)),
        )
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let mut client = SoapClient::connect_with(
        server.addr(),
        &svc,
        WireEncoding::Pbio,
        ClientConfig::default().call_timeout(Duration::from_millis(500)),
    )
    .unwrap();

    // ~80 KiB echo: the chunked response is cut halfway through its body.
    let big = Value::IntArray((0..10_000i64).collect());
    let err = client.call("echo", big).unwrap_err();
    assert!(
        matches!(
            &err,
            soap_binq::SoapError::Transport(soap_binq::HttpError::Protocol(_))
        ),
        "truncated chunk is a protocol error: {err}"
    );
    assert!(!err.is_retryable());
    assert!(err.is_retryable_when_idempotent());
}

#[test]
fn one_call_yields_one_stitched_cross_process_trace() {
    // The tracing acceptance path: client and server share one registry
    // (and so one flight recorder) with sampling at 1/1. A single call
    // must produce ONE span tree under ONE trace id, stitched across the
    // client/server boundary by the X-SBQ-Trace header: the client root
    // and attempt, the server request with its queue-wait/read/handler/
    // write phases, the marshal spans on both ends, and the QoS band
    // annotation from the server-side quality manager.
    let reg = soap_binq::Registry::new();
    reg.set_trace_config(soap_binq::TraceConfig::new().sample_one_in(1));
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(ServerConfig::default().telemetry(reg.clone()))
        .with_quality(single_band_quality().telemetry(&reg))
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let mut client = SoapClient::connect_with(
        server.addr(),
        &svc,
        WireEncoding::Pbio,
        ClientConfig::default().telemetry(reg.clone()),
    )
    .unwrap();

    let v = Value::IntArray(vec![1, 2, 3]);
    assert_eq!(client.call("echo", v.clone()).unwrap(), v);

    // The server's request/write spans record when the worker drops them,
    // which can trail the client seeing the response by a moment.
    let spans = wait_for_spans(&reg, &["server.request", "server.write"]);
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} missing; got {spans:#?}"))
    };
    let root = find("client.call");
    assert_eq!(root.parent_id, 0, "client root has no parent");
    assert!(
        spans.iter().all(|s| s.trace_id == root.trace_id),
        "every span of the call shares one trace id: {spans:#?}"
    );
    let attempt = find("client.attempt");
    assert_eq!(attempt.parent_id, root.span_id);
    // The server adopted the attempt's context from X-SBQ-Trace — one
    // trace id across the client/server boundary, parented correctly.
    let request = find("server.request");
    assert_eq!(request.parent_id, attempt.span_id, "cross-process stitch");
    for phase in ["server.queue_wait", "server.read", "server.write"] {
        assert_eq!(find(phase).parent_id, request.span_id, "{phase}");
    }
    let handler = find("server.handler");
    assert_eq!(handler.parent_id, request.span_id);
    // Marshalling on both ends: the client's encode/decode parent on the
    // attempt, the server's on the handler (via the thread-local bridge).
    let marshal_parents: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "marshal.pbio.encode" || s.name == "marshal.pbio.decode")
        .map(|s| s.parent_id)
        .collect();
    assert_eq!(marshal_parents.len(), 4, "encode+decode on each end");
    assert_eq!(
        marshal_parents
            .iter()
            .filter(|&&p| p == attempt.span_id)
            .count(),
        2,
        "client-side marshal spans"
    );
    assert_eq!(
        marshal_parents
            .iter()
            .filter(|&&p| p == handler.span_id)
            .count(),
        2,
        "server-side marshal spans"
    );
    // Quality management annotated the handler's subtree with its band.
    let qos = find("qos.prepare");
    assert_eq!(qos.parent_id, handler.span_id);
    assert!(
        qos.tags.iter().any(|(k, v)| k == "band" && v == "0"),
        "active band tagged: {:?}",
        qos.tags
    );
    // The response carried the server's span id back to the client, which
    // tagged its attempt with it. The tag is the zero-padded hex form
    // `add_tag_hex` writes, so compare against `{:016x}` — an unpadded
    // compare fails for the 1-in-16 span ids with a leading zero nibble.
    assert!(
        attempt
            .tags
            .iter()
            .any(|(k, v)| k == "server_span" && *v == format!("{:016x}", request.span_id)),
        "attempt links to the server span: {:?}",
        attempt.tags
    );
    // The first call on a PBIO connection carries the format handshake.
    assert!(
        spans.iter().any(|s| s.name == "pbio.handshake"),
        "{spans:#?}"
    );

    // The same tree is exported live at GET /trace.json as Chrome trace
    // JSON, well-formed and carrying the trace id.
    let mut http = HttpClient::connect(server.addr()).unwrap();
    let resp = http.send(Request::get("/trace.json")).unwrap();
    assert_eq!(resp.status, 200);
    let json = String::from_utf8(resp.body).unwrap();
    sbq_telemetry::expo::validate_json(&json).expect("well-formed Chrome trace JSON");
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(
        json.contains(&format!("{:032x}", root.trace_id)),
        "exported events carry the trace id"
    );
}

#[test]
fn retry_across_reconnect_stays_one_trace() {
    // A dropped response forces a reconnect + replay. Both attempts (and
    // the backoff and reconnect between them) must appear as siblings
    // under ONE client root — same trace id, distinct span ids — because
    // retried calls are exactly the ones worth inspecting as a unit.
    let reg = soap_binq::Registry::new();
    reg.set_trace_config(soap_binq::TraceConfig::new().sample_one_in(1));
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default()
                .telemetry(reg.clone())
                .faults(FaultSchedule::new().at(0, FaultAction::DropResponse)),
        )
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let config = ClientConfig::default()
        .telemetry(reg.clone())
        .call_timeout(Duration::from_millis(500))
        .idempotent(true)
        .retry_policy(
            RetryPolicy::default()
                .max_attempts(3)
                .base_backoff(Duration::from_millis(5)),
        );
    let mut client =
        SoapClient::connect_with(server.addr(), &svc, WireEncoding::Pbio, config).unwrap();

    let v = Value::IntArray(vec![9, 8, 7]);
    assert_eq!(client.call_with_retry("echo", v.clone()).unwrap(), v);
    assert_eq!(client.stats().retries, 1);

    let spans = reg.tracer().snapshot();
    let root = spans
        .iter()
        .find(|s| s.name == "client.call")
        .expect("client root span");
    let attempts: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "client.attempt")
        .collect();
    assert_eq!(attempts.len(), 2, "both attempts recorded: {spans:#?}");
    assert_ne!(
        attempts[0].span_id, attempts[1].span_id,
        "attempts are distinct spans"
    );
    for a in &attempts {
        assert_eq!(a.trace_id, root.trace_id, "one trace id across the retry");
        assert_eq!(a.parent_id, root.span_id, "attempts are siblings");
    }
    for name in ["client.backoff", "client.reconnect"] {
        let s = spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing: {spans:#?}"));
        assert_eq!(s.trace_id, root.trace_id);
        assert_eq!(s.parent_id, root.span_id);
    }
    // The failed first attempt is marked, the replay is tagged as a retry.
    assert!(attempts[0].error, "first attempt errored: {attempts:#?}");
    assert!(
        attempts[1]
            .tags
            .iter()
            .any(|(k, v)| k == "retry" && v == "1"),
        "{attempts:#?}"
    );
}

#[test]
fn disabled_registry_records_no_spans_for_live_traffic() {
    // Tracing must be free when off: with both ends on a disabled
    // registry, real traffic writes nothing into any flight recorder and
    // /trace.json stays an empty (but valid) export.
    let reg = soap_binq::Registry::disabled();
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(ServerConfig::default().telemetry(reg.clone()))
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let mut client = SoapClient::connect_with(
        server.addr(),
        &svc,
        WireEncoding::Pbio,
        ClientConfig::default().telemetry(reg.clone()),
    )
    .unwrap();
    let v = Value::IntArray(vec![1]);
    for _ in 0..3 {
        assert_eq!(client.call("echo", v.clone()).unwrap(), v);
    }
    assert!(!reg.tracer().is_enabled());
    assert_eq!(reg.tracer().recorded_total(), 0, "zero ring writes");
    let mut http = HttpClient::connect(server.addr()).unwrap();
    let resp = http.send(Request::get("/trace.json")).unwrap();
    assert_eq!(resp.status, 200);
    let json = String::from_utf8(resp.body).unwrap();
    sbq_telemetry::expo::validate_json(&json).expect("still valid JSON");
    assert!(json.contains("\"traceEvents\":[]"), "{json}");
}

#[test]
fn huge_streamed_body_uses_bounded_framing_buffers() {
    // A 64 MiB upload streamed as 256 KiB chunks: the framing layer must
    // never materialize more than one chunk at a time. The peak framing
    // buffer gauge (process-wide high-water mark across line buffers, head
    // buffers, and chunk reads/writes) proves it stays under the chunk
    // size — not under 64 MiB.
    use sbq_http::{ClientConfig as HttpClientConfig, HttpClient, HttpServer, ServerConfig};

    const CHUNK: usize = 256 * 1024;
    const BODY: usize = 64 * 1024 * 1024;

    let server = HttpServer::bind_with(
        "127.0.0.1:0".parse().unwrap(),
        ServerConfig::default().max_body_bytes(BODY + 1024),
        |req: &Request| {
            // Answer with a tiny digest so the response side cannot hide an
            // unbounded buffer either.
            let sum: u64 = req.body.iter().map(|&b| b as u64).sum();
            let digest = format!("{}:{sum}", req.body.len());
            sbq_http::Response::ok("text/plain", digest.into_bytes())
        },
    )
    .unwrap();

    let config = HttpClientConfig::default()
        .chunk_threshold(1024)
        .chunk_size(CHUNK)
        .read_timeout(Duration::from_secs(60))
        .write_timeout(Duration::from_secs(60));
    let mut client = HttpClient::connect_with(server.addr(), &config).unwrap();

    let body: Vec<u8> = (0..BODY).map(|i| (i % 251) as u8).collect();
    let expected_sum: u64 = body.iter().map(|&b| b as u64).sum();

    sbq_http::reset_peak_framing_buffer();
    let resp = client
        .send(Request::post("/upload", "application/octet-stream", body))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        String::from_utf8(resp.body).unwrap(),
        format!("{BODY}:{expected_sum}"),
        "the whole 64 MiB body arrived intact"
    );

    let peak = sbq_http::peak_framing_buffer();
    assert!(
        peak <= CHUNK,
        "framing buffers stayed within one chunk: peak {peak} bytes > {CHUNK}"
    );
    assert!(peak > 0, "the instrumentation actually recorded");
}

#[test]
fn steady_state_calls_run_the_body_path_entirely_from_the_pool() {
    // The zero-copy hot path's end state: once the buffer pool is warm,
    // every request/response body on both sides of a call is served from
    // recycled buffers — the pool records hits but no new misses, which
    // means the steady-state body path performs zero allocations.
    let pool = sbq_runtime::BufferPool::new();
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default()
                .worker_threads(2)
                .buffer_pool(pool.clone()),
        )
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let mut client = SoapClient::connect_with(
        server.addr(),
        &svc,
        WireEncoding::Pbio,
        ClientConfig::default().buffer_pool(pool.clone()),
    )
    .unwrap();

    let payload = Value::IntArray((0..256).collect());

    // Warm-up: first calls miss the pool (and the first PBIO call carries
    // the format-registration handshake, which sizes buffers differently).
    for _ in 0..3 {
        assert_eq!(client.call("echo", payload.clone()).unwrap(), payload);
    }
    let warm = pool.stats();
    assert!(warm.misses > 0, "cold calls populate the pool");

    for _ in 0..20 {
        assert_eq!(client.call("echo", payload.clone()).unwrap(), payload);
    }
    let after = pool.stats();
    assert_eq!(
        after.misses, warm.misses,
        "steady-state calls allocated new body buffers (pool misses grew \
         from {} to {})",
        warm.misses, after.misses
    );
    assert!(
        after.hits > warm.hits,
        "steady-state calls did not draw from the pool (hits {} -> {})",
        warm.hits,
        after.hits
    );
}

fn count_process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

#[test]
fn shaped_partial_io_round_trips_through_the_soap_stack() {
    // Worst-case partial I/O: the server reads and writes ONE byte per
    // syscall and every third I/O op is interrupted with EINTR first.
    // The reactor's state machines must reassemble requests across
    // arbitrarily many readiness events and dribble responses out without
    // corrupting PBIO framing; the client sees ordinary intact replies.
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default().worker_threads(1).faults(
                FaultSchedule::new()
                    .short_reads(1)
                    .short_writes(1)
                    .interrupt_every(3),
            ),
        )
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
    for call in 0..3i64 {
        let v = Value::IntArray((0..32).map(|i| i * 7 + call).collect());
        assert_eq!(client.call("echo", v.clone()).unwrap(), v, "call {call}");
    }
    assert_eq!(server.connections(), 1, "keep-alive survived the shaping");
}

#[test]
fn request_head_dribbled_across_many_events_is_reassembled() {
    // A client that stalls mid-header: each fragment arrives in its own
    // readiness event with a genuine WouldBlock in between, so the
    // connection parks in Read with a partial line buffered in its
    // decoder and resumes when the next bytes land. A thread-per-connection server gets this for
    // free from blocking reads; the state machine must earn it.
    use std::io::{Read, Write};

    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();

    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let head = b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    // Split inside the request line, inside a header name, and inside the
    // terminating CRLFCRLF — the nastiest places to park.
    for frag in [&head[..9], &head[9..27], &head[27..52], &head[52..]] {
        raw.write_all(frag).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply:?}");
    assert!(
        reply.contains("http_connections_open"),
        "metrics body arrived intact"
    );
}

#[test]
fn a_thousand_idle_connections_hold_no_extra_threads() {
    // The c10k claim in miniature: park ~1000 keep-alive connections on a
    // server whose CPU pool has two threads. Every connection is just a
    // registered fd plus a reactor timer — the process thread count must
    // not move, and the gauges must account for every parked socket.
    let _threads = thread_count_lock();
    sbq_runtime::raise_nofile_limit(8192);

    const CONNS: usize = 1000;
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default()
                .worker_threads(2)
                .keep_alive_timeout(Duration::from_secs(120)),
        )
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let addr = server.addr();

    let threads_before = count_process_threads();
    let mut parked: Vec<std::net::TcpStream> = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        parked.push(std::net::TcpStream::connect(addr).unwrap());
    }

    // Accepts happen on the reactor thread; poll the gauges until it has
    // drained the backlog.
    let mut open = 0.0;
    let mut idle = 0.0;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut metrics_client = HttpClient::connect(addr).unwrap();
    while std::time::Instant::now() < deadline {
        let resp = metrics_client.send(Request::get("/metrics")).unwrap();
        let text = String::from_utf8(resp.body).unwrap();
        let samples = sbq_telemetry::expo::parse_text(&text).expect("exposition parses");
        let get = |n: &str| {
            samples
                .iter()
                .find(|s| s.name == n && s.quantile.is_none())
                .map(|s| s.value)
                .unwrap_or(0.0)
        };
        open = get("http_connections_open");
        idle = get("http_connections_idle");
        if open >= (CONNS + 1) as f64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        open >= (CONNS + 1) as f64,
        "expected >= {} open connections, metrics report {open}",
        CONNS + 1
    );
    assert!(
        idle >= CONNS as f64,
        "parked connections should count as idle, metrics report {idle}"
    );

    // Other tests in this binary may start servers concurrently, so allow
    // a little slack — the point is that 1000 connections add ~0 threads,
    // not ~1000.
    let threads_after = count_process_threads();
    assert!(
        threads_after <= threads_before + 8,
        "thread count grew with connections: {threads_before} -> {threads_after}"
    );

    drop(parked);
    drop(metrics_client);
    drop(server);
}

#[test]
fn graceful_shutdown_drains_an_inflight_handler() {
    // shutdown() while a handler is mid-flight: the listener must stop,
    // idle connections close immediately, but the in-flight response is
    // still written before the event loop exits — the caller gets its
    // answer, not a reset.
    let svc = echo_service();
    let mut server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(ServerConfig::default().worker_threads(1))
        .handle("echo", |v| {
            std::thread::sleep(Duration::from_millis(150));
            v
        })
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let addr = server.addr();

    // An idle keep-alive connection that shutdown should close outright.
    let mut idle_client = SoapClient::connect(addr, &svc, WireEncoding::Pbio).unwrap();
    let warm = Value::IntArray(vec![0]);
    assert_eq!(idle_client.call("echo", warm.clone()).unwrap(), warm);

    let inflight = {
        let svc = svc.clone();
        std::thread::spawn(move || {
            let mut c = SoapClient::connect(addr, &svc, WireEncoding::Pbio).unwrap();
            let v = Value::IntArray(vec![1, 2, 3]);
            c.call("echo", v.clone()).map(|got| got == v)
        })
    };
    // Let the call reach the handler's sleep before pulling the plug.
    std::thread::sleep(Duration::from_millis(60));
    server.shutdown();

    assert_eq!(server.active_connections(), 0, "everything drained");
    match inflight.join().unwrap() {
        Ok(true) => {}
        other => panic!("in-flight call did not complete through shutdown: {other:?}"),
    }
    let err = idle_client.call("echo", warm).unwrap_err();
    assert!(
        err.is_retryable_when_idempotent(),
        "idle connection was closed by shutdown"
    );
}
