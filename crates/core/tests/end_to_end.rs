//! End-to-end SOAP-binQ tests over real loopback HTTP: all wire
//! encodings, faults, quality management, heterogeneous senders.

use sbq_model::{workload, TypeDesc, Value};
use sbq_qos::{QualityAttributes, QualityFile, QualityManager};
use sbq_wsdl::ServiceDef;
use soap_binq::{Registry, ServerConfig, SoapClient, SoapServerBuilder, WireEncoding};
use std::time::{Duration, Instant};

fn echo_service() -> ServiceDef {
    ServiceDef::new("Echo", "urn:sbq:echo", "http://127.0.0.1:0/echo")
        .with_operation(
            "echo_array",
            TypeDesc::list_of(TypeDesc::Int),
            TypeDesc::list_of(TypeDesc::Int),
        )
        .with_operation(
            "echo_struct",
            workload::nested_struct_type(3),
            workload::nested_struct_type(3),
        )
        .with_operation("double", TypeDesc::Int, TypeDesc::Int)
        .with_operation("greet", TypeDesc::Str, TypeDesc::Str)
}

fn start_echo(encoding: WireEncoding) -> (soap_binq::SoapServer, ServiceDef) {
    let svc = echo_service();
    let mut b = SoapServerBuilder::new(&svc, encoding).unwrap();
    b = b.handle("echo_array", |v| v);
    b = b.handle("echo_struct", |v| v);
    b = b.handle("double", |v| Value::Int(v.as_int().unwrap() * 2));
    b = b.handle("greet", |v| {
        Value::Str(format!("hello, {}", v.as_str().unwrap()))
    });
    let server = b.bind("127.0.0.1:0".parse().unwrap()).unwrap();
    (server, svc)
}

fn all_encodings() -> [WireEncoding; 3] {
    [
        WireEncoding::Pbio,
        WireEncoding::Xml,
        WireEncoding::CompressedXml,
    ]
}

#[test]
fn echo_round_trips_across_all_encodings() {
    for enc in all_encodings() {
        let (server, svc) = start_echo(enc);
        let mut client = SoapClient::connect(server.addr(), &svc, enc).unwrap();

        let arr = workload::int_array(500, 3);
        assert_eq!(
            client.call("echo_array", arr.clone()).unwrap(),
            arr,
            "{enc:?}"
        );

        let st = workload::nested_struct(3, 8);
        assert_eq!(
            client.call("echo_struct", st.clone()).unwrap(),
            st,
            "{enc:?}"
        );

        assert_eq!(
            client.call("double", Value::Int(21)).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            client
                .call("greet", Value::Str("world & <tags>".into()))
                .unwrap(),
            Value::Str("hello, world & <tags>".into())
        );
        assert_eq!(client.stats().calls, 4);
    }
}

#[test]
fn rtt_sample_excludes_client_marshalling() {
    // The quality estimator's RTT must be network plus server time only.
    // The call's wall time contains client encode, the exchange and client
    // decode, so the three can add up to no more than the wall time; an
    // RTT clock started before encode overshoots by the encode time.
    let reg = Registry::new();
    let (server, svc) = start_echo(WireEncoding::Xml);
    let config = soap_binq::ClientConfig::default().telemetry(reg.clone());
    let mut client =
        SoapClient::connect_with(server.addr(), &svc, WireEncoding::Xml, config).unwrap();
    let arr = workload::int_array(200_000, 7);
    let encode = reg.histogram("marshal.xml.encode");
    let decode = reg.histogram("marshal.xml.decode");
    for _ in 0..3 {
        let (enc0, dec0) = (encode.snapshot().sum, decode.snapshot().sum);
        let t0 = Instant::now();
        assert_eq!(client.call("echo_array", arr.clone()).unwrap(), arr);
        let wall = t0.elapsed();
        let marshalling =
            Duration::from_nanos(encode.snapshot().sum - enc0 + decode.snapshot().sum - dec0);
        let rtt = client.stats().last_rtt.unwrap();
        assert!(
            marshalling > Duration::ZERO,
            "marshal histograms not recorded"
        );
        assert!(
            rtt + marshalling <= wall,
            "rtt {rtt:?} + client marshalling {marshalling:?} exceeds the call's wall time {wall:?}"
        );
    }
}

#[test]
fn repeated_calls_amortize_format_registration() {
    let (server, svc) = start_echo(WireEncoding::Pbio);
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
    let arr = workload::int_array(100, 1);
    client.call("echo_array", arr.clone()).unwrap();
    let first_sent = client.stats().bytes_sent;
    client.call("echo_array", arr.clone()).unwrap();
    let second_sent = client.stats().bytes_sent - first_sent;
    assert!(
        second_sent < first_sent,
        "second call should skip registration: {second_sent} vs {first_sent}"
    );
}

#[test]
fn xml_bodies_come_from_the_pool_they_return_to() {
    // Both ends build XML envelopes into pooled buffers, as they do PBIO
    // frames, so the call loop puts back exactly the buffers it took. A
    // body allocated outside the pool and recycled into it would instead
    // grow the pool by a body on every call until the class caps bind.
    let pool = sbq_runtime::BufferPool::new();
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Xml)
        .unwrap()
        .handle("echo_array", |v| v)
        .transport(ServerConfig::default().buffer_pool(pool.clone()))
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let config = soap_binq::ClientConfig::default().buffer_pool(pool.clone());
    let mut client =
        SoapClient::connect_with(server.addr(), &svc, WireEncoding::Xml, config).unwrap();
    let arr = workload::int_array(20_000, 5);
    let mut call = || assert_eq!(client.call("echo_array", arr.clone()).unwrap(), arr);
    call();
    let warm = pool.stats();
    for _ in 0..10 {
        call();
    }
    let s = pool.stats();
    let taken = s.hits + s.misses - warm.hits - warm.misses;
    let returned = s.recycled + s.dropped - warm.recycled - warm.dropped;
    assert!(taken > 0, "the calls drew no bodies from the pool");
    assert_eq!(returned, taken, "{warm:?} -> {s:?}");
}

#[test]
fn unknown_operation_faults() {
    for enc in all_encodings() {
        let (server, svc) = start_echo(enc);
        let client = SoapClient::connect(server.addr(), &svc, enc).unwrap();
        // Client-side check fires first for unknown stubs, so spoof a
        // known stub name with a handler-less server.
        let svc2 = ServiceDef::new("Echo", "urn:sbq:echo", "x").with_operation(
            "nope",
            TypeDesc::Int,
            TypeDesc::Int,
        );
        let mut client2 = SoapClient::connect(server.addr(), &svc2, enc).unwrap();
        let err = client2.call("nope", Value::Int(1)).unwrap_err();
        assert!(
            matches!(err, soap_binq::SoapError::Fault { .. }),
            "{enc:?}: expected fault, got {err}"
        );
        assert!(server.faults() >= 1);
        drop(client);
    }
}

#[test]
fn handler_panic_is_isolated_per_connection() {
    // A panicking handler answers 500 and closes that connection; the
    // worker pool survives and keeps serving new connections.
    let svc = ServiceDef::new("Echo", "urn:sbq:echo", "x")
        .with_operation("boom", TypeDesc::Int, TypeDesc::Int)
        .with_operation("ok", TypeDesc::Int, TypeDesc::Int);
    let mut b = SoapServerBuilder::new(&svc, WireEncoding::Xml).unwrap();
    b = b.handle("boom", |_| panic!("handler exploded"));
    b = b.handle("ok", |v| v);
    let server = b.bind("127.0.0.1:0".parse().unwrap()).unwrap();

    let mut c1 = SoapClient::connect(server.addr(), &svc, WireEncoding::Xml).unwrap();
    assert!(c1.call("boom", Value::Int(1)).is_err());
    let mut c2 = SoapClient::connect(server.addr(), &svc, WireEncoding::Xml).unwrap();
    assert_eq!(c2.call("ok", Value::Int(7)).unwrap(), Value::Int(7));
}

fn quality_file() -> QualityFile {
    QualityFile::parse("attribute rtt\n0 50 - reading_full\n50 inf - reading_small\n").unwrap()
}

fn reading_ty() -> TypeDesc {
    TypeDesc::struct_of(
        "reading",
        vec![
            ("seq", TypeDesc::Int),
            ("temps", TypeDesc::list_of(TypeDesc::Float)),
            ("site", TypeDesc::Str),
        ],
    )
}

fn reading_small_ty() -> TypeDesc {
    TypeDesc::struct_of("reading_small", vec![("seq", TypeDesc::Int)])
}

fn reading_value() -> Value {
    Value::struct_of(
        "reading",
        vec![
            ("seq", Value::Int(7)),
            (
                "temps",
                Value::FloatArray((0..200).map(|i| i as f64).collect()),
            ),
            ("site", Value::Str("tower-3".into())),
        ],
    )
}

fn quality_manager() -> QualityManager {
    let mut qm = QualityManager::new(quality_file());
    qm.define_message_type("reading_small", reading_small_ty());
    qm
}

#[test]
fn server_side_quality_reduction_round_trips() {
    for enc in all_encodings() {
        let svc = ServiceDef::new("Sensor", "urn:sbq:sensor", "x").with_operation(
            "read",
            TypeDesc::Int,
            reading_ty(),
        );
        let mut b = SoapServerBuilder::new(&svc, enc).unwrap();
        b = b.handle("read", |_| reading_value());
        b = b.with_quality(quality_manager());
        let server = b.bind("127.0.0.1:0".parse().unwrap()).unwrap();

        let mut client = SoapClient::connect(server.addr(), &svc, enc)
            .unwrap()
            .with_quality(quality_manager());

        // Report a terrible RTT: the server must degrade to the small
        // message type; the client still sees the full layout, padded.
        client
            .quality_mut()
            .unwrap()
            .observe_rtt(Duration::from_millis(500), Duration::ZERO);
        let v = client.call("read", Value::Int(0)).unwrap();
        assert!(v.conforms_to(&reading_ty()), "{enc:?}");
        let s = v.as_struct().unwrap();
        assert_eq!(s.field("seq"), Some(&Value::Int(7)), "{enc:?}");
        assert_eq!(
            s.field("temps"),
            Some(&Value::FloatArray(vec![])),
            "{enc:?}: padded"
        );
        assert_eq!(
            client.stats().last_message_type.as_deref(),
            Some("reading_small")
        );
        assert!(server.reduced_responses() >= 1);
    }
}

#[test]
fn good_network_keeps_full_quality() {
    let svc = ServiceDef::new("Sensor", "urn:sbq:sensor", "x").with_operation(
        "read",
        TypeDesc::Int,
        reading_ty(),
    );
    let mut b = SoapServerBuilder::new(&svc, WireEncoding::Pbio).unwrap();
    b = b.handle("read", |_| reading_value());
    b = b.with_quality(quality_manager());
    let server = b.bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio)
        .unwrap()
        .with_quality(quality_manager());
    // Loopback RTT is far below 50 ms, so quality stays full.
    for _ in 0..3 {
        let v = client.call("read", Value::Int(0)).unwrap();
        assert_eq!(v, reading_value());
    }
    assert_eq!(server.reduced_responses(), 0);
}

#[test]
fn reduced_counter_counts_exactly_the_reduced_responses() {
    // The server decides `reduced` from what the quality layer did, not
    // by comparing the response with the handler's value: the full band
    // counts nothing, and every reduced response counts once.
    let svc = ServiceDef::new("Sensor", "urn:sbq:sensor", "x").with_operation(
        "read",
        TypeDesc::Int,
        reading_ty(),
    );
    let reg = Registry::new();
    let qm = quality_manager();
    let attributes = qm.attributes().clone();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .handle("read", |_| reading_value())
        .with_quality(qm)
        .transport(ServerConfig::default().telemetry(reg.clone()))
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    // A client without a quality manager reports no RTT, so the band is
    // whatever the server-side attribute says.
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();

    attributes.update_attribute("rtt", 5.0);
    for _ in 0..4 {
        assert_eq!(client.call("read", Value::Int(0)).unwrap(), reading_value());
    }
    assert_eq!(server.reduced_responses(), 0, "band 0 reduces nothing");
    assert_eq!(reg.counter("server.reduced").get(), 0);
    assert_eq!(reg.counter("server.msgtype.reading_full").get(), 4);

    attributes.update_attribute("rtt", 500.0);
    for n in 1..=3 {
        let v = client.call("read", Value::Int(0)).unwrap();
        assert_eq!(v.as_struct().unwrap().field("seq"), Some(&Value::Int(7)));
        assert_eq!(server.reduced_responses(), n, "one count per response");
    }
    assert_eq!(reg.counter("server.reduced").get(), 3);
    assert_eq!(reg.counter("server.msgtype.reading_small").get(), 3);
}

#[test]
fn quality_recovers_after_congestion_clears() {
    let svc = ServiceDef::new("Sensor", "urn:sbq:sensor", "x").with_operation(
        "read",
        TypeDesc::Int,
        reading_ty(),
    );
    let mut b = SoapServerBuilder::new(&svc, WireEncoding::Pbio).unwrap();
    b = b.handle("read", |_| reading_value());
    b = b.with_quality(quality_manager());
    let server = b.bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio)
        .unwrap()
        .with_quality(quality_manager());

    // Congested phase.
    client
        .quality_mut()
        .unwrap()
        .observe_rtt(Duration::from_millis(600), Duration::ZERO);
    let v = client.call("read", Value::Int(0)).unwrap();
    assert_eq!(
        v.as_struct().unwrap().field("temps"),
        Some(&Value::FloatArray(vec![]))
    );

    // Recovery: real loopback RTTs are tiny; estimator + hysteresis need
    // several calls before the full type returns.
    let mut got_full = false;
    for _ in 0..60 {
        let v = client.call("read", Value::Int(0)).unwrap();
        if v == reading_value() {
            got_full = true;
            break;
        }
    }
    assert!(got_full, "quality never recovered");
}

#[test]
fn interoperability_xml_call_surface() {
    let (server, svc) = start_echo(WireEncoding::Pbio);
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
    // The client-side XML world: request and response both as XML text,
    // PBIO on the wire.
    let out = client.call_xml("double", "<p>10</p>").unwrap();
    assert_eq!(out, "<doubleResult>20</doubleResult>");
}

#[test]
fn update_attribute_api_drives_quality() {
    // §III-B.d's stock-quote scenario: the application flips its own
    // sensitivity attribute at runtime.
    let file = QualityFile::parse("attribute granularity\n0 2 - fine\n2 inf - coarse\n").unwrap();
    let mut qm = QualityManager::new(file);
    qm.define_message_type("coarse", reading_small_ty());
    let attrs: QualityAttributes = qm.attributes().clone();

    let svc = ServiceDef::new("Quotes", "urn:sbq:q", "x").with_operation(
        "quote",
        TypeDesc::Int,
        reading_ty(),
    );
    let mut b = SoapServerBuilder::new(&svc, WireEncoding::Pbio).unwrap();
    b = b.handle("quote", |_| reading_value());
    b = b.with_quality(qm);
    let server = b.bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();

    let v = client.call("quote", Value::Int(1)).unwrap();
    assert_eq!(v, reading_value(), "fine granularity sends everything");

    attrs.update_attribute("granularity", 5.0);
    let v = client.call("quote", Value::Int(1)).unwrap();
    assert_eq!(
        v.as_struct().unwrap().field("temps"),
        Some(&Value::FloatArray(vec![]))
    );
}

#[test]
fn concurrent_clients_with_pbio_sessions() {
    let (server, svc) = start_echo(WireEncoding::Pbio);
    let addr = server.addr();
    let threads: Vec<_> = (0..6)
        .map(|seed| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let mut c = SoapClient::connect(addr, &svc, WireEncoding::Pbio).unwrap();
                for i in 0..5 {
                    let arr = workload::int_array(200, seed * 10 + i);
                    assert_eq!(c.call("echo_array", arr.clone()).unwrap(), arr);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(server.requests(), 30);
}

#[test]
fn get_wsdl_query_serves_service_description() {
    let (server, svc) = start_echo(WireEncoding::Pbio);
    let mut http = sbq_http::HttpClient::connect(server.addr()).unwrap();
    let resp = http.send(sbq_http::Request::get("/Echo?wsdl")).unwrap();
    assert_eq!(resp.status, 200);
    let doc = String::from_utf8(resp.body).unwrap();
    let parsed = sbq_wsdl::parse_wsdl(&doc).unwrap();
    assert_eq!(parsed.name, svc.name);
    assert_eq!(parsed.operations.len(), svc.operations.len());

    // Plain GET without ?wsdl is a 404, and POST traffic is unaffected.
    let resp = http.send(sbq_http::Request::get("/Echo")).unwrap();
    assert_eq!(resp.status, 404);
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
    assert_eq!(client.call("double", Value::Int(4)).unwrap(), Value::Int(8));
}

#[test]
fn reconnect_recovers_after_transport_failure() {
    // A listener that accepts one connection and immediately drops it —
    // the client's first call dies at the transport.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = std::thread::spawn(move || {
        let _ = listener.accept(); // connection dropped on return
                                   // listener dropped here: the port frees up for the real server
    });
    let svc = echo_service();
    let mut client = SoapClient::connect(addr, &svc, WireEncoding::Pbio).unwrap();
    accepted.join().unwrap();

    // Bring the real server up on the same address.
    let mut b = SoapServerBuilder::new(&svc, WireEncoding::Pbio).unwrap();
    b = b.handle("echo_array", |v| v);
    let Ok(_server) = b.bind(addr) else {
        eprintln!("port {addr} not immediately reusable; skipping");
        return;
    };

    let v = workload::int_array(50, 1);
    // Plain call fails on the dead socket…
    assert!(client.call("echo_array", v.clone()).is_err());
    // …explicit reconnect fixes it…
    client.reconnect().unwrap();
    assert_eq!(client.call("echo_array", v.clone()).unwrap(), v);
    // …and call_with_retry does the whole dance unassisted after another
    // transport break (server keeps running; break by reconnecting to a
    // black hole first).
    assert_eq!(client.call_with_retry("echo_array", v.clone()).unwrap(), v);
}

// ---------------------------------------------------------------------------
// Fleet-scale QoS: per-client bands + admission control.

fn sensor_service() -> ServiceDef {
    ServiceDef::new("Sensor", "urn:sbq:sensor", "x").with_operation(
        "read",
        TypeDesc::Int,
        reading_ty(),
    )
}

#[test]
fn fleet_serves_each_client_at_its_own_band() {
    use sbq_qos::FleetQos;
    use soap_binq::client::ClientConfig;

    let svc = sensor_service();
    let mut b = SoapServerBuilder::new(&svc, WireEncoding::Xml).unwrap();
    b = b.handle("read", |_| reading_value());
    b = b
        .with_quality(quality_manager())
        .with_fleet(FleetQos::new(quality_file()));
    let server = b.bind("127.0.0.1:0".parse().unwrap()).unwrap();

    // "slow" reports a terrible RTT estimate with every call; "fast"
    // reports nothing bad. The same server must answer them at
    // different bands, concurrently tracked.
    let mut slow = SoapClient::connect_with(
        server.addr(),
        &svc,
        WireEncoding::Xml,
        ClientConfig::new().client_id("slow"),
    )
    .unwrap()
    .with_quality(quality_manager());
    slow.quality_mut()
        .unwrap()
        .observe_rtt(Duration::from_millis(500), Duration::ZERO);
    let mut fast = SoapClient::connect_with(
        server.addr(),
        &svc,
        WireEncoding::Xml,
        ClientConfig::new().client_id("fast"),
    )
    .unwrap()
    .with_quality(quality_manager());

    let v = slow.call("read", Value::Int(0)).unwrap();
    assert_eq!(
        v.as_struct().unwrap().field("temps"),
        Some(&Value::FloatArray(vec![])),
        "slow client is served the reduced type"
    );
    // The first call carries no estimate (nothing measured yet — the
    // fleet only tracks clients that report); the second reports the
    // tiny loopback RTT and creates the entry.
    let v = fast.call("read", Value::Int(0)).unwrap();
    assert_eq!(v, reading_value(), "fast client still gets full quality");
    let v = fast.call("read", Value::Int(0)).unwrap();
    assert_eq!(v, reading_value());
    // And the slow client stays degraded even after the fast call.
    let v = slow.call("read", Value::Int(0)).unwrap();
    assert_eq!(
        v.as_struct().unwrap().field("temps"),
        Some(&Value::FloatArray(vec![]))
    );

    let fleet = server.fleet().unwrap();
    assert_eq!(fleet.clients(), 2);
    assert_eq!(fleet.band_of("slow"), Some(1));
    assert_eq!(fleet.band_of("fast"), Some(0));
}

#[test]
fn overload_sheds_worst_band_and_degrades_the_rest() {
    use sbq_qos::FleetQos;
    use soap_binq::client::ClientConfig;
    use soap_binq::{AdmissionPolicy, Registry, ServerConfig, SoapError};

    let svc = sensor_service();
    let reg = Registry::new();
    let mut b = SoapServerBuilder::new(&svc, WireEncoding::Xml).unwrap();
    // `read(1)` parks the single worker long enough to overload the pool.
    b = b.handle("read", |v| {
        if v.as_int().unwrap_or(0) == 1 {
            std::thread::sleep(Duration::from_millis(600));
        }
        reading_value()
    });
    b = b
        .with_quality(quality_manager())
        .with_fleet(FleetQos::new(quality_file()).telemetry(&reg))
        // Any in-flight job at all counts as overload.
        .admission_policy(
            AdmissionPolicy::new()
                .overload_factor(0.0)
                .retry_after(Duration::from_secs(7)),
        )
        .transport(
            ServerConfig::default()
                .worker_threads(1)
                .telemetry(reg.clone()),
        );
    let server = b.bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = server.addr();

    // The server already knows "victim" sits in the worst band.
    server.fleet().unwrap().observe_reported("victim", 1000.0);

    // Occupy the pool with a slow call from an unrelated client.
    let svc2 = sensor_service();
    let blocker = std::thread::spawn(move || {
        // Needs a quality manager: overload may develop *while* its call
        // is in flight, degrading even this response.
        let mut c = SoapClient::connect(addr, &svc2, WireEncoding::Xml)
            .unwrap()
            .with_quality(quality_manager());
        c.call("read", Value::Int(1)).unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));

    // Worst-band, non-idempotent: shed with 503 + Retry-After, on the
    // event loop — no waiting behind the stuck pool.
    let mut victim = SoapClient::connect_with(
        addr,
        &svc,
        WireEncoding::Xml,
        ClientConfig::new().client_id("victim"),
    )
    .unwrap();
    match victim.call("read", Value::Int(0)) {
        Err(SoapError::Overloaded { retry_after }) => {
            assert_eq!(retry_after, Duration::from_secs(7))
        }
        other => panic!("expected an admission shed, got {other:?}"),
    }

    // A first-time caller is admitted but served one band lower.
    let mut newbie = SoapClient::connect_with(
        addr,
        &svc,
        WireEncoding::Xml,
        ClientConfig::new().client_id("newbie"),
    )
    .unwrap()
    .with_quality(quality_manager());
    let v = newbie.call("read", Value::Int(0)).unwrap();
    assert_eq!(
        v.as_struct().unwrap().field("temps"),
        Some(&Value::FloatArray(vec![])),
        "admitted call is degraded one band under overload"
    );

    blocker.join().unwrap();
    assert!(reg.counter("qos.fleet.shed").get() >= 1, "fleet shed count");
    assert!(reg.counter("http.admission.shed").get() >= 1);
    assert!(reg.counter("qos.fleet.degraded").get() >= 1);
}

#[test]
fn red_burn_rate_sheds_even_without_queue_pressure() {
    use sbq_qos::FleetQos;
    use soap_binq::client::ClientConfig;
    use soap_binq::{AdmissionPolicy, HealthConfig, Registry, ServerConfig, SoapError};

    let svc = sensor_service();
    let reg = Registry::new();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Xml)
        .unwrap()
        .handle("read", |_| reading_value())
        .with_fleet(FleetQos::new(quality_file()).telemetry(&reg))
        // Queue depth alone can never trip this policy — only the
        // health monitor's burn-rate signal can.
        .admission_policy(
            AdmissionPolicy::new()
                .overload_factor(f64::INFINITY)
                .retry_after(Duration::from_secs(3))
                .shed_on_red(),
        )
        .transport(
            ServerConfig::default()
                .worker_threads(1)
                .health(HealthConfig::new().without_proc_sampler())
                .telemetry(reg.clone()),
        )
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let addr = server.addr();

    // The server already knows "victim" sits in the worst band.
    server.fleet().unwrap().observe_reported("victim", 1000.0);
    let mut victim = SoapClient::connect_with(
        addr,
        &svc,
        WireEncoding::Xml,
        ClientConfig::new().client_id("victim"),
    )
    .unwrap();

    // Healthy burn: even the worst band is admitted.
    victim.call("read", Value::Int(0)).unwrap();

    // Torch the availability budget in both short windows.
    let health = server.health();
    for _ in 0..200 {
        health.observe_request(false, 10);
    }
    assert!(health.snapshot().red, "SLO burn should be red");

    match victim.call("read", Value::Int(0)) {
        Err(SoapError::Overloaded { retry_after }) => {
            assert_eq!(retry_after, Duration::from_secs(3))
        }
        other => panic!("expected a red-burn shed, got {other:?}"),
    }
    assert!(reg.counter("http.admission.shed").get() >= 1);
}
