//! Cross-crate integration: WSDL discovery → compilation → live calls
//! across heterogeneous hosts and every wire encoding.

use sbq_model::{workload, TypeDesc, Value};
use sbq_pbio::{format::FormatOptions, ByteOrder};
use sbq_wsdl::{compile, generate_rust_stubs, parse_wsdl, write_wsdl, ServiceDef};
use soap_binq::{SoapClient, SoapServerBuilder, WireEncoding};

fn sensor_service() -> ServiceDef {
    ServiceDef::new("SensorService", "urn:test:sensors", "http://127.0.0.1:0/s")
        .with_operation(
            "get_reading",
            TypeDesc::struct_of(
                "query",
                vec![("sensor_id", TypeDesc::Int), ("window", TypeDesc::Int)],
            ),
            TypeDesc::struct_of(
                "reading",
                vec![
                    ("sensor_id", TypeDesc::Int),
                    ("samples", TypeDesc::list_of(TypeDesc::Float)),
                    ("frame", TypeDesc::Bytes),
                ],
            ),
        )
        .with_operation("ping", TypeDesc::Int, TypeDesc::Int)
}

fn start_server(svc: &ServiceDef, enc: WireEncoding) -> soap_binq::SoapServer {
    SoapServerBuilder::new(svc, enc)
        .unwrap()
        .handle("get_reading", |req| {
            let s = req.as_struct().unwrap();
            let id = s.field("sensor_id").unwrap().as_int().unwrap();
            let window = s.field("window").unwrap().as_int().unwrap() as usize;
            Value::struct_of(
                "reading",
                vec![
                    ("sensor_id", Value::Int(id)),
                    (
                        "samples",
                        Value::FloatArray((0..window).map(|i| i as f64 * 0.5).collect()),
                    ),
                    ("frame", Value::Bytes((0..32u8).collect())),
                ],
            )
        })
        .handle("ping", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap()
}

#[test]
fn wsdl_discovery_drives_live_calls() {
    // The service definition makes a full trip through its textual WSDL
    // form before the client uses it — exactly the portal flow.
    let svc = sensor_service();
    let doc = write_wsdl(&svc).unwrap();
    let rediscovered = parse_wsdl(&doc).unwrap();
    assert_eq!(rediscovered, svc);

    let server = start_server(&rediscovered, WireEncoding::Pbio);
    let mut client = SoapClient::connect(server.addr(), &rediscovered, WireEncoding::Pbio).unwrap();
    let req = Value::struct_of(
        "query",
        vec![("sensor_id", Value::Int(7)), ("window", Value::Int(5))],
    );
    let v = client.call("get_reading", req).unwrap();
    let s = v.as_struct().unwrap();
    assert_eq!(s.field("sensor_id"), Some(&Value::Int(7)));
    assert_eq!(
        s.field("samples"),
        Some(&Value::FloatArray(vec![0.0, 0.5, 1.0, 1.5, 2.0]))
    );
    assert_eq!(s.field("frame").unwrap().as_bytes().unwrap().len(), 32);
}

#[test]
fn heterogeneous_client_converted_by_receiver() {
    // A big-endian, 4-byte-int client (the paper's SPARC) talks to a
    // native server: "receiver makes right" end to end over real sockets.
    let svc = sensor_service();
    let server = start_server(&svc, WireEncoding::Pbio);
    let sparc = FormatOptions {
        byte_order: ByteOrder::Big,
        int_width: 4,
        float_width: 8,
    };
    let compiled = compile(&svc, sparc).unwrap();
    let mut client = SoapClient::connect_compiled(
        server.addr(),
        compiled,
        WireEncoding::Pbio,
        soap_binq::ClientConfig::default(),
    )
    .unwrap();
    let req = Value::struct_of(
        "query",
        vec![("sensor_id", Value::Int(-3)), ("window", Value::Int(2))],
    );
    let v = client.call("get_reading", req).unwrap();
    assert_eq!(
        v.as_struct().unwrap().field("sensor_id"),
        Some(&Value::Int(-3))
    );
}

#[test]
fn all_encodings_serve_the_same_results() {
    let svc = sensor_service();
    let req = || {
        Value::struct_of(
            "query",
            vec![("sensor_id", Value::Int(1)), ("window", Value::Int(8))],
        )
    };
    let mut answers = Vec::new();
    for enc in [
        WireEncoding::Pbio,
        WireEncoding::Xml,
        WireEncoding::CompressedXml,
    ] {
        let server = start_server(&svc, enc);
        let mut client = SoapClient::connect(server.addr(), &svc, enc).unwrap();
        answers.push(client.call("get_reading", req()).unwrap());
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[1], answers[2]);
}

#[test]
fn xml_interop_surface_round_trips() {
    let svc = sensor_service();
    let server = start_server(&svc, WireEncoding::Pbio);
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
    let out = client
        .call_xml(
            "get_reading",
            "<q><sensor_id>9</sensor_id><window>1</window></q>",
        )
        .unwrap();
    assert!(out.contains("<sensor_id>9</sensor_id>"), "{out}");
    assert!(out.starts_with("<get_readingResult>"));
}

#[test]
fn generated_stub_source_matches_service() {
    let compiled = compile(&sensor_service(), FormatOptions::default()).unwrap();
    let src = generate_rust_stubs(&compiled);
    assert!(src.contains("pub struct SensorServiceClient"));
    assert!(src.contains("pub fn get_reading(&mut self, params: Value)"));
    assert!(src.contains("pub trait SensorServiceHandler"));
}

#[test]
fn large_payloads_cross_the_stack() {
    let svc = ServiceDef::new("Big", "urn:test:big", "x").with_operation(
        "echo",
        TypeDesc::list_of(TypeDesc::Float),
        TypeDesc::list_of(TypeDesc::Float),
    );
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
    // ~8 MB payload.
    let v = workload::float_array(1_000_000, 3);
    let bulk_before = soap_binq::Registry::global()
        .counter("pbio.plan.bulk_ops")
        .get();
    assert_eq!(client.call("echo", v.clone()).unwrap(), v);
    // The conversion plans on both sides of the call ran the payload
    // through bulk array kernels, not per-element decoding.
    let bulk_after = soap_binq::Registry::global()
        .counter("pbio.plan.bulk_ops")
        .get();
    assert!(
        bulk_after > bulk_before,
        "pbio.plan.bulk_ops did not advance ({bulk_before} -> {bulk_after})"
    );
}

#[test]
fn multi_megabyte_swapped_arrays_echo_exactly() {
    // Byte-swapped f64 and i64 arrays above the kernels' 4 MiB
    // streaming-store threshold, echoed through a real server: the
    // values that come out of the socket must equal the input exactly.
    let svc = ServiceDef::new("Big", "urn:test:big", "x")
        .with_operation(
            "echo_f",
            TypeDesc::list_of(TypeDesc::Float),
            TypeDesc::list_of(TypeDesc::Float),
        )
        .with_operation(
            "echo_i",
            TypeDesc::list_of(TypeDesc::Int),
            TypeDesc::list_of(TypeDesc::Int),
        );
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .handle("echo_f", |v| v)
        .handle("echo_i", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    // A byte-swapping client format so the decode path exercises the
    // bswap kernels, not just memcpy.
    let swapped = FormatOptions {
        byte_order: if cfg!(target_endian = "little") {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        },
        int_width: 8,
        float_width: 8,
    };
    let compiled = compile(&svc, swapped).unwrap();
    let mut client = SoapClient::connect_compiled(
        server.addr(),
        compiled,
        WireEncoding::Pbio,
        soap_binq::ClientConfig::default(),
    )
    .unwrap();

    let floats = workload::float_array(700_000, 9); // ~5.6 MB
    let ints = workload::int_array(700_000, 9);

    assert_eq!(client.call("echo_f", floats.clone()).unwrap(), floats);
    assert_eq!(client.call("echo_i", ints.clone()).unwrap(), ints);
}

#[test]
fn tracing_stitches_calls_on_every_encoding() {
    // Tracing is encoding-agnostic: the XML and compressed-XML paths must
    // produce the same stitched span tree as PBIO, with the marshal spans
    // named for their encoding.
    for (enc, marshal) in [
        (WireEncoding::Xml, "marshal.xml"),
        (WireEncoding::CompressedXml, "marshal.lzxml"),
    ] {
        let reg = soap_binq::Registry::new();
        reg.set_trace_config(soap_binq::TraceConfig::new().sample_one_in(1));
        let svc = sensor_service();
        let server = SoapServerBuilder::new(&svc, enc)
            .unwrap()
            .transport(soap_binq::ServerConfig::default().telemetry(reg.clone()))
            .handle("ping", |v| v)
            .bind("127.0.0.1:0".parse().unwrap())
            .unwrap();
        let mut client = SoapClient::connect_with(
            server.addr(),
            &svc,
            enc,
            soap_binq::ClientConfig::default().telemetry(reg.clone()),
        )
        .unwrap();
        assert_eq!(client.call("ping", Value::Int(5)).unwrap(), Value::Int(5));

        // The server's request span records when its worker drops it,
        // which can trail the client seeing the response by a moment.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let spans = loop {
            let spans = reg.tracer().snapshot();
            if spans.iter().any(|s| s.name == "server.request")
                || std::time::Instant::now() > deadline
            {
                break spans;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        let root = spans
            .iter()
            .find(|s| s.name == "client.call")
            .unwrap_or_else(|| panic!("{enc:?}: no client root in {spans:#?}"));
        assert!(
            spans.iter().all(|s| s.trace_id == root.trace_id),
            "{enc:?}: one trace id"
        );
        let attempt = spans.iter().find(|s| s.name == "client.attempt").unwrap();
        let request = spans.iter().find(|s| s.name == "server.request").unwrap();
        assert_eq!(request.parent_id, attempt.span_id, "{enc:?}: stitched");
        for suffix in [".encode", ".decode"] {
            let name = format!("{marshal}{suffix}");
            assert!(
                spans.iter().any(|s| s.name == name),
                "{enc:?}: {name} missing from {spans:#?}"
            );
        }
        assert!(
            !spans.iter().any(|s| s.name == "pbio.handshake"),
            "{enc:?}: XML modes have no PBIO handshake"
        );
    }
}

#[test]
fn faults_cross_every_encoding() {
    for enc in [
        WireEncoding::Pbio,
        WireEncoding::Xml,
        WireEncoding::CompressedXml,
    ] {
        let svc = sensor_service();
        // Server without the ping handler registered.
        let server = SoapServerBuilder::new(&svc, enc)
            .unwrap()
            .handle("get_reading", |v| v)
            .bind("127.0.0.1:0".parse().unwrap())
            .unwrap();
        let mut client = SoapClient::connect(server.addr(), &svc, enc).unwrap();
        let err = client.call("ping", Value::Int(1)).unwrap_err();
        match err {
            soap_binq::SoapError::Fault { message, .. } => {
                assert!(message.contains("ping"), "{enc:?}: {message}")
            }
            other => panic!("{enc:?}: expected fault, got {other}"),
        }
    }
}
