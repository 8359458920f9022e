//! The traced run: splits a workload's calls into per-layer numbers by
//! timing calls into each crate's public functions from outside.
//!
//! Phases, all on one server with the workload's inputs:
//!
//! 1. untraced `SoapClient::call` loop — the reference p50, the QoS RTT
//!    samples, and the program's own counters per call;
//! 2. the same loop with allocation counting on;
//! 3. a decomposed client that rebuilds `SoapClient::call` from public
//!    pieces, each wrapped in a span (kept in memory, written out at the
//!    end); its request and response bodies are captured;
//! 4. single-threaded replays of each layer's public functions on the
//!    captured bodies and the workload's values;
//! 5. the Sun RPC floor and a bare HTTP echo of the same body sizes.

use crate::fixture::{self, Expect, Fixture, Kind, Slot, Tally};
use crate::stats::median;
use crate::sys::{self, Side};
use crate::trace::{self, Recorder};
use sbq_http::{HttpClient, HttpServer, Request, Response};
use sbq_imaging::install_resize_handlers;
use sbq_imaging::service::image_to_value;
use sbq_model::{numfmt, workload, Value};
use sbq_pbio::{FormatServer, PbioEndpoint, WireFrame};
use sbq_qos::QualityManager;
use sbq_runtime::BufferPool;
use sbq_telemetry::Registry;
use sbq_wsdl::StubSpec;
use sbq_xdr::{RpcClient, RpcServer};
use soap_binq::envelope::{self, QosHeader};
use soap_binq::{SoapClient, WireEncoding};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.client_encode_us", "us"),
    ("core.client_decode_us", "us"),
    ("core.server_decode_us", "us"),
    ("core.server_encode_us", "us"),
    ("core.dispatch_us", "us"),
    ("core.overhead_over_rpc_us", "us"),
    ("http.client_send_us", "us"),
    ("http.server_read_us", "us"),
    ("http.queue_wait_us", "us"),
    ("http.handler_us", "us"),
    ("http.server_write_us", "us"),
    ("http.bare_echo_us", "us"),
    ("http.framing_bytes_per_call", "bytes"),
    ("runtime.reactor_events_per_call", "count"),
    ("runtime.reactor_wakeups_per_call", "count"),
    ("runtime.pool_hit_ratio", "ratio"),
    ("runtime.pool_held_mb", "MB"),
    ("runtime.allocs_per_call", "count"),
    ("runtime.alloc_kb_per_call", "kB"),
    ("pbio.encode_us", "us"),
    ("pbio.decode_us", "us"),
    ("pbio.handshake_us", "us"),
    ("pbio.bulk_ops_per_call", "count"),
    ("pbio.scalar_ops_per_call", "count"),
    ("xml.parse_mb_s", "MB/s"),
    ("xml.parse_allocs_per_call", "count"),
    ("xml.write_mb_s", "MB/s"),
    ("model.dtoa_mb_s", "MB/s"),
    ("lz.compress_mb_s", "MB/s"),
    ("lz.decompress_mb_s", "MB/s"),
    ("lz.ratio", "ratio"),
    ("qos.prepare_us", "us"),
    ("qos.reduced_share", "ratio"),
    ("qos.band_switches", "count"),
    ("qos.rtt_overcount_us", "us"),
    ("imaging.resize_us", "us"),
    ("telemetry.spans_per_call", "count"),
    ("xdr.rpc_call_p50_us", "us"),
    ("ledger.residual_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// ROADMAP item 1's ledger target: layers must explain 90 % of a call.
const RESIDUAL_LIMIT: f64 = 0.10;
/// Session ids of decomposed clients (far above `SoapClient`'s counter).
const DECOMPOSED_SESSION_BASE: u64 = 1 << 48;

/// What the traced run produced.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Bodies the decomposed client captured for the replays.
#[derive(Default)]
struct Captured {
    /// First request of a session (PBIO: carries the format handshake).
    first_request: Vec<u8>,
    /// A steady-state request and its response.
    request: Vec<u8>,
    response: Vec<u8>,
    /// HTTP head bytes of that request and response.
    framing_bytes: usize,
}

/// A client that rebuilds `SoapClient::call` from public pieces.
struct Decomposed<'a> {
    fx: &'a Fixture,
    http: HttpClient,
    endpoint: PbioEndpoint,
    stub: StubSpec,
    session: u64,
    quality: Option<QualityManager>,
    path: String,
    host: String,
}

impl<'a> Decomposed<'a> {
    fn connect(fx: &'a Fixture, session: u64) -> Result<Decomposed<'a>, String> {
        let compiled = sbq_wsdl::compile(&fx.svc, Default::default()).map_err(|e| e.to_string())?;
        let stub = compiled.stub(fx.op).ok_or("unknown operation")?.clone();
        let addr = fx.server.addr();
        Ok(Decomposed {
            fx,
            http: HttpClient::connect(addr).map_err(|e| e.to_string())?,
            endpoint: PbioEndpoint::new(Arc::new(FormatServer::new())),
            stub,
            session,
            quality: fx.quality.clone().map(QualityManager::new),
            path: format!("/{}", fx.svc.name),
            host: addr.to_string(),
        })
    }

    fn encode(&mut self, params: &Value) -> Result<Request, String> {
        let header = QosHeader {
            rtt_ms: self
                .quality
                .as_ref()
                .and_then(|q| q.estimator().estimate_ms()),
            ..QosHeader::default()
        };
        let encoding = self.fx.kind.encoding();
        let mut req = match encoding {
            WireEncoding::Pbio => {
                let mut body = BufferPool::global().get(params.native_size() + 64);
                self.endpoint
                    .send_into(params, &self.stub.input_format, &mut body)
                    .map_err(|e| e.to_string())?;
                let mut req = Request::post(&self.path, encoding.content_type(), body);
                req.headers.push(("X-Soap-Op".into(), self.fx.op.into()));
                req.headers
                    .push(("X-Pbio-Session".into(), self.session.to_string()));
                req.headers.extend(header.to_http_headers());
                req
            }
            _ => {
                let xml = envelope::build_request(self.fx.op, params, &header);
                Request::post(&self.path, encoding.content_type(), xml.into_bytes())
            }
        };
        req.headers.push(("Host".into(), self.host.clone()));
        Ok(req)
    }

    fn decode(&mut self, resp: &mut Response) -> Result<(Value, QosHeader), String> {
        if resp.status != 200 {
            return Err(format!("http status {}", resp.status));
        }
        let body = std::mem::take(&mut resp.body);
        let out = match self.fx.kind.encoding() {
            WireEncoding::Pbio => {
                let header = QosHeader::from_http_headers(|n| resp.header(n));
                let value = decode_pbio(&mut self.endpoint, &body, &self.stub.output_format)?;
                (value, header)
            }
            _ => {
                let xml = std::str::from_utf8(&body).map_err(|e| e.to_string())?;
                let out = self.stub.output.clone();
                let parsed = envelope::parse_envelope(xml, |_| Some(out.clone()))
                    .map_err(|e| e.to_string())?;
                (parsed.value, parsed.header)
            }
        };
        BufferPool::global().put(body);
        Ok(out)
    }

    /// One traced call; captures bodies when `capture` is given.
    fn call(
        &mut self,
        rec: &mut Recorder,
        id: u64,
        slot: &Slot,
        capture: Option<&mut Captured>,
    ) -> Result<Value, String> {
        if let (Some(ms), Some(q)) = (slot.rtt_ms, self.quality.as_mut()) {
            fixture::feed_rtt(q, ms);
        }
        let params = slot.request.clone();
        let root = rec.begin("call", id, None);
        let req = rec.span("core.client_encode", id, Some(root), || {
            self.encode(&params)
        });
        let req = match req {
            Ok(r) => r,
            Err(e) => {
                rec.end(root);
                return Err(e);
            }
        };
        let head = req.wire_len() - req.body.len();
        let body = capture.as_ref().map(|_| req.body.clone());
        let t_send = Instant::now();
        let resp = rec.span("http.client_send", id, Some(root), || self.http.send(req));
        let rtt = t_send.elapsed();
        let mut resp = match resp {
            Ok(r) => r,
            Err(e) => {
                rec.end(root);
                return Err(e.to_string());
            }
        };
        if let (Some(cap), Some(body)) = (capture, body) {
            if cap.first_request.is_empty() {
                cap.first_request = body;
            } else {
                cap.request = body;
                cap.response = resp.body.clone();
                cap.framing_bytes = head + resp.wire_len() - resp.body.len();
            }
        }
        let decoded = rec.span("core.client_decode", id, Some(root), || {
            self.decode(&mut resp)
        });
        rec.end(root);
        let (value, header) = decoded?;
        if let Some(q) = self.quality.as_mut() {
            q.observe_rtt(rtt, Duration::from_micros(header.server_time_us));
        }
        Ok(value)
    }
}

fn decode_pbio(
    endpoint: &mut PbioEndpoint,
    body: &[u8],
    native: &sbq_pbio::FormatDesc,
) -> Result<Value, String> {
    let mut value = None;
    let mut buf = body;
    while !buf.is_empty() {
        let (frame, used) = WireFrame::parse(buf).map_err(|e| e.to_string())?;
        buf = &buf[used..];
        if let Some(v) = endpoint
            .receive_frame(&frame, Some(native))
            .map_err(|e| e.to_string())?
        {
            value = Some(v);
        }
    }
    value.ok_or_else(|| "no data message".to_string())
}

/// Repeats `f` for at least `min` runs and until `budget` is spent (at
/// most `max` runs); returns the median run time in µs.
fn p50_us(min: usize, max: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min || (runs.len() < max && start.elapsed() < budget) {
        let t0 = Instant::now();
        f();
        runs.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&runs)
}

/// Snapshot of the program's own counters (global registry).
struct Counters {
    events: u64,
    wakeups: u64,
    pool_hit: u64,
    pool_miss: u64,
    spans: u64,
    bulk_ops: u64,
    scalar_ops: u64,
    reduced: u64,
    requests: u64,
}

impl Counters {
    fn read(fx: &Fixture) -> Counters {
        let reg = Registry::global();
        let c = |name: &str| reg.counter(name).get();
        Counters {
            events: c("reactor.events"),
            wakeups: c("reactor.wakeups"),
            pool_hit: c("pool.buffers.hit"),
            pool_miss: c("pool.buffers.miss"),
            spans: c("trace.recorded"),
            bulk_ops: c("pbio.plan.bulk_ops"),
            scalar_ops: c("pbio.plan.scalar_ops"),
            reduced: fx.server.reduced_responses(),
            requests: fx.server.requests(),
        }
    }
}

fn hist_p50_us(name: &str) -> f64 {
    Registry::global().histogram(name).snapshot().quantile(0.5) as f64 / 1e3
}

/// Runs decomposed clients (one per workload client) for `span`.
fn run_decomposed(
    fx: &Fixture,
    span: Duration,
) -> Result<(Vec<trace::Span>, Tally, Captured), String> {
    let clients = (0..fx.kind.clients())
        .map(|i| Decomposed::connect(fx, DECOMPOSED_SESSION_BASE + i as u64))
        .collect::<Result<Vec<_>, _>>()?;
    let base = Instant::now();
    let until = base + span;
    let results: Vec<(Recorder, Tally, Option<Captured>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut client)| {
                s.spawn(move || {
                    sys::pin(Side::Client);
                    let mut rec = Recorder::new(base);
                    let mut tally = Tally::default();
                    let mut cap = (t == 0).then(Captured::default);
                    let mut id = (t as u64) << 40;
                    loop {
                        for slot in &fx.slots {
                            let capture = cap.as_mut().filter(|c| c.response.is_empty());
                            match client.call(&mut rec, id, slot, capture) {
                                Ok(v) if fx.check(slot, &v) => {}
                                Ok(_) => tally.failed += 1,
                                Err(e) => {
                                    tally.failed += 1;
                                    tally.errors.push(e);
                                }
                            }
                            tally.calls += 1;
                            id += 1;
                        }
                        tally.rounds += 1;
                        if Instant::now() >= until || tally.failed > 0 {
                            break;
                        }
                    }
                    (rec, tally, cap)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced client panicked"))
            .collect()
    });
    let mut spans = Vec::new();
    let mut tallies = Vec::new();
    let mut captured = None;
    for (rec, tally, cap) in results {
        captured = captured.or(cap);
        let offset = spans.len();
        spans.extend(rec.spans().iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        tallies.push(tally);
    }
    match captured {
        Some(c) if !c.response.is_empty() => Ok((spans, Tally::merge(tallies), c)),
        _ => Err("traced run captured no steady-state call".into()),
    }
}

/// The Sun RPC floor: the same call (request in, expected full-quality
/// response out) over `sbq_xdr::rpc` on loopback. Returns the p50 (µs).
fn rpc_floor(fx: &Fixture, span: Duration) -> Result<f64, String> {
    const PROG: u32 = 0x2000_5eb0;
    let compiled = sbq_wsdl::compile(&fx.svc, Default::default()).map_err(|e| e.to_string())?;
    let stub = compiled.stub(fx.op).ok_or("unknown operation")?.clone();
    let mut server = RpcServer::new(PROG, 1);
    match &fx.store {
        Some(store) => {
            let store = Arc::clone(store);
            server.register(1, stub.input.clone(), stub.output.clone(), move |v| {
                store.handle_get_image(v)
            });
        }
        None => server.register(1, stub.input.clone(), stub.output.clone(), |v| v),
    }
    let (addr, _handle) = server
        .serve("127.0.0.1:0".parse().expect("loopback address"))
        .map_err(|e| e.to_string())?;
    let mut client = RpcClient::connect(addr, PROG, 1).map_err(|e| e.to_string())?;
    // The client loop runs where the SOAP clients do.
    sys::pin(Side::Client);
    let lat = rpc_loop(fx, &stub, &mut client, span);
    sys::pin(Side::Server);
    Ok(median(&lat?))
}

fn rpc_loop(
    fx: &Fixture,
    stub: &StubSpec,
    client: &mut RpcClient,
    span: Duration,
) -> Result<Vec<f64>, String> {
    let mut lat = Vec::new();
    let until = Instant::now() + span;
    'outer: loop {
        for slot in &fx.slots {
            let want = match slot.expect {
                Expect::Echo => slot.request.clone(),
                Expect::Image { image, .. } => image_to_value(&fx.frames[image][0]),
            };
            let t0 = Instant::now();
            let got = client
                .call(1, &slot.request, &stub.input, &stub.output)
                .map_err(|e| e.to_string())?;
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
            if got != want {
                return Err("rpc floor returned a wrong result".into());
            }
            if Instant::now() >= until {
                break 'outer;
            }
        }
    }
    Ok(lat)
}

/// A plain `HttpServer` answering the captured response body to the
/// captured request body, with no SOAP. Returns the p50 (µs).
fn bare_echo(fx: &Fixture, cap: &Captured, span: Duration) -> Result<f64, String> {
    let ct = fx.kind.encoding().content_type();
    let response = Arc::new(cap.response.clone());
    let reply = Arc::clone(&response);
    let mut server = HttpServer::bind(
        "127.0.0.1:0".parse().expect("loopback address"),
        move |_| Response::ok(ct, reply.to_vec()),
    )
    .map_err(|e| e.to_string())?;
    let mut client = HttpClient::connect(server.addr()).map_err(|e| e.to_string())?;
    let path = format!("/{}", fx.svc.name);
    sys::pin(Side::Client);
    let lat = (|| {
        let mut lat = Vec::new();
        let until = Instant::now() + span;
        while lat.len() < 10 || Instant::now() < until {
            let req = Request::post(&path, ct, cap.request.clone());
            let t0 = Instant::now();
            let resp = client.send(req).map_err(|e| e.to_string())?;
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
            if resp.body.len() != response.len() {
                return Err("bare echo returned a wrong body".to_string());
            }
            BufferPool::global().put(resp.body);
        }
        Ok(lat)
    })();
    sys::pin(Side::Server);
    drop(client);
    server.shutdown();
    Ok(median(&lat?))
}

/// Replays of single layers on the captured bodies and the workload's
/// values.
struct Replays {
    server_decode: f64,
    server_encode: f64,
    handler: f64,
    pbio_encode: f64,
    pbio_decode: f64,
    handshake: f64,
    xml_parse_mb_s: f64,
    xml_parse_allocs: f64,
    xml_write_mb_s: f64,
    dtoa_mb_s: f64,
    lz_compress_mb_s: f64,
    lz_decompress_mb_s: f64,
    lz_ratio: f64,
    qos_prepare: f64,
    resize: f64,
}

fn replays(fx: &Fixture, cap: &Captured, seed: u64) -> Result<Replays, String> {
    let budget = Duration::from_millis(150);
    let compiled = sbq_wsdl::compile(&fx.svc, Default::default()).map_err(|e| e.to_string())?;
    let stub = compiled.stub(fx.op).ok_or("unknown operation")?.clone();
    let header = QosHeader {
        server_time_us: 1,
        ..QosHeader::default()
    };
    let slot0 = &fx.slots[0];
    let response = fx.response(slot0);
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // Server side of the call, on the captured request and the round's
    // response values.
    let (server_decode, server_encode) = match fx.kind.encoding() {
        WireEncoding::Pbio => {
            let mut rx = PbioEndpoint::new(Arc::new(FormatServer::new()));
            decode_pbio(&mut rx, &cap.first_request, &stub.input_format)?;
            let decode = p50_us(20, 2000, budget, || {
                decode_pbio(&mut rx, &cap.request, &stub.input_format).expect("replayed decode");
            });
            let mut tx = PbioEndpoint::new(Arc::new(FormatServer::new()));
            let mut warm = Vec::new();
            tx.send_into(&response, &stub.output_format, &mut warm)
                .map_err(|e| err(&e))?;
            let values: Vec<Value> = fx.slots.iter().map(|s| fx.response(s)).collect();
            let mut i = 0;
            let encode = p50_us(values.len().min(240), 2000, budget, || {
                let v = &values[i % values.len()];
                i += 1;
                let mut body = BufferPool::global().get(v.native_size() + 64);
                tx.send_into(v, &stub.output_format, &mut body)
                    .expect("replayed encode");
                std::hint::black_box(header.to_http_headers());
                BufferPool::global().put(body);
            });
            (decode, encode)
        }
        _ => {
            let xml = std::str::from_utf8(&cap.request).map_err(|e| err(&e))?;
            let decode = p50_us(10, 500, budget, || {
                envelope::parse_envelope(xml, |_| Some(stub.input.clone()))
                    .expect("replayed parse");
            });
            let encode = p50_us(10, 500, budget, || {
                std::hint::black_box(envelope::build_response(fx.op, &response, &header));
            });
            (decode, encode)
        }
    };

    // The application handler alone.
    let handler = match &fx.store {
        Some(store) => p50_us(10, 200, budget, || {
            std::hint::black_box(store.handle_get_image(slot0.request.clone()));
        }),
        None => 0.0,
    };

    // PBIO on the response value, whatever the workload's encoding.
    let mut tx = PbioEndpoint::new(Arc::new(FormatServer::new()));
    let mut first = Vec::new();
    tx.send_into(&response, &stub.output_format, &mut first)
        .map_err(|e| err(&e))?;
    let mut body = Vec::new();
    tx.send_into(&response, &stub.output_format, &mut body)
        .map_err(|e| err(&e))?;
    let pbio_encode = p50_us(20, 2000, budget, || {
        let mut out = BufferPool::global().get(response.native_size() + 64);
        tx.send_into(&response, &stub.output_format, &mut out)
            .expect("replayed encode");
        BufferPool::global().put(out);
    });
    let mut rx = PbioEndpoint::new(Arc::new(FormatServer::new()));
    decode_pbio(&mut rx, &first, &stub.output_format)?;
    let pbio_decode = p50_us(20, 2000, budget, || {
        decode_pbio(&mut rx, &body, &stub.output_format).expect("replayed decode");
    });
    let handshake = p50_us(20, 200, budget, || {
        let mut fresh = PbioEndpoint::new(Arc::new(FormatServer::new()));
        let mut out = Vec::new();
        fresh
            .send_into(&slot0.request, &stub.input_format, &mut out)
            .expect("handshake encode");
    });

    // XML on the response envelope (the captured one on XML workloads).
    let built = envelope::build_response(fx.op, &response, &header);
    let xml_response = match fx.kind.encoding() {
        WireEncoding::Xml => std::str::from_utf8(&cap.response)
            .map_err(|e| err(&e))?
            .to_string(),
        _ => built.clone(),
    };
    let out_ty = stub.output.clone();
    let parse = || {
        envelope::parse_envelope(&xml_response, |_| Some(out_ty.clone())).expect("replayed parse")
    };
    let parse_us = p50_us(5, 500, budget, || {
        std::hint::black_box(parse());
    });
    let xml_parse_allocs = (0..3)
        .map(|_| {
            let (a0, _) = sys::allocs();
            sys::counting(true);
            std::hint::black_box(parse());
            sys::counting(false);
            (sys::allocs().0 - a0) as f64
        })
        .fold(f64::INFINITY, f64::min);
    let write_us = p50_us(5, 500, budget, || {
        std::hint::black_box(envelope::build_response(fx.op, &response, &header));
    });
    let mb_s = |bytes: usize, us: f64| bytes as f64 / us;

    // Shortest-round-trip float formatting (model::numfmt).
    let floats = match workload::float_array(8192, seed) {
        Value::FloatArray(v) => v,
        _ => unreachable!("float_array builds a FloatArray"),
    };
    let mut text = String::with_capacity(floats.len() * 24);
    let dtoa_us = p50_us(10, 500, budget, || {
        text.clear();
        for &x in &floats {
            numfmt::write_f64(&mut text, x);
        }
    });

    // LZ on the XML request body.
    let xml_request = match fx.kind.encoding() {
        WireEncoding::Xml => cap.request.clone(),
        _ => envelope::build_request(fx.op, &slot0.request, &QosHeader::default()).into_bytes(),
    };
    let packed = sbq_lz::compress(&xml_request);
    let lz_compress = p50_us(5, 200, budget, || {
        std::hint::black_box(sbq_lz::compress(&xml_request));
    });
    let lz_decompress = p50_us(5, 500, budget, || {
        std::hint::black_box(sbq_lz::decompress(&packed).expect("replayed decompress"));
    });

    // Quality management and the resize handler (image-qos only).
    let (qos_prepare, resize) = match &fx.quality {
        Some(file) => {
            let mut qm = QualityManager::new(file.clone());
            install_resize_handlers(qm.handlers());
            let full: Vec<Value> = fx.frames.iter().map(|f| image_to_value(&f[0])).collect();
            let mut prepare = Vec::new();
            for slot in &fx.slots {
                let Expect::Image { image, .. } = slot.expect else {
                    continue;
                };
                qm.observe_reported(slot.rtt_ms.unwrap_or(0.0));
                let t0 = Instant::now();
                std::hint::black_box(qm.prepare(&full[image]));
                prepare.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            let resize = p50_us(10, 200, budget, || {
                std::hint::black_box(qm.handlers().apply_or_identity(
                    "resize_half",
                    &full[0],
                    qm.attributes(),
                ));
            });
            (median(&prepare), resize)
        }
        None => (0.0, 0.0),
    };

    Ok(Replays {
        server_decode,
        server_encode,
        handler,
        pbio_encode,
        pbio_decode,
        handshake,
        xml_parse_mb_s: mb_s(xml_response.len(), parse_us),
        xml_parse_allocs,
        xml_write_mb_s: mb_s(built.len(), write_us),
        dtoa_mb_s: mb_s(text.len(), dtoa_us),
        lz_compress_mb_s: mb_s(xml_request.len(), lz_compress),
        lz_decompress_mb_s: mb_s(xml_request.len(), lz_decompress),
        lz_ratio: xml_request.len() as f64 / packed.len() as f64,
        qos_prepare,
        resize,
    })
}

/// The traced run of `kind` with inputs from `seed`, spending about
/// `seconds` on call loops. Spans are written to `trace_path`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Result<Traced, String> {
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let fx = Fixture::build(kind, seed)?;
    println!("# {}", fx.digest());
    let mut clients: Vec<SoapClient> = (0..kind.clients())
        .map(|_| fx.connect())
        .collect::<Result<_, _>>()?;
    for c in clients.iter_mut() {
        fixture::first_call(&fx, c)?;
    }
    let far = Instant::now() + Duration::from_secs(120);
    let warm = fixture::drive_all(&fx, &mut clients, Instant::now() + secs(0.05), 0, far);

    // 1. Untraced reference loop with the program's counters.
    let c0 = Counters::read(&fx);
    let untraced = fixture::drive_all(&fx, &mut clients, Instant::now() + secs(0.3), 0, far);
    let c1 = Counters::read(&fx);

    // 2. The same loop, counting allocations.
    let (a0, b0) = sys::allocs();
    sys::counting(true);
    let counted = fixture::drive_all(&fx, &mut clients, Instant::now() + secs(0.1), 0, far);
    sys::counting(false);
    let (a1, b1) = sys::allocs();
    drop(clients);

    // 3. Decomposed, traced client.
    let (spans, traced, cap) = run_decomposed(&fx, secs(0.3))?;
    // The server's own phase histograms and pool gauge, read before the
    // bare HTTP echo below records into the same global registry.
    let [read_us, queue_us, handler_us, write_us] = [
        "http.read_ns",
        "http.queue_wait_ns",
        "http.handler_ns",
        "http.write_ns",
    ]
    .map(hist_p50_us);
    let pool_held_mb = Registry::global().gauge("pool.buffers.held_bytes").get() as f64 / 1e6;
    write_spans(trace_path, &spans);
    let by_name = trace::self_times_by_name(&spans);
    let span_p50_us = |name: &str| by_name.get(name).map_or(0.0, |v| median(v) / 1e3);
    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();

    // 4. Replays.
    let r = replays(&fx, &cap, seed)?;

    // 5. Floors.
    let rpc = rpc_floor(&fx, secs(0.1))?;
    let bare = bare_echo(&fx, &cap, secs(0.1))?;

    let calls = untraced.calls.max(1) as f64;
    let per_call = |a: u64, b: u64| (b - a) as f64 / calls;
    let untraced_p50 = untraced.lat.percentile(50.0) / 1e3;
    let client_send = span_p50_us("http.client_send");
    let residual = trace::residual_share(&spans);
    let hits = (c1.pool_hit - c0.pool_hit) as f64;
    let misses = (c1.pool_miss - c0.pool_miss) as f64;
    let counted_calls = counted.calls.max(1) as f64;
    let metrics = vec![
        ("core.client_encode_us", span_p50_us("core.client_encode")),
        ("core.client_decode_us", span_p50_us("core.client_decode")),
        ("core.server_decode_us", r.server_decode),
        ("core.server_encode_us", r.server_encode),
        (
            "core.dispatch_us",
            handler_us - r.server_decode - r.handler - r.qos_prepare - r.server_encode,
        ),
        ("core.overhead_over_rpc_us", untraced_p50 - rpc),
        ("http.client_send_us", client_send),
        ("http.server_read_us", read_us),
        ("http.queue_wait_us", queue_us),
        ("http.handler_us", handler_us),
        ("http.server_write_us", write_us),
        ("http.bare_echo_us", bare),
        ("http.framing_bytes_per_call", cap.framing_bytes as f64),
        (
            "runtime.reactor_events_per_call",
            per_call(c0.events, c1.events),
        ),
        (
            "runtime.reactor_wakeups_per_call",
            per_call(c0.wakeups, c1.wakeups),
        ),
        ("runtime.pool_hit_ratio", hits / (hits + misses).max(1.0)),
        ("runtime.pool_held_mb", pool_held_mb),
        ("runtime.allocs_per_call", (a1 - a0) as f64 / counted_calls),
        (
            "runtime.alloc_kb_per_call",
            (b1 - b0) as f64 / 1e3 / counted_calls,
        ),
        ("pbio.encode_us", r.pbio_encode),
        ("pbio.decode_us", r.pbio_decode),
        ("pbio.handshake_us", r.handshake),
        ("pbio.bulk_ops_per_call", per_call(c0.bulk_ops, c1.bulk_ops)),
        (
            "pbio.scalar_ops_per_call",
            per_call(c0.scalar_ops, c1.scalar_ops),
        ),
        ("xml.parse_mb_s", r.xml_parse_mb_s),
        ("xml.parse_allocs_per_call", r.xml_parse_allocs),
        ("xml.write_mb_s", r.xml_write_mb_s),
        ("model.dtoa_mb_s", r.dtoa_mb_s),
        ("lz.compress_mb_s", r.lz_compress_mb_s),
        ("lz.decompress_mb_s", r.lz_decompress_mb_s),
        ("lz.ratio", r.lz_ratio),
        ("qos.prepare_us", r.qos_prepare),
        (
            "qos.reduced_share",
            (c1.reduced - c0.reduced) as f64 / (c1.requests - c0.requests).max(1) as f64,
        ),
        (
            "qos.band_switches",
            untraced.band_switches as f64 / untraced.rounds.max(1) as f64,
        ),
        (
            "qos.rtt_overcount_us",
            untraced.rtt.percentile(50.0) / 1e3 - client_send,
        ),
        ("imaging.resize_us", r.resize),
        ("telemetry.spans_per_call", per_call(c0.spans, c1.spans)),
        ("xdr.rpc_call_p50_us", rpc),
        ("ledger.residual_share", residual),
        (
            "trace.overhead_pct",
            (median(&roots) - untraced_p50) / untraced_p50 * 100.0,
        ),
    ];
    if residual > RESIDUAL_LIMIT {
        println!(
            "# WARNING ledger residual {:.1}% exceeds the {:.0}% target",
            residual * 100.0,
            RESIDUAL_LIMIT * 100.0
        );
    }
    println!(
        "# untraced call p50 {untraced_p50:.1} us over {} calls; traced p50 {:.1} us over {} calls; \
         server split of http.client_send: read {:.1} + queue {:.1} + handler {:.1} + write {:.1} us",
        untraced.calls,
        median(&roots),
        roots.len(),
        read_us,
        queue_us,
        handler_us,
        write_us,
    );
    println!(
        "# Fig. 4 yardstick: SOAP call p50 {untraced_p50:.1} us beside the Sun RPC floor \
         {rpc:.1} us for the same call over loopback"
    );
    let all = Tally::merge(vec![warm, untraced, counted, traced]);
    Ok(Traced {
        metrics,
        attempted: all.calls,
        failed: all.failed,
        errors: all.errors,
    })
}

/// Writes the spans as JSON; a failure to write is reported, not fatal.
fn write_spans(path: &std::path::Path, spans: &[trace::Span]) {
    let json = trace::to_json(spans);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(path, json));
    match written {
        Ok(()) => println!("# spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("# spans: not written to {}: {e}", path.display()),
    }
}
