//! The SOAP-binQ server runtime.
//!
//! A [`SoapServer`] dispatches operations to registered handlers over any
//! wire encoding. With a quality manager attached, the server:
//!
//! 1. reads the client-reported RTT estimate from each request ("the
//!    server is informed of the new value during the next request",
//!    §IV-C.h),
//! 2. selects the response message type from the quality file "just
//!    before sending the message",
//! 3. applies the band's quality handler (or the trivial projection), and
//! 4. reports its own data-preparation time back so the client can
//!    compensate its estimator.

use crate::envelope::{self, QosHeader};
use crate::modes::WireEncoding;
use crate::SoapError;
use sbq_http::{Admission, HttpServer, Request, Response, ServerConfig, ServerHandle};
use sbq_pbio::{FormatServer, PbioEndpoint, WireFrame};
use sbq_qos::{FleetQos, QualityManager};
use sbq_telemetry::trace;
use sbq_telemetry::{Counter, Phase, Registry, Tracer};
use sbq_wsdl::{compile, CompiledService, ServiceDef, StubSpec};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

type Handler = Arc<dyn Fn(Value) -> Value + Send + Sync>;
use sbq_model::Value;

/// When a fleet-managed server ([`SoapServerBuilder::with_fleet`]) sheds
/// or degrades: overload is declared when the transport's in-flight job
/// count exceeds `overload_factor ×` the CPU-pool size. Under overload,
/// worst-band non-idempotent calls are shed with `503` + `Retry-After`
/// (a 503 is unambiguous — the call never executed, so even
/// non-idempotent clients can safely retry later), and every other call
/// is answered one quality band below the caller's own.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    overload_factor: f64,
    retry_after: Duration,
    shed_on_red: bool,
}

impl Default for AdmissionPolicy {
    fn default() -> AdmissionPolicy {
        AdmissionPolicy {
            overload_factor: 2.0,
            retry_after: Duration::from_secs(1),
            shed_on_red: false,
        }
    }
}

impl AdmissionPolicy {
    /// The default policy: overload past `2 ×` the worker-pool size,
    /// `Retry-After: 1` on shed responses.
    pub fn new() -> AdmissionPolicy {
        AdmissionPolicy::default()
    }

    /// Overload threshold as a multiple of the CPU-pool size (in-flight
    /// jobs above `factor × workers` count as overload) — builder style.
    pub fn overload_factor(mut self, factor: f64) -> AdmissionPolicy {
        self.overload_factor = factor.max(0.0);
        self
    }

    /// The `Retry-After` horizon advertised on shed responses — builder
    /// style.
    pub fn retry_after(mut self, d: Duration) -> AdmissionPolicy {
        self.retry_after = d;
        self
    }

    /// Also treat a red SLO burn rate (or a latched reactor-stall
    /// watchdog) as overload — builder style. The health signal comes
    /// from the transport's runtime health monitor via
    /// `ServerLoad::health`; instantaneous queue depth catches a burst,
    /// burn rate catches the slow bleed a queue-depth threshold never
    /// trips on.
    pub fn shed_on_red(mut self) -> AdmissionPolicy {
        self.shed_on_red = true;
        self
    }

    /// Whether red-burn shedding is enabled.
    pub fn sheds_on_red(&self) -> bool {
        self.shed_on_red
    }

    /// Whether `inflight` jobs over a pool of `workers` is overload.
    pub fn overloaded(&self, inflight: usize, workers: usize) -> bool {
        inflight as f64 > self.overload_factor * workers as f64
    }
}

/// Per-server fleet state: the shared table plus the policy that decides
/// when it sheds.
struct FleetState {
    fleet: Arc<FleetQos>,
    policy: AdmissionPolicy,
}

/// Builder for a [`SoapServer`].
pub struct SoapServerBuilder {
    compiled: CompiledService,
    encoding: WireEncoding,
    handlers: HashMap<String, Handler>,
    quality: Option<QualityManager>,
    fleet: Option<Arc<FleetQos>>,
    admission: AdmissionPolicy,
    transport: ServerConfig,
}

impl SoapServerBuilder {
    /// Starts a builder from a service definition (native-host PBIO
    /// formats).
    pub fn new(svc: &ServiceDef, encoding: WireEncoding) -> Result<SoapServerBuilder, SoapError> {
        Ok(SoapServerBuilder::new_compiled(
            compile(svc, Default::default())?,
            encoding,
        ))
    }

    /// Starts a builder from a compiled service.
    pub fn new_compiled(compiled: CompiledService, encoding: WireEncoding) -> SoapServerBuilder {
        SoapServerBuilder {
            compiled,
            encoding,
            handlers: HashMap::new(),
            quality: None,
            fleet: None,
            admission: AdmissionPolicy::default(),
            transport: ServerConfig::default(),
        }
    }

    /// Registers the implementation of an operation (consuming builder).
    pub fn handle(
        mut self,
        operation: &str,
        f: impl Fn(Value) -> Value + Send + Sync + 'static,
    ) -> SoapServerBuilder {
        self.handlers.insert(operation.to_string(), Arc::new(f));
        self
    }

    /// Attaches server-side continuous quality management.
    pub fn with_quality(mut self, quality: QualityManager) -> SoapServerBuilder {
        self.quality = Some(quality);
        self
    }

    /// Attaches fleet-scale per-client quality management and admission
    /// control: each caller (identified by its `X-Qos-Client` header,
    /// falling back to a client-supplied `X-Request-Id`, else `"anon"`)
    /// gets its own quality band in the shared [`FleetQos`] table, and
    /// responses are reduced against the *caller's* band rather than a
    /// connection-global one. Under overload (see [`AdmissionPolicy`])
    /// worst-band non-idempotent calls are shed on the event-loop
    /// thread with `503` + `Retry-After`, and everything else is
    /// degraded one extra band.
    ///
    /// Quality handlers come from the manager attached via
    /// [`SoapServerBuilder::with_quality`]; without one, a default
    /// manager over the fleet's quality file is used (projection-only
    /// reduction).
    pub fn with_fleet(self, fleet: FleetQos) -> SoapServerBuilder {
        self.with_fleet_shared(Arc::new(fleet))
    }

    /// Like [`SoapServerBuilder::with_fleet`], but shares an existing
    /// table (e.g. one the harness also inspects directly).
    pub fn with_fleet_shared(mut self, fleet: Arc<FleetQos>) -> SoapServerBuilder {
        self.fleet = Some(fleet);
        self
    }

    /// Sets the overload/shed policy used by
    /// [`SoapServerBuilder::with_fleet`].
    pub fn admission_policy(mut self, policy: AdmissionPolicy) -> SoapServerBuilder {
        self.admission = policy;
        self
    }

    /// Sets the transport configuration (worker pool size, timeouts,
    /// limits, fault injection) the bound server will run with.
    pub fn transport(mut self, config: ServerConfig) -> SoapServerBuilder {
        self.transport = config;
        self
    }

    /// Binds and starts serving.
    pub fn bind(self, addr: SocketAddr) -> Result<SoapServer, SoapError> {
        let mut transport = self.transport;
        let workers = transport.worker_pool_size();
        // Fleet mode needs a quality manager for handler application;
        // derive a projection-only one from the fleet's file if the
        // application did not attach its own.
        let quality = match (&self.fleet, self.quality) {
            (_, Some(q)) => Some(q),
            (Some(f), None) => Some(QualityManager::new(f.file().clone())),
            (None, None) => None,
        };
        // Admission control runs on the event-loop thread, before the
        // request costs a CPU-pool slot. The hook also mirrors the
        // transport's load signal into the fleet so the degrade decision
        // (made later, on a pool thread) sees the same overload the shed
        // decision did.
        if let Some(fleet) = &self.fleet {
            let fleet = Arc::clone(fleet);
            let policy = self.admission.clone();
            transport = transport.admission(move |req, load| {
                fleet.set_load(load.inflight_jobs);
                let unhealthy =
                    policy.shed_on_red && load.health.is_some_and(|h| h.red || h.stalled);
                if !policy.overloaded(load.inflight_jobs, load.worker_threads) && !unhealthy {
                    return Admission::Admit;
                }
                let idempotent = req.header("x-idempotent").is_some();
                if !idempotent && fleet.band_of(fleet_client_id(req)) == Some(fleet.worst_band()) {
                    fleet.note_shed();
                    let mut resp = Response::with_status(
                        503,
                        "Service Unavailable",
                        "text/plain",
                        b"server overloaded; retry later".to_vec(),
                    );
                    resp.headers.push((
                        "Retry-After".to_string(),
                        policy.retry_after.as_secs().max(1).to_string(),
                    ));
                    return Admission::Respond(resp);
                }
                Admission::Admit
            });
        }
        let wsdl = sbq_wsdl::write_wsdl(&self.compiled.service).ok();
        let metrics = ServerMetrics::new(transport.telemetry_registry(), self.encoding);
        let state = Arc::new(ServerState {
            compiled: self.compiled,
            wsdl,
            encoding: self.encoding,
            handlers: self.handlers,
            quality: quality.map(Mutex::new),
            fleet: self.fleet.map(|fleet| FleetState {
                fleet,
                policy: self.admission,
            }),
            workers,
            format_server: Arc::new(FormatServer::new()),
            pool: transport.buffer_pool_ref().clone(),
            sessions: Mutex::new(HashMap::new()),
            faults: AtomicU64::new(0),
            reduced_responses: AtomicU64::new(0),
            metrics,
        });
        let st = Arc::clone(&state);
        let handle = HttpServer::bind_with(addr, transport, move |req| st.serve(req))
            .map_err(|e| SoapError::Transport(sbq_http::HttpError::Transport(e)))?;
        Ok(SoapServer { handle, state })
    }
}

/// A running SOAP-binQ server.
pub struct SoapServer {
    handle: ServerHandle,
    state: Arc<ServerState>,
}

/// The fleet identity of a request: the explicit `X-Qos-Client` header,
/// falling back to a client-supplied `X-Request-Id` origin, else
/// `"anon"` (all unidentified callers share one entry).
fn fleet_client_id(req: &Request) -> &str {
    req.header("x-qos-client")
        .or_else(|| req.header("x-request-id"))
        .unwrap_or("anon")
}

impl SoapServer {
    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The fleet quality table, when bound with
    /// [`SoapServerBuilder::with_fleet`].
    pub fn fleet(&self) -> Option<&Arc<FleetQos>> {
        self.state.fleet.as_ref().map(|f| &f.fleet)
    }

    /// HTTP requests served.
    pub fn requests(&self) -> u64 {
        self.handle.requests()
    }

    /// Faults returned.
    pub fn faults(&self) -> u64 {
        self.state.faults.load(Ordering::Relaxed)
    }

    /// Responses that were quality-reduced: a quality handler or
    /// projection ran and changed the value.
    pub fn reduced_responses(&self) -> u64 {
        self.state.reduced_responses.load(Ordering::Relaxed)
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections(&self) -> u64 {
        self.handle.connections()
    }

    /// The transport's runtime health monitor (inert unless the
    /// transport was bound with `ServerConfig::health` on an enabled
    /// registry).
    pub fn health(&self) -> Arc<sbq_telemetry::HealthMonitor> {
        self.handle.health()
    }

    /// Connections currently being served or parked keep-alive.
    pub fn active_connections(&self) -> u64 {
        self.handle.active_connections()
    }

    /// Stops accepting, drains in-flight connections, and joins every
    /// acceptor/worker thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.handle.shutdown();
    }
}

/// Pre-resolved server telemetry handles (resolved at bind from the
/// transport's registry, [`ServerConfig::telemetry`]).
///
/// | name                   | type      | meaning                             |
/// |------------------------|-----------|-------------------------------------|
/// | `server.faults`        | counter   | SOAP faults returned                |
/// | `server.reduced`       | counter   | quality-reduced responses           |
/// | `server.msgtype.<t>`   | counter   | selected response types             |
/// | `marshal.<enc>.decode` | phase     | request unmarshal time              |
/// | `marshal.<enc>.encode` | phase     | response marshal time               |
/// | `marshal.simd_level`   | gauge     | latched kernel tier (0/1/2)         |
///
/// A phase is a histogram plus the span of the same name, both fed from
/// one pair of clock reads; the span parents on the HTTP handler span.
struct ServerMetrics {
    registry: Registry,
    faults: Counter,
    reduced: Counter,
    decode: Phase,
    encode: Phase,
    tracer: Tracer,
}

impl ServerMetrics {
    fn new(registry: &Registry, encoding: WireEncoding) -> ServerMetrics {
        let marshal = |dir: &str| {
            let name = format!("marshal.{}.{dir}", encoding.name());
            registry.phase(&name, &name)
        };
        // The kernel tier is latched process-wide on first query; publishing
        // it at bind means /metrics shows which tier is live before any bulk
        // marshal has run (0 = scalar, 1 = SSE2, 2 = AVX2).
        registry
            .gauge("marshal.simd_level")
            .set(sbq_runtime::simd::level() as i64);
        ServerMetrics {
            faults: registry.counter("server.faults"),
            reduced: registry.counter("server.reduced"),
            decode: marshal("decode"),
            encode: marshal("encode"),
            tracer: registry.tracer(),
            registry: registry.clone(),
        }
    }

    fn message_type(&self, mt: &str) {
        if self.registry.is_enabled() {
            self.registry.counter(&format!("server.msgtype.{mt}")).inc();
        }
    }
}

struct ServerState {
    compiled: CompiledService,
    /// Rendered WSDL served on `GET …?wsdl` (None when the service
    /// contains constructs the WSDL writer cannot express).
    wsdl: Option<String>,
    encoding: WireEncoding,
    handlers: HashMap<String, Handler>,
    quality: Option<Mutex<QualityManager>>,
    /// Fleet-scale per-client quality state and the shed policy
    /// ([`SoapServerBuilder::with_fleet`]).
    fleet: Option<FleetState>,
    /// CPU-pool size the transport was bound with (the denominator of
    /// the overload ratio).
    workers: usize,
    /// Server-process format registry shared by all sessions.
    format_server: Arc<FormatServer>,
    /// Body buffers for encoded responses come from (and return to) the
    /// transport's pool; the HTTP layer recycles them after the write.
    pool: sbq_runtime::BufferPool,
    /// Per-client-session PBIO endpoints: format announcements must happen
    /// once *per peer*, not once per server.
    sessions: Mutex<HashMap<u64, PbioEndpoint>>,
    faults: AtomicU64,
    reduced_responses: AtomicU64,
    metrics: ServerMetrics,
}

impl ServerState {
    fn serve(&self, req: &Request) -> Response {
        // Standard SOAP deployment behavior: `GET …?wsdl` returns the
        // service description (how the remote-visualization clients of
        // §IV-C.4 obtain it).
        if req.method == "GET" {
            return match (&self.wsdl, req.path.ends_with("?wsdl")) {
                (Some(doc), true) => {
                    Response::ok("text/xml; charset=utf-8", doc.clone().into_bytes())
                }
                _ => Response::with_status(404, "Not Found", "text/plain", b"not found".to_vec()),
            };
        }
        match self.try_serve(req) {
            Ok(resp) => resp,
            Err(e) => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                self.metrics.faults.inc();
                self.fault_response(&e)
            }
        }
    }

    fn fault_response(&self, err: &SoapError) -> Response {
        match self.encoding {
            WireEncoding::Pbio => {
                let mut resp = Response::with_status(
                    500,
                    "Internal Server Error",
                    self.encoding.content_type(),
                    Vec::new(),
                );
                resp.headers
                    .push(("X-Soap-Error".to_string(), err.to_string()));
                resp
            }
            WireEncoding::Xml => {
                let body = envelope::build_fault("soap:Server", &err.to_string());
                Response::server_error(body.into_bytes())
            }
            WireEncoding::CompressedXml => {
                let body = envelope::build_fault("soap:Server", &err.to_string());
                let mut resp = Response::with_status(
                    500,
                    "Internal Server Error",
                    self.encoding.content_type(),
                    sbq_lz::compress(body.as_bytes()),
                );
                resp.headers
                    .push(("X-Soap-Error".to_string(), err.to_string()));
                resp
            }
        }
    }

    fn try_serve(&self, req: &Request) -> Result<Response, SoapError> {
        // Spans parent on the HTTP layer's thread-local handler context;
        // without one (a handler invoked outside a traced request) only
        // the histograms record.
        let parent = trace::current();
        let (operation, params, qos, session) = {
            let _decode = self.metrics.decode.start(parent.as_ref());
            self.decode_request(req)?
        };
        let stub = self
            .compiled
            .stub(&operation)
            .ok_or_else(|| SoapError::protocol(format!("unknown operation {operation}")))?;
        let handler = self
            .handlers
            .get(&operation)
            .ok_or_else(|| SoapError::protocol(format!("no handler for {operation}")))?
            .clone();

        // Quality: absorb the client-reported estimate before selecting.
        // With a fleet table attached the report lands in the *caller's*
        // entry; the connection-global manager absorbs it only when it
        // is the sole quality authority.
        let fleet_band = match &self.fleet {
            Some(f) => {
                let client = fleet_client_id(req);
                Some(match qos.rtt_ms {
                    Some(rtt) => f.fleet.observe_reported(client, rtt),
                    None => f.fleet.band_of(client).unwrap_or(0),
                })
            }
            None => {
                if let (Some(q), Some(rtt)) = (&self.quality, qos.rtt_ms) {
                    q.lock().unwrap().observe_reported(rtt);
                }
                None
            }
        };

        let t0 = Instant::now();
        let value = handler(params);
        // Quality-manage the response value. It moves through the
        // manager, so the pass-through band sends the handler's own
        // allocation; servers without quality management send it as is.
        let (result, message_type, reduced) = match (&self.fleet, &self.quality) {
            (Some(f), Some(q)) => {
                // Per-client band; under overload every admitted call is
                // answered one band below the caller's own.
                let mut band = fleet_band.unwrap_or(0);
                if f.policy.overloaded(f.fleet.inflight(), self.workers)
                    && band < f.fleet.worst_band()
                {
                    band += 1;
                    f.fleet.note_degraded();
                }
                let rule = f.fleet.rule(band).clone();
                let p = q.lock().unwrap().apply_rule(&rule, Some(band), value);
                (p.value, Some(p.message_type), p.reduced)
            }
            (None, Some(q)) => {
                let p = q.lock().unwrap().prepare(value);
                (p.value, Some(p.message_type), p.reduced)
            }
            _ => (value, None, false),
        };
        let server_time = t0.elapsed();
        if reduced {
            self.reduced_responses.fetch_add(1, Ordering::Relaxed);
            self.metrics.reduced.inc();
        }
        if let Some(mt) = &message_type {
            self.metrics.message_type(mt);
        }

        let resp_header = QosHeader {
            timestamp_us: qos.timestamp_us, // echo for client-side RTT
            rtt_ms: None,
            server_time_us: server_time.as_micros() as u64,
            message_type,
        };
        let _encode = self.metrics.encode.start(parent.as_ref());
        self.encode_response(&operation, &result, stub, &resp_header, session)
    }

    fn decode_request(&self, req: &Request) -> Result<(String, Value, QosHeader, u64), SoapError> {
        // Content-type negotiation: a client speaking a different wire
        // encoding gets a clear fault instead of a confusing parse error.
        if let Some(ct) = req.header("content-type") {
            let expect = self.encoding.content_type();
            let expect_base = expect.split(';').next().unwrap_or(expect).trim();
            let got_base = ct.split(';').next().unwrap_or(ct).trim();
            if !got_base.eq_ignore_ascii_case(expect_base) {
                return Err(SoapError::protocol(format!(
                    "unsupported content type {got_base:?}: this endpoint speaks {expect_base:?}"
                )));
            }
        }
        match self.encoding {
            WireEncoding::Pbio => {
                let operation = req
                    .header("x-soap-op")
                    .ok_or_else(|| SoapError::protocol("missing X-Soap-Op"))?
                    .to_string();
                let session: u64 = req
                    .header("x-pbio-session")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                let qos = QosHeader::from_http_headers(|n| req.header(n));
                let stub = self
                    .compiled
                    .stub(&operation)
                    .ok_or_else(|| SoapError::protocol(format!("unknown operation {operation}")))?;
                let mut sessions = self.sessions.lock().unwrap();
                // A session we have never seen carries the PBIO format
                // handshake in this request; time it as its own span.
                let handshake = trace::current()
                    .filter(|_| !sessions.contains_key(&session))
                    .map(|p| self.metrics.tracer.child_span("pbio.handshake", &p));
                let endpoint = sessions
                    .entry(session)
                    .or_insert_with(|| PbioEndpoint::new(Arc::clone(&self.format_server)));
                let mut value = None;
                let mut buf = &req.body[..];
                while !buf.is_empty() {
                    // Borrowed frames: payloads decode in place out of the
                    // (pooled) request body; only the value owns memory.
                    let (frame, used) = WireFrame::parse(buf)?;
                    buf = &buf[used..];
                    if let Some(v) = endpoint.receive_frame(&frame, Some(&stub.input_format))? {
                        value = Some(v);
                    }
                }
                drop(handshake);
                let value =
                    value.ok_or_else(|| SoapError::protocol("request had no data message"))?;
                Ok((operation, value, qos, session))
            }
            WireEncoding::Xml | WireEncoding::CompressedXml => {
                // Parse straight out of the request body (or the
                // decompression output) — no defensive clone.
                let decompressed;
                let xml_bytes: &[u8] = match self.encoding {
                    WireEncoding::CompressedXml => {
                        decompressed = sbq_lz::decompress(&req.body)?;
                        &decompressed
                    }
                    _ => &req.body,
                };
                let xml = std::str::from_utf8(xml_bytes)
                    .map_err(|_| SoapError::xml("request is not utf-8"))?;
                let compiled = &self.compiled;
                let parsed =
                    envelope::parse_envelope(xml, |op| compiled.stub(op).map(|s| &s.input))?;
                Ok((parsed.operation, parsed.value, parsed.header, 0))
            }
        }
    }

    fn encode_response(
        &self,
        operation: &str,
        result: &Value,
        stub: &StubSpec,
        header: &QosHeader,
        session: u64,
    ) -> Result<Response, SoapError> {
        match self.encoding {
            WireEncoding::Pbio => {
                // A reduced value no longer matches the stub's output
                // format: derive the actual format from the value so the
                // registration/conversion machinery stays truthful.
                let format = if result.conforms_to(&stub.output) {
                    stub.output_format.clone()
                } else {
                    sbq_pbio::FormatDesc::from_type(&result.type_of(), Default::default())?
                };
                let mut sessions = self.sessions.lock().unwrap();
                let endpoint = sessions
                    .entry(session)
                    .or_insert_with(|| PbioEndpoint::new(Arc::clone(&self.format_server)));
                // Frame and encode straight into a pooled buffer; the HTTP
                // layer recycles it once the response is on the wire.
                let mut body = self.pool.get(result.native_size() + 64);
                endpoint.send_into(result, &format, &mut body)?;
                let mut resp = Response::ok(self.encoding.content_type(), body);
                resp.headers
                    .push(("X-Soap-Op".to_string(), operation.to_string()));
                resp.headers.extend(header.to_http_headers());
                Ok(resp)
            }
            WireEncoding::Xml => {
                // A pooled body, like the PBIO one: the HTTP layer
                // recycles it once the response is on the wire.
                let tag = format!("{operation}Response");
                let body = envelope::build_pooled(&tag, result, header, &self.pool);
                Ok(Response::ok(self.encoding.content_type(), body))
            }
            WireEncoding::CompressedXml => {
                let xml = envelope::build_response(operation, result, header);
                Ok(Response::ok(
                    self.encoding.content_type(),
                    sbq_lz::compress(xml.as_bytes()),
                ))
            }
        }
    }
}
