//! The SOAP-binQ client runtime.
//!
//! One [`SoapClient`] owns one persistent HTTP connection, one PBIO
//! endpoint (format announcements are per connection, so the first call
//! carries the registration handshake), and optionally a
//! [`QualityManager`] driving continuous quality management: every call
//! carries the client's timestamp and current RTT estimate; every reply
//! updates the estimator (compensated by the server-reported preparation
//! time, §IV-C.h).
//!
//! Transient transport failures are handled by [`SoapClient::call_with_retry`]
//! under the connection's [`RetryPolicy`]: reconnect (which starts a fresh
//! PBIO session, so the format-registration handshake replays), back off
//! exponentially with jitter, try again. Retries are idempotency-aware:
//! ambiguous failures (a garbled or truncated response, where the server
//! may already have executed the call) replay only for calls marked
//! idempotent. Calls completed on a retry do *not* feed the RTT
//! estimator — the measured time spans the failure and would poison the
//! estimate (Karn's algorithm).

use crate::envelope::{self, QosHeader};
use crate::marshal;
use crate::modes::WireEncoding;
use crate::SoapError;
use sbq_http::{HttpClient, Request, Response};
use sbq_model::{pad_to, TypeDesc, Value};
use sbq_pbio::{FormatServer, PbioEndpoint, WireFrame};
use sbq_qos::QualityManager;
use sbq_runtime::{BufferPool, SmallRng};
use sbq_telemetry::trace::TRACE_HEADER;
use sbq_telemetry::{Counter, Phase, Registry, TraceSpan, Tracer};
use sbq_wsdl::{compile, CompiledService, ServiceDef};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// How a client retries calls that failed in a retryable way (see
/// [`SoapError::is_retryable`]): up to `max_attempts` total tries with
/// exponentially growing, jittered pauses in between.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
    jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(2),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// Never retry (a single attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy::default().max_attempts(1)
    }

    /// Total attempts, including the first (at least 1).
    pub fn max_attempts(mut self, n: u32) -> RetryPolicy {
        self.max_attempts = n.max(1);
        self
    }

    /// Pause before the first retry; later retries double it.
    pub fn base_backoff(mut self, d: Duration) -> RetryPolicy {
        self.base_backoff = d;
        self
    }

    /// Upper bound on any single pause.
    pub fn max_backoff(mut self, d: Duration) -> RetryPolicy {
        self.max_backoff = d;
        self
    }

    /// Fraction of each pause randomized away, in `[0, 1]`: with jitter
    /// `j`, the pause is uniform in `[(1-j)·b, b]`. Jitter decorrelates
    /// clients that failed together so they do not retry together.
    pub fn jitter(mut self, j: f64) -> RetryPolicy {
        self.jitter = j.clamp(0.0, 1.0);
        self
    }

    /// Attempts this policy allows in total.
    pub fn attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The pause before retry number `retry` (zero-based).
    fn backoff(&self, retry: u32, rng: &mut SmallRng) -> Duration {
        let exp = self
            .base_backoff
            .checked_mul(1u32 << retry.min(20))
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff);
        exp.mul_f64(1.0 - self.jitter * rng.gen_f64())
    }
}

/// Client-side configuration: wire encoding aside (that is a property of
/// the endpoint, passed to `connect`), everything about how calls behave —
/// transport deadlines, size limits, and the retry policy.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    http: sbq_http::ClientConfig,
    retry: RetryPolicy,
    telemetry: Registry,
    idempotent: bool,
    client_id: Option<String>,
}

impl ClientConfig {
    /// The default configuration.
    pub fn new() -> ClientConfig {
        ClientConfig::default()
    }

    /// Deadline for establishing the TCP connection.
    pub fn connect_timeout(mut self, d: Duration) -> ClientConfig {
        self.http = self.http.connect_timeout(d);
        self
    }

    /// Deadline for a call's response to start arriving (and for each
    /// subsequent read while it streams in).
    pub fn call_timeout(mut self, d: Duration) -> ClientConfig {
        self.http = self.http.read_timeout(d);
        self
    }

    /// Per-write deadline while sending a request.
    pub fn write_timeout(mut self, d: Duration) -> ClientConfig {
        self.http = self.http.write_timeout(d);
        self
    }

    /// Cap on response body size.
    pub fn max_body_bytes(mut self, n: usize) -> ClientConfig {
        self.http = self.http.max_body_bytes(n);
        self
    }

    /// How [`SoapClient::call_with_retry`] retries retryable failures.
    pub fn retry_policy(mut self, p: RetryPolicy) -> ClientConfig {
        self.retry = p;
        self
    }

    /// Declares every operation on this client idempotent (default:
    /// `false`). Idempotent calls may be replayed through ambiguous
    /// wire-protocol failures — a garbled or truncated response where the
    /// server might already have executed the request. Non-idempotent
    /// clients only retry failures where the request provably never
    /// completed (timeouts, connect failures); ambiguous ones surface to
    /// the caller and increment `client.retry.suppressed`.
    pub fn idempotent(mut self, yes: bool) -> ClientConfig {
        self.idempotent = yes;
        self
    }

    /// A stable identity sent as the `X-Qos-Client` header on every
    /// call. A fleet-managed server ([`FleetQos`](sbq_qos::FleetQos))
    /// keys its per-client quality band on it; clients that do not set
    /// one fall back to whatever `X-Request-Id` they send, else share
    /// the server's `"anon"` entry.
    pub fn client_id(mut self, id: impl Into<String>) -> ClientConfig {
        self.client_id = Some(id.into());
        self
    }

    /// Send request bodies of at least `threshold` bytes with chunked
    /// transfer encoding instead of `Content-Length` framing.
    pub fn chunk_threshold(mut self, threshold: usize) -> ClientConfig {
        self.http = self.http.chunk_threshold(threshold);
        self
    }

    /// Chunk payload size used when chunked framing applies.
    pub fn chunk_size(mut self, n: usize) -> ClientConfig {
        self.http = self.http.chunk_size(n);
        self
    }

    /// Full control over the HTTP-level configuration.
    pub fn http(mut self, http: sbq_http::ClientConfig) -> ClientConfig {
        self.http = http;
        self
    }

    /// Buffer pool request and response bodies are drawn from and
    /// recycled through. Defaults to the process-wide
    /// [`BufferPool::global`]; supply a dedicated pool to isolate (or
    /// observe) one client's traffic.
    pub fn buffer_pool(mut self, pool: BufferPool) -> ClientConfig {
        self.http = self.http.buffer_pool(pool);
        self
    }

    /// The buffer pool this configuration draws bodies from.
    pub fn buffer_pool_ref(&self) -> &BufferPool {
        self.http.buffer_pool_ref()
    }

    /// Telemetry registry the client records into (call counters,
    /// marshal/unmarshal spans, retry/backoff metrics). Defaults to the
    /// process-wide [`Registry::global`]; pass [`Registry::disabled`] to
    /// turn instrumentation off.
    pub fn telemetry(mut self, registry: Registry) -> ClientConfig {
        self.telemetry = registry;
        self
    }

    /// The registry this configuration records into.
    pub fn telemetry_registry(&self) -> &Registry {
        &self.telemetry
    }
}

/// Pre-resolved client telemetry handles (resolved once at connect).
///
/// | name                  | type      | meaning                               |
/// |-----------------------|-----------|---------------------------------------|
/// | `client.calls`        | counter   | calls completed successfully          |
/// | `client.retries`      | counter   | retried attempts                      |
/// | `client.retry.suppressed` | counter | retries withheld: failure was ambiguous and the call was not marked idempotent |
/// | `client.reconnects`   | counter   | reconnects (fresh PBIO session each)  |
/// | `client.backoff_ns`   | phase     | retry backoff sleeps (span `client.backoff`) |
/// | `client.msgtype.<t>`  | counter   | quality-reduced responses by type     |
/// | `marshal.<enc>.encode`| phase     | request marshal time for the encoding |
/// | `marshal.<enc>.decode`| phase     | response unmarshal time               |
///
/// A phase is a histogram and the span of the same name (or the one in
/// parentheses), both fed from one pair of clock reads.
struct ClientMetrics {
    registry: Registry,
    calls: Counter,
    retries: Counter,
    retries_suppressed: Counter,
    reconnects: Counter,
    backoff: Phase,
    encode: Phase,
    decode: Phase,
    tracer: Tracer,
}

impl ClientMetrics {
    fn new(registry: &Registry, encoding: WireEncoding) -> ClientMetrics {
        let marshal = |dir: &str| {
            let name = format!("marshal.{}.{dir}", encoding.name());
            registry.phase(&name, &name)
        };
        ClientMetrics {
            calls: registry.counter("client.calls"),
            retries: registry.counter("client.retries"),
            retries_suppressed: registry.counter("client.retry.suppressed"),
            reconnects: registry.counter("client.reconnects"),
            backoff: registry.phase("client.backoff_ns", "client.backoff"),
            encode: marshal("encode"),
            decode: marshal("decode"),
            tracer: registry.tracer(),
            registry: registry.clone(),
        }
    }

    fn message_type(&self, mt: &str) {
        if self.registry.is_enabled() {
            self.registry.counter(&format!("client.msgtype.{mt}")).inc();
        }
    }
}

/// Per-client call statistics (what the application-level experiments
/// chart).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CallStats {
    /// Completed calls.
    pub calls: u64,
    /// Request payload bytes (bodies only).
    pub bytes_sent: u64,
    /// Response payload bytes (bodies only).
    pub bytes_received: u64,
    /// Most recent raw round-trip time.
    pub last_rtt: Option<Duration>,
    /// Message type of the most recent response, if quality-reduced.
    pub last_message_type: Option<String>,
    /// Reconnects performed (each one starts a fresh PBIO session).
    pub reconnects: u64,
    /// Retried attempts across all calls.
    pub retries: u64,
    /// Retries withheld because the failure was ambiguous (the server may
    /// have executed the call) and the call was not marked idempotent.
    pub retries_suppressed: u64,
}

/// A blocking SOAP-binQ client.
pub struct SoapClient {
    http: HttpClient,
    addr: SocketAddr,
    config: ClientConfig,
    /// Shared so a call can hold its stub while it borrows the client
    /// mutably, without copying the schema.
    compiled: Arc<CompiledService>,
    encoding: WireEncoding,
    endpoint: PbioEndpoint,
    pool: BufferPool,
    quality: Option<QualityManager>,
    session: u64,
    stats: CallStats,
    rng: SmallRng,
    /// Shared so a call can time a phase while it borrows the client
    /// mutably.
    metrics: Arc<ClientMetrics>,
    /// Whether the next PBIO call carries the format-registration
    /// handshake (true after connect and every reconnect).
    handshake_pending: bool,
}

impl SoapClient {
    /// Connects with the default [`ClientConfig`] and native-host PBIO
    /// format options.
    pub fn connect(
        addr: SocketAddr,
        svc: &ServiceDef,
        encoding: WireEncoding,
    ) -> Result<SoapClient, SoapError> {
        SoapClient::connect_with(addr, svc, encoding, ClientConfig::default())
    }

    /// Connects with explicit configuration.
    pub fn connect_with(
        addr: SocketAddr,
        svc: &ServiceDef,
        encoding: WireEncoding,
        config: ClientConfig,
    ) -> Result<SoapClient, SoapError> {
        let compiled = compile(svc, Default::default())?;
        SoapClient::connect_compiled(addr, compiled, encoding, config)
    }

    /// Connects with an already-compiled service (custom format options,
    /// e.g. a big-endian sender).
    pub fn connect_compiled(
        addr: SocketAddr,
        compiled: CompiledService,
        encoding: WireEncoding,
        config: ClientConfig,
    ) -> Result<SoapClient, SoapError> {
        let http = HttpClient::connect_with(addr, &config.http)?;
        let session = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
        let metrics = Arc::new(ClientMetrics::new(&config.telemetry, encoding));
        let pool = config.http.buffer_pool_ref().clone();
        if config.telemetry.is_enabled() {
            pool.set_observer(sbq_telemetry::pool_observer(&config.telemetry));
        }
        Ok(SoapClient {
            http,
            addr,
            config,
            compiled: Arc::new(compiled),
            encoding,
            endpoint: PbioEndpoint::new(Arc::new(FormatServer::new())),
            pool,
            quality: None,
            session,
            stats: CallStats::default(),
            rng: SmallRng::seed_from_u64(0x5b9_0a77e5 ^ session),
            metrics,
            handshake_pending: true,
        })
    }

    /// Attaches a quality manager (builder style).
    pub fn with_quality(mut self, quality: QualityManager) -> SoapClient {
        self.quality = Some(quality);
        self
    }

    /// The quality manager, if attached.
    pub fn quality(&self) -> Option<&QualityManager> {
        self.quality.as_ref()
    }

    /// Mutable access to the quality manager.
    pub fn quality_mut(&mut self) -> Option<&mut QualityManager> {
        self.quality.as_mut()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CallStats {
        &self.stats
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current PBIO session id (changes on every reconnect).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Re-establishes the HTTP connection after a transport failure.
    ///
    /// A *new* PBIO session begins: format announcements replay on the
    /// next call (the per-connection handshake of §III-B.a), and the
    /// quality manager's estimator state is kept — the network did not
    /// forget its conditions just because a socket died.
    pub fn reconnect(&mut self) -> Result<(), SoapError> {
        self.http = HttpClient::connect_with(self.addr, &self.config.http)?;
        self.endpoint = PbioEndpoint::new(Arc::new(FormatServer::new()));
        self.session = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
        self.stats.reconnects += 1;
        self.metrics.reconnects.inc();
        self.handshake_pending = true;
        Ok(())
    }

    /// Calls `operation`, retrying retryable failures under the
    /// configured [`RetryPolicy`]: reconnect (fresh socket, fresh PBIO
    /// session — the format handshake replays), back off with jitter, try
    /// again.
    ///
    /// Retry classification is idempotency-aware. Failures where the
    /// request provably never completed (timeouts, connect failures) are
    /// always retried. *Ambiguous* failures — the peer closed or garbled
    /// the response after the request was sent, so the server may already
    /// have executed the call — are retried only when the call is marked
    /// idempotent via [`ClientConfig::idempotent`] or
    /// [`SoapClient::call_with_retry_idempotent`]; otherwise the error
    /// surfaces to the caller and `client.retry.suppressed` is
    /// incremented.
    pub fn call_with_retry(&mut self, operation: &str, params: Value) -> Result<Value, SoapError> {
        self.call_with_retry_inner(operation, params, self.config.idempotent)
    }

    /// Like [`SoapClient::call_with_retry`], but marks this call
    /// idempotent regardless of [`ClientConfig::idempotent`]: ambiguous
    /// wire failures (garbled/truncated responses) are replayed too,
    /// because re-executing the operation server-side is harmless.
    pub fn call_with_retry_idempotent(
        &mut self,
        operation: &str,
        params: Value,
    ) -> Result<Value, SoapError> {
        self.call_with_retry_inner(operation, params, true)
    }

    fn call_with_retry_inner(
        &mut self,
        operation: &str,
        params: Value,
        idempotent: bool,
    ) -> Result<Value, SoapError> {
        // One root span covers every attempt: retries, backoffs, and
        // reconnects appear as sibling child spans under it, so a
        // Karn-suppressed RTT sample is still visible as a span.
        let mut root = self.metrics.tracer.root_span("client.call");
        root.add_tag("op", operation);
        let root_ctx = root.context();
        let policy = self.config.retry.clone();
        let mut retry = 0u32;
        let result = loop {
            match self.call_attempt(operation, params.clone(), retry > 0, &root_ctx) {
                Err(e) if retry + 1 < policy.attempts() && e.is_retryable_when_idempotent() => {
                    if !idempotent && !e.is_retryable() {
                        // The request may have executed server-side;
                        // replaying a non-idempotent call risks double
                        // execution. Surface the error instead.
                        self.stats.retries_suppressed += 1;
                        self.metrics.retries_suppressed.inc();
                        break Err(e);
                    }
                    root.force_record();
                    let pause = policy.backoff(retry, &mut self.rng);
                    {
                        let mut backoff = self.metrics.backoff.start(Some(&root_ctx));
                        backoff.span.force_record();
                        backoff.span.add_tag_u64("retry", (retry + 1) as u64);
                        std::thread::sleep(pause);
                    }
                    retry += 1;
                    self.stats.retries += 1;
                    self.metrics.retries.inc();
                    let mut rspan = self
                        .metrics
                        .tracer
                        .child_span("client.reconnect", &root_ctx);
                    rspan.force_record();
                    if let Err(e) = self.reconnect() {
                        rspan.set_error();
                        drop(rspan);
                        break Err(e);
                    }
                }
                other => break other,
            }
        };
        if result.is_err() {
            root.set_error();
        }
        result
    }

    /// The compiled service this client speaks.
    pub fn service(&self) -> &CompiledService {
        &self.compiled
    }

    /// Invokes `operation` with `params`, blocking for the result (a
    /// single attempt; see [`SoapClient::call_with_retry`]).
    ///
    /// The result is always presented in the operation's *full* output
    /// type: quality-reduced responses are padded back ("the remaining
    /// entries are padded with zeroes", §III-B.b).
    pub fn call(&mut self, operation: &str, params: Value) -> Result<Value, SoapError> {
        let mut root = self.metrics.tracer.root_span("client.call");
        root.add_tag("op", operation);
        let root_ctx = root.context();
        let result = self.call_attempt(operation, params, false, &root_ctx);
        if result.is_err() {
            root.set_error();
        }
        result
    }

    /// One attempt as a child span of `parent` (the per-call root).
    /// Retried attempts are force-recorded so they are visible even in
    /// an unsampled trace.
    fn call_attempt(
        &mut self,
        operation: &str,
        params: Value,
        is_retry: bool,
        parent: &sbq_telemetry::TraceContext,
    ) -> Result<Value, SoapError> {
        let mut attempt = self.metrics.tracer.child_span("client.attempt", parent);
        if is_retry {
            attempt.force_record();
            attempt.add_tag("retry", "1");
        }
        let result = self.attempt_inner(operation, params, is_retry, &mut attempt);
        if result.is_err() {
            attempt.set_error();
        }
        result
    }

    fn attempt_inner(
        &mut self,
        operation: &str,
        params: Value,
        is_retry: bool,
        attempt: &mut TraceSpan,
    ) -> Result<Value, SoapError> {
        let compiled = Arc::clone(&self.compiled);
        let stub = compiled
            .stub(operation)
            .ok_or_else(|| SoapError::protocol(format!("unknown operation {operation}")))?;

        let header = QosHeader {
            timestamp_us: 0, // echoed value unused: we time locally
            rtt_ms: self
                .quality
                .as_ref()
                .and_then(|q| q.estimator().estimate_ms()),
            server_time_us: 0,
            message_type: None,
        };

        let attempt_ctx = attempt.context();
        let metrics = Arc::clone(&self.metrics);
        let mut req = {
            let _encode = metrics.encode.start(Some(&attempt_ctx));
            // The first PBIO encode of a session also carries the
            // format-registration handshake (§III-B.a) — make that cost
            // visible as its own span.
            let _handshake = (self.handshake_pending && self.encoding == WireEncoding::Pbio)
                .then(|| metrics.tracer.child_span("pbio.handshake", &attempt_ctx));
            self.encode_request(operation, &params, &stub.input_format, &header)?
        };
        self.handshake_pending = false;
        if let Some(h) = attempt.header_value() {
            req.headers.push((TRACE_HEADER.to_string(), h));
        }
        if let Some(id) = &self.config.client_id {
            req.headers.push(("X-Qos-Client".to_string(), id.clone()));
        }
        if self.config.idempotent {
            // Lets a fleet-managed server's admission control know this
            // call is replayable: idempotent calls are degraded rather
            // than shed under overload.
            req.headers
                .push(("X-Idempotent".to_string(), "1".to_string()));
        }
        self.stats.bytes_sent += req.body.len() as u64;
        // The RTT sample spans the exchange only: client encode and
        // decode are CPU time and must not read as network delay.
        let t0 = Instant::now();
        let mut resp = self.http.send(req)?;
        let rtt = t0.elapsed();
        self.stats.bytes_received += resp.body.len() as u64;
        // The server reports its own span id back; tagging it here lets
        // a reader jump from the client's attempt straight to the
        // server's subtree even if the two rings are exported separately.
        if let Some(server) = resp.server_span() {
            attempt.add_tag_hex("server_span", server.span_id);
        }

        let (value, resp_header) = {
            let _decode = metrics.decode.start(Some(&attempt_ctx));
            self.decode_response(&mut resp, &stub.output, &stub.output_format)?
        };

        self.stats.calls += 1;
        self.metrics.calls.inc();
        self.stats.last_rtt = Some(rtt);
        self.stats.last_message_type = resp_header.message_type.clone();
        if let Some(mt) = &resp_header.message_type {
            self.metrics.message_type(mt);
            attempt.add_tag("mt", mt);
        }
        if let Some(q) = &mut self.quality {
            if is_retry {
                // Karn's algorithm: an RTT measured across a retransmission
                // is ambiguous, so it must not reach the estimator.
                q.observe_retry();
            } else {
                q.observe_rtt(rtt, Duration::from_micros(resp_header.server_time_us));
            }
        }
        Ok(value)
    }

    /// Interoperability-mode convenience: accepts the request parameters
    /// as an XML document and returns the result as XML — the client-side
    /// just-in-time conversion of §I.
    pub fn call_xml(&mut self, operation: &str, params_xml: &str) -> Result<String, SoapError> {
        let stub = self
            .compiled
            .stub(operation)
            .ok_or_else(|| SoapError::protocol(format!("unknown operation {operation}")))?;
        let params = marshal::parse_document(params_xml, &stub.input)?;
        let result = self.call(operation, params)?;
        Ok(marshal::value_to_xml(
            &result,
            &format!("{operation}Result"),
        ))
    }

    fn encode_request(
        &mut self,
        operation: &str,
        params: &Value,
        input_format: &sbq_pbio::FormatDesc,
        header: &QosHeader,
    ) -> Result<Request, SoapError> {
        let path = format!("/{}", self.compiled.service.name);
        match self.encoding {
            WireEncoding::Pbio => {
                // Frame and encode straight into a pooled buffer: no
                // per-message Vec, no concatenation copy. The HTTP layer
                // recycles the buffer once the request is on the wire.
                let mut body = self.pool.get(params.native_size() + 64);
                self.endpoint.send_into(params, input_format, &mut body)?;
                let mut req = Request::post(&path, self.encoding.content_type(), body);
                req.headers
                    .push(("X-Soap-Op".to_string(), operation.to_string()));
                req.headers
                    .push(("X-Pbio-Session".to_string(), self.session.to_string()));
                req.headers.extend(header.to_http_headers());
                Ok(req)
            }
            WireEncoding::Xml => {
                // A pooled body, like the PBIO one: the HTTP layer
                // recycles it once the request is on the wire.
                let body = envelope::build_pooled(operation, params, header, &self.pool);
                Ok(Request::post(&path, self.encoding.content_type(), body))
            }
            WireEncoding::CompressedXml => {
                let xml = envelope::build_request(operation, params, header);
                let body = sbq_lz::compress(xml.as_bytes());
                Ok(Request::post(&path, self.encoding.content_type(), body))
            }
        }
    }

    fn decode_response(
        &mut self,
        resp: &mut Response,
        output_ty: &TypeDesc,
        output_format: &sbq_pbio::FormatDesc,
    ) -> Result<(Value, QosHeader), SoapError> {
        // An admission-control shed (503 + Retry-After) is encoding-
        // independent: the call never reached a handler.
        if resp.status == 503 {
            let retry_after = resp
                .header("retry-after")
                .and_then(|v| v.trim().parse().ok())
                .map(Duration::from_secs)
                .unwrap_or(Duration::from_secs(1));
            return Err(SoapError::Overloaded { retry_after });
        }
        match self.encoding {
            WireEncoding::Pbio => {
                if resp.status != 200 {
                    let msg = resp
                        .header("x-soap-error")
                        .unwrap_or("server error")
                        .to_string();
                    return Err(SoapError::Fault {
                        code: "soap:Server".into(),
                        message: msg,
                    });
                }
                let header = QosHeader::from_http_headers(|n| resp.header(n));
                let mut value = None;
                let body = std::mem::take(&mut resp.body);
                let mut buf = &body[..];
                while !buf.is_empty() {
                    // Borrowed frames: payloads are decoded in place, the
                    // only copies are the ones materializing the value.
                    let (frame, used) = WireFrame::parse(buf)?;
                    buf = &buf[used..];
                    // The conversion plan pads reduced wire formats back to
                    // the full native layout by construction.
                    if let Some(v) = self.endpoint.receive_frame(&frame, Some(output_format))? {
                        value = Some(v);
                    }
                }
                self.pool.put(body);
                let value =
                    value.ok_or_else(|| SoapError::protocol("response had no data message"))?;
                Ok((value, header))
            }
            WireEncoding::Xml | WireEncoding::CompressedXml => {
                // Parse straight out of the response body (or the
                // decompression output) — no defensive clone.
                let decompressed;
                let xml_bytes: &[u8] = match self.encoding {
                    WireEncoding::CompressedXml => {
                        decompressed = sbq_lz::decompress(&resp.body)?;
                        &decompressed
                    }
                    _ => &resp.body,
                };
                let xml = std::str::from_utf8(xml_bytes)
                    .map_err(|_| SoapError::xml("response is not utf-8"))?;
                // Resolve the body type from the header, which precedes
                // the body: a reduced message type the quality config knows
                // parses with its registered schema, everything else with
                // the full output type. (Faults are handled inside
                // parse_envelope_with.)
                let quality = &self.quality;
                let parsed = envelope::parse_envelope_with(xml, |_op, header| {
                    let reduced = header
                        .message_type
                        .as_deref()
                        .and_then(|mt| quality.as_ref()?.message_type_def(mt));
                    Some(reduced.unwrap_or(output_ty))
                })?;
                let mut value = parsed.value;
                if parsed.header.message_type.is_some() {
                    value = pad_to(&value, output_ty)?;
                }
                self.pool.put(std::mem::take(&mut resp.body));
                Ok((value, parsed.header))
            }
        }
    }
}
