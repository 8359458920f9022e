//! A minimal HTTP/1.1 implementation — the transport every SOAP-bin mode
//! uses ("The delay is mainly due to SOAP-bin's use of HTTP for its
//! transactions", §IV-A; the framing overhead this crate adds per message
//! is precisely what that observation is about).
//!
//! Scope: persistent connections, `POST`/`GET`, strict `Content-Length`
//! bodies and `Transfer-Encoding: chunked` streaming (see [`body`]), byte
//! bodies with any content type (`text/xml` for classic SOAP, the
//! `application/pbio` type defined in [`PBIO_CONTENT_TYPE`] for SOAP-bin).
//! Both ends always *accept* both framings; *sending* chunked is opt-in
//! above a configured threshold ([`ClientConfig::chunk_threshold`],
//! [`ServerConfig::chunk_threshold`]), which keeps large imaging and
//! visualization payloads streaming through transient buffers bounded by
//! the chunk size instead of the body size.
//!
//! All HTTP/1.1 wire handling lives in one I/O-free codec: a push
//! [`Decoder`] that the reactor server, the blocking client and the bench
//! load generators feed with whatever bytes arrive, and one encoder for
//! heads and chunk frames that both the blocking and the non-blocking
//! writers drive. Decoding is linear in the input however it is split.
//!
//! The server is event-driven: a single reactor thread multiplexes every
//! connection over `epoll` readiness while handlers run on a small fixed
//! CPU pool (see [`server`]), so thousands of idle keep-alive connections
//! cost zero threads. Both ends are configured through [`ServerConfig`]
//! and [`ClientConfig`], and resilience tests inject response faults and
//! partial-I/O shaping through [`FaultSchedule`].
//!
//! The server is instrumented with `sbq-telemetry` (request/status
//! counters, queue-wait and stage histograms) and exposes its registry
//! over the reserved paths `GET /metrics` and `GET /metrics.json`; see
//! [`ServerConfig::telemetry`]. A built-in runtime health subsystem
//! (reactor loop-lag watchdog, SLO burn rates, `/proc` resource
//! accounting) serves `GET /healthz`, `GET /statusz`, and
//! `GET /profile.json`; see [`ServerConfig::health`].

pub mod body;
mod codec;
pub mod faults;
pub mod message;
mod metrics;
pub mod server;

pub use body::{peak_framing_buffer, reset_peak_framing_buffer, BodyFraming, ChunkPolicy};
pub use codec::Decoder;
pub use faults::{FaultAction, FaultSchedule};
pub use message::{HttpError, Limits, Request, Response, TimeoutKind};
pub use server::{Admission, AdmissionHook, HttpServer, ServerConfig, ServerHandle, ServerLoad};

use message::DEFAULT_IO_TIMEOUT;
use sbq_runtime::BufferPool;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Content type used for binary (PBIO-encoded) SOAP parameter payloads.
pub const PBIO_CONTENT_TYPE: &str = "application/pbio";
/// Content type used for textual SOAP envelopes.
pub const XML_CONTENT_TYPE: &str = "text/xml; charset=utf-8";

/// Client-side transport configuration; construct with
/// [`ClientConfig::default`] and refine with the consuming builder
/// methods. `None` timeouts mean "wait forever".
#[derive(Debug, Clone)]
pub struct ClientConfig {
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    limits: Limits,
    chunking: ChunkPolicy,
    pool: BufferPool,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(DEFAULT_IO_TIMEOUT),
            write_timeout: Some(DEFAULT_IO_TIMEOUT),
            limits: Limits::default(),
            chunking: ChunkPolicy::disabled(),
            pool: BufferPool::global().clone(),
        }
    }
}

impl ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub fn connect_timeout(mut self, d: Duration) -> ClientConfig {
        self.connect_timeout = Some(d);
        self
    }

    /// Per-read deadline while waiting for a response.
    pub fn read_timeout(mut self, d: Duration) -> ClientConfig {
        self.read_timeout = Some(d);
        self
    }

    /// Per-write deadline while sending a request.
    pub fn write_timeout(mut self, d: Duration) -> ClientConfig {
        self.write_timeout = Some(d);
        self
    }

    /// Removes every deadline (block indefinitely on I/O).
    pub fn no_timeouts(mut self) -> ClientConfig {
        self.connect_timeout = None;
        self.read_timeout = None;
        self.write_timeout = None;
        self
    }

    /// Cap on response header bytes.
    pub fn max_header_bytes(mut self, n: usize) -> ClientConfig {
        self.limits.max_header_bytes = n;
        self
    }

    /// Cap on response body bytes (declared `Content-Length`, or the
    /// running chunked total).
    pub fn max_body_bytes(mut self, n: usize) -> ClientConfig {
        self.limits.max_body_bytes = n;
        self
    }

    /// Opt in to `Transfer-Encoding: chunked` for request bodies of at
    /// least `threshold` bytes (off by default — smaller SOAP messages
    /// know their length and keep `Content-Length` framing).
    pub fn chunk_threshold(mut self, threshold: usize) -> ClientConfig {
        self.chunking = ChunkPolicy::above(threshold).chunk_size(self.chunking.chunk_bytes());
        self
    }

    /// Chunk size used when chunking applies (default
    /// [`ChunkPolicy::DEFAULT_CHUNK_SIZE`]); it bounds the receiver's
    /// per-chunk transient buffer.
    pub fn chunk_size(mut self, n: usize) -> ClientConfig {
        self.chunking = self.chunking.chunk_size(n);
        self
    }

    /// Body-buffer pool the client recycles request bodies into and
    /// reads response bodies from (default: the process-wide shared
    /// pool). Share one pool across clients to cap total held memory.
    pub fn buffer_pool(mut self, pool: BufferPool) -> ClientConfig {
        self.pool = pool;
        self
    }

    /// The configured body-buffer pool.
    pub fn buffer_pool_ref(&self) -> &BufferPool {
        &self.pool
    }
}

/// A blocking HTTP/1.1 client holding one persistent connection.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    /// Request-head scratch, reused across calls.
    head: Vec<u8>,
    host: String,
    limits: Limits,
    chunking: ChunkPolicy,
    pool: BufferPool,
}

impl HttpClient {
    /// Connects to an HTTP server with the default [`ClientConfig`].
    pub fn connect(addr: SocketAddr) -> Result<HttpClient, HttpError> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects to an HTTP server with explicit configuration.
    pub fn connect_with(addr: SocketAddr, config: &ClientConfig) -> Result<HttpClient, HttpError> {
        let stream = match config.connect_timeout {
            Some(d) => TcpStream::connect_timeout(&addr, d)
                .map_err(|e| HttpError::from_io(e, TimeoutKind::Connect))?,
            None => TcpStream::connect(addr).map_err(HttpError::Transport)?,
        };
        stream.set_nodelay(true).map_err(HttpError::Transport)?;
        stream
            .set_read_timeout(config.read_timeout)
            .map_err(HttpError::Transport)?;
        stream
            .set_write_timeout(config.write_timeout)
            .map_err(HttpError::Transport)?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            head: Vec::with_capacity(256),
            host: addr.to_string(),
            limits: config.limits,
            chunking: config.chunking,
            pool: config.pool.clone(),
        })
    }

    /// Sends a request and blocks for the response (keep-alive). The
    /// request is streamed: bodies above the configured chunk threshold go
    /// out as `Transfer-Encoding: chunked`, and no framing buffer beyond
    /// one chunk is ever allocated. The request body is recycled into the
    /// client's buffer pool after the write, and the response body is
    /// read into a pooled buffer — a warmed-up call loop allocates no
    /// body memory.
    pub fn send(&mut self, mut req: Request) -> Result<Response, HttpError> {
        if !req.has_header("host") {
            req.headers.push(("Host".to_string(), self.host.clone()));
        }
        let head = std::mem::take(&mut self.head);
        self.head = codec::write_message(&mut self.reader.get_ref(), &req, &self.chunking, head)
            .map_err(|e| HttpError::from_io(e, TimeoutKind::Write))?;
        self.pool.put(std::mem::take(&mut req.body));
        self.read_response()
    }

    /// Decodes one response. Bytes come through the read buffer, except
    /// the rest of a `Content-Length` body: once the buffer is drained,
    /// that is read straight into the pooled body (`BufReader` bypasses
    /// its buffer for large reads).
    fn read_response(&mut self) -> Result<Response, HttpError> {
        let mut dec = Decoder::<Response>::new(self.limits);
        loop {
            let buf = self
                .reader
                .fill_buf()
                .map_err(|e| HttpError::from_io(e, TimeoutKind::Read))?;
            if buf.is_empty() {
                return Err(dec.truncated());
            }
            let used = dec.feed(buf, &self.pool)?;
            self.reader.consume(used);
            if let Some(tail) = dec.length_tail(&self.pool) {
                self.reader.read_exact(tail).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        HttpError::Protocol("body truncated by peer".into())
                    } else {
                        HttpError::from_io(e, TimeoutKind::Read)
                    }
                })?;
            }
            if let Some(resp) = dec.take() {
                return Ok(resp);
            }
        }
    }

    /// The buffer pool this client recycles bodies through.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Convenience: POST `body` with the given content type.
    pub fn post(
        &mut self,
        path: &str,
        content_type: &str,
        body: Vec<u8>,
    ) -> Result<Response, HttpError> {
        self.send(Request::post(path, content_type, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_server_round_trip() {
        let handle = HttpServer::bind("127.0.0.1:0".parse().unwrap(), |req: &Request| {
            assert_eq!(req.method, "POST");
            let mut resp = Response::ok(XML_CONTENT_TYPE, req.body.clone());
            resp.headers
                .push(("X-Echo-Path".to_string(), req.path.clone()));
            resp
        })
        .unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let resp = client
            .post("/svc", XML_CONTENT_TYPE, b"<a>1</a>".to_vec())
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"<a>1</a>");
        assert_eq!(resp.header("x-echo-path"), Some("/svc"));
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let handle = HttpServer::bind("127.0.0.1:0".parse().unwrap(), |req: &Request| {
            Response::ok("text/plain", req.body.clone())
        })
        .unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        for i in 0..20 {
            let body = format!("msg {i}").into_bytes();
            let resp = client.post("/x", "text/plain", body.clone()).unwrap();
            assert_eq!(resp.body, body);
        }
        assert_eq!(handle.connections(), 1);
    }

    #[test]
    fn binary_bodies_survive() {
        let handle = HttpServer::bind("127.0.0.1:0".parse().unwrap(), |req: &Request| {
            Response::ok(PBIO_CONTENT_TYPE, req.body.iter().rev().copied().collect())
        })
        .unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let body: Vec<u8> = (0..=255).collect();
        let resp = client
            .post("/bin", PBIO_CONTENT_TYPE, body.clone())
            .unwrap();
        let expect: Vec<u8> = body.into_iter().rev().collect();
        assert_eq!(resp.body, expect);
    }

    #[test]
    fn large_bodies_round_trip() {
        let handle = HttpServer::bind("127.0.0.1:0".parse().unwrap(), |req: &Request| {
            Response::ok(PBIO_CONTENT_TYPE, req.body.clone())
        })
        .unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let body = vec![0xabu8; 1_000_000];
        let resp = client
            .post("/big", PBIO_CONTENT_TYPE, body.clone())
            .unwrap();
        assert_eq!(resp.body.len(), body.len());
        assert_eq!(resp.body, body);
    }

    #[test]
    fn large_responses_run_from_the_client_pool() {
        // A response beyond the decoder's up-front body hint still lands
        // in one pooled buffer of its full size: once warm, the client's
        // pool stops missing.
        let handle = HttpServer::bind("127.0.0.1:0".parse().unwrap(), |_req: &Request| {
            Response::ok(PBIO_CONTENT_TYPE, vec![7; 3 << 20])
        })
        .unwrap();
        let pool = BufferPool::new();
        let config = ClientConfig::default().buffer_pool(pool.clone());
        let mut client = HttpClient::connect_with(handle.addr(), &config).unwrap();
        let mut call = || {
            let resp = client.post("/big", PBIO_CONTENT_TYPE, vec![]).unwrap();
            assert_eq!(resp.body.len(), 3 << 20);
            pool.put(resp.body);
        };
        for _ in 0..3 {
            call();
        }
        let warm = pool.stats().misses;
        for _ in 0..5 {
            call();
        }
        assert_eq!(
            pool.stats().misses,
            warm,
            "steady-state responses missed the pool"
        );
    }

    #[test]
    fn concurrent_clients_served() {
        let handle = HttpServer::bind("127.0.0.1:0".parse().unwrap(), |req: &Request| {
            Response::ok("text/plain", req.body.clone())
        })
        .unwrap();
        let addr = handle.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = HttpClient::connect(addr).unwrap();
                    let body = format!("thread {i}").into_bytes();
                    let r = c.post("/t", "text/plain", body.clone()).unwrap();
                    assert_eq!(r.body, body);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn chunked_round_trip_both_directions() {
        // Server: chunked responses above 1 KiB; it must also *accept*
        // chunked requests. Client: chunked requests above 1 KiB. The
        // payload round-trips unchanged, and both peers saw chunked wire
        // framing (asserted via the server metrics counters).
        let reg = sbq_telemetry::Registry::new();
        let handle = HttpServer::bind_with(
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default()
                .telemetry(reg.clone())
                .chunk_threshold(1024)
                .chunk_size(4096),
            |req: &Request| {
                if req.body.len() > 1024 {
                    assert!(
                        req.header("transfer-encoding").is_some(),
                        "large request should have arrived chunked"
                    );
                }
                Response::ok(PBIO_CONTENT_TYPE, req.body.clone())
            },
        )
        .unwrap();
        let config = ClientConfig::default()
            .chunk_threshold(1024)
            .chunk_size(2048);
        let mut client = HttpClient::connect_with(handle.addr(), &config).unwrap();
        let body: Vec<u8> = (0..100_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let resp = client
            .post("/big", PBIO_CONTENT_TYPE, body.clone())
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
        assert!(resp.header("content-length").is_none());
        assert_eq!(resp.body, body);
        assert_eq!(reg.counter("http.chunked.rx").get(), 1);
        assert_eq!(reg.counter("http.chunked.tx").get(), 1);

        // A small message on the same connection stays Content-Length
        // framed, proving the connection is still in sync after chunks.
        let resp = client.post("/small", "text/plain", b"x".to_vec()).unwrap();
        assert_eq!(resp.body, b"x");
        assert_eq!(resp.header("content-length"), Some("1"));
    }

    #[test]
    fn bad_content_length_gets_400_not_desync() {
        let handle = HttpServer::bind("127.0.0.1:0".parse().unwrap(), |req: &Request| {
            Response::ok("text/plain", req.body.clone())
        })
        .unwrap();
        for bad in ["-5", "banana", "1x", ""] {
            let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
            use std::io::{Read, Write};
            s.write_all(format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n").as_bytes())
                .unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).unwrap();
            let text = String::from_utf8_lossy(&buf);
            assert!(text.starts_with("HTTP/1.1 400"), "CL {bad:?} got: {text}");
        }
    }

    #[test]
    fn client_rejects_malformed_response_field_names() {
        let bad = [
            "Content-Length : 3",
            "Transfer-Encoding : chunked",
            " Content-Length: 3",
            ": v",
            "Bad Name: v",
        ];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            use std::io::{Read, Write};
            for line in bad {
                let (mut s, _) = listener.accept().unwrap();
                let mut req = [0u8; 1024];
                let _ = s.read(&mut req).unwrap();
                let reply = format!("HTTP/1.1 200 OK\r\nHost: x\r\n{line}\r\n\r\nabc");
                s.write_all(reply.as_bytes()).unwrap();
            }
        });
        for line in bad {
            let mut client = HttpClient::connect(addr).unwrap();
            let err = client.post("/x", "text/plain", vec![]).unwrap_err();
            assert!(matches!(err, HttpError::Protocol(_)), "{line:?}: {err}");
        }
        server.join().unwrap();
    }

    #[test]
    fn client_read_timeout_fires() {
        let handle = HttpServer::bind_with(
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default().faults(
                FaultSchedule::new().at(0, FaultAction::DelayResponse(Duration::from_millis(400))),
            ),
            |req: &Request| Response::ok("text/plain", req.body.clone()),
        )
        .unwrap();
        let config = ClientConfig::default().read_timeout(Duration::from_millis(80));
        let mut client = HttpClient::connect_with(handle.addr(), &config).unwrap();
        let err = client
            .post("/slow", "text/plain", b"x".to_vec())
            .unwrap_err();
        assert!(
            matches!(err, HttpError::Timeout(TimeoutKind::Read)),
            "{err}"
        );
    }

    #[test]
    fn client_response_body_limit_enforced() {
        let handle = HttpServer::bind("127.0.0.1:0".parse().unwrap(), |_req: &Request| {
            Response::ok("text/plain", vec![b'z'; 4096])
        })
        .unwrap();
        let config = ClientConfig::default().max_body_bytes(100);
        let mut client = HttpClient::connect_with(handle.addr(), &config).unwrap();
        let err = client.post("/big", "text/plain", vec![]).unwrap_err();
        assert!(
            matches!(
                err,
                HttpError::TooLarge {
                    what: "body",
                    limit: 100
                }
            ),
            "{err}"
        );
    }
}
