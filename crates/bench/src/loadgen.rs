//! The one bench-side load driver and live-endpoint scrape.
//!
//! [`Driver`] holds N keep-alive `TcpStream`s on one bench-side
//! [`Reactor`]. Each connection writes pre-encoded request bytes until
//! `WouldBlock` and feeds what it reads to an [`sbq_http::Decoder`]. A
//! per-response callback sets the policy: send the request again, or park
//! the connection (left open and idle) so the next waiting one is armed.
//! Errors, a stall and an early close come back as `Err`, never as a
//! process exit, so tests can drive it.
//!
//! [`metrics`] and [`json`] fetch a live `/metrics` exposition or JSON
//! endpoint and check that it is well formed.

use sbq_http::{Decoder, HttpClient, Limits, Request, Response};
use sbq_runtime::reactor::{Interest, Reactor, Token};
use sbq_runtime::BufferPool;
use sbq_telemetry::expo;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one [`Driver::run`] may take before it reports a stall.
const STALL: Duration = Duration::from_secs(120);

/// What a connection does after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Send the same request again; the call clock restarts now.
    Again,
    /// Stay open but idle, freeing a slot for the next waiting connection.
    Park,
}

struct Conn {
    stream: TcpStream,
    request: Vec<u8>,
    out_pos: usize,
    decoder: Decoder<Response>,
    t0: Instant,
    busy: bool,
}

/// N non-blocking keep-alive connections on one bench-side reactor.
pub struct Driver {
    reactor: Reactor,
    conns: Vec<Conn>,
    pool: BufferPool,
}

impl Driver {
    /// Opens `n` connections to `addr`, one after another, passing each
    /// `connect()` time to `on_connect`. Every connection starts parked.
    pub fn connect(
        addr: SocketAddr,
        n: usize,
        mut on_connect: impl FnMut(Duration),
    ) -> io::Result<Driver> {
        let reactor = Reactor::new()?;
        let mut conns = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = Instant::now();
            let stream = TcpStream::connect(addr)?;
            on_connect(t0.elapsed());
            stream.set_nonblocking(true)?;
            let _ = stream.set_nodelay(true);
            reactor.register(&stream, Token(i as u64), Interest::NONE)?;
            conns.push(Conn {
                stream,
                request: Vec::new(),
                out_pos: 0,
                decoder: Decoder::new(Limits::default()),
                t0,
                busy: false,
            });
        }
        Ok(Driver {
            reactor,
            conns,
            pool: BufferPool::new(),
        })
    }

    /// Sets the bytes connection `i` sends on its next call.
    pub fn set_request(&mut self, i: usize, request: Vec<u8>) {
        self.conns[i].request = request;
    }

    fn arm(&mut self, i: usize, t0: Instant) -> io::Result<()> {
        let c = &mut self.conns[i];
        c.t0 = t0;
        c.out_pos = 0;
        c.busy = true;
        self.reactor
            .reregister(&c.stream, Token(i as u64), Interest::WRITABLE)
    }

    /// Drives every connection through at least one call, keeping at most
    /// `window` of them busy. Connections start in index order: the first
    /// `window` when polling begins (their clocks start together, after
    /// all are armed), and then one each time a connection parks (its
    /// clock starts when it is armed). `on_response(i, response, elapsed)`
    /// returns what connection `i` does next. Returns once every
    /// connection has parked.
    pub fn run(
        &mut self,
        window: usize,
        mut on_response: impl FnMut(usize, &Response, Duration) -> Next,
    ) -> io::Result<()> {
        let n = self.conns.len();
        let mut next = window.max(1).min(n);
        for i in 0..next {
            self.arm(i, Instant::now())?;
        }
        let polling = Instant::now();
        for c in &mut self.conns[..next] {
            c.t0 = polling;
        }
        let mut busy = next;
        let mut events = Vec::new();
        let deadline = polling + STALL;
        while busy > 0 {
            if Instant::now() > deadline {
                let msg = format!("stalled: {busy}/{n} connections still working");
                return Err(io::Error::new(ErrorKind::TimedOut, msg));
            }
            self.reactor
                .poll(&mut events, Some(Duration::from_millis(100)))?;
            for ev in &events {
                let i = ev.token.0 as usize;
                if !self.conns[i].busy {
                    continue;
                }
                if ev.error {
                    return Err(io::Error::other(format!("connection {i} errored")));
                }
                let Some((resp, elapsed)) = self.pump(i)? else {
                    continue;
                };
                let action = on_response(i, &resp, elapsed);
                self.pool.put(resp.body);
                match action {
                    Next::Again => self.arm(i, Instant::now())?,
                    Next::Park => {
                        let c = &mut self.conns[i];
                        c.busy = false;
                        self.reactor
                            .reregister(&c.stream, ev.token, Interest::NONE)?;
                        busy -= 1;
                        if next < n {
                            self.arm(next, Instant::now())?;
                            next += 1;
                            busy += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Moves connection `i` as far as its socket allows: writes the rest
    /// of the request, then reads until `WouldBlock` or a full response,
    /// which it returns with the call's elapsed time.
    fn pump(&mut self, i: usize) -> io::Result<Option<(Response, Duration)>> {
        let c = &mut self.conns[i];
        loop {
            if c.out_pos < c.request.len() {
                match c.stream.write(&c.request[c.out_pos..]) {
                    Ok(k) => {
                        c.out_pos += k;
                        if c.out_pos == c.request.len() {
                            let token = Token(i as u64);
                            self.reactor
                                .reregister(&c.stream, token, Interest::READABLE)?;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
                continue;
            }
            let mut chunk = [0u8; 8192];
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    let msg = format!("connection {i} closed early: {}", c.decoder.truncated());
                    return Err(io::Error::new(ErrorKind::UnexpectedEof, msg));
                }
                Ok(k) => {
                    let used = c
                        .decoder
                        .feed(&chunk[..k], &self.pool)
                        .map_err(io::Error::other)?;
                    if let Some(resp) = c.decoder.take() {
                        if used != k {
                            let msg = format!("server sent {} bytes past a response", k - used);
                            return Err(io::Error::other(msg));
                        }
                        return Ok(Some((resp, c.t0.elapsed())));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// `GET path` on a fresh connection: the status and the UTF-8 body.
fn fetch(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut http = HttpClient::connect(addr).map_err(|e| format!("connect for {path}: {e}"))?;
    let resp = http
        .send(Request::get(path))
        .map_err(|e| format!("GET {path}: {e}"))?;
    let body = String::from_utf8(resp.body).map_err(|_| format!("{path} is not UTF-8"))?;
    Ok((resp.status, body))
}

/// `GET path` on a JSON endpoint (`/trace.json`, `/statusz`): the status
/// and the body, checked to be one well-formed JSON value.
pub fn json(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let (status, body) = fetch(addr, path)?;
    expo::validate_json(&body).map_err(|e| format!("malformed {path}: {e}\n---\n{body}"))?;
    Ok((status, body))
}

/// A parsed `/metrics` text exposition.
#[derive(Debug, Clone)]
pub struct Metrics(Vec<expo::Sample>);

impl Metrics {
    /// The value of the counter or gauge `name` (0 when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, |s| s.value)
    }

    /// The unlabelled sample `name`, if exposed.
    pub fn find(&self, name: &str) -> Option<&expo::Sample> {
        self.0
            .iter()
            .find(|s| s.name == name && s.quantile.is_none())
    }
}

/// `GET /metrics`, which must answer 200 with a well-formed exposition.
pub fn metrics(addr: SocketAddr) -> Result<Metrics, String> {
    let (status, text) = fetch(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    expo::parse_text(&text)
        .map(Metrics)
        .map_err(|e| format!("malformed /metrics exposition: {e}\n---\n{text}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbq_http::{HttpServer, ServerConfig};
    use sbq_telemetry::Registry;
    use std::net::TcpListener;

    fn echo_request() -> Vec<u8> {
        let mut r = Request::post("/echo", "application/octet-stream", vec![7; 32]);
        r.headers.push(("Host".to_string(), "b".to_string()));
        r.to_bytes()
    }

    #[test]
    fn keep_alive_calls_all_complete() {
        let server = HttpServer::bind_with(
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default().worker_threads(2),
            |r: &Request| Response::ok("application/octet-stream", r.body.clone()),
        )
        .unwrap();
        let (n, calls) = (64, 3);
        let mut driver = Driver::connect(server.addr(), n, |_| {}).unwrap();
        for i in 0..n {
            driver.set_request(i, echo_request());
        }
        let hist = Registry::new().histogram("test.call_ns");
        let mut left = vec![calls; n];
        let mut responses = 0;
        driver
            .run(n, |i, resp, elapsed| {
                assert_eq!((resp.status, resp.body.len()), (200, 32));
                hist.record_duration(elapsed);
                responses += 1;
                left[i] -= 1;
                if left[i] == 0 {
                    Next::Park
                } else {
                    Next::Again
                }
            })
            .unwrap();
        assert_eq!(responses, n * calls);
        assert_eq!(hist.snapshot().count, (n * calls) as u64);
        assert!(
            metrics(server.addr())
                .unwrap()
                .value("http_connections_open")
                >= n as f64
        );
    }

    #[test]
    fn window_paces_connections_and_parks_each_once() {
        let server = HttpServer::bind_with(
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default().worker_threads(1),
            |r: &Request| Response::ok("application/octet-stream", r.body.clone()),
        )
        .unwrap();
        let mut driver = Driver::connect(server.addr(), 10, |_| {}).unwrap();
        for i in 0..10 {
            driver.set_request(i, echo_request());
        }
        let mut seen = Vec::new();
        driver
            .run(3, |i, _, _| {
                seen.push(i);
                Next::Park
            })
            .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn server_closing_mid_response_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf).unwrap();
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial")
                .unwrap();
        });
        let mut driver = Driver::connect(addr, 1, |_| {}).unwrap();
        driver.set_request(0, echo_request());
        let result = driver.run(1, |_, _, _| Next::Park);
        server.join().unwrap();
        assert!(result.is_err(), "a truncated response must be an error");
    }
}
