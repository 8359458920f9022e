//! HTTP request/response types and errors. Their wire form is read by
//! [`crate::Decoder`] and written by the codec's encoder.

use crate::body::ChunkPolicy;
use crate::codec;
use std::io::Write;
use std::time::Duration;

/// Which deadline a [`HttpError::Timeout`] missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutKind {
    /// TCP connect did not complete in time.
    Connect,
    /// Reading a request/response exceeded the read timeout.
    Read,
    /// Writing a request/response exceeded the write timeout.
    Write,
    /// A keep-alive connection sat idle past the idle timeout.
    Idle,
}

impl std::fmt::Display for TimeoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TimeoutKind::Connect => "connect",
            TimeoutKind::Read => "read",
            TimeoutKind::Write => "write",
            TimeoutKind::Idle => "idle",
        })
    }
}

/// HTTP-layer errors, split by what the caller can do about them:
/// [`HttpError::Timeout`] and [`HttpError::Transport`] are retryable with a
/// fresh connection, [`HttpError::Protocol`] and [`HttpError::TooLarge`]
/// are not.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (refused, reset, broken pipe, …).
    Transport(std::io::Error),
    /// A configured deadline elapsed.
    Timeout(TimeoutKind),
    /// The peer spoke something that is not the HTTP we accept.
    Protocol(String),
    /// A message exceeded a configured size limit.
    TooLarge {
        /// Which part overflowed (`"header"` or `"body"`).
        what: &'static str,
        /// The limit in bytes that was exceeded.
        limit: usize,
    },
}

impl HttpError {
    /// Maps an I/O error, classifying timeout-ish kinds (`WouldBlock`,
    /// `TimedOut`) as [`HttpError::Timeout`] of the given kind.
    pub fn from_io(e: std::io::Error, kind: TimeoutKind) -> HttpError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                HttpError::Timeout(kind)
            }
            _ => HttpError::Transport(e),
        }
    }

    /// Whether a retry on a fresh connection could plausibly succeed
    /// *without risking a duplicate execution*: only failures where the
    /// request provably never completed qualify. A garbled or truncated
    /// response ([`HttpError::Protocol`]) is **not** retryable here — the
    /// server may well have executed the call before dying mid-write, and
    /// replaying a non-idempotent operation would execute it twice.
    pub fn is_retryable(&self) -> bool {
        matches!(self, HttpError::Transport(_) | HttpError::Timeout(_))
    }

    /// Whether a retry could plausibly succeed *when the caller declares
    /// the operation idempotent*: everything in [`is_retryable`] plus
    /// [`HttpError::Protocol`] — a truncated/garbled response usually
    /// means the server died mid-write, and an idempotent call is safe to
    /// replay even if it did execute.
    ///
    /// [`is_retryable`]: HttpError::is_retryable
    pub fn is_retryable_when_idempotent(&self) -> bool {
        self.is_retryable() || matches!(self, HttpError::Protocol(_))
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Transport(e) => write!(f, "http transport error: {e}"),
            HttpError::Timeout(k) => write!(f, "http {k} timeout"),
            HttpError::Protocol(m) => write!(f, "http protocol error: {m}"),
            HttpError::TooLarge { what, limit } => {
                write!(f, "http {what} exceeds limit of {limit} bytes")
            }
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

/// Message-size limits enforced while parsing. Every limit is enforced
/// *incrementally*: no input can make the parser buffer beyond it before
/// the check fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Cap on the request/status line plus the header section.
    pub max_header_bytes: usize,
    /// Cap on the body: the declared `Content-Length`, or the running
    /// total of decoded chunk data for chunked bodies.
    pub max_body_bytes: usize,
    /// Cap on any single declared chunk in a chunked body.
    pub max_chunk_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 256 * 1024 * 1024,
            max_chunk_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Default timeout used where a caller does not configure one.
pub(crate) const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method (`POST`, `GET`, …).
    pub method: String,
    /// Request target (path).
    pub path: String,
    /// Header name/value pairs in order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// A POST request with a body; `Content-Type`, `Content-Length` and
    /// `SOAPAction` headers are set the way the reproduced stack sends
    /// them.
    pub fn post(path: &str, content_type: &str, body: Vec<u8>) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: vec![
                ("Content-Type".to_string(), content_type.to_string()),
                ("Content-Length".to_string(), body.len().to_string()),
                ("SOAPAction".to_string(), format!("\"{path}\"")),
            ],
            body,
        }
    }

    /// A bodyless GET request.
    pub fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: vec![("Content-Length".to_string(), "0".to_string())],
            body: Vec::new(),
        }
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether a header is present (case-insensitive).
    pub fn has_header(&self, name: &str) -> bool {
        self.header(name).is_some()
    }

    /// The caller's trace context from the `X-SBQ-Trace` header, if one
    /// is present and well-formed. Malformed or oversized values yield
    /// `None` — propagation is best-effort and never rejects a request.
    pub fn trace_context(&self) -> Option<sbq_telemetry::TraceContext> {
        sbq_telemetry::TraceContext::parse(self.header(sbq_telemetry::trace::TRACE_HEADER)?)
    }

    /// Serializes for the wire with `Content-Length` framing,
    /// materializing the whole message (head plus a body copy). Prefer
    /// [`Request::write_to`] on the transmit path — it streams the body
    /// from `self` without this second copy.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_to(&mut out, &ChunkPolicy::disabled())
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Streams this request to `w`: small head buffer, body written from
    /// `self.body` directly — whole under `Content-Length` framing, in
    /// bounded slices as `Transfer-Encoding: chunked` when `policy`
    /// applies to the body size.
    pub fn write_to(&self, w: &mut impl Write, policy: &ChunkPolicy) -> std::io::Result<()> {
        codec::write_message(w, self, policy, Vec::with_capacity(256)).map(drop)
    }

    /// Total on-the-wire size under `Content-Length` framing — the HTTP
    /// overhead the benchmarks charge. Computed without building the
    /// message.
    pub fn wire_len(&self) -> usize {
        codec::head_len(self) + self.body.len()
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` response with a body.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Response {
        Response::with_status(200, "OK", content_type, body)
    }

    /// An arbitrary-status response.
    pub fn with_status(status: u16, reason: &str, content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status,
            reason: reason.to_string(),
            headers: vec![
                ("Content-Type".to_string(), content_type.to_string()),
                ("Content-Length".to_string(), body.len().to_string()),
            ],
            body,
        }
    }

    /// A `500` SOAP-fault-style response.
    pub fn server_error(body: Vec<u8>) -> Response {
        Response::with_status(
            500,
            "Internal Server Error",
            "text/xml; charset=utf-8",
            body,
        )
    }

    /// The server's span context from the `X-SBQ-Span` response header,
    /// if present and well-formed — what lets a client stitch the
    /// server's subtree under its own root span.
    pub fn server_span(&self) -> Option<sbq_telemetry::TraceContext> {
        sbq_telemetry::TraceContext::parse(self.header(sbq_telemetry::trace::SPAN_HEADER)?)
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serializes for the wire with `Content-Length` framing,
    /// materializing the whole message. Prefer [`Response::write_to`] on
    /// the transmit path.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_wire_bytes(&ChunkPolicy::disabled())
    }

    /// Serializes with the given chunking policy applied (used by the
    /// fault-injection write path, which needs the framed bytes to
    /// truncate them).
    pub fn to_wire_bytes(&self, policy: &ChunkPolicy) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_to(&mut out, policy)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Streams this response to `w`: small head buffer, body written from
    /// `self.body` directly — whole under `Content-Length` framing, in
    /// bounded slices as `Transfer-Encoding: chunked` when `policy`
    /// applies to the body size.
    pub fn write_to(&self, w: &mut impl Write, policy: &ChunkPolicy) -> std::io::Result<()> {
        codec::write_message(w, self, policy, Vec::with_capacity(256)).map(drop)
    }

    /// Total on-the-wire size under `Content-Length` framing, computed
    /// without building the message.
    pub fn wire_len(&self) -> usize {
        codec::head_len(self) + self.body.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::decode;

    #[test]
    fn request_round_trips() {
        let req = Request::post("/svc", "text/xml", b"<x/>".to_vec());
        let bytes = req.to_bytes();
        let parsed = decode::<Request>(&bytes, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path, "/svc");
        assert_eq!(parsed.body, b"<x/>");
        assert_eq!(parsed.header("content-type"), Some("text/xml"));
        assert_eq!(parsed.header("CONTENT-LENGTH"), Some("4"));
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::ok("application/pbio", vec![1, 2, 3]);
        let bytes = resp.to_bytes();
        let parsed = decode::<Response>(&bytes, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.reason, "OK");
        assert_eq!(parsed.body, vec![1, 2, 3]);
    }

    #[test]
    fn eof_before_request_is_clean_close() {
        assert!(decode::<Request>(b"", &Limits::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "POST /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            "POST /x\r\n\r\n",
            "POST /x FTP/1.0\r\n\r\n",
            // Field names must be tokens ending at the colon: whitespace
            // before it, obs-fold continuations, empty and spaced names
            // are rejected, never trimmed into a framing header.
            "POST /x HTTP/1.1\r\nContent-Length : 3\r\n\r\nabc",
            "POST /x HTTP/1.1\r\nTransfer-Encoding : chunked\r\n\r\n0\r\n\r\n",
            "POST /x HTTP/1.1\r\nHost: x\r\n Content-Length: 3\r\n\r\nabc",
            "POST /x HTTP/1.1\r\n: v\r\n\r\n",
            "POST /x HTTP/1.1\r\nBad Name: v\r\n\r\n",
        ] {
            let res = decode::<Request>(bad.as_bytes(), &Limits::default());
            assert!(
                matches!(res, Err(HttpError::Protocol(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn oversized_headers_rejected() {
        let huge = format!("POST /x HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(20_000));
        assert!(matches!(
            decode::<Request>(huge.as_bytes(), &Limits::default()),
            Err(HttpError::TooLarge { what: "header", .. })
        ));
    }

    #[test]
    fn oversized_body_rejected_by_declared_length() {
        let limits = Limits {
            max_body_bytes: 64,
            ..Limits::default()
        };
        // Declares a big body but sends none: must fail on the declaration,
        // not by trying to read 1 MB.
        let doc = "POST /x HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
        assert!(matches!(
            decode::<Request>(doc.as_bytes(), &limits),
            Err(HttpError::TooLarge {
                what: "body",
                limit: 64
            })
        ));
    }

    #[test]
    fn custom_header_limit_enforced() {
        let limits = Limits {
            max_header_bytes: 32,
            ..Limits::default()
        };
        let doc = format!("POST /x HTTP/1.1\r\nX: {}\r\n\r\n", "b".repeat(100));
        assert!(matches!(
            decode::<Request>(doc.as_bytes(), &limits),
            Err(HttpError::TooLarge { what: "header", .. })
        ));
    }

    #[test]
    fn timeout_io_errors_classified() {
        let e = std::io::Error::new(std::io::ErrorKind::WouldBlock, "slow");
        assert!(matches!(
            HttpError::from_io(e, TimeoutKind::Read),
            HttpError::Timeout(TimeoutKind::Read)
        ));
        let e = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "rst");
        assert!(matches!(
            HttpError::from_io(e, TimeoutKind::Read),
            HttpError::Transport(_)
        ));
    }

    #[test]
    fn transport_errors_chain_source() {
        let e = HttpError::Transport(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "bp"));
        let src = std::error::Error::source(&e).expect("transport must chain its io cause");
        assert!(src.to_string().contains("bp"));
    }

    #[test]
    fn wire_len_counts_headers_and_body() {
        let req = Request::post("/s", "text/xml", vec![0; 100]);
        assert!(req.wire_len() > 100 + 50);
        let overhead = req.wire_len() - 100;
        // The HTTP framing overhead SOAP pays per message: order 10^2 B.
        assert!((60..400).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn wire_len_matches_the_encoded_message() {
        for n in [0, 3, 3 << 20] {
            let req = Request::post("/svc", "text/xml", vec![7; n]);
            assert_eq!(req.wire_len(), req.to_bytes().len(), "request body {n}");
            let mut resp = Response::with_status(404, "Not Found", "text/plain", vec![9; n]);
            resp.headers.push(("X-Request-Id".into(), "12".into()));
            assert_eq!(resp.wire_len(), resp.to_bytes().len(), "response body {n}");
        }
    }

    #[test]
    fn get_has_no_body() {
        let req = Request::get("/wsdl");
        let parsed = decode::<Request>(&req.to_bytes(), &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(parsed.method, "GET");
        assert!(parsed.body.is_empty());
    }
}
