//! The HTTP/1.1 wire codec, free of I/O: one push [`Decoder`] that turns
//! bytes into a [`Request`] or [`Response`], and one [`Encoder`] that turns
//! a message back into bytes. The reactor server, the blocking client and
//! the bench load generators all drive these two types; none of them
//! parses or frames HTTP on its own.
//!
//! The decoder consumes every byte it is handed up to the end of the
//! current message and never looks at a byte twice: a line split across
//! reads waits in a small buffer capped by [`Limits`], and body bytes are
//! appended straight into the message's pooled body. A peer that dribbles
//! a request one byte per read therefore costs time linear in the request,
//! and the decoder never holds more than one header line, one chunk-size
//! line or one read's worth of chunk data beyond the body itself.
//!
//! The head parser is strict where leniency would let two parsers
//! disagree about where a message ends (RFC 7230 §3.2.4): a field name
//! must be a non-empty token directly followed by `:`, so whitespace
//! before the colon and obs-fold continuation lines are rejected rather
//! than trimmed into a framing header.

use crate::body::{parse_framing, record_framing_buffer, BodyFraming, ChunkPolicy};
use crate::message::{HttpError, Limits, Request, Response};
use sbq_runtime::BufferPool;
use std::io::Write;

/// Longest chunk-size line we accept: 16 hex digits (a full `u64`) plus a
/// generous allowance for a chunk extension, which we ignore.
const MAX_CHUNK_SIZE_LINE: usize = 256;
/// Largest body buffer taken from the pool up front for a declared
/// `Content-Length`; bigger bodies grow as their bytes arrive, so a peer
/// cannot reserve memory it never sends.
const MAX_BODY_HINT: usize = 1024 * 1024;
/// Longest chunk frame: CRLF, 16 hex digits, CRLF, and the final CRLF.
const FRAME: usize = 22;

/// A message the codec reads and writes: [`Request`] or [`Response`]. The
/// two differ on the wire only in their start line.
pub trait Message: Sized {
    /// What the message is called in error text.
    const KIND: &'static str;
    /// Parses a start line into a message with no headers and no body.
    fn parse_start(line: &str) -> Result<Self, HttpError>;
    /// Writes the start line, CRLF included.
    fn write_start(&self, out: &mut impl Sink);
    /// Header pairs in wire order, and the body.
    fn parts(&self) -> (&[(String, String)], &[u8]);
    /// Mutable headers and body.
    fn parts_mut(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>);
}

impl Message for Request {
    const KIND: &'static str = "request";

    fn parse_start(line: &str) -> Result<Request, HttpError> {
        let mut parts = line.split_whitespace();
        let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::Protocol(format!("bad request line: {line:?}")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Protocol(format!("bad version: {version:?}")));
        }
        Ok(Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    fn write_start(&self, out: &mut impl Sink) {
        out.put(self.method.as_bytes());
        out.put(b" ");
        out.put(self.path.as_bytes());
        out.put(b" HTTP/1.1\r\n");
    }

    fn parts(&self) -> (&[(String, String)], &[u8]) {
        (&self.headers, &self.body)
    }
    fn parts_mut(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>) {
        (&mut self.headers, &mut self.body)
    }
}

impl Message for Response {
    const KIND: &'static str = "response";

    fn parse_start(line: &str) -> Result<Response, HttpError> {
        let mut parts = line.splitn(3, ' ');
        let _version = parts.next();
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HttpError::Protocol(format!("bad status line: {line:?}")))?;
        Ok(Response {
            status,
            reason: parts.next().unwrap_or("").to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    fn write_start(&self, out: &mut impl Sink) {
        let mut digits = [0u8; 5];
        let mut w = &mut digits[..];
        write!(w, "{}", self.status).expect("a u16 has at most five digits");
        let n = 5 - w.len();
        out.put(b"HTTP/1.1 ");
        out.put(&digits[..n]);
        out.put(b" ");
        out.put(self.reason.as_bytes());
        out.put(b"\r\n");
    }

    fn parts(&self) -> (&[(String, String)], &[u8]) {
        (&self.headers, &self.body)
    }
    fn parts_mut(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>) {
        (&mut self.headers, &mut self.body)
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum State {
    /// Reading the request or status line.
    Start,
    /// Reading header lines up to the blank line.
    Headers,
    /// `Content-Length` body: bytes still to come.
    Length { remaining: usize },
    /// Between chunks: a chunk-size line comes next.
    ChunkSize { total: usize },
    /// Inside a chunk's data.
    ChunkData { remaining: usize, total: usize },
    /// After a chunk's data: its CRLF (`cr` once the CR has arrived).
    ChunkEnd { total: usize, cr: bool },
    /// After the last chunk: trailer lines up to the blank line.
    Trailers,
    /// The message is complete.
    Done,
}

/// Push decoder for one HTTP/1.1 message at a time.
///
/// [`Decoder::feed`] accepts whatever bytes have arrived and returns how
/// many it used; it stops only at the end of a message, so a return short
/// of the input means the rest belongs to the next (pipelined) message.
/// Every limit in [`Limits`] is checked before the bytes it governs are
/// buffered, and a framing error is final: the connection cannot be
/// resynchronized and must be closed.
#[derive(Debug)]
pub struct Decoder<M> {
    limits: Limits,
    state: State,
    /// The part of a line that arrived without its LF.
    line: Vec<u8>,
    /// Bytes of the head, or of the trailer section, so far.
    section: usize,
    msg: Option<M>,
    chunked: bool,
}

impl<M: Message> Decoder<M> {
    /// A decoder waiting for the first byte of a message.
    pub fn new(limits: Limits) -> Decoder<M> {
        Decoder {
            limits,
            state: State::Start,
            line: Vec::new(),
            section: 0,
            msg: None,
            chunked: false,
        }
    }

    /// Decodes bytes from `input`, returning how many were consumed. Body
    /// buffers come from `pool`. Consumes all of `input` unless the message
    /// completes first; check [`Decoder::take`] after each call.
    pub fn feed(&mut self, input: &[u8], pool: &BufferPool) -> Result<usize, HttpError> {
        let mut pos = 0;
        while pos < input.len() {
            let rest = &input[pos..];
            pos += match self.state {
                State::Done => break,
                State::Length { remaining } => {
                    let n = remaining.min(rest.len());
                    self.body().extend_from_slice(&rest[..n]);
                    self.state = match remaining - n {
                        0 => State::Done,
                        remaining => State::Length { remaining },
                    };
                    n
                }
                State::ChunkData { remaining, total } => {
                    let n = remaining.min(rest.len());
                    record_framing_buffer(n);
                    self.body().extend_from_slice(&rest[..n]);
                    self.state = match remaining - n {
                        0 => State::ChunkEnd { total, cr: false },
                        remaining => State::ChunkData { remaining, total },
                    };
                    n
                }
                State::ChunkEnd { total, cr } => {
                    self.state = match (cr, rest[0]) {
                        (false, b'\r') => State::ChunkEnd { total, cr: true },
                        (true, b'\n') => State::ChunkSize { total },
                        _ => return Err(HttpError::Protocol("missing chunk terminator".into())),
                    };
                    1
                }
                State::Start | State::Headers | State::ChunkSize { .. } | State::Trailers => {
                    self.feed_line(rest, pool)?
                }
            };
        }
        Ok(pos)
    }

    /// Whether the body arrives `Transfer-Encoding: chunked` (known once
    /// the head is complete).
    pub(crate) fn is_chunked(&self) -> bool {
        self.chunked
    }

    /// The decoded message, once complete; the decoder is then ready for
    /// the next message on the connection.
    pub fn take(&mut self) -> Option<M> {
        if !matches!(self.state, State::Done) {
            return None;
        }
        self.state = State::Start;
        self.section = 0;
        self.chunked = false;
        self.msg.take()
    }

    /// For a `Content-Length` body still arriving, extends the body to its
    /// declared length and returns the unfilled tail, marking the message
    /// complete. A blocking reader fills it with one `read_exact` straight
    /// from the socket instead of copying the body through its read
    /// buffer. The caller must fill the whole slice or drop the decoder.
    pub(crate) fn length_tail(&mut self, pool: &BufferPool) -> Option<&mut [u8]> {
        let State::Length { remaining } = self.state else {
            return None;
        };
        self.state = State::Done;
        let body = self.body();
        let (filled, len) = (body.len(), body.len() + remaining);
        if body.capacity() < len {
            // Past the up-front hint: the caller trusts this peer, so take
            // a pooled buffer of the full declared size.
            let mut full = pool.get(len);
            full.extend_from_slice(body);
            pool.put(std::mem::replace(body, full));
        }
        body.resize(len, 0);
        Some(&mut body[filled..])
    }

    /// The error for a peer that closed the connection before this message
    /// was complete.
    pub fn truncated(&self) -> HttpError {
        HttpError::Protocol(match self.state {
            State::Start if self.line.is_empty() => {
                format!("connection closed before {}", M::KIND)
            }
            State::Start | State::Headers => format!("connection closed mid {} head", M::KIND),
            State::Length { .. } => "body truncated by peer".into(),
            State::Trailers => "eof in chunked trailers".into(),
            _ => "truncated chunk".into(),
        })
    }

    /// The body read so far, for recycling when a connection is abandoned
    /// mid-message.
    pub(crate) fn into_body(self) -> Vec<u8> {
        self.msg
            .map(|mut m| std::mem::take(m.parts_mut().1))
            .unwrap_or_default()
    }

    fn parts(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>) {
        self.msg
            .as_mut()
            .expect("the start line is parsed before any later state")
            .parts_mut()
    }

    fn body(&mut self) -> &mut Vec<u8> {
        self.parts().1
    }

    /// Consumes up to and including the next LF of a line-oriented state.
    fn feed_line(&mut self, rest: &[u8], pool: &BufferPool) -> Result<usize, HttpError> {
        let (budget, what, limit) = match self.state {
            State::ChunkSize { .. } => {
                (MAX_CHUNK_SIZE_LINE, "chunk-size line", MAX_CHUNK_SIZE_LINE)
            }
            _ => (
                self.limits.max_header_bytes.saturating_sub(self.section),
                "header",
                self.limits.max_header_bytes,
            ),
        };
        let too_large = HttpError::TooLarge { what, limit };
        let Some(lf) = rest.iter().position(|&b| b == b'\n') else {
            // One byte over the budget may still be the CR of the CRLF.
            if self.line.len() + rest.len() > budget + 1 {
                return Err(too_large);
            }
            self.line.extend_from_slice(rest);
            record_framing_buffer(self.line.len());
            return Ok(rest.len());
        };
        let mut line = std::mem::take(&mut self.line);
        let raw = if line.is_empty() {
            &rest[..lf]
        } else {
            line.extend_from_slice(&rest[..lf]);
            &line[..]
        };
        let mut end = raw.len();
        while end > 0 && raw[end - 1] == b'\r' {
            end -= 1;
        }
        let result = if end > budget {
            Err(too_large)
        } else {
            std::str::from_utf8(&raw[..end])
                .map_err(|_| HttpError::Protocol("header line is not valid utf-8".into()))
                .and_then(|text| self.on_line(text, pool))
        };
        line.clear();
        self.line = line;
        result.map(|()| lf + 1)
    }

    fn on_line(&mut self, line: &str, pool: &BufferPool) -> Result<(), HttpError> {
        if !matches!(self.state, State::ChunkSize { .. }) {
            self.section += line.len();
        }
        match self.state {
            State::Start => {
                self.msg = Some(M::parse_start(line)?);
                self.state = State::Headers;
            }
            State::Headers if line.is_empty() => self.start_body(pool)?,
            State::Headers => {
                let field = parse_field(line)?;
                self.parts().0.push(field);
            }
            State::ChunkSize { total } => self.start_chunk(parse_chunk_size(line)?, total)?,
            State::Trailers if line.is_empty() => self.state = State::Done,
            State::Trailers => {} // trailer fields are bounded, then discarded
            _ => unreachable!("only line states read lines"),
        }
        Ok(())
    }

    /// Resolves the framing once the head is complete. Malformed or
    /// conflicting declarations are errors, never "no body": a skipped
    /// body would be parsed as the next pipelined message.
    fn start_body(&mut self, pool: &BufferPool) -> Result<(), HttpError> {
        let max = self.limits.max_body_bytes;
        match parse_framing(self.parts().0)? {
            BodyFraming::Length(n) if n > max as u64 => {
                return Err(HttpError::TooLarge {
                    what: "body",
                    limit: max,
                });
            }
            BodyFraming::Length(0) => self.state = State::Done,
            BodyFraming::Length(n) => {
                let n = n as usize; // ≤ max_body_bytes, checked above
                *self.body() = pool.get(n.min(MAX_BODY_HINT));
                self.state = State::Length { remaining: n };
            }
            BodyFraming::Chunked => {
                *self.body() = pool.get(ChunkPolicy::DEFAULT_CHUNK_SIZE);
                self.chunked = true;
                self.state = State::ChunkSize { total: 0 };
            }
        }
        Ok(())
    }

    fn start_chunk(&mut self, size: u64, total: usize) -> Result<(), HttpError> {
        if size == 0 {
            self.section = 0;
            self.state = State::Trailers;
            return Ok(());
        }
        let max_chunk = self.limits.max_chunk_bytes;
        if size > max_chunk as u64 {
            return Err(HttpError::TooLarge {
                what: "chunk",
                limit: max_chunk,
            });
        }
        // The cast is lossless (size ≤ max_chunk_bytes); the cumulative cap
        // is checked before the chunk's data arrives.
        let size = size as usize;
        let max_body = self.limits.max_body_bytes;
        if total.saturating_add(size) > max_body {
            return Err(HttpError::TooLarge {
                what: "body",
                limit: max_body,
            });
        }
        self.state = State::ChunkData {
            remaining: size,
            total: total + size,
        };
        Ok(())
    }
}

/// One `name: value` header line. The name must be a token (RFC 7230
/// §3.2.6) ending at the colon; the value is trimmed.
fn parse_field(line: &str) -> Result<(String, String), HttpError> {
    let is_tchar = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
    match line.split_once(':') {
        Some((name, value)) if !name.is_empty() && name.bytes().all(is_tchar) => {
            Ok((name.to_string(), value.trim().to_string()))
        }
        _ => Err(HttpError::Protocol(format!("bad header: {line:?}"))),
    }
}

/// A chunk-size line; chunk extensions (`;ext=val`) are tolerated and
/// ignored.
fn parse_chunk_size(line: &str) -> Result<u64, HttpError> {
    let digits = line.split(';').next().unwrap_or("").trim();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(HttpError::Protocol(format!("bad chunk size: {line:?}")));
    }
    u64::from_str_radix(digits, 16)
        .map_err(|_| HttpError::Protocol(format!("chunk size out of range: {line:?}")))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Where an encoded head goes: a buffer, or a counter that only measures.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Writes the head of `msg`: start line, headers, blank line. Under
/// chunked framing any `Content-Length` or `Transfer-Encoding` header is
/// replaced by a single `Transfer-Encoding: chunked`.
fn encode_head<M: Message>(msg: &M, chunked: bool, out: &mut impl Sink) {
    msg.write_start(out);
    for (k, v) in msg.parts().0 {
        if chunked
            && (k.eq_ignore_ascii_case("content-length")
                || k.eq_ignore_ascii_case("transfer-encoding"))
        {
            continue;
        }
        out.put(k.as_bytes());
        out.put(b": ");
        out.put(v.as_bytes());
        out.put(b"\r\n");
    }
    if chunked {
        out.put(b"Transfer-Encoding: chunked\r\n");
    }
    out.put(b"\r\n");
}

/// Length of the `Content-Length`-framed head of `msg`, without building it.
pub(crate) fn head_len<M: Message>(msg: &M) -> usize {
    let mut n = Count(0);
    encode_head(msg, false, &mut n);
    n.0
}

/// A framed message as a sequence of byte slices: the head, then the body
/// whole (`Content-Length`) or as chunks whose size lines are produced on
/// the fly, so no second body-sized buffer ever exists. A blocking writer
/// writes each slice in full; the reactor writes what the socket accepts
/// and resumes on the next writable event. Both emit the same bytes.
#[derive(Debug)]
pub(crate) struct Encoder {
    head: Vec<u8>,
    head_pos: usize,
    /// Chunk size when the body goes out chunked.
    chunk: Option<usize>,
    body_pos: usize,
    /// Body bytes left in the current chunk.
    chunk_rem: usize,
    /// The current chunk-size line, led by the previous chunk's CRLF.
    frame: [u8; FRAME],
    frame_len: usize,
    frame_pos: usize,
    last_frame: bool,
}

impl Encoder {
    /// Frames `msg` under `policy`, encoding its head into `head` (a reused
    /// scratch buffer; its contents are replaced).
    pub(crate) fn new<M: Message>(msg: &M, policy: &ChunkPolicy, mut head: Vec<u8>) -> Encoder {
        let chunked = policy.applies_to(msg.parts().1.len());
        head.clear();
        encode_head(msg, chunked, &mut head);
        record_framing_buffer(head.len());
        let mut enc = Encoder::raw(head);
        enc.chunk = chunked.then(|| policy.chunk_bytes());
        enc
    }

    /// Bytes that are already framed, sent as they are.
    pub(crate) fn raw(bytes: Vec<u8>) -> Encoder {
        Encoder {
            head: bytes,
            head_pos: 0,
            chunk: None,
            body_pos: 0,
            chunk_rem: 0,
            frame: [0; FRAME],
            frame_len: 0,
            frame_pos: 0,
            last_frame: false,
        }
    }

    /// Whether the body goes out chunked.
    pub(crate) fn is_chunked(&self) -> bool {
        self.chunk.is_some()
    }

    /// The next bytes to write, or `None` once the message is out. `body`
    /// must be the body of the message this encoder was made for.
    pub(crate) fn next<'a>(&'a mut self, body: &'a [u8]) -> Option<&'a [u8]> {
        if self.head_pos < self.head.len() {
            return Some(&self.head[self.head_pos..]);
        }
        let Some(chunk) = self.chunk else {
            return (self.body_pos < body.len()).then(|| &body[self.body_pos..]);
        };
        if self.frame_pos == self.frame_len && self.chunk_rem == 0 && !self.last_frame {
            let n = (body.len() - self.body_pos).min(chunk);
            let lead = if self.body_pos > 0 { "\r\n" } else { "" };
            let tail = if n == 0 { "\r\n" } else { "" };
            let mut w = &mut self.frame[..];
            write!(w, "{lead}{n:x}\r\n{tail}").expect("a chunk frame fits its buffer");
            self.frame_len = FRAME - w.len();
            self.frame_pos = 0;
            self.chunk_rem = n;
            self.last_frame = n == 0;
            record_framing_buffer(n);
        }
        if self.frame_pos < self.frame_len {
            Some(&self.frame[self.frame_pos..self.frame_len])
        } else if self.chunk_rem > 0 {
            Some(&body[self.body_pos..self.body_pos + self.chunk_rem])
        } else {
            None
        }
    }

    /// Records `n` bytes written from the slice [`Encoder::next`] returned.
    pub(crate) fn advance(&mut self, n: usize) {
        if self.head_pos < self.head.len() {
            self.head_pos += n;
        } else if self.frame_pos < self.frame_len {
            self.frame_pos += n;
        } else {
            self.body_pos += n;
            if self.chunk.is_some() {
                self.chunk_rem -= n;
            }
        }
    }

    /// The head buffer, for reuse.
    pub(crate) fn into_head(self) -> Vec<u8> {
        self.head
    }
}

/// Writes `msg` to `w` under `policy`, encoding the head into the `head`
/// scratch buffer, which is handed back for reuse.
pub(crate) fn write_message<M: Message>(
    w: &mut impl Write,
    msg: &M,
    policy: &ChunkPolicy,
    head: Vec<u8>,
) -> std::io::Result<Vec<u8>> {
    let mut enc = Encoder::new(msg, policy, head);
    while let Some(bytes) = enc.next(msg.parts().1) {
        w.write_all(bytes)?;
        let n = bytes.len();
        enc.advance(n);
    }
    w.flush()?;
    Ok(enc.into_head())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::body::{peak_framing_buffer, reset_peak_framing_buffer};

    /// Decodes one message from `bytes` followed by end of input: `None`
    /// for empty input (a clean close), the message, or the error —
    /// a cut-off message is the truncation error a closed socket gets.
    pub(crate) fn decode<M: Message>(
        bytes: &[u8],
        limits: &Limits,
    ) -> Result<Option<M>, HttpError> {
        if bytes.is_empty() {
            return Ok(None);
        }
        let mut dec = Decoder::<M>::new(*limits);
        dec.feed(bytes, &BufferPool::new())?;
        dec.take().map(Some).ok_or_else(|| dec.truncated())
    }

    const CHUNKED_HEAD: &[u8] = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";

    fn chunked_request(framed_body: &[u8]) -> Vec<u8> {
        [CHUNKED_HEAD, framed_body].concat()
    }

    /// `body` framed as chunks of `chunk` bytes, head stripped.
    fn chunked_wire(body: &[u8], chunk: usize) -> Vec<u8> {
        let req = Request {
            method: "POST".into(),
            path: "/".into(),
            headers: Vec::new(),
            body: body.to_vec(),
        };
        let mut wire = Vec::new();
        req.write_to(&mut wire, &ChunkPolicy::above(0).chunk_size(chunk))
            .unwrap();
        let body_at = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        wire.split_off(body_at)
    }

    fn decode_chunked(framed_body: &[u8], limits: &Limits) -> Result<Vec<u8>, HttpError> {
        decode::<Request>(&chunked_request(framed_body), limits).map(|r| r.unwrap().body)
    }

    #[test]
    fn chunked_decode_round_trip() {
        let wire = chunked_request(b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\nNEXT");
        let mut dec = Decoder::<Request>::new(Limits::default());
        let used = dec.feed(&wire, &BufferPool::new()).unwrap();
        assert_eq!(dec.take().unwrap().body, b"Wikipedia");
        // The decoder stopped exactly at the end of the terminator, leaving
        // the next message intact.
        assert_eq!(&wire[used..], b"NEXT");
    }

    #[test]
    fn chunked_extensions_and_trailers_tolerated() {
        let body = decode_chunked(
            b"3;ext=\"v\"\r\nabc\r\n0\r\nX-Trailer: t\r\n\r\n",
            &Limits::default(),
        );
        assert_eq!(body.unwrap(), b"abc");
    }

    #[test]
    fn truncated_chunk_is_a_protocol_error() {
        for wire in [
            &b"ff\r\nonly a few bytes"[..], // EOF inside chunk data
            b"4\r\nWiki",                   // EOF before chunk CRLF
            b"4\r\nWikiXX",                 // wrong terminator
            b"4\r\nWiki\r\n5\r\npedia\r\n", // EOF before final chunk
            b"zz\r\n",                      // non-hex size
            b"\r\n",                        // empty size line
        ] {
            let res = decode_chunked(wire, &Limits::default());
            assert!(
                matches!(res, Err(HttpError::Protocol(_))),
                "{wire:?} → {res:?}"
            );
        }
    }

    #[test]
    fn chunk_limits_enforced_incrementally() {
        let limits = Limits {
            max_chunk_bytes: 16,
            ..Limits::default()
        };
        // Declares a 1 MiB chunk but sends nothing: rejected on the
        // declaration, before any read.
        let res = decode_chunked(b"100000\r\n", &limits);
        assert!(matches!(
            res,
            Err(HttpError::TooLarge {
                what: "chunk",
                limit: 16
            })
        ));

        // Cumulative body cap: many small chunks must trip max_body_bytes.
        let limits = Limits {
            max_body_bytes: 10,
            ..Limits::default()
        };
        let res = decode_chunked(b"6\r\nabcdef\r\n6\r\nghijkl\r\n0\r\n\r\n", &limits);
        assert!(matches!(
            res,
            Err(HttpError::TooLarge {
                what: "body",
                limit: 10
            })
        ));
    }

    #[test]
    fn truncated_length_body_is_a_protocol_error() {
        // Keep-alive poison: a short body must not be misread as complete.
        let res = decode::<Request>(
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            &Limits::default(),
        );
        assert!(matches!(res, Err(HttpError::Protocol(_))), "{res:?}");
    }

    #[test]
    fn feed_streams_a_chunked_body_in_bounded_pieces() {
        let payload = vec![7u8; 10_000];
        let wire = chunked_request(&chunked_wire(&payload, 1024));
        let pool = BufferPool::new();
        let mut dec = Decoder::<Request>::new(Limits::default());
        let mut grown = 0;
        for piece in wire.chunks(300) {
            assert_eq!(dec.feed(piece, &pool).unwrap(), piece.len());
            let now = dec.msg.as_ref().map_or(0, |m| m.body.len());
            assert!(now - grown <= 300);
            grown = now;
        }
        assert_eq!(dec.take().unwrap().body, payload);
    }

    #[test]
    fn encoder_keeps_content_length_below_threshold() {
        let req = Request {
            method: "POST".into(),
            path: "/x".into(),
            headers: vec![("Content-Length".into(), "3".into())],
            body: b"abc".to_vec(),
        };
        let mut wire = Vec::new();
        req.write_to(&mut wire, &ChunkPolicy::above(1000)).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Content-Length: 3\r\n"), "{text}");
        assert!(!text.contains("Transfer-Encoding"), "{text}");
        assert!(text.ends_with("\r\n\r\nabc"), "{text}");
    }

    #[test]
    fn encoder_replaces_length_with_chunked_above_threshold() {
        let req = Request {
            method: "POST".into(),
            path: "/x".into(),
            headers: vec![("Content-Length".into(), "6".into())],
            body: b"abcdef".to_vec(),
        };
        let mut wire = Vec::new();
        req.write_to(&mut wire, &ChunkPolicy::above(4).chunk_size(4))
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(!text.contains("Content-Length"), "{text}");
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(
            text.ends_with("4\r\nabcd\r\n2\r\nef\r\n0\r\n\r\n"),
            "{text}"
        );
    }

    #[test]
    fn encoder_resumes_after_partial_writes() {
        // The reactor's shape: write whatever the socket takes, resume on
        // the next event. Any write size yields the blocking writer's bytes.
        let resp = Response::ok("text/plain", (0..3000u32).map(|i| i as u8).collect());
        let policy = ChunkPolicy::above(0).chunk_size(700);
        let expect = resp.to_wire_bytes(&policy);
        for step in [1, 3, 701, 5000] {
            let mut enc = Encoder::new(&resp, &policy, Vec::new());
            let mut out = Vec::new();
            while let Some(bytes) = enc.next(&resp.body) {
                let n = bytes.len().min(step);
                out.extend_from_slice(&bytes[..n]);
                enc.advance(n);
            }
            assert_eq!(out, expect, "write step {step}");
        }
    }

    #[test]
    fn chunked_body_resumes_across_arbitrary_byte_boundaries() {
        // Feed a chunked body one byte at a time, the way the event-driven
        // server sees a dribbling peer: the decoded body must come out
        // identical no matter where the "socket" ran dry (including
        // mid-size-line and between a chunk's data and its trailing CRLF).
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let wire = chunked_request(&chunked_wire(&payload, 700));
        let pool = BufferPool::new();
        let mut dec = Decoder::<Request>::new(Limits::default());
        let mut consumed = 0;
        for byte in wire.chunks(1) {
            consumed += dec.feed(byte, &pool).unwrap();
        }
        assert_eq!(dec.take().unwrap().body, payload);
        assert_eq!(consumed, wire.len(), "decoder consumed the exact framing");
    }

    #[test]
    fn dribbled_head_and_trailers_consume_every_byte_once() {
        // A 16 KiB head and a 16 KiB trailer section, one byte per call:
        // every call consumes its byte until the message completes, so no
        // byte is ever scanned twice and the cost stays linear.
        let pad = |n: usize| -> String {
            (0..n / 64)
                .map(|i| format!("X-Pad-{i:04}: {}\r\n", "v".repeat(50)))
                .collect()
        };
        let head = format!(
            "POST /x HTTP/1.1\r\n{}Content-Length: 3\r\n\r\nabc",
            pad(16_000)
        );
        let trailed = [
            CHUNKED_HEAD,
            b"3\r\nabc\r\n0\r\n",
            pad(16_000).as_bytes(),
            b"\r\n",
        ]
        .concat();
        let pool = BufferPool::new();
        for wire in [head.as_bytes(), &trailed[..]] {
            let mut dec = Decoder::<Request>::new(Limits::default());
            for (i, byte) in wire.chunks(1).enumerate() {
                assert_eq!(dec.feed(byte, &pool).unwrap(), 1, "byte {i}");
                assert_eq!(dec.take().is_some(), i + 1 == wire.len(), "byte {i}");
            }
        }
    }

    #[test]
    fn capped_line_read_rejects_newlineless_floods_incrementally() {
        // A 1 MiB newline-less line against a 1 KiB cap: must error without
        // buffering the megabyte (the peak gauge proves the bound held).
        reset_peak_framing_buffer();
        let limits = Limits {
            max_header_bytes: 1024,
            ..Limits::default()
        };
        let flood = vec![b'a'; 1024 * 1024];
        let mut dec = Decoder::<Request>::new(limits);
        let res = flood
            .chunks(8192)
            .try_for_each(|piece| dec.feed(piece, &BufferPool::new()).map(drop));
        assert!(matches!(
            res,
            Err(HttpError::TooLarge { what: "header", .. })
        ));
        assert!(
            peak_framing_buffer() <= 1024 + 2 + 8192,
            "buffered {} bytes against a 1 KiB cap",
            peak_framing_buffer()
        );
    }
}
