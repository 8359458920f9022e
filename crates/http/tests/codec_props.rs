//! Seeded split-point properties of the HTTP codec. Random requests and
//! responses, with `Content-Length` or chunked bodies (random chunk sizes,
//! extensions and trailers), are encoded and then decoded with the input
//! cut at random points: every split must decode exactly like a one-shot
//! feed. Truncations and single-byte corruptions of the framing bytes must
//! surface as a typed `HttpError`, never a panic, and the decoder never
//! buffers beyond the configured `Limits`.

use sbq_http::{peak_framing_buffer, ChunkPolicy, Decoder, HttpError, Limits, Request, Response};
use sbq_runtime::{BufferPool, SmallRng};

const CASES: u64 = 200;
const LIMITS: Limits = Limits {
    max_header_bytes: 4096,
    max_body_bytes: 1 << 20,
    max_chunk_bytes: 8192,
};

/// A decoded message, reduced to what the wire carries.
#[derive(Debug, PartialEq)]
struct Decoded {
    start: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

/// Feeds `wire` cut at `cuts` (sorted offsets) into a fresh decoder. Every
/// piece before the message completes must be consumed whole. Returns the
/// message and the bytes consumed, or the error — a message still
/// incomplete at the end of the input gets the truncation error.
macro_rules! decode_split {
    ($ty:ty, $wire:expr, $cuts:expr, $start:expr) => {{
        let (wire, cuts): (&[u8], &[usize]) = ($wire, $cuts);
        let pool = BufferPool::new();
        let mut dec = Decoder::<$ty>::new(LIMITS);
        let mut consumed = 0;
        let mut done = None;
        let mut from = 0;
        for to in cuts.iter().copied().chain([wire.len()]) {
            let piece = &wire[from..to];
            from = to;
            match dec.feed(piece, &pool) {
                Err(e) => return Err(e),
                Ok(used) => {
                    consumed += used;
                    if let Some(m) = dec.take() {
                        done = Some(m);
                        break;
                    }
                    assert_eq!(used, piece.len(), "an incomplete message left bytes unread");
                }
            }
        }
        match done {
            Some(m) => {
                let start: fn(&$ty) -> String = $start;
                Ok((
                    Decoded {
                        start: start(&m),
                        headers: m.headers,
                        body: m.body,
                    },
                    consumed,
                ))
            }
            None => Err(dec.truncated()),
        }
    }};
}

fn decode_request(wire: &[u8], cuts: &[usize]) -> Result<(Decoded, usize), HttpError> {
    decode_split!(Request, wire, cuts, |r| format!("{} {}", r.method, r.path))
}

fn decode_response(wire: &[u8], cuts: &[usize]) -> Result<(Decoded, usize), HttpError> {
    decode_split!(Response, wire, cuts, |r| format!(
        "{} {}",
        r.status, r.reason
    ))
}

/// One generated message on the wire, with what it must decode to.
struct Case {
    request: bool,
    wire: Vec<u8>,
    expect: Decoded,
    /// Offsets of framing bytes whose corruption must be an error: chunk
    /// size digits, the CR and LF of size lines without an extension and
    /// of chunk data, and the digits of a `Content-Length`.
    fragile: Vec<usize>,
}

impl Case {
    fn decode(&self, wire: &[u8], cuts: &[usize]) -> Result<(Decoded, usize), HttpError> {
        if self.request {
            decode_request(wire, cuts)
        } else {
            decode_response(wire, cuts)
        }
    }
}

fn pick<'a>(rng: &mut SmallRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_below(items.len() as u64) as usize]
}

fn token(rng: &mut SmallRng) -> String {
    let set = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!#$%&'*+-.^_`|~";
    (0..1 + rng.gen_below(12))
        .map(|_| set[rng.gen_below(set.len() as u64) as usize] as char)
        .collect()
}

/// Printable field value without leading or trailing whitespace (values
/// are trimmed on decode).
fn value(rng: &mut SmallRng) -> String {
    let v: String = (0..rng.gen_below(40))
        .map(|_| (b' ' + rng.gen_below(95) as u8) as char)
        .collect();
    v.trim().to_string()
}

fn bytes(rng: &mut SmallRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn gen_case(rng: &mut SmallRng) -> Case {
    let request = rng.gen_bool(0.5);
    let mut headers = Vec::new();
    for i in 0..rng.gen_below(8) {
        // A numeric suffix keeps generated names clear of the framing headers.
        headers.push((format!("{}-{i}", token(rng)), value(rng)));
    }
    let len = rng.gen_below(12_000) as usize;
    let body = bytes(rng, len);
    let chunked = rng.gen_bool(0.5);
    if !chunked {
        headers.push(("Content-Length".to_string(), body.len().to_string()));
    }
    let policy = if chunked {
        ChunkPolicy::above(0)
    } else {
        ChunkPolicy::disabled()
    };
    let sent_body = if chunked { Vec::new() } else { body.clone() };
    let mut wire = Vec::new();
    let start = if request {
        let req = Request {
            method: pick(rng, &["GET", "POST", "PUT", "M-SEARCH"]).to_string(),
            path: format!("/{}", token(rng)),
            headers: headers.clone(),
            body: sent_body,
        };
        req.write_to(&mut wire, &policy).unwrap();
        format!("{} {}", req.method, req.path)
    } else {
        let resp = Response {
            status: 100 + rng.gen_below(500) as u16,
            reason: pick(rng, &["OK", "Not Found", "", "Service Unavailable"]).to_string(),
            headers: headers.clone(),
            body: sent_body,
        };
        resp.write_to(&mut wire, &policy).unwrap();
        format!("{} {}", resp.status, resp.reason)
    };
    let mut fragile = Vec::new();
    if chunked {
        // The codec framed an empty body as the last chunk alone; replace
        // it with randomly sized chunks, extensions and trailers.
        assert!(wire.ends_with(b"0\r\n\r\n"));
        wire.truncate(wire.len() - 5);
        headers.push(("Transfer-Encoding".to_string(), "chunked".to_string()));
        let mut at = 0;
        loop {
            let n = (1 + rng.gen_below(3000) as usize).min(body.len() - at);
            let hex = if rng.gen_bool(0.5) {
                format!("{n:x}")
            } else {
                format!("{n:X}")
            };
            fragile.extend(wire.len()..wire.len() + hex.len());
            wire.extend_from_slice(hex.as_bytes());
            if rng.gen_bool(0.3) {
                // A junk byte for the CR would only extend the extension.
                wire.extend_from_slice(format!(";{}={}", token(rng), token(rng)).as_bytes());
            } else {
                fragile.extend([wire.len(), wire.len() + 1]);
            }
            wire.extend_from_slice(b"\r\n");
            if n == 0 {
                break;
            }
            wire.extend_from_slice(&body[at..at + n]);
            at += n;
            fragile.extend([wire.len(), wire.len() + 1]);
            wire.extend_from_slice(b"\r\n");
        }
        for _ in 0..rng.gen_below(4) {
            wire.extend_from_slice(format!("{}: {}\r\n", token(rng), value(rng)).as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
    } else {
        let digits = body.len().to_string();
        let needle = format!("Content-Length: {digits}\r\n");
        let at = wire
            .windows(needle.len())
            .position(|w| w == needle.as_bytes())
            .expect("content-length header on the wire")
            + "Content-Length: ".len();
        fragile.extend(at..at + digits.len());
    }
    Case {
        request,
        wire,
        expect: Decoded {
            start,
            headers,
            body,
        },
        fragile,
    }
}

/// Up to `max` sorted cut points strictly inside `0..len`.
fn cuts(rng: &mut SmallRng, len: usize, max: u64) -> Vec<usize> {
    let mut c: Vec<usize> = (0..rng.gen_below(max + 1))
        .map(|_| 1 + rng.gen_below(len.max(2) as u64 - 1) as usize)
        .filter(|&c| c < len)
        .collect();
    c.sort_unstable();
    c.dedup();
    c
}

fn assert_bounded() {
    let peak = peak_framing_buffer();
    let bound = LIMITS.max_chunk_bytes.max(LIMITS.max_header_bytes + 1);
    assert!(
        peak <= bound,
        "framing buffered {peak} bytes, limit {bound}"
    );
}

#[test]
fn every_split_decodes_like_one_shot() {
    let mut rng = SmallRng::seed_from_u64(0x0c0d_ec00_0001);
    for case_no in 0..CASES {
        let case = gen_case(&mut rng);
        let (whole, used) = case
            .decode(&case.wire, &[])
            .unwrap_or_else(|e| panic!("case {case_no}: {e}"));
        assert_eq!(whole, case.expect, "case {case_no}");
        assert_eq!(used, case.wire.len(), "case {case_no}");
        for _ in 0..4 {
            let cut = cuts(&mut rng, case.wire.len(), 12);
            let (split, used) = case.decode(&case.wire, &cut).unwrap();
            assert_eq!(split, whole, "case {case_no} cut at {cut:?}");
            assert_eq!(used, case.wire.len(), "case {case_no} cut at {cut:?}");
        }
        // Pipelined: the decoder stops exactly at the end of the first copy.
        let twice = [&case.wire[..], &case.wire[..]].concat();
        let cut = cuts(&mut rng, twice.len(), 6);
        let (first, used) = case.decode(&twice, &cut).unwrap();
        assert_eq!(first, whole, "case {case_no} pipelined");
        assert_eq!(used, case.wire.len(), "case {case_no} pipelined");
    }
    assert_bounded();
}

#[test]
fn truncations_are_protocol_errors() {
    let mut rng = SmallRng::seed_from_u64(0x0c0d_ec00_0002);
    for case_no in 0..CASES {
        let case = gen_case(&mut rng);
        for _ in 0..4 {
            let end = rng.gen_below(case.wire.len() as u64) as usize;
            let prefix = &case.wire[..end];
            let cut = cuts(&mut rng, prefix.len(), 6);
            let res = case.decode(prefix, &cut);
            assert!(
                matches!(res, Err(HttpError::Protocol(_))),
                "case {case_no} cut off after {end} of {} bytes: {:?}",
                case.wire.len(),
                res.map(|(d, n)| (d.start, n))
            );
        }
    }
    assert_bounded();
}

#[test]
fn corrupted_framing_bytes_are_typed_errors() {
    let mut rng = SmallRng::seed_from_u64(0x0c0d_ec00_0003);
    for case_no in 0..CASES {
        let case = gen_case(&mut rng);
        for _ in 0..4 {
            let at = case.fragile[rng.gen_below(case.fragile.len() as u64) as usize];
            let mut wire = case.wire.clone();
            // Never a digit, hex digit, whitespace, `;`, CR or LF: the
            // frame cannot stay valid.
            let junk = b"xyzGHQ_@!~";
            wire[at] = junk[rng.gen_below(junk.len() as u64) as usize];
            let cut = cuts(&mut rng, wire.len(), 6);
            let res = case.decode(&wire, &cut);
            assert!(
                matches!(
                    res,
                    Err(HttpError::Protocol(_)) | Err(HttpError::TooLarge { .. })
                ),
                "case {case_no}: byte {at} ({:?}) corrupted, got {:?}",
                case.wire[at] as char,
                res.map(|(d, n)| (d.start, n))
            );
        }
    }
    assert_bounded();
}
