//! HTTP/1.1 body framing rules: how a body is framed ([`parse_framing`]),
//! when a sender chunks it ([`ChunkPolicy`]), and the gauge that bounds the
//! transient buffers framing needs ([`peak_framing_buffer`]). The bytes
//! themselves are read by [`crate::Decoder`] and written by the codec's
//! encoder.
//!
//! Strictness matters here because framing errors desynchronize
//! connections: a `Content-Length` that is silently mis-parsed leaves the
//! unread body on the stream, where it is parsed as the *next* request —
//! the classic request-smuggling shape. Every malformed, negative,
//! duplicate-conflicting, or `Transfer-Encoding`-conflicting length is
//! therefore rejected with [`HttpError::Protocol`] and the connection is
//! closed; nothing ever defaults to "no body".
//!
//! Streaming matters because the imaging/visualization workloads push
//! multi-megabyte payloads: the framing layer only ever holds one chunk
//! (or one header line) of transient state, never a second copy of the
//! whole message. [`peak_framing_buffer`] exposes the process-wide
//! high-water mark of those transient buffers so tests and benches can
//! assert the bound.

use crate::message::HttpError;
use std::sync::atomic::{AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Framing-buffer instrumentation
// ---------------------------------------------------------------------------

/// High-water mark of any transient buffer the framing layer allocated or
/// processed at once (partial header and chunk-size lines, single chunks,
/// and encoded message heads). The caller-visible body
/// `Vec` is *not* counted — the point of this gauge is to prove that
/// framing a 64 MiB body never needs a second 64 MiB buffer.
static PEAK_FRAMING_BUFFER: AtomicUsize = AtomicUsize::new(0);

pub(crate) fn record_framing_buffer(n: usize) {
    PEAK_FRAMING_BUFFER.fetch_max(n, Ordering::Relaxed);
}

/// The largest transient framing buffer observed process-wide since the
/// last [`reset_peak_framing_buffer`]. With chunked transfer this is
/// bounded by the configured chunk size regardless of body size.
pub fn peak_framing_buffer() -> usize {
    PEAK_FRAMING_BUFFER.load(Ordering::Relaxed)
}

/// Resets the high-water mark (tests/benches).
pub fn reset_peak_framing_buffer() {
    PEAK_FRAMING_BUFFER.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Framing declaration
// ---------------------------------------------------------------------------

/// How a message body is framed, as declared by its headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// `Content-Length: n` (a missing length means `Length(0)`: every
    /// framing this stack emits declares its length explicitly).
    Length(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Derives the body framing from a parsed header section, strictly:
///
/// * `Content-Length` must be pure ASCII digits — signs, empty values and
///   any other junk are protocol errors, never "zero";
/// * repeated `Content-Length` headers (or comma-separated value lists)
///   must all agree, otherwise the message is rejected;
/// * `Transfer-Encoding` must be exactly `chunked` (we never emit, and
///   refuse to guess about, other codings);
/// * `Content-Length` together with `Transfer-Encoding` is rejected
///   outright — that combination is the request-smuggling vector of RFC
///   7230 §3.3.3.
pub fn parse_framing(headers: &[(String, String)]) -> Result<BodyFraming, HttpError> {
    let mut declared: Option<u64> = None;
    let mut chunked = false;
    for (name, value) in headers {
        if name.eq_ignore_ascii_case("content-length") {
            // A repeated header and a comma-joined value list are the same
            // thing after HTTP field-line folding; treat them identically.
            for part in value.split(',') {
                let len = parse_content_length(part.trim())?;
                match declared {
                    Some(prev) if prev != len => {
                        return Err(HttpError::Protocol(format!(
                            "conflicting content-length values: {prev} vs {len}"
                        )));
                    }
                    _ => declared = Some(len),
                }
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            if value.trim().eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else {
                return Err(HttpError::Protocol(format!(
                    "unsupported transfer-encoding: {value:?}"
                )));
            }
        }
    }
    if chunked {
        if declared.is_some() {
            return Err(HttpError::Protocol(
                "both content-length and transfer-encoding present".into(),
            ));
        }
        return Ok(BodyFraming::Chunked);
    }
    Ok(BodyFraming::Length(declared.unwrap_or(0)))
}

fn parse_content_length(s: &str) -> Result<u64, HttpError> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Protocol(format!(
            "invalid content-length: {s:?}"
        )));
    }
    s.parse::<u64>()
        .map_err(|_| HttpError::Protocol(format!("content-length out of range: {s:?}")))
}

// ---------------------------------------------------------------------------
// Chunked writing policy
// ---------------------------------------------------------------------------

/// When a sender switches from `Content-Length` framing to
/// `Transfer-Encoding: chunked`: never by default, or for bodies of at
/// least `threshold` bytes. Chunking is what lets a receiver process a
/// large body with transient buffers bounded by `chunk_size` instead of
/// the body size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPolicy {
    threshold: Option<usize>,
    chunk_size: usize,
}

impl ChunkPolicy {
    /// Default chunk size for streamed bodies.
    pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

    /// Never chunk: every body is sent with a `Content-Length`.
    pub fn disabled() -> ChunkPolicy {
        ChunkPolicy {
            threshold: None,
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
        }
    }

    /// Chunk bodies of at least `threshold` bytes.
    pub fn above(threshold: usize) -> ChunkPolicy {
        ChunkPolicy {
            threshold: Some(threshold),
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
        }
    }

    /// Sets the chunk size used when chunking applies (at least 1).
    pub fn chunk_size(mut self, n: usize) -> ChunkPolicy {
        self.chunk_size = n.max(1);
        self
    }

    /// Whether a body of `len` bytes is sent chunked under this policy.
    pub fn applies_to(&self, len: usize) -> bool {
        self.threshold.is_some_and(|t| len >= t)
    }

    /// The configured chunk size.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_size
    }
}

impl Default for ChunkPolicy {
    fn default() -> ChunkPolicy {
        ChunkPolicy::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdrs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn framing_strictness() {
        assert_eq!(
            parse_framing(&hdrs(&[("Content-Length", "42")])).unwrap(),
            BodyFraming::Length(42)
        );
        assert_eq!(parse_framing(&hdrs(&[])).unwrap(), BodyFraming::Length(0));
        assert_eq!(
            parse_framing(&hdrs(&[("Transfer-Encoding", "chunked")])).unwrap(),
            BodyFraming::Chunked
        );
        // Duplicates that agree are fine; everything else is an error.
        assert_eq!(
            parse_framing(&hdrs(&[("Content-Length", "7"), ("content-length", "7")])).unwrap(),
            BodyFraming::Length(7)
        );
        for bad in [
            hdrs(&[("Content-Length", "-5")]),
            hdrs(&[("Content-Length", "+5")]),
            hdrs(&[("Content-Length", "banana")]),
            hdrs(&[("Content-Length", "")]),
            hdrs(&[("Content-Length", "4 4")]),
            hdrs(&[("Content-Length", "18446744073709551616")]), // u64::MAX + 1
            hdrs(&[("Content-Length", "4"), ("Content-Length", "5")]),
            hdrs(&[("Content-Length", "4, 5")]),
            hdrs(&[("Content-Length", "4"), ("Transfer-Encoding", "chunked")]),
            hdrs(&[("Transfer-Encoding", "gzip")]),
            hdrs(&[("Transfer-Encoding", "identity, chunked")]),
        ] {
            assert!(
                matches!(parse_framing(&bad), Err(HttpError::Protocol(_))),
                "{bad:?} must be rejected"
            );
        }
        // A comma list that agrees is the duplicate-header case in disguise.
        assert_eq!(
            parse_framing(&hdrs(&[("Content-Length", "9, 9")])).unwrap(),
            BodyFraming::Length(9)
        );
    }
}
