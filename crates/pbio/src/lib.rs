//! A reproduction of PBIO (Portable Binary I/O), the binary wire format
//! SOAP-bin transports parameters in.
//!
//! PBIO (Eisenhauer et al., *Native Data Representation*, IEEE TPDS 2002)
//! lets a sender transmit structured data **in its native binary layout**;
//! the receiver "makes right", converting byte order and field layout on
//! arrival, using dynamically generated conversion code. This crate keeps
//! all of the externally visible machinery:
//!
//! * **Formats** ([`FormatDesc`]) — named field lists with explicit byte
//!   order and scalar widths, the analogue of PBIO formats / XML schemas.
//! * **Format server** ([`FormatServer`]) — "every PBIO transaction begins
//!   with a registration of the format with a format server, which collects
//!   and caches PBIO formats" (paper §III-B.a). First use of a format costs
//!   a registration exchange; later messages hit the receiver's cache.
//! * **Receiver makes right** ([`plan::ConversionPlan`]) — compiled per
//!   (wire format, native format) pair and cached. Dynamic code generation
//!   is replaced by an interpreted op-list, the standard safe-Rust
//!   substitute; identity layouts take a bulk fast path.
//! * **Endpoints** ([`PbioEndpoint`]) — pair the above into a send/receive
//!   object that produces and consumes framed wire messages and tracks the
//!   byte/registration statistics the paper's experiments report.

pub mod endpoint;
pub mod format;
pub mod plan;
pub mod remote;
pub mod server;
pub mod wire;

pub use endpoint::{EndpointStats, PbioEndpoint};
pub use format::{ByteOrder, FieldDesc, FormatDesc, WireType};
pub use plan::ConversionPlan;
pub use remote::{serve_format_directory, RemoteFormatServer};
pub use server::{FormatDirectory, FormatServer};
pub use wire::{WireFrame, WireMessage, MSG_DATA, MSG_FORMAT_REG};

/// Errors from PBIO encoding, decoding and format handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbioError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// An unknown tag or enum discriminant appeared on the wire.
    BadTag(u8),
    /// A data message referenced a format id that was never registered.
    UnknownFormat(u32),
    /// A value did not match the format it was encoded against.
    TypeMismatch(String),
    /// A string field did not hold valid UTF-8.
    BadUtf8,
    /// A declared width was not one this implementation supports.
    BadWidth(u8),
    /// The format directory (server) could not be reached or answered
    /// with garbage.
    Directory(String),
    /// A length (string, bytes, or element count) exceeds what the u32
    /// wire header can carry; encoding it would silently corrupt the
    /// stream.
    TooLarge(usize),
}

impl std::fmt::Display for PbioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PbioError::Truncated => write!(f, "buffer truncated"),
            PbioError::BadTag(t) => write!(f, "bad wire tag {t:#x}"),
            PbioError::UnknownFormat(id) => write!(f, "unknown format id {id}"),
            PbioError::TypeMismatch(m) => write!(f, "value/format mismatch: {m}"),
            PbioError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            PbioError::BadWidth(w) => write!(f, "unsupported scalar width {w}"),
            PbioError::Directory(m) => write!(f, "format directory error: {m}"),
            PbioError::TooLarge(n) => {
                write!(f, "length {n} exceeds the 4 GiB wire limit")
            }
        }
    }
}

impl std::error::Error for PbioError {}
