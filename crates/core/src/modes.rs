//! SOAP-bin operating modes, wire encodings, and measured conversion
//! pipelines.
//!
//! §I of the paper distinguishes three ways of deploying SOAP-bin plus two
//! XML baselines; they differ in *which conversions run at the endpoints*,
//! while the SOAP-bin wire always carries PBIO data:
//!
//! | mode | sender side | wire | receiver side |
//! |---|---|---|---|
//! | high performance | native→PBIO | PBIO | PBIO→native |
//! | interoperability | XML→native→PBIO | PBIO | PBIO→native |
//! | compatibility | XML→native→PBIO | PBIO | PBIO→native→XML |
//! | plain SOAP (baseline) | native→XML | XML | XML→native |
//! | compressed SOAP (baseline) | XML→LZ | LZ(XML) | LZ→XML |
//!
//! [`measure_mode`] times the sender- and receiver-side CPU
//! work of each mode and reports the wire payload size, which the
//! benchmark harness combines with an `sbq-netsim` link model to
//! regenerate Figs. 5-7.

use crate::marshal::{parse_document, value_to_xml};
use crate::SoapError;
use sbq_model::{TypeDesc, Value};
use sbq_pbio::{plan, ConversionPlan, FormatDesc};
use std::time::{Duration, Instant};

/// What actually travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireEncoding {
    /// PBIO binary payloads (all SOAP-bin modes).
    Pbio,
    /// Plain XML SOAP (the standard-SOAP baseline).
    Xml,
    /// Lempel-Ziv-compressed XML (the compressed-SOAP baseline).
    CompressedXml,
}

impl WireEncoding {
    /// The HTTP content type for this encoding.
    pub fn content_type(self) -> &'static str {
        match self {
            WireEncoding::Pbio => sbq_http::PBIO_CONTENT_TYPE,
            WireEncoding::Xml => sbq_http::XML_CONTENT_TYPE,
            WireEncoding::CompressedXml => "application/x-soap-lz",
        }
    }

    /// Short lowercase name, used to key per-encoding metrics
    /// (`marshal.pbio.encode` and friends).
    pub fn name(self) -> &'static str {
        match self {
            WireEncoding::Pbio => "pbio",
            WireEncoding::Xml => "xml",
            WireEncoding::CompressedXml => "lzxml",
        }
    }
}

/// The three SOAP-bin deployment modes of §I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Server-to-server ("internal") communication: parameters never exist
    /// as XML.
    HighPerformance,
    /// One side (typically the client) works in XML; conversion happens
    /// just-in-time on that side only.
    Interoperability,
    /// Both endpoints require XML (peer-to-peer with standard tools);
    /// binary is used purely in transit.
    Compatibility,
}

impl Mode {
    /// All modes, in the order the paper discusses them.
    pub const ALL: [Mode; 3] = [
        Mode::HighPerformance,
        Mode::Interoperability,
        Mode::Compatibility,
    ];

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Mode::HighPerformance => "high performance",
            Mode::Interoperability => "interoperability",
            Mode::Compatibility => "compatibility",
        }
    }
}

/// Measured CPU cost and wire size of one one-way message under a mode or
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineCost {
    /// Sender-side conversion time.
    pub sender: Duration,
    /// Receiver-side conversion time.
    pub receiver: Duration,
    /// Payload bytes on the wire (excluding HTTP framing).
    pub wire_bytes: usize,
}

impl PipelineCost {
    /// Total endpoint CPU time.
    pub fn cpu(&self) -> Duration {
        self.sender + self.receiver
    }
}

/// Measures one one-way message in a SOAP-bin `mode`.
///
/// `value` is the parameter in native form; `format` its PBIO wire format.
/// Modes that involve XML endpoints first render/parse the XML document
/// exactly as a real endpoint would.
pub fn measure_mode(
    mode: Mode,
    value: &Value,
    ty: &TypeDesc,
    format: &FormatDesc,
) -> Result<PipelineCost, SoapError> {
    // The receiver holds a compiled plan, as a real endpoint caches one
    // per format; compiling it is not charged to the message.
    let decoder = ConversionPlan::identity(format);
    match mode {
        Mode::HighPerformance => {
            let t0 = Instant::now();
            let wire = plan::encode(value, format)?;
            let sender = t0.elapsed();
            let t1 = Instant::now();
            let back = decoder.execute(&wire)?;
            let receiver = t1.elapsed();
            debug_assert_eq!(&back, value);
            Ok(PipelineCost {
                sender,
                receiver,
                wire_bytes: wire.len(),
            })
        }
        Mode::Interoperability => {
            // The XML side's document exists beforehand (e.g. produced by
            // a database exporter); rendering it is not charged, parsing
            // it is.
            let xml = value_to_xml(value, "p");
            let t0 = Instant::now();
            let native = parse_document(&xml, ty)?;
            let wire = plan::encode(&native, format)?;
            let sender = t0.elapsed();
            let t1 = Instant::now();
            let _ = decoder.execute(&wire)?;
            let receiver = t1.elapsed();
            Ok(PipelineCost {
                sender,
                receiver,
                wire_bytes: wire.len(),
            })
        }
        Mode::Compatibility => {
            let xml = value_to_xml(value, "p");
            let t0 = Instant::now();
            let native = parse_document(&xml, ty)?;
            let wire = plan::encode(&native, format)?;
            let sender = t0.elapsed();
            let t1 = Instant::now();
            let native2 = decoder.execute(&wire)?;
            let _xml2 = value_to_xml(&native2, "p");
            let receiver = t1.elapsed();
            Ok(PipelineCost {
                sender,
                receiver,
                wire_bytes: wire.len(),
            })
        }
    }
}

/// Measures the plain-XML SOAP baseline (marshal → wire XML → unmarshal).
pub fn measure_plain_xml(value: &Value, ty: &TypeDesc) -> Result<PipelineCost, SoapError> {
    let t0 = Instant::now();
    let xml = value_to_xml(value, "p");
    let sender = t0.elapsed();
    let wire_bytes = xml.len();
    let t1 = Instant::now();
    let _ = parse_document(&xml, ty)?;
    let receiver = t1.elapsed();
    Ok(PipelineCost {
        sender,
        receiver,
        wire_bytes,
    })
}

/// Measures the compressed-XML SOAP baseline. When `xml_exists` is true
/// the document is assumed to pre-exist (only compression is charged to
/// the sender); otherwise marshalling is charged too.
pub fn measure_compressed_xml(
    value: &Value,
    ty: &TypeDesc,
    xml_exists: bool,
) -> Result<PipelineCost, SoapError> {
    let pre = value_to_xml(value, "p");
    let t0 = Instant::now();
    let xml = if xml_exists {
        pre
    } else {
        value_to_xml(value, "p")
    };
    let wire = sbq_lz::compress(xml.as_bytes());
    let sender = t0.elapsed();
    let wire_bytes = wire.len();
    let t1 = Instant::now();
    let xml2 = sbq_lz::decompress(&wire)?;
    let _ = parse_document(
        std::str::from_utf8(&xml2).map_err(|_| SoapError::xml("non-utf8 after lz"))?,
        ty,
    )?;
    let receiver = t1.elapsed();
    Ok(PipelineCost {
        sender,
        receiver,
        wire_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbq_model::workload;
    use sbq_pbio::format::FormatOptions;

    fn setup(n: usize) -> (Value, TypeDesc, FormatDesc) {
        let v = workload::float_array(n, 7);
        let ty = TypeDesc::list_of(TypeDesc::Float);
        let f = FormatDesc::from_type(&ty, FormatOptions::default()).unwrap();
        (v, ty, f)
    }

    #[test]
    fn all_modes_produce_same_wire_size() {
        let (v, ty, f) = setup(500);
        let sizes: Vec<usize> = Mode::ALL
            .iter()
            .map(|m| measure_mode(*m, &v, &ty, &f).unwrap().wire_bytes)
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }

    #[test]
    fn interop_costs_more_cpu_than_high_performance() {
        let (v, ty, f) = setup(5000);
        // Take the minimum over a few runs to suppress scheduling noise.
        let hp = (0..5)
            .map(|_| {
                measure_mode(Mode::HighPerformance, &v, &ty, &f)
                    .unwrap()
                    .cpu()
            })
            .min()
            .unwrap();
        let interop = (0..5)
            .map(|_| {
                measure_mode(Mode::Interoperability, &v, &ty, &f)
                    .unwrap()
                    .cpu()
            })
            .min()
            .unwrap();
        assert!(interop > hp, "interop {interop:?} <= high-perf {hp:?}");
    }

    #[test]
    fn xml_baseline_wire_is_larger_than_pbio() {
        let (v, ty, f) = setup(2000);
        let pbio = measure_mode(Mode::HighPerformance, &v, &ty, &f)
            .unwrap()
            .wire_bytes;
        let xml = measure_plain_xml(&v, &ty).unwrap().wire_bytes;
        let ratio = xml as f64 / pbio as f64;
        assert!(ratio > 2.0, "xml/pbio ratio {ratio}");
    }

    #[test]
    fn compressed_xml_close_to_pbio_size() {
        // §IV-B.e: "Compressed XML is mostly the same size as, and
        // sometimes smaller than the equivalent PBIO data."
        let (v, ty, f) = setup(2000);
        let pbio = measure_mode(Mode::HighPerformance, &v, &ty, &f)
            .unwrap()
            .wire_bytes;
        let lz = measure_compressed_xml(&v, &ty, true).unwrap().wire_bytes;
        let ratio = lz as f64 / pbio as f64;
        assert!(ratio < 2.0, "compressed/pbio ratio {ratio}");
    }

    #[test]
    fn nested_struct_blowup_larger_than_array_blowup() {
        let sv = workload::nested_struct(8, 3);
        let sty = workload::nested_struct_type(8);
        let sf = FormatDesc::from_type(&sty, FormatOptions::default()).unwrap();
        let s_pbio = measure_mode(Mode::HighPerformance, &sv, &sty, &sf)
            .unwrap()
            .wire_bytes;
        let s_xml = measure_plain_xml(&sv, &sty).unwrap().wire_bytes;

        // The paper's array case uses integer arrays (§IV-A/B); their
        // digit strings are short, so the tag overhead ratio is lower
        // than for the string-bearing business structs.
        let av = workload::int_array(200, 7);
        let aty = TypeDesc::list_of(TypeDesc::Int);
        let af = FormatDesc::from_type(&aty, FormatOptions::default()).unwrap();
        let a_pbio = measure_mode(Mode::HighPerformance, &av, &aty, &af)
            .unwrap()
            .wire_bytes;
        let a_xml = measure_plain_xml(&av, &aty).unwrap().wire_bytes;

        let s_ratio = s_xml as f64 / s_pbio as f64;
        let a_ratio = a_xml as f64 / a_pbio as f64;
        assert!(s_ratio > a_ratio, "struct {s_ratio} <= array {a_ratio}");
    }

    #[test]
    fn content_types_distinct() {
        let set: std::collections::HashSet<&str> = [
            WireEncoding::Pbio,
            WireEncoding::Xml,
            WireEncoding::CompressedXml,
        ]
        .iter()
        .map(|e| e.content_type())
        .collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn mode_names_match_paper() {
        assert_eq!(Mode::HighPerformance.name(), "high performance");
        assert_eq!(Mode::ALL.len(), 3);
    }
}
