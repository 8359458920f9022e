//! SOAP 1.1 envelopes, faults, and the QoS header.
//!
//! The QoS header carries the paper's continuous-quality-management
//! plumbing (§IV-C.h): the client's timestamp (echoed back by the server
//! for RTT measurement), the client's current RTT estimate ("Every time
//! the RTT is estimated by the client, the server is informed of the new
//! value during the next request"), the server's data-preparation time
//! (for timestamp set-back compensation), and the message type actually
//! transmitted (so the receiver can up-project reduced messages).
//!
//! In XML encodings these fields ride in `<soap:Header>`; in the binary
//! encodings they ride as HTTP headers, since no XML envelope exists on
//! the wire at all.

use crate::marshal::{value_from_xml, value_to_xml_into};
use crate::SoapError;
use sbq_model::{numfmt, TypeDesc, Value};
use sbq_runtime::BufferPool;
use sbq_xml::{escape_text, escape_text_into, Event, PullParser};
use std::borrow::Borrow;
use std::fmt::Write as _;

const ENVELOPE_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";

/// QoS metadata attached to every SOAP-binQ message.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QosHeader {
    /// Client-chosen timestamp in microseconds, echoed by the server.
    pub timestamp_us: u64,
    /// Client's current RTT estimate in milliseconds, if any.
    pub rtt_ms: Option<f64>,
    /// Server's response-preparation time in microseconds (set on
    /// responses).
    pub server_time_us: u64,
    /// Name of the quality-file message type this payload uses, when it is
    /// not the full application type.
    pub message_type: Option<String>,
}

impl QosHeader {
    /// Renders the header fields as HTTP headers (binary encodings).
    pub fn to_http_headers(&self) -> Vec<(String, String)> {
        let mut h = vec![("X-Qos-Timestamp".to_string(), self.timestamp_us.to_string())];
        if let Some(rtt) = self.rtt_ms {
            h.push(("X-Qos-Rtt".to_string(), format!("{rtt}")));
        }
        if self.server_time_us > 0 {
            h.push((
                "X-Qos-Server-Time".to_string(),
                self.server_time_us.to_string(),
            ));
        }
        if let Some(mt) = &self.message_type {
            h.push(("X-Qos-Message-Type".to_string(), mt.clone()));
        }
        h
    }

    /// Extracts the header fields from HTTP headers (lenient: absent
    /// fields default).
    pub fn from_http_headers<'a>(mut lookup: impl FnMut(&str) -> Option<&'a str>) -> QosHeader {
        QosHeader {
            timestamp_us: lookup("X-Qos-Timestamp")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            rtt_ms: lookup("X-Qos-Rtt").and_then(|v| v.parse().ok()),
            server_time_us: lookup("X-Qos-Server-Time")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            message_type: lookup("X-Qos-Message-Type").map(str::to_string),
        }
    }

    fn write_xml(&self, out: &mut String) {
        out.push_str("<soap:Header><qos:timestamp>");
        numfmt::write_u64(out, self.timestamp_us);
        out.push_str("</qos:timestamp>");
        if let Some(rtt) = self.rtt_ms {
            // `Display`, not numfmt: the rendering is part of the wire
            // format peers already parse.
            let _ = write!(out, "<qos:rtt>{rtt}</qos:rtt>");
        }
        if self.server_time_us > 0 {
            out.push_str("<qos:serverTime>");
            numfmt::write_u64(out, self.server_time_us);
            out.push_str("</qos:serverTime>");
        }
        if let Some(mt) = &self.message_type {
            out.push_str("<qos:messageType>");
            escape_text_into(mt, out);
            out.push_str("</qos:messageType>");
        }
        out.push_str("</soap:Header>");
    }
}

/// Builds a SOAP request envelope for `operation` carrying `params`.
pub fn build_request(operation: &str, params: &Value, header: &QosHeader) -> String {
    build_envelope(operation, params, header, String::new())
}

/// Builds a SOAP response envelope (`<opResponse>` wrapper).
pub fn build_response(operation: &str, result: &Value, header: &QosHeader) -> String {
    let tag = format!("{operation}Response");
    build_envelope(&tag, result, header, String::new())
}

/// An envelope like [`build_request`] or [`build_response`] (`body_tag`
/// is the operation, or `<op>Response`), built in a buffer from `pool`
/// as a message body the HTTP layer recycles once it is on the wire.
pub(crate) fn build_pooled(
    body_tag: &str,
    value: &Value,
    header: &QosHeader,
    pool: &BufferPool,
) -> Vec<u8> {
    let out = String::from_utf8(pool.get(envelope_estimate(value)))
        .expect("pooled buffers come back empty");
    build_envelope(body_tag, value, header, out).into_bytes()
}

/// Room for the prolog, the QoS header and the closing tags, so the body
/// estimate alone decides when the buffer grows.
const ENVELOPE_SLACK: usize = 512;

/// Capacity an envelope carrying `value` is built with.
fn envelope_estimate(value: &Value) -> usize {
    ENVELOPE_SLACK + value.native_size() * 4
}

fn build_envelope(body_tag: &str, value: &Value, header: &QosHeader, mut out: String) -> String {
    out.reserve(envelope_estimate(value));
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    out.push_str("<soap:Envelope xmlns:soap=\"");
    out.push_str(ENVELOPE_NS);
    out.push_str("\" xmlns:qos=\"urn:soap-binq:qos\">");
    header.write_xml(&mut out);
    out.push_str("<soap:Body>");
    value_to_xml_into(value, body_tag, &mut out);
    out.push_str("</soap:Body></soap:Envelope>");
    out
}

/// Builds a SOAP fault envelope.
pub fn build_fault(code: &str, message: &str) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    out.push_str(&format!(
        "<soap:Envelope xmlns:soap=\"{ENVELOPE_NS}\"><soap:Body>"
    ));
    out.push_str("<soap:Fault>");
    out.push_str(&format!("<faultcode>{}</faultcode>", escape_text(code)));
    out.push_str(&format!(
        "<faultstring>{}</faultstring>",
        escape_text(message)
    ));
    out.push_str("</soap:Fault></soap:Body></soap:Envelope>");
    out
}

/// A parsed envelope: operation element name, QoS header, and parsed body
/// value.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEnvelope {
    /// The body element name (operation, or `<op>Response`).
    pub operation: String,
    /// QoS header fields (defaults when absent).
    pub header: QosHeader,
    /// The body value.
    pub value: Value,
}

/// Parses an envelope whose body type is resolved from the operation
/// element name alone (servers use this: the element tells them which
/// stub). See [`parse_envelope_with`].
pub fn parse_envelope<T: Borrow<TypeDesc>>(
    xml: &str,
    resolve: impl Fn(&str) -> Option<T>,
) -> Result<ParsedEnvelope, SoapError> {
    parse_envelope_with(xml, |op, _| resolve(op))
}

/// Parses an envelope in one pass. The body type is resolved from the
/// operation element name and the QoS header, which precedes the body: a
/// client picks the reduced schema named by `message_type` this way. The
/// resolver may lend the schema (`&TypeDesc`) or hand over an owned one.
pub fn parse_envelope_with<T: Borrow<TypeDesc>>(
    xml: &str,
    resolve: impl Fn(&str, &QosHeader) -> Option<T>,
) -> Result<ParsedEnvelope, SoapError> {
    let mut p = PullParser::new(xml);
    expect_start(&mut p, "Envelope")?;
    let mut header = QosHeader::default();

    loop {
        match p.next()? {
            Event::Start { name, .. } if local(name) == "Header" => {
                header = parse_header(&mut p)?;
            }
            Event::Start { name, .. } if local(name) == "Body" => {
                let (op, value) = parse_body(&mut p, &resolve, &header)?;
                // Consume </Body> and </Envelope>.
                consume_end(&mut p)?;
                consume_end(&mut p)?;
                return Ok(ParsedEnvelope {
                    operation: op.to_string(),
                    header,
                    value,
                });
            }
            Event::Start { name, .. } => {
                return Err(SoapError::xml(format!(
                    "unexpected element <{name}> in envelope"
                )))
            }
            Event::End { .. } | Event::Eof => return Err(SoapError::xml("envelope has no body")),
            Event::Text(_) => {}
        }
    }
}

fn parse_header(p: &mut PullParser<'_>) -> Result<QosHeader, SoapError> {
    let mut h = QosHeader::default();
    loop {
        match p.next()? {
            Event::Start { name, .. } => {
                let text = p.text_content()?;
                match local(name) {
                    "timestamp" => h.timestamp_us = text.trim().parse().unwrap_or(0),
                    "rtt" => h.rtt_ms = text.trim().parse().ok(),
                    "serverTime" => h.server_time_us = text.trim().parse().unwrap_or(0),
                    "messageType" => h.message_type = Some(text.into_owned()),
                    _ => {} // unknown header entries are ignored
                }
            }
            Event::End { .. } => return Ok(h),
            Event::Text(_) => {}
            Event::Eof => return Err(SoapError::xml("eof in soap header")),
        }
    }
}

fn parse_body<'a, T: Borrow<TypeDesc>>(
    p: &mut PullParser<'a>,
    resolve: &impl Fn(&str, &QosHeader) -> Option<T>,
    header: &QosHeader,
) -> Result<(&'a str, Value), SoapError> {
    loop {
        match p.next()? {
            Event::Start { name, .. } => {
                if local(name) == "Fault" {
                    return Err(parse_fault(p));
                }
                let ty = resolve(name, header).ok_or_else(|| {
                    SoapError::protocol(format!(
                        "unknown operation element <{name}>{}",
                        header
                            .message_type
                            .as_deref()
                            .map(|m| format!(" (message type {m})"))
                            .unwrap_or_default()
                    ))
                })?;
                let value = value_from_xml(p, ty.borrow())?;
                return Ok((name, value));
            }
            Event::Text(_) => {}
            other => return Err(SoapError::xml(format!("empty soap body ({other:?})"))),
        }
    }
}

fn parse_fault(p: &mut PullParser<'_>) -> SoapError {
    let mut code = String::from("soap:Server");
    let mut message = String::new();
    loop {
        match p.next() {
            Ok(Event::Start { name, .. }) => {
                let text = p.text_content().unwrap_or_default().into_owned();
                match local(name) {
                    "faultcode" => code = text,
                    "faultstring" => message = text,
                    _ => {}
                }
            }
            Ok(Event::End { .. }) | Ok(Event::Eof) | Err(_) => break,
            Ok(Event::Text(_)) => {}
        }
    }
    SoapError::Fault { code, message }
}

fn expect_start(p: &mut PullParser<'_>, what: &str) -> Result<(), SoapError> {
    loop {
        match p.next()? {
            Event::Start { name, .. } if local(name) == what => return Ok(()),
            Event::Start { name, .. } => {
                return Err(SoapError::xml(format!("expected <{what}>, found <{name}>")))
            }
            Event::Text(_) => {}
            other => return Err(SoapError::xml(format!("expected <{what}>, got {other:?}"))),
        }
    }
}

fn consume_end(p: &mut PullParser<'_>) -> Result<(), SoapError> {
    loop {
        match p.next()? {
            Event::End { .. } => return Ok(()),
            Event::Text(_) => {}
            other => return Err(SoapError::xml(format!("expected end tag, got {other:?}"))),
        }
    }
}

fn local(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbq_model::workload;

    fn resolver(ty: TypeDesc) -> impl Fn(&str) -> Option<TypeDesc> {
        move |_| Some(ty.clone())
    }

    #[test]
    fn request_round_trips_with_header() {
        let v = workload::nested_struct(2, 3);
        let h = QosHeader {
            timestamp_us: 123456,
            rtt_ms: Some(42.5),
            server_time_us: 0,
            message_type: Some("small".into()),
        };
        let xml = build_request("get_bonds", &v, &h);
        let parsed = parse_envelope(&xml, resolver(workload::nested_struct_type(2))).unwrap();
        assert_eq!(parsed.operation, "get_bonds");
        assert_eq!(parsed.header, h);
        assert_eq!(parsed.value, v);
    }

    #[test]
    fn whitespace_only_text_round_trips() {
        // Inside a leaf, whitespace is content: fields and the header's
        // message type keep it, even when it is all they hold.
        let ty = TypeDesc::struct_of(
            "w",
            vec![
                ("a", TypeDesc::Str),
                ("b", TypeDesc::Str),
                ("c", TypeDesc::Str),
            ],
        );
        let v = Value::Struct(sbq_model::StructValue::new(
            "w",
            vec![
                ("a".into(), Value::Str("  ".into())),
                ("b".into(), Value::Str("\n".into())),
                ("c".into(), Value::Str(" x ".into())),
            ],
        ));
        let h = QosHeader {
            message_type: Some(" ".into()),
            ..Default::default()
        };
        let xml = build_request("op", &v, &h);
        let parsed = parse_envelope(&xml, resolver(ty)).unwrap();
        assert_eq!(parsed.value, v);
        assert_eq!(parsed.header, h);
    }

    #[test]
    fn envelope_bytes_are_pinned() {
        // The wire form peers parse, byte for byte: every header field set,
        // one that needs escaping, and a struct body.
        let h = QosHeader {
            timestamp_us: 123456,
            rtt_ms: Some(42.5),
            server_time_us: 9,
            message_type: Some("a<b".into()),
        };
        let body = TypeDesc::struct_of("s", vec![("a", TypeDesc::Int), ("b", TypeDesc::Float)]);
        let v = Value::Struct(sbq_model::StructValue::new(
            "s",
            vec![
                ("a".into(), Value::Int(-7)),
                ("b".into(), Value::Float(0.1)),
            ],
        ));
        let xml = build_response("op", &v, &h);
        assert_eq!(
            xml,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><soap:Envelope \
             xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\" \
             xmlns:qos=\"urn:soap-binq:qos\"><soap:Header><qos:timestamp>123456</qos:timestamp>\
             <qos:rtt>42.5</qos:rtt><qos:serverTime>9</qos:serverTime>\
             <qos:messageType>a&lt;b</qos:messageType></soap:Header><soap:Body>\
             <opResponse><a>-7</a><b>0.1</b></opResponse></soap:Body></soap:Envelope>"
        );
        assert_eq!(parse_envelope(&xml, |_| Some(&body)).unwrap().value, v);
    }

    #[test]
    fn response_wrapper_named_after_operation() {
        let xml = build_response("ping", &Value::Int(1), &QosHeader::default());
        let parsed = parse_envelope(&xml, resolver(TypeDesc::Int)).unwrap();
        assert_eq!(parsed.operation, "pingResponse");
        assert_eq!(parsed.value, Value::Int(1));
    }

    #[test]
    fn server_time_survives() {
        let h = QosHeader {
            server_time_us: 777,
            ..Default::default()
        };
        let xml = build_response("op", &Value::Int(0), &h);
        let parsed = parse_envelope(&xml, resolver(TypeDesc::Int)).unwrap();
        assert_eq!(parsed.header.server_time_us, 777);
    }

    #[test]
    fn faults_surface_as_errors() {
        let xml = build_fault("soap:Client", "no such operation");
        let err = parse_envelope(&xml, resolver(TypeDesc::Int)).unwrap_err();
        match err {
            SoapError::Fault { code, message } => {
                assert_eq!(code, "soap:Client");
                assert_eq!(message, "no such operation");
            }
            other => panic!("expected fault, got {other}"),
        }
    }

    #[test]
    fn unknown_operation_rejected() {
        let xml = build_request("mystery", &Value::Int(1), &QosHeader::default());
        let err = parse_envelope(&xml, |_| None::<TypeDesc>).unwrap_err();
        assert!(matches!(err, SoapError::Protocol(_)));
    }

    #[test]
    fn http_header_round_trip() {
        let h = QosHeader {
            timestamp_us: 42,
            rtt_ms: Some(3.25),
            server_time_us: 9,
            message_type: Some("half".into()),
        };
        let rendered = h.to_http_headers();
        let parsed = QosHeader::from_http_headers(|name| {
            rendered
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        });
        assert_eq!(parsed, h);
    }

    #[test]
    fn missing_http_headers_default() {
        let h = QosHeader::from_http_headers(|_| None);
        assert_eq!(h, QosHeader::default());
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(parse_envelope("<notsoap/>", |_| Some(TypeDesc::Int)).is_err());
        assert!(parse_envelope(
            "<soap:Envelope xmlns:soap=\"x\"></soap:Envelope>",
            |_| Some(TypeDesc::Int)
        )
        .is_err());
    }

    #[test]
    fn envelope_size_overhead_is_bounded() {
        // The envelope adds a fixed couple-hundred-byte wrapper; the body
        // dominates for the experiment payloads.
        let v = workload::int_array(1000, 1);
        let xml = build_request("op", &v, &QosHeader::default());
        let body = crate::marshal::value_to_xml(&v, "op");
        assert!(
            xml.len() - body.len() < 300,
            "envelope overhead {}",
            xml.len() - body.len()
        );
    }
}
