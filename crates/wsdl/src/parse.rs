//! WSDL 1.1 subset parser (inverse of [`crate::write`]).

use crate::model::{OperationDef, ServiceDef};
use sbq_model::{StructDesc, TypeDesc};
use sbq_xml::{Event, PullParser};
use std::borrow::Cow;
use std::collections::HashMap;

/// WSDL parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsdlError {
    /// Underlying XML was malformed.
    Xml(String),
    /// A referenced type, message or element was missing.
    Unresolved(String),
    /// Recursive type definitions are not supported.
    RecursiveType(String),
    /// Document structure violated the supported subset.
    Unsupported(String),
}

impl std::fmt::Display for WsdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WsdlError::Xml(m) => write!(f, "wsdl xml error: {m}"),
            WsdlError::Unresolved(m) => write!(f, "unresolved wsdl reference: {m}"),
            WsdlError::RecursiveType(m) => write!(f, "recursive type: {m}"),
            WsdlError::Unsupported(m) => write!(f, "unsupported wsdl construct: {m}"),
        }
    }
}

impl std::error::Error for WsdlError {}

impl From<sbq_xml::XmlError> for WsdlError {
    fn from(e: sbq_xml::XmlError) -> Self {
        WsdlError::Xml(e.to_string())
    }
}

/// A field before type references are resolved.
#[derive(Debug, Clone)]
struct RawField {
    name: String,
    type_ref: String,
    unbounded: bool,
}

#[derive(Debug, Default)]
struct RawDoc {
    name: String,
    namespace: String,
    location: String,
    complex_types: HashMap<String, Vec<RawField>>,
    /// message name -> part type reference
    messages: HashMap<String, String>,
    /// (op name, input message ref, output message ref)
    operations: Vec<(String, String, String)>,
    /// preserve complexType declaration order for deterministic output
    type_order: Vec<String>,
}

/// Parses a WSDL document into a [`ServiceDef`].
pub fn parse_wsdl(doc: &str) -> Result<ServiceDef, WsdlError> {
    let raw = scan(doc)?;
    let mut svc = ServiceDef::new(
        raw.name.clone(),
        raw.namespace.clone(),
        raw.location.clone(),
    );
    for (op, in_msg, out_msg) in &raw.operations {
        let input = resolve_message(&raw, in_msg, op)?;
        let output = resolve_message(&raw, out_msg, op)?;
        svc.operations.push(OperationDef {
            name: op.clone(),
            input,
            output,
        });
    }
    Ok(svc)
}

fn attr<'a>(attrs: &'a [(&str, Cow<'_, str>)], name: &str) -> Option<&'a str> {
    attrs
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_ref())
}

fn local(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

fn scan(doc: &str) -> Result<RawDoc, WsdlError> {
    let mut p = PullParser::new(doc);
    let mut raw = RawDoc::default();
    let mut saw_definitions = false;
    // Parse state for nested constructs.
    let mut cur_type: Option<(String, Vec<RawField>)> = None;
    let mut cur_message: Option<String> = None;
    let mut cur_operation: Option<(String, Option<String>, Option<String>)> = None;
    let mut in_port_type = false;

    loop {
        match p.next()? {
            Event::Start { name, attrs } => match local(name) {
                "definitions" => {
                    saw_definitions = true;
                    raw.name = attr(&attrs, "name").unwrap_or("Service").to_string();
                    raw.namespace = attr(&attrs, "targetNamespace")
                        .unwrap_or("urn:unnamed")
                        .to_string();
                }
                "complexType" => {
                    let tname = attr(&attrs, "name")
                        .ok_or_else(|| WsdlError::Unsupported("anonymous complexType".into()))?
                        .to_string();
                    cur_type = Some((tname, Vec::new()));
                }
                "element" => {
                    if let Some((_, fields)) = cur_type.as_mut() {
                        let fname = attr(&attrs, "name")
                            .ok_or_else(|| WsdlError::Unsupported("element without name".into()))?;
                        let tref = attr(&attrs, "type").ok_or_else(|| {
                            WsdlError::Unsupported(format!("element {fname} without type"))
                        })?;
                        let unbounded = attr(&attrs, "maxOccurs") == Some("unbounded");
                        fields.push(RawField {
                            name: fname.to_string(),
                            type_ref: tref.to_string(),
                            unbounded,
                        });
                    }
                }
                "message" => {
                    cur_message = attr(&attrs, "name").map(str::to_string);
                }
                "part" => {
                    if let Some(msg) = &cur_message {
                        let tref = attr(&attrs, "type")
                            .or_else(|| attr(&attrs, "element"))
                            .ok_or_else(|| {
                                WsdlError::Unsupported(format!("part in {msg} without type"))
                            })?;
                        raw.messages.insert(msg.clone(), tref.to_string());
                    }
                }
                "portType" => in_port_type = true,
                "operation" if in_port_type => {
                    let oname = attr(&attrs, "name")
                        .ok_or_else(|| WsdlError::Unsupported("operation without name".into()))?;
                    cur_operation = Some((oname.to_string(), None, None));
                }
                "input" => {
                    if let Some((_, input, _)) = cur_operation.as_mut() {
                        *input = attr(&attrs, "message").map(str::to_string);
                    }
                }
                "output" => {
                    if let Some((_, _, output)) = cur_operation.as_mut() {
                        *output = attr(&attrs, "message").map(str::to_string);
                    }
                }
                "address" => {
                    if let Some(loc) = attr(&attrs, "location") {
                        raw.location = loc.to_string();
                    }
                }
                _ => {}
            },
            Event::End { name } => match local(name) {
                "complexType" => {
                    if let Some((tname, fields)) = cur_type.take() {
                        raw.type_order.push(tname.clone());
                        raw.complex_types.insert(tname, fields);
                    }
                }
                "message" => cur_message = None,
                "portType" => in_port_type = false,
                "operation" => {
                    if let Some((oname, input, output)) = cur_operation.take() {
                        let input = input.ok_or_else(|| {
                            WsdlError::Unsupported(format!("operation {oname} missing input"))
                        })?;
                        let output = output.ok_or_else(|| {
                            WsdlError::Unsupported(format!("operation {oname} missing output"))
                        })?;
                        raw.operations.push((oname, input, output));
                    }
                }
                _ => {}
            },
            Event::Text(_) => {}
            Event::Eof => break,
        }
    }
    if !saw_definitions {
        return Err(WsdlError::Unsupported(
            "document has no <definitions> root".into(),
        ));
    }
    Ok(raw)
}

fn resolve_message(raw: &RawDoc, msg_ref: &str, op: &str) -> Result<TypeDesc, WsdlError> {
    let msg_name = local(msg_ref);
    let type_ref = raw
        .messages
        .get(msg_name)
        .ok_or_else(|| WsdlError::Unresolved(format!("message {msg_name} (operation {op})")))?;
    let ty = resolve_type(raw, type_ref, &mut Vec::new())?;
    // Unwrap the synthetic wrapper for non-struct message types.
    if let TypeDesc::Struct(sd) = &ty {
        if sd.name.ends_with("_listwrap") && sd.fields.len() == 1 && sd.fields[0].0 == "item" {
            return Ok(sd.fields[0].1.clone());
        }
    }
    Ok(ty)
}

fn resolve_type(
    raw: &RawDoc,
    type_ref: &str,
    stack: &mut Vec<String>,
) -> Result<TypeDesc, WsdlError> {
    let name = local(type_ref);
    if let Some(scalar) = scalar_type(name) {
        return Ok(scalar);
    }
    if stack.iter().any(|s| s == name) {
        return Err(WsdlError::RecursiveType(name.to_string()));
    }
    let fields = raw
        .complex_types
        .get(name)
        .ok_or_else(|| WsdlError::Unresolved(format!("type {name}")))?;
    stack.push(name.to_string());
    let mut resolved = Vec::with_capacity(fields.len());
    for f in fields {
        let base = resolve_type(raw, &f.type_ref, stack)?;
        let ty = if f.unbounded {
            TypeDesc::list_of(base)
        } else {
            base
        };
        resolved.push((f.name.clone(), ty));
    }
    stack.pop();
    Ok(TypeDesc::Struct(StructDesc::new(name, resolved)))
}

fn scalar_type(name: &str) -> Option<TypeDesc> {
    Some(match name {
        "long" | "int" | "short" | "integer" | "unsignedInt" | "unsignedLong" => TypeDesc::Int,
        "double" | "float" | "decimal" => TypeDesc::Float,
        "byte" | "unsignedByte" => TypeDesc::Char,
        "string" | "anyURI" => TypeDesc::Str,
        "base64Binary" | "hexBinary" => TypeDesc::Bytes,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::write_wsdl;
    use sbq_model::workload;

    fn sample_service() -> ServiceDef {
        ServiceDef::new("MolService", "urn:sbq:mol", "http://localhost:8123/mol")
            .with_operation(
                "get_bonds",
                TypeDesc::struct_of(
                    "bond_request",
                    vec![("timestep", TypeDesc::Int), ("count", TypeDesc::Int)],
                ),
                workload::nested_struct_type(2),
            )
            .with_operation("fetch", TypeDesc::Str, TypeDesc::list_of(TypeDesc::Float))
            .with_operation("ping", TypeDesc::Int, TypeDesc::Int)
    }

    #[test]
    fn write_then_parse_round_trips() {
        let svc = sample_service();
        let doc = write_wsdl(&svc).unwrap();
        let parsed = parse_wsdl(&doc).unwrap();
        assert_eq!(parsed, svc);
    }

    #[test]
    fn unresolved_type_reported() {
        let doc = r#"<definitions name="S" targetNamespace="urn:s">
            <message name="op_input"><part name="params" type="tns:missing"/></message>
            <message name="op_output"><part name="result" type="xsd:long"/></message>
            <portType name="P"><operation name="op">
              <input message="tns:op_input"/><output message="tns:op_output"/>
            </operation></portType>
        </definitions>"#;
        assert!(matches!(parse_wsdl(doc), Err(WsdlError::Unresolved(_))));
    }

    #[test]
    fn recursive_types_rejected() {
        let doc = r#"<definitions name="S" targetNamespace="urn:s">
            <types><xsd:schema>
              <xsd:complexType name="node"><xsd:sequence>
                <xsd:element name="next" type="tns:node"/>
              </xsd:sequence></xsd:complexType>
            </xsd:schema></types>
            <message name="op_input"><part name="params" type="tns:node"/></message>
            <message name="op_output"><part name="result" type="xsd:long"/></message>
            <portType name="P"><operation name="op">
              <input message="tns:op_input"/><output message="tns:op_output"/>
            </operation></portType>
        </definitions>"#;
        assert!(matches!(parse_wsdl(doc), Err(WsdlError::RecursiveType(_))));
    }

    #[test]
    fn scalar_aliases_accepted() {
        for (xsd, ty) in [
            ("xsd:int", TypeDesc::Int),
            ("xsd:float", TypeDesc::Float),
            ("xsd:byte", TypeDesc::Char),
            ("xsd:anyURI", TypeDesc::Str),
        ] {
            let doc = format!(
                r#"<definitions name="S" targetNamespace="urn:s">
                <message name="op_input"><part name="params" type="{xsd}"/></message>
                <message name="op_output"><part name="result" type="xsd:long"/></message>
                <portType name="P"><operation name="op">
                  <input message="tns:op_input"/><output message="tns:op_output"/>
                </operation></portType>
                </definitions>"#
            );
            let svc = parse_wsdl(&doc).unwrap();
            assert_eq!(svc.operations[0].input, ty);
        }
    }

    #[test]
    fn missing_input_rejected() {
        let doc = r#"<definitions name="S" targetNamespace="urn:s">
            <portType name="P"><operation name="op">
              <output message="tns:op_output"/>
            </operation></portType>
        </definitions>"#;
        assert!(matches!(parse_wsdl(doc), Err(WsdlError::Unsupported(_))));
    }

    #[test]
    fn malformed_xml_reported() {
        assert!(matches!(
            parse_wsdl("<definitions><unclosed>"),
            Err(WsdlError::Xml(_))
        ));
    }
}
