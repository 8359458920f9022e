//! Parameter ⇄ XML conversion.
//!
//! This is the textual marshalling plain SOAP performs on every call — the
//! cost the paper identifies as prohibitive: tags enclose every element of
//! an array ("XML parameters … about 4-5 times the size of the
//! corresponding PBIO messages, in part due to redundant tags"), and
//! nested structs add tags at every level (the ninefold case, §IV-B.e).
//! ASCII digit conversion, the bottleneck \[21\] calls out, happens here
//! too.

use crate::SoapError;
use sbq_model::{numfmt, StructValue, TypeDesc, Value};
use sbq_xml::{escape_text_into, Event, PullParser};
use std::str::FromStr;

/// Serializes a value as an XML element named `tag` (compact form — the
/// wire representation whose size the experiments measure).
pub fn value_to_xml(value: &Value, tag: &str) -> String {
    let mut out = String::with_capacity(value.native_size() * 4);
    write_value(&mut out, value, tag);
    out
}

/// Appends the XML form of `value` to `out` — the buffer-reuse variant
/// (same idiom as `escape_text_into`): callers that marshal repeatedly
/// keep one String hot instead of paying a multi-megabyte allocation and
/// its page faults per message.
pub fn value_to_xml_into(value: &Value, tag: &str, out: &mut String) {
    out.reserve(value.native_size() * 4);
    write_value(out, value, tag);
}

fn write_value(out: &mut String, value: &Value, tag: &str) {
    match value {
        Value::Int(i) => {
            open(out, tag);
            numfmt::write_i64(out, *i);
            close(out, tag);
        }
        Value::Float(x) => {
            open(out, tag);
            numfmt::write_f64(out, *x);
            close(out, tag);
        }
        // Chars are transported numerically: arbitrary bytes are not
        // necessarily valid XML characters.
        Value::Char(c) => {
            open(out, tag);
            numfmt::write_i64(out, *c as i64);
            close(out, tag);
        }
        Value::Str(s) => {
            open(out, tag);
            escape_text_into(s, out);
            close(out, tag);
        }
        Value::Bytes(b) => write_leaf(out, tag, sbq_model::base64::encode(b).as_str()),
        // Array items fuse the closing and next opening tag into one
        // push: on megabyte arrays the per-element String bookkeeping is
        // measurable next to the digit conversion itself.
        Value::IntArray(v) => {
            open(out, tag);
            if let Some((first, rest)) = v.split_first() {
                out.push_str("<item>");
                numfmt::write_i64(out, *first);
                for i in rest {
                    out.push_str("</item><item>");
                    numfmt::write_i64(out, *i);
                }
                out.push_str("</item>");
            }
            close(out, tag);
        }
        Value::FloatArray(v) => {
            open(out, tag);
            if let Some((first, rest)) = v.split_first() {
                out.push_str("<item>");
                numfmt::write_f64(out, *first);
                for x in rest {
                    out.push_str("</item><item>");
                    numfmt::write_f64(out, *x);
                }
                out.push_str("</item>");
            }
            close(out, tag);
        }
        Value::List(vs) => {
            open(out, tag);
            for v in vs {
                write_value(out, v, "item");
            }
            close(out, tag);
        }
        Value::Struct(sv) => {
            open(out, tag);
            for (fname, fv) in &sv.fields {
                write_value(out, fv, fname);
            }
            close(out, tag);
        }
    }
}

fn open(out: &mut String, tag: &str) {
    out.push('<');
    out.push_str(tag);
    out.push('>');
}

fn close(out: &mut String, tag: &str) {
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

fn write_leaf(out: &mut String, tag: &str, text: &str) {
    open(out, tag);
    out.push_str(text);
    close(out, tag);
}

// Digit conversion lives in `sbq_model::numfmt` (two-digit-table itoa,
// Grisu2 round-trip dtoa) — the per-element `format!` allocations this
// replaced were the dominant cost of XML array encode.

/// Parses the XML element currently *opened* in `parser` into a value of
/// schema `ty`. The caller has consumed the `Start` event; this consumes
/// everything up to and including the matching `End`.
///
/// Scalars parse straight from the borrowed text, and lists of ints or
/// floats decode directly into packed vectors without a per-item `Value`.
pub fn value_from_xml(parser: &mut PullParser<'_>, ty: &TypeDesc) -> Result<Value, SoapError> {
    match ty {
        TypeDesc::Int => literal(&parser.text_content()?, "int").map(Value::Int),
        TypeDesc::Float => literal(&parser.text_content()?, "float").map(Value::Float),
        TypeDesc::Char => literal(&parser.text_content()?, "char").map(Value::Char),
        TypeDesc::Str => Ok(Value::Str(parser.text_content()?.into_owned())),
        TypeDesc::Bytes => {
            let text = parser.text_content()?;
            sbq_model::base64::decode(&text)
                .map(Value::Bytes)
                .ok_or_else(|| SoapError::xml("bad base64 literal"))
        }
        TypeDesc::List(elem) => match **elem {
            TypeDesc::Int => packed(parser, "int").map(Value::IntArray),
            TypeDesc::Float => packed(parser, "float").map(Value::FloatArray),
            _ => {
                let mut items = Vec::new();
                children(parser, "list", |p, _| {
                    items.push(value_from_xml(p, elem)?);
                    Ok(())
                })?;
                Ok(Value::List(items))
            }
        },
        TypeDesc::Struct(sd) => {
            // Fields may arrive in any order; each lands in its schema
            // slot, so a repeated field is rejected as soon as it appears.
            let mut slots: Vec<Option<Value>> = vec![None; sd.fields.len()];
            children(parser, "struct", |p, name| {
                let idx = sd
                    .fields
                    .iter()
                    .position(|(n, _)| n == name)
                    .ok_or_else(|| {
                        SoapError::xml(format!("unknown field <{name}> in {}", sd.name))
                    })?;
                if slots[idx].is_some() {
                    return Err(SoapError::xml(format!("duplicate field <{name}>")));
                }
                slots[idx] = Some(value_from_xml(p, &sd.fields[idx].1)?);
                Ok(())
            })?;
            // Emit in schema order, requiring each field exactly once.
            let fields = sd
                .fields
                .iter()
                .zip(slots)
                .map(|((fname, _), v)| {
                    v.map(|v| (fname.clone(), v))
                        .ok_or_else(|| SoapError::xml(format!("missing field <{fname}>")))
                })
                .collect::<Result<_, _>>()?;
            Ok(Value::Struct(StructValue::new(sd.name.clone(), fields)))
        }
    }
}

/// Parses a scalar literal with the `trim` + `str::parse` rules every XML
/// number goes through.
fn literal<T: FromStr>(text: &str, what: &str) -> Result<T, SoapError> {
    text.trim()
        .parse()
        .map_err(|_| SoapError::xml(format!("bad {what} literal {text:?}")))
}

/// The shortest element that can hold a number, `<a>0</a>`.
const MIN_ITEM_BYTES: usize = 8;

/// Decodes the items of an int or float list straight into a packed
/// vector. Capacity comes from the bytes left to parse, never from a
/// declared count, so the buffer is at most as large as the input and the
/// items never outgrow it; the excess is released once the list closes.
fn packed<T: FromStr>(parser: &mut PullParser<'_>, what: &str) -> Result<Vec<T>, SoapError> {
    let mut out = Vec::with_capacity(parser.remaining() / MIN_ITEM_BYTES);
    children(parser, "list", |p, _| {
        out.push(literal(&p.text_content()?, what)?);
        Ok(())
    })?;
    out.shrink_to_fit();
    Ok(out)
}

/// Walks the child elements of the open element `what` (a list or a
/// struct), calling `child` with each child's name after its `Start`;
/// `child` must consume through the matching `End`. Whitespace between
/// children is skipped, any other text is an error.
fn children<'a>(
    parser: &mut PullParser<'a>,
    what: &str,
    mut child: impl FnMut(&mut PullParser<'a>, &'a str) -> Result<(), SoapError>,
) -> Result<(), SoapError> {
    loop {
        match parser.next()? {
            Event::Start { name, .. } => child(parser, name)?,
            Event::End { .. } => return Ok(()),
            Event::Text(t) if t.trim().is_empty() => {}
            Event::Text(t) => {
                return Err(SoapError::xml(format!("unexpected text {t:?} in {what}")))
            }
            Event::Eof => return Err(SoapError::xml(format!("eof in {what}"))),
        }
    }
}

/// Parses a standalone XML document consisting of one element into a value
/// of schema `ty`.
pub fn parse_document(xml: &str, ty: &TypeDesc) -> Result<Value, SoapError> {
    let mut p = PullParser::new(xml);
    match p.next()? {
        Event::Start { .. } => {
            let v = value_from_xml(&mut p, ty)?;
            match p.next()? {
                Event::Eof => Ok(v),
                other => Err(SoapError::xml(format!("trailing content: {other:?}"))),
            }
        }
        other => Err(SoapError::xml(format!(
            "expected an element, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbq_model::workload;

    fn round_trip(v: &Value, ty: &TypeDesc) {
        let xml = value_to_xml(v, "p");
        let back = parse_document(&xml, ty).unwrap();
        assert_eq!(&back, v, "xml was: {xml}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Value::Int(-42), &TypeDesc::Int);
        round_trip(&Value::Float(3.25), &TypeDesc::Float);
        round_trip(&Value::Float(1.0 / 3.0), &TypeDesc::Float);
        round_trip(&Value::Char(200), &TypeDesc::Char);
        round_trip(&Value::Str("a <b> & c".into()), &TypeDesc::Str);
    }

    #[test]
    fn arrays_round_trip_with_item_tags() {
        let v = workload::int_array(100, 4);
        let xml = value_to_xml(&v, "arr");
        assert_eq!(xml.matches("<item>").count(), 100);
        round_trip(&v, &TypeDesc::list_of(TypeDesc::Int));
        round_trip(
            &workload::float_array(50, 4),
            &TypeDesc::list_of(TypeDesc::Float),
        );
    }

    #[test]
    fn nested_structs_round_trip() {
        for depth in 0..6 {
            round_trip(
                &workload::nested_struct(depth, 5),
                &workload::nested_struct_type(depth),
            );
        }
    }

    #[test]
    fn xml_blowup_matches_paper_claims() {
        // Arrays: XML should be several times the PBIO (native) size.
        let v = workload::int_array(10_000, 1);
        let xml = value_to_xml(&v, "a");
        let ratio = xml.len() as f64 / v.native_size() as f64;
        assert!(ratio > 2.0, "array blowup only {ratio}");

        // Nested structs: worse.
        let s = workload::nested_struct(8, 1);
        let xml_s = value_to_xml(&s, "s");
        let ratio_s = xml_s.len() as f64 / s.native_size() as f64;
        assert!(
            ratio_s > ratio,
            "struct blowup {ratio_s} <= array blowup {ratio}"
        );
    }

    #[test]
    fn struct_fields_accepted_in_any_order() {
        let ty = TypeDesc::struct_of("m", vec![("a", TypeDesc::Int), ("b", TypeDesc::Str)]);
        let v = parse_document("<m><b>hi</b><a>5</a></m>", &ty).unwrap();
        let s = v.as_struct().unwrap();
        assert_eq!(s.fields[0].0, "a"); // normalized to schema order
        assert_eq!(s.field("a"), Some(&Value::Int(5)));
    }

    #[test]
    fn errors_on_bad_documents() {
        assert!(parse_document("<p>xyz</p>", &TypeDesc::Int).is_err());
        assert!(parse_document("<p>1</p><p>2</p>", &TypeDesc::Int).is_err());
        let ty = TypeDesc::struct_of("m", vec![("a", TypeDesc::Int)]);
        assert!(parse_document("<m></m>", &ty).is_err(), "missing field");
        assert!(
            parse_document("<m><a>1</a><a>2</a></m>", &ty).is_err(),
            "duplicate field"
        );
        assert!(
            parse_document("<m><zz>1</zz></m>", &ty).is_err(),
            "unknown field"
        );
        assert!(
            parse_document("<m>text<a>1</a></m>", &ty).is_err(),
            "stray text"
        );
    }

    #[test]
    fn empty_list_round_trips() {
        round_trip(&Value::IntArray(vec![]), &TypeDesc::list_of(TypeDesc::Int));
        round_trip(
            &Value::List(vec![]),
            &TypeDesc::list_of(TypeDesc::struct_of("e", vec![("x", TypeDesc::Int)])),
        );
    }

    #[test]
    fn char_out_of_range_rejected() {
        assert!(parse_document("<p>300</p>", &TypeDesc::Char).is_err());
    }
}
