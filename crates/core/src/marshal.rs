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
use std::borrow::Cow;
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
                while next_child(parser, "list")?.is_some() {
                    items.push(value_from_xml(parser, elem)?);
                }
                Ok(Value::List(items))
            }
        },
        TypeDesc::Struct(sd) => {
            // Fields may arrive in any order; each lands in its schema
            // slot, so a repeated field is rejected as soon as it appears.
            let mut slots: Vec<Option<Value>> = vec![None; sd.fields.len()];
            while let Some(name) = next_child(parser, "struct")? {
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
                slots[idx] = Some(value_from_xml(parser, &sd.fields[idx].1)?);
            }
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
/// declared count: the first item's footprint sets it, with a quarter to
/// spare, and it never exceeds one item per `MIN_ITEM_BYTES` of input, so
/// the buffer is at most as large as the input. A shortest-item bound
/// alone would reserve about four times what a float list needs, on every
/// decode. The excess is released once the list closes.
///
/// Each item is first tried as a leaf (`<item>n</item>` in one step);
/// any other shape goes through the events, with the same result.
fn packed<T: FromStr>(parser: &mut PullParser<'_>, what: &str) -> Result<Vec<T>, SoapError> {
    let start = parser.remaining();
    let mut out = Vec::new();
    loop {
        let text = match parser.leaf() {
            Some(text) => Cow::Borrowed(text),
            None => match next_child(parser, "list")? {
                Some(_) => parser.text_content()?,
                None => break,
            },
        };
        let item = literal(&text, what)?;
        if out.capacity() == 0 {
            let per_item = (start - parser.remaining()).max(MIN_ITEM_BYTES);
            out.reserve_exact((start / per_item * 5 / 4).min(start / MIN_ITEM_BYTES));
        }
        out.push(item);
    }
    out.shrink_to_fit();
    Ok(out)
}

/// Advances to the next child element of the open element `what` (a list
/// or a struct): returns its name after its `Start`, or `None` once the
/// parent's `End` is consumed. The caller must consume the child through
/// its matching `End`. Whitespace between children is skipped, any other
/// text is an error.
fn next_child<'a>(parser: &mut PullParser<'a>, what: &str) -> Result<Option<&'a str>, SoapError> {
    loop {
        match parser.next()? {
            Event::Start { name, .. } => return Ok(Some(name)),
            Event::End { .. } => return Ok(None),
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
    fn whitespace_only_strings_round_trip() {
        for s in ["", " ", "  ", "\n", " \t\r\n "] {
            round_trip(&Value::Str(s.into()), &TypeDesc::Str);
            round_trip(
                &Value::List(vec![Value::Str(s.into()), Value::Str("x".into())]),
                &TypeDesc::list_of(TypeDesc::Str),
            );
        }
        // Split by a comment, the whitespace still counts; between child
        // elements it does not.
        assert_eq!(
            parse_document("<p> <!-- c -->\n</p>", &TypeDesc::Str).unwrap(),
            Value::Str(" \n".into())
        );
        assert_eq!(
            parse_document(
                "<p>\n  <item>1</item>\n  <item>2</item>\n</p>",
                &TypeDesc::list_of(TypeDesc::Int)
            )
            .unwrap(),
            Value::IntArray(vec![1, 2])
        );
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

/// The leaf fast path (`PullParser::leaf` in `packed`, the tail check in
/// `text_content`) against an event-only decoder: on generated and mutated
/// documents both must give the same value, or both an error.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use sbq_runtime::SmallRng;

    /// Decodes like `parse_document`, reading every element through
    /// `PullParser::next` alone. Text is the concatenation of `Text`
    /// events, so — unlike `text_content` — a whitespace-only run inside
    /// a leaf is skipped; the generator below never puts one there.
    fn reference(doc: &str, ty: &TypeDesc) -> Result<Value, SoapError> {
        let mut p = PullParser::new(doc);
        let Event::Start { .. } = p.next()? else {
            return Err(SoapError::xml("no root element"));
        };
        let v = ref_value(&mut p, ty)?;
        match p.next()? {
            Event::Eof => Ok(v),
            _ => Err(SoapError::xml("trailing content")),
        }
    }

    fn ref_value(p: &mut PullParser<'_>, ty: &TypeDesc) -> Result<Value, SoapError> {
        Ok(match ty {
            TypeDesc::Int => Value::Int(literal(&ref_text(p)?, "int")?),
            TypeDesc::Float => Value::Float(literal(&ref_text(p)?, "float")?),
            TypeDesc::Char => Value::Char(literal(&ref_text(p)?, "char")?),
            TypeDesc::Str => Value::Str(ref_text(p)?),
            TypeDesc::Bytes => unreachable!("not generated"),
            TypeDesc::List(elem) => {
                let mut items = Vec::new();
                while ref_child(p)?.is_some() {
                    items.push(ref_value(p, elem)?);
                }
                let list = Value::List(items);
                match **elem {
                    TypeDesc::Int => Value::IntArray(list.as_int_array().unwrap()),
                    TypeDesc::Float => Value::FloatArray(list.as_float_array().unwrap()),
                    _ => list,
                }
            }
            TypeDesc::Struct(sd) => {
                let mut seen: Vec<(String, Value)> = Vec::new();
                while let Some(name) = ref_child(p)? {
                    let (_, fty) = sd
                        .fields
                        .iter()
                        .find(|(n, _)| n == name)
                        .ok_or_else(|| SoapError::xml("unknown field"))?;
                    if seen.iter().any(|(n, _)| n == name) {
                        return Err(SoapError::xml("duplicate field"));
                    }
                    seen.push((name.to_string(), ref_value(p, fty)?));
                }
                let mut fields = Vec::new();
                for (fname, _) in &sd.fields {
                    let i = seen
                        .iter()
                        .position(|(n, _)| n == fname)
                        .ok_or_else(|| SoapError::xml("missing field"))?;
                    fields.push(seen.swap_remove(i));
                }
                Value::Struct(StructValue::new(sd.name.clone(), fields))
            }
        })
    }

    fn ref_text(p: &mut PullParser<'_>) -> Result<String, SoapError> {
        let mut out = String::new();
        loop {
            match p.next()? {
                Event::Text(t) => out.push_str(&t),
                Event::End { .. } => return Ok(out),
                _ => return Err(SoapError::xml("not a leaf")),
            }
        }
    }

    fn ref_child<'a>(p: &mut PullParser<'a>) -> Result<Option<&'a str>, SoapError> {
        loop {
            match p.next()? {
                Event::Start { name, .. } => return Ok(Some(name)),
                Event::End { .. } => return Ok(None),
                Event::Text(t) if t.trim().is_empty() => {}
                _ => return Err(SoapError::xml("text or eof among children")),
            }
        }
    }

    fn schemas() -> Vec<TypeDesc> {
        let inner = TypeDesc::struct_of("inner", vec![("x", TypeDesc::Int), ("y", TypeDesc::Str)]);
        vec![
            TypeDesc::list_of(TypeDesc::Int),
            TypeDesc::list_of(TypeDesc::Float),
            TypeDesc::list_of(TypeDesc::Str),
            TypeDesc::list_of(inner.clone()),
            TypeDesc::struct_of(
                "s",
                vec![
                    ("a", TypeDesc::Int),
                    ("b", TypeDesc::Float),
                    ("c", TypeDesc::Str),
                    ("d", TypeDesc::list_of(TypeDesc::Int)),
                    ("e", TypeDesc::list_of(TypeDesc::Float)),
                    ("f", TypeDesc::Char),
                    ("g", inner),
                ],
            ),
        ]
    }

    /// A string of text characters (markup and entity specials included)
    /// that is empty or holds something other than whitespace.
    fn arb_str(rng: &mut SmallRng) -> String {
        const ALPHABET: &[u8] = b"ab 9\t<&>\"';.";
        let mut s: String = (0..rng.gen_below(6))
            .map(|_| ALPHABET[rng.gen_below(ALPHABET.len() as u64) as usize] as char)
            .collect();
        if !s.is_empty() && s.trim().is_empty() {
            s.insert(0, 'x');
        }
        s
    }

    fn arb_value(rng: &mut SmallRng, ty: &TypeDesc) -> Value {
        let len = rng.gen_below(6) as usize;
        match ty {
            TypeDesc::Int => Value::Int(rng.gen_range(-100_000, 100_000)),
            TypeDesc::Float => Value::Float((rng.gen_f64() - 0.5) * 1e4),
            TypeDesc::Char => Value::Char(rng.gen_below(256) as u8),
            TypeDesc::Str => Value::Str(arb_str(rng)),
            TypeDesc::List(elem) => match **elem {
                TypeDesc::Int => {
                    Value::IntArray((0..len).map(|_| rng.gen_range(-999, 99_999)).collect())
                }
                TypeDesc::Float => {
                    Value::FloatArray((0..len).map(|_| (rng.gen_f64() - 0.5) * 1e6).collect())
                }
                _ => Value::List((0..len).map(|_| arb_value(rng, elem)).collect()),
            },
            TypeDesc::Struct(sd) => Value::Struct(StructValue::new(
                sd.name.clone(),
                sd.fields
                    .iter()
                    .map(|(n, t)| (n.clone(), arb_value(rng, t)))
                    .collect(),
            )),
            TypeDesc::Bytes => unreachable!("not generated"),
        }
    }

    /// Offsets of the `<` and the `>` of every start tag (`<name ...>`),
    /// or of every end tag (`</name>`) when `end_tags`.
    fn tags(doc: &str, end_tags: bool) -> Vec<(usize, usize)> {
        doc.match_indices('<')
            .filter(|&(i, _)| match doc.as_bytes().get(i + 1) {
                Some(b'/') => end_tags,
                Some(c) => !end_tags && c.is_ascii_alphabetic(),
                None => false,
            })
            .filter_map(|(i, _)| Some((i, i + doc[i..].find('>')?)))
            .collect()
    }

    fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> Option<T> {
        (!xs.is_empty()).then(|| xs[rng.gen_below(xs.len() as u64) as usize])
    }

    /// Applies one mutation the fast path must decline (or survive).
    fn mutate(rng: &mut SmallRng, doc: &mut String) {
        let starts = tags(doc, false);
        let ends = tags(doc, true);
        let gts: Vec<usize> = doc.match_indices('>').map(|(i, _)| i + 1).collect();
        match rng.gen_below(9) {
            0 => {
                // A digit as a character reference.
                let digits: Vec<usize> = doc
                    .char_indices()
                    .filter(|(_, c)| c.is_ascii_digit())
                    .map(|(i, _)| i)
                    .collect();
                if let Some(i) = pick(rng, &digits) {
                    let d = doc.as_bytes()[i];
                    doc.replace_range(i..i + 1, &format!("&#{d};"));
                }
            }
            1 => {
                if let Some(i) = pick(rng, &gts) {
                    doc.insert_str(i, "<!-- c -->");
                }
            }
            2 => {
                let cdata =
                    pick(rng, &["<![CDATA[]]>", "<![CDATA[7]]>", "<![CDATA[ x<&]]>"]).unwrap();
                if let Some(i) = pick(rng, &gts) {
                    doc.insert_str(i, cdata);
                }
            }
            3 => {
                if let Some((_, end)) = pick(rng, &starts) {
                    doc.insert_str(end, " k=\"v&amp;\"");
                }
            }
            4 => {
                // A leaf collapsed to `<name/>`.
                let leaves: Vec<(usize, usize)> = starts
                    .iter()
                    .filter_map(|&(s, e)| {
                        let name = &doc[s + 1..e];
                        let close = e + 1 + doc[e + 1..].find('<')?;
                        let end = format!("</{name}>");
                        doc[close..]
                            .starts_with(&end)
                            .then_some((s, close + end.len()))
                    })
                    .collect();
                if let Some((s, e)) = pick(rng, &leaves) {
                    let name = doc[s + 1..].split('>').next().unwrap().to_string();
                    doc.replace_range(s..e, &format!("<{name}/>"));
                }
            }
            5 => {
                if let Some((_, end)) = pick(rng, &ends) {
                    doc.insert(end, ' ');
                }
            }
            6 => {
                // Mismatched, or an end tag cut short.
                if let Some((_, end)) = pick(rng, &ends) {
                    let bad = if rng.gen_bool(0.5) { "x" } else { "" };
                    doc.replace_range(end - 1..end, bad);
                }
            }
            7 => {
                // Whitespace around non-empty leaf text, or between elements.
                let ws = pick(rng, &[" ", "\n", " \t "]).unwrap();
                let b = doc.as_bytes();
                let around_text: Vec<usize> = (1..b.len())
                    .filter(|&i| {
                        (b[i - 1] == b'>' && b[i] != b'<') || (b[i] == b'<' && b[i - 1] != b'>')
                    })
                    .chain(starts.iter().map(|&(s, _)| s))
                    .collect();
                if let Some(i) = pick(rng, &around_text) {
                    doc.insert_str(i, ws);
                }
            }
            _ => {} // unmutated
        }
    }

    fn assert_agree(doc: &str, ty: &TypeDesc) {
        match (parse_document(doc, ty), reference(doc, ty)) {
            (Ok(fast), Ok(slow)) => assert_eq!(fast, slow, "{doc:?}"),
            (Err(_), Err(_)) => {}
            (fast, slow) => {
                panic!("paths disagree on {doc:?}:\n fast {fast:?}\n event-only {slow:?}")
            }
        }
    }

    #[test]
    fn fast_path_agrees_with_event_only_decoding() {
        let mut rng = SmallRng::seed_from_u64(0x1eaf_0015);
        let schemas = schemas();
        let mut decoded = 0;
        for _ in 0..3000 {
            let ty = &schemas[rng.gen_below(schemas.len() as u64) as usize];
            let v = arb_value(&mut rng, ty);
            let mut doc = value_to_xml(&v, "p");
            assert_eq!(parse_document(&doc, ty).unwrap(), v, "{doc:?}");
            for _ in 0..1 + rng.gen_below(2) {
                mutate(&mut rng, &mut doc);
            }
            assert_agree(&doc, ty);
            decoded += parse_document(&doc, ty).is_ok() as usize;
        }
        // The mutations must leave plenty of documents decodable, or the
        // comparison degenerates into "both fail".
        assert!(decoded > 1000, "only {decoded} mutated documents decoded");
    }

    #[test]
    fn fast_path_agrees_on_every_truncation() {
        let inner = TypeDesc::struct_of("inner", vec![("x", TypeDesc::Int), ("y", TypeDesc::Str)]);
        let ty = TypeDesc::struct_of(
            "s",
            vec![("d", TypeDesc::list_of(TypeDesc::Float)), ("g", inner)],
        );
        let doc = "<s><d><item>1.5</item><item>-2</item></d><g><y> a&amp;b </y><x>7</x></g></s>";
        assert!(parse_document(doc, &ty).is_ok());
        for cut in 0..doc.len() {
            assert_agree(&doc[..cut], &ty);
            assert!(parse_document(&doc[..cut], &ty).is_err(), "{cut}");
        }
    }
}
