//! Randomized-property tests: writer output always reparses to the same
//! structure, and events borrow from the input unless an entity had to be
//! resolved. Seeded generation keeps every case reproducible.

use sbq_runtime::SmallRng;
use sbq_xml::{escape_attr, escape_text, unescape, Event, PullParser, XmlWriter};
use std::borrow::Cow;

const CASES: u64 = 256;

/// A random string over printable ASCII plus XML-hostile characters and
/// some multi-byte code points.
fn arb_string(rng: &mut SmallRng, max_len: u64) -> String {
    let hostile = ['<', '>', '&', '\'', '"', 'é', 'λ', '中', '\u{1F600}'];
    let n = rng.gen_below(max_len + 1);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                hostile[rng.gen_below(hostile.len() as u64) as usize]
            } else {
                (b' ' + rng.gen_below(95) as u8) as char
            }
        })
        .collect()
}

fn arb_name(rng: &mut SmallRng) -> String {
    let first = (b'a' + rng.gen_below(26) as u8) as char;
    let rest: String = (0..rng.gen_below(7))
        .map(|_| {
            let set = b"abcdefghijklmnopqrstuvwxyz0123456789";
            set[rng.gen_below(set.len() as u64) as usize] as char
        })
        .collect();
    format!("{first}{rest}")
}

#[test]
fn escape_text_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_0001);
    for _ in 0..CASES {
        let s = arb_string(&mut rng, 64);
        assert_eq!(unescape(&escape_text(&s)), s, "{s:?}");
    }
}

#[test]
fn escape_attr_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_0002);
    for _ in 0..CASES {
        let s = arb_string(&mut rng, 64);
        assert_eq!(unescape(&escape_attr(&s)), s, "{s:?}");
    }
}

#[test]
fn written_tree_reparses() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_0003);
    for _ in 0..CASES {
        let names: Vec<String> = (0..1 + rng.gen_below(7))
            .map(|_| arb_name(&mut rng))
            .collect();
        let texts: Vec<String> = (0..1 + rng.gen_below(7))
            .map(|_| {
                let n = rng.gen_below(13);
                (0..n)
                    .map(|_| (b' ' + rng.gen_below(95) as u8) as char)
                    .collect()
            })
            .collect();
        // Build a nested document name[0] > name[1] > … with text leaves.
        let mut w = XmlWriter::new();
        for n in &names {
            w.start(n);
        }
        for t in &texts {
            if !t.trim().is_empty() {
                w.leaf("LEAF", t);
            }
        }
        let doc = w.finish();
        let mut p = PullParser::new(&doc);
        let mut starts = Vec::new();
        let mut leaf_texts = Vec::new();
        loop {
            match p.next().unwrap() {
                Event::Start { name, .. } if name != "LEAF" => starts.push(name),
                Event::Text(t) => leaf_texts.push(t),
                Event::Eof => break,
                _ => {}
            }
        }
        assert_eq!(starts, names);
        let expected: Vec<String> = texts
            .iter()
            .filter(|t| !t.trim().is_empty())
            .cloned()
            .collect();
        assert_eq!(leaf_texts, expected);
    }
}

#[test]
fn attributes_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_0004);
    for _ in 0..CASES {
        let vals: Vec<String> = (0..rng.gen_below(6))
            .map(|_| {
                let n = rng.gen_below(17);
                (0..n)
                    .map(|_| (b' ' + rng.gen_below(95) as u8) as char)
                    .collect()
            })
            .collect();
        let mut w = XmlWriter::new();
        let attrs: Vec<(String, String)> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("a{i}"), v.clone()))
            .collect();
        let borrowed: Vec<(&str, &str)> = attrs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        w.start_with("e", &borrowed);
        let doc = w.finish();
        let mut p = PullParser::new(&doc);
        match p.next().unwrap() {
            Event::Start { attrs: parsed, .. } => {
                assert_eq!(parsed.len(), attrs.len());
                for ((pk, pv), (k, v)) in parsed.iter().zip(&attrs) {
                    assert_eq!((*pk, pv.as_ref()), (k.as_str(), v.as_str()));
                    // The writer escapes only markup characters and quotes,
                    // so a value free of them carries no entity.
                    let clean = !v.contains(['&', '<', '>', '"', '\'']);
                    assert_eq!(matches!(pv, Cow::Borrowed(_)), clean, "{v:?}");
                }
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}

/// One piece of an element's text content, as it appears in the document.
enum Piece {
    /// Escaped character data; owned after parsing only if it needed an
    /// entity.
    Plain(String),
    /// A CDATA section, always borrowed.
    Cdata(String),
}

#[test]
fn text_split_by_comments_cdata_and_entities_concatenates() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_0005);
    for _ in 0..CASES {
        let mut doc = String::from("<t>");
        let mut pieces = Vec::new();
        let mut expected = String::new();
        for _ in 0..1 + rng.gen_below(5) {
            // A leading letter keeps plain runs from being whitespace-only,
            // which the parser drops between elements.
            let mut text = String::from("x");
            text.push_str(&arb_string(&mut rng, 12));
            expected.push_str(&text);
            if rng.gen_bool(0.3) && !text.contains("]]>") {
                doc.push_str("<![CDATA[");
                doc.push_str(&text);
                doc.push_str("]]>");
                pieces.push(Piece::Cdata(text));
            } else {
                doc.push_str(&escape_text(&text));
                pieces.push(Piece::Plain(text));
            }
            // Separate consecutive pieces so each is its own event.
            doc.push_str("<!-- split -->");
        }
        doc.push_str("</t>");

        // Event by event: the pieces come back in order, borrowed unless an
        // entity was resolved.
        let mut p = PullParser::new(&doc);
        assert!(matches!(p.next().unwrap(), Event::Start { name: "t", .. }));
        for piece in &pieces {
            let Event::Text(t) = p.next().unwrap() else {
                panic!("expected a text event in {doc:?}");
            };
            match piece {
                Piece::Cdata(text) => {
                    assert_eq!(t, text.as_str());
                    assert!(matches!(t, Cow::Borrowed(_)), "cdata copied: {doc:?}");
                }
                Piece::Plain(text) => {
                    assert_eq!(t, text.as_str());
                    let entity_free = !text.contains(['&', '<', '>']);
                    assert_eq!(matches!(t, Cow::Borrowed(_)), entity_free, "{text:?}");
                }
            }
        }
        assert!(matches!(p.next().unwrap(), Event::End { name: "t" }));

        // Whole element: the concatenation is the same text, borrowed when
        // it was one entity-free piece.
        let mut p = PullParser::new(&doc);
        p.next().unwrap();
        let content = p.text_content().unwrap();
        assert_eq!(content, expected.as_str(), "{doc:?}");
        let one_clean_piece = match pieces.as_slice() {
            [Piece::Cdata(_)] => true,
            [Piece::Plain(text)] => !text.contains(['&', '<', '>']),
            _ => false,
        };
        assert_eq!(matches!(content, Cow::Borrowed(_)), one_clean_piece);
        assert_eq!(p.next().unwrap(), Event::Eof);
    }
}
