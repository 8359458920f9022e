//! Streaming pull parser.
//!
//! Modeled on the XML Pull Parser interface the paper cites (§II, \[29\]):
//! callers repeatedly ask for the [`Event`]s of a document held in memory.
//! Well-formedness (balanced tags, attribute syntax) is enforced; DTDs and
//! namespace *resolution* are out of scope (prefixes are preserved in
//! names, which is all SOAP envelope handling needs).
//!
//! Events borrow from the document: names are `&str` slices of the input,
//! and text and attribute values are `Cow`s that own memory only when an
//! entity reference had to be resolved. Parsing an entity-free document
//! allocates nothing but the open-element stack.
//!
//! Leaf elements — `<name>text</name>` with no attributes, entities or
//! markup inside — also have a one-step path ([`PullParser::leaf`], and
//! the first check in [`PullParser::text_content`]) that skips the
//! Start/Text/End events; any other shape falls back to the event path.

use crate::escape::unescape;
use sbq_runtime::simd;
use std::borrow::Cow;
use std::fmt;

/// A parse event, borrowing from the document being parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v">` — attribute values are unescaped.
    Start {
        name: &'a str,
        attrs: Vec<(&'a str, Cow<'a, str>)>,
    },
    /// `</name>`, also synthesized for self-closing `<name/>`.
    End { name: &'a str },
    /// Character data (entity references resolved). Whitespace-only runs
    /// between elements are skipped ([`PullParser::text_content`] keeps
    /// them: inside a leaf they are content).
    Text(Cow<'a, str>),
    /// End of document.
    Eof,
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset of the error in the input.
    pub offset: usize,
}

impl XmlError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        XmlError {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Pull parser over an in-memory document.
pub struct PullParser<'a> {
    src: &'a str,
    pos: usize,
    stack: Vec<&'a str>,
    done: bool,
    /// Name whose synthesized `End` event (from a self-closing tag) is due
    /// before any further input is consumed.
    pending_end: Option<&'a str>,
}

impl<'a> PullParser<'a> {
    /// Creates a parser over `src`.
    pub fn new(src: &'a str) -> Self {
        PullParser {
            src,
            pos: 0,
            stack: Vec::new(),
            done: false,
            pending_end: None,
        }
    }

    /// Current byte offset (diagnostics).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes of input not yet consumed — an upper bound on what the rest
    /// of the document can contain, for sizing buffers from the input.
    pub fn remaining(&self) -> usize {
        self.src.len() - self.pos
    }

    /// Depth of currently-open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + ahead).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek(0).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Returns the next event, resolving entities and skipping comments,
    /// processing instructions, the XML declaration and DOCTYPE.
    pub fn next_event(&mut self) -> Result<Event<'a>, XmlError> {
        self.scan(false)
    }

    /// [`PullParser::next_event`], optionally reporting whitespace-only
    /// text instead of skipping it.
    fn scan(&mut self, keep_ws: bool) -> Result<Event<'a>, XmlError> {
        loop {
            if self.done {
                return Ok(Event::Eof);
            }
            let Some(b) = self.peek(0) else {
                if let Some(open) = self.stack.last() {
                    return Err(XmlError::new(
                        format!("unexpected end of input; unclosed <{open}>"),
                        self.pos,
                    ));
                }
                self.done = true;
                return Ok(Event::Eof);
            };
            if b != b'<' {
                if let Some(ev) = self.read_text(keep_ws)? {
                    return Ok(ev);
                }
                // Whitespace-only text: loop for the next markup.
                continue;
            }
            match self.peek(1) {
                Some(b'?') => self.skip_until("?>")?,
                Some(b'!') if self.src[self.pos..].starts_with("<!--") => self.skip_until("-->")?,
                Some(b'!') if self.src[self.pos..].starts_with("<![CDATA[") => {
                    return self.read_cdata()
                }
                // DOCTYPE and friends.
                Some(b'!') => self.skip_until(">")?,
                Some(b'/') => return self.read_end_tag(),
                Some(_) => return self.read_start_tag(),
                None => return Err(XmlError::new("dangling '<'", self.pos)),
            }
        }
    }

    fn skip_until(&mut self, pat: &str) -> Result<(), XmlError> {
        let Some(idx) = self.src[self.pos..].find(pat) else {
            let msg = format!("unterminated construct (missing {pat:?})");
            return Err(XmlError::new(msg, self.pos));
        };
        self.pos += idx + pat.len();
        Ok(())
    }

    fn read_cdata(&mut self) -> Result<Event<'a>, XmlError> {
        let start = self.pos + "<![CDATA[".len();
        let Some(idx) = self.src[start..].find("]]>") else {
            return Err(XmlError::new("unterminated CDATA section", self.pos));
        };
        self.pos = start + idx + 3;
        Ok(Event::Text(Cow::Borrowed(&self.src[start..start + idx])))
    }

    fn read_text(&mut self, keep_ws: bool) -> Result<Option<Event<'a>>, XmlError> {
        let start = self.pos;
        let rest = &self.src.as_bytes()[start..];
        self.pos += rest.iter().position(|&b| b == b'<').unwrap_or(rest.len());
        let raw = &self.src[start..self.pos];
        if !keep_ws && raw.trim().is_empty() {
            // Inter-element whitespace.
            return Ok(None);
        }
        if self.stack.is_empty() {
            return Err(XmlError::new("text outside root element", start));
        }
        Ok(Some(Event::Text(unescape(raw))))
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        self.pos += name_len(&self.src.as_bytes()[start..]);
        if self.pos == start {
            return Err(XmlError::new("expected a name", start));
        }
        Ok(&self.src[start..self.pos])
    }

    fn read_start_tag(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 1; // consume '<'
        let name = self.read_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek(0) {
                Some(b'>') => {
                    self.pos += 1;
                    self.stack.push(name);
                    return Ok(Event::Start { name, attrs });
                }
                Some(b'/') => {
                    if self.peek(1) == Some(b'>') {
                        self.pos += 2;
                        // Self-closing: deliver Start now and the matching
                        // End on the next call to `next`.
                        self.stack.push(name);
                        self.pending_end = Some(name);
                        return Ok(Event::Start { name, attrs });
                    }
                    return Err(XmlError::new("stray '/' in tag", self.pos));
                }
                Some(_) => {
                    let aname = self.read_name()?;
                    self.skip_ws();
                    if self.peek(0) != Some(b'=') {
                        return Err(XmlError::new(
                            format!("attribute {aname:?} missing '='"),
                            self.pos,
                        ));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = match self.peek(0) {
                        Some(q @ (b'"' | b'\'')) => q as char,
                        _ => return Err(XmlError::new("attribute value must be quoted", self.pos)),
                    };
                    let vstart = self.pos + 1;
                    let Some(len) = self.src[vstart..].find(quote) else {
                        return Err(XmlError::new("unterminated attribute value", vstart));
                    };
                    self.pos = vstart + len + 1;
                    attrs.push((aname, unescape(&self.src[vstart..vstart + len])));
                }
                None => return Err(XmlError::new("unterminated start tag", self.pos)),
            }
        }
    }

    fn read_end_tag(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 2; // consume '</'
        let name = self.read_name()?;
        self.skip_ws();
        if self.peek(0) != Some(b'>') {
            return Err(XmlError::new("malformed end tag", self.pos));
        }
        self.pos += 1;
        match self.stack.pop() {
            Some(open) if open == name => Ok(Event::End { name }),
            Some(open) => Err(XmlError::new(
                format!("mismatched end tag: expected </{open}>, found </{name}>"),
                self.pos,
            )),
            None => Err(XmlError::new(
                format!("unexpected end tag </{name}>"),
                self.pos,
            )),
        }
    }

    /// Like [`PullParser::next_event`] but transparently yields the
    /// synthesized `End` of a self-closing tag.
    ///
    /// Named `next` to match the pull-parser interface the paper cites
    /// (XPP); this type deliberately is not an `Iterator` because events
    /// are fallible.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Event<'a>, XmlError> {
        self.pull(false)
    }

    fn pull(&mut self, keep_ws: bool) -> Result<Event<'a>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            self.stack.pop();
            return Ok(Event::End { name });
        }
        self.scan(keep_ws)
    }

    /// Consumes a whole leaf element at the cursor in one step and returns
    /// its text: an attribute-free `<name>` start tag, text without markup
    /// or entities (whitespace included), and the matching `</name>`. The
    /// open-element stack is untouched, as after its Start/Text/End
    /// events. Any other shape returns `None` with the cursor unmoved, and
    /// the caller falls back to [`PullParser::next`]: attributes, entity
    /// references, `>` in the text, comments, CDATA, `<name/>`, whitespace
    /// inside either tag, a different or missing end tag, and truncated
    /// input. A declined call stops at the first byte it cannot take, and
    /// the event path then consumes at least the bytes it scanned, so
    /// decoding stays linear.
    pub fn leaf(&mut self) -> Option<&'a str> {
        if self.pending_end.is_some() {
            return None;
        }
        let rest = &self.src.as_bytes()[self.pos..];
        if rest.first() != Some(&b'<') || matches!(rest.get(1), Some(b'?' | b'!' | b'/')) {
            return None;
        }
        let len = name_len(&rest[1..]);
        if len == 0 || rest.get(1 + len) != Some(&b'>') {
            return None;
        }
        let name = &self.src[self.pos + 1..self.pos + 1 + len];
        let (text, end) = self.clean_tail(self.pos + len + 2, name)?;
        self.pos = end;
        Some(text)
    }

    /// The tail of a leaf whose start tag ends just before `from`: clean
    /// text (no `&`, `<` or `>`), then exactly `</open>`. Returns the text
    /// and the offset just past the end tag.
    fn clean_tail(&self, from: usize, open: &str) -> Option<(&'a str, usize)> {
        let rest = &self.src.as_bytes()[from..];
        // The scan stops only on ASCII specials, so `from + clean` is a
        // char boundary.
        let clean = simd::escape_scan(rest, false);
        let after = rest[clean..]
            .strip_prefix(b"</")?
            .strip_prefix(open.as_bytes())?;
        if after.first() != Some(&b'>') {
            return None;
        }
        let text = &self.src[from..from + clean];
        Some((text, from + clean + open.len() + 3))
    }

    /// Skips events until the matching `End` of the element that was just
    /// started (depth-aware). Useful for ignoring unknown content.
    pub fn skip_element(&mut self) -> Result<(), XmlError> {
        let target = self.depth().saturating_sub(1);
        loop {
            match self.next()? {
                Event::End { .. } if self.depth() == target => return Ok(()),
                Event::Eof => return Err(XmlError::new("eof while skipping element", self.pos)),
                _ => {}
            }
        }
    }

    /// Collects the concatenated text content up to the matching end tag of
    /// the currently-open element, erroring on nested elements. Whitespace
    /// is content here, even when it is all the element holds. Borrowed
    /// unless an entity was resolved or the text came in several pieces
    /// (split by comments or CDATA sections).
    ///
    /// Clean text followed directly by the end tag is taken in one step
    /// without events; anything else goes through the event loop.
    pub fn text_content(&mut self) -> Result<Cow<'a, str>, XmlError> {
        if let (None, Some(&open)) = (self.pending_end, self.stack.last()) {
            if let Some((text, end)) = self.clean_tail(self.pos, open) {
                self.pos = end;
                self.stack.pop();
                return Ok(Cow::Borrowed(text));
            }
        }
        let mut out = Cow::Borrowed("");
        loop {
            match self.pull(true)? {
                Event::Text(t) if out.is_empty() => out = t,
                Event::Text(t) => out.to_mut().push_str(&t),
                Event::End { .. } => return Ok(out),
                Event::Start { name, .. } => {
                    return Err(XmlError::new(
                        format!("unexpected child element <{name}> in text content"),
                        self.pos,
                    ))
                }
                Event::Eof => return Err(XmlError::new("eof in text content", self.pos)),
            }
        }
    }
}

/// Length of the tag or attribute name at the start of `bytes`: up to
/// whitespace, `>`, `/` or `=`.
fn name_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| b.is_ascii_whitespace() || matches!(b, b'>' | b'/' | b'='))
        .unwrap_or(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Vec<Event<'_>> {
        let mut p = PullParser::new(src);
        let mut out = Vec::new();
        loop {
            let ev = p.next().unwrap();
            let eof = ev == Event::Eof;
            out.push(ev);
            if eof {
                break;
            }
        }
        out
    }

    #[test]
    fn simple_document() {
        let evs = events("<a><b x=\"1\">hi</b></a>");
        assert_eq!(
            evs,
            vec![
                Event::Start {
                    name: "a",
                    attrs: vec![]
                },
                Event::Start {
                    name: "b",
                    attrs: vec![("x", "1".into())]
                },
                Event::Text("hi".into()),
                Event::End { name: "b" },
                Event::End { name: "a" },
                Event::Eof,
            ]
        );
    }

    #[test]
    fn self_closing_synthesizes_end() {
        let evs = events("<a><b/><c attr='v'/></a>");
        assert_eq!(evs.len(), 7);
        assert_eq!(evs[2], Event::End { name: "b" });
        assert_eq!(
            evs[3],
            Event::Start {
                name: "c",
                attrs: vec![("attr", "v".into())]
            }
        );
    }

    #[test]
    fn declaration_comments_doctype_skipped() {
        let evs = events("<?xml version=\"1.0\"?><!DOCTYPE a><!-- c --><a>t</a>");
        assert_eq!(
            evs[0],
            Event::Start {
                name: "a",
                attrs: vec![]
            }
        );
        assert_eq!(evs[1], Event::Text("t".into()));
    }

    #[test]
    fn cdata_passes_raw_text() {
        let evs = events("<a><![CDATA[x < y & z]]></a>");
        assert_eq!(evs[1], Event::Text("x < y & z".into()));
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let evs = events("<a k=\"&lt;&amp;&gt;\">&#65;&amp;B</a>");
        assert_eq!(
            evs[0],
            Event::Start {
                name: "a",
                attrs: vec![("k", "<&>".into())]
            }
        );
        assert_eq!(evs[1], Event::Text("A&B".into()));
    }

    #[test]
    fn mismatched_tags_error() {
        let mut p = PullParser::new("<a><b></a></b>");
        p.next().unwrap();
        p.next().unwrap();
        assert!(p.next().is_err());
    }

    #[test]
    fn unclosed_root_errors() {
        let mut p = PullParser::new("<a><b>hi</b>");
        while let Ok(ev) = p.next() {
            if ev == Event::Eof {
                panic!("should have errored before EOF");
            }
        }
    }

    #[test]
    fn namespaced_names_preserved() {
        let evs = events("<soap:Envelope xmlns:soap=\"http://x\"><soap:Body/></soap:Envelope>");
        assert!(matches!(&evs[0], Event::Start { name, .. } if *name == "soap:Envelope"));
    }

    #[test]
    fn skip_element_ignores_subtree() {
        let mut p = PullParser::new("<a><junk><deep>1</deep></junk><keep>2</keep></a>");
        assert!(matches!(p.next().unwrap(), Event::Start { name, .. } if name == "a"));
        assert!(matches!(p.next().unwrap(), Event::Start { name, .. } if name == "junk"));
        p.skip_element().unwrap();
        assert!(matches!(p.next().unwrap(), Event::Start { name, .. } if name == "keep"));
        assert_eq!(p.text_content().unwrap(), "2");
    }

    #[test]
    fn text_content_reads_to_end_tag() {
        let mut p = PullParser::new("<a>one &amp; two</a>");
        p.next().unwrap();
        assert_eq!(p.text_content().unwrap(), "one & two");
        assert_eq!(p.next().unwrap(), Event::Eof);
    }

    #[test]
    fn text_content_keeps_whitespace() {
        for (doc, text) in [
            ("<a>  </a>", "  "),
            ("<a>\n</a>", "\n"),
            ("<a> <!-- c --> </a>", "  "),
            ("<a>\t<![CDATA[x]]> </a>", "\tx "),
            ("<a/>", ""),
        ] {
            let mut p = PullParser::new(doc);
            p.next().unwrap();
            assert_eq!(p.text_content().unwrap(), text, "{doc:?}");
            assert_eq!(p.next().unwrap(), Event::Eof);
        }
        // Events still skip whitespace-only runs.
        assert_eq!(events("<a> </a>").len(), 3);
    }

    #[test]
    fn leaf_consumes_plain_leaves_in_one_step() {
        let mut p = PullParser::new("<r><a>1</a><b> x </b><c></c><d k='v'>2</d></r>");
        p.next().unwrap();
        assert_eq!(p.leaf(), Some("1"));
        assert_eq!(p.leaf(), Some(" x "));
        assert_eq!(p.leaf(), Some(""));
        assert_eq!(p.depth(), 1);
        assert_eq!(p.leaf(), None, "attributes fall back");
        assert!(matches!(p.next().unwrap(), Event::Start { name: "d", .. }));
        assert_eq!(p.text_content().unwrap(), "2");
        assert_eq!(p.next().unwrap(), Event::End { name: "r" });
        assert_eq!(p.next().unwrap(), Event::Eof);
    }

    #[test]
    fn leaf_declines_other_shapes_without_moving() {
        for doc in [
            "<a k=\"v\">1</a>",
            "<a>&#49;</a>",
            "<a>1>2</a>",
            "<a><!-- c -->1</a>",
            "<a><![CDATA[1]]></a>",
            "<a/>",
            "<a >1</a>",
            "<a>1</a >",
            "<a>1</b>",
            "<a>1</ab>",
            "<a>1<b/></a>",
            "<a>1</a",
            "<a>1",
            "<a",
            "<!a>1</!a>",
            "<?a>1</?a>",
            "</a>",
            "a",
            "",
        ] {
            let mut p = PullParser::new(doc);
            assert_eq!(p.leaf(), None, "{doc:?}");
            assert_eq!(p.offset(), 0, "{doc:?}");
        }
        // Not while a self-closing tag's End is still due.
        let mut p = PullParser::new("<r/><a>1</a>");
        p.next().unwrap();
        assert_eq!(p.leaf(), None);
        let mut p = PullParser::new("<r><a/>1</a></r>");
        p.next().unwrap();
        p.next().unwrap();
        assert_eq!(p.text_content().unwrap(), "");
        assert_eq!(p.next().unwrap(), Event::Text("1".into()));
        assert!(p.next().is_err(), "</a> does not close <r>");
    }

    #[test]
    fn attribute_errors_reported() {
        assert!(PullParser::new("<a b>").next().is_err());
        assert!(PullParser::new("<a b=c>").next().is_err());
        assert!(PullParser::new("<a b=\"c>").next().is_err());
    }

    #[test]
    fn text_outside_root_rejected() {
        let mut p = PullParser::new("junk<a/>");
        assert!(p.next().is_err());
    }
}
