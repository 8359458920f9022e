//! XML document writer with automatic escaping and optional
//! pretty-printing.

use crate::escape::{escape_attr_into, escape_text_into};

/// Builds an XML document into an internal `String`.
///
/// Elements are balanced by the writer ([`XmlWriter::end`] pops the last
/// open element), so output is well-formed by construction.
pub struct XmlWriter {
    buf: String,
    stack: Vec<String>,
    pretty: bool,
    /// Whether the most recent output inside the current element was a
    /// child element (controls closing-tag indentation in pretty mode).
    had_children: Vec<bool>,
}

impl XmlWriter {
    /// A compact writer (no insignificant whitespace) — the form used on
    /// the wire, where document size is part of what is measured.
    pub fn new() -> Self {
        XmlWriter {
            buf: String::new(),
            stack: Vec::new(),
            pretty: false,
            had_children: Vec::new(),
        }
    }

    /// A pretty-printing writer (2-space indent) for human-facing output
    /// such as the SVG documents of the remote-visualization app.
    pub fn pretty() -> Self {
        XmlWriter {
            buf: String::new(),
            stack: Vec::new(),
            pretty: true,
            had_children: Vec::new(),
        }
    }

    /// Emits the XML declaration. Call before any element.
    pub fn declaration(&mut self) -> &mut Self {
        self.buf
            .push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if self.pretty {
            self.buf.push('\n');
        }
        self
    }

    fn indent(&mut self) {
        if self.pretty {
            for _ in 0..self.stack.len() {
                self.buf.push_str("  ");
            }
        }
    }

    fn mark_child(&mut self) {
        if let Some(flag) = self.had_children.last_mut() {
            *flag = true;
        }
    }

    /// Opens `<name>`.
    pub fn start(&mut self, name: &str) -> &mut Self {
        self.start_with(name, &[])
    }

    /// Opens `<name a="v" …>` with escaped attribute values.
    pub fn start_with(&mut self, name: &str, attrs: &[(&str, &str)]) -> &mut Self {
        self.mark_child();
        self.indent();
        self.buf.push('<');
        self.buf.push_str(name);
        for (k, v) in attrs {
            self.buf.push(' ');
            self.buf.push_str(k);
            self.buf.push_str("=\"");
            escape_attr_into(v, &mut self.buf);
            self.buf.push('"');
        }
        self.buf.push('>');
        if self.pretty {
            self.buf.push('\n');
        }
        self.stack.push(name.to_string());
        self.had_children.push(false);
        self
    }

    /// Emits a self-closing `<name a="v"/>` element.
    pub fn empty(&mut self, name: &str, attrs: &[(&str, &str)]) -> &mut Self {
        self.mark_child();
        self.indent();
        self.buf.push('<');
        self.buf.push_str(name);
        for (k, v) in attrs {
            self.buf.push(' ');
            self.buf.push_str(k);
            self.buf.push_str("=\"");
            escape_attr_into(v, &mut self.buf);
            self.buf.push('"');
        }
        self.buf.push_str("/>");
        if self.pretty {
            self.buf.push('\n');
        }
        self
    }

    /// Emits escaped character data.
    pub fn text(&mut self, text: &str) -> &mut Self {
        if self.pretty {
            self.mark_child();
            self.indent();
        }
        escape_text_into(text, &mut self.buf);
        if self.pretty {
            self.buf.push('\n');
        }
        self
    }

    /// Emits pre-escaped/raw markup verbatim. The caller is responsible
    /// for well-formedness of `raw`.
    pub fn raw(&mut self, raw: &str) -> &mut Self {
        self.mark_child();
        self.buf.push_str(raw);
        self
    }

    /// Convenience: `<name>text</name>` on one line.
    pub fn leaf(&mut self, name: &str, text: &str) -> &mut Self {
        self.mark_child();
        self.indent();
        self.buf.push('<');
        self.buf.push_str(name);
        self.buf.push('>');
        escape_text_into(text, &mut self.buf);
        self.buf.push_str("</");
        self.buf.push_str(name);
        self.buf.push('>');
        if self.pretty {
            self.buf.push('\n');
        }
        self
    }

    /// Closes the most recently opened element.
    ///
    /// # Panics
    /// Panics if no element is open — that is a program bug, not an input
    /// error.
    pub fn end(&mut self) -> &mut Self {
        let name = self
            .stack
            .pop()
            .expect("XmlWriter::end with no open element");
        self.had_children.pop();
        self.indent();
        self.buf.push_str("</");
        self.buf.push_str(&name);
        self.buf.push('>');
        if self.pretty {
            self.buf.push('\n');
        }
        self
    }

    /// Finishes the document, closing any still-open elements, and returns
    /// the buffer.
    pub fn finish(mut self) -> String {
        while !self.stack.is_empty() {
            self.end();
        }
        self.buf
    }

    /// Current length in bytes of the buffered document.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Default for XmlWriter {
    fn default() -> Self {
        XmlWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{Event, PullParser};

    #[test]
    fn compact_output() {
        let mut w = XmlWriter::new();
        w.start("a")
            .start_with("b", &[("x", "1")])
            .text("hi")
            .end()
            .empty("c", &[]);
        assert_eq!(w.finish(), "<a><b x=\"1\">hi</b><c/></a>");
    }

    #[test]
    fn attrs_and_text_escaped() {
        let mut w = XmlWriter::new();
        w.start_with("a", &[("k", "<\"&>")]).text("1 < 2 & 3");
        assert_eq!(
            w.finish(),
            "<a k=\"&lt;&quot;&amp;&gt;\">1 &lt; 2 &amp; 3</a>"
        );
    }

    #[test]
    fn finish_closes_open_elements() {
        let mut w = XmlWriter::new();
        w.start("a").start("b").start("c");
        assert_eq!(w.finish(), "<a><b><c></c></b></a>");
    }

    #[test]
    fn leaf_shorthand() {
        let mut w = XmlWriter::new();
        w.start("r").leaf("n", "v&v");
        assert_eq!(w.finish(), "<r><n>v&amp;v</n></r>");
    }

    #[test]
    fn pretty_indents() {
        let mut w = XmlWriter::pretty();
        w.declaration();
        w.start("a").leaf("b", "x");
        let out = w.finish();
        assert!(out.starts_with("<?xml"));
        assert!(out.contains("\n  <b>x</b>\n"));
    }

    #[test]
    fn writer_output_reparses() {
        let mut w = XmlWriter::new();
        w.declaration();
        w.start_with("root", &[("a", "v<1>")])
            .leaf("child", "text & more")
            .empty("e", &[("q", "'")]);
        let doc = w.finish();
        let mut p = PullParser::new(&doc);
        let mut n = 0;
        loop {
            match p.next().unwrap() {
                Event::Eof => break,
                Event::Start {
                    name: "root",
                    attrs,
                } => {
                    assert_eq!(attrs[0].1, "v<1>");
                    n += 1;
                }
                Event::Text(t) if t == "text & more" => n += 1,
                _ => {}
            }
        }
        assert_eq!(n, 2);
    }

    #[test]
    #[should_panic(expected = "no open element")]
    fn unbalanced_end_panics() {
        XmlWriter::new().end();
    }
}
