//! XML entity escaping and unescaping.
//!
//! The escape path is span-based: a vectorized scan
//! ([`sbq_runtime::simd::escape_scan`], SSE2/AVX2 compare + movemask over
//! 16/32-byte blocks) finds the next byte needing an entity, the clean
//! span before it is appended with one `push_str` (memcpy), and only the
//! special byte itself goes through the entity table. Typical payloads
//! (numbers, base64-ish text) are entity-free, so the whole string moves
//! at memcpy speed instead of char-by-char.

use sbq_runtime::simd;
use std::borrow::Cow;

/// Escapes text content: `&`, `<`, `>`.
pub fn escape_text(s: &str) -> String {
    let mut out = String::new();
    escape_text_into(s, &mut out);
    out
}

/// Escapes attribute values: `&`, `<`, `>`, `"`, `'`.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::new();
    escape_attr_into(s, &mut out);
    out
}

/// Appends text-escaped `s` to `out` without an intermediate `String`
/// (the writer hot path).
pub fn escape_text_into(s: &str, out: &mut String) {
    escape_into(s, false, out)
}

/// Appends attribute-escaped `s` to `out` without an intermediate
/// `String`.
pub fn escape_attr_into(s: &str, out: &mut String) {
    escape_into(s, true, out)
}

fn escape_into(s: &str, attr: bool, out: &mut String) {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let clean = simd::escape_scan(&bytes[i..], attr);
        // The scan stops only on single-byte ASCII specials, so both the
        // clean span and the remainder stay on UTF-8 char boundaries.
        out.push_str(&s[i..i + clean]);
        i += clean;
        if i == bytes.len() {
            break;
        }
        match bytes[i] {
            b'&' => out.push_str("&amp;"),
            b'<' => out.push_str("&lt;"),
            b'>' => out.push_str("&gt;"),
            b'"' => out.push_str("&quot;"),
            b'\'' => out.push_str("&apos;"),
            other => unreachable!("escape_scan stopped on non-special byte {other:#x}"),
        }
        i += 1;
    }
}

/// Longest entity body this decoder will look for between `&` and `;`.
/// The longest decodable references are well under this (`quot`/`apos` at
/// 4 chars, `#x0010FFFF` at 10 with leading zeros); the bound exists so a
/// `&` is never followed by an unbounded scan for a `;` that is not there
/// — without it, text of N ampersands and no semicolons costs O(N²).
const MAX_ENTITY_LEN: usize = 16;

/// Decodes the five predefined entities plus decimal (`&#NN;`) and hex
/// (`&#xNN;`) character references. Unknown or malformed references are
/// passed through verbatim (lenient, like Expat in non-validating mode
/// with external entity handling disabled). Entity-free input comes back
/// borrowed.
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            // `&` and `;` are single-byte in UTF-8, so a byte-window scan
            // cannot split a multi-byte character.
            let window_end = (i + 1 + MAX_ENTITY_LEN + 1).min(bytes.len());
            let end = bytes[i + 1..window_end]
                .iter()
                .position(|&b| b == b';')
                .map(|e| i + 1 + e);
            if let Some(end) = end {
                let ent = &s[i + 1..end];
                let decoded = match ent {
                    "amp" => Some('&'),
                    "lt" => Some('<'),
                    "gt" => Some('>'),
                    "quot" => Some('"'),
                    "apos" => Some('\''),
                    _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                        u32::from_str_radix(&ent[2..], 16)
                            .ok()
                            .and_then(char::from_u32)
                    }
                    _ if ent.starts_with('#') => {
                        ent[1..].parse::<u32>().ok().and_then(char::from_u32)
                    }
                    _ => None,
                };
                if let Some(c) = decoded {
                    out.push(c);
                    i = end + 1;
                    continue;
                }
            }
        }
        // Not a reference start (or malformed): copy the full char.
        let c = s[i..].chars().next().expect("in-bounds index");
        out.push(c);
        i += c.len_utf8();
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_escaping_covers_markup_chars() {
        assert_eq!(escape_text("a<b>&c"), "a&lt;b&gt;&amp;c");
        assert_eq!(escape_text("plain"), "plain");
        // Quotes untouched in text context.
        assert_eq!(escape_text("\"q'\""), "\"q'\"");
    }

    #[test]
    fn attr_escaping_covers_quotes() {
        assert_eq!(escape_attr("a\"b'c"), "a&quot;b&apos;c");
    }

    #[test]
    fn unescape_inverts_escape() {
        let s = "x < y && z > \"w\" 'v'";
        assert_eq!(unescape(&escape_attr(s)), s);
        assert_eq!(unescape(&escape_text(s)), s);
    }

    #[test]
    fn numeric_references_decode() {
        assert_eq!(unescape("&#65;&#x42;&#x63;"), "ABc");
        assert_eq!(unescape("snowman &#9731;!"), "snowman ☃!");
    }

    #[test]
    fn malformed_references_pass_through() {
        assert_eq!(unescape("&unknown; &#zz; &"), "&unknown; &#zz; &");
        assert_eq!(unescape("a & b"), "a & b");
        // A reference body longer than any decodable entity passes through
        // even though a `;` exists further out.
        let long = format!("&{};", "x".repeat(200));
        assert_eq!(unescape(&long), long);
    }

    #[test]
    fn pathological_ampersand_flood_is_linear() {
        // 100k ampersands with no semicolon anywhere: the bounded window
        // keeps this O(n·k) instead of O(n²). The old unbounded scan took
        // ~10^10 byte comparisons here; the assertion is a generous
        // wall-clock ceiling that the quadratic version cannot meet.
        let s = "&".repeat(100_000);
        let t0 = std::time::Instant::now();
        assert_eq!(unescape(&s), s);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "unescape took {:?} on a 100k-ampersand flood",
            t0.elapsed()
        );
        // Same flood, but every reference is valid: still linear, decodes.
        let s = "&amp;".repeat(100_000);
        let t0 = std::time::Instant::now();
        assert_eq!(unescape(&s), "&".repeat(100_000));
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn unicode_survives() {
        let s = "héllo ☃ < 世界";
        assert_eq!(unescape(&escape_text(s)), s);
    }

    /// Reference char-by-char implementation pinning the span-scan
    /// rewrite's semantics.
    fn escape_reference(s: &str, attr: bool) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' if attr => out.push_str("&quot;"),
                '\'' if attr => out.push_str("&apos;"),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn span_scan_matches_char_by_char_reference() {
        let mut rng = sbq_runtime::SmallRng::seed_from_u64(0xe5c);
        let alphabet: Vec<char> = "abcdefghijklmnop &<>\"'é☃".chars().collect();
        for len in [0usize, 1, 15, 16, 17, 33, 100, 4097] {
            let s: String = (0..len)
                .map(|_| alphabet[rng.gen_below(alphabet.len() as u64) as usize])
                .collect();
            assert_eq!(
                escape_text(&s),
                escape_reference(&s, false),
                "text len={len}"
            );
            assert_eq!(
                escape_attr(&s),
                escape_reference(&s, true),
                "attr len={len}"
            );
        }
    }

    #[test]
    fn into_variants_append_without_clobbering() {
        let mut out = String::from("<x>");
        escape_text_into("a&b", &mut out);
        assert_eq!(out, "<x>a&amp;b");
        escape_attr_into("\"q\"", &mut out);
        assert_eq!(out, "<x>a&amp;b&quot;q&quot;");
    }

    #[test]
    fn long_clean_spans_pass_through_untouched() {
        let clean = "x".repeat(100_000);
        assert_eq!(escape_text(&clean), clean);
        let mut dirty = clean.clone();
        dirty.push('<');
        dirty.push_str(&clean);
        assert_eq!(dirty.len() + "&lt;".len() - 1, escape_text(&dirty).len());
    }
}
