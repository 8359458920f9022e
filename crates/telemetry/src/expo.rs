//! Exposition: rendering a registry as text or JSON, and a validating
//! parser for the text form.
//!
//! ## Text format
//!
//! Prometheus-style exposition. Dotted metric names are rewritten to
//! underscore form; counters and gauges emit one sample line, histograms
//! emit summary quantiles plus `_sum`/`_count`/`_max`:
//!
//! ```text
//! # TYPE http_requests_post counter
//! http_requests_post 42
//! # TYPE qos_rtt_us summary
//! qos_rtt_us{quantile="0.5"} 180
//! qos_rtt_us{quantile="0.9"} 410
//! qos_rtt_us{quantile="0.99"} 900
//! qos_rtt_us_sum 12345
//! qos_rtt_us_count 57
//! qos_rtt_us_max 1021 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 1021
//! ```
//!
//! The `# {trace_id="…"} value` suffix is an OpenMetrics-style
//! **exemplar**: the trace id of a recent tail sample, linking the
//! histogram's worst bucket to a concrete span in `/trace.json`. It is
//! emitted on the `_max` line when the histogram has captured one.
//!
//! [`parse_text`] accepts exactly this grammar and is what the CI smoke
//! check runs against a live `/metrics` endpoint.
//!
//! ## JSON format
//!
//! One object with `counters`, `gauges`, and `histograms` maps (original
//! dotted names); each histogram carries
//! `count/sum/mean/max/p50/p90/p99`. `BENCH_*.json` artifacts reuse this
//! histogram shape.

use crate::RegistryInner;

fn text_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c == '.' || c == '-' { '_' } else { c })
        .collect();
    // A registered name may legally start with a digit (a dynamic
    // message-type like `client.msgtype.4k_frame` sanitizes to one);
    // Prometheus names may not. Prefix so the exposition always
    // round-trips through parse_text.
    if !out
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
    {
        out.insert(0, '_');
    }
    out
}

pub(crate) fn render_text(inner: &RegistryInner) -> String {
    let mut out = String::with_capacity(1024);
    for (name, cell) in crate::read(&inner.counters).iter() {
        let n = text_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {}\n", cell.get()));
    }
    for (name, cell) in crate::read(&inner.gauges).iter() {
        let n = text_name(name);
        let g = crate::Gauge(Some(std::sync::Arc::clone(cell)));
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", g.get()));
    }
    for (name, cell) in crate::read(&inner.histograms).iter() {
        let n = text_name(name);
        let s = cell.snapshot();
        out.push_str(&format!("# TYPE {n} summary\n"));
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            out.push_str(&format!("{n}{{quantile=\"{label}\"}} {}\n", s.quantile(q)));
        }
        out.push_str(&format!("{n}_sum {}\n", s.sum));
        out.push_str(&format!("{n}_count {}\n", s.count));
        match cell.exemplars().first() {
            Some(e) => out.push_str(&format!(
                "{n}_max {} # {{trace_id=\"{:032x}\"}} {}\n",
                s.max, e.trace_id, e.value
            )),
            None => out.push_str(&format!("{n}_max {}\n", s.max)),
        }
    }
    out
}

/// Escapes `s` for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    // Registered names are sanitized to [A-Za-z0-9._-], but escape anyway
    // so this writer is safe for any caller.
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one histogram snapshot as the JSON object used both by
/// `/metrics.json` and by `BENCH_*.json` artifacts.
pub fn histogram_json(s: &crate::HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        s.count,
        s.sum,
        s.mean(),
        s.max,
        s.quantile(0.5),
        s.quantile(0.9),
        s.quantile(0.99)
    )
}

pub(crate) fn render_json(inner: &RegistryInner) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"enabled\":true,\"counters\":{");
    for (i, (name, cell)) in crate::read(&inner.counters).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json_escape(name), cell.get()));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, cell)) in crate::read(&inner.gauges).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let g = crate::Gauge(Some(std::sync::Arc::clone(cell)));
        out.push_str(&format!("\"{}\":{}", json_escape(name), g.get()));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, cell)) in crate::read(&inner.histograms).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut h = histogram_json(&cell.snapshot());
        let exemplars = cell.exemplars();
        if !exemplars.is_empty() {
            // Splice an exemplars array into the standard histogram
            // object so BENCH artifacts keep their unchanged shape.
            h.pop(); // trailing '}'
            h.push_str(",\"exemplars\":[");
            for (j, e) in exemplars.iter().enumerate() {
                if j > 0 {
                    h.push(',');
                }
                h.push_str(&format!(
                    "{{\"value\":{},\"trace_id\":\"{:032x}\"}}",
                    e.value, e.trace_id
                ));
            }
            h.push_str("]}");
        }
        out.push_str(&format!("\"{}\":{}", json_escape(name), h));
    }
    out.push_str("}}");
    out
}

/// One parsed sample line of the text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name in underscore form (quantile label stripped).
    pub name: String,
    /// The `quantile` label value, if the line carried one.
    pub quantile: Option<String>,
    /// The sample value.
    pub value: f64,
    /// An OpenMetrics-style exemplar, if the line carried one:
    /// the 32-hex-digit trace id and the exemplar's own value.
    pub exemplar: Option<(String, f64)>,
}

/// Validates text exposition and returns its samples. Errors name the
/// offending line — this is the malformed-exposition check the CI smoke
/// step relies on.
pub fn parse_text(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let words: Vec<&str> = comment.split_whitespace().collect();
            if words.first() == Some(&"TYPE")
                && !(words.len() == 3 && is_name(words[1]) && is_metric_type(words[2]))
            {
                return Err(format!("line {lineno}: malformed TYPE comment {line:?}"));
            }
            continue;
        }
        // Exemplar suffix: `<sample> # {trace_id="<32 hex>"} <value>`.
        let (line, exemplar) = match line.split_once(" # ") {
            None => (line, None),
            Some((sample, ex)) => {
                let tid = ex
                    .strip_prefix("{trace_id=\"")
                    .and_then(|r| r.split_once("\"} "))
                    .ok_or_else(|| format!("line {lineno}: malformed exemplar {ex:?}"))?;
                let (hex, ex_value) = tid;
                if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(format!("line {lineno}: bad exemplar trace id {hex:?}"));
                }
                let ex_value: f64 = ex_value
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad exemplar value {ex_value:?}"))?;
                (sample, Some((hex.to_string(), ex_value)))
            }
        };
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no value in {line:?}"))?;
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {lineno}: bad value {value_part:?}"))?;
        let (name, quantile) = match name_part.split_once('{') {
            None => (name_part.to_string(), None),
            Some((name, rest)) => {
                let q = rest
                    .strip_prefix("quantile=\"")
                    .and_then(|r| r.strip_suffix("\"}"))
                    .ok_or_else(|| format!("line {lineno}: malformed label in {line:?}"))?;
                if q.parse::<f64>().is_err() {
                    return Err(format!("line {lineno}: non-numeric quantile {q:?}"));
                }
                (name.to_string(), Some(q.to_string()))
            }
        };
        if !is_name(&name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        samples.push(Sample {
            name,
            quantile,
            value,
            exemplar,
        });
    }
    Ok(samples)
}

fn is_name(s: &str) -> bool {
    // Prometheus name grammar: [a-zA-Z_:][a-zA-Z0-9_:]*
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_metric_type(s: &str) -> bool {
    matches!(s, "counter" | "gauge" | "summary")
}

/// Validates that `s` is one complete, well-formed JSON value (RFC
/// 8259 grammar, no trailing garbage). This is the programmatic check
/// behind "`/trace.json` loads as valid Chrome trace JSON" — the bench
/// self-check and tests run it instead of eyeballing output in
/// `chrome://tracing`.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    parse_json_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_json_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err(format!("unexpected end of input at offset {pos}"));
    };
    match c {
        b'{' => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_json_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                parse_json_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        b'[' => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                parse_json_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        b'"' => parse_json_string(b, pos),
        b't' => parse_json_lit(b, pos, "true"),
        b'f' => parse_json_lit(b, pos, "false"),
        b'n' => parse_json_lit(b, pos, "null"),
        b'-' | b'0'..=b'9' => parse_json_number(b, pos),
        c => Err(format!("unexpected byte {c:#04x} at offset {pos}")),
    }
}

fn parse_json_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_json_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                let esc = b
                    .get(*pos + 1)
                    .ok_or_else(|| format!("dangling escape at offset {pos}"))?;
                match esc {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => *pos += 2,
                    b'u' => {
                        let hex = b
                            .get(*pos + 2..*pos + 6)
                            .ok_or_else(|| format!("short \\u escape at offset {pos}"))?;
                        if !hex.iter().all(|c| c.is_ascii_hexdigit()) {
                            return Err(format!("bad \\u escape at offset {pos}"));
                        }
                        *pos += 6;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control char at offset {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_json_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(pos) {
        return Err(format!("bad number at offset {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(format!("bad fraction at offset {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(format!("bad exponent at offset {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn populated() -> Registry {
        let reg = Registry::new();
        reg.counter("http.requests.post").add(42);
        reg.gauge("http.inflight").set(3);
        for v in 1..=100u64 {
            reg.histogram("qos.rtt_us").record(v * 10);
        }
        reg
    }

    #[test]
    fn text_round_trips_through_the_parser() {
        let text = populated().render_text();
        let samples = parse_text(&text).expect("own exposition parses");
        let get = |n: &str| samples.iter().find(|s| s.name == n && s.quantile.is_none());
        assert_eq!(get("http_requests_post").unwrap().value, 42.0);
        assert_eq!(get("http_inflight").unwrap().value, 3.0);
        assert_eq!(get("qos_rtt_us_count").unwrap().value, 100.0);
        assert_eq!(get("qos_rtt_us_max").unwrap().value, 1000.0);
        let p50 = samples
            .iter()
            .find(|s| s.name == "qos_rtt_us" && s.quantile.as_deref() == Some("0.5"))
            .unwrap();
        assert!((p50.value - 500.0).abs() / 500.0 <= 0.07, "{}", p50.value);
    }

    #[test]
    fn exemplars_render_and_round_trip() {
        let reg = Registry::new();
        let h = reg.histogram("http.request_ns");
        let tid = 0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736u128;
        h.record_with_exemplar(900_000, tid);
        let text = reg.render_text();
        assert!(
            text.contains("# {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 900000"),
            "{text}"
        );
        let samples = parse_text(&text).expect("exemplar exposition parses");
        let max = samples
            .iter()
            .find(|s| s.name == "http_request_ns_max")
            .unwrap();
        let (hex, v) = max.exemplar.as_ref().expect("max line carries exemplar");
        assert_eq!(hex, "4bf92f3577b34da6a3ce929d0e0e4736");
        assert_eq!(*v, 900_000.0);
        // JSON carries the same exemplar and still validates.
        let json = reg.render_json();
        assert!(
            json.contains("\"exemplars\":[{\"value\":900000,\"trace_id\":\"4bf92f3577b34da6a3ce929d0e0e4736\"}]"),
            "{json}"
        );
        validate_json(&json).expect("exemplar json validates");
        // Malformed exemplar suffixes are rejected.
        assert!(parse_text("m_max 5 # {trace_id=\"zz\"} 5\n").is_err());
        assert!(parse_text("m_max 5 # nonsense\n").is_err());
        assert!(
            parse_text("m_max 5 # {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} NaNope\n")
                .is_err()
        );
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(parse_text("no_value_here\n").is_err());
        assert!(parse_text("name not-a-number\n").is_err());
        assert!(parse_text("1leading_digit 5\n").is_err());
        assert!(parse_text("bad{label=\"x\"} 5\n").is_err());
        assert!(parse_text("# TYPE broken\n").is_err());
        assert!(parse_text("# TYPE name nonsense\n").is_err());
        assert!(parse_text("").is_ok());
        assert!(parse_text("# a free comment\nok_name 1\n").is_ok());
    }

    #[test]
    fn json_has_the_documented_shape() {
        let json = populated().render_json();
        assert!(json.starts_with("{\"enabled\":true,\"counters\":{"));
        assert!(json.contains("\"http.requests.post\":42"));
        assert!(json.contains("\"http.inflight\":3"));
        assert!(json.contains("\"qos.rtt_us\":{\"count\":100,"));
        assert!(json.contains("\"p50\":"));
        assert!(json.ends_with("}}"));
        // Balanced braces (cheap well-formedness check without a parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_registry_renders_validly() {
        let reg = Registry::new();
        assert!(parse_text(&reg.render_text()).unwrap().is_empty());
        assert_eq!(
            reg.render_json(),
            "{\"enabled\":true,\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn digit_leading_names_round_trip() {
        // Dynamic names (message types like `4k_frame`) sanitize to a
        // digit-leading registered name; the text form must still parse.
        let reg = Registry::new();
        reg.counter("client.msgtype.4k_frame").add(7);
        reg.counter("42bad").inc();
        reg.histogram("9.lead").record(5);
        let text = reg.render_text();
        let samples = parse_text(&text).expect("digit-leading names render parseably");
        assert!(samples
            .iter()
            .any(|s| s.name == "client_msgtype_4k_frame" && s.value == 7.0));
        assert!(samples.iter().any(|s| s.name == "_42bad"));
        assert!(samples.iter().any(|s| s.name == "_9_lead_count"));
    }

    #[test]
    fn colon_names_are_prometheus_legal() {
        assert!(parse_text("name:sub 1\n").is_ok());
        assert!(parse_text(":rule 2\n").is_ok());
    }

    #[test]
    fn validate_json_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            " { \"a\" : [1, -2.5e3, true, false, null, \"s\\n\\u00e9\"] } ",
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"ph\":\"X\"}]}",
            "3.14",
            "\"lone string\"",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good:?}: {e}"));
        }
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "{'a':1}",
            "{\"a\":1}tail",
            "nul",
            "01e",
            "\"unterminated",
            "\"bad\\escape\"",
            "\"ctrl\u{1}char\"",
            "{\"a\":+1}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn metrics_json_passes_the_validator() {
        validate_json(&populated().render_json()).expect("metrics json validates");
    }

    /// Property-style round-trip: a randomized registry (hostile names
    /// included) must render to text that parses, and re-render from
    /// the same registry identically. 64 seeded cases.
    #[test]
    fn random_registries_render_parse_render() {
        use sbq_runtime::rand::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x5b9);
        let alphabet: Vec<char> = "abzAZ059._-:{}\"\\ \n\téπ♞".chars().collect();
        for case in 0..64 {
            let mut rng = rng.split();
            let reg = Registry::new();
            let n_metrics = 1 + rng.gen_below(12) as usize;
            for _ in 0..n_metrics {
                let len = 1 + rng.gen_below(24) as usize;
                let name: String = (0..len)
                    .map(|_| alphabet[rng.gen_below(alphabet.len() as u64) as usize])
                    .collect();
                match rng.gen_below(3) {
                    0 => reg.counter(&name).add(rng.gen_below(1 << 40)),
                    1 => reg.gauge(&name).set(rng.gen_range(-(1 << 30), 1 << 30)),
                    _ => {
                        let h = reg.histogram(&name);
                        for _ in 0..rng.gen_below(20) {
                            h.record(rng.gen_below(1 << 32));
                        }
                    }
                }
            }
            let text1 = reg.render_text();
            let parsed = parse_text(&text1)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n--- exposition ---\n{text1}"));
            assert!(!parsed.is_empty(), "case {case}: no samples");
            let text2 = reg.render_text();
            assert_eq!(text1, text2, "case {case}: render not deterministic");
            validate_json(&reg.render_json()).unwrap_or_else(|e| panic!("case {case} json: {e}"));
        }
    }
}
