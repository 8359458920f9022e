//! Shared support for the figure/table regeneration binaries.
//!
//! Each binary regenerates one experiment from the paper's §IV (see
//! DESIGN.md §3 for the index). The split of responsibilities is:
//! CPU-side costs (marshalling, conversion, compression) are *measured*
//! with `Instant`; link-side costs are *computed* by `sbq-netsim`'s
//! deterministic link models (the substitution for the paper's physical
//! 100 Mbps / ADSL testbed).

pub mod loadgen;
pub mod report;

use sbq_http::Request;
use sbq_model::Value;
use sbq_netsim::LinkSpec;
use sbq_pbio::{FormatDesc, PbioEndpoint};
use std::time::{Duration, Instant};

/// PBIO format options matching the paper's testbed: 32-bit native ints
/// (2.2 GHz Pentium IV / SPARC era), 64-bit doubles, host byte order.
/// The encoded-size ratios of §IV-B (XML ≈ 4-5x PBIO for arrays) assume
/// this native int width.
pub fn paper_format_options() -> sbq_pbio::format::FormatOptions {
    sbq_pbio::format::FormatOptions {
        byte_order: sbq_pbio::ByteOrder::native(),
        int_width: 4,
        float_width: 8,
    }
}

/// Measures the minimum wall time of `f` over `iters` runs (minimum
/// suppresses scheduler noise, matching the paper's discard-cold-start
/// averaging in spirit).
pub fn time_min<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        std::hint::black_box(out);
        if dt < best {
            best = dt;
        }
    }
    best
}

/// The median of `xs` (the upper one of an even count).
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = xs.into_iter().collect();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// HTTP framing overhead in bytes for a POST carrying `body_len` payload
/// bytes (request side), as actually produced by the `sbq-http` client.
pub fn http_request_overhead(body_len: usize) -> usize {
    let req = Request::post("/service", sbq_http::PBIO_CONTENT_TYPE, vec![0; body_len]);
    req.wire_len() - body_len
}

/// One-way simulated transfer time for `bytes` over a quiet `link`.
pub fn transfer(link: &LinkSpec, bytes: usize) -> Duration {
    link.transfer_time(bytes, 1.0)
}

/// The PBIO wire size of a value under a format, including the data
/// message framing but *excluding* the one-time registration message.
pub fn pbio_wire_size(value: &Value, format: &FormatDesc) -> usize {
    let server = std::sync::Arc::new(sbq_pbio::FormatServer::new());
    let mut ep = PbioEndpoint::new(server);
    let msgs = ep.send(value, format).expect("benchmark values encode");
    msgs.last().expect("data message present").wire_len()
}

/// The registration-message size for a format (the first-message
/// handshake cost).
pub fn pbio_registration_size(format: &FormatDesc) -> usize {
    9 + format.to_bytes().len()
}

/// Formats a `Duration` in adaptive units for table output.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:8.1}us")
    } else if us < 1_000_000.0 {
        format!("{:8.2}ms", us / 1e3)
    } else {
        format!("{:8.3}s ", us / 1e6)
    }
}

/// Formats a byte count with thousands separators.
pub fn fmt_bytes(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Prints a rule-of-dashes header row.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", cols.join(" | "));
    println!(
        "{}",
        "-".repeat(cols.iter().map(|c| c.len() + 3).sum::<usize>().max(20))
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbq_model::workload;
    use sbq_pbio::format::FormatOptions;

    #[test]
    fn overheads_are_plausible() {
        let o = http_request_overhead(1000);
        assert!((60..400).contains(&o), "{o}");
    }

    #[test]
    fn pbio_sizes_count_framing() {
        let ty = sbq_model::TypeDesc::list_of(sbq_model::TypeDesc::Int);
        let f = FormatDesc::from_type(&ty, FormatOptions::default()).unwrap();
        let v = workload::int_array(100, 1);
        assert_eq!(pbio_wire_size(&v, &f), 9 + 4 + 800);
        assert!(pbio_registration_size(&f) > 9);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(1234567), "1,234,567");
        assert!(fmt_dur(Duration::from_micros(5)).contains("us"));
        assert!(fmt_dur(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_dur(Duration::from_secs(5)).contains('s'));
    }

    #[test]
    fn time_min_is_monotone_floor() {
        let d = time_min(3, || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
    }
}
