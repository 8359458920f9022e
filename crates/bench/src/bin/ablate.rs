//! Ablations over SOAP-binQ's design choices. Not a paper artifact —
//! each section switches off (or re-parameterizes) one mechanism and
//! shows what it buys:
//!
//! 1. oscillation damping (history window size, §IV-C.h);
//! 2. estimator choice (EWMA vs Jacobson/Karels, §IV-C.h future work);
//! 3. the LZ entropy stage (2004-era plain LZ vs LZSS+Huffman);
//! 4. conversion-plan caching (PBIO's compiled-conversion reuse);
//! 5. persistent vs per-call HTTP connections (the Fig. 4 gap).

use sbq_bench::*;
use sbq_imaging::{image_quality_file, install_resize_handlers};
use sbq_model::workload;
use sbq_netsim::{CrossTraffic, LinkSpec, SimLink};
use sbq_pbio::{plan, ConversionPlan, FormatDesc};
use sbq_qos::{QualityManager, RttEstimatorKind, SwitchPolicy};
use soap_binq::marshal;
use std::time::Duration;

const FULL_IMG: usize = 640 * 480 * 3;
const HALF_IMG: usize = 320 * 240 * 3;

fn imaging_run(policy: SwitchPolicy, kind: RttEstimatorKind) -> (f64, f64, u64) {
    imaging_run_with(
        policy,
        kind,
        CrossTraffic::square_wave(Duration::from_secs(40), Duration::from_secs(20), 0.92),
        0.25,
    )
}

/// A constant medium load that parks the full-resolution RTT right at the
/// 200 ms policy boundary — the oscillation trap of §IV-C.h.
fn boundary_hover_run(policy: SwitchPolicy) -> (f64, f64, u64) {
    imaging_run_with(
        policy,
        RttEstimatorKind::Ewma,
        CrossTraffic::staircase(Duration::from_secs(1000), &[0.65]),
        0.30,
    )
}

fn imaging_run_with(
    policy: SwitchPolicy,
    kind: RttEstimatorKind,
    cross: CrossTraffic,
    jitter_amp: f64,
) -> (f64, f64, u64) {
    let mut link = SimLink::new(LinkSpec::lan_100mbps())
        .with_cross_traffic(cross)
        .with_jitter(7, jitter_amp);
    let mut qm = QualityManager::with_parts(
        image_quality_file(200.0),
        policy,
        Default::default(),
        Default::default(),
    )
    .with_estimator(kind);
    install_resize_handlers(qm.handlers());

    let mut times = Vec::new();
    while link.now() < Duration::from_secs(120) {
        let half = qm.select().message_type == "image_half";
        let bytes = if half { HALF_IMG } else { FULL_IMG };
        let server = Duration::from_millis(5);
        let rtt = link.request_response(200, bytes + 300, server);
        qm.observe_rtt(rtt, server);
        times.push(rtt.as_secs_f64() * 1e3);
        link.advance(Duration::from_millis(500));
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let jitter =
        times.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (times.len() - 1) as f64;
    (mean, jitter, qm.switches())
}

fn main() {
    println!("Ablations");

    // 1. History window, in the oscillation trap: RTT parked at the band
    //    boundary. §IV-C.h: "this approach may cause SOAP-binQ to
    //    oscillate between two message types … A simple history-based
    //    mechanism … is used to prevent this."
    header(
        "1. oscillation damping (RTT hovering at the 200 ms boundary)",
        &["confirm_count", "mean (ms)", "jitter (ms)", "band switches"],
    );
    for confirm in [1usize, 3, 5, 8] {
        let policy = SwitchPolicy {
            degrade_immediately: true,
            confirm_count: confirm,
        };
        let (mean, jitter, switches) = boundary_hover_run(policy);
        println!("{confirm:>13} | {mean:9.1} | {jitter:11.1} | {switches:13}");
    }

    // 2. Estimator.
    header(
        "2. estimator choice (same scenario)",
        &["estimator", "mean (ms)", "jitter (ms)", "band switches"],
    );
    for (name, kind) in [
        ("ewma 0.875", RttEstimatorKind::Ewma),
        ("jacobson", RttEstimatorKind::Jacobson),
    ] {
        let (mean, jitter, switches) = imaging_run(SwitchPolicy::default(), kind);
        println!("{name:>13} | {mean:9.1} | {jitter:11.1} | {switches:13}");
    }

    // 3. LZ entropy stage.
    header(
        "3. LZ entropy stage (array XML, 8Ki ints)",
        &["codec", "bytes", "vs plain", "comp time"],
    );
    let xml = marshal::value_to_xml(&workload::int_array(8192, 1), "p");
    let raw_t = time_min(8, || sbq_lz::compress_lzss_only(xml.as_bytes()));
    let raw = sbq_lz::compress_lzss_only(xml.as_bytes());
    let full_t = time_min(8, || sbq_lz::compress(xml.as_bytes()));
    let full = sbq_lz::compress(xml.as_bytes());
    println!(
        "{:>13} | {:>9} | {:>8} | {}",
        "lzss only",
        fmt_bytes(raw.len()),
        format!("{:4.2}x", xml.len() as f64 / raw.len() as f64),
        fmt_dur(raw_t)
    );
    println!(
        "{:>13} | {:>9} | {:>8} | {}",
        "lzss+huffman",
        fmt_bytes(full.len()),
        format!("{:4.2}x", xml.len() as f64 / full.len() as f64),
        fmt_dur(full_t)
    );

    // 4. Conversion-plan caching.
    header(
        "4. conversion-plan caching (1000 messages, struct d6)",
        &["strategy", "total time", "per message"],
    );
    let ty = workload::business_struct_type(6);
    let wire = FormatDesc::from_type(&ty, paper_format_options()).unwrap();
    let native = FormatDesc::from_type(&ty, Default::default()).unwrap();
    let payload = plan::encode(&workload::business_struct(6, 1), &wire).unwrap();
    let n = 1000;
    let cached = time_min(3, || {
        let plan = ConversionPlan::compile(&wire, &native).unwrap();
        for _ in 0..n {
            std::hint::black_box(plan.execute(&payload).unwrap());
        }
    });
    let uncached = time_min(3, || {
        for _ in 0..n {
            let plan = ConversionPlan::compile(&wire, &native).unwrap();
            std::hint::black_box(plan.execute(&payload).unwrap());
        }
    });
    println!(
        "{:>13} | {} | {}",
        "cached plan",
        fmt_dur(cached),
        fmt_dur(cached / n)
    );
    println!(
        "{:>13} | {} | {}",
        "recompiled",
        fmt_dur(uncached),
        fmt_dur(uncached / n)
    );
    println!(
        "{:>13} | plan reuse saves {:4.1}x",
        "",
        uncached.as_secs_f64() / cached.as_secs_f64()
    );

    // 5. Persistent vs per-call HTTP.
    header(
        "5. HTTP connection reuse (struct d4, 100Mbps model)",
        &["transport", "per call", "notes"],
    );
    let link = LinkSpec::lan_100mbps();
    let ty = workload::business_struct_type(4);
    let f = FormatDesc::from_type(&ty, paper_format_options()).unwrap();
    let v = workload::business_struct(4, 1);
    let bytes = plan::encode(&v, &f).unwrap();
    let decoder = ConversionPlan::identity(&f);
    let cpu = time_min(20, || plan::encode(&v, &f).unwrap())
        + time_min(20, || decoder.execute(&bytes).unwrap());
    let wire = bytes.len() + 9 + http_request_overhead(bytes.len());
    let persistent = cpu + transfer(&link, wire);
    let per_call = persistent + 3 * link.latency;
    println!(
        "{:>13} | {} | keep-alive (this repo's default)",
        "persistent",
        fmt_dur(persistent)
    );
    println!(
        "{:>13} | {} | +TCP setup per call (2001-era Soup; drives Fig. 4's struct gap)",
        "per-call",
        fmt_dur(per_call)
    );
}
