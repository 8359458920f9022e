//! Runtime health benchmark: the loop-lag watchdog, SLO burn rates, and
//! trace exemplars exercised through the real reactor, self-checked over
//! the live endpoints.
//!
//! Four phases against one event-driven server:
//!
//! 1. **Baseline** — a request train over loopback; near its end a
//!    [`FaultSchedule::stall_event_loop`] freezes the reactor thread for
//!    400 ms. The watchdog must latch `reactor.stalled`, count exactly
//!    one episode in `reactor.stalls`, clear on the next on-time beat,
//!    and leave `reactor.stall` / `reactor.recovered` entries in the
//!    `/statusz` slowlog.
//! 2. **Exemplars** — the stalled request dominates the
//!    `http.request_us` tail, so the `/metrics` exposition's `_max` line
//!    must carry a trace-id exemplar that resolves to a span in the live
//!    `/trace.json` export.
//! 3. **Overload** — the handler starts failing every other call; the
//!    availability burn must push `/statusz` to 503 / `"ready":false`.
//! 4. **Recovery** — the handler heals and a flood of good calls dilutes
//!    both burn windows until `/statusz` reads 200 / `"ready":true`.
//!
//! Any failed check exits nonzero. Loop-lag p50/p99, the request-latency
//! histogram, peak RSS, and the recovery cost go to `BENCH_health.json`.
//!
//! ```sh
//! cargo run --release -p sbq-bench --bin health [-- --short]
//! ```
//!
//! `--short` (or `BENCH_SHORT=1`) shrinks the request trains for CI.

use sbq_bench::loadgen;
use sbq_bench::report::{short_mode, Bound, Report};
use sbq_bench::{fmt_dur, header};
use sbq_http::{FaultSchedule, HttpClient, HttpServer, Response, ServerConfig};
use sbq_telemetry::{HealthConfig, Registry, SloConfig, TraceConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STALL: Duration = Duration::from_millis(400);

fn main() {
    let short = short_mode();
    let mut report = Report::new("health", "BENCH_health.json", short);
    let baseline_n: usize = if short { 200 } else { 1000 };

    let reg = Registry::new();
    // The exemplar self-check resolves a trace id recorded during the
    // baseline against the flight recorder *after* the later phases have
    // also traced; size the ring so the whole run fits.
    reg.set_trace_config(TraceConfig::new().capacity(64 * 1024));

    // `failing` flips the handler into its overload persona: every other
    // call answers 500, torching the availability budget.
    let failing = Arc::new(AtomicBool::new(false));
    let calls = Arc::new(AtomicU64::new(0));
    let (f, n) = (Arc::clone(&failing), Arc::clone(&calls));
    let config = ServerConfig::default()
        .worker_threads(2)
        .telemetry(reg.clone())
        .health(
            HealthConfig::new()
                // 99.9% availability, red at 10x burn: an error rate
                // past 1% in both the 1m and 5m windows turns /statusz
                // unready; a flood of good calls dilutes it back.
                .slo(SloConfig::new().availability_target(0.999).red_burn(10.0))
                .loop_lag_budget(Duration::from_millis(100))
                .heartbeat_period(Duration::from_millis(25))
                .proc_sample_interval(Duration::from_millis(200)),
        )
        // The one fault the non-blocking design forbids by construction,
        // injected deliberately near the end of the baseline train.
        .faults(FaultSchedule::new().stall_event_loop(baseline_n as u64 - 20, STALL));
    let handle = HttpServer::bind_with("127.0.0.1:0".parse().unwrap(), config, move |req| {
        if f.load(Ordering::Relaxed) && n.fetch_add(1, Ordering::Relaxed) % 2 == 0 {
            Response::with_status(
                500,
                "Internal Server Error",
                "text/plain",
                b"induced".to_vec(),
            )
        } else {
            Response::ok("text/plain", req.body.clone())
        }
    })
    .expect("bind health bench server");
    let addr = handle.addr();

    header("runtime health", &["phase", "result"]);

    // Phase 1: baseline train with the induced stall.
    let call_us = reg.histogram("bench.health.call_us");
    let mut c = HttpClient::connect(addr).expect("connect");
    let t0 = Instant::now();
    for i in 0..baseline_n {
        let t = Instant::now();
        let resp = c
            .post("/echo", "text/plain", format!("ping {i}").into_bytes())
            .expect("baseline call");
        assert_eq!(resp.status, 200, "baseline call status");
        call_us.record(t.elapsed().as_micros() as u64);
    }
    let baseline = t0.elapsed();

    // The heartbeat due during the freeze fires late; give the watchdog
    // a couple of beats to latch, count, and clear.
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut m = report.require("metrics", loadgen::metrics(addr));
    let (mut stalls, mut stalled) = (m.value("reactor_stalls"), m.value("reactor_stalled"));
    while (stalls < 1.0 || stalled != 0.0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        m = report.require("metrics", loadgen::metrics(addr));
        (stalls, stalled) = (m.value("reactor_stalls"), m.value("reactor_stalled"));
    }
    report.gate("watchdog_stall_episodes", stalls, Bound::Eq(1.0), true);
    report.gate("watchdog_latch_cleared", stalled, Bound::Eq(0.0), true);
    let (code, body) = report.require("statusz", loadgen::json(addr, "/statusz"));
    report.gate("statusz_after_stall", code.into(), Bound::Eq(200.0), true);
    for kind in ["reactor.stall", "reactor.recovered"] {
        let logged = body.contains(&format!("\"kind\":\"{kind}\""));
        report.check(&format!("slowlog_has_{kind}"), logged);
    }
    let lag = reg.histogram("reactor.loop_lag_us").snapshot();
    // The stall must show in the loop-lag tail.
    let lag_p99 = lag.quantile(0.99) as f64;
    report.gate("loop_lag_p99_us", lag_p99, Bound::Ge(100_000.0), true);
    println!(
        "{:>9} | {} calls in {}, stall latched once, lag p50 {} p99 {}",
        "watchdog",
        baseline_n,
        fmt_dur(baseline),
        fmt_dur(Duration::from_micros(lag.quantile(0.5))),
        fmt_dur(Duration::from_micros(lag.quantile(0.99))),
    );

    // Phase 2: the stalled request owns the request-latency tail; its
    // exemplar must link /metrics to /trace.json.
    let exemplar = m
        .find("http_request_us_max")
        .and_then(|s| s.exemplar.clone());
    report.check("request_tail_has_exemplar", exemplar.is_some());
    let mut exemplar_trace = String::new();
    if let Some((hex, value)) = exemplar {
        let (_, json) = report.require("trace_export", loadgen::json(addr, "/trace.json"));
        let resolved = json.contains(&format!("\"trace\":\"{hex}\""));
        if report.check("exemplar_resolves_in_trace", resolved) {
            println!(
                "{:>9} | tail {} tagged trace {}..., resolved in /trace.json",
                "exemplars",
                fmt_dur(Duration::from_micros(value as u64)),
                &hex[..8],
            );
        }
        exemplar_trace = hex;
    }

    // Phase 3: overload — every other call fails until the burn is red.
    failing.store(true, Ordering::Relaxed);
    let overload_n = 60;
    let mut bad = 0u64;
    for i in 0..overload_n {
        let resp = c
            .post("/echo", "text/plain", format!("over {i}").into_bytes())
            .expect("overload call");
        if resp.status == 500 {
            bad += 1;
        }
    }
    let (code, body) = report.require("statusz", loadgen::json(addr, "/statusz"));
    let unready = code == 503 && body.contains("\"ready\":false");
    if report.check("statusz_unready_under_burn", unready) {
        println!(
            "{:>9} | {bad}/{overload_n} calls failed, /statusz 503 (burn red)",
            "overload"
        );
    } else {
        eprintln!("/statusz stayed {code} under a {bad}/{overload_n}-failure burn");
    }

    // Phase 4: recovery — good calls dilute the windows back under the
    // redline (bad/total must fall below budget x red_burn = 1%).
    failing.store(false, Ordering::Relaxed);
    let t0 = Instant::now();
    let mut recovery_calls = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut ready = false;
    while !ready {
        if Instant::now() > deadline {
            eprintln!("/statusz still unready after {recovery_calls} recovery calls");
            break;
        }
        for _ in 0..200 {
            let resp = c
                .post("/echo", "text/plain", b"heal".to_vec())
                .expect("recovery call");
            assert_eq!(resp.status, 200, "recovery call status");
            recovery_calls += 1;
        }
        let (code, body) = report.require("statusz", loadgen::json(addr, "/statusz"));
        ready = code == 200 && body.contains("\"ready\":true");
    }
    let recovery = t0.elapsed();
    if report.check("statusz_ready_after_recovery", ready) {
        println!(
            "{:>9} | ready again after {recovery_calls} good calls ({})",
            "recovery",
            fmt_dur(recovery),
        );
    }

    // Let the reactor idle for a few beats so the lag histogram also
    // records on-time heartbeats (the p50 should be the quiet loop, not
    // the stall) and the proc sampler ticks at least twice more.
    std::thread::sleep(Duration::from_millis(600));
    let lag = reg.histogram("reactor.loop_lag_us").snapshot();

    // Resource accounting: the sampler thread must have populated the
    // proc gauges by now (200 ms interval).
    let m = report.require("metrics", loadgen::metrics(addr));
    let peak_rss = m.value("proc_peak_rss_bytes");
    let open_fds = m.value("proc_open_fds");
    report.check("proc_peak_rss_sampled", peak_rss > 0.0);
    report.check("proc_open_fds_sampled", open_fds > 0.0);
    println!(
        "{:>9} | peak RSS {:.1} MiB, {open_fds} open fds",
        "proc",
        peak_rss / (1024.0 * 1024.0),
    );

    report.set("unit", "us");
    report.set("baseline_calls", baseline_n);
    report.set("loop_lag_us", &lag);
    report.set("call_us", call_us.snapshot());
    report.set("request_us", reg.histogram("http.request_us").snapshot());
    report.set("stalls", stalls);
    report.set("exemplar_trace", exemplar_trace.as_str());
    report.set("overload_failures", bad);
    report.set("recovery_calls", recovery_calls);
    report.set("recovery_ms", recovery.as_millis() as u64);
    report.set("peak_rss_bytes", peak_rss);
    report.set("open_fds", open_fds);
    report.finish();
}
