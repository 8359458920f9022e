//! Concurrency micro-benchmark for the event-driven transport: per-call
//! latency percentiles (p50/p99) at increasing numbers of concurrent
//! clients hammering one SOAP-binQ echo server over loopback, followed by
//! a keep-alive storm (c1k–c10k) driven by non-blocking bench-side
//! connections multiplexed on one reactor.
//!
//! What to look for: p50 should stay near the single-client floor while
//! the reactor multiplexes keep-alive connections; p99/p999 reveal
//! queueing when clients outnumber the CPU pool. The storm phase
//! self-checks the c10k claim: `/metrics` must report at least
//! `min(N, 1000)` open connections while `/proc/self/status` shows the
//! process holding no more than (CPU pool + reactor + main) threads —
//! the bench exits nonzero if either check fails.
//!
//! Latencies are recorded into `sbq-telemetry` histograms (the same
//! log-bucketed type the servers expose over `/metrics`), and the run
//! writes its percentile summary to `BENCH_concurrency.json`. Each level
//! also fetches the live `GET /metrics` exposition and validates it with
//! the telemetry crate's parser, and fetches `GET /trace.json` and
//! validates it as well-formed Chrome trace JSON (the last level's export
//! is written to `BENCH_trace.json`) — the process exits nonzero on
//! malformed output of either kind, which is what the CI smoke step
//! checks.
//!
//! ```sh
//! cargo run --release -p sbq-bench --bin concurrency [-- --short]
//! ```
//!
//! `--short` (or `BENCH_SHORT=1`) runs a reduced matrix for CI smoke.

use sbq_bench::loadgen::{self, Driver, Next};
use sbq_bench::report::{short_mode, Bound, Obj, Report};
use sbq_bench::{fmt_dur, header};
use sbq_model::{workload, TypeDesc};
use sbq_telemetry::{HistogramSnapshot, Registry, TraceConfig};
use sbq_wsdl::ServiceDef;
use soap_binq::{ClientConfig, ServerConfig, SoapClient, SoapServerBuilder, WireEncoding};
use std::time::{Duration, Instant};

fn echo_service() -> ServiceDef {
    ServiceDef::new("Echo", "urn:bench:conc", "x").with_operation(
        "echo",
        TypeDesc::list_of(TypeDesc::Int),
        TypeDesc::list_of(TypeDesc::Int),
    )
}

fn run_level(
    clients: usize,
    workers: usize,
    calls: usize,
    reg: &Registry,
    report: &mut Report,
) -> (HistogramSnapshot, String) {
    let svc = echo_service();
    let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
        .unwrap()
        .transport(
            ServerConfig::default()
                .worker_threads(workers)
                .telemetry(reg.clone()),
        )
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let addr = server.addr();

    let hist = reg.histogram(&format!("bench.call_ns.c{clients}"));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let svc = svc.clone();
            let hist = hist.clone();
            let config = ClientConfig::default().telemetry(reg.clone());
            std::thread::spawn(move || {
                let mut c =
                    SoapClient::connect_with(addr, &svc, WireEncoding::Pbio, config).unwrap();
                let v = workload::int_array(256, 1);
                c.call("echo", v.clone()).unwrap(); // warm-up + handshake
                for _ in 0..calls {
                    let t0 = Instant::now();
                    c.call("echo", v.clone()).unwrap();
                    hist.record_duration(t0.elapsed());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread finished");
    }

    // The live endpoints must be well formed and show this level's work.
    let metrics = report.require("metrics_exposition", loadgen::metrics(addr));
    for name in [
        "http_requests_post",
        "http_status_2xx",
        "marshal_pbio_encode_count",
    ] {
        report.check(
            &format!("c{clients}.metrics.{name}"),
            metrics.find(name).is_some(),
        );
    }
    let (status, trace) = report.require("trace_export", loadgen::json(addr, "/trace.json"));
    report.check(&format!("c{clients}.trace.status_200"), status == 200);
    for name in ["traceEvents", "server.request", "server.handler"] {
        let found = trace.contains(&format!("\"{name}\""));
        report.check(&format!("c{clients}.trace.{name}"), found);
    }
    (hist.snapshot(), trace)
}

/// Prints a table row: `label`, then three nanosecond latencies.
fn print_row(label: &str, ns: [u64; 3]) {
    let [a, b, c] = ns.map(|ns| fmt_dur(Duration::from_nanos(ns)));
    println!("{label:>12} | {a} | {b} | {c}");
}

fn count_process_threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
}

/// Keep-alive storm: `n` non-blocking connections on one bench-side
/// reactor, each making `calls` echo requests against an HTTP echo server
/// with a small fixed CPU pool, then parking idle. Returns the call
/// latency and the `connect()` latency histograms. Every call clock
/// starts once all `n` sockets are connected, so connecting the other
/// sockets never counts as call latency. Gates the c10k self-checks.
fn run_storm(
    n: usize,
    calls: usize,
    workers: usize,
    reg: &Registry,
    report: &mut Report,
) -> (HistogramSnapshot, HistogramSnapshot) {
    let handle = sbq_http::HttpServer::bind_with(
        "127.0.0.1:0".parse().unwrap(),
        sbq_http::ServerConfig::default()
            .worker_threads(workers)
            .keep_alive_timeout(Duration::from_secs(300))
            .telemetry(reg.clone()),
        |r: &sbq_http::Request| sbq_http::Response::ok("application/octet-stream", r.body.clone()),
    )
    .expect("bind storm server");
    let addr = handle.addr();

    let mut request = sbq_http::Request::post("/echo", "application/octet-stream", vec![0x5a; 64]);
    request.headers.push(("Host".to_string(), "b".to_string()));
    let request = request.to_bytes();

    let connect_hist = reg.histogram(&format!("bench.storm_connect_ns.c{n}"));
    let connected = Driver::connect(addr, n, |d| connect_hist.record_duration(d));
    let mut driver = report.require("storm_connect", connected);
    for i in 0..n {
        driver.set_request(i, request.clone());
    }
    let hist = reg.histogram(&format!("bench.storm_call_ns.c{n}"));
    let mut calls_left = vec![calls; n];
    let storm = driver.run(n, |i, _, elapsed| {
        hist.record_duration(elapsed);
        calls_left[i] -= 1;
        if calls_left[i] == 0 {
            // Park idle (still open) for the self-check.
            Next::Park
        } else {
            Next::Again
        }
    });
    report.require(&format!("storm_c{n}.calls"), storm);

    // Self-check 1: the server really is holding all N connections open.
    let floor = n.min(1000) as f64;
    let metrics = report.require("storm_metrics", loadgen::metrics(addr));
    let open = metrics.value("http_connections_open");
    report.gate(&format!("storm_c{n}.open"), open, Bound::Ge(floor), true);

    // Self-check 2: connection count must not leak into thread count. The
    // whole process is main + the server's reactor + its CPU pool (the
    // storm clients all live on this thread); allow one extra for the
    // telemetry-free margin. An unreadable /proc/self/status leaves the
    // gate skipped.
    let threads = count_process_threads().map_or(f64::NAN, |t| t as f64);
    let budget = Bound::Le((workers + 3) as f64);
    report.gate(&format!("storm_c{n}.threads"), threads, budget, true);
    println!("  storm c{n}: {open:.0} conns open on {threads} process threads");
    (hist.snapshot(), connect_hist.snapshot())
}

fn main() {
    let short = short_mode();
    let mut report = Report::new("concurrency", "BENCH_concurrency.json", short);
    let calls = if short { 5 } else { 50 };
    let levels: &[usize] = if short { &[1, 4] } else { &[1, 8, 64] };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let reg = Registry::new();
    // Trace the run: sample a fraction of calls (errors always record) into
    // a ring big enough that the final level's spans survive to export.
    reg.set_trace_config(TraceConfig::new().capacity(4096).sample_one_in(8));

    header(
        &format!("worker-pool call latency ({workers} workers, {calls} calls/client)"),
        &["clients", "p50", "p99", "max"],
    );
    let mut level_json = Obj::new();
    let mut trace_json = String::new();
    for &clients in levels {
        let (snap, trace) = run_level(clients, workers, calls, &reg, &mut report);
        trace_json = trace;
        print_row(
            &clients.to_string(),
            [snap.quantile(0.5), snap.quantile(0.99), snap.max],
        );
        level_json.set(&format!("c{clients}"), &snap);
    }

    // Keep-alive storm: thousands of connections on one bench-side
    // reactor against a fixed four-thread CPU pool. `--short` stays at
    // c1k or below for CI.
    // Both ends of every loopback connection live in this process, so a
    // storm of N costs ~2N descriptors: size the top level to whatever
    // the hard rlimit actually grants.
    let nofile = sbq_runtime::raise_nofile_limit(64 * 1024);
    let top = 10_000
        .min(((nofile.saturating_sub(512)) / 2) as usize)
        .max(1000);
    let full_levels = [1000, top];
    let storm_levels: &[usize] = if short { &[256, 1000] } else { &full_levels };
    let storm_calls = if short { 2 } else { 5 };
    let storm_workers = 4;
    header(
        &format!("keep-alive storm ({storm_workers}-thread CPU pool, {storm_calls} calls/conn)"),
        &["conns", "p50", "p99", "p999"],
    );
    let mut storm_json = Obj::new()
        .put("workers", storm_workers as u64)
        .put("calls_per_conn", storm_calls as u64);
    let mut connect_json = Obj::new();
    for &n in storm_levels {
        let (snap, connect) = run_storm(n, storm_calls, storm_workers, &reg, &mut report);
        for (label, snap) in [(format!("{n}"), &snap), (format!("{n} connect"), &connect)] {
            print_row(&label, [0.5, 0.99, 0.999].map(|q| snap.quantile(q)));
        }
        storm_json.set(&format!("c{n}"), &snap);
        connect_json.set(&format!("c{n}"), &connect);
    }

    report.set("workers", workers);
    report.set("calls_per_client", calls);
    report.set("unit", "ns");
    report.set("levels", level_json);
    report.set("storm", storm_json.put("connect", connect_json));
    std::fs::write("BENCH_trace.json", format!("{trace_json}\n")).expect("write trace json");
    println!("\nwrote BENCH_trace.json; /metrics and /trace.json validated");
    report.finish();
}
