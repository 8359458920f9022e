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

use sbq_bench::{fmt_dur, header};
use sbq_model::{workload, TypeDesc};
use sbq_telemetry::{expo, HistogramSnapshot, Registry, TraceConfig};
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

/// Fetches `GET /trace.json` from the live server, validates that it is
/// well-formed Chrome trace JSON, and returns it; exits nonzero when the
/// export is malformed or empty of the spans this bench must produce.
fn check_trace_export(addr: std::net::SocketAddr) -> String {
    let mut http = sbq_http::HttpClient::connect(addr).expect("connect for /trace.json");
    let resp = http
        .send(sbq_http::Request::get("/trace.json"))
        .expect("GET /trace.json");
    assert_eq!(resp.status, 200, "/trace.json status");
    let text = String::from_utf8(resp.body).expect("trace export is utf-8");
    if let Err(e) = expo::validate_json(&text) {
        eprintln!("malformed /trace.json export: {e}\n---\n{text}");
        std::process::exit(1);
    }
    for required in ["\"traceEvents\"", "server.request", "server.handler"] {
        if !text.contains(required) {
            eprintln!("/trace.json export is missing {required}\n---\n{text}");
            std::process::exit(1);
        }
    }
    text
}

/// Fetches `GET /metrics` from the live server and validates the text
/// exposition; exits nonzero on any malformation.
fn check_metrics_exposition(addr: std::net::SocketAddr) {
    let mut http = sbq_http::HttpClient::connect(addr).expect("connect for /metrics");
    let resp = http
        .send(sbq_http::Request::get("/metrics"))
        .expect("GET /metrics");
    assert_eq!(resp.status, 200, "/metrics status");
    let text = String::from_utf8(resp.body).expect("metrics text is utf-8");
    let samples = match expo::parse_text(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("malformed /metrics exposition: {e}\n---\n{text}");
            std::process::exit(1);
        }
    };
    for required in [
        "http_requests_post",
        "http_status_2xx",
        "marshal_pbio_encode_count",
    ] {
        if !samples.iter().any(|s| s.name == required) {
            eprintln!("/metrics exposition is missing {required}\n---\n{text}");
            std::process::exit(1);
        }
    }
}

fn run_level(
    clients: usize,
    workers: usize,
    calls: usize,
    reg: &Registry,
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

    check_metrics_exposition(addr);
    let trace_json = check_trace_export(addr);
    (hist.snapshot(), trace_json)
}

/// One non-blocking keep-alive connection in the storm: writes a fixed
/// request, reads the echoed response, repeats `calls` times, then parks
/// idle so the self-check can count it.
struct StormConn {
    stream: std::net::TcpStream,
    out_pos: usize,
    decoder: sbq_http::Decoder<sbq_http::Response>,
    calls_left: usize,
    t0: Instant,
    writing: bool,
    done: bool,
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

/// Keep-alive storm: `n` non-blocking connections multiplexed on one
/// bench-side reactor, each making `calls` echo requests against an HTTP
/// echo server with a small fixed CPU pool, then parking idle. Returns
/// the call latency and the `connect()` latency histograms. Every call
/// clock starts once all `n` sockets are connected, so connecting the
/// other sockets never counts as call latency. Exits nonzero when the
/// c10k self-checks fail.
fn run_storm(
    n: usize,
    calls: usize,
    workers: usize,
    reg: &Registry,
) -> (HistogramSnapshot, HistogramSnapshot) {
    use sbq_runtime::reactor::{Interest, Reactor, Token};

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

    let request = {
        let mut r = sbq_http::Request::post("/echo", "application/octet-stream", vec![0x5a; 64]);
        r.headers.push(("Host".to_string(), "b".to_string()));
        r.to_bytes()
    };
    let pool = sbq_runtime::BufferPool::new();

    let reactor = Reactor::new().expect("bench reactor");
    let connect_hist = reg.histogram(&format!("bench.storm_connect_ns.c{n}"));
    let mut conns: Vec<StormConn> = Vec::with_capacity(n);
    for i in 0..n {
        let t0 = Instant::now();
        let stream = std::net::TcpStream::connect(addr).expect("storm connect");
        connect_hist.record_duration(t0.elapsed());
        stream.set_nonblocking(true).expect("nonblocking");
        let _ = stream.set_nodelay(true);
        reactor
            .register(&stream, Token(i as u64), Interest::WRITABLE)
            .expect("register storm conn");
        conns.push(StormConn {
            stream,
            out_pos: 0,
            decoder: sbq_http::Decoder::new(sbq_http::Limits::default()),
            calls_left: calls,
            t0: Instant::now(),
            writing: true,
            done: false,
        });
    }

    // Every call clock starts here, when polling begins.
    let polling = Instant::now();
    for c in &mut conns {
        c.t0 = polling;
    }
    let hist = reg.histogram(&format!("bench.storm_call_ns.c{n}"));
    let mut pending = n;
    let mut events = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while pending > 0 {
        if Instant::now() > deadline {
            eprintln!("storm stalled: {pending}/{n} connections still working");
            std::process::exit(1);
        }
        reactor
            .poll(&mut events, Some(Duration::from_millis(100)))
            .expect("storm poll");
        for ev in &events {
            use std::io::{Read, Write};
            let c = &mut conns[ev.token.0 as usize];
            if c.done {
                continue;
            }
            if ev.error {
                eprintln!("storm connection {} errored", ev.token.0);
                std::process::exit(1);
            }
            loop {
                if c.writing {
                    match c.stream.write(&request[c.out_pos..]) {
                        Ok(0) => break,
                        Ok(k) => {
                            c.out_pos += k;
                            if c.out_pos == request.len() {
                                c.writing = false;
                                reactor
                                    .reregister(&c.stream, ev.token, Interest::READABLE)
                                    .expect("reregister read");
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            eprintln!("storm write failed: {e}");
                            std::process::exit(1);
                        }
                    }
                } else {
                    let mut chunk = [0u8; 4096];
                    match c.stream.read(&mut chunk) {
                        Ok(0) => {
                            eprintln!("storm server closed a keep-alive connection early");
                            std::process::exit(1);
                        }
                        Ok(k) => {
                            let used = c.decoder.feed(&chunk[..k], &pool).unwrap_or_else(|e| {
                                eprintln!("storm response malformed: {e}");
                                std::process::exit(1);
                            });
                            if let Some(resp) = c.decoder.take() {
                                if used != k {
                                    eprintln!("storm server sent bytes past a response");
                                    std::process::exit(1);
                                }
                                hist.record_duration(c.t0.elapsed());
                                pool.put(resp.body);
                                c.calls_left -= 1;
                                if c.calls_left == 0 {
                                    // Park idle (still open) for the self-check.
                                    c.done = true;
                                    reactor
                                        .reregister(&c.stream, ev.token, Interest::NONE)
                                        .expect("park storm conn");
                                    pending -= 1;
                                    break;
                                }
                                c.t0 = Instant::now();
                                c.out_pos = 0;
                                c.writing = true;
                                reactor
                                    .reregister(&c.stream, ev.token, Interest::WRITABLE)
                                    .expect("reregister write");
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            eprintln!("storm read failed: {e}");
                            std::process::exit(1);
                        }
                    }
                }
            }
        }
    }

    // Self-check 1: the server really is holding all N connections open.
    let floor = n.min(1000) as f64;
    let mut http = sbq_http::HttpClient::connect(addr).expect("connect for storm /metrics");
    let resp = http
        .send(sbq_http::Request::get("/metrics"))
        .expect("GET /metrics");
    let text = String::from_utf8(resp.body).expect("metrics utf-8");
    let samples = expo::parse_text(&text).unwrap_or_else(|e| {
        eprintln!("malformed /metrics exposition during storm: {e}");
        std::process::exit(1);
    });
    let gauge = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.quantile.is_none())
            .map(|s| s.value)
            .unwrap_or(0.0)
    };
    let open = gauge("http_connections_open");
    if open < floor {
        eprintln!("c10k self-check failed: {n} connections parked but /metrics reports only {open} open (need >= {floor})");
        std::process::exit(1);
    }

    // Self-check 2: connection count must not leak into thread count. The
    // whole process is main + the server's reactor + its CPU pool (the
    // storm clients all live on this thread); allow one extra for the
    // telemetry-free margin.
    if let Some(threads) = count_process_threads() {
        let budget = workers + 3;
        if threads > budget {
            eprintln!(
                "c10k self-check failed: {threads} process threads with {n} connections \
                 (budget {budget} = {workers} CPU pool + reactor + main + 1)"
            );
            std::process::exit(1);
        }
        println!("  storm c{n}: {open:.0} conns open on {threads} process threads");
    }

    drop(conns);
    drop(handle);
    (hist.snapshot(), connect_hist.snapshot())
}

fn main() {
    let short = std::env::args().any(|a| a == "--short") || std::env::var("BENCH_SHORT").is_ok();
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
    let mut level_json = Vec::new();
    let mut trace_json = String::new();
    for &clients in levels {
        let (snap, trace) = run_level(clients, workers, calls, &reg);
        trace_json = trace;
        println!(
            "{clients:>7} | {} | {} | {}",
            fmt_dur(Duration::from_nanos(snap.quantile(0.5))),
            fmt_dur(Duration::from_nanos(snap.quantile(0.99))),
            fmt_dur(Duration::from_nanos(snap.max)),
        );
        level_json.push(format!("\"c{clients}\":{}", expo::histogram_json(&snap)));
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
    let mut storm_json = Vec::new();
    let mut connect_json = Vec::new();
    for &n in storm_levels {
        let (snap, connect) = run_storm(n, storm_calls, storm_workers, &reg);
        for (label, snap) in [(format!("{n}"), &snap), (format!("{n} connect"), &connect)] {
            println!(
                "{label:>12} | {} | {} | {}",
                fmt_dur(Duration::from_nanos(snap.quantile(0.5))),
                fmt_dur(Duration::from_nanos(snap.quantile(0.99))),
                fmt_dur(Duration::from_nanos(snap.quantile(0.999))),
            );
        }
        storm_json.push(format!("\"c{n}\":{}", expo::histogram_json(&snap)));
        connect_json.push(format!("\"c{n}\":{}", expo::histogram_json(&connect)));
    }

    let json = format!(
        "{{\"bench\":\"concurrency\",\"short\":{short},\"workers\":{workers},\
         \"calls_per_client\":{calls},\"unit\":\"ns\",\"levels\":{{{}}},\
         \"storm\":{{\"workers\":{storm_workers},\"calls_per_conn\":{storm_calls},{},\
         \"connect\":{{{}}}}}}}",
        level_json.join(","),
        storm_json.join(","),
        connect_json.join(",")
    );
    std::fs::write("BENCH_concurrency.json", format!("{json}\n")).expect("write bench json");
    std::fs::write("BENCH_trace.json", format!("{trace_json}\n")).expect("write trace json");
    println!(
        "\nwrote BENCH_concurrency.json and BENCH_trace.json; \
         /metrics and /trace.json validated"
    );
}
