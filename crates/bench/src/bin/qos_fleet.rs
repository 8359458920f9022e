//! Fleet-scale QoS benchmark: thousands of simulated clients through the
//! real reactor during a flash crowd, with admission control on vs off.
//!
//! Every bench-side connection is one simulated client from a
//! `sbq-netsim` [`FleetScenario`] (a mixed WAN / lossy-mobile / jittery
//! population sharing a flash-crowd backbone). Each round the scenario
//! advances virtual time, every client samples its RTT from the link
//! model and *reports* it in the SOAP envelope's QoS header — exactly
//! the paper's client-measured feedback loop — and the server's
//! [`FleetQos`] table tracks a quality band per client, sheds worst-band
//! non-idempotent calls under overload (503 + `Retry-After`), and
//! degrades the rest.
//!
//! The run self-checks, exiting nonzero on failure:
//! * the live `/metrics` exposition shows per-band client gauges,
//!   `qos_fleet_shed >= 1`, and at least one downward *and* one upward
//!   band transition (degrade under load, recover after);
//! * with admission on, overload-phase p99 time-to-answer is lower than
//!   with admission off (shedding bounds tail latency instead of
//!   queueing blindly).
//!
//! Results (p50/p99 with admission on vs off, plus the fleet counters)
//! go to `BENCH_qos.json`.
//!
//! ```sh
//! cargo run --release -p sbq-bench --bin qos_fleet [-- --short]
//! ```
//!
//! `--short` (or `BENCH_SHORT=1`) compresses the virtual timeline for CI
//! smoke; the client population stays at fleet scale (2000+).

use sbq_bench::{fmt_dur, header};
use sbq_model::{TypeDesc, Value};
use sbq_netsim::FleetScenario;
use sbq_qos::{FleetQos, QualityFile, QualityManager};
use sbq_telemetry::{expo, Histogram, HistogramSnapshot, Registry};
use sbq_wsdl::ServiceDef;
use soap_binq::envelope::{self, QosHeader};
use soap_binq::{AdmissionPolicy, ServerConfig, SoapServerBuilder, WireEncoding};
use std::time::{Duration, Instant};

const QUALITY_FILE: &str = "\
attribute rtt
0 100 - full
100 250 - half
250 inf - min
";

fn reading_ty() -> TypeDesc {
    TypeDesc::struct_of(
        "reading",
        vec![
            ("seq", TypeDesc::Int),
            ("temps", TypeDesc::list_of(TypeDesc::Float)),
            ("site", TypeDesc::Str),
        ],
    )
}

fn reading_value() -> Value {
    Value::struct_of(
        "reading",
        vec![
            ("seq", Value::Int(7)),
            (
                "temps",
                Value::FloatArray((0..256).map(|i| i as f64 * 0.5).collect()),
            ),
            ("site", Value::Str("tower-3".into())),
        ],
    )
}

fn quality_manager() -> QualityManager {
    let mut qm = QualityManager::new(QualityFile::parse(QUALITY_FILE).unwrap());
    qm.define_message_type(
        "half",
        TypeDesc::struct_of(
            "half",
            vec![("seq", TypeDesc::Int), ("site", TypeDesc::Str)],
        ),
    );
    qm.define_message_type(
        "min",
        TypeDesc::struct_of("min", vec![("seq", TypeDesc::Int)]),
    );
    qm
}

fn service() -> ServiceDef {
    ServiceDef::new("Telemetry", "urn:bench:fleet", "x").with_operation(
        "read",
        TypeDesc::Int,
        reading_ty(),
    )
}

struct FleetConn {
    stream: std::net::TcpStream,
    request: Vec<u8>,
    out_pos: usize,
    decoder: sbq_http::Decoder<sbq_http::Response>,
    t0: Instant,
    writing: bool,
    done: bool,
    /// Body bytes of the last response: the next round's RTT sample uses
    /// it, closing the paper's adapt-to-congestion feedback loop (a
    /// degraded payload really is cheaper to move).
    last_resp_bytes: usize,
    sheds: u64,
}

struct RunResult {
    all: HistogramSnapshot,
    overload: HistogramSnapshot,
    sheds: u64,
    metrics: Vec<expo::Sample>,
}

/// Counter/gauge lookup in a parsed `/metrics` exposition.
fn sample_value(samples: &[expo::Sample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.quantile.is_none())
        .map(|s| s.value)
        .unwrap_or(0.0)
}

fn run_fleet(
    label: &str,
    admission_on: bool,
    mut scenario: FleetScenario,
    rounds: usize,
    dt: Duration,
    reg: &Registry,
) -> RunResult {
    use sbq_runtime::reactor::{Interest, Reactor, Token};

    let n = scenario.clients();
    let svc = service();
    let policy = if admission_on {
        // The pool is 2 threads; quiet-phase arrival waves are 64 deep
        // (see the wave limit below), so "overloaded" means the job
        // queue is past 128 — only the flash-crowd burst gets there.
        AdmissionPolicy::new()
            .overload_factor(64.0)
            .retry_after(Duration::from_secs(1))
    } else {
        // Effectively never overloaded: per-client bands still apply,
        // but nothing is shed or overload-degraded.
        AdmissionPolicy::new().overload_factor(f64::INFINITY)
    };
    let server = SoapServerBuilder::new(&svc, WireEncoding::Xml)
        .unwrap()
        .handle("read", |_| reading_value())
        .with_quality(quality_manager())
        .with_fleet(
            FleetQos::new(QualityFile::parse(QUALITY_FILE).unwrap())
                .capacity(2 * n)
                .telemetry(reg),
        )
        .admission_policy(policy)
        .transport(
            ServerConfig::default()
                .worker_threads(2)
                .keep_alive_timeout(Duration::from_secs(300))
                .telemetry(reg.clone()),
        )
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let addr = server.addr();

    let reactor = Reactor::new().expect("bench reactor");
    let mut conns: Vec<FleetConn> = Vec::with_capacity(n);
    for i in 0..n {
        let stream = std::net::TcpStream::connect(addr).expect("fleet connect");
        stream.set_nonblocking(true).expect("nonblocking");
        let _ = stream.set_nodelay(true);
        reactor
            .register(&stream, Token(i as u64), Interest::NONE)
            .expect("register fleet conn");
        conns.push(FleetConn {
            stream,
            request: Vec::new(),
            out_pos: 0,
            decoder: sbq_http::Decoder::new(sbq_http::Limits::default()),
            t0: Instant::now(),
            writing: true,
            done: true,
            last_resp_bytes: 5000,
            sheds: 0,
        });
    }

    let hist: Histogram = reg.histogram(&format!("bench.fleet.{label}.call_ns"));
    let hist_overload: Histogram = reg.histogram(&format!("bench.fleet.{label}.overload_ns"));
    let pool = sbq_runtime::BufferPool::new();
    let mut events = Vec::new();
    let mut peak_seen = false;
    for round in 0..rounds {
        if round > 0 {
            scenario.advance(dt);
        }
        let load = scenario.load_now();
        let overloaded_phase = load > 0.5;
        // Prepare every connection's request for this round: the
        // envelope reports the RTT the client just "measured" on its
        // access link.
        for (i, c) in conns.iter_mut().enumerate() {
            let rtt = scenario.sample_rtt(i, 400, c.last_resp_bytes, Duration::from_micros(200));
            let qos = QosHeader {
                timestamp_us: 0,
                rtt_ms: Some(rtt.as_secs_f64() * 1e3),
                server_time_us: 0,
                message_type: None,
            };
            let body = envelope::build_request("read", &Value::Int(round as i64), &qos);
            let mut req = sbq_http::Request::post(
                "/Telemetry",
                WireEncoding::Xml.content_type(),
                body.into_bytes(),
            );
            req.headers.push(("Host".to_string(), "b".to_string()));
            req.headers
                .push(("X-Qos-Client".to_string(), format!("c{i}")));
            // A fifth of the fleet marks its calls idempotent: admission
            // degrades these instead of shedding them.
            if i % 5 == 0 {
                req.headers
                    .push(("X-Idempotent".to_string(), "1".to_string()));
            }
            c.request = req.to_bytes();
            c.out_pos = 0;
            c.decoder = sbq_http::Decoder::new(sbq_http::Limits::default());
            c.writing = true;
            c.done = false;
        }
        // A flash crowd is an *arrival* burst as much as a congested
        // backbone: couple how many clients fire at once to the
        // scenario load. Quiet phases trickle in 64-deep waves (the
        // 2-thread pool keeps up, nobody is shed); the peak slams all
        // clients in simultaneously, which is what actually overloads
        // the server and triggers admission control.
        let wave_limit = ((64.0 + load * n as f64) as usize).clamp(1, n);
        let mut cursor = 0usize;
        while cursor < wave_limit {
            let c = &mut conns[cursor];
            c.t0 = Instant::now();
            reactor
                .reregister(&c.stream, Token(cursor as u64), Interest::WRITABLE)
                .expect("arm fleet conn");
            cursor += 1;
        }
        let mut pending = n;
        let deadline = Instant::now() + Duration::from_secs(120);
        while pending > 0 {
            if Instant::now() > deadline {
                eprintln!("fleet round {round} stalled: {pending}/{n} still working");
                std::process::exit(1);
            }
            reactor
                .poll(&mut events, Some(Duration::from_millis(100)))
                .expect("fleet poll");
            for ev in &events {
                use std::io::{Read, Write};
                let c = &mut conns[ev.token.0 as usize];
                if c.done {
                    continue;
                }
                let mut finished = false;
                if ev.error {
                    eprintln!("fleet connection {} errored", ev.token.0);
                    std::process::exit(1);
                }
                loop {
                    if c.writing {
                        match c.stream.write(&c.request[c.out_pos..]) {
                            Ok(0) => break,
                            Ok(k) => {
                                c.out_pos += k;
                                if c.out_pos == c.request.len() {
                                    c.writing = false;
                                    reactor
                                        .reregister(&c.stream, ev.token, Interest::READABLE)
                                        .expect("reregister read");
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => {
                                eprintln!("fleet write failed: {e}");
                                std::process::exit(1);
                            }
                        }
                    } else {
                        let mut chunk = [0u8; 8192];
                        match c.stream.read(&mut chunk) {
                            Ok(0) => {
                                eprintln!("fleet server closed a keep-alive connection early");
                                std::process::exit(1);
                            }
                            Ok(k) => {
                                let resp = c
                                    .decoder
                                    .feed(&chunk[..k], &pool)
                                    .map(|_| c.decoder.take())
                                    .unwrap_or_else(|e| {
                                        eprintln!("fleet response malformed: {e}");
                                        std::process::exit(1);
                                    });
                                if let Some(resp) = resp {
                                    let dt = c.t0.elapsed();
                                    hist.record_duration(dt);
                                    if overloaded_phase {
                                        hist_overload.record_duration(dt);
                                    }
                                    if resp.status == 503 {
                                        c.sheds += 1;
                                    } else {
                                        c.last_resp_bytes = resp.wire_len().max(300);
                                    }
                                    pool.put(resp.body);
                                    c.done = true;
                                    reactor
                                        .reregister(&c.stream, ev.token, Interest::NONE)
                                        .expect("park fleet conn");
                                    pending -= 1;
                                    finished = true;
                                    break;
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => {
                                eprintln!("fleet read failed: {e}");
                                std::process::exit(1);
                            }
                        }
                    }
                }
                // Wave pacing: a finished call frees a slot for the
                // next waiting client.
                if finished && cursor < n {
                    let c = &mut conns[cursor];
                    c.t0 = Instant::now();
                    reactor
                        .reregister(&c.stream, Token(cursor as u64), Interest::WRITABLE)
                        .expect("arm fleet conn");
                    cursor += 1;
                }
            }
        }
        // Narrate phase boundaries with the live band populations — the
        // congestion-phase shape of the paper's Figs. 8–9 at fleet scale.
        if (overloaded_phase && !peak_seen) || round + 1 == rounds {
            peak_seen = peak_seen || overloaded_phase;
            let pop = server.fleet().unwrap().band_population();
            println!(
                "  [{label}] round {round:>2} load {load:.2}: bands {pop:?}, sheds {}",
                conns.iter().map(|c| c.sheds).sum::<u64>()
            );
        }
    }

    // Read the fleet's view from the live /metrics exposition.
    let mut http = sbq_http::HttpClient::connect(addr).expect("connect for /metrics");
    let resp = http
        .send(sbq_http::Request::get("/metrics"))
        .expect("GET /metrics");
    assert_eq!(resp.status, 200, "/metrics status");
    let text = String::from_utf8(resp.body).expect("metrics utf-8");
    let metrics = expo::parse_text(&text).unwrap_or_else(|e| {
        eprintln!("malformed /metrics exposition: {e}\n---\n{text}");
        std::process::exit(1);
    });

    RunResult {
        all: hist.snapshot(),
        overload: hist_overload.snapshot(),
        sheds: conns.iter().map(|c| c.sheds).sum(),
        metrics,
    }
}

fn main() {
    let short = std::env::args().any(|a| a == "--short") || std::env::var("BENCH_SHORT").is_ok();
    // Virtual timeline: the flash-crowd envelope spans 13 s of virtual
    // time; `--short` samples it coarsely. Five extra quiet rounds at the
    // end give the hysteresis its recovery confirmations.
    let dt = if short {
        Duration::from_secs(2)
    } else {
        Duration::from_millis(500)
    };
    let rounds = (Duration::from_secs(13).as_secs_f64() / dt.as_secs_f64()).ceil() as usize + 5;
    // Both ends of every loopback connection live in this process
    // (~2 descriptors per client): size the fleet to the rlimit, but a
    // fleet bench below 2000 clients proves nothing.
    let nofile = sbq_runtime::raise_nofile_limit(64 * 1024);
    let want = if short { 2000 } else { 2400 };
    let n = want.min(((nofile.saturating_sub(512)) / 2) as usize);
    if n < want {
        eprintln!("nofile limit {nofile} caps the fleet at {n} clients (wanted {want})");
    }

    let scenario = FleetScenario::flash_crowd(n, 42);
    println!(
        "fleet: {n} clients ({} rounds x {dt:?} virtual, 2-thread CPU pool)",
        rounds
    );

    header(
        "admission control",
        &["mode", "p50", "p99", "overload p99", "sheds"],
    );
    let mut results = Vec::new();
    for (label, on) in [("on", true), ("off", false)] {
        let reg = Registry::new();
        let r = run_fleet(label, on, scenario.clone(), rounds, dt, &reg);
        println!(
            "{label:>7} | {} | {} | {} | {}",
            fmt_dur(Duration::from_nanos(r.all.quantile(0.5))),
            fmt_dur(Duration::from_nanos(r.all.quantile(0.99))),
            fmt_dur(Duration::from_nanos(r.overload.quantile(0.99))),
            r.sheds,
        );
        results.push(r);
    }
    let (on, off) = (&results[0], &results[1]);

    // Self-checks: the flash crowd must actually exercise the fleet
    // machinery, and shedding must bound the overload tail.
    let mut failures = Vec::new();
    let m = &on.metrics;
    if sample_value(m, "qos_fleet_shed") < 1.0 {
        failures.push("no calls shed (qos_fleet_shed == 0)".to_string());
    }
    if sample_value(m, "qos_fleet_band_switch_degrade") < 1.0 {
        failures.push("no downward band transition under load".to_string());
    }
    if sample_value(m, "qos_fleet_band_switch_upgrade") < 1.0 {
        failures.push("no upward band transition after recovery".to_string());
    }
    if sample_value(m, "qos_fleet_clients") < 1.0 {
        failures.push("fleet tracked no clients".to_string());
    }
    for band in 0..3 {
        let name = format!("qos_fleet_band_{band}");
        if !m.iter().any(|s| s.name == name) {
            failures.push(format!("/metrics is missing the {name} gauge"));
        }
    }
    if on.sheds < 1 {
        failures.push("clients saw no 503s despite qos_fleet_shed".to_string());
    }
    let on_p99 = on.overload.quantile(0.99);
    let off_p99 = off.overload.quantile(0.99);
    if on_p99 >= off_p99 {
        failures.push(format!(
            "admission control did not bound the overload tail: p99 on={} off={}",
            fmt_dur(Duration::from_nanos(on_p99)),
            fmt_dur(Duration::from_nanos(off_p99)),
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("self-check failed: {f}");
        }
        std::process::exit(1);
    }

    let fleet_json = |r: &RunResult| {
        format!(
            "{{\"all\":{},\"overload\":{},\"sheds\":{},\
             \"fleet_shed\":{},\"fleet_degraded\":{},\"fleet_evictions\":{},\
             \"band_switch_degrade\":{},\"band_switch_upgrade\":{}}}",
            expo::histogram_json(&r.all),
            expo::histogram_json(&r.overload),
            r.sheds,
            sample_value(&r.metrics, "qos_fleet_shed"),
            sample_value(&r.metrics, "qos_fleet_degraded"),
            sample_value(&r.metrics, "qos_fleet_evictions"),
            sample_value(&r.metrics, "qos_fleet_band_switch_degrade"),
            sample_value(&r.metrics, "qos_fleet_band_switch_upgrade"),
        )
    };
    let json = format!(
        "{{\"bench\":\"qos_fleet\",\"short\":{short},\"clients\":{n},\"rounds\":{rounds},\
         \"unit\":\"ns\",\"admission_on\":{},\"admission_off\":{}}}",
        fleet_json(on),
        fleet_json(off)
    );
    std::fs::write("BENCH_qos.json", format!("{json}\n")).expect("write bench json");
    println!(
        "\nwrote BENCH_qos.json; overload p99 {} (admission on) vs {} (off)",
        fmt_dur(Duration::from_nanos(on_p99)),
        fmt_dur(Duration::from_nanos(off_p99)),
    );
}
