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
//!   queueing blindly), comparing the medians of five interleaved on/off
//!   runs.
//!
//! Every admission-on run must pass the `/metrics` checks. Results
//! (p50/p99 of each run with admission on and off, plus the fleet
//! counters) and the gate verdicts go to `BENCH_qos.json`.
//!
//! ```sh
//! cargo run --release -p sbq-bench --bin qos_fleet [-- --short]
//! ```
//!
//! `--short` (or `BENCH_SHORT=1`) compresses the virtual timeline for CI
//! smoke; the client population stays at fleet scale (2000+).

use sbq_bench::loadgen::{self, Driver, Metrics, Next};
use sbq_bench::report::{short_mode, Bound, Obj, Report};
use sbq_bench::{fmt_dur, header, median};
use sbq_model::{TypeDesc, Value};
use sbq_netsim::FleetScenario;
use sbq_qos::{FleetQos, QualityFile, QualityManager};
use sbq_telemetry::{HistogramSnapshot, Registry};
use sbq_wsdl::ServiceDef;
use soap_binq::envelope::{self, QosHeader};
use soap_binq::{AdmissionPolicy, ServerConfig, SoapServerBuilder, WireEncoding};
use std::time::Duration;

/// Interleaved admission on/off runs behind the overload-tail gate.
const REPS: usize = 5;

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

struct RunResult {
    all: HistogramSnapshot,
    overload: HistogramSnapshot,
    sheds: u64,
    metrics: Metrics,
}

fn run_fleet(
    admission_on: bool,
    mut scenario: FleetScenario,
    rounds: usize,
    dt: Duration,
    report: &mut Report,
) -> RunResult {
    let label = if admission_on { "on" } else { "off" };
    let reg = Registry::new();
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
                .telemetry(&reg),
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
    let mut driver = report.require("fleet_connect", Driver::connect(addr, n, |_| {}));

    let hist = reg.histogram(&format!("bench.fleet.{label}.call_ns"));
    let hist_overload = reg.histogram(&format!("bench.fleet.{label}.overload_ns"));
    // Body bytes of each client's last response: the next round's RTT
    // sample uses it, closing the paper's adapt-to-congestion feedback
    // loop (a degraded payload really is cheaper to move).
    let mut last_resp_bytes = vec![5000usize; n];
    let mut sheds = 0u64;
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
        for (i, &bytes) in last_resp_bytes.iter().enumerate() {
            let rtt = scenario.sample_rtt(i, 400, bytes, Duration::from_micros(200));
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
            driver.set_request(i, req.to_bytes());
        }
        // A flash crowd is an *arrival* burst as much as a congested
        // backbone: couple how many clients fire at once to the
        // scenario load. Quiet phases trickle in 64-deep waves (the
        // 2-thread pool keeps up, nobody is shed); the peak slams all
        // clients in simultaneously, which is what actually overloads
        // the server and triggers admission control. Each finished call
        // frees a slot for the next waiting client.
        let wave_limit = ((64.0 + load * n as f64) as usize).clamp(1, n);
        let round_run = driver.run(wave_limit, |i, resp, elapsed| {
            hist.record_duration(elapsed);
            if overloaded_phase {
                hist_overload.record_duration(elapsed);
            }
            if resp.status == 503 {
                sheds += 1;
            } else {
                last_resp_bytes[i] = resp.wire_len().max(300);
            }
            Next::Park
        });
        report.require(&format!("fleet_{label}.round_{round}"), round_run);
        // Narrate phase boundaries with the live band populations — the
        // congestion-phase shape of the paper's Figs. 8–9 at fleet scale.
        if (overloaded_phase && !peak_seen) || round + 1 == rounds {
            peak_seen = peak_seen || overloaded_phase;
            let pop = server.fleet().unwrap().band_population();
            println!("  [{label}] round {round:>2} load {load:.2}: bands {pop:?}, sheds {sheds}");
        }
    }

    // Read the fleet's view from the live /metrics exposition.
    let metrics = report.require("fleet_metrics", loadgen::metrics(addr));
    RunResult {
        all: hist.snapshot(),
        overload: hist_overload.snapshot(),
        sheds,
        metrics,
    }
}

fn fleet_json(r: &RunResult) -> Obj {
    let mut obj = Obj::new()
        .put("all", &r.all)
        .put("overload", &r.overload)
        .put("sheds", r.sheds);
    for (key, metric) in [
        ("fleet_shed", "qos_fleet_shed"),
        ("fleet_degraded", "qos_fleet_degraded"),
        ("fleet_evictions", "qos_fleet_evictions"),
        ("band_switch_degrade", "qos_fleet_band_switch_degrade"),
        ("band_switch_upgrade", "qos_fleet_band_switch_upgrade"),
    ] {
        obj.set(key, r.metrics.value(metric));
    }
    obj
}

/// The least value of `f` over `runs`.
fn least(runs: &[RunResult], f: impl Fn(&RunResult) -> f64) -> f64 {
    runs.iter().map(f).fold(f64::INFINITY, f64::min)
}

fn main() {
    let short = short_mode();
    let mut report = Report::new("qos_fleet", "BENCH_qos.json", short);
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
        "fleet: {n} clients ({rounds} rounds x {dt:?} virtual, 2-thread CPU pool), \
         {REPS} interleaved on/off runs"
    );

    header(
        "admission control",
        &["run", "mode", "p50", "p99", "overload p99", "sheds"],
    );
    // Admission on and off alternate, and swap which goes first each
    // round, so both modes see the same drift in host load; the tail gate
    // compares their medians.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        for admission_on in [rep % 2 == 0, rep % 2 == 1] {
            let r = run_fleet(admission_on, scenario.clone(), rounds, dt, &mut report);
            println!(
                "{rep:>3} | {:>4} | {} | {} | {} | {}",
                if admission_on { "on" } else { "off" },
                fmt_dur(Duration::from_nanos(r.all.quantile(0.5))),
                fmt_dur(Duration::from_nanos(r.all.quantile(0.99))),
                fmt_dur(Duration::from_nanos(r.overload.quantile(0.99))),
                r.sheds,
            );
            if admission_on { &mut on } else { &mut off }.push(r);
        }
    }

    // Self-checks: every admission-on run must exercise the fleet
    // machinery, so each gate reads the least value over those runs.
    for metric in [
        "qos_fleet_shed",
        "qos_fleet_band_switch_degrade",
        "qos_fleet_band_switch_upgrade",
        "qos_fleet_clients",
    ] {
        let value = least(&on, |r| r.metrics.value(metric));
        report.gate(metric, value, Bound::Ge(1.0), true);
    }
    for band in 0..3 {
        let gauge = format!("qos_fleet_band_{band}");
        let exposed = on.iter().all(|r| r.metrics.find(&gauge).is_some());
        report.check(&format!("{gauge}_exposed"), exposed);
    }
    let sheds = least(&on, |r| r.sheds as f64);
    report.gate("clients_saw_503", sheds, Bound::Ge(1.0), true);
    // Shedding must bound the overload tail: the median admission-on
    // overload p99 stays strictly below the median admission-off one.
    let p99_ms =
        |runs: &[RunResult]| median(runs.iter().map(|r| r.overload.quantile(0.99) as f64 / 1e6));
    let (on_p99, off_p99) = (p99_ms(&on), p99_ms(&off));
    report.gate("overload_p99_ms", on_p99, Bound::Lt(off_p99), true);

    report.set("clients", n);
    report.set("rounds", rounds);
    report.set("unit", "ns");
    let medians = Obj::new().put("on", on_p99).put("off", off_p99);
    report.set("median_overload_p99_ms", medians);
    report.set(
        "admission_on",
        on.iter().map(fleet_json).collect::<Vec<_>>(),
    );
    report.set(
        "admission_off",
        off.iter().map(fleet_json).collect::<Vec<_>>(),
    );
    println!("\nmedian overload p99 {on_p99:.2} ms (admission on) vs {off_p99:.2} ms (off)");
    report.finish();
}
