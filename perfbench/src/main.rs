//! End-to-end and per-layer benchmark of SOAP-binQ calls over loopback.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <struct-pbio|array-xml|image-qos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Closed-loop clients make real `SoapClient::call`s to an in-process
//! `SoapServer` on its default configuration; every result is checked.
//! The server's threads run on one CPU and the client loops on another.
//! With `--trace 0` the run reports the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a separate traced run (see
//! `layers`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every call returned the right result.

mod fixture;
mod layers;
mod schedule;
mod stats;
mod sys;
mod trace;

use fixture::{Fixture, Kind, Tally};
use soap_binq::SoapClient;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use sys::Side;

#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Calls a run needs before `call_p99_us` has ten samples beyond it.
const MIN_CALLS: u64 = 1000;
/// Segments a measured run is cut into, and how many of them count at
/// least.
const SEGMENTS: usize = 30;
const KEPT_SEGMENTS: usize = SEGMENTS / 3;
/// A segment stops this long after its end even short of its calls.
const OVERRUN: Duration = Duration::from_secs(60);

/// One segment of a measured run.
struct Segment {
    tally: Tally,
    wall: f64,
    /// Process CPU seconds.
    cpu: f64,
    /// Share of the machine's CPU time the hypervisor gave to others.
    steal_share: f64,
}

struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let kind = get("--workload")?;
    let kind = Kind::parse(kind).ok_or_else(|| format!("unknown workload {kind}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Opts {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <struct-pbio|array-xml|image-qos> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread starts, so the program's server threads inherit
    // the server CPU.
    let server_cpu = sys::pin(Side::Server);
    let client_cpu = server_cpu.and_then(|_| {
        let cpu = std::thread::spawn(|| sys::pin(Side::Client));
        cpu.join().expect("probe thread panicked")
    });
    let placement = match (server_cpu, client_cpu) {
        (Some(s), Some(c)) => format!("server:cpu{s},client:cpu{c}"),
        _ => "unpinned".to_string(),
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} rev={} nproc={} simd={} clients={} encoding={} placement={placement}",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        sys::git_rev(),
        nproc,
        sbq_runtime::simd::level().name(),
        opts.kind.clients(),
        opts.kind.encoding().name(),
    );
    let outcome = if opts.trace {
        traced(&opts)
    } else {
        end_to_end(&opts)
    };
    match outcome {
        Ok(r) => {
            for e in &r.errors {
                println!("# error: {e}");
            }
            let correct = r.failed == 0;
            println!(
                "{}",
                result_json(correct, r.attempted, r.failed, &r.metrics)
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Builds the fixture, connects its clients and makes each client's
/// first call: one set-up.
fn setup(kind: Kind, seed: u64) -> Result<(Fixture, Vec<SoapClient>), String> {
    let fx = Fixture::build(kind, seed)?;
    let mut clients = Vec::with_capacity(kind.clients());
    for _ in 0..kind.clients() {
        let mut c = fx.connect()?;
        fixture::first_call(&fx, &mut c).map_err(|e| format!("first call: {e}"))?;
        clients.push(c);
    }
    Ok((fx, clients))
}

fn end_to_end(opts: &Opts) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(Fixture, Vec<SoapClient>)> = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous set-up down before timing the next one.
        if let Some((mut fx, clients)) = kept.take() {
            drop(clients);
            fx.shutdown();
        }
        let t0 = Instant::now();
        let s = setup(opts.kind, opts.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let (mut fx, mut clients) = kept.expect("at least one set-up");
    println!("# {}", fx.digest());
    let q = |p: f64| {
        let s = stats::sorted(setup_s.clone());
        s[((s.len() - 1) as f64 * p) as usize] * 1e3
    };
    println!(
        "# set-up over {} reps: min {:.3} ms, quartiles {:.3} / {:.3} / {:.3} ms, max {:.3} ms",
        setup_s.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    );

    let far = Instant::now() + Duration::from_secs_f64(opts.seconds) + OVERRUN;
    let warm = fixture::drive_all(
        &fx,
        &mut clients,
        Instant::now(),
        opts.kind.warm_calls(),
        far,
    );
    let peak_rss_mb = sys::peak_rss_mb();

    // The measured run is cut into segments. Its figures come from the
    // third of them in which the hypervisor took the least CPU time from
    // this machine (steal), plus any segment as calm as those: on a shared
    // host a neighbour's burst slows every call while it lasts, and on a
    // calm host the whole run counts. The choice never looks at the
    // program's own figures.
    let seg_len = Duration::from_secs_f64(opts.seconds / SEGMENTS as f64);
    let seg_min = MIN_CALLS.div_ceil(KEPT_SEGMENTS as u64);
    let mut segs = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        let (cpu0, steal0, t0) = (sys::cpu_seconds(), sys::steal_seconds(), Instant::now());
        let until = t0 + seg_len;
        let tally = fixture::drive_all(&fx, &mut clients, until, seg_min, until + OVERRUN);
        let wall = t0.elapsed().as_secs_f64();
        segs.push(Segment {
            steal_share: (sys::steal_seconds() - steal0) / (wall * sys::cpus() as f64),
            cpu: sys::cpu_seconds() - cpu0,
            wall,
            tally,
        });
    }
    drop(clients);
    fx.shutdown();

    let shares: Vec<f64> = segs.iter().map(|s| s.steal_share).collect();
    let calm = stats::least_stolen(&shares, KEPT_SEGMENTS);
    for (i, s) in segs.iter().enumerate() {
        println!(
            "# segment {i:>2}: steal {:>5.1}%  p50 {:>9.1} us  {:>9.1} calls/s{}",
            s.steal_share * 100.0,
            s.tally.lat.percentile(50.0) / 1e3,
            s.tally.lat.count() as f64 / s.wall,
            if calm.contains(&i) { "  kept" } else { "" },
        );
    }
    let (calls, failed) = segs
        .iter()
        .fold((0, 0), |(c, f), s| (c + s.tally.calls, f + s.tally.failed));
    let mut errors = warm.errors;
    let (mut wall, mut cpu) = (0.0, 0.0);
    let mut chosen = Vec::new();
    for (i, mut s) in segs.into_iter().enumerate() {
        errors.append(&mut s.tally.errors);
        if calm.contains(&i) {
            wall += s.wall;
            cpu += s.cpu;
            chosen.push(s.tally);
        }
    }
    let run = Tally::merge(chosen);
    let lat = &run.lat;
    let ok = lat.count().max(1) as f64;
    let metrics = vec![
        ("call_p50_us", "us", lat.percentile(50.0) / 1e3),
        ("call_p99_us", "us", stats::p99_us(lat)),
        ("calls_per_s", "1/s", lat.count() as f64 / wall),
        ("goodput_mb_s", "MB/s", run.native as f64 / wall / 1e6),
        ("wire_kb_per_call", "kB", run.wire_bytes as f64 / ok / 1e3),
        ("cpu_us_per_call", "us", cpu * 1e6 / ok),
        ("peak_rss_mb", "MB", peak_rss_mb),
        ("setup_s", "s", stats::median(&setup_s)),
    ];
    let tail = stats::tail_percentile(lat.count() as usize);
    println!(
        "# kept {} calls in {wall:.2} s; tail percentile with >=10 samples beyond it: \
         p{} = {:.1} us",
        lat.count(),
        tail.unwrap_or(f64::NAN),
        tail.map_or(f64::NAN, |p| lat.percentile(p) / 1e3),
    );
    println!(
        "# error_rate {} ({failed} of {calls})",
        failed as f64 / calls as f64
    );
    Ok(Report {
        metrics,
        attempted: warm.calls + calls,
        failed: warm.failed + failed,
        errors,
    })
}

fn traced(opts: &Opts) -> Result<Report, String> {
    // One file per workload, so repeated runs do not pile up spans.
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{}.json", opts.kind.name()));
    let t = layers::run(opts.kind, opts.seed, opts.seconds, &path)?;
    let metrics = layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = t
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .map_or(f64::NAN, |m| m.1);
            (name, unit, value)
        })
        .collect();
    Ok(Report {
        metrics,
        attempted: t.attempted,
        failed: t.failed,
        errors: t.errors,
    })
}

/// Prints each metric as a line and renders the result object.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        println!("{name:<34} {value:>14.4} {unit}");
        // JSON has no NaN: an unmeasurable value reads as null.
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    json
}
