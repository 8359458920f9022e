//! Recording-overhead micro-bench (harness = false).
//!
//! Demonstrates the hot-path cost of telemetry on pre-resolved handles:
//! counter increments and histogram records should land well under
//! 100 ns/op, and disabled handles under a few ns/op. Exits nonzero when
//! `counter.inc` or `histogram.record` goes over that budget.
//!
//! ```sh
//! cargo bench -p sbq-telemetry --bench overhead
//! ```

use sbq_telemetry::{Registry, TraceConfig};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 2_000_000;

fn ns_per_op(label: &str, mut op: impl FnMut(u64)) -> f64 {
    // Warm up (thread-shard assignment, map resolution, branch predictors).
    for i in 0..10_000 {
        op(i);
    }
    let t0 = Instant::now();
    for i in 0..ITERS {
        op(black_box(i));
    }
    let ns = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    println!("{label:<32} {ns:8.2} ns/op");
    ns
}

fn main() {
    let reg = Registry::new();
    let off = Registry::disabled();

    let c = reg.counter("bench.counter");
    let counter_ns = ns_per_op("counter.inc", |_| c.inc());

    let h = reg.histogram("bench.histogram");
    let hist_ns = ns_per_op("histogram.record", |i| h.record(i * 37 % 1_000_000));

    let g = reg.gauge("bench.gauge");
    ns_per_op("gauge.add", |_| g.add(1));

    let c_off = off.counter("bench.counter");
    ns_per_op("counter.inc (disabled)", |_| c_off.inc());

    let h_off = off.histogram("bench.histogram");
    ns_per_op("histogram.record (disabled)", |i| h_off.record(i));

    // Trace spans into the flight recorder: sampled (packs + publishes
    // a 26-word slot), unsampled (clock reads only), and disabled.
    reg.set_trace_config(TraceConfig::new().capacity(4096));
    let tracer = reg.tracer();
    ns_per_op("trace.span (recorded)", |_| {
        drop(tracer.root_span("bench.trace"))
    });
    ns_per_op("trace.span + 3 tags", |i| {
        let mut s = tracer.root_span("bench.trace");
        s.add_tag("op", "bench");
        s.add_tag_u64("i", i);
        s.add_tag_hex("peer", i);
    });
    let unsampled = Registry::new();
    unsampled.set_trace_config(TraceConfig::new().sample_one_in(u64::MAX));
    let unsampled = unsampled.tracer();
    drop(unsampled.root_span("burn.first.ticket"));
    ns_per_op("trace.span (unsampled)", |_| {
        drop(unsampled.root_span("bench.trace"))
    });
    let tracer_off = off.tracer();
    ns_per_op("trace.span (disabled)", |_| {
        drop(tracer_off.root_span("bench.trace"))
    });

    // Phases: one clock-read pair feeding a histogram and, under a
    // sampled parent, a span in the ring.
    let phase = reg.phase("bench.phase_ns", "bench.phase");
    let sampled = tracer.root_span("bench.root").context();
    ns_per_op("phase (sampled)", |_| drop(phase.start(Some(&sampled))));
    let unsampled = unsampled.root_span("bench.root").context();
    ns_per_op("phase (unsampled)", |_| drop(phase.start(Some(&unsampled))));
    let phase_off = off.phase("bench.phase_ns", "bench.phase");
    ns_per_op("phase (disabled)", |_| drop(phase_off.start(None)));

    // Contended: 8 threads on one counter and one histogram.
    let t0 = Instant::now();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let c = c.clone();
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 0..ITERS / 8 {
                    c.inc();
                    h.record(black_box(i));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let ns = t0.elapsed().as_nanos() as f64 / (2 * ITERS / 8 * 8) as f64;
    println!("{:<32} {ns:8.2} ns/op", "counter+histogram, 8 threads");

    println!();
    let budget = 100.0;
    let mut over = false;
    for (label, ns) in [("counter.inc", counter_ns), ("histogram.record", hist_ns)] {
        let verdict = if ns <= budget { "OK" } else { "OVER BUDGET" };
        over |= ns > budget;
        println!("{label}: {ns:.2} ns/op vs {budget:.0} ns budget — {verdict}");
    }
    if over {
        std::process::exit(1);
    }
}
