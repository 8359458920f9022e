//! Marshalling hot-path benchmark: encode/decode throughput (MB/s) and
//! allocations per operation for PBIO, XML, and compressed XML across
//! float-array payloads from 1 K to 1 M elements.
//!
//! The PBIO rows are measured twice: once through the current bulk-kernel
//! path (`plan::encode` / `ConversionPlan::execute`, which fuse
//! contiguous fixed-width fields into single-pass `chunks_exact` runs)
//! and once through an inline replica of the pre-bulk per-element loops
//! (the "before" baseline recorded in the JSON). The run self-checks:
//!
//! * the live `pbio.plan.bulk_ops` counter must advance (the bulk kernels
//!   actually ran, the numbers are not measuring the scalar path),
//! * on the 1 M-f64 same-byte-order workload, combined encode+decode
//!   throughput must be at least 3x the per-element baseline,
//! * byteswapped 1 M-f64 decode must be ≥1.5x the scalar kernel twin
//!   (skipped when no SIMD tier is live), and
//! * XML encode must be ≥400 MB/s (2x the pre-SIMD ~200 MB/s),
//! * XML decode of 1 M f64 must be ≥300 MB/s (the leaf fast path; the
//!   event-only decode it replaced read 250–330 MB/s), and
//! * XML decode must make at most 10 allocations per op at every size
//!
//! (throughput gates advisory under `--short`, enforced in full mode; the
//! allocation gate is deterministic and enforced in both), exiting
//! nonzero otherwise. Per-kernel rows (`swap16/32/64`, `widen`,
//! `f32_to_f64`, `xml.escape_scan`) compare each dispatched entry point
//! to its scalar twin on preallocated buffers. Results go to
//! `BENCH_marshal.json`, which is committed at the repo root.
//!
//! ```sh
//! cargo run --release -p sbq-bench --bin marshal [-- --short]
//! ```
//!
//! `--short` (or `BENCH_SHORT=1`) runs fewer iterations and skips the
//! slowest XML size for CI smoke.

use sbq_bench::{fmt_bytes, time_min};
use sbq_model::{workload, TypeDesc, Value};
use sbq_pbio::{format::FormatOptions, plan, ByteOrder, ConversionPlan, FormatDesc, WireFrame};
use sbq_runtime::{cpu_pool::marshal_pool, simd};
use soap_binq::marshal;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------------

/// Counts every heap allocation (and growing reallocation) so each
/// benchmark row can report allocs/op — the zero-copy claim is about
/// allocator traffic, not just wall time.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations performed by one run of `f`.
fn allocs_in<T>(mut f: impl FnMut() -> T) -> u64 {
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOC_COUNT.load(Ordering::Relaxed) - before
}

// ---------------------------------------------------------------------------
// The pre-bulk baseline: a faithful replica of the pre-bulk-kernel
// message path. Per-element encode/decode helpers are copied verbatim
// from the old `plan.rs` (runtime width dispatch, per-element bounds
// checks), and the framing copies the old endpoint performed are
// reproduced: encode went payload Vec -> `to_bytes` copy -> body copy,
// decode went `from_bytes` payload copy -> per-element loop.
// ---------------------------------------------------------------------------

use sbq_pbio::PbioError;

fn ref_write_u32(out: &mut Vec<u8>, v: u32, bo: ByteOrder) {
    match bo {
        ByteOrder::Little => out.extend_from_slice(&v.to_le_bytes()),
        ByteOrder::Big => out.extend_from_slice(&v.to_be_bytes()),
    }
}

fn ref_write_float(out: &mut Vec<u8>, v: f64, width: u8, bo: ByteOrder) {
    match (width, bo) {
        (8, ByteOrder::Little) => out.extend_from_slice(&v.to_le_bytes()),
        (8, ByteOrder::Big) => out.extend_from_slice(&v.to_be_bytes()),
        (4, ByteOrder::Little) => out.extend_from_slice(&(v as f32).to_le_bytes()),
        (4, ByteOrder::Big) => out.extend_from_slice(&(v as f32).to_be_bytes()),
        _ => unreachable!("widths validated at format construction"),
    }
}

fn ref_read_u32(buf: &[u8], pos: &mut usize, bo: ByteOrder) -> Result<u32, PbioError> {
    if *pos + 4 > buf.len() {
        return Err(PbioError::Truncated);
    }
    let bytes: [u8; 4] = buf[*pos..*pos + 4].try_into().expect("len checked");
    *pos += 4;
    Ok(match bo {
        ByteOrder::Little => u32::from_le_bytes(bytes),
        ByteOrder::Big => u32::from_be_bytes(bytes),
    })
}

fn ref_read_float(buf: &[u8], pos: &mut usize, width: u8, bo: ByteOrder) -> Result<f64, PbioError> {
    let w = width as usize;
    if *pos + w > buf.len() {
        return Err(PbioError::Truncated);
    }
    let bytes = &buf[*pos..*pos + w];
    *pos += w;
    Ok(match (w, bo) {
        (8, ByteOrder::Little) => f64::from_le_bytes(bytes.try_into().expect("len checked")),
        (8, ByteOrder::Big) => f64::from_be_bytes(bytes.try_into().expect("len checked")),
        (4, ByteOrder::Little) => f32::from_le_bytes(bytes.try_into().expect("len checked")) as f64,
        (4, ByteOrder::Big) => f32::from_be_bytes(bytes.try_into().expect("len checked")) as f64,
        _ => unreachable!("widths validated at format construction"),
    })
}

/// The full pre-bulk request-encode path: per-element payload encode,
/// then the `WireMessage::to_bytes` copy, then the body-assembly copy.
fn reference_encode_message(vals: &[f64], width: u8, bo: ByteOrder, native_size: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(native_size + 16);
    ref_write_u32(&mut payload, vals.len() as u32, bo);
    for v in vals {
        ref_write_float(&mut payload, *v, width, bo);
    }
    // WireMessage::to_bytes: header + payload copy.
    let mut msg = Vec::with_capacity(9 + payload.len());
    msg.push(2u8);
    msg.extend_from_slice(&1u32.to_le_bytes());
    msg.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    msg.extend_from_slice(&payload);
    // Body assembly: `body.extend_from_slice(&m.to_bytes())`.
    let mut body = Vec::new();
    body.extend_from_slice(&msg);
    body
}

/// The full pre-bulk response-decode path: the `WireMessage::from_bytes`
/// payload copy, then the per-element decode loop.
fn reference_decode_message(framed: &[u8], width: u8, bo: ByteOrder) -> Vec<f64> {
    let payload = framed[9..].to_vec();
    let mut pos = 0usize;
    let n = ref_read_u32(&payload, &mut pos, bo).unwrap() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(ref_read_float(&payload, &mut pos, width, bo).unwrap());
    }
    out
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct Row {
    encoding: &'static str,
    op: &'static str,
    elems: usize,
    bytes: usize,
    mbps: f64,
    allocs: u64,
}

fn mbps(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / d.as_secs_f64() / 1e6
}

fn report(rows: &mut Vec<Row>, row: Row) {
    println!(
        "{:8} {:22} {:>10} elems {:>12} bytes {:>10.1} MB/s {:>6} allocs/op",
        row.encoding,
        row.op,
        fmt_bytes(row.elems),
        fmt_bytes(row.bytes),
        row.mbps,
        row.allocs
    );
    rows.push(row);
}

fn options(bo: ByteOrder) -> FormatOptions {
    FormatOptions {
        byte_order: bo,
        int_width: 8,
        float_width: 8,
    }
}

fn main() {
    let short = std::env::args().any(|a| a == "--short") || std::env::var("BENCH_SHORT").is_ok();
    let iters = if short { 5 } else { 20 };
    let sizes: &[usize] = &[1_000, 10_000, 100_000, 1_000_000];
    let ty = TypeDesc::list_of(TypeDesc::Float);
    let native_bo = ByteOrder::native();
    let swapped_bo = match native_bo {
        ByteOrder::Little => ByteOrder::Big,
        ByteOrder::Big => ByteOrder::Little,
    };
    let native = FormatDesc::from_type(&ty, options(native_bo)).unwrap();
    let swapped = FormatDesc::from_type(&ty, options(swapped_bo)).unwrap();

    let mut rows: Vec<Row> = Vec::new();
    // before/after (encode MB/s, decode MB/s) for the 1M same-order row.
    let mut before_1m = (0.0f64, 0.0f64);
    let mut after_1m = (0.0f64, 0.0f64);
    // Byteswapped 1M-f64 decode: (dispatched kernel, PR 5 scalar kernel).
    let mut swap_1m = (0.0f64, 0.0f64);
    // XML encode MB/s at the largest size measured this run.
    let mut xml_encode_mbps = 0.0f64;
    // XML decode: MB/s at 1M f64 (full runs only) and the most
    // allocations one decode made at any size.
    let mut xml_decode_1m_mbps = 0.0f64;
    let mut xml_decode_max_allocs = 0u64;

    println!(
        "marshal hot-path benchmark ({} mode, min of {iters} runs)\n",
        if short { "short" } else { "full" }
    );

    for &n in sizes {
        let value = workload::float_array(n, 3);
        let Value::FloatArray(raw) = &value else {
            unreachable!()
        };
        let payload = plan::encode(&value, &native).unwrap();
        let bytes = payload.len();
        // The data frame as it sits in an HTTP body:
        // kind(1) | id(4) | len(4) | payload.
        let mut framed = Vec::with_capacity(9 + bytes);
        framed.push(2u8);
        framed.extend_from_slice(&1u32.to_le_bytes());
        framed.extend_from_slice(&(bytes as u32).to_le_bytes());
        framed.extend_from_slice(&payload);

        // --- Bulk path, same byte order (the pure-memcpy case): frame
        // header + in-place encode into a reused (pooled) body buffer,
        // borrowed-frame parse + bulk decode on the way back. -----------
        let mut body_buf: Vec<u8> = Vec::with_capacity(9 + bytes);
        let mut encode_message = || {
            body_buf.clear();
            body_buf.push(2u8);
            body_buf.extend_from_slice(&1u32.to_le_bytes());
            body_buf.extend_from_slice(&(bytes as u32).to_le_bytes());
            plan::encode_into(&value, &native, &mut body_buf).unwrap();
            body_buf.len()
        };
        let d = time_min(iters, &mut encode_message);
        let enc_allocs = allocs_in(&mut encode_message);
        report(
            &mut rows,
            Row {
                encoding: "pbio",
                op: "encode",
                elems: n,
                bytes,
                mbps: mbps(bytes, d),
                allocs: enc_allocs,
            },
        );
        let p = ConversionPlan::compile(&native, &native).unwrap();
        let decode_message = || {
            let (frame, _) = WireFrame::parse(&framed).unwrap();
            let WireFrame::Data { payload, .. } = frame else {
                unreachable!()
            };
            p.execute(payload).unwrap()
        };
        let d2 = time_min(iters, decode_message);
        let dec_allocs = allocs_in(decode_message);
        report(
            &mut rows,
            Row {
                encoding: "pbio",
                op: "decode",
                elems: n,
                bytes,
                mbps: mbps(bytes, d2),
                allocs: dec_allocs,
            },
        );
        if n == 1_000_000 {
            after_1m = (mbps(bytes, d), mbps(bytes, d2));
        }

        // --- Bulk path, cross byte order (swap on the bulk pass) -------
        let swapped_payload = plan::encode(&value, &swapped).unwrap();
        let px = ConversionPlan::compile(&swapped, &native).unwrap();
        let d = time_min(iters, || px.execute(&swapped_payload).unwrap());
        report(
            &mut rows,
            Row {
                encoding: "pbio",
                op: "decode-byteswap",
                elems: n,
                bytes,
                mbps: mbps(bytes, d),
                allocs: allocs_in(|| px.execute(&swapped_payload).unwrap()),
            },
        );
        if n == 1_000_000 {
            // Kernel-vs-kernel pair for the SIMD speedup gate: the same
            // wire payload decoded into a fresh Vec by the dispatched
            // kernel and by its scalar twin (the PR 5 kernel), identical
            // calling conventions on both sides. The full-plan row above
            // stays as the end-to-end number; it mixes in header parsing
            // and Value construction that dilute the kernel ratio.
            let body = &swapped_payload[4..];
            let mut simd_swap_decode = || {
                let mut out: Vec<f64> = Vec::with_capacity(n);
                simd::decode_f64(body, 8, true, &mut out.spare_capacity_mut()[..n]);
                // SAFETY: decode_f64 wrote all n elements.
                unsafe { out.set_len(n) };
                out
            };
            let dk = time_min(iters, &mut simd_swap_decode);
            swap_1m.0 = mbps(bytes, dk);
            report(
                &mut rows,
                Row {
                    encoding: "pbio",
                    op: "decode-byteswap-kernel",
                    elems: n,
                    bytes,
                    mbps: swap_1m.0,
                    allocs: allocs_in(&mut simd_swap_decode),
                },
            );
            let mut scalar_swap_decode = || {
                let mut out: Vec<f64> = Vec::with_capacity(n);
                simd::scalar::decode_f64(body, 8, true, &mut out.spare_capacity_mut()[..n]);
                // SAFETY: decode_f64 wrote all n elements.
                unsafe { out.set_len(n) };
                out
            };
            let ds = time_min(iters, &mut scalar_swap_decode);
            swap_1m.1 = mbps(bytes, ds);
            let via_plan = px.execute(&swapped_payload).unwrap();
            assert_eq!(
                via_plan,
                Value::FloatArray(simd_swap_decode()),
                "simd kernel disagrees with the plan path"
            );
            assert_eq!(
                via_plan,
                Value::FloatArray(scalar_swap_decode()),
                "scalar byteswap twin disagrees with the plan path"
            );
            report(
                &mut rows,
                Row {
                    encoding: "pbio",
                    op: "decode-byteswap-scalar",
                    elems: n,
                    bytes,
                    mbps: swap_1m.1,
                    allocs: allocs_in(&mut scalar_swap_decode),
                },
            );
        }

        // --- The pre-bulk baseline (snapshot once per invocation) ------
        // Re-measuring the old per-element path at every size used to
        // spend most of a --short run's budget on "before" numbers that
        // the gate only reads at 1M; one snapshot at the largest size
        // pins the same comparison.
        if n == 1_000_000 {
            // Width comes from format data at runtime, as it did for the
            // old per-element loops.
            let width: u8 = std::hint::black_box(8);
            let d = time_min(iters, || {
                reference_encode_message(raw, width, native_bo, bytes)
            });
            report(
                &mut rows,
                Row {
                    encoding: "pbio",
                    op: "encode-before",
                    elems: n,
                    bytes,
                    mbps: mbps(bytes, d),
                    allocs: allocs_in(|| reference_encode_message(raw, width, native_bo, bytes)),
                },
            );
            let d2 = time_min(iters, || {
                reference_decode_message(&framed, width, native_bo)
            });
            report(
                &mut rows,
                Row {
                    encoding: "pbio",
                    op: "decode-before",
                    elems: n,
                    bytes,
                    mbps: mbps(bytes, d2),
                    allocs: allocs_in(|| reference_decode_message(&framed, width, native_bo)),
                },
            );
            before_1m = (mbps(bytes, d), mbps(bytes, d2));
            // Cross-check both paths against each other so the "before"
            // numbers measure a correct implementation.
            let bulk = decode_message();
            let scalar = reference_decode_message(&framed, width, native_bo);
            assert_eq!(bulk, Value::FloatArray(scalar), "baseline disagrees");
            assert_eq!(
                reference_encode_message(raw, width, native_bo, bytes),
                framed,
                "baseline encodes different bytes"
            );
        }

        // --- XML / compressed XML -------------------------------------
        if short && n >= 1_000_000 {
            println!("xml      (skipped at {} elems under --short)", fmt_bytes(n));
            continue;
        }
        let xml = marshal::value_to_xml(&value, "p");
        let xml_bytes = xml.len();
        let d = time_min(iters, || marshal::value_to_xml(&value, "p"));
        xml_encode_mbps = mbps(xml_bytes, d); // sizes ascend: last = largest
        report(
            &mut rows,
            Row {
                encoding: "xml",
                op: "encode",
                elems: n,
                bytes: xml_bytes,
                mbps: mbps(xml_bytes, d),
                allocs: allocs_in(|| marshal::value_to_xml(&value, "p")),
            },
        );
        let d = time_min(iters, || marshal::parse_document(&xml, &ty).unwrap());
        let dec_allocs = allocs_in(|| marshal::parse_document(&xml, &ty).unwrap());
        xml_decode_max_allocs = xml_decode_max_allocs.max(dec_allocs);
        if n == 1_000_000 {
            xml_decode_1m_mbps = mbps(xml_bytes, d);
        }
        report(
            &mut rows,
            Row {
                encoding: "xml",
                op: "decode",
                elems: n,
                bytes: xml_bytes,
                mbps: mbps(xml_bytes, d),
                allocs: dec_allocs,
            },
        );
        let lz = sbq_lz::compress(xml.as_bytes());
        let d = time_min(iters, || sbq_lz::compress(xml.as_bytes()));
        report(
            &mut rows,
            Row {
                encoding: "lzxml",
                op: "encode",
                elems: n,
                bytes: lz.len(),
                mbps: mbps(xml_bytes, d),
                allocs: allocs_in(|| sbq_lz::compress(xml.as_bytes())),
            },
        );
        let d = time_min(iters, || sbq_lz::decompress(&lz).unwrap());
        report(
            &mut rows,
            Row {
                encoding: "lzxml",
                op: "decode",
                elems: n,
                bytes: lz.len(),
                mbps: mbps(xml_bytes, d),
                allocs: allocs_in(|| sbq_lz::decompress(&lz).unwrap()),
            },
        );
    }

    // -----------------------------------------------------------------
    // Per-kernel rows: the dispatched (SIMD when available) entry points
    // against their scalar twins, on preallocated buffers so the numbers
    // are pure kernel throughput (MB/s of *input* bytes, 0 allocs/op).
    // -----------------------------------------------------------------
    println!();
    let kn = 1_000_000usize;
    for (w, op, op_scalar) in [
        (2usize, "swap16", "swap16-scalar"),
        (4, "swap32", "swap32-scalar"),
        (8, "swap64", "swap64-scalar"),
    ] {
        let total = kn * w;
        let src: Vec<u8> = (0..total).map(|i| (i * 31) as u8).collect();
        let mut dst: Vec<u8> = Vec::with_capacity(total);
        let d = time_min(iters, || {
            simd::bswap(w, &src, &mut dst.spare_capacity_mut()[..total])
        });
        report(
            &mut rows,
            Row {
                encoding: "kernel",
                op,
                elems: kn,
                bytes: total,
                mbps: mbps(total, d),
                allocs: allocs_in(|| simd::bswap(w, &src, &mut dst.spare_capacity_mut()[..total])),
            },
        );
        let d = time_min(iters, || {
            simd::scalar::bswap(w, &src, &mut dst.spare_capacity_mut()[..total])
        });
        report(
            &mut rows,
            Row {
                encoding: "kernel",
                op: op_scalar,
                elems: kn,
                bytes: total,
                mbps: mbps(total, d),
                allocs: 0,
            },
        );
    }
    {
        // widen: 4-byte little-endian ints sign-extended to i64.
        let src: Vec<u8> = (0..kn * 4).map(|i| (i * 17) as u8).collect();
        let swap = !matches!(native_bo, ByteOrder::Little);
        let mut dst: Vec<i64> = Vec::with_capacity(kn);
        let d = time_min(iters, || {
            simd::decode_i64(&src, 4, swap, &mut dst.spare_capacity_mut()[..kn])
        });
        report(
            &mut rows,
            Row {
                encoding: "kernel",
                op: "widen",
                elems: kn,
                bytes: src.len(),
                mbps: mbps(src.len(), d),
                allocs: 0,
            },
        );
        let d = time_min(iters, || {
            simd::scalar::decode_i64(&src, 4, swap, &mut dst.spare_capacity_mut()[..kn])
        });
        report(
            &mut rows,
            Row {
                encoding: "kernel",
                op: "widen-scalar",
                elems: kn,
                bytes: src.len(),
                mbps: mbps(src.len(), d),
                allocs: 0,
            },
        );
        // f32 -> f64 widening loads of the same buffer.
        let mut dstf: Vec<f64> = Vec::with_capacity(kn);
        let d = time_min(iters, || {
            simd::decode_f64(&src, 4, swap, &mut dstf.spare_capacity_mut()[..kn])
        });
        report(
            &mut rows,
            Row {
                encoding: "kernel",
                op: "f32_to_f64",
                elems: kn,
                bytes: src.len(),
                mbps: mbps(src.len(), d),
                allocs: 0,
            },
        );
        let d = time_min(iters, || {
            simd::scalar::decode_f64(&src, 4, swap, &mut dstf.spare_capacity_mut()[..kn])
        });
        report(
            &mut rows,
            Row {
                encoding: "kernel",
                op: "f32_to_f64-scalar",
                elems: kn,
                bytes: src.len(),
                mbps: mbps(src.len(), d),
                allocs: 0,
            },
        );
    }
    {
        // needs-escape scan over a 4 MB entity-free span (the common case
        // the vectorized scan is built for).
        let text = vec![b'a'; 4 << 20];
        let d = time_min(iters, || simd::escape_scan(&text, false));
        report(
            &mut rows,
            Row {
                encoding: "kernel",
                op: "xml.escape_scan",
                elems: text.len(),
                bytes: text.len(),
                mbps: mbps(text.len(), d),
                allocs: 0,
            },
        );
        let d = time_min(iters, || simd::scalar::escape_scan(&text, false));
        report(
            &mut rows,
            Row {
                encoding: "kernel",
                op: "xml.escape_scan-scalar",
                elems: text.len(),
                bytes: text.len(),
                mbps: mbps(text.len(), d),
                allocs: 0,
            },
        );
    }

    // -----------------------------------------------------------------
    // Self-checks
    // -----------------------------------------------------------------
    let reg = soap_binq::Registry::global();
    let bulk_ops = reg.counter("pbio.plan.bulk_ops").get();
    let scalar_ops = reg.counter("pbio.plan.scalar_ops").get();
    println!("\npbio.plan.bulk_ops = {bulk_ops}, pbio.plan.scalar_ops = {scalar_ops}");
    if bulk_ops == 0 {
        eprintln!("self-check failed: pbio.plan.bulk_ops is zero — the bulk kernels never ran");
        std::process::exit(1);
    }

    let speedup_enc = after_1m.0 / before_1m.0.max(1e-9);
    let speedup_dec = after_1m.1 / before_1m.1.max(1e-9);
    let combined = (after_1m.0 + after_1m.1) / (before_1m.0 + before_1m.1).max(1e-9);
    let swap_speedup = swap_1m.0 / swap_1m.1.max(1e-9);
    println!(
        "1M f64 same-order: encode {:.0} -> {:.0} MB/s ({speedup_enc:.2}x), \
         decode {:.0} -> {:.0} MB/s ({speedup_dec:.2}x), combined {combined:.2}x",
        before_1m.0, after_1m.0, before_1m.1, after_1m.1
    );
    println!(
        "1M f64 byteswapped decode: scalar {:.0} -> simd {:.0} MB/s ({swap_speedup:.2}x); \
         xml encode {xml_encode_mbps:.0} MB/s",
        swap_1m.1, swap_1m.0
    );
    println!(
        "xml decode: {xml_decode_1m_mbps:.0} MB/s at 1M f64 (0 = not measured), \
         at most {xml_decode_max_allocs} allocs/op"
    );
    let pool = marshal_pool();
    let pool_stats = pool.stats();
    let (pool_jobs, pool_steals, pool_chunks) = (
        pool_stats.parallel_jobs.load(Ordering::Relaxed),
        pool_stats.steals.load(Ordering::Relaxed),
        pool_stats.parallel_chunks.load(Ordering::Relaxed),
    );

    let mut json = String::from("{\n  \"benchmark\": \"marshal\",\n");
    json.push_str(&format!("  \"short\": {short},\n"));
    json.push_str(&format!(
        "  \"simd\": {{\"detected\": \"{}\", \"enabled\": \"{}\"}},\n",
        simd::detected_level().name(),
        simd::level().name()
    ));
    json.push_str(&format!(
        "  \"pool\": {{\"threads\": {}, \"parallel_jobs\": {pool_jobs}, \
         \"parallel_chunks\": {pool_chunks}, \"steals\": {pool_steals}}},\n",
        pool.threads()
    ));
    json.push_str(&format!(
        "  \"before_1m_f64\": {{\"encode_mbps\": {:.1}, \"decode_mbps\": {:.1}}},\n",
        before_1m.0, before_1m.1
    ));
    json.push_str(&format!(
        "  \"after_1m_f64\": {{\"encode_mbps\": {:.1}, \"decode_mbps\": {:.1}}},\n",
        after_1m.0, after_1m.1
    ));
    json.push_str(&format!(
        "  \"byteswap_1m_f64\": {{\"scalar_mbps\": {:.1}, \"simd_mbps\": {:.1}, \
         \"speedup\": {swap_speedup:.2}}},\n",
        swap_1m.1, swap_1m.0
    ));
    json.push_str(&format!("  \"xml_encode_mbps\": {xml_encode_mbps:.1},\n"));
    json.push_str(&format!(
        "  \"xml_decode\": {{\"mbps_1m_f64\": {xml_decode_1m_mbps:.1}, \
         \"max_allocs_per_op\": {xml_decode_max_allocs}}},\n"
    ));
    json.push_str(&format!(
        "  \"speedup\": {{\"encode\": {speedup_enc:.2}, \"decode\": {speedup_dec:.2}, \
         \"combined\": {combined:.2}}},\n"
    ));
    json.push_str(&format!(
        "  \"plan_ops\": {{\"bulk\": {bulk_ops}, \"scalar\": {scalar_ops}}},\n"
    ));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"encoding\": \"{}\", \"op\": \"{}\", \"elems\": {}, \"bytes\": {}, \
             \"mbps\": {:.1}, \"allocs_per_op\": {}}}{}\n",
            r.encoding,
            r.op,
            r.elems,
            r.bytes,
            r.mbps,
            r.allocs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}");
    std::fs::write("BENCH_marshal.json", format!("{json}\n")).expect("write bench json");
    println!("wrote BENCH_marshal.json");

    // Throughput gates: advisory under --short (CI contention), enforced
    // on full runs. The byteswap gate compares the dispatched kernel to
    // its scalar twin, so it only applies when a SIMD tier is live.
    let mut gate_failed = false;
    let mut gate = |ok: bool, msg: String| {
        if ok {
            return;
        }
        if short {
            eprintln!("note: {msg} (advisory under --short)");
        } else {
            eprintln!("self-check failed: {msg}");
            gate_failed = true;
        }
    };
    gate(
        combined >= 3.0,
        format!("combined speedup {combined:.2}x < 3x"),
    );
    if simd::level() != simd::SimdLevel::Scalar {
        gate(
            swap_speedup >= 1.5,
            format!("byteswapped 1M-f64 decode {swap_speedup:.2}x < 1.5x over the scalar kernel"),
        );
    }
    gate(
        xml_encode_mbps >= 400.0,
        format!("xml encode {xml_encode_mbps:.0} MB/s < 400 MB/s (2x the pre-SIMD ~200 MB/s)"),
    );
    if !short {
        gate(
            xml_decode_1m_mbps >= 300.0,
            format!(
                "xml decode {xml_decode_1m_mbps:.0} MB/s < 300 MB/s at 1M f64 \
                 (the event-only decode read 250-330 MB/s)"
            ),
        );
    }
    // Allocation counts do not depend on load, so this gate holds under
    // --short too.
    if xml_decode_max_allocs > 10 {
        eprintln!("self-check failed: xml decode made {xml_decode_max_allocs} allocs/op (> 10)");
        gate_failed = true;
    }
    if gate_failed {
        std::process::exit(1);
    }
}
