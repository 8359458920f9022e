//! Marshalling hot-path benchmark: encode/decode throughput (MB/s) and
//! allocations per operation for PBIO, XML, and compressed XML across
//! float-array payloads from 1 K to 1 M elements, plus an 8 Ki-int array
//! and a depth-6 nested struct through XML, PBIO (including big-endian
//! receiver-makes-right decode), XDR and LZ-compressed XML.
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
//! nonzero otherwise. Each throughput gate reads the median of five
//! interleaved rounds in which its before/after twins are timed back to
//! back. Per-kernel rows (`swap16/32/64`, `widen`,
//! `f32_to_f64`, `xml.escape_scan`) compare each dispatched entry point
//! to its scalar twin on preallocated buffers. Rows and gate verdicts go
//! to `BENCH_marshal.json`, which is committed at the repo root.
//!
//! ```sh
//! cargo run --release -p sbq-bench --bin marshal [-- --short]
//! ```
//!
//! `--short` (or `BENCH_SHORT=1`) runs fewer iterations and skips the
//! slowest XML size for CI smoke.

use sbq_bench::report::{short_mode, Bound, Obj, Report};
use sbq_bench::{fmt_bytes, median, time_min};
use sbq_model::{workload, TypeDesc, Value};
use sbq_pbio::{format::FormatOptions, plan, ByteOrder, ConversionPlan, FormatDesc, WireFrame};
use sbq_runtime::simd;
use soap_binq::marshal;
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Interleaved rounds behind each throughput gate.
const REPS: usize = 5;

/// A row: `(encoding, value, op, elements, input bytes per call)`.
type Case<'a> = (&'a str, &'a str, &'a str, usize, usize);

/// MB/s of `bytes` input per call of `f`, from its fastest of `iters` calls.
fn rate<T>(iters: usize, bytes: usize, f: impl FnMut() -> T) -> f64 {
    bytes as f64 / time_min(iters, f).as_secs_f64() / 1e6
}

/// `REPS` rounds of `round`, which times each of a set of twins once, so
/// the twins share whatever the host is doing.
fn rounds<const K: usize>(round: impl FnMut(usize) -> [f64; K]) -> Vec<[f64; K]> {
    (0..REPS).map(round).collect()
}

/// The row table: MB/s and allocations per call of every measured case.
struct Table {
    iters: usize,
    rows: Vec<Obj>,
}

impl Table {
    /// Times `f`, records its row and returns its allocations per call.
    fn measure<T>(&mut self, case: Case, mut f: impl FnMut() -> T) -> u64 {
        let mbps = rate(self.iters, case.4, &mut f);
        self.row(case, mbps, f)
    }

    /// Records a row measured at `mbps`; returns `f`'s allocations per call.
    fn row<T>(&mut self, case: Case, mbps: f64, f: impl FnMut() -> T) -> u64 {
        let (encoding, value, op, elems, bytes) = case;
        let allocs = allocs_in(f);
        let (elems_s, bytes_s) = (fmt_bytes(elems), fmt_bytes(bytes));
        println!(
            "{encoding:8} {value:18} {op:22} {elems_s:>10} elems {bytes_s:>12} bytes \
             {mbps:>10.1} MB/s {allocs:>6} allocs/op"
        );
        let row = Obj::new()
            .put("encoding", encoding)
            .put("value", value)
            .put("op", op)
            .put("elems", elems)
            .put("bytes", bytes)
            .put("mbps", mbps)
            .put("allocs_per_op", allocs);
        self.rows.push(row);
        allocs
    }
}

/// Times a dispatched SIMD kernel call and the same call on its scalar
/// twin (`simd::scalar`), one row each.
macro_rules! kernel_twins {
    ($t:expr, $op:expr, $elems:expr, $bytes:expr, $kernel:ident($($arg:expr),*)) => {
        $t.measure(("kernel", "buffer", $op, $elems, $bytes), || simd::$kernel($($arg),*));
        let scalar = ("kernel", "buffer", &*format!("{}-scalar", $op), $elems, $bytes);
        $t.measure(scalar, || simd::scalar::$kernel($($arg),*));
    };
}

fn options(bo: ByteOrder) -> FormatOptions {
    FormatOptions {
        byte_order: bo,
        int_width: 8,
        float_width: 8,
    }
}

fn main() {
    let short = short_mode();
    let mut report = Report::new("marshal", "BENCH_marshal.json", short);
    let iters = if short { 5 } else { 20 };
    // XML is gated at the largest size measured; --short skips 1M.
    let xml_gate_size = if short { 100_000 } else { 1_000_000 };
    let ty = TypeDesc::list_of(TypeDesc::Float);
    let native_bo = ByteOrder::native();
    let swapped_bo = match native_bo {
        ByteOrder::Little => ByteOrder::Big,
        ByteOrder::Big => ByteOrder::Little,
    };
    let native = FormatDesc::from_type(&ty, options(native_bo)).unwrap();
    let swapped = FormatDesc::from_type(&ty, options(swapped_bo)).unwrap();
    let mut t = Table {
        iters,
        rows: Vec::new(),
    };
    // Per-round MB/s of the gated twins: pbio [after enc, after dec,
    // before enc, before dec], byteswap [kernel, scalar], xml [enc, dec].
    let (mut pbio_1m, mut swap_1m, mut xml_gated) = (vec![], vec![], vec![]);
    let mut xml_decode_max_allocs = 0;

    println!(
        "marshal hot-path benchmark ({} mode, min of {iters} runs; gated rows: median of \
         {REPS} interleaved rounds)\n",
        if short { "short" } else { "full" }
    );

    for n in [1_000, 10_000, 100_000, 1_000_000] {
        let value = workload::float_array(n, 3);
        let Value::FloatArray(raw) = &value else {
            unreachable!()
        };
        let payload = plan::encode(&value, &native).unwrap();
        let bytes = payload.len();
        let float = |op| ("pbio", "float_array", op, n, bytes);
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
        let p = ConversionPlan::compile(&native, &native).unwrap();
        let mut decode_message = || {
            let (frame, _) = WireFrame::parse(&framed).unwrap();
            let WireFrame::Data { payload, .. } = frame else {
                unreachable!()
            };
            p.execute(payload).unwrap()
        };
        if n < 1_000_000 {
            t.measure(float("encode"), &mut encode_message);
            t.measure(float("decode"), &mut decode_message);
        } else {
            // The pre-bulk baseline, measured where the gate reads it. Width
            // comes from format data at runtime, as it did for the old
            // per-element loops.
            let width: u8 = std::hint::black_box(8);
            let mut encode_before = || reference_encode_message(raw, width, native_bo, bytes);
            let mut decode_before = || reference_decode_message(&framed, width, native_bo);
            // Cross-check both paths against each other so the "before"
            // numbers measure a correct implementation.
            let before = Value::FloatArray(decode_before());
            assert_eq!(decode_message(), before, "baseline disagrees");
            assert_eq!(encode_before(), framed, "baseline encodes different bytes");
            pbio_1m = rounds(|_| {
                [
                    rate(iters, bytes, &mut encode_message),
                    rate(iters, bytes, &mut decode_message),
                    rate(iters, bytes, &mut encode_before),
                    rate(iters, bytes, &mut decode_before),
                ]
            });
            let m = |k: usize| median(pbio_1m.iter().map(|r| r[k]));
            t.row(float("encode"), m(0), encode_message);
            t.row(float("decode"), m(1), decode_message);
            t.row(float("encode-before"), m(2), encode_before);
            t.row(float("decode-before"), m(3), decode_before);
        }

        // --- Bulk path, cross byte order (swap on the bulk pass) -------
        let swapped_payload = plan::encode(&value, &swapped).unwrap();
        let px = ConversionPlan::compile(&swapped, &native).unwrap();
        let decode_swapped = || px.execute(&swapped_payload).unwrap();
        t.measure(float("decode-byteswap"), decode_swapped);
        if n == 1_000_000 {
            // Kernel-vs-kernel pair for the SIMD speedup gate: the same
            // wire payload decoded into a fresh Vec by the dispatched
            // kernel and by its scalar twin, identical calling conventions
            // on both sides. The full-plan row above stays as the
            // end-to-end number; it mixes in header parsing and Value
            // construction that dilute the kernel ratio.
            let body = &swapped_payload[4..];
            let swap_decode = |kernel: fn(&[u8], usize, bool, &mut [MaybeUninit<f64>])| {
                move || {
                    let mut out: Vec<f64> = Vec::with_capacity(n);
                    kernel(body, 8, true, &mut out.spare_capacity_mut()[..n]);
                    // SAFETY: the kernel wrote all n elements.
                    unsafe { out.set_len(n) };
                    out
                }
            };
            let mut kernel = swap_decode(simd::decode_f64);
            let mut scalar = swap_decode(simd::scalar::decode_f64);
            for out in [kernel(), scalar()] {
                let out = Value::FloatArray(out);
                assert_eq!(decode_swapped(), out, "byteswap kernel disagrees");
            }
            swap_1m = rounds(|_| {
                [
                    rate(iters, bytes, &mut kernel),
                    rate(iters, bytes, &mut scalar),
                ]
            });
            let m = |k: usize| median(swap_1m.iter().map(|r| r[k]));
            t.row(float("decode-byteswap-kernel"), m(0), kernel);
            t.row(float("decode-byteswap-scalar"), m(1), scalar);
        }

        // --- XML / compressed XML -------------------------------------
        if n > xml_gate_size {
            println!("xml      (skipped at {} elems under --short)", fmt_bytes(n));
            continue;
        }
        let xml = marshal::value_to_xml(&value, "p");
        let key = |encoding, op| (encoding, "float_array", op, n, xml.len());
        let mut encode = || marshal::value_to_xml(&value, "p");
        let mut decode = || marshal::parse_document(&xml, &ty).unwrap();
        let allocs = if n == xml_gate_size {
            let b = xml.len();
            xml_gated = rounds(|_| [rate(iters, b, &mut encode), rate(iters, b, &mut decode)]);
            let m = |k: usize| median(xml_gated.iter().map(|r| r[k]));
            t.row(key("xml", "encode"), m(0), encode);
            t.row(key("xml", "decode"), m(1), decode)
        } else {
            t.measure(key("xml", "encode"), encode);
            t.measure(key("xml", "decode"), decode)
        };
        xml_decode_max_allocs = allocs.max(xml_decode_max_allocs);
        let lz = sbq_lz::compress(xml.as_bytes());
        t.measure(key("lzxml", "encode"), || sbq_lz::compress(xml.as_bytes()));
        t.measure(key("lzxml", "decode"), || sbq_lz::decompress(&lz).unwrap());
    }

    // -----------------------------------------------------------------
    // A small array and a nested struct through every encoding: XML,
    // PBIO (including big-endian 4-byte-int receiver-makes-right decode),
    // XDR, and LZ over the array's XML.
    // -----------------------------------------------------------------
    println!();
    let sparc_options = FormatOptions {
        byte_order: ByteOrder::Big,
        int_width: 4,
        float_width: 8,
    };
    let int_array = (
        workload::int_array(8192, 1),
        TypeDesc::list_of(TypeDesc::Int),
    );
    let nested = (
        workload::business_struct(6, 1),
        workload::business_struct_type(6),
    );
    for (name, elems, (v, ty)) in [
        ("int_array_8k", 8192, int_array),
        ("business_struct_d6", 1, nested),
    ] {
        let xml = marshal::value_to_xml(&v, "p");
        let native = FormatDesc::from_type(&ty, FormatOptions::default()).unwrap();
        let sparc = FormatDesc::from_type(&ty, sparc_options).unwrap();
        let pbio = plan::encode(&v, &native).unwrap();
        let foreign = plan::encode(&v, &sparc).unwrap();
        let identity = ConversionPlan::identity(&native);
        let convert = ConversionPlan::compile(&sparc, &native).unwrap();
        let xdr = sbq_xdr::encode(&v, &ty).unwrap();
        let lz = sbq_lz::compress(xml.as_bytes());
        let key = |encoding, op, bytes: &[u8]| (encoding, name, op, elems, bytes.len());
        t.measure(key("xml", "encode", xml.as_bytes()), || {
            marshal::value_to_xml(&v, "p")
        });
        t.measure(key("xml", "decode", xml.as_bytes()), || {
            marshal::parse_document(&xml, &ty).unwrap()
        });
        t.measure(key("pbio", "encode", &pbio), || {
            plan::encode(&v, &native).unwrap()
        });
        t.measure(key("pbio", "decode", &pbio), || {
            identity.execute(&pbio).unwrap()
        });
        t.measure(key("pbio", "decode-rmr", &foreign), || {
            convert.execute(&foreign).unwrap()
        });
        t.measure(key("xdr", "encode", &xdr), || {
            sbq_xdr::encode(&v, &ty).unwrap()
        });
        t.measure(key("xdr", "decode", &xdr), || {
            sbq_xdr::decode(&xdr, &ty).unwrap()
        });
        if elems > 1 {
            t.measure(key("lzxml", "encode", xml.as_bytes()), || {
                sbq_lz::compress(xml.as_bytes())
            });
            t.measure(key("lzxml", "decode", xml.as_bytes()), || {
                sbq_lz::decompress(&lz).unwrap()
            });
        }
    }

    // -----------------------------------------------------------------
    // Per-kernel rows: the dispatched (SIMD when available) entry points
    // against their scalar twins, on preallocated buffers so the numbers
    // are pure kernel throughput (MB/s of *input* bytes, 0 allocs/op).
    // -----------------------------------------------------------------
    println!();
    let kn = 1_000_000usize;
    for (w, op) in [(2usize, "swap16"), (4, "swap32"), (8, "swap64")] {
        let total = kn * w;
        let src: Vec<u8> = (0..total).map(|i| (i * 31) as u8).collect();
        let mut dst: Vec<u8> = Vec::with_capacity(total);
        let dst = &mut dst.spare_capacity_mut()[..total];
        kernel_twins!(t, op, kn, total, bswap(w, &src, dst));
    }
    // widen: 4-byte little-endian ints sign-extended to i64, then f32 ->
    // f64 widening loads of the same buffer.
    let src: Vec<u8> = (0..kn * 4).map(|i| (i * 17) as u8).collect();
    let swap = !matches!(native_bo, ByteOrder::Little);
    let mut ints: Vec<i64> = Vec::with_capacity(kn);
    let ints = &mut ints.spare_capacity_mut()[..kn];
    kernel_twins!(t, "widen", kn, src.len(), decode_i64(&src, 4, swap, ints));
    let mut floats: Vec<f64> = Vec::with_capacity(kn);
    let floats = &mut floats.spare_capacity_mut()[..kn];
    kernel_twins!(
        t,
        "f32_to_f64",
        kn,
        src.len(),
        decode_f64(&src, 4, swap, floats)
    );
    // needs-escape scan over a 4 MB entity-free span (the common case the
    // vectorized scan is built for).
    let text = vec![b'a'; 4 << 20];
    kernel_twins!(
        t,
        "xml.escape_scan",
        text.len(),
        text.len(),
        escape_scan(&text, false)
    );

    // -----------------------------------------------------------------
    // Gates: each throughput gate reads the median of the interleaved
    // rounds. Throughput gates are advisory under --short (CI
    // contention) and enforced on full runs; the plan-ops and allocation
    // gates are deterministic and enforced in both.
    // -----------------------------------------------------------------
    let reg = soap_binq::Registry::global();
    let bulk_ops = reg.counter("pbio.plan.bulk_ops").get();
    let scalar_ops = reg.counter("pbio.plan.scalar_ops").get();
    // The bulk kernels actually ran: the numbers are not the scalar path.
    report.gate("pbio_bulk_ops", bulk_ops as f64, Bound::Ge(1.0), true);
    let combined = median(pbio_1m.iter().map(|r| (r[0] + r[1]) / (r[2] + r[3])));
    report.gate("combined_speedup_1m_f64", combined, Bound::Ge(3.0), !short);
    // Only a live SIMD tier has a kernel to set against its scalar twin.
    let swap = match simd::level() {
        simd::SimdLevel::Scalar => f64::NAN,
        _ => median(swap_1m.iter().map(|r| r[0] / r[1])),
    };
    report.gate("byteswap_speedup_1m_f64", swap, Bound::Ge(1.5), !short);
    // 2x the pre-SIMD ~200 MB/s.
    let xml_encode = median(xml_gated.iter().map(|r| r[0]));
    report.gate("xml_encode_mbps", xml_encode, Bound::Ge(400.0), !short);
    // The leaf fast path; the event-only decode it replaced read
    // 250-330 MB/s. Under --short XML stops below 1M f64.
    let xml_decode = if short {
        f64::NAN
    } else {
        median(xml_gated.iter().map(|r| r[1]))
    };
    report.gate("xml_decode_1m_f64_mbps", xml_decode, Bound::Ge(300.0), true);
    let allocs = xml_decode_max_allocs as f64;
    report.gate("xml_decode_allocs_per_op", allocs, Bound::Le(10.0), true);

    let plan_ops = Obj::new().put("bulk", bulk_ops).put("scalar", scalar_ops);
    report.set("plan_ops", plan_ops);
    report.set("rounds", REPS);
    report.set("rows", t.rows);
    report.finish();
}
