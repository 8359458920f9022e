//! Figure 4: Sun RPC vs SOAP-bin — overall (marshal + transmit +
//! unmarshal) times for (a) integer arrays and (b) nested structs over a
//! 100 Mbps link.
//!
//! Modeling notes (see DESIGN.md): CPU costs are measured; transmission
//! is the netsim 100 Mbps model. Sun RPC rides a persistent record-marked
//! TCP connection; SOAP-bin pays HTTP framing plus a connection-setup
//! charge per call (the 2001-era Soup transport opened a connection per
//! request), which is exactly the "delay … mainly due to SOAP-bin's use
//! of HTTP" the paper reports for small nested structs.

use sbq_bench::*;
use sbq_model::{workload, TypeDesc, Value};
use sbq_netsim::LinkSpec;
use sbq_pbio::{plan, ConversionPlan, FormatDesc};
use sbq_xdr::rpc;
use std::time::Duration;

/// TCP connect handshake charged to each non-persistent HTTP call.
fn http_setup(link: &LinkSpec) -> Duration {
    3 * link.latency
}

fn run_case(name: &str, value: &Value, ty: &TypeDesc, link: &LinkSpec, iters: usize) {
    let format = FormatDesc::from_type(ty, paper_format_options()).unwrap();

    // Sun RPC: XDR encode + record transfer + decode.
    let xdr_enc = time_min(iters, || sbq_xdr::encode(value, ty).unwrap());
    let xdr_bytes = sbq_xdr::encode(value, ty).unwrap();
    let xdr_dec = time_min(iters, || sbq_xdr::decode(&xdr_bytes, ty).unwrap());
    let rpc_wire = rpc::CALL_OVERHEAD + xdr_bytes.len();
    let rpc_total = xdr_enc + transfer(link, rpc_wire) + xdr_dec;

    // SOAP-bin: PBIO encode + HTTP(setup + framed transfer) + decode.
    let pb_enc = time_min(iters, || plan::encode(value, &format).unwrap());
    let pb_bytes = plan::encode(value, &format).unwrap();
    let decoder = ConversionPlan::identity(&format);
    let pb_dec = time_min(iters, || decoder.execute(&pb_bytes).unwrap());
    let http_wire = http_request_overhead(pb_bytes.len()) + 9 + pb_bytes.len();
    let sb_total = pb_enc + http_setup(link) + transfer(link, http_wire) + pb_dec;

    let ratio = sb_total.as_secs_f64() / rpc_total.as_secs_f64();
    println!(
        "{name:>14} | {} | {} | {} | {ratio:5.2}x",
        fmt_bytes(pb_bytes.len()),
        fmt_dur(rpc_total),
        fmt_dur(sb_total),
    );
}

fn main() {
    let link = LinkSpec::lan_100mbps();
    println!("Figure 4 — Sun RPC vs SOAP-bin over {}", link.name);

    header(
        "(a) integer arrays",
        &[
            "workload",
            "pbio bytes",
            "sun rpc",
            "soap-bin",
            "soapbin/rpc",
        ],
    );
    for &n in &[32usize, 256, 2048, 16_384, 131_072] {
        let v = workload::int_array(n, 1);
        run_case(
            &format!("int[{n}]"),
            &v,
            &TypeDesc::list_of(TypeDesc::Int),
            &link,
            12,
        );
    }

    header(
        "(b) nested structs",
        &[
            "workload",
            "pbio bytes",
            "sun rpc",
            "soap-bin",
            "soapbin/rpc",
        ],
    );
    for depth in 1..=8 {
        let v = workload::nested_struct(depth, 2);
        run_case(
            &format!("struct d={depth}"),
            &v,
            &workload::nested_struct_type(depth),
            &link,
            50,
        );
    }

    println!(
        "\npaper shape: arrays ~comparable; Sun RPC wins on nested structs\n\
         (paper: up to ~5.4x) because HTTP setup+framing dominates small messages."
    );
}
