//! Table I: event rates for the airline application — one catering event
//! encoded four ways (plain SOAP XML, SOAP-bin, native PBIO without HTTP,
//! compressed-XML SOAP), transported over the ADSL link.
//!
//! Paper's measured row set:
//! ```text
//!                       Size        Event rate (events per sec)
//! SOAP                  3898 bytes  10.15
//! SOAP-bin               860 bytes  13.76
//! Native PBIO            860 bytes  14.06
//! SOAP (compressed XML) 1264 bytes  13.17
//! ```
//! Absolute rates differ on modern hardware/link models; the *ordering*
//! (native PBIO ≥ SOAP-bin > compressed > plain SOAP) and the ~4.5x size
//! gap are the reproduced shape.

use sbq_airline::{catering_event_type, CateringEvent, Dataset};
use sbq_bench::*;
use sbq_netsim::LinkSpec;
use sbq_pbio::{plan, ConversionPlan, FormatDesc};
use soap_binq::marshal;
use std::time::Duration;

fn main() {
    let ds = Dataset::generate(20, 42);
    let idx = ds
        .flights
        .iter()
        .position(|f| f.duration_min >= 90)
        .expect("dataset has a long-haul flight");
    let event = CateringEvent::build(&ds, idx, 0);
    let value = event.to_value();
    let ty = catering_event_type();
    let format = FormatDesc::from_type(&ty, paper_format_options()).unwrap();
    let link = LinkSpec::adsl();
    let iters = 40;

    println!(
        "Table I — event rates for the airline application over {}",
        link.name
    );
    header(
        "encodings",
        &[
            "encoding",
            "size (B)",
            "cpu/event",
            "wire/event",
            "events/sec",
        ],
    );

    let mut rows: Vec<(String, usize, Duration, usize)> = Vec::new();

    // Plain SOAP: marshal to XML + parse back, HTTP framing.
    let xml = marshal::value_to_xml(&value, "catering_event");
    let cpu = time_min(iters, || marshal::value_to_xml(&value, "catering_event"))
        + time_min(iters, || marshal::parse_document(&xml, &ty).unwrap());
    rows.push((
        "SOAP".into(),
        xml.len(),
        cpu,
        xml.len() + http_request_overhead(xml.len()),
    ));

    // SOAP-bin: PBIO payload over HTTP.
    let pbio = plan::encode(&value, &format).unwrap();
    let decoder = ConversionPlan::identity(&format);
    let cpu = time_min(iters, || plan::encode(&value, &format).unwrap())
        + time_min(iters, || decoder.execute(&pbio).unwrap());
    rows.push((
        "SOAP-bin".into(),
        pbio.len(),
        cpu,
        pbio.len() + 9 + http_request_overhead(pbio.len()),
    ));

    // Native PBIO: same payload, raw framed messages, no HTTP.
    let cpu = time_min(iters, || plan::encode(&value, &format).unwrap())
        + time_min(iters, || decoder.execute(&pbio).unwrap());
    rows.push(("Native PBIO".into(), pbio.len(), cpu, pbio.len() + 9));

    // Compressed-XML SOAP.
    let lz = sbq_lz::compress(xml.as_bytes());
    let cpu = time_min(iters, || {
        let x = sbq_lz::compress(xml.as_bytes());
        let back = sbq_lz::decompress(&x).unwrap();
        marshal::parse_document(std::str::from_utf8(&back).unwrap(), &ty).unwrap()
    }) + time_min(iters, || marshal::value_to_xml(&value, "catering_event"));
    rows.push((
        "SOAP (compressed XML)".into(),
        lz.len(),
        cpu,
        lz.len() + http_request_overhead(lz.len()),
    ));

    for (name, size, cpu, wire) in &rows {
        let per_event = *cpu + transfer(&link, *wire);
        let rate = 1.0 / per_event.as_secs_f64();
        println!(
            "{name:>22} | {:>8} | {} | {:>10} | {rate:9.2}",
            fmt_bytes(*size),
            fmt_dur(*cpu),
            fmt_bytes(*wire),
        );
    }

    let soap_size = rows[0].1 as f64;
    let pbio_size = rows[1].1 as f64;
    println!(
        "\nsize ratio SOAP/SOAP-bin = {:.2}x (paper: 3898/860 = 4.53x)",
        soap_size / pbio_size
    );
}
