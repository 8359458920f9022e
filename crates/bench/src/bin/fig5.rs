//! Figure 5: SOAP-bin costs vs XML compression vs direct XML send for
//! **arrays**, over (a) the 100 Mbps link and (b) the ADSL link — plus
//! the encoded-size comparison of §IV-B.e.

use sbq_bench::*;
use sbq_model::{workload, TypeDesc};
use sbq_netsim::LinkSpec;
use sbq_pbio::{plan, ConversionPlan, FormatDesc};
use soap_binq::marshal;

fn main() {
    let ty = TypeDesc::list_of(TypeDesc::Int);
    let format = FormatDesc::from_type(&ty, paper_format_options()).unwrap();
    let sizes = [1_024usize, 8_192, 65_536, 131_072];

    header(
        "encoded sizes (int arrays)",
        &[
            "elements",
            "native/pbio",
            "xml",
            "lz(xml)",
            "xml/pbio",
            "lz/pbio",
        ],
    );
    for &n in &sizes {
        let v = workload::int_array(n, 2);
        let pbio = plan::encode(&v, &format).unwrap();
        let xml = marshal::value_to_xml(&v, "p");
        let lz = sbq_lz::compress(xml.as_bytes());
        println!(
            "{n:>8} | {:>11} | {:>9} | {:>9} | {:7.2}x | {:6.2}x",
            fmt_bytes(pbio.len()),
            fmt_bytes(xml.len()),
            fmt_bytes(lz.len()),
            xml.len() as f64 / pbio.len() as f64,
            lz.len() as f64 / pbio.len() as f64,
        );
    }

    for link in [LinkSpec::lan_100mbps(), LinkSpec::adsl()] {
        header(
            &format!("overall one-way costs over {} (int arrays)", link.name),
            &[
                "elements",
                "pbio enc+dec",
                "pbio+tx",
                "lz comp+dec",
                "lz+tx",
                "xml direct tx",
            ],
        );
        for &n in &sizes {
            let v = workload::int_array(n, 2);
            let iters = if n > 50_000 { 4 } else { 10 };

            let pb_enc = time_min(iters, || plan::encode(&v, &format).unwrap());
            let pbio = plan::encode(&v, &format).unwrap();
            let decoder = ConversionPlan::identity(&format);
            let pb_dec = time_min(iters, || decoder.execute(&pbio).unwrap());
            let pb_cpu = pb_enc + pb_dec;
            let pb_total =
                pb_cpu + transfer(&link, pbio.len() + 9 + http_request_overhead(pbio.len()));

            let xml = marshal::value_to_xml(&v, "p");
            let lz_c = time_min(iters, || sbq_lz::compress(xml.as_bytes()));
            let lz = sbq_lz::compress(xml.as_bytes());
            let lz_d = time_min(iters, || sbq_lz::decompress(&lz).unwrap());
            let lz_cpu = lz_c + lz_d;
            let lz_total = lz_cpu + transfer(&link, lz.len() + http_request_overhead(lz.len()));

            let xml_total = transfer(&link, xml.len() + http_request_overhead(xml.len()));

            println!(
                "{n:>8} | {} | {} | {} | {} | {}",
                fmt_dur(pb_cpu),
                fmt_dur(pb_total),
                fmt_dur(lz_cpu),
                fmt_dur(lz_total),
                fmt_dur(xml_total),
            );
        }
    }

    println!(
        "\npaper shape: XML 4-5x PBIO size; compressed XML ~PBIO size;\n\
         PBIO encode/decode << transfer on ADSL; direct XML competitive only\n\
         on the fast link where bandwidth is not the bottleneck."
    );
}
