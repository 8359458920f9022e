//! Headline micro-claims from §I and §IV-B:
//!
//! * "message transmission times are improved by a factor of about 15 for
//!   1MByte message sizes" (XML SOAP vs SOAP-bin, including marshalling);
//! * "XML parameters … about 4-5 times the size of the corresponding PBIO
//!   messages" (arrays) and the larger nested-struct blowup;
//! * marshalling/unmarshalling load reduction.

use sbq_bench::*;
use sbq_model::{workload, TypeDesc, Value};
use sbq_netsim::LinkSpec;
use sbq_pbio::{plan, ConversionPlan, FormatDesc};
use soap_binq::marshal;

fn main() {
    println!("Headline claims (§I, §IV-B)");

    // --- size ratios -----------------------------------------------------
    header(
        "size ratios (xml / pbio)",
        &["workload", "pbio", "xml", "ratio"],
    );
    let cases: Vec<(String, Value, TypeDesc)> = vec![
        (
            "int array 128Ki".into(),
            workload::int_array(131_072, 1),
            TypeDesc::list_of(TypeDesc::Int),
        ),
        (
            "business structs d8 x64".into(),
            Value::List((0..64).map(|i| workload::business_struct(8, i)).collect()),
            TypeDesc::list_of(workload::business_struct_type(8)),
        ),
    ];
    for (name, v, ty) in &cases {
        let format = FormatDesc::from_type(ty, paper_format_options()).unwrap();
        let pbio = plan::encode(v, &format).unwrap();
        let xml = marshal::value_to_xml(v, "p");
        println!(
            "{name:>24} | {:>10} | {:>10} | {:5.2}x",
            fmt_bytes(pbio.len()),
            fmt_bytes(xml.len()),
            xml.len() as f64 / pbio.len() as f64
        );
    }

    // --- 1 MB end-to-end improvement --------------------------------------
    // A message whose PBIO form is ~1 MB, sent as classic SOAP (marshal +
    // xml transfer + parse) vs SOAP-bin (encode + binary transfer + decode).
    let n = 262_144; // x 4B ints = 1 MiB payload
    let v = workload::int_array(n, 9);
    let ty = TypeDesc::list_of(TypeDesc::Int);
    let format = FormatDesc::from_type(&ty, paper_format_options()).unwrap();

    for link in [LinkSpec::lan_100mbps(), LinkSpec::adsl()] {
        header(
            &format!("1MB message, plain SOAP vs SOAP-bin over {}", link.name),
            &["stack", "cpu", "wire", "total"],
        );
        let marshal_t = time_min(4, || marshal::value_to_xml(&v, "p"));
        let xml = marshal::value_to_xml(&v, "p");
        let parse_t = time_min(4, || marshal::parse_document(&xml, &ty).unwrap());
        let soap_cpu = marshal_t + parse_t;
        let soap_wire = xml.len() + http_request_overhead(xml.len());
        let soap_total = soap_cpu + transfer(&link, soap_wire);
        println!(
            "{:>10} | {} | {:>10} | {}",
            "SOAP",
            fmt_dur(soap_cpu),
            fmt_bytes(soap_wire),
            fmt_dur(soap_total)
        );

        let enc_t = time_min(4, || plan::encode(&v, &format).unwrap());
        let pbio = plan::encode(&v, &format).unwrap();
        let decoder = ConversionPlan::identity(&format);
        let dec_t = time_min(4, || decoder.execute(&pbio).unwrap());
        let bin_cpu = enc_t + dec_t;
        let bin_wire = pbio.len() + 9 + http_request_overhead(pbio.len());
        let bin_total = bin_cpu + transfer(&link, bin_wire);
        println!(
            "{:>10} | {} | {:>10} | {}",
            "SOAP-bin",
            fmt_dur(bin_cpu),
            fmt_bytes(bin_wire),
            fmt_dur(bin_total)
        );
        println!(
            "improvement: {:.1}x total, {:.1}x cpu (paper: ~15x transmission at 1MB)",
            soap_total.as_secs_f64() / bin_total.as_secs_f64(),
            soap_cpu.as_secs_f64() / bin_cpu.as_secs_f64(),
        );
    }

    // --- registration handshake ------------------------------------------
    header(
        "format-registration (first message) overhead",
        &["workload", "reg bytes", "data bytes", "reg/data"],
    );
    for depth in [1usize, 4, 8] {
        let ty = workload::business_struct_type(depth);
        let format = FormatDesc::from_type(&ty, paper_format_options()).unwrap();
        let v = workload::business_struct(depth, 1);
        let data = pbio_wire_size(&v, &format);
        let reg = pbio_registration_size(&format);
        println!(
            "{:>12} | {:>9} | {:>10} | {:5.2}x",
            format!("struct d={depth}"),
            fmt_bytes(reg),
            fmt_bytes(data),
            reg as f64 / data as f64
        );
    }
    println!(
        "\npaper shape: registration cost negligible for small formats,\n\
         significant only for deeply nested structures (and paid once)."
    );
}
