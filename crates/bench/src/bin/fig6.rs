//! Figure 6: costs **when the data is already XML** (§IV-B.f) for nested
//! structs over (a) 100 Mbps and (b) ADSL: XML→PBIO conversion + transfer
//! + PBIO→XML, vs sending the XML directly, vs compressing the XML.

use sbq_bench::*;
use sbq_model::workload;
use sbq_netsim::LinkSpec;
use sbq_pbio::{plan, ConversionPlan, FormatDesc};
use soap_binq::marshal;

fn main() {
    println!("Figure 6 — nested structs, data available as XML");

    // Size table first (the ninefold-style blowup claim).
    header(
        "encoded sizes (nested structs)",
        &["depth", "native/pbio", "xml", "lz(xml)", "xml/pbio"],
    );
    for depth in [2usize, 4, 6, 8] {
        let ty = workload::business_struct_type(depth);
        let format = FormatDesc::from_type(&ty, paper_format_options()).unwrap();
        let v = workload::business_struct(depth, 3);
        let pbio = plan::encode(&v, &format).unwrap();
        let xml = marshal::value_to_xml(&v, "p");
        let lz = sbq_lz::compress(xml.as_bytes());
        println!(
            "{depth:>5} | {:>11} | {:>9} | {:>9} | {:6.2}x",
            fmt_bytes(pbio.len()),
            fmt_bytes(xml.len()),
            fmt_bytes(lz.len()),
            xml.len() as f64 / pbio.len() as f64,
        );
    }

    for link in [LinkSpec::lan_100mbps(), LinkSpec::adsl()] {
        header(
            &format!(
                "one-way costs over {} (struct depth 8, replicated x64 for weight)",
                link.name
            ),
            &["path", "cpu", "wire bytes", "total"],
        );
        // A single depth-8 struct is tiny; the paper's experiments move
        // larger documents. Use a list of structs as the parameter.
        let ty = sbq_model::TypeDesc::list_of(workload::business_struct_type(8));
        let format = FormatDesc::from_type(&ty, paper_format_options()).unwrap();
        let v = sbq_model::Value::List((0..64).map(|i| workload::business_struct(8, i)).collect());
        let xml = marshal::value_to_xml(&v, "p");
        let iters = 6;

        // Path 1: XML -> native -> PBIO, transfer, PBIO -> native -> XML.
        let conv_in = time_min(iters, || {
            let native = marshal::parse_document(&xml, &ty).unwrap();
            plan::encode(&native, &format).unwrap()
        });
        let pbio = plan::encode(&marshal::parse_document(&xml, &ty).unwrap(), &format).unwrap();
        let decoder = ConversionPlan::identity(&format);
        let conv_out = time_min(iters, || {
            let native = decoder.execute(&pbio).unwrap();
            marshal::value_to_xml(&native, "p")
        });
        let cpu = conv_in + conv_out;
        let wire = pbio.len() + 9 + http_request_overhead(pbio.len());
        println!(
            "{:>22} | {} | {:>10} | {}",
            "xml->pbio->xml",
            fmt_dur(cpu),
            fmt_bytes(wire),
            fmt_dur(cpu + transfer(&link, wire)),
        );

        // Path 2: direct XML send (receiver parses).
        let parse = time_min(iters, || marshal::parse_document(&xml, &ty).unwrap());
        let wire = xml.len() + http_request_overhead(xml.len());
        println!(
            "{:>22} | {} | {:>10} | {}",
            "direct xml",
            fmt_dur(parse),
            fmt_bytes(wire),
            fmt_dur(parse + transfer(&link, wire)),
        );

        // Path 3: compressed XML (receiver decompresses + parses).
        let comp = time_min(iters, || sbq_lz::compress(xml.as_bytes()));
        let lz = sbq_lz::compress(xml.as_bytes());
        let decomp = time_min(iters, || {
            let x = sbq_lz::decompress(&lz).unwrap();
            marshal::parse_document(std::str::from_utf8(&x).unwrap(), &ty).unwrap()
        });
        let cpu = comp + decomp;
        let wire = lz.len() + http_request_overhead(lz.len());
        println!(
            "{:>22} | {} | {:>10} | {}",
            "compressed xml",
            fmt_dur(cpu),
            fmt_bytes(wire),
            fmt_dur(cpu + transfer(&link, wire)),
        );
    }

    println!(
        "\npaper shape: on the fast link conversion costs more than sending raw\n\
         XML; on ADSL conversion pays off; compressing the existing XML beats\n\
         both when endpoints genuinely want XML."
    );
}
