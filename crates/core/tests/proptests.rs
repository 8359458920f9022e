//! Randomized-property tests over the SOAP layers: envelope round trips,
//! marshalling round trips, and cross-encoding agreement for arbitrary
//! schemas and conforming values. Seeded generation keeps every case
//! reproducible.

use sbq_model::{StructDesc, StructValue, TypeDesc, Value};
use sbq_runtime::SmallRng;
use soap_binq::envelope::{self, QosHeader};
use soap_binq::marshal;

const CASES: u64 = 192;

fn arb_type(rng: &mut SmallRng, depth: u32) -> TypeDesc {
    let leaf = |rng: &mut SmallRng| match rng.gen_below(5) {
        0 => TypeDesc::Int,
        1 => TypeDesc::Float,
        2 => TypeDesc::Char,
        3 => TypeDesc::Str,
        _ => TypeDesc::Bytes,
    };
    if depth == 0 || rng.gen_bool(0.4) {
        return leaf(rng);
    }
    match rng.gen_below(2) {
        0 => TypeDesc::list_of(arb_type(rng, depth - 1)),
        _ => {
            let n = 1 + rng.gen_below(3) as usize;
            let fields = (0..n)
                .map(|i| (format!("f{i}"), arb_type(rng, depth - 1)))
                .collect();
            let name: String = (0..1 + rng.gen_below(6))
                .map(|_| (b'a' + rng.gen_below(26) as u8) as char)
                .collect();
            TypeDesc::Struct(StructDesc::new(name, fields))
        }
    }
}

fn sample(ty: &TypeDesc, seed: &mut u64) -> Value {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let s = *seed;
    match ty {
        TypeDesc::Int => Value::Int(s as i64 / 3),
        TypeDesc::Float => Value::Float((s % 1_000_000) as f64 / 64.0),
        TypeDesc::Char => Value::Char((s % 256) as u8),
        // Strings include XML-hostile characters on purpose.
        TypeDesc::Str => Value::Str(format!("v<{}>&'\"{}", s % 100, s % 7)),
        TypeDesc::Bytes => Value::Bytes((0..(s % 24) as u8).collect()),
        TypeDesc::List(e) => {
            let n = (s % 4) as usize;
            match **e {
                TypeDesc::Int => Value::IntArray((0..n).map(|i| i as i64 - 2).collect()),
                TypeDesc::Float => Value::FloatArray((0..n).map(|i| i as f64 / 4.0).collect()),
                _ => Value::List((0..n).map(|_| sample(e, seed)).collect()),
            }
        }
        TypeDesc::Struct(sd) => Value::Struct(StructValue::new(
            sd.name.clone(),
            sd.fields
                .iter()
                .map(|(n, t)| (n.clone(), sample(t, seed)))
                .collect(),
        )),
    }
}

#[test]
fn marshal_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0001);
    for _ in 0..CASES {
        let ty = arb_type(&mut rng, 3);
        let mut s = rng.next_u64();
        let v = sample(&ty, &mut s);
        let xml = marshal::value_to_xml(&v, "p");
        assert_eq!(marshal::parse_document(&xml, &ty).unwrap(), v, "{ty:?}");
    }
}

#[test]
fn envelope_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0002);
    for _ in 0..CASES {
        let ty = arb_type(&mut rng, 2);
        let mut s = rng.next_u64();
        let v = sample(&ty, &mut s);
        let header = QosHeader {
            timestamp_us: rng.next_u64(),
            rtt_ms: if rng.gen_bool(0.5) {
                Some(rng.gen_f64() * 1e6)
            } else {
                None
            },
            server_time_us: rng.gen_below(u32::MAX as u64),
            message_type: Some("band_x".to_string()),
        };
        let xml = envelope::build_request("op_name", &v, &header);
        let parsed = envelope::parse_envelope(&xml, |_| Some(ty.clone())).unwrap();
        assert_eq!(parsed.operation, "op_name");
        assert_eq!(parsed.value, v);
        assert_eq!(parsed.header, header);
    }
}

#[test]
fn envelope_parse_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0003);
    for _ in 0..CASES {
        let n = rng.gen_below(256);
        let doc: String = (0..n)
            .map(|_| {
                let hostile = ['<', '>', '&', '/', '"', 'x', ' ', 'é'];
                hostile[rng.gen_below(hostile.len() as u64) as usize]
            })
            .collect();
        let _ = envelope::parse_envelope(&doc, |_| Some(TypeDesc::Int));
    }
}

#[test]
fn compressed_envelope_agrees_with_plain() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0004);
    for _ in 0..CASES {
        let ty = arb_type(&mut rng, 2);
        let mut s = rng.next_u64();
        let v = sample(&ty, &mut s);
        let xml = envelope::build_request("op", &v, &QosHeader::default());
        let lz = sbq_lz::compress(xml.as_bytes());
        let back = sbq_lz::decompress(&lz).unwrap();
        let parsed =
            envelope::parse_envelope(std::str::from_utf8(&back).unwrap(), |_| Some(ty.clone()))
                .unwrap();
        assert_eq!(parsed.value, v);
    }
}

#[test]
fn pbio_and_xml_transport_agree() {
    // The same value pushed through both serializations decodes
    // identically — the cross-encoding agreement the three modes
    // depend on.
    let mut rng = SmallRng::seed_from_u64(0xc0de_0005);
    for _ in 0..CASES {
        let ty = arb_type(&mut rng, 2);
        let mut s = rng.next_u64();
        let v = sample(&ty, &mut s);
        let format = sbq_pbio::FormatDesc::from_type(&ty, Default::default()).unwrap();
        let wire = sbq_pbio::plan::encode(&v, &format).unwrap();
        let via_pbio = sbq_pbio::ConversionPlan::identity(&format)
            .execute(&wire)
            .unwrap();
        let via_xml = marshal::parse_document(&marshal::value_to_xml(&v, "p"), &ty).unwrap();
        assert_eq!(via_pbio, via_xml);
    }
}
