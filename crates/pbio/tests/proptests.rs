//! Randomized-property tests: encode→convert round trips across arbitrary
//! schemas and sender architectures. Seeded generation keeps every case
//! reproducible.

use sbq_model::{TypeDesc, Value};
use sbq_pbio::{plan, ByteOrder, ConversionPlan, FormatDesc};
use sbq_runtime::SmallRng;

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
            TypeDesc::Struct(sbq_model::StructDesc::new(name, fields))
        }
    }
}

fn sample(ty: &TypeDesc, seed: &mut u64) -> Value {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let s = *seed;
    match ty {
        // Int values stay within i16 so that narrow-width wire formats
        // (the 4-byte SPARC case uses i32; truncation only matters beyond
        // the wire width) round-trip exactly.
        TypeDesc::Int => Value::Int((s % 30000) as i64 - 15000),
        // Multiples of 1/16 below 2^17 are exactly representable in f32,
        // so 4-byte wire floats round-trip losslessly.
        TypeDesc::Float => Value::Float(((s % 100000) as f64) / 16.0),
        TypeDesc::Char => Value::Char((s % 256) as u8),
        TypeDesc::Str => Value::Str(format!("v{}", s % 1000)),
        TypeDesc::Bytes => Value::Bytes((0..(s % 16) as u8).collect()),
        TypeDesc::List(e) => {
            let n = (s % 5) as usize;
            match **e {
                TypeDesc::Int => Value::IntArray((0..n).map(|i| i as i64 * 3 - 4).collect()),
                TypeDesc::Float => Value::FloatArray((0..n).map(|i| i as f64 * 0.5).collect()),
                _ => Value::List((0..n).map(|_| sample(e, seed)).collect()),
            }
        }
        TypeDesc::Struct(sd) => Value::Struct(sbq_model::StructValue::new(
            sd.name.clone(),
            sd.fields
                .iter()
                .map(|(n, t)| (n.clone(), sample(t, seed)))
                .collect(),
        )),
    }
}

fn opts(bo: ByteOrder, iw: u8, fw: u8) -> sbq_pbio::format::FormatOptions {
    sbq_pbio::format::FormatOptions {
        byte_order: bo,
        int_width: iw,
        float_width: fw,
    }
}

#[test]
fn identity_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x9b10_0001);
    for _ in 0..CASES {
        let ty = arb_type(&mut rng, 3);
        let mut s = rng.next_u64();
        let v = sample(&ty, &mut s);
        let d = FormatDesc::from_type(&ty, Default::default()).unwrap();
        let bytes = plan::encode(&v, &d).unwrap();
        let back = ConversionPlan::identity(&d).execute(&bytes).unwrap();
        assert_eq!(back, v, "{ty:?}");
    }
}

#[test]
fn cross_architecture_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x9b10_0002);
    for _ in 0..CASES {
        let ty = arb_type(&mut rng, 2);
        let mut s = rng.next_u64();
        let v = sample(&ty, &mut s);
        let bo = if rng.gen_bool(0.5) {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        };
        let wire = FormatDesc::from_type(&ty, opts(bo, 4, 8)).unwrap();
        let native = FormatDesc::from_type(&ty, Default::default()).unwrap();
        let bytes = plan::encode(&v, &wire).unwrap();
        let got = ConversionPlan::compile(&wire, &native)
            .unwrap()
            .execute(&bytes)
            .unwrap();
        assert_eq!(got, v, "{ty:?}");
    }
}

#[test]
fn format_descriptions_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x9b10_0003);
    for _ in 0..CASES {
        let ty = arb_type(&mut rng, 3);
        let bo = if rng.gen_bool(0.5) {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        };
        let d = FormatDesc::from_type(&ty, opts(bo, 8, 8)).unwrap();
        assert_eq!(FormatDesc::from_bytes(&d.to_bytes()).unwrap(), d);
    }
}

#[test]
fn decode_never_panics_on_corrupt_payload() {
    let mut rng = SmallRng::seed_from_u64(0x9b10_0004);
    for _ in 0..CASES {
        let ty = arb_type(&mut rng, 2);
        let mut s = rng.next_u64();
        let v = sample(&ty, &mut s);
        let d = FormatDesc::from_type(&ty, Default::default()).unwrap();
        let mut bytes = plan::encode(&v, &d).unwrap();
        // Truncate somewhere, possibly flipping a byte first.
        if !bytes.is_empty() {
            let i = rng.gen_below(bytes.len() as u64) as usize;
            bytes[i] ^= 0x5a;
            bytes.truncate(i);
        }
        let _ = ConversionPlan::identity(&d).execute(&bytes); // must not panic
    }
}
