//! Allocation and memory bounds of the XML decode path and of the PBIO
//! bulk array path, measured with a counting global allocator.
//!
//! Counting is per thread (the test harness runs tests concurrently), so
//! each figure covers exactly the decode or encode under test.

use sbq_model::{workload, TypeDesc, Value};
use sbq_pbio::format::FormatOptions;
use sbq_pbio::{plan, ByteOrder, ConversionPlan, FormatDesc};
use soap_binq::envelope::{self, QosHeader};
use soap_binq::{ProtocolError, SoapError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(allocs: u64, delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|a| a.set(a.get() + allocs));
            LIVE.with(|l| {
                l.set(l.get() + delta);
                PEAK.with(|p| p.set(p.get().max(l.get())));
            });
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on; returns its result, the allocations it made
/// and its peak live bytes above the starting point.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    ALLOCS.with(|a| a.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get), PEAK.with(Cell::get) as usize)
}

fn float_list() -> TypeDesc {
    TypeDesc::list_of(TypeDesc::Float)
}

/// An envelope whose body is `<echo>{body}</echo>`.
fn envelope_around(body: &str) -> String {
    let shell = envelope::build_request("echo", &Value::Int(0), &QosHeader::default());
    shell.replace("<echo>0</echo>", &format!("<echo>{body}</echo>"))
}

fn assert_xml_error(result: Result<envelope::ParsedEnvelope, SoapError>, what: &str) {
    match result {
        Err(SoapError::Protocol(ProtocolError::Xml(_))) => {}
        Err(other) => panic!("{what}: expected an xml protocol error, got {other}"),
        Ok(_) => panic!("{what}: hostile document parsed"),
    }
}

#[test]
fn float_echo_envelope_decodes_in_at_most_ten_allocations() {
    let ty = float_list();
    let value = workload::float_array(8192, 7);
    let header = QosHeader {
        rtt_ms: Some(2.5),
        ..QosHeader::default()
    };
    for xml in [
        envelope::build_request("echo", &value, &header),
        envelope::build_response("echo", &value, &header),
    ] {
        let (parsed, allocs, _) =
            measured(|| envelope::parse_envelope_with(&xml, |_, _| Some(&ty)).unwrap());
        assert_eq!(parsed.value, value);
        assert_eq!(parsed.header, header);
        assert!(
            allocs <= 10,
            "{allocs} allocations decoding {} bytes",
            xml.len()
        );
    }
}

#[test]
fn float_list_reserves_near_its_final_size() {
    // The first item sizes the vector. A shortest-item bound would reserve
    // about the whole input, some four times the list's final size.
    let ty = float_list();
    let value = workload::float_array(8192, 7);
    let xml = envelope::build_request("echo", &value, &QosHeader::default());
    let (parsed, _, peak) = measured(|| envelope::parse_envelope(&xml, |_| Some(&ty)).unwrap());
    assert_eq!(parsed.value, value);
    let packed = 8192 * std::mem::size_of::<f64>();
    assert!(
        peak <= packed * 3 / 2,
        "peak {peak} B decoding a {packed} B list from {} B",
        xml.len()
    );
}

#[test]
fn packed_list_capacity_is_released() {
    let value = workload::int_array(4096, 3);
    let xml = envelope::build_request("echo", &value, &QosHeader::default());
    let parsed =
        envelope::parse_envelope(&xml, |_| Some(TypeDesc::list_of(TypeDesc::Int))).unwrap();
    let Value::IntArray(items) = parsed.value else {
        panic!("int list did not decode packed");
    };
    assert_eq!(items.capacity(), items.len());
}

#[test]
fn empty_items_flood_is_rejected_within_twice_the_input() {
    let xml = envelope_around(&"<item></item>".repeat(4 << 20 >> 4));
    let ty = float_list();
    let (result, _, peak) = measured(|| envelope::parse_envelope(&xml, |_| Some(&ty)));
    assert_xml_error(result, "empty items");
    assert!(peak <= 2 * xml.len(), "peak {peak} B for {} B", xml.len());
}

#[test]
fn unknown_struct_fields_are_rejected_within_twice_the_input() {
    let ty = TypeDesc::struct_of("m", vec![("a", TypeDesc::Int)]);
    let xml = envelope_around(&"<zz>1</zz>".repeat(4 << 20 >> 3));
    let (result, _, peak) = measured(|| envelope::parse_envelope(&xml, |_| Some(&ty)));
    assert_xml_error(result, "unknown fields");
    assert!(peak <= 2 * xml.len(), "peak {peak} B for {} B", xml.len());

    // A known field repeated is rejected as it repeats, not collected.
    let xml = envelope_around(&"<a>1</a>".repeat(4 << 20 >> 3));
    let (result, _, peak) = measured(|| envelope::parse_envelope(&xml, |_| Some(&ty)));
    assert_xml_error(result, "repeated field");
    assert!(peak <= 2 * xml.len(), "peak {peak} B for {} B", xml.len());
}

#[test]
fn entity_flood_is_rejected_within_twice_the_input() {
    let xml = envelope_around(&"&amp;".repeat((1 << 20) / 5));
    let (result, _, peak) = measured(|| envelope::parse_envelope(&xml, |_| Some(TypeDesc::Float)));
    assert_xml_error(result, "entity flood");
    assert!(peak <= 2 * xml.len(), "peak {peak} B for {} B", xml.len());

    // The same text as a string decodes, still within the bound.
    let (result, _, peak) = measured(|| envelope::parse_envelope(&xml, |_| Some(TypeDesc::Str)));
    assert_eq!(result.unwrap().value, Value::Str("&".repeat((1 << 20) / 5)));
    assert!(peak <= 2 * xml.len(), "peak {peak} B for {} B", xml.len());
}

#[test]
fn megabyte_pbio_arrays_convert_in_one_allocation_and_encode_in_none() {
    // 1M f64 (8 MB): the bulk kernel runs once on the calling thread,
    // writing straight into the decoded `Vec` or the reserved output.
    let ty = float_list();
    let value = workload::float_array(1_000_000, 11);
    let native = FormatDesc::from_type(&ty, FormatOptions::default()).unwrap();
    let swapped_bo = match ByteOrder::native() {
        ByteOrder::Little => ByteOrder::Big,
        ByteOrder::Big => ByteOrder::Little,
    };
    let swapped = FormatDesc::from_type(
        &ty,
        FormatOptions {
            byte_order: swapped_bo,
            ..FormatOptions::default()
        },
    )
    .unwrap();
    for wire in [&native, &swapped] {
        let payload = plan::encode(&value, wire).unwrap();
        let convert = ConversionPlan::compile(wire, &native).unwrap();
        // The first execution latches the process-wide metrics handles.
        assert_eq!(convert.execute(&payload).unwrap(), value);

        let (decoded, allocs, _) = measured(|| convert.execute(&payload).unwrap());
        assert_eq!(decoded, value);
        assert_eq!(allocs, 1, "execute allocations, wire {:?}", wire.byte_order);

        let mut out = Vec::with_capacity(payload.len());
        let ((), allocs, _) = measured(|| plan::encode_into(&value, wire, &mut out).unwrap());
        assert_eq!(out, payload);
        assert_eq!(
            allocs, 0,
            "encode_into allocations, wire {:?}",
            wire.byte_order
        );
    }
}
