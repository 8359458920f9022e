//! Ownership of the response value through `QualityManager::apply_rule`
//! and `prepare`, measured with a counting global allocator: the
//! pass-through band moves an owned value instead of copying it, and
//! `reduced` reports whether a reduction changed the value.
//!
//! Counting is per thread (the test harness runs tests concurrently), so
//! each figure covers exactly the call under test.

use sbq_model::{TypeDesc, Value};
use sbq_qos::{QualityAttributes, QualityFile, QualityManager};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            BYTES.with(|b| b.set(b.get() + bytes));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on; returns its result and the bytes it
/// allocated.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.with(Cell::get))
}

const MIB: usize = 1 << 20;

const FILE: &str = "\
attribute rtt
0 50 - blob_full
50 100 - blob_small
100 inf - blob_missing
handler blob_small shrink
handler blob_missing not_installed
";

fn blob() -> Value {
    Value::struct_of(
        "blob",
        vec![
            ("id", Value::Int(7)),
            ("payload", Value::Bytes(vec![0x5a; MIB])),
        ],
    )
}

fn payload_ptr(v: &Value) -> *const u8 {
    let s = v.as_struct().expect("blob is a struct");
    s.field("payload")
        .and_then(|p| p.as_bytes().ok())
        .expect("payload bytes")
        .as_ptr()
}

fn manager() -> QualityManager {
    QualityManager::new(QualityFile::parse(FILE).unwrap())
}

#[test]
fn pass_through_moves_an_owned_value() {
    let qm = manager();
    let file = QualityFile::parse(FILE).unwrap();
    // Band 0 has no reduction; band 2 names a handler nobody installed,
    // which falls back to the pass-through path.
    for rule in [&file.rules[0], &file.rules[2]] {
        let full = blob();
        let ptr = payload_ptr(&full);
        let (p, bytes) = measured(|| qm.apply_rule(rule, Some(0), full));
        assert!(bytes < 4096, "{}: allocated {bytes} B", rule.message_type);
        assert!(!p.reduced, "{}", rule.message_type);
        assert_eq!(p.message_type, rule.message_type);
        assert_eq!(payload_ptr(&p.value), ptr, "payload moved, not copied");
    }
}

#[test]
fn prepare_moves_an_owned_value_at_the_full_band() {
    let mut qm = manager();
    qm.attributes().update_attribute("rtt", 10.0);
    let full = blob();
    let ptr = payload_ptr(&full);
    let (p, bytes) = measured(|| qm.prepare(full));
    assert!(bytes < 4096, "allocated {bytes} B");
    assert_eq!(p.message_type, "blob_full");
    assert!(!p.reduced);
    assert_eq!(payload_ptr(&p.value), ptr);
}

#[test]
fn borrowed_input_is_cloned_on_the_pass_through_path() {
    let qm = manager();
    let file = QualityFile::parse(FILE).unwrap();
    let full = blob();
    let (p, bytes) = measured(|| qm.apply_rule(&file.rules[0], None, &full));
    assert!(bytes >= MIB, "a borrowed value must be cloned to be sent");
    assert!(!p.reduced);
    assert_eq!(p.value, full);
}

#[test]
fn reduced_reports_whether_the_handler_changed_the_value() {
    let qm = manager();
    let rule = &QualityFile::parse(FILE).unwrap().rules[1];
    qm.handlers()
        .install("shrink", |v: &Value, _: &QualityAttributes| {
            let mut v = v.clone();
            if let Value::Struct(s) = &mut v {
                if let Some(p) = s.field_mut("payload") {
                    *p = Value::Bytes(vec![0x5a; 16]);
                }
            }
            v
        });
    let p = qm.apply_rule(rule, Some(1), blob());
    assert!(p.reduced, "a smaller value is a reduction");
    assert_eq!(p.value.native_size(), blob().native_size() - MIB + 16);

    // A handler that hands back an equal value reduced nothing.
    qm.handlers()
        .install("shrink", |v: &Value, _: &QualityAttributes| v.clone());
    let p = qm.apply_rule(rule, Some(1), blob());
    assert!(!p.reduced, "an equal value is not a reduction");
    assert_eq!(p.value, blob());
}

#[test]
fn projection_is_a_reduction_only_when_it_drops_fields() {
    let file = QualityFile::parse("attribute rtt\n0 inf - blob_head\n").unwrap();
    let mut qm = QualityManager::new(file.clone());
    qm.define_message_type(
        "blob_head",
        TypeDesc::struct_of("blob", vec![("id", TypeDesc::Int)]),
    );
    let p = qm.apply_rule(&file.rules[0], None, blob());
    assert!(p.reduced);
    assert_eq!(
        p.value,
        Value::struct_of("blob", vec![("id", Value::Int(7))])
    );

    // Projecting onto the value's own layout keeps every field.
    qm.define_message_type(
        "blob_head",
        TypeDesc::struct_of(
            "blob",
            vec![("id", TypeDesc::Int), ("payload", TypeDesc::Bytes)],
        ),
    );
    let p = qm.apply_rule(&file.rules[0], None, blob());
    assert!(!p.reduced);
}
