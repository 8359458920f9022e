//! Encoding, decoding, and "receiver makes right" conversion plans.
//!
//! A sender encodes values in its *native* layout (byte order and scalar
//! widths from its [`FormatDesc`]); the receiver compiles a
//! [`ConversionPlan`] from the (wire format, native format) pair once,
//! caches it, and runs it on every subsequent message. This mirrors PBIO's
//! dynamically-generated conversion routines with an interpreted op list —
//! including the degenerate case where both layouts agree and conversion
//! reduces to straight (bulk) reads.
//!
//! # The bulk fast path
//!
//! Marshalling cost is dominated by per-element loops, so both directions
//! dispatch to bulk kernels whenever a field is a run of fixed-width
//! scalars:
//!
//! * **Arrays** (`IntArray`/`FloatArray`/`Bytes`/char lists) take one
//!   pass each way after a single bounds check. Int and float arrays are
//!   one [`simd`] kernel call, writing straight into the output's
//!   reserved spare capacity on encode and into a fresh `Vec` on decode.
//!   When element width and byte order match the host this is a straight
//!   memcpy; otherwise the byte swap rides the same bulk pass.
//! * **Structs**: plan compilation *fuses* runs of contiguous fixed-width
//!   scalar fields (stores and skips alike) into one [`PlanOp::BulkRun`]
//!   executed with a single bounds check over the whole run, so the
//!   same-layout case touches each struct once.
//!
//! Every execution tallies which path it took into the process-global
//! `pbio.plan.{bulk_ops,scalar_ops}` counters, letting benchmarks and
//! integration tests prove the fast path is actually taken.
//!
//! All wire-supplied lengths are validated against the remaining buffer
//! (checked arithmetic, no allocation before validation), and encoded
//! lengths that cannot be represented in the u32 wire header return
//! [`PbioError::TooLarge`] instead of silently truncating.

use crate::format::{ByteOrder, FormatDesc, WireType};
use crate::PbioError;
use sbq_model::{StructValue, Value};
use sbq_runtime::simd;
use sbq_telemetry::{Counter, Registry};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Path accounting
// ---------------------------------------------------------------------------

/// Per-execution tallies of bulk vs per-element work, flushed to the
/// global registry in one pair of atomic adds at the end of each
/// encode/decode (hot loops never touch the registry).
#[derive(Default)]
struct ExecCounters {
    bulk: u64,
    scalar: u64,
}

struct PlanMetrics {
    bulk: Counter,
    scalar: Counter,
}

fn plan_metrics() -> &'static PlanMetrics {
    static M: OnceLock<PlanMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = Registry::global();
        // The kernel tier is latched once per process; publishing it as a
        // gauge lets a deployment confirm which tier is live at /metrics.
        reg.gauge("marshal.simd_level").set(simd::level() as i64);
        PlanMetrics {
            bulk: reg.counter("pbio.plan.bulk_ops"),
            scalar: reg.counter("pbio.plan.scalar_ops"),
        }
    })
}

impl ExecCounters {
    fn flush(&self) {
        if self.bulk == 0 && self.scalar == 0 {
            return;
        }
        let m = plan_metrics();
        if self.bulk > 0 {
            m.bulk.add(self.bulk);
        }
        if self.scalar > 0 {
            m.scalar.add(self.scalar);
        }
    }
}

/// Whether `bo` is the opposite of the host byte order (the kernels'
/// "swap" flag).
fn wire_swapped(bo: ByteOrder) -> bool {
    match bo {
        ByteOrder::Little => cfg!(target_endian = "big"),
        ByteOrder::Big => cfg!(target_endian = "little"),
    }
}

// ---------------------------------------------------------------------------
// Encoding (sender side: native layout out)
// ---------------------------------------------------------------------------

/// Encodes `value` according to `desc`, producing the data-message payload.
///
/// Struct fields are matched by name against the format (the common case is
/// identical ordering, which is checked first).
pub fn encode(value: &Value, desc: &FormatDesc) -> Result<Vec<u8>, PbioError> {
    let mut out = Vec::with_capacity(value.native_size() + 16);
    encode_into(value, desc, &mut out)?;
    Ok(out)
}

/// Encodes `value` by appending to `out`, so callers with a pooled buffer
/// (or a partially written frame) avoid an intermediate allocation + copy.
pub fn encode_into(value: &Value, desc: &FormatDesc, out: &mut Vec<u8>) -> Result<(), PbioError> {
    let mut ctr = ExecCounters::default();
    let r = encode_struct(value, desc, out, &mut ctr);
    ctr.flush();
    r
}

fn encode_struct(
    value: &Value,
    desc: &FormatDesc,
    out: &mut Vec<u8>,
    ctr: &mut ExecCounters,
) -> Result<(), PbioError> {
    let sv = match value {
        Value::Struct(sv) => sv,
        // Wrapped non-struct parameter: single synthetic "value" field.
        other if desc.fields.len() == 1 && desc.fields[0].name == "value" => {
            return encode_field(other, &desc.fields[0].ty, desc.byte_order, out, ctr);
        }
        other => {
            return Err(PbioError::TypeMismatch(format!(
                "format {} expects a struct, got {}",
                desc.name,
                other.type_of().name()
            )))
        }
    };
    for (i, f) in desc.fields.iter().enumerate() {
        // Fast path: field i in the value has the same name.
        let fv = match sv.fields.get(i) {
            Some((n, v)) if *n == f.name => v,
            _ => sv
                .field(&f.name)
                .ok_or_else(|| PbioError::TypeMismatch(format!("missing field {}", f.name)))?,
        };
        encode_field(fv, &f.ty, desc.byte_order, out, ctr)?;
    }
    Ok(())
}

fn encode_field(
    value: &Value,
    ty: &WireType,
    bo: ByteOrder,
    out: &mut Vec<u8>,
    ctr: &mut ExecCounters,
) -> Result<(), PbioError> {
    match (ty, value) {
        (WireType::Int { width }, Value::Int(i)) => {
            write_int(out, *i, *width, bo);
            ctr.scalar += 1;
        }
        (WireType::Float { width }, Value::Float(x)) => {
            write_float(out, *x, *width, bo);
            ctr.scalar += 1;
        }
        (WireType::Char, Value::Char(c)) => {
            out.push(*c);
            ctr.scalar += 1;
        }
        (WireType::Str, Value::Str(s)) => {
            write_len(out, s.len(), bo)?;
            out.extend_from_slice(s.as_bytes());
            ctr.bulk += 1;
        }
        (WireType::Bytes, Value::Bytes(b)) => {
            write_len(out, b.len(), bo)?;
            out.extend_from_slice(b);
            ctr.bulk += 1;
        }
        (WireType::List(e), Value::IntArray(v)) => {
            write_len(out, v.len(), bo)?;
            if let WireType::Int { width } = **e {
                encode_int_array(out, v, width, bo);
                ctr.bulk += 1;
            } else {
                return Err(PbioError::TypeMismatch("int array vs non-int list".into()));
            }
        }
        (WireType::List(e), Value::FloatArray(v)) => {
            write_len(out, v.len(), bo)?;
            if let WireType::Float { width } = **e {
                encode_float_array(out, v, width, bo);
                ctr.bulk += 1;
            } else {
                return Err(PbioError::TypeMismatch(
                    "float array vs non-float list".into(),
                ));
            }
        }
        // Char lists pack to one byte per element in a single pass.
        (WireType::List(e), Value::List(vs)) if matches!(**e, WireType::Char) => {
            write_len(out, vs.len(), bo)?;
            out.reserve(vs.len());
            for v in vs {
                match v {
                    Value::Char(c) => out.push(*c),
                    other => {
                        return Err(PbioError::TypeMismatch(format!(
                            "char list holds {}",
                            other.type_of().name()
                        )))
                    }
                }
            }
            ctr.bulk += 1;
        }
        (WireType::List(e), Value::List(vs)) => {
            write_len(out, vs.len(), bo)?;
            for v in vs {
                encode_field(v, e, bo, out, ctr)?;
            }
        }
        (WireType::Struct(d), v @ Value::Struct(_)) => encode_struct(v, d, out, ctr)?,
        (ty, v) => {
            return Err(PbioError::TypeMismatch(format!(
                "cannot encode {} as {:?}",
                v.type_of().name(),
                ty
            )))
        }
    }
    Ok(())
}

/// Bulk int-array encode: the SIMD dispatch layer packs straight into
/// the output `Vec`'s reserved spare capacity (written exactly once, no
/// staging copy and no zero-fill).
fn encode_int_array(out: &mut Vec<u8>, v: &[i64], width: u8, bo: ByteOrder) {
    let w = width as usize;
    let total = v.len() * w;
    out.reserve(total);
    let old = out.len();
    simd::encode_i64(
        v,
        w,
        wire_swapped(bo),
        &mut out.spare_capacity_mut()[..total],
    );
    // SAFETY: the kernel wrote every byte of the `total`-byte reservation.
    unsafe { out.set_len(old + total) };
}

/// Bulk float-array kernel; width 4 narrows through f32 like the scalar
/// path does.
fn encode_float_array(out: &mut Vec<u8>, v: &[f64], width: u8, bo: ByteOrder) {
    let w = width as usize;
    let total = v.len() * w;
    out.reserve(total);
    let old = out.len();
    simd::encode_f64(
        v,
        w,
        wire_swapped(bo),
        &mut out.spare_capacity_mut()[..total],
    );
    // SAFETY: the kernel wrote every byte of the `total`-byte reservation.
    unsafe { out.set_len(old + total) };
}

fn write_int(out: &mut Vec<u8>, v: i64, width: u8, bo: ByteOrder) {
    let le = v.to_le_bytes();
    match bo {
        ByteOrder::Little => out.extend_from_slice(&le[..width as usize]),
        ByteOrder::Big => {
            let be = v.to_be_bytes();
            out.extend_from_slice(&be[8 - width as usize..]);
        }
    }
}

fn write_float(out: &mut Vec<u8>, v: f64, width: u8, bo: ByteOrder) {
    match (width, bo) {
        (8, ByteOrder::Little) => out.extend_from_slice(&v.to_le_bytes()),
        (8, ByteOrder::Big) => out.extend_from_slice(&v.to_be_bytes()),
        (4, ByteOrder::Little) => out.extend_from_slice(&(v as f32).to_le_bytes()),
        (4, ByteOrder::Big) => out.extend_from_slice(&(v as f32).to_be_bytes()),
        _ => unreachable!("widths validated at format construction"),
    }
}

fn write_u32(out: &mut Vec<u8>, v: u32, bo: ByteOrder) {
    match bo {
        ByteOrder::Little => out.extend_from_slice(&v.to_le_bytes()),
        ByteOrder::Big => out.extend_from_slice(&v.to_be_bytes()),
    }
}

/// Writes a length prefix, rejecting values the u32 wire header cannot
/// carry (a silently wrapped length would desync every later field).
fn write_len(out: &mut Vec<u8>, len: usize, bo: ByteOrder) -> Result<(), PbioError> {
    let n = u32::try_from(len).map_err(|_| PbioError::TooLarge(len))?;
    write_u32(out, n, bo);
    Ok(())
}

// ---------------------------------------------------------------------------
// Conversion plans (receiver side: wire layout in, native values out)
// ---------------------------------------------------------------------------

/// What to do with a single wire field.
#[derive(Debug, Clone)]
enum SlotAction {
    /// Decode and place into native field slot `i` (with a nested plan for
    /// struct-typed fields).
    Store(usize, Option<Box<ConversionPlan>>),
    /// A list of structs whose element layout differs between wire and
    /// native: run the element plan per item.
    StoreListElems(usize, Box<ConversionPlan>),
    /// Parse past the field; the native format does not want it.
    Skip,
}

/// The scalar shape of one field inside a fused bulk run.
#[derive(Debug, Clone, Copy)]
enum ScalarKind {
    Int { width: u8 },
    Float { width: u8 },
    Char,
}

impl ScalarKind {
    fn width(self) -> usize {
        match self {
            ScalarKind::Int { width } | ScalarKind::Float { width } => width as usize,
            ScalarKind::Char => 1,
        }
    }
}

/// One field inside a [`PlanOp::BulkRun`], read at a fixed offset from the
/// run base (no per-field bounds check).
#[derive(Debug, Clone)]
struct BulkField {
    /// Byte offset from the start of the run.
    offset: usize,
    /// Destination native slot; `None` for wire-only fields folded into
    /// the run (skipped without a separate parse step).
    slot: Option<usize>,
    kind: ScalarKind,
    /// Wire field index, kept so a one-field run can demote to a plain
    /// field op at compile time.
    wire_idx: usize,
}

/// A compiled plan step.
#[derive(Debug, Clone)]
enum PlanOp {
    /// A fused run of contiguous fixed-width scalar fields: one bounds
    /// check over `byte_len`, then fixed-offset reads. The same-layout
    /// struct case is a single run — effectively one memcpy per struct.
    BulkRun {
        byte_len: usize,
        fields: Vec<BulkField>,
    },
    /// A variable-width or nested field handled individually.
    Field { wire_idx: usize, action: SlotAction },
}

/// A compiled wire→native conversion, the substitute for PBIO's
/// dynamically generated conversion code.
#[derive(Debug, Clone)]
pub struct ConversionPlan {
    wire: FormatDesc,
    native: FormatDesc,
    ops: Vec<PlanOp>,
    /// True when wire and native layouts agree exactly and the wire byte
    /// order equals the host's: decode takes the bulk fast path.
    identity: bool,
}

impl ConversionPlan {
    /// Compiles the plan converting messages in `wire` layout to values of
    /// the `native` layout. Fields are matched by name; wire-only fields
    /// are skipped, native-only fields are zero-filled (the same
    /// copy-common/pad-zero semantics SOAP-binQ's quality layer relies on).
    pub fn compile(wire: &FormatDesc, native: &FormatDesc) -> Result<ConversionPlan, PbioError> {
        let mut actions = Vec::with_capacity(wire.fields.len());
        for wf in &wire.fields {
            match native.fields.iter().position(|nf| nf.name == wf.name) {
                Some(i) => {
                    let action = match (&wf.ty, &native.fields[i].ty) {
                        (WireType::Struct(wd), WireType::Struct(nd)) => {
                            SlotAction::Store(i, Some(Box::new(ConversionPlan::compile(wd, nd)?)))
                        }
                        (WireType::List(w), WireType::List(n)) => match (&**w, &**n) {
                            (WireType::Struct(wd), WireType::Struct(nd)) if wd != nd => {
                                SlotAction::StoreListElems(
                                    i,
                                    Box::new(ConversionPlan::compile(wd, nd)?),
                                )
                            }
                            _ => {
                                check_compatible(&wf.name, &wf.ty, &native.fields[i].ty)?;
                                SlotAction::Store(i, None)
                            }
                        },
                        (w, n) => {
                            check_compatible(&wf.name, w, n)?;
                            SlotAction::Store(i, None)
                        }
                    };
                    actions.push(action);
                }
                None => actions.push(SlotAction::Skip),
            }
        }
        let ops = fuse_ops(wire, actions);
        let identity = wire == native && wire.byte_order == ByteOrder::native();
        Ok(ConversionPlan {
            wire: wire.clone(),
            native: native.clone(),
            ops,
            identity,
        })
    }

    /// The identity plan for messages already in `desc` layout.
    pub fn identity(desc: &FormatDesc) -> ConversionPlan {
        ConversionPlan::compile(desc, desc).expect("identity plans always compile")
    }

    /// Whether the fast no-conversion path applies.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// The native format this plan produces values of.
    pub fn native(&self) -> &FormatDesc {
        &self.native
    }

    /// `(bulk_runs, field_ops)` in the compiled op list — how much of the
    /// struct was fused. A same-layout all-scalar struct compiles to
    /// `(1, 0)`.
    pub fn op_summary(&self) -> (usize, usize) {
        let bulk = self
            .ops
            .iter()
            .filter(|op| matches!(op, PlanOp::BulkRun { .. }))
            .count();
        (bulk, self.ops.len() - bulk)
    }

    /// Runs the plan over a data-message payload, producing a value of the
    /// native format. Consumes the whole payload.
    pub fn execute(&self, payload: &[u8]) -> Result<Value, PbioError> {
        let mut pos = 0;
        let mut ctr = ExecCounters::default();
        let r = self.execute_at(payload, &mut pos, &mut ctr);
        ctr.flush();
        let v = r?;
        if pos != payload.len() {
            return Err(PbioError::TypeMismatch(format!(
                "trailing bytes: consumed {pos} of {}",
                payload.len()
            )));
        }
        Ok(v)
    }

    fn execute_at(
        &self,
        buf: &[u8],
        pos: &mut usize,
        ctr: &mut ExecCounters,
    ) -> Result<Value, PbioError> {
        let bo = self.wire.byte_order;
        // Wrapped non-struct parameter decodes transparently.
        if self.native.fields.len() == 1
            && self.native.fields[0].name == "value"
            && self.wire.fields.len() == 1
        {
            return read_value(buf, pos, &self.wire.fields[0].ty, bo, ctr);
        }
        let mut slots: Vec<Option<Value>> = vec![None; self.native.fields.len()];
        for op in &self.ops {
            match op {
                PlanOp::BulkRun { byte_len, fields } => {
                    // One bounds check for the whole run; field reads below
                    // are at offsets proven in-range at compile time.
                    let base = *pos;
                    let end = base.checked_add(*byte_len).ok_or(PbioError::Truncated)?;
                    if end > buf.len() {
                        return Err(PbioError::Truncated);
                    }
                    for f in fields {
                        let Some(slot) = f.slot else { continue };
                        let at = base + f.offset;
                        slots[slot] = Some(match f.kind {
                            ScalarKind::Char => Value::Char(buf[at]),
                            ScalarKind::Int { width } => Value::Int(int_at(buf, at, width, bo)),
                            ScalarKind::Float { width } => {
                                Value::Float(float_at(buf, at, width, bo))
                            }
                        });
                    }
                    *pos = end;
                    ctr.bulk += 1;
                }
                PlanOp::Field { wire_idx, action } => {
                    let wf = &self.wire.fields[*wire_idx];
                    match action {
                        SlotAction::Store(i, nested) => {
                            let v = match nested {
                                Some(plan) => plan.execute_at(buf, pos, ctr)?,
                                None => read_value(buf, pos, &wf.ty, bo, ctr)?,
                            };
                            slots[*i] = Some(v);
                        }
                        SlotAction::StoreListElems(i, plan) => {
                            let n = read_u32(buf, pos, bo)? as usize;
                            let mut items = Vec::with_capacity(n.min(4096));
                            for _ in 0..n {
                                items.push(plan.execute_at(buf, pos, ctr)?);
                            }
                            slots[*i] = Some(Value::List(items));
                        }
                        SlotAction::Skip => {
                            skip_value(buf, pos, &wf.ty, bo)?;
                        }
                    }
                }
            }
        }
        let fields = self
            .native
            .fields
            .iter()
            .zip(slots)
            .map(|(nf, slot)| {
                let v = slot.unwrap_or_else(|| zero_for_wire(&nf.ty));
                (nf.name.clone(), v)
            })
            .collect();
        Ok(Value::Struct(StructValue::new(
            self.native.name.clone(),
            fields,
        )))
    }
}

/// Fuses runs of contiguous fixed-width scalar fields into
/// [`PlanOp::BulkRun`]s; single-field runs stay ordinary field ops (the
/// per-field path is already optimal there and keeps the counters honest).
fn fuse_ops(wire: &FormatDesc, actions: Vec<SlotAction>) -> Vec<PlanOp> {
    let mut ops = Vec::new();
    let mut run: Vec<BulkField> = Vec::new();
    let mut run_len = 0usize;
    fn flush(ops: &mut Vec<PlanOp>, run: &mut Vec<BulkField>, run_len: &mut usize) {
        match run.len() {
            0 => {}
            1 => {
                let f = run.pop().unwrap();
                let action = match f.slot {
                    Some(i) => SlotAction::Store(i, None),
                    None => SlotAction::Skip,
                };
                ops.push(PlanOp::Field {
                    wire_idx: f.wire_idx,
                    action,
                });
            }
            _ => ops.push(PlanOp::BulkRun {
                byte_len: *run_len,
                fields: std::mem::take(run),
            }),
        }
        run.clear();
        *run_len = 0;
    }
    for (wire_idx, (wf, action)) in wire.fields.iter().zip(actions).enumerate() {
        let kind = match &wf.ty {
            WireType::Int { width } => Some(ScalarKind::Int { width: *width }),
            WireType::Float { width } => Some(ScalarKind::Float { width: *width }),
            WireType::Char => Some(ScalarKind::Char),
            _ => None,
        };
        match (kind, action) {
            (Some(kind), SlotAction::Store(slot, None)) => {
                run.push(BulkField {
                    offset: run_len,
                    slot: Some(slot),
                    kind,
                    wire_idx,
                });
                run_len += kind.width();
            }
            (Some(kind), SlotAction::Skip) => {
                run.push(BulkField {
                    offset: run_len,
                    slot: None,
                    kind,
                    wire_idx,
                });
                run_len += kind.width();
            }
            (_, action) => {
                flush(&mut ops, &mut run, &mut run_len);
                ops.push(PlanOp::Field { wire_idx, action });
            }
        }
    }
    flush(&mut ops, &mut run, &mut run_len);
    ops
}

/// Verifies a matched (wire, native) field pair is convertible: same
/// kind, any width/byte order. Rejecting kind mismatches here keeps a
/// peer with the wrong IDL from smuggling a value of one type into a
/// field of another.
fn check_compatible(field: &str, wire: &WireType, native: &WireType) -> Result<(), PbioError> {
    let ok = match (wire, native) {
        (WireType::Int { .. }, WireType::Int { .. })
        | (WireType::Float { .. }, WireType::Float { .. })
        | (WireType::Char, WireType::Char)
        | (WireType::Str, WireType::Str)
        | (WireType::Bytes, WireType::Bytes) => true,
        (WireType::List(w), WireType::List(n)) => {
            return match (&**w, &**n) {
                (WireType::Struct(wd), WireType::Struct(nd)) => {
                    // Element structs must be convertible too.
                    ConversionPlan::compile(wd, nd).map(|_| ())
                }
                (w, n) => check_compatible(field, w, n),
            };
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(PbioError::TypeMismatch(format!(
            "field {field}: wire {wire:?} does not convert to native {native:?}"
        )))
    }
}

fn zero_for_wire(ty: &WireType) -> Value {
    match ty {
        WireType::Int { .. } => Value::Int(0),
        WireType::Float { .. } => Value::Float(0.0),
        WireType::Char => Value::Char(0),
        WireType::Str => Value::Str(String::new()),
        WireType::Bytes => Value::Bytes(Vec::new()),
        WireType::List(e) => match **e {
            WireType::Int { .. } => Value::IntArray(Vec::new()),
            WireType::Float { .. } => Value::FloatArray(Vec::new()),
            _ => Value::List(Vec::new()),
        },
        WireType::Struct(d) => Value::Struct(StructValue::new(
            d.name.clone(),
            d.fields
                .iter()
                .map(|f| (f.name.clone(), zero_for_wire(&f.ty)))
                .collect(),
        )),
    }
}

/// Checked window borrow: validates `len` against the remaining buffer
/// (overflow-safe) *before* anything is allocated, then advances.
fn take<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], PbioError> {
    let end = pos.checked_add(len).ok_or(PbioError::Truncated)?;
    if end > buf.len() {
        return Err(PbioError::Truncated);
    }
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

/// Borrows the wire bytes of an `n`-element array of `width`-byte scalars,
/// validating `n * width` with checked arithmetic first — a hostile
/// length can neither overflow the multiply nor trigger an allocation.
fn take_array<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    n: usize,
    width: usize,
) -> Result<&'a [u8], PbioError> {
    let bytes = n.checked_mul(width).ok_or(PbioError::Truncated)?;
    take(buf, pos, bytes)
}

fn read_value(
    buf: &[u8],
    pos: &mut usize,
    ty: &WireType,
    bo: ByteOrder,
    ctr: &mut ExecCounters,
) -> Result<Value, PbioError> {
    Ok(match ty {
        WireType::Bytes => {
            let len = read_u32(buf, pos, bo)? as usize;
            // Single copy-on-materialize from the borrowed receive buffer.
            let b = take(buf, pos, len)?.to_vec();
            ctr.bulk += 1;
            Value::Bytes(b)
        }
        WireType::Int { width } => {
            ctr.scalar += 1;
            Value::Int(read_int(buf, pos, *width, bo)?)
        }
        WireType::Float { width } => {
            ctr.scalar += 1;
            Value::Float(read_float(buf, pos, *width, bo)?)
        }
        WireType::Char => {
            let b = *buf.get(*pos).ok_or(PbioError::Truncated)?;
            *pos += 1;
            ctr.scalar += 1;
            Value::Char(b)
        }
        WireType::Str => {
            let len = read_u32(buf, pos, bo)? as usize;
            let s = std::str::from_utf8(take(buf, pos, len)?).map_err(|_| PbioError::BadUtf8)?;
            ctr.bulk += 1;
            Value::Str(s.to_string())
        }
        WireType::List(e) => {
            let n = read_u32(buf, pos, bo)? as usize;
            match **e {
                // Bulk kernels: one bounds check, one kernel pass.
                WireType::Int { width } => {
                    let bytes = take_array(buf, pos, n, width as usize)?;
                    ctr.bulk += 1;
                    Value::IntArray(decode_int_array(bytes, width, bo))
                }
                WireType::Float { width } => {
                    let bytes = take_array(buf, pos, n, width as usize)?;
                    ctr.bulk += 1;
                    Value::FloatArray(decode_float_array(bytes, width, bo))
                }
                WireType::Char => {
                    let bytes = take(buf, pos, n)?;
                    ctr.bulk += 1;
                    Value::List(bytes.iter().map(|&b| Value::Char(b)).collect())
                }
                _ => {
                    // Variable-width elements: capacity stays bounded until
                    // real elements have been parsed.
                    let mut v = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        v.push(read_value(buf, pos, e, bo, ctr)?);
                    }
                    Value::List(v)
                }
            }
        }
        WireType::Struct(d) => {
            let mut fields = Vec::with_capacity(d.fields.len());
            for f in &d.fields {
                fields.push((
                    f.name.clone(),
                    read_value(buf, pos, &f.ty, d.byte_order, ctr)?,
                ));
            }
            Value::Struct(StructValue::new(d.name.clone(), fields))
        }
    })
}

/// Bulk int-array decode: the SIMD dispatch layer fills freshly
/// reserved `Vec` capacity in one pass (byte swap + sign extension
/// fused). Width-8 host-order degenerates to memcpy.
fn decode_int_array(bytes: &[u8], width: u8, bo: ByteOrder) -> Vec<i64> {
    let w = width as usize;
    let n = bytes.len() / w;
    let mut v: Vec<i64> = Vec::with_capacity(n);
    simd::decode_i64(bytes, w, wire_swapped(bo), &mut v.spare_capacity_mut()[..n]);
    // SAFETY: the kernel wrote every element of the `n`-element reservation.
    unsafe { v.set_len(n) };
    v
}

/// Bulk float-array decode over pre-validated bytes (width 4 widens
/// through f32, same as the per-element path).
fn decode_float_array(bytes: &[u8], width: u8, bo: ByteOrder) -> Vec<f64> {
    let w = width as usize;
    let n = bytes.len() / w;
    let mut v: Vec<f64> = Vec::with_capacity(n);
    simd::decode_f64(bytes, w, wire_swapped(bo), &mut v.spare_capacity_mut()[..n]);
    // SAFETY: the kernel wrote every element of the `n`-element reservation.
    unsafe { v.set_len(n) };
    v
}

fn skip_value(buf: &[u8], pos: &mut usize, ty: &WireType, bo: ByteOrder) -> Result<(), PbioError> {
    match ty {
        WireType::Int { width } => advance(buf, pos, *width as usize),
        WireType::Float { width } => advance(buf, pos, *width as usize),
        WireType::Char => advance(buf, pos, 1),
        WireType::Str | WireType::Bytes => {
            let len = read_u32(buf, pos, bo)? as usize;
            advance(buf, pos, len)
        }
        WireType::List(e) => {
            let n = read_u32(buf, pos, bo)? as usize;
            // Fixed-size elements can be skipped in one jump; the multiply
            // is checked so a hostile count cannot wrap past the buffer.
            match **e {
                WireType::Int { width } | WireType::Float { width } => {
                    let bytes = n.checked_mul(width as usize).ok_or(PbioError::Truncated)?;
                    advance(buf, pos, bytes)
                }
                WireType::Char => advance(buf, pos, n),
                _ => {
                    for _ in 0..n {
                        skip_value(buf, pos, e, bo)?;
                    }
                    Ok(())
                }
            }
        }
        WireType::Struct(d) => {
            for f in &d.fields {
                skip_value(buf, pos, &f.ty, d.byte_order)?;
            }
            Ok(())
        }
    }
}

fn advance(buf: &[u8], pos: &mut usize, n: usize) -> Result<(), PbioError> {
    let end = pos.checked_add(n).ok_or(PbioError::Truncated)?;
    if end > buf.len() {
        return Err(PbioError::Truncated);
    }
    *pos = end;
    Ok(())
}

/// Non-advancing int read at a fixed offset (bounds proven by the caller's
/// run-level check).
fn int_at(buf: &[u8], at: usize, width: u8, bo: ByteOrder) -> i64 {
    let w = width as usize;
    let mut tmp = [0u8; 8];
    match bo {
        ByteOrder::Little => {
            tmp[..w].copy_from_slice(&buf[at..at + w]);
            sign_extend(i64::from_le_bytes(tmp), w)
        }
        ByteOrder::Big => {
            tmp[8 - w..].copy_from_slice(&buf[at..at + w]);
            sign_extend_be(i64::from_be_bytes(tmp), w)
        }
    }
}

/// Non-advancing float read at a fixed offset.
fn float_at(buf: &[u8], at: usize, width: u8, bo: ByteOrder) -> f64 {
    let bytes = &buf[at..at + width as usize];
    match (width, bo) {
        (8, ByteOrder::Little) => f64::from_le_bytes(bytes.try_into().expect("len checked")),
        (8, ByteOrder::Big) => f64::from_be_bytes(bytes.try_into().expect("len checked")),
        (4, ByteOrder::Little) => f32::from_le_bytes(bytes.try_into().expect("len checked")) as f64,
        (4, ByteOrder::Big) => f32::from_be_bytes(bytes.try_into().expect("len checked")) as f64,
        _ => unreachable!("widths validated at format construction"),
    }
}

fn read_int(buf: &[u8], pos: &mut usize, width: u8, bo: ByteOrder) -> Result<i64, PbioError> {
    let w = width as usize;
    if *pos + w > buf.len() {
        return Err(PbioError::Truncated);
    }
    let v = int_at(buf, *pos, width, bo);
    *pos += w;
    Ok(v)
}

fn sign_extend(raw: i64, w: usize) -> i64 {
    if w == 8 {
        return raw;
    }
    let shift = (8 - w) * 8;
    (raw << shift) >> shift
}

fn sign_extend_be(raw: i64, w: usize) -> i64 {
    if w == 8 {
        return raw;
    }
    // Big-endian bytes were placed at the low end of the buffer, so `raw`
    // already holds the value zero-extended; sign-extend from bit 8w-1.
    let shift = (8 - w) * 8;
    (raw << shift) >> shift
}

fn read_float(buf: &[u8], pos: &mut usize, width: u8, bo: ByteOrder) -> Result<f64, PbioError> {
    let w = width as usize;
    if *pos + w > buf.len() {
        return Err(PbioError::Truncated);
    }
    let v = float_at(buf, *pos, width, bo);
    *pos += w;
    Ok(v)
}

fn read_u32(buf: &[u8], pos: &mut usize, bo: ByteOrder) -> Result<u32, PbioError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FormatOptions;
    use sbq_model::{workload, TypeDesc};
    use sbq_runtime::SmallRng;

    fn fmt(ty: &TypeDesc, opts: FormatOptions) -> FormatDesc {
        FormatDesc::from_type(ty, opts).unwrap()
    }

    /// Identity decode through a freshly compiled plan.
    fn decode(payload: &[u8], desc: &FormatDesc) -> Result<Value, PbioError> {
        ConversionPlan::identity(desc).execute(payload)
    }

    #[test]
    fn round_trip_native_layout() {
        for depth in 0..5 {
            let v = workload::nested_struct(depth, 11);
            let d = fmt(
                &workload::nested_struct_type(depth),
                FormatOptions::default(),
            );
            let bytes = encode(&v, &d).unwrap();
            assert_eq!(decode(&bytes, &d).unwrap(), v, "depth {depth}");
        }
    }

    #[test]
    fn round_trip_arrays() {
        let v = workload::float_array(1000, 3);
        let d = fmt(
            &TypeDesc::list_of(TypeDesc::Float),
            FormatOptions::default(),
        );
        let bytes = encode(&v, &d).unwrap();
        assert_eq!(bytes.len(), 4 + 8 * 1000);
        assert_eq!(decode(&bytes, &d).unwrap(), v);
    }

    #[test]
    fn receiver_makes_right_across_byte_orders() {
        // Sender: big-endian SPARC with 4-byte ints. Receiver: host order,
        // 8-byte ints. Same field names.
        let ty = TypeDesc::struct_of(
            "m",
            vec![
                ("a", TypeDesc::Int),
                ("x", TypeDesc::Float),
                ("s", TypeDesc::Str),
            ],
        );
        let sparc = FormatOptions {
            byte_order: ByteOrder::Big,
            int_width: 4,
            float_width: 8,
        };
        let wire = fmt(&ty, sparc);
        let native = fmt(&ty, FormatOptions::default());
        let v = Value::struct_of(
            "m",
            vec![
                ("a", Value::Int(-123456)),
                ("x", Value::Float(2.75)),
                ("s", Value::Str("hello".into())),
            ],
        );
        let bytes = encode(&v, &wire).unwrap();
        let plan = ConversionPlan::compile(&wire, &native).unwrap();
        assert!(!plan.is_identity());
        let got = plan.execute(&bytes).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn narrow_int_sign_extension() {
        let ty = TypeDesc::struct_of("m", vec![("a", TypeDesc::Int)]);
        for bo in [ByteOrder::Little, ByteOrder::Big] {
            for width in [1u8, 2, 4, 8] {
                let wire = fmt(
                    &ty,
                    FormatOptions {
                        byte_order: bo,
                        int_width: width,
                        float_width: 8,
                    },
                );
                let native = fmt(&ty, FormatOptions::default());
                let v = Value::struct_of("m", vec![("a", Value::Int(-5))]);
                let bytes = encode(&v, &wire).unwrap();
                let got = ConversionPlan::compile(&wire, &native)
                    .unwrap()
                    .execute(&bytes)
                    .unwrap();
                assert_eq!(got, v, "bo={bo:?} width={width}");
            }
        }
    }

    #[test]
    fn plan_skips_wire_only_fields_and_zero_fills_native_only() {
        let wire_ty = TypeDesc::struct_of(
            "m",
            vec![
                ("keep", TypeDesc::Int),
                ("drop", TypeDesc::Str),
                ("arr", TypeDesc::list_of(TypeDesc::Float)),
            ],
        );
        let native_ty = TypeDesc::struct_of(
            "m",
            vec![
                ("keep", TypeDesc::Int),
                ("extra", TypeDesc::Float),
                ("arr", TypeDesc::list_of(TypeDesc::Float)),
            ],
        );
        let wire = fmt(&wire_ty, FormatOptions::default());
        let native = fmt(&native_ty, FormatOptions::default());
        let v = Value::struct_of(
            "m",
            vec![
                ("keep", Value::Int(7)),
                ("drop", Value::Str("gone".into())),
                ("arr", Value::FloatArray(vec![1.0, 2.0])),
            ],
        );
        let bytes = encode(&v, &wire).unwrap();
        let got = ConversionPlan::compile(&wire, &native)
            .unwrap()
            .execute(&bytes)
            .unwrap();
        let s = got.as_struct().unwrap();
        assert_eq!(s.field("keep"), Some(&Value::Int(7)));
        assert_eq!(s.field("extra"), Some(&Value::Float(0.0)));
        assert_eq!(s.field("arr"), Some(&Value::FloatArray(vec![1.0, 2.0])));
        assert!(s.field("drop").is_none());
    }

    #[test]
    fn identity_plan_detected() {
        let d = fmt(&workload::nested_struct_type(2), FormatOptions::default());
        assert!(ConversionPlan::identity(&d).is_identity());
        let other = FormatOptions {
            byte_order: match ByteOrder::native() {
                ByteOrder::Little => ByteOrder::Big,
                ByteOrder::Big => ByteOrder::Little,
            },
            ..Default::default()
        };
        let swapped = fmt(&workload::nested_struct_type(2), other);
        assert!(!ConversionPlan::compile(&swapped, &swapped)
            .unwrap()
            .is_identity());
    }

    #[test]
    fn field_reordering_handled() {
        let wire_ty = TypeDesc::struct_of("m", vec![("a", TypeDesc::Int), ("b", TypeDesc::Float)]);
        let native_ty =
            TypeDesc::struct_of("m", vec![("b", TypeDesc::Float), ("a", TypeDesc::Int)]);
        let wire = fmt(&wire_ty, FormatOptions::default());
        let native = fmt(&native_ty, FormatOptions::default());
        let v = Value::struct_of("m", vec![("a", Value::Int(1)), ("b", Value::Float(2.0))]);
        let bytes = encode(&v, &wire).unwrap();
        let got = ConversionPlan::compile(&wire, &native)
            .unwrap()
            .execute(&bytes)
            .unwrap();
        let s = got.as_struct().unwrap();
        assert_eq!(s.fields[0].0, "b");
        assert_eq!(s.field("a"), Some(&Value::Int(1)));
    }

    #[test]
    fn incompatible_field_kinds_rejected_at_compile() {
        let wire = fmt(
            &TypeDesc::struct_of("m", vec![("a", TypeDesc::Str)]),
            FormatOptions::default(),
        );
        let native = fmt(
            &TypeDesc::struct_of("m", vec![("a", TypeDesc::Int)]),
            FormatOptions::default(),
        );
        assert!(matches!(
            ConversionPlan::compile(&wire, &native),
            Err(PbioError::TypeMismatch(_))
        ));
        // Wrapped scalar parameters too (the "value" shortcut).
        let wire = fmt(&TypeDesc::Str, FormatOptions::default());
        let native = fmt(&TypeDesc::list_of(TypeDesc::Int), FormatOptions::default());
        assert!(ConversionPlan::compile(&wire, &native).is_err());
    }

    #[test]
    fn list_elements_projected_between_schemas() {
        // Wire: list of reduced structs; native: list of the full struct.
        // Elements must be padded individually.
        let full_elem =
            TypeDesc::struct_of("e", vec![("a", TypeDesc::Int), ("b", TypeDesc::Float)]);
        let small_elem = TypeDesc::struct_of("e", vec![("a", TypeDesc::Int)]);
        let wire_ty = TypeDesc::struct_of("m", vec![("items", TypeDesc::list_of(small_elem))]);
        let native_ty = TypeDesc::struct_of("m", vec![("items", TypeDesc::list_of(full_elem))]);
        let wire = fmt(&wire_ty, FormatOptions::default());
        let native = fmt(&native_ty, FormatOptions::default());
        let v = Value::struct_of(
            "m",
            vec![(
                "items",
                Value::List(vec![
                    Value::struct_of("e", vec![("a", Value::Int(1))]),
                    Value::struct_of("e", vec![("a", Value::Int(2))]),
                ]),
            )],
        );
        let bytes = encode(&v, &wire).unwrap();
        let got = ConversionPlan::compile(&wire, &native)
            .unwrap()
            .execute(&bytes)
            .unwrap();
        let items = got.as_struct().unwrap().field("items").unwrap();
        let Value::List(items) = items else {
            panic!("expected list")
        };
        assert_eq!(items.len(), 2);
        let e0 = items[0].as_struct().unwrap();
        assert_eq!(e0.field("a"), Some(&Value::Int(1)));
        assert_eq!(e0.field("b"), Some(&Value::Float(0.0)), "padded");
    }

    #[test]
    fn truncated_payload_errors() {
        let d = fmt(&workload::nested_struct_type(1), FormatOptions::default());
        let v = workload::nested_struct(1, 1);
        let bytes = encode(&v, &d).unwrap();
        assert_eq!(
            decode(&bytes[..bytes.len() - 3], &d).unwrap_err(),
            PbioError::Truncated
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let d = fmt(&workload::nested_struct_type(1), FormatOptions::default());
        let v = workload::nested_struct(1, 1);
        let mut bytes = encode(&v, &d).unwrap();
        bytes.push(0);
        assert!(decode(&bytes, &d).is_err());
    }

    #[test]
    fn mismatched_value_rejected() {
        let d = fmt(
            &TypeDesc::struct_of("m", vec![("a", TypeDesc::Int)]),
            FormatOptions::default(),
        );
        let bad = Value::struct_of("m", vec![("a", Value::Str("not an int".into()))]);
        assert!(matches!(encode(&bad, &d), Err(PbioError::TypeMismatch(_))));
    }

    #[test]
    fn pbio_smaller_than_naive_text() {
        // The headline size claim: PBIO arrays are dense.
        let v = workload::int_array(1024, 5);
        let d = fmt(&TypeDesc::list_of(TypeDesc::Int), FormatOptions::default());
        let bytes = encode(&v, &d).unwrap();
        assert_eq!(bytes.len(), 4 + 8 * 1024);
    }

    // -- new coverage: guards, fusion, bulk-vs-scalar agreement ------------

    #[test]
    fn hostile_array_length_rejected_before_allocation() {
        // A 4-byte message claiming u32::MAX (≈4G) elements must fail the
        // bounds check without ever allocating element storage.
        let d = fmt(&TypeDesc::list_of(TypeDesc::Int), FormatOptions::default());
        let bytes = u32::MAX.to_le_bytes().to_vec();
        assert_eq!(decode(&bytes, &d).unwrap_err(), PbioError::Truncated);
        // Same for floats and char lists.
        let d = fmt(
            &TypeDesc::list_of(TypeDesc::Float),
            FormatOptions::default(),
        );
        assert_eq!(decode(&bytes, &d).unwrap_err(), PbioError::Truncated);
        // And for Str/Bytes length prefixes.
        let d = fmt(&TypeDesc::Str, FormatOptions::default());
        assert_eq!(decode(&bytes, &d).unwrap_err(), PbioError::Truncated);
        let d = fmt(&TypeDesc::Bytes, FormatOptions::default());
        assert_eq!(decode(&bytes, &d).unwrap_err(), PbioError::Truncated);
    }

    #[test]
    fn hostile_length_rejected_on_skip_path() {
        // Wire carries an array the native format drops: the skip jump
        // must validate n*width with checked arithmetic too.
        let wire = fmt(
            &TypeDesc::struct_of(
                "m",
                vec![
                    ("drop", TypeDesc::list_of(TypeDesc::Int)),
                    ("keep", TypeDesc::Int),
                ],
            ),
            FormatOptions::default(),
        );
        let native = fmt(
            &TypeDesc::struct_of("m", vec![("keep", TypeDesc::Int)]),
            FormatOptions::default(),
        );
        let plan = ConversionPlan::compile(&wire, &native).unwrap();
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&7i64.to_le_bytes());
        assert_eq!(plan.execute(&bytes).unwrap_err(), PbioError::Truncated);
    }

    #[test]
    fn oversize_length_prefix_errors_instead_of_wrapping() {
        // No 4 GiB allocation needed: the length check is on the count.
        let mut out = Vec::new();
        assert!(write_len(&mut out, u32::MAX as usize, ByteOrder::Little).is_ok());
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            write_len(&mut out, too_big, ByteOrder::Little),
            Err(PbioError::TooLarge(n)) if n == too_big
        ));
    }

    #[test]
    fn same_layout_struct_fuses_to_single_bulk_run() {
        let ty = TypeDesc::struct_of(
            "m",
            vec![
                ("a", TypeDesc::Int),
                ("b", TypeDesc::Int),
                ("c", TypeDesc::Float),
                ("d", TypeDesc::Char),
            ],
        );
        let d = fmt(&ty, FormatOptions::default());
        let plan = ConversionPlan::identity(&d);
        assert_eq!(plan.op_summary(), (1, 0), "one fused run, no field ops");

        // A variable-width field splits the runs; the leading single
        // scalar demotes back to a field op.
        let ty = TypeDesc::struct_of(
            "m",
            vec![
                ("a", TypeDesc::Int),
                ("s", TypeDesc::Str),
                ("b", TypeDesc::Int),
                ("c", TypeDesc::Float),
            ],
        );
        let d = fmt(&ty, FormatOptions::default());
        let plan = ConversionPlan::identity(&d);
        assert_eq!(plan.op_summary(), (1, 2), "run [b,c]; field ops a and s");
    }

    #[test]
    fn fused_runs_fold_skips_and_survive_byte_swaps() {
        // Wire-only scalar in the middle of a run folds into the same
        // bulk run (no separate skip parse), and fusion still applies on
        // the byte-swapped path.
        let wire_ty = TypeDesc::struct_of(
            "m",
            vec![
                ("a", TypeDesc::Int),
                ("drop", TypeDesc::Float),
                ("b", TypeDesc::Int),
            ],
        );
        let native_ty = TypeDesc::struct_of("m", vec![("a", TypeDesc::Int), ("b", TypeDesc::Int)]);
        for bo in [ByteOrder::Little, ByteOrder::Big] {
            let wire = fmt(
                &wire_ty,
                FormatOptions {
                    byte_order: bo,
                    int_width: 4,
                    float_width: 8,
                },
            );
            let native = fmt(&native_ty, FormatOptions::default());
            let plan = ConversionPlan::compile(&wire, &native).unwrap();
            assert_eq!(plan.op_summary(), (1, 0), "bo={bo:?}");
            let v = Value::struct_of(
                "m",
                vec![
                    ("a", Value::Int(-9)),
                    ("drop", Value::Float(1.5)),
                    ("b", Value::Int(1 << 20)),
                ],
            );
            let bytes = encode(&v, &wire).unwrap();
            let got = plan.execute(&bytes).unwrap();
            let s = got.as_struct().unwrap();
            assert_eq!(s.field("a"), Some(&Value::Int(-9)), "bo={bo:?}");
            assert_eq!(s.field("b"), Some(&Value::Int(1 << 20)), "bo={bo:?}");
            assert!(s.field("drop").is_none());
        }
    }

    /// Reference per-element decode replicating the pre-bulk code path,
    /// used to prove the kernels agree with scalar semantics bit-for-bit.
    fn reference_decode_list(buf: &[u8], ty: &WireType, bo: ByteOrder) -> Result<Value, PbioError> {
        let mut pos = 0;
        let n = read_u32(buf, &mut pos, bo)? as usize;
        let v = match ty {
            WireType::Int { width } => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(read_int(buf, &mut pos, *width, bo)?);
                }
                Value::IntArray(v)
            }
            WireType::Float { width } => {
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(read_float(buf, &mut pos, *width, bo)?);
                }
                Value::FloatArray(v)
            }
            _ => unreachable!(),
        };
        assert_eq!(pos, buf.len(), "reference consumed whole payload");
        Ok(v)
    }

    #[test]
    fn bulk_and_scalar_decodes_agree_across_orders_and_widths() {
        let mut rng = SmallRng::seed_from_u64(0x50ab_b1d0);
        for bo in [ByteOrder::Little, ByteOrder::Big] {
            for width in [1u8, 2, 4, 8] {
                let vals: Vec<i64> = (0..257)
                    .map(|_| {
                        // Values that fit the width, signs included, so the
                        // round trip is exact.
                        let bits = 8 * width as u32 - 1;
                        let bound = 1u64 << bits.min(62);
                        rng.gen_below(2 * bound) as i64 - bound as i64
                    })
                    .collect();
                let v = Value::IntArray(vals);
                let wire = fmt(
                    &TypeDesc::list_of(TypeDesc::Int),
                    FormatOptions {
                        byte_order: bo,
                        int_width: width,
                        float_width: 8,
                    },
                );
                let bytes = encode(&v, &wire).unwrap();
                let elem = WireType::Int { width };
                let reference = reference_decode_list(&bytes, &elem, bo).unwrap();
                let bulk = ConversionPlan::identity(&wire).execute(&bytes).unwrap();
                assert_eq!(bulk, reference, "int bo={bo:?} width={width}");
                assert_eq!(bulk, v, "int round trip bo={bo:?} width={width}");
            }
            for width in [4u8, 8] {
                let vals: Vec<f64> = (0..257)
                    .map(|_| (rng.gen_f64() - 0.5) * 1e6)
                    .map(|x| if width == 4 { x as f32 as f64 } else { x })
                    .collect();
                let v = Value::FloatArray(vals);
                let wire = fmt(
                    &TypeDesc::list_of(TypeDesc::Float),
                    FormatOptions {
                        byte_order: bo,
                        int_width: 8,
                        float_width: width,
                    },
                );
                let bytes = encode(&v, &wire).unwrap();
                let elem = WireType::Float { width };
                let reference = reference_decode_list(&bytes, &elem, bo).unwrap();
                let bulk = ConversionPlan::identity(&wire).execute(&bytes).unwrap();
                assert_eq!(bulk, reference, "float bo={bo:?} width={width}");
                assert_eq!(bulk, v, "float round trip bo={bo:?} width={width}");
            }
        }
    }

    #[test]
    fn char_list_round_trips_through_bulk_kernels() {
        let v = Value::List((0u8..=255).map(Value::Char).collect());
        for bo in [ByteOrder::Little, ByteOrder::Big] {
            let d = fmt(
                &TypeDesc::list_of(TypeDesc::Char),
                FormatOptions {
                    byte_order: bo,
                    ..Default::default()
                },
            );
            let bytes = encode(&v, &d).unwrap();
            assert_eq!(bytes.len(), 4 + 256);
            assert_eq!(decode(&bytes, &d).unwrap(), v, "bo={bo:?}");
        }
    }

    #[test]
    fn plan_executions_tally_bulk_and_scalar_ops() {
        let m = plan_metrics();
        let (bulk, scalar) = (&m.bulk, &m.scalar);
        let (b0, s0) = (bulk.get(), scalar.get());
        let d = fmt(
            &TypeDesc::list_of(TypeDesc::Float),
            FormatOptions::default(),
        );
        let v = workload::float_array(64, 1);
        let bytes = encode(&v, &d).unwrap();
        decode(&bytes, &d).unwrap();
        assert!(bulk.get() > b0, "array encode+decode counted as bulk");

        let d = fmt(
            &TypeDesc::struct_of("m", vec![("a", TypeDesc::Int), ("s", TypeDesc::Str)]),
            FormatOptions::default(),
        );
        let v = Value::struct_of(
            "m",
            vec![("a", Value::Int(1)), ("s", Value::Str("x".into()))],
        );
        let bytes = encode(&v, &d).unwrap();
        decode(&bytes, &d).unwrap();
        assert!(scalar.get() > s0, "lone scalar field counted as scalar");
    }
}
