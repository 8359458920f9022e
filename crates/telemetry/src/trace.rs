//! Request-scoped distributed tracing: span trees across processes, a
//! lock-free flight recorder, and Chrome `trace_event` export.
//!
//! ## Shape
//!
//! A [`Tracer`] (one per [`Registry`](crate::Registry), obtained via
//! [`Registry::tracer`](crate::Registry::tracer)) hands out
//! [`TraceSpan`]s. A span carries a [`TraceContext`] — 128-bit trace id,
//! 64-bit span id, one flags byte — that travels between processes as
//! the `X-SBQ-Trace` header in W3C `traceparent` text form:
//!
//! ```text
//! 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//! ```
//!
//! Finished spans are packed into fixed-size slots of a bounded
//! **flight recorder**: a lock-free MPSC ring that overwrites the
//! oldest entry when full and never allocates or blocks on the record
//! path. Snapshots ([`Tracer::snapshot`]) are rendered as Chrome
//! `trace_event` JSON ([`Tracer::render_chrome_json`], loadable in
//! `chrome://tracing` or Perfetto) or a compact text dump.
//!
//! ## Sampling
//!
//! Head sampling keeps 1 in `N` roots ([`TraceConfig::sample_one_in`]);
//! children inherit the decision through the context's flags byte. A
//! span that saw an error or a retry is recorded even when unsampled
//! ([`TraceSpan::set_error`], [`TraceSpan::force_record`]) so tail
//! latency is never invisible.
//!
//! ## Disabled mode
//!
//! Like the rest of the registry, a disabled tracer hands out spans
//! that skip the clock read and never touch the ring — instrumented
//! code pays one branch when tracing is off.

use crate::metrics::Counter;
use sbq_runtime::rand::SmallRng;
use std::cell::Cell as StdCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

/// The HTTP header that carries a [`TraceContext`] between processes.
pub const TRACE_HEADER: &str = "X-SBQ-Trace";

/// The response header through which a server reports its own span id
/// back to the caller, letting the client stitch a cross-process tree.
pub const SPAN_HEADER: &str = "X-SBQ-Span";

const FLAG_SAMPLED: u8 = 0x01;

/// Identity of one trace position: which trace, which span, and whether
/// the head-sampling decision kept it. Copied into every child span and
/// serialized onto the wire as the `X-SBQ-Trace` header. The all-zero
/// default is the context of a disabled span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id shared by every span of one logical call.
    pub trace_id: u128,
    /// 64-bit id of this span.
    pub span_id: u64,
    /// Bit 0: sampled. Other bits reserved.
    pub flags: u8,
}

impl TraceContext {
    /// Whether the head-sampling decision kept this trace.
    pub fn sampled(&self) -> bool {
        self.flags & FLAG_SAMPLED != 0
    }

    /// W3C `traceparent`-style text form:
    /// `00-<32 hex trace>-<16 hex span>-<2 hex flags>`.
    pub fn to_header_value(&self) -> String {
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id, self.span_id, self.flags
        )
    }

    /// Parses the header form. Returns `None` for anything malformed —
    /// wrong length, bad separators, non-hex digits, an all-zero trace
    /// or span id, or the reserved version `ff`. Propagation code must
    /// treat `None` as "no context", never as an error.
    pub fn parse(s: &str) -> Option<TraceContext> {
        let s = s.trim();
        let b = s.as_bytes();
        if b.len() != 55 || b[2] != b'-' || b[35] != b'-' || b[52] != b'-' {
            return None;
        }
        let version = parse_hex_u64(&s[0..2])? as u8;
        if version == 0xff {
            return None;
        }
        let trace_id = parse_hex_u128(&s[3..35])?;
        let span_id = parse_hex_u64(&s[36..52])?;
        let flags = parse_hex_u64(&s[53..55])? as u8;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            flags,
        })
    }
}

fn all_hex(s: &str) -> bool {
    // from_str_radix accepts a leading `+`; the wire form must not.
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_hexdigit())
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    if !all_hex(s) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn parse_hex_u128(s: &str) -> Option<u128> {
    if !all_hex(s) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

// ---------------------------------------------------------------------
// Fixed-size span packing
// ---------------------------------------------------------------------

const NAME_BYTES: usize = 32;
const TAG_KEY_BYTES: usize = 16;
const TAG_VAL_BYTES: usize = 24;
/// Maximum tags one span slot can hold; extra tags are dropped.
pub const MAX_TAGS: usize = 3;
const NAME_WORDS: usize = NAME_BYTES / 8; // 4
const TAG_WORDS: usize = TAG_KEY_BYTES / 8 + TAG_VAL_BYTES / 8; // 5
/// 7 header words + name + tags = 26 words (208 bytes) per slot.
const WORDS: usize = 7 + NAME_WORDS + MAX_TAGS * TAG_WORDS;

const W_TRACE_LO: usize = 0;
const W_TRACE_HI: usize = 1;
const W_SPAN: usize = 2;
const W_PARENT: usize = 3;
const W_START: usize = 4;
const W_DUR: usize = 5;
const W_META: usize = 6;
const W_NAME: usize = 7;
const W_TAGS: usize = W_NAME + NAME_WORDS;

const META_ERROR: u64 = 1;

/// Copies `s` into `buf` zero-padded, truncating on a char boundary.
fn pack_str(buf: &mut [u8], s: &str) -> usize {
    let mut n = s.len().min(buf.len());
    while n > 0 && !s.is_char_boundary(n) {
        n -= 1;
    }
    buf[..n].copy_from_slice(&s.as_bytes()[..n]);
    n
}

fn unpack_str(buf: &[u8]) -> String {
    let end = buf
        .iter()
        .rposition(|&b| b != 0)
        .map(|p| p + 1)
        .unwrap_or(0);
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

fn bytes_to_words(bytes: &[u8], words: &mut [u64]) {
    for (i, chunk) in bytes.chunks(8).enumerate() {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        words[i] = u64::from_le_bytes(b);
    }
}

fn words_to_bytes(words: &[u64], bytes: &mut [u8]) {
    for (i, w) in words.iter().enumerate() {
        bytes[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
}

/// One decoded span event out of the flight recorder. Strings are
/// truncated to the slot's fixed budget (32-byte name, 16/24-byte tag
/// key/value); decoding allocates, recording does not.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Trace this span belongs to.
    pub trace_id: u128,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 for a root).
    pub parent_id: u64,
    /// Span name, e.g. `client.call` or `marshal.pbio.encode`.
    pub name: String,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Whether [`TraceSpan::set_error`] was called.
    pub error: bool,
    /// Up to [`MAX_TAGS`] key/value annotations.
    pub tags: Vec<(String, String)>,
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

struct Slot {
    /// 0 = never written; odd = write in progress; even ≥ 2 = complete.
    /// The value encodes the claim ticket: a writer that claimed global
    /// index `n` stores `2n+1` then `2n+2`, so readers can both detect
    /// torn reads and recover write order for sorting.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// Bounded, lock-free, overwrite-oldest span storage. Writers claim a
/// slot with one `fetch_add` and publish with two release stores; no
/// allocation, no locks, no syscalls on the record path. A reader that
/// races a writer on the same slot simply skips it.
struct FlightRecorder {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
}

impl FlightRecorder {
    fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.clamp(16, 1 << 20).next_power_of_two();
        let slots: Vec<Slot> = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        FlightRecorder {
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn record(&self, words: &[u64; WORDS]) {
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n & self.mask) as usize];
        // Odd = in progress. Release so readers that observe the
        // completion value also observe the words.
        slot.seq.store(2 * n + 1, Ordering::Release);
        for (dst, &src) in slot.words.iter().zip(words.iter()) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(2 * n + 2, Ordering::Release);
    }

    /// Number of record() calls so far (wraps past capacity).
    fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Decodes every complete slot, oldest first. A slot that a writer
    /// races (mid-write, or overwritten while being copied) is retried,
    /// yielding the CPU between rounds so a preempted writer can finish,
    /// and after a bounded number of rounds *skipped* — never emitted
    /// torn — with the give-up counted in `torn` (`trace.export_torn`).
    fn snapshot(&self, torn: &Counter) -> Vec<SpanEvent> {
        /// Back-to-back reads per round: enough when the racing writer is
        /// running on another core.
        const EXPORT_RETRIES: usize = 4;
        /// Rounds separated by `yield_now`: when writers outnumber cores
        /// the one holding the slot may be descheduled mid-write, and
        /// spinning would only wait out its time slice.
        const EXPORT_ROUNDS: usize = 16;
        let mut out: Vec<(u64, SpanEvent)> = Vec::with_capacity(self.slots.len());
        'slots: for slot in self.slots.iter() {
            for attempt in 0..EXPORT_RETRIES * EXPORT_ROUNDS {
                if attempt > 0 && attempt % EXPORT_RETRIES == 0 {
                    std::thread::yield_now();
                }
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 {
                    continue 'slots; // never written
                }
                if s1 % 2 == 1 {
                    continue; // write in progress: retry
                }
                let mut words = [0u64; WORDS];
                for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
                    *dst = src.load(Ordering::Relaxed);
                }
                std::sync::atomic::fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) != s1 {
                    continue; // torn: a writer moved in while we read
                }
                let ticket = (s1 - 2) / 2;
                out.push((ticket, decode_words(&words)));
                continue 'slots;
            }
            torn.inc(); // retries exhausted under a write storm
        }
        out.sort_by_key(|(t, _)| *t);
        out.into_iter().map(|(_, e)| e).collect()
    }
}

fn decode_words(words: &[u64; WORDS]) -> SpanEvent {
    let meta = words[W_META];
    let tag_count = ((meta >> 8) & 0xff) as usize;
    let mut name_bytes = [0u8; NAME_BYTES];
    words_to_bytes(&words[W_NAME..W_NAME + NAME_WORDS], &mut name_bytes);
    let mut tags = Vec::with_capacity(tag_count.min(MAX_TAGS));
    for t in 0..tag_count.min(MAX_TAGS) {
        let base = W_TAGS + t * TAG_WORDS;
        let mut kb = [0u8; TAG_KEY_BYTES];
        let mut vb = [0u8; TAG_VAL_BYTES];
        words_to_bytes(&words[base..base + 2], &mut kb);
        words_to_bytes(&words[base + 2..base + 5], &mut vb);
        tags.push((unpack_str(&kb), unpack_str(&vb)));
    }
    SpanEvent {
        trace_id: (words[W_TRACE_HI] as u128) << 64 | words[W_TRACE_LO] as u128,
        span_id: words[W_SPAN],
        parent_id: words[W_PARENT],
        name: unpack_str(&name_bytes),
        start_us: words[W_START],
        dur_us: words[W_DUR],
        error: meta & META_ERROR != 0,
        tags,
    }
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

/// Tracer configuration, applied via
/// [`Registry::set_trace_config`](crate::Registry::set_trace_config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    capacity: usize,
    sample_one_in: u64,
}

impl TraceConfig {
    /// Defaults: 4096-slot ring, every root sampled.
    pub fn new() -> TraceConfig {
        TraceConfig {
            capacity: 4096,
            sample_one_in: 1,
        }
    }

    /// Flight-recorder slot count (rounded up to a power of two,
    /// clamped to `[16, 1M]`). Each slot is 216 bytes.
    pub fn capacity(mut self, slots: usize) -> TraceConfig {
        self.capacity = slots;
        self
    }

    /// Head-sampling ratio: keep 1 in `n` root spans (children inherit
    /// the decision). `0` is treated as `1`. Errors and retries are
    /// recorded regardless.
    pub fn sample_one_in(mut self, n: u64) -> TraceConfig {
        self.sample_one_in = n.max(1);
        self
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::new()
    }
}

pub(crate) struct TracerInner {
    recorder: FlightRecorder,
    epoch: Instant,
    sample_one_in: u64,
    ticket: AtomicU64,
    id_state: AtomicU64,
    sampled: Counter,
    dropped: Counter,
    recorded: Counter,
    exported: Counter,
    export_torn: Counter,
}

static SEED_MIX: AtomicU64 = AtomicU64::new(0);

impl TracerInner {
    pub(crate) fn new(config: TraceConfig, registry: &crate::RegistryInner) -> TracerInner {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        let mix = SEED_MIX.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        let counter = |name: &str| Counter(Some(crate::get_or_insert(&registry.counters, name)));
        TracerInner {
            recorder: FlightRecorder::new(config.capacity),
            epoch: Instant::now(),
            sample_one_in: config.sample_one_in.max(1),
            ticket: AtomicU64::new(0),
            id_state: AtomicU64::new(nanos ^ mix),
            sampled: counter("trace.sampled"),
            dropped: counter("trace.dropped"),
            recorded: counter("trace.recorded"),
            exported: counter("trace.exported"),
            export_torn: counter("trace.export_torn"),
        }
    }

    /// A fresh nonzero 64-bit id.
    fn id64(&self) -> u64 {
        let state = self
            .id_state
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        let id = SmallRng::seed_from_u64(state).next_u64();
        if id == 0 {
            1
        } else {
            id
        }
    }

    fn id128(&self) -> u128 {
        (self.id64() as u128) << 64 | self.id64() as u128
    }
}

/// Hands out [`TraceSpan`]s and snapshots the flight recorder. Cheap to
/// clone; all clones share the same ring. A tracer from a disabled
/// registry no-ops everywhere.
#[derive(Clone, Default)]
pub struct Tracer {
    pub(crate) inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether spans from this tracer can record anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Flight-recorder slot count (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.recorder.capacity())
            .unwrap_or(0)
    }

    /// Total spans written into the ring so far (0 when disabled).
    /// Monotonic — keeps counting past capacity as old slots are
    /// overwritten.
    pub fn recorded_total(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.recorder.recorded())
            .unwrap_or(0)
    }

    /// Opens a root span: fresh trace id, head-sampling decision made
    /// here. The span records on drop (if sampled, errored, or forced).
    pub fn root_span(&self, name: &str) -> TraceSpan {
        let Some(inner) = &self.inner else {
            return TraceSpan::disabled();
        };
        let n = inner.ticket.fetch_add(1, Ordering::Relaxed);
        let sampled = n % inner.sample_one_in == 0;
        if sampled {
            inner.sampled.inc();
        } else {
            inner.dropped.inc();
        }
        let ctx = TraceContext {
            trace_id: inner.id128(),
            span_id: inner.id64(),
            flags: if sampled { FLAG_SAMPLED } else { 0 },
        };
        TraceSpan::start(Arc::clone(inner), ctx, 0, name, Instant::now())
    }

    /// Opens a child span under `parent`: same trace id and sampling
    /// decision, fresh span id.
    pub fn child_span(&self, name: &str, parent: &TraceContext) -> TraceSpan {
        self.child_span_at(name, parent, Instant::now())
    }

    /// Like [`Tracer::child_span`] but starting at `start` — for spans
    /// whose beginning predates the moment the span object can be
    /// constructed (a server request starts at its first byte).
    pub fn child_span_at(&self, name: &str, parent: &TraceContext, start: Instant) -> TraceSpan {
        let Some(inner) = &self.inner else {
            return TraceSpan::disabled();
        };
        let ctx = TraceContext {
            trace_id: parent.trace_id,
            span_id: inner.id64(),
            flags: parent.flags,
        };
        TraceSpan::start(Arc::clone(inner), ctx, parent.span_id, name, start)
    }

    /// Decodes every complete ring slot, oldest write first.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        match &self.inner {
            Some(i) => i.recorder.snapshot(&i.export_torn),
            None => Vec::new(),
        }
    }

    /// Renders the ring as Chrome `trace_event` JSON — an object with a
    /// `traceEvents` array of complete (`"ph":"X"`) events, loadable in
    /// `chrome://tracing` / Perfetto. `pid` is the low 32 bits of the
    /// trace id so each trace groups into its own track.
    pub fn render_chrome_json(&self) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(256 + events.len() * 192);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"sbq\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":1,\"args\":{{\"trace\":\"{:032x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"",
                crate::expo::json_escape(&e.name),
                e.start_us,
                e.dur_us,
                (e.trace_id & 0xffff_ffff) as u64,
                e.trace_id,
                e.span_id,
                e.parent_id,
            ));
            if e.error {
                out.push_str(",\"error\":true");
            }
            for (k, v) in &e.tags {
                out.push_str(&format!(
                    ",\"{}\":\"{}\"",
                    crate::expo::json_escape(k),
                    crate::expo::json_escape(v)
                ));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        if let Some(i) = &self.inner {
            i.exported.add(events.len() as u64);
        }
        out
    }

    /// A compact text dump: one trace per block, spans indented under
    /// their parents, `!` marking errors.
    pub fn render_text_dump(&self) -> String {
        let events = self.snapshot();
        let mut out = String::new();
        let mut traces: Vec<u128> = events.iter().map(|e| e.trace_id).collect();
        traces.dedup();
        traces.sort_unstable();
        traces.dedup();
        for trace in traces {
            out.push_str(&format!("trace {trace:032x}\n"));
            let spans: Vec<&SpanEvent> = events.iter().filter(|e| e.trace_id == trace).collect();
            for e in &spans {
                // Indent by parent-chain depth, capped to survive
                // cycles or missing (overwritten) parents.
                let mut depth = 0usize;
                let mut cur = e.parent_id;
                while cur != 0 && depth < 16 {
                    match spans.iter().find(|p| p.span_id == cur) {
                        Some(p) => {
                            depth += 1;
                            cur = p.parent_id;
                        }
                        None => {
                            depth += 1;
                            break;
                        }
                    }
                }
                let mark = if e.error { "!" } else { " " };
                out.push_str(&format!(
                    "{} {:indent$}{} {}us +{}us span={:016x} parent={:016x}",
                    mark,
                    "",
                    e.name,
                    e.start_us,
                    e.dur_us,
                    e.span_id,
                    e.parent_id,
                    indent = depth * 2
                ));
                for (k, v) in &e.tags {
                    out.push_str(&format!(" {k}={v}"));
                }
                out.push('\n');
            }
        }
        out
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => write!(
                f,
                "Tracer(cap {}, {} recorded)",
                i.recorder.capacity(),
                i.recorder.recorded()
            ),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

// ---------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct Tag {
    key: [u8; TAG_KEY_BYTES],
    val: [u8; TAG_VAL_BYTES],
}

/// One in-flight span. Records itself into the flight recorder on drop
/// if the trace is sampled, the span saw an error, or
/// [`TraceSpan::force_record`] was called. Everything on this type is
/// allocation-free; a disabled span ([`TraceSpan::disabled`]) skips the
/// clock read too.
pub struct TraceSpan {
    inner: Option<Arc<TracerInner>>,
    ctx: TraceContext,
    parent_id: u64,
    name: [u8; NAME_BYTES],
    start: Option<Instant>,
    tags: [Tag; MAX_TAGS],
    tag_count: u8,
    error: bool,
    force: bool,
}

impl TraceSpan {
    fn start(
        inner: Arc<TracerInner>,
        ctx: TraceContext,
        parent_id: u64,
        name: &str,
        start: Instant,
    ) -> TraceSpan {
        let mut name_buf = [0u8; NAME_BYTES];
        pack_str(&mut name_buf, name);
        TraceSpan {
            inner: Some(inner),
            ctx,
            parent_id,
            name: name_buf,
            // Unsampled spans still carry a start so an error can
            // promote them to the ring with a real duration.
            start: Some(start),
            tags: [Tag::default(); MAX_TAGS],
            tag_count: 0,
            error: false,
            force: false,
        }
    }

    /// A span that is a complete no-op (never reads the clock).
    pub fn disabled() -> TraceSpan {
        TraceSpan {
            inner: None,
            ctx: TraceContext::default(),
            parent_id: 0,
            name: [0; NAME_BYTES],
            start: None,
            tags: [Tag::default(); MAX_TAGS],
            tag_count: 0,
            error: false,
            force: false,
        }
    }

    /// This span's context — what a child span parents on and what goes
    /// on the wire. All-zero for a disabled span.
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// The `X-SBQ-Trace` header value for this span, or `None` when
    /// disabled.
    pub fn header_value(&self) -> Option<String> {
        self.inner.as_ref()?;
        Some(self.ctx.to_header_value())
    }

    /// Whether dropping this span will write to the ring.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some() && (self.ctx.sampled() || self.error || self.force)
    }

    /// Whether this span does anything at all (false only for
    /// [`TraceSpan::disabled`]).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Annotates the span. At most [`MAX_TAGS`] tags stick (16-byte
    /// keys, 24-byte values, truncated on char boundaries); extras are
    /// silently dropped. No allocation.
    pub fn add_tag(&mut self, key: &str, value: &str) {
        if self.inner.is_none() || (self.tag_count as usize) >= MAX_TAGS {
            return;
        }
        let tag = &mut self.tags[self.tag_count as usize];
        pack_str(&mut tag.key, key);
        pack_str(&mut tag.val, value);
        self.tag_count += 1;
    }

    /// [`TraceSpan::add_tag`] with a decimal integer value, formatted
    /// into a stack buffer.
    pub fn add_tag_u64(&mut self, key: &str, value: u64) {
        let mut buf = [0u8; 20];
        let s = format_u64(&mut buf, value);
        // Borrow dance: format into a local, then tag.
        let mut val = [0u8; 20];
        val[..s.len()].copy_from_slice(s.as_bytes());
        let len = s.len();
        self.add_tag(key, std::str::from_utf8(&val[..len]).unwrap_or("0"));
    }

    /// [`TraceSpan::add_tag`] with a 64-bit id rendered as 16 hex
    /// digits, formatted into a stack buffer.
    pub fn add_tag_hex(&mut self, key: &str, value: u64) {
        let mut buf = [0u8; 16];
        for (i, b) in buf.iter_mut().enumerate() {
            let nib = ((value >> ((15 - i) * 4)) & 0xf) as u8;
            *b = if nib < 10 {
                b'0' + nib
            } else {
                b'a' + nib - 10
            };
        }
        self.add_tag(key, std::str::from_utf8(&buf).unwrap_or("0"));
    }

    /// Marks the span failed. An errored span records even when the
    /// trace is unsampled, so failures are never invisible.
    pub fn set_error(&mut self) {
        self.error = true;
    }

    /// Forces recording regardless of the sampling decision (used for
    /// retries: a Karn-suppressed sample should be visible as a span).
    pub fn force_record(&mut self) {
        self.force = true;
    }

    /// Ends the span at `end`: writes it to the ring if it records, then
    /// disarms it so dropping it writes nothing more.
    pub(crate) fn end_at(&mut self, end: Instant) {
        if !self.is_recording() {
            return;
        }
        let (Some(inner), Some(start)) = (self.inner.take(), self.start) else {
            return;
        };
        let dur = end.saturating_duration_since(start);
        let start_us = start
            .saturating_duration_since(inner.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let mut words = [0u64; WORDS];
        words[W_TRACE_LO] = self.ctx.trace_id as u64;
        words[W_TRACE_HI] = (self.ctx.trace_id >> 64) as u64;
        words[W_SPAN] = self.ctx.span_id;
        words[W_PARENT] = self.parent_id;
        words[W_START] = start_us;
        words[W_DUR] = dur.as_micros().min(u64::MAX as u128) as u64;
        words[W_META] = (if self.error { META_ERROR } else { 0 }) | ((self.tag_count as u64) << 8);
        bytes_to_words(&self.name, &mut words[W_NAME..W_NAME + NAME_WORDS]);
        for t in 0..self.tag_count as usize {
            let base = W_TAGS + t * TAG_WORDS;
            bytes_to_words(&self.tags[t].key, &mut words[base..base + 2]);
            bytes_to_words(&self.tags[t].val, &mut words[base + 2..base + 5]);
        }
        inner.recorder.record(&words);
        inner.recorded.inc();
    }
}

fn format_u64(buf: &mut [u8; 20], mut v: u64) -> &str {
    if v == 0 {
        buf[0] = b'0';
        return std::str::from_utf8(&buf[..1]).unwrap();
    }
    let mut i = buf.len();
    while v > 0 {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    buf.copy_within(i.., 0);
    let len = 20 - i;
    std::str::from_utf8(&buf[..len]).unwrap()
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if self.is_recording() {
            self.end_at(Instant::now());
        }
    }
}

impl std::fmt::Debug for TraceSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => write!(
                f,
                "TraceSpan({}, trace={:032x}, span={:016x})",
                unpack_str(&self.name),
                self.ctx.trace_id,
                self.ctx.span_id
            ),
            None => write!(f, "TraceSpan(disabled)"),
        }
    }
}

// ---------------------------------------------------------------------
// Thread-local current context
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT: StdCell<Option<TraceContext>> = const { StdCell::new(None) };
}

/// The trace context the enclosing layer (the HTTP server, around a
/// handler call) installed on this thread, if any. Lower layers parent
/// their spans on it without plumbing a context argument through every
/// signature.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Installs `ctx` as this thread's current context for the lifetime of
/// the returned guard; the previous value is restored on drop (guards
/// nest).
pub fn set_current(ctx: TraceContext) -> CurrentGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    CurrentGuard { prev }
}

/// Restores the previous thread-local context on drop; see
/// [`set_current`].
pub struct CurrentGuard {
    prev: Option<TraceContext>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev.take()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn tracer(config: TraceConfig) -> Tracer {
        let reg = Registry::new();
        reg.set_trace_config(config);
        reg.tracer()
    }

    #[test]
    fn context_round_trips_through_the_header_form() {
        let ctx = TraceContext {
            trace_id: 0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736,
            span_id: 0x00f0_67aa_0ba9_02b7,
            flags: 1,
        };
        let h = ctx.to_header_value();
        assert_eq!(h, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01");
        assert_eq!(TraceContext::parse(&h), Some(ctx));
        assert!(ctx.sampled());
        assert!(!TraceContext { flags: 0, ..ctx }.sampled());
        // Surrounding whitespace tolerated (header values get trimmed).
        assert_eq!(TraceContext::parse(&format!("  {h} ")), Some(ctx));
    }

    #[test]
    fn malformed_contexts_parse_to_none() {
        let good = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
        assert!(TraceContext::parse(good).is_some());
        for bad in [
            "",
            "00",
            &good[..54],                                               // short
            &format!("{good}0"),                                       // long
            "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad version hex
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
            "00-4bf92f3577b34da6a3ce929d0e0eXXXX-00f067aa0ba902b7-01", // non-hex
            "00-+bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // sign
            "00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad sep
            "0-4bf92f3577b34da6a3ce929d0e0e47366-00f067aa0ba902b7-01", // shifted
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn spans_record_on_drop_and_decode_losslessly() {
        let t = tracer(TraceConfig::new());
        let root_ctx;
        {
            let mut root = t.root_span("client.call");
            root.add_tag("op", "get_image");
            root.add_tag_u64("attempt", 2);
            root.add_tag_hex("peer", 0xdead_beef);
            root_ctx = root.context();
            let mut child = t.child_span("marshal.pbio.encode", &root_ctx);
            child.set_error();
            drop(child);
        }
        let events = t.snapshot();
        assert_eq!(events.len(), 2);
        let child = &events[0];
        let root = &events[1];
        assert_eq!(root.name, "client.call");
        assert_eq!(root.trace_id, root_ctx.trace_id);
        assert_eq!(root.span_id, root_ctx.span_id);
        assert_eq!(root.parent_id, 0);
        assert!(!root.error);
        assert_eq!(
            root.tags,
            vec![
                ("op".into(), "get_image".into()),
                ("attempt".into(), "2".into()),
                ("peer".into(), "00000000deadbeef".into()),
            ]
        );
        assert_eq!(child.name, "marshal.pbio.encode");
        assert_eq!(child.trace_id, root_ctx.trace_id);
        assert_eq!(child.parent_id, root_ctx.span_id);
        assert_ne!(child.span_id, root_ctx.span_id);
        assert!(child.error);
    }

    #[test]
    fn long_names_and_tags_truncate_not_corrupt() {
        let t = tracer(TraceConfig::new());
        let long = "x".repeat(100);
        {
            let mut s = t.root_span(&long);
            s.add_tag(&long, &long);
            s.add_tag("k1", "v1");
            s.add_tag("k2", "v2");
            s.add_tag("k3-dropped", "v3"); // 4th tag: over MAX_TAGS
            s.add_tag("ünïcode", "héllo wörld, ünïcodé truncation"); // dropped too
        }
        let e = &t.snapshot()[0];
        assert_eq!(e.name, "x".repeat(NAME_BYTES));
        assert_eq!(e.tags.len(), MAX_TAGS);
        assert_eq!(e.tags[0].0, "x".repeat(TAG_KEY_BYTES));
        assert_eq!(e.tags[0].1, "x".repeat(TAG_VAL_BYTES));
        assert_eq!(e.tags[2], ("k2".into(), "v2".into()));
    }

    #[test]
    fn multibyte_truncation_lands_on_a_char_boundary() {
        let t = tracer(TraceConfig::new());
        // 'é' is 2 bytes; 17 of them = 34 bytes > 32-byte name budget.
        let name = "é".repeat(17);
        drop(t.root_span(&name));
        let e = &t.snapshot()[0];
        assert_eq!(e.name, "é".repeat(16)); // 32 bytes exactly
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = tracer(TraceConfig::new().capacity(16));
        assert_eq!(t.capacity(), 16);
        for i in 0..40 {
            drop(t.root_span(&format!("span.{i:02}")));
        }
        let events = t.snapshot();
        assert_eq!(events.len(), 16);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        let expect: Vec<String> = (24..40).map(|i| format!("span.{i:02}")).collect();
        assert_eq!(names, expect.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        assert_eq!(t.recorded_total(), 40);
    }

    #[test]
    fn concurrent_writers_stay_bounded_and_nonblocking() {
        let t = tracer(TraceConfig::new().capacity(64));
        let threads: Vec<_> = (0..8)
            .map(|w| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let mut s = t.root_span("load.span");
                        s.add_tag_u64("worker", w);
                        s.add_tag_u64("i", i);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.recorded_total(), 1600);
        let events = t.snapshot();
        assert!(events.len() <= 64);
        assert!(!events.is_empty());
        for e in &events {
            assert_eq!(e.name, "load.span");
        }
        // After the melee, sequential writes fully displace old slots.
        for i in 0..64 {
            drop(t.root_span(&format!("final.{i:02}")));
        }
        let events = t.snapshot();
        assert_eq!(events.len(), 64);
        assert!(events.iter().all(|e| e.name.starts_with("final.")));
    }

    #[test]
    fn export_under_write_storm_never_emits_torn_spans() {
        use std::sync::atomic::AtomicBool;
        // Tiny ring so every writer lands on every slot constantly —
        // the worst case for a reader racing the seqlock.
        let t = tracer(TraceConfig::new().capacity(16));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let t = t.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let mut s = t.root_span("storm.span");
                        s.add_tag_u64("worker", w);
                        s.add_tag_u64("i", i);
                        i += 1;
                    }
                })
            })
            .collect();
        // Read only once the storm is on: a spawned thread can take longer
        // to get a CPU than 400 snapshots of an empty ring take.
        while t.inner.as_ref().unwrap().recorder.recorded() < 4 * 16 {
            std::thread::yield_now();
        }
        let mut exported = 0usize;
        for _ in 0..400 {
            for e in t.snapshot() {
                // A torn slot would decode to garbage: wrong name, zero
                // ids, impossible tag count. None may ever escape.
                assert_eq!(e.name, "storm.span");
                assert_ne!(e.trace_id, 0);
                assert_ne!(e.span_id, 0);
                assert_eq!(e.tags.len(), 2);
                assert_eq!(e.tags[0].0, "worker");
                exported += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for th in writers {
            th.join().unwrap();
        }
        assert!(exported > 0, "storm export produced no spans at all");
        // Skips (if any) were accounted, not silently dropped as tears.
        let torn = t.inner.as_ref().unwrap().export_torn.get();
        assert!(torn < 400 * 16, "torn counter runaway: {torn}");
    }

    #[test]
    fn head_sampling_keeps_one_in_n() {
        let t = tracer(TraceConfig::new().sample_one_in(4));
        for _ in 0..40 {
            drop(t.root_span("sampled.maybe"));
        }
        assert_eq!(t.snapshot().len(), 10); // tickets 0,4,8,...,36
        let inner = t.inner.as_ref().unwrap();
        assert_eq!(inner.sampled.get(), 10);
        assert_eq!(inner.dropped.get(), 30);
    }

    #[test]
    fn children_inherit_the_sampling_decision() {
        let t = tracer(TraceConfig::new().sample_one_in(2));
        let kept = t.root_span("root.kept"); // ticket 0: sampled
        let skipped = t.root_span("root.skipped"); // ticket 1: not
        drop(t.child_span("child.kept", &kept.context()));
        drop(t.child_span("child.skipped", &skipped.context()));
        drop(kept);
        drop(skipped);
        let names: Vec<String> = t.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["child.kept", "root.kept"]);
    }

    #[test]
    fn errors_and_forces_promote_unsampled_spans() {
        let t = tracer(TraceConfig::new().sample_one_in(1000));
        drop(t.root_span("burn")); // ticket 0 is always sampled
        {
            let mut plain = t.root_span("unsampled.plain");
            assert!(!plain.is_recording());
            let mut err = t.root_span("unsampled.error");
            err.set_error();
            assert!(err.is_recording());
            let mut forced = t.root_span("unsampled.retry");
            forced.force_record();
            assert!(forced.is_recording());
            plain.add_tag("ignored", "yes");
        }
        let mut names: Vec<String> = t.snapshot().into_iter().map(|e| e.name).collect();
        names.sort();
        assert_eq!(names, vec!["burn", "unsampled.error", "unsampled.retry"]);
    }

    #[test]
    fn disabled_tracer_is_a_complete_noop() {
        let t = Registry::disabled().tracer();
        assert!(!t.is_enabled());
        assert_eq!(t.capacity(), 0);
        {
            let mut s = t.root_span("never");
            assert!(!s.is_recording());
            assert!(!s.is_enabled());
            assert_eq!(s.header_value(), None);
            s.add_tag("k", "v");
            s.set_error();
            s.force_record();
            let c = t.child_span("never.child", &s.context());
            drop(c);
        }
        assert_eq!(t.recorded_total(), 0);
        assert!(t.snapshot().is_empty());
        assert_eq!(
            t.render_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        assert_eq!(t.render_text_dump(), "");
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let t = tracer(TraceConfig::new());
        {
            let mut root = t.root_span("client.call");
            root.add_tag("op", "echo");
            let ctx = root.context();
            let mut child = t.child_span("marshal.xml.encode", &ctx);
            child.set_error();
        }
        let json = t.render_chrome_json();
        crate::expo::validate_json(&json).expect("chrome trace json validates");
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"sbq\""));
        assert!(json.contains("\"name\":\"client.call\""));
        assert!(json.contains("\"error\":true"));
        assert!(json.contains("\"op\":\"echo\""));
        let inner = t.inner.as_ref().unwrap();
        assert_eq!(inner.exported.get(), 2);
    }

    #[test]
    fn text_dump_indents_children_under_parents() {
        let t = tracer(TraceConfig::new());
        {
            let root = t.root_span("server.request");
            let ctx = root.context();
            let handler = t.child_span("server.handler", &ctx);
            drop(t.child_span("marshal.pbio.decode", &handler.context()));
            drop(handler);
        }
        let dump = t.render_text_dump();
        assert!(dump.contains("trace "));
        assert!(dump.contains("  server.request"));
        assert!(dump.contains("    server.handler"));
        assert!(dump.contains("      marshal.pbio.decode"));
    }

    #[test]
    fn current_context_guards_nest_and_restore() {
        assert_eq!(current(), None);
        let a = TraceContext {
            trace_id: 1,
            span_id: 2,
            flags: 1,
        };
        let b = TraceContext {
            trace_id: 3,
            span_id: 4,
            flags: 0,
        };
        {
            let _ga = set_current(a);
            assert_eq!(current(), Some(a));
            {
                let _gb = set_current(b);
                assert_eq!(current(), Some(b));
            }
            assert_eq!(current(), Some(a));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn ids_are_nonzero_and_distinct_across_tracers() {
        let t1 = tracer(TraceConfig::new());
        let t2 = tracer(TraceConfig::new());
        let c1 = t1.root_span("a").context();
        let c2 = t2.root_span("b").context();
        assert_ne!(c1.trace_id, 0);
        assert_ne!(c1.span_id, 0);
        assert_ne!(c1.trace_id, c2.trace_id);
    }
}
