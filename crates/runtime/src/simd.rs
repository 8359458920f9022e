//! Bulk conversion kernels for the marshal hot path.
//!
//! Receiver-makes-right conversion (byte swap, sign-extending widen,
//! `f32`⇄`f64`, narrowing encode) and the XML escape scanner bottom out
//! here. Each conversion kernel has one portable body: a `chunks_exact`
//! pass over `from_ne_bytes`/`swap_bytes` that LLVM vectorizes for the
//! instruction set it compiles for. The body is compiled once per tier:
//!
//! | tier     | conversion kernels                          | `escape_scan`   |
//! |----------|---------------------------------------------|-----------------|
//! | `Scalar` | [`scalar`], the byte-loop reference         | [`scalar`]      |
//! | `Sse2`   | the portable body at the x86-64 baseline    | SSE2 intrinsics |
//! | `Avx2`   | the same body under `target_feature(avx2)`  | AVX2 intrinsics |
//!
//! The tier is chosen **once per process**: [`level`] consults
//! `is_x86_feature_detected!` (and the `SBQ_NO_SIMD` environment override)
//! on first use and latches the answer in an atomic, so the hot path pays
//! one relaxed load, not a CPUID. The parity tests in this module and in
//! `sbq-pbio` hold every instantiation to the [`scalar`] reference, bit for
//! bit, across widths, byte orders, misaligned buffers and vector-boundary
//! lengths; Miri interprets the baseline bodies.
//!
//! Hand-written intrinsics remain only where they measure faster: the
//! escape scan, which exits at the first hit (a search LLVM does not
//! vectorize), and on AVX2 the byte swaps into destinations of at least
//! 4 MiB (`bswap` and the 8-byte swapped `decode_*`), whose non-temporal
//! stores write each cache line once without reading it for ownership.
//!
//! # Safety model
//!
//! All public kernels are safe functions over slices whose lengths are
//! asserted at the boundary. `unsafe` is confined to calling
//! `#[target_feature]` code after the latched detection proved the feature
//! present, the intrinsics' pointer loads and stores inside the chunk they
//! operate on, and one byte view of a typed destination. Destinations are
//! `MaybeUninit` slices so decode can fill freshly reserved `Vec` capacity
//! without a zeroing pass; every kernel writes every element of `dst`
//! before returning (the contract `set_len` callers rely on).

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Tier detection
// ---------------------------------------------------------------------------

/// Kernel tier in ascending capability order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar fallbacks only.
    Scalar = 0,
    /// SSE2 kernels (always available on x86-64 unless disabled).
    Sse2 = 1,
    /// AVX2 kernels.
    Avx2 = 2,
}

impl SimdLevel {
    /// Stable lowercase name for metrics and bench output.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// What the hardware supports, ignoring overrides. On non-x86-64 targets
/// this is always `Scalar`.
// The `return`s are needed: the cfg'd block must diverge so the
// non-x86 tail expression type-checks on both configurations.
#[allow(clippy::needless_return)]
pub fn detected_level() -> SimdLevel {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        // SSE2 is part of the x86-64 baseline.
        return SimdLevel::Sse2;
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    SimdLevel::Scalar
}

/// Pure tier-selection policy: the detected hardware level, demoted to
/// `Scalar` when the `SBQ_NO_SIMD` override is set (any non-empty value
/// other than `0`). Split out from [`level`] so the policy is testable
/// without process-global state.
pub fn select_level(detected: SimdLevel, no_simd_env: Option<&str>) -> SimdLevel {
    match no_simd_env {
        Some(v) if !v.is_empty() && v != "0" => SimdLevel::Scalar,
        _ => detected,
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_from_u8(v: u8) -> SimdLevel {
    match v {
        1 => SimdLevel::Sse2,
        2 => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    }
}

/// The active kernel tier, decided once per process and latched: runtime
/// feature detection (`is_x86_feature_detected!`) demoted by the
/// `SBQ_NO_SIMD` environment override. Hot paths pay one relaxed atomic
/// load per call.
pub fn level() -> SimdLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != LEVEL_UNSET {
        return level_from_u8(v);
    }
    let env = std::env::var("SBQ_NO_SIMD").ok();
    let l = select_level(detected_level(), env.as_deref());
    // A racing initializer computes the same value; either store wins.
    LEVEL.store(l as u8, Ordering::Relaxed);
    l
}

/// Byte-swap destinations at or above this many bytes use non-temporal
/// stores on AVX2 (past LLC-resident sizes, write-allocate traffic costs
/// more than it saves).
#[cfg(target_arch = "x86_64")]
const NT_THRESHOLD: usize = 4 << 20;

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Portable reference implementations. Public so benchmarks and parity
/// tests can pin the dispatched kernels against exact scalar semantics.
pub mod scalar {
    use super::MaybeUninit;

    /// Byte-swaps `width`-byte elements from `src` into `dst`.
    /// `src.len() == dst.len()` and both are multiples of `width`.
    pub fn bswap(width: usize, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
        assert_eq!(src.len(), dst.len());
        assert!(src.len().is_multiple_of(width));
        for (s, d) in src.chunks_exact(width).zip(dst.chunks_exact_mut(width)) {
            for i in 0..width {
                d[i].write(s[width - 1 - i]);
            }
        }
    }

    /// Decodes `width`-byte integers (sign-extending) into `i64`s.
    /// `swap` means the wire order is the reverse of host order.
    pub fn decode_i64(src: &[u8], width: usize, swap: bool, dst: &mut [MaybeUninit<i64>]) {
        assert_eq!(src.len(), dst.len() * width);
        let shift = (8 - width) * 8;
        for (s, d) in src.chunks_exact(width).zip(dst.iter_mut()) {
            let mut tmp = [0u8; 8];
            tmp[..width].copy_from_slice(s);
            let mut raw = i64::from_ne_bytes(tmp);
            if swap {
                // Wire bytes reversed: swap the full 8, then shift the
                // element down from the top.
                raw = i64::from_ne_bytes(tmp).swap_bytes() >> (shift.min(56));
                if shift >= 8 {
                    // swap_bytes moved the element to the high bytes;
                    // arithmetic shift already sign-extended it.
                    d.write(raw);
                    continue;
                }
            }
            d.write((raw << shift) >> shift);
        }
    }

    /// Decodes `width`-byte floats (4 or 8) into `f64`s.
    pub fn decode_f64(src: &[u8], width: usize, swap: bool, dst: &mut [MaybeUninit<f64>]) {
        assert_eq!(src.len(), dst.len() * width);
        match width {
            8 => {
                for (s, d) in src.chunks_exact(8).zip(dst.iter_mut()) {
                    let raw = u64::from_ne_bytes(s.try_into().expect("chunks_exact"));
                    let raw = if swap { raw.swap_bytes() } else { raw };
                    d.write(f64::from_bits(raw));
                }
            }
            4 => {
                for (s, d) in src.chunks_exact(4).zip(dst.iter_mut()) {
                    let raw = u32::from_ne_bytes(s.try_into().expect("chunks_exact"));
                    let raw = if swap { raw.swap_bytes() } else { raw };
                    d.write(f32::from_bits(raw) as f64);
                }
            }
            _ => unreachable!("float widths are 4 or 8"),
        }
    }

    /// Encodes `i64`s as `width`-byte wire integers (truncating to the
    /// low `width` bytes, reversed when `swap`).
    pub fn encode_i64(src: &[i64], width: usize, swap: bool, dst: &mut [MaybeUninit<u8>]) {
        assert_eq!(dst.len(), src.len() * width);
        for (x, d) in src.iter().zip(dst.chunks_exact_mut(width)) {
            let le = x.to_ne_bytes();
            if swap {
                for i in 0..width {
                    d[i].write(le[width - 1 - i]);
                }
            } else {
                for i in 0..width {
                    d[i].write(le[i]);
                }
            }
        }
    }

    /// Encodes `f64`s as `width`-byte wire floats (4 narrows through
    /// `f32`, like the per-element path always has).
    pub fn encode_f64(src: &[f64], width: usize, swap: bool, dst: &mut [MaybeUninit<u8>]) {
        assert_eq!(dst.len(), src.len() * width);
        match width {
            8 => {
                for (x, d) in src.iter().zip(dst.chunks_exact_mut(8)) {
                    let raw = if swap {
                        x.to_bits().swap_bytes()
                    } else {
                        x.to_bits()
                    };
                    for (i, b) in raw.to_ne_bytes().iter().enumerate() {
                        d[i].write(*b);
                    }
                }
            }
            4 => {
                for (x, d) in src.iter().zip(dst.chunks_exact_mut(4)) {
                    let raw = (*x as f32).to_bits();
                    let raw = if swap { raw.swap_bytes() } else { raw };
                    for (i, b) in raw.to_ne_bytes().iter().enumerate() {
                        d[i].write(*b);
                    }
                }
            }
            _ => unreachable!("float widths are 4 or 8"),
        }
    }

    /// Index of the first byte needing XML escaping (`&`, `<`, `>`, plus
    /// `"` and `'` in attribute context), or `len` if the span is clean.
    pub fn escape_scan(bytes: &[u8], attr: bool) -> usize {
        bytes
            .iter()
            .position(|&b| matches!(b, b'&' | b'<' | b'>') || (attr && matches!(b, b'"' | b'\'')))
            .unwrap_or(bytes.len())
    }
}

/// The one implementation of each conversion kernel, `#[inline(always)]`
/// so each caller compiles its own copy for its target features: the
/// public entry points at the baseline (the `Sse2` tier on x86-64) and
/// [`avx2`] under AVX2. Callers have asserted the slice lengths.
mod body {
    use super::MaybeUninit;

    /// `f` of each `W`-byte chunk of `src` into the matching `dst` element.
    #[inline(always)]
    fn from_chunks<const W: usize, T>(
        src: &[u8],
        dst: &mut [MaybeUninit<T>],
        f: impl Fn([u8; W]) -> T,
    ) {
        for (&c, d) in src.as_chunks().0.iter().zip(dst) {
            d.write(f(c));
        }
    }

    /// `f` of each `src` element into the matching `W`-byte chunk of `dst`.
    #[inline(always)]
    fn to_chunks<S: Copy, const W: usize>(
        src: &[S],
        dst: &mut [MaybeUninit<u8>],
        f: impl Fn(S) -> [u8; W],
    ) {
        for (&s, d) in src.iter().zip(dst.chunks_exact_mut(W)) {
            d.write_copy_of_slice(&f(s));
        }
    }

    #[inline(always)]
    pub fn bswap(width: usize, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
        match width {
            2 => to_chunks(src.as_chunks().0, dst, |b| {
                u16::from_ne_bytes(b).swap_bytes().to_ne_bytes()
            }),
            4 => to_chunks(src.as_chunks().0, dst, |b| {
                u32::from_ne_bytes(b).swap_bytes().to_ne_bytes()
            }),
            8 => to_chunks(src.as_chunks().0, dst, |b| {
                u64::from_ne_bytes(b).swap_bytes().to_ne_bytes()
            }),
            _ => unreachable!("bswap widths are 2, 4, 8"),
        }
    }

    #[inline(always)]
    pub fn decode_i64(src: &[u8], width: usize, swap: bool, dst: &mut [MaybeUninit<i64>]) {
        match (width, swap) {
            (1, _) => from_chunks(src, dst, |[b]| b as i8 as i64),
            (2, false) => from_chunks(src, dst, |b| i16::from_ne_bytes(b) as i64),
            (2, true) => from_chunks(src, dst, |b| i16::from_ne_bytes(b).swap_bytes() as i64),
            (4, false) => from_chunks(src, dst, |b| i32::from_ne_bytes(b) as i64),
            (4, true) => from_chunks(src, dst, |b| i32::from_ne_bytes(b).swap_bytes() as i64),
            (8, false) => from_chunks(src, dst, i64::from_ne_bytes),
            (8, true) => from_chunks(src, dst, |b| i64::from_ne_bytes(b).swap_bytes()),
            _ => unreachable!("int widths are 1, 2, 4, 8"),
        }
    }

    #[inline(always)]
    pub fn decode_f64(src: &[u8], width: usize, swap: bool, dst: &mut [MaybeUninit<f64>]) {
        match (width, swap) {
            (4, false) => from_chunks(src, dst, |b| f32::from_ne_bytes(b) as f64),
            (4, true) => from_chunks(src, dst, |b| {
                f32::from_bits(u32::from_ne_bytes(b).swap_bytes()) as f64
            }),
            (8, false) => from_chunks(src, dst, f64::from_ne_bytes),
            (8, true) => from_chunks(src, dst, |b| {
                f64::from_bits(u64::from_ne_bytes(b).swap_bytes())
            }),
            _ => unreachable!("float widths are 4 or 8"),
        }
    }

    #[inline(always)]
    pub fn encode_i64(src: &[i64], width: usize, swap: bool, dst: &mut [MaybeUninit<u8>]) {
        match (width, swap) {
            (1, _) => to_chunks(src, dst, |x| [x as u8]),
            (2, false) => to_chunks(src, dst, |x| (x as i16).to_ne_bytes()),
            (2, true) => to_chunks(src, dst, |x| (x as i16).swap_bytes().to_ne_bytes()),
            (4, false) => to_chunks(src, dst, |x| (x as i32).to_ne_bytes()),
            (4, true) => to_chunks(src, dst, |x| (x as i32).swap_bytes().to_ne_bytes()),
            (8, false) => to_chunks(src, dst, i64::to_ne_bytes),
            (8, true) => to_chunks(src, dst, |x| x.swap_bytes().to_ne_bytes()),
            _ => unreachable!("int widths are 1, 2, 4, 8"),
        }
    }

    #[inline(always)]
    pub fn encode_f64(src: &[f64], width: usize, swap: bool, dst: &mut [MaybeUninit<u8>]) {
        match (width, swap) {
            (4, false) => to_chunks(src, dst, |x| (x as f32).to_ne_bytes()),
            (4, true) => to_chunks(src, dst, |x| {
                (x as f32).to_bits().swap_bytes().to_ne_bytes()
            }),
            (8, false) => to_chunks(src, dst, f64::to_ne_bytes),
            (8, true) => to_chunks(src, dst, |x| x.to_bits().swap_bytes().to_ne_bytes()),
            _ => unreachable!("float widths are 4 or 8"),
        }
    }
}

/// The portable bodies compiled for AVX2. Callers must have detected AVX2
/// (the latched [`level`]). Byte swaps into destinations of at least
/// [`NT_THRESHOLD`] bytes take the streaming loop instead.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{body, uninit_bytes, x86::bswap_stream, MaybeUninit, NT_THRESHOLD};

    #[target_feature(enable = "avx2")]
    pub fn bswap(width: usize, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
        if src.len() >= NT_THRESHOLD {
            return bswap_stream(width, src, dst);
        }
        body::bswap(width, src, dst)
    }

    #[target_feature(enable = "avx2")]
    pub fn decode_i64(src: &[u8], width: usize, swap: bool, dst: &mut [MaybeUninit<i64>]) {
        if width == 8 && swap && src.len() >= NT_THRESHOLD {
            return bswap_stream(8, src, uninit_bytes(dst));
        }
        body::decode_i64(src, width, swap, dst)
    }

    #[target_feature(enable = "avx2")]
    pub fn decode_f64(src: &[u8], width: usize, swap: bool, dst: &mut [MaybeUninit<f64>]) {
        if width == 8 && swap && src.len() >= NT_THRESHOLD {
            return bswap_stream(8, src, uninit_bytes(dst));
        }
        body::decode_f64(src, width, swap, dst)
    }

    #[target_feature(enable = "avx2")]
    pub fn encode_i64(src: &[i64], width: usize, swap: bool, dst: &mut [MaybeUninit<u8>]) {
        body::encode_i64(src, width, swap, dst)
    }

    #[target_feature(enable = "avx2")]
    pub fn encode_f64(src: &[f64], width: usize, swap: bool, dst: &mut [MaybeUninit<u8>]) {
        body::encode_f64(src, width, swap, dst)
    }
}

/// `dst` as raw bytes, for the streaming swap. Sound for any `T`:
/// `MaybeUninit<u8>` has no validity requirement; both cover one range.
#[cfg(target_arch = "x86_64")]
fn uninit_bytes<T>(dst: &mut [MaybeUninit<T>]) -> &mut [MaybeUninit<u8>] {
    let len = std::mem::size_of_val(dst);
    // SAFETY: same allocation and byte length; u8 has alignment 1.
    unsafe { std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast(), len) }
}

/// The hand-written intrinsics: the streaming swap and the escape scans.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::MaybeUninit;
    use std::arch::x86_64::*;

    /// AVX2 byte swap with non-temporal stores, 32 bytes per `vpshufb`.
    /// The portable body swaps the head up to a 32-byte aligned `dst` and
    /// the tail of under 32 bytes; when `dst` cannot reach that alignment
    /// on an element boundary, it swaps everything.
    #[target_feature(enable = "avx2")]
    pub fn bswap_stream(width: usize, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
        assert_eq!(src.len(), dst.len());
        assert!(src.len().is_multiple_of(width));
        let head = dst.as_ptr().align_offset(32);
        if head >= src.len() || !head.is_multiple_of(width) {
            return super::body::bswap(width, src, dst);
        }
        // `vpshufb` indexes within each 16-byte lane, and reversing a
        // power-of-two-wide element flips the low bits of the index.
        let mask: [u8; 32] = std::array::from_fn(|i| ((i % 16) ^ (width - 1)) as u8);
        // SAFETY: `mask` is 32 readable bytes.
        let mask = unsafe { _mm256_loadu_si256(mask.as_ptr().cast()) };
        let (src_head, src) = src.split_at(head);
        let (dst_head, dst) = dst.split_at_mut(head);
        super::body::bswap(width, src_head, dst_head);
        let blocks = src.len() / 32 * 32;
        for (s, d) in src[..blocks].chunks_exact(32).zip(dst.chunks_exact_mut(32)) {
            // SAFETY: each chunk is 32 bytes, and `d` is 32-byte aligned
            // because `dst` starts aligned and every chunk is 32 bytes.
            unsafe {
                let v = _mm256_loadu_si256(s.as_ptr().cast());
                _mm256_stream_si256(d.as_mut_ptr().cast(), _mm256_shuffle_epi8(v, mask));
            }
        }
        // Make the streamed bytes globally visible before the caller
        // reads them back.
        _mm_sfence();
        super::body::bswap(width, &src[blocks..], &mut dst[blocks..]);
    }

    /// AVX2 escape scan: 32 bytes per `vpcmpeqb`+`vpmovmskb` round.
    ///
    /// # Safety
    /// Caller must have verified AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn escape_scan_avx2(bytes: &[u8], attr: bool) -> usize {
        let n = bytes.len();
        let p = bytes.as_ptr();
        let amp = _mm256_set1_epi8(b'&' as i8);
        let lt = _mm256_set1_epi8(b'<' as i8);
        let gt = _mm256_set1_epi8(b'>' as i8);
        let quot = _mm256_set1_epi8(b'"' as i8);
        let apos = _mm256_set1_epi8(b'\'' as i8);
        let mut i = 0usize;
        while i + 32 <= n {
            // SAFETY: i+32 <= n bounds the load.
            let m = unsafe {
                let v = _mm256_loadu_si256(p.add(i).cast());
                let mut hit = _mm256_or_si256(
                    _mm256_cmpeq_epi8(v, amp),
                    _mm256_or_si256(_mm256_cmpeq_epi8(v, lt), _mm256_cmpeq_epi8(v, gt)),
                );
                if attr {
                    hit = _mm256_or_si256(
                        hit,
                        _mm256_or_si256(_mm256_cmpeq_epi8(v, quot), _mm256_cmpeq_epi8(v, apos)),
                    );
                }
                _mm256_movemask_epi8(hit) as u32
            };
            if m != 0 {
                return i + m.trailing_zeros() as usize;
            }
            i += 32;
        }
        i + super::scalar::escape_scan(&bytes[i..], attr)
    }

    /// SSE2 escape scan, 16 bytes per round.
    ///
    /// # Safety
    /// SSE2 is part of the x86-64 baseline.
    #[target_feature(enable = "sse2")]
    pub unsafe fn escape_scan_sse2(bytes: &[u8], attr: bool) -> usize {
        let n = bytes.len();
        let p = bytes.as_ptr();
        let amp = _mm_set1_epi8(b'&' as i8);
        let lt = _mm_set1_epi8(b'<' as i8);
        let gt = _mm_set1_epi8(b'>' as i8);
        let quot = _mm_set1_epi8(b'"' as i8);
        let apos = _mm_set1_epi8(b'\'' as i8);
        let mut i = 0usize;
        while i + 16 <= n {
            // SAFETY: i+16 <= n bounds the load.
            let m = unsafe {
                let v = _mm_loadu_si128(p.add(i).cast());
                let mut hit = _mm_or_si128(
                    _mm_cmpeq_epi8(v, amp),
                    _mm_or_si128(_mm_cmpeq_epi8(v, lt), _mm_cmpeq_epi8(v, gt)),
                );
                if attr {
                    hit = _mm_or_si128(
                        hit,
                        _mm_or_si128(_mm_cmpeq_epi8(v, quot), _mm_cmpeq_epi8(v, apos)),
                    );
                }
                _mm_movemask_epi8(hit) as u32
            };
            if m != 0 {
                return i + m.trailing_zeros() as usize;
            }
            i += 16;
        }
        i + super::scalar::escape_scan(&bytes[i..], attr)
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

/// Runs `kernel` at the latched tier: the [`scalar`] reference, the AVX2
/// instantiation, or the portable body at the baseline.
macro_rules! dispatch {
    ($kernel:ident($($arg:expr),*)) => {
        match level() {
            SimdLevel::Scalar => scalar::$kernel($($arg),*),
            // SAFETY: the latched level is `Avx2` only where AVX2 was detected.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { avx2::$kernel($($arg),*) },
            _ => body::$kernel($($arg),*),
        }
    };
}

/// Byte-swaps `width`-byte (2/4/8) elements from `src` into `dst`
/// (`src.len() == dst.len()`, a multiple of `width`).
pub fn bswap(width: usize, src: &[u8], dst: &mut [MaybeUninit<u8>]) {
    assert_eq!(src.len(), dst.len());
    assert!(src.len().is_multiple_of(width));
    dispatch!(bswap(width, src, dst))
}

/// Decodes `width`-byte (1/2/4/8) sign-extended wire integers into `dst`.
pub fn decode_i64(src: &[u8], width: usize, swap: bool, dst: &mut [MaybeUninit<i64>]) {
    assert_eq!(src.len(), dst.len() * width);
    dispatch!(decode_i64(src, width, swap, dst))
}

/// Decodes `width`-byte (4/8) wire floats into `dst`.
pub fn decode_f64(src: &[u8], width: usize, swap: bool, dst: &mut [MaybeUninit<f64>]) {
    assert_eq!(src.len(), dst.len() * width);
    dispatch!(decode_f64(src, width, swap, dst))
}

/// Encodes `i64`s as `width`-byte (1/2/4/8) wire integers into `dst`.
pub fn encode_i64(src: &[i64], width: usize, swap: bool, dst: &mut [MaybeUninit<u8>]) {
    assert_eq!(dst.len(), src.len() * width);
    dispatch!(encode_i64(src, width, swap, dst))
}

/// Encodes `f64`s as `width`-byte (4/8) wire floats into `dst`.
pub fn encode_f64(src: &[f64], width: usize, swap: bool, dst: &mut [MaybeUninit<u8>]) {
    assert_eq!(dst.len(), src.len() * width);
    dispatch!(encode_f64(src, width, swap, dst))
}

/// Index of the first byte needing XML escaping (`&`, `<`, `>`, plus `"`
/// and `'` when `attr`), or `bytes.len()` for a clean span.
pub fn escape_scan(bytes: &[u8], attr: bool) -> usize {
    #[cfg(target_arch = "x86_64")]
    match level() {
        // SAFETY: the latched level proved the feature is available.
        SimdLevel::Avx2 => return unsafe { x86::escape_scan_avx2(bytes, attr) },
        SimdLevel::Sse2 => return unsafe { x86::escape_scan_sse2(bytes, attr) },
        SimdLevel::Scalar => {}
    }
    scalar::escape_scan(bytes, attr)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmallRng;

    /// Lengths chosen to straddle every vector width boundary (0, 1,
    /// 15/16/17 around SSE, 4095/4097 around page-ish bulk sizes).
    const LENS: &[usize] = &[
        0, 1, 2, 3, 4, 7, 8, 15, 16, 17, 31, 32, 33, 255, 4095, 4096, 4097,
    ];

    fn filled<T: Copy>(n: usize, f: impl FnMut(usize) -> T) -> Vec<T> {
        (0..n).map(f).collect()
    }

    /// Runs a kernel into fresh uninit capacity and returns the result.
    fn run_i64(
        src: &[u8],
        width: usize,
        swap: bool,
        k: impl Fn(&[u8], usize, bool, &mut [MaybeUninit<i64>]),
    ) -> Vec<i64> {
        let n = src.len() / width;
        let mut v: Vec<i64> = Vec::with_capacity(n);
        k(src, width, swap, &mut v.spare_capacity_mut()[..n]);
        // SAFETY: the kernel contract fills every element.
        unsafe { v.set_len(n) };
        v
    }

    fn run_f64(
        src: &[u8],
        width: usize,
        swap: bool,
        k: impl Fn(&[u8], usize, bool, &mut [MaybeUninit<f64>]),
    ) -> Vec<f64> {
        let n = src.len() / width;
        let mut v: Vec<f64> = Vec::with_capacity(n);
        k(src, width, swap, &mut v.spare_capacity_mut()[..n]);
        // SAFETY: the kernel contract fills every element.
        unsafe { v.set_len(n) };
        v
    }

    fn run_bytes<T>(
        src: &[T],
        width: usize,
        swap: bool,
        k: impl Fn(&[T], usize, bool, &mut [MaybeUninit<u8>]),
    ) -> Vec<u8> {
        let n = src.len() * width;
        let mut v: Vec<u8> = Vec::with_capacity(n);
        k(src, width, swap, &mut v.spare_capacity_mut()[..n]);
        // SAFETY: the kernel contract fills every element.
        unsafe { v.set_len(n) };
        v
    }

    #[test]
    fn level_latches_and_names_are_stable() {
        let l = level();
        assert_eq!(level(), l, "latched");
        assert!(["scalar", "sse2", "avx2"].contains(&l.name()));
        assert!(detected_level() >= SimdLevel::Scalar);
    }

    #[test]
    fn no_simd_override_selects_scalar() {
        assert_eq!(select_level(SimdLevel::Avx2, None), SimdLevel::Avx2);
        assert_eq!(select_level(SimdLevel::Avx2, Some("")), SimdLevel::Avx2);
        assert_eq!(select_level(SimdLevel::Avx2, Some("0")), SimdLevel::Avx2);
        assert_eq!(select_level(SimdLevel::Avx2, Some("1")), SimdLevel::Scalar);
        assert_eq!(
            select_level(SimdLevel::Sse2, Some("yes")),
            SimdLevel::Scalar
        );
    }

    #[test]
    fn bswap_parity_across_widths_lengths_and_misalignment() {
        let mut rng = SmallRng::seed_from_u64(0x51_0d_ba_11);
        for &width in &[2usize, 4, 8] {
            for &len in LENS {
                let n = len * width;
                // Misaligned view into a larger buffer: offsets 0..=31.
                for off in [0usize, 1, 3, 8, 17, 31] {
                    let backing = filled(n + off, |_| rng.gen_below(256) as u8);
                    let src = &backing[off..];
                    let simd = run_bytes(src, 1, false, |s, _, _, d| bswap(width, s, d));
                    let reference =
                        run_bytes(src, 1, false, |s, _, _, d| scalar::bswap(width, s, d));
                    assert_eq!(simd, reference, "width={width} len={len} off={off}");
                }
            }
        }
    }

    #[test]
    fn decode_i64_parity_and_sign_extension() {
        let mut rng = SmallRng::seed_from_u64(0xdec0de);
        for &width in &[1usize, 2, 4, 8] {
            for swap in [false, true] {
                for &len in LENS {
                    let src: Vec<u8> = filled(len * width, |_| rng.gen_below(256) as u8);
                    let simd = run_i64(&src, width, swap, decode_i64);
                    let reference = run_i64(&src, width, swap, scalar::decode_i64);
                    assert_eq!(simd, reference, "width={width} swap={swap} len={len}");
                }
            }
        }
        // Sign extension pins the semantics, not just self-consistency.
        let neg = run_i64(&[0xFF, 0xFE], 2, false, decode_i64);
        assert_eq!(neg, vec![i16::from_le_bytes([0xFF, 0xFE]) as i64]);
        let neg = run_i64(&[0xFF, 0xFE], 2, true, decode_i64);
        assert_eq!(neg, vec![i16::from_be_bytes([0xFF, 0xFE]) as i64]);
    }

    #[test]
    fn decode_f64_parity_bitwise() {
        let mut rng = SmallRng::seed_from_u64(0xf10a7);
        for &width in &[4usize, 8] {
            for swap in [false, true] {
                for &len in LENS {
                    let src: Vec<u8> = filled(len * width, |_| rng.gen_below(256) as u8);
                    let simd = run_f64(&src, width, swap, decode_f64);
                    let reference = run_f64(&src, width, swap, scalar::decode_f64);
                    // Bit-exact, including NaN payloads from random bytes.
                    let a: Vec<u64> = simd.iter().map(|x| x.to_bits()).collect();
                    let b: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(a, b, "width={width} swap={swap} len={len}");
                }
            }
        }
    }

    #[test]
    fn encode_parity_and_round_trip() {
        let mut rng = SmallRng::seed_from_u64(0xe2c0de);
        for &width in &[1usize, 2, 4, 8] {
            for swap in [false, true] {
                for &len in LENS {
                    let vals: Vec<i64> = filled(len, |_| rng.next_u64() as i64);
                    let simd = run_bytes(&vals, width, swap, encode_i64);
                    let reference = run_bytes(&vals, width, swap, scalar::encode_i64);
                    assert_eq!(simd, reference, "int width={width} swap={swap} len={len}");
                }
            }
        }
        for &width in &[4usize, 8] {
            for swap in [false, true] {
                for &len in LENS {
                    let vals: Vec<f64> =
                        filled(len, |i| (rng.gen_f64() - 0.5) * (i as f64 + 1.0) * 1e3);
                    let simd = run_bytes(&vals, width, swap, encode_f64);
                    let reference = run_bytes(&vals, width, swap, scalar::encode_f64);
                    assert_eq!(simd, reference, "float width={width} swap={swap} len={len}");
                    // Decode inverts encode (within the width's precision).
                    let back = run_f64(&simd, width, swap, decode_f64);
                    let expect: Vec<f64> = if width == 8 {
                        vals.clone()
                    } else {
                        vals.iter().map(|x| *x as f32 as f64).collect()
                    };
                    assert_eq!(back, expect, "round trip width={width} swap={swap}");
                }
            }
        }
    }

    #[test]
    fn escape_scan_parity_and_positions() {
        let mut rng = SmallRng::seed_from_u64(0xe5ca9e);
        for attr in [false, true] {
            for &len in LENS {
                // Mostly-clean text with occasional specials.
                let bytes: Vec<u8> = filled(len, |_| {
                    if rng.gen_below(13) == 0 {
                        [b'&', b'<', b'>', b'"', b'\''][rng.gen_below(5) as usize]
                    } else {
                        b'a' + (rng.gen_below(26) as u8)
                    }
                });
                assert_eq!(
                    escape_scan(&bytes, attr),
                    scalar::escape_scan(&bytes, attr),
                    "attr={attr} len={len}"
                );
            }
        }
        assert_eq!(escape_scan(b"plain text with no markup", false), 25);
        assert_eq!(escape_scan(b"abc&def", false), 3);
        assert_eq!(escape_scan(b"abc\"def", false), 7, "quote clean in text");
        assert_eq!(escape_scan(b"abc\"def", true), 3, "quote dirty in attr");
        // A hit in the scalar tail after clean vector blocks.
        let mut long = vec![b'x'; 100];
        long.push(b'<');
        assert_eq!(escape_scan(&long, false), 100);
    }

    /// One instantiation of the conversion kernels.
    struct Tier {
        name: &'static str,
        bswap: fn(usize, &[u8], &mut [MaybeUninit<u8>]),
        decode_i64: fn(&[u8], usize, bool, &mut [MaybeUninit<i64>]),
        decode_f64: fn(&[u8], usize, bool, &mut [MaybeUninit<f64>]),
        encode_i64: fn(&[i64], usize, bool, &mut [MaybeUninit<u8>]),
        encode_f64: fn(&[f64], usize, bool, &mut [MaybeUninit<u8>]),
    }

    /// The portable bodies as the `Sse2` tier runs them.
    const BASELINE: Tier = Tier {
        name: "baseline",
        bswap: body::bswap,
        decode_i64: body::decode_i64,
        decode_f64: body::decode_f64,
        encode_i64: body::encode_i64,
        encode_f64: body::encode_f64,
    };

    // SAFETY: used only after `is_x86_feature_detected!("avx2")`.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    const AVX2: Tier = Tier {
        name: "avx2",
        bswap: |w, s, d| unsafe { avx2::bswap(w, s, d) },
        decode_i64: |s, w, x, d| unsafe { avx2::decode_i64(s, w, x, d) },
        decode_f64: |s, w, x, d| unsafe { avx2::decode_f64(s, w, x, d) },
        encode_i64: |s, w, x, d| unsafe { avx2::encode_i64(s, w, x, d) },
        encode_f64: |s, w, x, d| unsafe { avx2::encode_f64(s, w, x, d) },
    };

    /// Runs `k` into `n` uninitialized bytes that start `off` bytes into
    /// a fresh buffer, and returns those bytes.
    fn at_offset(off: usize, n: usize, k: impl FnOnce(&mut [MaybeUninit<u8>])) -> Vec<u8> {
        let mut v = vec![0u8; off];
        v.reserve(n);
        k(&mut v.spare_capacity_mut()[..n]);
        // SAFETY: the kernel contract fills every element.
        unsafe { v.set_len(off + n) };
        v.split_off(off)
    }

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every kernel of `t` against `scalar`: each width, both swap
    /// settings, buffers misaligned by 0..32 bytes (the byte side of each
    /// kernel), and lengths around the vector and page widths.
    fn check_tier(t: &Tier) {
        const MAX: usize = 4097;
        let mut rng = SmallRng::seed_from_u64(0x7157);
        let bytes: Vec<u8> = filled(MAX * 8 + 32, |_| rng.gen_below(256) as u8);
        let ints: Vec<i64> = filled(MAX, |_| rng.next_u64() as i64);
        let floats: Vec<f64> = filled(MAX, |i| (rng.gen_f64() - 0.5) * (i as f64 + 1.0) * 1e3);
        for off in 0..32 {
            for len in [0, 1, 15, 16, 17, 4095, MAX] {
                for width in [1usize, 2, 4, 8] {
                    let n = len * width;
                    let src = &bytes[off..off + n];
                    let case = format!("{} width={width} len={len} off={off}", t.name);
                    if width > 1 {
                        let got = at_offset(off, n, |d| (t.bswap)(width, src, d));
                        let want = at_offset(0, n, |d| scalar::bswap(width, src, d));
                        assert_eq!(got, want, "bswap {case}");
                    }
                    for swap in [false, true] {
                        let case = format!("{case} swap={swap}");
                        let got = run_i64(src, width, swap, t.decode_i64);
                        let want = run_i64(src, width, swap, scalar::decode_i64);
                        assert_eq!(got, want, "decode_i64 {case}");
                        let ints = &ints[..len];
                        let got = at_offset(off, n, |d| (t.encode_i64)(ints, width, swap, d));
                        let want = at_offset(0, n, |d| scalar::encode_i64(ints, width, swap, d));
                        assert_eq!(got, want, "encode_i64 {case}");
                        if width < 4 {
                            continue;
                        }
                        let got = bits(run_f64(src, width, swap, t.decode_f64));
                        let want = bits(run_f64(src, width, swap, scalar::decode_f64));
                        assert_eq!(got, want, "decode_f64 {case}");
                        let floats = &floats[..len];
                        let got = at_offset(off, n, |d| (t.encode_f64)(floats, width, swap, d));
                        let want = at_offset(0, n, |d| scalar::encode_f64(floats, width, swap, d));
                        assert_eq!(got, want, "encode_f64 {case}");
                    }
                }
            }
        }
    }

    /// Both instantiations of every conversion kernel match `scalar`. The
    /// baseline half runs everywhere, Miri included; the AVX2 half, with
    /// the streaming swap called directly on every destination alignment
    /// and through the AVX2 entry points at `NT_THRESHOLD`, runs where the
    /// CPU has AVX2.
    #[test]
    fn every_kernel_instantiation_matches_scalar() {
        check_tier(&BASELINE);
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("avx2") {
            check_tier(&AVX2);
            let mut rng = SmallRng::seed_from_u64(0x5713);
            let bytes: Vec<u8> = filled(NT_THRESHOLD + 32, |_| rng.gen_below(256) as u8);
            for width in [2usize, 4, 8] {
                for off in 0..32 {
                    // A head, 32-byte blocks and a tail on most offsets.
                    let n = (100 + off) * width;
                    let src = &bytes[off..off + n];
                    // SAFETY: AVX2 detected above.
                    let got = at_offset(off, n, |d| unsafe { x86::bswap_stream(width, src, d) });
                    let want = at_offset(0, n, |d| scalar::bswap(width, src, d));
                    assert_eq!(got, want, "bswap_stream width={width} off={off}");
                }
            }
            let src = &bytes[1..NT_THRESHOLD + 1];
            let got = at_offset(8, src.len(), |d| (AVX2.bswap)(8, src, d));
            let want = at_offset(0, src.len(), |d| scalar::bswap(8, src, d));
            assert_eq!(got, want, "streamed bytes");
            let got = run_i64(src, 8, true, AVX2.decode_i64);
            let want = run_i64(src, 8, true, scalar::decode_i64);
            assert_eq!(got, want, "streamed i64");
            let got = bits(run_f64(src, 8, true, AVX2.decode_f64));
            let want = bits(run_f64(src, 8, true, scalar::decode_f64));
            assert_eq!(got, want, "streamed f64");
        }
    }
}
