//! Zero-dependency runtime primitives.
//!
//! The reproduction must build and test on machines with no crates.io
//! access (the paper-era toolchain assumption, and the offline-first rule
//! in ROADMAP.md), so the few external utility crates the workspace used
//! to pull in are replaced by these std-only equivalents (locks are plain
//! `std::sync`):
//!
//! * [`rand`] — a small, seedable, splittable PRNG (SplitMix64 core) for
//!   deterministic jitter, loss, and fuzz-test generation.
//! * [`pool`] — a sharded, size-classed [`BufferPool`] so steady-state
//!   message traffic reuses body buffers instead of allocating.
//! * [`reactor`] — an epoll-backed readiness loop ([`Reactor`]), hashed
//!   [`DeadlineWheel`] timeouts, and a cross-thread wake pipe: the
//!   event-driven I/O core the HTTP transport multiplexes thousands of
//!   keep-alive connections on.
//! * [`cpu_pool`] — a small fixed [`CpuPool`] for the CPU-bound half of
//!   that split (handler and marshal work dispatched off the event loop).
//! * [`simd`] — bulk marshal kernels (byte swap, widen, `f32`↔`f64`,
//!   narrowing encode): one portable body each, compiled at the baseline
//!   and for AVX2 and picked by one-time latched feature detection, plus
//!   an intrinsic escape scan, with bit-exact scalar references and an
//!   `SBQ_NO_SIMD` override.

pub mod cpu_pool;
pub mod pool;
pub mod rand;
pub mod reactor;
pub mod simd;

pub use cpu_pool::CpuPool;
pub use pool::BufferPool;
pub use rand::SmallRng;
pub use reactor::{raise_nofile_limit, DeadlineWheel, Reactor};
