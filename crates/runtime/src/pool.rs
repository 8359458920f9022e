//! Size-classed buffer pool for message bodies.
//!
//! Steady-state RPC traffic allocates the same handful of buffer shapes
//! over and over: a request body, a response body, and the scratch the
//! transport reads them into. [`BufferPool`] keeps those `Vec<u8>`s on a
//! sharded free list so a warmed-up call loop performs zero body
//! allocations — the allocator is only touched while the pool is cold or
//! when a message outgrows every cached class.
//!
//! Design:
//!
//! * **Size classes** are powers of two from 4 KiB to 64 MiB. `get(n)`
//!   rounds the hint *up* to the smallest class, `put` files a buffer
//!   under the largest class its capacity covers, so any buffer handed
//!   out for a class is guaranteed to satisfy requests of that class.
//! * **Shards** spread lock traffic: each thread is pinned to a shard by
//!   a thread-local ticket. `get` tries its own shard first and then
//!   steals from the others, so producer/consumer threads (an HTTP worker
//!   recycling a body the client thread will reuse) still hit.
//! * **Caps** bound held memory per shard per class; `put` beyond the cap
//!   drops the buffer (counted, never blocks).
//! * **Stats + observer**: hit/miss/recycle/drop counters and a
//!   `held_bytes` high-water accounting are kept in atomics; an optional
//!   [`PoolObserver`] mirrors them into an external metrics registry
//!   (`pool.buffers.{hit,miss,held_bytes}` in sbq-telemetry).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::sync::{Arc, OnceLock};

/// Smallest pooled capacity (class 0).
const MIN_CLASS_BYTES: usize = 4 * 1024;
/// Number of power-of-two classes: 4 KiB, 8 KiB, …, 64 MiB.
const NUM_CLASSES: usize = 15;
/// Lock shards; threads are assigned round-robin.
const NUM_SHARDS: usize = 8;
/// Default per-shard, per-class retained-buffer cap.
const DEFAULT_PER_CLASS_CAP: usize = 8;

/// Byte capacity of size class `c`.
fn class_bytes(c: usize) -> usize {
    MIN_CLASS_BYTES << c
}

/// Smallest class whose capacity covers `n`, or `None` if `n` exceeds the
/// largest class.
fn class_for_get(n: usize) -> Option<usize> {
    (0..NUM_CLASSES).find(|&c| class_bytes(c) >= n)
}

/// Largest class fully covered by a capacity of `n`, or `None` if the
/// buffer is too small to pool.
fn class_for_put(n: usize) -> Option<usize> {
    (0..NUM_CLASSES).rev().find(|&c| class_bytes(c) <= n)
}

/// Sink for pool events, used to bridge into a metrics registry.
pub trait PoolObserver: Send + Sync {
    /// `get` satisfied from the free list.
    fn on_hit(&self);
    /// `get` fell through to the allocator.
    fn on_miss(&self);
    /// Bytes retained by the pool changed by `delta`.
    fn on_held_bytes(&self, delta: i64);
}

/// Snapshot of pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// `get` calls served from the free list.
    pub hits: u64,
    /// `get` calls that had to allocate.
    pub misses: u64,
    /// Buffers accepted back by `put`.
    pub recycled: u64,
    /// Buffers `put` dropped because the class was at cap (or unpoolable).
    pub dropped: u64,
    /// Bytes currently retained on free lists.
    pub held_bytes: u64,
    /// High-water mark of `held_bytes`.
    pub peak_held_bytes: u64,
}

#[derive(Default)]
struct Shard {
    classes: [Vec<Vec<u8>>; NUM_CLASSES],
}

struct Inner {
    shards: Vec<Mutex<Shard>>,
    per_class_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
    held_bytes: AtomicU64,
    peak_held_bytes: AtomicU64,
    observer: OnceLock<Arc<dyn PoolObserver>>,
}

/// Sharded free list of size-classed `Vec<u8>` buffers.
///
/// Cloning is cheap (`Arc`); all clones share one pool.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Inner>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufferPool")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("held_bytes", &s.held_bytes)
            .finish()
    }
}

fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
    }
    SHARD.with(|s| *s)
}

impl BufferPool {
    /// Pool with the default per-shard class cap.
    pub fn new() -> BufferPool {
        Self::with_cap(DEFAULT_PER_CLASS_CAP)
    }

    /// Pool retaining at most `per_class_cap` buffers per shard per class.
    pub fn with_cap(per_class_cap: usize) -> BufferPool {
        BufferPool {
            inner: Arc::new(Inner {
                shards: (0..NUM_SHARDS)
                    .map(|_| Mutex::new(Shard::default()))
                    .collect(),
                per_class_cap,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                held_bytes: AtomicU64::new(0),
                peak_held_bytes: AtomicU64::new(0),
                observer: OnceLock::new(),
            }),
        }
    }

    /// The process-wide shared pool, used by default transport configs.
    pub fn global() -> &'static BufferPool {
        static GLOBAL: OnceLock<BufferPool> = OnceLock::new();
        GLOBAL.get_or_init(BufferPool::new)
    }

    /// Attach a metrics observer. First caller wins; later calls are
    /// ignored so a shared (e.g. global) pool reports to one registry.
    pub fn set_observer(&self, obs: Arc<dyn PoolObserver>) {
        let _ = self.inner.observer.set(obs);
    }

    /// An empty buffer with capacity ≥ `min_capacity`, reused from the
    /// free list when possible.
    pub fn get(&self, min_capacity: usize) -> Vec<u8> {
        let Some(class) = class_for_get(min_capacity) else {
            // Larger than the biggest class: always a fresh allocation.
            self.note_miss();
            return Vec::with_capacity(min_capacity);
        };
        let home = thread_shard();
        for i in 0..NUM_SHARDS {
            let shard = &self.inner.shards[(home + i) % NUM_SHARDS];
            if let Some(mut buf) = shard.lock().unwrap().classes[class].pop() {
                self.note_held(-(buf.capacity() as i64));
                self.note_hit();
                buf.clear();
                return buf;
            }
        }
        self.note_miss();
        Vec::with_capacity(class_bytes(class))
    }

    /// Return a buffer to the free list. Contents are discarded; buffers
    /// too small to pool or beyond the class cap are dropped.
    pub fn put(&self, buf: Vec<u8>) {
        let Some(class) = class_for_put(buf.capacity()) else {
            if buf.capacity() > 0 {
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            return;
        };
        let held = buf.capacity() as i64;
        let shard = &self.inner.shards[thread_shard()];
        {
            let mut guard = shard.lock().unwrap();
            let list = &mut guard.classes[class];
            if list.len() >= self.inner.per_class_cap {
                drop(guard);
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            list.push(buf);
        }
        self.inner.recycled.fetch_add(1, Ordering::Relaxed);
        self.note_held(held);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferPoolStats {
        let i = &self.inner;
        BufferPoolStats {
            hits: i.hits.load(Ordering::Relaxed),
            misses: i.misses.load(Ordering::Relaxed),
            recycled: i.recycled.load(Ordering::Relaxed),
            dropped: i.dropped.load(Ordering::Relaxed),
            held_bytes: i.held_bytes.load(Ordering::Relaxed),
            peak_held_bytes: i.peak_held_bytes.load(Ordering::Relaxed),
        }
    }

    fn note_hit(&self) {
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.inner.observer.get() {
            o.on_hit();
        }
    }

    fn note_miss(&self) {
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.inner.observer.get() {
            o.on_miss();
        }
    }

    fn note_held(&self, delta: i64) {
        let held = if delta >= 0 {
            self.inner
                .held_bytes
                .fetch_add(delta as u64, Ordering::Relaxed)
                + delta as u64
        } else {
            self.inner
                .held_bytes
                .fetch_sub((-delta) as u64, Ordering::Relaxed)
                .saturating_sub((-delta) as u64)
        };
        self.inner
            .peak_held_bytes
            .fetch_max(held, Ordering::Relaxed);
        if let Some(o) = self.inner.observer.get() {
            o.on_held_bytes(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_round_trip_hits() {
        let pool = BufferPool::new();
        let buf = pool.get(1000);
        assert!(buf.capacity() >= 1000);
        assert_eq!(pool.stats().misses, 1);
        pool.put(buf);
        assert_eq!(pool.stats().recycled, 1);
        let again = pool.get(1000);
        assert!(again.capacity() >= 1000);
        assert!(again.is_empty(), "reused buffers come back cleared");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn class_rounding_guarantees_capacity() {
        let pool = BufferPool::new();
        // A put buffer with an odd capacity lands in the class it fully
        // covers, so a get for that class size must fit.
        let mut odd = Vec::with_capacity(10_000); // covers the 8 KiB class
        odd.extend_from_slice(b"junk");
        pool.put(odd);
        let got = pool.get(8 * 1024);
        assert!(got.capacity() >= 8 * 1024);
        assert!(got.is_empty());
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn tiny_and_giant_buffers_bypass_the_pool() {
        let pool = BufferPool::new();
        pool.put(Vec::with_capacity(16)); // below the smallest class
        assert_eq!(pool.stats().recycled, 0);
        let giant = pool.get(128 * 1024 * 1024); // above the largest class
        assert!(giant.capacity() >= 128 * 1024 * 1024);
        assert_eq!(pool.stats().misses, 1);
        pool.put(giant); // files under the largest class it covers
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn cap_bounds_held_memory() {
        let pool = BufferPool::with_cap(2);
        for _ in 0..5 {
            pool.put(Vec::with_capacity(MIN_CLASS_BYTES));
        }
        let s = pool.stats();
        assert_eq!(s.recycled, 2);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.held_bytes, 2 * MIN_CLASS_BYTES as u64);
        assert_eq!(s.peak_held_bytes, 2 * MIN_CLASS_BYTES as u64);
    }

    #[test]
    fn cross_thread_recycling_steals_from_other_shards() {
        let pool = BufferPool::new();
        let p2 = pool.clone();
        std::thread::spawn(move || {
            p2.put(Vec::with_capacity(MIN_CLASS_BYTES));
        })
        .join()
        .unwrap();
        // This thread's shard is empty, but get must still find the
        // buffer parked by the other thread.
        let _ = pool.get(100);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn observer_sees_events() {
        use std::sync::atomic::AtomicI64;
        #[derive(Default)]
        struct Obs {
            hits: AtomicU64,
            misses: AtomicU64,
            held: AtomicI64,
        }
        impl PoolObserver for Obs {
            fn on_hit(&self) {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            fn on_miss(&self) {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            fn on_held_bytes(&self, delta: i64) {
                self.held.fetch_add(delta, Ordering::Relaxed);
            }
        }
        let obs = Arc::new(Obs::default());
        let pool = BufferPool::new();
        pool.set_observer(obs.clone());
        let b = pool.get(64);
        pool.put(b);
        let _ = pool.get(64);
        assert_eq!(obs.hits.load(Ordering::Relaxed), 1);
        assert_eq!(obs.misses.load(Ordering::Relaxed), 1);
        assert_eq!(obs.held.load(Ordering::Relaxed), 0, "put then get balances");
    }
}
