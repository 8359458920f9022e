//! A small fixed thread pool for CPU-bound work (handler dispatch,
//! marshalling) behind an event-driven I/O loop.
//!
//! The split this enables is the whole point of the reactor
//! architecture: the event loop owns *readiness* (cheap, one thread, ten
//! thousand sockets), the pool owns *computation* (bounded threads, one
//! job at a time each). Jobs are `FnOnce` closures on an unbounded FIFO
//! queue that every worker waits on; submission never blocks the event
//! loop.
//!
//! On top of the fire-and-forget [`CpuPool::spawn`] API sits a blocking
//! fork/join primitive, [`CpuPool::run_parallel`]: the caller hands over
//! an indexed chunk function, chunk ids are dealt round-robin into
//! per-participant deques, idle participants steal from the back of
//! other deques, and the caller itself works the job (so a saturated —
//! or single-threaded — pool degrades to serial execution instead of
//! deadlocking). The marshal path uses it to split multi-megabyte array
//! fields across cores; [`PoolStats`] exposes `steals` and
//! `parallel_jobs` counters for telemetry.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Monotonic counters describing the pool's fork/join activity.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Chunks executed by a participant other than the deque they were
    /// dealt to (work-stealing events).
    pub steals: AtomicU64,
    /// `run_parallel` invocations that actually forked (≥ 2 participants).
    pub parallel_jobs: AtomicU64,
    /// Total chunks executed across all parallel jobs.
    pub parallel_chunks: AtomicU64,
}

/// Fixed pool of named worker threads executing submitted closures.
pub struct CpuPool {
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

/// The pool's job queue. Once closed it takes no new jobs, and workers
/// exit after draining the ones already queued.
#[derive(Default)]
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        // Jobs never run under the lock, so poison cannot carry a
        // half-done update.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: Job) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        st.jobs.push_back(job);
        drop(st);
        self.ready.notify_one();
        true
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// State shared between the caller and helper workers of one
/// `run_parallel` invocation.
struct ParallelJob {
    /// One chunk-id deque per participant (slot 0 is the caller).
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Chunks not yet *completed* (decremented after `f` returns).
    remaining: AtomicUsize,
    stats: Arc<PoolStats>,
    /// The chunk body. The `'static` is a lie told by `run_parallel`,
    /// which transmutes the caller's borrow; it is sound because
    /// `run_parallel` does not return until `remaining` is zero, and
    /// `remaining` only reaches zero after every `f` call has returned —
    /// no participant touches `f` once the deques are empty.
    f: &'static (dyn Fn(usize) + Sync),
}

fn work(job: &ParallelJob, slot: usize) {
    loop {
        let mut next = job.deques[slot].lock().unwrap().pop_front();
        if next.is_none() {
            // Own deque dry: steal from the *back* of a victim's deque
            // (opposite end from the owner, minimizing contention).
            for off in 1..job.deques.len() {
                let victim = (slot + off) % job.deques.len();
                if let Some(i) = job.deques[victim].lock().unwrap().pop_back() {
                    job.stats.steals.fetch_add(1, Ordering::Relaxed);
                    next = Some(i);
                    break;
                }
            }
        }
        match next {
            Some(i) => {
                (job.f)(i);
                job.remaining.fetch_sub(1, Ordering::Release);
            }
            None => return,
        }
    }
}

impl CpuPool {
    /// Spawns `threads` workers (at least one), named `sbq-cpu-N`.
    pub fn new(threads: usize) -> CpuPool {
        let threads = threads.max(1);
        let queue = Arc::new(JobQueue::default());
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("sbq-cpu-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            // A panicking job must not shrink the pool: the
                            // submitter is responsible for its own panic
                            // handling (the HTTP server catches handler
                            // panics itself); this is the backstop.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn cpu pool worker")
            })
            .collect();
        CpuPool {
            queue,
            workers,
            stats: Arc::new(PoolStats::default()),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Fork/join telemetry counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Queues `f` for execution; returns `false` after shutdown.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) -> bool {
        self.queue.push(Box::new(f))
    }

    /// Executes `f(0..chunks)` with the pool's workers helping, blocking
    /// until every chunk completes. Chunk ids are dealt round-robin into
    /// per-participant work-stealing deques; the caller is participant 0,
    /// so a busy or single-worker pool degrades to (at worst) serial
    /// execution on the calling thread rather than deadlocking — which
    /// also makes nested `run_parallel` from inside a pool job safe.
    ///
    /// Chunks should be coarse (hundreds of microseconds and up): the
    /// fork cost is one queue submission per helper. Callers are
    /// expected to gate on a payload-size threshold so small work never
    /// pays it — see `sbq-pbio`'s parallel split policy.
    pub fn run_parallel(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        // No workers are left after shutdown, so this also covers it.
        let helpers = self.workers.len().min(chunks - 1);
        if helpers == 0 {
            for i in 0..chunks {
                f(i);
            }
            return;
        }
        let slots = helpers + 1;
        // SAFETY: see the `ParallelJob::f` invariant — the borrow is only
        // promoted to `'static` because this function blocks until
        // `remaining == 0`, which happens-after the last `f` return
        // (Release decrement / Acquire wait pair below).
        let f: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Arc::new(ParallelJob {
            deques: (0..slots).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicUsize::new(chunks),
            stats: Arc::clone(&self.stats),
            f,
        });
        for i in 0..chunks {
            job.deques[i % slots].lock().unwrap().push_back(i);
        }
        for slot in 1..slots {
            let job = Arc::clone(&job);
            // `spawn` can only fail after shutdown; the caller-side loop
            // below still executes every chunk in that case (steals from
            // the orphaned deques), so the join invariant holds.
            self.spawn(move || work(&job, slot));
        }
        self.stats.parallel_jobs.fetch_add(1, Ordering::Relaxed);
        self.stats
            .parallel_chunks
            .fetch_add(chunks as u64, Ordering::Relaxed);
        work(&job, 0);
        // The caller ran dry; helpers may still be mid-chunk. The wait is
        // short (one chunk max) so a yield spin beats a condvar here.
        while job.remaining.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
    }

    /// Closes the queue, lets workers drain queued jobs, and joins them.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for CpuPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

static MARSHAL_POOL: OnceLock<CpuPool> = OnceLock::new();

/// The process-wide pool used for splitting bulk marshal work
/// ([`crate::simd`] kernels over multi-megabyte arrays). Sized from
/// `available_parallelism`, overridable with `SBQ_MARSHAL_THREADS`;
/// created on first use and never shut down.
pub fn marshal_pool() -> &'static CpuPool {
    MARSHAL_POOL.get_or_init(|| {
        let threads = std::env::var("SBQ_MARSHAL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        CpuPool::new(threads.clamp(1, 64))
    })
}

/// The marshal pool only if a bulk split has already instantiated it.
/// Telemetry reads go through here: observing the counters must never
/// be the thing that spawns the worker threads (processes that never
/// marshal a multi-megabyte array keep their exact thread budget).
pub fn try_marshal_pool() -> Option<&'static CpuPool> {
    MARSHAL_POOL.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_jobs_on_fixed_threads_and_drains_on_shutdown() {
        let mut pool = CpuPool::new(2);
        assert_eq!(pool.threads(), 2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let done = Arc::clone(&done);
            assert!(pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(
            done.load(Ordering::SeqCst),
            100,
            "shutdown drains the queue"
        );
        assert!(!pool.spawn(|| {}), "spawn after shutdown is rejected");
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let mut pool = CpuPool::new(1);
        pool.spawn(|| panic!("boom"));
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&done);
        pool.spawn(move || {
            d2.store(7, Ordering::SeqCst);
        });
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = CpuPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn run_parallel_executes_every_chunk_exactly_once() {
        let pool = CpuPool::new(3);
        for chunks in [0usize, 1, 2, 3, 7, 64, 257] {
            let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            pool.run_parallel(chunks, &|i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "chunks={chunks}"
            );
        }
        assert!(pool.stats().parallel_jobs.load(Ordering::Relaxed) >= 5);
        assert!(pool.stats().parallel_chunks.load(Ordering::Relaxed) >= 2 + 3 + 7 + 64 + 257);
    }

    #[test]
    fn run_parallel_borrows_caller_state_and_joins_before_returning() {
        let pool = CpuPool::new(2);
        let mut out = vec![0u64; 1000];
        {
            // Non-'static captures: disjoint writes through a raw pointer,
            // exactly the shape the marshal chunk split uses.
            let base = out.as_mut_ptr() as usize;
            pool.run_parallel(10, &move |i| {
                let p = base as *mut u64;
                for j in i * 100..(i + 1) * 100 {
                    // SAFETY: chunk ranges are disjoint and in bounds.
                    unsafe { *p.add(j) = j as u64 * 3 };
                }
            });
        }
        // If run_parallel returned before the helpers finished, some
        // lanes would still be zero (and the borrow above would be UB).
        assert!(out.iter().enumerate().all(|(j, &v)| v == j as u64 * 3));
    }

    #[test]
    fn run_parallel_after_shutdown_falls_back_to_serial() {
        let mut pool = CpuPool::new(2);
        pool.shutdown();
        let n = AtomicUsize::new(0);
        pool.run_parallel(5, &|_| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(n.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn nested_run_parallel_does_not_deadlock() {
        let pool = Arc::new(CpuPool::new(2));
        let n = Arc::new(AtomicUsize::new(0));
        let (p2, n2) = (Arc::clone(&pool), Arc::clone(&n));
        // Outer job occupies a worker, inner fork must still complete
        // because the inner caller participates in its own job.
        pool.spawn(move || {
            p2.run_parallel(8, &|_| {
                n2.fetch_add(1, Ordering::SeqCst);
            });
        });
        pool.run_parallel(8, &|_| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        // Wait for the spawned outer job to finish too.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while n.load(Ordering::SeqCst) < 16 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(n.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn marshal_pool_is_latched_and_usable() {
        let p1 = marshal_pool();
        let p2 = marshal_pool();
        assert!(std::ptr::eq(p1, p2));
        let n = AtomicUsize::new(0);
        p1.run_parallel(4, &|_| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(n.load(Ordering::SeqCst), 4);
    }
}
