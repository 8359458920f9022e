//! A small fixed thread pool for CPU-bound work (handler dispatch,
//! marshalling) behind an event-driven I/O loop.
//!
//! The split this enables is the whole point of the reactor
//! architecture: the event loop owns *readiness* (cheap, one thread, ten
//! thousand sockets), the pool owns *computation* (bounded threads, one
//! job at a time each). Jobs are `FnOnce` closures on an unbounded FIFO
//! queue that every worker waits on; submission never blocks the event
//! loop.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed pool of named worker threads executing submitted closures.
pub struct CpuPool {
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
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
        CpuPool { queue, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queues `f` for execution; returns `false` after shutdown.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) -> bool {
        self.queue.push(Box::new(f))
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
}
