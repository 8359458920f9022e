//! Process-level probes: CPU time and peak RSS from `/proc`, the git rev,
//! and a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux target this benchmark builds for).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of the whole process, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// CPUs of the machine (`/proc/stat` counts them all, pinned or not).
pub fn cpus() -> usize {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count()
        .max(1)
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run (the `steal` column of `/proc/stat`), in seconds.
/// It explains runs that are slow end to end on a shared host.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The source revision from `git rev-parse`, or `unknown` (a plain
/// checkout carries no git metadata).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Counts allocations and allocated bytes while [`counting`] is on; the
/// untimed-path cost when off is one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off.
pub fn counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations and allocated bytes counted so far.
pub fn allocs() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Which side of a call a thread plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Server,
    Client,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t` of 1024 CPUs.
type CpuSet = [u64; 16];

/// The first two CPUs the process could run on when first asked (server,
/// client), or `None` on a one-CPU machine. Kept, because a pinned thread
/// sees only its own CPU.
fn side_cpus() -> Option<(usize, usize)> {
    static SIDES: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *SIDES.get_or_init(allowed_pair)
}

fn allowed_pair() -> Option<(usize, usize)> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // `mask`; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let mut allowed = (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
    Some((allowed.next()?, allowed.next()?))
}

/// Pins the calling thread, and every thread it spawns from now on, to
/// its side's CPU: the program's server threads (spawned while the main
/// thread is on the server side) run on one CPU and the client loops on
/// another, as on two machines. Where threads would otherwise migrate, the
/// scheduler sometimes runs client and server on one CPU and sometimes on
/// two, and the same call costs one or the other. Returns the CPU, or
/// `None` when the machine has one CPU or the kernel refused.
pub fn pin(side: Side) -> Option<usize> {
    let (server, client) = side_cpus()?;
    let cpu = if side == Side::Server { server } else { client };
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
