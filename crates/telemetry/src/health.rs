//! Runtime self-observation: the health monitor behind `/healthz`,
//! `/statusz`, the reactor loop-lag watchdog, and process resource
//! accounting.
//!
//! A [`HealthMonitor`] bundles:
//!
//! - the **watchdog** state machine: the event loop calls
//!   [`HealthMonitor::heartbeat`] with the scheduled-vs-actual fire
//!   lag of a deadline-wheel heartbeat timer; lag lands in the
//!   `reactor.loop_lag_us` histogram, and lag over the configured
//!   budget latches the `reactor.stalled` gauge (once per episode —
//!   `reactor.stalls` counts episodes) and writes a [`Slowlog`] entry;
//! - an [`SloEngine`](crate::slo::SloEngine) fed one observation per
//!   request, whose burn rates drive readiness;
//! - a [`ProcSampler`]: a background thread reading
//!   `/proc/self/status` and `/proc/self/task/*/stat` into
//!   `proc.{rss_bytes,peak_rss_bytes,open_fds,threads}` gauges and
//!   per-thread `proc.cpu_ms.*` CPU-time gauges (monotonic, in ms);
//! - the machine-readable `/statusz` JSON renderer.
//!
//! A monitor built on a disabled registry is inert end to end: no
//! sampler thread, no ring allocations, every call a no-op.

use crate::slo::{SloConfig, SloEngine, SloSnapshot};
use crate::{Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Slowlog
// ---------------------------------------------------------------------

/// One structured slowlog record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowlogEntry {
    /// Milliseconds since the monitor started.
    pub at_ms: u64,
    /// Event kind, e.g. `reactor.stall`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

/// A bounded ring of recent noteworthy events, rendered into `/statusz`.
#[derive(Debug)]
pub struct Slowlog {
    epoch: Instant,
    entries: Mutex<VecDeque<SlowlogEntry>>,
    cap: usize,
}

impl Slowlog {
    /// A log keeping the most recent `cap` entries.
    pub fn new(cap: usize) -> Slowlog {
        Slowlog {
            epoch: Instant::now(),
            entries: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
        }
    }

    /// Appends an entry, evicting the oldest past capacity.
    pub fn record(&self, kind: &str, detail: String) {
        let at_ms = self.epoch.elapsed().as_millis().min(u64::MAX as u128) as u64;
        let mut q = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(SlowlogEntry {
            at_ms,
            kind: kind.to_string(),
            detail,
        });
    }

    /// The current entries, oldest first.
    pub fn entries(&self) -> Vec<SlowlogEntry> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

// ---------------------------------------------------------------------
// /proc sampling
// ---------------------------------------------------------------------

/// Kernel clock ticks per second, for `/proc/*/stat` utime/stime.
fn clk_tck() -> u64 {
    #[cfg(unix)]
    {
        extern "C" {
            fn sysconf(name: i32) -> i64;
        }
        const SC_CLK_TCK: i32 = 2;
        let t = unsafe { sysconf(SC_CLK_TCK) };
        if t > 0 {
            return t as u64;
        }
    }
    100
}

/// One pass over `/proc/self`: publishes RSS/peak-RSS/fd/thread gauges
/// and per-thread CPU-time gauges into `registry`. Silently skips
/// anything `/proc` doesn't provide (non-Linux, hidepid, …).
pub fn sample_proc(registry: &Registry) {
    if !registry.is_enabled() {
        return;
    }
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            // After strip_prefix the line is e.g. "\t  123456 kB".
            let kb = |l: &str| {
                l.split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<i64>().ok())
            };
            if let Some(v) = line.strip_prefix("VmRSS:").and_then(kb) {
                registry.gauge("proc.rss_bytes").set(v * 1024);
            } else if let Some(v) = line.strip_prefix("VmHWM:").and_then(kb) {
                registry.gauge("proc.peak_rss_bytes").set(v * 1024);
            } else if let Some(v) = line.strip_prefix("Threads:").and_then(kb) {
                registry.gauge("proc.threads").set(v);
            }
        }
    }
    if let Ok(fds) = std::fs::read_dir("/proc/self/fd") {
        // The iterator itself holds one fd; don't count it.
        let n = fds.count().saturating_sub(1);
        registry.gauge("proc.open_fds").set(n as i64);
    }
    let tick = clk_tck();
    let ticks_to_ms = |t: u64| (t.saturating_mul(1000) / tick) as i64;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        let mut total_ticks = 0u64;
        for task in tasks.flatten() {
            let dir = task.path();
            let Ok(stat) = std::fs::read_to_string(dir.join("stat")) else {
                continue;
            };
            // comm sits in parens and may contain spaces; fields resume
            // after the last ')'. utime/stime are post-comm fields 11/12.
            let Some(close) = stat.rfind(')') else {
                continue;
            };
            let comm = stat
                .find('(')
                .map(|open| &stat[open + 1..close])
                .unwrap_or("");
            let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
            let (Some(utime), Some(stime)) = (
                rest.get(11).and_then(|v| v.parse::<u64>().ok()),
                rest.get(12).and_then(|v| v.parse::<u64>().ok()),
            ) else {
                continue;
            };
            total_ticks += utime + stime;
            // Per-thread gauges only for our own named threads — the
            // pool ("sbq-cpu-N"), reactor, and sampler — so an app with
            // hundreds of foreign threads doesn't flood the registry.
            if comm.starts_with("sbq-") {
                registry
                    .gauge(&format!("proc.cpu_ms.{comm}"))
                    .set(ticks_to_ms(utime + stime));
            }
        }
        registry
            .gauge("proc.cpu_ms.total")
            .set(ticks_to_ms(total_ticks));
    }
}

/// Background `/proc` sampler. Dropping it stops and joins the thread.
#[derive(Debug)]
pub struct ProcSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProcSampler {
    /// Spawns a sampler publishing into `registry` every `interval`.
    /// The first sample is taken before this returns, so the gauges are
    /// never unset while a sampler exists. Returns `None` (and spawns
    /// nothing) for a disabled registry.
    pub fn spawn(registry: &Registry, interval: Duration) -> Option<ProcSampler> {
        if !registry.is_enabled() {
            return None;
        }
        sample_proc(registry);
        let stop = Arc::new(AtomicBool::new(false));
        let reg = registry.clone();
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sbq-health".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    std::thread::park_timeout(interval);
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    sample_proc(&reg);
                }
            })
            .ok()?;
        Some(ProcSampler {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for ProcSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// HealthMonitor
// ---------------------------------------------------------------------

/// Configuration for a [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    slo: SloConfig,
    loop_lag_budget: Duration,
    heartbeat_period: Duration,
    proc_sample_interval: Duration,
    proc_sampler: bool,
}

impl HealthConfig {
    /// Defaults: [`SloConfig::new`], 250 ms loop-lag budget, 100 ms
    /// heartbeat, 1 s proc sampling.
    pub fn new() -> HealthConfig {
        HealthConfig {
            slo: SloConfig::new(),
            loop_lag_budget: Duration::from_millis(250),
            heartbeat_period: Duration::from_millis(100),
            proc_sample_interval: Duration::from_secs(1),
            proc_sampler: true,
        }
    }

    /// The SLO targets — builder style.
    pub fn slo(mut self, slo: SloConfig) -> HealthConfig {
        self.slo = slo;
        self
    }

    /// Loop lag above this budget counts as a reactor stall — builder
    /// style.
    pub fn loop_lag_budget(mut self, d: Duration) -> HealthConfig {
        self.loop_lag_budget = d.max(Duration::from_millis(1));
        self
    }

    /// How often the event loop schedules its watchdog heartbeat —
    /// builder style.
    pub fn heartbeat_period(mut self, d: Duration) -> HealthConfig {
        self.heartbeat_period = d.max(Duration::from_millis(10));
        self
    }

    /// How often the `/proc` sampler runs — builder style.
    pub fn proc_sample_interval(mut self, d: Duration) -> HealthConfig {
        self.proc_sample_interval = d.max(Duration::from_millis(10));
        self
    }

    /// Disables the background `/proc` sampler thread (gauges then only
    /// update if [`sample_proc`] is called directly) — builder style.
    pub fn without_proc_sampler(mut self) -> HealthConfig {
        self.proc_sampler = false;
        self
    }

    /// The configured heartbeat period.
    pub fn heartbeat_period_value(&self) -> Duration {
        self.heartbeat_period
    }

    /// The configured loop-lag budget.
    pub fn loop_lag_budget_value(&self) -> Duration {
        self.loop_lag_budget
    }
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig::new()
    }
}

/// A compact, `Copy` view of current health for the admission hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Availability burn rate over the 1 m window.
    pub availability_burn_1m: f64,
    /// Availability burn rate over the 5 m window.
    pub availability_burn_5m: f64,
    /// Latency burn rate over the 1 m window.
    pub latency_burn_1m: f64,
    /// Latency burn rate over the 5 m window.
    pub latency_burn_5m: f64,
    /// Whether the SLO engine considers the burn red (two-window AND).
    pub red: bool,
    /// Whether the reactor watchdog is currently latched stalled.
    pub stalled: bool,
}

impl HealthSnapshot {
    /// The all-green snapshot (what a disabled monitor reports).
    pub fn healthy() -> HealthSnapshot {
        HealthSnapshot {
            availability_burn_1m: 0.0,
            availability_burn_5m: 0.0,
            latency_burn_1m: 0.0,
            latency_burn_5m: 0.0,
            red: false,
            stalled: false,
        }
    }
}

/// The runtime health subsystem; see the module docs. Built once per
/// server, shared via `Arc`.
#[derive(Debug)]
pub struct HealthMonitor {
    config: HealthConfig,
    enabled: bool,
    start: Instant,
    slo: SloEngine,
    slowlog: Slowlog,
    loop_lag_us: Histogram,
    stalled: Gauge,
    stalls: Counter,
    rss: Gauge,
    peak_rss: Gauge,
    open_fds: Gauge,
    threads: Gauge,
    _sampler: Option<ProcSampler>,
}

impl HealthMonitor {
    /// Builds the monitor on `registry`, spawning the `/proc` sampler
    /// unless disabled. On a disabled registry everything is inert: no
    /// thread, no SLO ring, no metric registration.
    pub fn new(config: HealthConfig, registry: &Registry) -> HealthMonitor {
        let enabled = registry.is_enabled();
        HealthMonitor {
            config,
            enabled,
            start: Instant::now(),
            slo: SloEngine::new(config.slo, registry),
            slowlog: Slowlog::new(64),
            loop_lag_us: registry.histogram("reactor.loop_lag_us"),
            stalled: registry.gauge("reactor.stalled"),
            stalls: registry.counter("reactor.stalls"),
            rss: registry.gauge("proc.rss_bytes"),
            peak_rss: registry.gauge("proc.peak_rss_bytes"),
            open_fds: registry.gauge("proc.open_fds"),
            threads: registry.gauge("proc.threads"),
            _sampler: if enabled && config.proc_sampler {
                ProcSampler::spawn(registry, config.proc_sample_interval)
            } else {
                None
            },
        }
    }

    /// An inert monitor (what a disabled registry yields).
    pub fn disabled() -> HealthMonitor {
        HealthMonitor::new(HealthConfig::new(), &Registry::disabled())
    }

    /// Whether this monitor records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the background `/proc` sampler thread is running.
    pub fn sampler_running(&self) -> bool {
        self._sampler.is_some()
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// The SLO engine (for direct observation or inspection).
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// The slowlog.
    pub fn slowlog(&self) -> &Slowlog {
        &self.slowlog
    }

    /// Feeds one request outcome into the SLO engine.
    pub fn observe_request(&self, ok: bool, latency_us: u64) {
        self.slo.observe(ok, latency_us);
    }

    /// Watchdog input: the event loop's heartbeat fired `lag` after its
    /// scheduled deadline. Records the lag and runs the stall state
    /// machine — latching `reactor.stalled` (and counting one episode
    /// in `reactor.stalls`, plus a slowlog entry) when `lag` exceeds
    /// the budget, clearing the latch on the first on-time beat after.
    pub fn heartbeat(&self, lag: Duration) {
        if !self.enabled {
            return;
        }
        let lag_us = lag.as_micros().min(u64::MAX as u128) as u64;
        self.loop_lag_us.record(lag_us);
        let over = lag > self.config.loop_lag_budget;
        let latched = self.stalled.get() != 0;
        if over && !latched {
            self.stalls.inc();
            self.stalled.set(1);
            self.slowlog.record(
                "reactor.stall",
                format!(
                    "event loop lag {}ms exceeded budget {}ms",
                    lag.as_millis(),
                    self.config.loop_lag_budget.as_millis()
                ),
            );
        } else if !over && latched {
            self.stalled.set(0);
            self.slowlog.record(
                "reactor.recovered",
                format!("event loop lag back to {lag_us}us"),
            );
        }
    }

    /// Whether the watchdog is currently latched stalled.
    pub fn is_stalled(&self) -> bool {
        self.enabled && self.stalled.get() != 0
    }

    /// Liveness: the event loop serving this is, by construction, alive.
    pub fn healthz_body(&self) -> &'static str {
        "ok\n"
    }

    /// Readiness: not stalled, and SLO burn not red.
    pub fn ready(&self) -> bool {
        !self.is_stalled() && !self.slo.snapshot().red()
    }

    /// The compact health view the admission hook consumes (also
    /// refreshes the `slo.burn.*` gauges).
    pub fn snapshot(&self) -> HealthSnapshot {
        if !self.enabled {
            return HealthSnapshot::healthy();
        }
        let slo = self.slo.snapshot();
        HealthSnapshot {
            availability_burn_1m: slo.windows[0].availability_burn,
            availability_burn_5m: slo.windows[1].availability_burn,
            latency_burn_1m: slo.windows[0].latency_burn,
            latency_burn_5m: slo.windows[1].latency_burn,
            red: slo.red(),
            stalled: self.stalled.get() != 0,
        }
    }

    /// The `/statusz` document: readiness, SLO windows with burn rates,
    /// watchdog state, proc gauges, and the slowlog — machine-readable
    /// JSON.
    pub fn statusz_json(&self) -> String {
        if !self.enabled {
            return "{\"ready\":true,\"enabled\":false}".to_string();
        }
        let slo = self.slo.snapshot();
        let ready = !self.is_stalled() && !slo.red();
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"ready\":{ready},\"uptime_s\":{},",
            self.start.elapsed().as_secs()
        ));
        out.push_str(&format!(
            "\"slo\":{{\"red_burn\":{:.1},\"red\":{},\"windows\":[",
            slo.red_burn,
            slo.red()
        ));
        for (i, w) in slo.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"window_s\":{},\"total\":{},\"bad\":{},\"slow\":{},\"availability_burn\":{:.3},\"latency_burn\":{:.3}}}",
                w.window_secs, w.total, w.bad, w.slow, w.availability_burn, w.latency_burn
            ));
        }
        let lag = self.loop_lag_us.snapshot();
        out.push_str(&format!(
            "]}},\"watchdog\":{{\"stalled\":{},\"stalls\":{},\"budget_ms\":{},\"loop_lag_us\":{}}},",
            self.stalled.get(),
            self.stalls.get(),
            self.config.loop_lag_budget.as_millis(),
            crate::expo::histogram_json(&lag)
        ));
        out.push_str(&format!(
            "\"proc\":{{\"rss_bytes\":{},\"peak_rss_bytes\":{},\"open_fds\":{},\"threads\":{}}},",
            self.rss.get(),
            self.peak_rss.get(),
            self.open_fds.get(),
            self.threads.get()
        ));
        out.push_str("\"slowlog\":[");
        for (i, e) in self.slowlog.entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at_ms\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                e.at_ms,
                crate::expo::json_escape(&e.kind),
                crate::expo::json_escape(&e.detail)
            ));
        }
        out.push_str("]}");
        out
    }

    /// The SLO snapshot (refreshes `slo.burn.*` gauges).
    pub fn slo_snapshot(&self) -> SloSnapshot {
        self.slo.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread_count() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Threads:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0)
    }

    #[test]
    fn sampler_publishes_proc_gauges() {
        let reg = Registry::new();
        sample_proc(&reg);
        assert!(reg.gauge("proc.rss_bytes").get() > 0);
        assert!(reg.gauge("proc.peak_rss_bytes").get() >= reg.gauge("proc.rss_bytes").get());
        assert!(reg.gauge("proc.open_fds").get() > 0);
        assert!(reg.gauge("proc.threads").get() >= 1);
        assert!(reg.gauge("proc.cpu_ms.total").get() >= 0);
    }

    #[test]
    fn sampler_thread_starts_and_stops() {
        let reg = Registry::new();
        let before = thread_count();
        let sampler = ProcSampler::spawn(&reg, Duration::from_millis(50)).expect("spawns");
        assert!(thread_count() > before);
        // The named sampler thread shows its own CPU gauge eventually;
        // at minimum the first sample already ran.
        assert!(reg.gauge("proc.rss_bytes").get() > 0);
        drop(sampler);
        assert_eq!(thread_count(), before, "sampler joined on drop");
    }

    #[test]
    fn watchdog_latches_once_per_episode_and_clears() {
        let reg = Registry::new();
        let hm = HealthMonitor::new(
            HealthConfig::new()
                .loop_lag_budget(Duration::from_millis(100))
                .without_proc_sampler(),
            &reg,
        );
        hm.heartbeat(Duration::from_millis(5));
        assert!(!hm.is_stalled());
        // One stall episode spanning several beats: trips exactly once.
        hm.heartbeat(Duration::from_millis(400));
        hm.heartbeat(Duration::from_millis(300));
        assert!(hm.is_stalled());
        assert_eq!(reg.counter("reactor.stalls").get(), 1);
        assert_eq!(reg.gauge("reactor.stalled").get(), 1);
        let log = hm.slowlog().entries();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, "reactor.stall");
        assert!(log[0].detail.contains("400ms"));
        // Recovery clears the latch; a second episode counts again.
        hm.heartbeat(Duration::from_millis(2));
        assert!(!hm.is_stalled());
        assert_eq!(reg.gauge("reactor.stalled").get(), 0);
        hm.heartbeat(Duration::from_millis(900));
        assert_eq!(reg.counter("reactor.stalls").get(), 2);
        assert!(reg.histogram("reactor.loop_lag_us").snapshot().count >= 5);
    }

    #[test]
    fn statusz_json_validates_and_reflects_state() {
        let reg = Registry::new();
        let hm = HealthMonitor::new(HealthConfig::new().without_proc_sampler(), &reg);
        sample_proc(&reg);
        for _ in 0..50 {
            hm.observe_request(true, 100);
        }
        hm.heartbeat(Duration::from_secs(1)); // stall
        let json = hm.statusz_json();
        crate::expo::validate_json(&json).expect("statusz validates");
        assert!(json.contains("\"ready\":false"), "{json}");
        assert!(json.contains("\"stalled\":1"), "{json}");
        assert!(json.contains("\"kind\":\"reactor.stall\""), "{json}");
        assert!(json.contains("\"rss_bytes\":"), "{json}");
        hm.heartbeat(Duration::from_millis(1)); // recover
        let json = hm.statusz_json();
        crate::expo::validate_json(&json).unwrap();
        assert!(json.contains("\"ready\":true"), "{json}");
        assert!(hm.ready());
    }

    #[test]
    fn red_burn_turns_statusz_unready() {
        let reg = Registry::new();
        let hm = HealthMonitor::new(
            HealthConfig::new()
                .slo(SloConfig::new().availability_target(0.999).red_burn(10.0))
                .without_proc_sampler(),
            &reg,
        );
        for i in 0..200u64 {
            hm.observe_request(i % 4 != 0, 100); // 25% failures: 250× burn
        }
        let snap = hm.snapshot();
        assert!(snap.red, "{snap:?}");
        assert!(snap.availability_burn_1m > 10.0);
        assert!(!hm.ready());
        assert!(hm.statusz_json().contains("\"ready\":false"));
    }

    #[test]
    fn disabled_monitor_is_inert() {
        let before = thread_count();
        let hm = HealthMonitor::new(HealthConfig::new(), &Registry::disabled());
        assert!(!hm.is_enabled());
        assert!(!hm.sampler_running(), "no sampler thread when disabled");
        assert_eq!(thread_count(), before);
        assert!(!hm.slo().is_enabled(), "no SLO ring when disabled");
        hm.heartbeat(Duration::from_secs(10));
        hm.observe_request(false, u64::MAX);
        assert!(!hm.is_stalled());
        assert!(hm.ready());
        assert_eq!(hm.snapshot(), HealthSnapshot::healthy());
        assert_eq!(hm.statusz_json(), "{\"ready\":true,\"enabled\":false}");
        crate::expo::validate_json(&hm.statusz_json()).unwrap();
        assert!(hm.slowlog().entries().is_empty());
        assert!(HealthMonitor::disabled().ready());
        // sample_proc on a disabled registry registers nothing.
        let dis = Registry::disabled();
        sample_proc(&dis);
        assert_eq!(dis.render_text(), "# telemetry disabled\n");
    }
}
