//! Event-driven HTTP server.
//!
//! One reactor thread owns *readiness*: every connection is a
//! non-blocking socket registered with an epoll [`Reactor`], driven
//! through an explicit state machine (`Idle → Read → InHandler → Write →
//! Idle`) by readiness events, with read/write/
//! keep-alive deadlines on a [`DeadlineWheel`]. A small fixed [`CpuPool`]
//! owns *computation*: parsed requests are dispatched to it, the handler
//! (and any marshalling it does) runs there, and the completed response
//! is handed back to the event loop over a channel plus a reactor wake.
//!
//! The split is what makes c10k cheap: ten thousand idle keep-alive
//! connections cost one thread and a few bytes of slab state each — their
//! pooled buffers are released back to the [`BufferPool`] while they sit
//! idle — while CPU-bound work stays bounded by the pool size instead of
//! the connection count.

use crate::body::ChunkPolicy;
use crate::codec::{Decoder, Encoder};
use crate::faults::{FaultAction, FaultSchedule};
use crate::message::{HttpError, Limits, Request, Response, TimeoutKind, DEFAULT_IO_TIMEOUT};
use crate::metrics::HttpMetrics;
use sbq_runtime::reactor::{Event, Interest, Token};
use sbq_runtime::{BufferPool, CpuPool, DeadlineWheel, Reactor};
use sbq_telemetry::trace;
use sbq_telemetry::{
    HealthConfig, HealthMonitor, HealthSnapshot, Registry, TraceContext, TraceSpan, Tracer,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token for the listening socket (connection tokens encode a slot index
/// in the low 32 bits, so they can never collide with this in practice).
const LISTENER_TOKEN: Token = Token(u64::MAX - 1);
/// Token for the watchdog heartbeat timer on the deadline wheel. The
/// event loop measures how late each heartbeat fires relative to its
/// scheduled deadline — that lag *is* the reactor loop lag, because the
/// only thing that can delay an armed wheel entry is the loop itself
/// being busy (or blocked) between polls.
const HEARTBEAT_TOKEN: Token = Token(u64::MAX - 2);
/// Deadline-wheel resolution: coarse on purpose — connection timeouts are
/// tens of milliseconds and up.
const WHEEL_TICK: Duration = Duration::from_millis(25);
/// Slots on the wheel: `WHEEL_TICK * WHEEL_SLOTS` (~102 s) covers every
/// default timeout within one round.
const WHEEL_SLOTS: usize = 4096;
/// Per-syscall read size into a connection's input buffer.
const READ_CHUNK: usize = 16 * 1024;
/// Per-readiness-event read budget, so one fire-hose connection cannot
/// monopolize the event loop (level-triggered epoll re-reports the rest).
const READ_BUDGET: usize = 256 * 1024;

/// Instantaneous load snapshot handed to an admission hook (see
/// [`ServerConfig::admission`]). All values are read on the event-loop
/// thread, so they are exact at decision time.
#[derive(Debug, Clone, Copy)]
pub struct ServerLoad {
    /// Handler jobs dispatched to the CPU pool and not yet completed.
    pub inflight_jobs: usize,
    /// Size of the CPU pool (the worker_threads setting).
    pub worker_threads: usize,
    /// Connections currently registered with the reactor.
    pub open_conns: usize,
    /// Current runtime health (SLO burn rates, watchdog latch), when the
    /// server's telemetry is enabled — so an admission hook can shed on
    /// burn rate, not just instantaneous queue depth. `None` with
    /// telemetry disabled.
    pub health: Option<HealthSnapshot>,
}

/// An admission decision for one parsed request.
#[derive(Debug)]
pub enum Admission {
    /// Dispatch the request to the handler normally.
    Admit,
    /// Answer with this response *from the event loop* — the request
    /// never reaches the CPU pool (that is the whole point: shedding
    /// must cost nothing when the pool is the saturated resource). The
    /// connection stays keep-alive unless the response or client says
    /// `Connection: close`.
    Respond(Response),
}

/// The decision function inside an [`AdmissionHook`].
type AdmissionFn = dyn Fn(&Request, &ServerLoad) -> Admission + Send + Sync;

/// A shared admission-control hook. Runs on the event-loop thread for
/// every parsed application request (built-in observability endpoints
/// are exempt — operators must be able to see the overload they are
/// being shed by), so it must be fast and must never block.
#[derive(Clone)]
pub struct AdmissionHook(Arc<AdmissionFn>);

impl std::fmt::Debug for AdmissionHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AdmissionHook(..)")
    }
}

/// Server-side transport configuration; construct with
/// [`ServerConfig::default`] and refine with the consuming builder
/// methods.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    worker_threads: usize,
    accept_backlog: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    keep_alive_timeout: Duration,
    keep_alive_max_idle: Option<Duration>,
    limits: Limits,
    faults: FaultSchedule,
    telemetry: Registry,
    chunking: ChunkPolicy,
    pool: BufferPool,
    admission: Option<AdmissionHook>,
    health: HealthConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            worker_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            accept_backlog: 128,
            read_timeout: DEFAULT_IO_TIMEOUT,
            write_timeout: DEFAULT_IO_TIMEOUT,
            keep_alive_timeout: Duration::from_secs(60),
            keep_alive_max_idle: None,
            limits: Limits::default(),
            faults: FaultSchedule::new(),
            telemetry: Registry::default(),
            chunking: ChunkPolicy::disabled(),
            pool: BufferPool::global().clone(),
            admission: None,
            health: HealthConfig::new(),
        }
    }
}

impl ServerConfig {
    /// Size of the CPU pool handlers run on (at least 1). Defaults to the
    /// machine's available parallelism. This no longer bounds how many
    /// connections the server can hold open — only how many handlers run
    /// at once.
    pub fn worker_threads(mut self, n: usize) -> ServerConfig {
        self.worker_threads = n.max(1);
        self
    }

    /// The configured CPU-pool size (what [`ServerLoad::worker_threads`]
    /// reports to admission hooks).
    pub fn worker_pool_size(&self) -> usize {
        self.worker_threads
    }

    /// Cap on connections accepted per readiness event (the rest stay in
    /// the kernel backlog until the next loop turn — that is the accept
    /// backpressure).
    pub fn accept_backlog(mut self, n: usize) -> ServerConfig {
        self.accept_backlog = n.max(1);
        self
    }

    /// Deadline for progress while a request is arriving; a stalled
    /// sender gets `408` and the connection closed.
    pub fn read_timeout(mut self, d: Duration) -> ServerConfig {
        self.read_timeout = d;
        self
    }

    /// Deadline for progress while a response is being written.
    pub fn write_timeout(mut self, d: Duration) -> ServerConfig {
        self.write_timeout = d;
        self
    }

    /// How long a keep-alive connection may sit with no request before the
    /// server closes it.
    pub fn keep_alive_timeout(mut self, d: Duration) -> ServerConfig {
        self.keep_alive_timeout = d;
        self
    }

    /// Optional tighter cap on idle keep-alive connections: when set, an
    /// idle connection is reaped after `min(keep_alive_timeout, d)`.
    /// Lets a server under fd pressure shed parked connections faster
    /// than the protocol-level keep-alive allows.
    pub fn keep_alive_max_idle(mut self, d: Duration) -> ServerConfig {
        self.keep_alive_max_idle = Some(d);
        self
    }

    /// Cap on request-line plus header bytes; beyond it the request gets
    /// `413`.
    pub fn max_header_bytes(mut self, n: usize) -> ServerConfig {
        self.limits.max_header_bytes = n;
        self
    }

    /// Cap on declared body length; beyond it the request gets `413`
    /// without the body being read.
    pub fn max_body_bytes(mut self, n: usize) -> ServerConfig {
        self.limits.max_body_bytes = n;
        self
    }

    /// Replaces all size limits at once.
    pub fn limits(mut self, limits: Limits) -> ServerConfig {
        self.limits = limits;
        self
    }

    /// Opt in to `Transfer-Encoding: chunked` for response bodies of at
    /// least `threshold` bytes (off by default). Chunked *requests* are
    /// always accepted regardless of this setting.
    pub fn chunk_threshold(mut self, threshold: usize) -> ServerConfig {
        self.chunking = ChunkPolicy::above(threshold).chunk_size(self.chunking.chunk_bytes());
        self
    }

    /// Chunk size used when response chunking applies (default
    /// [`ChunkPolicy::DEFAULT_CHUNK_SIZE`]).
    pub fn chunk_size(mut self, n: usize) -> ServerConfig {
        self.chunking = self.chunking.chunk_size(n);
        self
    }

    /// Installs a response-fault schedule (tests only in spirit, but safe
    /// in production: the default schedule is empty).
    pub fn faults(mut self, faults: FaultSchedule) -> ServerConfig {
        self.faults = faults;
        self
    }

    /// Telemetry registry the server records into and exposes over
    /// `GET /metrics` (text) and `GET /metrics.json`. Defaults to the
    /// process-wide [`Registry::global`]; pass [`Registry::disabled`] to
    /// turn instrumentation off.
    pub fn telemetry(mut self, registry: Registry) -> ServerConfig {
        self.telemetry = registry;
        self
    }

    /// The registry this configuration records into.
    pub fn telemetry_registry(&self) -> &Registry {
        &self.telemetry
    }

    /// Installs an admission-control hook, consulted on the event-loop
    /// thread for every parsed application request *before* it is
    /// dispatched to the CPU pool. Returning [`Admission::Respond`]
    /// answers immediately from the event loop (counted in
    /// `http.admission.shed`) without consuming a pool worker; built-in
    /// `/metrics` and `/trace` endpoints are never subject to
    /// admission. The hook must be fast and non-blocking — it runs on
    /// the thread that multiplexes every connection.
    pub fn admission<F>(mut self, hook: F) -> ServerConfig
    where
        F: Fn(&Request, &ServerLoad) -> Admission + Send + Sync + 'static,
    {
        self.admission = Some(AdmissionHook(Arc::new(hook)));
        self
    }

    /// Runtime health configuration: SLO targets, reactor loop-lag
    /// budget, heartbeat period, `/proc` sampling. The health subsystem
    /// (watchdog, `/healthz`, `/statusz`, burn-rate gauges) is active
    /// whenever the telemetry registry is enabled; this tunes it.
    pub fn health(mut self, health: HealthConfig) -> ServerConfig {
        self.health = health;
        self
    }

    /// The configured health settings.
    pub fn health_config(&self) -> &HealthConfig {
        &self.health
    }

    /// Buffer pool request bodies are read into and recycled through.
    /// Defaults to the process-wide [`BufferPool::global`]; supply a
    /// dedicated pool to isolate (or observe) one server's traffic.
    pub fn buffer_pool(mut self, pool: BufferPool) -> ServerConfig {
        self.pool = pool;
        self
    }

    /// The buffer pool this configuration serves bodies from.
    pub fn buffer_pool_ref(&self) -> &BufferPool {
        &self.pool
    }
}

/// A running HTTP server. The handler runs on CPU-pool workers; it must
/// be `Send + Sync` because requests are concurrent.
pub struct HttpServer;

impl HttpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) with the default
    /// [`ServerConfig`].
    pub fn bind<H>(addr: SocketAddr, handler: H) -> std::io::Result<ServerHandle>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        Self::bind_with(addr, ServerConfig::default(), handler)
    }

    /// Binds to `addr` and serves with the given configuration until the
    /// returned handle is dropped or shut down.
    pub fn bind_with<H>(
        addr: SocketAddr,
        config: ServerConfig,
        handler: H,
    ) -> std::io::Result<ServerHandle>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let metrics = HttpMetrics::new(&config.telemetry);
        let tracer = config.telemetry.tracer();
        if config.telemetry.is_enabled() {
            // First observer wins; later binds against an already-observed
            // pool are no-ops, so the global pool reports to the first
            // enabled registry it meets.
            config
                .pool
                .set_observer(sbq_telemetry::pool_observer(&config.telemetry));
        }
        let cpu_threads = config.worker_threads;
        // The monitor is inert (no sampler thread, no SLO ring) when the
        // registry is disabled; otherwise it starts watching immediately.
        let health = Arc::new(HealthMonitor::new(config.health, &config.telemetry));
        let ctx = Arc::new(Ctx {
            handler: Box::new(handler),
            metrics,
            tracer,
            health,
            config,
            stop: Arc::clone(&stop),
            requests: AtomicU64::new(0),
            active: AtomicU64::new(0),
        });
        let reactor = Arc::new(Reactor::new()?);
        reactor.register(&listener, LISTENER_TOKEN, Interest::READABLE)?;
        let (done_tx, done_rx) = mpsc::channel();
        let ev = EventLoop {
            ctx: Arc::clone(&ctx),
            reactor: Arc::clone(&reactor),
            listener: Some(listener),
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            wheel: DeadlineWheel::new(WHEEL_TICK, WHEEL_SLOTS),
            pool: CpuPool::new(cpu_threads),
            done_tx,
            done_rx,
            connections: Arc::clone(&connections),
            inflight_jobs: 0,
            open_conns: 0,
            io_ops: 0,
            just_intr: false,
            stopping: false,
            heartbeat_at: None,
        };
        let event_loop = std::thread::Builder::new()
            .name("sbq-http-reactor".to_string())
            .spawn(move || ev.run())?;
        Ok(ServerHandle {
            addr: local,
            stop,
            reactor,
            event_loop: Some(event_loop),
            connections,
            ctx,
        })
    }
}

struct Ctx {
    handler: Box<dyn Fn(&Request) -> Response + Send + Sync>,
    metrics: HttpMetrics,
    tracer: Tracer,
    health: Arc<HealthMonitor>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    requests: AtomicU64,
    active: AtomicU64,
}

/// Where a connection's state machine stands. Exactly one request is in
/// flight per connection at a time: while `InHandler`/`Write`, read
/// interest is off, so pipelined bytes wait in `inbuf`/the kernel.
///
/// The variants deliberately differ in size: each holds exactly the
/// working set the connection needs in that state, and there is one
/// `ConnState` per connection slot — boxing the large variants would
/// trade a pool-recycled inline buffer for a per-request allocation.
#[allow(clippy::large_enum_variant)]
enum ConnState {
    /// Parked between keep-alive requests, buffers released.
    Idle,
    /// Decoding a request out of `inbuf` as its bytes arrive.
    Read(Decoder<Request>),
    /// Dispatched to the CPU pool; waiting for the completion message.
    InHandler,
    /// Writing the response as the socket accepts it.
    Write(WriteJob),
}

struct Conn {
    stream: TcpStream,
    token: Token,
    state: ConnState,
    interest: Interest,
    /// Buffered-but-unparsed input (pooled; released while idle).
    inbuf: Vec<u8>,
    /// Response-head scratch, kept on the connection between requests
    /// (pooled; released while idle). Keeping it here instead of doing a
    /// pool round-trip per response matters for determinism as much as
    /// speed: the pool's steady state stays balanced without relying on
    /// the event loop's post-write `put` racing the client's next `get`.
    outbuf: Vec<u8>,
    /// First byte of the current request, for the read histogram/span.
    read_start: Option<Instant>,
    /// Generation for lazy deadline cancellation on the wheel.
    timer_gen: u64,
    idle: bool,
    registered: bool,
    /// Socket errored while a handler was in flight: discard its
    /// completion and close.
    dead: bool,
}

/// A response mid-write: the encoder walks its head and body (plain or
/// chunked) as the socket accepts bytes.
struct WriteJob {
    enc: Encoder,
    body: Vec<u8>,
    keep: bool,
    /// Held open until the last byte is written, so the request span
    /// covers the write phase like the old blocking server's did.
    req_span: Option<TraceSpan>,
    sctx: Option<TraceContext>,
    started: Instant,
}

impl WriteJob {
    fn new(enc: Encoder, body: Vec<u8>, keep: bool) -> WriteJob {
        WriteJob {
            enc,
            body,
            keep,
            req_span: None,
            sctx: None,
            started: Instant::now(),
        }
    }
}

/// Everything the CPU-pool job needs to run one request and report back.
struct JobMeta {
    slot: usize,
    token: Token,
    idx: u64,
    rid: String,
    close_requested: bool,
    fault: Option<FaultAction>,
    dispatched: Instant,
    /// First byte of the request — the start of the end-to-end latency
    /// the SLO engine and `http.request_us` exemplars observe.
    read_start: Instant,
    req_span: TraceSpan,
    sctx: TraceContext,
}

/// What a finished handler hands back to the event loop.
struct Completion {
    slot: usize,
    token: Token,
    resp: Response,
    req_span: Option<TraceSpan>,
    sctx: Option<TraceContext>,
    close: bool,
    fault: Option<FaultAction>,
}

fn conn_token(slot: usize, gen: u32) -> Token {
    Token(((gen as u64) << 32) | slot as u64)
}

fn token_slot(t: Token) -> usize {
    (t.0 & 0xffff_ffff) as usize
}

/// Fault-schedule `EINTR` injection: every `period`-th shaped I/O op
/// fails with a simulated interrupt (never two in a row, so period 1
/// cannot live-lock the retry loops it exists to exercise).
fn inject_eintr(ops: &mut u64, last: &mut bool, period: Option<u64>) -> bool {
    let Some(p) = period else { return false };
    *ops += 1;
    if !*last && ops.is_multiple_of(p) {
        *last = true;
        return true;
    }
    *last = false;
    false
}

fn set_interest(reactor: &Reactor, conn: &mut Conn, want: Interest) {
    if conn.interest != want
        && conn.registered
        && reactor.reregister(&conn.stream, conn.token, want).is_ok()
    {
        conn.interest = want;
    }
}

fn arm_deadline(wheel: &mut DeadlineWheel, conn: &mut Conn, d: Duration) {
    conn.timer_gen += 1;
    wheel.arm(conn.token, conn.timer_gen, Instant::now() + d);
}

/// What `process_input` decided the connection needs next.
enum Act {
    Wait,
    Close,
    Fail(HttpError),
    Dispatch(Request, bool),
}

struct EventLoop {
    ctx: Arc<Ctx>,
    reactor: Arc<Reactor>,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    wheel: DeadlineWheel,
    pool: CpuPool,
    done_tx: Sender<Completion>,
    done_rx: Receiver<Completion>,
    connections: Arc<AtomicU64>,
    inflight_jobs: usize,
    open_conns: usize,
    io_ops: u64,
    just_intr: bool,
    stopping: bool,
    /// When the armed watchdog heartbeat is due; lag is measured against
    /// this at fire time.
    heartbeat_at: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut expired: Vec<(Token, u64)> = Vec::new();
        if self.ctx.health.is_enabled() {
            self.arm_heartbeat();
        }
        loop {
            if self.ctx.stop.load(Ordering::SeqCst) && !self.stopping {
                self.begin_shutdown();
            }
            if self.stopping && self.open_conns == 0 && self.inflight_jobs == 0 {
                break;
            }
            let timeout = self.wheel.next_timeout(Instant::now());
            let summary = match self.reactor.poll(&mut events, timeout) {
                Ok(s) => s,
                Err(_) => continue,
            };
            if summary.woken {
                self.ctx.metrics.reactor_wakeups.inc();
            }
            if summary.events > 0 {
                self.ctx.metrics.reactor_events.add(summary.events as u64);
            }
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_burst();
                } else {
                    self.on_conn_event(ev);
                }
            }
            while let Ok(done) = self.done_rx.try_recv() {
                self.on_completion(done);
            }
            expired.clear();
            self.wheel.expire_into(Instant::now(), &mut expired);
            for &(token, tgen) in &expired {
                self.on_deadline(token, tgen);
            }
        }
        // Loop exit implies no live connections and no in-flight jobs;
        // dropping the pool joins its workers.
        self.pool.shutdown();
    }

    fn begin_shutdown(&mut self) {
        self.stopping = true;
        if let Some(l) = self.listener.take() {
            let _ = self.reactor.deregister(&l);
        }
        // Close idle and still-reading connections immediately; handlers
        // in flight and responses mid-write drain (their keep-alive is
        // forced off at write completion).
        let close_now: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                c.as_ref().and_then(|c| match c.state {
                    ConnState::Idle | ConnState::Read(_) => Some(i),
                    _ => None,
                })
            })
            .collect();
        for slot in close_now {
            self.close_conn(slot);
        }
    }

    fn accept_burst(&mut self) {
        if self.stopping {
            return;
        }
        for _ in 0..self.ctx.config.accept_backlog {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.open_conn(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn open_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        let token = conn_token(slot, self.gens[slot]);
        if self
            .reactor
            .register(&stream, token, Interest::READABLE)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.connections.fetch_add(1, Ordering::SeqCst);
        self.ctx.active.fetch_add(1, Ordering::SeqCst);
        let m = &self.ctx.metrics;
        m.active.inc();
        m.accepted.inc();
        m.open.inc();
        self.open_conns += 1;
        self.conns[slot] = Some(Conn {
            stream,
            token,
            state: ConnState::Idle,
            interest: Interest::READABLE,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            read_start: None,
            timer_gen: 0,
            idle: false,
            registered: true,
            dead: false,
        });
        self.enter_idle(slot);
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        if conn.registered {
            let _ = self.reactor.deregister(&conn.stream);
        }
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        self.open_conns -= 1;
        self.ctx.active.fetch_sub(1, Ordering::SeqCst);
        let m = &self.ctx.metrics;
        m.active.dec();
        m.open.dec();
        m.closed.inc();
        if conn.idle {
            m.idle.dec();
        }
        let pool = &self.ctx.config.pool;
        pool.put(conn.inbuf);
        pool.put(conn.outbuf);
        match conn.state {
            ConnState::Read(dec) => pool.put(dec.into_body()),
            ConnState::Write(job) => {
                pool.put(job.enc.into_head());
                pool.put(job.body);
            }
            _ => {}
        }
    }

    /// Parks a connection between requests: buffers released, read
    /// interest on, idle deadline armed.
    fn enter_idle(&mut self, slot: usize) {
        let idle_to = match self.ctx.config.keep_alive_max_idle {
            Some(m) => self.ctx.config.keep_alive_timeout.min(m),
            None => self.ctx.config.keep_alive_timeout,
        };
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        self.ctx.config.pool.put(std::mem::take(&mut conn.inbuf));
        self.ctx.config.pool.put(std::mem::take(&mut conn.outbuf));
        conn.state = ConnState::Idle;
        conn.read_start = None;
        if !conn.idle {
            conn.idle = true;
            self.ctx.metrics.idle.inc();
        }
        arm_deadline(&mut self.wheel, conn, idle_to);
        set_interest(&self.reactor, conn, Interest::READABLE);
    }

    fn on_conn_event(&mut self, ev: Event) {
        let slot = token_slot(ev.token);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.token != ev.token {
            return; // stale event for a recycled slot
        }
        match conn.state {
            ConnState::InHandler => {
                if ev.error {
                    // Cannot close yet — a completion is in flight for
                    // this slot. Deregister (level-triggered errors would
                    // re-fire every poll) and discard on completion.
                    conn.dead = true;
                    if conn.registered {
                        let _ = self.reactor.deregister(&conn.stream);
                        conn.registered = false;
                    }
                }
            }
            ConnState::Write(_) => {
                if ev.error {
                    self.close_conn(slot);
                } else if ev.writable {
                    self.drive_write(slot);
                }
            }
            ConnState::Idle | ConnState::Read(_) => {
                if ev.error {
                    self.close_conn(slot);
                } else if ev.readable || ev.rdhup {
                    self.drive_read(slot);
                }
            }
        }
    }

    /// Arms (or re-arms) the watchdog heartbeat one period out.
    fn arm_heartbeat(&mut self) {
        let next = Instant::now() + self.ctx.health.config().heartbeat_period_value();
        self.wheel.arm(HEARTBEAT_TOKEN, 0, next);
        self.heartbeat_at = Some(next);
    }

    fn on_deadline(&mut self, token: Token, tgen: u64) {
        if token == HEARTBEAT_TOKEN {
            // Scheduled-vs-actual fire time: anything past the wheel's
            // own tick resolution is time the loop spent away from
            // `poll` — a blocking handler run on this thread, a storm of
            // ready events, or the process being descheduled.
            let lag = self
                .heartbeat_at
                .map(|at| Instant::now().saturating_duration_since(at))
                .unwrap_or_default();
            self.ctx.health.heartbeat(lag);
            self.arm_heartbeat();
            return;
        }
        let slot = token_slot(token);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.token != token || conn.timer_gen != tgen {
            return; // lazily cancelled
        }
        self.ctx.metrics.reactor_timeouts.inc();
        match conn.state {
            ConnState::Idle => self.close_conn(slot),
            ConnState::Read(_) => self.fail(slot, HttpError::Timeout(TimeoutKind::Read)),
            ConnState::Write(_) => self.close_conn(slot),
            ConnState::InHandler => {} // no deadline while in a handler
        }
    }

    /// Reads whatever the socket has (bounded by the event budget), then
    /// advances the parse state machine over the buffered bytes.
    ///
    /// Reads land in `inbuf`'s spare capacity only — when it fills, the
    /// decoder consumes the bytes (which drains them) rather than the
    /// buffer growing, so a connection keeps one pool-classed buffer for
    /// its whole life.
    fn drive_read(&mut self, slot: usize) {
        let read_cap = self
            .ctx
            .config
            .faults
            .read_cap()
            .unwrap_or(READ_CHUNK)
            .min(READ_CHUNK);
        let period = self.ctx.config.faults.interrupt_period();
        let mut total = 0usize;
        let mut eof = false;
        loop {
            enum Stop {
                WouldBlock,
                Full,
                Budget,
                Broken,
            }
            let mut round = 0usize;
            let stop = {
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return;
                };
                if conn.inbuf.capacity() == 0 {
                    conn.inbuf = self.ctx.config.pool.get(READ_CHUNK);
                    conn.inbuf.clear();
                }
                loop {
                    if total >= READ_BUDGET {
                        break Stop::Budget;
                    }
                    let old = conn.inbuf.len();
                    let space = conn.inbuf.capacity() - old;
                    if space == 0 {
                        break Stop::Full;
                    }
                    if inject_eintr(&mut self.io_ops, &mut self.just_intr, period) {
                        continue; // simulated EINTR: retry the same read
                    }
                    conn.inbuf.resize(old + read_cap.min(space), 0);
                    let mut src = &conn.stream;
                    match src.read(&mut conn.inbuf[old..]) {
                        Ok(0) => {
                            conn.inbuf.truncate(old);
                            eof = true;
                            break Stop::WouldBlock;
                        }
                        Ok(n) => {
                            conn.inbuf.truncate(old + n);
                            total += n;
                            round += n;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            conn.inbuf.truncate(old);
                            break Stop::WouldBlock;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                            conn.inbuf.truncate(old);
                            continue;
                        }
                        Err(_) => {
                            conn.inbuf.truncate(old);
                            break Stop::Broken;
                        }
                    }
                }
            };
            if matches!(stop, Stop::Broken) {
                self.close_conn(slot);
                return;
            }
            if round > 0 || eof {
                self.process_input(slot, eof);
            }
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if !matches!(conn.state, ConnState::Idle | ConnState::Read(_)) {
                break; // dispatched (or writing an error): stop reading
            }
            if !matches!(stop, Stop::Full) {
                break;
            }
        }
        // Fresh bytes arrived: push the read deadline out.
        if total > 0 {
            let read_to = self.ctx.config.read_timeout;
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                if matches!(conn.state, ConnState::Read(_)) {
                    arm_deadline(&mut self.wheel, conn, read_to);
                }
            }
        }
    }

    /// Advances Idle/Read over the bytes buffered in `inbuf`. `eof` means
    /// the peer will send nothing further.
    fn process_input(&mut self, slot: usize, eof: bool) {
        let ctx = Arc::clone(&self.ctx);
        let act = loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            match &mut conn.state {
                ConnState::Idle => {
                    if conn.inbuf.is_empty() {
                        if eof {
                            break Act::Close; // clean keep-alive close
                        }
                        break Act::Wait;
                    }
                    if conn.idle {
                        conn.idle = false;
                        ctx.metrics.idle.dec();
                    }
                    conn.state = ConnState::Read(Decoder::new(ctx.config.limits));
                    conn.read_start = Some(Instant::now());
                    arm_deadline(&mut self.wheel, conn, ctx.config.read_timeout);
                }
                ConnState::Read(dec) => {
                    let used = match dec.feed(&conn.inbuf, &ctx.config.pool) {
                        Ok(used) => used,
                        Err(e) => break Act::Fail(e),
                    };
                    conn.inbuf.drain(..used);
                    let chunked = dec.is_chunked();
                    if let Some(req) = dec.take() {
                        break Act::Dispatch(req, chunked);
                    }
                    if eof {
                        break Act::Fail(dec.truncated());
                    }
                    break Act::Wait;
                }
                ConnState::InHandler | ConnState::Write(_) => break Act::Wait,
            }
        };
        match act {
            Act::Wait => {}
            Act::Close => self.close_conn(slot),
            Act::Fail(e) => self.fail(slot, e),
            Act::Dispatch(req, chunked) => self.dispatch(slot, req, chunked),
        }
    }

    /// Hands a fully parsed request to the CPU pool and parks the
    /// connection in `InHandler`.
    fn dispatch(&mut self, slot: usize, req: Request, chunked: bool) {
        let ctx = Arc::clone(&self.ctx);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.state = ConnState::InHandler;
        conn.timer_gen += 1; // cancel the read deadline
        let token = conn.token;
        let read_start = conn.read_start.take().unwrap_or_else(Instant::now);
        set_interest(&self.reactor, conn, Interest::NONE);
        if conn.outbuf.capacity() == 0 {
            // Acquire the response-head scratch now, not at completion:
            // between the job's body recycle and the client reading the
            // response, the pool must see no competing `get` — a client
            // that turns around instantly reuses that exact buffer.
            conn.outbuf = self.ctx.config.pool.get(256);
        }
        if chunked {
            ctx.metrics.chunked_rx.inc();
        }
        let close_requested = req
            .header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        let idx = ctx.requests.fetch_add(1, Ordering::SeqCst);
        // The read phase ends here, before any stall or admission work.
        let parsed = Instant::now();
        let rid = request_id(&req, idx);
        if let Some(d) = ctx.config.faults.stall_for(idx) {
            // Deliberate reactor-thread stall (tests): hold the event
            // loop hostage the way a handler mistakenly run here would,
            // so the watchdog's loop-lag measurement can be exercised.
            std::thread::sleep(d);
        }
        // Admission control: decided here on the event loop, before the
        // request costs a CPU-pool slot — under overload the pool is the
        // saturated resource, so a shed that queued behind it would be
        // pointless. Built-in observability endpoints are exempt.
        if let Some(hook) = &ctx.config.admission {
            if !is_builtin_path(&req) {
                let load = ServerLoad {
                    inflight_jobs: self.inflight_jobs,
                    worker_threads: ctx.config.worker_threads,
                    open_conns: self.open_conns,
                    health: ctx.health.is_enabled().then(|| ctx.health.snapshot()),
                };
                if let Admission::Respond(mut resp) = (hook.0)(&req, &load) {
                    let mut req = req;
                    ctx.metrics.read.record(None, read_start, parsed);
                    ctx.metrics.shed.inc();
                    ctx.metrics.method(&req.method);
                    ctx.metrics.status(resp.status);
                    resp.headers.push(("X-Request-Id".to_string(), rid));
                    ctx.config.pool.put(std::mem::take(&mut req.body));
                    let keep = !(close_requested || self.stopping);
                    if !keep {
                        resp.headers
                            .push(("Connection".to_string(), "close".to_string()));
                    }
                    let outbuf = self.conns[slot]
                        .as_mut()
                        .map(|conn| std::mem::take(&mut conn.outbuf))
                        .unwrap_or_default();
                    let enc = Encoder::new(&resp, &ChunkPolicy::disabled(), outbuf);
                    let body = std::mem::take(&mut resp.body);
                    self.queue_write(slot, WriteJob::new(enc, body, keep));
                    return;
                }
            }
        }
        // A malformed or absent X-SBQ-Trace is simply "no caller context":
        // the request is served normally, the server span becomes a root.
        let mut req_span = match req.trace_context() {
            Some(caller) => ctx
                .tracer
                .child_span_at("server.request", &caller, read_start),
            None => ctx.tracer.root_span("server.request"),
        };
        req_span.add_tag("req_id", &rid);
        req_span.add_tag("method", &req.method);
        let sctx = req_span.context();
        ctx.metrics.read.record(Some(&sctx), read_start, parsed);
        let meta = JobMeta {
            slot,
            token,
            idx,
            rid,
            close_requested,
            fault: ctx.config.faults.action_for(idx),
            dispatched: Instant::now(),
            read_start,
            req_span,
            sctx,
        };
        self.inflight_jobs += 1;
        let done = self.done_tx.clone();
        let reactor = Arc::clone(&self.reactor);
        if !self
            .pool
            .spawn(move || run_request_job(ctx, req, meta, done, reactor))
        {
            self.inflight_jobs -= 1;
            self.close_conn(slot);
        }
    }

    /// A CPU-pool job finished: stage its response for writing (or apply
    /// its scheduled fault).
    fn on_completion(&mut self, mut c: Completion) {
        self.inflight_jobs -= 1;
        let alive = self
            .conns
            .get(c.slot)
            .and_then(Option::as_ref)
            .is_some_and(|conn| conn.token == c.token);
        if !alive {
            return; // connection died while the handler ran
        }
        if self.conns[c.slot].as_ref().is_some_and(|conn| conn.dead) {
            self.close_conn(c.slot);
            return;
        }
        let policy = &self.ctx.config.chunking;
        match c.fault {
            Some(FaultAction::DropResponse) => {
                self.close_conn(c.slot);
            }
            Some(FaultAction::TruncateResponse(_)) | Some(FaultAction::CloseMidResponse) => {
                // Truncation faults are defined on wire offsets (including
                // mid-chunk offsets), so materialize the framed bytes.
                if policy.applies_to(c.resp.body.len()) {
                    self.ctx.metrics.chunked_tx.inc();
                }
                let mut bytes = c.resp.to_wire_bytes(policy);
                let n = match c.fault {
                    Some(FaultAction::TruncateResponse(n)) => n.min(bytes.len()),
                    _ => bytes.len() / 2,
                };
                bytes.truncate(n);
                let mut job = WriteJob::new(Encoder::raw(bytes), Vec::new(), false);
                job.req_span = c.req_span;
                job.sctx = c.sctx;
                self.queue_write(c.slot, job);
            }
            // Delays were applied in the job; anything else writes intact.
            _ => {
                let outbuf = self.conns[c.slot]
                    .as_mut()
                    .map(|conn| std::mem::take(&mut conn.outbuf))
                    .unwrap_or_default();
                let enc = Encoder::new(&c.resp, policy, outbuf);
                if enc.is_chunked() {
                    self.ctx.metrics.chunked_tx.inc();
                }
                let body = std::mem::take(&mut c.resp.body);
                let mut job = WriteJob::new(enc, body, !(c.close || self.stopping));
                job.req_span = c.req_span;
                job.sctx = c.sctx;
                self.queue_write(c.slot, job);
            }
        }
    }

    /// Best-effort error reply before closing: `413` for size-limit
    /// violations, `408` for a stalled sender, `400` for anything
    /// malformed. Even these carry an `X-Request-Id` (minted — the
    /// request never parsed, so there is no client id to echo).
    fn fail(&mut self, slot: usize, e: HttpError) {
        let idx = self.ctx.requests.fetch_add(1, Ordering::SeqCst);
        let (status, reason) = match &e {
            HttpError::TooLarge { .. } => (413, "Payload Too Large"),
            HttpError::Timeout(_) => (408, "Request Timeout"),
            HttpError::Protocol(_) => (400, "Bad Request"),
            HttpError::Transport(_) => {
                // Socket is gone; nothing to say.
                self.close_conn(slot);
                return;
            }
        };
        let mut resp = Response::with_status(
            status,
            reason,
            "text/plain; charset=utf-8",
            e.to_string().into(),
        );
        resp.headers
            .push(("X-Request-Id".to_string(), idx.to_string()));
        resp.headers
            .push(("Connection".to_string(), "close".to_string()));
        self.queue_write(
            slot,
            WriteJob::new(Encoder::raw(resp.to_bytes()), Vec::new(), false),
        );
    }

    /// Installs a write job on the connection and makes whatever progress
    /// the socket allows right now.
    fn queue_write(&mut self, slot: usize, job: WriteJob) {
        let write_to = self.ctx.config.write_timeout;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if let ConnState::Read(dec) = std::mem::replace(&mut conn.state, ConnState::Write(job))
            {
                self.ctx.config.pool.put(dec.into_body());
            }
            conn.read_start = None;
            arm_deadline(&mut self.wheel, conn, write_to);
        }
        self.drive_write(slot);
    }

    fn drive_write(&mut self, slot: usize) {
        let write_cap = self.ctx.config.faults.write_cap();
        let period = self.ctx.config.faults.interrupt_period();
        let mut finished = false;
        let mut broken = false;
        let mut progressed = false;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let ConnState::Write(job) = &mut conn.state else {
                return;
            };
            loop {
                let Some(slice) = job.enc.next(&job.body) else {
                    finished = true;
                    break;
                };
                let n = write_cap.map_or(slice.len(), |c| c.min(slice.len()));
                if inject_eintr(&mut self.io_ops, &mut self.just_intr, period) {
                    continue; // simulated EINTR: retry the same write
                }
                let mut dst = &conn.stream;
                let w = match dst.write(&slice[..n]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(w) => w,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                };
                job.enc.advance(w);
                progressed = true;
            }
            if !finished && !broken {
                set_interest(&self.reactor, conn, Interest::WRITABLE);
            }
        }
        if broken {
            self.close_conn(slot);
            return;
        }
        if finished {
            self.finish_write(slot);
        } else if progressed {
            let write_to = self.ctx.config.write_timeout;
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                arm_deadline(&mut self.wheel, conn, write_to);
            }
        }
    }

    fn finish_write(&mut self, slot: usize) {
        let keep = {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let ConnState::Write(job) = std::mem::replace(&mut conn.state, ConnState::Idle) else {
                return;
            };
            conn.timer_gen += 1; // cancel the write deadline
            if let Some(req_span) = job.req_span {
                self.ctx
                    .metrics
                    .write
                    .record(job.sctx.as_ref(), job.started, Instant::now());
                drop(req_span); // request span ends with its last byte
            }
            // The head scratch goes back on the connection, not to the
            // pool: the body put below is the only post-write pool
            // traffic, and nothing else consumes its class before the
            // event loop itself does.
            let mut head = job.enc.into_head();
            head.clear();
            conn.outbuf = head;
            self.ctx.config.pool.put(job.body);
            job.keep && !self.stopping
        };
        if !keep {
            self.close_conn(slot);
            return;
        }
        let leftover = self.conns[slot]
            .as_ref()
            .is_some_and(|c| !c.inbuf.is_empty());
        if leftover {
            // Pipelined bytes already buffered: go straight back to
            // parsing without waiting for another readiness event.
            self.process_input(slot, false);
        } else {
            self.enter_idle(slot);
        }
    }
}

/// Runs one request on a CPU-pool worker and reports the completion back
/// to the event loop.
fn run_request_job(
    ctx: Arc<Ctx>,
    mut req: Request,
    meta: JobMeta,
    done: Sender<Completion>,
    reactor: Arc<Reactor>,
) {
    let JobMeta {
        slot,
        token,
        idx,
        rid,
        close_requested,
        mut fault,
        dispatched,
        read_start,
        mut req_span,
        sctx,
    } = meta;
    ctx.metrics
        .queue_wait
        .record(Some(&sctx), dispatched, Instant::now());
    ctx.metrics.method(&req.method);
    let mut close = close_requested;
    let builtin = builtin_response(&ctx, &req);
    let served_builtin = builtin.is_some();
    let mut resp = match builtin {
        Some(resp) => resp,
        None => {
            // A panicking handler must not take a pool worker (and on a
            // small pool, the whole server) down with it: catch it and
            // answer 500, closing this connection only. The request id in
            // the body lets a client report which call blew up.
            ctx.metrics.inflight.inc();
            let mut handler = ctx.metrics.handler.start(Some(&sctx));
            let hctx = handler.span.context();
            let enabled = handler.span.is_enabled();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Lower layers (marshalling, QoS) parent their spans on
                // this thread-local context.
                let _guard = enabled.then(|| trace::set_current(hctx));
                (ctx.handler)(&req)
            }));
            if result.is_err() {
                handler.span.set_error();
            }
            drop(handler);
            ctx.metrics.inflight.dec();
            match result {
                Ok(resp) => resp,
                Err(_) => {
                    ctx.metrics.panics.inc();
                    close = true;
                    let mut resp = Response::with_status(
                        500,
                        "Internal Server Error",
                        "text/plain",
                        format!("handler panicked (request {idx})").into_bytes(),
                    );
                    resp.headers
                        .push(("Connection".to_string(), "close".to_string()));
                    resp
                }
            }
        }
    };
    ctx.metrics.status(resp.status);
    if !served_builtin {
        // One SLO observation per application request (first byte →
        // response ready); built-ins are excluded so scraping /metrics
        // cannot dilute the burn rate it reports. Tail latencies stamp
        // the trace id into the histogram's exemplar slots.
        let latency_us = read_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        ctx.metrics
            .request
            .record_with_exemplar(latency_us, sctx.trace_id);
        ctx.health.observe_request(resp.status < 500, latency_us);
    }
    resp.headers.push(("X-Request-Id".to_string(), rid));
    if let Some(h) = req_span.header_value() {
        resp.headers.push((trace::SPAN_HEADER.to_string(), h));
    }
    req_span.add_tag_u64("status", resp.status as u64);
    if resp.status >= 500 {
        req_span.set_error();
    }
    // The request body is done with: recycle it so the next request on
    // any connection reads into warm buffers.
    ctx.config.pool.put(std::mem::take(&mut req.body));
    if let Some(FaultAction::DelayResponse(d)) = fault {
        std::thread::sleep(d);
        fault = None;
    }
    let _ = done.send(Completion {
        slot,
        token,
        resp,
        req_span: Some(req_span),
        sctx: Some(sctx),
        close,
        fault,
    });
    reactor.wake();
}

/// The request id echoed on every response: the client-supplied
/// `X-Request-Id` when it is sane (non-empty, ≤ 128 bytes, printable
/// ASCII), else the server's monotonic request index.
fn request_id(req: &Request, idx: u64) -> String {
    match req.header("x-request-id").map(str::trim) {
        Some(v)
            if !v.is_empty() && v.len() <= 128 && v.bytes().all(|b| (0x20..0x7f).contains(&b)) =>
        {
            v.to_string()
        }
        _ => idx.to_string(),
    }
}

/// Built-in observability endpoints, served ahead of the application
/// handler: `GET /metrics` (text exposition), `GET /metrics.json`,
/// `GET /trace.json` (Chrome `trace_event` snapshot of the flight
/// recorder), `GET /trace.txt` (compact span-tree dump),
/// `GET /profile.json` (per-phase self-time profile of the flight
/// recorder), `GET /healthz` (liveness), and `GET /statusz` (readiness
/// plus SLO burn rates, watchdog state, proc gauges, and the slowlog;
/// `503` while unready). These paths are reserved — requests to them
/// never reach the handler.
/// Whether a request targets a reserved built-in endpoint (these bypass
/// admission control — shedding `/metrics` would blind operators to the
/// very overload doing the shedding, and a load balancer must be able
/// to read `/healthz` precisely when the server is drowning).
fn is_builtin_path(req: &Request) -> bool {
    req.method == "GET"
        && matches!(
            req.path.as_str(),
            "/metrics"
                | "/metrics.json"
                | "/trace.json"
                | "/trace.txt"
                | "/profile.json"
                | "/healthz"
                | "/statusz"
        )
}

fn builtin_response(ctx: &Ctx, req: &Request) -> Option<Response> {
    if req.method != "GET" {
        return None;
    }
    match req.path.as_str() {
        "/metrics" => Some(Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            ctx.config.telemetry.render_text().into_bytes(),
        )),
        "/metrics.json" => Some(Response::ok(
            "application/json",
            ctx.config.telemetry.render_json().into_bytes(),
        )),
        "/trace.json" => Some(Response::ok(
            "application/json",
            ctx.tracer.render_chrome_json().into_bytes(),
        )),
        "/trace.txt" => Some(Response::ok(
            "text/plain; charset=utf-8",
            ctx.tracer.render_text_dump().into_bytes(),
        )),
        "/profile.json" => Some(Response::ok(
            "application/json",
            ctx.config.telemetry.render_profile_json().into_bytes(),
        )),
        "/healthz" => Some(Response::ok(
            "text/plain; charset=utf-8",
            ctx.health.healthz_body().as_bytes().to_vec(),
        )),
        "/statusz" => {
            let body = ctx.health.statusz_json().into_bytes();
            Some(if ctx.health.ready() {
                Response::ok("application/json", body)
            } else {
                Response::with_status(503, "Service Unavailable", "application/json", body)
            })
        }
        _ => None,
    }
}

/// Handle to a running [`HttpServer`]; shuts the server down on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor: Arc<Reactor>,
    event_loop: Option<std::thread::JoinHandle<()>>,
    connections: Arc<AtomicU64>,
    ctx: Arc<Ctx>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.ctx.requests.load(Ordering::SeqCst)
    }

    /// Connections currently open (accepted and not yet closed).
    pub fn active_connections(&self) -> u64 {
        self.ctx.active.load(Ordering::SeqCst)
    }

    /// The server's runtime health monitor (watchdog state, SLO burn
    /// rates, slowlog) — what `/healthz` and `/statusz` serve.
    pub fn health(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.ctx.health)
    }

    /// Stops accepting, closes idle connections immediately, drains
    /// in-flight requests and responses, and joins the event loop (which
    /// in turn joins the CPU pool) before returning.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.reactor.wake();
        if let Some(t) = self.event_loop.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HttpClient;
    use std::io::Read;

    fn echo_server(config: ServerConfig) -> ServerHandle {
        HttpServer::bind_with("127.0.0.1:0".parse().unwrap(), config, |r: &Request| {
            Response::ok("text/plain", r.body.clone())
        })
        .unwrap()
    }

    #[test]
    fn admission_hook_sheds_from_the_event_loop() {
        use std::sync::atomic::AtomicBool;
        let shedding = Arc::new(AtomicBool::new(false));
        let reg = Registry::new();
        let flag = Arc::clone(&shedding);
        let config = ServerConfig::default().telemetry(reg.clone()).admission(
            move |_req: &Request, _load: &ServerLoad| {
                if flag.load(Ordering::SeqCst) {
                    let mut resp = Response::with_status(
                        503,
                        "Service Unavailable",
                        "text/plain",
                        b"shed".to_vec(),
                    );
                    resp.headers
                        .push(("Retry-After".to_string(), "1".to_string()));
                    Admission::Respond(resp)
                } else {
                    Admission::Admit
                }
            },
        );
        let handle = echo_server(config);
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        // Admitted while idle.
        let resp = client.post("/x", "text/plain", b"hi".to_vec()).unwrap();
        assert_eq!(resp.status, 200);
        // Shed once the hook says overloaded — and the keep-alive
        // connection survives the 503 to carry later calls.
        shedding.store(true, Ordering::SeqCst);
        let resp = client.post("/x", "text/plain", b"hi".to_vec()).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(resp.header("x-request-id").is_some());
        assert_eq!(resp.body, b"shed");
        // Built-in observability is exempt from admission.
        let metrics = client.send(Request::get("/metrics")).unwrap();
        assert_eq!(metrics.status, 200);
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(
            text.contains("http_admission_shed 1"),
            "shed counted once: {text}"
        );
        shedding.store(false, Ordering::SeqCst);
        let resp = client.post("/x", "text/plain", b"back".to_vec()).unwrap();
        assert_eq!(resp.status, 200, "same connection serves again");
        assert_eq!(reg.counter("http.admission.shed").get(), 1);
    }

    #[test]
    fn counts_connections_and_requests() {
        let handle = echo_server(ServerConfig::default());
        let mut c1 = HttpClient::connect(handle.addr()).unwrap();
        let mut c2 = HttpClient::connect(handle.addr()).unwrap();
        for _ in 0..3 {
            c1.post("/a", "text/plain", b"x".to_vec()).unwrap();
            c2.post("/b", "text/plain", b"y".to_vec()).unwrap();
        }
        assert_eq!(handle.connections(), 2);
        assert_eq!(handle.requests(), 6);
        assert_eq!(handle.active_connections(), 2);
    }

    #[test]
    fn connection_close_honored() {
        let handle = echo_server(ServerConfig::default());
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let mut req = Request::post("/x", "text/plain", b"bye".to_vec());
        req.headers
            .push(("Connection".to_string(), "close".to_string()));
        let resp = client.send(req).unwrap();
        assert_eq!(resp.body, b"bye");
        // The server closed; the next request fails.
        std::thread::sleep(Duration::from_millis(50));
        assert!(client.post("/y", "text/plain", b"?".to_vec()).is_err());
    }

    #[test]
    fn shutdown_stops_accepting_and_joins() {
        let mut handle = echo_server(ServerConfig::default());
        let addr = handle.addr();
        handle.shutdown();
        assert!(handle.event_loop.is_none(), "event loop joined");
        assert_eq!(handle.active_connections(), 0);
        // Either connect fails or the request after it fails.
        if let Ok(mut c) = HttpClient::connect(addr) {
            assert!(c.post("/", "text/plain", vec![]).is_err());
        }
    }

    #[test]
    fn shutdown_drains_open_connections() {
        let mut handle = echo_server(ServerConfig::default());
        let clients: Vec<_> = (0..4)
            .map(|_| HttpClient::connect(handle.addr()).unwrap())
            .collect();
        // Give the event loop a beat to register the connections.
        let t0 = Instant::now();
        while handle.active_connections() < 4 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.active_connections(), 4);
        handle.shutdown();
        assert_eq!(handle.active_connections(), 0, "drained on shutdown");
        drop(clients);
    }

    #[test]
    fn small_pool_multiplexes_many_keepalive_connections() {
        // 2 CPU workers, 8 concurrent persistent connections: thread-per-
        // connection semantics would need 8 threads; the reactor must
        // interleave them without deadlock.
        let handle = echo_server(ServerConfig::default().worker_threads(2));
        let addr = handle.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = HttpClient::connect(addr).unwrap();
                    for j in 0..5 {
                        let body = format!("c{i} r{j}").into_bytes();
                        let r = c.post("/m", "text/plain", body.clone()).unwrap();
                        assert_eq!(r.body, body);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handle.requests(), 40);
    }

    #[test]
    fn malformed_request_gets_400() {
        let handle = echo_server(ServerConfig::default());
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"NOT VALID HTTP AT ALL\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap(); // server responds then closes
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");
    }

    #[test]
    fn oversized_body_gets_413() {
        let handle = echo_server(ServerConfig::default().max_body_bytes(64));
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n")
            .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 413"), "got: {text}");
    }

    #[test]
    fn oversized_headers_get_413() {
        let handle = echo_server(ServerConfig::default().max_header_bytes(128));
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let big = format!("POST /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(1000));
        s.write_all(big.as_bytes()).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 413"), "got: {text}");
    }

    #[test]
    fn stalled_request_gets_408() {
        let handle = echo_server(ServerConfig::default().read_timeout(Duration::from_millis(60)));
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        // Start a request but never finish the headers.
        s.write_all(b"POST /x HTTP/1.1\r\nContent-Le").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 408"), "got: {text}");
    }

    #[test]
    fn keep_alive_idle_timeout_closes() {
        let handle =
            echo_server(ServerConfig::default().keep_alive_timeout(Duration::from_millis(80)));
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        client.post("/a", "text/plain", b"1".to_vec()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            client.post("/b", "text/plain", b"2".to_vec()).is_err(),
            "idle connection should have been closed"
        );
    }

    #[test]
    fn keep_alive_max_idle_reaps_parked_connections() {
        let reg = Registry::new();
        let handle = echo_server(
            ServerConfig::default()
                .telemetry(reg.clone())
                .keep_alive_timeout(Duration::from_secs(60))
                .keep_alive_max_idle(Duration::from_millis(60)),
        );
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        client.post("/a", "text/plain", b"1".to_vec()).unwrap();
        // The 60 ms idle cap beats the 60 s keep-alive: the parked
        // connection is reaped and its buffers released.
        let t0 = Instant::now();
        while handle.active_connections() > 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(handle.active_connections(), 0, "idle connection reaped");
        assert_eq!(reg.gauge("http.connections.idle").get(), 0);
        assert!(reg.counter("reactor.timeouts").get() >= 1);
        assert!(
            client.post("/b", "text/plain", b"2".to_vec()).is_err(),
            "reaped connection is closed"
        );
    }

    #[test]
    fn connection_and_reactor_metrics_are_exposed() {
        let reg = Registry::new();
        let handle = echo_server(ServerConfig::default().telemetry(reg.clone()));
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        c.post("/x", "text/plain", b"hi".to_vec()).unwrap();
        let resp = c.send(Request::get("/metrics")).unwrap();
        let text = String::from_utf8(resp.body).unwrap();
        let samples = sbq_telemetry::expo::parse_text(&text).expect("exposition parses");
        let get = |n: &str| {
            samples
                .iter()
                .find(|s| s.name == n && s.quantile.is_none())
                .unwrap_or_else(|| panic!("missing {n} in:\n{text}"))
                .value
        };
        assert_eq!(get("http_connections_accepted"), 1.0);
        assert_eq!(get("http_connections_open"), 1.0);
        assert_eq!(get("http_connections_idle"), 0.0, "mid-request, not idle");
        assert!(get("reactor_events") >= 1.0);
        assert!(get("reactor_wakeups") >= 1.0, "job completions wake");
        drop(c);
        let t0 = Instant::now();
        while reg.counter("http.connections.closed").get() < 1
            && t0.elapsed() < Duration::from_secs(2)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reg.counter("http.connections.closed").get(), 1);
        assert_eq!(reg.gauge("http.connections.open").get(), 0);
    }

    #[test]
    fn response_survives_one_byte_writes_with_eintr() {
        let handle = echo_server(
            ServerConfig::default().faults(FaultSchedule::new().short_writes(1).interrupt_every(3)),
        );
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        let body: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let r = c.post("/x", "text/plain", body.clone()).unwrap();
        assert_eq!(r.body, body, "response intact despite 1-byte writes");
        // Keep-alive still works under shaping.
        let r = c.post("/y", "text/plain", b"again".to_vec()).unwrap();
        assert_eq!(r.body, b"again");
    }

    #[test]
    fn request_survives_shaped_short_reads() {
        let handle =
            echo_server(ServerConfig::default().faults(FaultSchedule::new().short_reads(3)));
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        let body: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let r = c.post("/x", "text/plain", body.clone()).unwrap();
        assert_eq!(r.body, body);
    }

    #[test]
    fn fault_drop_response_closes_without_reply() {
        let handle = echo_server(
            ServerConfig::default().faults(FaultSchedule::new().at(0, FaultAction::DropResponse)),
        );
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let err = client.post("/a", "text/plain", b"x".to_vec()).unwrap_err();
        assert!(matches!(err, HttpError::Protocol(_)), "{err}");
        // Only the first request is faulted; a fresh connection succeeds.
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let r = client.post("/a", "text/plain", b"x".to_vec()).unwrap();
        assert_eq!(r.body, b"x");
    }

    #[test]
    fn fault_truncate_breaks_the_response() {
        let handle = echo_server(
            ServerConfig::default()
                .faults(FaultSchedule::new().at(0, FaultAction::TruncateResponse(7))),
        );
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        assert!(client
            .post("/a", "text/plain", b"0123456789".to_vec())
            .is_err());
    }

    #[test]
    fn fault_delay_holds_the_response() {
        let handle = echo_server(ServerConfig::default().faults(
            FaultSchedule::new().at(0, FaultAction::DelayResponse(Duration::from_millis(120))),
        ));
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let t0 = Instant::now();
        let r = client.post("/a", "text/plain", b"x".to_vec()).unwrap();
        assert_eq!(r.body, b"x");
        assert!(t0.elapsed() >= Duration::from_millis(120));
    }

    #[test]
    fn panic_response_carries_the_request_id() {
        let reg = Registry::new();
        let handle = HttpServer::bind_with(
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default().telemetry(reg.clone()),
            |r: &Request| {
                if r.path == "/boom" {
                    panic!("kaboom");
                }
                Response::ok("text/plain", r.body.clone())
            },
        )
        .unwrap();
        // Two good requests first, so the panicking one has a nonzero id.
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        c.post("/ok", "text/plain", b"1".to_vec()).unwrap();
        c.post("/ok", "text/plain", b"2".to_vec()).unwrap();
        let resp = c.post("/boom", "text/plain", vec![]).unwrap();
        assert_eq!(resp.status, 500);
        assert_eq!(resp.body, b"handler panicked (request 2)");
        assert_eq!(resp.header("x-request-id"), Some("2"));
        assert_eq!(reg.counter("http.panics").get(), 1);
        // The connection closed; later requests on new connections still
        // get monotonically increasing ids.
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        let resp = c.post("/boom", "text/plain", vec![]).unwrap();
        assert_eq!(resp.body, b"handler panicked (request 3)");
        assert_eq!(reg.counter("http.panics").get(), 2);
    }

    #[test]
    fn metrics_endpoints_expose_live_counters() {
        let reg = Registry::new();
        let handle = HttpServer::bind_with(
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default().telemetry(reg.clone()),
            |r: &Request| Response::ok("text/plain", r.body.clone()),
        )
        .unwrap();
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        for _ in 0..5 {
            c.post("/x", "text/plain", b"hi".to_vec()).unwrap();
        }
        let resp = c.send(Request::get("/metrics")).unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        let samples = sbq_telemetry::expo::parse_text(&text).expect("exposition parses");
        let get = |n: &str| {
            samples
                .iter()
                .find(|s| s.name == n && s.quantile.is_none())
                .unwrap_or_else(|| panic!("missing {n} in:\n{text}"))
                .value
        };
        assert_eq!(get("http_requests_post"), 5.0);
        // The /metrics GET itself was counted before rendering.
        assert!(get("http_requests_get") >= 1.0);
        assert_eq!(get("http_status_2xx"), 5.0);
        assert_eq!(get("http_connections_active"), 1.0);
        assert!(get("http_read_ns_count") >= 5.0);
        assert!(get("http_write_ns_count") >= 5.0);
        assert_eq!(
            get("http_handler_ns_count"),
            5.0,
            "metrics GET skips handler"
        );

        let resp = c.send(Request::get("/metrics.json")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        let json = String::from_utf8(resp.body).unwrap();
        assert!(json.contains("\"http.requests.post\":5"), "{json}");
        assert!(json.contains("\"http.queue_wait_ns\":{"), "{json}");
    }

    #[test]
    fn disabled_telemetry_still_serves_metrics_paths() {
        let handle = HttpServer::bind_with(
            "127.0.0.1:0".parse().unwrap(),
            ServerConfig::default().telemetry(Registry::disabled()),
            |r: &Request| Response::ok("text/plain", r.body.clone()),
        )
        .unwrap();
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        let resp = c.send(Request::get("/metrics")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"# telemetry disabled\n");
        let resp = c.send(Request::get("/metrics.json")).unwrap();
        assert_eq!(resp.body, b"{\"enabled\":false}");
    }

    #[test]
    fn every_response_carries_a_request_id() {
        let handle = echo_server(ServerConfig::default());
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        // Minted on a plain request (monotonic index).
        let resp = c.post("/a", "text/plain", b"x".to_vec()).unwrap();
        assert_eq!(resp.header("x-request-id"), Some("0"));
        // Builtin endpoints carry one too.
        let resp = c.send(Request::get("/metrics")).unwrap();
        assert_eq!(resp.header("x-request-id"), Some("1"));
        // A client-supplied id is echoed, not replaced.
        let mut req = Request::post("/b", "text/plain", b"y".to_vec());
        req.headers
            .push(("X-Request-Id".to_string(), "client-abc-123".to_string()));
        let resp = c.send(req).unwrap();
        assert_eq!(resp.header("x-request-id"), Some("client-abc-123"));
        // A hostile id (oversized) is replaced with a minted one.
        let mut req = Request::post("/c", "text/plain", b"z".to_vec());
        req.headers
            .push(("X-Request-Id".to_string(), "x".repeat(500)));
        let resp = c.send(req).unwrap();
        assert_eq!(resp.header("x-request-id"), Some("3"));
    }

    #[test]
    fn error_responses_carry_a_request_id() {
        let handle = echo_server(ServerConfig::default().max_body_bytes(64));
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n")
            .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 413"), "got: {text}");
        assert!(
            text.to_ascii_lowercase().contains("x-request-id:"),
            "{text}"
        );
    }

    #[test]
    fn malformed_trace_header_is_ignored_never_400() {
        let reg = Registry::new();
        let handle = echo_server(ServerConfig::default().telemetry(reg.clone()));
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        for bad in [
            "not-a-context".to_string(),
            String::new(),
            "00-zzzz-yyyy-01".to_string(),
            "x".repeat(10_000), // oversized (but under the header cap)
            "00-00000000000000000000000000000000-0000000000000000-01".to_string(),
        ] {
            let mut req = Request::post("/x", "text/plain", b"hi".to_vec());
            req.headers.push(("X-SBQ-Trace".to_string(), bad));
            let resp = c.send(req).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, b"hi");
            // No caller context → the server span is a fresh root, and
            // the response still reports it.
            assert!(resp.server_span().is_some());
        }
    }

    #[test]
    fn wellformed_trace_header_is_adopted_and_echoed() {
        let reg = Registry::new();
        let handle = echo_server(ServerConfig::default().telemetry(reg.clone()));
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        let caller = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
        let mut req = Request::post("/x", "text/plain", b"hi".to_vec());
        req.headers
            .push(("X-SBQ-Trace".to_string(), caller.to_string()));
        let resp = c.send(req).unwrap();
        let span = resp.server_span().expect("server reports its span");
        assert_eq!(span.trace_id, 0x4bf92f3577b34da6a3ce929d0e0e4736);
        assert_ne!(span.span_id, 0x00f067aa0ba902b7, "fresh server span id");
        assert!(span.sampled());
        // The recorded server spans share the caller's trace id. The
        // response is written before the event loop finishes recording
        // its spans, so allow the recorder a moment to catch up.
        let deadline = Instant::now() + Duration::from_secs(2);
        let events = loop {
            let events = reg.tracer().snapshot();
            let have_all = ["server.request", "server.write"]
                .iter()
                .all(|n| events.iter().any(|e| e.name == *n));
            if have_all || Instant::now() >= deadline {
                break events;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let req_span = events
            .iter()
            .find(|e| e.name == "server.request")
            .expect("server.request recorded");
        assert_eq!(req_span.trace_id, 0x4bf92f3577b34da6a3ce929d0e0e4736);
        assert_eq!(req_span.parent_id, 0x00f067aa0ba902b7);
        for phase in [
            "server.queue_wait",
            "server.read",
            "server.handler",
            "server.write",
        ] {
            let e = events
                .iter()
                .find(|e| e.name == phase)
                .unwrap_or_else(|| panic!("{phase} missing"));
            assert_eq!(e.trace_id, req_span.trace_id);
            assert_eq!(e.parent_id, req_span.span_id, "{phase} parents on request");
        }
    }

    #[test]
    fn trace_json_endpoint_serves_valid_chrome_json() {
        let reg = Registry::new();
        let handle = echo_server(ServerConfig::default().telemetry(reg.clone()));
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        c.post("/x", "text/plain", b"hi".to_vec()).unwrap();
        let resp = c.send(Request::get("/trace.json")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        let json = String::from_utf8(resp.body).unwrap();
        sbq_telemetry::expo::validate_json(&json).expect("trace.json validates");
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"server.request\""));
        let resp = c.send(Request::get("/trace.txt")).unwrap();
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("server.request"));
    }

    #[test]
    fn disabled_telemetry_trace_json_is_empty_but_valid() {
        let handle = echo_server(ServerConfig::default().telemetry(Registry::disabled()));
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        c.post("/x", "text/plain", b"hi".to_vec()).unwrap();
        let resp = c.send(Request::get("/trace.json")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        // Responses still carry request ids with telemetry off.
        assert_eq!(resp.header("x-request-id"), Some("1"));
        // But no span header: there is nothing to stitch.
        assert_eq!(resp.server_span(), None);
    }

    #[test]
    fn wildcard_bind_shutdown_does_not_hang() {
        let mut handle = HttpServer::bind("0.0.0.0:0".parse().unwrap(), |r: &Request| {
            Response::ok("text/plain", r.body.clone())
        })
        .unwrap();
        let t0 = Instant::now();
        handle.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown hung on wildcard bind"
        );
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let handle = echo_server(ServerConfig::default());
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        // Two requests in one write: the second must be served from the
        // leftover input buffer without another readiness event.
        let mut wire = Vec::new();
        wire.extend_from_slice(&Request::post("/1", "text/plain", b"one".to_vec()).to_bytes());
        wire.extend_from_slice(&Request::post("/2", "text/plain", b"two".to_vec()).to_bytes());
        s.write_all(&wire).unwrap();
        // Both responses may arrive in one read: the decoder stops at the
        // end of the first and picks the second up from the leftover.
        let pool = BufferPool::new();
        let mut dec = Decoder::<Response>::new(Limits::default());
        let mut bodies = Vec::new();
        let mut buf = [0u8; 4096];
        while bodies.len() < 2 {
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0, "server closed before both responses");
            let mut at = 0;
            while at < n {
                at += dec.feed(&buf[at..n], &pool).unwrap();
                bodies.extend(dec.take().map(|r| r.body));
            }
        }
        assert_eq!(bodies, [b"one", b"two"]);
    }

    #[test]
    fn malformed_field_names_get_400() {
        let handle = echo_server(ServerConfig::default());
        for bad in [
            "Content-Length : 3",
            "Transfer-Encoding : chunked",
            " Content-Length: 3",
            ": v",
            "Bad Name: v",
        ] {
            let mut s = TcpStream::connect(handle.addr()).unwrap();
            s.write_all(format!("POST /x HTTP/1.1\r\nHost: x\r\n{bad}\r\n\r\nabc").as_bytes())
                .unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).unwrap();
            let text = String::from_utf8_lossy(&buf);
            assert!(text.starts_with("HTTP/1.1 400"), "{bad:?} got: {text}");
        }
        // The server stays healthy.
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        assert_eq!(
            c.post("/x", "text/plain", b"ok".to_vec()).unwrap().body,
            b"ok"
        );
    }

    #[test]
    fn watchdog_catches_injected_event_loop_stall() {
        let reg = Registry::new();
        let handle = echo_server(
            ServerConfig::default()
                .telemetry(reg.clone())
                .health(
                    HealthConfig::new()
                        .loop_lag_budget(Duration::from_millis(100))
                        .heartbeat_period(Duration::from_millis(25))
                        .without_proc_sampler(),
                )
                .faults(FaultSchedule::new().stall_event_loop(1, Duration::from_millis(400))),
        );
        let health = handle.health();
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        c.post("/a", "text/plain", b"0".to_vec()).unwrap();
        // Request 1 freezes the event loop for 400 ms at dispatch — the
        // response still arrives, but the heartbeat due during the
        // freeze fires late and must trip the watchdog.
        let r = c.post("/a", "text/plain", b"1".to_vec()).unwrap();
        assert_eq!(r.body, b"1");
        let t0 = Instant::now();
        while reg.counter("reactor.stalls").get() == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            reg.counter("reactor.stalls").get(),
            1,
            "latched exactly once"
        );
        // The next on-time beat clears the latch without re-counting.
        let t0 = Instant::now();
        while reg.gauge("reactor.stalled").get() != 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reg.gauge("reactor.stalled").get(), 0, "latch cleared");
        assert_eq!(reg.counter("reactor.stalls").get(), 1, "one episode only");
        let log = health.slowlog().entries();
        assert!(log.iter().any(|e| e.kind == "reactor.stall"), "{log:?}");
        assert!(log.iter().any(|e| e.kind == "reactor.recovered"), "{log:?}");
        // The stall dominates the lag histogram's tail.
        let lag = reg.histogram("reactor.loop_lag_us").snapshot();
        assert!(
            lag.quantile(0.99) >= 100_000,
            "p99 lag {}us should reflect the 400ms stall",
            lag.quantile(0.99)
        );
    }

    #[test]
    fn health_endpoints_serve_liveness_readiness_and_profile() {
        let reg = Registry::new();
        let handle = echo_server(ServerConfig::default().telemetry(reg.clone()));
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        c.post("/x", "text/plain", b"hi".to_vec()).unwrap();
        let resp = c.send(Request::get("/healthz")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok\n");
        let resp = c.send(Request::get("/statusz")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        let json = String::from_utf8(resp.body).unwrap();
        sbq_telemetry::expo::validate_json(&json).expect("statusz validates");
        assert!(json.contains("\"ready\":true"), "{json}");
        assert!(json.contains("\"availability_burn\""), "{json}");
        assert!(json.contains("\"rss_bytes\""), "{json}");
        let resp = c.send(Request::get("/profile.json")).unwrap();
        assert_eq!(resp.status, 200);
        let json = String::from_utf8(resp.body).unwrap();
        sbq_telemetry::expo::validate_json(&json).expect("profile validates");
        assert!(json.contains("\"server.handler\""), "{json}");

        // With telemetry disabled the endpoints still answer (inert
        // monitor, no sampler thread) instead of falling through to the
        // application handler.
        let handle = echo_server(ServerConfig::default().telemetry(Registry::disabled()));
        assert!(!handle.health().is_enabled());
        assert!(!handle.health().sampler_running());
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        let resp = c.send(Request::get("/healthz")).unwrap();
        assert_eq!(resp.body, b"ok\n");
        let resp = c.send(Request::get("/statusz")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"ready\":true,\"enabled\":false}");
        let resp = c.send(Request::get("/profile.json")).unwrap();
        assert_eq!(resp.body, b"{\"spans\":0,\"phases\":[]}");
    }

    #[test]
    fn request_latency_exemplars_resolve_to_recorded_traces() {
        let reg = Registry::new();
        let handle = echo_server(ServerConfig::default().telemetry(reg.clone()));
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        for i in 0..5 {
            c.post("/x", "text/plain", vec![b'a'; 100 * (i + 1)])
                .unwrap();
        }
        let resp = c.send(Request::get("/metrics")).unwrap();
        let text = String::from_utf8(resp.body).unwrap();
        let samples = sbq_telemetry::expo::parse_text(&text).expect("exposition parses");
        let (hex, _value) = samples
            .iter()
            .find(|s| s.name == "http_request_us_max")
            .and_then(|s| s.exemplar.clone())
            .expect("http.request_us tail carries a trace-id exemplar");
        // The exemplar's trace id must resolve to spans in the flight
        // recorder — both directly and via the /trace.json rendering.
        let tid = u128::from_str_radix(&hex, 16).unwrap();
        assert!(
            reg.tracer().snapshot().iter().any(|e| e.trace_id == tid),
            "exemplar trace {hex} not in the flight recorder"
        );
        let resp = c.send(Request::get("/trace.json")).unwrap();
        let json = String::from_utf8(resp.body).unwrap();
        assert!(
            json.contains(&format!("\"trace\":\"{hex}\"")),
            "exemplar trace {hex} not in /trace.json"
        );
    }

    #[test]
    fn admission_hook_receives_health_snapshot() {
        use std::sync::atomic::AtomicBool;
        let saw_health = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&saw_health);
        let config = ServerConfig::default()
            .telemetry(Registry::new())
            .admission(move |_req: &Request, load: &ServerLoad| {
                let h = load.health.expect("health snapshot present");
                assert!(!h.red && !h.stalled, "fresh server is healthy");
                flag.store(true, Ordering::SeqCst);
                Admission::Admit
            });
        let handle = echo_server(config);
        let mut c = HttpClient::connect(handle.addr()).unwrap();
        c.post("/x", "text/plain", b"hi".to_vec()).unwrap();
        assert!(saw_health.load(Ordering::SeqCst));
    }
}
