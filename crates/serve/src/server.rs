//! The fail-operational design server.
//!
//! A [`DesignServer`] listens on a Unix-domain socket — and, when
//! [`ServerConfig::tcp_addr`] is set, a TCP socket beside it — and executes
//! design / sweep / campaign jobs on a bounded worker pool, wrapped in four
//! robustness layers:
//!
//! 1. **Deadlines** — a watchdog thread flips a per-request [`CancelToken`]
//!    when the deadline expires; the token is threaded into the exact
//!    allocator's node checkpoints, the fleet designer's item boundaries and
//!    the campaign's scenario boundaries, so a hostile job stops within one
//!    unit of work. If a worker stalls anyway (chaos does this on purpose),
//!    the connection handler still answers: it waits at most
//!    `deadline + grace` before producing a structured
//!    [`ErrorKind::DeadlineExceeded`].
//! 2. **Graceful degradation** — exact-search cuts (deadline or node
//!    budget) fall back to the greedy incumbent and are reported with
//!    `certified_optimal = false`; a cut sweep returns its completed prefix
//!    with `complete = false`. Degraded never masquerades as exact.
//! 3. **Load shedding** — the job queue is a bounded `sync_channel`; when
//!    it is full the request is answered [`Outcome::Busy`] immediately
//!    instead of queueing without bound. Memory is O(queue depth), not
//!    O(open connections).
//! 4. **Panic isolation** — worker jobs run under `catch_unwind`; a panic
//!    becomes a structured [`ErrorKind::WorkerPanic`] response, the worker
//!    thread survives, and the artifact cache is completed-with-error so
//!    single-flight joiners are never stranded and no partial artifact is
//!    cached.
//!
//! Layers 1 and 3 govern the *queued computations*. A design request whose
//! artifact is already cached computes nothing, so its connection handler
//! answers it from the artifact cache, without queueing it or waking a
//! worker: such a hit is never shed as `Busy`, never waits behind a
//! computation and cannot expire. A hit whose chaos plan schedules a
//! worker-side fault (panic or stall) is still queued, so the fault
//! schedule holds.
//!
//! Both transports share one accept path: `accept_loop` and
//! `handle_connection` are generic over the stream (`Read + Write`), so the
//! Unix and TCP listeners differ only in how a connection is produced. The
//! accept loop backs off (capped exponential sleep) on persistent accept
//! errors — EMFILE must not pin a core — and every live handler is tracked
//! in a registry so [`ServerHandle::shutdown`] is quiescent (no handler
//! mid-write) before the listening sockets are removed.
//!
//! A campaign request with `progress_every > 0` is answered as a *stream*:
//! zero or more non-terminal [`Outcome::Progress`] frames (per-family
//! statistics snapshots) followed by exactly one terminal frame that is
//! bit-identical to the single response a non-streamed request would get.
//! When the client stops reading (drops its stream), the next progress
//! write fails and the handler fires the job's [`CancelToken`] — early
//! cancellation costs at most one emission interval of extra compute.
//!
//! Everything is `std` — threads, channels, condvars — because the build
//! environment has no async runtime. Nominal-path responses (no deadline
//! pressure, no chaos) are bit-identical to calling the design pipeline
//! directly: the wire format round-trips every `f64` by bit pattern and the
//! server adds no arithmetic of its own.

use crate::cache::{ArtifactCache, CacheOutcome, DesignArtifact};
use crate::chaos::{ChaosConfig, ChaosPlan};
use crate::protocol::{
    content_hash, read_frame, write_frame, CampaignJob, CampaignProgress, CampaignResult,
    DesignJob, DesignResult, ErrorKind, FamilyProgress, FamilyReadout, Job, Outcome, Request,
    Response, SweepJob, SweepResult, SweepRow, WireError, WireReader,
};
use cps_core::BusConfigSweep;
use cps_core::{
    ApplicationSpec, CampaignStats, CoreError, FleetDesigner, RobustnessCampaign, RobustnessSweep,
};
use cps_flexray::FlexRayConfig;
use cps_sched::{AllocatorConfig, CancelToken, PortfolioAllocator, PortfolioConfig, SchedError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server configuration. The defaults favour test determinism over
/// throughput; production callers tune `workers` and `queue_depth`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path (a stale file is removed on bind).
    pub socket_path: PathBuf,
    /// Optional TCP listen address served *beside* the Unix socket; both
    /// transports feed the same worker pool, cache and stats. Bind to port
    /// 0 and read the resolved address from [`ServerHandle::tcp_addr`].
    pub tcp_addr: Option<SocketAddr>,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue sheds with [`Outcome::Busy`].
    /// Only requests that compute something are queued: a design request
    /// served from the artifact cache is answered by its connection handler
    /// and never occupies (or is shed by) the queue.
    pub queue_depth: usize,
    /// Artifact-cache capacity (design artifacts, LRU).
    pub cache_capacity: usize,
    /// Extra wait beyond a request's deadline before the handler gives up
    /// on its worker and answers `DeadlineExceeded` itself.
    pub grace: Duration,
    /// Fault injection; `None` disables chaos entirely.
    pub chaos: Option<ChaosConfig>,
    /// Worker threads of each exact-allocation portfolio search (design
    /// jobs and sweep candidates alike); `0` (the default) uses the
    /// machine's available parallelism. Any setting yields bit-identical
    /// answers — parallelism only changes how fast a search finishes
    /// inside its deadline and node budget, which aggregate across the
    /// workers of one search.
    pub allocator_threads: usize,
}

impl ServerConfig {
    /// A configuration with defaults (Unix transport only, 2 workers,
    /// queue depth 16, cache 32, 2 s grace, no chaos).
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket_path: socket_path.into(),
            tcp_addr: None,
            workers: 2,
            queue_depth: 16,
            cache_capacity: 32,
            grace: Duration::from_secs(2),
            chaos: None,
            allocator_threads: 0,
        }
    }
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (both transports).
    pub connections: u64,
    /// `accept()` failures absorbed by the backoff loop.
    pub accept_errors: u64,
    /// Requests decoded.
    pub requests: u64,
    /// Requests shed with [`Outcome::Busy`].
    pub shed: u64,
    /// Design artifacts actually computed (cache misses that led).
    pub designs_computed: u64,
    /// Requests served from the artifact cache.
    pub cache_hits: u64,
    /// Requests that joined another request's in-flight computation.
    pub deduped: u64,
    /// Worker panics isolated by `catch_unwind`.
    pub worker_panics: u64,
    /// Requests that terminated with `DeadlineExceeded`.
    pub deadline_expired: u64,
    /// Malformed frames / payloads rejected.
    pub protocol_errors: u64,
    /// Non-terminal [`Outcome::Progress`] frames written.
    pub progress_frames: u64,
    /// Streams cancelled because the client stopped reading mid-campaign.
    pub streams_cancelled: u64,
}

#[derive(Default)]
struct ServerStats {
    connections: AtomicU64,
    accept_errors: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    designs_computed: AtomicU64,
    cache_hits: AtomicU64,
    deduped: AtomicU64,
    worker_panics: AtomicU64,
    deadline_expired: AtomicU64,
    protocol_errors: AtomicU64,
    progress_frames: AtomicU64,
    streams_cancelled: AtomicU64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            designs_computed: self.designs_computed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            progress_frames: self.progress_frames.load(Ordering::Relaxed),
            streams_cancelled: self.streams_cancelled.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// A closure that force-closes a connection from another thread (shutdown
/// uses it to wake handlers blocked in `read`).
type Closer = Box<dyn Fn() + Send + Sync>;

/// A listener the generic accept loop can drive. The stream only needs
/// `Read + Write` — the framing in [`crate::protocol`] is already
/// transport-agnostic — plus a way to mint a [`Closer`].
trait ServeTransport: Send + 'static {
    /// The connection stream this transport produces.
    type Stream: Read + Write + Send + 'static;
    /// Accepts one connection.
    fn accept_stream(&self) -> std::io::Result<Self::Stream>;
    /// A handle that forces `stream` closed from another thread; `None`
    /// when the handle cannot be cloned (the handler then exits on its own
    /// at the next read).
    fn closer(stream: &Self::Stream) -> Option<Closer>;
}

impl ServeTransport for UnixListener {
    type Stream = UnixStream;

    fn accept_stream(&self) -> std::io::Result<UnixStream> {
        self.accept().map(|(stream, _)| stream)
    }

    fn closer(stream: &UnixStream) -> Option<Closer> {
        let clone = stream.try_clone().ok()?;
        Some(Box::new(move || {
            let _ = clone.shutdown(Shutdown::Both);
        }))
    }
}

impl ServeTransport for TcpListener {
    type Stream = TcpStream;

    fn accept_stream(&self) -> std::io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        // Request/response frames are small and latency-bound; never trade
        // a frame's latency for Nagle coalescing.
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn closer(stream: &TcpStream) -> Option<Closer> {
        let clone = stream.try_clone().ok()?;
        Some(Box::new(move || {
            let _ = clone.shutdown(Shutdown::Both);
        }))
    }
}

// ---------------------------------------------------------------------------
// Handler registry (quiescent shutdown)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct HandlerState {
    next: u64,
    live: HashMap<u64, Option<Closer>>,
}

/// Tracks live connection handlers so shutdown can (a) force their streams
/// closed — waking any handler blocked in `read` — and (b) wait until every
/// handler has actually exited before the listening sockets are removed.
#[derive(Default)]
struct Handlers {
    state: Mutex<HandlerState>,
    quiesced: Condvar,
}

impl Handlers {
    fn lock(&self) -> std::sync::MutexGuard<'_, HandlerState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn register(&self, closer: Option<Closer>) -> u64 {
        let mut state = self.lock();
        let id = state.next;
        state.next += 1;
        state.live.insert(id, closer);
        id
    }

    fn deregister(&self, id: u64) {
        let mut state = self.lock();
        state.live.remove(&id);
        if state.live.is_empty() {
            self.quiesced.notify_all();
        }
    }

    fn live(&self) -> usize {
        self.lock().live.len()
    }

    /// Force-closes every live handler's stream (wakes blocked reads with
    /// EOF / an error).
    fn close_all(&self) {
        let state = self.lock();
        for closer in state.live.values().flatten() {
            closer();
        }
    }

    /// Waits until every handler has exited, or `timeout` elapses. Returns
    /// whether quiescence was reached.
    fn wait_quiescent(&self, timeout: Duration) -> bool {
        let give_up = Instant::now() + timeout;
        let mut state = self.lock();
        while !state.live.is_empty() {
            let now = Instant::now();
            if now >= give_up {
                return false;
            }
            state = self
                .quiesced
                .wait_timeout(state, give_up - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
        true
    }
}

/// Deregisters a handler even if `handle_connection` panics.
struct HandlerGuard<'a> {
    handlers: &'a Handlers,
    id: u64,
}

impl Drop for HandlerGuard<'_> {
    fn drop(&mut self) {
        self.handlers.deregister(self.id);
    }
}

// ---------------------------------------------------------------------------
// Deadline watchdog
// ---------------------------------------------------------------------------

struct Armed {
    at: Instant,
    token: CancelToken,
}

impl PartialEq for Armed {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for Armed {}
impl PartialOrd for Armed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Armed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at)
    }
}

#[derive(Default)]
struct WatchState {
    queue: BinaryHeap<Reverse<Armed>>,
    shutdown: bool,
}

/// One thread, many deadlines: a min-heap of `(expiry, token)` pairs
/// serviced under a condvar. Arming is O(log n); expiry flips the token —
/// cancellation itself stays cooperative (and allocation-free) inside the
/// compute kernels.
#[derive(Default)]
struct Watchdog {
    state: Mutex<WatchState>,
    signal: Condvar,
}

impl Watchdog {
    fn arm(&self, at: Instant, token: CancelToken) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.queue.push(Reverse(Armed { at, token }));
        self.signal.notify_one();
    }

    fn shutdown(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.shutdown = true;
        self.signal.notify_one();
    }

    fn run(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            while state.queue.peek().is_some_and(|Reverse(armed)| armed.at <= now) {
                let Reverse(armed) = state.queue.pop().expect("peeked");
                armed.token.cancel();
            }
            state = match state.queue.peek().map(|Reverse(armed)| armed.at) {
                Some(next) => {
                    let wait = next.saturating_duration_since(Instant::now());
                    self.signal
                        .wait_timeout(state, wait)
                        .unwrap_or_else(|p| p.into_inner())
                        .0
                }
                None => self.signal.wait(state).unwrap_or_else(|p| p.into_inner()),
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Response-channel depth: room for a few in-flight progress frames before
/// the worker blocks on the handler's write — bounded memory, natural
/// backpressure.
const RESPOND_DEPTH: usize = 4;

struct JobEnvelope {
    request: Request,
    plan: ChaosPlan,
    stall_ms: u64,
    token: CancelToken,
    /// Carries zero or more non-terminal [`Outcome::Progress`] values,
    /// then exactly one terminal outcome.
    respond: SyncSender<Outcome>,
}

struct Shared {
    config: ServerConfig,
    stats: ServerStats,
    cache: ArtifactCache,
    handlers: Handlers,
    serial: AtomicU64,
    shutdown: AtomicBool,
    watchdog: Watchdog,
}

/// The running design service.
pub struct DesignServer;

/// Handle to a running server: observe it, then shut it down. Dropping the
/// handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    accepts: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl DesignServer {
    /// Binds the Unix socket (and the TCP listener when
    /// [`ServerConfig::tcp_addr`] is set) and starts the accept loops,
    /// worker pool and deadline watchdog.
    ///
    /// # Errors
    ///
    /// I/O errors binding either socket.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        // A stale socket file from a crashed predecessor would make bind
        // fail; a server that exists to survive faults removes it.
        let _ = std::fs::remove_file(&config.socket_path);
        let listener = UnixListener::bind(&config.socket_path)?;
        let tcp_listener = match config.tcp_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let tcp_addr = match &tcp_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };

        let workers = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let (job_tx, job_rx) = sync_channel::<JobEnvelope>(queue_depth);
        let job_rx = Arc::new(Mutex::new(job_rx));

        let shared = Arc::new(Shared {
            cache: ArtifactCache::new(config.cache_capacity),
            config,
            stats: ServerStats::default(),
            handlers: Handlers::default(),
            serial: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            watchdog: Watchdog::default(),
        });

        let watchdog = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || shared.watchdog.run())
        };

        let worker_handles: Vec<_> = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let job_rx = Arc::clone(&job_rx);
                thread::spawn(move || worker_loop(&shared, &job_rx))
            })
            .collect();

        let mut accepts = Vec::new();
        {
            let shared = Arc::clone(&shared);
            let job_tx = job_tx.clone();
            accepts.push(thread::spawn(move || accept_loop(&shared, &listener, &job_tx)));
        }
        if let Some(tcp_listener) = tcp_listener {
            let shared = Arc::clone(&shared);
            accepts.push(thread::spawn(move || accept_loop(&shared, &tcp_listener, &job_tx)));
        }

        Ok(ServerHandle {
            shared,
            tcp_addr,
            accepts,
            workers: worker_handles,
            watchdog: Some(watchdog),
        })
    }
}

impl ServerHandle {
    /// The socket path Unix clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.shared.config.socket_path
    }

    /// The resolved TCP address (ports requested as 0 come back concrete);
    /// `None` when the server is Unix-only.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Cached design-artifact count.
    pub fn cached_artifacts(&self) -> usize {
        self.shared.cache.len()
    }

    /// Live connection-handler count (diagnostic; 0 after shutdown).
    pub fn live_handlers(&self) -> usize {
        self.shared.handlers.live()
    }

    /// Stops accepting, force-closes live connections, waits until every
    /// handler has exited, drains the worker pool and removes the socket
    /// file — quiescent, not merely signalled. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loops block in `accept()`; a throwaway connection per
        // transport wakes each so it can observe the flag.
        let _ = UnixStream::connect(&self.shared.config.socket_path);
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
        for accept in self.accepts.drain(..) {
            let _ = accept.join();
        }
        // Wake handlers blocked in `read`; the ones waiting on workers
        // observe the shutdown flag within one poll slice. The wait is
        // bounded — a wedged handler must not wedge shutdown itself.
        self.shared.handlers.close_all();
        let quiesce = self.shared.config.grace + Duration::from_secs(5);
        let _ = self.shared.handlers.wait_quiescent(quiesce);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.watchdog.shutdown();
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        let _ = std::fs::remove_file(&self.shared.config.socket_path);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Accept / connection handling
// ---------------------------------------------------------------------------

/// First backoff after an accept error.
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Backoff ceiling — long enough to unpin the core, short enough that
/// recovery (and shutdown) stay responsive.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(100);

fn accept_backoff(consecutive_errors: u32) -> Duration {
    ACCEPT_BACKOFF_BASE
        .saturating_mul(2u32.saturating_pow(consecutive_errors.saturating_sub(1).min(16)))
        .min(ACCEPT_BACKOFF_CAP)
}

fn accept_loop<T: ServeTransport>(
    shared: &Arc<Shared>,
    listener: &T,
    job_tx: &SyncSender<JobEnvelope>,
) {
    let mut consecutive_errors = 0u32;
    loop {
        let stream = match listener.accept_stream() {
            Ok(stream) => {
                consecutive_errors = 0;
                stream
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent error (EMFILE, a revoked listener) must not
                // busy-spin: sleep with capped exponential backoff, reset
                // on the next successful accept.
                shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                consecutive_errors = consecutive_errors.saturating_add(1);
                thread::sleep(accept_backoff(consecutive_errors));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        let handler_id = shared.handlers.register(T::closer(&stream));
        let shared = Arc::clone(shared);
        let job_tx = job_tx.clone();
        // Handlers are detached threads, but *registered*: shutdown
        // force-closes their streams and waits for the registry to drain,
        // so no handler is still mid-write when the sockets are removed.
        thread::spawn(move || {
            let _guard = HandlerGuard { handlers: &shared.handlers, id: handler_id };
            handle_connection(&shared, stream, &job_tx);
        });
    }
}

fn error_outcome(kind: ErrorKind, message: impl Into<String>) -> Outcome {
    Outcome::Error { kind, message: message.into() }
}

fn handle_connection<S: Read + Write>(
    shared: &Arc<Shared>,
    mut stream: S,
    job_tx: &SyncSender<JobEnvelope>,
) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(_) => {
                // Oversized or truncated frame: answer structurally (the
                // request id is unknowable) and drop the connection — the
                // stream offset can no longer be trusted.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let response =
                    Response { id: 0, outcome: error_outcome(ErrorKind::Protocol, "bad frame") };
                let _ = write_frame(&mut stream, &response.encode());
                return;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(error @ WireError::Rejected { .. }) => {
                // Well formed up to a field its constructor rejected: the
                // header decoded and the frame boundary holds, so answer on
                // the request's own id and keep serving the connection.
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                let id = WireReader::new(&payload).u64().unwrap_or(0);
                let outcome = error_outcome(ErrorKind::InvalidRequest, error.to_string());
                if write_frame(&mut stream, &Response { id, outcome }.encode()).is_err() {
                    return;
                }
                continue;
            }
            Err(error) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let response = Response {
                    id: 0,
                    outcome: error_outcome(ErrorKind::Protocol, error.to_string()),
                };
                let _ = write_frame(&mut stream, &response.encode());
                return;
            }
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let id = request.id;
        let serial = shared.serial.fetch_add(1, Ordering::Relaxed);
        let plan = shared
            .config
            .chaos
            .as_ref()
            .map(|chaos| chaos.plan(serial))
            .unwrap_or_default();

        let outcome = if let Some(hit) = answer_cache_hit(shared, &request, &plan) {
            hit
        } else {
            let stall_ms = shared.config.chaos.as_ref().map_or(0, |chaos| chaos.stall_ms);
            let token = CancelToken::new();
            let deadline = (request.deadline_ms > 0)
                .then(|| Duration::from_millis(u64::from(request.deadline_ms)));
            if let Some(deadline) = deadline {
                shared.watchdog.arm(Instant::now() + deadline, token.clone());
            }

            let (respond_tx, respond_rx) = sync_channel::<Outcome>(RESPOND_DEPTH);
            let envelope =
                JobEnvelope { request, plan, stall_ms, token: token.clone(), respond: respond_tx };
            match job_tx.try_send(envelope) {
                Ok(()) => match stream_worker_outcomes(
                    shared,
                    &mut stream,
                    id,
                    &respond_rx,
                    deadline,
                    &token,
                ) {
                    Some(outcome) => outcome,
                    // The peer stopped reading mid-stream; the campaign was
                    // cancelled and the connection is dead.
                    None => return,
                },
                Err(TrySendError::Full(_)) => {
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    Outcome::Busy
                }
                Err(TrySendError::Disconnected(_)) => {
                    error_outcome(ErrorKind::Shutdown, "server is shutting down")
                }
            }
        };
        if matches!(&outcome, Outcome::Error { kind: ErrorKind::DeadlineExceeded, .. }) {
            shared.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
        }

        // Response-side chaos: exercised faults a real deployment sees as
        // crashed peers and dirty links. Chaos mutates the *terminal* frame
        // only — progress frames have already been streamed verbatim.
        if plan.drop_connection {
            return;
        }
        let mut bytes = Response { id, outcome }.encode();
        if plan.corrupt_response {
            // Flip the id's low byte: the client detects the mismatch and
            // retries (a silent payload flip could decode into plausible
            // nonsense, which no client can be asked to detect).
            bytes[0] ^= 0xff;
        }
        if plan.truncate_response {
            let cut = bytes.len() / 2;
            let mut prefix = (bytes.len() as u32).to_le_bytes().to_vec();
            prefix.extend_from_slice(&bytes[..cut]);
            let _ = stream.write_all(&prefix);
            let _ = stream.flush();
            return;
        }
        if write_frame(&mut stream, &bytes).is_err() {
            return;
        }
    }
}

/// Answers, on the connection handler itself, a design request whose
/// artifact is cached: a hit computes nothing, so it skips the queue and
/// the two thread wake-ups of a worker round trip. Returns `None`, and the
/// request is queued, for a miss, for a sweep or campaign, and for a plan
/// with a worker-side fault: those faults are drawn for a worker, so a
/// worker must run the request for the chaos schedule to hold.
fn answer_cache_hit(shared: &Shared, request: &Request, plan: &ChaosPlan) -> Option<Outcome> {
    let Job::Design(design) = &request.job else {
        return None;
    };
    if plan.panic_worker || plan.stall_worker {
        return None;
    }
    let job_bytes = design.canonical_bytes();
    let artifact =
        shared.cache.lookup(content_hash(&job_bytes), &job_bytes, request.require_certified)?;
    shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
    Some(design_outcome(&artifact, true))
}

/// Relays worker outcomes to the connection: non-terminal
/// [`Outcome::Progress`] frames are written immediately, the terminal
/// outcome is returned for the caller to write (chaos applies only there).
///
/// The wait is bounded by `deadline + grace` (600 s with no deadline) — a
/// stalled worker cannot stall the *response* — and polls the shutdown flag
/// so a draining server answers [`ErrorKind::Shutdown`] promptly instead of
/// sitting out a grace period.
///
/// Returns `None` when the peer stopped reading mid-stream: the job's
/// [`CancelToken`] is fired (early cancellation) and the connection is
/// abandoned.
fn stream_worker_outcomes<S: Read + Write>(
    shared: &Arc<Shared>,
    stream: &mut S,
    id: u64,
    respond_rx: &Receiver<Outcome>,
    deadline: Option<Duration>,
    token: &CancelToken,
) -> Option<Outcome> {
    let cap = deadline.map_or(Duration::from_secs(600), |d| d + shared.config.grace);
    let give_up = Instant::now() + cap;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Some(error_outcome(ErrorKind::Shutdown, "server is shutting down"));
        }
        let now = Instant::now();
        if now >= give_up {
            return Some(error_outcome(
                ErrorKind::DeadlineExceeded,
                "deadline expired before the worker produced a result",
            ));
        }
        let slice = give_up.duration_since(now).min(Duration::from_millis(50));
        match respond_rx.recv_timeout(slice) {
            Ok(outcome) if outcome.is_terminal() => return Some(outcome),
            Ok(progress) => {
                let bytes = Response { id, outcome: progress }.encode();
                if write_frame(stream, &bytes).is_err() {
                    // The client dropped its stream: cancel the campaign
                    // instead of computing results nobody will read.
                    token.cancel();
                    shared.stats.streams_cancelled.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                shared.stats.progress_frames.fetch_add(1, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Some(error_outcome(ErrorKind::Shutdown, "server is shutting down"))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, jobs: &Arc<Mutex<Receiver<JobEnvelope>>>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let envelope = {
            let guard = jobs.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv_timeout(Duration::from_millis(50))
        };
        let Ok(envelope) = envelope else { continue };
        if envelope.plan.stall_worker {
            thread::sleep(Duration::from_millis(envelope.stall_ms));
        }
        let panic_worker = envelope.plan.panic_worker;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if panic_worker {
                panic!("chaos: induced worker panic");
            }
            execute_job(shared, &envelope.request, &envelope.token, &envelope.respond)
        }))
        .unwrap_or_else(|payload| {
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            error_outcome(ErrorKind::WorkerPanic, message)
        });
        // The handler may have timed out and gone; that is its business.
        let _ = envelope.respond.send(outcome);
    }
}

fn map_core_error(error: &CoreError) -> Outcome {
    match error {
        CoreError::Cancelled => error_outcome(
            ErrorKind::DeadlineExceeded,
            "deadline expired before the pipeline completed",
        ),
        other => error_outcome(ErrorKind::DesignFailed, other.to_string()),
    }
}

fn execute_job(
    shared: &Arc<Shared>,
    request: &Request,
    token: &CancelToken,
    progress: &SyncSender<Outcome>,
) -> Outcome {
    // Decoding already validated the design problem, so an invalid request
    // never reaches the cache and can never become a leader that poisons a
    // key. The job is encoded once: its bytes both key and verify the entry.
    let design = request.job.design();
    let job_bytes = design.canonical_bytes();
    let key = content_hash(&job_bytes);
    let node_budget = (request.node_budget > 0).then_some(request.node_budget);
    let (artifact, from_cache) = match obtain_artifact(
        shared,
        key,
        &job_bytes,
        request.require_certified,
        &design.specs,
        &design.alloc,
        design.bus,
        node_budget,
        token,
    ) {
        Ok(found) => found,
        Err(outcome) => return outcome,
    };

    match &request.job {
        Job::Design(_) => design_outcome(&artifact, from_cache),
        Job::Sweep(sweep) => sweep_outcome(
            &artifact,
            from_cache,
            sweep,
            &design.alloc,
            shared.config.allocator_threads,
            token,
        ),
        Job::Campaign(campaign) => {
            campaign_outcome(&artifact, from_cache, campaign, token, progress)
        }
    }
}

/// Cache lookup with single-flight: hit, join the in-flight leader, or
/// lead the computation ourselves. Returns the artifact and whether it was
/// reused (for the response's `from_cache` flag).
#[allow(clippy::too_many_arguments)]
fn obtain_artifact(
    shared: &Arc<Shared>,
    key: u64,
    job_bytes: &[u8],
    require_certified: bool,
    specs: &[ApplicationSpec],
    alloc: &AllocatorConfig,
    bus: FlexRayConfig,
    node_budget: Option<u64>,
    token: &CancelToken,
) -> Result<(Arc<DesignArtifact>, bool), Outcome> {
    loop {
        match shared.cache.lookup_or_begin(key, job_bytes, require_certified) {
            CacheOutcome::Hit(artifact) => {
                shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((artifact, true));
            }
            CacheOutcome::Join(receiver) => match receiver.recv() {
                Ok(Ok(artifact)) if artifact.certified_optimal || !require_certified => {
                    shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
                    return Ok((artifact, true));
                }
                // Leader degraded (or failed, or vanished) but *our*
                // request is still live: loop and lead the computation
                // under our own token and budget.
                Ok(Ok(_)) | Ok(Err(_)) | Err(_) => {
                    if token.is_cancelled() {
                        return Err(map_core_error(&CoreError::Cancelled));
                    }
                    continue;
                }
            },
            CacheOutcome::Lead => {
                let designer = FleetDesigner::new()
                    .with_threads(shared.config.allocator_threads)
                    .with_cancel_token(Some(token.clone()));
                let computed = catch_unwind(AssertUnwindSafe(|| {
                    designer.design_fleet_optimal_budgeted(
                        specs.to_vec(),
                        alloc,
                        bus,
                        node_budget,
                    )
                }));
                match computed {
                    Ok(Ok(budgeted)) => {
                        let artifact = Arc::new(DesignArtifact {
                            fleet: Arc::new(budgeted.fleet),
                            certified_optimal: budgeted.certified_optimal,
                        });
                        shared.stats.designs_computed.fetch_add(1, Ordering::Relaxed);
                        shared.cache.complete(key, job_bytes, Ok(Arc::clone(&artifact)));
                        return Ok((artifact, false));
                    }
                    Ok(Err(error)) => {
                        shared.cache.complete(key, job_bytes, Err(error.to_string()));
                        return Err(map_core_error(&error));
                    }
                    Err(payload) => {
                        // Leader contract: joiners are unblocked with an
                        // error and the key stays computable — then the
                        // panic continues to the worker's isolation layer.
                        shared.cache.complete(
                            key,
                            job_bytes,
                            Err("design computation panicked".to_string()),
                        );
                        resume_unwind(payload);
                    }
                }
            }
        }
    }
}

fn design_outcome(artifact: &DesignArtifact, from_cache: bool) -> Outcome {
    let table = match artifact.fleet.timing_table() {
        Ok(table) => table,
        Err(error) => return map_core_error(&error),
    };
    Outcome::Design(DesignResult {
        certified_optimal: artifact.certified_optimal,
        from_cache,
        slots: artifact
            .fleet
            .allocation()
            .slots
            .iter()
            .map(|slot| slot.iter().map(|&app| app as u32).collect())
            .collect(),
        table: table.as_ref().clone(),
    })
}

fn sweep_outcome(
    artifact: &DesignArtifact,
    from_cache: bool,
    job: &SweepJob,
    alloc: &AllocatorConfig,
    allocator_threads: usize,
    token: &CancelToken,
) -> Outcome {
    let table = match artifact.fleet.timing_table() {
        Ok(table) => table,
        Err(error) => return map_core_error(&error),
    };
    let mut sweep = BusConfigSweep::new(artifact.fleet.bus_config());
    if !job.cycle_lengths.is_empty() {
        sweep = sweep.with_cycle_lengths(job.cycle_lengths.clone());
    }
    if !job.static_slot_counts.is_empty() {
        sweep = sweep.with_static_slot_counts(
            job.static_slot_counts.iter().map(|&count| count as usize).collect(),
        );
    }
    if !job.slot_lengths.is_empty() {
        sweep = sweep.with_slot_lengths(job.slot_lengths.clone());
    }

    let mut rows = Vec::new();
    let mut complete = true;
    for bus in sweep.configs() {
        // Deadline checkpoint per candidate: a cut sweep returns the
        // completed prefix with `complete = false`.
        if token.is_cancelled() {
            complete = false;
            break;
        }
        let candidate = AllocatorConfig {
            max_slots: alloc.max_slots.min(bus.static_slot_count),
            slot_timing: sweep.slot_timing_for(&bus),
            ..*alloc
        };
        let mut row = SweepRow {
            cycle_length: bus.cycle_length,
            static_slot_count: bus.static_slot_count as u32,
            static_slot_length: bus.static_slot_length,
            feasible: false,
            slot_count: 0,
            certified_optimal: true,
        };
        let portfolio = PortfolioConfig::with_threads(allocator_threads);
        let mut solver = match PortfolioAllocator::new(&table, &candidate, &portfolio) {
            Ok(solver) => solver,
            Err(_) => {
                rows.push(row);
                continue;
            }
        };
        solver.set_cancel_token(Some(token.clone()));
        match solver.solve() {
            Ok(allocation) => {
                row.feasible = true;
                row.slot_count = allocation.slots.len() as u32;
                row.certified_optimal = solver.certified_optimal();
                rows.push(row);
            }
            Err(SchedError::SearchCancelled { .. }) => {
                complete = false;
                break;
            }
            Err(_) => rows.push(row),
        }
    }
    Outcome::Sweep(SweepResult { from_cache, complete, rows })
}

/// A per-family statistics snapshot for one [`Outcome::Progress`] frame.
fn progress_snapshot(stats: &CampaignStats, alpha: f64) -> CampaignProgress {
    let readouts = stats.settling_probabilities(alpha);
    CampaignProgress {
        total: stats.total,
        families: stats
            .families
            .iter()
            .zip(readouts)
            .map(|(family, readout)| FamilyProgress {
                label: family.label.clone(),
                scenarios: family.scenarios,
                settled: family.settled,
                deadlines_met: family.deadlines_met,
                settling_mean: family.settling_time.mean(),
                settling_p50: family.settling_p50.estimate(),
                settling_p95: family.settling_p95.estimate(),
                peak_mean: family.peak_norm.mean(),
                peak_p95: family.peak_p95.estimate(),
                tt_share_mean: family.tt_share.mean(),
                estimate: readout.estimate,
                lower: readout.lower,
                upper: readout.upper,
            })
            .collect(),
    }
}

fn campaign_outcome(
    artifact: &DesignArtifact,
    from_cache: bool,
    job: &CampaignJob,
    token: &CancelToken,
    progress: &SyncSender<Outcome>,
) -> Outcome {
    let sweep = RobustnessSweep::new(
        job.drop_probabilities.clone(),
        job.scenarios_per_intensity,
        job.duration,
    );
    let mut campaign = RobustnessCampaign::new(Arc::clone(&artifact.fleet), job.seed)
        .with_workers(1)
        .with_cancel_token(Some(token.clone()));
    if job.progress_every > 0 {
        // Progress is emitted at chunk boundaries; align the chunk
        // granularity with the requested cadence so small campaigns stream
        // too. Chunking never changes the aggregates (the campaign's
        // determinism contract), only when snapshots can be taken.
        campaign = campaign.with_chunk_size(job.progress_every.clamp(1, 64));
    }
    // Progress emission rides the respond channel: a failed send means the
    // handler (and therefore the client) is gone — the callback returns
    // false and the campaign cancels. The *terminal* frame is computed from
    // the same aggregation whether streaming or not, so `progress_every`
    // never changes the final answer.
    let result = campaign.run_with_progress(&sweep, job.progress_every, |snapshot| {
        progress.send(Outcome::Progress(progress_snapshot(snapshot, job.alpha))).is_ok()
    });
    match result {
        Ok(stats) => Outcome::Campaign(CampaignResult {
            from_cache,
            total: stats.total,
            families: stats
                .settling_probabilities(job.alpha)
                .into_iter()
                .map(|family| FamilyReadout {
                    label: family.label,
                    trials: family.trials,
                    successes: family.successes,
                    estimate: family.estimate,
                    lower: family.lower,
                    upper: family.upper,
                })
                .collect(),
        }),
        Err(error) => map_core_error(&error),
    }
}

/// Constructs a [`DesignJob`] from borrowed pipeline types (convenience
/// for clients and tests).
pub fn design_job(
    specs: &[ApplicationSpec],
    alloc: &AllocatorConfig,
    bus: &FlexRayConfig,
) -> DesignJob {
    DesignJob { specs: specs.to_vec(), alloc: *alloc, bus: *bus }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport whose `accept` always fails — the EMFILE scenario.
    struct FailingTransport {
        calls: Arc<AtomicU64>,
    }

    impl ServeTransport for FailingTransport {
        type Stream = UnixStream;

        fn accept_stream(&self) -> std::io::Result<UnixStream> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Err(std::io::Error::other("induced accept failure"))
        }

        fn closer(_stream: &UnixStream) -> Option<Closer> {
            None
        }
    }

    fn test_shared() -> Arc<Shared> {
        Arc::new(Shared {
            cache: ArtifactCache::new(4),
            config: ServerConfig::new("/tmp/cps-serve-accept-backoff-unused.sock"),
            stats: ServerStats::default(),
            handlers: Handlers::default(),
            serial: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            watchdog: Watchdog::default(),
        })
    }

    #[test]
    fn accept_errors_back_off_instead_of_busy_spinning() {
        // Regression: the pre-fix loop did a bare `continue` on accept
        // error, burning a core — over 150 ms it would rack up millions of
        // accept calls. With 1 ms → 100 ms capped backoff the count stays
        // tiny.
        let shared = test_shared();
        let calls = Arc::new(AtomicU64::new(0));
        let transport = FailingTransport { calls: Arc::clone(&calls) };
        let (job_tx, _job_rx) = sync_channel::<JobEnvelope>(1);
        let loop_thread = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, &transport, &job_tx))
        };
        thread::sleep(Duration::from_millis(150));
        let observed = calls.load(Ordering::Relaxed);
        assert!(observed >= 2, "the loop must keep retrying, saw {observed} calls");
        assert!(
            observed < 1000,
            "accept loop busy-spun: {observed} accept calls in 150 ms"
        );
        assert_eq!(shared.stats.snapshot().accept_errors, observed);
        shared.shutdown.store(true, Ordering::SeqCst);
        loop_thread.join().unwrap();
    }

    #[test]
    fn accept_backoff_grows_and_caps() {
        assert_eq!(accept_backoff(1), Duration::from_millis(1));
        assert_eq!(accept_backoff(2), Duration::from_millis(2));
        assert_eq!(accept_backoff(4), Duration::from_millis(8));
        assert_eq!(accept_backoff(8), ACCEPT_BACKOFF_CAP);
        assert_eq!(accept_backoff(u32::MAX), ACCEPT_BACKOFF_CAP);
    }

    #[test]
    fn handler_registry_reaches_quiescence() {
        let handlers = Arc::new(Handlers::default());
        let closed = Arc::new(AtomicBool::new(false));
        let id = {
            let closed = Arc::clone(&closed);
            handlers.register(Some(Box::new(move || closed.store(true, Ordering::SeqCst))))
        };
        assert_eq!(handlers.live(), 1);
        assert!(!handlers.wait_quiescent(Duration::from_millis(20)), "still live");
        handlers.close_all();
        assert!(closed.load(Ordering::SeqCst), "close_all must invoke the closer");
        let waiter = {
            let handlers = Arc::clone(&handlers);
            thread::spawn(move || handlers.wait_quiescent(Duration::from_secs(5)))
        };
        handlers.deregister(id);
        assert!(waiter.join().unwrap(), "deregistering the last handler quiesces");
        assert_eq!(handlers.live(), 0);
    }
}
