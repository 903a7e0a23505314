//! The retrying design-service client.
//!
//! Connects over either transport ([`Endpoint::Unix`] or [`Endpoint::Tcp`])
//! and reuses connections across requests: healthy connections return to a
//! small idle pool after each exchange, while any transport or protocol
//! failure *poisons* its connection — it is dropped on the spot and the
//! retry reconnects fresh, so a dropped or corrupted exchange can never
//! contaminate the next one. Request ids key each exchange: a response
//! answering the wrong id is treated exactly like a corrupted frame.
//! Backoff between attempts is exponential with deterministic,
//! [`SimRng`]-seeded jitter. Retry classification:
//!
//! - **Retryable** — transport failures (connect/read/write errors, EOF
//!   mid-response), malformed or mis-addressed responses (a chaos-corrupted
//!   frame), [`Outcome::Busy`] (the server shed load; backing off is the
//!   point) and [`ErrorKind::WorkerPanic`] (the fault was isolated; the
//!   server is still healthy).
//! - **Terminal** — every other decoded outcome. `DeadlineExceeded` in
//!   particular is *not* retried: the deadline belongs to the request, and
//!   retrying cannot un-expire it.
//!
//! Campaign jobs can also be *streamed* ([`DesignClient::stream_campaign`]):
//! the returned [`CampaignStream`] yields each non-terminal
//! [`Outcome::Progress`] frame as it arrives and ends with the terminal
//! outcome. Dropping the stream before the terminal frame closes its
//! dedicated connection, which the server detects at the next progress
//! write and answers by firing the job's cancel token — early cancellation
//! without a control channel.

use crate::error::ServeError;
use crate::protocol::{read_frame, write_frame, ErrorKind, Job, Outcome, Request, Response};
use crate::protocol::CampaignJob;
use cps_flexray::SimRng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where the design service lives.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP socket address.
    Tcp(SocketAddr),
}

impl Endpoint {
    fn connect(&self) -> io::Result<ClientConn> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(ClientConn::Unix),
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                // Small latency-bound frames; Nagle only hurts.
                let _ = stream.set_nodelay(true);
                Ok(ClientConn::Tcp(stream))
            }
        }
    }
}

/// One client connection over either transport.
enum ClientConn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for ClientConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientConn::Unix(stream) => stream.read(buf),
            ClientConn::Tcp(stream) => stream.read(buf),
        }
    }
}

impl Write for ClientConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientConn::Unix(stream) => stream.write(buf),
            ClientConn::Tcp(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientConn::Unix(stream) => stream.flush(),
            ClientConn::Tcp(stream) => stream.flush(),
        }
    }
}

/// Retry behaviour of a [`DesignClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (including the first); minimum 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed of the deterministic backoff jitter (derived per request id, so
    /// concurrent clients with different seeds never sleep in lockstep).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }
}

/// Per-request knobs (everything except the job itself).
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOptions {
    /// Deadline in milliseconds; 0 = none.
    pub deadline_ms: u32,
    /// Exact-search node budget; 0 = unbounded.
    pub node_budget: u64,
    /// Treat degraded (uncertified) cached artifacts as misses.
    pub require_certified: bool,
}

/// A client of the design service.
pub struct DesignClient {
    endpoint: Endpoint,
    policy: RetryPolicy,
    next_id: u64,
    /// Idle healthy connections, most recently used last.
    pool: Vec<ClientConn>,
    /// Idle-pool ceiling; excess healthy connections are simply closed.
    max_idle: usize,
    /// `false` disables reuse entirely (one fresh connection per attempt).
    reuse: bool,
}

impl DesignClient {
    /// A Unix-socket client with the default [`RetryPolicy`] (alias of
    /// [`DesignClient::unix`]).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self::unix(path)
    }

    /// A client for the server at the Unix socket `path`.
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        Self::connect_to(Endpoint::Unix(path.into()))
    }

    /// A client for the server at the TCP address `addr`.
    pub fn tcp(addr: SocketAddr) -> Self {
        Self::connect_to(Endpoint::Tcp(addr))
    }

    /// A client for an explicit [`Endpoint`].
    pub fn connect_to(endpoint: Endpoint) -> Self {
        DesignClient {
            endpoint,
            policy: RetryPolicy::default(),
            next_id: 1,
            pool: Vec::new(),
            max_idle: 2,
            reuse: true,
        }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables connection reuse (`true` by default). With reuse
    /// off every attempt opens a fresh connection — the pre-pool behaviour,
    /// kept as the comparison rung for the reuse benchmark.
    #[must_use]
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        if !reuse {
            self.pool.clear();
        }
        self
    }

    /// Caps the idle connection pool (default 2; 0 behaves like fresh
    /// connections while still attempting reuse within a retry loop).
    #[must_use]
    pub fn with_max_idle(mut self, max_idle: usize) -> Self {
        self.max_idle = max_idle;
        self.pool.truncate(max_idle);
        self
    }

    /// Idle pooled connections (diagnostic).
    pub fn idle_connections(&self) -> usize {
        self.pool.len()
    }

    /// Sends `job` and returns its terminal outcome, retrying transient
    /// failures per the policy.
    ///
    /// # Errors
    ///
    /// [`ServeError::RetriesExhausted`] when every attempt failed
    /// transiently; never an error for a decoded terminal outcome (those
    /// are returned as [`Outcome`] values, including structured failures).
    pub fn request(&mut self, job: Job, options: RequestOptions) -> Result<Outcome, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            id,
            deadline_ms: options.deadline_ms,
            node_budget: options.node_budget,
            require_certified: options.require_certified,
            job,
        };
        let mut rng = SimRng::seeded(SimRng::derive(self.policy.jitter_seed, id));
        let attempts = self.policy.max_attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt - 1, &mut rng));
            }
            match self.attempt(&request) {
                Ok(outcome) if Self::retryable_outcome(&outcome) => {
                    last = match &outcome {
                        Outcome::Busy => "server busy (load shed)".to_string(),
                        Outcome::Error { message, .. } => message.clone(),
                        _ => unreachable!("only Busy/WorkerPanic are retryable"),
                    };
                }
                Ok(outcome) => return Ok(outcome),
                Err(error) => last = error.to_string(),
            }
        }
        Err(ServeError::RetriesExhausted { attempts, last })
    }

    /// Sends a campaign job and returns the live result stream. The job's
    /// `progress_every` controls the emission cadence (0 = terminal frame
    /// only). The stream runs on a dedicated connection that is never
    /// pooled; dropping it before the terminal frame cancels the campaign
    /// server-side. No retries: a stream is a single attempt by
    /// construction (replaying half a stream would double-count progress).
    ///
    /// # Errors
    ///
    /// Connecting or sending the request failed.
    pub fn stream_campaign(
        &mut self,
        job: CampaignJob,
        options: RequestOptions,
    ) -> Result<CampaignStream, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            id,
            deadline_ms: options.deadline_ms,
            node_budget: options.node_budget,
            require_certified: options.require_certified,
            job: Job::Campaign(job),
        };
        let mut conn = self.endpoint.connect()?;
        write_frame(&mut conn, &request.encode())?;
        Ok(CampaignStream { conn: Some(conn), id, done: false })
    }

    /// Exponential backoff with multiplicative jitter in `[0.5, 1.0)`.
    fn backoff(&self, exponent: u32, rng: &mut SimRng) -> Duration {
        let exact = self
            .policy
            .base_delay
            .saturating_mul(2u32.saturating_pow(exponent))
            .min(self.policy.max_delay);
        exact.mul_f64(0.5 + 0.5 * rng.next_unit())
    }

    fn retryable_outcome(outcome: &Outcome) -> bool {
        matches!(
            outcome,
            Outcome::Busy | Outcome::Error { kind: ErrorKind::WorkerPanic, .. }
        )
    }

    /// One request/response exchange, reusing a pooled connection when one
    /// is idle. Success returns the connection to the pool; *any* failure
    /// poisons it (the connection is dropped, never reused).
    fn attempt(&mut self, request: &Request) -> Result<Outcome, ServeError> {
        let mut conn = match self.pool.pop() {
            Some(conn) => conn,
            None => self.endpoint.connect()?,
        };
        let result = Self::exchange(&mut conn, request);
        if result.is_ok() && self.reuse && self.pool.len() < self.max_idle {
            self.pool.push(conn);
        }
        result
    }

    /// Writes the request and reads frames until the terminal outcome
    /// (non-terminal progress frames for this id are skipped — `request`
    /// is the blocking API; use [`DesignClient::stream_campaign`] to see
    /// them).
    fn exchange(conn: &mut ClientConn, request: &Request) -> Result<Outcome, ServeError> {
        write_frame(conn, &request.encode())?;
        loop {
            let outcome = read_response(conn, request.id)?;
            if outcome.is_terminal() {
                return Ok(outcome);
            }
        }
    }
}

/// Reads one response frame and validates its id against `expected`.
fn read_response(conn: &mut ClientConn, expected: u64) -> Result<Outcome, ServeError> {
    let payload = read_frame(conn)?.ok_or_else(|| {
        ServeError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection without responding",
        ))
    })?;
    let response = Response::decode(&payload)?;
    // Protocol errors are reported with id 0 (the server could not decode
    // the id); everything else must echo ours.
    let protocol_error =
        matches!(&response.outcome, Outcome::Error { kind: ErrorKind::Protocol, .. });
    if response.id != expected && !(protocol_error && response.id == 0) {
        return Err(ServeError::IdMismatch { sent: expected, received: response.id });
    }
    Ok(response.outcome)
}

/// A live campaign result stream: zero or more [`Outcome::Progress`] items
/// followed by exactly one terminal outcome, after which the iterator ends.
///
/// Dropping the stream before its terminal item closes the connection; the
/// server notices at its next progress write and fires the campaign's
/// cancel token, so an abandoned stream stops costing compute within one
/// emission interval.
pub struct CampaignStream {
    conn: Option<ClientConn>,
    id: u64,
    done: bool,
}

impl CampaignStream {
    /// The request id the stream answers.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Drains the stream, returning the terminal outcome and discarding
    /// progress frames.
    ///
    /// # Errors
    ///
    /// The first transport or protocol error, or an unexpected end of
    /// stream.
    pub fn wait_terminal(mut self) -> Result<Outcome, ServeError> {
        for item in &mut self {
            let outcome = item?;
            if outcome.is_terminal() {
                return Ok(outcome);
            }
        }
        Err(ServeError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended without a terminal frame",
        )))
    }
}

impl Iterator for CampaignStream {
    type Item = Result<Outcome, ServeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let conn = self.conn.as_mut()?;
        match read_response(conn, self.id) {
            Ok(outcome) => {
                if outcome.is_terminal() {
                    self.done = true;
                    self.conn = None;
                }
                Some(Ok(outcome))
            }
            Err(error) => {
                self.done = true;
                self.conn = None;
                Some(Err(error))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps_with_jitter_in_range() {
        let client = DesignClient::new("/tmp/unused.sock").with_retry_policy(RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
            jitter_seed: 9,
        });
        let mut rng = SimRng::seeded(1);
        for exponent in 0..8 {
            let delay = client.backoff(exponent, &mut rng);
            let exact = Duration::from_millis(10)
                .saturating_mul(2u32.saturating_pow(exponent))
                .min(Duration::from_millis(40));
            assert!(delay >= exact.mul_f64(0.5), "jitter floor at half the exact delay");
            assert!(delay <= exact, "jitter never exceeds the exact delay");
        }
    }

    #[test]
    fn retry_classification() {
        assert!(DesignClient::retryable_outcome(&Outcome::Busy));
        assert!(DesignClient::retryable_outcome(&Outcome::Error {
            kind: ErrorKind::WorkerPanic,
            message: String::new(),
        }));
        assert!(!DesignClient::retryable_outcome(&Outcome::Error {
            kind: ErrorKind::DeadlineExceeded,
            message: String::new(),
        }));
        assert!(!DesignClient::retryable_outcome(&Outcome::Error {
            kind: ErrorKind::DesignFailed,
            message: String::new(),
        }));
    }

    #[test]
    fn connecting_to_nothing_exhausts_retries() {
        let mut client =
            DesignClient::new("/tmp/cps-serve-no-such-socket.sock").with_retry_policy(
                RetryPolicy {
                    max_attempts: 2,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(2),
                    jitter_seed: 0,
                },
            );
        let job = Job::Campaign(crate::protocol::CampaignJob {
            design: crate::design_job(
                &[],
                &cps_sched::AllocatorConfig::default(),
                &cps_flexray::FlexRayConfig::paper_case_study(),
            ),
            seed: 1,
            drop_probabilities: vec![],
            scenarios_per_intensity: 0,
            duration: 0.1,
            alpha: 0.05,
            progress_every: 0,
        });
        match client.request(job, RequestOptions::default()) {
            Err(ServeError::RetriesExhausted { attempts: 2, .. }) => {}
            other => panic!("expected exhausted retries, got {other:?}"),
        }
        assert_eq!(client.idle_connections(), 0, "failed attempts never pool");
    }

    #[test]
    fn disabling_reuse_clears_the_pool() {
        let client = DesignClient::tcp("127.0.0.1:1".parse().unwrap())
            .with_max_idle(8)
            .with_reuse(false);
        assert_eq!(client.idle_connections(), 0);
        assert!(!client.reuse);
    }
}
