//! End-to-end tests of the fail-operational design service (`cps-serve`):
//! nominal bit-identity against the direct pipeline, artifact caching and
//! single-flight deduplication, graceful degradation under node budgets,
//! watchdog degradation of a *parallel* exact search mid-flight (the
//! deadline token aggregates across the portfolio's workers and the greedy
//! incumbent is served uncertified), load shedding, panic isolation,
//! structured deadline timeouts, clean
//! rejection of malformed frames, `InvalidRequest` answers on their own id
//! for frames that decode but name an invalid problem (the connection
//! keeps serving), and a deterministic chaos soak in which
//! every accepted request reaches a terminal response while the server
//! survives every injected fault.
//!
//! Every scenario runs over *both* transports — the Unix socket and the
//! TCP listener — through the same helpers, plus streaming-specific tests:
//! the streamed campaign's terminal frame is bit-identical to the
//! non-streamed response, progress totals are strictly monotone, and
//! dropping a stream cancels the campaign server-side.

use automotive_cps::core::{case_study, ApplicationSpec, FleetDesigner};
use automotive_cps::flexray::FlexRayConfig;
use automotive_cps::sched::{AllocatorConfig, AppTimingParams, SlotTiming};
use automotive_cps::serve::protocol::{read_frame, write_frame};
use automotive_cps::serve::{
    design_job, CampaignJob, ChaosConfig, DesignClient, DesignServer, Endpoint, ErrorKind, Job,
    Outcome, Request, RequestOptions, Response, RetryPolicy, ServerConfig, ServerHandle, SweepJob,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The transport a scenario runs over; every scenario has a Unix and a TCP
/// variant driving identical logic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Transport {
    Unix,
    Tcp,
}

fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cps-serve-{name}-{}.sock", std::process::id()))
}

fn fleet_specs() -> Vec<ApplicationSpec> {
    case_study::derived_fleet_specs()
}

fn nominal_job() -> Job {
    Job::Design(design_job(
        &fleet_specs(),
        &AllocatorConfig::default(),
        &FlexRayConfig::paper_case_study(),
    ))
}

fn nominal_design() -> automotive_cps::serve::DesignJob {
    match nominal_job() {
        Job::Design(design) => design,
        _ => unreachable!(),
    }
}

fn start(name: &str, transport: Transport, configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig::new(socket_path(name));
    if transport == Transport::Tcp {
        config.tcp_addr = Some("127.0.0.1:0".parse().expect("loopback addr"));
    }
    configure(&mut config);
    DesignServer::start(config).expect("server starts")
}

/// The client-side address of `server` over `transport` (cloneable into
/// worker threads).
fn endpoint(server: &ServerHandle, transport: Transport) -> Endpoint {
    match transport {
        Transport::Unix => Endpoint::Unix(server.socket_path().to_path_buf()),
        Transport::Tcp => Endpoint::Tcp(server.tcp_addr().expect("tcp listener bound")),
    }
}

fn client(server: &ServerHandle, transport: Transport) -> DesignClient {
    DesignClient::connect_to(endpoint(server, transport))
}

/// A raw (frame-level) connection for protocol-abuse tests.
enum RawConn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl RawConn {
    fn connect(server: &ServerHandle, transport: Transport) -> Self {
        match transport {
            Transport::Unix => {
                RawConn::Unix(UnixStream::connect(server.socket_path()).expect("connect"))
            }
            Transport::Tcp => {
                RawConn::Tcp(TcpStream::connect(server.tcp_addr().expect("bound")).expect("connect"))
            }
        }
    }

    fn shutdown_write(&self) {
        match self {
            RawConn::Unix(stream) => stream.shutdown(std::net::Shutdown::Write).unwrap(),
            RawConn::Tcp(stream) => stream.shutdown(std::net::Shutdown::Write).unwrap(),
        }
    }
}

impl Read for RawConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            RawConn::Unix(stream) => stream.read(buf),
            RawConn::Tcp(stream) => stream.read(buf),
        }
    }
}

impl Write for RawConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            RawConn::Unix(stream) => stream.write(buf),
            RawConn::Tcp(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            RawConn::Unix(stream) => stream.flush(),
            RawConn::Tcp(stream) => stream.flush(),
        }
    }
}

fn fast_retries(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        jitter_seed: seed,
    }
}

/// The direct-pipeline reference: exact optimal design of the derived fleet.
fn reference_design() -> (Vec<Vec<usize>>, Vec<AppTimingParams>) {
    let fleet = FleetDesigner::new()
        .design_fleet_optimal(
            fleet_specs(),
            &AllocatorConfig::default(),
            FlexRayConfig::paper_case_study(),
        )
        .expect("direct design");
    let table = fleet.timing_table().expect("table").as_ref().clone();
    (fleet.allocation().slots.clone(), table)
}

fn assert_tables_bit_identical(served: &[AppTimingParams], direct: &[AppTimingParams]) {
    assert_eq!(served.len(), direct.len());
    for (s, d) in served.iter().zip(direct) {
        assert_eq!(s.name, d.name);
        for (a, b) in [
            (s.inter_arrival, d.inter_arrival),
            (s.deadline, d.deadline),
            (s.xi_tt, d.xi_tt),
            (s.xi_et, d.xi_et),
            (s.xi_m, d.xi_m),
            (s.k_p, d.k_p),
            (s.xi_prime_m, d.xi_prime_m),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "timing tables must be bit-identical");
        }
    }
}

fn assert_slots_match(served: &[Vec<u32>], direct: &[Vec<usize>]) {
    let widened: Vec<Vec<usize>> =
        served.iter().map(|slot| slot.iter().map(|&a| a as usize).collect()).collect();
    assert_eq!(&widened, direct);
}

fn nominal_design_scenario(name: &str, transport: Transport) {
    let (direct_slots, direct_table) = reference_design();
    let mut server = start(name, transport, |_| {});
    let mut client = client(&server, transport);

    let first = client.request(nominal_job(), RequestOptions::default()).expect("first request");
    let Outcome::Design(first) = first else { panic!("expected a design outcome: {first:?}") };
    assert!(first.certified_optimal, "the unpressured exact search certifies");
    assert!(!first.from_cache, "the first request computes");
    assert_slots_match(&first.slots, &direct_slots);
    assert_tables_bit_identical(&first.table, &direct_table);

    // The identical job is served from the artifact cache, bit-identically —
    // over the client's *reused* pooled connection.
    let second = client.request(nominal_job(), RequestOptions::default()).expect("second request");
    let Outcome::Design(second) = second else { panic!("expected a design outcome") };
    assert!(second.from_cache, "the second request hits the cache");
    assert_slots_match(&second.slots, &direct_slots);
    assert_tables_bit_identical(&second.table, &direct_table);
    assert_eq!(client.idle_connections(), 1, "a healthy connection returns to the pool");

    let stats = server.stats();
    assert_eq!(stats.designs_computed, 1, "one computation serves both requests");
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.connections, 1, "connection reuse: both requests share one connection");
    assert_eq!(server.cached_artifacts(), 1);
    server.shutdown();
}

#[test]
fn nominal_design_is_bit_identical_to_the_direct_pipeline_unix() {
    nominal_design_scenario("nominal-unix", Transport::Unix);
}

#[test]
fn nominal_design_is_bit_identical_to_the_direct_pipeline_tcp() {
    nominal_design_scenario("nominal-tcp", Transport::Tcp);
}

#[test]
fn both_transports_serve_one_cache_simultaneously() {
    let (direct_slots, _) = reference_design();
    let mut server = start("dual", Transport::Tcp, |_| {});

    // Compute over Unix, then hit the same artifact cache over TCP: the
    // transports are fronts for one shared server.
    let mut over_unix = client(&server, Transport::Unix);
    let first = over_unix.request(nominal_job(), RequestOptions::default()).expect("unix request");
    let Outcome::Design(first) = first else { panic!("expected a design outcome") };
    assert!(!first.from_cache);
    assert_slots_match(&first.slots, &direct_slots);

    let mut over_tcp = client(&server, Transport::Tcp);
    let second = over_tcp.request(nominal_job(), RequestOptions::default()).expect("tcp request");
    let Outcome::Design(second) = second else { panic!("expected a design outcome") };
    assert!(second.from_cache, "the TCP request must hit the Unix-computed artifact");
    assert_slots_match(&second.slots, &direct_slots);

    let stats = server.stats();
    assert_eq!(stats.designs_computed, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.connections, 2);
    server.shutdown();
}

fn single_flight_scenario(name: &str, transport: Transport) {
    let server = start(name, transport, |config| {
        config.workers = 4;
        config.queue_depth = 16;
    });
    let address = endpoint(&server, transport);

    let handles: Vec<_> = (0..4)
        .map(|seed| {
            let address = address.clone();
            std::thread::spawn(move || {
                let mut client =
                    DesignClient::connect_to(address).with_retry_policy(fast_retries(seed));
                client.request(nominal_job(), RequestOptions::default())
            })
        })
        .collect();
    let mut slot_maps = Vec::new();
    for handle in handles {
        match handle.join().expect("client thread").expect("request succeeds") {
            Outcome::Design(result) => slot_maps.push(result.slots),
            other => panic!("expected a design outcome: {other:?}"),
        }
    }
    assert!(slot_maps.windows(2).all(|pair| pair[0] == pair[1]), "all answers identical");

    let stats = server.stats();
    assert_eq!(
        stats.designs_computed, 1,
        "four concurrent identical requests must compute exactly once \
         (deduped {}, cache hits {})",
        stats.deduped, stats.cache_hits
    );
    assert_eq!(stats.deduped + stats.cache_hits, 3);
}

#[test]
fn single_flight_deduplicates_concurrent_identical_requests_unix() {
    single_flight_scenario("dedup-unix", Transport::Unix);
}

#[test]
fn single_flight_deduplicates_concurrent_identical_requests_tcp() {
    single_flight_scenario("dedup-tcp", Transport::Tcp);
}

fn degradation_scenario(name: &str, transport: Transport) {
    let (direct_slots, _) = reference_design();
    let mut server = start(name, transport, |_| {});
    let mut client = client(&server, transport);

    // A one-node budget cuts the exact search immediately after the root:
    // the greedy incumbent is served, flagged as uncertified.
    let degraded = client
        .request(nominal_job(), RequestOptions { node_budget: 1, ..RequestOptions::default() })
        .expect("degraded request");
    let Outcome::Design(degraded) = degraded else { panic!("expected a design outcome") };
    assert!(!degraded.certified_optimal, "a budget cut must be reported");
    assert!(
        degraded.slots.len() >= direct_slots.len(),
        "the greedy incumbent can never beat the exact optimum"
    );

    // `require_certified` treats the degraded cache entry as a miss and
    // recomputes at full fidelity.
    let certified = client
        .request(nominal_job(), RequestOptions { require_certified: true, ..RequestOptions::default() })
        .expect("certified request");
    let Outcome::Design(certified) = certified else { panic!("expected a design outcome") };
    assert!(certified.certified_optimal);
    assert_slots_match(&certified.slots, &direct_slots);
    assert_eq!(server.stats().designs_computed, 2);

    // The certified artifact replaced the degraded one: both fidelity
    // levels are now cache hits.
    let reused = client
        .request(nominal_job(), RequestOptions { require_certified: true, ..RequestOptions::default() })
        .expect("reuse request");
    let Outcome::Design(reused) = reused else { panic!("expected a design outcome") };
    assert!(reused.from_cache && reused.certified_optimal);
    server.shutdown();
}

#[test]
fn node_budget_exhaustion_degrades_to_the_greedy_incumbent_unix() {
    degradation_scenario("degrade-unix", Transport::Unix);
}

#[test]
fn node_budget_exhaustion_degrades_to_the_greedy_incumbent_tcp() {
    degradation_scenario("degrade-tcp", Transport::Tcp);
}

fn overload_scenario(name: &str, transport: Transport) {
    let server = start(name, transport, |config| {
        config.workers = 1;
        config.queue_depth = 1;
        config.chaos = Some(ChaosConfig {
            seed: 5,
            worker_stall_probability: 1.0,
            stall_ms: 300,
            ..ChaosConfig::default()
        });
    });
    let address = endpoint(&server, transport);

    // Six impatient clients (no retries) flood a 1-worker/1-slot server
    // whose worker stalls 300 ms per job: the queue bound forces sheds.
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let address = address.clone();
            std::thread::spawn(move || {
                let mut client = DesignClient::connect_to(address).with_retry_policy(RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                });
                client.request(nominal_job(), RequestOptions::default())
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().expect("client")).collect();
    let shed_seen = outcomes.iter().any(|outcome| {
        matches!(outcome, Err(e) if e.to_string().contains("busy"))
    });
    assert!(shed_seen, "a flooded bounded queue must shed: {outcomes:?}");
    assert!(server.stats().shed >= 1);

    // A patient client retries through the backlog and succeeds.
    let mut patient = DesignClient::connect_to(address).with_retry_policy(RetryPolicy {
        max_attempts: 30,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_millis(200),
        jitter_seed: 11,
    });
    let outcome = patient.request(nominal_job(), RequestOptions::default()).expect("retry wins");
    assert!(matches!(outcome, Outcome::Design(_)));
}

#[test]
fn overload_sheds_requests_instead_of_queueing_unboundedly_unix() {
    overload_scenario("shed-unix", Transport::Unix);
}

#[test]
fn overload_sheds_requests_instead_of_queueing_unboundedly_tcp() {
    overload_scenario("shed-tcp", Transport::Tcp);
}

fn busy_workers_scenario(name: &str, transport: Transport) {
    let (direct_slots, direct_table) = reference_design();
    let mut server = start(name, transport, |config| {
        config.workers = 1;
        config.queue_depth = 1;
        config.grace = Duration::from_millis(100);
    });
    let mut client = client(&server, transport);
    let primed = client.request(nominal_job(), RequestOptions::default()).expect("prime");
    assert!(matches!(primed, Outcome::Design(_)));

    // Occupy the only worker with a campaign that streams for far longer
    // than the test runs.
    let endless = CampaignJob {
        scenarios_per_intensity: 100_000,
        duration: 1.0,
        ..small_campaign(1)
    };
    let mut stream = client.stream_campaign(endless, RequestOptions::default()).expect("stream");
    let first = stream.next().expect("one item").expect("progress frame");
    assert!(matches!(first, Outcome::Progress(_)), "expected progress, got {first:?}");

    // Fill the single queue slot. The first probe takes it and gives up
    // after its deadline, but its job stays queued behind the stream; only a
    // full queue sheds, so a shed probe shows the slot is taken.
    let probe_request = Request {
        id: 2,
        deadline_ms: 100,
        node_budget: 0,
        require_certified: false,
        job: Job::Campaign(small_campaign(0)),
    }
    .encode();
    let mut probe = RawConn::connect(&server, transport);
    let probing = Instant::now();
    while !matches!(raw_round_trip(&mut probe, &probe_request).outcome, Outcome::Busy) {
        assert!(probing.elapsed() < Duration::from_secs(10), "the queue never filled");
    }

    // A cache hit computes nothing: the handler answers it, bit-identically,
    // without waiting for a worker and without shedding.
    let shed = server.stats().shed;
    let mut hitting = RawConn::connect(&server, transport);
    let hit_request = Request {
        id: 3,
        deadline_ms: 0,
        node_budget: 0,
        require_certified: false,
        job: nominal_job(),
    };
    let response = raw_round_trip(&mut hitting, &hit_request.encode());
    assert_eq!(response.id, 3);
    let Outcome::Design(hit) = response.outcome else {
        panic!("a cache hit must be answered while every worker is busy: {:?}", response.outcome)
    };
    assert!(hit.from_cache && hit.certified_optimal);
    assert_slots_match(&hit.slots, &direct_slots);
    assert_tables_bit_identical(&hit.table, &direct_table);
    assert_eq!(server.stats().shed, shed, "a cache hit is never shed");
    drop(stream);
    server.shutdown();
}

#[test]
fn cache_hits_are_answered_while_every_worker_is_busy_unix() {
    busy_workers_scenario("busy-hit-unix", Transport::Unix);
}

#[test]
fn cache_hits_are_answered_while_every_worker_is_busy_tcp() {
    busy_workers_scenario("busy-hit-tcp", Transport::Tcp);
}

fn worker_fault_routing_scenario(name: &str, transport: Transport) {
    // Every request stalls its worker first, the cache hit included: the
    // chaos schedule is drawn per request, so a hit whose plan names a
    // worker fault must still run on a worker.
    let stall = Duration::from_millis(150);
    let mut server = start(&format!("{name}-stall"), transport, |config| {
        config.chaos = Some(ChaosConfig {
            seed: 9,
            worker_stall_probability: 1.0,
            stall_ms: stall.as_millis() as u64,
            ..ChaosConfig::default()
        });
    });
    let mut stalling = client(&server, transport);
    let primed = stalling.request(nominal_job(), RequestOptions::default()).expect("prime");
    assert!(matches!(primed, Outcome::Design(_)));
    let started = Instant::now();
    let outcome = stalling.request(nominal_job(), RequestOptions::default()).expect("hit");
    let elapsed = started.elapsed();
    let Outcome::Design(hit) = outcome else { panic!("expected a design outcome: {outcome:?}") };
    assert!(hit.from_cache);
    assert!(elapsed >= stall, "a stalled hit must wait out the stall, took {elapsed:?}");
    assert_eq!(server.stats().cache_hits, 1);
    server.shutdown();

    // A seed whose first request (the prime) runs clean and whose second
    // (the hit) panics its worker.
    let base = ChaosConfig { worker_panic_probability: 0.5, ..ChaosConfig::default() };
    let chaos = (0..)
        .map(|seed| ChaosConfig { seed, ..base.clone() })
        .find(|chaos| !chaos.plan(0).panic_worker && chaos.plan(1).panic_worker)
        .expect("some seed panics only the second request");
    let mut server = start(&format!("{name}-panic"), transport, |config| {
        config.chaos = Some(chaos);
    });
    let mut impatient = client(&server, transport)
        .with_retry_policy(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
    let primed = impatient.request(nominal_job(), RequestOptions::default()).expect("prime");
    assert!(matches!(primed, Outcome::Design(_)));
    let error = impatient
        .request(nominal_job(), RequestOptions::default())
        .expect_err("the hit's worker panics");
    assert!(error.to_string().contains("induced worker panic"), "{error}");
    let stats = server.stats();
    assert_eq!((stats.worker_panics, stats.cache_hits), (1, 0));
    server.shutdown();
}

#[test]
fn worker_faulted_hits_still_run_on_the_worker_unix() {
    worker_fault_routing_scenario("fault-hit-unix", Transport::Unix);
}

#[test]
fn worker_faulted_hits_still_run_on_the_worker_tcp() {
    worker_fault_routing_scenario("fault-hit-tcp", Transport::Tcp);
}

fn panic_isolation_scenario(name: &str, transport: Transport) {
    let mut server = start(name, transport, |config| {
        config.chaos = Some(ChaosConfig {
            seed: 3,
            worker_panic_probability: 1.0,
            ..ChaosConfig::default()
        });
    });
    let mut impatient = client(&server, transport)
        .with_retry_policy(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });

    for _ in 0..3 {
        // Every job panics; the isolation layer still *answers* each
        // request — the client sees a retryable WorkerPanic, not a hang.
        let result = impatient.request(nominal_job(), RequestOptions::default());
        match result {
            Err(error) => assert!(
                error.to_string().contains("induced worker panic"),
                "the panic payload surfaces in the structured error: {error}"
            ),
            Ok(outcome) => panic!("expected exhausted retries, got {outcome:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 3);
    assert_eq!(stats.requests, 3, "the server answered every request despite the panics");
    assert!(server.cached_artifacts() == 0, "a panicking job must not poison the cache");
    server.shutdown();
}

#[test]
fn worker_panics_become_structured_errors_and_the_server_survives_unix() {
    panic_isolation_scenario("panic-unix", Transport::Unix);
}

#[test]
fn worker_panics_become_structured_errors_and_the_server_survives_tcp() {
    panic_isolation_scenario("panic-tcp", Transport::Tcp);
}

fn deadline_scenario(name: &str, transport: Transport) {
    let mut server = start(name, transport, |config| {
        config.grace = Duration::from_millis(500);
    });
    let mut client = client(&server, transport);

    // A campaign far too large for a 100 ms deadline: the watchdog flips
    // the token, the pipeline stops at a cooperative checkpoint, and the
    // client receives a *terminal* DeadlineExceeded (never retried).
    let job = Job::Campaign(CampaignJob {
        design: nominal_design(),
        seed: 42,
        drop_probabilities: vec![0.0, 0.2, 0.4],
        scenarios_per_intensity: 10_000,
        duration: 1.0,
        alpha: 0.05,
        progress_every: 0,
    });
    let started = Instant::now();
    let outcome = client
        .request(job, RequestOptions { deadline_ms: 100, ..RequestOptions::default() })
        .expect("a deadline failure is a terminal outcome, not a client error");
    let elapsed = started.elapsed();
    assert!(
        matches!(outcome, Outcome::Error { kind: ErrorKind::DeadlineExceeded, .. }),
        "expected DeadlineExceeded, got {outcome:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "the response must arrive promptly, not after the full campaign ({elapsed:?})"
    );
    assert!(server.stats().deadline_expired >= 1);

    // The same server still serves nominal work afterwards.
    let outcome = client.request(nominal_job(), RequestOptions::default()).expect("nominal");
    assert!(matches!(outcome, Outcome::Design(_)));
    server.shutdown();
}

#[test]
fn deadlines_produce_structured_timeouts_within_the_grace_window_unix() {
    deadline_scenario("deadline-unix", Transport::Unix);
}

#[test]
fn deadlines_produce_structured_timeouts_within_the_grace_window_tcp() {
    deadline_scenario("deadline-tcp", Transport::Tcp);
}

fn malformed_frames_scenario(name: &str, transport: Transport) {
    let mut server = start(name, transport, |_| {});

    // An announced frame length beyond the cap: structured Protocol error,
    // before any allocation, then the connection is dropped.
    let mut stream = RawConn::connect(&server, transport);
    stream.write_all(&(automotive_cps::serve::MAX_FRAME as u32 + 1).to_le_bytes()).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("server answers then closes");
    assert!(!reply.is_empty(), "an oversized frame earns an error response");

    // A frame whose payload is garbage: structured Protocol error.
    let mut stream = RawConn::connect(&server, transport);
    stream.write_all(&10u32.to_le_bytes()).unwrap();
    stream.write_all(&[0xFF; 10]).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("server answers then closes");
    assert!(!reply.is_empty(), "a garbage payload earns an error response");

    // A truncated frame (connection closed mid-prefix): the handler drops
    // the connection without dying.
    let mut stream = RawConn::connect(&server, transport);
    stream.write_all(&[0x01, 0x02]).unwrap();
    stream.shutdown_write();
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);

    assert!(server.stats().protocol_errors >= 2);

    // The server survived all of it.
    let mut client = client(&server, transport);
    let outcome = client.request(nominal_job(), RequestOptions::default()).expect("still alive");
    assert!(matches!(outcome, Outcome::Design(_)));
    server.shutdown();
}

#[test]
fn malformed_frames_are_rejected_cleanly_unix() {
    malformed_frames_scenario("malformed-unix", Transport::Unix);
}

#[test]
fn malformed_frames_are_rejected_cleanly_tcp() {
    malformed_frames_scenario("malformed-tcp", Transport::Tcp);
}

/// Writes one request payload on a raw connection and reads its answer.
fn raw_round_trip(stream: &mut RawConn, payload: &[u8]) -> Response {
    write_frame(stream, payload).expect("request written");
    let frame = read_frame(stream).expect("answer read").expect("answer frame");
    Response::decode(&frame).expect("answer decodes")
}

fn invalid_problem_scenario(name: &str, transport: Transport) {
    let (direct_slots, direct_table) = reference_design();
    let mut server = start(name, transport, |_| {});

    // A one-app design whose payload layout is fixed by the wire format:
    // a 21-byte request header, the job tag, the u32 spec count, the
    // spec name (u32 length + bytes), then `A` and `B` as u32 rows, u32
    // cols, u32 entry count and the row-major f64 entries. The job ends
    // with the allocator (three tags, u64 slot budget, f64 slot overhead)
    // and the 40-byte bus geometry.
    let spec = fleet_specs()
        .into_iter()
        .find(|spec| spec.plant.a().rows() >= 2)
        .expect("reshaping A to 1 x n² needs a multi-state plant");
    let n = spec.plant.a().rows();
    let valid = |id: u64| {
        Request {
            id,
            deadline_ms: 0,
            node_budget: 0,
            require_certified: false,
            job: Job::Design(design_job(
                std::slice::from_ref(&spec),
                &AllocatorConfig::default(),
                &FlexRayConfig::paper_case_study(),
            )),
        }
        .encode()
    };
    let a_at = 21 + 1 + 4 + 4 + spec.name.len();
    let b_at = a_at + 12 + 8 * n * n;

    // (a) A reshaped to 1 x n²: the shape matches the data, but the state
    // matrix is not square.
    let mut non_square = valid(101);
    non_square[a_at..a_at + 4].copy_from_slice(&1u32.to_le_bytes());
    non_square[a_at + 4..a_at + 8].copy_from_slice(&((n * n) as u32).to_le_bytes());
    // (b) A NaN entry in B.
    let mut nan_input = valid(102);
    nan_input[b_at + 12..b_at + 20].copy_from_slice(&f64::NAN.to_le_bytes());
    // (c) A slot overhead of -1 s.
    let mut negative_overhead = valid(103);
    let overhead_at = negative_overhead.len() - 40 - 8;
    negative_overhead[overhead_at..overhead_at + 8].copy_from_slice(&(-1.0f64).to_le_bytes());

    // Every rejection comes back on its own id, and the connection keeps
    // serving: all three go over the same raw connection.
    let mut stream = RawConn::connect(&server, transport);
    for (id, payload, field) in [
        (101, non_square, "plant model"),
        (102, nan_input, "plant model"),
        (103, negative_overhead, "slot overhead"),
    ] {
        let response = raw_round_trip(&mut stream, &payload);
        assert_eq!(response.id, id, "the rejection must carry the request's id");
        match &response.outcome {
            Outcome::Error { kind: ErrorKind::InvalidRequest, message } => {
                assert!(message.contains(field), "request {id} must name the {field}: {message}")
            }
            other => panic!("request {id} names an invalid problem: {other:?}"),
        }
    }
    assert_eq!(server.stats().protocol_errors, 0, "an invalid problem is not a protocol error");

    // A valid design on the same connection is answered bit-identically to
    // the direct pipeline.
    let nominal = Request {
        id: 104,
        deadline_ms: 0,
        node_budget: 0,
        require_certified: false,
        job: nominal_job(),
    };
    let response = raw_round_trip(&mut stream, &nominal.encode());
    assert_eq!(response.id, 104);
    let Outcome::Design(design) = response.outcome else {
        panic!("expected a design outcome: {:?}", response.outcome)
    };
    assert!(design.certified_optimal);
    assert_slots_match(&design.slots, &direct_slots);
    assert_tables_bit_identical(&design.table, &direct_table);
    assert_eq!(server.stats().protocol_errors, 0);
    server.shutdown();
}

#[test]
fn invalid_problem_is_answered_on_its_own_id_unix() {
    invalid_problem_scenario("invalid-unix", Transport::Unix);
}

#[test]
fn invalid_problem_is_answered_on_its_own_id_tcp() {
    invalid_problem_scenario("invalid-tcp", Transport::Tcp);
}

#[test]
fn shutdown_is_quiescent_with_connections_open() {
    let mut server = start("quiesce", Transport::Tcp, |_| {});
    // Handlers blocked mid-read on both transports when shutdown arrives.
    let idle_unix = RawConn::connect(&server, Transport::Unix);
    let idle_tcp = RawConn::connect(&server, Transport::Tcp);
    // Give the accept loops a beat to register the handlers.
    let registered = Instant::now();
    while server.live_handlers() < 2 && registered.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_handlers(), 2);
    server.shutdown();
    assert_eq!(
        server.live_handlers(),
        0,
        "shutdown must be quiescent: no handler may outlive it"
    );
    drop(idle_unix);
    drop(idle_tcp);
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

fn small_campaign(progress_every: u64) -> CampaignJob {
    CampaignJob {
        design: nominal_design(),
        seed: 42,
        drop_probabilities: vec![0.0, 0.3],
        scenarios_per_intensity: 4,
        duration: 0.5,
        alpha: 0.05,
        progress_every,
    }
}

fn streaming_scenario(name: &str, transport: Transport) {
    let mut server = start(name, transport, |_| {});
    let mut client = client(&server, transport);

    // Prime the artifact cache so the streamed and non-streamed responses
    // agree on `from_cache` and differ in nothing at all.
    let primed = client.request(nominal_job(), RequestOptions::default()).expect("prime");
    assert!(matches!(primed, Outcome::Design(_)));

    let reference = client
        .request(Job::Campaign(small_campaign(0)), RequestOptions::default())
        .expect("non-streamed campaign");
    let Outcome::Campaign(reference) = reference else {
        panic!("expected a campaign outcome: {reference:?}")
    };

    let stream = client
        .stream_campaign(small_campaign(1), RequestOptions::default())
        .expect("stream starts");
    let mut progress_totals = Vec::new();
    let mut terminal = None;
    for item in stream {
        let outcome = item.expect("stream item");
        match outcome {
            Outcome::Progress(progress) => {
                assert_eq!(progress.families.len(), 2, "one snapshot per family");
                for family in &progress.families {
                    assert!(family.scenarios <= progress.total);
                    assert!(family.lower <= family.estimate && family.estimate <= family.upper);
                }
                progress_totals.push(progress.total);
            }
            other => {
                assert!(terminal.is_none(), "exactly one terminal frame");
                terminal = Some(other);
            }
        }
    }
    let terminal = terminal.expect("the stream must end with a terminal frame");

    // Progress frames: present, strictly monotone, all proper prefixes.
    assert!(!progress_totals.is_empty(), "progress_every=1 must emit snapshots");
    assert!(
        progress_totals.windows(2).all(|pair| pair[0] < pair[1]),
        "progress totals must be strictly monotone: {progress_totals:?}"
    );
    assert!(progress_totals.iter().all(|&total| total < 8), "snapshots are proper prefixes");

    // The terminal frame is bit-identical to the non-streamed response:
    // same decoded value *and* identical encoded bytes.
    let Outcome::Campaign(streamed) = &terminal else {
        panic!("expected a campaign outcome: {terminal:?}")
    };
    assert_eq!(streamed.total, 8);
    assert_eq!(streamed, &reference);
    let reference_bytes = Response { id: 1, outcome: Outcome::Campaign(reference) }.encode();
    let streamed_bytes = Response { id: 1, outcome: terminal }.encode();
    assert_eq!(
        reference_bytes, streamed_bytes,
        "the streamed terminal frame must be bit-identical to the non-streamed response"
    );

    assert_eq!(server.stats().progress_frames, progress_totals.len() as u64);
    server.shutdown();
}

#[test]
fn streamed_terminal_frame_is_bit_identical_to_the_non_streamed_response_unix() {
    streaming_scenario("stream-unix", Transport::Unix);
}

#[test]
fn streamed_terminal_frame_is_bit_identical_to_the_non_streamed_response_tcp() {
    streaming_scenario("stream-tcp", Transport::Tcp);
}

#[test]
fn dropping_the_stream_cancels_the_campaign() {
    let mut server = start("stream-cancel", Transport::Unix, |config| {
        config.workers = 1;
    });
    let mut client = client(&server, Transport::Unix);

    // A campaign that would take far too long to finish, streaming every
    // scenario. Read one progress frame, then drop the stream.
    let huge = CampaignJob {
        design: nominal_design(),
        seed: 7,
        drop_probabilities: vec![0.0, 0.2, 0.4],
        scenarios_per_intensity: 100_000,
        duration: 1.0,
        alpha: 0.05,
        progress_every: 1,
    };
    let mut stream = client.stream_campaign(huge, RequestOptions::default()).expect("stream");
    let first = stream.next().expect("one item").expect("progress frame");
    assert!(matches!(first, Outcome::Progress(_)), "expected progress, got {first:?}");
    drop(stream);

    // The server must notice the dead stream and fire the cancel token.
    let waited = Instant::now();
    while server.stats().streams_cancelled == 0 && waited.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().streams_cancelled, 1, "the abandoned stream must cancel");

    // The single worker is free again promptly: a cancelled campaign does
    // not run to completion in the background.
    let mut retrying = DesignClient::connect_to(endpoint(&server, Transport::Unix))
        .with_retry_policy(fast_retries(3));
    let outcome = retrying.request(nominal_job(), RequestOptions::default()).expect("worker free");
    assert!(matches!(outcome, Outcome::Design(_)));
    server.shutdown();
}

/// The deterministic chaos soak: a seeded fault mix (worker panics, stalls,
/// dropped, truncated and corrupted responses) against a retrying client.
/// Every request must reach a terminal outcome, delivered design answers
/// must be bit-identical to the direct pipeline, the server must survive,
/// and the entire run must replay identically from the same seeds.
/// Campaign rounds stream (`progress_every = 1`), so the soak also drives
/// progress frames through the fault mix.
fn chaos_soak(name: &str, transport: Transport) -> (Vec<String>, u64) {
    let (direct_slots, direct_table) = reference_design();
    let server = start(name, transport, |config| {
        config.workers = 2;
        config.queue_depth = 8;
        config.chaos = Some(ChaosConfig {
            seed: 0xC4A05,
            worker_panic_probability: 0.15,
            worker_stall_probability: 0.05,
            stall_ms: 50,
            drop_connection_probability: 0.10,
            truncate_response_probability: 0.05,
            corrupt_response_probability: 0.05,
        });
    });
    let mut client = client(&server, transport).with_retry_policy(fast_retries(7));

    let design = nominal_design();
    let mut kinds = Vec::new();
    for round in 0..30u64 {
        let (job, options) = match round % 4 {
            0 => (Job::Design(design.clone()), RequestOptions::default()),
            1 => (
                Job::Design(design.clone()),
                RequestOptions { node_budget: 1, ..RequestOptions::default() },
            ),
            2 => (
                Job::Sweep(SweepJob {
                    design: design.clone(),
                    cycle_lengths: vec![0.005, 0.01],
                    static_slot_counts: vec![4, 10],
                    slot_lengths: vec![],
                }),
                RequestOptions::default(),
            ),
            _ => (
                Job::Campaign(CampaignJob {
                    design: design.clone(),
                    seed: round,
                    drop_probabilities: vec![0.0, 0.3],
                    scenarios_per_intensity: 2,
                    duration: 0.5,
                    alpha: 0.05,
                    progress_every: 1,
                }),
                RequestOptions::default(),
            ),
        };
        let outcome = client
            .request(job, options)
            .unwrap_or_else(|error| panic!("request {round} never went terminal: {error}"));
        // Chaos corrupts transport, never answers: any delivered design is
        // still bit-identical to the direct pipeline.
        if let Outcome::Design(result) = &outcome {
            if result.certified_optimal {
                assert_slots_match(&result.slots, &direct_slots);
                assert_tables_bit_identical(&result.table, &direct_table);
            } else {
                assert!(result.slots.len() >= direct_slots.len());
            }
        }
        kinds.push(match &outcome {
            Outcome::Design(result) => format!("design(certified={})", result.certified_optimal),
            Outcome::Sweep(result) => format!("sweep(rows={})", result.rows.len()),
            Outcome::Campaign(result) => format!("campaign(total={})", result.total),
            Outcome::Busy => "busy".to_string(),
            Outcome::Progress(_) => unreachable!("request() never returns a non-terminal frame"),
            Outcome::Error { kind, .. } => format!("error({kind})"),
        });
    }
    let stats = server.stats();
    assert!(stats.worker_panics > 0, "the soak must actually exercise panic isolation");
    assert!(
        stats.requests > 30,
        "retries must have re-entered the server (requests = {})",
        stats.requests
    );
    (kinds, stats.worker_panics)
}

fn chaos_soak_scenario(prefix: &str, transport: Transport) {
    let (first, first_panics) = chaos_soak(&format!("{prefix}-a"), transport);
    assert!(first.iter().all(|kind| !kind.starts_with("error(")
        || kind.contains("deadline")), "no request may end in a non-deadline error: {first:?}");
    // Same chaos seed, same request sequence, same jitter seed: the whole
    // fault schedule — and therefore every terminal outcome — replays.
    let (second, second_panics) = chaos_soak(&format!("{prefix}-b"), transport);
    assert_eq!(first, second, "the chaos soak must be deterministic");
    assert_eq!(first_panics, second_panics);
}

#[test]
fn chaos_soak_terminates_every_request_and_replays_deterministically_unix() {
    chaos_soak_scenario("soak-unix", Transport::Unix);
}

#[test]
fn chaos_soak_terminates_every_request_and_replays_deterministically_tcp() {
    chaos_soak_scenario("soak-tcp", Transport::Tcp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Round trip: an arbitrary design, sweep or campaign request (fleet
    // size, slot budget and overhead, floats, vectors, flags) decodes to
    // itself, and re-encoding the decoded request gives back the very same
    // bytes, so a decoded job keeps the content key it arrived under.
    #[test]
    fn wire_requests_round_trip(
        kind in 0usize..3,
        apps in 1usize..7,
        overhead in 0.0f64..1e-4,
        id in 0usize..1_000_000,
        deadline in 0usize..100_000,
        budget in 0usize..1_000_000,
        seed in 0usize..1_000_000,
        drops in proptest::collection::vec(0.0f64..1.0, 0..6),
        counts in proptest::collection::vec(1usize..64, 0..4),
        scenarios in 0usize..10_000,
        duration in 0.01f64..10.0,
        alpha in 0.001f64..0.5,
        every in 0usize..512,
    ) {
        let alloc = AllocatorConfig {
            max_slots: apps,
            slot_timing: SlotTiming::new(overhead).expect("a valid overhead"),
            ..AllocatorConfig::default()
        };
        let design =
            design_job(&fleet_specs()[..apps], &alloc, &FlexRayConfig::paper_case_study());
        let job = match kind {
            0 => Job::Design(design),
            1 => Job::Sweep(SweepJob {
                design,
                cycle_lengths: drops.iter().map(|p| 0.001 + 0.01 * p).collect(),
                static_slot_counts: counts.iter().map(|&count| count as u32).collect(),
                slot_lengths: drops.iter().map(|p| 1e-5 * (1.0 + p)).collect(),
            }),
            _ => Job::Campaign(CampaignJob {
                design,
                seed: seed as u64,
                drop_probabilities: drops,
                scenarios_per_intensity: scenarios as u64,
                duration,
                alpha,
                progress_every: every as u64,
            }),
        };
        let request = Request {
            id: id as u64,
            deadline_ms: deadline as u32,
            node_budget: budget as u64,
            require_certified: seed % 2 == 0,
            job,
        };
        let bytes = request.encode();
        let decoded = Request::decode(&bytes).expect("round trip");
        prop_assert_eq!(decoded.encode(), bytes, "re-encoding must give back the same bytes");
        prop_assert_eq!(decoded, request);
    }

    // Adversarial decode: truncations and byte flips of a valid payload
    // must produce a clean Ok/Err — never a panic, hang or huge allocation.
    #[test]
    fn mangled_wire_payloads_never_panic(
        cut in 0.0f64..1.0,
        flip_pos in 0.0f64..1.0,
        flip_mask in 1usize..256,
    ) {
        let request = automotive_cps::serve::Request {
            id: 7,
            deadline_ms: 5,
            node_budget: 9,
            require_certified: true,
            job: nominal_job(),
        };
        let bytes = request.encode();
        let truncated = &bytes[..(cut * bytes.len() as f64) as usize];
        let _ = automotive_cps::serve::Request::decode(truncated);
        let mut flipped = bytes.clone();
        let pos = (flip_pos * (bytes.len() - 1) as f64) as usize;
        flipped[pos] ^= flip_mask as u8;
        let _ = automotive_cps::serve::Request::decode(&flipped);
        let _ = automotive_cps::serve::Response::decode(&flipped);
        // Oversized collection counts must be rejected before allocating:
        // bytes 22..26 hold the spec count (after the 21-byte header and the
        // job tag), and every count above the bytes left is refused.
        let mut huge = bytes;
        let count = (0x00ff_ffff | (flip_mask << 24)) as u32;
        huge[22..26].copy_from_slice(&count.to_le_bytes());
        prop_assert_eq!(
            automotive_cps::serve::Request::decode(&huge).unwrap_err(),
            automotive_cps::serve::WireError::Invalid { what: "collection length" }
        );
    }
}

fn parallel_watchdog_scenario(name: &str, transport: Transport) {
    // Four copies of the derived case-study fleet with deadlines halved
    // (each copy de-tuned by 1.3 % so no two applications are identical):
    // 24 applications whose greedy incumbent needs 8 slots against an exact
    // optimum of 7, with an optimality proof of ~1e8 search nodes. Greedy
    // characterisation finishes in tens of milliseconds (release) while the
    // exact search runs for tens of seconds even across 4 portfolio
    // workers, so a 4 s request deadline reliably lands *inside* the
    // parallel search — the regime this scenario pins down.
    let mut specs = Vec::new();
    for copy in 0..4usize {
        for mut spec in fleet_specs() {
            spec.name = format!("{}-{copy}", spec.name);
            spec.deadline *= 0.5 * (1.0 + copy as f64 * 0.013);
            specs.push(spec);
        }
    }
    let job = Job::Design(design_job(
        &specs,
        &AllocatorConfig { max_slots: specs.len(), ..AllocatorConfig::default() },
        &FlexRayConfig::paper_case_study(),
    ));

    let mut server = start(name, transport, |config| {
        config.allocator_threads = 4;
        config.grace = Duration::from_secs(10);
    });
    let mut client = client(&server, transport);

    // The watchdog flips the token mid-search; the budget/cancel plumbing
    // aggregates it across all four workers, every subtree search cuts, and
    // the service answers with the greedy incumbent instead of erroring:
    // a *degraded design*, not a DeadlineExceeded.
    let started = Instant::now();
    let outcome = client
        .request(job, RequestOptions { deadline_ms: 4_000, ..RequestOptions::default() })
        .expect("a mid-search deadline degrades, it does not error");
    let elapsed = started.elapsed();
    let Outcome::Design(degraded) = outcome else {
        panic!("expected a degraded design outcome, got {outcome:?}")
    };
    assert!(
        !degraded.certified_optimal,
        "a search cut mid-proof must be reported as uncertified"
    );
    // The incumbent bracket: never better than the exact optimum (7 slots,
    // certified by the release-mode probe at ~1.2e8 nodes), never worse
    // than the greedy seed (8 slots).
    assert!(
        (7..=8).contains(&degraded.slots.len()),
        "the incumbent must sit between the optimum and the greedy seed, \
         got {} slots",
        degraded.slots.len()
    );
    assert!(
        elapsed < Duration::from_secs(20),
        "the degraded answer must arrive promptly after the watchdog fires, \
         not after the full proof ({elapsed:?})"
    );
    let stats = server.stats();
    assert_eq!(
        stats.deadline_expired, 0,
        "a degraded design is a successful response, not an expired one"
    );
    assert_eq!(stats.designs_computed, 1);

    // The same server still serves nominal work at full fidelity.
    let outcome = client.request(nominal_job(), RequestOptions::default()).expect("nominal");
    let Outcome::Design(nominal) = outcome else { panic!("expected a design outcome") };
    assert!(nominal.certified_optimal);
    server.shutdown();
}

#[test]
fn watchdog_degrades_a_parallel_search_to_the_greedy_incumbent_unix() {
    parallel_watchdog_scenario("parallel-watchdog-unix", Transport::Unix);
}

#[test]
fn watchdog_degrades_a_parallel_search_to_the_greedy_incumbent_tcp() {
    parallel_watchdog_scenario("parallel-watchdog-tcp", Transport::Tcp);
}
