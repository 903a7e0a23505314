//! `service_mixed`: an in-process `DesignServer` over its Unix socket, driven
//! from two connections (one client thread each) with mostly cache-hit
//! designs of a hot set smaller than the cache, a few unique cache-miss
//! designs and a few short campaigns on a hot design. Latency is measured
//! open loop, on a fixed schedule and timed from each request's due time;
//! capacity closed loop, each connection sending as soon as its previous
//! response is in.

use crate::specs::perturbed_fleet;
use crate::stats::{self, median, OpenLoopSample};
use crate::trace::{self, Tracer};
use crate::{ratio, say, timed_setup, Args, Outcome, THREADS};
use cps_core::{ApplicationSpec, DesignedFleet, FleetDesigner};
use cps_flexray::{FlexRayConfig, SimRng};
use cps_sched::AllocatorConfig;
use cps_serve::protocol::{read_frame, write_frame};
use cps_serve::{
    design_job, CampaignJob, DesignJob, DesignResult, DesignServer, Job, Outcome as Reply, Request,
    Response, ServerConfig, ServerHandle,
};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client connections, one client thread each.
const CONNECTIONS: usize = 2;
/// Hot designs; the cache holds [`CACHE`], so every hot request hits.
const HOT: u64 = 8;
const CACHE: usize = 32;
/// The mix repeats every `MIX_PERIOD` requests: one unique cache miss at
/// offset `MISS_AT`, one short campaign at `CAMPAIGN_AT`, hits elsewhere
/// (about 2% each). The period is odd, so misses and campaigns alternate
/// between the two connections; spacing them evenly keeps random
/// clustering of slow requests out of the tail percentiles.
const MIX_PERIOD: usize = 49;
const MISS_AT: usize = 17;
const CAMPAIGN_AT: usize = 41;
/// Fixed arrival rate at which the latency percentiles are reported.
const FIXED_RATE: f64 = 400.0;
/// Requests per block of the fixed-rate tail median: a p99 with ten
/// samples beyond it. The fixed-rate phase sends at least `MIN_BLOCKS`.
const BLOCK: usize = 1000;
const MIN_BLOCKS: usize = 3;
/// Share of `--seconds` spent at the fixed rate; closed-loop capacity
/// rounds fill the rest.
const FIXED_SHARE: f64 = 0.6;
/// Requests per closed-loop capacity round (whole mix periods, so every
/// round sends the same mix) and the fewest rounds a run makes. The
/// capacity is the median round.
const CAPACITY_REQUESTS: usize = 100 * MIX_PERIOD;
const MIN_ROUNDS: usize = 5;
/// Stream tags keeping hot, miss and mix draws independent.
const HOT_TAG: u64 = 0x4807;
const MISS_TAG: u64 = 0x3155;
const MIX_TAG: u64 = 0x313C;

fn err(error: impl std::fmt::Display) -> String {
    error.to_string()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Hit(u64),
    Miss(u64),
    Campaign(u64, u64),
}

fn hot_specs(seed: u64, h: u64) -> Vec<ApplicationSpec> {
    perturbed_fleet(seed ^ HOT_TAG, h, 6)
}

fn miss_specs(seed: u64, m: u64) -> Vec<ApplicationSpec> {
    perturbed_fleet(seed ^ MISS_TAG, m, 6)
}

fn job_for(specs: &[ApplicationSpec]) -> DesignJob {
    design_job(
        specs,
        &AllocatorConfig::default(),
        &FlexRayConfig::paper_case_study(),
    )
}

/// A short campaign (12 one-second scenarios) on hot design `h`.
fn campaign_job(seed: u64, h: u64, campaign_seed: u64) -> CampaignJob {
    CampaignJob {
        design: job_for(&hot_specs(seed, h)),
        seed: campaign_seed,
        drop_probabilities: vec![0.0, 0.1, 0.3],
        scenarios_per_intensity: 4,
        duration: 1.0,
        alpha: 0.05,
        progress_every: 0,
    }
}

/// Kinds of the `n` requests of phase `phase`; misses draw fresh unique
/// jobs from `next_miss`, hits and campaigns draw their hot design and
/// campaign seed from the phase's stream.
fn schedule(seed: u64, phase: u64, n: usize, next_miss: &mut u64) -> Vec<Kind> {
    let mut rng = SimRng::seeded(SimRng::derive(seed ^ MIX_TAG, phase));
    (0..n)
        .map(|i| {
            let h = rng.next_below(HOT);
            match i % MIX_PERIOD {
                MISS_AT => {
                    *next_miss += 1;
                    Kind::Miss(*next_miss - 1)
                }
                CAMPAIGN_AT => Kind::Campaign(h, rng.next_u64()),
                _ => Kind::Hit(h),
            }
        })
        .collect()
}

fn request(seed: u64, id: u64, kind: Kind) -> Request {
    let job = match kind {
        Kind::Hit(h) => Job::Design(job_for(&hot_specs(seed, h))),
        Kind::Miss(m) => Job::Design(job_for(&miss_specs(seed, m))),
        Kind::Campaign(h, s) => Job::Campaign(campaign_job(seed, h, s)),
    };
    Request {
        id,
        deadline_ms: 0,
        node_budget: 0,
        require_certified: false,
        job,
    }
}

/// A fresh socket path inside this package's directory that fits
/// `sun_path` (one per server start, so a server shutting down never
/// removes the socket of its successor).
fn socket_path() -> PathBuf {
    static STARTS: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    let start = STARTS.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("svc-{}-{start}.sock", std::process::id()));
    if path.as_os_str().len() < 100 {
        return path;
    }
    // Too long for a Unix socket address: fall back to the same place,
    // relative to the working directory.
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(path)
}

fn start_server() -> Result<ServerHandle, String> {
    let mut config = ServerConfig::new(socket_path());
    config.workers = THREADS;
    config.cache_capacity = CACHE;
    config.allocator_threads = 1;
    DesignServer::start(config).map_err(err)
}

/// One sequential round trip on `conn`.
fn round_trip(conn: &mut UnixStream, payload: &[u8]) -> Result<Response, String> {
    write_frame(conn, payload).map_err(err)?;
    let reply = read_frame(conn)
        .map_err(err)?
        .ok_or("server closed the connection")?;
    Response::decode(&reply).map_err(err)
}

/// The result of one request of a phase.
struct Sample {
    timing: OpenLoopSample,
    kind: Kind,
    reply: Result<Response, String>,
}

/// Runs `kinds` at `rate` from [`CONNECTIONS`] connections (request `i` on
/// connection `i % CONNECTIONS`), each driven by one thread that sends at
/// the due time, or as soon as its previous response is in. Spans go to
/// `tracers`, one per connection, when given.
fn run_phase(
    server: &ServerHandle,
    seed: u64,
    rate: f64,
    kinds: &[Kind],
    mut tracers: Option<&mut [Tracer]>,
) -> Result<Vec<Sample>, String> {
    // Encode ahead of the schedule so the generator only writes and reads.
    let mut payloads = Vec::with_capacity(kinds.len());
    for (i, &kind) in kinds.iter().enumerate() {
        let req = request(seed, i as u64 + 1, kind);
        let encoded = match tracers.as_deref_mut() {
            Some(tracers) => {
                tracers[i % CONNECTIONS].span("serve.encode", i as u64, || req.encode())
            }
            None => req.encode(),
        };
        payloads.push(encoded);
    }
    let conns = (0..CONNECTIONS)
        .map(|_| {
            let conn = UnixStream::connect(server.socket_path()).map_err(err)?;
            conn.set_nonblocking(true).map_err(err)?;
            Ok(conn)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let origin = Instant::now() + Duration::from_millis(5);
    let tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(tracers) => tracers.iter_mut().map(Some).collect(),
        None => (0..CONNECTIONS).map(|_| None).collect(),
    };
    let mut results: Vec<Vec<(usize, Sample)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .zip(tracers)
            .enumerate()
            .map(|(c, (conn, tracer))| {
                let payloads = &payloads;
                scope.spawn(move || drive(conn, c, rate, kinds, payloads, origin, tracer))
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("client thread panicked"));
        }
    });
    let mut merged: Vec<(usize, Sample)> = results.into_iter().flatten().collect();
    merged.sort_by_key(|(i, _)| *i);
    Ok(merged.into_iter().map(|(_, sample)| sample).collect())
}

/// The client side of a connection that never blocks. Both client
/// threads poll — the clock for the next due time, the socket for the
/// response — and yield the CPU on every miss, so any runnable server
/// thread runs at once. A blocked client lets its core go idle, and on a
/// virtual machine waking an idle core takes the host tens to hundreds of
/// microseconds: several times a ~50 µs round trip, and noise that has
/// nothing to do with the code under test. A response that takes longer
/// than [`SPIN`] (a cache miss or a campaign, milliseconds of work) is
/// polled between naps of [`NAP`], so the client leaves the core to the
/// server thread computing it.
struct Polled<'a>(&'a UnixStream);

/// How long a read polls without pause, and the pause after that.
const SPIN: Duration = Duration::from_millis(1);
const NAP: Duration = Duration::from_micros(50);

impl Read for Polled<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        loop {
            match (&mut &*self.0).read(buf) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if start.elapsed() < SPIN {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(NAP);
                    }
                }
                result => return result,
            }
        }
    }
}

impl Write for Polled<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match (&mut &*self.0).write(buf) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                result => return result,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&mut &*self.0).flush()
    }
}

fn wait_until(origin: Instant, due: f64) {
    while origin.elapsed().as_secs_f64() < due {
        std::thread::yield_now();
    }
}

fn drive(
    conn: &UnixStream,
    c: usize,
    rate: f64,
    kinds: &[Kind],
    payloads: &[Vec<u8>],
    origin: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Vec<(usize, Sample)> {
    let mut out = Vec::new();
    let mut conn_free = 0.0;
    let mut conn = Polled(conn);
    for i in (c..kinds.len()).step_by(CONNECTIONS) {
        let due = i as f64 / rate;
        wait_until(origin, due);
        let sent = origin.elapsed().as_secs_f64();
        let id = i as u64;
        if let Some(t) = tracer.as_deref_mut() {
            t.begin("serve.request", id);
        }
        let reply = write_frame(&mut conn, &payloads[i])
            .map_err(err)
            .and_then(|()| read_frame(&mut conn).map_err(err))
            .and_then(|frame| frame.ok_or_else(|| "server closed the connection".to_string()));
        let done = origin.elapsed().as_secs_f64();
        let reply = reply.and_then(|frame| match tracer.as_deref_mut() {
            Some(t) => t
                .span("serve.decode", id, || Response::decode(&frame))
                .map_err(err),
            None => Response::decode(&frame).map_err(err),
        });
        if let Some(t) = tracer.as_deref_mut() {
            t.end();
        }
        out.push((
            i,
            Sample {
                timing: OpenLoopSample {
                    due,
                    sent,
                    conn_free,
                    done,
                },
                kind: kinds[i],
                reply,
            },
        ));
        conn_free = done;
    }
    out
}

/// Direct `design_fleet_optimal` results, the verification reference.
struct Oracle {
    seed: u64,
    designer: FleetDesigner,
    hot: Vec<DesignedFleet>,
}

impl Oracle {
    fn new(seed: u64) -> Result<Self, String> {
        let designer = FleetDesigner::new().with_threads(THREADS);
        let hot = (0..HOT)
            .map(|h| design(&designer, &hot_specs(seed, h)))
            .collect::<Result<_, _>>()?;
        Ok(Oracle {
            seed,
            designer,
            hot,
        })
    }

    /// Checks one reply against the direct pipeline.
    fn verify(&self, kind: Kind, reply: &Response) -> Result<bool, String> {
        Ok(match (kind, &reply.outcome) {
            (Kind::Hit(h), Reply::Design(result)) => same_design(result, &self.hot[h as usize])?,
            (Kind::Miss(m), Reply::Design(result)) => {
                same_design(result, &design(&self.designer, &miss_specs(self.seed, m))?)?
            }
            (Kind::Campaign(..), Reply::Campaign(result)) => {
                result.total == 12 && result.families.len() == 3
            }
            _ => false,
        })
    }
}

fn design(designer: &FleetDesigner, specs: &[ApplicationSpec]) -> Result<DesignedFleet, String> {
    designer
        .design_fleet_optimal(
            specs.to_vec(),
            &AllocatorConfig::default(),
            FlexRayConfig::paper_case_study(),
        )
        .map_err(err)
}

/// Bit-identity of a served design and a direct one (the timing tables are
/// compared through their exact `f64` bit patterns).
fn same_design(served: &DesignResult, direct: &DesignedFleet) -> Result<bool, String> {
    let slots: Vec<Vec<u32>> = direct
        .allocation()
        .slots
        .iter()
        .map(|slot| slot.iter().map(|&a| a as u32).collect())
        .collect();
    let table = direct.timing_table().map_err(err)?;
    let bits = |t: &cps_sched::AppTimingParams| {
        (
            t.name.clone(),
            [
                t.inter_arrival,
                t.deadline,
                t.xi_tt,
                t.xi_et,
                t.xi_m,
                t.k_p,
                t.xi_prime_m,
            ]
            .map(f64::to_bits),
        )
    };
    Ok(served.certified_optimal
        && served.slots == slots
        && served.table.len() == table.len()
        && served.table.iter().map(bits).eq(table.iter().map(bits)))
}

/// Requests completed per second, from the first due time to the last
/// response.
fn achieved(samples: &[Sample]) -> f64 {
    let span = samples.iter().map(|s| s.timing.done).fold(0.0, f64::max)
        - samples
            .iter()
            .map(|s| s.timing.due)
            .fold(f64::INFINITY, f64::min);
    ratio(samples.len() as f64, span)
}

/// Latency summary (p50, p99) and the generator's lateness p99, in ms.
fn assess(samples: &[Sample]) -> Result<(stats::Summary, f64), String> {
    let latencies: Vec<f64> = samples.iter().map(|s| s.timing.latency() * 1e3).collect();
    let late: Vec<f64> = samples.iter().map(|s| s.timing.lateness() * 1e3).collect();
    Ok((
        stats::summarize(&latencies, 0.99, BLOCK)?,
        stats::summarize(&late, 0.99, BLOCK)?.tail,
    ))
}

fn verify_all(out: &mut Outcome, oracle: &Oracle, samples: &[Sample]) -> Result<(), String> {
    for (i, sample) in samples.iter().enumerate() {
        out.attempted += 1;
        match &sample.reply {
            Ok(reply) => {
                let ok = oracle.verify(sample.kind, reply)?;
                out.check(ok, || {
                    format!(
                        "request {i} ({:?}): reply does not match the direct pipeline",
                        sample.kind
                    )
                });
            }
            Err(error) => out.check(false, || format!("request {i}: {error}")),
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    // Set-up: start the server and warm the hot set into its cache.
    let (setup_s, server) = timed_setup(5, || {
        let server = start_server()?;
        let mut conn = UnixStream::connect(server.socket_path()).map_err(err)?;
        for h in 0..HOT {
            let reply = round_trip(&mut conn, &request(seed, h + 1, Kind::Hit(h)).encode())?;
            if !matches!(reply.outcome, Reply::Design(_)) {
                return Err(format!("warming hot design {h}: {:?}", reply.outcome));
            }
        }
        Ok(server)
    })?;
    let oracle = Oracle::new(seed)?;
    let mut next_miss = 0u64;
    let blocks = (FIXED_RATE * args.seconds * FIXED_SHARE / BLOCK as f64).round() as usize;
    let fixed_n = blocks.max(MIN_BLOCKS) * BLOCK;
    let mut out = Outcome::default();
    if args.trace {
        return run_traced(args, &server, &oracle, fixed_n, &mut next_miss);
    }

    let start = Instant::now();
    let kinds = schedule(seed, 0, fixed_n, &mut next_miss);
    let fixed = run_phase(&server, seed, FIXED_RATE, &kinds, None)?;
    let (summary, late_p99) = assess(&fixed)?;
    verify_all(&mut out, &oracle, &fixed)?;

    // Capacity: the same mix closed loop (an infinite rate makes every
    // request due at once, so each connection sends back to back).
    let mut rates = Vec::new();
    while rates.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let round = rates.len() as u64 + 1;
        let kinds = schedule(seed, round, CAPACITY_REQUESTS, &mut next_miss);
        let samples = run_phase(&server, seed, f64::INFINITY, &kinds, None)?;
        verify_all(&mut out, &oracle, &samples)?;
        rates.push(achieved(&samples));
    }
    let capacity = median(&rates);
    let stats = server.stats();

    println!("\nservice_mixed: {fixed_n} requests at {FIXED_RATE}/s from 2 connections, then {} closed-loop rounds of {CAPACITY_REQUESTS}", rates.len());
    let rounds: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("  capacity per round (1/s): {}", rounds.join(" "));
    say(
        "service_p50_ms",
        summary.p50,
        "ms",
        &format!("(latency_p50_ms at {FIXED_RATE}/s, n={})", summary.n),
    );
    say(
        "service_p99_ms",
        summary.tail,
        "ms",
        &format!(
            "(latency_tail_ms, median of {} blocks of {BLOCK}, {} beyond in each)",
            summary.blocks,
            stats::samples_beyond(BLOCK, 0.99)
        ),
    );
    say(
        "service_capacity_rps",
        capacity,
        "1/s",
        "(throughput_per_s: closed loop, median round)",
    );
    say(
        "generator_late_p99_ms",
        late_p99,
        "ms",
        "(open-loop validity at the fixed rate)",
    );
    say(
        "setup_s",
        setup_s,
        "s",
        "(median of 5 server starts + hot-set warm-ups)",
    );
    println!(
        "  server: {} requests, {} cache hits, {} designs computed, {} shed",
        stats.requests, stats.cache_hits, stats.designs_computed, stats.shed
    );
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
    out.push("throughput_per_s", capacity, "1/s");
    out.push("latency_p50_ms", summary.p50, "ms");
    out.push("latency_tail_ms", summary.tail, "ms");
    Ok(out)
}

/// The traced run: the fixed-rate phase untraced and traced (client-side
/// spans around encode, each round trip and decode), then idle round trips
/// for the hit and miss paths.
fn run_traced(
    args: &Args,
    server: &ServerHandle,
    oracle: &Oracle,
    fixed_n: usize,
    next_miss: &mut u64,
) -> Result<Outcome, String> {
    let seed = args.seed;
    let mut out = Outcome::default();
    let kinds = schedule(seed, 0, fixed_n, next_miss);
    let untraced = run_phase(server, seed, FIXED_RATE, &kinds, None)?;
    let (untraced_summary, late_p99) = assess(&untraced)?;
    verify_all(&mut out, oracle, &untraced)?;

    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CONNECTIONS).map(|_| Tracer::new(origin)).collect();
    let kinds = schedule(seed, 1, fixed_n, next_miss);
    let traced = run_phase(server, seed, FIXED_RATE, &kinds, Some(&mut tracers))?;
    let traced_summary = assess(&traced)?.0;
    verify_all(&mut out, oracle, &traced)?;
    let mut tracer = tracers.remove(0);
    for other in tracers {
        tracer.absorb(other);
    }

    // Idle round trips: hits, then misses paired with a direct computation
    // of the same job on one thread (the server's allocator setting).
    let mut conn = UnixStream::connect(server.socket_path()).map_err(err)?;
    let mut hit_us = Vec::new();
    for i in 0..400u64 {
        let payload = request(seed, i, Kind::Hit(i % HOT)).encode();
        let t0 = Instant::now();
        let reply = round_trip(&mut conn, &payload)?;
        hit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        let ok = oracle.verify(Kind::Hit(i % HOT), &reply)?;
        out.check(ok, || format!("idle hit {i} does not match"));
    }
    let single = FleetDesigner::new().with_threads(1);
    let (mut compute_ms, mut gap_us) = (Vec::new(), Vec::new());
    for _ in 0..16 {
        let m = *next_miss;
        *next_miss += 1;
        let t0 = Instant::now();
        design(&single, &miss_specs(seed, m))?;
        let compute = t0.elapsed().as_secs_f64();
        let payload = request(seed, m, Kind::Miss(m)).encode();
        let t0 = Instant::now();
        let reply = round_trip(&mut conn, &payload)?;
        let rtt = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        let ok = oracle.verify(Kind::Miss(m), &reply)?;
        out.check(ok, || format!("idle miss {m} does not match"));
        compute_ms.push(compute * 1e3);
        gap_us.push((rtt - compute) * 1e6);
    }

    let table = trace::layer_table(tracer.spans());
    trace::print_layer_table("service_mixed client", &table);
    let mean_us = |name: &str| {
        table
            .get(name)
            .map_or(0.0, |row| ratio(row.total as f64, row.count as f64) / 1e3)
    };
    let codec_us = mean_us("serve.encode") + mean_us("serve.decode");
    let stats = server.stats();
    let overhead = ratio(traced_summary.p50, untraced_summary.p50) - 1.0;
    say(
        "tracing overhead",
        overhead,
        "frac",
        "traced p50 / untraced p50 at the fixed rate - 1",
    );
    out.push("serve.encode_us", mean_us("serve.encode"), "us");
    out.push("serve.decode_us", mean_us("serve.decode"), "us");
    out.push("serve.hit_rtt_us", median(&hit_us), "us");
    out.push("serve.miss_compute_ms", median(&compute_ms), "ms");
    out.push("serve.queue_transport_us", median(&gap_us) - codec_us, "us");
    out.push(
        "serve.cache_hit_frac",
        ratio(stats.cache_hits as f64, stats.requests as f64),
        "frac",
    );
    out.push(
        "serve.shed_frac",
        ratio(stats.shed as f64, stats.requests as f64),
        "frac",
    );
    out.push("serve.deduped", stats.deduped as f64, "count");
    out.push("serve.generator_late_p99_ms", late_p99, "ms");
    out.push("trace.overhead_frac", overhead, "frac");
    out.spans = tracer.spans().to_vec();
    Ok(out)
}
