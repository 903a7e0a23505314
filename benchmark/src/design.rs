//! `design_fleet`: closed loop, one design job at a time. A seeded stream of
//! distinct fleets (6–24 applications) goes through
//! `FleetDesigner::design_fleet_optimal` with two threads.

use crate::specs::{fleet_size, perturbed_fleet};
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use crate::{ratio, say, timed_setup, Args, Outcome, THREADS};
use cps_core::{case_study, DesignedFleet, FleetDesigner};
use cps_flexray::FlexRayConfig;
use cps_sched::{AllocatorConfig, OptimalAllocator, PortfolioAllocator, PortfolioConfig};
use std::time::Instant;

/// Jobs per block of the tail and throughput medians: 6 cycles of the 19
/// fleet sizes, so every block holds the same mix, and a p90 with ten
/// samples beyond it. A run measures at least `MIN_BLOCKS` blocks.
const BLOCK: usize = 6 * 19;
const MIN_BLOCKS: usize = 3;
/// The tail percentile of job latency.
const TAIL_Q: f64 = 0.9;
/// Jobs replayed stage by stage in the traced run.
const TRACED_JOBS: u64 = 48;

fn err(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// The allocator configuration `design_fleet_optimal` solves under: the
/// default, capped at the bus's static segment.
pub fn solver_config(bus: &FlexRayConfig) -> AllocatorConfig {
    let config = AllocatorConfig::default();
    AllocatorConfig {
        max_slots: config.max_slots.min(bus.static_slot_count),
        ..config
    }
}

/// Checks one designed fleet: the sequential exact allocator, run on the
/// fleet's own timing table, certifies an optimum with the same slot count.
pub fn verify_design(fleet: &DesignedFleet) -> Result<bool, String> {
    let table = fleet.timing_table().map_err(err)?;
    let mut solver =
        OptimalAllocator::new(&table, &solver_config(&fleet.bus_config())).map_err(err)?;
    let reference = solver.solve().map_err(err)?;
    Ok(solver.certified_optimal() && reference.slot_count() == fleet.slot_count())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let designer = FleetDesigner::new().with_threads(THREADS);
    let bus = FlexRayConfig::paper_case_study();
    let config = AllocatorConfig::default();
    // Set-up: standing up the case-study design point from its specs.
    let (setup_s, _) = timed_setup(21, || {
        designer
            .design_fleet_optimal(case_study::derived_fleet_specs(), &config, bus)
            .map_err(err)
    })?;
    if args.trace {
        return run_traced(args, &designer, bus);
    }

    let mut out = Outcome::default();
    let mut latencies_ms = Vec::new();
    let mut apps = 0usize;
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds || latencies_ms.len() < MIN_BLOCKS * BLOCK {
        let specs = perturbed_fleet(args.seed, k, fleet_size(args.seed, k));
        apps += specs.len();
        let t0 = Instant::now();
        let result = designer.design_fleet_optimal(specs, &config, bus);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match result {
            Ok(fleet) => {
                let verified = verify_design(&fleet)?;
                out.check(verified, || {
                    format!("design job {k} is not the certified optimum")
                });
            }
            Err(error) => out.check(false, || format!("design job {k}: {error}")),
        }
        k += 1;
    }

    let summary = stats::summarize(&latencies_ms, TAIL_Q, BLOCK)?;
    let throughput = stats::block_median(&latencies_ms, BLOCK, stats::rate_per_s)
        .ok_or("no full block of jobs")?;
    println!("\ndesign_fleet: {} jobs, {} applications, every design checked against the sequential exact allocator", summary.n, apps);
    say(
        "design_jobs_per_s",
        throughput,
        "1/s",
        &format!(
            "(throughput_per_s; design time only, median of {} blocks of {BLOCK} jobs)",
            summary.blocks
        ),
    );
    say(
        "design_p50_ms",
        summary.p50,
        "ms",
        &format!("(latency_p50_ms, n={})", summary.n),
    );
    say(
        "design_p90_ms",
        summary.tail,
        "ms",
        &format!(
            "(latency_tail_ms, median of {} blocks of {BLOCK}, {} beyond in each)",
            summary.blocks,
            stats::samples_beyond(BLOCK, TAIL_Q)
        ),
    );
    say("setup_s", setup_s, "s", "(median of 21 case-study designs)");
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
    out.push("throughput_per_s", throughput, "1/s");
    out.push("latency_p50_ms", summary.p50, "ms");
    out.push("latency_tail_ms", summary.tail, "ms");
    Ok(out)
}

/// The traced run: each job runs once untraced through
/// `design_fleet_optimal`, then once stage by stage — synthesis,
/// characterisation, portfolio construction and solve, freeze — with a
/// span around each public call. The staged answer must equal the direct
/// one.
fn run_traced(
    args: &Args,
    designer: &FleetDesigner,
    bus: FlexRayConfig,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = AllocatorConfig::default();
    let solver_config = solver_config(&bus);
    let portfolio = PortfolioConfig::with_threads(THREADS);
    let mut tracer = Tracer::new(Instant::now());
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut apps, mut nodes, mut greedy_gap) = (0usize, 0u64, 0usize);
    // Untraced construct + solve of each job's table at one and at two
    // threads, for the scaling efficiency.
    let (mut one_s, mut two_s) = (0.0, 0.0);
    for k in 0..TRACED_JOBS {
        let specs = perturbed_fleet(args.seed, k, fleet_size(args.seed, k));
        apps += specs.len();
        out.attempted += 1;

        let t0 = Instant::now();
        let direct = designer
            .design_fleet_optimal(specs.clone(), &config, bus)
            .map_err(err)?;
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        tracer.begin("core.design_job", k);
        let designed = tracer
            .span("control.design", k, || designer.design(specs))
            .map_err(err)?;
        let table = tracer
            .span("control.characterize", k, || {
                designer.characterize(&designed)
            })
            .map_err(err)?;
        let mut solver = tracer
            .span("sched.portfolio_new", k, || {
                PortfolioAllocator::new(&table, &solver_config, &portfolio)
            })
            .map_err(err)?;
        let allocation = tracer
            .span("sched.portfolio_solve", k, || solver.solve())
            .map_err(err)?;
        let greedy = solver.greedy_bound();
        nodes += solver.nodes_explored();
        drop(solver);
        for (threads, time) in [(1, &mut one_s), (THREADS, &mut two_s)] {
            let t0 = Instant::now();
            PortfolioAllocator::new(
                &table,
                &solver_config,
                &PortfolioConfig::with_threads(threads),
            )
            .and_then(|mut s| s.solve())
            .map_err(err)?;
            *time += t0.elapsed().as_secs_f64();
        }
        let frozen = tracer
            .span("core.freeze", k, || {
                DesignedFleet::new(designed, allocation, bus)
            })
            .map_err(err)?;
        tracer.end();
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        greedy_gap += greedy.map_or(0, |g| g - frozen.slot_count());
        out.check(frozen.allocation() == direct.allocation(), || {
            format!("job {k}: staged design differs from design_fleet_optimal")
        });
        out.check(verify_design(&direct)?, || {
            format!("design job {k} is not the certified optimum")
        });
    }

    let table = trace::layer_table(tracer.spans());
    trace::print_layer_table("design_fleet staged replay", &table);
    let total = |name: &str| table.get(name).map_or(0.0, |row| row.total as f64);
    let jobs = TRACED_JOBS as f64;
    let job_ns = total("core.design_job");
    let overhead = ratio(median(&traced_ms), median(&untraced_ms)) - 1.0;
    say(
        "characterisation share",
        ratio(total("control.characterize"), job_ns),
        "frac",
        "of a design job",
    );
    say(
        "tracing overhead",
        overhead,
        "frac",
        "median staged traced job / direct job - 1",
    );
    out.push(
        "control.synth_ms_per_app",
        total("control.design") / 1e6 / apps as f64,
        "ms",
    );
    out.push(
        "control.char_ms_per_app",
        total("control.characterize") / 1e6 / apps as f64,
        "ms",
    );
    out.push(
        "control.char_share",
        ratio(total("control.characterize"), job_ns),
        "frac",
    );
    out.push("core.freeze_us", total("core.freeze") / 1e3 / jobs, "us");
    out.push(
        "sched.construct_us",
        total("sched.portfolio_new") / 1e3 / jobs,
        "us",
    );
    out.push(
        "sched.solve_ms",
        total("sched.portfolio_solve") / 1e6 / jobs,
        "ms",
    );
    out.push("sched.nodes_per_solve", nodes as f64 / jobs, "count");
    out.push(
        "sched.nodes_per_s",
        ratio(nodes as f64, total("sched.portfolio_solve") / 1e9),
        "1/s",
    );
    out.push("sched.greedy_gap", greedy_gap as f64 / jobs, "count");
    out.push(
        "sched.scaling_eff",
        ratio(one_s, THREADS as f64 * two_s),
        "frac",
    );
    out.push("trace.overhead_frac", overhead, "frac");
    out.spans = tracer.spans().to_vec();
    Ok(out)
}
