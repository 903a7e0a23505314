//! `campaign_faulty`: closed loop, one robustness campaign at a time on the
//! six-application case-study fleet with two workers, under the faulty mix
//! (drop sweep {0, 0.1, 0.3}, Gilbert–Elliott bursts, corruption, dynamic
//! contention and sensor noise, 2 s scenarios).

use crate::replay::{Replay, ReplayMetrics};
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use crate::{ratio, say, timed_setup, Args, Outcome, THREADS};
use cps_core::{
    case_study, CampaignScenario, CampaignStats, DesignedFleet, FleetDesigner, RobustnessCampaign,
    RobustnessSweep, RunMetrics, ScenarioSource,
};
use cps_flexray::{FlexRayConfig, GilbertElliott, SimRng};
use cps_sched::AllocatorConfig;
use std::sync::Arc;
use std::time::Instant;

/// Scenarios per drop intensity of one campaign (three intensities): 768
/// scenarios, twelve chunks of the default 64. A campaign this long spreads
/// the host's short stalls over many chunks, so its latency reads the code.
const PER_INTENSITY: u64 = 256;
/// Simulated seconds per scenario.
const DURATION: f64 = 2.0;
/// Campaigns per block of the tail and throughput medians: a p90 with ten
/// samples beyond it. A run measures at least `MIN_BLOCKS` blocks.
const BLOCK: usize = 100;
const MIN_BLOCKS: usize = 3;
/// Untimed warm-up campaigns.
const WARMUP: u64 = 4;
/// The tail percentile of campaign latency.
const TAIL_Q: f64 = 0.9;
/// Every this-many-th campaign is re-run on one worker and compared.
const VERIFY_EVERY: usize = 16;

fn err(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// The campaign mix of the `campaign_throughput` bench.
pub fn faulty_sweep(per_intensity: u64, duration: f64) -> RobustnessSweep {
    RobustnessSweep::new(vec![0.0, 0.1, 0.3], per_intensity, duration)
        .with_disturbance_range(0.8, 1.2)
        .with_burst(GilbertElliott {
            degrade_probability: 0.1,
            recover_probability: 0.4,
            bad_drop_probability: 0.8,
        })
        .with_corruption(0.01)
        .with_dynamic_contention(6)
        .with_sensor_noise(0.01)
}

/// Designs, characterises, allocates and freezes the case-study fleet.
pub fn build_fleet() -> Result<Arc<DesignedFleet>, String> {
    let designer = FleetDesigner::new().with_threads(THREADS);
    let apps = designer
        .design(case_study::derived_fleet_specs())
        .map_err(err)?;
    let table = designer.characterize(&apps).map_err(err)?;
    let allocation = cps_sched::allocate_slots(&table, &AllocatorConfig::default()).map_err(err)?;
    let fleet =
        DesignedFleet::new(apps, allocation, FlexRayConfig::paper_case_study()).map_err(err)?;
    Ok(Arc::new(fleet))
}

fn campaign(fleet: &Arc<DesignedFleet>, seed: u64, workers: usize) -> RobustnessCampaign {
    RobustnessCampaign::new(Arc::clone(fleet), seed).with_workers(workers)
}

/// The fault-free check: with every fault and all noise off, the design
/// point settles within its deadline in every run (12 s scenarios, the
/// horizon of the `robustness_campaign` example).
fn fault_free_settles(fleet: &Arc<DesignedFleet>, seed: u64) -> Result<bool, String> {
    let nominal = RobustnessSweep::new(vec![0.0], 8, 12.0).with_disturbance_range(0.8, 1.2);
    let stats = campaign(fleet, seed, THREADS).run(&nominal).map_err(err)?;
    let family = &stats.families[0];
    Ok(family.scenarios == 8 && family.deadlines_met == family.scenarios)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setup_s, fleet) = timed_setup(21, build_fleet)?;
    let sweep = faulty_sweep(PER_INTENSITY, DURATION);
    if args.trace {
        return run_traced(args, &fleet, &sweep);
    }
    // Warm-up: the first campaigns in a process run measurably slower.
    for w in 0..WARMUP {
        campaign(&fleet, SimRng::derive(args.seed, u64::MAX - w), THREADS)
            .run(&sweep)
            .map_err(err)?;
    }

    let mut out = Outcome::default();
    let mut latencies_ms = Vec::new();
    let mut to_verify: Vec<(u64, CampaignStats)> = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds || latencies_ms.len() < MIN_BLOCKS * BLOCK {
        let seed = SimRng::derive(args.seed, k);
        let t0 = Instant::now();
        let result = campaign(&fleet, seed, THREADS).run(&sweep);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match result {
            Ok(stats) => {
                out.check(stats.total == sweep.total(), || {
                    format!("campaign {k} ran {} scenarios", stats.total)
                });
                if (k as usize).is_multiple_of(VERIFY_EVERY) {
                    to_verify.push((seed, stats));
                }
            }
            Err(error) => out.check(false, || format!("campaign {k}: {error}")),
        }
        k += 1;
    }

    // Verification (untimed): sampled campaigns against a one-worker run of
    // the same seed, and the fault-free design point.
    for (seed, stats) in &to_verify {
        let single = campaign(&fleet, *seed, 1).run(&sweep).map_err(err)?;
        out.check(&single == stats, || {
            format!("campaign seed {seed}: 2-worker stats differ from 1-worker")
        });
    }
    out.check(fault_free_settles(&fleet, args.seed)?, || {
        "fault-free family did not settle every run".into()
    });

    let summary = stats::summarize(&latencies_ms, TAIL_Q, BLOCK)?;
    let per_campaign = sweep.total() as f64;
    let throughput = stats::block_median(&latencies_ms, BLOCK, |b| {
        per_campaign * stats::rate_per_s(b)
    })
    .ok_or("no full block of campaigns")?;
    println!(
        "\ncampaign_faulty: {} campaigns of {} scenarios, {} verified against 1 worker",
        summary.n,
        sweep.total(),
        to_verify.len()
    );
    say(
        "campaign_scenarios_per_s",
        throughput,
        "1/s",
        &format!(
            "(throughput_per_s, median of {} blocks of {BLOCK} campaigns)",
            summary.blocks
        ),
    );
    say(
        "campaign_p50_ms",
        summary.p50,
        "ms",
        &format!("(latency_p50_ms, n={})", summary.n),
    );
    say(
        "campaign_p90_ms",
        summary.tail,
        "ms",
        &format!(
            "(latency_tail_ms, median of {} blocks of {BLOCK}, {} beyond in each)",
            summary.blocks,
            stats::samples_beyond(BLOCK, TAIL_Q)
        ),
    );
    say("setup_s", setup_s, "s", "(median of 21 fleet builds)");
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
    out.push("throughput_per_s", throughput, "1/s");
    out.push("latency_p50_ms", summary.p50, "ms");
    out.push("latency_tail_ms", summary.tail, "ms");
    Ok(out)
}

/// The traced run. Every scenario of one campaign runs, back to back, on
/// the engine (untraced) and five times through the replay: with no spans,
/// fully traced, and once per layer with only that layer's spans, so each
/// layer is timed with nothing but its own span cost on top. Interleaving
/// per scenario keeps a drifting host from skewing one variant against
/// another. Every replay must match the engine bit for bit.
fn run_traced(
    args: &Args,
    fleet: &Arc<DesignedFleet>,
    sweep: &RobustnessSweep,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = SimRng::derive(args.seed, 0);
    let scenarios: Vec<CampaignScenario> = (0..sweep.total())
        .map(|index| {
            let mut scenario = CampaignScenario::default();
            sweep.generate(index, SimRng::derive(seed, index), &mut scenario);
            scenario
        })
        .collect();

    let mut engine = fleet.engine().map_err(err)?;
    let mut metrics = RunMetrics::default();
    let mut replay = Replay::new(Arc::clone(fleet))?;
    let origin = Instant::now();
    let mut none = Tracer::only(origin, "-");
    let mut full = Tracer::new(origin);
    let mut layers = [
        Tracer::only(origin, "flexray."),
        Tracer::only(origin, "control."),
        Tracer::only(origin, "core.runtime"),
    ];
    // Returns the scenario wall time and the `run_metrics_into` time.
    let mut run_engine = |s: &CampaignScenario, m: &mut RunMetrics| {
        let t0 = Instant::now();
        engine.reset()?;
        engine.set_threshold_scale(s.threshold_scale)?;
        engine.set_fault_model(s.fault)?;
        engine.set_degradation(s.degradation)?;
        engine.inject_disturbances_scaled(s.disturbance_scale)?;
        let t1 = Instant::now();
        engine.run_metrics_into(s.duration, m)?;
        Ok::<_, cps_core::CoreError>((t0.elapsed().as_secs_f64(), t1.elapsed().as_secs_f64()))
    };
    for s in scenarios.iter().take(64) {
        run_engine(s, &mut metrics).map_err(err)?;
        replay.run(s, &mut none, 0)?;
    }
    let (mut engine_s, mut run_metrics_s, mut bare_s, mut traced_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut runs = Vec::with_capacity(scenarios.len());
    for (index, s) in scenarios.iter().enumerate() {
        let (wall, run) = run_engine(s, &mut metrics).map_err(err)?;
        engine_s.push(wall);
        run_metrics_s.push(run);
        let mut guarded = |tracer: &mut Tracer| -> Result<(f64, ReplayMetrics), String> {
            let t0 = Instant::now();
            let replayed = replay.run(s, tracer, index as u64)?;
            let elapsed = t0.elapsed().as_secs_f64();
            if !replayed.matches(&metrics) {
                return Err(format!(
                    "replay guard: scenario {index} differs from \
                     CoSimulation::run_metrics_into; the replay no longer describes the engine"
                ));
            }
            Ok((elapsed, replayed))
        };
        bare_s.push(guarded(&mut none)?.0);
        let (traced, replayed) = guarded(&mut full)?;
        traced_s.push(traced);
        runs.push(replayed);
        for tracer in &mut layers {
            guarded(tracer)?;
        }
    }
    out.attempted += runs.len() as u64;
    println!(
        "\nreplay guard: {} scenarios reproduce run_metrics_into bit for bit in each of 5 replays",
        scenarios.len()
    );
    let span_cost = trace::empty_span_ns();
    let [bus_ns, kernel_ns, runtime_ns] = layers.map(|tracer| {
        tracer
            .spans()
            .iter()
            .map(|s| (s.end - s.start) as f64 - span_cost)
            .sum::<f64>()
    });
    let periods: u64 = runs.iter().map(|r| r.steps as u64).sum();
    let demotions: u64 = runs.iter().map(|r| r.demotions).sum();
    let holds: u64 = runs.iter().flat_map(|r| &r.held_periods).sum();
    let cycles: u64 = runs.iter().map(|r| r.bus.cycles).sum();
    let sent: u64 = runs
        .iter()
        .map(|r| r.bus.static_transmissions + r.bus.dynamic_transmissions)
        .sum();
    let lost: u64 = runs.iter().map(|r| r.bus.lost_frames()).sum();

    // Campaign-level overhead and scaling, untraced, alternating 1 and 2
    // workers on the same campaign.
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let mut results = Vec::new();
    for _ in 0..5 {
        for (workers, times) in [(1, &mut one), (THREADS, &mut two)] {
            let t0 = Instant::now();
            results.push(campaign(fleet, seed, workers).run(sweep).map_err(err)?);
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    out.attempted += results.len() as u64;
    for stats in &results {
        out.check(stats == &results[0], || {
            "campaign stats differ between 1 and 2 workers".into()
        });
    }
    let (wall_one, wall_two) = (median(&one), median(&two));

    // DesignedFleet::new on the designed parts.
    let mut freeze_us = Vec::new();
    for _ in 0..21 {
        let apps = fleet.apps().to_vec();
        let allocation = fleet.allocation().clone();
        let t0 = Instant::now();
        let frozen = DesignedFleet::new(apps, allocation, fleet.bus_config()).map_err(err)?;
        freeze_us.push(t0.elapsed().as_secs_f64() * 1e6);
        drop(frozen);
    }

    let table = trace::layer_table(full.spans());
    trace::print_layer_table("campaign_faulty replay", &table);
    let replay_ns = bare_s.iter().sum::<f64>() * 1e9;
    let engine_ns = engine_s.iter().sum::<f64>() * 1e9;
    let remainder_ns = replay_ns - bus_ns - kernel_ns - runtime_ns;
    let per_period = |ns: f64| ratio(ns, periods as f64);
    let overhead = ratio(median(&traced_s), median(&engine_s)) - 1.0;
    println!(
        "\nper period over {periods} periods ({} scenarios); each layer timed in a pass with \
         only its own spans, less {span_cost:.1} ns per span; shares of the span-free replay:",
        scenarios.len()
    );
    for (name, ns) in [
        ("bus", bus_ns),
        ("kernels", kernel_ns),
        ("runtime", runtime_ns),
        ("remainder", remainder_ns),
        ("span-free replay", replay_ns),
        ("untraced engine", engine_ns),
    ] {
        let share = format!("{:.1}%", 100.0 * ratio(ns, replay_ns));
        say(name, per_period(ns), "ns", &share);
    }
    say(
        "tracing overhead",
        overhead,
        "frac",
        "median traced replay / untraced engine scenario - 1",
    );

    out.push("flexray.bus_ns_per_period", per_period(bus_ns), "ns");
    out.push("flexray.bus_share", ratio(bus_ns, replay_ns), "frac");
    out.push("flexray.cycles", cycles as f64, "count");
    out.push("flexray.frames_sent", sent as f64, "count");
    out.push("flexray.frames_lost", lost as f64, "count");
    out.push("control.kernel_ns_per_period", per_period(kernel_ns), "ns");
    out.push("control.kernel_share", ratio(kernel_ns, replay_ns), "frac");
    out.push("control.holds", holds as f64, "count");
    out.push("core.runtime_ns_per_period", per_period(runtime_ns), "ns");
    out.push(
        "core.remainder_ns_per_period",
        per_period(remainder_ns),
        "ns",
    );
    out.push("core.tt_demotions", demotions as f64, "count");
    out.push(
        "core.campaign_overhead_frac",
        ratio(wall_one - run_metrics_s.iter().sum::<f64>(), wall_one),
        "frac",
    );
    out.push(
        "core.campaign_scaling_eff",
        ratio(wall_one, THREADS as f64 * wall_two),
        "frac",
    );
    out.push("core.freeze_us", median(&freeze_us), "us");
    out.push("trace.overhead_frac", overhead, "frac");
    out.spans = full.spans().to_vec();
    Ok(out)
}
