//! Campaign-throughput benchmark: how many faulty Monte-Carlo scenarios per
//! second the streaming [`RobustnessCampaign`] engine sustains, and what the
//! fault-injection layer costs over the nominal path.
//!
//! Each scenario is a full plant/runtime/FlexRay co-simulation under an
//! active fault model (frame drops, Gilbert–Elliott bursts, payload
//! corruption, dynamic-segment contention) plus sensor-noise degradation,
//! measured through the allocation-free `run_metrics_into` hot path. The
//! campaign folds its scenarios window by window, so memory stays
//! O(workers · chunk) at any scenario count. The 2-vCPU container reports an
//! available parallelism of 2, so worker counts above 2 only demonstrate
//! determinism there. The `faulty24_workers` rungs are
//! the campaign rung of the perf history; `nominal24_workers/1` prices the
//! fault layer against the nominal path.

use cps_core::{case_study, DesignedFleet, RobustnessCampaign, RobustnessSweep};
use cps_flexray::{FlexRayConfig, GilbertElliott};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Instant;

fn build_fleet() -> Arc<DesignedFleet> {
    let apps = case_study::derived_fleet().expect("fleet design");
    let table = case_study::derive_table(&apps).expect("table derivation");
    let allocation = cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default())
        .expect("allocation");
    Arc::new(
        DesignedFleet::new(apps, allocation, FlexRayConfig::paper_case_study())
            .expect("fleet artifact"),
    )
}

fn faulty_sweep(scenarios_per_intensity: u64, duration: f64) -> RobustnessSweep {
    RobustnessSweep::new(vec![0.0, 0.1, 0.3], scenarios_per_intensity, duration)
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

fn bench(c: &mut Criterion) {
    let fleet = build_fleet();

    println!("\n=== Campaign throughput (faulty scenarios, 2 s each) ===");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let sweep = faulty_sweep(32, 2.0);
    for workers in [1usize, 2, cores.max(4)] {
        let campaign = RobustnessCampaign::new(Arc::clone(&fleet), 2019).with_workers(workers);
        let start = Instant::now();
        let stats = campaign.run(&sweep).expect("campaign run");
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "{workers:>2} worker(s): {:>7.1} scenarios/s ({} scenarios in {elapsed:.3} s, \
             {} settled)",
            stats.total as f64 / elapsed,
            stats.total,
            stats.families.iter().map(|f| f.settled).sum::<u64>(),
        );
    }
    println!("available parallelism: {cores}\n");

    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    let short_sweep = faulty_sweep(8, 1.0);
    for workers in [1usize, 2, 4] {
        let campaign = RobustnessCampaign::new(Arc::clone(&fleet), 2019).with_workers(workers);
        group.bench_with_input(
            BenchmarkId::new("faulty24_workers", workers),
            &workers,
            |b, _| b.iter(|| campaign.run(&short_sweep).expect("campaign run")),
        );
    }
    // The fault layer's overhead over the nominal streaming path.
    let nominal_sweep = RobustnessSweep::new(vec![0.0], 24, 1.0);
    let campaign = RobustnessCampaign::new(Arc::clone(&fleet), 2019).with_workers(1);
    group.bench_function("nominal24_workers/1", |b| {
        b.iter(|| campaign.run(&nominal_sweep).expect("nominal campaign run"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
