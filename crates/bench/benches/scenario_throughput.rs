//! Scenario-throughput benchmark: how many co-simulation scenarios per
//! second the batched [`ScenarioBatch`] engine sustains, and how it scales
//! with worker threads.
//!
//! Each scenario is a full plant/runtime/FlexRay co-simulation of the
//! six-application derived fleet with a scaled disturbance. The engine pays
//! the fleet-design and bus-construction cost once per worker and then
//! `reset()`s-and-reruns, so throughput is set by the per-period work. The
//! benchmark's traced `campaign_faulty` replay (seed 1, 2-vCPU Xeon) splits
//! a 20 ms control period into the FlexRay bus at ~60% (4 cycles of 10
//! static slots plus the dynamic segment, with frame reassignment and
//! queueing), the six `StepKernel` steps and norms at ~30% and the
//! allocation runtime at ~10%. Scaling is near-linear in cores; on a
//! single-core host the thread counts merely demonstrate determinism.

use cps_core::{case_study, ScenarioBatch, ScenarioSpec};
use cps_flexray::FlexRayConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;

fn build_batch() -> ScenarioBatch {
    let apps = case_study::derived_fleet().expect("fleet design");
    let table = case_study::derive_table(&apps).expect("table derivation");
    let allocation = cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default())
        .expect("allocation");
    ScenarioBatch::new(apps, allocation, FlexRayConfig::paper_case_study())
        .expect("batch template")
}

fn bench(c: &mut Criterion) {
    let batch = build_batch();
    let scenarios = ScenarioSpec::disturbance_sweep(0.1, 2.0, 64, 4.0);

    println!("\n=== Scenario throughput (64 disturbance scenarios, 4 s each) ===");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for threads in [1usize, 2, cores.max(4)] {
        let runner = batch.clone().with_threads(threads);
        let start = Instant::now();
        let outcomes = runner.run(&scenarios).expect("batch run");
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "{threads:>2} thread(s): {:>7.1} scenarios/s ({} scenarios in {elapsed:.3} s, {} settled)",
            outcomes.len() as f64 / elapsed,
            outcomes.len(),
            outcomes.iter().filter(|o| o.response_times.iter().all(Option::is_some)).count(),
        );
    }
    println!("available parallelism: {cores}\n");

    let mut group = c.benchmark_group("scenario_throughput");
    group.sample_size(10);
    let short_sweep = ScenarioSpec::disturbance_sweep(0.1, 2.0, 16, 1.0);
    for threads in [1usize, 2, 4] {
        let runner = batch.clone().with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("sweep16_threads", threads),
            &threads,
            |b, _| b.iter(|| runner.run(&short_sweep).expect("batch run")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
