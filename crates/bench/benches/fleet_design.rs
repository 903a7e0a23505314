//! Fleet-design performance benchmark: the design tier introduced by the
//! shared-immutable [`DesignedFleet`] split and the fleet-level
//! [`FleetDesigner`] pipeline.
//!
//! Measures the rungs of the design-cost ladder:
//!
//! * `design_controllers` — full controller synthesis of the six-application
//!   derived fleet (pole placement / DARE, discretisation, kernel fusion),
//!   now routed through the workspace-threaded designer.
//! * `designer_sequential_24` / `designer_parallel_24` — controller
//!   synthesis ([`FleetDesigner::design`]) of a 24-application scaled
//!   fleet, one worker vs the machine's available parallelism. Both run on
//!   the work-claiming pool: one worker is the calling thread alone, and
//!   with an available parallelism of 2 (the container the perf history
//!   is recorded on) the caller works beside one spawned thread, each
//!   claiming one application at a time. With one core both rungs run the
//!   same path.
//! * `bus_sweep_shared_characterization` vs
//!   `bus_sweep_recharacterize_baseline` — the bus-configuration sweep with
//!   one shared characterisation pass ([`BusConfigSweep::scenarios_for`])
//!   against the naive flow that re-characterises the fleet for every
//!   candidate bus (what sweeping without the designer costs).
//! * `bus_sweep_fleet_cached` — the same sweep through the fleet's
//!   computed-once characterisation table
//!   ([`BusConfigSweep::scenarios_for_fleet`]): repeated sweep *calls* skip
//!   even the single pass, so the rung measures pure expansion cost.
//! * `bus_sweep_geometry_3axis` — the full bus design space (cycle length ×
//!   static-segment size × slot length Ψ) expanded over the cached table,
//!   with the Ψ-derived per-slot transmission overhead live in both the
//!   allocator matrix and the branch-and-bound optimum.
//! * `engine_spinup_clone_baseline` — what a scenario worker used to pay:
//!   deep-clone every [`cps_core::ControlApplication`], re-validate, rebuild.
//! * `engine_spinup_shared` — what a worker pays now: a [`CoSimulation`]
//!   over the `Arc`-shared design (mutable scratch only).
//!
//! Plus the linalg design tier: the workspace DARE solver against the
//! allocating reference path.

use cps_core::{case_study, BusConfigSweep, CoSimulation, DesignedFleet, FleetDesigner};
use cps_flexray::FlexRayConfig;
use cps_linalg::{
    solve_dare, solve_dare_reference, solve_dare_with, DareOptions, Matrix, RiccatiWorkspace,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let apps = case_study::derived_fleet().expect("fleet design");
    let table = case_study::derive_table(&apps).expect("table derivation");
    let allocation = cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default())
        .expect("allocation");
    let bus = FlexRayConfig::paper_case_study();
    let fleet = Arc::new(
        DesignedFleet::new(apps.clone(), allocation.clone(), bus).expect("fleet freeze"),
    );

    let mut group = c.benchmark_group("fleet_design");
    group.sample_size(10);
    group.bench_function("design_controllers", |b| {
        b.iter(|| case_study::derived_fleet().expect("fleet design"))
    });

    // 24-application fleet-design throughput: one worker against the
    // machine's available parallelism, bit-identical outputs.
    let specs24 = case_study::scaled_fleet_specs(24);
    let sequential = FleetDesigner::sequential();
    let parallel = FleetDesigner::new();
    group.bench_function("designer_sequential_24", |b| {
        b.iter(|| sequential.design(specs24.clone()).expect("24-app design"))
    });
    group.bench_function("designer_parallel_24", |b| {
        b.iter(|| parallel.design(specs24.clone()).expect("24-app design"))
    });

    // Bus-configuration sweep: the designer characterises the fleet once
    // and reuses the timing table for every candidate bus; the baseline
    // re-runs the dwell/wait characterisation per candidate — the cost the
    // sweep paid before characterisation sharing.
    let allocator = cps_sched::AllocatorConfig::default();
    let sweep = BusConfigSweep::new(bus)
        .with_cycle_lengths(vec![0.005, 0.010])
        .with_static_slot_counts(vec![6, 10]);
    let bus_count = sweep.configs().len();
    assert!(bus_count >= 4, "the sweep must span several candidate buses");
    let shared = sweep
        .scenarios_for(&parallel, &apps, &allocator, 1.0)
        .expect("sweep expansion");
    assert!(!shared.is_empty());
    group.bench_function("bus_sweep_shared_characterization", |b| {
        b.iter(|| {
            sweep
                .scenarios_for(&parallel, &apps, &allocator, 1.0)
                .expect("sweep expansion")
        })
    });
    group.bench_function("bus_sweep_recharacterize_baseline", |b| {
        b.iter(|| {
            // One fresh characterisation plus that bus's own expansion per
            // candidate, as a sweep without the shared pass would pay.
            sweep
                .configs()
                .into_iter()
                .map(|bus_config| {
                    let table = case_study::derive_table(&apps).expect("characterisation");
                    BusConfigSweep::new(bus_config).scenarios(&table, &allocator, 1.0).len()
                })
                .sum::<usize>()
        })
    });

    // Fleet-cached characterisation: the first call fills (or the design
    // flow seeds) the fleet's timing-table cache; every sweep afterwards —
    // including across calls, which `scenarios_for` cannot avoid re-paying —
    // runs zero characterisation passes.
    let cached = sweep
        .scenarios_for_fleet(&parallel, &fleet, &allocator, 1.0)
        .expect("cached sweep expansion");
    assert_eq!(cached, shared, "cached and shared sweeps must expand identically");
    group.bench_function("bus_sweep_fleet_cached", |b| {
        b.iter(|| {
            sweep
                .scenarios_for_fleet(&parallel, &fleet, &allocator, 1.0)
                .expect("cached sweep expansion")
        })
    });

    // The complete bus design space: slot length Ψ (frame payload geometry)
    // as the third axis, expanded over the cached table. The Ψ-stretched
    // candidates re-run the full allocator matrix and the exact search under
    // their per-slot transmission overhead.
    let geometry = BusConfigSweep::new(bus)
        .with_cycle_lengths(vec![0.005, 0.010])
        .with_static_slot_counts(vec![4, 10])
        .with_slot_lengths(vec![0.0002, 0.0005]);
    assert!(geometry.configs().len() > bus_count, "the third axis must widen the sweep");
    group.bench_function("bus_sweep_geometry_3axis", |b| {
        b.iter(|| {
            geometry
                .scenarios_for_fleet(&parallel, &fleet, &allocator, 1.0)
                .expect("geometry sweep expansion")
        })
    });

    group.bench_function("engine_spinup_clone_baseline", |b| {
        b.iter(|| {
            CoSimulation::new(apps.clone(), &allocation, bus).expect("engine over cloned fleet")
        })
    });
    group.bench_function("engine_spinup_shared", |b| {
        b.iter(|| fleet.engine().expect("engine over shared fleet"))
    });
    group.finish();

    // Workspace vs allocating DARE on a representative delay-augmented
    // double integrator (3 augmented states, 1 input).
    let a = Matrix::from_rows(&[&[1.0, 0.02, 0.0002], &[0.0, 1.0, 0.02], &[0.0, 0.0, 0.0]])
        .expect("static");
    let b_mat = Matrix::column(&[0.0, 0.0, 1.0]).expect("static");
    let q = Matrix::identity(3);
    let r = Matrix::from_rows(&[&[0.1]]).expect("static");
    let options = DareOptions::default();
    let reference = solve_dare_reference(&a, &b_mat, &q, &r, options).expect("dare");
    assert_eq!(solve_dare(&a, &b_mat, &q, &r, options).expect("dare"), reference);

    let mut group = c.benchmark_group("dare");
    group.sample_size(10);
    group.bench_function("solve_workspace", |b| {
        let mut workspace = RiccatiWorkspace::new(3, 1);
        b.iter(|| {
            black_box(
                solve_dare_with(&a, &b_mat, &q, &r, options, &mut workspace).expect("dare"),
            )
        })
    });
    group.bench_function("solve_reference_alloc", |b| {
        b.iter(|| black_box(solve_dare_reference(&a, &b_mat, &q, &r, options).expect("dare")))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
