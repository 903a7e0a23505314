//! Perf bench — cost of the *exact* branch-and-bound slot allocation
//! versus the greedy heuristic sweep it upgrades.
//!
//! The solver is seeded with the best greedy allocation, so its cost is the
//! greedy sweep plus the proof of optimality; the interesting quantity is
//! how that proof scales with fleet size. `solve` benches run on a
//! pre-constructed solver (`solve_in_place` is allocation-free and
//! idempotent), mirroring how the design-space sweeps reuse one solver per
//! fleet.
//!
//! The `portfolio_{1,2,4}_threads` rungs run the parallel portfolio on a
//! contended 24-app fleet where the randomized restart schedule beats every
//! greedy strategy to the optimum, so the exact proof closes in strictly
//! fewer nodes than the plain sequential solver needs — the scaling story
//! the portfolio exists for, asserted on every run and printed next to the
//! timings. `portfolio_construction_24` and `greedy_first_fit_24` time the
//! construction side on the same fleet: the portfolio's constructor (greedy
//! seed plus restarts, one thread) and one first-fit packing.

use cps_bench::{synthetic_fleet, synthetic_fleet_tight};
use cps_sched::case_study_fixtures::paper_table1;
use cps_sched::{
    allocate_slots, allocation_sweep, AllocationStrategy, AllocatorConfig, AppTimingParams,
    OptimalAllocator, PortfolioAllocator, PortfolioConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let apps = paper_table1();
    let config = AllocatorConfig::default();

    // Correctness gates: the solver must reproduce the paper's 3-slot
    // optimum and never lose to the greedy sweep.
    let mut solver = OptimalAllocator::new(&apps, &config).expect("solver");
    let optimal = solver.solve().expect("feasible");
    assert_eq!(optimal.slot_count(), 3);
    assert!(optimal.verify(&apps).expect("verification runs"));
    let greedy_best = allocation_sweep(&apps, &config.sweep_matrix())
        .iter()
        .map(cps_sched::SlotAllocation::slot_count)
        .min()
        .expect("sweep is non-empty");
    assert!(optimal.slot_count() <= greedy_best);
    println!(
        "\n=== Exact slot allocation ===\npaper Table I: optimal {} slots ({} search nodes), greedy best {}",
        optimal.slot_count(),
        solver.nodes_explored(),
        greedy_best
    );

    let mut group = c.benchmark_group("allocation_opt");
    group.bench_function("paper_table1_branch_and_bound", |b| {
        b.iter(|| solver.solve_in_place().expect("feasible"))
    });
    group.bench_function("paper_table1_greedy_sweep_baseline", |b| {
        b.iter(|| allocation_sweep(&apps, &config.sweep_matrix()))
    });
    group.bench_function("paper_table1_solver_construction", |b| {
        b.iter(|| OptimalAllocator::new(&apps, &config).expect("solver"))
    });

    // Scaling: synthetic fleets (deterministic seed) with the slot budget
    // opened up to the fleet size so the search space, not the cap, binds.
    for size in [6usize, 8, 10] {
        let fleet: Vec<AppTimingParams> = synthetic_fleet(size, 42);
        let sized = AllocatorConfig { max_slots: size, ..config };
        let mut solver = OptimalAllocator::new(&fleet, &sized).expect("solver");
        let slots = solver.solve_in_place().expect("synthetic fleets are schedulable");
        println!(
            "synthetic fleet n={size}: optimal {slots} slots, {} search nodes",
            solver.nodes_explored()
        );
        group.bench_with_input(
            BenchmarkId::new("synthetic_branch_and_bound", size),
            &size,
            |b, _| b.iter(|| solver.solve_in_place().expect("feasible")),
        );
    }

    // Portfolio rungs: a contended 24-app fleet (tight deadlines, slot
    // budget open) whose optimality proof costs hundreds of thousands of
    // nodes, and where the randomized restart schedule finds the optimum
    // before any greedy strategy does — so the portfolio prunes with a
    // tighter incumbent and closes the proof in strictly fewer nodes than
    // the sequential solver, at every worker count. The node counts are
    // printed alongside the timings; the assertions keep the "strictly
    // fewer nodes" claim honest on every perf run.
    let fleet = synthetic_fleet_tight(24, 9015);
    let sized = AllocatorConfig { max_slots: 24, ..config };
    let mut sequential = OptimalAllocator::new(&fleet, &sized).expect("solver");
    let seq_started = Instant::now();
    let seq_slots = sequential.solve_in_place().expect("tight fleet is schedulable");
    let seq_elapsed = seq_started.elapsed();
    let seq_nodes = sequential.nodes_explored();
    println!(
        "tight fleet n=24 seed=9015: sequential optimum {seq_slots} slots, \
         {seq_nodes} nodes in {seq_elapsed:?}"
    );
    // Construction rungs on the same fleet: the portfolio's constructor
    // (greedy seed plus the 8 first-fit restarts, one thread) and a single
    // first-fit packing, the call each restart makes.
    let first_fit = AllocatorConfig { strategy: AllocationStrategy::FirstFit, ..sized };
    group.bench_function("portfolio_construction_24", |b| {
        b.iter(|| PortfolioAllocator::new(&fleet, &sized, &PortfolioConfig::with_threads(1)))
    });
    group.bench_function("greedy_first_fit_24", |b| b.iter(|| allocate_slots(&fleet, &first_fit)));
    for threads in [1usize, 2, 4] {
        let schedule = PortfolioConfig::with_threads(threads);
        let mut solver = PortfolioAllocator::new(&fleet, &sized, &schedule).expect("solver");
        let started = Instant::now();
        let slots = solver.solve_in_place().expect("tight fleet is schedulable");
        let elapsed = started.elapsed();
        let nodes = solver.nodes_explored();
        assert_eq!(slots, seq_slots, "the portfolio must return the sequential optimum");
        assert!(
            nodes < seq_nodes,
            "the restart schedule's incumbent must close the proof in strictly \
             fewer nodes ({nodes} vs sequential {seq_nodes})"
        );
        println!(
            "portfolio threads={threads}: optimum {slots} slots, {nodes} nodes in {elapsed:?} \
             (sequential: {seq_nodes} nodes in {seq_elapsed:?})"
        );
        group.bench_function(format!("portfolio_{threads}_threads"), |b| {
            b.iter(|| solver.solve_in_place().expect("feasible"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
