//! Proof that the simulation, design and allocation hot paths are
//! allocation-free: a counting global allocator observes zero new
//! allocations, after warm-up, across
//!
//! * the kernel/runtime period loop — `StepKernel::step`s, norm reads,
//!   scaled disturbance injections and `AllocationRuntime::step_into` calls;
//! * the characterisation inner loop — `SwitchedKernel::dwell_steps` sweeps
//!   on the per-worker pooled `CharacterizationWorkspace` scratch the fleet
//!   designer threads through its characterisation passes (where a warm characterisation's
//!   allocation count must not depend on its sweep length, on the stack-array
//!   settle path of the servo and on the pooled-buffer path of an order-7
//!   pair);
//! * the branch-and-bound slot-allocation search — every inner node
//!   evaluation (streaming schedulability check plus demand and clique
//!   bounds) and the full `OptimalAllocator::solve_in_place` run on buffers
//!   sized at construction. The parallel portfolio gets the same proof in
//!   its single-worker configuration (`threads = 1` spawns nothing and
//!   drains the frontier inline, so the counted thread *is* the worker):
//!   frontier generation, the count search with live shared-incumbent
//!   updates, and the deterministic reconstruction pass;
//! * the greedy packing of `allocate_slots` — every strategy judges its
//!   candidate slots with the streaming verdict, so a call allocates its
//!   priority order and its output `SlotAllocation` (the outer `Vec` plus
//!   one per slot) and nothing per candidate check;
//! * the fleet designer's steady-state solvers — the in-place DARE and
//!   matrix exponential on pooled workspaces;
//! * the streaming campaign's per-scenario loop on a warm `CoSimulation` —
//!   reset, fault and degradation models, disturbance injection and
//!   `run_metrics_into` under frame drops, bursts, corruption, contention,
//!   sensor noise and mode-switch storms.
//!
//! This file must stay a single-test binary: the allocation counter is
//! global to the process, and a concurrently running second test would
//! perturb it. The counter only observes the *test thread* (a const-init
//! thread-local flag armed at the start of the test): the libtest harness
//! main thread lazily allocates its channel-receive context whenever it
//! first blocks waiting for the test thread, and on a single-core host that
//! first block can land inside a measured window — a scheduling race that
//! intermittently produced 1–3 "stray" allocations before the counter was
//! scoped per thread.

use automotive_cps::control::{
    characterize_dwell_vs_wait_with, CharacterizationConfig, CharacterizationWorkspace,
};
use automotive_cps::core::{case_study, AllocationRuntime, ControlApplication, RuntimeApp};
use automotive_cps::core::{CoSimulation, DegradationConfig, RunMetrics};
use automotive_cps::flexray::{FaultModel, FlexRayConfig, GilbertElliott};
use automotive_cps::linalg::{
    expm_into, solve_dare_in_place, DareOptions, ExpmWorkspace, Matrix, RiccatiWorkspace,
};
use automotive_cps::sched::{
    allocate_slots, priority_order, AllocationStrategy, AllocatorConfig, CancelToken, ModelKind,
    OptimalAllocator, PortfolioAllocator, PortfolioConfig, WaitTimeMethod,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and counts every allocation/reallocation made
/// on threads that opted in via [`COUNTED_THREAD`] (the test thread only, so
/// harness/background threads cannot perturb the measured windows).
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Const-initialised (no lazy heap allocation on first access from any
    /// thread) opt-in flag for the allocation counter.
    static COUNTED_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED_THREAD.with(std::cell::Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTED_THREAD.with(std::cell::Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn kernel_and_runtime_hot_paths_do_not_allocate() {
    // Only this thread's allocations count; see the module docs.
    COUNTED_THREAD.with(|counted| counted.set(true));
    // Construction (design, matrices, buffers) may allocate freely.
    let apps = case_study::derived_fleet().expect("fleet design");
    let mut kernels: Vec<_> =
        apps.iter().map(|app| app.kernel().expect("kernel compiles")).collect();
    let disturbances: Vec<Vec<f64>> =
        apps.iter().map(|app| app.spec().disturbance.clone()).collect();
    let mut runtime = AllocationRuntime::new(
        apps.iter()
            .enumerate()
            .map(|(index, app)| RuntimeApp {
                name: app.name().to_string(),
                threshold: app.spec().threshold,
                slot: Some(index % 3),
                priority: app.spec().deadline,
            })
            .collect(),
        3,
    )
    .expect("runtime");
    let mut norms = vec![0.0; kernels.len()];
    let mut modes = Vec::with_capacity(kernels.len());
    // Warm both paths once so lazily grown capacity is in place.
    runtime.step_into(&norms, &mut modes).expect("warm-up step");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut checksum = 0.0;
    for round in 0..10_000 {
        if round % 128 == 0 {
            for (kernel, disturbance) in kernels.iter_mut().zip(&disturbances) {
                kernel.inject_disturbance_scaled(disturbance, 1.0).expect("inject");
            }
        }
        for (norm, kernel) in norms.iter_mut().zip(&kernels) {
            *norm = kernel.state_norm();
        }
        runtime.step_into(&norms, &mut modes).expect("runtime step");
        for (kernel, mode) in kernels.iter_mut().zip(&modes) {
            kernel.step(*mode);
        }
        checksum += norms[0];
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "the kernel/runtime hot path performed {} heap allocations over 10k periods",
        after - before
    );

    // Characterization inner loop: dwell computations over the switched
    // kernel, built on the designer's per-worker pooled
    // `CharacterizationWorkspace` scratch. A full warm-up characterisation
    // fills the dimension-keyed pools (and may allocate freely — curve
    // materialisation, eigenvalue pre-check); afterwards a kernel on the
    // warm pool runs its entire dwell sweep with zero allocations, and the
    // pools grow no new entries for an application of known dimensions.
    let servo = &apps[2];
    let a1 = servo.et_controller().closed_loop().clone();
    let a2 = servo.tt_controller().closed_loop().clone();
    let mut initial = servo.spec().disturbance.clone();
    initial.extend(std::iter::repeat(0.0).take(servo.spec().plant.inputs()));
    let threshold = servo.spec().threshold;
    let mut workspace = CharacterizationWorkspace::new();
    automotive_cps::core::characterize_application_with(servo, &mut workspace)
        .expect("warm-up characterisation");
    let state_entries = workspace.state_pool_size();
    let power_entries = workspace.power_pool_size();
    let lyapunov_entries = workspace.lyapunov_pool_size();
    assert_eq!(lyapunov_entries, 1, "the servo's certified P pair must be pooled");
    let (mut pooled, _norms) = workspace
        .switched_kernel(&a1, &a2, servo.spec().plant.order())
        .expect("pooled kernel on warm scratch");
    pooled.dwell_steps(&initial, threshold, 0, 3_000).expect("warm-up dwell");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut pooled_dwell_sum = 0usize;
    for wait in 0..400 {
        pooled_dwell_sum += pooled
            .dwell_steps(&initial, threshold, wait, 3_000)
            .expect("pooled dwell computation");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(pooled_dwell_sum > 0, "the sweep must observe non-trivial dwell times");
    assert_eq!(
        after - before,
        0,
        "the pooled characterization scratch performed {} heap allocations over 400 \
         dwell sweeps",
        after - before
    );
    assert_eq!(workspace.state_pool_size(), state_entries, "warm pool must not grow");
    assert_eq!(workspace.power_pool_size(), power_entries, "warm pool must not grow");
    assert_eq!(workspace.lyapunov_pool_size(), lyapunov_entries, "warm pool must not grow");

    // The one-pass sweep records the pure-ET states every wait point
    // resumes from in a pooled buffer, so on a warm workspace no
    // allocation may depend on the sweep length: the same application at
    // disturbance ×0.8 and ×1.2 (sweeps of different lengths) must make
    // the same number of allocations — the per-application curve,
    // stability pre-check temporaries and the one Lyapunov solve (plus the
    // level check's eigenvalues) per mode, nothing per wait point.
    let scaled: Vec<_> = [0.8, 1.2]
        .iter()
        .map(|factor| {
            let mut spec = case_study::derived_fleet_specs().swap_remove(2);
            spec.disturbance.iter_mut().for_each(|value| *value *= factor);
            ControlApplication::design(spec).expect("scaled servo design")
        })
        .collect();
    for app in &scaled {
        automotive_cps::core::characterize_application_with(app, &mut workspace)
            .expect("warm-up characterisation");
    }
    let mut counts = Vec::new();
    let mut sweep_lengths = Vec::new();
    for app in &scaled {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let curve = automotive_cps::core::characterize_application_with(app, &mut workspace)
            .expect("warm characterisation");
        counts.push(ALLOCATIONS.load(Ordering::SeqCst) - before);
        sweep_lengths.push(curve.points.len());
    }
    assert_ne!(sweep_lengths[0], sweep_lengths[1], "the two sweeps must differ in length");
    assert_eq!(
        counts[0], counts[1],
        "warm characterisation allocations depend on the sweep length ({sweep_lengths:?} \
         points made {counts:?} allocations)"
    );
    assert_eq!(workspace.state_pool_size(), state_entries, "warm pool must not grow");
    assert_eq!(workspace.power_pool_size(), power_entries, "warm pool must not grow");
    assert_eq!(workspace.lyapunov_pool_size(), lyapunov_entries, "warm pool must not grow");

    // The servo's augmented order, 3, runs the settle engine on stack
    // arrays; above order 6 it runs on the pooled state buffers. The same
    // check on a stable order-7 pair (upper-bidiagonal ET and TT loops, a
    // disturbed three-state plant) at two disturbance scales covers that
    // path.
    let order = 7;
    let bidiagonal = |radius: f64| {
        let mut a = Matrix::zeros(order, order);
        for i in 0..order {
            a[(i, i)] = radius * (1.0 - 0.05 * i as f64);
            if i + 1 < order {
                a[(i, i + 1)] = 0.2;
            }
        }
        a
    };
    let (et_loop, tt_loop) = (bidiagonal(0.95), bidiagonal(0.6));
    let configs: Vec<_> = [0.8, 1.2]
        .iter()
        .map(|factor| {
            let mut initial_state = vec![0.0; order];
            initial_state[..3].copy_from_slice(&[factor * 1.0, factor * -0.5, factor * 0.25]);
            CharacterizationConfig {
                period: 0.01,
                threshold: 0.05,
                initial_state,
                plant_order: 3,
                horizon: 3_000,
            }
        })
        .collect();
    for config in &configs {
        characterize_dwell_vs_wait_with(&et_loop, &tt_loop, config, &mut workspace)
            .expect("warm-up order-7 characterisation");
    }
    let state_entries = workspace.state_pool_size();
    let power_entries = workspace.power_pool_size();
    let lyapunov_entries = workspace.lyapunov_pool_size();
    let mut counts = Vec::new();
    let mut sweep_lengths = Vec::new();
    for config in &configs {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let curve = characterize_dwell_vs_wait_with(&et_loop, &tt_loop, config, &mut workspace)
            .expect("warm order-7 characterisation");
        counts.push(ALLOCATIONS.load(Ordering::SeqCst) - before);
        sweep_lengths.push(curve.points.len());
    }
    assert_ne!(sweep_lengths[0], sweep_lengths[1], "the two order-7 sweeps must differ in length");
    assert_eq!(
        counts[0], counts[1],
        "warm order-7 characterisation allocations depend on the sweep length \
         ({sweep_lengths:?} points made {counts:?} allocations)"
    );
    assert_eq!(workspace.state_pool_size(), state_entries, "warm pool must not grow");
    assert_eq!(workspace.power_pool_size(), power_entries, "warm pool must not grow");
    assert_eq!(workspace.lyapunov_pool_size(), lyapunov_entries, "warm pool must not grow");

    // Branch-and-bound slot allocation: construction (priority order,
    // demand table, slot pool, greedy incumbent seed) may allocate; the
    // search itself — every inner node's schedulability check and
    // demand-relaxation bound included — must not. Solved repeatedly to
    // amplify any per-node allocation, across both wait-time methods and
    // both safe dwell models. The fail-operational service arms every solve
    // with a cancellation token and a node budget, so the search runs with
    // both checkpoints live: each is an atomic load / counter compare and
    // must stay allocation-free too (token construction is outside the
    // measured window).
    let table = case_study::paper_table1();
    let token = CancelToken::new();
    for model in [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic] {
        for method in [WaitTimeMethod::ClosedFormBound, WaitTimeMethod::ExactFixedPoint] {
            let config = AllocatorConfig { model, method, ..AllocatorConfig::default() };
            let mut solver = OptimalAllocator::new(&table, &config).expect("solver builds");
            solver.set_cancel_token(Some(token.clone()));
            solver.set_node_budget(Some(u64::MAX));
            // Warm-up solve (also proves idempotence below).
            let warm = solver.solve_in_place().expect("paper fleet is schedulable");

            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let mut slots_checksum = 0usize;
            for _ in 0..200 {
                slots_checksum +=
                    solver.solve_in_place().expect("paper fleet is schedulable");
            }
            let after = ALLOCATIONS.load(Ordering::SeqCst);

            assert_eq!(slots_checksum, warm * 200, "solver must be deterministic");
            assert!(solver.nodes_explored() > 0);
            assert_eq!(
                after - before,
                0,
                "the branch-and-bound search performed {} heap allocations over 200 \
                 solves ({model:?}/{method:?})",
                after - before
            );
        }
    }

    // Portfolio search, single-worker configuration: `threads = 1` spawns
    // no worker threads — frontier generation, the count search (shared
    // atomic incumbent updates included) and the answer phase all run
    // inline on the counted thread, on buffers sized at construction
    // (greedy + restart seeding included). Two fleets cover both answer
    // phases: on the paper fleet the greedy seed *is* the optimum (the
    // seed-copy path), while on the trap fleet below the seed is strictly
    // suboptimal, so every solve runs the deterministic reconstruction
    // DFS too. Token and budget armed, as in the design service.
    let trap_fleet: Vec<_> = [
        ("A1", 0.8, 2.00),
        ("A2", 0.8, 2.01),
        ("A3", 1.1, 2.02),
        ("A4", 1.1, 2.03),
    ]
    .iter()
    .map(|&(name, xi_m, deadline)| {
        automotive_cps::sched::AppTimingParams::new(name, 200.0, deadline, 0.1, 10.0, xi_m, 0.05)
            .expect("trap fleet parameters are valid")
    })
    .collect();
    for (fleet, label) in [(&table, "paper"), (&trap_fleet, "trap")] {
        let config = AllocatorConfig { max_slots: fleet.len(), ..AllocatorConfig::default() };
        let mut solver =
            PortfolioAllocator::new(fleet, &config, &PortfolioConfig::with_threads(1))
                .expect("portfolio builds");
        solver.set_cancel_token(Some(token.clone()));
        solver.set_node_budget(Some(u64::MAX));
        let warm = solver.solve_in_place().expect("fleet is schedulable");

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut slots_checksum = 0usize;
        for _ in 0..200 {
            slots_checksum += solver.solve_in_place().expect("fleet is schedulable");
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);

        assert_eq!(slots_checksum, warm * 200, "portfolio must be deterministic");
        assert!(solver.nodes_explored() > 0);
        assert_eq!(
            after - before,
            0,
            "the single-worker portfolio search performed {} heap allocations over \
             200 solves ({label} fleet)",
            after - before
        );
    }

    // Greedy packing: every candidate slot is judged by the streaming
    // verdict (`slot_status`, and `member_response` for best-fit's slack),
    // on the candidate pushed in place. A call therefore allocates its
    // priority order and its output — the outer `Vec` once, each slot once —
    // and nothing per candidate check: its count equals that of sorting the
    // order and cloning the result, whatever the strategy and however many
    // candidates it judged. Both fleets, both wait-time methods.
    for (fleet, label) in [(&table, "paper"), (&trap_fleet, "trap")] {
        for strategy in
            [AllocationStrategy::NextFit, AllocationStrategy::FirstFit, AllocationStrategy::BestFit]
        {
            for method in [WaitTimeMethod::ClosedFormBound, WaitTimeMethod::ExactFixedPoint] {
                let config = AllocatorConfig {
                    strategy,
                    method,
                    max_slots: fleet.len(),
                    ..AllocatorConfig::default()
                };
                let warm = allocate_slots(fleet, &config).expect("fleet is schedulable");
                for _ in 0..20 {
                    let before = ALLOCATIONS.load(Ordering::SeqCst);
                    let allocation = allocate_slots(fleet, &config).expect("fleet is schedulable");
                    let packing = ALLOCATIONS.load(Ordering::SeqCst) - before;

                    let before = ALLOCATIONS.load(Ordering::SeqCst);
                    let _order = priority_order(fleet);
                    let _copy = allocation.clone();
                    let output = ALLOCATIONS.load(Ordering::SeqCst) - before;

                    assert_eq!(allocation, warm, "greedy packing must be deterministic");
                    assert_eq!(
                        packing, output,
                        "{strategy}/{method:?} on the {label} fleet allocated {packing} times \
                         for a {}-slot result (order plus output: {output})",
                        allocation.slot_count()
                    );
                }
            }
        }
    }

    // Fleet-designer steady-state loop: the two solvers every controller
    // synthesis iterates — the DARE value iteration and the matrix
    // exponential — run entirely on `DesignWorkspace`-pooled buffers
    // (`RiccatiWorkspace` / `ExpmWorkspace`). Workspace construction and the
    // warm-up solve may allocate; the repeated in-place solves afterwards
    // must not: the designer allocates only at workspace construction and
    // when materialising the designed artifacts.
    let a_aug = Matrix::from_rows(&[
        &[1.0, 0.02, 0.0002],
        &[0.0, 1.0, 0.02],
        &[0.0, 0.0, 0.0],
    ])
    .expect("static");
    let b_aug = Matrix::column(&[0.0, 0.0, 1.0]).expect("static");
    let q = Matrix::identity(3);
    let r = Matrix::from_rows(&[&[0.1]]).expect("static");
    let options = DareOptions::default();
    let mut riccati = RiccatiWorkspace::new(3, 1);
    let mut exponential = ExpmWorkspace::new(3);
    let mut phi = Matrix::zeros(3, 3);
    // Warm-up: first solves populate the pooled buffers.
    solve_dare_in_place(&a_aug, &b_aug, &q, &r, options, &mut riccati).expect("dare warm-up");
    expm_into(&a_aug, &mut exponential, &mut phi).expect("expm warm-up");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut design_checksum = 0.0;
    for _ in 0..25 {
        solve_dare_in_place(&a_aug, &b_aug, &q, &r, options, &mut riccati)
            .expect("dare solves on warm workspace");
        expm_into(&a_aug, &mut exponential, &mut phi).expect("expm on warm workspace");
        design_checksum += riccati.solution().max_abs() + phi.max_abs();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(design_checksum.is_finite() && design_checksum > 0.0);
    assert_eq!(
        after - before,
        0,
        "the design steady-state loop performed {} heap allocations over 25 \
         DARE + expm solves",
        after - before
    );

    // Fault-injection / degradation hot path: the streaming campaign
    // engine's per-scenario loop — reset, (re)install fault + degradation
    // models, inject, `run_metrics_into` — on a warm engine/metrics pair.
    // Every per-period fault draw (drop, burst transition, corruption,
    // dynamic contention), every hold-last-command kernel step and the
    // online settling/peak/TT tracking must run on buffers sized during
    // warm-up. Construction and the warm-up scenario may allocate freely.
    let campaign_apps = case_study::derived_fleet().expect("fleet design");
    let campaign_allocation =
        automotive_cps::sched::allocate_slots(&table_for(&campaign_apps), &AllocatorConfig::default())
            .expect("slot allocation");
    let mut engine =
        CoSimulation::new(campaign_apps, &campaign_allocation, FlexRayConfig::paper_case_study())
            .expect("co-simulation engine");
    let fault = FaultModel::drops(0xFEED, 0.3)
        .with_burst(GilbertElliott {
            degrade_probability: 0.2,
            recover_probability: 0.5,
            bad_drop_probability: 0.9,
        })
        .with_corruption(0.05)
        .with_dynamic_contention(8);
    let degradation = DegradationConfig::noise(7, 0.02).with_storm(0.5, 0.4);
    let mut metrics = RunMetrics::default();
    // Warm-up scenario: grows the engine's scratch, the bus queues and the
    // metrics buffers to their steady-state sizes.
    engine.reset().expect("warm-up reset");
    engine.set_fault_model(Some(fault)).expect("warm-up fault model");
    engine.set_degradation(Some(degradation)).expect("warm-up degradation");
    engine.set_threshold_scale(1.0).expect("warm-up threshold");
    engine.inject_disturbances_scaled(1.0).expect("warm-up inject");
    engine.run_metrics_into(1.0, &mut metrics).expect("warm-up scenario");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut campaign_checksum = 0.0;
    for _ in 0..5 {
        engine.reset().expect("scenario reset");
        engine.set_fault_model(Some(fault)).expect("fault model");
        engine.set_degradation(Some(degradation)).expect("degradation");
        engine.set_threshold_scale(1.0).expect("threshold scale");
        engine.inject_disturbances_scaled(1.0).expect("inject");
        engine.run_metrics_into(1.0, &mut metrics).expect("faulty scenario");
        campaign_checksum += metrics.max_peak_norm() + metrics.tt_share();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(campaign_checksum.is_finite() && campaign_checksum > 0.0);
    assert!(
        metrics.bus.lost_frames() > 0,
        "the measured scenarios must actually lose frames (drop p = 0.3)"
    );
    assert!(
        metrics.held_periods.iter().any(|&held| held > 0),
        "lost actuation frames must trigger hold-last-command periods"
    );
    assert_eq!(
        after - before,
        0,
        "the fault-injection/hold hot path performed {} heap allocations over 5 \
         warm faulty scenarios",
        after - before
    );
}

/// Characterisation table for the derived fleet (construction-time helper —
/// allocates freely, used outside the measured windows).
fn table_for(
    apps: &[automotive_cps::core::ControlApplication],
) -> Vec<automotive_cps::sched::AppTimingParams> {
    case_study::derive_table(apps).expect("timing table")
}
