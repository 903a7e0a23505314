//! Acceptance tests for the parallel scenario engine: at least 64 disturbance
//! scenarios fan out across worker threads and the results are deterministic
//! and independent of the thread count, for ragged scenario counts too
//! (property-based). Each result of the mixed sweep also equals the reduction
//! of a fresh engine's traced `CoSimulation::run` of that scenario.

use automotive_cps::control::{settling_index, CommunicationMode};
use automotive_cps::core::{
    case_study, CoSimTrace, DesignedFleet, RunMetrics, ScenarioBatch, ScenarioSpec,
};
use automotive_cps::flexray::FlexRayConfig;
use automotive_cps::sched::{allocate_slots, AllocatorConfig, SlotAllocation};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A scenario-batch template over the derived fleet, designed once for the
/// whole test binary.
fn batch_template() -> &'static ScenarioBatch {
    static BATCH: OnceLock<ScenarioBatch> = OnceLock::new();
    BATCH.get_or_init(|| {
        let fleet = DesignedFleet::design(
            case_study::derived_fleet_specs(),
            &AllocatorConfig::default(),
            FlexRayConfig::paper_case_study(),
        )
        .expect("derived fleet designs");
        ScenarioBatch::from_fleet(Arc::new(fleet)).expect("batch template")
    })
}

/// The per-scenario numbers a batch reports: response times, the fleet's
/// deadline verdict, peak norms, TT periods, and the static and dynamic
/// transmission counts.
type Reduction = (Vec<Option<f64>>, bool, Vec<f64>, Vec<u64>, u64, u64);

/// What the batch reported for one scenario.
fn reported(metrics: &RunMetrics) -> Reduction {
    (
        metrics.response_times.clone(),
        metrics.all_deadlines_met(),
        metrics.peak_norms.clone(),
        metrics.tt_periods.clone(),
        metrics.bus.static_transmissions,
        metrics.bus.dynamic_transmissions,
    )
}

/// The oracle: a fresh engine over the batch's fleet runs `spec` with the
/// trace-recording `CoSimulation::run`, and the trace is reduced by hand.
/// Response times come from `settling_index` over each recorded norm
/// series, and must match the trace's own.
fn traced(batch: &ScenarioBatch, spec: &ScenarioSpec) -> Reduction {
    let fleet = batch.fleet();
    let mut engine = fleet.engine().expect("fresh engine");
    if let Some(bus) = spec.bus_config {
        engine.set_bus_config(bus).expect("bus override");
    }
    engine
        .set_allocation(spec.allocation.as_ref().unwrap_or_else(|| fleet.allocation()))
        .expect("slot map");
    engine.set_threshold_scale(spec.threshold_scale).expect("threshold scale");
    match &spec.disturbances {
        None => engine.inject_disturbances_scaled(spec.disturbance_scale),
        Some(vectors) => engine.inject_disturbance_vectors(vectors, spec.disturbance_scale),
    }
    .expect("disturbances");
    let trace: CoSimTrace = engine.run(spec.duration).expect("traced run");
    let response_times: Vec<Option<f64>> = trace
        .apps
        .iter()
        .zip(fleet.apps())
        .map(|(app, design)| {
            let norms: Vec<f64> = app.points.iter().map(|p| p.norm).collect();
            let threshold = design.spec().threshold * spec.threshold_scale;
            settling_index(&norms, threshold).map(|k| k as f64 * trace.period)
        })
        .collect();
    for (app, response) in trace.apps.iter().zip(&response_times) {
        assert_eq!(app.response_time, *response, "{}: {}", spec.label, app.name);
    }
    let deadlines_met = trace
        .apps
        .iter()
        .zip(&response_times)
        .all(|(app, response)| response.is_some_and(|t| t <= app.deadline));
    (
        response_times,
        deadlines_met,
        trace
            .apps
            .iter()
            .map(|app| app.points.iter().map(|p| p.norm).fold(0.0, f64::max))
            .collect(),
        trace
            .apps
            .iter()
            .map(|app| {
                app.points.iter().filter(|p| p.mode == CommunicationMode::TimeTriggered).count()
                    as u64
            })
            .collect(),
        trace.bus_statistics.static_transmissions,
        trace.bus_statistics.dynamic_transmissions,
    )
}

#[test]
fn sixty_four_scenarios_are_thread_count_independent() {
    let apps = case_study::derived_fleet().expect("fleet design");
    let table = case_study::derive_table(&apps).expect("table derivation");
    let allocation = allocate_slots(&table, &AllocatorConfig::default()).expect("allocation");
    let batch = ScenarioBatch::new(apps, allocation, FlexRayConfig::paper_case_study())
        .expect("batch template");

    let mut scenarios = ScenarioSpec::disturbance_sweep(0.05, 2.5, 60, 2.0);
    // Mix in the other sweep axes so the batch covers every scenario kind:
    // threshold scaling, the disturbance × threshold grid, per-application
    // disturbance vectors and slot-map overrides.
    scenarios.extend(ScenarioSpec::threshold_sweep(0.5, 3.0, 4, 2.0));
    scenarios.extend(ScenarioSpec::grid(&[0.5, 1.5], &[0.8, 1.2], 2.0));
    let per_app: Vec<Vec<f64>> = batch
        .fleet()
        .apps()
        .iter()
        .enumerate()
        .map(|(index, app)| {
            app.spec().disturbance.iter().map(|d| d * (index as f64 + 1.0) * 0.25).collect()
        })
        .collect();
    scenarios.push(ScenarioSpec::nominal(2.0).with_disturbances(per_app));
    let sweep_allocations = automotive_cps::sched::allocation_sweep(
        &table,
        &AllocatorConfig::default().sweep_matrix(),
    );
    scenarios.extend(ScenarioSpec::slot_map_sweep(sweep_allocations, 2.0));
    // A bus-configuration override: a 10 ms cycle with ten static slots,
    // running a slot map that gives every application its own slot.
    let wide_bus = FlexRayConfig {
        cycle_length: 0.010,
        static_slot_count: 10,
        ..FlexRayConfig::paper_case_study()
    };
    let dedicated = SlotAllocation {
        slots: (0..batch.fleet().app_count()).map(|index| vec![index]).collect(),
        ..batch.fleet().allocation().clone()
    };
    assert!(dedicated.slot_count() <= wide_bus.static_slot_count);
    scenarios.push(
        ScenarioSpec::nominal(2.0).with_bus_config(wide_bus).with_allocation(dedicated),
    );
    // A nominal scenario after the overrides: an override that leaks into
    // the next scenario a worker runs shows up here.
    scenarios.push(ScenarioSpec::nominal(2.0));
    assert!(scenarios.len() >= 64, "got {} scenarios", scenarios.len());

    let serial = batch.clone().with_threads(1).run(&scenarios).expect("serial run");
    assert_eq!(serial.len(), scenarios.len());
    // Every result, in input order, is what a fresh engine's traced run of
    // that spec reduces to.
    for (index, (outcome, spec)) in serial.iter().zip(&scenarios).enumerate() {
        assert_eq!(reported(outcome), traced(&batch, spec), "scenario {index} ({})", spec.label);
    }

    let four = batch.clone().with_threads(4).run(&scenarios).expect("4-thread run");
    let seven = batch.clone().with_threads(7).run(&scenarios).expect("7-thread run");
    assert_eq!(serial, four, "4-thread results must match the serial run");
    assert_eq!(serial, seven, "7-thread results must match the serial run");
    for outcome in &serial {
        assert_eq!(outcome.response_times.len(), 6);
        assert_eq!(outcome.peak_norms.len(), 6);
    }
    let last = serial.len() - 1;
    assert_ne!(
        reported(&serial[last - 1]).4,
        reported(&serial[last]).4,
        "the bus override must change the static transmissions"
    );

    // The sweep must actually explore different dynamics: larger
    // disturbances produce larger peaks.
    assert!(serial[0].peak_norms[0] < serial[59].peak_norms[0]);
    // And a stronger disturbance can only prolong (never shorten) the first
    // application's settling relative to the weakest scenario.
    if let (Some(fast), Some(slow)) = (serial[0].response_times[0], serial[59].response_times[0]) {
        assert!(fast <= slow);
    }
}

#[test]
fn workers_share_one_designed_fleet_instead_of_cloning_applications() {
    let apps = case_study::derived_fleet().expect("fleet design");
    let table = case_study::derive_table(&apps).expect("table derivation");
    let allocation = allocate_slots(&table, &AllocatorConfig::default()).expect("allocation");
    let batch = ScenarioBatch::new(apps, allocation, FlexRayConfig::paper_case_study())
        .expect("batch template");

    // Worker start-up is an engine over the *same* fleet allocation — the
    // designed ControlApplications are referenced, never cloned.
    let engine = batch.fleet().engine().expect("worker engine");
    assert!(Arc::ptr_eq(engine.fleet(), batch.fleet()));

    // Every kernel a worker drives shares the matrices compiled at design
    // time: spawning two kernels from one application reuses one Arc.
    let app = &batch.fleet().apps()[0];
    let kernel_a = app.kernel().expect("kernel");
    let kernel_b = app.kernel().expect("kernel");
    assert!(Arc::ptr_eq(kernel_a.matrices(), app.kernel_matrices()));
    assert!(Arc::ptr_eq(kernel_a.matrices(), kernel_b.matrices()));

    // Cloning the batch (what `run` does implicitly per worker scope) only
    // bumps the design's reference count.
    let before = Arc::strong_count(batch.fleet());
    let clone = batch.clone();
    assert_eq!(Arc::strong_count(batch.fleet()), before + 1);
    drop(clone);
    assert_eq!(Arc::strong_count(batch.fleet()), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ragged chunking: any scenario count (including counts that do not
    /// divide evenly across the workers) and any thread count must
    /// reproduce the single-thread outcomes exactly.
    #[test]
    fn ragged_scenario_counts_match_the_single_thread_run(
        count in 2usize..14,
        threads in 1usize..4,
    ) {
        let scenarios = ScenarioSpec::disturbance_sweep(0.3, 1.8, count, 0.5);
        let serial = batch_template()
            .clone()
            .with_threads(1)
            .run(&scenarios)
            .expect("single-thread run");
        let parallel = batch_template()
            .clone()
            .with_threads(threads)
            .run(&scenarios)
            .expect("multi-thread run");
        prop_assert_eq!(
            parallel, serial,
            "{} threads × {} scenarios diverged",
            threads, count
        );
    }
}
