//! Property-based tests (proptest) on the core data structures and the
//! paper's analytical invariants.

use automotive_cps::control::{
    characterize_dwell_vs_wait, characterize_dwell_vs_wait_reference, design_by_pole_placement,
    plants, CharacterizationConfig, ContinuousStateSpace, DelayedLtiSystem,
};
use automotive_cps::core::{case_study, CoSimulation, ControlApplication, ScenarioBatch, ScenarioSpec};
use automotive_cps::flexray::FlexRayConfig;
use automotive_cps::linalg::{
    discretize_zoh, dlqr, expm, inverse, solve, spectral_radius, DareOptions, Matrix,
};
use automotive_cps::sched::{
    allocate_slots, allocate_slots_optimal, max_wait_time_bound, max_wait_time_fixed_point,
    AllocationStrategy, AllocatorConfig, AppTimingParams, ConservativeMonotonicModel,
    DwellTimeModel, ModelKind, NonMonotonicModel, SimpleMonotonicModel, SlotAllocation,
    WaitTimeMethod,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Strategy for well-conditioned small matrices (entries in [-3, 3]).
fn small_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f64..3.0, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).expect("matching length"))
}

/// Strategy for valid application timing parameters.
fn timing_params() -> impl Strategy<Value = AppTimingParams> {
    (0.2f64..2.0, 1.5f64..4.0, 1.0f64..2.0, 0.05f64..0.9, 1.0f64..6.0, 1.0f64..100.0).prop_map(
        |(xi_tt, et_factor, m_factor, p_factor, slack, extra_arrival)| {
            let xi_et = xi_tt * et_factor;
            let xi_m = xi_tt * m_factor;
            let k_p = xi_et * p_factor;
            let deadline = xi_m + k_p + slack;
            let inter_arrival = deadline + extra_arrival;
            AppTimingParams::new("P", inter_arrival, deadline, xi_tt, xi_et, xi_m, k_p)
                .expect("constructed parameters satisfy the invariants")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- linear algebra ------------------------------------------------

    #[test]
    fn lu_solve_satisfies_the_system(matrix in small_matrix(3), rhs in proptest::collection::vec(-5.0f64..5.0, 3)) {
        // Skip near-singular matrices; the solver reports them as errors.
        if let Ok(solution) = solve(&matrix, &rhs) {
            let back = matrix.matvec(&solution).expect("dimensions match");
            for (lhs, rhs_value) in back.iter().zip(&rhs) {
                prop_assert!((lhs - rhs_value).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn inverse_roundtrip(matrix in small_matrix(3)) {
        if let Ok(inv) = inverse(&matrix) {
            let identity = matrix.matmul(&inv).expect("dimensions match");
            prop_assert!(identity.approx_eq(&Matrix::identity(3), 1e-6));
        }
    }

    #[test]
    fn matrix_exponential_of_negated_matrix_is_the_inverse(matrix in small_matrix(2)) {
        let forward = expm(&matrix).expect("finite input");
        let backward = expm(&matrix.scale(-1.0)).expect("finite input");
        let product = forward.matmul(&backward).expect("dimensions match");
        prop_assert!(product.approx_eq(&Matrix::identity(2), 1e-7));
    }

    #[test]
    fn zoh_discretisation_shrinks_with_the_step(a in small_matrix(2), dt in 0.001f64..0.05) {
        let b = Matrix::column(&[0.0, 1.0]).expect("static");
        let (phi, gamma) = discretize_zoh(&a, &b, dt).expect("valid inputs");
        prop_assert_eq!(phi.shape(), (2, 2));
        prop_assert_eq!(gamma.shape(), (2, 1));
        prop_assert!(phi.is_finite());
        prop_assert!(gamma.is_finite());
        // As dt -> 0 the transition matrix approaches identity.
        let (phi_small, _) = discretize_zoh(&a, &b, dt / 100.0).expect("valid inputs");
        let dist_small = phi_small.sub_matrix(&Matrix::identity(2)).expect("shape").max_abs();
        let dist_large = phi.sub_matrix(&Matrix::identity(2)).expect("shape").max_abs();
        prop_assert!(dist_small <= dist_large + 1e-12);
    }

    #[test]
    fn lqr_closed_loop_is_schur_stable_for_controllable_double_integrator(
        q_scale in 0.1f64..10.0,
        r_scale in 0.01f64..10.0,
        h in 0.005f64..0.05,
    ) {
        let a = Matrix::from_rows(&[&[1.0, h], &[0.0, 1.0]]).expect("static");
        let b = Matrix::column(&[h * h / 2.0, h]).expect("static");
        let q = Matrix::identity(2).scale(q_scale);
        let r = Matrix::identity(1).scale(r_scale);
        let solution = dlqr(&a, &b, &q, &r, DareOptions::default()).expect("controllable pair");
        let closed = a.sub_matrix(&b.matmul(&solution.gain).expect("shape")).expect("shape");
        prop_assert!(spectral_radius(&closed).expect("finite") < 1.0);
    }

    // --- dwell-time models ----------------------------------------------

    #[test]
    fn conservative_model_dominates_non_monotonic_model(app in timing_params(), fraction in 0.0f64..1.0) {
        let non_monotonic = NonMonotonicModel::for_app(&app);
        let conservative = ConservativeMonotonicModel::for_app(&app);
        let wait = fraction * app.xi_et;
        prop_assert!(conservative.dwell(wait) + 1e-9 >= non_monotonic.dwell(wait));
    }

    #[test]
    fn simple_model_never_exceeds_non_monotonic_model(app in timing_params(), fraction in 0.0f64..1.0) {
        let non_monotonic = NonMonotonicModel::for_app(&app);
        let simple = SimpleMonotonicModel::for_app(&app);
        let wait = fraction * app.xi_et;
        prop_assert!(simple.dwell(wait) <= non_monotonic.dwell(wait) + 1e-9);
    }

    #[test]
    fn response_time_grows_with_wait_in_the_falling_region(app in timing_params(), f1 in 0.0f64..1.0, f2 in 0.0f64..1.0) {
        // Section III: *typically* the gradient of the falling segment lies in
        // (-1, 0) because xi_et - k_p exceeds xi_m; in that regime the total
        // response time keeps increasing with the wait. Restrict the property
        // to exactly that regime, as the paper does.
        prop_assume!(app.xi_m <= app.xi_et - app.k_p);
        let model = NonMonotonicModel::for_app(&app);
        let lo = app.k_p + f1.min(f2) * (app.xi_et - app.k_p);
        let hi = app.k_p + f1.max(f2) * (app.xi_et - app.k_p);
        prop_assert!(model.response_time(hi) + 1e-9 >= model.response_time(lo));
    }

    // --- wait-time analysis and allocation -------------------------------

    #[test]
    fn closed_form_bound_dominates_exact_fixed_point(
        apps in proptest::collection::vec(timing_params(), 2..6),
    ) {
        let slot: Vec<usize> = (0..apps.len()).collect();
        for index in 0..apps.len() {
            let bound = max_wait_time_bound(&apps, &slot, index, ModelKind::NonMonotonic);
            let exact = max_wait_time_fixed_point(&apps, &slot, index, ModelKind::NonMonotonic);
            match (bound, exact) {
                (Ok(bound), Ok(exact)) => prop_assert!(exact <= bound + 1e-9),
                (Err(_), Err(_)) => {}
                (left, right) => prop_assert!(false, "bound and fixed point disagree on feasibility: {left:?} vs {right:?}"),
            }
        }
    }

    #[test]
    fn allocations_are_valid_and_non_monotonic_never_needs_more_slots(
        apps in proptest::collection::vec(timing_params(), 1..6),
    ) {
        // Give every application a unique name so priorities are deterministic.
        let apps: Vec<AppTimingParams> = apps
            .into_iter()
            .enumerate()
            .map(|(index, mut app)| {
                app.name = format!("P{index}");
                app
            })
            .collect();
        let config = AllocatorConfig { max_slots: apps.len().max(1), ..AllocatorConfig::default() };
        let non_monotonic = allocate_slots(&apps, &config);
        let conservative = allocate_slots(
            &apps,
            &AllocatorConfig { model: ModelKind::ConservativeMonotonic, ..config },
        );
        if let (Ok(non_monotonic), Ok(conservative)) = (non_monotonic, conservative) {
            prop_assert!(non_monotonic.verify(&apps).expect("verification runs"));
            prop_assert!(conservative.verify(&apps).expect("verification runs"));
            prop_assert!(non_monotonic.slot_count() <= conservative.slot_count());
        }
    }

    #[test]
    fn optimal_allocation_is_a_verified_lower_bound_on_every_heuristic(
        apps in proptest::collection::vec(timing_params(), 1..6),
    ) {
        // Unique names keep priorities (and therefore the analysis)
        // deterministic.
        let apps: Vec<AppTimingParams> = apps
            .into_iter()
            .enumerate()
            .map(|(index, mut app)| {
                app.name = format!("P{index}");
                app
            })
            .collect();
        for model in [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic] {
            for method in [WaitTimeMethod::ClosedFormBound, WaitTimeMethod::ExactFixedPoint] {
                let base = AllocatorConfig {
                    model,
                    method,
                    max_slots: apps.len(),
                    ..AllocatorConfig::default()
                };
                let optimal = allocate_slots_optimal(&apps, &base);
                let mut any_greedy = false;
                for strategy in [
                    AllocationStrategy::NextFit,
                    AllocationStrategy::FirstFit,
                    AllocationStrategy::BestFit,
                ] {
                    if let Ok(greedy) =
                        allocate_slots(&apps, &AllocatorConfig { strategy, ..base })
                    {
                        any_greedy = true;
                        match &optimal {
                            // The exact minimum never exceeds any
                            // heuristic's count under the same model and
                            // method.
                            Ok(optimal) => prop_assert!(
                                optimal.slot_count() <= greedy.slot_count(),
                                "{model:?}/{method:?}/{strategy}: optimal {} > greedy {}",
                                optimal.slot_count(),
                                greedy.slot_count()
                            ),
                            Err(e) => prop_assert!(
                                false,
                                "{model:?}/{method:?}/{strategy}: greedy found a map but the exact search failed: {e}"
                            ),
                        }
                    }
                }
                if let Ok(optimal) = &optimal {
                    // The returned map passes the reference verification.
                    prop_assert!(optimal.verify(&apps).expect("verification runs"));
                } else {
                    // The exact search may only fail when every greedy
                    // heuristic failed too.
                    prop_assert!(!any_greedy, "{model:?}/{method:?}: greedy found a map the exact search missed");
                }
            }
        }
    }
}

/// One of the 2-state single-input case-study plants, selected by index.
fn stable_case_study_plant(index: usize) -> ContinuousStateSpace {
    match index {
        0 => plants::servo_position(),
        1 => plants::dc_motor_speed(),
        2 => plants::lane_keeping(),
        _ => plants::throttle_control(),
    }
}

/// Shared fixture for the batch-equivalence property: the derived fleet is
/// designed and characterised once per test process.
fn batch_fixture() -> &'static (Vec<ControlApplication>, SlotAllocation, ScenarioBatch) {
    static FIXTURE: OnceLock<(Vec<ControlApplication>, SlotAllocation, ScenarioBatch)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let apps = case_study::derived_fleet().expect("fleet design");
        let table = case_study::derive_table(&apps).expect("table derivation");
        let allocation = allocate_slots(&table, &AllocatorConfig::default()).expect("allocation");
        let batch = ScenarioBatch::new(
            apps.clone(),
            allocation.clone(),
            FlexRayConfig::paper_case_study(),
        )
        .expect("batch template");
        (apps, allocation, batch)
    })
}

// The characterisation / co-simulation properties below simulate whole
// transients per case, so they run fewer cases than the analytical block
// above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // --- characterization and the shared-immutable fleet ------------------

    #[test]
    fn kernel_characterization_with_early_exit_matches_full_horizon_curve(
        plant_index in 0usize..4,
        et_fast in -1.2f64..-0.6,
        et_spread in 0.05f64..0.4,
        tt_fast in -8.0f64..-4.0,
        tt_spread in 0.5f64..2.0,
        disturbance in 0.3f64..1.0,
    ) {
        let plant = stable_case_study_plant(plant_index);
        let h = case_study::CASE_STUDY_PERIOD;
        let et_sys = DelayedLtiSystem::from_continuous(&plant, h, h).expect("ET model");
        let tt_sys = DelayedLtiSystem::from_continuous(&plant, h, case_study::CASE_STUDY_TT_DELAY)
            .expect("TT model");
        let et = design_by_pole_placement(&et_sys, &[et_fast, et_fast - et_spread, -40.0])
            .expect("ET design");
        let tt = design_by_pole_placement(&tt_sys, &[tt_fast, tt_fast - tt_spread, -40.0])
            .expect("TT design");
        let config = CharacterizationConfig {
            period: h,
            threshold: case_study::CASE_STUDY_THRESHOLD,
            initial_state: vec![disturbance, 0.0, 0.0],
            plant_order: 2,
            horizon: 1_500,
        };
        let fast = characterize_dwell_vs_wait(et.closed_loop(), tt.closed_loop(), &config)
            .expect("kernel path");
        let reference =
            characterize_dwell_vs_wait_reference(et.closed_loop(), tt.closed_loop(), &config)
                .expect("full-horizon reference");
        prop_assert_eq!(fast, reference);
    }

    #[test]
    fn arc_shared_batch_reproduces_per_worker_clone_outcomes(
        scale in 0.2f64..2.0,
        threshold_scale in 0.6f64..1.6,
        threads in 1usize..5,
    ) {
        let (apps, allocation, batch) = batch_fixture();
        let duration = 1.5;
        let spec = ScenarioSpec {
            label: "case".to_string(),
            disturbance_scale: scale,
            threshold_scale,
            ..ScenarioSpec::nominal(duration)
        };
        let outcomes = batch
            .clone()
            .with_threads(threads)
            .run(std::slice::from_ref(&spec))
            .expect("shared-fleet batch");
        prop_assert_eq!(outcomes.len(), 1);

        // The pre-refactor worker behaviour: deep-clone the designed
        // applications into a private engine and simulate the scenario.
        let mut engine =
            CoSimulation::new(apps.clone(), allocation, FlexRayConfig::paper_case_study())
                .expect("per-clone engine");
        engine.set_threshold_scale(threshold_scale).expect("threshold");
        engine.inject_disturbances_scaled(scale).expect("disturbances");
        let trace = engine.run(duration).expect("run");

        let outcome = &outcomes[0];
        prop_assert_eq!(outcome.all_deadlines_met(), trace.all_deadlines_met());
        let response_times: Vec<Option<f64>> =
            trace.apps.iter().map(|a| a.response_time).collect();
        prop_assert_eq!(&outcome.response_times, &response_times);
        let peak_norms: Vec<f64> = trace
            .apps
            .iter()
            .map(|a| a.points.iter().map(|p| p.norm).fold(0.0, f64::max))
            .collect();
        prop_assert_eq!(&outcome.peak_norms, &peak_norms);
        let tt_periods: Vec<u64> = trace
            .apps
            .iter()
            .map(|a| {
                a.points
                    .iter()
                    .filter(|p| p.mode == automotive_cps::control::CommunicationMode::TimeTriggered)
                    .count() as u64
            })
            .collect();
        prop_assert_eq!(&outcome.tt_periods, &tt_periods);
        prop_assert_eq!(
            outcome.bus.static_transmissions,
            trace.bus_statistics.static_transmissions
        );
        prop_assert_eq!(
            outcome.bus.dynamic_transmissions,
            trace.bus_statistics.dynamic_transmissions
        );
    }
}
