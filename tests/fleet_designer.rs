//! Parity suite for the fleet-level design pipeline: [`FleetDesigner`] must
//! produce **bit-identical** artifacts to the retained sequential
//! per-application path for *any* worker count — on the case-study fleet, on
//! a scaled 24-application fleet, and (property-based) on fleets of random
//! stable plants designed with LQR. The joined synthesis-and-
//! characterisation flow must match the two-stage path bit for bit and fail
//! on the first failing app in input order. Also pins the routing contract:
//! every design entry point (`ControlApplication::design`,
//! `DesignedFleet::design`/`design_optimal`, `BusConfigSweep::scenarios_for`)
//! goes through the same pipeline and therefore agrees with the primitive
//! paths exactly.

use automotive_cps::control::{DesignWorkspace, LqrWeights};
use automotive_cps::core::{
    case_study, derive_timing_params, ApplicationSpec, BusConfigSweep, ControlApplication,
    ControllerSpec, DesignedFleet, FleetDesigner,
};
use automotive_cps::flexray::{FlexRayConfig, SimRng};
use automotive_cps::linalg::Matrix;
use automotive_cps::sched::{AllocatorConfig, AppTimingParams};
use proptest::prelude::*;

/// Asserts two designed applications are bit-identical artifact for
/// artifact (controllers, closed loops, delayed models, fused kernel
/// matrices).
fn assert_identical(actual: &ControlApplication, expected: &ControlApplication) {
    assert_eq!(actual.name(), expected.name());
    assert_eq!(actual.et_controller(), expected.et_controller());
    assert_eq!(actual.tt_controller(), expected.tt_controller());
    assert_eq!(actual.et_system(), expected.et_system());
    assert_eq!(actual.tt_system(), expected.tt_system());
    assert_eq!(
        actual.kernel_matrices().as_ref(),
        expected.kernel_matrices().as_ref(),
        "{}: fused kernel matrices must match bit for bit",
        actual.name()
    );
}

#[test]
fn designer_is_bit_identical_to_per_app_design_for_any_worker_count() {
    let specs = case_study::derived_fleet_specs();
    // The retained sequential per-application path.
    let reference: Vec<ControlApplication> =
        specs.iter().cloned().map(|spec| ControlApplication::design(spec).unwrap()).collect();

    for threads in [1, 2, 3, 8, 64] {
        let designed =
            FleetDesigner::new().with_threads(threads).design(specs.clone()).unwrap();
        assert_eq!(designed.len(), reference.len());
        for (actual, expected) in designed.iter().zip(&reference) {
            assert_identical(actual, expected);
        }
    }
}

#[test]
fn designer_parity_holds_on_a_scaled_24_app_fleet() {
    let specs = case_study::scaled_fleet_specs(24);
    assert_eq!(specs.len(), 24);
    // Names are unique (the allocation layer keys diagnostics by name).
    let names: std::collections::HashSet<_> = specs.iter().map(|s| s.name.clone()).collect();
    assert_eq!(names.len(), 24);

    let reference: Vec<ControlApplication> =
        specs.iter().cloned().map(|spec| ControlApplication::design(spec).unwrap()).collect();
    let designed = FleetDesigner::new().with_threads(5).design(specs).unwrap();
    for (actual, expected) in designed.iter().zip(&reference) {
        assert_identical(actual, expected);
    }
}

#[test]
fn parallel_characterization_matches_the_sequential_pass_bit_for_bit() {
    let apps = case_study::derived_fleet().unwrap();
    let reference: Vec<_> =
        apps.iter().map(|app| derive_timing_params(app).unwrap()).collect();
    for threads in [1, 2, 4, 16] {
        let table = FleetDesigner::new().with_threads(threads).characterize(&apps).unwrap();
        assert_eq!(table, reference, "characterisation must not depend on {threads} workers");
    }
}

/// A scaled case-study fleet of `apps` applications with seeded
/// perturbations that keep every design valid: disturbance ×[0.8, 1.2],
/// deadline ×[1, 1.15], inter-arrival time ×[1, 1.5].
fn perturbed_fleet(seed: u64, apps: usize) -> Vec<ApplicationSpec> {
    let mut rng = SimRng::seeded(seed);
    let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_unit();
    case_study::scaled_fleet_specs(apps)
        .into_iter()
        .map(|mut spec| {
            let scale = uniform(0.8, 1.2);
            spec.disturbance.iter_mut().for_each(|d| *d *= scale);
            spec.deadline *= uniform(1.0, 1.15);
            spec.inter_arrival = (spec.inter_arrival * uniform(1.0, 1.5)).max(spec.deadline);
            spec
        })
        .collect()
}

/// Asserts two Table-I rows are equal field for field, every `f64` bit for
/// bit.
fn assert_rows_identical(actual: &AppTimingParams, expected: &AppTimingParams) {
    assert_eq!(actual.name, expected.name);
    let bits = |row: &AppTimingParams| {
        [row.inter_arrival, row.deadline, row.xi_tt, row.xi_et, row.xi_m, row.k_p, row.xi_prime_m]
            .map(f64::to_bits)
    };
    assert_eq!(bits(actual), bits(expected), "{}: timing row differs", actual.name);
}

#[test]
fn joined_design_flow_is_bit_identical_for_any_worker_count() {
    let config = AllocatorConfig::default();
    let bus = FlexRayConfig::paper_case_study();
    let mut reversed = perturbed_fleet(3, 13);
    // Reversed catalogue order: the costliest app types come first, so the
    // order in which workers claim and finish apps differs from input order.
    reversed.reverse();
    for specs in [perturbed_fleet(1, 6), perturbed_fleet(2, 24), reversed] {
        // The separate two-stage path: synthesis, then characterisation.
        let sequential = FleetDesigner::sequential();
        let apps = sequential.design(specs.clone()).unwrap();
        let table = sequential.characterize(&apps).unwrap();
        let reference = sequential.design_fleet_optimal(specs.clone(), &config, bus).unwrap();
        let reference_table = reference.timing_table().unwrap();
        for threads in [1, 2, 3, 7] {
            let fleet = FleetDesigner::new()
                .with_threads(threads)
                .design_fleet_optimal(specs.clone(), &config, bus)
                .unwrap();
            assert_eq!(fleet.allocation(), reference.allocation(), "threads={threads}");
            let joined = fleet.timing_table().unwrap();
            assert_eq!(joined.len(), specs.len());
            for (row, (expected, two_stage)) in
                joined.iter().zip(reference_table.iter().zip(&table))
            {
                assert_rows_identical(row, expected);
                assert_rows_identical(row, two_stage);
            }
            for (actual, expected) in fleet.apps().iter().zip(&apps) {
                assert_identical(actual, expected);
            }
        }
    }
}

#[test]
fn joined_design_flow_returns_the_first_failing_app_whichever_stage_failed() {
    let config = AllocatorConfig::default();
    let bus = FlexRayConfig::paper_case_study();
    let mut specs = case_study::scaled_fleet_specs(12);
    // App 2 designs, but its pure-TT loop cannot reach the threshold within
    // the characterisation horizon; app 9 fails synthesis.
    specs[2].threshold = 1e-300;
    specs[9].deadline = -1.0;
    let characterisation_error =
        derive_timing_params(&ControlApplication::design(specs[2].clone()).unwrap())
            .unwrap_err()
            .to_string();
    let synthesis_error = ControlApplication::design(specs[9].clone()).unwrap_err().to_string();
    assert_ne!(characterisation_error, synthesis_error);
    for threads in [1, 2, 3, 7, 12] {
        let designer = FleetDesigner::new().with_threads(threads);
        let err = designer.design_fleet_optimal(specs.clone(), &config, bus).unwrap_err();
        assert_eq!(err.to_string(), characterisation_error, "threads={threads}");
        let err = designer.design_fleet(specs.clone(), &config, bus).unwrap_err();
        assert_eq!(err.to_string(), characterisation_error, "threads={threads}");
    }
}

#[test]
fn fleet_entry_points_agree_with_the_primitive_paths() {
    let config = AllocatorConfig::default();
    let bus = FlexRayConfig::paper_case_study();

    // DesignedFleet::design == design apps + characterize + greedy allocate.
    let fleet =
        DesignedFleet::design(case_study::derived_fleet_specs(), &config, bus).unwrap();
    let apps = case_study::derived_fleet().unwrap();
    let table = case_study::derive_table(&apps).unwrap();
    let greedy = automotive_cps::sched::allocate_slots(&table, &config).unwrap();
    assert_eq!(fleet.allocation().slots, greedy.slots);
    assert_eq!(fleet.app_count(), apps.len());

    // DesignedFleet::design_optimal == one characterisation + exact search.
    let optimal_fleet = DesignedFleet::design_optimal(apps, &config, bus).unwrap();
    let optimal = automotive_cps::sched::allocate_slots_optimal(&table, &config).unwrap();
    assert_eq!(optimal_fleet.allocation().slots, optimal.slots);

    // BusConfigSweep::scenarios_for == scenarios over the shared table.
    let apps = case_study::derived_fleet().unwrap();
    let sweep = BusConfigSweep::new(bus)
        .with_cycle_lengths(vec![0.005, 0.010])
        .with_static_slot_counts(vec![6, 10]);
    let via_designer =
        sweep.scenarios_for(&FleetDesigner::new(), &apps, &config, 1.0).unwrap();
    let via_table = sweep.scenarios(&table, &config, 1.0);
    assert_eq!(via_designer, via_table);
    assert!(!via_designer.is_empty());
}

#[test]
fn shared_workspace_designs_do_not_contaminate_each_other() {
    // Designing through one warm workspace in a dimension-mixed order must
    // equal designing each app with a cold workspace: the pool is fully
    // overwritten per solve, never carried across.
    let mut specs = case_study::derived_fleet_specs();
    specs.reverse(); // order 2,2,2,2,2(+3rd-order aug),1 states: mixes dims
    let mut shared = DesignWorkspace::new();
    for spec in specs {
        let warm = ControlApplication::design_with(spec.clone(), &mut shared).unwrap();
        let cold =
            ControlApplication::design_with(spec, &mut DesignWorkspace::new()).unwrap();
        assert_identical(&warm, &cold);
    }
    // The pool holds one workspace per distinct dimension, not per design.
    assert!(shared.riccati_pool_size() <= 3);
    assert!(shared.expm_pool_size() <= 4);
}

/// A random stable continuous-time 2-state plant: diagonal decay plus
/// bounded skew coupling keeps every eigenvalue in the open left half-plane
/// (the symmetric part is negative definite), so the LQR design is
/// well-posed.
fn stable_plant(
    decay: (f64, f64),
    coupling: f64,
    gain: f64,
) -> automotive_cps::control::ContinuousStateSpace {
    let a = Matrix::from_rows(&[&[-decay.0, coupling], &[-coupling, -decay.1]]).unwrap();
    let b = Matrix::column(&[0.0, gain]).unwrap();
    let c = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
    automotive_cps::control::ContinuousStateSpace::new(a, b, c).unwrap()
}

fn lqr_spec(index: usize, decay: (f64, f64), coupling: f64, gain: f64, rho: f64) -> ApplicationSpec {
    ApplicationSpec {
        name: format!("P{index}"),
        plant: stable_plant(decay, coupling, gain),
        period: 0.02,
        et_delay: 0.02,
        tt_delay: 0.0007,
        threshold: 0.1,
        disturbance: vec![1.0, 0.0],
        deadline: 5.0,
        inter_arrival: 10.0,
        controllers: ControllerSpec::Lqr {
            et_weights: LqrWeights::identity_with_input_weight(2, rho * 10.0),
            tt_weights: LqrWeights::identity_with_input_weight(2, rho),
        },
        input_limit: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn designer_parity_on_random_stable_plants(
        params in proptest::collection::vec(
            (0.2f64..4.0, 0.2f64..4.0, -2.0f64..2.0, 0.5f64..3.0, 0.01f64..1.0),
            1..5,
        ),
        threads in 1usize..6,
    ) {
        let specs: Vec<ApplicationSpec> = params
            .iter()
            .enumerate()
            .map(|(index, &(d0, d1, coupling, gain, rho))| {
                lqr_spec(index, (d0, d1), coupling, gain, rho)
            })
            .collect();
        let reference: Vec<ControlApplication> = specs
            .iter()
            .cloned()
            .map(|spec| ControlApplication::design(spec).expect("stable plant designs"))
            .collect();
        let designed = FleetDesigner::new()
            .with_threads(threads)
            .design(specs)
            .expect("designer agrees the plants design");
        for (actual, expected) in designed.iter().zip(&reference) {
            prop_assert_eq!(actual.et_controller(), expected.et_controller());
            prop_assert_eq!(actual.tt_controller(), expected.tt_controller());
            prop_assert_eq!(actual.et_system(), expected.et_system());
            prop_assert_eq!(actual.tt_system(), expected.tt_system());
            prop_assert_eq!(
                actual.kernel_matrices().as_ref(),
                expected.kernel_matrices().as_ref()
            );
        }
    }
}
