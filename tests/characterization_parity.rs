//! Parity of the one-pass dwell/wait sweep with the full-horizon reference
//! characterisations.
//!
//! The sweep resumes every wait point from the recorded pure-ET state and
//! stops each run on the plant-row tail bound or the verified invariant
//! ellipsoid; these shortcuts must leave every curve bit-identical to `characterize_dwell_vs_wait_reference` (the
//! linear loops) and `SaturatedSwitchedModel::characterize_reference` (the
//! torque-limited rig). `DwellWaitCurve`'s `PartialEq` compares every
//! point's floats exactly, so `assert_eq!` on curves is a bit-level check
//! for every value that is not NaN (none are).
//!
//! Covered: the six derived-fleet applications over a grid of disturbance
//! scales and threshold factors, on one-shot and on shared warm workspaces;
//! random stable ET/TT closed-loop pairs of augmented order 1–8 with random
//! disturbances and thresholds (a proptest: an invariant-ellipsoid level
//! that is too large shows on plants the case study does not have, and the
//! orders cover every stack-array arm of the settle engine, 1–6, and its
//! pooled-buffer fallback above); the
//! saturated rig at several initial angles; and the edge cases an
//! off-by-one in the resume would break — a state already below the
//! threshold (ξᴱᵀ = 0), a horizon cap equal to ξᴱᵀ, a cap one sample
//! shorter, and an unstable pair that never settles.

use automotive_cps::control::{
    characterize_dwell_vs_wait, characterize_dwell_vs_wait_reference,
    characterize_dwell_vs_wait_with, CharacterizationConfig, CharacterizationWorkspace,
    ControlError, DwellWaitCurve, SaturatedSwitchedModel,
};
use automotive_cps::core::{case_study, experiments, ControlApplication};
use automotive_cps::linalg::{spectral_radius, Matrix};
use proptest::prelude::*;

/// Horizon cap of the parity runs: 24 s at the 20 ms case-study period,
/// beyond every settling time on the grid below (so all runs return a
/// curve, which the grid test asserts) yet short
/// enough for the full-horizon reference to run quickly.
const HORIZON: usize = 1_200;

const DISTURBANCE_SCALES: [f64; 4] = [0.5, 0.8, 1.2, 2.0];
const THRESHOLD_FACTORS: [f64; 3] = [0.7, 1.0, 1.3];

/// The derived fleet's linear closed loops with the characterisation
/// config of one application at a scaled disturbance and threshold.
fn linear_case(
    app: &ControlApplication,
    scale: f64,
    threshold_factor: f64,
) -> (Matrix, Matrix, CharacterizationConfig) {
    let spec = app.spec();
    let mut initial: Vec<f64> = spec.disturbance.iter().map(|value| value * scale).collect();
    initial.extend(std::iter::repeat(0.0).take(spec.plant.inputs()));
    (
        app.et_controller().closed_loop().clone(),
        app.tt_controller().closed_loop().clone(),
        CharacterizationConfig {
            period: spec.period,
            threshold: spec.threshold * threshold_factor,
            initial_state: initial,
            plant_order: spec.plant.order(),
            horizon: HORIZON,
        },
    )
}

fn rig() -> (SaturatedSwitchedModel, CharacterizationConfig) {
    let app = experiments::servo_rig_application().expect("rig design");
    let model = app.saturated_model().expect("model").expect("the rig has a torque limit");
    let spec = app.spec();
    let config = CharacterizationConfig {
        period: spec.period,
        threshold: spec.threshold,
        initial_state: spec.disturbance.clone(),
        plant_order: spec.plant.order(),
        horizon: 2_000,
    };
    (model, config)
}

#[test]
fn linear_fleet_grid_matches_reference() {
    let apps = case_study::derived_fleet().expect("fleet design");
    assert_eq!(apps.len(), 6);
    // One workspace shared across the whole grid: every curve after the
    // first runs on warm, previously longer or shorter recordings.
    let mut workspace = CharacterizationWorkspace::new();
    let mut curves = 0;
    for app in &apps {
        for scale in DISTURBANCE_SCALES {
            for factor in THRESHOLD_FACTORS {
                let (a1, a2, config) = linear_case(app, scale, factor);
                let reference = characterize_dwell_vs_wait_reference(&a1, &a2, &config);
                let one_shot = characterize_dwell_vs_wait(&a1, &a2, &config);
                let pooled = characterize_dwell_vs_wait_with(&a1, &a2, &config, &mut workspace);
                let case =
                    format!("{} at disturbance ×{scale}, threshold ×{factor}", app.spec().name);
                assert_eq!(one_shot, reference, "one-shot sweep diverges: {case}");
                assert_eq!(pooled, reference, "pooled sweep diverges: {case}");
                let curve = reference.unwrap_or_else(|error| panic!("{case}: {error}"));
                assert!(!curve.points.is_empty(), "{case}");
                curves += 1;
            }
        }
    }
    assert_eq!(curves, 6 * DISTURBANCE_SCALES.len() * THRESHOLD_FACTORS.len());
}

#[test]
fn saturated_rig_matches_reference_across_initial_angles() {
    let (model, base) = rig();
    let mut workspace = CharacterizationWorkspace::new();
    let mut non_monotonic = 0;
    for degrees in [5.0_f64, 15.0, 30.0, 40.0, 45.0] {
        let config = CharacterizationConfig {
            initial_state: vec![degrees.to_radians(), 0.0],
            ..base.clone()
        };
        let reference = model.characterize_reference(&config);
        assert_eq!(model.characterize(&config), reference, "one-shot, {degrees}°");
        assert_eq!(
            model.characterize_with(&config, &mut workspace),
            reference,
            "pooled, {degrees}°"
        );
        let curve = reference.unwrap_or_else(|error| panic!("{degrees}°: {error}"));
        non_monotonic += usize::from(curve.is_non_monotonic());
    }
    // The grid must reach the saturated regime that makes Figure 3 rise.
    assert!(non_monotonic > 0, "no initial angle produced a non-monotonic curve");
}

#[test]
fn state_already_below_threshold_gives_a_single_zero_point() {
    let apps = case_study::derived_fleet().expect("fleet design");
    let (a1, a2, mut config) = linear_case(&apps[2], 1.0, 1.0);
    config.initial_state.iter_mut().for_each(|value| *value *= 1e-3);
    let reference = characterize_dwell_vs_wait_reference(&a1, &a2, &config).expect("settled");
    assert_eq!(characterize_dwell_vs_wait(&a1, &a2, &config).expect("settled"), reference);
    assert_eq!(reference.xi_et, 0.0);
    assert_eq!(reference.points.len(), 1);

    let (model, mut config) = rig();
    config.initial_state = vec![1e-3, 0.0];
    let reference = model.characterize_reference(&config).expect("settled");
    assert_eq!(model.characterize(&config).expect("settled"), reference);
    assert_eq!(reference.xi_et, 0.0);
}

/// The ET settling index of a linear case, from a roomy reference run.
fn xi_et_steps(curve: &DwellWaitCurve) -> usize {
    curve.points.len() - 1
}

#[test]
fn horizon_cap_equal_to_xi_et_matches_reference() {
    // Scalar loops: ET contracts by 0.9, TT by 0.5, so every switched run
    // settles no later than the pure-ET one and a cap of exactly ξᴱᵀ
    // returns a curve whose last wait point sits on the horizon.
    let a1 = Matrix::diagonal(&[0.9]).expect("diagonal");
    let a2 = Matrix::diagonal(&[0.5]).expect("diagonal");
    let roomy = CharacterizationConfig {
        period: 0.02,
        threshold: 0.1,
        initial_state: vec![1.0],
        plant_order: 1,
        horizon: 500,
    };
    let xi_et =
        xi_et_steps(&characterize_dwell_vs_wait_reference(&a1, &a2, &roomy).expect("curve"));
    assert_eq!(xi_et, 22, "0.9²² is the first power below 0.1");
    let tight = CharacterizationConfig { horizon: xi_et, ..roomy.clone() };
    let reference = characterize_dwell_vs_wait_reference(&a1, &a2, &tight).expect("curve");
    assert_eq!(characterize_dwell_vs_wait(&a1, &a2, &tight), Ok(reference.clone()));
    assert_eq!(reference.points.last().expect("points").wait_steps, tight.horizon);
    // One sample shorter: the pure-ET run no longer settles, on both paths.
    let short = CharacterizationConfig { horizon: xi_et - 1, ..roomy };
    let reference = characterize_dwell_vs_wait_reference(&a1, &a2, &short);
    assert!(matches!(
        reference,
        Err(ControlError::HorizonExceeded { what: "pure ET settling", .. })
    ));
    assert_eq!(characterize_dwell_vs_wait(&a1, &a2, &short), reference);

    // The same caps on every fleet application: curve or error, both paths
    // agree (late wait points may outlast a cap of exactly ξᴱᵀ).
    let apps = case_study::derived_fleet().expect("fleet design");
    for app in &apps {
        let (a1, a2, config) = linear_case(app, 1.0, 1.0);
        let xi_et =
            xi_et_steps(&characterize_dwell_vs_wait_reference(&a1, &a2, &config).expect("curve"));
        for horizon in [xi_et, xi_et + 1, xi_et - 1] {
            let capped = CharacterizationConfig { horizon, ..config.clone() };
            assert_eq!(
                characterize_dwell_vs_wait(&a1, &a2, &capped),
                characterize_dwell_vs_wait_reference(&a1, &a2, &capped),
                "{} with horizon {horizon} (ξᴱᵀ = {xi_et})",
                app.spec().name
            );
        }
    }
}

#[test]
fn unstable_pair_reports_the_same_horizon_error() {
    let a1 = Matrix::diagonal(&[1.05]).expect("diagonal");
    let a2 = Matrix::diagonal(&[1.05]).expect("diagonal");
    let config = CharacterizationConfig {
        period: 0.02,
        threshold: 0.1,
        initial_state: vec![1.0],
        plant_order: 1,
        horizon: 50,
    };
    let reference = characterize_dwell_vs_wait_reference(&a1, &a2, &config);
    assert_eq!(
        reference,
        Err(ControlError::HorizonExceeded { what: "pure TT settling", steps: 50 })
    );
    assert_eq!(characterize_dwell_vs_wait(&a1, &a2, &config), reference);
    // Stable TT loop, unstable ET loop: the pure-ET run is the one to fail.
    let stable = Matrix::diagonal(&[0.5]).expect("diagonal");
    let reference = characterize_dwell_vs_wait_reference(&a1, &stable, &config);
    assert_eq!(
        reference,
        Err(ControlError::HorizonExceeded { what: "pure ET settling", steps: 50 })
    );
    assert_eq!(characterize_dwell_vs_wait(&a1, &stable, &config), reference);
}

/// A random `order × order` matrix from `entries` (upper off-diagonals
/// scaled by `skew`, so large skews give strongly non-normal loops),
/// rescaled to spectral radius `radius`.
fn stable_loop(order: usize, entries: &[f64], skew: f64, radius: f64) -> Option<Matrix> {
    let mut data = vec![0.0; order * order];
    for row in 0..order {
        for col in 0..order {
            let scale = if col > row { skew } else { 1.0 };
            data[row * order + col] = scale * entries[row * order + col];
        }
    }
    let raw = Matrix::from_vec(order, order, data).expect("square");
    let rho = spectral_radius(&raw).ok()?;
    (rho > 1e-3).then(|| raw.scale(radius / rho))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_stable_pairs_match_reference(
        order in 1usize..9,
        plant_share in 0.0f64..1.0,
        et_entries in proptest::collection::vec(-1.0f64..1.0, 64),
        tt_entries in proptest::collection::vec(-1.0f64..1.0, 64),
        skews in (1.0f64..8.0, 1.0f64..8.0),
        radii in (0.9f64..0.995, 0.5f64..0.97),
        disturbance in proptest::collection::vec(-1.0f64..1.0, 8),
        threshold_factor in 0.02f64..0.5,
    ) {
        let plant_order = 1 + (plant_share * (order - 1) as f64) as usize;
        let a1 = stable_loop(order, &et_entries, skews.0, radii.0);
        let a2 = stable_loop(order, &tt_entries, skews.1, radii.1);
        prop_assume!(a1.is_some() && a2.is_some());
        let (a1, a2) = (a1.expect("ET loop"), a2.expect("TT loop"));
        // Plant states disturbed, delayed inputs at rest, as in the sweep.
        let mut initial = disturbance[..plant_order].to_vec();
        initial.resize(order, 0.0);
        let plant_norm = initial.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assume!(plant_norm > 1e-3);
        let config = CharacterizationConfig {
            period: 0.01,
            threshold: threshold_factor * plant_norm,
            initial_state: initial,
            plant_order,
            horizon: HORIZON,
        };
        let reference = characterize_dwell_vs_wait_reference(&a1, &a2, &config);
        prop_assert_eq!(characterize_dwell_vs_wait(&a1, &a2, &config), reference.clone());
        // Cold, then warm on the same workspace.
        let mut workspace = CharacterizationWorkspace::new();
        for _ in 0..2 {
            let pooled = characterize_dwell_vs_wait_with(&a1, &a2, &config, &mut workspace);
            prop_assert_eq!(pooled, reference.clone());
        }
    }
}
