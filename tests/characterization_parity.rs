//! Parity of the one-pass dwell/wait sweep with the full-horizon reference
//! characterisations.
//!
//! The sweep resumes every wait point from the recorded pure-ET state and
//! stops each run on the plant-row tail bound; both shortcuts must leave
//! every curve bit-identical to `characterize_dwell_vs_wait_reference` (the
//! linear loops) and `SaturatedSwitchedModel::characterize_reference` (the
//! torque-limited rig). `DwellWaitCurve`'s `PartialEq` compares every
//! point's floats exactly, so `assert_eq!` on curves is a bit-level check
//! for every value that is not NaN (none are).
//!
//! Covered: the six derived-fleet applications over a grid of disturbance
//! scales and threshold factors, on one-shot and on shared warm workspaces;
//! the saturated rig at several initial angles; and the edge cases an
//! off-by-one in the resume would break — a state already below the
//! threshold (ξᴱᵀ = 0), a horizon cap equal to ξᴱᵀ, a cap one sample
//! shorter, and an unstable pair that never settles.

use automotive_cps::control::{
    characterize_dwell_vs_wait, characterize_dwell_vs_wait_reference,
    characterize_dwell_vs_wait_with, CharacterizationConfig, CharacterizationWorkspace,
    ControlError, DwellWaitCurve, SaturatedSwitchedModel,
};
use automotive_cps::core::{case_study, experiments, ControlApplication};
use automotive_cps::linalg::Matrix;

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
