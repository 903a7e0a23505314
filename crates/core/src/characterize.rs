//! Dwell/wait characterisation of an application and extraction of its
//! Table-I timing parameters (the pipeline behind Figures 3 and 4).

use crate::application::ControlApplication;
use crate::error::{CoreError, Result};
use cps_control::{
    characterize_dwell_vs_wait_with, CharacterizationConfig, CharacterizationWorkspace,
    DwellWaitCurve,
};
use cps_sched::{AppTimingParams, DwellTimeModel, NonMonotonicModel};

#[cfg(test)]
mod reference;

/// Default simulation horizon *cap* (in samples) for every settling
/// computation: 3000 samples at the 20 ms case-study period cover a 60 s
/// transient, an order of magnitude beyond the slowest ET response in the
/// repository. Since the characterisation pipeline runs on the early-exit
/// kernel machinery, this is only the upper bound at which a loop is
/// declared non-settling — settled runs stop as soon as settling is
/// provable, typically one to two orders of magnitude earlier.
const DEFAULT_HORIZON: usize = 3_000;

/// Characterises the dwell-time / wait-time relation of an application by
/// simulating its switched closed loop (saturated if the application has an
/// actuator limit, linear otherwise) — the reproduction of Figure 3.
///
/// # Errors
///
/// Propagates simulation and configuration failures.
pub fn characterize_application(app: &ControlApplication) -> Result<DwellWaitCurve> {
    characterize_application_with(app, &mut CharacterizationWorkspace::new())
}

/// [`characterize_application`] on a caller-provided
/// [`CharacterizationWorkspace`]: the shape the fleet designer threads
/// through its workers, so the switched-kernel / saturated-sim scratch is
/// pooled per worker instead of rebuilt per application. The curve is
/// bit-identical to the one-shot path for any workspace state.
///
/// # Errors
///
/// As [`characterize_application`].
pub fn characterize_application_with(
    app: &ControlApplication,
    workspace: &mut CharacterizationWorkspace,
) -> Result<DwellWaitCurve> {
    let spec = app.spec();
    if let Some(model) = app.saturated_model()? {
        let config = CharacterizationConfig {
            period: spec.period,
            threshold: spec.threshold,
            initial_state: spec.disturbance.clone(),
            plant_order: spec.plant.order(),
            horizon: DEFAULT_HORIZON,
        };
        return Ok(model.characterize_with(&config, workspace)?);
    }
    // Linear path: simulate the delay-augmented closed loops directly.
    let mut initial = spec.disturbance.clone();
    initial.extend(std::iter::repeat(0.0).take(spec.plant.inputs()));
    let config = CharacterizationConfig {
        period: spec.period,
        threshold: spec.threshold,
        initial_state: initial,
        plant_order: spec.plant.order(),
        horizon: DEFAULT_HORIZON,
    };
    Ok(characterize_dwell_vs_wait_with(
        app.et_controller().closed_loop(),
        app.tt_controller().closed_loop(),
        &config,
        workspace,
    )?)
}

/// Relative width of the tie set of rising-segment slopes (step 1 of
/// [`fit_non_monotonic`]): ~45 ulp, against the 7 roundings that separate a
/// slope from its rounded rising-requirement term.
const SLOPE_TIE_TOLERANCE: f64 = 1e-14;

/// Largest wait-grid spacing ratio max wᵢ/(wᵢ − wᵢ₋₁) for which
/// [`fit_non_monotonic`] prunes by its lower bound; the margin derivation
/// linearises in ε·ρ², which it does not claim beyond this ratio.
const MAX_PRUNING_SPACING_RATIO: f64 = 1e6;

/// Smallest positive and largest time (seconds) [`fit_non_monotonic`]
/// accepts: within this window no product or quotient of two curve values
/// (slopes included) leaves the normal floating-point range, which the
/// tie-set argument needs.
const TIME_WINDOW: (f64, f64) = (1e-100, 1e100);

/// Fits the paper's two-segment non-monotonic model (Figure 4) to a measured
/// dwell/wait curve such that the model upper-bounds every measured point —
/// the safety requirement stated in Section III ("the corresponding modeled
/// dwell time … must be longer than or equal to the actual dwell time").
///
/// Returns `(xi_tt, xi_et, xi_m, k_p)`.
///
/// # Search
///
/// Every sampled wait time is a candidate peak `k_p`, tried in ascending
/// order. For each, the smallest peak ξᴹ and curve end ξᴱᵀ that make the
/// model dominate every measured point follow in closed form, and the
/// candidate with the smallest score — the summed model dwell over the
/// wait grid plus the conservative-envelope intercept ξ′ᴹ — wins under a
/// strict `<`, so ties go to the earliest candidate. That exhaustive scan
/// is O(P²) in the P points of the curve; this fit returns bit for bit what
/// it returns (the scan itself is kept as the test-only oracle
/// `characterize::reference`), but skips the work no winner can need:
///
/// 1. *Rising requirement carried across candidates.* ξᴹ(k_p) is the
///    maximum of `ξ_max` and `ξᵀᵀ + (dᵢ − ξᵀᵀ)·k_p/wᵢ` over the prefix
///    `wᵢ ≤ k_p`. The terms order like the slopes σᵢ = (dᵢ − ξᵀᵀ)/wᵢ, which
///    do not depend on `k_p`, so only the prefix points whose slope lies
///    within relative 1e-14 of the running maximum can attain the rounded
///    maximum; the original expression is evaluated on that tie set only.
/// 2. *Feasibility in O(1)* from a suffix maximum of the positive dwell
///    times (the falling segment cannot pass above a point at ξᴹ).
/// 3. *A lower bound before any O(P) work:* the rising segment's sum in
///    closed form (from the running sum of the waits), plus the measured
///    dwell sum beyond `k_p` (the model dominates each of those points up
///    to rounding), plus ξᴹ (ξ′ᴹ ≥ ξᴹ holds in floats). The bound is
///    shrunk by the margin derived below; a candidate whose shrunk bound
///    is ≥ the best score cannot win.
/// 4. *Survivors run the original expressions in the original order.* The
///    score sum is abandoned once `partial + ξ′ᴹ` is ≥ the best score:
///    adding non-negative floats never lowers a sum, so the final score
///    cannot be lower.
/// 5. *Early stop.* Every score over candidate `j` or later is at least the
///    float sum of `j + 1` copies of ξᵀᵀ plus ξᴹ ≥ `ξ_max`, so the loop
///    ends once that is ≥ the best score.
///
/// # Margin of the lower bound
///
/// With ε = `f64::EPSILON`, P points and the spacing ratio
/// ρ = max wᵢ/(wᵢ − wᵢ₋₁) of the wait grid (ρ ≈ P for the sweep's grid
/// `k·h`), the margin is `(2P + 32)·ε·bound + 8·P·(ρ + 2)²·ε·ξᴹ`:
///
/// * *Rounding of the sums.* The score is a left-to-right float sum of P
///   non-negative terms plus ξ′ᴹ; the bound is a float closed form plus a
///   float suffix sum. Each lies within relative `(P + 8)·ε/2` of its real
///   value, which the first term covers twice over.
/// * *Dominance deficit.* The falling segment dominates a measured point
///   only up to rounding: ξᴱᵀ ≥ fl(Rᵢ), Rᵢ = (wᵢ·ξᴹ − k_p·dᵢ)/(ξᴹ − dᵢ).
///   The numerator cancels by at most wᵢ/(wᵢ − k_p) ≤ ρ, so fl(Rᵢ) is
///   within relative ε·(ρ + 2) of Rᵢ, and the segment's sensitivity to
///   ξᴱᵀ (at most ξᴹ·(ρ + 1)/Rᵢ) turns that, plus the rounding of the
///   model evaluation, into a deficit below 2·ε·(ρ + 2)²·ξᴹ per point. The
///   second term bounds all P points with a factor-4 slack. At the
///   3000-sample horizon cap it is ~5e-5·ξᴹ; the largest deficit measured
///   on 1800 curves of the benchmark's design stream is 2.4e-16·ξᴹ. Beyond
///   ρ = 1e6 the linearisation is not claimed and the bound prunes
///   nothing.
///
/// The fitted model is checked against the measurement before it is
/// returned, in every build: a point the model undercuts by more than 1e-6 s
/// is an error, not a silently unsafe model.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the curve is degenerate (empty or
/// with non-positive pure-mode response times), breaks the input contract
/// the sweep guarantees (waits strictly increasing from ≥ 0; every time
/// finite, non-negative and, when positive, within 1e-100..1e100 s), admits
/// no feasible model, or if the fitted model fails to dominate the
/// measurement.
pub fn fit_non_monotonic(curve: &DwellWaitCurve) -> Result<(f64, f64, f64, f64)> {
    if curve.points.is_empty() || !(curve.xi_tt > 0.0) || !(curve.xi_et > 0.0) {
        return Err(CoreError::InvalidConfig {
            reason: "cannot fit a dwell model to a degenerate characterisation curve".to_string(),
        });
    }
    check_fit_input(curve)?;
    let points = &curve.points;
    let n = points.len();
    let xi_tt = curve.xi_tt;
    let max_dwell = curve.max_dwell().max(xi_tt);
    let period = curve.period;

    // tail[j] = (sum, maximum) of the dwell times of points j.. (0 if none
    // is positive, as no point then constrains the falling segment).
    let mut tail = vec![(0.0, 0.0); n + 1];
    for (j, point) in points.iter().enumerate().rev() {
        let (sum, peak) = tail[j + 1];
        tail[j] = (point.dwell_time + sum, f64::max(peak, point.dwell_time));
    }
    let spacing_ratio = points
        .windows(2)
        .map(|pair| pair[1].wait_time / (pair[1].wait_time - pair[0].wait_time))
        .fold(0.0, f64::max);
    let sum_margin = (2 * n + 32) as f64 * f64::EPSILON;
    let deficit_margin = if spacing_ratio <= MAX_PRUNING_SPACING_RATIO {
        8.0 * n as f64 * (spacing_ratio + 2.0).powi(2) * f64::EPSILON
    } else {
        f64::INFINITY
    };
    // Prefix points that may attain the rising requirement: (index, slope).
    let mut ties: Vec<(usize, f64)> = Vec::new();
    let mut slope_max = 0.0;
    let mut wait_sum = 0.0;
    let mut tt_floor = 0.0;

    let mut best: Option<(f64, f64, f64)> = None; // (xi_m, xi_et, k_p)
    let mut best_score = f64::INFINITY;
    for (j, point) in points.iter().enumerate() {
        wait_sum += point.wait_time;
        tt_floor += xi_tt;
        let candidate = point.wait_time;
        if !(candidate > 0.0) {
            continue;
        }
        if tt_floor + max_dwell >= best_score {
            break;
        }
        if point.dwell_time > xi_tt {
            let slope = (point.dwell_time - xi_tt) / candidate;
            if slope > slope_max {
                slope_max = slope;
                let floor = slope_max * (1.0 - SLOPE_TIE_TOLERANCE);
                ties.retain(|&(_, tied)| tied >= floor);
            }
            if slope >= slope_max * (1.0 - SLOPE_TIE_TOLERANCE) {
                ties.push((j, slope));
            }
        }
        // Rising segment: xi_tt + (xi_m − xi_tt)·w/k_p ≥ d(w) for w ≤ k_p.
        let mut xi_m_required = max_dwell;
        for &(i, _) in &ties {
            let point = &points[i];
            xi_m_required = xi_m_required
                .max(xi_tt + (point.dwell_time - xi_tt) * candidate / point.wait_time);
        }
        // Falling segment: infeasible once a later point reaches the peak.
        let (tail_dwell, tail_peak) = tail[j + 1];
        if tail_peak > 0.0 && tail_peak + 1e-12 >= xi_m_required {
            continue;
        }
        let rising = (j + 1) as f64 * xi_tt + (xi_m_required - xi_tt) * wait_sum / candidate;
        let bound = rising + tail_dwell + xi_m_required;
        if bound - (sum_margin * bound + deficit_margin * xi_m_required) >= best_score {
            continue;
        }
        // Falling segment: xi_m·(xi_et − w)/(xi_et − k_p) ≥ d(w) for w > k_p,
        // solved for the smallest admissible xi_et. The measurement can show
        // a small residual dwell beyond the measured ξᴱᵀ (the TT controller
        // taking over a barely-settled state briefly re-crosses the
        // threshold), so ξᴱᵀ may be stretched — a purely conservative
        // adjustment.
        let mut xi_et_required = curve.xi_et.max(candidate + period);
        for point in points[j + 1..].iter().filter(|p| p.dwell_time > 0.0) {
            let required = (point.wait_time * xi_m_required - candidate * point.dwell_time)
                / (xi_m_required - point.dwell_time);
            xi_et_required = xi_et_required.max(required);
        }
        let Ok(model) = NonMonotonicModel::new(xi_tt, xi_m_required, candidate, xi_et_required)
        else {
            continue;
        };
        // Tightness score: the total modelled dwell over the measured grid
        // plus the conservative-envelope intercept, so that neither the
        // non-monotonic model nor its monotonic envelope blow up.
        let envelope_intercept = model.conservative_envelope().max_dwell();
        // The check after the last term is the reference's `score < best`.
        let mut partial = 0.0;
        let mut beaten = false;
        for point in points {
            partial += model.dwell(point.wait_time);
            if !(partial + envelope_intercept < best_score) {
                beaten = true;
                break;
            }
        }
        if !beaten {
            best_score = partial + envelope_intercept;
            best = Some((xi_m_required, xi_et_required, candidate));
        }
    }

    let (xi_m, xi_et, k_p) = best.ok_or_else(|| CoreError::InvalidConfig {
        reason: "no feasible two-segment dwell model for the measured curve".to_string(),
    })?;
    // The fitted model must dominate the measurement (the search's lower
    // bound assumes it up to rounding), so check it in every build.
    let model = NonMonotonicModel::new(xi_tt, xi_m, k_p, xi_et).map_err(CoreError::Sched)?;
    if let Some(point) =
        curve.points.iter().find(|p| !(model.dwell(p.wait_time) + 1e-6 >= p.dwell_time))
    {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "fitted dwell model undercuts the measured dwell {} s at wait {} s",
                point.dwell_time, point.wait_time
            ),
        });
    }
    Ok((xi_tt, xi_et, xi_m, k_p))
}

/// The input contract of [`fit_non_monotonic`], which the dwell/wait sweep
/// always meets (wait = k·h): waits strictly increasing from a non-negative
/// first wait, every time finite and non-negative, and positive times
/// inside [`TIME_WINDOW`].
fn check_fit_input(curve: &DwellWaitCurve) -> Result<()> {
    let (smallest, largest) = TIME_WINDOW;
    let in_window = |t: f64| t == 0.0 || (t >= smallest && t <= largest);
    let times_ok = [curve.xi_tt, curve.xi_et, curve.period]
        .into_iter()
        .chain(curve.points.iter().flat_map(|p| [p.wait_time, p.dwell_time]))
        .all(in_window);
    let increasing = curve.points.windows(2).all(|pair| pair[1].wait_time > pair[0].wait_time);
    if times_ok && increasing {
        Ok(())
    } else {
        Err(CoreError::InvalidConfig {
            reason: "a dwell/wait curve must have strictly increasing waits and finite, \
                     non-negative times within 1e-100..1e100 s"
                .to_string(),
        })
    }
}

/// Characterises an application and assembles its Table-I row.
///
/// # Errors
///
/// Propagates characterisation and fitting failures.
pub fn derive_timing_params(app: &ControlApplication) -> Result<AppTimingParams> {
    derive_timing_params_with(app, &mut CharacterizationWorkspace::new())
}

/// [`derive_timing_params`] on a caller-provided
/// [`CharacterizationWorkspace`] (see [`characterize_application_with`]).
///
/// # Errors
///
/// As [`derive_timing_params`].
pub fn derive_timing_params_with(
    app: &ControlApplication,
    workspace: &mut CharacterizationWorkspace,
) -> Result<AppTimingParams> {
    let curve = characterize_application_with(app, workspace)?;
    let (xi_tt, xi_et, xi_m, k_p) = fit_non_monotonic(&curve)?;
    let spec = app.spec();
    Ok(AppTimingParams::new(
        spec.name.clone(),
        spec.inter_arrival,
        spec.deadline,
        xi_tt,
        xi_et,
        xi_m,
        k_p,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::{ApplicationSpec, ControlApplication, ControllerSpec};
    use cps_control::{plants, DwellWaitPoint};
    use cps_sched::DwellTimeModel;

    fn rig_app() -> ControlApplication {
        ControlApplication::design(ApplicationSpec {
            name: "servo".to_string(),
            plant: plants::servo_rig_upright(),
            period: 0.02,
            et_delay: 0.02,
            tt_delay: 0.0007,
            threshold: 0.1,
            disturbance: vec![45.0_f64.to_radians(), 0.0],
            deadline: 4.0,
            inter_arrival: 10.0,
            controllers: ControllerSpec::PolePlacement {
                et_poles: vec![-0.7, -0.8, -40.0],
                tt_poles: vec![-6.0, -8.0, -40.0],
            },
            input_limit: Some(plants::SERVO_RIG_TORQUE_LIMIT),
        })
        .unwrap()
    }

    #[test]
    fn rig_characterisation_matches_figure3_shape() {
        let curve = characterize_application(&rig_app()).unwrap();
        assert!(curve.is_non_monotonic());
        assert!(curve.max_dwell() > curve.xi_tt);
        assert!(curve.xi_et > 2.0 * curve.xi_tt);
    }

    #[test]
    fn fitted_model_dominates_measurement() {
        let curve = characterize_application(&rig_app()).unwrap();
        let (xi_tt, xi_et, xi_m, k_p) = fit_non_monotonic(&curve).unwrap();
        let model = NonMonotonicModel::new(xi_tt, xi_m, k_p, xi_et).unwrap();
        for point in &curve.points {
            assert!(
                model.dwell(point.wait_time) + 1e-6 >= point.dwell_time,
                "model must dominate the measurement at wait {}",
                point.wait_time
            );
        }
        assert!(k_p > 0.0);
        assert!(xi_m >= curve.max_dwell());
    }

    #[test]
    fn derived_timing_params_are_consistent() {
        let params = derive_timing_params(&rig_app()).unwrap();
        assert_eq!(params.name, "servo");
        assert!(params.xi_tt <= params.xi_m);
        assert!(params.xi_tt <= params.xi_et);
        assert!(params.k_p < params.xi_et);
        assert!(params.xi_prime_m >= params.xi_m);
    }

    #[test]
    fn fit_rejects_degenerate_curve() {
        let curve = DwellWaitCurve { points: vec![], xi_tt: 0.0, xi_et: 0.0, period: 0.02 };
        assert!(fit_non_monotonic(&curve).is_err());
    }

    fn point(wait_time: f64, dwell_time: f64) -> DwellWaitPoint {
        DwellWaitPoint { wait_time, wait_steps: 0, dwell_time, dwell_steps: 0, norm_at_switch: 0.0 }
    }

    #[test]
    fn fit_rejects_curves_outside_the_sweep_contract() {
        let valid = [point(0.0, 0.2), point(0.02, 0.3), point(0.04, 0.1)];
        let fit = |points: &[DwellWaitPoint]| {
            fit_non_monotonic(&DwellWaitCurve {
                points: points.to_vec(),
                xi_tt: 0.2,
                xi_et: 0.06,
                period: 0.02,
            })
        };
        assert!(fit(&valid).is_ok());
        let mut repeated = valid;
        repeated[2].wait_time = 0.02;
        let mut descending = valid;
        descending.swap(1, 2);
        let mut negative = valid;
        negative[0].wait_time = -0.02;
        let mut not_finite = valid;
        not_finite[2].dwell_time = f64::NAN;
        let mut tiny = valid;
        tiny[1].dwell_time = 1e-200;
        for points in [repeated, descending, negative, not_finite, tiny] {
            assert!(
                matches!(fit(&points), Err(CoreError::InvalidConfig { .. })),
                "{points:?} must be rejected"
            );
        }
    }

    #[test]
    fn fit_reports_a_model_that_undercuts_the_measurement() {
        // The model is ξᵀᵀ after no wait, so a larger dwell there cannot be
        // dominated (the sweep never measures one); that is an error in
        // every build, not a debug-only assertion.
        let curve = DwellWaitCurve {
            points: vec![point(0.0, 0.5), point(0.02, 0.3), point(0.04, 0.0)],
            xi_tt: 0.2,
            xi_et: 0.04,
            period: 0.02,
        };
        let error = fit_non_monotonic(&curve).unwrap_err();
        assert!(error.to_string().contains("undercuts"), "{error}");
    }
}
