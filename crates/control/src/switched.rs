//! Switched-system analysis: the dwell-time / wait-time relation of
//! Section III.
//!
//! The closed loop evolves with the event-triggered dynamics `A₁` for
//! `k_wait` samples and then switches (once, non-preemptively) to the
//! time-triggered dynamics `A₂`:
//!
//! ```text
//! x₁[k]          = A₁ᵏ·x₀                      (before the switch)
//! x₂[k_wait, k]  = A₂ᵏ·A₁^{k_wait}·x₀          (after the switch)
//! ```
//!
//! The dwell time `k_dw(k_wait)` is how long the application then needs on
//! the TT slot until the plant-state norm is back at or below `E_th`. The
//! paper's central observation is that this map is *not* monotone in
//! `k_wait`.
//!
//! Every post-switch trajectory starts from a state of the pure-ET run,
//! `A₁^{k_wait}·x₀`, so the characterisation sweep simulates that run once,
//! records its states, and resumes each wait point from its switching
//! instant instead of re-simulating the ET prefix from `x₀`.

use crate::delayed::{plant_state_norm, DelayedLtiSystem};
use crate::error::{ControlError, Result};
use crate::response::{norm_trajectory, settling_index};
use cps_linalg::{vec_norm, Matrix};

/// One point of the dwell-time/wait-time characteristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DwellWaitPoint {
    /// Wait time spent on ET communication before the switch, in seconds.
    pub wait_time: f64,
    /// Wait time in samples.
    pub wait_steps: usize,
    /// Dwell time needed on the TT slot after the switch, in seconds.
    pub dwell_time: f64,
    /// Dwell time in samples.
    pub dwell_steps: usize,
    /// Plant-state norm at the moment of the switch.
    pub norm_at_switch: f64,
}

/// The full characterisation of one application's switching behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct DwellWaitCurve {
    /// Sampled relation, one entry per wait time `0, h, 2h, …`.
    pub points: Vec<DwellWaitPoint>,
    /// Response (settling) time with pure TT communication, ξᵀᵀ, in seconds.
    pub xi_tt: f64,
    /// Response (settling) time with pure ET communication, ξᴱᵀ, in seconds.
    pub xi_et: f64,
    /// Sampling period used for the characterisation.
    pub period: f64,
}

impl DwellWaitCurve {
    /// Maximum dwell time over the whole curve, ξᴹ, in seconds.
    pub fn max_dwell(&self) -> f64 {
        self.points.iter().map(|p| p.dwell_time).fold(0.0, f64::max)
    }

    /// Wait time at which the maximum dwell time occurs, k_p, in seconds.
    pub fn peak_wait(&self) -> f64 {
        self.points
            .iter()
            .max_by(|a, b| a.dwell_time.partial_cmp(&b.dwell_time).expect("finite dwell times"))
            .map(|p| p.wait_time)
            .unwrap_or(0.0)
    }

    /// Returns `true` if the curve is non-monotonic, i.e. the dwell time
    /// strictly increases somewhere before decreasing — the phenomenon the
    /// paper exploits.
    pub fn is_non_monotonic(&self) -> bool {
        let dwell: Vec<f64> = self.points.iter().map(|p| p.dwell_time).collect();
        let rises = dwell.windows(2).any(|w| w[1] > w[0] + 1e-12);
        let falls = dwell.windows(2).any(|w| w[1] < w[0] - 1e-12);
        rises && falls
    }

    /// Total response time ξ(k_wait) = k_wait + k_dw(k_wait) for each sampled
    /// wait time, in seconds.
    pub fn total_response_times(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.wait_time + p.dwell_time).collect()
    }
}

/// Simulates the switched trajectory: `k_switch` samples under `a1`, then the
/// remainder under `a2`; returns the plant-state norms of the whole horizon
/// (length `horizon + 1`, including the initial state).
///
/// # Errors
///
/// * [`ControlError::InvalidModel`] if the matrices have different shapes or
///   the initial state does not match.
pub fn switched_norm_trajectory(
    a1: &Matrix,
    a2: &Matrix,
    initial_state: &[f64],
    plant_order: usize,
    k_switch: usize,
    horizon: usize,
) -> Result<Vec<f64>> {
    if a1.shape() != a2.shape() || !a1.is_square() {
        return Err(ControlError::InvalidModel {
            reason: format!(
                "switched dynamics must share a square shape, got {:?} and {:?}",
                a1.shape(),
                a2.shape()
            ),
        });
    }
    if initial_state.len() != a1.cols() {
        return Err(ControlError::InvalidModel {
            reason: format!(
                "initial state has length {} but the system has {} states",
                initial_state.len(),
                a1.cols()
            ),
        });
    }
    let k_switch = k_switch.min(horizon);
    let mut norms = Vec::with_capacity(horizon + 1);
    let mut state = initial_state.to_vec();
    norms.push(crate::delayed::plant_state_norm(&state, plant_order));
    for k in 0..horizon {
        let dynamics = if k < k_switch { a1 } else { a2 };
        state = dynamics.matvec(&state)?;
        norms.push(crate::delayed::plant_state_norm(&state, plant_order));
    }
    Ok(norms)
}

/// Computes the dwell time (in samples) for a single wait time: the number of
/// additional samples after the switch until the plant-state norm stays at or
/// below `threshold`.
///
/// If the state has already settled during the ET phase and never re-crosses
/// the threshold afterwards, the dwell time is zero (the application never
/// actually needs the slot).
///
/// # Errors
///
/// * Propagates simulation errors.
/// * [`ControlError::HorizonExceeded`] if the switched system does not settle
///   within `horizon` samples.
pub fn dwell_steps(
    a1: &Matrix,
    a2: &Matrix,
    initial_state: &[f64],
    plant_order: usize,
    threshold: f64,
    wait_steps: usize,
    horizon: usize,
) -> Result<usize> {
    if !(threshold > 0.0) {
        return Err(ControlError::InvalidModel {
            reason: format!("threshold must be positive, got {threshold}"),
        });
    }
    let norms =
        switched_norm_trajectory(a1, a2, initial_state, plant_order, wait_steps, horizon)?;
    let settle = settling_index(&norms, threshold)
        .ok_or(ControlError::HorizonExceeded { what: "switched settling", steps: horizon })?;
    Ok(settle.saturating_sub(wait_steps))
}

/// Safety factor applied to the analytical early-exit bounds: stopping is
/// only allowed when the guaranteed tail norm is clearly below the
/// threshold, so floating-point rounding in the simulated trajectory cannot
/// disagree with the proof.
const EARLY_EXIT_SAFETY: f64 = 0.999;

/// Maximum number of matrix powers examined by the tail-bound power
/// iteration before giving up (the bounds then degrade to `∞` and early exit
/// is disabled — results stay exact, only the shortcut is lost).
const POWER_BOUND_MAX_POWERS: usize = 50_000;

/// Upper bound on `sup_{j ≥ 1} ‖Aʲ‖₂` via Frobenius norms of successive
/// powers: powers are multiplied out until one has Frobenius norm below 1;
/// by submultiplicativity every later power is then dominated by an earlier
/// one, so the running maximum is a true supremum bound. Returns `∞` if no
/// contracting power is found within the iteration budget (e.g. an unstable
/// or marginally stable matrix).
///
/// # Errors
///
/// Returns [`ControlError::InvalidModel`] if `a` is not square.
pub fn power_norm_bound(a: &Matrix) -> Result<f64> {
    Ok(tail_bounds(a, a.rows())?.full)
}

/// Both early-exit bounds of one closed-loop matrix `A`, from a single power
/// iteration that stops at the first power `J` with `‖Aᴶ‖_F < 1`.
#[derive(Debug, Clone, Copy)]
struct TailBounds {
    /// `max(1, max_{1≤i≤J} ‖Aⁱ‖_F)` — the [`power_norm_bound`]: every
    /// future augmented state, the current one included, has norm at most
    /// `full·‖z‖`.
    full: f64,
    /// `max_{1≤i≤J} ‖C·Aⁱ‖_F`, where `C` selects the plant rows: every
    /// *later* plant state has norm at most `plant·‖z‖`, because
    /// `C·A^{i+mJ} = C·Aⁱ·(Aᴶ)ᵐ` and `‖Aᴶ‖_F < 1`. Never larger than `full`,
    /// since it leaves out the delayed-input rows.
    plant: f64,
}

/// The bounds of a matrix with no contracting power: early exit disabled.
const UNBOUNDED: TailBounds = TailBounds { full: f64::INFINITY, plant: f64::INFINITY };

/// [`TailBounds`] of `a` (square) with the plant occupying its first
/// `plant_order` rows, on freshly allocated power-iteration scratch.
fn tail_bounds(a: &Matrix, plant_order: usize) -> Result<TailBounds> {
    if !a.is_square() {
        return Err(ControlError::InvalidModel {
            reason: format!("power norm bound needs a square matrix, got {:?}", a.shape()),
        });
    }
    tail_bounds_into(a, plant_order, &mut PowerScratch::new(a.rows()))
}

/// The buffer-reusing core of [`tail_bounds`] for a square `a`. Orders 1–6
/// run the power iteration on stack arrays; larger ones on the `scratch`
/// matrix pair, which the characterisation workspace pools per order.
fn tail_bounds_into(
    a: &Matrix,
    plant_order: usize,
    scratch: &mut PowerScratch,
) -> Result<TailBounds> {
    // ρ(A) ≥ 1 means no power ever contracts — skip the power iteration
    // entirely instead of grinding to the cap.
    if let Ok(rho) = cps_linalg::spectral_radius(a) {
        if rho >= 1.0 {
            return Ok(UNBOUNDED);
        }
    }
    // Row-major storage: the plant rows are the leading block.
    let plant_len = plant_order.min(a.rows()) * a.cols();
    Ok(match a.rows() {
        1 => stack_power_iteration::<1>(a, plant_len),
        2 => stack_power_iteration::<2>(a, plant_len),
        3 => stack_power_iteration::<3>(a, plant_len),
        4 => stack_power_iteration::<4>(a, plant_len),
        5 => stack_power_iteration::<5>(a, plant_len),
        6 => stack_power_iteration::<6>(a, plant_len),
        _ => {
            let PowerScratch { power, next } = scratch;
            power.copy_from(a)?;
            power_iteration(a, plant_len, power, next)
        }
    })
}

/// [`power_iteration`] of the `N × N` matrix `a` on stack arrays.
fn stack_power_iteration<const N: usize>(a: &Matrix, plant_len: usize) -> TailBounds {
    let mut power = StackSquare::<N>([0.0; STACK_SQUARE_LEN]);
    power.0[..N * N].copy_from_slice(a.as_slice());
    power_iteration(a, plant_len, &mut power, &mut StackSquare([0.0; STACK_SQUARE_LEN]))
}

/// Square storage of the tail-bound power iteration: [`StackSquare`] for
/// orders 1–6, a [`Matrix`] above. Both multiply in
/// [`Matrix::matmul_kernel`]'s order, so the bounds do not depend on it.
trait PowerStore {
    /// The row-major entries.
    fn entries(&self) -> &[f64];
    /// Writes `self·a` into `out`.
    fn times(&self, a: &Matrix, out: &mut Self);
}

/// Room for the entries of the largest stack-stored square, 6 × 6.
const STACK_SQUARE_LEN: usize = 36;

/// An `N × N` row-major matrix in the leading `N²` entries of a stack array.
struct StackSquare<const N: usize>([f64; STACK_SQUARE_LEN]);

impl<const N: usize> PowerStore for StackSquare<N> {
    fn entries(&self) -> &[f64] {
        &self.0[..N * N]
    }

    #[inline]
    fn times(&self, a: &Matrix, out: &mut Self) {
        // Compile-time lengths for the kernel, as in `StateStore::step`.
        let (lhs, rhs) = (&self.0[..N * N], &a.as_slice()[..N * N]);
        cps_linalg::matmul_kernel_n::<N>(lhs, rhs, &mut out.0[..N * N]);
    }
}

impl PowerStore for Matrix {
    fn entries(&self) -> &[f64] {
        self.as_slice()
    }

    fn times(&self, a: &Matrix, out: &mut Self) {
        self.matmul_kernel(a, out);
    }
}

/// The power iteration behind [`TailBounds`]: `power` holds `a` on entry,
/// `next` is scratch of the same order. Multiplies out powers until one
/// has Frobenius norm below 1, tracking the running maxima of the full and
/// plant-row (the first `plant_len` entries) norms.
fn power_iteration<'s, P: PowerStore>(
    a: &Matrix,
    plant_len: usize,
    mut power: &'s mut P,
    mut next: &'s mut P,
) -> TailBounds {
    let mut bounds = TailBounds { full: 1.0, plant: 0.0 };
    for _ in 0..POWER_BOUND_MAX_POWERS {
        let entries = power.entries();
        // The Frobenius norm, summed as `Matrix::frobenius_norm` sums it.
        let norm = vec_norm(entries);
        if !norm.is_finite() {
            return UNBOUNDED;
        }
        bounds.full = bounds.full.max(norm);
        bounds.plant = bounds.plant.max(vec_norm(&entries[..plant_len]));
        if norm < 1.0 {
            return bounds;
        }
        power.times(a, next);
        std::mem::swap(&mut power, &mut next);
    }
    UNBOUNDED
}

/// Decrease margin δ of the first certificate check, `P − AᵀPA ⪰ δ·I`
/// (the exact Lyapunov solution has `P − AᵀPA = I`).
const ELLIPSOID_DECREASE: f64 = 0.5;

/// Largest relative rounding error `ω` of the exit test's quadratic form
/// (see [`certify_ellipsoid`]) for which a certificate is issued.
const ELLIPSOID_FORM_BUDGET: f64 = 1e-3;

/// Relative inflations `τ` of `μ` over the computed `λ_max`, tried in
/// order until the second certificate check passes.
const ELLIPSOID_INFLATIONS: [f64; 3] = [1e-9, 1e-6, 1e-3];

/// The early-exit data of one closed-loop mode of the linear sweep.
#[derive(Debug, Clone, Copy)]
struct ExitBounds {
    /// `max_{1≤i≤J} ‖C·Aⁱ‖_F` plant-row tail bound ([`TailBounds::plant`]).
    plant: f64,
    /// The level factor `μ` of the verified invariant ellipsoid of
    /// [`certify_ellipsoid`], whose `P` is stored next to these bounds;
    /// `None` if the mode has no certificate.
    mu: Option<f64>,
}

impl ExitBounds {
    /// Whether every plant norm after the state `z` is provably at or below
    /// `threshold` while the mode stays fixed. `p` is the mode's certified
    /// `P`. The quadratic form is only evaluated where the tail bound fails.
    fn settled(&self, p: &[f64], z: &[f64], threshold: f64) -> bool {
        let level = threshold * EARLY_EXIT_SAFETY;
        // Every later plant norm is ≤ plant·‖z‖ …
        vec_norm(z) * self.plant <= level
            // … or z lies in the verified invariant ellipsoid.
            || self.mu.is_some_and(|mu| mu * quadratic_form(p, z) <= level * level)
    }
}

/// `zᵀ·P·z` for the row-major `P`, summed row by row. On a `[f64; N]`
/// state the `n·n` re-slice has a compile-time length, so the loops unroll.
fn quadratic_form(p: &[f64], z: &[f64]) -> f64 {
    p[..z.len() * z.len()]
        .chunks_exact(z.len())
        .zip(z)
        .map(|(row, zi)| zi * row.iter().zip(z).map(|(pij, zj)| pij * zj).sum::<f64>())
        .sum()
}

/// [`ExitBounds`] of one closed loop `a` of the linear sweep, on caller
/// scratch: the plant-row tail bound, and the invariant-ellipsoid
/// certificate, whose `P` is written into `p`. A loop without a contracting
/// power (`ρ(A) ≥ 1`) gets neither.
fn exit_bounds_into(
    a: &Matrix,
    plant_order: usize,
    scratch: &mut PowerScratch,
    p: &mut Matrix,
    factor: &mut [f64],
) -> Result<ExitBounds> {
    let plant = tail_bounds_into(a, plant_order, scratch)?.plant;
    let mu = if plant.is_finite() {
        certify_ellipsoid(a, plant_order, p, &mut scratch.next, factor)
    } else {
        None
    };
    Ok(ExitBounds { plant, mu })
}

/// Invariant-ellipsoid certificate of the closed loop `A` (`n × n`, plant =
/// its first `plant_order` states, `C` the matrix selecting them): solves
/// `AᵀPA − P + I = 0` into `p` and returns `μ` if the stored `P` passes the
/// two checks below. Then a simulated state `z` with
/// `μ·fl(zᵀPz) ≤ (0.999·E_th)²` has, as the simulation computes them, every
/// plant norm from `z` on at or below `E_th` while the loop stays on `A`.
/// `None` (a failed check or guard, or a singular Lyapunov system) leaves
/// the mode on its tail bound alone. `pa` and `factor` are `n × n` scratch.
///
/// # Soundness
///
/// It comes from checks on the computed `P`, read as an exact real matrix,
/// not from the solver's accuracy. Let `ε` be the machine epsilon, `u = ε/2`
/// the unit roundoff, `γₖ = k·u/(1 − k·u)`, `m = ‖A‖_F` and `π = ‖P‖_F`.
/// Two rounding guards must hold:
///
/// * `η = 2(n+1)·ε·(m² + 1)·π ≤ δ/2`, with `δ = ½` the decrease margin;
/// * `ω = 2(n+1)·ε·π ≤ 10⁻³`.
///
/// Both checks factor a formed matrix minus a shift `s·I` with
/// [`cholesky_in_place`]. Success proves that the exact matrix is
/// `⪰ (s − e)·I`, where `e` bounds the forming error plus the
/// factorisation's backward error `γₙ₊₁/(1 − γₙ₊₁)·t ≤ (n+1)·u·t`, with `t`
/// the trace of the formed matrix. The shifts take each term at least
/// twice over, which also covers the rounding of the shifts themselves.
///
/// 1. *Decrease*: `P − AᵀPA ⪰ δ·I`. Forming `fl(P − Aᵀ·fl(P·A))` errs by at
///    most `γ₂ₙ₊₂·(1 + m²)·π ≤ η/1.98` in the 2-norm. The shift is
///    `δ + η + 4(n+1)·ε·t`.
/// 2. *Level*: `μ·P − CᵀC ⪰ 0`. Here `μ = λ̂·(1 + τ)`. `λ̂` is the computed
///    `λ_max` of the plant block of `P⁻¹`, the exact maximum of
///    `‖Cz‖²/zᵀPz`. `τ` is the first of [`ELLIPSOID_INFLATIONS`] for which
///    the check passes. Forming `fl(μ·P) − CᵀC` errs by at most
///    `ε·(μ·π + n)`. The shift is twice that plus `4(n+1)·ε·t`.
///
/// Check 2 gives `μP ⪰ CᵀC ⪰ 0`, so `P ⪰ 0`. With check 1 that gives
/// `P ⪰ δ·I` and `ρ(A) < 1` (Lyapunov). An unstable loop fails check 2,
/// since its Stein solution is indefinite. Along the simulated trajectory
/// `z̃ₖ₊₁ = A·z̃ₖ + eₖ`, where `|eₖ| ≤ γₙ·|A|·|z̃ₖ|`:
///
/// * `V(z) = zᵀPz` never grows. We have
///   `V(z̃ₖ₊₁) ≤ V(z̃ₖ) − δ‖z̃ₖ‖² + 3γₙ·m²·π·‖z̃ₖ‖²` and `3γₙ·m²·π ≤ η < δ`.
///   So the decrease margin absorbs the rounding of the simulated matvec.
/// * The computed form, `Σᵢ zᵢ·(Σⱼ Pᵢⱼ·zⱼ)`, misreads `V` by at most
///   `γ₂ₙ·|z̃|ᵀ|P||z̃| ≤ γ₂ₙ·π·‖z̃‖² ≤ 2γ₂ₙ·π·V ≤ ω·V`, using `P ⪰ ½·I`.
/// * So once the exit test passes at sample `k`, every sample `j ≥ k` has
///   `‖Cz̃ⱼ‖² ≤ μ·V(z̃ⱼ) ≤ μ·V(z̃ₖ) ≤ (0.999·E_th)²·(1 + 4u)/(1 − ω)`.
///   The computed plant norm exceeds the exact one by a factor of at most
///   `1 + (n+1)·u`. So it is at most `0.9995·E_th < E_th`.
///
/// `τ` does not enter this argument, because check 2 verifies whichever `μ`
/// is used. It only lets the check pass. Exactly,
/// `μP − CᵀC ⪰ (μ − λ_max)·λ_min(P)·I`, and that margin must beat the
/// rounding shift and `λ̂`'s error. A larger `τ` shrinks the level by the
/// factor `1 + τ`. Results in the subnormal range (states near 10⁻³⁰⁰) add
/// absolute errors far below the 0.1% margin at any threshold a curve uses.
fn certify_ellipsoid(
    a: &Matrix,
    plant_order: usize,
    p: &mut Matrix,
    pa: &mut Matrix,
    factor: &mut [f64],
) -> Option<f64> {
    let n = a.rows();
    let solved = cps_linalg::solve_discrete_lyapunov(a, &Matrix::identity(n)).ok()?;
    p.copy_from(&solved).ok()?;
    verify_ellipsoid(a, plant_order, p, pa, factor)
}

/// The two checks of [`certify_ellipsoid`] on a given `p`: the level factor
/// `μ` if `p` certifies an invariant ellipsoid of `a`.
fn verify_ellipsoid(
    a: &Matrix,
    plant_order: usize,
    p: &Matrix,
    pa: &mut Matrix,
    factor: &mut [f64],
) -> Option<f64> {
    let n = a.rows();
    let eps = f64::EPSILON;
    let width = (n + 1) as f64;
    let (a_norm, p_norm) = (a.frobenius_norm(), p.frobenius_norm());
    let rounding = 2.0 * width * eps * (a_norm * a_norm + 1.0) * p_norm;
    let form_error = 2.0 * width * eps * p_norm;
    if !(rounding <= ELLIPSOID_DECREASE / 2.0 && form_error <= ELLIPSOID_FORM_BUDGET) {
        return None;
    }
    // Check 1: P − AᵀPA ⪰ δ·I.
    p.matmul_into(a, pa).ok()?;
    let (p_data, a_data, pa_data) = (p.as_slice(), a.as_slice(), pa.as_slice());
    for i in 0..n {
        for j in 0..n {
            let mut entry = p_data[i * n + j];
            for k in 0..n {
                entry -= a_data[k * n + i] * pa_data[k * n + j];
            }
            factor[i * n + j] = entry;
        }
    }
    let trace: f64 = (0..n).map(|i| factor[i * n + i]).sum();
    let shift = ELLIPSOID_DECREASE + rounding + 4.0 * width * eps * trace;
    if !shifted_cholesky(factor, n, shift) {
        return None;
    }
    // Check 2: μ·P − CᵀC ⪰ 0.
    let plant_block = cps_linalg::inverse(p).ok()?.block(0, 0, plant_order, plant_order).ok()?;
    let lambda = cps_linalg::spectral_radius(&plant_block).ok()?;
    ELLIPSOID_INFLATIONS
        .into_iter()
        .map(|tau| lambda * (1.0 + tau))
        .find(|&mu| level_check(p, plant_order, mu, factor))
}

/// Check 2 of [`certify_ellipsoid`]: whether `μ·P − CᵀC ⪰ 0` provably
/// holds, on the flat `n × n` scratch `factor`.
fn level_check(p: &Matrix, plant_order: usize, mu: f64, factor: &mut [f64]) -> bool {
    let n = p.rows();
    for (index, (slot, value)) in factor.iter_mut().zip(p.as_slice()).enumerate() {
        let plant_diagonal = index % (n + 1) == 0 && index / n < plant_order;
        *slot = mu * value - if plant_diagonal { 1.0 } else { 0.0 };
    }
    let eps = f64::EPSILON;
    let trace: f64 = (0..n).map(|i| factor[i * n + i]).sum();
    let shift =
        2.0 * eps * (mu * p.frobenius_norm() + n as f64) + 4.0 * (n + 1) as f64 * eps * trace;
    shifted_cholesky(factor, n, shift)
}

/// [`cholesky_in_place`] of the flat `n × n` matrix `a − shift·I`.
fn shifted_cholesky(a: &mut [f64], n: usize, shift: f64) -> bool {
    for i in 0..n {
        a[i * n + i] -= shift;
    }
    cps_linalg::cholesky_in_place(a, n)
}

/// The state machinery a [`settle_driver`] run drives: one switched
/// simulation (linear or saturated) exposing its current plant norm, its
/// provable-settling test, one step of its dynamics and a snapshot of its
/// state, so a run can resume from a recorded sample.
trait SettleSim {
    /// Plant-state norm of the current sample.
    fn plant_norm(&self) -> f64;
    /// Whether every *later* plant norm is provably at or below
    /// `threshold`, given that the mode is fixed to ET (`true`) / TT
    /// (`false`) for the rest of the run.
    fn provably_settled(&self, et_mode: bool, threshold: f64) -> bool;
    /// Advances one sampling period (`et_phase` selects the pre-switch
    /// dynamics).
    fn advance(&mut self, et_phase: bool);
    /// Loads the initial condition of a run from its configured initial
    /// state.
    ///
    /// # Errors
    ///
    /// [`ControlError::InvalidModel`] if `initial_state` has the wrong
    /// length.
    fn load_initial(&mut self, initial_state: &[f64]) -> Result<()>;
    /// Number of values in a state snapshot.
    fn state_len(&self) -> usize;
    /// Appends a snapshot of everything [`SettleSim::advance`] reads.
    fn save_state(&self, out: &mut Vec<f64>);
    /// Restores a snapshot written by [`SettleSim::save_state`].
    fn load_state(&mut self, state: &[f64]);
}

/// Where a [`settle_driver`] run starts: the sample index the simulator's
/// current state belongs to and the last threshold violation before it.
#[derive(Debug, Clone, Copy)]
struct Resume {
    index: usize,
    last_above: Option<usize>,
}

impl Resume {
    /// A run from the initial state.
    const START: Resume = Resume { index: 0, last_above: None };
}

/// The settle loop shared by every switched simulation: simulate from
/// `from` until the trajectory is provably settled (early exit) or the
/// horizon cap is hit, tracking the last threshold violation. Returns the
/// settling index with exactly the semantics of simulating the full horizon
/// from sample 0 and applying [`settling_index`] (`None` = not settled
/// within `horizon`), provided the simulator holds the state of sample
/// `from.index` of that trajectory and `from.last_above` is its last
/// violation before it. With `norms` / `states` set, the visited plant-state
/// norms / state snapshots are appended (the buffers are cleared first,
/// reusing their capacity).
///
/// `k_switch` must already be clamped to `horizon` by the caller, and a run
/// that resumes past sample 0 must resume at or before `k_switch`.
fn settle_driver<S: SettleSim>(
    sim: &mut S,
    threshold: f64,
    k_switch: usize,
    horizon: usize,
    from: Resume,
    mut norms: Option<&mut Vec<f64>>,
    mut states: Option<&mut Vec<f64>>,
) -> Option<usize> {
    if let Some(buffer) = norms.as_deref_mut() {
        buffer.clear();
    }
    if let Some(buffer) = states.as_deref_mut() {
        buffer.clear();
    }
    // The mode is fixed for the rest of the run from `fixed_from` on; only
    // then can a tail bound prove settling.
    let et_fixed = k_switch >= horizon;
    let fixed_from = if et_fixed { 0 } else { k_switch };
    let mut last_above = from.last_above;
    for index in from.index..=horizon {
        let norm = sim.plant_norm();
        if let Some(buffer) = norms.as_deref_mut() {
            buffer.push(norm);
        }
        if let Some(buffer) = states.as_deref_mut() {
            sim.save_state(buffer);
        }
        if norm > threshold {
            last_above = Some(index);
        } else if index >= fixed_from && sim.provably_settled(et_fixed, threshold) {
            // Every future plant norm is provably ≤ threshold: settled.
            break;
        }
        if index == horizon {
            break;
        }
        sim.advance(index < k_switch);
    }
    match last_above {
        None => Some(0),
        Some(index) if index < horizon => Some(index + 1),
        Some(_) => None,
    }
}

/// The one dwell/wait sweep behind [`characterize_dwell_vs_wait_with`] and
/// [`SaturatedSwitchedModel::characterize_with`], simulating every sample
/// once.
///
/// The pure-TT run gives ξᵀᵀ. The pure-ET run gives ξᴱᵀ, the upper end of
/// the sweep (waiting longer means the disturbance is rejected entirely on
/// ET communication), and records its norms — every point reports the norm
/// at its switching instant — and its states. A wait point `w` shares the
/// first `w` ET steps with that run, so it resumes at sample `w` from the
/// recorded state, carrying over the prefix's last threshold violation,
/// and only simulates its TT tail: the state is the same value a run from
/// the initial state computes at sample `w`, so the settling index is
/// bit-identical.
fn sweep<S: SettleSim>(
    sim: &mut S,
    config: &CharacterizationConfig,
    et_norms: &mut Vec<f64>,
    et_states: &mut Vec<f64>,
) -> Result<DwellWaitCurve> {
    let (threshold, horizon, period) = (config.threshold, config.horizon, config.period);
    sim.load_initial(&config.initial_state)?;
    let xi_tt_steps = settle_driver(sim, threshold, 0, horizon, Resume::START, None, None)
        .ok_or(ControlError::HorizonExceeded { what: "pure TT settling", steps: horizon })?;
    sim.load_initial(&config.initial_state)?;
    let xi_et_steps = settle_driver(
        sim,
        threshold,
        horizon,
        horizon,
        Resume::START,
        Some(&mut *et_norms),
        Some(&mut *et_states),
    )
    .ok_or(ControlError::HorizonExceeded { what: "pure ET settling", steps: horizon })?;

    // The ET run stops no earlier than sample ξᴱᵀ (it cannot prove settling
    // before its last violation), so every wait point has its recording.
    // Check it in every build: a short recording would silently truncate
    // the curve below.
    let recorded = et_norms.len().min(et_states.len().checked_div(sim.state_len()).unwrap_or(0));
    if recorded <= xi_et_steps {
        return Err(ControlError::InvalidModel {
            reason: format!(
                "the pure-ET recording ends after {recorded} samples, before ξᴱᵀ = \
                 {xi_et_steps} samples"
            ),
        });
    }
    let mut points = Vec::with_capacity(xi_et_steps + 1);
    let mut last_above = None;
    let snapshots = et_states.chunks_exact(sim.state_len()).zip(et_norms.iter());
    for (wait, (state, &norm_at_switch)) in snapshots.enumerate().take(xi_et_steps + 1) {
        sim.load_state(state);
        let from = Resume { index: wait, last_above };
        let settle = settle_driver(sim, threshold, wait, horizon, from, None, None)
            .ok_or(ControlError::HorizonExceeded { what: "switched settling", steps: horizon })?;
        let dwell = settle.saturating_sub(wait);
        points.push(DwellWaitPoint {
            wait_time: wait as f64 * period,
            wait_steps: wait,
            dwell_time: dwell as f64 * period,
            dwell_steps: dwell,
            norm_at_switch,
        });
        if norm_at_switch > threshold {
            last_above = Some(wait);
        }
    }
    Ok(DwellWaitCurve {
        points,
        xi_tt: xi_tt_steps as f64 * period,
        xi_et: xi_et_steps as f64 * period,
        period,
    })
}

/// Allocation-free switched settling engine: the scratch-buffer machinery of
/// [`StepKernel`](crate::StepKernel) applied to the dwell/wait
/// characterisation, with analytically justified early exit.
///
/// Built by [`CharacterizationWorkspace::switched_kernel`], which validates
/// the matrix pair once and precomputes each mode's two early-exit tests:
/// the plant-row tail bound (see [`power_norm_bound`] for the power
/// iteration) and, once per application, the verified invariant ellipsoid
/// `{z : zᵀPz ≤ c}` of `AᵀPA − P + I = 0` (one Lyapunov solve per mode).
/// The state buffers and the certified Lyapunov matrices live in the
/// workspace pool, so on a warm pool construction reuses every simulation
/// buffer. Every subsequent [`SwitchedKernel::settle_steps`] /
/// [`SwitchedKernel::dwell_steps`] call is a bare matvec loop — on stack
/// arrays for augmented orders 1–6, on the two pooled state buffers above —
/// that allocates nothing and stops as soon as either test proves the
/// remaining trajectory settled, instead of simulating a fixed full horizon
/// and scanning backwards. The quadratic form runs only on samples where
/// the cheaper tail bound fails. Results are identical to the full-horizon
/// reference path point for point.
#[derive(Debug)]
pub struct SwitchedKernel<'a> {
    modes: LinearModes<'a>,
    /// State buffers backing the engine above order 6.
    z: &'a mut [f64],
    z_next: &'a mut [f64],
}

/// Checks that `a1`/`a2` form a switched pair over at least `plant_order`
/// states.
fn validate_pair(a1: &Matrix, a2: &Matrix, plant_order: usize) -> Result<()> {
    if a1.shape() != a2.shape() || !a1.is_square() {
        return Err(ControlError::InvalidModel {
            reason: format!(
                "switched dynamics must share a square shape, got {:?} and {:?}",
                a1.shape(),
                a2.shape()
            ),
        });
    }
    if plant_order > a1.cols() {
        return Err(ControlError::InvalidModel {
            reason: format!(
                "plant order {} exceeds the state dimension {}",
                plant_order,
                a1.cols()
            ),
        });
    }
    Ok(())
}

/// What the linear settle engine reads but never writes: the switched pair
/// and each mode's certified `P` as flat rows of [`Matrix::as_slice`], and
/// each mode's exit bounds.
#[derive(Debug, Clone, Copy)]
struct LinearModes<'a> {
    a1: &'a [f64],
    a2: &'a [f64],
    plant_order: usize,
    et: ExitBounds,
    tt: ExitBounds,
    et_p: &'a [f64],
    tt_p: &'a [f64],
}

/// State storage of the linear settle engine: `[f64; N]` on the stack for
/// augmented orders `N` of 1–6, a pooled buffer pair above. Every storage
/// multiplies in [`Matrix::matvec_kernel`]'s order (one running sum per
/// row, ascending `k` from `0.0`), so the choice never changes a bit.
trait StateStore: AsRef<[f64]> + AsMut<[f64]> {
    /// Overwrites the state with `a·state`; `spare` is scratch of the same
    /// order.
    fn step(&mut self, spare: &mut Self, a: &[f64]);
}

impl<const N: usize> StateStore for [f64; N] {
    #[inline]
    fn step(&mut self, _spare: &mut Self, a: &[f64]) {
        let z = *self;
        // Re-slicing to `N·N` gives the kernel a compile-time length, so
        // both of its loops unroll fully.
        cps_linalg::matvec_kernel_n::<N>(&a[..N * N], &z, self);
    }
}

impl StateStore for &mut [f64] {
    #[inline]
    fn step(&mut self, spare: &mut Self, a: &[f64]) {
        for (row, slot) in a.chunks_exact(self.len()).zip(spare.iter_mut()) {
            let mut acc = 0.0;
            for (a, x) in row.iter().zip(self.iter()) {
                acc += a * x;
            }
            *slot = acc;
        }
        std::mem::swap(self, spare);
    }
}

/// The one linear settle engine, generic over its [`StateStore`]: one
/// [`SettleSim`] body serves every storage, so the stack and pooled paths
/// are bit-identical by construction.
struct LinearSim<'a, Z> {
    modes: LinearModes<'a>,
    z: Z,
    z_next: Z,
}

impl<Z: StateStore> SettleSim for LinearSim<'_, Z> {
    fn plant_norm(&self) -> f64 {
        plant_state_norm(self.z.as_ref(), self.modes.plant_order)
    }

    fn provably_settled(&self, et_mode: bool, threshold: f64) -> bool {
        let modes = &self.modes;
        let (bounds, p) = if et_mode { (modes.et, modes.et_p) } else { (modes.tt, modes.tt_p) };
        bounds.settled(p, self.z.as_ref(), threshold)
    }

    fn advance(&mut self, et_phase: bool) {
        let dynamics = if et_phase { self.modes.a1 } else { self.modes.a2 };
        self.z.step(&mut self.z_next, dynamics);
    }

    fn load_initial(&mut self, initial_state: &[f64]) -> Result<()> {
        let z = self.z.as_mut();
        if initial_state.len() != z.len() {
            return Err(ControlError::InvalidModel {
                reason: format!(
                    "initial state has length {} but the system has {} states",
                    initial_state.len(),
                    z.len()
                ),
            });
        }
        z.copy_from_slice(initial_state);
        Ok(())
    }

    fn state_len(&self) -> usize {
        self.z.as_ref().len()
    }

    fn save_state(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.z.as_ref());
    }

    fn load_state(&mut self, state: &[f64]) {
        self.z.as_mut().copy_from_slice(state);
    }
}

/// Evaluates `$body` with the pattern `$sim` bound to a [`LinearSim`] over
/// the `&mut` [`SwitchedKernel`] `$kernel`: on `[f64; N]` state for
/// augmented order `N` in 1–6, on the kernel's pooled buffers above. The
/// storage is picked once per call, so every step of the run is
/// monomorphised, and one engine serves every storage bit for bit.
macro_rules! with_linear_sim {
    ($kernel:expr, |$sim:pat_param| $body:expr) => {{
        let kernel: &mut SwitchedKernel<'_> = $kernel;
        let (modes, z, z_next) = (kernel.modes, &mut *kernel.z, &mut *kernel.z_next);
        match z.len() {
            1 => with_linear_sim!(@stack 1, modes, $sim, $body),
            2 => with_linear_sim!(@stack 2, modes, $sim, $body),
            3 => with_linear_sim!(@stack 3, modes, $sim, $body),
            4 => with_linear_sim!(@stack 4, modes, $sim, $body),
            5 => with_linear_sim!(@stack 5, modes, $sim, $body),
            6 => with_linear_sim!(@stack 6, modes, $sim, $body),
            _ => {
                let $sim = LinearSim { modes, z, z_next };
                $body
            }
        }
    }};
    (@stack $n:literal, $modes:ident, $sim:pat_param, $body:expr) => {{
        let $sim = LinearSim { modes: $modes, z: [0.0; $n], z_next: [0.0; $n] };
        $body
    }};
}

impl SwitchedKernel<'_> {
    /// Settling index of the switched trajectory (`k_switch` samples under
    /// `A₁`, then `A₂`): the first sample from which the plant-state norm
    /// stays at or below `threshold` for good, or `None` if the trajectory
    /// does not settle within `horizon` samples — exactly the semantics of
    /// simulating the full horizon and applying
    /// [`settling_index`](crate::settling_index).
    ///
    /// With `record` set, the plant-state norms visited up to the stopping
    /// point are appended (the buffer is cleared first; its capacity is
    /// reused).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] if `initial_state` has the
    /// wrong length or `threshold` is not positive.
    pub fn settle_steps(
        &mut self,
        initial_state: &[f64],
        threshold: f64,
        k_switch: usize,
        horizon: usize,
        record: Option<&mut Vec<f64>>,
    ) -> Result<Option<usize>> {
        with_linear_sim!(self, |mut sim| {
            sim.load_initial(initial_state)?;
            if !(threshold > 0.0) {
                return Err(ControlError::InvalidModel {
                    reason: format!("threshold must be positive, got {threshold}"),
                });
            }
            let (clamped_switch, from) = (k_switch.min(horizon), Resume::START);
            Ok(settle_driver(&mut sim, threshold, clamped_switch, horizon, from, record, None))
        })
    }

    /// Dwell time (in samples) for a single wait time, with early exit —
    /// the allocation-free equivalent of the free-function [`dwell_steps`].
    ///
    /// # Errors
    ///
    /// * As [`SwitchedKernel::settle_steps`].
    /// * [`ControlError::HorizonExceeded`] if the switched trajectory does
    ///   not settle within `horizon` samples.
    pub fn dwell_steps(
        &mut self,
        initial_state: &[f64],
        threshold: f64,
        wait_steps: usize,
        horizon: usize,
    ) -> Result<usize> {
        let settle = self
            .settle_steps(initial_state, threshold, wait_steps, horizon, None)?
            .ok_or(ControlError::HorizonExceeded { what: "switched settling", steps: horizon })?;
        Ok(settle.saturating_sub(wait_steps))
    }

    /// The dwell/wait [`sweep`] of this switched pair.
    fn sweep(
        &mut self,
        config: &CharacterizationConfig,
        et_norms: &mut Vec<f64>,
        et_states: &mut Vec<f64>,
    ) -> Result<DwellWaitCurve> {
        with_linear_sim!(self, |mut sim| sweep(&mut sim, config, et_norms, et_states))
    }
}

/// Switched-state buffer pair of the workspace pool, keyed by the augmented
/// state order: the settle engine's state above order 6.
#[derive(Debug)]
struct StateScratch {
    z: Vec<f64>,
    z_next: Vec<f64>,
}

/// Power-iteration matrix pair of the workspace pool, keyed by matrix order.
/// The pair holds the power iteration above order 6; `next` is also the
/// `P·A` scratch of every ellipsoid certificate.
#[derive(Debug)]
struct PowerScratch {
    power: Matrix,
    next: Matrix,
}

impl PowerScratch {
    fn new(order: usize) -> Self {
        PowerScratch { power: Matrix::zeros(order, order), next: Matrix::zeros(order, order) }
    }
}

/// Invariant-ellipsoid certificates of a switched pair, keyed by order in
/// the workspace pool: each mode's certified `P` and the Cholesky buffer of
/// the certificate checks.
#[derive(Debug)]
struct LyapunovScratch {
    et: Matrix,
    tt: Matrix,
    factor: Vec<f64>,
}

impl LyapunovScratch {
    fn new(order: usize) -> Self {
        LyapunovScratch {
            et: Matrix::zeros(order, order),
            tt: Matrix::zeros(order, order),
            factor: vec![0.0; order * order],
        }
    }

    /// [`ExitBounds`] of both modes, certifying each mode's `P` in place.
    fn certify(
        &mut self,
        a1: &Matrix,
        a2: &Matrix,
        plant_order: usize,
        scratch: &mut PowerScratch,
    ) -> Result<(ExitBounds, ExitBounds)> {
        let et = exit_bounds_into(a1, plant_order, scratch, &mut self.et, &mut self.factor)?;
        let tt = exit_bounds_into(a2, plant_order, scratch, &mut self.tt, &mut self.factor)?;
        Ok((et, tt))
    }
}

/// The entry of a dimension-keyed pool that `matches`, created by `create`
/// on first use (linear scan: a pool holds a handful of entries, a
/// characterisation runs thousands of kernel steps per lookup).
fn pool_entry<T>(
    pool: &mut Vec<T>,
    matches: impl Fn(&T) -> bool,
    create: impl FnOnce() -> T,
) -> &mut T {
    let index = match pool.iter().position(matches) {
        Some(index) => index,
        None => {
            pool.push(create());
            pool.len() - 1
        }
    };
    &mut pool[index]
}

/// Saturated-sim buffer bundle of the workspace pool, keyed by
/// `(plant_order, inputs)`.
#[derive(Debug)]
struct SatBuffers {
    /// Plant state and its double buffer.
    x: Vec<f64>,
    x_next: Vec<f64>,
    /// Current (clamped) input and the input applied one period ago.
    u: Vec<f64>,
    u_prev: Vec<f64>,
    /// Augmented state scratch handed to the gain.
    aug: Vec<f64>,
    /// The three matvec partials of the delayed-plant step.
    free: Vec<f64>,
    fresh: Vec<f64>,
    stale: Vec<f64>,
}

impl SatBuffers {
    fn new(plant_order: usize, inputs: usize) -> Self {
        SatBuffers {
            x: vec![0.0; plant_order],
            x_next: vec![0.0; plant_order],
            u: vec![0.0; inputs],
            u_prev: vec![0.0; inputs],
            aug: vec![0.0; plant_order + inputs],
            free: vec![0.0; plant_order],
            fresh: vec![0.0; plant_order],
            stale: vec![0.0; plant_order],
        }
    }

    fn dims(&self) -> (usize, usize) {
        (self.x.len(), self.u.len())
    }
}

/// Per-worker pooled characterisation scratch — the characterisation-side
/// counterpart of [`crate::DesignWorkspace`].
///
/// Every dwell/wait characterisation needs the same machinery: the switched
/// state double-buffers of the settle loop and the matrix pair of the
/// tail-bound power iteration (both on stack arrays up to augmented order 6,
/// on these buffers above), each mode's certified Lyapunov matrix `P`
/// with the Cholesky buffer of its checks, the saturated-sim buffer bundle
/// of the rig model, and the recording of the pure-ET run — its norm
/// trajectory and its states, the shared prefix every wait point of the
/// sweep resumes from. The seed path constructed all of it per application;
/// this pool holds one entry per distinct dimension (fleets mix first- and
/// second-order plants) and a design worker threads it through every
/// characterisation, so a warm worker re-allocates none of the simulation
/// scratch per application, whatever the sweep length — only the
/// materialised curve, the eigenvalue temporaries of the stability
/// pre-check and the one Lyapunov solve per mode remain per-app
/// allocations.
///
/// Every pooled path is the `_with` twin of its allocating reference and
/// bit-identical to it (asserted by the characterisation parity tests).
#[derive(Debug, Default)]
pub struct CharacterizationWorkspace {
    /// Switched-state pairs, keyed by augmented order.
    states: Vec<StateScratch>,
    /// Power-iteration matrix pairs, keyed by order.
    powers: Vec<PowerScratch>,
    /// Certified Lyapunov matrices of the linear modes, keyed by order.
    lyapunov: Vec<LyapunovScratch>,
    /// Saturated-sim bundles, keyed by `(plant_order, inputs)`.
    saturated: Vec<SatBuffers>,
    /// Recording buffer for pure-ET norm trajectories.
    norms: Vec<f64>,
    /// Recorded pure-ET states, one snapshot per visited sample: at least
    /// `(ξᴱᵀ + 1) × order` values.
    et_states: Vec<f64>,
}

impl CharacterizationWorkspace {
    /// Creates an empty pool; scratch is allocated on first use per
    /// dimension.
    pub fn new() -> Self {
        CharacterizationWorkspace::default()
    }

    /// Number of distinct augmented orders the pool holds switched-state
    /// buffers for.
    pub fn state_pool_size(&self) -> usize {
        self.states.len()
    }

    /// Number of distinct matrix orders the pool holds power-iteration
    /// scratch for.
    pub fn power_pool_size(&self) -> usize {
        self.powers.len()
    }

    /// Number of distinct matrix orders the pool holds invariant-ellipsoid
    /// certificates (each mode's `P`) for.
    pub fn lyapunov_pool_size(&self) -> usize {
        self.lyapunov.len()
    }

    /// Number of distinct `(plant_order, inputs)` dimensions the pool holds
    /// saturated-sim buffers for.
    pub fn saturated_pool_size(&self) -> usize {
        self.saturated.len()
    }

    /// [`TailBounds`] on the pooled matrix pair for `a`'s order.
    fn tail_bounds(&mut self, a: &Matrix, plant_order: usize) -> Result<TailBounds> {
        if !a.is_square() {
            return Err(ControlError::InvalidModel {
                reason: format!("power norm bound needs a square matrix, got {:?}", a.shape()),
            });
        }
        let order = a.rows();
        let entry = pool_entry(
            &mut self.powers,
            |entry| entry.power.rows() == order,
            || PowerScratch::new(order),
        );
        tail_bounds_into(a, plant_order, entry)
    }

    /// The [`SwitchedKernel`] of the matrix pair (`a1` the ET closed loop,
    /// `a2` the TT closed loop, both over at least `plant_order` states),
    /// plus the pooled recording buffer for norm trajectories. The state
    /// buffers, the tail-bound scratch and the certified Lyapunov matrices
    /// come from the pool.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] if the matrices have different
    /// shapes, are not square, or `plant_order` exceeds the state dimension.
    pub fn switched_kernel<'a>(
        &'a mut self,
        a1: &'a Matrix,
        a2: &'a Matrix,
        plant_order: usize,
    ) -> Result<(SwitchedKernel<'a>, &'a mut Vec<f64>)> {
        let (kernel, norms, _) = self.switched_parts(a1, a2, plant_order)?;
        Ok((kernel, norms))
    }

    /// [`CharacterizationWorkspace::switched_kernel`] plus the pooled
    /// ET-state recording the sweep resumes from.
    fn switched_parts<'a>(
        &'a mut self,
        a1: &'a Matrix,
        a2: &'a Matrix,
        plant_order: usize,
    ) -> Result<(SwitchedKernel<'a>, &'a mut Vec<f64>, &'a mut Vec<f64>)> {
        validate_pair(a1, a2, plant_order)?;
        let order = a1.cols();
        let CharacterizationWorkspace { states, powers, lyapunov, norms, et_states, .. } = self;
        let scratch =
            pool_entry(powers, |entry| entry.power.rows() == order, || PowerScratch::new(order));
        let lyapunov =
            pool_entry(lyapunov, |entry| entry.et.rows() == order, || LyapunovScratch::new(order));
        let (et, tt) = lyapunov.certify(a1, a2, plant_order, scratch)?;
        let lyapunov: &'a LyapunovScratch = lyapunov;
        let state = pool_entry(
            states,
            |entry| entry.z.len() == order,
            || StateScratch { z: vec![0.0; order], z_next: vec![0.0; order] },
        );
        let modes = LinearModes {
            a1: a1.as_slice(),
            a2: a2.as_slice(),
            plant_order,
            et,
            tt,
            et_p: lyapunov.et.as_slice(),
            tt_p: lyapunov.tt.as_slice(),
        };
        Ok((SwitchedKernel { modes, z: &mut state.z, z_next: &mut state.z_next }, norms, et_states))
    }

    /// The pooled saturated-sim bundle for the given dimensions (borrowed
    /// alongside the power pool and the recording buffers by
    /// [`SaturatedSwitchedModel::characterize_with`]).
    fn saturated_entry(
        saturated: &mut Vec<SatBuffers>,
        plant_order: usize,
        inputs: usize,
    ) -> &mut SatBuffers {
        pool_entry(
            saturated,
            |entry| entry.dims() == (plant_order, inputs),
            || SatBuffers::new(plant_order, inputs),
        )
    }
}

/// Parameters of a dwell/wait characterisation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationConfig {
    /// Sampling period `h` in seconds.
    pub period: f64,
    /// Switching threshold `E_th` on the plant-state norm.
    pub threshold: f64,
    /// Initial (post-disturbance) augmented state.
    pub initial_state: Vec<f64>,
    /// Number of physical plant states in the augmented state.
    pub plant_order: usize,
    /// Simulation horizon in samples used for every settling computation.
    pub horizon: usize,
}

impl CharacterizationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] if any parameter is out of
    /// range.
    pub fn validate(&self) -> Result<()> {
        if !(self.period > 0.0) || !self.period.is_finite() {
            return Err(ControlError::InvalidModel {
                reason: format!("period must be positive, got {}", self.period),
            });
        }
        if !(self.threshold > 0.0) {
            return Err(ControlError::InvalidModel {
                reason: format!("threshold must be positive, got {}", self.threshold),
            });
        }
        if self.initial_state.is_empty() || self.plant_order == 0 {
            return Err(ControlError::InvalidModel {
                reason: "initial state and plant order must be non-empty".to_string(),
            });
        }
        if self.horizon == 0 {
            return Err(ControlError::InvalidModel {
                reason: "horizon must be positive".to_string(),
            });
        }
        Ok(())
    }
}

/// Characterises the dwell-time / wait-time relation (the data behind
/// Figure 3) by sweeping the wait time from zero up to the pure-ET settling
/// time.
///
/// `a1` is the ET closed loop, `a2` the TT closed loop, both on the same
/// (delay-augmented) state.
///
/// Built on the [`SwitchedKernel`] scratch-buffer machinery: every settling
/// computation is allocation-free and exits as soon as settling is provable,
/// instead of simulating the configured horizon in full (`config.horizon`
/// acts as an upper cap only), and each wait point resumes from the
/// recorded pure-ET state at its switching instant instead of re-simulating
/// the ET prefix, so every sample is simulated once per run it belongs to.
/// A run proves settling with either of two tests on a sample at or below
/// the threshold: the plant-row tail bound `‖z‖·max_i ‖C·Aⁱ‖_F`, or, where
/// that fails, membership in the mode's verified invariant ellipsoid
/// `μ·zᵀPz ≤ (0.999·E_th)²` (`AᵀPA − P + I = 0`, solved and checked once
/// per mode and application). Both are sound, so the curve is identical to
/// [`characterize_dwell_vs_wait_reference`] point for point.
///
/// # Errors
///
/// * Propagates simulation failures.
/// * [`ControlError::HorizonExceeded`] if either pure-mode loop fails to
///   settle within the configured horizon.
pub fn characterize_dwell_vs_wait(
    a1: &Matrix,
    a2: &Matrix,
    config: &CharacterizationConfig,
) -> Result<DwellWaitCurve> {
    characterize_dwell_vs_wait_with(a1, a2, config, &mut CharacterizationWorkspace::new())
}

/// [`characterize_dwell_vs_wait`] on a caller-provided
/// [`CharacterizationWorkspace`]: the shape a fleet-design worker threads
/// through every application it characterises, so the switched-state
/// buffers, the tail-bound scratch and the pure-ET norm and state
/// recordings are allocated once per worker and dimension instead of once
/// per application. The curve is bit-identical to the one-shot path for any
/// (warm or cold, shared or private) workspace.
///
/// # Errors
///
/// As [`characterize_dwell_vs_wait`].
pub fn characterize_dwell_vs_wait_with(
    a1: &Matrix,
    a2: &Matrix,
    config: &CharacterizationConfig,
    workspace: &mut CharacterizationWorkspace,
) -> Result<DwellWaitCurve> {
    config.validate()?;
    let (mut kernel, et_norms, et_states) =
        workspace.switched_parts(a1, a2, config.plant_order)?;
    kernel.sweep(config, et_norms, et_states)
}

/// The original full-horizon characterisation: every settling computation
/// simulates `config.horizon` samples through the allocating trajectory
/// path and scans for the settling index afterwards. Kept as the numerical
/// reference (and benchmark baseline) for [`characterize_dwell_vs_wait`],
/// which must reproduce it point for point.
///
/// # Errors
///
/// As [`characterize_dwell_vs_wait`].
pub fn characterize_dwell_vs_wait_reference(
    a1: &Matrix,
    a2: &Matrix,
    config: &CharacterizationConfig,
) -> Result<DwellWaitCurve> {
    config.validate()?;
    let x0 = &config.initial_state;
    let n = config.plant_order;

    let tt_norms = norm_trajectory(a2, x0, n, config.horizon)?;
    let xi_tt_steps = settling_index(&tt_norms, config.threshold)
        .ok_or(ControlError::HorizonExceeded { what: "pure TT settling", steps: config.horizon })?;
    let et_norms = norm_trajectory(a1, x0, n, config.horizon)?;
    let xi_et_steps = settling_index(&et_norms, config.threshold)
        .ok_or(ControlError::HorizonExceeded { what: "pure ET settling", steps: config.horizon })?;

    let mut points = Vec::with_capacity(xi_et_steps + 1);
    for wait in 0..=xi_et_steps {
        let dwell = dwell_steps(a1, a2, x0, n, config.threshold, wait, config.horizon)?;
        let norms_before = &et_norms[wait.min(et_norms.len() - 1)];
        points.push(DwellWaitPoint {
            wait_time: wait as f64 * config.period,
            wait_steps: wait,
            dwell_time: dwell as f64 * config.period,
            dwell_steps: dwell,
            norm_at_switch: *norms_before,
        });
    }
    Ok(DwellWaitCurve {
        points,
        xi_tt: xi_tt_steps as f64 * config.period,
        xi_et: xi_et_steps as f64 * config.period,
        period: config.period,
    })
}

/// Switched closed loop with an actuator magnitude limit — the model of the
/// paper's servo-motor rig, whose amplifier can only deliver a bounded
/// torque.
///
/// The paper's Figure 3 is an *experimental* curve. In a purely linear,
/// energy-dissipative closed loop the dwell time is largely governed by the
/// state's modal content and barely rises with the wait time; the pronounced
/// rise measured on the rig comes from the combination of (a) the load being
/// held upright, so gravity keeps pumping energy into the plant while the
/// slow ET loop has not yet caught it, and (b) the torque limit, which makes
/// the TT-mode recovery time grow with the accumulated kinetic energy. This
/// model captures exactly those two ingredients.
#[derive(Debug, Clone)]
pub struct SaturatedSwitchedModel {
    et_system: DelayedLtiSystem,
    tt_system: DelayedLtiSystem,
    et_gain: Matrix,
    tt_gain: Matrix,
    input_limit: f64,
}

impl SaturatedSwitchedModel {
    /// Creates the model from the two delay models, the two feedback gains
    /// (acting on the augmented state, `u = −K·z`) and the actuator limit.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] if the systems describe
    /// different plants, the gains have the wrong shape, or the limit is not
    /// positive.
    pub fn new(
        et_system: DelayedLtiSystem,
        tt_system: DelayedLtiSystem,
        et_gain: Matrix,
        tt_gain: Matrix,
        input_limit: f64,
    ) -> Result<Self> {
        if et_system.plant_order() != tt_system.plant_order()
            || et_system.inputs() != tt_system.inputs()
            || (et_system.period() - tt_system.period()).abs() > 1e-12
        {
            return Err(ControlError::InvalidModel {
                reason: "ET and TT models must describe the same plant and period".to_string(),
            });
        }
        let expected = (et_system.inputs(), et_system.augmented_order());
        if et_gain.shape() != expected || tt_gain.shape() != expected {
            return Err(ControlError::InvalidModel {
                reason: format!(
                    "gains must be {}x{}, got {:?} and {:?}",
                    expected.0,
                    expected.1,
                    et_gain.shape(),
                    tt_gain.shape()
                ),
            });
        }
        if !(input_limit > 0.0) || !input_limit.is_finite() {
            return Err(ControlError::InvalidModel {
                reason: format!("input limit must be positive and finite, got {input_limit}"),
            });
        }
        Ok(SaturatedSwitchedModel { et_system, tt_system, et_gain, tt_gain, input_limit })
    }

    /// Sampling period of the underlying loop.
    pub fn period(&self) -> f64 {
        self.et_system.period()
    }

    /// Number of physical plant states.
    pub fn plant_order(&self) -> usize {
        self.et_system.plant_order()
    }

    /// Simulates the switched, saturated closed loop: `k_switch` samples in
    /// ET mode, then TT mode, starting from the plant state `x0` (previous
    /// input zero). Returns the plant-state norms over `horizon + 1` samples.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] if `x0` has the wrong length.
    pub fn switched_norms(
        &self,
        x0: &[f64],
        k_switch: usize,
        horizon: usize,
    ) -> Result<Vec<f64>> {
        let n = self.plant_order();
        if x0.len() != n {
            return Err(ControlError::InvalidModel {
                reason: format!("initial state has length {}, expected {n}", x0.len()),
            });
        }
        let m = self.et_system.inputs();
        let mut state = x0.to_vec();
        let mut previous_input = vec![0.0; m];
        let mut norms = Vec::with_capacity(horizon + 1);
        norms.push(vec_norm(&state));
        for k in 0..horizon {
            let (system, gain) = if k < k_switch {
                (&self.et_system, &self.et_gain)
            } else {
                (&self.tt_system, &self.tt_gain)
            };
            let mut augmented = state.clone();
            augmented.extend_from_slice(&previous_input);
            let mut input: Vec<f64> = gain.matvec(&augmented)?.iter().map(|v| -v).collect();
            for value in &mut input {
                *value = value.clamp(-self.input_limit, self.input_limit);
            }
            state = system.step(&state, &input, &previous_input)?;
            previous_input = input;
            norms.push(vec_norm(&state));
        }
        Ok(norms)
    }

    /// Characterises the dwell-time / wait-time relation of the saturated
    /// rig — the reproduction of Figure 3.
    ///
    /// `config.initial_state` must be the *plant* state here (the previous
    /// input always starts at zero).
    ///
    /// Runs on pre-allocated scratch buffers with early-exit settling
    /// detection: a run stops as soon as the tail is provably settled *and*
    /// provably free of actuator saturation (so the linear tail bound
    /// applies); `config.horizon` caps each run instead of sizing it. Like
    /// the linear sweep, each wait point resumes from the recorded pure-ET
    /// state (plant state and previous input) at its switching instant. The
    /// curve matches [`SaturatedSwitchedModel::characterize_reference`]
    /// point for point.
    ///
    /// # Errors
    ///
    /// * Propagates simulation failures and configuration validation.
    /// * [`ControlError::HorizonExceeded`] if either pure-mode response fails
    ///   to settle within the configured horizon.
    pub fn characterize(&self, config: &CharacterizationConfig) -> Result<DwellWaitCurve> {
        self.characterize_with(config, &mut CharacterizationWorkspace::new())
    }

    /// [`SaturatedSwitchedModel::characterize`] on a caller-provided
    /// [`CharacterizationWorkspace`]: the saturated-sim buffer bundle, the
    /// tail-bound scratch and the pure-ET norm and state recordings come
    /// from the per-worker pool instead of being allocated per application.
    /// Bit-identical to the one-shot path.
    ///
    /// # Errors
    ///
    /// As [`SaturatedSwitchedModel::characterize`].
    pub fn characterize_with(
        &self,
        config: &CharacterizationConfig,
        workspace: &mut CharacterizationWorkspace,
    ) -> Result<DwellWaitCurve> {
        config.validate()?;
        let plant_order = self.plant_order();
        let et_closed = self.et_system.closed_loop(&self.et_gain)?;
        let tt_closed = self.tt_system.closed_loop(&self.tt_gain)?;
        let et_bounds = workspace.tail_bounds(&et_closed, plant_order)?;
        let tt_bounds = workspace.tail_bounds(&tt_closed, plant_order)?;
        let CharacterizationWorkspace { saturated, norms, et_states, .. } = workspace;
        let buffers = CharacterizationWorkspace::saturated_entry(
            saturated,
            plant_order,
            self.et_system.inputs(),
        );
        let mut sim = SaturatedSim::with_buffers(self, buffers, et_bounds, tt_bounds);
        sweep(&mut sim, config, norms, et_states)
    }

    /// The original full-horizon characterisation through the allocating
    /// [`SaturatedSwitchedModel::switched_norms`] path, kept as the
    /// numerical reference (and benchmark baseline) for
    /// [`SaturatedSwitchedModel::characterize`].
    ///
    /// # Errors
    ///
    /// As [`SaturatedSwitchedModel::characterize`].
    pub fn characterize_reference(
        &self,
        config: &CharacterizationConfig,
    ) -> Result<DwellWaitCurve> {
        config.validate()?;
        let x0 = &config.initial_state;
        let threshold = config.threshold;

        let tt_norms = self.switched_norms(x0, 0, config.horizon)?;
        let xi_tt_steps = settling_index(&tt_norms, threshold).ok_or(
            ControlError::HorizonExceeded { what: "pure TT settling", steps: config.horizon },
        )?;
        let et_norms = self.switched_norms(x0, config.horizon, config.horizon)?;
        let xi_et_steps = settling_index(&et_norms, threshold).ok_or(
            ControlError::HorizonExceeded { what: "pure ET settling", steps: config.horizon },
        )?;

        let mut points = Vec::with_capacity(xi_et_steps + 1);
        for wait in 0..=xi_et_steps {
            let norms = self.switched_norms(x0, wait, config.horizon)?;
            let settle = settling_index(&norms, threshold).ok_or(
                ControlError::HorizonExceeded { what: "switched settling", steps: config.horizon },
            )?;
            let dwell = settle.saturating_sub(wait);
            points.push(DwellWaitPoint {
                wait_time: wait as f64 * config.period,
                wait_steps: wait,
                dwell_time: dwell as f64 * config.period,
                dwell_steps: dwell,
                norm_at_switch: et_norms[wait.min(et_norms.len() - 1)],
            });
        }
        Ok(DwellWaitCurve {
            points,
            xi_tt: xi_tt_steps as f64 * config.period,
            xi_et: xi_et_steps as f64 * config.period,
            period: config.period,
        })
    }
}

/// Scratch-buffer simulator for the saturated switched loop: the
/// allocation-free twin of [`SaturatedSwitchedModel::switched_norms`], with
/// the same early-exit machinery as [`SwitchedKernel`] extended by a
/// saturation guard (the linear tail bound is only valid once every future
/// input is provably inside the actuator limit). The buffers are borrowed
/// from the [`CharacterizationWorkspace`] pool.
#[derive(Debug)]
struct SaturatedSim<'a, 'b> {
    model: &'a SaturatedSwitchedModel,
    buffers: &'b mut SatBuffers,
    /// Tail bounds of the *linear* ET / TT closed loops.
    et_bounds: TailBounds,
    tt_bounds: TailBounds,
    /// Frobenius norms of the feedback gains (for the saturation guard).
    et_gain_norm: f64,
    tt_gain_norm: f64,
}

impl<'a, 'b> SaturatedSim<'a, 'b> {
    fn with_buffers(
        model: &'a SaturatedSwitchedModel,
        buffers: &'b mut SatBuffers,
        et_bounds: TailBounds,
        tt_bounds: TailBounds,
    ) -> Self {
        SaturatedSim {
            model,
            buffers,
            et_bounds,
            tt_bounds,
            et_gain_norm: model.et_gain.frobenius_norm(),
            tt_gain_norm: model.tt_gain.frobenius_norm(),
        }
    }
}

impl SettleSim for SaturatedSim<'_, '_> {
    fn plant_norm(&self) -> f64 {
        vec_norm(&self.buffers.x)
    }

    fn provably_settled(&self, et_mode: bool, threshold: f64) -> bool {
        let (bounds, gain_norm) = if et_mode {
            (self.et_bounds, self.et_gain_norm)
        } else {
            (self.tt_bounds, self.tt_gain_norm)
        };
        // Norm of the full augmented state [x; u_prev].
        let z_norm = (self.buffers.x.iter().map(|v| v * v).sum::<f64>()
            + self.buffers.u_prev.iter().map(|v| v * v).sum::<f64>())
        .sqrt();
        // Settled only if every input from this sample on stays strictly
        // inside the actuator limit (the gain acts on the full state, the
        // current one included), so the loop evolves linearly and every
        // later plant norm is ≤ plant·‖z‖ ≤ threshold.
        z_norm * bounds.plant <= threshold * EARLY_EXIT_SAFETY
            && gain_norm * bounds.full * z_norm <= self.model.input_limit * EARLY_EXIT_SAFETY
    }

    fn load_initial(&mut self, initial_state: &[f64]) -> Result<()> {
        if initial_state.len() != self.buffers.x.len() {
            return Err(ControlError::InvalidModel {
                reason: format!(
                    "initial state has length {}, expected {}",
                    initial_state.len(),
                    self.buffers.x.len()
                ),
            });
        }
        self.buffers.x.copy_from_slice(initial_state);
        self.buffers.u_prev.fill(0.0);
        Ok(())
    }

    fn state_len(&self) -> usize {
        self.buffers.x.len() + self.buffers.u_prev.len()
    }

    fn save_state(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.buffers.x);
        out.extend_from_slice(&self.buffers.u_prev);
    }

    fn load_state(&mut self, state: &[f64]) {
        let (x, u_prev) = state.split_at(self.buffers.x.len());
        self.buffers.x.copy_from_slice(x);
        self.buffers.u_prev.copy_from_slice(u_prev);
    }

    fn advance(&mut self, et_phase: bool) {
        let buffers = &mut *self.buffers;
        let n = buffers.x.len();
        let limit = self.model.input_limit;
        let (system, gain) = if et_phase {
            (&self.model.et_system, &self.model.et_gain)
        } else {
            (&self.model.tt_system, &self.model.tt_gain)
        };
        // u = clamp(−K·[x; u_prev]).
        buffers.aug[..n].copy_from_slice(&buffers.x);
        buffers.aug[n..].copy_from_slice(&buffers.u_prev);
        gain.matvec_kernel(&buffers.aug, &mut buffers.u);
        for value in &mut buffers.u {
            *value = (-*value).clamp(-limit, limit);
        }
        // x⁺ = Φ·x + Γ₀·u + Γ₁·u_prev.
        system.phi().matvec_kernel(&buffers.x, &mut buffers.free);
        system.gamma0().matvec_kernel(&buffers.u, &mut buffers.fresh);
        system.gamma1().matvec_kernel(&buffers.u_prev, &mut buffers.stale);
        for (((next, a), b), c) in
            buffers.x_next.iter_mut().zip(&buffers.free).zip(&buffers.fresh).zip(&buffers.stale)
        {
            *next = a + b + c;
        }
        std::mem::swap(&mut buffers.x, &mut buffers.x_next);
        std::mem::swap(&mut buffers.u_prev, &mut buffers.u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lqr::design_by_pole_placement;
    use crate::plants;

    /// Linear (unsaturated) ET/TT closed loops of the servo rig, used to test
    /// the purely linear switched analysis of the paper's Eqs. (3)–(4).
    fn rig_linear_loops() -> (Matrix, Matrix) {
        let plant = plants::servo_rig_upright();
        let h = 0.02;
        let et_sys = DelayedLtiSystem::from_continuous(&plant, h, h).unwrap();
        let tt_sys = DelayedLtiSystem::from_continuous(&plant, h, 0.0007).unwrap();
        let et = design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0]).unwrap();
        let tt = design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0]).unwrap();
        (et.closed_loop().clone(), tt.closed_loop().clone())
    }

    fn servo_config() -> CharacterizationConfig {
        CharacterizationConfig {
            period: 0.02,
            threshold: 0.1,
            // 45 degree initial offset with zero velocity, zero previous input.
            initial_state: vec![45.0_f64.to_radians(), 0.0, 0.0],
            plant_order: 2,
            horizon: 4000,
        }
    }

    /// The saturated servo-rig model with the paper's timing parameters.
    fn rig_model() -> SaturatedSwitchedModel {
        let plant = plants::servo_rig_upright();
        let h = 0.02;
        let et_sys = DelayedLtiSystem::from_continuous(&plant, h, h).unwrap();
        let tt_sys = DelayedLtiSystem::from_continuous(&plant, h, 0.0007).unwrap();
        let et = design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0]).unwrap();
        let tt = design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0]).unwrap();
        SaturatedSwitchedModel::new(
            et_sys,
            tt_sys,
            et.gain().clone(),
            tt.gain().clone(),
            plants::SERVO_RIG_TORQUE_LIMIT,
        )
        .unwrap()
    }

    #[test]
    fn switched_trajectory_switches_dynamics() {
        let a1 = Matrix::diagonal(&[1.0]).unwrap(); // marginally stable: norm constant
        let a2 = Matrix::diagonal(&[0.5]).unwrap(); // contraction after switch
        let norms = switched_norm_trajectory(&a1, &a2, &[1.0], 1, 3, 6).unwrap();
        assert_eq!(norms.len(), 7);
        assert!((norms[3] - 1.0).abs() < 1e-12);
        assert!((norms[4] - 0.5).abs() < 1e-12);
        assert!((norms[6] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn switched_trajectory_validates_shapes() {
        let a1 = Matrix::identity(2);
        let a2 = Matrix::identity(3);
        assert!(switched_norm_trajectory(&a1, &a2, &[1.0, 0.0], 2, 1, 5).is_err());
        assert!(switched_norm_trajectory(&a1, &Matrix::identity(2), &[1.0], 2, 1, 5).is_err());
    }

    #[test]
    fn dwell_time_zero_when_already_settled() {
        let a1 = Matrix::diagonal(&[0.1]).unwrap();
        let a2 = Matrix::diagonal(&[0.1]).unwrap();
        // After 3 ET steps the norm is 1e-3 << 0.1 and never rises again.
        let dwell = dwell_steps(&a1, &a2, &[1.0], 1, 0.1, 3, 100).unwrap();
        assert_eq!(dwell, 0);
    }

    #[test]
    fn dwell_time_decreases_for_scalar_contractions() {
        // With scalar (monotone) dynamics the relation IS monotone: the
        // longer we wait, the less dwell is needed. This is exactly the
        // intuition the paper shows to be false for oscillatory systems.
        let a1 = Matrix::diagonal(&[0.9]).unwrap();
        let a2 = Matrix::diagonal(&[0.5]).unwrap();
        let config = CharacterizationConfig {
            period: 0.02,
            threshold: 0.1,
            initial_state: vec![1.0],
            plant_order: 1,
            horizon: 500,
        };
        let curve = characterize_dwell_vs_wait(&a1, &a2, &config).unwrap();
        assert!(!curve.is_non_monotonic());
        let dwell: Vec<f64> = curve.points.iter().map(|p| p.dwell_time).collect();
        assert!(dwell.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn linear_servo_curve_properties() {
        let (a1, a2) = rig_linear_loops();
        let curve = characterize_dwell_vs_wait(&a1, &a2, &servo_config()).unwrap();
        // The paper's orderings: xi_tt < xi_et.
        assert!(curve.xi_tt < curve.xi_et);
        // At wait = 0 the dwell equals the pure-TT settling time.
        assert!((curve.points[0].dwell_time - curve.xi_tt).abs() < 1e-9);
        // Once the wait reaches the ET settling time only a short residual
        // dwell remains (the TT controller taking over can briefly push the
        // norm back above the threshold).
        assert!(curve.points.last().unwrap().dwell_time <= curve.max_dwell());
        // The modelled dwell never exceeds the ET settling time.
        assert!(curve.max_dwell() <= curve.xi_et + 1e-9);
    }

    #[test]
    fn servo_rig_curve_is_non_monotonic_like_figure3() {
        let model = rig_model();
        let config = CharacterizationConfig {
            period: 0.02,
            threshold: 0.1,
            initial_state: vec![45.0_f64.to_radians(), 0.0],
            plant_order: 2,
            horizon: 10_000,
        };
        let curve = model.characterize(&config).unwrap();
        assert!(curve.is_non_monotonic(), "rig dwell/wait relation must rise then fall");
        // Figure 3 shape: the peak dwell clearly exceeds the pure-TT response
        // and occurs at a strictly positive wait time; the pure-ET response is
        // much slower than the pure-TT one.
        assert!(curve.xi_tt < curve.xi_et);
        assert!(curve.max_dwell() > 1.1 * curve.xi_tt, "xi_m = {}, xi_tt = {}", curve.max_dwell(), curve.xi_tt);
        assert!(curve.peak_wait() >= 0.1, "k_p = {}", curve.peak_wait());
        assert!(curve.xi_et > 2.0 * curve.xi_tt);
        // At wait = 0 the dwell equals the pure-TT settling time; once the
        // wait reaches the ET settling time, only a short residual dwell can
        // remain (the aggressive TT controller may briefly push the norm back
        // over the threshold when it takes over a nearly settled state).
        assert!((curve.points[0].dwell_time - curve.xi_tt).abs() < 1e-9);
        assert!(curve.points.last().unwrap().dwell_time < curve.max_dwell() / 2.0);
    }

    #[test]
    fn pooled_characterization_matches_one_shot_and_reuses_scratch() {
        let (a1, a2) = rig_linear_loops();
        let config = servo_config();
        let one_shot = characterize_dwell_vs_wait(&a1, &a2, &config).unwrap();

        let mut ws = CharacterizationWorkspace::new();
        assert_eq!(ws.state_pool_size(), 0);
        assert_eq!(ws.power_pool_size(), 0);
        assert_eq!(ws.lyapunov_pool_size(), 0);
        let pooled = characterize_dwell_vs_wait_with(&a1, &a2, &config, &mut ws).unwrap();
        assert_eq!(pooled, one_shot);
        assert_eq!(ws.state_pool_size(), 1);
        assert_eq!(ws.power_pool_size(), 1);
        assert_eq!(ws.lyapunov_pool_size(), 1);

        // A second characterisation of the same dimensions grows no pools —
        // the buffers are reused — and stays bit-identical on a warm pool.
        let warm = characterize_dwell_vs_wait_with(&a1, &a2, &config, &mut ws).unwrap();
        assert_eq!(warm, one_shot);
        assert_eq!(ws.state_pool_size(), 1);
        assert_eq!(ws.power_pool_size(), 1);
        assert_eq!(ws.lyapunov_pool_size(), 1);

        // The kernel on the warm pool matches one on a cold pool point for
        // point.
        let mut cold_ws = CharacterizationWorkspace::new();
        let (mut cold, _norms) = cold_ws.switched_kernel(&a1, &a2, config.plant_order).unwrap();
        let (mut kernel, _norms) = ws.switched_kernel(&a1, &a2, config.plant_order).unwrap();
        for wait in [0usize, 5, 50, 200] {
            let warm = kernel
                .dwell_steps(&config.initial_state, config.threshold, wait, config.horizon)
                .unwrap();
            let reference = cold
                .dwell_steps(&config.initial_state, config.threshold, wait, config.horizon)
                .unwrap();
            assert_eq!(warm, reference, "wait = {wait}");
        }
    }

    #[test]
    fn pooled_saturated_characterization_matches_one_shot() {
        let model = rig_model();
        let config = CharacterizationConfig {
            period: 0.02,
            threshold: 0.1,
            initial_state: vec![45.0_f64.to_radians(), 0.0],
            plant_order: 2,
            horizon: 10_000,
        };
        let one_shot = model.characterize(&config).unwrap();
        let mut ws = CharacterizationWorkspace::new();
        let pooled = model.characterize_with(&config, &mut ws).unwrap();
        assert_eq!(pooled, one_shot);
        assert_eq!(ws.saturated_pool_size(), 1);
        assert_eq!(ws.power_pool_size(), 1);
        // The saturated model keeps its full-state bound: no certificate.
        assert_eq!(ws.lyapunov_pool_size(), 0);
        // Warm pool: no new entries, identical curve.
        let warm = model.characterize_with(&config, &mut ws).unwrap();
        assert_eq!(warm, one_shot);
        assert_eq!(ws.saturated_pool_size(), 1);
        assert_eq!(ws.power_pool_size(), 1);
    }

    #[test]
    fn fast_linear_characterization_matches_reference_point_for_point() {
        let (a1, a2) = rig_linear_loops();
        let config = servo_config();
        let fast = characterize_dwell_vs_wait(&a1, &a2, &config).unwrap();
        let reference = characterize_dwell_vs_wait_reference(&a1, &a2, &config).unwrap();
        assert_eq!(fast, reference);
    }

    #[test]
    fn fast_saturated_characterization_matches_reference_point_for_point() {
        let model = rig_model();
        let config = CharacterizationConfig {
            period: 0.02,
            threshold: 0.1,
            initial_state: vec![45.0_f64.to_radians(), 0.0],
            plant_order: 2,
            horizon: 10_000,
        };
        let fast = model.characterize(&config).unwrap();
        let reference = model.characterize_reference(&config).unwrap();
        assert_eq!(fast, reference);
    }

    #[test]
    fn power_norm_bound_properties() {
        // Contraction: the bound is max(1, ‖A‖_F, ...) and finite.
        let a = Matrix::diagonal(&[0.5]).unwrap();
        let bound = power_norm_bound(&a).unwrap();
        assert!((1.0..=1.5).contains(&bound));
        // Non-normal transient growth is captured.
        let transient = Matrix::from_rows(&[&[0.5, 10.0], &[0.0, 0.5]]).unwrap();
        let bound = power_norm_bound(&transient).unwrap();
        assert!(bound >= 10.0);
        // Unstable matrices degrade to infinity (early exit disabled).
        let unstable = Matrix::diagonal(&[1.1]).unwrap();
        assert_eq!(power_norm_bound(&unstable).unwrap(), f64::INFINITY);
        // Marginally stable: identity never contracts.
        assert_eq!(power_norm_bound(&Matrix::identity(2)).unwrap(), f64::INFINITY);
        assert!(power_norm_bound(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn plant_row_bound_dominates_every_plant_row_power() {
        // Random stable matrices, normal and strongly non-normal (large
        // upper off-diagonals: transient growth before contraction), of
        // orders 2–4 with every plant split: ‖C·Aʲ‖_F must stay at or below
        // the plant-row bound for j = 1..=2000, far past the power J at
        // which the iteration stopped, and the bound must never exceed the
        // full-state bound it replaces.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut uniform = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut checked = 0;
        for case in 0..60 {
            let order = 2 + case % 3;
            let skew = if case % 2 == 0 { 1.0 } else { 8.0 };
            let mut data = vec![0.0; order * order];
            for row in 0..order {
                for col in 0..order {
                    let scale = if col > row { skew } else { 1.0 };
                    data[row * order + col] = scale * uniform();
                }
            }
            let raw = Matrix::from_vec(order, order, data).unwrap();
            let rho = cps_linalg::spectral_radius(&raw).unwrap();
            let target = 0.5 + 0.49 * uniform().abs();
            let a = raw.scale(target / rho);
            for plant_order in 1..=order {
                let bounds = tail_bounds(&a, plant_order).unwrap();
                assert!(bounds.plant.is_finite(), "case {case}: stable matrix must contract");
                assert!(bounds.plant <= bounds.full, "case {case}");
                let mut power = a.clone();
                for j in 1..=2000 {
                    let rows = &power.as_slice()[..plant_order * order];
                    assert!(
                        vec_norm(rows) <= bounds.plant * (1.0 + 1e-12),
                        "case {case}, plant order {plant_order}, j = {j}: {} > {}",
                        vec_norm(rows),
                        bounds.plant
                    );
                    power = power.matmul(&a).unwrap();
                }
                checked += 1;
            }
        }
        assert_eq!(checked, 20 * (2 + 3 + 4));
        // The full-state bound is exactly the public power-norm bound.
        let (a1, _) = rig_linear_loops();
        assert_eq!(tail_bounds(&a1, 2).unwrap().full, power_norm_bound(&a1).unwrap());
    }

    /// A certificate's scratch for order `n`: `(P, P·A, Cholesky buffer)`.
    fn certificate_scratch(n: usize) -> (Matrix, Matrix, Vec<f64>) {
        (Matrix::zeros(n, n), Matrix::zeros(n, n), vec![0.0; n * n])
    }

    /// The unit vector `v` maximising `vᵀ·G·v` for a small symmetric
    /// positive-definite `g`, by power iteration.
    fn top_eigenvector(g: &Matrix) -> Vec<f64> {
        let mut v = vec![1.0; g.rows()];
        for _ in 0..500 {
            let next = g.matvec(&v).unwrap();
            let norm = vec_norm(&next);
            v = next.iter().map(|x| x / norm).collect();
        }
        v
    }

    #[test]
    fn ellipsoid_certificate_never_admits_a_later_violation() {
        // Seeded random Schur-stable matrices of orders 2–5 with plant
        // orders 1–3: normal and strongly non-normal (ill-conditioned P),
        // with spectral radii up to 0.999. Every state the certificate
        // accepts, the ellipsoid clause alone (tail bound disabled), must
        // keep every plant norm at or below the threshold for 3000 steps,
        // itself included. The probed states sit just inside the certified
        // level, in random directions and in the direction that maximises
        // the plant norm over the ellipsoid, so a too-large level shows.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut uniform = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let threshold = 0.1;
        let (mut certified, mut probed, mut worst_ratio) = (0, 0, 0.0_f64);
        let mut largest_p = 0.0_f64;
        for case in 0..48 {
            let order = 2 + case % 4;
            let skew = [1.0, 6.0, 20.0][case % 3];
            let mut data = vec![0.0; order * order];
            for row in 0..order {
                for col in 0..order {
                    data[row * order + col] = if col > row { skew } else { 1.0 } * uniform();
                }
            }
            let raw = Matrix::from_vec(order, order, data).unwrap();
            let rho = cps_linalg::spectral_radius(&raw).unwrap();
            let target = [0.999, 0.99, 0.9, 0.5 + 0.45 * uniform().abs()][case % 4];
            let a = raw.scale(target / rho);
            for plant_order in 1..=order.min(3) {
                let (mut p, mut pa, mut factor) = certificate_scratch(order);
                let Some(mu) = certify_ellipsoid(&a, plant_order, &mut p, &mut pa, &mut factor)
                else {
                    continue;
                };
                certified += 1;
                largest_p = largest_p.max(p.frobenius_norm());
                let ellipsoid_only = ExitBounds { plant: f64::INFINITY, mu: Some(mu) };
                // Worst direction: z = P⁻¹·Cᵀ·v, v the top eigenvector of
                // the plant block of P⁻¹.
                let p_inv = cps_linalg::inverse(&p).unwrap();
                let v = top_eigenvector(&p_inv.block(0, 0, plant_order, plant_order).unwrap());
                let mut worst = vec![0.0; order];
                for (row, slot) in worst.iter_mut().enumerate() {
                    *slot = (0..plant_order).map(|k| p_inv[(row, k)] * v[k]).sum();
                }
                let mut directions = vec![worst];
                directions.extend(
                    (0..3).map(|_| (0..order).map(|_| uniform()).collect::<Vec<f64>>()),
                );
                for direction in directions {
                    let level = (threshold * EARLY_EXIT_SAFETY).powi(2);
                    let scale = (level / (mu * quadratic_form(p.as_slice(), &direction))).sqrt();
                    let mut z: Vec<f64> =
                        direction.iter().map(|x| x * scale * (1.0 - 1e-9)).collect();
                    assert!(ellipsoid_only.settled(p.as_slice(), &z, threshold), "case {case}");
                    probed += 1;
                    let mut next = vec![0.0; order];
                    for step in 0..=3000 {
                        let norm = plant_state_norm(&z, plant_order);
                        worst_ratio = worst_ratio.max(norm / threshold);
                        assert!(
                            norm <= threshold,
                            "case {case}, plant order {plant_order}, step {step}: {norm} > \
                             {threshold}"
                        );
                        a.matvec_kernel(&z, &mut next);
                        std::mem::swap(&mut z, &mut next);
                    }
                }
            }
        }
        // Not vacuous: most loops certify, ill-conditioned P included, and
        // the worst-direction probes come close to the threshold.
        assert!(certified >= 90, "only {certified} certificates");
        assert_eq!(probed, 4 * certified);
        assert!(largest_p > 1e3, "largest ‖P‖_F {largest_p}");
        assert!(worst_ratio > 0.99, "worst plant norm / threshold {worst_ratio}");
    }

    #[test]
    fn ellipsoid_certificate_rejects_unstable_loops_and_failed_checks() {
        // ρ(A) ≥ 1: no certificate, neither directly nor through the exit
        // bounds (which skip the solve on the tail bound's ρ test).
        let unstable = Matrix::from_rows(&[&[1.05, 0.3], &[0.0, 0.5]]).unwrap();
        let (mut p, mut pa, mut factor) = certificate_scratch(2);
        assert_eq!(certify_ellipsoid(&unstable, 1, &mut p, &mut pa, &mut factor), None);
        let mut scratch = PowerScratch::new(2);
        let bounds = exit_bounds_into(&unstable, 1, &mut scratch, &mut p, &mut factor).unwrap();
        assert_eq!((bounds.plant, bounds.mu), (f64::INFINITY, None));
        let marginal = Matrix::identity(2);
        assert_eq!(certify_ellipsoid(&marginal, 1, &mut p, &mut pa, &mut factor), None);
        // The Stein solution of the unstable loop passes the decrease check
        // (P − AᵀPA = I) but is indefinite: the level check rejects it.
        let stein = cps_linalg::solve_discrete_lyapunov(&unstable, &Matrix::identity(2)).unwrap();
        assert_eq!(verify_ellipsoid(&unstable, 1, &stein, &mut pa, &mut factor), None);

        let (a1, a2) = rig_linear_loops();
        let (mut p, mut pa, mut factor) = certificate_scratch(3);
        let mu = certify_ellipsoid(&a1, 2, &mut p, &mut pa, &mut factor).expect("certified");
        let mut ws = CharacterizationWorkspace::new();
        let (kernel, _norms) = ws.switched_kernel(&a1, &a2, 2).unwrap();
        assert_eq!(kernel.modes.et.mu, Some(mu), "the servo's ET loop certifies");
        assert!(kernel.modes.tt.mu.is_some(), "the servo's TT loop certifies");
        // Check 1 fails on a shrunk P (P − AᵀPA = 0.4·I), whatever μ is.
        assert_eq!(verify_ellipsoid(&a1, 2, &p.scale(0.4), &mut pa, &mut factor), None);
        // Check 2 rejects a μ below the true λ_max, accepts the certified one.
        assert!(level_check(&p, 2, mu, &mut factor));
        assert!(!level_check(&p, 2, mu / 4.0, &mut factor));
        assert!(!level_check(&p, 2, mu / (1.0 + 1e-6), &mut factor));
    }

    /// A [`SettleSim`] whose state snapshots are lost: the sweep must report
    /// the short recording instead of returning a truncated curve.
    struct ForgetfulSim<S>(S);

    impl<S: SettleSim> SettleSim for ForgetfulSim<S> {
        fn plant_norm(&self) -> f64 {
            self.0.plant_norm()
        }
        fn provably_settled(&self, et_mode: bool, threshold: f64) -> bool {
            self.0.provably_settled(et_mode, threshold)
        }
        fn advance(&mut self, et_phase: bool) {
            self.0.advance(et_phase);
        }
        fn load_initial(&mut self, initial_state: &[f64]) -> Result<()> {
            self.0.load_initial(initial_state)
        }
        fn state_len(&self) -> usize {
            self.0.state_len()
        }
        fn save_state(&self, _out: &mut Vec<f64>) {}
        fn load_state(&mut self, state: &[f64]) {
            self.0.load_state(state);
        }
    }

    #[test]
    fn sweep_reports_a_short_et_recording() {
        let (a1, a2) = rig_linear_loops();
        let config = servo_config();
        let mut ws = CharacterizationWorkspace::new();
        let (mut kernel, _norms) = ws.switched_kernel(&a1, &a2, config.plant_order).unwrap();
        let (mut norms, mut states) = (Vec::new(), Vec::new());
        let error = with_linear_sim!(&mut kernel, |sim| {
            sweep(&mut ForgetfulSim(sim), &config, &mut norms, &mut states)
        })
        .unwrap_err();
        assert!(matches!(error, ControlError::InvalidModel { .. }), "{error}");
        assert!(error.to_string().contains("pure-ET recording"), "{error}");
        // The honest sim on the same buffers returns the full curve.
        let curve = kernel.sweep(&config, &mut norms, &mut states).unwrap();
        assert_eq!(curve, characterize_dwell_vs_wait_reference(&a1, &a2, &config).unwrap());
    }

    #[test]
    fn saturation_guard_keeps_the_full_state_bound() {
        // The gain sees the whole augmented state, the current sample
        // included, so the actuator guard must bound inputs with the
        // full-state bound even where the plant-row bound is smaller. With
        // the threshold out of the way, the guard alone decides: a state
        // just outside the full-state guard is not settled, one just inside
        // is.
        let model = rig_model();
        let tt_closed = model.tt_system.closed_loop(&model.tt_gain).unwrap();
        let et_closed = model.et_system.closed_loop(&model.et_gain).unwrap();
        let tt = tail_bounds(&tt_closed, 2).unwrap();
        let et = tail_bounds(&et_closed, 2).unwrap();
        assert!(1.02 * tt.plant < tt.full, "plant {} vs full {}", tt.plant, tt.full);
        let mut buffers = SatBuffers::new(2, 1);
        let mut sim = SaturatedSim::with_buffers(&model, &mut buffers, et, tt);
        let edge = model.input_limit * EARLY_EXIT_SAFETY / (sim.tt_gain_norm * tt.full);
        sim.load_initial(&[1.02 * edge, 0.0]).unwrap();
        assert!(!sim.provably_settled(false, f64::MAX));
        sim.load_initial(&[0.98 * edge, 0.0]).unwrap();
        assert!(sim.provably_settled(false, f64::MAX));
    }

    #[test]
    fn switched_kernel_matches_allocating_dwell_steps() {
        let (a1, a2) = rig_linear_loops();
        let config = servo_config();
        let mut ws = CharacterizationWorkspace::new();
        let (mut kernel, _norms) = ws.switched_kernel(&a1, &a2, config.plant_order).unwrap();
        for wait in [0usize, 5, 50, 200] {
            let fast = kernel
                .dwell_steps(&config.initial_state, config.threshold, wait, config.horizon)
                .unwrap();
            let reference = dwell_steps(
                &a1,
                &a2,
                &config.initial_state,
                config.plant_order,
                config.threshold,
                wait,
                config.horizon,
            )
            .unwrap();
            assert_eq!(fast, reference, "wait = {wait}");
        }
        // Validation paths.
        assert!(kernel.dwell_steps(&[1.0], 0.1, 0, 100).is_err());
        assert!(kernel
            .settle_steps(&config.initial_state, -1.0, 0, 100, None)
            .is_err());
        let mut ws = CharacterizationWorkspace::new();
        assert!(ws.switched_kernel(&a1, &Matrix::identity(2), 2).is_err());
        assert!(ws.switched_kernel(&a1, &a2, 9).is_err());
        // Unstable pair: settle within a short horizon fails like the
        // reference.
        let unstable = Matrix::diagonal(&[1.05]).unwrap();
        let (mut diverging, _norms) = ws.switched_kernel(&unstable, &unstable, 1).unwrap();
        assert_eq!(diverging.settle_steps(&[1.0], 0.1, 0, 50, None).unwrap(), None);
        assert!(matches!(
            diverging.dwell_steps(&[1.0], 0.1, 0, 50),
            Err(ControlError::HorizonExceeded { .. })
        ));
    }

    #[test]
    fn switched_kernel_recording_matches_norm_trajectory_prefix() {
        let (a1, a2) = rig_linear_loops();
        let config = servo_config();
        let mut ws = CharacterizationWorkspace::new();
        let (mut kernel, _norms) = ws.switched_kernel(&a1, &a2, 2).unwrap();
        let mut recorded = Vec::new();
        let settle = kernel
            .settle_steps(
                &config.initial_state,
                config.threshold,
                config.horizon,
                config.horizon,
                Some(&mut recorded),
            )
            .unwrap()
            .unwrap();
        let reference =
            norm_trajectory(&a1, &config.initial_state, 2, config.horizon).unwrap();
        assert!(recorded.len() > settle);
        assert_eq!(recorded, reference[..recorded.len()]);
    }

    #[test]
    fn saturated_model_validation() {
        let plant = plants::servo_rig_upright();
        let h = 0.02;
        let et_sys = DelayedLtiSystem::from_continuous(&plant, h, h).unwrap();
        let tt_sys = DelayedLtiSystem::from_continuous(&plant, h, 0.0007).unwrap();
        let et = design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0]).unwrap();
        let tt = design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0]).unwrap();
        // Bad input limit.
        assert!(SaturatedSwitchedModel::new(
            et_sys.clone(),
            tt_sys.clone(),
            et.gain().clone(),
            tt.gain().clone(),
            0.0
        )
        .is_err());
        // Bad gain shape.
        assert!(SaturatedSwitchedModel::new(
            et_sys.clone(),
            tt_sys.clone(),
            Matrix::zeros(1, 2),
            tt.gain().clone(),
            1.0
        )
        .is_err());
        // Mismatched periods.
        let other = DelayedLtiSystem::from_continuous(&plant, 0.01, 0.001).unwrap();
        assert!(SaturatedSwitchedModel::new(
            et_sys.clone(),
            other,
            et.gain().clone(),
            tt.gain().clone(),
            1.0
        )
        .is_err());
        // Wrong initial state length.
        let model = rig_model();
        assert!(model.switched_norms(&[0.1], 0, 10).is_err());
        assert_eq!(model.plant_order(), 2);
        assert!((model.period() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn total_response_time_is_increasing_in_wait_on_average() {
        // Section III: because the second-segment gradient is between 0 and −1,
        // the total response time grows with the wait time. We check the
        // end-to-end property on the rig curve.
        let model = rig_model();
        let config = CharacterizationConfig {
            period: 0.02,
            threshold: 0.1,
            initial_state: vec![45.0_f64.to_radians(), 0.0],
            plant_order: 2,
            horizon: 10_000,
        };
        let curve = model.characterize(&config).unwrap();
        let totals = curve.total_response_times();
        assert!(totals.last().unwrap() > totals.first().unwrap());
    }

    #[test]
    fn characterization_validates_config() {
        let (a1, a2) = rig_linear_loops();
        let mut config = servo_config();
        config.period = 0.0;
        assert!(characterize_dwell_vs_wait(&a1, &a2, &config).is_err());
        let mut config = servo_config();
        config.threshold = -1.0;
        assert!(characterize_dwell_vs_wait(&a1, &a2, &config).is_err());
        let mut config = servo_config();
        config.horizon = 0;
        assert!(characterize_dwell_vs_wait(&a1, &a2, &config).is_err());
        let mut config = servo_config();
        config.initial_state.clear();
        assert!(characterize_dwell_vs_wait(&a1, &a2, &config).is_err());
    }

    #[test]
    fn dwell_steps_validates_threshold() {
        let a = Matrix::identity(1);
        assert!(dwell_steps(&a, &a, &[1.0], 1, 0.0, 0, 10).is_err());
    }

    #[test]
    fn unstable_switched_system_reports_horizon_exceeded() {
        let a1 = Matrix::diagonal(&[1.05]).unwrap();
        let a2 = Matrix::diagonal(&[1.05]).unwrap();
        let config = CharacterizationConfig {
            period: 0.02,
            threshold: 0.1,
            initial_state: vec![1.0],
            plant_order: 1,
            horizon: 50,
        };
        assert!(matches!(
            characterize_dwell_vs_wait(&a1, &a2, &config),
            Err(ControlError::HorizonExceeded { .. })
        ));
    }
}
