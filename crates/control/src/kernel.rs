//! Precompiled, allocation-free closed-loop simulation kernel.
//!
//! With the state-feedback law `u = −K·z` substituted into the
//! delay-augmented dynamics of Eq. (1), one sampling period of the closed
//! loop is a single linear map on the augmented state `z = [x; u_prev]`:
//!
//! ```text
//! z[k+1] = (A_aug − B_aug·K) · z[k]
//! ```
//!
//! [`StepKernel`] fuses `Φ`, `Γ₀`, `Γ₁` (the delay block) and the feedback
//! gain of *both* communication modes into the two closed-loop matrices
//! `A₁`/`A₂` of the paper's Section III at construction time — every shape is
//! validated exactly once there — so [`StepKernel::step`] is one in-place
//! matrix–vector product on a pre-allocated workspace: no heap allocation, no
//! `Result`, no shape checks on the hot path. Because the bottom block row of
//! `A_aug` is zero and the bottom block of `B_aug` is the identity, the tail
//! of the new augmented state *is* the input applied during the step, so the
//! control signal comes out of the same product for free.
//!
//! The co-simulation engine and the scenario batch runner in `cps-core` step
//! thousands of these kernels per simulated second; the allocating
//! [`crate::PlantSimulator`] API is a thin wrapper that keeps the original
//! record-producing interface.

use crate::delayed::{plant_state_norm, DelayedLtiSystem};
use crate::error::{ControlError, Result};
use crate::lqr::StateFeedbackController;
use crate::sim::CommunicationMode;
use cps_linalg::{matvec_kernel_n, Matrix};
use std::sync::Arc;

/// Const-generic kernel selection, resolved **once at construction** from
/// the augmented order: the 2–6 state dimensions of the case study hit the
/// unrolled [`cps_linalg::matvec_kernel_n`] instantiations, anything else
/// falls back to the dynamic [`Matrix::matvec_kernel`]. Every arm is
/// bit-identical to the dynamic kernel, so dispatch never changes a
/// trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelDispatch {
    N2,
    N3,
    N4,
    N5,
    N6,
    Dynamic,
}

impl KernelDispatch {
    fn select(order: usize) -> Self {
        match order {
            2 => KernelDispatch::N2,
            3 => KernelDispatch::N3,
            4 => KernelDispatch::N4,
            5 => KernelDispatch::N5,
            6 => KernelDispatch::N6,
            _ => KernelDispatch::Dynamic,
        }
    }

    #[inline]
    fn matvec(self, a: &Matrix, x: &[f64], out: &mut [f64]) {
        match self {
            KernelDispatch::N2 => matvec_kernel_n::<2>(a.as_slice(), x, out),
            KernelDispatch::N3 => matvec_kernel_n::<3>(a.as_slice(), x, out),
            KernelDispatch::N4 => matvec_kernel_n::<4>(a.as_slice(), x, out),
            KernelDispatch::N5 => matvec_kernel_n::<5>(a.as_slice(), x, out),
            KernelDispatch::N6 => matvec_kernel_n::<6>(a.as_slice(), x, out),
            KernelDispatch::Dynamic => a.matvec_kernel(x, out),
        }
    }
}

/// The immutable, shareable half of a [`StepKernel`]: the two fused
/// closed-loop matrices of one application plus the validated dimensions.
///
/// Compiling these matrices costs two augmented-matrix products; an
/// `Arc<KernelMatrices>` lets a designed fleet pay that cost once and hand
/// every scenario worker a [`StepKernel`] whose construction is just two
/// state-buffer allocations ([`KernelMatrices::kernel`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMatrices {
    /// Fused ET closed-loop matrix `A₁ = A_aug − B_aug·K_ET`.
    et: Matrix,
    /// Fused TT closed-loop matrix `A₂ = A_aug − B_aug·K_TT`.
    tt: Matrix,
    /// Open-loop hold matrix `H = [[Φ, Γ₀+Γ₁], [0, I]]`: one period with the
    /// *previous* input held at the actuator because no fresh command
    /// arrived (a dropped control frame). `Γ₀+Γ₁` is the full-period input
    /// integral, which is delay-independent, so one matrix serves both
    /// communication modes.
    hold: Matrix,
    plant_order: usize,
    inputs: usize,
    period: f64,
}

impl KernelMatrices {
    /// Compiles the fused closed-loop matrices from the ET/TT models and
    /// controllers of one application.
    ///
    /// All validation happens here: the models must describe the same plant
    /// with the same sampling period, and each gain must match its model's
    /// augmented order. After this returns, stepping is infallible.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] on any dimension or period
    /// mismatch.
    pub fn compile(
        et_system: &DelayedLtiSystem,
        tt_system: &DelayedLtiSystem,
        et_controller: &StateFeedbackController,
        tt_controller: &StateFeedbackController,
    ) -> Result<Self> {
        if et_system.plant_order() != tt_system.plant_order()
            || et_system.inputs() != tt_system.inputs()
        {
            return Err(ControlError::InvalidModel {
                reason: "ET and TT models must describe the same plant".to_string(),
            });
        }
        if (et_system.period() - tt_system.period()).abs() > 1e-12 {
            return Err(ControlError::InvalidModel {
                reason: "ET and TT models must share the sampling period".to_string(),
            });
        }
        // `closed_loop` validates the gain shape against the augmented order.
        let et = et_system.closed_loop(et_controller.gain())?;
        let tt = tt_system.closed_loop(tt_controller.gain())?;
        let plant_order = et_system.plant_order();
        let inputs = et_system.inputs();
        // Hold-last-command dynamics: when no fresh command reaches the
        // actuator, the plant evolves open loop under the held input for the
        // whole period — `x⁺ = Φx + (Γ₀+Γ₁)u_prev`, `u_prev⁺ = u_prev`.
        let mut hold = Matrix::zeros(plant_order + inputs, plant_order + inputs);
        hold.set_block(0, 0, et_system.phi())?;
        hold.set_block(0, plant_order, &et_system.gamma0().add_matrix(et_system.gamma1())?)?;
        hold.set_block(plant_order, plant_order, &Matrix::identity(inputs))?;
        Ok(KernelMatrices {
            et,
            tt,
            hold,
            plant_order,
            inputs,
            period: et_system.period(),
        })
    }

    /// Dimension of the augmented state the matrices act on.
    pub fn augmented_order(&self) -> usize {
        self.plant_order + self.inputs
    }

    /// Number of physical plant states.
    pub fn plant_order(&self) -> usize {
        self.plant_order
    }

    /// Number of control inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Sampling period of the loop in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The fused closed-loop matrix of `mode`.
    pub fn closed_loop(&self, mode: CommunicationMode) -> &Matrix {
        match mode {
            CommunicationMode::EventTriggered => &self.et,
            CommunicationMode::TimeTriggered => &self.tt,
        }
    }

    /// The hold-last-command matrix `H = [[Φ, Γ₀+Γ₁], [0, I]]` applied by
    /// [`StepKernel::step_hold`] when a control frame is lost.
    pub fn hold_matrix(&self) -> &Matrix {
        &self.hold
    }

    /// Builds a fresh stepper (state at the origin) sharing these matrices:
    /// the whole per-worker construction cost is two state buffers.
    pub fn kernel(self: &Arc<Self>) -> StepKernel {
        let order = self.augmented_order();
        StepKernel {
            matrices: Arc::clone(self),
            dispatch: KernelDispatch::select(order),
            z: vec![0.0; order],
            z_next: vec![0.0; order],
            time: 0.0,
        }
    }
}

/// A precompiled closed-loop stepper for one application: the
/// ([`Arc`]-shared) fused ET and TT closed-loop matrices plus the augmented
/// state and its scratch buffer.
#[derive(Debug, Clone)]
pub struct StepKernel {
    /// The immutable fused matrices, shared between all steppers of the
    /// same application design.
    matrices: Arc<KernelMatrices>,
    /// Const-generic kernel arm picked once from the augmented order.
    dispatch: KernelDispatch,
    /// Augmented state `z = [x; u_prev]`.
    z: Vec<f64>,
    /// Workspace for the next state (swapped with `z` every step).
    z_next: Vec<f64>,
    time: f64,
}

impl StepKernel {
    /// Compiles the kernel from the ET/TT models and controllers of one
    /// application, starting at the origin.
    ///
    /// Equivalent to [`KernelMatrices::compile`] followed by
    /// [`KernelMatrices::kernel`]; use the two-step form when many steppers
    /// must share one compilation.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] on any dimension or period
    /// mismatch.
    pub fn new(
        et_system: &DelayedLtiSystem,
        tt_system: &DelayedLtiSystem,
        et_controller: &StateFeedbackController,
        tt_controller: &StateFeedbackController,
    ) -> Result<Self> {
        let matrices =
            KernelMatrices::compile(et_system, tt_system, et_controller, tt_controller)?;
        Ok(Arc::new(matrices).kernel())
    }

    /// The shared fused matrices this stepper runs on.
    pub fn matrices(&self) -> &Arc<KernelMatrices> {
        &self.matrices
    }

    /// Sampling period of the loop in seconds.
    pub fn period(&self) -> f64 {
        self.matrices.period
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of physical plant states.
    pub fn plant_order(&self) -> usize {
        self.matrices.plant_order
    }

    /// Number of control inputs.
    pub fn inputs(&self) -> usize {
        self.matrices.inputs
    }

    /// The physical plant state `x` (the head of the augmented state).
    pub fn state(&self) -> &[f64] {
        &self.z[..self.matrices.plant_order]
    }

    /// The input applied during the most recent step (the tail of the
    /// augmented state).
    pub fn previous_input(&self) -> &[f64] {
        &self.z[self.matrices.plant_order..]
    }

    /// The full augmented state `z = [x; u_prev]`.
    pub fn augmented_state(&self) -> &[f64] {
        &self.z
    }

    /// The fused closed-loop matrix of `mode`.
    pub fn closed_loop(&self, mode: CommunicationMode) -> &Matrix {
        self.matrices.closed_loop(mode)
    }

    /// Norm of the physical plant state (the quantity compared with `E_th`).
    #[inline]
    pub fn state_norm(&self) -> f64 {
        plant_state_norm(&self.z, self.matrices.plant_order)
    }

    /// Adds a disturbance to the plant state (instantaneous state jump, the
    /// disturbance model used throughout the paper's case study).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] if the disturbance has the
    /// wrong dimension.
    pub fn inject_disturbance(&mut self, disturbance: &[f64]) -> Result<()> {
        self.inject_disturbance_scaled(disturbance, 1.0)
    }

    /// Adds `scale * disturbance` to the plant state without allocating —
    /// the primitive the scenario engine uses for disturbance sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] if the disturbance has the
    /// wrong dimension.
    pub fn inject_disturbance_scaled(&mut self, disturbance: &[f64], scale: f64) -> Result<()> {
        if disturbance.len() != self.matrices.plant_order {
            return Err(ControlError::InvalidModel {
                reason: format!(
                    "disturbance has length {} but the plant has {} states",
                    disturbance.len(),
                    self.matrices.plant_order
                ),
            });
        }
        for (s, d) in self.z.iter_mut().zip(disturbance) {
            *s += scale * d;
        }
        Ok(())
    }

    /// Resets state, previous input and time to zero.
    pub fn reset(&mut self) {
        self.z.fill(0.0);
        self.z_next.fill(0.0);
        self.time = 0.0;
    }

    /// Advances the closed loop by one sampling period in `mode`.
    ///
    /// One in-place matrix–vector product on the pre-allocated workspace:
    /// no heap allocation, no shape checks (all validated at construction).
    #[inline]
    pub fn step(&mut self, mode: CommunicationMode) {
        let a_cl = match mode {
            CommunicationMode::EventTriggered => &self.matrices.et,
            CommunicationMode::TimeTriggered => &self.matrices.tt,
        };
        self.dispatch.matvec(a_cl, &self.z, &mut self.z_next);
        std::mem::swap(&mut self.z, &mut self.z_next);
        self.time += self.matrices.period;
    }

    /// Advances the closed loop by one sampling period with the *previous*
    /// input held at the actuator — the graceful-degradation step applied
    /// when the control frame of this period was lost on the bus.
    ///
    /// Same cost and allocation profile as [`StepKernel::step`]; the hold
    /// matrix is mode-independent (the full-period input integral `Γ₀+Γ₁` is
    /// the same for ET and TT delays).
    #[inline]
    pub fn step_hold(&mut self) {
        self.dispatch.matvec(&self.matrices.hold, &self.z, &mut self.z_next);
        std::mem::swap(&mut self.z, &mut self.z_next);
        self.time += self.matrices.period;
    }

    /// Runs `steps` consecutive steps in a fixed mode and returns the final
    /// plant-state norm.
    pub fn run(&mut self, mode: CommunicationMode, steps: usize) -> f64 {
        for _ in 0..steps {
            self.step(mode);
        }
        self.state_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plants;

    fn servo_kernel() -> StepKernel {
        let plant = plants::servo_rig_upright();
        let et_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.02).unwrap();
        let tt_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0007).unwrap();
        let et = crate::lqr::design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0]).unwrap();
        let tt = crate::lqr::design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0]).unwrap();
        StepKernel::new(&et_sys, &tt_sys, &et, &tt).unwrap()
    }

    #[test]
    fn starts_at_origin_and_steps_advance_time() {
        let mut kernel = servo_kernel();
        assert_eq!(kernel.state_norm(), 0.0);
        assert_eq!(kernel.plant_order(), 2);
        assert_eq!(kernel.inputs(), 1);
        kernel.step(CommunicationMode::TimeTriggered);
        assert!((kernel.time() - 0.02).abs() < 1e-15);
        assert_eq!(kernel.state_norm(), 0.0, "no disturbance, stays at the origin");
    }

    #[test]
    fn rejects_disturbance_in_tt_mode() {
        let mut kernel = servo_kernel();
        kernel.inject_disturbance(&[45.0_f64.to_radians(), 0.0]).unwrap();
        assert!(kernel.state_norm() > 0.1);
        let final_norm = kernel.run(CommunicationMode::TimeTriggered, 200);
        assert!(final_norm < 0.1, "TT loop must reject the disturbance");
    }

    #[test]
    fn step_matches_closed_loop_matvec_exactly() {
        let mut kernel = servo_kernel();
        kernel.inject_disturbance(&[0.3, -0.1]).unwrap();
        let mut reference = kernel.augmented_state().to_vec();
        for (index, mode) in [
            CommunicationMode::EventTriggered,
            CommunicationMode::TimeTriggered,
            CommunicationMode::TimeTriggered,
            CommunicationMode::EventTriggered,
        ]
        .iter()
        .enumerate()
        {
            reference = kernel.closed_loop(*mode).matvec(&reference).unwrap();
            kernel.step(*mode);
            assert_eq!(kernel.augmented_state(), reference.as_slice(), "step {index}");
        }
    }

    #[test]
    fn previous_input_is_the_applied_input() {
        let mut kernel = servo_kernel();
        kernel.inject_disturbance(&[0.3, 0.0]).unwrap();
        // u = -K z for the mode used in the step.
        let z = kernel.augmented_state().to_vec();
        let a_cl = kernel.closed_loop(CommunicationMode::TimeTriggered).clone();
        kernel.step(CommunicationMode::TimeTriggered);
        let expected = a_cl.matvec(&z).unwrap();
        assert_eq!(kernel.previous_input(), &expected[2..]);
    }

    #[test]
    fn step_hold_keeps_the_previous_input_and_matches_the_hold_matrix() {
        let mut kernel = servo_kernel();
        kernel.inject_disturbance(&[0.4, -0.2]).unwrap();
        // A regular step computes a fresh command; a hold step must then
        // evolve the plant open loop under exactly that command.
        kernel.step(CommunicationMode::TimeTriggered);
        let held_input = kernel.previous_input().to_vec();
        let z = kernel.augmented_state().to_vec();
        let expected = kernel.matrices().hold_matrix().matvec(&z).unwrap();
        kernel.step_hold();
        assert_eq!(kernel.augmented_state(), expected.as_slice());
        assert_eq!(kernel.previous_input(), held_input.as_slice(), "input is held");
        assert!((kernel.time() - 0.04).abs() < 1e-15, "hold advances time");
        // Holding forever is open-loop + constant input: with the unstable
        // upright servo the state must eventually diverge, unlike closed loop.
        for _ in 0..400 {
            kernel.step_hold();
        }
        let held_norm = kernel.state_norm();
        let mut closed = servo_kernel();
        closed.inject_disturbance(&[0.4, -0.2]).unwrap();
        let closed_norm = closed.run(CommunicationMode::TimeTriggered, 402);
        assert!(held_norm > 10.0 * closed_norm.max(1e-9), "hold must not stabilise");
    }

    #[test]
    fn hold_matrix_has_the_documented_block_structure() {
        let plant = plants::servo_rig_upright();
        let et_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.02).unwrap();
        let tt_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0007).unwrap();
        let et = crate::lqr::design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0]).unwrap();
        let tt = crate::lqr::design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0]).unwrap();
        let matrices = KernelMatrices::compile(&et_sys, &tt_sys, &et, &tt).unwrap();
        let hold = matrices.hold_matrix();
        let n = matrices.plant_order();
        let m = matrices.inputs();
        assert_eq!(hold.block(0, 0, n, n).unwrap(), *et_sys.phi());
        assert_eq!(
            hold.block(0, n, n, m).unwrap(),
            et_sys.gamma0().add_matrix(et_sys.gamma1()).unwrap()
        );
        assert_eq!(hold.block(n, 0, m, n).unwrap(), cps_linalg::Matrix::zeros(m, n));
        assert_eq!(hold.block(n, n, m, m).unwrap(), cps_linalg::Matrix::identity(m));
    }

    #[test]
    fn reset_and_scaled_disturbances() {
        let mut kernel = servo_kernel();
        kernel.inject_disturbance_scaled(&[0.5, 0.5], 2.0).unwrap();
        assert!((kernel.state_norm() - 2.0 * 0.5f64.hypot(0.5)).abs() < 1e-12);
        kernel.run(CommunicationMode::EventTriggered, 3);
        kernel.reset();
        assert_eq!(kernel.state_norm(), 0.0);
        assert_eq!(kernel.time(), 0.0);
        assert!(kernel.inject_disturbance(&[1.0]).is_err());
        assert!(kernel.inject_disturbance_scaled(&[1.0], 1.0).is_err());
    }

    #[test]
    fn kernels_from_shared_matrices_are_independent_but_share_storage() {
        let plant = plants::servo_rig_upright();
        let et_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.02).unwrap();
        let tt_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0007).unwrap();
        let et = crate::lqr::design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0]).unwrap();
        let tt = crate::lqr::design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0]).unwrap();
        let matrices =
            Arc::new(KernelMatrices::compile(&et_sys, &tt_sys, &et, &tt).unwrap());
        assert_eq!(matrices.augmented_order(), 3);
        assert_eq!(matrices.plant_order(), 2);
        assert_eq!(matrices.inputs(), 1);
        assert!((matrices.period() - 0.02).abs() < 1e-15);

        let mut first = matrices.kernel();
        let mut second = matrices.kernel();
        assert!(Arc::ptr_eq(first.matrices(), second.matrices()));
        assert!(Arc::ptr_eq(first.matrices(), &matrices));

        // Independent state, identical dynamics.
        first.inject_disturbance(&[0.3, 0.0]).unwrap();
        second.inject_disturbance(&[0.3, 0.0]).unwrap();
        first.step(CommunicationMode::TimeTriggered);
        assert!((first.time() - 0.02).abs() < 1e-15);
        assert_eq!(second.time(), 0.0);
        second.step(CommunicationMode::TimeTriggered);
        assert_eq!(first.augmented_state(), second.augmented_state());
    }

    #[test]
    fn mismatched_models_are_rejected() {
        let servo = plants::servo_position();
        let suspension = plants::quarter_car_suspension();
        let w2 = crate::lqr::LqrWeights::identity_with_input_weight(2, 0.1);
        let w4 = crate::lqr::LqrWeights::identity_with_input_weight(4, 0.1);
        let servo_pair =
            crate::lqr::design_switched_pair(&servo, 0.02, 0.02, 0.0, &w2, &w2).unwrap();
        let susp_pair =
            crate::lqr::design_switched_pair(&suspension, 0.02, 0.02, 0.0, &w4, &w4).unwrap();
        assert!(StepKernel::new(
            &servo_pair.et_system,
            &susp_pair.tt_system,
            &servo_pair.et,
            &susp_pair.tt,
        )
        .is_err());
        let fast = crate::lqr::design_switched_pair(&servo, 0.01, 0.01, 0.0, &w2, &w2).unwrap();
        assert!(StepKernel::new(
            &servo_pair.et_system,
            &fast.tt_system,
            &servo_pair.et,
            &fast.tt,
        )
        .is_err());
        // Gain with the wrong augmented order.
        assert!(StepKernel::new(
            &susp_pair.et_system,
            &susp_pair.tt_system,
            &servo_pair.et,
            &servo_pair.tt,
        )
        .is_err());
    }
}
