//! # cps-control
//!
//! Control-theory substrate for the DATE 2019 reproduction *Exploiting System
//! Dynamics for Resource-Efficient Automotive CPS Design*.
//!
//! The crate models the paper's plants and controllers end to end:
//!
//! * [`ContinuousStateSpace`] — continuous-time LTI plant models, plus the
//!   automotive plant library in [`plants`].
//! * [`DiscreteStateSpace`] — plain zero-order-hold sampling.
//! * [`DelayedLtiSystem`] — the paper's Eq. (1): sampled dynamics with a
//!   constant sensor-to-actuator delay, split into Γ₀ (fresh input) and Γ₁
//!   (stale input), with the delay-augmented state-space form used for
//!   controller design and switching analysis.
//! * [`design_lqr`] / [`design_switched_pair`] / [`place_poles`] — synthesis
//!   of the event-triggered and time-triggered state-feedback controllers.
//! * [`DesignWorkspace`] — the dimension-keyed solver-workspace bundle a
//!   fleet-design worker threads through every discretisation and synthesis
//!   via the `_with` variants ([`DelayedLtiSystem::from_continuous_with`],
//!   [`design_lqr_with`], [`design_switched_pair_with`]), bit-identical to
//!   the one-shot paths.
//! * [`CharacterizationWorkspace`] — its characterisation-side counterpart:
//!   a per-worker pool of switched-kernel state buffers, tail-bound
//!   matrices, saturated-sim scratch and the recorded pure-ET run threaded
//!   through [`characterize_dwell_vs_wait_with`] /
//!   [`SaturatedSwitchedModel::characterize_with`], so a warm worker
//!   re-allocates no simulation scratch per application (bit-identical to
//!   the one-shot paths).
//! * [`response_metrics`] / [`response_time`] — settling-time metrics (ξᵀᵀ,
//!   ξᴱᵀ).
//! * [`characterize_dwell_vs_wait`] — the switched-system sweep behind the
//!   non-monotonic dwell-time/wait-time relation of Figure 3: one pass that
//!   resumes every wait point from the recorded pure-ET state.
//! * [`StepKernel`] — the precompiled, allocation-free closed-loop stepper:
//!   Φ, Γ₀, Γ₁ and the feedback gain fused into one augmented matrix per
//!   communication mode at construction, so a step is a single in-place
//!   matrix–vector product (dispatched once, at construction, to the
//!   const-generic unrolled kernel of the application's 2–6 state augmented
//!   order).
//! * [`PlantSimulator`] — step-by-step closed-loop simulation with runtime
//!   mode switching, driven by the co-simulation engine in `cps-core`.
//!
//! # Example: reproducing the shape of Figure 3
//!
//! ```
//! use cps_control::{
//!     design_by_pole_placement, plants, CharacterizationConfig, DelayedLtiSystem,
//!     SaturatedSwitchedModel,
//! };
//!
//! let rig = plants::servo_rig_upright();
//! let h = 0.02; // 20 ms sampling period, as in the paper
//! let et_sys = DelayedLtiSystem::from_continuous(&rig, h, h)?;      // worst-case ET delay
//! let tt_sys = DelayedLtiSystem::from_continuous(&rig, h, 0.0007)?; // TT delay = 0.7 ms
//! let et = design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0])?; // detuned ET controller
//! let tt = design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0])?; // aggressive TT controller
//! let model = SaturatedSwitchedModel::new(
//!     et_sys,
//!     tt_sys,
//!     et.gain().clone(),
//!     tt.gain().clone(),
//!     plants::SERVO_RIG_TORQUE_LIMIT,
//! )?;
//! let curve = model.characterize(&CharacterizationConfig {
//!     period: h,
//!     threshold: 0.1,
//!     initial_state: vec![45.0_f64.to_radians(), 0.0],
//!     plant_order: 2,
//!     horizon: 10_000,
//! })?;
//! assert!(curve.is_non_monotonic());
//! assert!(curve.max_dwell() > curve.xi_tt);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod continuous;
mod delayed;
mod design;
mod discrete;
mod error;
mod kernel;
mod lqr;
mod pole_placement;
mod response;
mod sim;
mod switched;

pub mod plants;

pub use continuous::ContinuousStateSpace;
pub use delayed::{plant_state_norm, DelayedLtiSystem};
pub use design::DesignWorkspace;
pub use discrete::DiscreteStateSpace;
pub use error::{ControlError, Result};
pub use kernel::{KernelMatrices, StepKernel};
pub use lqr::{
    design_by_pole_placement, design_lqr, design_lqr_with, design_switched_pair,
    design_switched_pair_with, LqrWeights, StateFeedbackController, SwitchedControllerPair,
};
pub use pole_placement::place_poles;
pub use response::{
    norm_trajectory, response_metrics, response_time, settling_index, ResponseMetrics,
};
pub use sim::{CommunicationMode, PlantSimulator, SimSample};
pub use switched::{
    characterize_dwell_vs_wait, characterize_dwell_vs_wait_reference,
    characterize_dwell_vs_wait_with, dwell_steps, power_norm_bound, switched_norm_trajectory,
    CharacterizationConfig, CharacterizationWorkspace, DwellWaitCurve, DwellWaitPoint,
    SaturatedSwitchedModel, SwitchedKernel,
};
