//! A fully specified distributed control application: plant, controllers for
//! both communication modes, control requirement and disturbance model.

use crate::error::{CoreError, Result};
use cps_control::{
    design_by_pole_placement, design_lqr_with, ContinuousStateSpace, DelayedLtiSystem,
    DesignWorkspace, KernelMatrices, LqrWeights, PlantSimulator, SaturatedSwitchedModel,
    StateFeedbackController, StepKernel,
};
use std::sync::Arc;

/// How the ET/TT state-feedback controllers of an application are designed.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerSpec {
    /// LQR with separate weights for the ET and the TT loop.
    Lqr {
        /// Weights of the (detuned) event-triggered design.
        et_weights: LqrWeights,
        /// Weights of the (aggressive) time-triggered design.
        tt_weights: LqrWeights,
    },
    /// Pole placement with continuous-time target poles per mode (one pole
    /// per augmented state).
    PolePlacement {
        /// Desired continuous-time poles of the ET loop.
        et_poles: Vec<f64>,
        /// Desired continuous-time poles of the TT loop.
        tt_poles: Vec<f64>,
    },
}

/// The full description of one control application in the case study.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationSpec {
    /// Application name (e.g. `"C3"`).
    pub name: String,
    /// Continuous-time plant model.
    pub plant: ContinuousStateSpace,
    /// Sampling period `h` in seconds.
    pub period: f64,
    /// Worst-case sensor-to-actuator delay over ET communication.
    pub et_delay: f64,
    /// Deterministic sensor-to-actuator delay over TT communication.
    pub tt_delay: f64,
    /// Switching threshold `E_th` on the plant-state norm.
    pub threshold: f64,
    /// Disturbance applied to the plant state (state jump).
    pub disturbance: Vec<f64>,
    /// Deadline (desired response time) ξᵈ in seconds.
    pub deadline: f64,
    /// Minimum inter-arrival time of disturbances, `r`, in seconds.
    pub inter_arrival: f64,
    /// Controller synthesis specification.
    pub controllers: ControllerSpec,
    /// Optional actuator magnitude limit (saturation), used both for the
    /// dwell/wait characterisation and the co-simulation.
    pub input_limit: Option<f64>,
}

/// A built application: the spec plus all derived design artefacts,
/// including the precompiled fused closed-loop matrices every simulation
/// kernel of this design shares (an `Arc`, so clones of the application and
/// all kernels spawned from it reference one compilation).
#[derive(Debug, Clone)]
pub struct ControlApplication {
    spec: ApplicationSpec,
    et_system: DelayedLtiSystem,
    tt_system: DelayedLtiSystem,
    et_controller: StateFeedbackController,
    tt_controller: StateFeedbackController,
    kernel_matrices: Arc<KernelMatrices>,
}

impl ControlApplication {
    /// Designs the ET and TT controllers for the given specification.
    ///
    /// This is the one-application entry point of the fleet design pipeline:
    /// it routes through [`crate::FleetDesigner`], so the synthesis runs on
    /// the same workspace-threaded path as a full fleet design (and is
    /// bit-identical to it).
    ///
    /// # Examples
    ///
    /// ```
    /// use cps_control::{plants, LqrWeights};
    /// use cps_core::{ApplicationSpec, ControlApplication, ControllerSpec};
    ///
    /// let app = ControlApplication::design(ApplicationSpec {
    ///     name: "dc-motor".to_string(),
    ///     plant: plants::dc_motor_speed(),
    ///     period: 0.02,
    ///     et_delay: 0.02,
    ///     tt_delay: 0.0007,
    ///     threshold: 0.1,
    ///     disturbance: vec![0.0, 1.0],
    ///     deadline: 6.0,
    ///     inter_arrival: 20.0,
    ///     controllers: ControllerSpec::Lqr {
    ///         et_weights: LqrWeights::identity_with_input_weight(2, 1.0),
    ///         tt_weights: LqrWeights::identity_with_input_weight(2, 0.01),
    ///     },
    ///     input_limit: None,
    /// })?;
    /// assert_eq!(app.name(), "dc-motor");
    /// // The designed artifacts are ready for characterisation and
    /// // simulation: both controllers exist and the fused step-kernel
    /// // matrices are compiled once, shared by every kernel spawned here.
    /// let kernel = app.kernel()?;
    /// assert_eq!(kernel.state_norm(), 0.0);
    /// # Ok::<(), cps_core::CoreError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] if the specification is inconsistent
    ///   (empty disturbance, non-positive deadline, deadline exceeding the
    ///   disturbance inter-arrival time, ...).
    /// * Control-design failures are propagated.
    pub fn design(spec: ApplicationSpec) -> Result<Self> {
        crate::designer::FleetDesigner::sequential().design_one(spec)
    }

    /// [`ControlApplication::design`] with a caller-provided
    /// [`DesignWorkspace`]: the shape the fleet designer threads through its
    /// workers, sharing discretisation and Riccati temporaries across every
    /// application of a fleet. Produces exactly the artifacts of
    /// [`ControlApplication::design`].
    ///
    /// # Errors
    ///
    /// As [`ControlApplication::design`].
    pub fn design_with(spec: ApplicationSpec, workspace: &mut DesignWorkspace) -> Result<Self> {
        if spec.disturbance.len() != spec.plant.order() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "{}: disturbance has {} entries but the plant has {} states",
                    spec.name,
                    spec.disturbance.len(),
                    spec.plant.order()
                ),
            });
        }
        if !(spec.deadline > 0.0) || !(spec.inter_arrival > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("{}: deadline and inter-arrival time must be positive", spec.name),
            });
        }
        if spec.deadline > spec.inter_arrival {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "{}: the paper assumes deadline <= disturbance inter-arrival time",
                    spec.name
                ),
            });
        }
        if !(spec.threshold > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("{}: the threshold E_th must be positive", spec.name),
            });
        }
        if let Some(limit) = spec.input_limit {
            if !(limit > 0.0) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("{}: the input limit must be positive", spec.name),
                });
            }
        }
        let et_system =
            DelayedLtiSystem::from_continuous_with(&spec.plant, spec.period, spec.et_delay, workspace)?;
        let tt_system =
            DelayedLtiSystem::from_continuous_with(&spec.plant, spec.period, spec.tt_delay, workspace)?;
        let (et_controller, tt_controller) = match &spec.controllers {
            ControllerSpec::Lqr { et_weights, tt_weights } => (
                design_lqr_with(&et_system, et_weights, workspace)?,
                design_lqr_with(&tt_system, tt_weights, workspace)?,
            ),
            ControllerSpec::PolePlacement { et_poles, tt_poles } => (
                design_by_pole_placement(&et_system, et_poles)?,
                design_by_pole_placement(&tt_system, tt_poles)?,
            ),
        };
        let kernel_matrices = Arc::new(KernelMatrices::compile(
            &et_system,
            &tt_system,
            &et_controller,
            &tt_controller,
        )?);
        Ok(ControlApplication {
            spec,
            et_system,
            tt_system,
            et_controller,
            tt_controller,
            kernel_matrices,
        })
    }

    /// The application's specification.
    pub fn spec(&self) -> &ApplicationSpec {
        &self.spec
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The ET-mode plant model.
    pub fn et_system(&self) -> &DelayedLtiSystem {
        &self.et_system
    }

    /// The TT-mode plant model.
    pub fn tt_system(&self) -> &DelayedLtiSystem {
        &self.tt_system
    }

    /// The ET-mode controller.
    pub fn et_controller(&self) -> &StateFeedbackController {
        &self.et_controller
    }

    /// The TT-mode controller.
    pub fn tt_controller(&self) -> &StateFeedbackController {
        &self.tt_controller
    }

    /// The switched, saturated rig model used for the dwell/wait
    /// characterisation when an input limit is configured.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn saturated_model(&self) -> Result<Option<SaturatedSwitchedModel>> {
        match self.spec.input_limit {
            None => Ok(None),
            Some(limit) => Ok(Some(SaturatedSwitchedModel::new(
                self.et_system.clone(),
                self.tt_system.clone(),
                self.et_controller.gain().clone(),
                self.tt_controller.gain().clone(),
                limit,
            )?)),
        }
    }

    /// A fresh closed-loop simulator for this application (state at the
    /// origin), used when per-step [`cps_control::SimSample`] records are
    /// wanted.
    ///
    /// # Errors
    ///
    /// Propagates simulator-construction failures.
    pub fn simulator(&self) -> Result<PlantSimulator> {
        Ok(PlantSimulator::new(
            self.et_system.clone(),
            self.tt_system.clone(),
            self.et_controller.clone(),
            self.tt_controller.clone(),
        )?)
    }

    /// The precompiled fused closed-loop matrices of this design, shared by
    /// every kernel spawned from it.
    pub fn kernel_matrices(&self) -> &Arc<KernelMatrices> {
        &self.kernel_matrices
    }

    /// A fresh allocation-free step kernel for this application (state at
    /// the origin) — the handle the co-simulation engine and the scenario
    /// batch runner drive. The fused matrices were compiled once at design
    /// time and are shared, so this costs only two state buffers.
    ///
    /// # Errors
    ///
    /// Infallible since the matrices are precompiled; the `Result` is kept
    /// for interface stability.
    pub fn kernel(&self) -> Result<StepKernel> {
        Ok(self.kernel_matrices.kernel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_control::plants;

    fn rig_spec() -> ApplicationSpec {
        ApplicationSpec {
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
        }
    }

    #[test]
    fn design_builds_all_artifacts() {
        let app = ControlApplication::design(rig_spec()).unwrap();
        assert_eq!(app.name(), "servo");
        assert_eq!(app.et_controller().gain().shape(), (1, 3));
        assert_eq!(app.tt_controller().gain().shape(), (1, 3));
        assert!(app.saturated_model().unwrap().is_some());
        assert!(app.simulator().is_ok());
        assert!((app.et_system().delay() - 0.02).abs() < 1e-12);
        assert!((app.tt_system().delay() - 0.0007).abs() < 1e-12);
    }

    #[test]
    fn lqr_spec_also_works() {
        let mut spec = rig_spec();
        spec.plant = plants::dc_motor_speed();
        spec.controllers = ControllerSpec::Lqr {
            et_weights: LqrWeights::identity_with_input_weight(2, 1.0),
            tt_weights: LqrWeights::identity_with_input_weight(2, 0.01),
        };
        spec.input_limit = None;
        let app = ControlApplication::design(spec).unwrap();
        assert!(app.saturated_model().unwrap().is_none());
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        let mut spec = rig_spec();
        spec.disturbance = vec![0.1];
        assert!(ControlApplication::design(spec).is_err());

        let mut spec = rig_spec();
        spec.deadline = -1.0;
        assert!(ControlApplication::design(spec).is_err());

        let mut spec = rig_spec();
        spec.deadline = 20.0; // exceeds inter-arrival
        assert!(ControlApplication::design(spec).is_err());

        let mut spec = rig_spec();
        spec.threshold = 0.0;
        assert!(ControlApplication::design(spec).is_err());

        let mut spec = rig_spec();
        spec.input_limit = Some(0.0);
        assert!(ControlApplication::design(spec).is_err());
    }
}
