//! Plant / runtime / bus co-simulation — the engine behind Figure 5.
//!
//! Every sampling period the engine reads the plant-state norms, lets the
//! dynamic resource-allocation runtime decide which application may use its
//! TT slot (Figure 1), steps each closed loop with the controller and delay
//! model of its granted communication mode, and mirrors the resulting
//! traffic onto a cycle-accurate FlexRay bus to collect realistic latency
//! and slot-usage statistics.
//!
//! One loop runs every co-simulation and folds each period into a
//! [`RunMetrics`] online (settling, peaks, TT periods, hold and loss
//! counters). [`CoSimulation::run_metrics_into`] stops there, with the bus
//! log suspended; [`CoSimulation::run`] also records the trajectory, the
//! slot occupancy and the bus latencies into a [`CoSimTrace`].

use crate::application::ControlApplication;
use crate::error::{CoreError, Result};
use crate::fleet::DesignedFleet;
use crate::runtime::AllocationRuntime;
use cps_control::{CommunicationMode, StepKernel};
use cps_flexray::{
    BusStatistics, FaultModel, FlexRayBus, FlexRayConfig, Frame, LatencyStats, Segment, SimRng,
};
use cps_sched::SlotAllocation;
use std::sync::Arc;

/// One record of one application's trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Simulation time at the start of the period.
    pub time: f64,
    /// Plant-state norm ‖x‖ at that time.
    pub norm: f64,
    /// Communication mode used during the period.
    pub mode: CommunicationMode,
}

/// Trajectory and verdict of one application in the co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct AppTrace {
    /// Application name.
    pub name: String,
    /// Sampled trajectory.
    pub points: Vec<TracePoint>,
    /// Deadline (desired response time) of the application.
    pub deadline: f64,
    /// Measured response time: the first time from which the norm stays at or
    /// below the threshold (None if it never settles within the simulation).
    pub response_time: Option<f64>,
    /// Periods stepped with the last command held at the actuator because
    /// the control frame was lost on the bus (0 on a nominal bus).
    pub held_periods: u64,
    /// Longest streak of consecutive lost control frames (0 on a nominal
    /// bus).
    pub max_consecutive_losses: u64,
}

impl AppTrace {
    /// Returns `true` if the measured response time meets the deadline.
    pub fn deadline_met(&self) -> bool {
        self.response_time.map(|t| t <= self.deadline).unwrap_or(false)
    }

    /// Total time the application spent on TT communication.
    pub fn tt_time(&self, period: f64) -> f64 {
        self.points.iter().filter(|p| p.mode == CommunicationMode::TimeTriggered).count() as f64
            * period
    }
}

/// The complete result of a co-simulation run.
#[derive(Debug, Clone)]
pub struct CoSimTrace {
    /// One trace per application, in the order the applications were given.
    pub apps: Vec<AppTrace>,
    /// Slot occupancy per period: `occupancy[k][slot]` is the application
    /// index holding the slot during period `k`, if any.
    pub slot_occupancy: Vec<Vec<Option<usize>>>,
    /// Sampling period of the co-simulation.
    pub period: f64,
    /// FlexRay bus usage statistics accumulated over the run.
    pub bus_statistics: BusStatistics,
    /// Observed bus latency statistics per application.
    pub bus_latencies: Vec<LatencyStats>,
}

impl CoSimTrace {
    /// Returns `true` if every application met its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.apps.iter().all(AppTrace::deadline_met)
    }
}

/// Periodic re-disturbance of the whole fleet — a stress pattern that forces
/// repeated transient phases and therefore repeated TT-slot requests
/// ("mode-switch storms").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSwitchStorm {
    /// Seconds between storm hits (rounded to whole sampling periods, at
    /// least one). The first hit lands one interval into the run, not at
    /// t = 0 — the initial disturbance is injected separately.
    pub interval: f64,
    /// Scale applied to every application's designed disturbance at each hit.
    pub scale: f64,
}

/// Degradation applied inside the co-simulation engine (as opposed to the
/// bus-side [`FaultModel`]): sensor noise on the norms the allocation runtime
/// decides on, and optional mode-switch storms.
///
/// One [`SimRng`] stream, seeded from `seed`, drives the noise draws — one
/// draw per application per period whenever a degradation config is
/// installed (even at amplitude zero), so the draw sequence depends only on
/// the configuration and the step count, never on the simulated data.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradationConfig {
    /// Seed of the engine's degradation RNG stream;
    /// [`CoSimulation::reset`] rewinds the stream to this seed.
    pub seed: u64,
    /// Amplitude of the uniform measurement noise added to each plant-state
    /// norm before the runtime's mode decision (the *true* norms still drive
    /// the plants and the recorded traces). Corrupted norms are clamped at
    /// zero, since a norm is nonnegative.
    pub sensor_noise: f64,
    /// Optional periodic re-disturbance of the fleet.
    pub storm: Option<ModeSwitchStorm>,
}

impl DegradationConfig {
    /// Sensor noise only.
    pub fn noise(seed: u64, sensor_noise: f64) -> Self {
        DegradationConfig { seed, sensor_noise, storm: None }
    }

    /// Returns the config with a mode-switch storm.
    #[must_use]
    pub fn with_storm(mut self, interval: f64, scale: f64) -> Self {
        self.storm = Some(ModeSwitchStorm { interval, scale });
        self
    }

    fn validate(&self) -> Result<()> {
        if !(self.sensor_noise >= 0.0) || !self.sensor_noise.is_finite() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "sensor noise must be finite and nonnegative, got {}",
                    self.sensor_noise
                ),
            });
        }
        if let Some(storm) = &self.storm {
            if !(storm.interval > 0.0) || !storm.interval.is_finite() {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "storm interval must be positive and finite, got {}",
                        storm.interval
                    ),
                });
            }
            if !storm.scale.is_finite() {
                return Err(CoreError::InvalidConfig {
                    reason: format!("storm scale must be finite, got {}", storm.scale),
                });
            }
        }
        Ok(())
    }
}

/// Online, allocation-free summary of one co-simulation run: the result of
/// a scenario run for the streaming campaign and the scenario batch, and
/// the source of a [`CoSimTrace`]'s per-application verdicts. Fill it with
/// [`CoSimulation::run_metrics_into`]; on a warm (same-sized) instance the
/// fill allocates nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMetrics {
    /// Number of sampling periods simulated.
    pub steps: usize,
    /// Sampling period in seconds.
    pub period: f64,
    /// Per-application measured response time (`None` = never settled
    /// within the run), same definition as [`AppTrace::response_time`].
    pub response_times: Vec<Option<f64>>,
    /// Per-application deadline verdicts.
    pub deadlines_met: Vec<bool>,
    /// Per-application peak plant-state norm over the run.
    pub peak_norms: Vec<f64>,
    /// Per-application number of periods spent in TT mode.
    pub tt_periods: Vec<u64>,
    /// Per-application hold-last-command periods (lost control frames).
    pub held_periods: Vec<u64>,
    /// Per-application longest consecutive-loss streak.
    pub max_consecutive_losses: Vec<u64>,
    /// Bus counters accumulated over the run.
    pub bus: BusStatistics,
}

impl RunMetrics {
    /// `true` if every application settled within its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.deadlines_met.iter().all(|&met| met)
    }

    /// Largest per-application response time; `None` if any application
    /// never settled (or the metrics are empty).
    pub fn max_response_time(&self) -> Option<f64> {
        if self.response_times.is_empty() {
            return None;
        }
        self.response_times.iter().try_fold(0.0f64, |acc, r| r.map(|t| acc.max(t)))
    }

    /// Largest per-application peak norm.
    pub fn max_peak_norm(&self) -> f64 {
        self.peak_norms.iter().copied().fold(0.0, f64::max)
    }

    /// Fraction of application-periods spent in TT mode — the engine-level
    /// static-slot utilisation of the run.
    pub fn tt_share(&self) -> f64 {
        if self.steps == 0 || self.tt_periods.is_empty() {
            return 0.0;
        }
        self.tt_periods.iter().sum::<u64>() as f64
            / (self.steps as f64 * self.tt_periods.len() as f64)
    }

    /// Resizes every per-application series to `app_count` and zeroes the
    /// contents (no allocation once the capacity is warm).
    fn begin(&mut self, app_count: usize, period: f64) {
        self.steps = 0;
        self.period = period;
        self.response_times.clear();
        self.response_times.resize(app_count, None);
        self.deadlines_met.clear();
        self.deadlines_met.resize(app_count, false);
        self.peak_norms.clear();
        self.peak_norms.resize(app_count, 0.0);
        self.tt_periods.clear();
        self.tt_periods.resize(app_count, 0);
        self.held_periods.clear();
        self.held_periods.resize(app_count, 0);
        self.max_consecutive_losses.clear();
        self.max_consecutive_losses.resize(app_count, 0);
        self.bus = BusStatistics::default();
    }
}

/// Frame size (in payload words) of every application's control message.
const CONTROL_FRAME_PAYLOAD: usize = 2;

/// Registers one bus frame per application (frame id = application index
/// plus one). Every control signal starts in the dynamic segment and is
/// moved into its TT slot on demand; used by engine construction *and* by
/// per-scenario bus rebuilds, so an overridden-then-restored bus is
/// registered identically to the original.
fn register_fleet_frames(bus: &mut FlexRayBus, apps: &[ControlApplication]) -> Result<()> {
    for (index, app) in apps.iter().enumerate() {
        bus.register_frame(Frame::dynamic(index as u32 + 1, app.name(), CONTROL_FRAME_PAYLOAD)?)?;
    }
    Ok(())
}

/// The co-simulation engine.
///
/// The engine is the *mutable* half of a fleet: it shares the immutable
/// [`DesignedFleet`] (designed controllers, fused kernel matrices, bus/slot
/// configuration) through an [`Arc`] and owns only scratch state — kernel
/// state buffers, runtime phases, the bus, and the per-period norm/mode
/// buffers. Each application's closed loop is stepped by a precompiled,
/// allocation-free [`StepKernel`]; [`CoSimulation::reset`] rewinds
/// everything to time zero without reconstruction, so repeated runs — the
/// fig5 bench, Monte-Carlo disturbance sweeps, fleet dimensioning — pay the
/// design cost once, and parallel scenario workers spin up for the price of
/// a handful of buffers ([`DesignedFleet::engine`]).
#[derive(Debug)]
pub struct CoSimulation {
    fleet: Arc<DesignedFleet>,
    kernels: Vec<StepKernel>,
    runtime: AllocationRuntime,
    bus: FlexRayBus,
    /// Bus configuration the engine currently runs on (the fleet's design
    /// unless overridden by [`CoSimulation::set_bus_config`]).
    bus_config: FlexRayConfig,
    period: f64,
    threshold_scale: f64,
    /// Scratch: plant-state norms of the current period.
    norms: Vec<f64>,
    /// Scratch: communication modes granted for the current period.
    modes: Vec<CommunicationMode>,
    /// Scratch: per-app slot assignment staged by [`CoSimulation::set_allocation`].
    slot_scratch: Vec<Option<usize>>,
    /// Bus-side fault model (kept here so bus rebuilds reapply it).
    fault: Option<FaultModel>,
    /// Engine-side degradation (sensor noise, mode-switch storms).
    degradation: Option<DegradationConfig>,
    /// RNG stream of the degradation layer (reseeded on reset).
    degradation_rng: SimRng,
    /// Scratch: noise-corrupted norms handed to the runtime under degradation.
    noisy_norms: Vec<f64>,
    /// Per-app bus loss counters as of the previous period (to detect fresh
    /// losses without querying transmission logs).
    prev_losses: Vec<u64>,
    /// Per-app current consecutive-loss streak.
    consecutive_losses: Vec<u64>,
    /// Per-app longest consecutive-loss streak since reset.
    max_consecutive_losses: Vec<u64>,
    /// Per-app hold-last-command periods since reset.
    held_periods: Vec<u64>,
    /// Scratch of the run loop: per-app settling candidate.
    settle_from: Vec<usize>,
}

impl CoSimulation {
    /// Builds the engine from designed applications and an offline slot
    /// allocation (application order must match the allocation's indices).
    ///
    /// Convenience for [`DesignedFleet::new`] + [`DesignedFleet::engine`];
    /// use the two-step form when several engines should share one design.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] if the applications use different
    ///   sampling periods, the allocation references unknown applications, or
    ///   the bus does not offer enough static slots.
    pub fn new(
        apps: Vec<ControlApplication>,
        allocation: &SlotAllocation,
        bus_config: FlexRayConfig,
    ) -> Result<Self> {
        let fleet = Arc::new(DesignedFleet::new(apps, allocation.clone(), bus_config)?);
        CoSimulation::from_fleet(fleet)
    }

    /// Builds an engine over a shared fleet design: only the mutable scratch
    /// (kernel state buffers, runtime, bus) is constructed here.
    ///
    /// # Errors
    ///
    /// Propagates bus-construction failures.
    pub fn from_fleet(fleet: Arc<DesignedFleet>) -> Result<Self> {
        let mut kernels = Vec::with_capacity(fleet.app_count());
        let mut bus = FlexRayBus::new(fleet.bus_config())?;
        register_fleet_frames(&mut bus, fleet.apps())?;
        for app in fleet.apps() {
            kernels.push(app.kernel()?);
        }
        let runtime = AllocationRuntime::new(fleet.runtime_apps().to_vec(), fleet.slot_count())?;
        let app_count = fleet.app_count();
        let period = fleet.period();
        let bus_config = fleet.bus_config();
        Ok(CoSimulation {
            fleet,
            kernels,
            runtime,
            bus,
            bus_config,
            period,
            threshold_scale: 1.0,
            norms: vec![0.0; app_count],
            modes: Vec::with_capacity(app_count),
            slot_scratch: vec![None; app_count],
            fault: None,
            degradation: None,
            degradation_rng: SimRng::seeded(0),
            noisy_norms: Vec::with_capacity(app_count),
            prev_losses: vec![0; app_count],
            consecutive_losses: vec![0; app_count],
            max_consecutive_losses: vec![0; app_count],
            held_periods: vec![0; app_count],
            settle_from: vec![0; app_count],
        })
    }

    /// The shared fleet design this engine runs on.
    pub fn fleet(&self) -> &Arc<DesignedFleet> {
        &self.fleet
    }

    /// Replaces the engine's slot map with `allocation` — the primitive
    /// behind slot-allocation sweep scenarios. All runtime phases and slot
    /// grants are cleared (call after [`CoSimulation::reset`], before
    /// injecting disturbances); the designed thresholds and the configured
    /// threshold scale are preserved.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the allocation needs more
    /// static slots than the bus offers.
    pub fn set_allocation(&mut self, allocation: &SlotAllocation) -> Result<()> {
        let slot_count = allocation.slot_count();
        if slot_count > self.bus_config.static_slot_count {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "allocation needs {slot_count} static slots but the bus offers only {}",
                    self.bus_config.static_slot_count
                ),
            });
        }
        for (index, slot) in self.slot_scratch.iter_mut().enumerate() {
            *slot = allocation.slot_of(index);
        }
        self.runtime.set_allocation(&self.slot_scratch, slot_count)
    }

    /// Replaces the engine's FlexRay configuration — the primitive behind
    /// bus-configuration sweep scenarios (cycle length, static-segment
    /// size). A no-op when `config` already matches the active
    /// configuration; otherwise the bus is rebuilt from scratch (every frame
    /// back in the dynamic segment, statistics cleared), so call it right
    /// after [`CoSimulation::reset`] and follow with
    /// [`CoSimulation::set_allocation`] to (re)validate the slot map against
    /// the new static segment.
    ///
    /// # Errors
    ///
    /// Propagates [`cps_flexray::FlexRayConfig::validate`] failures and
    /// frame-registration errors; the previous bus stays active on error.
    pub fn set_bus_config(&mut self, config: FlexRayConfig) -> Result<()> {
        if config == self.bus_config {
            return Ok(());
        }
        let mut bus = FlexRayBus::new(config)?;
        register_fleet_frames(&mut bus, self.fleet.apps())?;
        // The rebuilt bus inherits the engine's fault model and logging flag.
        bus.set_fault_model(self.fault)?;
        bus.set_logging(self.bus.logging());
        self.bus = bus;
        self.bus_config = config;
        Ok(())
    }

    /// The bus configuration the engine currently runs on (the fleet's
    /// design unless overridden by [`CoSimulation::set_bus_config`]).
    pub fn bus_config(&self) -> FlexRayConfig {
        self.bus_config
    }

    /// Rewinds the engine to time zero without reconstruction: every kernel
    /// returns to the origin, the runtime releases all slots, the bus log and
    /// counters are cleared and every frame returns to the dynamic segment.
    /// The fault and degradation layers rewind with it — the bus reseeds its
    /// fault RNG from the installed model, the degradation RNG reseeds from
    /// its config, and all loss/hold trackers are zeroed — so a
    /// reset-and-rerun under faults replays the fresh run bit for bit. The
    /// configured threshold scale, fault model and degradation config are
    /// preserved.
    ///
    /// # Errors
    ///
    /// Propagates bus errors (none occur for frames the engine registered).
    pub fn reset(&mut self) -> Result<()> {
        for kernel in &mut self.kernels {
            kernel.reset();
        }
        self.runtime.reset();
        self.bus.reset();
        for index in 0..self.fleet.app_count() {
            self.bus.reassign_frame(index as u32 + 1, Segment::Dynamic)?;
        }
        self.reseed_degradation();
        self.prev_losses.fill(0);
        self.consecutive_losses.fill(0);
        self.max_consecutive_losses.fill(0);
        self.held_periods.fill(0);
        Ok(())
    }

    /// Installs (or removes, with `None`) the bus-side fault model. The
    /// bus's fault RNG reseeds from the model, and the model survives
    /// [`CoSimulation::reset`] and [`CoSimulation::set_bus_config`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any model probability is
    /// outside `[0, 1]`.
    pub fn set_fault_model(&mut self, model: Option<FaultModel>) -> Result<()> {
        self.bus.set_fault_model(model)?;
        self.fault = model;
        Ok(())
    }

    /// The currently installed bus-side fault model, if any.
    pub fn fault_model(&self) -> Option<FaultModel> {
        self.fault
    }

    /// Installs (or removes, with `None`) the engine-side degradation
    /// (sensor noise, mode-switch storms). The degradation RNG reseeds from
    /// the config, which survives [`CoSimulation::reset`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a negative/non-finite noise
    /// amplitude or an invalid storm.
    pub fn set_degradation(&mut self, degradation: Option<DegradationConfig>) -> Result<()> {
        if let Some(config) = &degradation {
            config.validate()?;
        }
        self.degradation = degradation;
        self.reseed_degradation();
        Ok(())
    }

    /// The currently installed degradation config, if any.
    pub fn degradation(&self) -> Option<DegradationConfig> {
        self.degradation
    }

    fn reseed_degradation(&mut self) {
        self.degradation_rng = SimRng::seeded(self.degradation.map(|d| d.seed).unwrap_or(0));
    }

    /// Scales every application's switching threshold `E_th` by `scale`
    /// (relative to the designed value) — the primitive behind threshold
    /// sweeps. The scale survives [`CoSimulation::reset`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `scale` is not positive.
    pub fn set_threshold_scale(&mut self, scale: f64) -> Result<()> {
        if !(scale > 0.0) || !scale.is_finite() {
            return Err(CoreError::InvalidConfig {
                reason: format!("threshold scale must be positive and finite, got {scale}"),
            });
        }
        let CoSimulation { fleet, runtime, .. } = self;
        for (index, app) in fleet.apps().iter().enumerate() {
            runtime.set_threshold(index, app.spec().threshold * scale)?;
        }
        self.threshold_scale = scale;
        Ok(())
    }

    /// Injects each application's configured disturbance at the current time
    /// (the case study applies all of them at t = 0).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn inject_disturbances(&mut self) -> Result<()> {
        self.inject_disturbances_scaled(1.0)
    }

    /// Injects each application's configured disturbance scaled by `scale` —
    /// the primitive behind Monte-Carlo disturbance sweeps.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn inject_disturbances_scaled(&mut self, scale: f64) -> Result<()> {
        let CoSimulation { fleet, kernels, .. } = self;
        for (app, kernel) in fleet.apps().iter().zip(kernels) {
            kernel.inject_disturbance_scaled(&app.spec().disturbance, scale)?;
        }
        Ok(())
    }

    /// Injects one disturbance vector per application (scaled by `scale`),
    /// overriding the designed disturbances — the primitive behind per-app
    /// disturbance-vector scenarios.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the number of vectors does
    /// not match the fleet; per-vector dimension errors are propagated.
    pub fn inject_disturbance_vectors(
        &mut self,
        disturbances: &[Vec<f64>],
        scale: f64,
    ) -> Result<()> {
        if disturbances.len() != self.kernels.len() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "expected {} disturbance vectors, got {}",
                    self.kernels.len(),
                    disturbances.len()
                ),
            });
        }
        for (kernel, disturbance) in self.kernels.iter_mut().zip(disturbances) {
            kernel.inject_disturbance_scaled(disturbance, scale)?;
        }
        Ok(())
    }

    /// Advances the engine by one sampling period: applies a due mode-switch
    /// storm, captures the plant-state norms, lets the runtime grant slots
    /// on the (possibly noise-corrupted) norms, mirrors the control traffic
    /// onto the bus, advances the bus through the period, and finally steps
    /// every kernel — the granted mode's closed loop when its command
    /// arrived, hold-last-command when the fault layer lost the frame.
    /// Allocation-free on a warm engine.
    ///
    /// With no fault model and no degradation installed this is
    /// step-for-step identical to the original nominal loop: the bus outcome
    /// depends only on the reassign/queue calls made before it advances, and
    /// no kernel state is read between queueing and stepping.
    fn advance_period(&mut self, step: usize) -> Result<()> {
        let time = step as f64 * self.period;
        if let Some(storm) = self.degradation.and_then(|d| d.storm) {
            let interval_steps = ((storm.interval / self.period).round() as usize).max(1);
            if step > 0 && step % interval_steps == 0 {
                self.inject_disturbances_scaled(storm.scale)?;
            }
        }
        for (norm, kernel) in self.norms.iter_mut().zip(&self.kernels) {
            *norm = kernel.state_norm();
        }
        // Split the borrows: the runtime writes into the mode scratch. The
        // runtime decides on what the sensors report — the true norms, or
        // under degradation norms corrupted by uniform measurement noise
        // (one draw per application per period whatever the amplitude, so
        // the draw sequence is data-independent). The true norms still drive
        // the plants and the recorded traces.
        let CoSimulation { runtime, norms, noisy_norms, modes, degradation, degradation_rng, .. } =
            self;
        if let Some(config) = degradation {
            noisy_norms.clear();
            for norm in norms.iter() {
                let corrupted = norm + config.sensor_noise * degradation_rng.next_signed_unit();
                noisy_norms.push(corrupted.max(0.0));
            }
            runtime.step_into(noisy_norms, modes)?;
        } else {
            runtime.step_into(norms, modes)?;
        }

        for (index, mode) in self.modes.iter().enumerate() {
            // Mirror the control message onto the bus: TT users own their
            // allocated static slot for this period, ET users contend in
            // the dynamic segment.
            let frame_id = index as u32 + 1;
            let segment = match mode {
                CommunicationMode::TimeTriggered => {
                    // The runtime grants TT mode only together with a slot,
                    // so a grant without a held slot is an engine fault.
                    let slot = self
                        .runtime
                        .slot_holders()
                        .iter()
                        .position(|holder| *holder == Some(index))
                        .ok_or_else(|| CoreError::InvalidConfig {
                            reason: format!(
                                "application {index} was granted TT mode without holding \
                                 a static slot"
                            ),
                        })?;
                    Segment::Static { slot }
                }
                CommunicationMode::EventTriggered => Segment::Dynamic,
            };
            // Reassignment can fail only transiently when two apps swap a
            // slot within one period; fall back to the dynamic segment.
            if self.bus.reassign_frame(frame_id, segment).is_err() {
                self.bus.reassign_frame(frame_id, Segment::Dynamic)?;
            }
            self.bus.queue_message(frame_id, time)?;
        }
        self.bus.advance_until(time + self.period);

        // Step every loop, now that the bus has decided each frame's fate:
        // a fresh loss of this application's frame means the actuator never
        // received the new command — the plant evolves open loop under the
        // held previous input.
        for (index, mode) in self.modes.iter().enumerate() {
            let losses = self.bus.losses_of(index as u32 + 1);
            if losses > self.prev_losses[index] {
                self.prev_losses[index] = losses;
                self.held_periods[index] += 1;
                self.consecutive_losses[index] += 1;
                if self.consecutive_losses[index] > self.max_consecutive_losses[index] {
                    self.max_consecutive_losses[index] = self.consecutive_losses[index];
                }
                self.kernels[index].step_hold();
            } else {
                self.consecutive_losses[index] = 0;
                self.kernels[index].step(*mode);
            }
        }
        Ok(())
    }

    /// Runs the co-simulation for `duration` seconds and returns the traces.
    ///
    /// This is [`CoSimulation::run_metrics_into`]'s loop with the bus log
    /// kept on and every period recorded: each application's verdicts
    /// (response time, hold and loss counters) are those of the run's
    /// [`RunMetrics`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] if `duration` is not positive and
    ///   finite.
    /// * Propagates simulator, runtime and bus errors.
    pub fn run(&mut self, duration: f64) -> Result<CoSimTrace> {
        let steps = self.step_count(duration)?;
        let app_count = self.fleet.app_count();
        // Not `vec![Vec::with_capacity(steps); n]`: cloning a Vec drops its
        // capacity, which would leave all but one buffer unsized.
        let mut points: Vec<Vec<TracePoint>> =
            (0..app_count).map(|_| Vec::with_capacity(steps)).collect();
        let mut occupancy = Vec::with_capacity(steps);
        let mut metrics = RunMetrics::default();
        self.run_loop(steps, &mut metrics, |engine, step| {
            let time = step as f64 * engine.period;
            occupancy.push(engine.runtime.slot_holders().to_vec());
            let samples = engine.norms.iter().zip(&engine.modes);
            for (series, (&norm, &mode)) in points.iter_mut().zip(samples) {
                series.push(TracePoint { time, norm, mode });
            }
        })?;

        let traces = self
            .fleet
            .apps()
            .iter()
            .zip(points)
            .enumerate()
            .map(|(index, (app, series))| AppTrace {
                name: app.name().to_string(),
                points: series,
                deadline: app.spec().deadline,
                response_time: metrics.response_times[index],
                held_periods: metrics.held_periods[index],
                max_consecutive_losses: metrics.max_consecutive_losses[index],
            })
            .collect();
        let bus_latencies = (0..app_count)
            .map(|index| LatencyStats::from_latencies(&self.bus.latencies_of(index as u32 + 1)))
            .collect();
        Ok(CoSimTrace {
            apps: traces,
            slot_occupancy: occupancy,
            period: self.period,
            bus_statistics: metrics.bus,
            bus_latencies,
        })
    }

    /// Runs the co-simulation for `duration` seconds, collecting only the
    /// online summary in `metrics` — no trace is materialised, the bus log
    /// is suspended for the duration, and on a warm engine/metrics pair the
    /// whole run allocates nothing. The campaign and the scenario batch run
    /// every scenario here; the trajectory it simulates is the one
    /// [`CoSimulation::run`] records, bit for bit.
    ///
    /// The hold/loss counters reported are those accumulated since the last
    /// [`CoSimulation::reset`] (reset before each scenario to make them
    /// per-run).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] if `duration` is not positive and
    ///   finite.
    /// * Propagates simulator, runtime and bus errors (the bus logging flag
    ///   is restored either way).
    pub fn run_metrics_into(&mut self, duration: f64, metrics: &mut RunMetrics) -> Result<()> {
        let steps = self.step_count(duration)?;
        let logging = self.bus.logging();
        self.bus.set_logging(false);
        let outcome = self.run_loop(steps, metrics, |_, _| {});
        self.bus.set_logging(logging);
        outcome
    }

    /// Whole sampling periods covering `duration` seconds.
    fn step_count(&self, duration: f64) -> Result<usize> {
        if !(duration > 0.0) || !duration.is_finite() {
            return Err(CoreError::InvalidConfig {
                reason: format!("duration must be positive and finite, got {duration}"),
            });
        }
        Ok((duration / self.period).ceil() as usize)
    }

    /// The one run loop: advances `steps` periods, folds each period into
    /// `metrics` online and hands the engine to `record` after it.
    fn run_loop(
        &mut self,
        steps: usize,
        metrics: &mut RunMetrics,
        mut record: impl FnMut(&Self, usize),
    ) -> Result<()> {
        let app_count = self.fleet.app_count();
        metrics.begin(app_count, self.period);
        metrics.steps = steps;
        // Settling candidate per application: one past its last threshold
        // violation, so a violation in the final period means the run never
        // settled (the semantics of `cps_control::settling_index`).
        self.settle_from.fill(0);
        for step in 0..steps {
            self.advance_period(step)?;
            for index in 0..app_count {
                let norm = self.norms[index];
                let threshold =
                    self.fleet.apps()[index].spec().threshold * self.threshold_scale;
                if norm > threshold {
                    self.settle_from[index] = step + 1;
                }
                if norm > metrics.peak_norms[index] {
                    metrics.peak_norms[index] = norm;
                }
                if self.modes[index] == CommunicationMode::TimeTriggered {
                    metrics.tt_periods[index] += 1;
                }
            }
            record(self, step);
        }

        for (index, app) in self.fleet.apps().iter().enumerate() {
            let response = (self.settle_from[index] < steps)
                .then(|| self.settle_from[index] as f64 * self.period);
            metrics.response_times[index] = response;
            metrics.deadlines_met[index] =
                response.map(|t| t <= app.spec().deadline).unwrap_or(false);
            metrics.held_periods[index] = self.held_periods[index];
            metrics.max_consecutive_losses[index] = self.max_consecutive_losses[index];
        }
        metrics.bus = self.bus.statistics();
        Ok(())
    }

    /// Number of TT slots managed by the runtime (follows the allocation
    /// set with [`CoSimulation::set_allocation`]).
    pub fn slot_count(&self) -> usize {
        self.runtime.slot_holders().len()
    }

    /// Number of applications in the fleet.
    pub fn app_count(&self) -> usize {
        self.fleet.app_count()
    }

    /// The currently configured threshold scale (1.0 = as designed).
    pub fn threshold_scale(&self) -> f64 {
        self.threshold_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study;

    #[test]
    fn case_study_cosim_meets_all_deadlines() {
        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let allocation =
            cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default()).unwrap();
        let mut cosim =
            CoSimulation::new(apps, &allocation, FlexRayConfig::paper_case_study()).unwrap();
        cosim.inject_disturbances().unwrap();
        let trace = cosim.run(12.0).unwrap();
        assert!(trace.all_deadlines_met(), "traces: {:?}", summary(&trace));
        assert_eq!(trace.apps.len(), 6);
        assert!(!trace.slot_occupancy.is_empty());
        // At least one application actually used TT communication.
        assert!(trace
            .apps
            .iter()
            .any(|a| a.points.iter().any(|p| p.mode == CommunicationMode::TimeTriggered)));
        // The bus transported traffic in both segments.
        assert!(trace.bus_statistics.static_transmissions > 0);
        assert!(trace.bus_statistics.dynamic_transmissions > 0);
    }

    fn summary(trace: &CoSimTrace) -> Vec<(String, Option<f64>, f64)> {
        trace.apps.iter().map(|a| (a.name.clone(), a.response_time, a.deadline)).collect()
    }

    #[test]
    fn reset_and_rerun_reproduces_the_trace() {
        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let allocation =
            cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default()).unwrap();
        let mut cosim =
            CoSimulation::new(apps, &allocation, FlexRayConfig::paper_case_study()).unwrap();
        cosim.inject_disturbances().unwrap();
        let first = cosim.run(2.0).unwrap();

        cosim.reset().unwrap();
        cosim.inject_disturbances().unwrap();
        let second = cosim.run(2.0).unwrap();

        assert_eq!(first.apps, second.apps);
        assert_eq!(first.slot_occupancy, second.slot_occupancy);
        assert_eq!(first.bus_statistics, second.bus_statistics);
    }

    #[test]
    fn scaled_disturbances_and_thresholds() {
        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let allocation =
            cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default()).unwrap();
        let mut cosim =
            CoSimulation::new(apps, &allocation, FlexRayConfig::paper_case_study()).unwrap();
        assert_eq!(cosim.threshold_scale(), 1.0);
        assert_eq!(cosim.app_count(), 6);

        // A vanishing disturbance never leaves the steady state.
        cosim.inject_disturbances_scaled(0.0).unwrap();
        let trace = cosim.run(1.0).unwrap();
        assert!(trace
            .apps
            .iter()
            .all(|a| a.points.iter().all(|p| p.mode == CommunicationMode::EventTriggered)));

        // A huge threshold scale keeps every loop in ET despite a real
        // disturbance.
        cosim.reset().unwrap();
        cosim.set_threshold_scale(1e6).unwrap();
        cosim.inject_disturbances().unwrap();
        let trace = cosim.run(1.0).unwrap();
        assert!(trace
            .apps
            .iter()
            .all(|a| a.points.iter().all(|p| p.mode == CommunicationMode::EventTriggered)));
        assert!(cosim.set_threshold_scale(0.0).is_err());
    }

    #[test]
    fn bus_config_override_rebuilds_and_restores() {
        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let allocation =
            cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default()).unwrap();
        let mut cosim =
            CoSimulation::new(apps, &allocation, FlexRayConfig::paper_case_study()).unwrap();
        assert_eq!(cosim.bus_config(), FlexRayConfig::paper_case_study());

        cosim.inject_disturbances().unwrap();
        let nominal = cosim.run(1.0).unwrap();

        // Override with a wider static segment, rerun, then restore: the
        // restored engine reproduces the nominal trace bit for bit.
        let wide = FlexRayConfig {
            cycle_length: 0.010,
            static_slot_count: 10,
            ..FlexRayConfig::paper_case_study()
        };
        cosim.reset().unwrap();
        cosim.set_bus_config(wide).unwrap();
        assert_eq!(cosim.bus_config(), wide);
        cosim.set_allocation(&allocation).unwrap();
        cosim.inject_disturbances().unwrap();
        let overridden = cosim.run(1.0).unwrap();
        // The trajectory is bus-independent; the bus statistics are not.
        assert_eq!(nominal.apps, overridden.apps);
        assert!(overridden.bus_statistics.cycles < nominal.bus_statistics.cycles);

        cosim.reset().unwrap();
        cosim.set_bus_config(FlexRayConfig::paper_case_study()).unwrap();
        cosim.set_allocation(&allocation).unwrap();
        cosim.inject_disturbances().unwrap();
        let restored = cosim.run(1.0).unwrap();
        assert_eq!(nominal.apps, restored.apps);
        assert_eq!(nominal.bus_statistics, restored.bus_statistics);

        // An invalid configuration is rejected and the active bus is kept.
        let invalid = FlexRayConfig { cycle_length: -1.0, ..FlexRayConfig::paper_case_study() };
        assert!(cosim.set_bus_config(invalid).is_err());
        assert_eq!(cosim.bus_config(), FlexRayConfig::paper_case_study());
        // An allocation wider than the active static segment is rejected.
        let narrow = FlexRayConfig {
            static_slot_count: 1,
            ..FlexRayConfig::paper_case_study()
        };
        cosim.reset().unwrap();
        cosim.set_bus_config(narrow).unwrap();
        if allocation.slot_count() > 1 {
            assert!(cosim.set_allocation(&allocation).is_err());
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let allocation =
            cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default()).unwrap();
        // Empty application list.
        assert!(CoSimulation::new(vec![], &allocation, FlexRayConfig::paper_case_study()).is_err());
        // Bus with too few static slots.
        let tiny_bus = FlexRayConfig {
            cycle_length: 0.005,
            static_slot_count: 1,
            static_slot_length: 0.0002,
            minislot_count: 60,
            minislot_length: 0.00005,
        };
        if allocation.slot_count() > 1 {
            assert!(CoSimulation::new(apps.clone(), &allocation, tiny_bus).is_err());
        }
        // Durations that are not positive and finite, on both entry points.
        let mut cosim =
            CoSimulation::new(apps, &allocation, FlexRayConfig::paper_case_study()).unwrap();
        let mut metrics = RunMetrics::default();
        for duration in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(cosim.run(duration), Err(CoreError::InvalidConfig { .. })),
                "run({duration}) must be rejected"
            );
            assert!(
                matches!(
                    cosim.run_metrics_into(duration, &mut metrics),
                    Err(CoreError::InvalidConfig { .. })
                ),
                "run_metrics_into({duration}) must be rejected"
            );
        }
    }
}
