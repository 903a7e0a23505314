//! A traced replay of one campaign scenario through the public
//! `FlexRayBus`, `AllocationRuntime` and `StepKernel` calls.
//!
//! `CoSimulation::advance_period` is private, so the traced run cannot wrap
//! spans around its parts. This module repeats its call sequence period by
//! period with spans around each layer, and [`ReplayMetrics::matches`] is
//! the guard: every traced scenario must reproduce the engine's own
//! `run_metrics_into` result bit for bit, or the run aborts. The layer
//! shares then describe the same program the campaign runs, and an engine
//! change that the replay does not follow fails loudly.

use crate::trace::Tracer;
use cps_control::{CommunicationMode, StepKernel};
use cps_core::{
    AllocationRuntime, CampaignScenario, DegradationConfig, DesignedFleet, RunMetrics, RuntimeApp,
};
use cps_flexray::{BusStatistics, FlexRayBus, Frame, Segment, SimRng};
use std::sync::Arc;

/// Minislots of every application's control frame (the engine's value).
const CONTROL_FRAME_PAYLOAD: usize = 2;

fn err(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// What one replayed scenario produced: the public fields of `RunMetrics`.
#[derive(Debug, Clone, Default)]
pub struct ReplayMetrics {
    pub steps: usize,
    pub response_times: Vec<Option<f64>>,
    pub deadlines_met: Vec<bool>,
    pub peak_norms: Vec<f64>,
    pub tt_periods: Vec<u64>,
    pub held_periods: Vec<u64>,
    pub max_consecutive_losses: Vec<u64>,
    pub bus: BusStatistics,
    /// TT grants demoted to the dynamic segment because the slot was still
    /// held by another frame (the engine's silent `reassign_frame`
    /// fallback).
    pub demotions: u64,
}

impl ReplayMetrics {
    /// Bit-for-bit agreement with the engine's metrics.
    pub fn matches(&self, engine: &RunMetrics) -> bool {
        let bits = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        let opt_bits = |a: &[Option<f64>], b: &[Option<f64>]| {
            a.iter()
                .map(|x| x.map(f64::to_bits))
                .eq(b.iter().map(|x| x.map(f64::to_bits)))
        };
        self.steps == engine.steps
            && opt_bits(&self.response_times, &engine.response_times)
            && self.deadlines_met == engine.deadlines_met
            && bits(&self.peak_norms, &engine.peak_norms)
            && self.tt_periods == engine.tt_periods
            && self.held_periods == engine.held_periods
            && self.max_consecutive_losses == engine.max_consecutive_losses
            && self.bus == engine.bus
    }
}

/// The replay engine: the same parts `CoSimulation` owns, driven from here.
pub struct Replay {
    fleet: Arc<DesignedFleet>,
    kernels: Vec<StepKernel>,
    runtime: AllocationRuntime,
    bus: FlexRayBus,
    norms: Vec<f64>,
    noisy_norms: Vec<f64>,
    modes: Vec<CommunicationMode>,
    lost: Vec<bool>,
    prev_losses: Vec<u64>,
    consecutive_losses: Vec<u64>,
    candidates: Vec<usize>,
    degradation: Option<DegradationConfig>,
    degradation_rng: SimRng,
}

impl Replay {
    pub fn new(fleet: Arc<DesignedFleet>) -> Result<Self, String> {
        let mut bus = FlexRayBus::new(fleet.bus_config()).map_err(err)?;
        let mut kernels = Vec::new();
        let mut runtime_apps = Vec::new();
        for (index, app) in fleet.apps().iter().enumerate() {
            bus.register_frame(
                Frame::dynamic(index as u32 + 1, app.name(), CONTROL_FRAME_PAYLOAD).map_err(err)?,
            )
            .map_err(err)?;
            kernels.push(app.kernel().map_err(err)?);
            runtime_apps.push(RuntimeApp {
                name: app.name().to_string(),
                threshold: app.spec().threshold,
                slot: fleet.allocation().slot_of(index),
                priority: app.spec().deadline,
            });
        }
        let runtime = AllocationRuntime::new(runtime_apps, fleet.slot_count()).map_err(err)?;
        let n = fleet.app_count();
        Ok(Replay {
            fleet,
            kernels,
            runtime,
            bus,
            norms: vec![0.0; n],
            noisy_norms: Vec::with_capacity(n),
            modes: Vec::with_capacity(n),
            lost: vec![false; n],
            prev_losses: vec![0; n],
            consecutive_losses: vec![0; n],
            candidates: vec![0; n],
            degradation: None,
            degradation_rng: SimRng::seeded(0),
        })
    }

    /// Replays `scenario` (the campaign's per-scenario set-up followed by
    /// `run_metrics_into`), recording spans under request id `request`.
    pub fn run(
        &mut self,
        scenario: &CampaignScenario,
        tracer: &mut Tracer,
        request: u64,
    ) -> Result<ReplayMetrics, String> {
        tracer.begin("core.scenario", request);
        let result = self.run_inner(scenario, tracer, request);
        tracer.end();
        result
    }

    fn run_inner(
        &mut self,
        scenario: &CampaignScenario,
        tracer: &mut Tracer,
        request: u64,
    ) -> Result<ReplayMetrics, String> {
        let n = self.fleet.app_count();
        let period = self.fleet.period();
        // CoSimulation::reset, then the campaign's per-scenario set-up.
        for kernel in &mut self.kernels {
            kernel.reset();
        }
        self.runtime.reset();
        self.bus.reset();
        for index in 0..n {
            self.bus
                .reassign_frame(index as u32 + 1, Segment::Dynamic)
                .map_err(err)?;
        }
        self.prev_losses.fill(0);
        self.consecutive_losses.fill(0);
        for (index, app) in self.fleet.apps().iter().enumerate() {
            self.runtime
                .set_threshold(index, app.spec().threshold * scenario.threshold_scale)
                .map_err(err)?;
        }
        self.bus.set_fault_model(scenario.fault).map_err(err)?;
        self.degradation = scenario.degradation;
        self.degradation_rng = SimRng::seeded(self.degradation.map_or(0, |d| d.seed));
        for (app, kernel) in self.fleet.apps().iter().zip(&mut self.kernels) {
            kernel
                .inject_disturbance_scaled(&app.spec().disturbance, scenario.disturbance_scale)
                .map_err(err)?;
        }

        // run_metrics_into.
        let steps = (scenario.duration / period).ceil() as usize;
        let mut out = ReplayMetrics {
            steps,
            response_times: vec![None; n],
            deadlines_met: vec![false; n],
            peak_norms: vec![0.0; n],
            tt_periods: vec![0; n],
            held_periods: vec![0; n],
            max_consecutive_losses: vec![0; n],
            ..ReplayMetrics::default()
        };
        self.candidates.fill(0);
        let logging = self.bus.logging();
        self.bus.set_logging(false);
        for step in 0..steps {
            tracer.begin("core.period", request);
            let advanced = self.advance_period(step, &mut out, tracer, request);
            if let Err(error) = advanced {
                tracer.end();
                self.bus.set_logging(logging);
                return Err(error);
            }
            for index in 0..n {
                let norm = self.norms[index];
                let threshold =
                    self.fleet.apps()[index].spec().threshold * scenario.threshold_scale;
                if norm > threshold {
                    self.candidates[index] = step + 1;
                }
                if norm > out.peak_norms[index] {
                    out.peak_norms[index] = norm;
                }
                if self.modes[index] == CommunicationMode::TimeTriggered {
                    out.tt_periods[index] += 1;
                }
            }
            tracer.end();
        }
        self.bus.set_logging(logging);
        for index in 0..n {
            let response =
                (self.candidates[index] < steps).then(|| self.candidates[index] as f64 * period);
            out.response_times[index] = response;
            out.deadlines_met[index] =
                response.is_some_and(|t| t <= self.fleet.apps()[index].spec().deadline);
        }
        out.bus = self.bus.statistics();
        Ok(out)
    }

    /// One period of `CoSimulation::advance_period`, with a span around each
    /// layer's calls. The loss bookkeeping runs before the kernel steps
    /// (not interleaved with them, as in the engine) so the kernel span
    /// holds only kernel calls; bus loss counters do not depend on kernel
    /// state, so the order changes no result.
    fn advance_period(
        &mut self,
        step: usize,
        out: &mut ReplayMetrics,
        tracer: &mut Tracer,
        request: u64,
    ) -> Result<(), String> {
        let period = self.fleet.period();
        let time = step as f64 * period;
        if let Some(storm) = self.degradation.and_then(|d| d.storm) {
            let interval_steps = ((storm.interval / period).round() as usize).max(1);
            if step > 0 && step.is_multiple_of(interval_steps) {
                for (app, kernel) in self.fleet.apps().iter().zip(&mut self.kernels) {
                    kernel
                        .inject_disturbance_scaled(&app.spec().disturbance, storm.scale)
                        .map_err(err)?;
                }
            }
        }

        tracer.begin("control.state_norm", request);
        for (norm, kernel) in self.norms.iter_mut().zip(&self.kernels) {
            *norm = kernel.state_norm();
        }
        tracer.end();

        let decided = if let Some(config) = self.degradation {
            self.noisy_norms.clear();
            for norm in &self.norms {
                let corrupted =
                    norm + config.sensor_noise * self.degradation_rng.next_signed_unit();
                self.noisy_norms.push(corrupted.max(0.0));
            }
            tracer.span("core.runtime_step", request, || {
                self.runtime.step_into(&self.noisy_norms, &mut self.modes)
            })
        } else {
            tracer.span("core.runtime_step", request, || {
                self.runtime.step_into(&self.norms, &mut self.modes)
            })
        };
        decided.map_err(err)?;

        tracer.begin("flexray.reassign_queue", request);
        let mut queued = Ok(());
        for (index, mode) in self.modes.iter().enumerate() {
            let frame_id = index as u32 + 1;
            let segment = match mode {
                CommunicationMode::TimeTriggered => Segment::Static {
                    slot: self
                        .runtime
                        .slot_holders()
                        .iter()
                        .position(|holder| *holder == Some(index))
                        .unwrap_or(0),
                },
                CommunicationMode::EventTriggered => Segment::Dynamic,
            };
            if self.bus.reassign_frame(frame_id, segment).is_err() {
                out.demotions += 1;
                if let Err(error) = self.bus.reassign_frame(frame_id, Segment::Dynamic) {
                    queued = Err(err(error));
                    break;
                }
            }
            if let Err(error) = self.bus.queue_message(frame_id, time) {
                queued = Err(err(error));
                break;
            }
        }
        tracer.end();
        queued?;
        tracer.span("flexray.advance_until", request, || {
            self.bus.advance_until(time + period)
        });

        for index in 0..self.modes.len() {
            let losses = self.bus.losses_of(index as u32 + 1);
            self.lost[index] = losses > self.prev_losses[index];
            if self.lost[index] {
                self.prev_losses[index] = losses;
                out.held_periods[index] += 1;
                self.consecutive_losses[index] += 1;
                out.max_consecutive_losses[index] =
                    out.max_consecutive_losses[index].max(self.consecutive_losses[index]);
            } else {
                self.consecutive_losses[index] = 0;
            }
        }
        tracer.begin("control.step", request);
        for ((kernel, mode), &lost) in self.kernels.iter_mut().zip(&self.modes).zip(&self.lost) {
            if lost {
                kernel.step_hold();
            } else {
                kernel.step(*mode);
            }
        }
        tracer.end();
        Ok(())
    }
}
