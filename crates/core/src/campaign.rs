//! Streaming Monte-Carlo robustness campaigns with statistical settling
//! guarantees.
//!
//! Where [`crate::ScenarioBatch`] returns one [`RunMetrics`] per listed
//! scenario, the campaign engine streams: a [`ScenarioSource`] *generates*
//! scenarios on demand from `(campaign seed, scenario index)`, the
//! workspace's worker pool runs them on reset-and-rerun [`CoSimulation`]
//! engines (the batch's pool and run loop), and each run's metrics fold
//! into online per-family aggregates ([`OnlineStats`] moments plus
//! [`P2Quantile`] sketches) — memory is O(workers · chunk size), never
//! O(scenarios), so a million-run campaign needs the same footprint as a
//! hundred-run one.
//!
//! # Determinism
//!
//! A campaign's [`CampaignStats`] are bit-identical for any worker count
//! and chunk size:
//!
//! * Per-scenario randomness comes from
//!   [`SimRng::derive`]`(campaign_seed, scenario_index)` — a pure function
//!   of the campaign seed and the scenario's position, never of worker
//!   identity or scheduling.
//! * The campaign runs in windows of 8 × workers fixed-size contiguous
//!   chunks. Each window is one call of the shared pool
//!   ([`crate::pool::map_claimed`]): workers claim its chunks one at a time
//!   and the pool returns their metrics in chunk order. The calling thread
//!   folds the window in strict scenario order before the next window
//!   starts, so the (order-dependent) P² sketches always see the same
//!   sequence.
//!
//! On top of the aggregates,
//! [`CampaignStats::settling_probabilities`] runs the statistical
//! model-checking readout: per scenario family, P(settle ≤ deadline) with an
//! exact Clopper–Pearson confidence interval ([`clopper_pearson`]).

use crate::cosim::{CoSimulation, DegradationConfig, ModeSwitchStorm, RunMetrics};
use crate::error::{CoreError, Result};
use crate::fleet::DesignedFleet;
use crate::pool::{map_claimed, worker_count};
use crate::scenario::check_scenario;
use crate::stats::{clopper_pearson, OnlineStats, P2Quantile};
use cps_flexray::{FaultModel, GilbertElliott, SimRng};
use cps_sched::CancelToken;
use std::ops::Range;
use std::sync::Arc;

/// Chunks per worker in one window: one [`map_claimed`] call whose results
/// are folded in order before the next window starts. With one or two
/// chunks per worker the barrier between windows slowed a 2-worker,
/// 12-chunk campaign by 3–7%; at eight it no longer shows.
const WINDOW_CHUNKS_PER_WORKER: usize = 8;

/// One generated campaign scenario: how this run differs from the designed
/// fleet. A plain value ([`Copy`]) so worker buffers can be reused without
/// allocation; unlike [`crate::ScenarioSpec`] there are no slot-map or
/// bus-config overrides — campaigns stress the *designed* configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignScenario {
    /// Scenario family (index into the source's
    /// [`ScenarioSource::families`]) this run aggregates into.
    pub family: usize,
    /// Factor applied to every application's designed disturbance.
    pub disturbance_scale: f64,
    /// Factor applied to every application's switching threshold `E_th`.
    pub threshold_scale: f64,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// Bus-side fault model for this run, if any.
    pub fault: Option<FaultModel>,
    /// Engine-side degradation for this run, if any.
    pub degradation: Option<DegradationConfig>,
}

/// A generator of campaign scenarios — the streaming replacement for a
/// materialised scenario list.
///
/// [`ScenarioSource::generate`] must *fully* describe scenario `index` from
/// its arguments alone: the runner hands it a derived `seed` that is a pure
/// function of the campaign seed and `index`, so the same source + campaign
/// seed always produces the same scenario stream regardless of which worker
/// asks.
pub trait ScenarioSource: Sync {
    /// Total number of scenarios in the campaign.
    fn total(&self) -> u64;

    /// Number of scenario families results are aggregated into.
    fn families(&self) -> usize;

    /// Human-readable label of family `family` (shown in reports).
    fn family_label(&self, family: usize) -> String;

    /// Writes scenario `index` into `scenario` (every field — the buffer is
    /// reused across calls and arrives reset to
    /// [`CampaignScenario::default`]). `seed` is
    /// [`SimRng::derive`]`(campaign_seed, index)`; derive all per-scenario
    /// randomness from it.
    fn generate(&self, index: u64, seed: u64, scenario: &mut CampaignScenario);
}

/// What one scenario contributes to the aggregates (kept [`Copy`] so chunk
/// buffers are flat).
#[derive(Debug, Clone, Copy)]
struct ScenarioMetrics {
    family: usize,
    /// Fleet-level settling time: the largest per-app response time, `None`
    /// if any application never settled.
    settling: Option<f64>,
    /// `true` if every application settled within its deadline.
    deadline_met: bool,
    /// Largest per-app peak norm.
    peak: f64,
    /// Fraction of application-periods spent in TT mode (static-slot
    /// utilisation).
    tt_share: f64,
}

/// Online aggregate of one scenario family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyStats {
    /// Label copied from the source.
    pub label: String,
    /// Scenarios aggregated into this family.
    pub scenarios: u64,
    /// Scenarios in which every application settled within the horizon.
    pub settled: u64,
    /// Scenarios in which every application settled within its deadline —
    /// the success count of the statistical model-checking readout.
    pub deadlines_met: u64,
    /// Moments of the fleet settling time (over settled scenarios only).
    pub settling_time: OnlineStats,
    /// P² sketch of the median settling time.
    pub settling_p50: P2Quantile,
    /// P² sketch of the 95th-percentile settling time.
    pub settling_p95: P2Quantile,
    /// Moments of the peak plant-state deviation.
    pub peak_norm: OnlineStats,
    /// P² sketch of the 95th-percentile peak deviation.
    pub peak_p95: P2Quantile,
    /// Moments of the TT (static-slot) utilisation share.
    pub tt_share: OnlineStats,
}

impl FamilyStats {
    fn new(label: String) -> Self {
        FamilyStats {
            label,
            scenarios: 0,
            settled: 0,
            deadlines_met: 0,
            settling_time: OnlineStats::new(),
            settling_p50: P2Quantile::new(0.5),
            settling_p95: P2Quantile::new(0.95),
            peak_norm: OnlineStats::new(),
            peak_p95: P2Quantile::new(0.95),
            tt_share: OnlineStats::new(),
        }
    }

    fn absorb(&mut self, metrics: &ScenarioMetrics) {
        self.scenarios += 1;
        if let Some(settling) = metrics.settling {
            self.settled += 1;
            self.settling_time.push(settling);
            self.settling_p50.push(settling);
            self.settling_p95.push(settling);
        }
        if metrics.deadline_met {
            self.deadlines_met += 1;
        }
        self.peak_norm.push(metrics.peak);
        self.peak_p95.push(metrics.peak);
        self.tt_share.push(metrics.tt_share);
    }
}

/// The statistical model-checking readout of one family:
/// P(settle ≤ deadline) with an exact binomial confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SettlingProbability {
    /// Family label.
    pub label: String,
    /// Scenarios observed.
    pub trials: u64,
    /// Scenarios in which every application settled within its deadline.
    pub successes: u64,
    /// Point estimate `successes / trials` (0 for an empty family).
    pub estimate: f64,
    /// Clopper–Pearson lower confidence bound.
    pub lower: f64,
    /// Clopper–Pearson upper confidence bound.
    pub upper: f64,
}

/// Aggregated result of a campaign: one [`FamilyStats`] per scenario family.
/// `PartialEq` compares every accumulator bit for bit — the determinism
/// tests use it to prove worker-count independence.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// Total scenarios aggregated.
    pub total: u64,
    /// Per-family aggregates, in the source's family order.
    pub families: Vec<FamilyStats>,
}

impl CampaignStats {
    fn new<S: ScenarioSource + ?Sized>(source: &S) -> Self {
        CampaignStats {
            total: 0,
            families: (0..source.families())
                .map(|family| FamilyStats::new(source.family_label(family)))
                .collect(),
        }
    }

    /// The statistical model-checking readout: per family,
    /// P(settle ≤ deadline) with a two-sided `1 − alpha` Clopper–Pearson
    /// confidence interval.
    pub fn settling_probabilities(&self, alpha: f64) -> Vec<SettlingProbability> {
        self.families
            .iter()
            .map(|family| {
                let (lower, upper) =
                    clopper_pearson(family.deadlines_met, family.scenarios, alpha);
                SettlingProbability {
                    label: family.label.clone(),
                    trials: family.scenarios,
                    successes: family.deadlines_met,
                    estimate: if family.scenarios == 0 {
                        0.0
                    } else {
                        family.deadlines_met as f64 / family.scenarios as f64
                    },
                    lower,
                    upper,
                }
            })
            .collect()
    }
}

/// The streaming campaign runner: an [`Arc`]-shared [`DesignedFleet`], a
/// campaign seed, and the worker/chunk geometry. See the module docs for
/// the determinism and memory contracts.
///
/// # Example
///
/// ```
/// use cps_core::{case_study, DesignedFleet, RobustnessCampaign, RobustnessSweep};
/// use cps_flexray::FlexRayConfig;
/// use std::sync::Arc;
///
/// let fleet = Arc::new(DesignedFleet::design(
///     case_study::derived_fleet_specs(),
///     &cps_sched::AllocatorConfig::default(),
///     FlexRayConfig::paper_case_study(),
/// )?);
/// let campaign = RobustnessCampaign::new(fleet, 42);
/// let sweep = RobustnessSweep::new(vec![0.0, 0.2], 4, 1.0);
/// let stats = campaign.run(&sweep)?;
/// assert_eq!(stats.total, 8);
/// let readout = stats.settling_probabilities(0.05);
/// assert_eq!(readout.len(), 2);
/// assert!(readout.iter().all(|p| p.lower <= p.estimate && p.estimate <= p.upper));
/// # Ok::<(), cps_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RobustnessCampaign {
    fleet: Arc<DesignedFleet>,
    seed: u64,
    workers: usize,
    chunk_size: u64,
    /// Cooperative cancellation checkpoint, polled at every scenario
    /// boundary on every worker; `None` never cancels.
    cancel: Option<CancelToken>,
}

impl RobustnessCampaign {
    /// Creates a campaign runner over a shared fleet design with the given
    /// campaign seed.
    pub fn new(fleet: Arc<DesignedFleet>, seed: u64) -> Self {
        RobustnessCampaign { fleet, seed, workers: 0, chunk_size: 64, cancel: None }
    }

    /// Sets the worker-thread count; `0` (the default) uses the machine's
    /// available parallelism. The campaign result is independent of this
    /// setting.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the scenarios-per-chunk granularity (clamped to at least 1).
    /// Smaller chunks smooth load balancing; the result is independent of
    /// this setting too.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: u64) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Installs (or clears) a cooperative cancellation token. Every worker
    /// polls it at each scenario boundary (a relaxed atomic load between
    /// simulations, never inside one); a fired token stops the campaign and
    /// surfaces as [`CoreError::Cancelled`] from
    /// [`RobustnessCampaign::run`]. The token never changes the aggregates a
    /// *completed* run returns.
    #[must_use]
    pub fn with_cancel_token(mut self, token: Option<CancelToken>) -> Self {
        self.cancel = token;
        self
    }

    /// Runs the campaign: streams every scenario of `source` through the
    /// worker pool and returns the per-family aggregates. Memory is
    /// O(workers · chunk size); no per-scenario result outlives its window.
    ///
    /// # Errors
    ///
    /// Returns the first error in scenario order (a scenario with invalid
    /// parameters, or an engine failure); later windows never start.
    pub fn run<S: ScenarioSource + ?Sized>(&self, source: &S) -> Result<CampaignStats> {
        self.run_with_progress(source, 0, |_| true)
    }

    /// Runs the campaign like [`RobustnessCampaign::run`], additionally
    /// invoking `progress` with the partial aggregates roughly every `every`
    /// scenarios (`0` never invokes it).
    ///
    /// The callback runs on the calling thread after a chunk has been
    /// folded in, so each snapshot it sees is a *prefix* of the final result
    /// in strict scenario order: totals are strictly monotone across calls,
    /// and the aggregates the completed run returns are bit-identical
    /// whether or not a callback was installed. A window's snapshots are
    /// delivered together once the window has run. Returning `false`
    /// cancels the campaign before the next window starts and the run
    /// surfaces [`CoreError::Cancelled`].
    ///
    /// # Errors
    ///
    /// As [`RobustnessCampaign::run`], plus [`CoreError::Cancelled`] when
    /// the callback asked to stop.
    pub fn run_with_progress<S, F>(
        &self,
        source: &S,
        every: u64,
        mut progress: F,
    ) -> Result<CampaignStats>
    where
        S: ScenarioSource + ?Sized,
        F: FnMut(&CampaignStats) -> bool,
    {
        let total = source.total();
        let mut stats = CampaignStats::new(source);
        if total == 0 {
            return Ok(stats);
        }
        if source.families() == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "a campaign source with scenarios must declare at least one family"
                    .to_string(),
            });
        }
        let chunk_size = self.chunk_size;
        let chunk_count = total.div_ceil(chunk_size);
        let workers =
            worker_count(self.workers, usize::try_from(chunk_count).unwrap_or(usize::MAX));
        let window = WINDOW_CHUNKS_PER_WORKER * workers;
        let mut next_emit = if every > 0 { every } else { u64::MAX };
        for window_start in (0..chunk_count).step_by(window) {
            let chunks = window_start..(window_start + window as u64).min(chunk_count);
            let window_metrics = map_claimed(
                workers,
                None,
                chunks.clone().collect(),
                || Ok((self.fleet.engine()?, RunMetrics::default())),
                |(engine, metrics), _, chunk| {
                    let start = chunk * chunk_size;
                    let scenarios = start..(start + chunk_size).min(total);
                    run_chunk(engine, metrics, source, self.seed, scenarios, self.cancel.as_ref())
                },
            )?;
            // Strict scenario order: the pool returns the window's chunks in
            // index order, and each chunk's metrics are in index order.
            for (chunk, chunk_metrics) in chunks.zip(window_metrics) {
                for metrics in &chunk_metrics {
                    stats.total += 1;
                    stats.families[metrics.family].absorb(metrics);
                }
                // Progress checkpoint: at most one snapshot per chunk (totals
                // stay strictly monotone across snapshots), never after the
                // last one.
                if stats.total >= next_emit && chunk + 1 < chunk_count {
                    while next_emit <= stats.total {
                        next_emit += every;
                    }
                    if !progress(&stats) {
                        return Err(CoreError::Cancelled);
                    }
                }
            }
        }
        Ok(stats)
    }
}

/// Runs one claimed chunk of `scenarios` on a worker's engine and returns
/// one [`ScenarioMetrics`] per scenario in index order, or the chunk's first
/// failure in scenario order (cancellation, invalid scenario parameters or
/// an engine error).
fn run_chunk<S: ScenarioSource + ?Sized>(
    engine: &mut CoSimulation,
    metrics: &mut RunMetrics,
    source: &S,
    campaign_seed: u64,
    scenarios: Range<u64>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<ScenarioMetrics>> {
    let families = source.families();
    let mut results =
        Vec::with_capacity(usize::try_from(scenarios.end - scenarios.start).unwrap_or(0));
    for index in scenarios {
        // Scenario-boundary cancellation checkpoint: a fired deadline token
        // ends the campaign with the first cut attributed in scenario order.
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(CoreError::Cancelled);
        }
        // A fresh default each time (Copy, stack-only): sources never see a
        // previous scenario's fields.
        let mut scenario = CampaignScenario::default();
        source.generate(index, SimRng::derive(campaign_seed, index), &mut scenario);
        results.push(run_scenario(engine, families, &scenario, metrics)?);
    }
    Ok(results)
}

/// Runs one generated scenario on a warm engine, after validating its
/// parameters. Between the engine's and the metrics' reused buffers, a warm
/// call allocates nothing.
fn run_scenario(
    engine: &mut CoSimulation,
    families: usize,
    scenario: &CampaignScenario,
    metrics: &mut RunMetrics,
) -> Result<ScenarioMetrics> {
    if scenario.family >= families {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "scenario family {} out of range (source declares {families} families)",
                scenario.family
            ),
        });
    }
    check_scenario(scenario.disturbance_scale, scenario.duration)?;
    engine.reset()?;
    engine.set_threshold_scale(scenario.threshold_scale)?;
    engine.set_fault_model(scenario.fault)?;
    engine.set_degradation(scenario.degradation)?;
    engine.inject_disturbances_scaled(scenario.disturbance_scale)?;
    engine.run_metrics_into(scenario.duration, metrics)?;
    Ok(ScenarioMetrics {
        family: scenario.family,
        settling: metrics.max_response_time(),
        deadline_met: metrics.all_deadlines_met(),
        peak: metrics.max_peak_norm(),
        tt_share: metrics.tt_share(),
    })
}

/// The standard fault-intensity sweep source: one scenario family per frame
/// drop probability, `scenarios_per_intensity` randomised runs each. Every
/// run draws its disturbance scale uniformly from
/// [`RobustnessSweep::disturbance_range`] and seeds its fault/degradation
/// RNGs from the per-scenario seed, so the whole campaign is a pure function
/// of the campaign seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessSweep {
    /// One family per drop probability (the fault-intensity axis of the
    /// statistical model-checking report).
    pub drop_probabilities: Vec<f64>,
    /// Randomised scenarios per intensity.
    pub scenarios_per_intensity: u64,
    /// Simulated duration per scenario in seconds.
    pub duration: f64,
    /// Uniform range the per-scenario disturbance scale is drawn from.
    pub disturbance_range: (f64, f64),
    /// Optional Gilbert–Elliott burst channel applied at every intensity.
    pub burst: Option<GilbertElliott>,
    /// Payload-corruption probability applied at every intensity.
    pub corruption_probability: f64,
    /// Optional dynamic-segment background contention (max minislots).
    pub max_background_minislots: Option<usize>,
    /// Sensor-noise amplitude of the degradation layer (0 = no degradation
    /// unless a storm is configured).
    pub sensor_noise: f64,
    /// Optional mode-switch storm applied to every scenario.
    pub storm: Option<ModeSwitchStorm>,
}

impl RobustnessSweep {
    /// A drop-probability sweep with nominal disturbances and no extra
    /// fault/degradation features.
    pub fn new(drop_probabilities: Vec<f64>, scenarios_per_intensity: u64, duration: f64) -> Self {
        RobustnessSweep {
            drop_probabilities,
            scenarios_per_intensity,
            duration,
            disturbance_range: (1.0, 1.0),
            burst: None,
            corruption_probability: 0.0,
            max_background_minislots: None,
            sensor_noise: 0.0,
            storm: None,
        }
    }

    /// Returns the sweep drawing each scenario's disturbance scale uniformly
    /// from `[lo, hi]`.
    #[must_use]
    pub fn with_disturbance_range(mut self, lo: f64, hi: f64) -> Self {
        self.disturbance_range = (lo, hi);
        self
    }

    /// Returns the sweep with a Gilbert–Elliott burst channel at every
    /// intensity.
    #[must_use]
    pub fn with_burst(mut self, burst: GilbertElliott) -> Self {
        self.burst = Some(burst);
        self
    }

    /// Returns the sweep with payload corruption at every intensity.
    #[must_use]
    pub fn with_corruption(mut self, corruption_probability: f64) -> Self {
        self.corruption_probability = corruption_probability;
        self
    }

    /// Returns the sweep with dynamic-segment background contention.
    #[must_use]
    pub fn with_dynamic_contention(mut self, max_background_minislots: usize) -> Self {
        self.max_background_minislots = Some(max_background_minislots);
        self
    }

    /// Returns the sweep with sensor noise on the runtime's mode decisions.
    #[must_use]
    pub fn with_sensor_noise(mut self, sensor_noise: f64) -> Self {
        self.sensor_noise = sensor_noise;
        self
    }

    /// Returns the sweep with a mode-switch storm in every scenario.
    #[must_use]
    pub fn with_storm(mut self, interval: f64, scale: f64) -> Self {
        self.storm = Some(ModeSwitchStorm { interval, scale });
        self
    }
}

impl ScenarioSource for RobustnessSweep {
    fn total(&self) -> u64 {
        self.drop_probabilities.len() as u64 * self.scenarios_per_intensity
    }

    fn families(&self) -> usize {
        self.drop_probabilities.len()
    }

    fn family_label(&self, family: usize) -> String {
        format!("drop p={:.3}", self.drop_probabilities[family])
    }

    fn generate(&self, index: u64, seed: u64, scenario: &mut CampaignScenario) {
        let family = (index / self.scenarios_per_intensity.max(1)) as usize;
        let drop_probability = self.drop_probabilities[family];
        let mut rng = SimRng::seeded(seed);
        let (lo, hi) = self.disturbance_range;
        scenario.family = family;
        scenario.disturbance_scale = lo + (hi - lo) * rng.next_unit();
        scenario.threshold_scale = 1.0;
        scenario.duration = self.duration;
        let mut fault = FaultModel::drops(rng.next_u64(), drop_probability)
            .with_corruption(self.corruption_probability);
        if let Some(burst) = self.burst {
            fault = fault.with_burst(burst);
        }
        if let Some(minislots) = self.max_background_minislots {
            fault = fault.with_dynamic_contention(minislots);
        }
        scenario.fault = Some(fault);
        scenario.degradation = (self.sensor_noise > 0.0 || self.storm.is_some()).then(|| {
            DegradationConfig {
                seed: rng.next_u64(),
                sensor_noise: self.sensor_noise,
                storm: self.storm,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study;
    use cps_flexray::FlexRayConfig;

    fn fleet() -> Arc<DesignedFleet> {
        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let allocation =
            cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default()).unwrap();
        Arc::new(
            DesignedFleet::new(apps, allocation, FlexRayConfig::paper_case_study()).unwrap(),
        )
    }

    #[test]
    fn nominal_campaign_settles_everywhere() {
        let campaign = RobustnessCampaign::new(fleet(), 7).with_workers(2);
        // 12 s horizon: the derived fleet's slowest app settles late (see
        // `case_study_cosim_meets_all_deadlines`).
        let sweep = RobustnessSweep::new(vec![0.0], 4, 12.0);
        let stats = campaign.run(&sweep).unwrap();
        assert_eq!(stats.total, 4);
        assert_eq!(stats.families.len(), 1);
        let family = &stats.families[0];
        assert_eq!(family.scenarios, 4);
        assert_eq!(family.settled, 4, "a fault-free campaign must settle");
        assert_eq!(family.deadlines_met, 4);
        assert!(family.settling_time.mean() > 0.0);
        assert!(family.tt_share.mean() > 0.0, "transients must use TT slots");
        let readout = stats.settling_probabilities(0.05);
        assert_eq!(readout[0].estimate, 1.0);
        assert_eq!(readout[0].upper, 1.0);
        assert!(readout[0].lower > 0.3, "4/4 successes bound P from below");
    }

    #[test]
    fn heavy_faults_degrade_the_settling_probability() {
        let campaign = RobustnessCampaign::new(fleet(), 21).with_workers(2);
        let sweep = RobustnessSweep::new(vec![0.0, 0.9], 3, 12.0).with_burst(GilbertElliott {
            degrade_probability: 0.3,
            recover_probability: 0.1,
            bad_drop_probability: 1.0,
        });
        let stats = campaign.run(&sweep).unwrap();
        let readout = stats.settling_probabilities(0.05);
        assert!(
            readout[1].successes < readout[0].successes
                || stats.families[1].settling_time.mean()
                    > stats.families[0].settling_time.mean(),
            "heavy bursty losses must hurt settling: {readout:?}"
        );
        assert_eq!(stats.families[1].scenarios, 3);
    }

    #[test]
    fn empty_and_invalid_sources() {
        let campaign = RobustnessCampaign::new(fleet(), 1);
        let empty = RobustnessSweep::new(vec![], 10, 1.0);
        let stats = campaign.run(&empty).unwrap();
        assert_eq!(stats.total, 0);
        assert!(stats.families.is_empty());

        struct Bad;
        impl ScenarioSource for Bad {
            fn total(&self) -> u64 {
                3
            }
            fn families(&self) -> usize {
                1
            }
            fn family_label(&self, _family: usize) -> String {
                "bad".to_string()
            }
            fn generate(&self, _index: u64, _seed: u64, scenario: &mut CampaignScenario) {
                scenario.duration = -1.0;
            }
        }
        assert!(campaign.run(&Bad).is_err());

        struct NoFamilies;
        impl ScenarioSource for NoFamilies {
            fn total(&self) -> u64 {
                1
            }
            fn families(&self) -> usize {
                0
            }
            fn family_label(&self, _family: usize) -> String {
                unreachable!()
            }
            fn generate(&self, _index: u64, _seed: u64, _scenario: &mut CampaignScenario) {}
        }
        assert!(campaign.run(&NoFamilies).is_err());
    }

    #[test]
    fn cancellation_stops_the_campaign_at_a_scenario_boundary() {
        let token = cps_sched::CancelToken::new();
        token.cancel();
        let campaign = RobustnessCampaign::new(fleet(), 5)
            .with_workers(2)
            .with_cancel_token(Some(token.clone()));
        let sweep = RobustnessSweep::new(vec![0.0], 8, 1.0);
        let err = campaign.run(&sweep).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "unexpected error: {err}");
        // An un-cancelled token leaves the aggregates bit-identical to a
        // token-free run.
        let fresh = cps_sched::CancelToken::new();
        let with_token = RobustnessCampaign::new(fleet(), 5)
            .with_workers(2)
            .with_cancel_token(Some(fresh))
            .run(&sweep)
            .unwrap();
        let without = RobustnessCampaign::new(fleet(), 5).with_workers(2).run(&sweep).unwrap();
        assert_eq!(with_token, without);
    }

    #[test]
    fn chunk_geometry_does_not_change_the_result() {
        let base = RobustnessCampaign::new(fleet(), 99).with_workers(2);
        let sweep = RobustnessSweep::new(vec![0.0, 0.3], 6, 1.0).with_sensor_noise(0.01);
        let coarse = base.clone().with_chunk_size(64).run(&sweep).unwrap();
        let fine = base.clone().with_chunk_size(1).run(&sweep).unwrap();
        let medium = base.with_chunk_size(5).run(&sweep).unwrap();
        assert_eq!(coarse, fine);
        assert_eq!(coarse, medium);
    }
}
