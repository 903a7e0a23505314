//! Batched, parallel multi-scenario co-simulation.
//!
//! The paper's design-space questions — how large a disturbance can the
//! fleet absorb, how tight can the thresholds be, how many TT slots does a
//! bigger fleet need — all reduce to running *many* co-simulations that
//! differ only in a few parameters. [`ScenarioBatch`] makes that a
//! first-class workload: it fans a list of [`ScenarioSpec`]s out over worker
//! threads, where each worker builds **one** [`CoSimulation`] and one
//! [`RunMetrics`] and then `reset()`s-and-reruns the engine per scenario, so
//! the controller design and bus construction costs are paid once per
//! thread rather than once per scenario. Each scenario runs through
//! [`CoSimulation::run_metrics_into`], the loop the robustness campaign
//! runs: no trace is recorded and every step inside is an allocation-free
//! kernel step.
//!
//! Determinism: each scenario is simulated from a full reset, so its
//! [`RunMetrics`] depend only on its spec. Workers claim scenarios one at a
//! time from the crate's work-claiming pool (the fleet designer's and the
//! campaign's pool too) and results are stored by input index, which makes
//! the output independent of the worker count — a property the test suite
//! asserts.

use crate::application::ControlApplication;
use crate::cosim::{CoSimulation, RunMetrics};
use crate::error::{CoreError, Result};
use crate::fleet::DesignedFleet;
use crate::pool;
use cps_flexray::FlexRayConfig;
use cps_sched::SlotAllocation;
use std::sync::Arc;

/// One point of a scenario sweep: how this run differs from the designed
/// fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Label of the scenario (for reports).
    pub label: String,
    /// Factor applied to every application's disturbance (the designed
    /// vectors, or [`ScenarioSpec::disturbances`] when set).
    pub disturbance_scale: f64,
    /// Factor applied to every application's switching threshold `E_th`.
    pub threshold_scale: f64,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// Per-application disturbance vectors overriding the designed ones
    /// (one vector per application, each matching its plant order).
    pub disturbances: Option<Vec<Vec<f64>>>,
    /// Slot-map override: run this scenario under a different offline slot
    /// allocation than the fleet was designed with.
    pub allocation: Option<SlotAllocation>,
    /// Bus-configuration override: run this scenario on a different FlexRay
    /// cycle (cycle length, static-segment size) than the fleet was
    /// designed for. Usually paired with [`ScenarioSpec::allocation`] so the
    /// slot map fits the overridden static segment.
    pub bus_config: Option<FlexRayConfig>,
}

impl ScenarioSpec {
    /// The nominal scenario: designed disturbances, thresholds and slot map.
    pub fn nominal(duration: f64) -> Self {
        ScenarioSpec {
            label: "nominal".to_string(),
            disturbance_scale: 1.0,
            threshold_scale: 1.0,
            duration,
            disturbances: None,
            allocation: None,
            bus_config: None,
        }
    }

    /// Returns the scenario with per-application disturbance vectors
    /// replacing the designed ones (still subject to
    /// [`ScenarioSpec::disturbance_scale`]).
    #[must_use]
    pub fn with_disturbances(mut self, disturbances: Vec<Vec<f64>>) -> Self {
        self.disturbances = Some(disturbances);
        self
    }

    /// Returns the scenario running under `allocation` instead of the
    /// fleet's designed slot map.
    #[must_use]
    pub fn with_allocation(mut self, allocation: SlotAllocation) -> Self {
        self.allocation = Some(allocation);
        self
    }

    /// Returns the scenario running on `bus_config` instead of the fleet's
    /// designed FlexRay cycle.
    #[must_use]
    pub fn with_bus_config(mut self, bus_config: FlexRayConfig) -> Self {
        self.bus_config = Some(bus_config);
        self
    }

    /// A disturbance sweep: `count` scenarios with the disturbance scaled
    /// linearly from `lo` to `hi` (inclusive), nominal thresholds.
    pub fn disturbance_sweep(lo: f64, hi: f64, count: usize, duration: f64) -> Vec<Self> {
        (0..count)
            .map(|i| {
                let scale = lerp(lo, hi, i, count);
                ScenarioSpec {
                    label: format!("disturbance x{scale:.3}"),
                    disturbance_scale: scale,
                    ..ScenarioSpec::nominal(duration)
                }
            })
            .collect()
    }

    /// A threshold sweep: `count` scenarios with every switching threshold
    /// `E_th` scaled linearly from `lo` to `hi` (inclusive), nominal
    /// disturbances.
    pub fn threshold_sweep(lo: f64, hi: f64, count: usize, duration: f64) -> Vec<Self> {
        (0..count)
            .map(|i| {
                let scale = lerp(lo, hi, i, count);
                ScenarioSpec {
                    label: format!("threshold x{scale:.3}"),
                    threshold_scale: scale,
                    ..ScenarioSpec::nominal(duration)
                }
            })
            .collect()
    }

    /// The full disturbance × threshold grid (row-major: the threshold axis
    /// varies fastest), rounding out the sweep helpers for two-axis
    /// design-space exploration.
    pub fn grid(
        disturbance_scales: &[f64],
        threshold_scales: &[f64],
        duration: f64,
    ) -> Vec<Self> {
        disturbance_scales
            .iter()
            .flat_map(|&disturbance| {
                threshold_scales.iter().map(move |&threshold| ScenarioSpec {
                    label: format!("disturbance x{disturbance:.3} / threshold x{threshold:.3}"),
                    disturbance_scale: disturbance,
                    threshold_scale: threshold,
                    ..ScenarioSpec::nominal(duration)
                })
            })
            .collect()
    }

    /// A slot-map sweep: one nominal scenario per candidate allocation —
    /// the workload that makes the shared-immutable fleet design pay off,
    /// since every scenario re-plumbs the runtime's slot map.
    pub fn slot_map_sweep(
        allocations: impl IntoIterator<Item = SlotAllocation>,
        duration: f64,
    ) -> Vec<Self> {
        allocations
            .into_iter()
            .enumerate()
            .map(|(index, allocation)| {
                ScenarioSpec {
                    label: format!(
                        "slot map #{index} ({} slots, {} model)",
                        allocation.slot_count(),
                        allocation.model
                    ),
                    ..ScenarioSpec::nominal(duration)
                }
                .with_allocation(allocation)
            })
            .collect()
    }
}

/// Linear interpolation over `count` inclusive sweep points.
fn lerp(lo: f64, hi: f64, index: usize, count: usize) -> f64 {
    let t = if count <= 1 { 0.0 } else { index as f64 / (count - 1) as f64 };
    lo + t * (hi - lo)
}

/// The bus-configuration design-space axis: a cross product of cycle
/// lengths, static-segment sizes and static slot lengths Ψ (equivalently,
/// frame payload sizes) over a base FlexRay configuration, expanded into
/// per-bus slot-map candidates (every greedy heuristic of
/// [`cps_sched::AllocatorConfig::sweep_matrix`] *plus* the exact
/// branch-and-bound optimum) and from there into [`ScenarioSpec`]s.
///
/// This rounds out the sweep constructors: where
/// [`ScenarioSpec::slot_map_sweep`] varies only the slot map on the designed
/// bus, `BusConfigSweep` varies the bus itself — how short can the cycle be,
/// how few static slots does the fleet really need, how much payload can a
/// frame carry — with the allocator re-run under each candidate bus's slot
/// budget *and* slot geometry: a longer Ψ both shrinks how many slots fit
/// the cycle and stretches every per-slot occupancy the wait-time analysis
/// sees (via [`cps_sched::SlotTiming`], derived relative to the base
/// configuration's Ψ).
///
/// # Example
///
/// ```
/// use cps_core::{case_study, BusConfigSweep};
/// use cps_flexray::FlexRayConfig;
///
/// let base = FlexRayConfig::paper_case_study();
/// let sweep = BusConfigSweep::new(base)
///     .with_cycle_lengths(vec![0.005, 0.010])
///     .with_static_slot_counts(vec![4, 10])
///     .with_slot_lengths(vec![0.0002, 0.0005]);
/// // 10 slots of 0.5 ms overflow the 5 ms cycle's static segment, so that
/// // combination is skipped; the rest survive validation.
/// let configs = sweep.configs();
/// assert!(configs.len() < 2 * 2 * 2);
/// assert!(configs.iter().all(|c| c.validate().is_ok()));
/// // Expansion packs the published Table-I fleet under every candidate bus.
/// let table = case_study::paper_table1();
/// let scenarios = sweep.scenarios(&table, &cps_sched::AllocatorConfig::default(), 1.0);
/// assert!(!scenarios.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BusConfigSweep {
    /// Base configuration supplying the parameters that are not swept (its
    /// static slot length is also the Ψ baseline the per-slot transmission
    /// overhead is measured against).
    pub base: FlexRayConfig,
    /// Candidate cycle lengths in seconds (empty = keep the base value).
    pub cycle_lengths: Vec<f64>,
    /// Candidate static-segment sizes in slots (empty = keep the base value).
    pub static_slot_counts: Vec<usize>,
    /// Candidate static slot lengths Ψ in seconds (empty = keep the base
    /// value). Fill from frame payload sizes with
    /// [`BusConfigSweep::with_payloads`].
    pub slot_lengths: Vec<f64>,
}

impl BusConfigSweep {
    /// A sweep that (so far) only contains the base configuration.
    pub fn new(base: FlexRayConfig) -> Self {
        BusConfigSweep {
            base,
            cycle_lengths: Vec::new(),
            static_slot_counts: Vec::new(),
            slot_lengths: Vec::new(),
        }
    }

    /// Sets the cycle-length axis.
    #[must_use]
    pub fn with_cycle_lengths(mut self, cycle_lengths: Vec<f64>) -> Self {
        self.cycle_lengths = cycle_lengths;
        self
    }

    /// Sets the static-segment-size axis.
    #[must_use]
    pub fn with_static_slot_counts(mut self, static_slot_counts: Vec<usize>) -> Self {
        self.static_slot_counts = static_slot_counts;
        self
    }

    /// Sets the slot-length axis: candidate static slot lengths Ψ in
    /// seconds.
    #[must_use]
    pub fn with_slot_lengths(mut self, slot_lengths: Vec<f64>) -> Self {
        self.slot_lengths = slot_lengths;
        self
    }

    /// Sets the slot-length axis from frame payload sizes (16-bit words) at
    /// the given bit rate, via the FlexRay timing relation
    /// [`FlexRayConfig::static_slot_length_for_payload`].
    ///
    /// # Errors
    ///
    /// Propagates geometry errors (payload too large, bad bit rate).
    pub fn with_payloads(mut self, payload_words: &[usize], bit_rate: f64) -> Result<Self> {
        self.slot_lengths = payload_words
            .iter()
            .map(|&words| {
                FlexRayConfig::static_slot_length_for_payload(words, bit_rate)
                    .map_err(CoreError::FlexRay)
            })
            .collect::<Result<Vec<f64>>>()?;
        Ok(self)
    }

    /// The *valid* bus configurations of the sweep, row-major with the
    /// slot-length axis varying fastest and the cycle-length axis slowest.
    /// Combinations whose segments do not fit the cycle (or that fail any
    /// other [`FlexRayConfig::validate`] rule — e.g. a payload-derived Ψ
    /// shorter than the minislot) are skipped, mirroring how
    /// [`cps_sched::allocation_sweep`] skips infeasible allocator
    /// configurations.
    pub fn configs(&self) -> Vec<FlexRayConfig> {
        let cycles: &[f64] =
            if self.cycle_lengths.is_empty() { &[self.base.cycle_length] } else { &self.cycle_lengths };
        let slot_counts: &[usize] = if self.static_slot_counts.is_empty() {
            &[self.base.static_slot_count]
        } else {
            &self.static_slot_counts
        };
        let slot_lengths: &[f64] = if self.slot_lengths.is_empty() {
            &[self.base.static_slot_length]
        } else {
            &self.slot_lengths
        };
        let mut configs =
            Vec::with_capacity(cycles.len() * slot_counts.len() * slot_lengths.len());
        for &cycle_length in cycles {
            for &static_slot_count in slot_counts {
                for &static_slot_length in slot_lengths {
                    let candidate = FlexRayConfig {
                        cycle_length,
                        static_slot_count,
                        static_slot_length,
                        ..self.base
                    };
                    if candidate.validate().is_ok() {
                        configs.push(candidate);
                    }
                }
            }
        }
        configs
    }

    /// The per-slot transmission timing a candidate bus presents to the
    /// wait-time analysis: the occupancy overhead is the slot-length excess
    /// over the base configuration's Ψ — the geometry the characterisation
    /// table is assumed to have absorbed — floored at zero (a shorter slot
    /// cannot undercut the characterised control-layer dwell times — see
    /// [`cps_sched::SlotTiming`]). [`BusConfigSweep::scenarios_for_fleet`]
    /// measures against the *fleet's* designed Ψ instead, which is the
    /// baseline its cached table actually absorbed.
    pub fn slot_timing_for(&self, bus: &FlexRayConfig) -> cps_sched::SlotTiming {
        slot_timing_against(self.base.static_slot_length, bus)
    }

    /// Expands the sweep into scenarios: for every valid bus configuration,
    /// the allocator matrix (all greedy heuristics, deduplicated) *and* the
    /// exact branch-and-bound optimum are solved under that bus's static
    /// slot budget *and* slot geometry (the Ψ-derived per-slot transmission
    /// overhead of [`BusConfigSweep::slot_timing_for`] is visible to every
    /// heuristic and to the exact search), and each distinct feasible slot
    /// map becomes one nominal scenario pinned to that bus. Bus
    /// configurations for which no feasible slot map exists are skipped.
    pub fn scenarios(
        &self,
        table: &[cps_sched::AppTimingParams],
        allocator: &cps_sched::AllocatorConfig,
        duration: f64,
    ) -> Vec<ScenarioSpec> {
        self.scenarios_against(self.base.static_slot_length, table, allocator, duration)
    }

    /// [`BusConfigSweep::scenarios`] with an explicit Ψ baseline: the slot
    /// length the characterisation behind `table` absorbed, against which
    /// every candidate's per-slot transmission overhead is measured.
    fn scenarios_against(
        &self,
        baseline_slot_length: f64,
        table: &[cps_sched::AppTimingParams],
        allocator: &cps_sched::AllocatorConfig,
        duration: f64,
    ) -> Vec<ScenarioSpec> {
        let mut scenarios = Vec::new();
        for bus in self.configs() {
            let budgeted = cps_sched::AllocatorConfig {
                max_slots: allocator.max_slots.min(bus.static_slot_count),
                slot_timing: slot_timing_against(baseline_slot_length, &bus),
                ..*allocator
            };
            let mut maps = cps_sched::allocation_sweep(table, &budgeted.sweep_matrix());
            if let Ok(optimal) = cps_sched::allocate_slots_optimal(table, &budgeted) {
                if !maps.iter().any(|existing| existing.slots == optimal.slots) {
                    maps.push(optimal);
                }
            }
            for (index, allocation) in maps.into_iter().enumerate() {
                scenarios.push(
                    ScenarioSpec {
                        label: format!(
                            "cycle {:.1} ms / {} static slots / psi {:.1} us · slot map #{index} ({} slots, {} model)",
                            bus.cycle_length * 1e3,
                            bus.static_slot_count,
                            bus.static_slot_length * 1e6,
                            allocation.slot_count(),
                            allocation.model
                        ),
                        ..ScenarioSpec::nominal(duration)
                    }
                    .with_allocation(allocation)
                    .with_bus_config(bus),
                );
            }
        }
        scenarios
    }

    /// Expands the sweep for a designed fleet through the
    /// [`crate::FleetDesigner`] pipeline: the fleet is characterised
    /// **once** (in parallel) and that single timing table is reused for
    /// every candidate bus's allocator matrix and branch-and-bound optimum —
    /// controllers are never re-synthesised and the dwell/wait curves never
    /// re-simulated per bus, which is what makes wide bus-dimensioning
    /// sweeps cheap (the `fleet_design` bench pins the speed-up over
    /// re-characterising per candidate).
    ///
    /// # Errors
    ///
    /// Propagates characterisation failures.
    pub fn scenarios_for(
        &self,
        designer: &crate::designer::FleetDesigner,
        apps: &[ControlApplication],
        allocator: &cps_sched::AllocatorConfig,
        duration: f64,
    ) -> Result<Vec<ScenarioSpec>> {
        let table = designer.characterize(apps)?;
        Ok(self.scenarios(&table, allocator, duration))
    }

    /// Expands the sweep for a designed fleet using its computed-once,
    /// `Arc`-shared characterisation table
    /// ([`DesignedFleet::timing_table_with`]): repeated sweeps over the same
    /// fleet — across *calls*, not just across the candidate buses of one
    /// call — perform **zero** re-characterisation. Fleets frozen by the
    /// design flows come with the table pre-seeded; otherwise the first call
    /// fills the cache (once, through the given designer's worker policy).
    ///
    /// Per-slot transmission overheads are measured against the *fleet's*
    /// designed slot length — the Ψ its characterisation table absorbed —
    /// not the sweep's base, so a sweep whose base geometry differs from
    /// the fleet's cannot under-approximate the candidates' occupancies.
    ///
    /// # Errors
    ///
    /// Propagates characterisation failures from the cache fill.
    pub fn scenarios_for_fleet(
        &self,
        designer: &crate::designer::FleetDesigner,
        fleet: &DesignedFleet,
        allocator: &cps_sched::AllocatorConfig,
        duration: f64,
    ) -> Result<Vec<ScenarioSpec>> {
        let table = fleet.timing_table_with(designer)?;
        Ok(self.scenarios_against(
            fleet.bus_config().static_slot_length,
            &table,
            allocator,
            duration,
        ))
    }
}

/// The per-slot transmission timing of `bus` relative to a baseline slot
/// length Ψ₀: `ΔΨ = max(0, Ψ − Ψ₀)` (see [`cps_sched::SlotTiming`]).
fn slot_timing_against(baseline_slot_length: f64, bus: &FlexRayConfig) -> cps_sched::SlotTiming {
    cps_sched::SlotTiming::new((bus.static_slot_length - baseline_slot_length).max(0.0))
        .expect("validated slot lengths yield a finite non-negative overhead")
}

/// The parallel scenario engine: an [`Arc`]-shared [`DesignedFleet`] fanned
/// out over worker threads. Workers never clone the designed
/// [`ControlApplication`]s — each one spawns a [`CoSimulation`] holding only
/// mutable scratch over the shared design.
///
/// # Examples
///
/// ```
/// use cps_core::{case_study, DesignedFleet, ScenarioBatch, ScenarioSpec};
/// use cps_flexray::FlexRayConfig;
/// use std::sync::Arc;
///
/// let fleet = Arc::new(DesignedFleet::design(
///     case_study::derived_fleet_specs(),
///     &cps_sched::AllocatorConfig::default(),
///     FlexRayConfig::paper_case_study(),
/// )?);
/// let batch = ScenarioBatch::from_fleet(fleet)?;
/// // Three disturbance scales, each co-simulated from a full reset; the
/// // outcome is bit-identical for any worker count.
/// let outcomes = batch.run(&ScenarioSpec::disturbance_sweep(0.5, 1.5, 3, 0.5))?;
/// assert_eq!(outcomes.len(), 3);
/// assert!(outcomes.iter().all(|o| o.response_times.len() == 6));
/// # Ok::<(), cps_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBatch {
    fleet: Arc<DesignedFleet>,
    threads: usize,
}

impl ScenarioBatch {
    /// Creates the engine from fleet parts. Convenience for
    /// [`DesignedFleet::new`] + [`ScenarioBatch::from_fleet`].
    ///
    /// # Errors
    ///
    /// Propagates fleet validation failures.
    pub fn new(
        apps: Vec<ControlApplication>,
        allocation: SlotAllocation,
        bus_config: FlexRayConfig,
    ) -> Result<Self> {
        ScenarioBatch::from_fleet(Arc::new(DesignedFleet::new(apps, allocation, bus_config)?))
    }

    /// Creates the engine over an existing shared design. The configuration
    /// is validated by building one trial engine up front, so `run` cannot
    /// fail on template errors.
    ///
    /// # Errors
    ///
    /// Propagates engine-construction failures.
    pub fn from_fleet(fleet: Arc<DesignedFleet>) -> Result<Self> {
        fleet.engine()?;
        Ok(ScenarioBatch { fleet, threads: 0 })
    }

    /// The shared fleet design the batch fans out.
    pub fn fleet(&self) -> &Arc<DesignedFleet> {
        &self.fleet
    }

    /// Sets the worker-thread count; `0` (the default) uses the machine's
    /// available parallelism. The outcome of a batch is independent of this
    /// setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs every scenario and returns one [`RunMetrics`] per scenario, in
    /// input order.
    ///
    /// Runs on the crate's work-claiming pool: the calling thread works
    /// beside `threads − 1` scoped threads, and each worker claims one
    /// scenario at a time. A worker creates one `CoSimulation` and one
    /// `RunMetrics` over the shared design at its first claim, resets the
    /// engine between the scenarios it claims and runs each through
    /// [`CoSimulation::run_metrics_into`]. Results are identical for any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error in scenario order (invalid
    /// scenario parameters included), for any thread count; scenarios
    /// claimed once an earlier failure is known are not executed.
    pub fn run(&self, scenarios: &[ScenarioSpec]) -> Result<Vec<RunMetrics>> {
        pool::map_claimed(
            self.threads,
            None,
            scenarios.iter().collect(),
            || Ok((self.fleet.engine()?, RunMetrics::default())),
            |(engine, metrics), _, spec| {
                run_one(engine, spec, metrics)?;
                Ok(metrics.clone())
            },
        )
    }
}

/// The parameter checks every scenario runner makes before it touches its
/// engine: a finite, non-negative disturbance scale and a finite, positive
/// duration.
pub(crate) fn check_scenario(disturbance_scale: f64, duration: f64) -> Result<()> {
    if !disturbance_scale.is_finite() || disturbance_scale < 0.0 {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "disturbance scale must be finite and non-negative, got {disturbance_scale}"
            ),
        });
    }
    if !duration.is_finite() || !(duration > 0.0) {
        return Err(CoreError::InvalidConfig {
            reason: format!("duration must be finite and positive, got {duration}"),
        });
    }
    Ok(())
}

/// Runs one scenario on a worker's warm engine, filling `metrics`.
fn run_one(
    engine: &mut CoSimulation,
    spec: &ScenarioSpec,
    metrics: &mut RunMetrics,
) -> Result<()> {
    check_scenario(spec.disturbance_scale, spec.duration)?;
    engine.reset()?;
    // The engine is reused across scenarios, so the bus configuration and
    // slot map must be (re)applied every time: the override if present, else
    // the design's. The bus goes first so the slot map is validated against
    // the static segment it will actually run on.
    let fleet = Arc::clone(engine.fleet());
    engine.set_bus_config(spec.bus_config.unwrap_or_else(|| fleet.bus_config()))?;
    engine.set_allocation(spec.allocation.as_ref().unwrap_or_else(|| fleet.allocation()))?;
    engine.set_threshold_scale(spec.threshold_scale)?;
    match &spec.disturbances {
        None => engine.inject_disturbances_scaled(spec.disturbance_scale)?,
        Some(vectors) => engine.inject_disturbance_vectors(vectors, spec.disturbance_scale)?,
    }
    engine.run_metrics_into(spec.duration, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study;

    fn batch() -> ScenarioBatch {
        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let allocation =
            cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default()).unwrap();
        ScenarioBatch::new(apps, allocation, FlexRayConfig::paper_case_study()).unwrap()
    }

    #[test]
    fn sweep_constructor_spans_the_range() {
        let sweep = ScenarioSpec::disturbance_sweep(0.5, 2.0, 4, 1.0);
        assert_eq!(sweep.len(), 4);
        assert!((sweep[0].disturbance_scale - 0.5).abs() < 1e-12);
        assert!((sweep[3].disturbance_scale - 2.0).abs() < 1e-12);
        let single = ScenarioSpec::disturbance_sweep(0.5, 2.0, 1, 1.0);
        assert!((single[0].disturbance_scale - 0.5).abs() < 1e-12);
    }

    #[test]
    fn threshold_sweep_and_grid_constructors() {
        let sweep = ScenarioSpec::threshold_sweep(0.5, 1.5, 3, 1.0);
        assert_eq!(sweep.len(), 3);
        assert!((sweep[0].threshold_scale - 0.5).abs() < 1e-12);
        assert!((sweep[1].threshold_scale - 1.0).abs() < 1e-12);
        assert!((sweep[2].threshold_scale - 1.5).abs() < 1e-12);
        assert!(sweep.iter().all(|s| s.disturbance_scale == 1.0));

        let grid = ScenarioSpec::grid(&[0.5, 2.0], &[0.8, 1.0, 1.2], 1.0);
        assert_eq!(grid.len(), 6);
        // Row-major: the threshold axis varies fastest.
        assert!((grid[0].disturbance_scale - 0.5).abs() < 1e-12);
        assert!((grid[0].threshold_scale - 0.8).abs() < 1e-12);
        assert!((grid[2].threshold_scale - 1.2).abs() < 1e-12);
        assert!((grid[3].disturbance_scale - 2.0).abs() < 1e-12);
        // All labels are distinct.
        let labels: std::collections::HashSet<_> = grid.iter().map(|s| &s.label).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn slot_map_sweep_and_disturbance_override_change_the_outcome() {
        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let nominal_allocation =
            cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default()).unwrap();
        // A contention-free allocation: every application owns its own slot
        // (the paper's bus offers enough static slots for the fleet).
        let dedicated = cps_sched::SlotAllocation {
            slots: (0..apps.len()).map(|index| vec![index]).collect(),
            model: nominal_allocation.model,
            method: nominal_allocation.method,
        };
        assert!(
            dedicated.slot_count()
                <= FlexRayConfig::paper_case_study().static_slot_count
        );
        let batch = batch();

        let scenarios = ScenarioSpec::slot_map_sweep(
            [nominal_allocation.clone(), dedicated.clone()],
            2.0,
        );
        assert_eq!(scenarios.len(), 2);
        let outcomes = batch.run(&scenarios).unwrap();
        // The nominal slot map reproduces the nominal scenario exactly.
        let nominal = batch.run(&[ScenarioSpec::nominal(2.0)]).unwrap();
        assert_eq!(outcomes[0].response_times, nominal[0].response_times);
        assert_eq!(outcomes[0].tt_periods, nominal[0].tt_periods);
        // Removing all slot contention changes the TT usage pattern.
        assert_ne!(outcomes[1].tt_periods, outcomes[0].tt_periods);

        // Per-app disturbance vectors: zero disturbance everywhere keeps
        // every loop in ET; hitting only the first app leaves the others
        // untouched.
        let fleet_orders: Vec<usize> =
            batch.fleet().apps().iter().map(|a| a.spec().plant.order()).collect();
        let zeros: Vec<Vec<f64>> =
            fleet_orders.iter().map(|&order| vec![0.0; order]).collect();
        let mut first_only = zeros.clone();
        first_only[0] = batch.fleet().apps()[0].spec().disturbance.clone();
        let outcomes = batch
            .run(&[
                ScenarioSpec::nominal(1.0).with_disturbances(zeros),
                ScenarioSpec::nominal(1.0).with_disturbances(first_only),
            ])
            .unwrap();
        assert!(outcomes[0].peak_norms.iter().all(|&n| n == 0.0));
        assert!(outcomes[1].peak_norms[0] > 0.0);
        assert!(outcomes[1].peak_norms[1..].iter().all(|&n| n == 0.0));

        // Wrong vector count is rejected.
        let bad = ScenarioSpec::nominal(1.0).with_disturbances(vec![vec![0.0]]);
        assert!(batch.run(std::slice::from_ref(&bad)).is_err());
        // An allocation the bus cannot host is rejected.
        let slots_offered = FlexRayConfig::paper_case_study().static_slot_count;
        let too_wide = cps_sched::SlotAllocation {
            slots: (0..slots_offered + 1).map(|i| vec![i % apps.len()]).collect(),
            model: nominal_allocation.model,
            method: nominal_allocation.method,
        };
        let bad = ScenarioSpec::nominal(1.0).with_allocation(too_wide);
        assert!(batch.run(std::slice::from_ref(&bad)).is_err());
    }

    #[test]
    fn bus_config_sweep_expands_and_changes_the_outcome() {
        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let batch = batch();
        let base = FlexRayConfig::paper_case_study();

        // The axis expands into valid configurations only: a 1 ms cycle
        // cannot host the paper's 2 ms static segment and is skipped.
        let sweep = BusConfigSweep::new(base)
            .with_cycle_lengths(vec![0.001, 0.005, 0.010])
            .with_static_slot_counts(vec![6, 10]);
        let configs = sweep.configs();
        assert_eq!(configs.len(), 4);
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        assert!(configs.iter().all(|c| c.cycle_length >= 0.005));

        // Scenario expansion: every scenario pins a bus and a slot map that
        // fits it; labels are unique.
        let scenarios =
            sweep.scenarios(&table, &cps_sched::AllocatorConfig::default(), 1.0);
        assert!(!scenarios.is_empty());
        for spec in &scenarios {
            let bus = spec.bus_config.expect("bus pinned");
            let allocation = spec.allocation.as_ref().expect("slot map pinned");
            assert!(allocation.slot_count() <= bus.static_slot_count);
        }
        let labels: std::collections::HashSet<_> =
            scenarios.iter().map(|s| &s.label).collect();
        assert_eq!(labels.len(), scenarios.len());
        // The branch-and-bound optimum is part of every bus's candidate set.
        let optimal = cps_sched::allocate_slots_optimal(
            &table,
            &cps_sched::AllocatorConfig::default(),
        )
        .unwrap();
        assert!(scenarios
            .iter()
            .any(|s| s.allocation.as_ref().unwrap().slot_count() == optimal.slot_count()));

        // Running under the base bus with the designed allocation matches
        // the nominal scenario bit for bit; a starved dynamic segment (two
        // minislots = one ET frame per cycle) builds a backlog and delivers
        // strictly fewer ET messages inside the window.
        let fleet_allocation = batch.fleet().allocation().clone();
        let same_bus = ScenarioSpec::nominal(2.0)
            .with_bus_config(base)
            .with_allocation(fleet_allocation.clone());
        let starved_bus = ScenarioSpec::nominal(2.0)
            .with_bus_config(FlexRayConfig { minislot_count: 2, ..base })
            .with_allocation(fleet_allocation);
        let outcomes =
            batch.run(&[ScenarioSpec::nominal(2.0), same_bus, starved_bus]).unwrap();
        assert_eq!(outcomes[0].response_times, outcomes[1].response_times);
        assert_eq!(outcomes[0].bus, outcomes[1].bus);
        assert!(outcomes[2].bus.dynamic_transmissions < outcomes[0].bus.dynamic_transmissions);

        // An invalid override is rejected, and a later run is unaffected.
        let bad_bus = ScenarioSpec::nominal(1.0)
            .with_bus_config(FlexRayConfig { cycle_length: -1.0, ..base });
        assert!(batch.run(std::slice::from_ref(&bad_bus)).is_err());
        let recovered = batch
            .clone()
            .with_threads(1)
            .run(&[ScenarioSpec::nominal(2.0)])
            .unwrap();
        assert_eq!(recovered[0].response_times, outcomes[0].response_times);
    }

    #[test]
    fn slot_length_axis_completes_the_bus_design_space() {
        let table = case_study::paper_table1();
        let base = FlexRayConfig::paper_case_study();

        // Third axis: slot length Ψ. The 5 ms cycle keeps its 3 ms dynamic
        // segment, so 10 slots of 0.5 ms (5 ms static) cannot fit — only the
        // 4-slot variant of the stretched Ψ survives validation.
        let sweep = BusConfigSweep::new(base)
            .with_static_slot_counts(vec![4, 10])
            .with_slot_lengths(vec![0.0002, 0.0005]);
        let configs = sweep.configs();
        assert_eq!(configs.len(), 3);
        assert!(configs
            .iter()
            .all(|c| c.static_segment_length() + c.dynamic_segment_length()
                <= c.cycle_length + 1e-12));

        // The derived slot timing is the Ψ excess over the base (floored at
        // zero for the baseline Ψ itself).
        for config in &configs {
            let timing = sweep.slot_timing_for(config);
            if config.static_slot_length > base.static_slot_length {
                assert!((timing.overhead() - 0.0003).abs() < 1e-12);
            } else {
                assert_eq!(timing.overhead(), 0.0);
            }
        }

        // Scenario expansion: every slot map fits its bus's budget and
        // verifies under that bus's geometry; the conservative 5-slot maps
        // are gone from the 4-slot buses. Labels stay unique because they
        // carry Ψ.
        let scenarios = sweep.scenarios(&table, &cps_sched::AllocatorConfig::default(), 1.0);
        assert!(!scenarios.is_empty());
        let mut saw_stretched_bus = false;
        for spec in &scenarios {
            let bus = spec.bus_config.expect("bus pinned");
            let allocation = spec.allocation.as_ref().expect("slot map pinned");
            assert!(allocation.slot_count() <= bus.static_slot_count);
            assert!(allocation
                .verify_with(&table, sweep.slot_timing_for(&bus))
                .expect("analysis runs"));
            if bus.static_slot_length > base.static_slot_length {
                saw_stretched_bus = true;
            }
        }
        assert!(saw_stretched_bus, "the stretched-Ψ bus must host feasible slot maps");
        let labels: std::collections::HashSet<_> = scenarios.iter().map(|s| &s.label).collect();
        assert_eq!(labels.len(), scenarios.len());

        // The payload-word constructor maps frame sizes through the FlexRay
        // timing relation; an oversized payload is rejected.
        let by_payload = BusConfigSweep::new(base)
            .with_payloads(&[64, 127], cps_flexray::DEFAULT_BIT_RATE)
            .unwrap();
        assert_eq!(by_payload.slot_lengths.len(), 2);
        assert!(by_payload.slot_lengths[0] < by_payload.slot_lengths[1]);
        assert!(by_payload.slot_lengths.iter().all(|&psi| psi > base.minislot_length));
        assert!(BusConfigSweep::new(base)
            .with_payloads(&[500], cps_flexray::DEFAULT_BIT_RATE)
            .is_err());
    }

    #[test]
    fn outcomes_are_independent_of_thread_count() {
        let batch = batch();
        let scenarios = ScenarioSpec::disturbance_sweep(0.2, 1.5, 6, 1.5);
        let serial = batch.clone().with_threads(1).run(&scenarios).unwrap();
        let parallel = batch.clone().with_threads(3).run(&scenarios).unwrap();
        let oversubscribed = batch.with_threads(16).run(&scenarios).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, oversubscribed);
        assert_eq!(serial.len(), 6);
        assert!(serial.iter().all(|metrics| metrics.response_times.len() == 6));
    }

    #[test]
    fn nominal_scenario_matches_direct_cosimulation() {
        let batch = batch();
        let outcomes = batch.run(&[ScenarioSpec::nominal(2.0)]).unwrap();
        assert_eq!(outcomes.len(), 1);

        let apps = case_study::derived_fleet().unwrap();
        let table = case_study::derive_table(&apps).unwrap();
        let allocation =
            cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default()).unwrap();
        let mut cosim =
            CoSimulation::new(apps, &allocation, FlexRayConfig::paper_case_study()).unwrap();
        cosim.inject_disturbances().unwrap();
        let mut direct = RunMetrics::default();
        cosim.run_metrics_into(2.0, &mut direct).unwrap();
        assert_eq!(outcomes[0], direct);
    }

    #[test]
    fn empty_and_invalid_batches() {
        let batch = batch();
        assert!(batch.run(&[]).unwrap().is_empty());
        let bad = ScenarioSpec {
            label: "bad".to_string(),
            disturbance_scale: -1.0,
            ..ScenarioSpec::nominal(1.0)
        };
        assert!(batch.run(std::slice::from_ref(&bad)).is_err());
        let endless = ScenarioSpec {
            label: "endless".to_string(),
            duration: f64::INFINITY,
            ..ScenarioSpec::nominal(1.0)
        };
        assert!(batch.run(std::slice::from_ref(&endless)).is_err());
    }
}
