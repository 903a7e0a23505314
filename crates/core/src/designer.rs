//! The fleet-level design pipeline: one workspace-threaded, parallel
//! designer behind every design entry point.
//!
//! The paper's resource-efficient flow is fleet-scoped — controllers, dwell
//! characterisation and slot allocation are co-designed for the whole
//! application set — yet the seed synthesised one application at a time with
//! private solver temporaries. [`FleetDesigner`] makes the design path a
//! first-class pipeline, mirroring what [`crate::ScenarioBatch`] did for the
//! simulation path:
//!
//! * **Workspace-threaded:** every controller synthesis runs through one
//!   [`cps_control::DesignWorkspace`] bundle per worker (Riccati, matrix
//!   exponential and LU temporaries, pooled by dimension), and every
//!   characterisation through one [`cps_control::CharacterizationWorkspace`]
//!   (switched-kernel state buffers, power-bound matrices, saturated-sim
//!   scratch), so a fleet design allocates solver and simulation scratch
//!   once per worker instead of once per application.
//! * **Parallel:** every run is one scope of the crate's work-claiming pool,
//!   the one the scenario batch engine uses too. The calling thread works
//!   beside `threads − 1` scoped threads, and each worker claims one
//!   application at a time. The full design flows claim *synthesis followed
//!   by characterisation* as one item per application, so the two stages
//!   share a scope and no barrier separates them. The six case-study app
//!   types cost ~110–470 µs each; claiming balances them where fixed chunks
//!   could not.
//! * **Deterministic:** results are stored by input index and the
//!   workspace path is bit-identical to the allocating reference path, so
//!   the designed artifacts are **bit-for-bit independent of the worker
//!   count** — the property the parity suite (`tests/fleet_designer.rs`)
//!   asserts on the paper fleet, on perturbed scaled fleets and on random
//!   stable plants. A failed run returns the error of the first failing
//!   application in input order, whichever stage failed.
//!
//! Every design entry point routes through this pipeline:
//! [`crate::ControlApplication::design`] (a one-application fleet),
//! [`crate::DesignedFleet::design`] / [`crate::DesignedFleet::design_optimal`]
//! (characterisation computed once, shared by the greedy incumbent and the
//! exact branch-and-bound search), and
//! [`crate::BusConfigSweep::scenarios_for`] (characterisation computed once
//! and reused across every candidate bus instead of re-derived per
//! configuration).

use crate::application::{ApplicationSpec, ControlApplication};
use crate::characterize::derive_timing_params_with;
use crate::error::{CoreError, Result};
use crate::fleet::DesignedFleet;
use crate::pool;
use cps_control::{CharacterizationWorkspace, DesignWorkspace};
use cps_flexray::FlexRayConfig;
use cps_sched::{
    AllocatorConfig, AppTimingParams, CancelToken, PortfolioAllocator, PortfolioConfig, SchedError,
    SlotAllocation,
};

/// The scratch bundle one design worker owns and threads through every item
/// it claims: the solver-workspace pool of the synthesis path and the
/// switched-kernel / saturated-sim pool of the characterisation path. Both
/// pools are dimension-keyed and re-allocate only when a previously unseen
/// dimension appears, so a warm worker pays no per-application setup cost
/// for scratch.
#[derive(Debug, Default)]
struct WorkerScratch {
    design: DesignWorkspace,
    characterization: CharacterizationWorkspace,
}

/// The reusable fleet-design pipeline: owns the worker policy and threads
/// one [`DesignWorkspace`] bundle per worker through every synthesis.
///
/// The designer is cheap to construct (workspaces are allocated inside the
/// workers, per run); clone-free and stateless between runs, one instance
/// can drive any number of fleets.
#[derive(Debug, Clone)]
pub struct FleetDesigner {
    threads: usize,
    /// Cooperative cancellation checkpoint, polled between pipeline items
    /// (one synthesis or characterisation per poll); `None` never cancels.
    cancel: Option<CancelToken>,
}

/// Outcome of the budget-aware exact design flow
/// ([`FleetDesigner::design_fleet_optimal_budgeted`]): the designed fleet
/// plus whether its slot map is the *proven* minimum or a degraded (greedy
/// incumbent) answer returned because the search budget ran out.
#[derive(Debug)]
pub struct BudgetedDesign {
    /// The designed, validated fleet.
    pub fleet: DesignedFleet,
    /// `true` when the exact search ran to exhaustion (the slot map is the
    /// provable minimum); `false` when the node budget or the cancellation
    /// token cut the search and the slot map is only the best incumbent —
    /// the `certified_optimal=false` rung of the service degradation ladder.
    pub certified_optimal: bool,
}

impl Default for FleetDesigner {
    fn default() -> Self {
        FleetDesigner::new()
    }
}

impl FleetDesigner {
    /// A designer using the machine's available parallelism.
    pub fn new() -> Self {
        FleetDesigner { threads: 0, cancel: None }
    }

    /// A designer that always runs on the calling thread (the retained
    /// sequential path; still workspace-threaded).
    pub fn sequential() -> Self {
        FleetDesigner { threads: 1, cancel: None }
    }

    /// Sets the worker-thread count; `0` (the default) uses the machine's
    /// available parallelism. The designed artifacts are bit-identical for
    /// any setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Installs (or clears) a cooperative cancellation token. Every pipeline
    /// stage polls it between items — a relaxed atomic load — and a fired
    /// token surfaces as [`CoreError::Cancelled`] from the design entry
    /// points. A token changes *whether* a run completes, never *what* it
    /// computes: completed runs are bit-identical with or without one.
    #[must_use]
    pub fn with_cancel_token(mut self, token: Option<CancelToken>) -> Self {
        self.cancel = token;
        self
    }

    /// The worker count a run will actually use for `item_count` independent
    /// design items.
    pub fn effective_threads(&self, item_count: usize) -> usize {
        pool::worker_count(self.threads, item_count)
    }

    /// Designs every application of the fleet through the shared pipeline
    /// and returns them in input order.
    ///
    /// # Errors
    ///
    /// Returns the error of the first failing spec in input order, for any
    /// worker count.
    pub fn design(&self, specs: Vec<ApplicationSpec>) -> Result<Vec<ControlApplication>> {
        self.run(specs, |scratch, spec| ControlApplication::design_with(spec, &mut scratch.design))
    }

    /// Designs a single application (a one-application fleet) on the calling
    /// thread — the routing target of [`ControlApplication::design`].
    ///
    /// # Errors
    ///
    /// Propagates design failures.
    pub fn design_one(&self, spec: ApplicationSpec) -> Result<ControlApplication> {
        ControlApplication::design_with(spec, &mut DesignWorkspace::new())
    }

    /// Characterises every application (dwell/wait curve, non-monotonic
    /// model fit) and returns the fleet's Table-I rows in input order — the
    /// single characterisation pass shared by the greedy allocator seed, the
    /// exact branch-and-bound search and every candidate bus of a
    /// [`crate::BusConfigSweep`].
    ///
    /// # Errors
    ///
    /// Returns the error of the first failing application in input order,
    /// for any worker count.
    pub fn characterize(&self, apps: &[ControlApplication]) -> Result<Vec<AppTimingParams>> {
        self.run(apps.iter().collect(), |scratch, app| {
            derive_timing_params_with(app, &mut scratch.characterization)
        })
    }

    /// The full greedy design flow: design and characterise each
    /// application (one claimed item per application), allocate TT slots
    /// with the configured greedy strategy (capped by the bus's static
    /// segment) and freeze the fleet.
    ///
    /// # Errors
    ///
    /// Propagates design, characterisation, allocation and fleet-validation
    /// failures. A design or characterisation failure is the one of the
    /// first failing application in input order, whichever stage failed,
    /// for any worker count.
    pub fn design_fleet(
        &self,
        specs: Vec<ApplicationSpec>,
        config: &AllocatorConfig,
        bus_config: FlexRayConfig,
    ) -> Result<DesignedFleet> {
        let (apps, table) = self.design_and_characterize(specs)?;
        let allocation = cps_sched::allocate_slots(&table, &budgeted(config, &bus_config))?;
        freeze(apps, allocation, bus_config, table)
    }

    /// The full exact design flow: like [`FleetDesigner::design_fleet`] but
    /// the slot map is the provable minimum of
    /// [`cps_sched::allocate_slots_portfolio`], searched by the designer's
    /// worker count (bit-identical for any setting); the single
    /// characterisation pass feeds both the greedy incumbent seed and the
    /// exact search (`config.strategy` is ignored).
    ///
    /// # Errors
    ///
    /// As [`FleetDesigner::design_fleet`], with
    /// [`cps_sched::SchedError::NoFeasibleAllocation`] when no slot map fits
    /// the bus.
    pub fn design_fleet_optimal(
        &self,
        specs: Vec<ApplicationSpec>,
        config: &AllocatorConfig,
        bus_config: FlexRayConfig,
    ) -> Result<DesignedFleet> {
        let (apps, table) = self.design_and_characterize(specs)?;
        self.allocate_optimal(apps, table, config, bus_config)
    }

    /// The budget-aware exact design flow of the design service: like
    /// [`FleetDesigner::design_fleet_optimal`], but the portfolio search
    /// runs under the designer's cancellation token and an optional node
    /// budget — both *aggregated across the portfolio's workers*, so one
    /// budget and one token govern the whole parallel search — and a
    /// cut-short search *degrades* instead of failing: the greedy incumbent
    /// is frozen into the fleet and the result carries
    /// `certified_optimal = false`.
    ///
    /// With no token and no budget the flow is bit-identical to
    /// [`FleetDesigner::design_fleet_optimal`] (same allocator, same float
    /// order, same slot map) and always certifies.
    ///
    /// # Errors
    ///
    /// As [`FleetDesigner::design_fleet_optimal`]; additionally
    /// [`CoreError::Cancelled`] when the token fires during synthesis or
    /// characterisation, or when the search is cut before *any* feasible
    /// allocation (incumbent included) is known.
    pub fn design_fleet_optimal_budgeted(
        &self,
        specs: Vec<ApplicationSpec>,
        config: &AllocatorConfig,
        bus_config: FlexRayConfig,
        node_budget: Option<u64>,
    ) -> Result<BudgetedDesign> {
        let (apps, table) = self.design_and_characterize(specs)?;
        let portfolio = PortfolioConfig::with_threads(self.threads);
        let mut solver = PortfolioAllocator::new(&table, &budgeted(config, &bus_config), &portfolio)?;
        solver.set_cancel_token(self.cancel.clone());
        solver.set_node_budget(node_budget);
        let allocation = match solver.solve() {
            Ok(allocation) => allocation,
            Err(SchedError::SearchCancelled { .. }) => return Err(CoreError::Cancelled),
            Err(error) => return Err(error.into()),
        };
        let certified_optimal = solver.certified_optimal();
        drop(solver);
        let fleet = freeze(apps, allocation, bus_config, table)?;
        Ok(BudgetedDesign { fleet, certified_optimal })
    }

    /// The exact flow for already-designed applications, behind
    /// [`DesignedFleet::design_optimal`]: characterise once, solve the
    /// branch-and-bound optimum under the bus budget, validate.
    ///
    /// # Errors
    ///
    /// As [`FleetDesigner::design_fleet_optimal`].
    pub(crate) fn freeze_optimal(
        &self,
        apps: Vec<ControlApplication>,
        config: &AllocatorConfig,
        bus_config: FlexRayConfig,
    ) -> Result<DesignedFleet> {
        let table = self.characterize(&apps)?;
        self.allocate_optimal(apps, table, config, bus_config)
    }

    /// Synthesises and characterises every application, one claimed item
    /// per application (no barrier between the stages), and returns the
    /// designs with their Table-I rows in input order.
    fn design_and_characterize(
        &self,
        specs: Vec<ApplicationSpec>,
    ) -> Result<(Vec<ControlApplication>, Vec<AppTimingParams>)> {
        let designed = self.run(specs, |scratch, spec| {
            let app = ControlApplication::design_with(spec, &mut scratch.design)?;
            let row = derive_timing_params_with(&app, &mut scratch.characterization)?;
            Ok((app, row))
        })?;
        Ok(designed.into_iter().unzip())
    }

    /// The tail of both exact flows: the portfolio optimum under the bus
    /// budget, frozen with the table it was solved on.
    fn allocate_optimal(
        &self,
        apps: Vec<ControlApplication>,
        table: Vec<AppTimingParams>,
        config: &AllocatorConfig,
        bus_config: FlexRayConfig,
    ) -> Result<DesignedFleet> {
        let allocation = cps_sched::allocate_slots_portfolio(
            &table,
            &budgeted(config, &bus_config),
            &PortfolioConfig::with_threads(self.threads),
        )?;
        freeze(apps, allocation, bus_config, table)
    }

    /// Maps `f` over `items` on the shared worker pool: one claimed item
    /// per element, one [`WorkerScratch`] per worker, results in input order.
    fn run<T: Send, R: Send>(
        &self,
        items: Vec<T>,
        f: impl Fn(&mut WorkerScratch, T) -> Result<R> + Sync,
    ) -> Result<Vec<R>> {
        pool::map_claimed(
            self.threads,
            self.cancel.as_ref(),
            items,
            || Ok(WorkerScratch::default()),
            |scratch, _, item| f(scratch, item),
        )
    }
}

/// Validates the fleet and seeds its computed-once characterisation cache
/// with the pass that dimensioned it, so later sweeps skip even that pass.
fn freeze(
    apps: Vec<ControlApplication>,
    allocation: SlotAllocation,
    bus_config: FlexRayConfig,
    table: Vec<AppTimingParams>,
) -> Result<DesignedFleet> {
    let fleet = DesignedFleet::new(apps, allocation, bus_config)?;
    fleet.seed_timing_table(table);
    Ok(fleet)
}

/// The allocator configuration capped by the bus's static segment.
fn budgeted(config: &AllocatorConfig, bus_config: &FlexRayConfig) -> AllocatorConfig {
    AllocatorConfig { max_slots: config.max_slots.min(bus_config.static_slot_count), ..*config }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study;

    #[test]
    fn empty_inputs_short_circuit() {
        let designer = FleetDesigner::new();
        assert!(designer.design(Vec::new()).unwrap().is_empty());
        assert!(designer.characterize(&[]).unwrap().is_empty());
        assert_eq!(designer.effective_threads(0), 1);
        assert!(designer.effective_threads(100) >= 1);
        assert_eq!(FleetDesigner::sequential().effective_threads(100), 1);
    }

    #[test]
    fn design_errors_surface_in_input_order() {
        let mut specs = case_study::derived_fleet_specs();
        specs[1].deadline = -1.0; // invalid
        specs[4].threshold = 0.0; // also invalid, but later in input order
        let err = FleetDesigner::new().with_threads(3).design(specs).unwrap_err();
        assert!(err.to_string().contains("deadline"), "unexpected error: {err}");
    }

    #[test]
    fn design_fleet_flows_end_to_end() {
        let designer = FleetDesigner::new().with_threads(2);
        let config = AllocatorConfig::default();
        let bus = cps_flexray::FlexRayConfig::paper_case_study();
        let greedy =
            designer.design_fleet(case_study::derived_fleet_specs(), &config, bus).unwrap();
        let optimal = designer
            .design_fleet_optimal(case_study::derived_fleet_specs(), &config, bus)
            .unwrap();
        assert_eq!(greedy.app_count(), 6);
        assert!(optimal.slot_count() <= greedy.slot_count());
    }

    #[test]
    fn cancelled_designers_stop_at_item_boundaries() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 3] {
            let designer = FleetDesigner::new()
                .with_threads(threads)
                .with_cancel_token(Some(token.clone()));
            let err = designer.design(case_study::derived_fleet_specs()).unwrap_err();
            assert!(matches!(err, CoreError::Cancelled), "threads={threads}: {err}");
            // The joined flow polls the token before each application's
            // synthesis-and-characterisation item.
            let err = designer
                .design_fleet_optimal(
                    case_study::derived_fleet_specs(),
                    &AllocatorConfig::default(),
                    cps_flexray::FlexRayConfig::paper_case_study(),
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::Cancelled), "threads={threads}: {err}");
        }
        // Empty inputs still short-circuit before the checkpoint.
        let designer = FleetDesigner::new().with_cancel_token(Some(token));
        assert!(designer.design(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn budgeted_design_nominal_path_is_bit_identical() {
        let designer = FleetDesigner::new().with_threads(2);
        let config = AllocatorConfig::default();
        let bus = cps_flexray::FlexRayConfig::paper_case_study();
        let reference = designer
            .design_fleet_optimal(case_study::derived_fleet_specs(), &config, bus)
            .unwrap();
        let budgeted = designer
            .design_fleet_optimal_budgeted(case_study::derived_fleet_specs(), &config, bus, None)
            .unwrap();
        assert!(budgeted.certified_optimal);
        assert_eq!(budgeted.fleet.allocation(), reference.allocation());
        let reference_table = reference.timing_table().unwrap();
        let budgeted_table = budgeted.fleet.timing_table().unwrap();
        assert_eq!(reference_table.len(), budgeted_table.len());
        for (a, b) in reference_table.iter().zip(budgeted_table.iter()) {
            assert_eq!(a.xi_et.to_bits(), b.xi_et.to_bits());
            assert_eq!(a.xi_m.to_bits(), b.xi_m.to_bits());
            assert_eq!(a.k_p.to_bits(), b.k_p.to_bits());
        }
    }

    #[test]
    fn budgeted_design_degrades_instead_of_failing() {
        let designer = FleetDesigner::new();
        let config = AllocatorConfig::default();
        let bus = cps_flexray::FlexRayConfig::paper_case_study();
        // A zero node budget cuts the exact search at the root: the greedy
        // incumbent is frozen and the result refuses to certify.
        let degraded = designer
            .design_fleet_optimal_budgeted(
                case_study::derived_fleet_specs(),
                &config,
                bus,
                Some(0),
            )
            .unwrap();
        assert!(!degraded.certified_optimal);
        // The incumbent is still a *valid* (schedulable) slot map, and the
        // design-flow-seeded table cost no extra characterisation pass.
        let table = degraded.fleet.timing_table().unwrap();
        assert!(degraded.fleet.allocation().verify(&table).unwrap());
        assert_eq!(degraded.fleet.characterization_passes(), 0);
    }
}
