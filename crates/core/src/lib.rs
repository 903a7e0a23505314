//! # cps-core
//!
//! The co-design core of the DATE 2019 reproduction *Exploiting System
//! Dynamics for Resource-Efficient Automotive CPS Design*.
//!
//! This crate assembles the substrates (`cps-linalg`, `cps-control`,
//! `cps-flexray`, `cps-sched`) into the paper's complete flow:
//!
//! 1. [`ControlApplication`] — a distributed control application: plant,
//!    event-triggered and time-triggered controllers, control requirement and
//!    disturbance model.
//! 2. [`characterize_application`] / [`derive_timing_params`] — dwell/wait
//!    characterisation by switched-system simulation and extraction of the
//!    Table-I timing parameters (Figures 3 and 4).
//! 3. [`case_study`] — the paper's Section V: the published Table I, the slot
//!    allocation comparison (3 vs. 5 slots, +67 %) and a fully synthetic
//!    derived fleet exercising the pipeline end to end.
//! 4. [`AllocationRuntime`] — the Figure 1 dynamic resource-allocation scheme
//!    (ET by default, TT slot on demand, non-preemptive priority arbitration).
//! 5. [`FleetDesigner`] — the fleet-level design pipeline behind every
//!    design entry point: one [`cps_control::DesignWorkspace`] +
//!    [`cps_control::CharacterizationWorkspace`] scratch bundle per worker,
//!    each application's synthesis and characterisation claimed as one item
//!    of a work-claiming pool on which the calling thread works too,
//!    bit-identical for any worker count.
//! 6. [`DesignedFleet`] — the shared-immutable design artifact (designed
//!    controllers, fused kernel matrices, bus/slot configuration, and the
//!    computed-once `Arc`-shared characterisation table of
//!    [`DesignedFleet::timing_table`]) that any number of engines reference
//!    through an `Arc`; its [`DesignedFleet::design`] /
//!    [`DesignedFleet::design_optimal`] paths run the designer pipeline end
//!    to end (the latter dimensions the slot map with the exact
//!    branch-and-bound allocator, reusing one characterisation pass for the
//!    greedy incumbent, the exact search and the fleet's cached table).
//! 7. [`CoSimulation`] — plant/runtime/FlexRay co-simulation reproducing the
//!    responses of Figure 5, running on allocation-free
//!    [`cps_control::StepKernel`]s with `reset()`-and-rerun support. It is
//!    the one per-period engine, with one run loop: every scenario of a
//!    [`ScenarioBatch`] and a [`RobustnessCampaign`] runs through
//!    [`CoSimulation::run_metrics_into`] into a [`RunMetrics`].
//! 8. [`ScenarioBatch`] — batched, parallel multi-scenario co-simulation
//!    for disturbance / threshold / per-app-disturbance / slot-map /
//!    bus-configuration sweeps, one [`RunMetrics`] per scenario,
//!    deterministic across thread counts.
//!    [`BusConfigSweep`] spans the full bus design space — cycle length ×
//!    static-segment size × slot length Ψ (frame payload geometry) — with
//!    the Ψ-derived per-slot transmission overhead visible to every
//!    allocator via [`cps_sched::SlotTiming`].
//! 9. [`RobustnessCampaign`] — streaming Monte-Carlo robustness campaigns:
//!    a [`ScenarioSource`] generates scenarios on demand from
//!    `(campaign seed, index)`, the designer's and the batch's
//!    work-claiming pool replays them on faulty buses
//!    ([`cps_flexray::FaultModel`]) and degraded runtimes
//!    ([`DegradationConfig`]) one window of chunks at a time, and each
//!    window folds in order into O(workers)-memory per-family aggregates
//!    ([`OnlineStats`], [`P2Quantile`]) with a Clopper–Pearson statistical
//!    model-checking readout
//!    ([`CampaignStats::settling_probabilities`]) — bit-identical for any
//!    worker count.
//! 10. [`experiments`] — one entry point per table/figure, used by the
//!     examples and the Criterion benches.
//!
//! # Example: the headline result
//!
//! ```
//! use cps_core::case_study;
//!
//! let apps = case_study::paper_table1();
//! let outcome = case_study::run_slot_allocation(&apps)?;
//! assert_eq!(outcome.non_monotonic_slots, 3);
//! assert_eq!(outcome.monotonic_slots, 5);
//! # Ok::<(), cps_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod application;
mod campaign;
mod characterize;
mod cosim;
mod designer;
mod error;
mod fleet;
mod pool;
mod runtime;
mod scenario;
mod stats;

pub mod case_study;
pub mod experiments;

pub use application::{ApplicationSpec, ControlApplication, ControllerSpec};
pub use campaign::{
    CampaignScenario, CampaignStats, FamilyStats, RobustnessCampaign, RobustnessSweep,
    ScenarioSource, SettlingProbability,
};
pub use case_study::CaseStudyOutcome;
pub use characterize::{
    characterize_application, characterize_application_with, derive_timing_params,
    derive_timing_params_with, fit_non_monotonic,
};
pub use cosim::{
    AppTrace, CoSimTrace, CoSimulation, DegradationConfig, ModeSwitchStorm, RunMetrics,
    TracePoint,
};
pub use cps_sched::CancelToken;
pub use designer::{BudgetedDesign, FleetDesigner};
pub use error::{CoreError, Result};
pub use fleet::DesignedFleet;
pub use runtime::{AllocationRuntime, AppPhase, RuntimeApp};
pub use scenario::{BusConfigSweep, ScenarioBatch, ScenarioSpec};
pub use stats::{clopper_pearson, OnlineStats, P2Quantile};
