//! TT-slot allocation heuristics (the paper's Section IV allocation
//! procedure plus first-fit/best-fit ablations).
//!
//! Finding the minimum number of slots is NP-hard (it generalises bin
//! packing), so the paper uses a greedy heuristic: walk the applications in
//! priority order and keep adding them to the most recently opened slot; as
//! soon as an addition breaks the schedulability of *any* application already
//! in that slot, open a new slot and place the application there.
//!
//! Each candidate slot is judged in place (the application pushed, judged,
//! popped) by the allocation-free verdict the exact search uses,
//! `schedulability::slot_status`; best-fit folds its slack from the same
//! streaming `member_response`. Verdicts, slot maps and errors are those of
//! the allocating [`crate::analyze_slot_with`] analysis, bit for bit: the
//! packing loop built on that analysis is kept under `cfg(test)` as
//! `reference`, and a proptest pins the two together. A warm
//! [`allocate_slots`] call allocates only its priority order and its output.

use crate::app::{priority_order, AppTimingParams};
use crate::dwell::ModelKind;
use crate::error::{Result, SchedError};
use crate::schedulability::{
    is_slot_schedulable_with, member_response, slot_status, MemberResponse, SlotStatus,
    WaitTimeMethod,
};
use crate::timing::SlotTiming;
use crate::wait_time::MAX_FIXED_POINT_ITERATIONS;

/// Which greedy packing strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocationStrategy {
    /// The paper's procedure: try only the most recently opened slot and open
    /// a new one on failure.
    #[default]
    NextFit,
    /// Try every existing slot in creation order before opening a new one.
    FirstFit,
    /// Place the application into the schedulable slot that leaves the least
    /// remaining slack (tightest fit), opening a new one only if none fits.
    BestFit,
}

impl std::fmt::Display for AllocationStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocationStrategy::NextFit => write!(f, "next-fit"),
            AllocationStrategy::FirstFit => write!(f, "first-fit"),
            AllocationStrategy::BestFit => write!(f, "best-fit"),
        }
    }
}

/// The result of a slot allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotAllocation {
    /// Slots in creation order; each slot lists indices into the original
    /// application slice.
    pub slots: Vec<Vec<usize>>,
    /// The dwell-time model the allocation was computed with.
    pub model: ModelKind,
    /// The wait-time method the allocation was computed with.
    pub method: WaitTimeMethod,
}

impl SlotAllocation {
    /// Number of TT slots used.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Returns the slot index holding the given application, if any.
    pub fn slot_of(&self, app_index: usize) -> Option<usize> {
        self.slots.iter().position(|slot| slot.contains(&app_index))
    }

    /// Verifies that every slot of the allocation is schedulable (under the
    /// design-baseline slot geometry, [`SlotTiming::ZERO`]) and every
    /// application is placed exactly once.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn verify(&self, apps: &[AppTimingParams]) -> Result<bool> {
        self.verify_with(apps, SlotTiming::ZERO)
    }

    /// [`SlotAllocation::verify`] under an explicit slot geometry — the
    /// check to use for allocations computed with a non-zero
    /// [`AllocatorConfig::slot_timing`] (the allocation records its model
    /// and method but not the geometry it was packed under).
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn verify_with(&self, apps: &[AppTimingParams], timing: SlotTiming) -> Result<bool> {
        let mut seen = vec![0usize; apps.len()];
        for slot in &self.slots {
            for &index in slot {
                if index >= apps.len() {
                    return Ok(false);
                }
                seen[index] += 1;
            }
            if !is_slot_schedulable_with(apps, slot, self.model, self.method, timing)? {
                return Ok(false);
            }
        }
        Ok(seen.iter().all(|&count| count == 1))
    }
}

/// Configuration of the slot allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocatorConfig {
    /// Dwell-time model used for the schedulability analysis.
    pub model: ModelKind,
    /// Wait-time computation method.
    pub method: WaitTimeMethod,
    /// Packing strategy.
    pub strategy: AllocationStrategy,
    /// Maximum number of TT slots that may be opened (the static segment has
    /// finitely many; the paper's bus offers 10 per cycle).
    pub max_slots: usize,
    /// Per-slot transmission timing of the analysed bus geometry: the extra
    /// occupancy a candidate slot length Ψ adds to every blocking and
    /// interference interval ([`SlotTiming::ZERO`], the default, is the
    /// design baseline).
    pub slot_timing: SlotTiming,
}

impl Default for AllocatorConfig {
    fn default() -> Self {
        AllocatorConfig {
            model: ModelKind::NonMonotonic,
            method: WaitTimeMethod::ClosedFormBound,
            strategy: AllocationStrategy::NextFit,
            max_slots: 10,
            slot_timing: SlotTiming::ZERO,
        }
    }
}

impl AllocatorConfig {
    /// The full safe sweep matrix over this configuration's `max_slots` and
    /// `slot_timing`: every packing strategy crossed with every *safe*
    /// dwell-time model and both wait-time methods (the unsafe simple
    /// monotonic model is excluded — it can certify allocations that miss
    /// deadlines). The slot-map sweep workloads feed this into
    /// [`allocation_sweep`].
    pub fn sweep_matrix(&self) -> Vec<AllocatorConfig> {
        let mut configs = Vec::new();
        for strategy in [
            AllocationStrategy::NextFit,
            AllocationStrategy::FirstFit,
            AllocationStrategy::BestFit,
        ] {
            for model in [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic] {
                for method in [WaitTimeMethod::ClosedFormBound, WaitTimeMethod::ExactFixedPoint] {
                    configs.push(AllocatorConfig {
                        model,
                        method,
                        strategy,
                        max_slots: self.max_slots,
                        slot_timing: self.slot_timing,
                    });
                }
            }
        }
        configs
    }
}

/// Slot-map sweep plumbing: runs the allocator once per configuration and
/// returns the *distinct* feasible slot maps in input order (configurations
/// that fail — unschedulable application, too few slots — are skipped, and
/// allocations with identical slot structure are deduplicated). The result
/// feeds directly into per-scenario slot-map overrides in the co-simulation
/// layer.
pub fn allocation_sweep(
    apps: &[AppTimingParams],
    configs: &[AllocatorConfig],
) -> Vec<SlotAllocation> {
    let mut distinct: Vec<SlotAllocation> = Vec::new();
    for config in configs {
        if let Ok(allocation) = allocate_slots(apps, config) {
            if !distinct.iter().any(|existing| existing.slots == allocation.slots) {
                distinct.push(allocation);
            }
        }
    }
    distinct
}

/// Allocates the applications to TT slots with the configured greedy
/// strategy, processing them in priority order (decreasing priority, i.e.
/// increasing deadline) exactly as in the paper's case study.
///
/// # Errors
///
/// * [`SchedError::InvalidParameter`] if `apps` is empty, `max_slots` is
///   zero, or an application is unschedulable even alone on a dedicated slot.
/// * [`SchedError::InsufficientSlots`] if more than `max_slots` slots would
///   be required.
pub fn allocate_slots(
    apps: &[AppTimingParams],
    config: &AllocatorConfig,
) -> Result<SlotAllocation> {
    if apps.is_empty() {
        return Err(SchedError::InvalidParameter {
            reason: "cannot allocate an empty application set".to_string(),
        });
    }
    if config.max_slots == 0 {
        return Err(SchedError::InvalidParameter {
            reason: "max_slots must be at least one".to_string(),
        });
    }
    let order = priority_order(apps);
    dedicated_slot_precheck(apps, config, &order)?;
    allocate_slots_prechecked(apps, config, &order)
}

/// Verifies, in priority order, that every application is at least
/// schedulable alone on a dedicated TT slot (its pure-TT response meets the
/// deadline) — the precondition of every greedy strategy. Factored out so
/// the branch-and-bound incumbent seeding pays this characterisation pass
/// **once** across all three greedy strategies instead of once per strategy.
///
/// # Errors
///
/// [`SchedError::InvalidParameter`] naming the first (highest-priority)
/// application that cannot meet its deadline; analysis errors are
/// propagated.
pub(crate) fn dedicated_slot_precheck(
    apps: &[AppTimingParams],
    config: &AllocatorConfig,
    order: &[usize],
) -> Result<()> {
    for &app_index in order {
        if !fits(apps, &[app_index], config)? {
            return Err(SchedError::InvalidParameter {
                reason: format!(
                    "application {} cannot meet its deadline even with a dedicated TT slot",
                    apps[app_index].name
                ),
            });
        }
    }
    Ok(())
}

/// The greedy packing loop of [`allocate_slots`], reusing a precomputed
/// priority order whose applications passed [`dedicated_slot_precheck`].
/// Produces exactly the allocation of [`allocate_slots`].
///
/// The loop allocates only its output: the outer `Vec` once, and each slot
/// once, sized for every application still to be placed.
///
/// # Errors
///
/// [`SchedError::InsufficientSlots`] if more than `config.max_slots` slots
/// would be required; analysis errors are propagated.
pub(crate) fn allocate_slots_prechecked(
    apps: &[AppTimingParams],
    config: &AllocatorConfig,
    order: &[usize],
) -> Result<SlotAllocation> {
    let mut slots: Vec<Vec<usize>> = Vec::with_capacity(config.max_slots.min(order.len()));
    for (position, &app_index) in order.iter().enumerate() {
        let placed = match config.strategy {
            AllocationStrategy::NextFit => {
                // Only the most recently opened slot (none before the first).
                let last = slots.len().saturating_sub(1);
                first_fit(apps, &mut slots[last..], app_index, config)?
            }
            AllocationStrategy::FirstFit => first_fit(apps, &mut slots, app_index, config)?,
            AllocationStrategy::BestFit => best_fit(apps, &mut slots, app_index, config)?,
        };
        if !placed {
            if slots.len() >= config.max_slots {
                return Err(SchedError::InsufficientSlots {
                    available: config.max_slots,
                    application: apps[app_index].name.clone(),
                });
            }
            let mut slot = Vec::with_capacity(order.len() - position);
            slot.push(app_index);
            slots.push(slot);
        }
    }
    Ok(SlotAllocation { slots, model: config.model, method: config.method })
}

/// Places the application into the first of `slots` (in creation order) that
/// stays schedulable with it added; next-fit passes only the last slot.
/// Returns whether it was placed.
fn first_fit(
    apps: &[AppTimingParams],
    slots: &mut [Vec<usize>],
    app_index: usize,
    config: &AllocatorConfig,
) -> Result<bool> {
    for slot in slots {
        slot.push(app_index);
        if fits(apps, slot, config)? {
            return Ok(true);
        }
        slot.pop();
    }
    Ok(false)
}

/// Best-fit placement: among the slots that remain schedulable with the
/// application added, pick the one whose minimum slack is smallest (the
/// first such slot on ties).
fn best_fit(
    apps: &[AppTimingParams],
    slots: &mut [Vec<usize>],
    app_index: usize,
    config: &AllocatorConfig,
) -> Result<bool> {
    let mut best: Option<(usize, f64)> = None;
    for (slot_index, slot) in slots.iter_mut().enumerate() {
        slot.push(app_index);
        let verdict = min_slack(apps, slot, config);
        slot.pop();
        if let Some(min_slack) = verdict? {
            if best.map_or(true, |(_, slack)| min_slack < slack) {
                best = Some((slot_index, min_slack));
            }
        }
    }
    if let Some((slot_index, _)) = best {
        slots[slot_index].push(app_index);
        return Ok(true);
    }
    Ok(false)
}

/// [`is_slot_schedulable_with`] on the allocation-free [`slot_status`],
/// errors included.
///
/// `Feasible` and `Infeasible` mean every member got a finite response,
/// which is exactly when the allocating analysis answers `Ok`. `Dead` may
/// stop at the first hopeless member, while the allocating analysis goes on
/// and fails on any member whose exact fixed point diverges, so under
/// [`WaitTimeMethod::ExactFixedPoint`] a dead slot is scanned for that
/// error (the closed-form bound cannot diverge).
fn fits(apps: &[AppTimingParams], slot: &[usize], config: &AllocatorConfig) -> Result<bool> {
    let (model, method, timing) = (config.model, config.method, config.slot_timing);
    match slot_status(apps, slot, model, method, timing) {
        SlotStatus::Feasible => Ok(true),
        SlotStatus::Infeasible => Ok(false),
        SlotStatus::Dead => {
            if method == WaitTimeMethod::ExactFixedPoint {
                for &index in slot {
                    let response = member_response(apps, slot, index, model, method, timing);
                    if matches!(response, MemberResponse::Diverged) {
                        return Err(diverged(&apps[index]));
                    }
                }
            }
            Ok(false)
        }
    }
}

/// The smallest `deadline − response` over the slot's members if every
/// member meets its deadline, `None` otherwise: the verdict and slack fold
/// of [`crate::analyze_slot_with`], in its member order, without building
/// the analysis. A diverged exact fixed point is the analysis' error
/// wherever it occurs, so only the closed-form bound stops at the first
/// miss.
fn min_slack(
    apps: &[AppTimingParams],
    slot: &[usize],
    config: &AllocatorConfig,
) -> Result<Option<f64>> {
    let (model, method, timing) = (config.model, config.method, config.slot_timing);
    let mut min_slack = f64::INFINITY;
    let mut schedulable = true;
    for &index in slot {
        match member_response(apps, slot, index, model, method, timing) {
            MemberResponse::Diverged => return Err(diverged(&apps[index])),
            MemberResponse::Overloaded => schedulable = false,
            MemberResponse::Finite { response, .. } => {
                let deadline = apps[index].deadline;
                schedulable &= response <= deadline;
                min_slack = f64::min(min_slack, deadline - response);
            }
        }
        if !schedulable && method == WaitTimeMethod::ClosedFormBound {
            return Ok(None);
        }
    }
    Ok(schedulable.then_some(min_slack))
}

/// The error [`crate::analyze_slot_with`] reports when the exact fixed
/// point of `app`'s wait time does not converge.
fn diverged(app: &AppTimingParams) -> SchedError {
    SchedError::FixedPointDiverged {
        application: app.name.clone(),
        iterations: MAX_FIXED_POINT_ITERATIONS,
    }
}

/// The packing loop on the allocating analysis: every candidate slot is a
/// fresh `Vec` checked by building the full [`crate::analyze_slot_with`]
/// result. It is the oracle the production loop is pinned to, slot maps and
/// errors alike.
#[cfg(test)]
mod reference {
    use super::{AllocationStrategy, AllocatorConfig, SlotAllocation};
    use crate::app::{priority_order, AppTimingParams};
    use crate::error::{Result, SchedError};
    use crate::schedulability::{analyze_slot_with, is_slot_schedulable_with};

    pub(super) fn allocate_slots(
        apps: &[AppTimingParams],
        config: &AllocatorConfig,
    ) -> Result<SlotAllocation> {
        if apps.is_empty() {
            return Err(SchedError::InvalidParameter {
                reason: "cannot allocate an empty application set".to_string(),
            });
        }
        if config.max_slots == 0 {
            return Err(SchedError::InvalidParameter {
                reason: "max_slots must be at least one".to_string(),
            });
        }
        let order = priority_order(apps);
        for &app_index in &order {
            if !is_slot_schedulable_with(
                apps,
                &[app_index],
                config.model,
                config.method,
                config.slot_timing,
            )? {
                return Err(SchedError::InvalidParameter {
                    reason: format!(
                        "application {} cannot meet its deadline even with a dedicated TT slot",
                        apps[app_index].name
                    ),
                });
            }
        }
        let mut slots: Vec<Vec<usize>> = Vec::new();
        for &app_index in &order {
            let last_slot = slots.len().checked_sub(1);
            let placed_slot = match config.strategy {
                AllocationStrategy::NextFit => {
                    try_slots(apps, &mut slots, app_index, config, last_slot)?
                }
                AllocationStrategy::FirstFit => {
                    try_slots(apps, &mut slots, app_index, config, None)?
                }
                AllocationStrategy::BestFit => best_fit(apps, &mut slots, app_index, config)?,
            };
            if placed_slot.is_none() {
                if slots.len() >= config.max_slots {
                    return Err(SchedError::InsufficientSlots {
                        available: config.max_slots,
                        application: apps[app_index].name.clone(),
                    });
                }
                slots.push(vec![app_index]);
            }
        }
        Ok(SlotAllocation {
            slots,
            model: config.model,
            method: config.method,
        })
    }

    fn try_slots(
        apps: &[AppTimingParams],
        slots: &mut [Vec<usize>],
        app_index: usize,
        config: &AllocatorConfig,
        only: Option<usize>,
    ) -> Result<Option<usize>> {
        let candidates: Vec<usize> = match only {
            Some(slot_index) => vec![slot_index],
            None => (0..slots.len()).collect(),
        };
        for slot_index in candidates {
            let slot = &mut slots[slot_index];
            slot.push(app_index);
            if is_slot_schedulable_with(
                apps,
                slot,
                config.model,
                config.method,
                config.slot_timing,
            )? {
                return Ok(Some(slot_index));
            }
            slot.pop();
        }
        Ok(None)
    }

    fn best_fit(
        apps: &[AppTimingParams],
        slots: &mut [Vec<usize>],
        app_index: usize,
        config: &AllocatorConfig,
    ) -> Result<Option<usize>> {
        let mut best: Option<(usize, f64)> = None;
        for slot_index in 0..slots.len() {
            let mut candidate = slots[slot_index].clone();
            candidate.push(app_index);
            let analysis = analyze_slot_with(
                apps,
                &candidate,
                config.model,
                config.method,
                config.slot_timing,
            )?;
            if analysis.is_schedulable() {
                let min_slack = analysis
                    .analyses
                    .iter()
                    .map(|a| a.slack())
                    .fold(f64::INFINITY, f64::min);
                if best.map_or(true, |(_, slack)| min_slack < slack) {
                    best = Some((slot_index, min_slack));
                }
            }
        }
        if let Some((slot_index, _)) = best {
            slots[slot_index].push(app_index);
            return Ok(Some(slot_index));
        }
        Ok(None)
    }

    mod tests {
        use crate::allocation::{allocate_slots, AllocationStrategy, AllocatorConfig};
        use crate::app::AppTimingParams;
        use crate::case_study_fixtures::paper_table1;
        use crate::dwell::ModelKind;
        use crate::error::SchedError;
        use crate::schedulability::WaitTimeMethod;
        use crate::timing::SlotTiming;
        use crate::wait_time::MAX_FIXED_POINT_ITERATIONS;
        use proptest::prelude::*;

        const STRATEGIES: [AllocationStrategy; 3] = [
            AllocationStrategy::NextFit,
            AllocationStrategy::FirstFit,
            AllocationStrategy::BestFit,
        ];
        const MODELS: [ModelKind; 3] = [
            ModelKind::NonMonotonic,
            ModelKind::ConservativeMonotonic,
            ModelKind::SimpleMonotonic,
        ];
        const METHODS: [WaitTimeMethod; 2] = [
            WaitTimeMethod::ClosedFormBound,
            WaitTimeMethod::ExactFixedPoint,
        ];

        /// Asserts that the production loop and the oracle return the same
        /// `Result` — slot maps, or error variants with their fields — for
        /// every strategy, dwell model and wait-time method.
        fn assert_parity(apps: &[AppTimingParams], max_slots: usize, timing: SlotTiming) {
            for strategy in STRATEGIES {
                for model in MODELS {
                    for method in METHODS {
                        let config = AllocatorConfig {
                            model,
                            method,
                            strategy,
                            max_slots,
                            slot_timing: timing,
                        };
                        assert_eq!(
                            allocate_slots(apps, &config),
                            super::allocate_slots(apps, &config),
                            "{strategy}/{model}/{method:?}, max_slots {max_slots}, {timing:?}"
                        );
                    }
                }
            }
        }

        /// The LCG fleet family of the committed portfolio fixture
        /// (`tests/allocation_portfolio.rs`, 18 apps, seed 9005, names `R*`)
        /// and of the `allocation_opt` bench's tight fleet (24 apps, seed
        /// 9015, names `T*`).
        fn lcg_fleet(n: usize, seed: u64, prefix: &str) -> Vec<AppTimingParams> {
            let mut state = seed.max(1);
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (u32::MAX as f64)
            };
            (0..n)
                .map(|i| {
                    let xi_tt = 0.2 + next() * 1.5;
                    let xi_et = xi_tt * (2.0 + next() * 4.0);
                    let xi_m = xi_tt * (1.0 + next() * 1.2);
                    let k_p = xi_et * (0.05 + next() * 0.4);
                    let deadline = xi_m + k_p + 0.2 + next() * 3.0;
                    let inter_arrival = deadline + 2.0 + next() * 100.0;
                    AppTimingParams::new(
                        format!("{prefix}{i}"),
                        inter_arrival,
                        deadline,
                        xi_tt,
                        xi_et,
                        xi_m,
                        k_p,
                    )
                    .unwrap()
                })
                .collect()
        }

        #[test]
        fn committed_fleets_match_reference() {
            let fleets = [
                paper_table1(),
                lcg_fleet(18, 9005, "R"),
                lcg_fleet(24, 9015, "T"),
            ];
            for apps in &fleets {
                for max_slots in [1, 2, 3, 5, 8, apps.len()] {
                    for overhead in [0.0, 0.05, 0.3] {
                        assert_parity(apps, max_slots, SlotTiming::new(overhead).unwrap());
                    }
                }
            }
        }

        /// A diverged exact fixed point is every strategy's error, also when
        /// an earlier member of the candidate slot is already dead: the
        /// verdict stops at that member, the analysis goes on to the
        /// diverging one.
        #[test]
        fn diverged_fixed_point_is_the_strategy_error() {
            // H alone nearly saturates a slot (ξᴹ/r = 1/1.00001). Once B
            // joins H and L, H misses its deadline for good (dead), and with
            // B's 2 s blocking L's wait needs ~2·10⁵ fixed-point steps.
            let apps = vec![
                AppTimingParams::new("H", 1.00001, 1.0, 0.1, 10.0, 1.0, 0.5).unwrap(),
                AppTimingParams::new("L", 200.0, 8.0, 0.05, 10.0, 0.1, 0.05).unwrap(),
                AppTimingParams::new("B", 200.0, 9.0, 0.1, 10.0, 2.0, 0.5).unwrap(),
            ];
            let expected = Err(SchedError::FixedPointDiverged {
                application: "L".to_string(),
                iterations: MAX_FIXED_POINT_ITERATIONS,
            });
            for strategy in STRATEGIES {
                let config = AllocatorConfig {
                    method: WaitTimeMethod::ExactFixedPoint,
                    strategy,
                    ..AllocatorConfig::default()
                };
                assert_eq!(allocate_slots(&apps, &config), expected, "{strategy}");
                assert_eq!(
                    super::allocate_slots(&apps, &config),
                    expected,
                    "{strategy}"
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random Table-I-like fleets. Some applications come twice
            /// (identical timing, another name), so candidate slots tie on
            /// their minimum slack and best-fit's tie-break is exercised;
            /// some miss their deadline even alone, so the dedicated-slot
            /// error path is too. Caps from one slot up force
            /// `InsufficientSlots`.
            #[test]
            fn greedy_matches_reference_on_random_fleets(
                rows in proptest::collection::vec(
                    (
                        (0.2f64..1.7, 2.0f64..6.0, 1.0f64..2.2, 0.05f64..0.45),
                        (0.0f64..1.2, -0.1f64..3.0, 0.5f64..100.0, 0usize..4),
                    ),
                    1..13,
                ),
                cap in 0usize..4,
                overhead in 0.0f64..0.4,
                overhead_choice in 0usize..3,
            ) {
                let mut apps = Vec::new();
                for ((xi_tt, et, m, p), (spread, offset, gap, copies)) in rows {
                    let xi_et = xi_tt * et;
                    let xi_m = xi_tt * m;
                    let k_p = xi_et * p;
                    let deadline = xi_tt + (xi_m + k_p - xi_tt) * spread + offset;
                    let row = apps.len();
                    // One row in four is a pair of identical applications.
                    for copy in 0..(1 + usize::from(copies == 0)) {
                        let name = format!("A{row}.{copy}");
                        apps.push(
                            AppTimingParams::new(name, deadline + gap, deadline, xi_tt, xi_et, xi_m, k_p)
                                .unwrap(),
                        );
                    }
                }
                let max_slots = match cap {
                    0 => 1,
                    1 => 2,
                    2 => apps.len().div_ceil(2),
                    _ => apps.len(),
                };
                // Zero overhead one case in three, the design baseline.
                let timing = SlotTiming::new(if overhead_choice == 0 { 0.0 } else { overhead }).unwrap();
                assert_parity(&apps, max_slots, timing);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study_fixtures::paper_table1;

    #[test]
    fn paper_case_study_needs_three_slots_with_non_monotonic_model() {
        let apps = paper_table1();
        let allocation = allocate_slots(&apps, &AllocatorConfig::default()).unwrap();
        assert_eq!(allocation.slot_count(), 3, "allocation = {:?}", allocation.slots);
        assert!(allocation.verify(&apps).unwrap());

        // Paper: S1 = {C3, C6}, S2 = {C2, C4}, S3 = {C5, C1} (indices 2,5 / 1,3 / 4,0).
        assert_eq!(allocation.slots[0], vec![2, 5]);
        assert_eq!(allocation.slots[1], vec![1, 3]);
        assert_eq!(allocation.slots[2], vec![4, 0]);
    }

    #[test]
    fn paper_case_study_needs_five_slots_with_conservative_monotonic_model() {
        let apps = paper_table1();
        let config = AllocatorConfig {
            model: ModelKind::ConservativeMonotonic,
            ..AllocatorConfig::default()
        };
        let allocation = allocate_slots(&apps, &config).unwrap();
        assert_eq!(allocation.slot_count(), 5, "allocation = {:?}", allocation.slots);
        assert!(allocation.verify(&apps).unwrap());

        // Paper: S1 = {C3, C6}, then C2, C4, C5, C1 each alone.
        assert_eq!(allocation.slots[0], vec![2, 5]);
        assert_eq!(allocation.slots.len(), 5);
    }

    #[test]
    fn allocation_sweep_yields_distinct_feasible_slot_maps() {
        let apps = paper_table1();
        let configs = AllocatorConfig::default().sweep_matrix();
        // 3 strategies × 2 safe models × 2 wait-time methods.
        assert_eq!(configs.len(), 12);
        assert!(configs.iter().all(|c| c.model != ModelKind::SimpleMonotonic));

        let allocations = allocation_sweep(&apps, &configs);
        assert!(!allocations.is_empty());
        // Every returned slot map is feasible and they are pairwise distinct.
        for (index, allocation) in allocations.iter().enumerate() {
            assert!(allocation.verify(&apps).unwrap());
            for other in &allocations[index + 1..] {
                assert_ne!(allocation.slots, other.slots);
            }
        }
        // The paper's 3-slot and 5-slot maps are both in the sweep.
        assert!(allocations.iter().any(|a| a.slot_count() == 3));
        assert!(allocations.iter().any(|a| a.slot_count() == 5));
        // Infeasible configurations are skipped, not fatal.
        let strangled = AllocatorConfig { max_slots: 1, ..AllocatorConfig::default() };
        let few = allocation_sweep(&apps, &strangled.sweep_matrix());
        assert!(few.iter().all(|a| a.slot_count() <= 1));
    }

    #[test]
    fn slot_timing_overhead_forces_wider_allocations() {
        let apps = paper_table1();
        // A per-slot overhead of 0.8 s breaks S1 = {C3, C6}'s sharing (C3's
        // deadline gives way once the overhead exceeds ≈ 0.603 s), so the
        // greedy packing must open more slots than the baseline's three. The
        // overhead is exaggerated — physical slot-length deltas are
        // microseconds — to make the mechanism observable on the paper fleet.
        let baseline = allocate_slots(&apps, &AllocatorConfig::default()).unwrap();
        let timing = SlotTiming::new(0.8).unwrap();
        let config = AllocatorConfig { slot_timing: timing, ..AllocatorConfig::default() };
        let stretched = allocate_slots(&apps, &config).unwrap();
        assert!(stretched.slot_count() > baseline.slot_count());
        // The result verifies under its own geometry but not necessarily
        // under the baseline check; the baseline allocation in turn fails
        // under the stretched geometry.
        assert!(stretched.verify_with(&apps, timing).unwrap());
        assert!(!baseline.verify_with(&apps, timing).unwrap());
        // The sweep matrix propagates the timing to every configuration.
        assert!(config.sweep_matrix().iter().all(|c| c.slot_timing == timing));
    }

    #[test]
    fn resource_saving_is_67_percent() {
        let apps = paper_table1();
        let non_monotonic = allocate_slots(&apps, &AllocatorConfig::default()).unwrap();
        let monotonic = allocate_slots(
            &apps,
            &AllocatorConfig {
                model: ModelKind::ConservativeMonotonic,
                ..AllocatorConfig::default()
            },
        )
        .unwrap();
        let overhead = (monotonic.slot_count() as f64 - non_monotonic.slot_count() as f64)
            / non_monotonic.slot_count() as f64;
        assert!((overhead - 0.67).abs() < 0.01, "overhead = {overhead}");
    }

    #[test]
    fn slot_of_reports_placement() {
        let apps = paper_table1();
        let allocation = allocate_slots(&apps, &AllocatorConfig::default()).unwrap();
        assert_eq!(allocation.slot_of(2), Some(0)); // C3 in S1
        assert_eq!(allocation.slot_of(0), Some(2)); // C1 in S3
        assert_eq!(allocation.slot_of(42), None);
    }

    #[test]
    fn first_fit_never_uses_more_slots_than_next_fit() {
        let apps = paper_table1();
        for model in [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic] {
            let next_fit = allocate_slots(
                &apps,
                &AllocatorConfig { model, ..AllocatorConfig::default() },
            )
            .unwrap();
            let first_fit = allocate_slots(
                &apps,
                &AllocatorConfig {
                    model,
                    strategy: AllocationStrategy::FirstFit,
                    ..AllocatorConfig::default()
                },
            )
            .unwrap();
            assert!(first_fit.slot_count() <= next_fit.slot_count());
            assert!(first_fit.verify(&apps).unwrap());
        }
    }

    #[test]
    fn best_fit_produces_valid_allocations() {
        let apps = paper_table1();
        let allocation = allocate_slots(
            &apps,
            &AllocatorConfig {
                strategy: AllocationStrategy::BestFit,
                ..AllocatorConfig::default()
            },
        )
        .unwrap();
        assert!(allocation.verify(&apps).unwrap());
        assert!(allocation.slot_count() <= 6);
    }

    #[test]
    fn max_slots_limit_is_enforced() {
        let apps = paper_table1();
        let config = AllocatorConfig {
            model: ModelKind::ConservativeMonotonic,
            max_slots: 3,
            ..AllocatorConfig::default()
        };
        assert!(matches!(
            allocate_slots(&apps, &config),
            Err(SchedError::InsufficientSlots { .. })
        ));
    }

    #[test]
    fn empty_input_and_zero_slots_are_rejected() {
        let apps = paper_table1();
        assert!(allocate_slots(&[], &AllocatorConfig::default()).is_err());
        assert!(allocate_slots(
            &apps,
            &AllocatorConfig { max_slots: 0, ..AllocatorConfig::default() }
        )
        .is_err());
    }

    #[test]
    fn infeasible_application_is_rejected() {
        // Deadline shorter than even the pure-TT response time.
        let apps = vec![AppTimingParams::new("X", 10.0, 0.2, 0.39, 3.97, 0.64, 0.69).unwrap()];
        assert!(allocate_slots(&apps, &AllocatorConfig::default()).is_err());
    }

    #[test]
    fn single_application_gets_single_slot() {
        let apps = vec![AppTimingParams::new("X", 10.0, 2.0, 0.39, 3.97, 0.64, 0.69).unwrap()];
        let allocation = allocate_slots(&apps, &AllocatorConfig::default()).unwrap();
        assert_eq!(allocation.slot_count(), 1);
        assert_eq!(allocation.slots[0], vec![0]);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(AllocationStrategy::NextFit.to_string(), "next-fit");
        assert_eq!(AllocationStrategy::FirstFit.to_string(), "first-fit");
        assert_eq!(AllocationStrategy::BestFit.to_string(), "best-fit");
        assert_eq!(AllocationStrategy::default(), AllocationStrategy::NextFit);
    }

    #[test]
    fn simple_monotonic_model_uses_fewer_or_equal_slots_but_is_unsafe() {
        // The unsafe simple model under-estimates dwell times, so it can only
        // make packing look easier — the point the paper makes about earlier
        // work producing invalid guarantees.
        let apps = paper_table1();
        let simple = allocate_slots(
            &apps,
            &AllocatorConfig { model: ModelKind::SimpleMonotonic, ..AllocatorConfig::default() },
        )
        .unwrap();
        let non_monotonic = allocate_slots(&apps, &AllocatorConfig::default()).unwrap();
        assert!(simple.slot_count() <= non_monotonic.slot_count());
    }
}
