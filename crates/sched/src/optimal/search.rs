//! Search core shared by the sequential and parallel exact allocators.
//!
//! The core separates the three ingredients every solver mode combines:
//!
//! * [`Problem`] — the immutable description of one exact-allocation
//!   instance: fleet, analysis configuration, deterministic priority order,
//!   and the precomputed bound data ([`super::bounds`]).
//! * [`SearchState`] — the mutable per-worker node state (open slots, their
//!   feasibility status, demand loads and conflict unions), sized once at
//!   construction so a solve never allocates.
//! * [`Driver`] — the policy object a depth-first [`dfs`] consults at every
//!   node: where the incumbent bound comes from (a plain field for the
//!   sequential solver, a shared atomic for portfolio workers), how nodes
//!   are counted against budgets, and what happens at a feasible leaf
//!   (record-and-continue, or stop — the reconstruction mode).
//!
//! Keeping one `dfs` for all modes is what makes the portfolio's
//! bit-identity argument short: every mode explores prefixes in the same
//! restricted-growth order with the same deadness test and the same valid
//! lower bounds, so "first feasible leaf with the optimal count in DFS
//! order" means the same leaf everywhere.
//!
//! A node judges its changed slot with the allocation-free verdict
//! [`crate::schedulability::slot_status`] (its `SlotStatus`, the streaming
//! `member_response` and the deadness floor `min_future_response` live
//! there too). The greedy packing that seeds the incumbent and the
//! conflict bound of [`super::bounds`] use the same verdict, so every
//! allocator judges a slot with one engine.

use crate::allocation::{AllocationStrategy, AllocatorConfig};
use crate::app::{priority_order, AppTimingParams};
use crate::dwell::{max_dwell_for, ModelKind};
use crate::error::{Result, SchedError};
use crate::schedulability::{slot_status, SlotStatus, WaitTimeMethod};
use crate::timing::SlotTiming;

use super::bounds::CliqueBounds;

/// Immutable description of one exact-allocation instance.
#[derive(Debug)]
pub(crate) struct Problem<'a> {
    pub apps: &'a [AppTimingParams],
    pub model: ModelKind,
    pub method: WaitTimeMethod,
    /// The configured cap (kept for error reporting; the working pool is
    /// [`Problem::pool`]).
    pub max_slots: usize,
    /// Per-slot transmission timing of the analysed bus geometry.
    pub timing: SlotTiming,
    /// Applications in decreasing priority (the branching order).
    pub order: Vec<usize>,
    /// Per-application slot demand `uᵢ = (ξᴹᵢ + ΔΨ)/rᵢ`.
    pub demand: Vec<f64>,
    /// Capacity `1 + u_max` of the demand relaxation.
    pub capacity: f64,
    /// `suffix_demand[k]` = total demand of `order[k..]`.
    pub suffix_demand: Vec<f64>,
    /// Pairwise-conflict clique bound data (see [`super::bounds`]).
    pub clique: CliqueBounds,
}

impl<'a> Problem<'a> {
    /// Validates the fleet and precomputes order, demands and bound data.
    pub(crate) fn new(apps: &'a [AppTimingParams], config: &AllocatorConfig) -> Result<Self> {
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
        let demand: Vec<f64> = apps
            .iter()
            .map(|app| {
                config.slot_timing.effective_dwell(max_dwell_for(app, config.model))
                    / app.inter_arrival
            })
            .collect();
        let capacity = 1.0 + demand.iter().copied().fold(0.0, f64::max);
        let mut suffix_demand = vec![0.0; apps.len() + 1];
        for k in (0..apps.len()).rev() {
            suffix_demand[k] = suffix_demand[k + 1] + demand[order[k]];
        }
        let clique =
            CliqueBounds::new(apps, &order, config.model, config.method, config.slot_timing);
        Ok(Problem {
            apps,
            model: config.model,
            method: config.method,
            max_slots: config.max_slots,
            timing: config.slot_timing,
            order,
            demand,
            capacity,
            suffix_demand,
            clique,
        })
    }

    /// Size of the working slot pool (a partition never needs more slots
    /// than applications).
    pub(crate) fn pool(&self) -> usize {
        self.max_slots.min(self.apps.len())
    }

    /// The allocator configuration this problem was built from, with the
    /// given greedy strategy substituted (for incumbent seeding/restarts).
    pub(crate) fn config_with(&self, strategy: AllocationStrategy) -> AllocatorConfig {
        AllocatorConfig {
            model: self.model,
            method: self.method,
            strategy,
            max_slots: self.max_slots,
            slot_timing: self.timing,
        }
    }
}

/// Saved per-slot fields for undoing one [`SearchState::push`].
#[derive(Clone, Copy)]
pub(crate) struct Saved {
    status: SlotStatus,
    load: f64,
    union: u128,
    opened: bool,
}

/// Mutable node state of one worker: the open slots of the current partial
/// assignment plus the per-slot data the bounds and the deadness test
/// consume. All buffers are sized at construction; a solve never allocates.
#[derive(Debug)]
pub(crate) struct SearchState {
    /// Slot pool: `slots[..used]` are the open slots of the current node.
    pub slots: Vec<Vec<usize>>,
    pub status: Vec<SlotStatus>,
    /// Demand load `Σ uⱼ` of each open slot, recomputed exactly whenever a
    /// slot's membership changes (no incremental float drift).
    pub load: Vec<f64>,
    /// OR of the conflict rows of each open slot's members (the clique
    /// bound's "which clique members could this slot still absorb" input).
    pub conflict_union: Vec<u128>,
    pub used: usize,
}

impl SearchState {
    pub(crate) fn new(problem: &Problem<'_>) -> Self {
        let pool = problem.pool();
        SearchState {
            slots: (0..pool).map(|_| Vec::with_capacity(problem.apps.len())).collect(),
            status: vec![SlotStatus::Feasible; pool],
            load: vec![0.0; pool],
            conflict_union: vec![0; pool],
            used: 0,
        }
    }

    /// Back to the root (no open slots). Slot vectors are cleared lazily by
    /// the next `push` that opens them.
    pub(crate) fn reset(&mut self) {
        self.used = 0;
    }

    /// Whether every open slot is currently feasible (the leaf test).
    pub(crate) fn feasible(&self) -> bool {
        self.status[..self.used].iter().all(|&s| s == SlotStatus::Feasible)
    }

    /// Assigns `app` to slot `s` (`s == used` opens the next slot —
    /// restricted-growth canonical form) and recomputes that slot's status,
    /// exact demand load and conflict union. Returns the saved fields for
    /// [`SearchState::pop`].
    pub(crate) fn push(&mut self, problem: &Problem<'_>, s: usize, app: usize) -> Saved {
        let opened = s == self.used;
        let saved = Saved {
            status: self.status[s],
            load: self.load[s],
            union: self.conflict_union[s],
            opened,
        };
        if opened {
            self.slots[s].clear();
            self.used += 1;
        }
        self.slots[s].push(app);
        self.status[s] = slot_status(
            problem.apps,
            &self.slots[s],
            problem.model,
            problem.method,
            problem.timing,
        );
        self.load[s] = self.slots[s].iter().map(|&i| problem.demand[i]).sum();
        self.conflict_union[s] =
            if opened { problem.clique.conflict_row(app) } else { saved.union | problem.clique.conflict_row(app) };
        saved
    }

    /// Undoes the matching [`SearchState::push`].
    pub(crate) fn pop(&mut self, s: usize, saved: Saved) {
        self.slots[s].pop();
        self.status[s] = saved.status;
        self.load[s] = saved.load;
        self.conflict_union[s] = saved.union;
        if saved.opened {
            self.used -= 1;
        }
    }

    /// Rebuilds the state for a frontier prefix: `prefix[d]` is the slot
    /// index of `order[d]`. The prefix must be a valid restricted-growth
    /// string (as emitted by the portfolio's frontier generation).
    pub(crate) fn replay(&mut self, problem: &Problem<'_>, prefix: &[usize]) {
        self.reset();
        for (depth, &s) in prefix.iter().enumerate() {
            self.push(problem, s, problem.order[depth]);
        }
    }
}

/// What a [`dfs`] node returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Subtree fully explored (or cut by a valid bound).
    Done,
    /// The driver's budget/cancellation checkpoint fired; the state has
    /// been unwound but the subtree is incomplete.
    Aborted,
    /// The driver asked to stop at a feasible leaf (reconstruction mode).
    Stopped,
}

/// Per-mode policy consulted by [`dfs`] at every node.
pub(crate) trait Driver {
    /// Exclusive incumbent bound: subtrees whose slot-count floor reaches
    /// this value are cut, and only leaves strictly below it are reported.
    /// `usize::MAX` means "no incumbent known".
    fn bound(&self) -> usize;
    /// Counts the node against budgets and polls cancellation. Returning
    /// `false` aborts the search (the incumbent is kept).
    fn enter_node(&mut self) -> bool;
    /// A feasible leaf using `state.used < bound()` slots. Returning `false`
    /// stops the search (reconstruction found its target).
    fn on_leaf(&mut self, state: &SearchState) -> bool;
}

/// Depth-first branch-and-bound over restricted-growth assignments, from
/// `depth` down. On return the state is unwound to its entry value for every
/// flow, so workers can reuse one state across frontier items.
pub(crate) fn dfs<D: Driver>(
    problem: &Problem<'_>,
    state: &mut SearchState,
    driver: &mut D,
    depth: usize,
) -> Flow {
    if !driver.enter_node() {
        return Flow::Aborted;
    }
    // Bound: every completion opens at least `lower_bound` more slots, so
    // cut when even that cannot beat the incumbent.
    let bound = driver.bound();
    let floor = state.used + super::bounds::lower_bound(problem, state, depth);
    if bound != usize::MAX && floor >= bound {
        return Flow::Done;
    }
    if depth == problem.order.len() {
        if state.used < bound && state.feasible() && !driver.on_leaf(state) {
            return Flow::Stopped;
        }
        return Flow::Done;
    }
    let app = problem.order[depth];
    // Existing slots in creation order, then (canonically) the next unused
    // slot — deterministic tie-breaking in every mode.
    let branches = if state.used < state.slots.len() { state.used + 1 } else { state.used };
    for s in 0..branches {
        let saved = state.push(problem, s, app);
        let flow = if state.status[s] != SlotStatus::Dead {
            dfs(problem, state, driver, depth + 1)
        } else {
            Flow::Done
        };
        state.pop(s, saved);
        // Fast unwind once the budget fired (or reconstruction finished):
        // skip the slot analyses the remaining siblings would run.
        if flow != Flow::Done {
            return flow;
        }
    }
    Flow::Done
}

/// Runs the three greedy strategies under the problem's model/method and
/// stores the best feasible allocation in `seed_slots`, returning its slot
/// count (`usize::MAX` when no greedy strategy succeeds).
///
/// The problem's priority order and one dedicated-slot feasibility pass are
/// shared across all three strategies
/// ([`crate::allocation::dedicated_slot_precheck`]), so seeding pays the
/// per-application characterisation work once instead of once per strategy.
/// The strategies judge their candidate slots with the search's own
/// allocation-free verdict ([`slot_status`]), so the seed costs no heap
/// traffic beyond the allocations it returns.
pub(crate) fn seed_greedy(problem: &Problem<'_>, seed_slots: &mut [Vec<usize>]) -> usize {
    let base = problem.config_with(AllocationStrategy::NextFit);
    if crate::allocation::dedicated_slot_precheck(problem.apps, &base, &problem.order).is_err() {
        // Some application misses its deadline even alone: no greedy
        // strategy can succeed (they all require dedicated-slot
        // feasibility), so the incumbent stays unseeded.
        return usize::MAX;
    }
    let mut seed_used = usize::MAX;
    for strategy in [
        AllocationStrategy::NextFit,
        AllocationStrategy::FirstFit,
        AllocationStrategy::BestFit,
    ] {
        let candidate = crate::allocation::allocate_slots_prechecked(
            problem.apps,
            &problem.config_with(strategy),
            &problem.order,
        );
        if let Ok(allocation) = candidate {
            if allocation.slot_count() < seed_used.min(seed_slots.len() + 1) {
                seed_used = allocation.slot_count();
                for (buffer, slot) in seed_slots.iter_mut().zip(&allocation.slots) {
                    buffer.clear();
                    buffer.extend_from_slice(slot);
                }
            }
        }
    }
    seed_used
}
