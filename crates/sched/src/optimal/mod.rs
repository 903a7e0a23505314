//! Exact TT-slot allocation by branch-and-bound (the design-space companion
//! to the greedy heuristics of [`crate::allocate_slots`]).
//!
//! Minimising the number of TT slots generalises bin packing and is NP-hard,
//! but the fleets the paper dimensions are small (a handful to a few dozen
//! applications), so an exact search is practical — and it turns the
//! heuristic sweep into a provable tool: every greedy answer becomes an upper
//! bound the solver must meet or beat.
//!
//! The module splits into the pieces the two solvers share:
//!
//! * [`search`](self) (private) — the restricted-growth DFS core, the
//!   allocation-free per-slot analysis and the deadness test;
//! * `bounds` (private) — the slot-demand relaxation and the
//!   pairwise-conflict clique lower bound;
//! * [`OptimalAllocator`] — the sequential reference solver;
//! * [`PortfolioAllocator`] — the parallel portfolio solver, bit-identical
//!   to the sequential one for every worker count.
//!
//! # Search space
//!
//! Applications are processed in the same deterministic priority order as the
//! greedy allocator (increasing deadline, name tie-break). A node of the
//! search tree is a partial assignment of the first `k` applications to
//! slots; application `k` branches over every currently open slot (in
//! creation order) and, last, over opening a new slot. Because applications
//! arrive in a fixed order and a new slot is always the next unused index,
//! every set partition of the fleet is enumerated exactly once (the standard
//! restricted-growth canonical form), so slot-relabelling symmetries are
//! never explored.
//!
//! # Feasibility is a property of *final* slot contents
//!
//! The non-monotonic dwell curve means schedulability is **not** monotone
//! under adding applications to a slot: the extra interference increases a
//! member's maximum wait time, and on the falling segment of the curve a
//! larger wait can *reduce* the total response `ξ(k̂) = k̂ + k_dw(k̂)` (or push
//! it past ξᴱᵀ, where the response caps at ξᴱᵀ). A sound exact solver may
//! therefore only prune a branch when a slot is **dead** — provably
//! unschedulable for *every* superset of its current members — and must
//! verify full schedulability at the leaves. Deadness uses two monotone
//! facts proved in the paper's analysis:
//!
//! * the maximum wait time of a member only grows as applications join its
//!   slot (more blocking, more interference, larger utilisation `m`), and an
//!   overloaded slot (`m ≥ 1`) can never recover;
//! * the response at any *future* wait `w′ ≥ w` is bounded below by
//!   `min_{t ≥ w} ξ(t)`, which is attained at a segment endpoint of the
//!   piecewise-linear dwell model (the current wait, the peak `k_p`, or
//!   ξᴱᵀ).
//!
//! If that floor already exceeds a member's deadline, no completion can fix
//! the slot and the branch is cut.
//!
//! # Lower bounds
//!
//! Nodes are cut when `open slots + lower bound ≥ incumbent`. Two valid
//! bounds combine (their maximum): the slot-demand relaxation of the
//! paper's Eq. (19) (every feasible slot carries demand
//! `Σ (ξᴹⱼ + ΔΨ)/rⱼ < 1 + u_max`, yielding a bin-packing floor for the
//! unassigned suffix) and a pairwise-conflict clique bound (applications
//! whose two-member slot is provably dead under the monotone response
//! envelope can never share a slot, so a conflict clique forces that many
//! distinct slots). See the `bounds` module docs for the soundness
//! arguments.
//!
//! The incumbent is seeded with the best feasible greedy allocation
//! (next-fit, first-fit and best-fit under the same model and wait-time
//! method), so the search is pure improvement: it returns a strictly better
//! allocation or proves the greedy one optimal.
//!
//! # Determinism and allocation-freedom
//!
//! Branching order, priority order and tie-breaks are all deterministic, so
//! the returned allocation is a pure function of the inputs — for the
//! sequential solver *and* for the portfolio at any worker count (see
//! [`PortfolioAllocator`] for the two-phase argument). After
//! [`OptimalAllocator::new`] returns, [`OptimalAllocator::solve_in_place`]
//! performs no heap allocation: slot membership, status flags and the best
//! assignment live in buffers sized at construction, and the per-node
//! schedulability check and bound stream over those buffers (verified by the
//! workspace's counting-allocator test; the same holds for
//! [`PortfolioAllocator::solve_in_place`] at one worker).

mod bounds;
mod portfolio;
mod search;

pub use portfolio::{allocate_slots_portfolio, PortfolioAllocator, PortfolioConfig};

use crate::allocation::{AllocatorConfig, SlotAllocation};
use crate::app::AppTimingParams;
use crate::cancel::CancelToken;
use crate::error::{Result, SchedError};

use search::{dfs, seed_greedy, Driver, Flow, Problem, SearchState};

/// Exact minimum-slot allocator: a reusable branch-and-bound search over slot
/// assignments for one fleet under one [`AllocatorConfig`].
///
/// Construction validates the fleet, precomputes the priority order,
/// per-application demands and conflict cliques, and seeds the incumbent
/// with the best greedy allocation. [`OptimalAllocator::solve_in_place`]
/// then runs the exact search without allocating;
/// [`OptimalAllocator::best_allocation`] materialises the result. The
/// `strategy` field of the configuration is ignored — the solver searches
/// over *all* packings.
#[derive(Debug)]
pub struct OptimalAllocator<'a> {
    problem: Problem<'a>,
    state: SearchState,
    /// Best known solution (`best_used` slots in `best_slots[..best_used]`);
    /// `usize::MAX` when none is known.
    best_slots: Vec<Vec<usize>>,
    best_used: usize,
    /// The greedy seed the incumbent is (re)initialised from.
    seed_slots: Vec<Vec<usize>>,
    seed_used: usize,
    /// Search-tree nodes expanded by the last `solve_in_place`.
    nodes: u64,
    /// Cooperative cancellation checkpoint, polled once per search node (a
    /// relaxed atomic load — no allocation, so the solve stays on the
    /// zero-alloc hot path).
    cancel: Option<CancelToken>,
    /// Optional cap on search-tree nodes per solve — the deterministic
    /// budget the design service uses to bound exact-search latency.
    node_budget: Option<u64>,
    /// Whether the last solve ran the search to exhaustion (`false` when the
    /// cancellation token fired or the node budget ran out mid-search).
    exhausted: bool,
}

/// The sequential solver's [`Driver`]: plain-field incumbent and node
/// counter, record-and-continue at improving leaves.
struct SequentialDriver<'s> {
    best_slots: &'s mut [Vec<usize>],
    best_used: &'s mut usize,
    nodes: &'s mut u64,
    budget: Option<u64>,
    cancel: Option<&'s CancelToken>,
}

impl Driver for SequentialDriver<'_> {
    fn bound(&self) -> usize {
        *self.best_used
    }
    fn enter_node(&mut self) -> bool {
        *self.nodes += 1;
        // `>=` so that a budget of 1 fires at the root node: the search may
        // *start* at most `budget` nodes, and a cut solve always degrades —
        // there is no budget small enough to certify by accident. (The wire
        // protocol reserves 0 for "unbounded", so 1 is the smallest budget a
        // service request can carry.)
        if let Some(budget) = self.budget {
            if *self.nodes >= budget {
                return false;
            }
        }
        !self.cancel.as_ref().is_some_and(|token| token.is_cancelled())
    }
    fn on_leaf(&mut self, state: &SearchState) -> bool {
        *self.best_used = state.used;
        for (best, slot) in self.best_slots.iter_mut().zip(&state.slots).take(state.used) {
            best.clear();
            best.extend_from_slice(slot);
        }
        true
    }
}

impl<'a> OptimalAllocator<'a> {
    /// Builds a solver for the fleet under the given configuration
    /// (`config.strategy` is ignored).
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] if `apps` is empty or
    /// `config.max_slots` is zero.
    pub fn new(apps: &'a [AppTimingParams], config: &AllocatorConfig) -> Result<Self> {
        let problem = Problem::new(apps, config)?;
        let pool = problem.pool();
        let make_pool =
            || -> Vec<Vec<usize>> { (0..pool).map(|_| Vec::with_capacity(apps.len())).collect() };
        let state = SearchState::new(&problem);
        let mut seed_slots = make_pool();
        let seed_used = seed_greedy(&problem, &mut seed_slots);
        Ok(OptimalAllocator {
            problem,
            state,
            best_slots: make_pool(),
            best_used: usize::MAX,
            seed_slots,
            seed_used,
            nodes: 0,
            cancel: None,
            node_budget: None,
            exhausted: true,
        })
    }

    /// The slot count of the greedy seed, if any greedy strategy succeeded.
    pub fn greedy_bound(&self) -> Option<usize> {
        (self.seed_used != usize::MAX).then_some(self.seed_used)
    }

    /// Size of the root conflict clique: a certified lower bound on the
    /// optimal slot count of any feasible allocation (0 when the fleet is
    /// too large for the clique bound, which falls back to demand alone).
    pub fn clique_lower_bound(&self) -> usize {
        self.problem.clique.root_clique_size()
    }

    /// Number of search-tree nodes expanded by the last
    /// [`OptimalAllocator::solve_in_place`].
    pub fn nodes_explored(&self) -> u64 {
        self.nodes
    }

    /// Installs (or clears) a cooperative cancellation token. The search
    /// polls it once per expanded node — a relaxed atomic load, nothing
    /// more — and, when it fires, unwinds immediately while keeping the best
    /// incumbent found so far (typically the greedy seed): the degradation
    /// ladder of the design service.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Caps the search: the solve cuts once `budget` nodes have been
    /// entered, so a budget of 1 abandons at the root (`None`, the default,
    /// is unbounded). A cut behaves exactly like cancellation — incumbent
    /// kept, [`OptimalAllocator::certified_optimal`] reports `false` — but
    /// is a *deterministic* trigger, which is what the service's tests pin
    /// degradation behaviour on.
    pub fn set_node_budget(&mut self, budget: Option<u64>) {
        self.node_budget = budget;
    }

    /// Whether the last [`OptimalAllocator::solve_in_place`] ran the search
    /// to exhaustion. `true` means the recorded best allocation is the
    /// provable minimum (or, on `None`, that infeasibility is proven);
    /// `false` means the solve was cut short by the cancellation token or
    /// the node budget and the recorded best is only an upper bound —
    /// `certified_optimal=false` in a served response.
    pub fn certified_optimal(&self) -> bool {
        self.exhausted
    }

    /// Runs the exact search and returns the minimum number of TT slots, or
    /// `None` if no feasible allocation within `max_slots` exists. Performs
    /// no heap allocation; the result is stored internally and can be
    /// materialised with [`OptimalAllocator::best_allocation`].
    pub fn solve_in_place(&mut self) -> Option<usize> {
        // Re-seed the incumbent from the greedy solution so repeated solves
        // are idempotent.
        self.best_used = self.seed_used;
        if self.seed_used != usize::MAX {
            let OptimalAllocator { seed_slots, best_slots, .. } = self;
            for (best, seed) in best_slots.iter_mut().zip(&*seed_slots).take(self.seed_used) {
                best.clear();
                best.extend_from_slice(seed);
            }
        }
        self.state.reset();
        self.nodes = 0;
        let OptimalAllocator {
            problem, state, best_slots, best_used, nodes, cancel, node_budget, ..
        } = self;
        let mut driver = SequentialDriver {
            best_slots,
            best_used,
            nodes,
            budget: *node_budget,
            cancel: cancel.as_ref(),
        };
        let flow = dfs(problem, state, &mut driver, 0);
        self.exhausted = flow != Flow::Aborted;
        (self.best_used != usize::MAX).then_some(self.best_used)
    }

    /// Materialises the best allocation found by the last solve.
    pub fn best_allocation(&self) -> Option<SlotAllocation> {
        (self.best_used != usize::MAX).then(|| SlotAllocation {
            slots: self.best_slots[..self.best_used].to_vec(),
            model: self.problem.model,
            method: self.problem.method,
        })
    }

    /// Convenience: solve and materialise.
    ///
    /// # Errors
    ///
    /// * [`SchedError::NoFeasibleAllocation`] if the exhausted search proves
    ///   no feasible allocation exists within `max_slots`.
    /// * [`SchedError::SearchCancelled`] if the search was cut short (token
    ///   or node budget) before *any* feasible allocation — incumbent
    ///   included — was known; with an incumbent, a cut-short solve still
    ///   returns it (check [`OptimalAllocator::certified_optimal`]).
    pub fn solve(&mut self) -> Result<SlotAllocation> {
        match self.solve_in_place() {
            Some(_) => Ok(self.best_allocation().expect("solution recorded")),
            None if self.exhausted => {
                Err(SchedError::NoFeasibleAllocation { max_slots: self.problem.max_slots })
            }
            None => Err(SchedError::SearchCancelled { nodes: self.nodes }),
        }
    }
}

/// Allocates the applications to TT slots with the *minimum possible* slot
/// count under the configured dwell model and wait-time method
/// (`config.strategy` is ignored): an exact branch-and-bound search whose
/// result never uses more slots than any greedy strategy.
///
/// Unlike the greedy [`crate::allocate_slots`] — which requires every
/// application to be schedulable on a dedicated slot because it only ever
/// *adds* blocking — the exact search also finds allocations in which an
/// application is only schedulable thanks to its slot mates (possible under
/// the non-monotonic dwell curve).
///
/// # Errors
///
/// * [`SchedError::InvalidParameter`] if `apps` is empty or `max_slots` is
///   zero.
/// * [`SchedError::NoFeasibleAllocation`] if the exhausted search proves no
///   feasible allocation within `config.max_slots` slots exists.
pub fn allocate_slots_optimal(
    apps: &[AppTimingParams],
    config: &AllocatorConfig,
) -> Result<SlotAllocation> {
    OptimalAllocator::new(apps, config)?.solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulability::{member_response, min_future_response, MemberResponse};
    use crate::allocation::allocate_slots;
    use crate::case_study_fixtures::paper_table1;
    use crate::dwell::{dwell_for, ModelKind};
    use crate::schedulability::WaitTimeMethod;
    use crate::timing::SlotTiming;

    fn configs() -> Vec<AllocatorConfig> {
        let mut out = Vec::new();
        for model in [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic] {
            for method in [WaitTimeMethod::ClosedFormBound, WaitTimeMethod::ExactFixedPoint] {
                out.push(AllocatorConfig { model, method, ..AllocatorConfig::default() });
            }
        }
        out
    }

    #[test]
    fn paper_case_study_optima_match_the_greedy_headline() {
        let apps = paper_table1();
        for config in configs() {
            let optimal = allocate_slots_optimal(&apps, &config).unwrap();
            let greedy = allocate_slots(&apps, &config).unwrap();
            assert!(optimal.verify(&apps).unwrap());
            assert!(optimal.slot_count() <= greedy.slot_count());
        }
        // The paper's greedy 3-slot result is already optimal.
        let optimal = allocate_slots_optimal(&apps, &AllocatorConfig::default()).unwrap();
        assert_eq!(optimal.slot_count(), 3);
    }

    #[test]
    fn streaming_member_analysis_matches_reference_analysis() {
        let apps = paper_table1();
        let slots: Vec<Vec<usize>> =
            vec![vec![2, 5], vec![1, 3], vec![4, 0], vec![0, 1, 2, 3, 4, 5], vec![3]];
        let timings =
            [SlotTiming::ZERO, SlotTiming::new(0.3).unwrap(), SlotTiming::new(0.8).unwrap()];
        for model in
            [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic, ModelKind::SimpleMonotonic]
        {
            for method in [WaitTimeMethod::ClosedFormBound, WaitTimeMethod::ExactFixedPoint] {
                for timing in timings {
                    for slot in &slots {
                        let mut streaming = true;
                        for &index in slot {
                            match member_response(&apps, slot, index, model, method, timing) {
                                MemberResponse::Finite { response, .. } => {
                                    if response > apps[index].deadline {
                                        streaming = false;
                                    }
                                }
                                _ => streaming = false,
                            }
                        }
                        let reference =
                            crate::is_slot_schedulable_with(&apps, slot, model, method, timing)
                                .unwrap();
                        assert_eq!(
                            streaming, reference,
                            "slot {slot:?} model {model:?} method {method:?} timing {timing:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slot_timing_overhead_raises_the_optimum() {
        let apps = paper_table1();
        // The baseline optimum is the greedy 3-slot packing; a 0.8 s
        // per-slot overhead (exaggerated — physical ΔΨ is microseconds)
        // makes S1 = {C3, C6} infeasible, so even the exact search needs
        // more slots, and its result verifies only under its own geometry.
        let timing = SlotTiming::new(0.8).unwrap();
        let config = AllocatorConfig { slot_timing: timing, ..AllocatorConfig::default() };
        let baseline = allocate_slots_optimal(&apps, &AllocatorConfig::default()).unwrap();
        let stretched = allocate_slots_optimal(&apps, &config).unwrap();
        assert_eq!(baseline.slot_count(), 3);
        assert!(stretched.slot_count() > baseline.slot_count());
        assert!(stretched.verify_with(&apps, timing).unwrap());
        assert!(!baseline.verify_with(&apps, timing).unwrap());
        // The exact search still meets or beats every greedy strategy under
        // the same geometry.
        let greedy = allocate_slots(&apps, &config).unwrap();
        assert!(stretched.slot_count() <= greedy.slot_count());
    }

    #[test]
    fn solver_is_idempotent_and_counts_nodes() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        let mut solver = OptimalAllocator::new(&apps, &config).unwrap();
        assert_eq!(solver.greedy_bound(), Some(3));
        let first = solver.solve_in_place();
        let nodes = solver.nodes_explored();
        let allocation_a = solver.best_allocation().unwrap();
        let second = solver.solve_in_place();
        let allocation_b = solver.best_allocation().unwrap();
        assert_eq!(first, Some(3));
        assert_eq!(first, second);
        assert_eq!(allocation_a, allocation_b);
        assert_eq!(nodes, solver.nodes_explored());
        assert!(nodes > 0);
    }

    #[test]
    fn clique_lower_bound_never_exceeds_the_optimum() {
        let apps = paper_table1();
        for config in configs() {
            let mut solver = OptimalAllocator::new(&apps, &config).unwrap();
            let clique = solver.clique_lower_bound();
            if let Some(optimum) = solver.solve_in_place() {
                assert!(
                    clique <= optimum,
                    "clique bound {clique} exceeds optimum {optimum} under {config:?}"
                );
            }
        }
    }

    #[test]
    fn budget_exhaustion_degrades_to_the_greedy_incumbent() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        let mut solver = OptimalAllocator::new(&apps, &config).unwrap();
        let exact = solver.solve_in_place();
        assert!(solver.certified_optimal());
        let exact_allocation = solver.best_allocation().unwrap();

        // A zero node budget cuts the search at the root: the solve returns
        // the greedy incumbent and refuses to certify it.
        solver.set_node_budget(Some(0));
        let degraded = solver.solve_in_place();
        assert_eq!(degraded, solver.greedy_bound());
        assert!(!solver.certified_optimal());
        let incumbent = solver.best_allocation().unwrap();
        assert!(incumbent.verify(&apps).unwrap());

        // Restoring the budget restores the exact (certified) answer —
        // budget runs never corrupt solver state.
        solver.set_node_budget(None);
        assert_eq!(solver.solve_in_place(), exact);
        assert!(solver.certified_optimal());
        assert_eq!(solver.best_allocation().unwrap(), exact_allocation);
    }

    #[test]
    fn cancellation_token_degrades_and_reports() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        let mut solver = OptimalAllocator::new(&apps, &config).unwrap();
        let token = crate::CancelToken::new();
        solver.set_cancel_token(Some(token.clone()));

        // Un-cancelled token: behaviour (and result bits) unchanged.
        let nominal = solver.solve_in_place();
        assert_eq!(nominal, Some(3));
        assert!(solver.certified_optimal());

        // Pre-cancelled token: the incumbent survives, certification drops.
        token.cancel();
        assert_eq!(solver.solve_in_place(), solver.greedy_bound());
        assert!(!solver.certified_optimal());
        assert!(solver.best_allocation().unwrap().verify(&apps).unwrap());

        // A fleet with no greedy incumbent and a cancelled search has no
        // answer at all: solve() reports the cut, not infeasibility.
        let impossible =
            vec![AppTimingParams::new("X", 10.0, 0.2, 0.39, 3.97, 0.64, 0.69).unwrap()];
        let mut solver = OptimalAllocator::new(&impossible, &config).unwrap();
        solver.set_cancel_token(Some(token));
        assert!(matches!(solver.solve(), Err(SchedError::SearchCancelled { .. })));
    }

    #[test]
    fn infeasible_fleets_report_no_feasible_allocation() {
        let apps = paper_table1();
        let config = AllocatorConfig {
            model: ModelKind::ConservativeMonotonic,
            max_slots: 3,
            ..AllocatorConfig::default()
        };
        // The conservative model needs 5 slots; 3 are offered.
        assert!(matches!(
            allocate_slots_optimal(&apps, &config),
            Err(SchedError::NoFeasibleAllocation { max_slots: 3 })
        ));
        // An application that can never meet its deadline poisons every
        // partition.
        let impossible =
            vec![AppTimingParams::new("X", 10.0, 0.2, 0.39, 3.97, 0.64, 0.69).unwrap()];
        assert!(allocate_slots_optimal(&impossible, &AllocatorConfig::default()).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let apps = paper_table1();
        assert!(allocate_slots_optimal(&[], &AllocatorConfig::default()).is_err());
        assert!(allocate_slots_optimal(
            &apps,
            &AllocatorConfig { max_slots: 0, ..AllocatorConfig::default() }
        )
        .is_err());
    }

    #[test]
    fn single_application_needs_one_slot() {
        let apps = vec![AppTimingParams::new("X", 10.0, 2.0, 0.39, 3.97, 0.64, 0.69).unwrap()];
        let allocation = allocate_slots_optimal(&apps, &AllocatorConfig::default()).unwrap();
        assert_eq!(allocation.slot_count(), 1);
        assert_eq!(allocation.slots[0], vec![0]);
    }

    #[test]
    fn min_future_response_is_a_true_floor() {
        let apps = paper_table1();
        for app in &apps {
            for kind in [
                ModelKind::NonMonotonic,
                ModelKind::ConservativeMonotonic,
                ModelKind::SimpleMonotonic,
            ] {
                for start in 0..40 {
                    let wait = start as f64 * 0.33;
                    let floor = min_future_response(app, kind, wait);
                    // Sample the tail densely; the floor must bound it below.
                    for extra in 0..200 {
                        let t = wait + extra as f64 * 0.1;
                        let response = if t >= app.xi_et {
                            app.xi_et
                        } else {
                            t + dwell_for(app, kind, t)
                        };
                        assert!(
                            floor <= response + 1e-9,
                            "{} {kind:?}: floor {floor} exceeds response {response} at t={t}",
                            app.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn portfolio_matches_sequential_on_the_paper_fleet() {
        let apps = paper_table1();
        for config in configs() {
            let sequential = allocate_slots_optimal(&apps, &config).unwrap();
            for threads in 1..=4 {
                let portfolio = PortfolioConfig::with_threads(threads);
                let parallel = allocate_slots_portfolio(&apps, &config, &portfolio).unwrap();
                assert_eq!(parallel, sequential, "threads={threads} config={config:?}");
            }
        }
    }

    #[test]
    fn portfolio_is_idempotent_and_aggregates_nodes() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        let mut solver =
            PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(1)).unwrap();
        assert_eq!(solver.greedy_bound(), Some(3));
        assert!(solver.incumbent_bound().unwrap() <= 3);
        let first = solver.solve_in_place();
        let nodes = solver.nodes_explored();
        let allocation_a = solver.best_allocation().unwrap();
        assert_eq!(first, Some(3));
        assert!(solver.certified_optimal());
        assert_eq!(solver.solve_in_place(), first);
        assert_eq!(solver.best_allocation().unwrap(), allocation_a);
        // One worker: the aggregate node count is deterministic.
        assert_eq!(solver.nodes_explored(), nodes);
        assert!(nodes > 0);
    }

    #[test]
    fn portfolio_budget_and_cancellation_degrade_like_sequential() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        let mut solver =
            PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(2)).unwrap();
        let exact = solver.solve_in_place();
        assert!(solver.certified_optimal());

        // Aggregate budget of 1: cut at the generation root, incumbent
        // returned uncertified.
        solver.set_node_budget(Some(1));
        assert_eq!(solver.solve_in_place(), solver.incumbent_bound());
        assert!(!solver.certified_optimal());
        assert!(solver.best_allocation().unwrap().verify(&apps).unwrap());

        // Pre-cancelled token: same ladder.
        solver.set_node_budget(None);
        let token = crate::CancelToken::new();
        token.cancel();
        solver.set_cancel_token(Some(token));
        assert_eq!(solver.solve_in_place(), solver.incumbent_bound());
        assert!(!solver.certified_optimal());

        // Clearing both restores the certified optimum.
        solver.set_cancel_token(None);
        assert_eq!(solver.solve_in_place(), exact);
        assert!(solver.certified_optimal());
    }

    #[test]
    fn portfolio_proves_infeasibility_like_sequential() {
        let apps = paper_table1();
        let config = AllocatorConfig {
            model: ModelKind::ConservativeMonotonic,
            max_slots: 3,
            ..AllocatorConfig::default()
        };
        for threads in [1, 3] {
            let result =
                allocate_slots_portfolio(&apps, &config, &PortfolioConfig::with_threads(threads));
            assert!(matches!(result, Err(SchedError::NoFeasibleAllocation { max_slots: 3 })));
        }
    }
}
