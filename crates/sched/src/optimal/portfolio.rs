//! Parallel portfolio branch-and-bound: the scaled exact allocator.
//!
//! The portfolio returns **bit-identical optima to the sequential
//! [`super::OptimalAllocator`] for every worker count**. That guarantee is
//! engineered, not incidental, and rests on one characterisation of the
//! sequential answer (both solvers share `dfs`, the deadness test and the
//! valid lower bounds of [`super::bounds`]):
//!
//! > The sequential solver returns the greedy three-strategy seed when the
//! > seed's slot count equals the optimum `k*`; otherwise it returns the
//! > **first feasible leaf with `k*` slots in restricted-growth DFS
//! > order**. (Valid lower-bound pruning can never cut the path to that
//! > leaf — along it the floor never exceeds `k*`, while a cut requires
//! > the floor to reach the incumbent, which stays `> k*` until an optimal
//! > leaf is recorded — and dead-slot pruning never fires on the path to
//! > any feasible leaf.)
//!
//! The parallel solve therefore never races on an assignment, only on a
//! *count*:
//!
//! 1. **Seeding.** The greedy three-strategy seed plus a deterministic
//!    LKH-style schedule of randomized-priority-order first-fit restarts
//!    run at construction. Their slot counts tighten the initial shared
//!    upper bound; the best assignment among them (deterministic
//!    tie-break: seed first, then lowest restart index) is the
//!    *degradation incumbent* a cut solve falls back to.
//! 2. **Frontier.** The restricted-growth prefix tree is expanded
//!    breadth-first (with the same node counting, deadness and bound
//!    pruning a `dfs` would apply) until it holds enough subtree roots to
//!    feed every worker.
//! 3. **Count search.** Workers claim frontier items from a shared atomic
//!    cursor and run the common `dfs` with a [`CountDriver`]: the
//!    incumbent is a single `AtomicUsize` slot count updated with
//!    `fetch_min` — no assignment is stored, so worker interleaving cannot
//!    influence anything but how early subtrees get pruned. All node
//!    budgets and the cancellation token aggregate across workers through
//!    one shared atomic counter.
//! 4. **Reconstruction.** If the seed already attains `k*`, the seed is
//!    the answer (exactly as in the sequential solver). Otherwise one
//!    deterministic sequential `dfs` pruned at `floor > k*` re-derives the
//!    first feasible `k*`-leaf in DFS order — provably the sequential
//!    solver's answer — and stops there.
//!
//! A solve cut by the aggregate budget or the token keeps the degradation
//! incumbent and reports `certified_optimal() == false`, mirroring the
//! sequential degradation ladder the design service relies on.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::allocation::{AllocationStrategy, AllocatorConfig, SlotAllocation};
use crate::app::AppTimingParams;
use crate::cancel::CancelToken;
use crate::error::{Result, SchedError};
use crate::schedulability::SlotStatus;

use super::bounds;
use super::search::{dfs, seed_greedy, Driver, Flow, Problem, SearchState};

/// Tuning knobs of the [`PortfolioAllocator`]. The defaults are the
/// configuration every production caller uses; tests pin worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Worker threads for the count search. `0` resolves to the machine's
    /// available parallelism; `1` runs every phase on the calling thread
    /// (no spawn — the allocation-free configuration).
    pub threads: usize,
    /// Number of randomized-priority-order greedy restarts seeding the
    /// shared upper bound (deterministic: restart `r` of a given `seed`
    /// always builds the same order).
    pub restarts: usize,
    /// Base seed of the restart schedule's splitmix64 stream.
    pub seed: u64,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig { threads: 0, restarts: 8, seed: 0x5DEECE66D }
    }
}

impl PortfolioConfig {
    /// A portfolio pinned to `threads` workers (0 = auto).
    pub fn with_threads(threads: usize) -> Self {
        PortfolioConfig { threads, ..PortfolioConfig::default() }
    }

    /// The worker count this configuration resolves to on this machine.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

/// `splitmix64`: the restart schedule's deterministic RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Aggregate budget checkpoint shared by every phase and worker: one node
/// counter, one optional cap, one cancellation token.
#[derive(Clone, Copy)]
struct BudgetRef<'s> {
    nodes: &'s AtomicU64,
    budget: Option<u64>,
    cancel: Option<&'s CancelToken>,
}

impl BudgetRef<'_> {
    /// Counts one node; `false` once the aggregate budget fired (same
    /// `>=` semantics as the sequential solver: a budget of 1 cuts at the
    /// root).
    fn enter(&self) -> bool {
        let entered = self.nodes.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(budget) = self.budget {
            if entered >= budget {
                return false;
            }
        }
        !self.cancel.as_ref().is_some_and(|token| token.is_cancelled())
    }
}

/// Phase-1 driver: shared atomic slot-count incumbent, no assignment.
struct CountDriver<'s> {
    best: &'s AtomicUsize,
    budget: BudgetRef<'s>,
}

impl Driver for CountDriver<'_> {
    fn bound(&self) -> usize {
        self.best.load(Ordering::Relaxed)
    }
    fn enter_node(&mut self) -> bool {
        self.budget.enter()
    }
    fn on_leaf(&mut self, state: &SearchState) -> bool {
        // `fetch_min` makes a stale `bound()` read harmless: a racing
        // better count always wins.
        self.best.fetch_min(state.used, Ordering::Relaxed);
        true
    }
}

/// Phase-2 driver: deterministic sequential walk to the first feasible
/// leaf with at most `target` slots (the proven optimum, so exactly
/// `target`), pruning every subtree whose floor exceeds the target.
struct ReconstructDriver<'s> {
    target: usize,
    budget: BudgetRef<'s>,
    out_slots: &'s mut [Vec<usize>],
    found: &'s mut bool,
}

impl Driver for ReconstructDriver<'_> {
    fn bound(&self) -> usize {
        self.target + 1
    }
    fn enter_node(&mut self) -> bool {
        self.budget.enter()
    }
    fn on_leaf(&mut self, state: &SearchState) -> bool {
        for (out, slot) in self.out_slots.iter_mut().zip(&state.slots).take(state.used) {
            out.clear();
            out.extend_from_slice(slot);
        }
        *self.found = true;
        false
    }
}

/// The breadth-first work pool of phase 1: restricted-growth prefixes of a
/// uniform depth, stored flat (`count` items of `depth` slot indices each)
/// in buffers sized at construction so regeneration never allocates.
#[derive(Debug)]
struct Frontier {
    /// Stop expanding once this many prefixes are available (≈ 8 per
    /// worker, so claim order imbalance cannot starve anyone).
    target: usize,
    depth: usize,
    count: usize,
    active: Vec<usize>,
    scratch: Vec<usize>,
}

/// Expands the prefix tree level by level until the frontier holds
/// [`Frontier::target`] subtree roots (or the tree is exhausted). Applies
/// the exact per-node accounting a `dfs` would: every non-dead child is
/// counted against the aggregate budget and bound-checked; children at
/// full depth are leaf-checked into the shared count incumbent.
fn generate_frontier(
    problem: &Problem<'_>,
    state: &mut SearchState,
    frontier: &mut Frontier,
    best: &AtomicUsize,
    budget: &BudgetRef<'_>,
) -> Flow {
    let n = problem.order.len();
    frontier.depth = 0;
    frontier.count = 1;
    frontier.active.clear();
    // The root prefix, counted and bounded exactly like a `dfs` entry. A
    // root-level cut means the seeds' count is already provably optimal
    // (the clique/demand floor reaches it): phase 1 is over before it
    // starts.
    if !budget.enter() {
        return Flow::Aborted;
    }
    state.reset();
    let bound = best.load(Ordering::Relaxed);
    if bound != usize::MAX && bounds::lower_bound(problem, state, 0) >= bound {
        frontier.count = 0;
        return Flow::Done;
    }
    while frontier.count > 0 && frontier.count < frontier.target && frontier.depth < n {
        let depth = frontier.depth;
        let child_depth = depth + 1;
        let app = problem.order[depth];
        frontier.scratch.clear();
        let mut emitted = 0usize;
        for item in 0..frontier.count {
            let prefix = &frontier.active[item * depth..(item + 1) * depth];
            state.replay(problem, prefix);
            let branches =
                if state.used < state.slots.len() { state.used + 1 } else { state.used };
            for s in 0..branches {
                let saved = state.push(problem, s, app);
                if state.status[s] != SlotStatus::Dead {
                    if !budget.enter() {
                        state.pop(s, saved);
                        return Flow::Aborted;
                    }
                    let bound = best.load(Ordering::Relaxed);
                    let floor = state.used + bounds::lower_bound(problem, state, child_depth);
                    if bound == usize::MAX || floor < bound {
                        if child_depth == n {
                            if state.used < bound && state.feasible() {
                                best.fetch_min(state.used, Ordering::Relaxed);
                            }
                        } else {
                            frontier.scratch.extend_from_slice(prefix);
                            frontier.scratch.push(s);
                            emitted += 1;
                        }
                    }
                }
                state.pop(s, saved);
            }
        }
        std::mem::swap(&mut frontier.active, &mut frontier.scratch);
        frontier.count = emitted;
        frontier.depth = child_depth;
    }
    Flow::Done
}

/// One worker's phase-1 loop: claim frontier items off the shared cursor
/// ("work stealing" from one shared deque), replay each prefix into the
/// worker's preallocated state, and run the common `dfs` against the
/// shared count incumbent. A budget/cancel abort raises the shared flag so
/// sibling workers stop claiming.
#[allow(clippy::too_many_arguments)]
fn drain_frontier(
    problem: &Problem<'_>,
    state: &mut SearchState,
    items: &[usize],
    depth: usize,
    count: usize,
    cursor: &AtomicUsize,
    best: &AtomicUsize,
    budget: BudgetRef<'_>,
    aborted: &AtomicBool,
) {
    loop {
        if aborted.load(Ordering::Relaxed) {
            return;
        }
        let item = cursor.fetch_add(1, Ordering::Relaxed);
        if item >= count {
            return;
        }
        state.replay(problem, &items[item * depth..(item + 1) * depth]);
        let mut driver = CountDriver { best, budget };
        if dfs(problem, state, &mut driver, depth) == Flow::Aborted {
            aborted.store(true, Ordering::Relaxed);
            return;
        }
    }
}

/// Parallel exact minimum-slot allocator: a portfolio-seeded,
/// work-distributed branch-and-bound that returns **bit-identical results
/// to [`super::OptimalAllocator`] for every worker count** (same slot
/// count, same deterministically-tie-broken assignment, same
/// feasible/infeasible verdicts on exhausted solves).
///
/// Construction validates the fleet, seeds the incumbent (greedy
/// strategies plus the restart schedule) and sizes every worker state and
/// the frontier buffers; [`PortfolioAllocator::solve_in_place`] then runs
/// without heap allocation when `threads == 1` (multi-threaded solves
/// allocate only the spawned threads' stacks — the per-node search itself
/// stays allocation-free on every worker).
#[derive(Debug)]
pub struct PortfolioAllocator<'a> {
    problem: Problem<'a>,
    threads: usize,
    /// Best slot count over the restart schedule (`usize::MAX` when no
    /// restart succeeded) — an upper bound for phase 1, never an answer.
    restart_bound: usize,
    /// The greedy three-strategy seed: the certified answer whenever its
    /// count equals the optimum (the sequential solver's rule).
    seed_slots: Vec<Vec<usize>>,
    seed_used: usize,
    /// Degradation incumbent: best of seed + restarts, deterministic
    /// tie-break. What a cut solve returns.
    incumbent_slots: Vec<Vec<usize>>,
    incumbent_used: usize,
    best_slots: Vec<Vec<usize>>,
    best_used: usize,
    /// One preallocated search state per worker; `states[0]` doubles as
    /// the frontier-generation and reconstruction state.
    states: Vec<SearchState>,
    frontier: Frontier,
    /// Aggregate search-tree nodes across generation, every worker and
    /// reconstruction (the budget's denominator).
    nodes: AtomicU64,
    cancel: Option<CancelToken>,
    node_budget: Option<u64>,
    exhausted: bool,
}

impl<'a> PortfolioAllocator<'a> {
    /// Builds a portfolio solver for the fleet under the given allocator
    /// configuration (`config.strategy` is ignored) and portfolio tuning.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] if `apps` is empty or
    /// `config.max_slots` is zero.
    pub fn new(
        apps: &'a [AppTimingParams],
        config: &AllocatorConfig,
        portfolio: &PortfolioConfig,
    ) -> Result<Self> {
        let problem = Problem::new(apps, config)?;
        let pool = problem.pool();
        let make_pool =
            || -> Vec<Vec<usize>> { (0..pool).map(|_| Vec::with_capacity(apps.len())).collect() };

        let mut seed_slots = make_pool();
        let seed_used = seed_greedy(&problem, &mut seed_slots);

        let mut incumbent_slots = make_pool();
        let mut incumbent_used = seed_used;
        if seed_used != usize::MAX {
            for (buffer, slot) in incumbent_slots.iter_mut().zip(&seed_slots).take(seed_used) {
                buffer.clear();
                buffer.extend_from_slice(slot);
            }
        }

        // LKH-style restart schedule: first-fit under deterministic
        // randomized priority orders. Counts tighten the shared upper
        // bound; assignments only ever serve as the degradation incumbent
        // (strict improvement, lowest restart index wins), never as a
        // certified answer — that stays the seed-or-reconstruction rule.
        let mut restart_bound = usize::MAX;
        let base = problem.config_with(AllocationStrategy::NextFit);
        let precheck_ok =
            crate::allocation::dedicated_slot_precheck(apps, &base, &problem.order).is_ok();
        if precheck_ok {
            let restart_config = problem.config_with(AllocationStrategy::FirstFit);
            let mut shuffled = problem.order.clone();
            for restart in 0..portfolio.restarts {
                let mut rng = portfolio
                    .seed
                    .wrapping_add((restart as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                shuffled.copy_from_slice(&problem.order);
                for i in (1..shuffled.len()).rev() {
                    let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
                    shuffled.swap(i, j);
                }
                let candidate = crate::allocation::allocate_slots_prechecked(
                    apps,
                    &restart_config,
                    &shuffled,
                );
                if let Ok(allocation) = candidate {
                    let count = allocation.slot_count();
                    restart_bound = restart_bound.min(count);
                    if count < incumbent_used.min(incumbent_slots.len() + 1) {
                        incumbent_used = count;
                        for (buffer, slot) in
                            incumbent_slots.iter_mut().zip(&allocation.slots)
                        {
                            buffer.clear();
                            buffer.extend_from_slice(slot);
                        }
                    }
                }
            }
        }

        let threads = portfolio.effective_threads().max(1);
        let states: Vec<SearchState> =
            (0..threads).map(|_| SearchState::new(&problem)).collect();
        // Frontier sizing: expansion only runs while `count < target`, and
        // a prefix has at most `pool + 1` children, so `target * (pool+1)`
        // items of at most `apps.len()` indices each bounds every level.
        let target = (threads * 8).max(16);
        let cap_items = target * (pool + 1);
        let frontier = Frontier {
            target,
            depth: 0,
            count: 0,
            active: Vec::with_capacity(cap_items * apps.len()),
            scratch: Vec::with_capacity(cap_items * apps.len()),
        };

        Ok(PortfolioAllocator {
            problem,
            threads,
            restart_bound,
            seed_slots,
            seed_used,
            incumbent_slots,
            incumbent_used,
            best_slots: make_pool(),
            best_used: usize::MAX,
            states,
            frontier,
            nodes: AtomicU64::new(0),
            cancel: None,
            node_budget: None,
            exhausted: true,
        })
    }

    /// The slot count of the greedy three-strategy seed, if any greedy
    /// strategy succeeded (the count [`super::OptimalAllocator`] would
    /// report as its greedy bound).
    pub fn greedy_bound(&self) -> Option<usize> {
        (self.seed_used != usize::MAX).then_some(self.seed_used)
    }

    /// The slot count of the degradation incumbent: the best allocation
    /// known before any search (greedy seed plus restart schedule).
    pub fn incumbent_bound(&self) -> Option<usize> {
        (self.incumbent_used != usize::MAX).then_some(self.incumbent_used)
    }

    /// Size of the root conflict clique: a certified lower bound on the
    /// optimal slot count (0 when the clique bound is disabled).
    pub fn clique_lower_bound(&self) -> usize {
        self.problem.clique.root_clique_size()
    }

    /// Resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Aggregate search-tree nodes of the last solve, summed across
    /// frontier generation, every worker and reconstruction. Deterministic
    /// for `threads == 1`; with more workers the total varies run-to-run
    /// (pruning races), though the returned optimum never does.
    pub fn nodes_explored(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Installs (or clears) a cooperative cancellation token, polled once
    /// per aggregate node by whichever phase/worker counts it.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Caps the *aggregate* node count across all workers and phases; the
    /// same `>=` semantics as the sequential solver, so a budget of 1 cuts
    /// at the root and always degrades.
    pub fn set_node_budget(&mut self, budget: Option<u64>) {
        self.node_budget = budget;
    }

    /// Whether the last solve ran to exhaustion (`true`: the result is the
    /// certified optimum, or infeasibility is proven on `None`).
    pub fn certified_optimal(&self) -> bool {
        self.exhausted
    }

    /// Runs the portfolio search and returns the minimum slot count, or
    /// `None` if no feasible allocation within `max_slots` exists (when
    /// [`PortfolioAllocator::certified_optimal`]) or nothing is known (cut
    /// with no incumbent). Allocation-free for `threads == 1`.
    pub fn solve_in_place(&mut self) -> Option<usize> {
        let PortfolioAllocator {
            problem,
            threads: _,
            restart_bound,
            seed_slots,
            seed_used,
            incumbent_slots,
            incumbent_used,
            best_slots,
            best_used,
            states,
            frontier,
            nodes,
            cancel,
            node_budget,
            exhausted,
        } = self;

        // Degradation default: the portfolio incumbent (re-copied so
        // repeated solves are idempotent).
        *best_used = *incumbent_used;
        if *incumbent_used != usize::MAX {
            for (best, slot) in best_slots.iter_mut().zip(&*incumbent_slots).take(*incumbent_used)
            {
                best.clear();
                best.extend_from_slice(slot);
            }
        }
        nodes.store(0, Ordering::Relaxed);
        *exhausted = true;

        let shared_best = AtomicUsize::new((*seed_used).min(*restart_bound));
        let budget =
            BudgetRef { nodes, budget: *node_budget, cancel: cancel.as_ref() };

        // Phases 0+1: frontier generation, then the parallel count search.
        let (first, rest) = states.split_first_mut().expect("at least one worker state");
        let mut cut = generate_frontier(problem, first, frontier, &shared_best, &budget)
            == Flow::Aborted;
        if !cut && frontier.count > 0 {
            let aborted = AtomicBool::new(false);
            let cursor = AtomicUsize::new(0);
            let items = &frontier.active[..frontier.count * frontier.depth];
            let (depth, count) = (frontier.depth, frontier.count);
            if rest.is_empty() {
                // Single worker: the calling thread drains the whole
                // frontier — no spawn, no allocation.
                drain_frontier(
                    problem, first, items, depth, count, &cursor, &shared_best, budget, &aborted,
                );
            } else {
                std::thread::scope(|scope| {
                    for state in rest.iter_mut() {
                        scope.spawn(|| {
                            drain_frontier(
                                problem,
                                state,
                                items,
                                depth,
                                count,
                                &cursor,
                                &shared_best,
                                budget,
                                &aborted,
                            );
                        });
                    }
                    drain_frontier(
                        problem, first, items, depth, count, &cursor, &shared_best, budget,
                        &aborted,
                    );
                });
            }
            cut = aborted.load(Ordering::Relaxed);
        }
        if cut {
            *exhausted = false;
            return (*best_used != usize::MAX).then_some(*best_used);
        }

        // Phase 1 exhausted: the shared count is the certified optimum.
        let optimum = shared_best.load(Ordering::Relaxed);
        if optimum == usize::MAX {
            // No feasible leaf anywhere and no greedy/restart incumbent:
            // infeasibility within `max_slots` is proven.
            *best_used = usize::MAX;
            return None;
        }
        if *seed_used == optimum {
            // The sequential rule: a seed matching the optimum *is* the
            // answer (the search never records a non-improving leaf).
            *best_used = optimum;
            for (best, slot) in best_slots.iter_mut().zip(&*seed_slots).take(optimum) {
                best.clear();
                best.extend_from_slice(slot);
            }
            return Some(optimum);
        }

        // Phase 2: deterministic reconstruction of the first feasible
        // `optimum`-slot leaf in DFS order — the sequential solver's
        // assignment — under the same aggregate budget.
        first.reset();
        let mut found = false;
        let mut driver = ReconstructDriver {
            target: optimum,
            budget,
            out_slots: best_slots,
            found: &mut found,
        };
        let flow = dfs(problem, first, &mut driver, 0);
        if found {
            *best_used = optimum;
            return Some(optimum);
        }
        // The optimum was proven reachable, so an un-found leaf means the
        // budget/token cut reconstruction short: degrade to the incumbent.
        debug_assert_eq!(flow, Flow::Aborted);
        *exhausted = false;
        (*best_used != usize::MAX).then_some(*best_used)
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
    /// * [`SchedError::NoFeasibleAllocation`] if the exhausted search
    ///   proves no feasible allocation exists within `max_slots`.
    /// * [`SchedError::SearchCancelled`] if the search was cut short
    ///   (token or aggregate node budget) before *any* feasible allocation
    ///   — incumbent included — was known.
    pub fn solve(&mut self) -> Result<SlotAllocation> {
        match self.solve_in_place() {
            Some(_) => Ok(self.best_allocation().expect("solution recorded")),
            None if self.exhausted => {
                Err(SchedError::NoFeasibleAllocation { max_slots: self.problem.max_slots })
            }
            None => Err(SchedError::SearchCancelled { nodes: self.nodes_explored() }),
        }
    }
}

/// Allocates the applications to TT slots with the *minimum possible* slot
/// count, like [`super::allocate_slots_optimal`], but distributing the
/// search over `portfolio` workers. Bit-identical to the sequential result
/// for every worker count.
///
/// # Errors
///
/// Same contract as [`super::allocate_slots_optimal`].
pub fn allocate_slots_portfolio(
    apps: &[AppTimingParams],
    config: &AllocatorConfig,
    portfolio: &PortfolioConfig,
) -> Result<SlotAllocation> {
    PortfolioAllocator::new(apps, config, portfolio)?.solve()
}
