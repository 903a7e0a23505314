//! Lower bounds for the exact slot search: the slot-demand relaxation and a
//! pairwise-conflict clique bound.
//!
//! # Demand relaxation
//!
//! For the lowest-priority member `i` of a feasible slot `S`, the paper's
//! Eq. (19) requires `m = Σ_{j∈S∖{i}} ξ̃ᴹⱼ/rⱼ < 1`, hence every feasible slot
//! carries total demand `Σ_{j∈S} uⱼ < 1 + uᵢ ≤ 1 + u_max` with
//! `uⱼ = ξ̃ᴹⱼ/rⱼ`, where `ξ̃ᴹⱼ = ξᴹⱼ + ΔΨ` is the dwell bound stretched by the
//! per-slot transmission overhead of the analysed bus geometry. Relaxing
//! schedulability to this scalar capacity yields a bin-packing bound: with
//! `D` the demand of the unassigned applications and `R` the residual
//! capacity of the open slots, at least `⌈(D − R)/(1 + u_max)⌉` further
//! slots are needed.
//!
//! # Pairwise-conflict clique bound
//!
//! Two applications *conflict* when the two-member slot `{i, j}` is provably
//! [`SlotStatus::Dead`]: some member is overloaded (`m ≥ 1`), or its
//! response floor under the **monotone over-approximation of the dwell
//! curve** — the non-increasing under-envelope
//! `ξ̲(w) = min_{t ≥ w} ξ(t)` of
//! [`min_future_response`](crate::schedulability::min_future_response) —
//! already misses its deadline. Deadness is closed under supersets (waits
//! only grow as a slot fills, and the envelope is monotone in the wait), so
//! **no feasible allocation may ever co-locate two conflicting
//! applications**: judging
//! the pair against the envelope over-approximates everything any future
//! slot mate could repair, which is what makes the verdict sound for every
//! completion. Mutually-conflicting applications therefore occupy pairwise
//! distinct slots, and a clique in the conflict graph is a lower bound on
//! the slot count.
//!
//! Per search node the bound is made incremental: a greedy clique
//! `C(depth)` over the *unassigned* suffix `order[depth..]` is precomputed
//! per depth at construction; at a node with open slots `s = 0..used`, an
//! open slot can absorb **at most one** member of `C(depth)` (its members
//! mutually conflict), and only if at least one member does not conflict
//! with any current member of `s` (tracked as the OR of conflict rows,
//! [`SearchState::conflict_union`]). Hence at least
//! `|C(depth)| − #{absorbing slots}` *new* slots must open.
//!
//! Both bounds are valid (they never exceed the slot count of any feasible
//! completion), so branch-and-bound pruning with their maximum preserves
//! not only the optimal count but the *identity* of the first optimal leaf
//! in DFS order — the determinism invariant the portfolio relies on.
//!
//! Conflict rows are `u128` bitmasks; fleets beyond 128 applications
//! disable the clique bound (empty masks, zero cliques) and fall back to
//! the demand relaxation alone.

use crate::app::AppTimingParams;
use crate::dwell::ModelKind;
use crate::schedulability::{slot_status, SlotStatus, WaitTimeMethod};
use crate::timing::SlotTiming;

use super::search::{Problem, SearchState};

/// Largest fleet for which conflict rows fit one machine word pair.
const CLIQUE_MAX_APPS: usize = 128;

/// Precomputed pairwise-conflict data: per-application conflict rows and a
/// greedy conflict clique per priority-order suffix.
#[derive(Debug, Clone)]
pub(crate) struct CliqueBounds {
    /// `conflict[i]` has bit `j` set when `{i, j}` is a dead pair. All-zero
    /// (bound disabled) for fleets beyond [`CLIQUE_MAX_APPS`].
    conflict: Vec<u128>,
    /// `suffix_mask[k]` / `suffix_size[k]`: a greedy clique over
    /// `order[k..]` in the conflict graph (members as an index bitmask, and
    /// its cardinality).
    suffix_mask: Vec<u128>,
    suffix_size: Vec<usize>,
}

impl CliqueBounds {
    /// Builds the conflict rows (one dead-pair analysis per application
    /// pair) and the per-depth greedy suffix cliques.
    pub(crate) fn new(
        apps: &[AppTimingParams],
        order: &[usize],
        model: ModelKind,
        method: WaitTimeMethod,
        timing: SlotTiming,
    ) -> Self {
        let n = apps.len();
        let mut conflict = vec![0u128; n];
        if n <= CLIQUE_MAX_APPS {
            for a in 0..n {
                for b in (a + 1)..n {
                    if slot_status(apps, &[a, b], model, method, timing) == SlotStatus::Dead {
                        conflict[a] |= 1u128 << b;
                        conflict[b] |= 1u128 << a;
                    }
                }
            }
        }
        // Greedy clique per suffix, scanned in priority order so the clique
        // (and with it the whole bound) is a deterministic function of the
        // problem. Growing a clique only ever requires candidates that
        // conflict with every member so far.
        let mut suffix_mask = vec![0u128; n + 1];
        let mut suffix_size = vec![0usize; n + 1];
        for k in (0..n).rev() {
            let mut mask = 0u128;
            let mut size = 0usize;
            for &app in &order[k..] {
                if mask & !conflict[app] == 0 {
                    mask |= 1u128 << app;
                    size += 1;
                }
            }
            suffix_mask[k] = mask;
            suffix_size[k] = size;
        }
        CliqueBounds { conflict, suffix_mask, suffix_size }
    }

    /// The conflict row of one application (all-zero when disabled).
    #[inline]
    pub(crate) fn conflict_row(&self, app: usize) -> u128 {
        self.conflict[app]
    }

    /// The size of the greedy conflict clique over the whole fleet — a
    /// valid lower bound on the optimal slot count of any feasible
    /// allocation (0 when the bound is disabled).
    pub(crate) fn root_clique_size(&self) -> usize {
        self.suffix_size[0]
    }

    /// Lower bound on the number of *additional* slots any completion must
    /// open for `order[depth..]`, given the conflict unions of the open
    /// slots: clique members pairwise exclude each other, and each open
    /// slot absorbs at most one member — and only when at least one clique
    /// member is conflict-free against that slot's current membership.
    #[inline]
    pub(crate) fn extra(&self, depth: usize, open_unions: &[u128]) -> usize {
        let size = self.suffix_size[depth];
        if size == 0 {
            return 0;
        }
        let mask = self.suffix_mask[depth];
        let mut absorbing = 0usize;
        for &union in open_unions {
            if mask & !union != 0 {
                absorbing += 1;
            }
        }
        size.saturating_sub(absorbing)
    }
}

/// Demand-relaxation lower bound on the number of *additional* slots any
/// completion of the current node must open for `order[depth..]`.
fn demand_extra(problem: &Problem<'_>, state: &SearchState, depth: usize) -> usize {
    let remaining = problem.suffix_demand[depth];
    if remaining <= 0.0 {
        return 0;
    }
    let mut residual = 0.0;
    for s in 0..state.used {
        residual += (problem.capacity - state.load[s]).max(0.0);
    }
    if remaining <= residual {
        return 0;
    }
    ((remaining - residual) / problem.capacity).ceil() as usize
}

/// Combined node lower bound: the larger of the demand relaxation and the
/// conflict-clique bound (both valid, so their maximum is).
#[inline]
pub(crate) fn lower_bound(problem: &Problem<'_>, state: &SearchState, depth: usize) -> usize {
    demand_extra(problem, state, depth)
        .max(problem.clique.extra(depth, &state.conflict_union[..state.used]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocatorConfig;
    use crate::case_study_fixtures::paper_table1;
    use crate::schedulability::min_future_response;

    /// A dead pair must be dead in every superset sampled: the soundness
    /// fact the conflict definition rests on (waits grow, envelope is
    /// monotone).
    #[test]
    fn conflicting_pairs_stay_infeasible_in_sampled_supersets() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        let problem = Problem::new(&apps, &config).unwrap();
        let n = apps.len();
        for a in 0..n {
            for b in (a + 1)..n {
                if problem.clique.conflict_row(a) & (1u128 << b) == 0 {
                    continue;
                }
                // Every superset {a, b, c} must analyse as unschedulable.
                for c in 0..n {
                    if c == a || c == b {
                        continue;
                    }
                    let schedulable = crate::is_slot_schedulable_with(
                        &apps,
                        &[a, b, c],
                        config.model,
                        config.method,
                        config.slot_timing,
                    )
                    .unwrap();
                    assert!(
                        !schedulable,
                        "dead pair ({a},{b}) became schedulable with {c} added"
                    );
                }
            }
        }
    }

    /// The monotone-envelope definition: a pair is only conflicting when a
    /// member's response floor misses its deadline (or the pair overloads),
    /// never merely because the current response does.
    #[test]
    fn conflict_requires_the_envelope_to_miss_not_just_the_response() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        for a in 0..apps.len() {
            for b in (a + 1)..apps.len() {
                let status = slot_status(
                    &apps,
                    &[a, b],
                    config.model,
                    config.method,
                    config.slot_timing,
                );
                if status == SlotStatus::Infeasible {
                    // Infeasible-but-not-dead: some member misses now, but
                    // the envelope still clears its deadline somewhere in
                    // the tail — the pair must not be a conflict edge.
                    let problem = Problem::new(&apps, &config).unwrap();
                    assert_eq!(problem.clique.conflict_row(a) & (1u128 << b), 0);
                }
            }
        }
    }

    #[test]
    fn suffix_cliques_are_cliques_within_their_suffix() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        let problem = Problem::new(&apps, &config).unwrap();
        let clique = &problem.clique;
        for k in 0..=apps.len() {
            let mask = clique.suffix_mask[k];
            assert_eq!(mask.count_ones() as usize, clique.suffix_size[k]);
            let members: Vec<usize> =
                (0..apps.len()).filter(|&a| mask & (1u128 << a) != 0).collect();
            for &a in &members {
                // Members come from the unassigned suffix only...
                assert!(problem.order[k..].contains(&a));
                // ...and conflict pairwise (the property the bound needs).
                for &b in &members {
                    if a != b {
                        assert_ne!(clique.conflict_row(a) & (1u128 << b), 0);
                    }
                }
            }
        }
        // The root clique may never exceed the known optimum (3 slots under
        // the default configuration).
        assert!(clique.root_clique_size() <= 3);
    }

    #[test]
    fn min_future_response_is_monotone_in_wait() {
        let apps = paper_table1();
        for app in &apps {
            for kind in [
                ModelKind::NonMonotonic,
                ModelKind::ConservativeMonotonic,
                ModelKind::SimpleMonotonic,
            ] {
                let mut previous = f64::NEG_INFINITY;
                for step in 0..200 {
                    let wait = step as f64 * 0.05;
                    let floor = min_future_response(app, kind, wait);
                    assert!(
                        floor + 1e-9 >= previous,
                        "{}: envelope dropped from {previous} to {floor} at wait {wait}",
                        app.name
                    );
                    previous = floor;
                }
            }
        }
    }
}
