//! Worst-case response times and per-slot schedulability (Section IV).
//!
//! Two forms of one analysis: the allocating [`analyze_slot_with`] family,
//! which reports per-application results, and the allocation-free verdict
//! `slot_status` (with `member_response` and `min_future_response`) that
//! the greedy packing, the exact search and its bounds judge slots with.

use crate::app::AppTimingParams;
use crate::dwell::{dwell_for, max_dwell_for, ModelKind};
use crate::error::{Result, SchedError};
use crate::timing::SlotTiming;
use crate::wait_time::{
    max_wait_time_bound_with, max_wait_time_fixed_point_with, MAX_FIXED_POINT_ITERATIONS,
};

/// How the maximum wait time is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WaitTimeMethod {
    /// The closed-form upper bound `a′/(1−m)` of the paper's Eq. (20) — what
    /// the paper uses in its case study.
    #[default]
    ClosedFormBound,
    /// The exact least fixed point of Eq. (5) (tighter, still safe).
    ExactFixedPoint,
}

/// The result of analysing one application on one TT slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseTimeAnalysis {
    /// Name of the analysed application.
    pub application: String,
    /// Maximum wait time k̂_wait before the application gets the slot.
    pub max_wait_time: f64,
    /// Dwell time predicted by the model at that wait time.
    pub dwell_at_max_wait: f64,
    /// Worst-case response time ξ̂ = k̂_wait + k_dw(k̂_wait).
    pub worst_case_response_time: f64,
    /// The application's deadline ξᵈ.
    pub deadline: f64,
}

impl ResponseTimeAnalysis {
    /// Returns `true` if the worst-case response time meets the deadline.
    pub fn is_schedulable(&self) -> bool {
        self.worst_case_response_time <= self.deadline
    }

    /// Slack (deadline minus worst-case response time); negative when the
    /// deadline is missed.
    pub fn slack(&self) -> f64 {
        self.deadline - self.worst_case_response_time
    }
}

/// Analyses one application (given by `index` into `apps`) on the TT slot
/// holding the applications in `slot`.
///
/// # Errors
///
/// * [`SchedError::SlotOverloaded`] if the higher-priority utilisation is ≥ 1.
/// * [`SchedError::InvalidParameter`] if the slot/index combination is
///   malformed.
pub fn analyze_application(
    apps: &[AppTimingParams],
    slot: &[usize],
    index: usize,
    kind: ModelKind,
    method: WaitTimeMethod,
) -> Result<ResponseTimeAnalysis> {
    analyze_application_with(apps, slot, index, kind, method, SlotTiming::ZERO)
}

/// [`analyze_application`] under an explicit slot geometry: the per-slot
/// transmission overhead stretches the blocking and interference occupancy
/// intervals feeding the wait time; the analysed application's own response
/// `ξ(ŵ) = ŵ + k_dw(ŵ)` is a control-layer settling event and is not
/// stretched. With [`SlotTiming::ZERO`] the analysis is bit-identical to
/// [`analyze_application`].
///
/// # Errors
///
/// As [`analyze_application`].
pub fn analyze_application_with(
    apps: &[AppTimingParams],
    slot: &[usize],
    index: usize,
    kind: ModelKind,
    method: WaitTimeMethod,
    timing: SlotTiming,
) -> Result<ResponseTimeAnalysis> {
    let app = apps.get(index).ok_or_else(|| SchedError::InvalidParameter {
        reason: format!("application index {index} out of range"),
    })?;
    let max_wait = match method {
        WaitTimeMethod::ClosedFormBound => {
            max_wait_time_bound_with(apps, slot, index, kind, timing)?
        }
        WaitTimeMethod::ExactFixedPoint => {
            max_wait_time_fixed_point_with(apps, slot, index, kind, timing)?
        }
    };
    // If the maximum wait already exceeds the pure-ET settling time, the
    // disturbance is rejected entirely over ET communication; the response
    // time is then xi_et (the dwell model evaluates to zero there).
    let dwell = dwell_for(app, kind, max_wait);
    let response = if max_wait >= app.xi_et { app.xi_et } else { max_wait + dwell };
    Ok(ResponseTimeAnalysis {
        application: app.name.clone(),
        max_wait_time: max_wait,
        dwell_at_max_wait: dwell,
        worst_case_response_time: response,
        deadline: app.deadline,
    })
}

/// The verdict for a whole slot: the per-application analyses and whether all
/// of them meet their deadlines.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotAnalysis {
    /// Analyses of every application sharing the slot (in the order given).
    pub analyses: Vec<ResponseTimeAnalysis>,
}

impl SlotAnalysis {
    /// Returns `true` if every application on the slot meets its deadline.
    pub fn is_schedulable(&self) -> bool {
        self.analyses.iter().all(ResponseTimeAnalysis::is_schedulable)
    }

    /// The first application (if any) that misses its deadline.
    pub fn first_violation(&self) -> Option<&ResponseTimeAnalysis> {
        self.analyses.iter().find(|a| !a.is_schedulable())
    }
}

/// Analyses all applications sharing one TT slot.
///
/// Note that adding an application to a slot can break the schedulability of
/// applications that were already there (it adds blocking for
/// higher-priority ones and interference for lower-priority ones), which is
/// why the whole slot must be re-analysed after every change — exactly as the
/// paper's allocation procedure does.
///
/// # Errors
///
/// `SlotOverloaded` from the wait-time analysis is mapped to an
/// unschedulable verdict rather than an error (an overloaded slot simply
/// cannot hold the application); other parameter errors are propagated.
pub fn analyze_slot(
    apps: &[AppTimingParams],
    slot: &[usize],
    kind: ModelKind,
    method: WaitTimeMethod,
) -> Result<SlotAnalysis> {
    analyze_slot_with(apps, slot, kind, method, SlotTiming::ZERO)
}

/// [`analyze_slot`] under an explicit slot geometry (see
/// [`analyze_application_with`]).
///
/// # Errors
///
/// As [`analyze_slot`].
pub fn analyze_slot_with(
    apps: &[AppTimingParams],
    slot: &[usize],
    kind: ModelKind,
    method: WaitTimeMethod,
    timing: SlotTiming,
) -> Result<SlotAnalysis> {
    let mut analyses = Vec::with_capacity(slot.len());
    for &index in slot {
        match analyze_application_with(apps, slot, index, kind, method, timing) {
            Ok(analysis) => analyses.push(analysis),
            Err(SchedError::SlotOverloaded { application, .. }) => {
                // Utilisation ≥ 1 means the wait time is unbounded: represent
                // it as an infinite response time so the slot reports
                // unschedulable.
                let app = &apps[index];
                debug_assert_eq!(application, app.name);
                analyses.push(ResponseTimeAnalysis {
                    application: app.name.clone(),
                    max_wait_time: f64::INFINITY,
                    dwell_at_max_wait: 0.0,
                    worst_case_response_time: f64::INFINITY,
                    deadline: app.deadline,
                });
            }
            Err(other) => return Err(other),
        }
    }
    Ok(SlotAnalysis { analyses })
}

/// Convenience wrapper: is the given set of applications schedulable on a
/// single shared TT slot?
///
/// # Errors
///
/// Propagates parameter errors from [`analyze_slot`].
pub fn is_slot_schedulable(
    apps: &[AppTimingParams],
    slot: &[usize],
    kind: ModelKind,
    method: WaitTimeMethod,
) -> Result<bool> {
    Ok(analyze_slot(apps, slot, kind, method)?.is_schedulable())
}

/// [`is_slot_schedulable`] under an explicit slot geometry.
///
/// # Errors
///
/// Propagates parameter errors from [`analyze_slot_with`].
pub fn is_slot_schedulable_with(
    apps: &[AppTimingParams],
    slot: &[usize],
    kind: ModelKind,
    method: WaitTimeMethod,
    timing: SlotTiming,
) -> Result<bool> {
    Ok(analyze_slot_with(apps, slot, kind, method, timing)?.is_schedulable())
}

// ---------------------------------------------------------------------------
// Allocation-free slot verdict
// ---------------------------------------------------------------------------
//
// The greedy packing, the exact search and its bounds judge candidate slots
// on every step, so they use this streaming copy of the analysis above: same
// formulas and float operation order, but no `Vec<ResponseTimeAnalysis>` and
// no cloned names.

/// Verdict of the allocation-free per-slot analysis ([`slot_status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotStatus {
    /// Every member currently meets its deadline.
    Feasible,
    /// Some member misses its deadline, but a future addition could still
    /// repair it (the dwell curve is non-monotonic).
    Infeasible,
    /// Provably unschedulable for every superset of the current members.
    Dead,
}

/// Allocation-free analysis of a candidate slot: mirrors
/// [`analyze_slot_with`] member for member (identical accumulation order,
/// so the verdict is bit-for-bit the one `SlotAllocation::verify` computes),
/// and additionally detects dead slots. It stops at the first dead member,
/// and a diverged fixed point counts as dead; the greedy packing, which
/// must report that divergence as the analysis does, re-checks a dead slot
/// for it (`allocation::fits`).
pub(crate) fn slot_status(
    apps: &[AppTimingParams],
    members: &[usize],
    model: ModelKind,
    method: WaitTimeMethod,
    timing: SlotTiming,
) -> SlotStatus {
    let mut feasible = true;
    for &index in members {
        match member_response(apps, members, index, model, method, timing) {
            MemberResponse::Overloaded => return SlotStatus::Dead,
            MemberResponse::Diverged => return SlotStatus::Dead,
            MemberResponse::Finite { wait, response } => {
                let app = &apps[index];
                if response > app.deadline {
                    feasible = false;
                    // Dead only if no future wait can repair the member:
                    // waits only grow, and the response floor over [wait, ∞)
                    // is attained at a segment endpoint.
                    if min_future_response(app, model, wait) > app.deadline {
                        return SlotStatus::Dead;
                    }
                }
            }
        }
    }
    if feasible {
        SlotStatus::Feasible
    } else {
        SlotStatus::Infeasible
    }
}

/// Outcome of the streaming per-member analysis.
pub(crate) enum MemberResponse {
    /// Higher-priority utilisation `m ≥ 1`: unbounded wait, permanently
    /// unschedulable (matches the infinite response [`analyze_slot_with`]
    /// reports).
    Overloaded,
    /// The exact fixed-point iteration did not converge within
    /// `MAX_FIXED_POINT_ITERATIONS` (the allocating analysis reports
    /// [`SchedError::FixedPointDiverged`] here; [`slot_status`] counts the
    /// slot as dead).
    Diverged,
    /// Finite maximum wait time and worst-case response.
    Finite { wait: f64, response: f64 },
}

/// Streaming replica of [`analyze_application_with`] for one member of a
/// candidate slot: same formulas, same accumulation order over the slot
/// members, no heap allocation. Keeping the float operation order identical
/// makes the verdicts bit-compatible with the `InterferenceContext` path.
pub(crate) fn member_response(
    apps: &[AppTimingParams],
    slot: &[usize],
    index: usize,
    kind: ModelKind,
    method: WaitTimeMethod,
    timing: SlotTiming,
) -> MemberResponse {
    let subject = &apps[index];
    // One pass in slot order mirrors `InterferenceContext::for_application`:
    // `higher_priority` entries are visited in the same order (with the same
    // per-slot overhead applied to each dwell bound), so the utilisation and
    // interference sums round identically.
    let mut blocking: f64 = 0.0;
    let mut utilization: f64 = 0.0;
    let mut interference_sum: f64 = 0.0;
    for &other_index in slot {
        if other_index == index {
            continue;
        }
        let other = &apps[other_index];
        let dwell_bound = timing.effective_dwell(max_dwell_for(other, kind));
        if other.outranks(subject) {
            utilization += dwell_bound / other.inter_arrival;
            interference_sum += dwell_bound;
        } else {
            blocking = blocking.max(dwell_bound);
        }
    }
    if utilization >= 1.0 {
        return MemberResponse::Overloaded;
    }
    let wait = match method {
        WaitTimeMethod::ClosedFormBound => {
            let a_prime = blocking + interference_sum;
            a_prime / (1.0 - utilization)
        }
        WaitTimeMethod::ExactFixedPoint => {
            // The monotone iteration of Eq. (5), started (like the reference
            // implementation) from one pending request per higher-priority
            // application on top of the blocking term.
            let mut wait = blocking + interference_sum;
            let mut converged = None;
            for _ in 0..MAX_FIXED_POINT_ITERATIONS {
                // `request_function`: blocking + Σ ⌈w/rⱼ⌉·ξᴹⱼ, higher-priority
                // terms summed in slot order.
                let mut interference = 0.0;
                for &other_index in slot {
                    if other_index == index {
                        continue;
                    }
                    let other = &apps[other_index];
                    if other.outranks(subject) {
                        let dwell_bound = timing.effective_dwell(max_dwell_for(other, kind));
                        interference += (wait / other.inter_arrival).ceil().max(0.0) * dwell_bound;
                    }
                }
                let next = blocking + interference;
                if (next - wait).abs() < 1e-12 {
                    converged = Some(next);
                    break;
                }
                wait = next;
            }
            match converged {
                Some(wait) => wait,
                None => return MemberResponse::Diverged,
            }
        }
    };
    let dwell = dwell_for(subject, kind, wait);
    let response = if wait >= subject.xi_et {
        subject.xi_et
    } else {
        wait + dwell
    };
    MemberResponse::Finite { wait, response }
}

/// Floor of the worst-case response over every wait `t ≥ wait`:
/// `min_{t ≥ wait} ξ(t)` with `ξ(t) = t + k_dw(t)` for `t < ξᴱᵀ` and
/// `ξ(t) = ξᴱᵀ` beyond. All three analytical dwell models are piecewise
/// linear with breakpoints at most `{k_p, ξᴱᵀ}`, so the minimum over the
/// tail is attained at `wait` itself, at a breakpoint to its right, or at
/// the ξᴱᵀ cap. This is the monotone (non-increasing in no argument,
/// non-decreasing in `wait`) under-envelope of the response curve: the
/// deadness test and the pairwise-conflict bound both judge slots against
/// it, which is exactly the "sound monotone over-approximation" of the
/// dwell curve's repair potential.
pub(crate) fn min_future_response(app: &AppTimingParams, kind: ModelKind, wait: f64) -> f64 {
    let response_at = |t: f64| {
        if t >= app.xi_et {
            app.xi_et
        } else {
            t + dwell_for(app, kind, t)
        }
    };
    let mut floor = response_at(wait).min(app.xi_et);
    if app.k_p > wait {
        floor = floor.min(response_at(app.k_p));
    }
    floor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study_fixtures::paper_table1;

    #[test]
    fn c3_alone_has_tt_response_time() {
        let apps = paper_table1();
        let analysis = analyze_application(
            &apps,
            &[2],
            2,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
        )
        .unwrap();
        assert_eq!(analysis.max_wait_time, 0.0);
        assert!((analysis.worst_case_response_time - 0.39).abs() < 1e-9);
        assert!(analysis.is_schedulable());
        assert!(analysis.slack() > 1.5);
    }

    #[test]
    fn c6_with_c3_matches_paper_response_time() {
        let apps = paper_table1();
        let analysis = analyze_application(
            &apps,
            &[2, 5],
            5,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
        )
        .unwrap();
        assert!((analysis.max_wait_time - 0.669).abs() < 0.001);
        assert!((analysis.worst_case_response_time - 1.589).abs() < 0.005);
        assert!(analysis.is_schedulable());
    }

    #[test]
    fn c3_with_c6_matches_paper_response_time() {
        let apps = paper_table1();
        let analysis = analyze_application(
            &apps,
            &[2, 5],
            2,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
        )
        .unwrap();
        assert!((analysis.max_wait_time - 0.92).abs() < 1e-9);
        assert!((analysis.worst_case_response_time - 1.515).abs() < 0.005);
        assert!(analysis.is_schedulable());
    }

    #[test]
    fn adding_c2_to_slot1_breaks_c3() {
        let apps = paper_table1();
        let slot = vec![2, 5, 1]; // C3, C6, C2
        let analysis = analyze_slot(
            &apps,
            &slot,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
        )
        .unwrap();
        assert!(!analysis.is_schedulable());
        let violation = analysis.first_violation().unwrap();
        assert_eq!(violation.application, "C3");
        assert!(violation.worst_case_response_time > violation.deadline);
    }

    #[test]
    fn monotonic_c2_with_c4_misses_deadline_as_in_paper() {
        let apps = paper_table1();
        let analysis = analyze_application(
            &apps,
            &[1, 3],
            1,
            ModelKind::ConservativeMonotonic,
            WaitTimeMethod::ClosedFormBound,
        )
        .unwrap();
        // Paper: k̂'_wait,2 = 4.94 and ξ̂'_2 = 6.426 > 6.25.
        assert!((analysis.max_wait_time - 4.94).abs() < 1e-9);
        assert!((analysis.worst_case_response_time - 6.426).abs() < 0.01);
        assert!(!analysis.is_schedulable());
    }

    #[test]
    fn non_monotonic_c2_with_c4_is_schedulable() {
        let apps = paper_table1();
        let analysis = analyze_slot(
            &apps,
            &[1, 3],
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
        )
        .unwrap();
        assert!(analysis.is_schedulable(), "S2 = {{C2, C4}} must be schedulable: {analysis:?}");
    }

    #[test]
    fn slot3_c5_c1_is_schedulable_non_monotonic() {
        let apps = paper_table1();
        let analysis = analyze_slot(
            &apps,
            &[4, 0],
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
        )
        .unwrap();
        assert!(analysis.is_schedulable(), "S3 = {{C5, C1}} must be schedulable: {analysis:?}");
    }

    #[test]
    fn exact_fixed_point_is_never_more_pessimistic() {
        let apps = paper_table1();
        let slot: Vec<usize> = (0..apps.len()).collect();
        for index in 0..apps.len() {
            let bound = analyze_application(
                &apps,
                &slot,
                index,
                ModelKind::NonMonotonic,
                WaitTimeMethod::ClosedFormBound,
            )
            .unwrap();
            let exact = analyze_application(
                &apps,
                &slot,
                index,
                ModelKind::NonMonotonic,
                WaitTimeMethod::ExactFixedPoint,
            )
            .unwrap();
            assert!(exact.max_wait_time <= bound.max_wait_time + 1e-9);
        }
    }

    #[test]
    fn overloaded_slot_reports_unschedulable_not_error() {
        let apps = vec![
            AppTimingParams::new("H1", 1.0, 0.5, 0.3, 2.0, 0.6, 0.5).unwrap(),
            AppTimingParams::new("H2", 1.0, 0.6, 0.3, 2.0, 0.6, 0.5).unwrap(),
            AppTimingParams::new("L", 10.0, 5.0, 0.3, 2.0, 0.6, 0.5).unwrap(),
        ];
        let analysis = analyze_slot(
            &apps,
            &[0, 1, 2],
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
        )
        .unwrap();
        assert!(!analysis.is_schedulable());
        assert!(analysis.analyses[2].worst_case_response_time.is_infinite());
        assert!(!is_slot_schedulable(
            &apps,
            &[0, 1, 2],
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound
        )
        .unwrap());
    }

    #[test]
    fn slot_timing_can_break_schedulability() {
        let apps = paper_table1();
        // S1 = {C3, C6} is schedulable under the baseline geometry. Along
        // the falling dwell segment C3's response grows with the wait at
        // slope 1 − ξᴹ/(ξᴱᵀ − k_p) ≈ 0.805, so its deadline breaks once the
        // per-slot overhead exceeds ≈ 0.603 s; 0.8 s (exaggerated — physical
        // ΔΨ is microseconds) pushes it clearly past.
        let slot = [2usize, 5];
        assert!(is_slot_schedulable(&apps, &slot, ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound)
        .unwrap());
        let timing = SlotTiming::new(0.8).unwrap();
        let analysis = analyze_slot_with(
            &apps,
            &slot,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            timing,
        )
        .unwrap();
        assert!(!analysis.is_schedulable());
        assert_eq!(analysis.first_violation().unwrap().application, "C3");
        // The zero-overhead path is the bitwise baseline.
        let base = analyze_slot(&apps, &slot, ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound)
        .unwrap();
        let zero = analyze_slot_with(
            &apps,
            &slot,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            SlotTiming::ZERO,
        )
        .unwrap();
        assert_eq!(base, zero);
        for (a, b) in base.analyses.iter().zip(&zero.analyses) {
            assert_eq!(a.max_wait_time.to_bits(), b.max_wait_time.to_bits());
            assert_eq!(
                a.worst_case_response_time.to_bits(),
                b.worst_case_response_time.to_bits()
            );
        }
    }

    #[test]
    fn invalid_index_is_an_error() {
        let apps = paper_table1();
        assert!(analyze_application(
            &apps,
            &[0],
            42,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound
        )
        .is_err());
    }
}
