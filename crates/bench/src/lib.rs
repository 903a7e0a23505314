//! # cps-bench
//!
//! Criterion benchmark harness for the DATE 2019 reproduction. Each bench
//! target regenerates the data behind one table or figure of the paper (see
//! `DESIGN.md` §5 and `EXPERIMENTS.md`) and additionally measures how long
//! the corresponding analysis or simulation takes:
//!
//! * `fig3_dwell_wait` — experiment E1 (Figure 3).
//! * `fig4_models` — experiment E2 (Figure 4).
//! * `table1_analysis` — experiment E3 (Table I, published and derived).
//! * `slot_allocation` — experiment E4 (3 vs. 5 slots, +67 %).
//! * `fig5_cosim` — experiment E5 (Figure 5 co-simulation).
//! * `ablation_fixed_point`, `ablation_allocation`, `ablation_segments` —
//!   ablations A1–A3.
//! * `kernel_step`, `scenario_throughput`, `fleet_design`, `characterize` —
//!   the perf benches: fused step kernel vs. the seed path, scenario-batch
//!   throughput, design-tier costs (controller synthesis, shared vs. cloned
//!   engine spin-up, workspace vs. allocating DARE) and kernel-based vs.
//!   full-horizon characterisation.
//! * `allocation_opt` — the exact branch-and-bound against the greedy sweep,
//!   plus the parallel portfolio rungs on a contended 24-app fleet.
//!
//! `./ci.sh perf` runs the perf set with `CPS_BENCH_JSON` pointed at
//! `BENCH_results.json`, maintaining the repository's machine-readable
//! performance trajectory (bench name → mean ns/iter).
//!
//! The library part only hosts shared helpers for the bench targets.

#![forbid(unsafe_code)]

use cps_sched::AppTimingParams;

/// Generates a pseudo-random fleet of `n` applications with plausible timing
/// parameters, used by the ablation benches. The generator is deterministic
/// for a given seed so benchmark runs are reproducible.
pub fn synthetic_fleet(n: usize, seed: u64) -> Vec<AppTimingParams> {
    // Small deterministic LCG so the bench crate does not need rand here.
    let mut state = seed.max(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    (0..n)
        .map(|i| {
            let xi_tt = 0.3 + next() * 2.0;
            let xi_et = xi_tt * (2.0 + next() * 3.0);
            let xi_m = xi_tt * (1.0 + next() * 0.8);
            let k_p = xi_et * (0.1 + next() * 0.3);
            let deadline = xi_m + k_p + 1.0 + next() * 4.0;
            let inter_arrival = deadline + 5.0 + next() * 200.0;
            AppTimingParams::new(
                format!("A{i}"),
                inter_arrival,
                deadline,
                xi_tt,
                xi_et,
                xi_m,
                k_p,
            )
            .expect("generated parameters satisfy the invariants")
        })
        .collect()
}

/// A tighter variant of [`synthetic_fleet`]: deadlines leave far less slack
/// over the dwell peak, so slot packing is contended and the exact search
/// has a non-trivial optimality proof — the regime the portfolio bench
/// rungs measure. Deterministic for a given seed.
pub fn synthetic_fleet_tight(n: usize, seed: u64) -> Vec<AppTimingParams> {
    let mut state = seed.max(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
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
                format!("T{i}"),
                inter_arrival,
                deadline,
                xi_tt,
                xi_et,
                xi_m,
                k_p,
            )
            .expect("generated parameters satisfy the invariants")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_fleet_is_valid_and_deterministic() {
        let a = synthetic_fleet(16, 7);
        let b = synthetic_fleet(16, 7);
        assert_eq!(a.len(), 16);
        assert_eq!(a, b);
        let c = synthetic_fleet(16, 8);
        assert_ne!(a, c);
        for app in &a {
            assert!(app.xi_tt <= app.xi_et);
            assert!(app.xi_tt <= app.xi_m);
            assert!(app.deadline <= app.inter_arrival);
        }
    }

    #[test]
    fn tight_fleet_is_valid_deterministic_and_tighter() {
        let a = synthetic_fleet_tight(24, 9015);
        assert_eq!(a, synthetic_fleet_tight(24, 9015));
        assert_eq!(a.len(), 24);
        for app in &a {
            assert!(app.xi_tt <= app.xi_et);
            assert!(app.xi_tt <= app.xi_m);
            assert!(app.deadline <= app.inter_arrival);
        }
        // "Tight" means less deadline slack over the dwell floor on average,
        // which is what makes slot packing contended.
        let slack = |fleet: &[AppTimingParams]| {
            fleet.iter().map(|app| app.deadline - app.xi_m - app.k_p).sum::<f64>()
                / fleet.len() as f64
        };
        assert!(slack(&a) < slack(&synthetic_fleet(24, 9015)));
    }
}
