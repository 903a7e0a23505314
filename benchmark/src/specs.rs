//! Seeded input generators. Every input is a pure function of the
//! benchmark seed and an index; nothing is ever filtered by how the code
//! under test behaves on it.

use cps_core::{case_study, ApplicationSpec};
use cps_flexray::SimRng;

/// Uniform draw from `[lo, hi)`.
fn uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_unit()
}

/// Fleet job `index` of the stream for `seed`: `apps` specifications from
/// the case-study catalogue with seeded perturbations that keep every
/// design valid — disturbance magnitude ×[0.8, 1.2], deadline ×[1, 1.15]
/// and inter-arrival time ×[1, 1.5]. The perturbations make every job
/// distinct, so no two jobs share a cache entry or a characterisation.
pub fn perturbed_fleet(seed: u64, index: u64, apps: usize) -> Vec<ApplicationSpec> {
    let mut rng = SimRng::seeded(SimRng::derive(seed, index));
    case_study::scaled_fleet_specs(apps)
        .into_iter()
        .map(|mut spec| {
            let scale = uniform(&mut rng, 0.8, 1.2);
            spec.disturbance.iter_mut().for_each(|d| *d *= scale);
            spec.deadline *= uniform(&mut rng, 1.0, 1.15);
            spec.inter_arrival =
                (spec.inter_arrival * uniform(&mut rng, 1.0, 1.5)).max(spec.deadline);
            spec
        })
        .collect()
}

/// Fleet size of design job `index`: the stream cycles through every size
/// from 6 to 24 applications, starting at a seeded offset, so each seed
/// sees the same mix of sizes in a different order.
pub fn fleet_size(seed: u64, index: u64) -> usize {
    let offset = SimRng::derive(seed, u64::MAX) % 19;
    6 + ((index + offset) % 19) as usize
}
