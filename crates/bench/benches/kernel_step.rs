//! Microbenchmark: the fused allocation-free [`StepKernel`] versus the
//! seed's allocating per-step path.
//!
//! The seed `PlantSimulator::step` allocated 4–6 fresh `Vec<f64>`s and
//! re-validated shapes on every step (augmented-state clone, controller
//! output, three matrix–vector products and their sum). The kernel performs
//! one in-place matrix–vector product on a precompiled closed-loop matrix.
//! This bench times both on the servo-rig application and prints the
//! measured speedup (the acceptance target is ≥5×).

use cps_control::{
    design_by_pole_placement, plants, CommunicationMode, DelayedLtiSystem,
    StateFeedbackController, StepKernel,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;

fn servo_parts(
) -> (DelayedLtiSystem, DelayedLtiSystem, StateFeedbackController, StateFeedbackController) {
    let plant = plants::servo_rig_upright();
    let et_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.02).expect("ET model");
    let tt_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0007).expect("TT model");
    let et = design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0]).expect("ET design");
    let tt = design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0]).expect("TT design");
    (et_sys, tt_sys, et, tt)
}

/// The seed's per-step arithmetic, reproduced verbatim: every step clones
/// the state into an augmented vector, runs the (allocating) control law and
/// the (allocating, shape-revalidated) three-term plant update.
struct NaiveSimulator {
    et_system: DelayedLtiSystem,
    tt_system: DelayedLtiSystem,
    et_controller: StateFeedbackController,
    tt_controller: StateFeedbackController,
    state: Vec<f64>,
    previous_input: Vec<f64>,
}

impl NaiveSimulator {
    fn step(&mut self, mode: CommunicationMode) {
        let (system, controller) = match mode {
            CommunicationMode::EventTriggered => (&self.et_system, &self.et_controller),
            CommunicationMode::TimeTriggered => (&self.tt_system, &self.tt_controller),
        };
        let mut augmented = self.state.clone();
        augmented.extend_from_slice(&self.previous_input);
        let input = controller.control(&augmented).expect("validated model");
        self.state =
            system.step(&self.state, &input, &self.previous_input).expect("validated model");
        self.previous_input = input;
    }
}

/// Interval at which the benchmark re-injects the disturbance. A settled
/// loop decays into subnormal floats whose microcoded arithmetic is ~50×
/// slower and would dominate both paths equally; recurring disturbances are
/// also what the paper's workload actually looks like.
const REINJECT_EVERY: u32 = 256;

fn measure<F: FnMut(u32)>(steps: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for i in 0..steps {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / f64::from(steps)
}

fn bench(c: &mut Criterion) {
    let (et_sys, tt_sys, et, tt) = servo_parts();
    let mut kernel = StepKernel::new(&et_sys, &tt_sys, &et, &tt).expect("kernel compiles");
    kernel.inject_disturbance(&[45.0_f64.to_radians(), 0.0]).expect("disturbance");
    let mut naive = NaiveSimulator {
        et_system: et_sys,
        tt_system: tt_sys,
        et_controller: et,
        tt_controller: tt,
        state: vec![45.0_f64.to_radians(), 0.0],
        previous_input: vec![0.0],
    };

    let disturbance = [45.0_f64.to_radians(), 0.0];

    // Direct head-to-head measurement, printed so every bench run records
    // the speedup alongside the criterion numbers.
    const STEPS: u32 = 200_000;
    let naive_ns = measure(STEPS, |i| {
        if i % REINJECT_EVERY == 0 {
            naive.state[0] += disturbance[0];
        }
        naive.step(black_box(CommunicationMode::TimeTriggered));
    });
    let kernel_ns = measure(STEPS, |i| {
        if i % REINJECT_EVERY == 0 {
            kernel.inject_disturbance(&disturbance).expect("disturbance");
        }
        kernel.step(black_box(CommunicationMode::TimeTriggered));
    });
    println!("\n=== StepKernel vs. seed per-step path (servo rig, TT mode) ===");
    println!("naive step:  {naive_ns:>8.1} ns/step (allocating, shape-revalidated)");
    println!("kernel step: {kernel_ns:>8.1} ns/step (fused in-place matvec)");
    println!("speedup:     {:>8.1}x\n", naive_ns / kernel_ns);

    let mut group = c.benchmark_group("kernel_step");
    group.bench_function("naive_alloc_step", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            if i % REINJECT_EVERY == 0 {
                naive.state[0] += disturbance[0];
            }
            naive.step(black_box(CommunicationMode::TimeTriggered))
        })
    });
    group.bench_function("fused_kernel_step", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            if i % REINJECT_EVERY == 0 {
                kernel.inject_disturbance(&disturbance).expect("disturbance");
            }
            kernel.step(black_box(CommunicationMode::TimeTriggered))
        })
    });
    group.bench_function("fused_kernel_step_mode_switching", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            if i % REINJECT_EVERY == 0 {
                kernel.inject_disturbance(&disturbance).expect("disturbance");
            }
            let mode = if i & 1 == 0 {
                CommunicationMode::TimeTriggered
            } else {
                CommunicationMode::EventTriggered
            };
            kernel.step(mode)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
