//! Characterisation performance benchmark, in two parts.
//!
//! The sweep: the one-pass, early-exit dwell/wait sweep against the
//! full-horizon reference path it replaced, for the linear and the
//! saturated loop. Both paths produce bit-identical curves (asserted here
//! before timing), so the comparison is purely the cost of fixed-horizon,
//! per-wait-point allocating simulation against scratch-buffer simulation
//! that shares the ET prefix and stops on a provable tail bound.
//!
//! The design-layer split: `derived_fleet_pass` times what fleet design
//! pays per six-app fleet (sweep + fit per app, one thread), and
//! `fit_non_monotonic` times the pruned model fit alone on the same six
//! curves, so the sweep's share is their difference. The fit's exhaustive
//! O(P²) oracle is test-only (`cps-core`'s `characterize::reference`), so
//! its cost is read from the perf history rather than timed here.

use cps_control::{
    characterize_dwell_vs_wait, characterize_dwell_vs_wait_reference, CharacterizationConfig,
};
use cps_core::{
    case_study, characterize_application, experiments, fit_non_monotonic, FleetDesigner,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    // Linear switched loops of the case-study servo (the Figure 3 pipeline
    // without saturation), characterised over the default 3000-sample cap.
    let fleet = case_study::derived_fleet().expect("fleet design");
    let app = fleet[2].clone();
    let a1 = app.et_controller().closed_loop().clone();
    let a2 = app.tt_controller().closed_loop().clone();
    let mut initial = app.spec().disturbance.clone();
    initial.extend(std::iter::repeat(0.0).take(app.spec().plant.inputs()));
    let config = CharacterizationConfig {
        period: app.spec().period,
        threshold: app.spec().threshold,
        initial_state: initial,
        plant_order: app.spec().plant.order(),
        horizon: 3_000,
    };
    let fast = characterize_dwell_vs_wait(&a1, &a2, &config).expect("kernel characterisation");
    let reference =
        characterize_dwell_vs_wait_reference(&a1, &a2, &config).expect("reference");
    assert_eq!(fast, reference, "paths must agree before being compared for speed");

    // The saturated servo rig of Figure 3, same comparison.
    let rig = experiments::servo_rig_application().expect("rig design");
    let model = rig.saturated_model().expect("model").expect("rig has a torque limit");
    let rig_config = CharacterizationConfig {
        period: rig.spec().period,
        threshold: rig.spec().threshold,
        initial_state: rig.spec().disturbance.clone(),
        plant_order: rig.spec().plant.order(),
        horizon: 3_000,
    };
    let fast = model.characterize(&rig_config).expect("kernel characterisation");
    let reference = model.characterize_reference(&rig_config).expect("reference");
    assert_eq!(fast, reference, "saturated paths must agree");

    let mut group = c.benchmark_group("characterize");
    group.sample_size(10);
    group.bench_function("linear_kernel", |b| {
        b.iter(|| black_box(characterize_dwell_vs_wait(&a1, &a2, &config).expect("curve")))
    });
    group.bench_function("linear_full_horizon_reference", |b| {
        b.iter(|| {
            black_box(characterize_dwell_vs_wait_reference(&a1, &a2, &config).expect("curve"))
        })
    });
    group.bench_function("saturated_kernel", |b| {
        b.iter(|| black_box(model.characterize(&rig_config).expect("curve")))
    });
    group.bench_function("saturated_full_horizon_reference", |b| {
        b.iter(|| black_box(model.characterize_reference(&rig_config).expect("curve")))
    });
    // The end-to-end Figure 3/4 pipeline of one application (characterise +
    // implicit settling sweeps), now riding entirely on the kernel path.
    group.bench_function("application_pipeline", |b| {
        b.iter(|| black_box(characterize_application(&app).expect("curve")))
    });
    // The design-layer split: one six-app characterisation pass as fleet
    // design runs it (sweep + fit per app), and the fit alone.
    let designer = FleetDesigner::new().with_threads(1);
    let curves: Vec<_> = fleet
        .iter()
        .map(|app| characterize_application(app).expect("curve"))
        .collect();
    group.bench_function("derived_fleet_pass", |b| {
        b.iter(|| black_box(designer.characterize(&fleet).expect("timing table")))
    });
    group.bench_function("fit_non_monotonic", |b| {
        b.iter(|| {
            for curve in &curves {
                black_box(fit_non_monotonic(curve).expect("fit"));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
