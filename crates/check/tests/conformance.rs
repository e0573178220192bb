//! Measured-vs-certified conformance: on every bundled model x platform
//! combination, tier D's statically certified peak-memory bound must
//! dominate the functional engine's measured high-water marks; as the
//! engine holds every slot to session end, measured slots must equal the
//! certified slots, so a lowering that adds or drops a write fails here.
//!
//! One test per model, each over the same 12 (platform, precision)
//! combinations. The tests run concurrently: every session counts only
//! the scratch its own threads drew.

use edgenn_check::check_ownership;
use edgenn_core::plan::{ExecutionConfig, Precision};
use edgenn_core::runtime::{functional, Runtime};
use edgenn_core::tuner::Tuner;
use edgenn_nn::models::{build, ModelKind, ModelScale};
use edgenn_sim::platforms;
use edgenn_tensor::Tensor;

/// Checks `model` on all six platforms in both precisions.
fn certified_bound_dominates_measured(model: ModelKind) {
    let platforms = [
        platforms::jetson_agx_xavier(),
        platforms::raspberry_pi_4(),
        platforms::dimensity_8100(),
        platforms::rtx_2080ti_server(),
        platforms::amd_embedded_apu(),
        platforms::apple_silicon_m1(),
    ];
    let mut combos = 0;
    let graph = build(model, ModelScale::Tiny);
    for platform in &platforms {
        // The certified bound must dominate in both precisions: the
        // int8 kernels acquire i8/i16 scratch the f32 path never
        // touches, and `Layer::scratch_bytes` claims to cover both.
        for precision in [Precision::F32, Precision::Int8] {
            // GPU-less platforms take the CPU-only config, mirroring
            // the CI matrix: the tuner refuses GPU work for them.
            let mut config = if platform.has_gpu() {
                ExecutionConfig::edgenn()
            } else {
                ExecutionConfig::cpu_only()
            };
            config.precision = precision;
            let runtime = Runtime::new(platform);
            let tuner = Tuner::new(&graph, &runtime).expect("tuner");
            let plan = tuner.plan(&graph, &runtime, config).expect("plan");

            let report = check_ownership(&graph, &plan, platform);
            assert!(
                report.is_clean(),
                "{} on {} ({precision}): tier D not clean: {:?}",
                graph.name(),
                platform.name,
                report.diagnostics
            );

            let input = Tensor::random(graph.input_shape().dims(), 1.0, 7);
            let outcome = functional::execute(&graph, &plan, &input).expect("execute");
            let measured_slot = outcome.engine.slot_bytes;
            let measured_arena = outcome.engine.arena_fresh_bytes;
            assert_eq!(
                measured_slot,
                report.bound.slot_bytes,
                "{} on {} ({precision}): measured slot bytes differ from certified",
                graph.name(),
                platform.name,
            );
            assert!(
                measured_arena <= report.bound.arena_bytes,
                "{} on {} ({precision}): measured arena bytes {} exceed certified {}",
                graph.name(),
                platform.name,
                measured_arena,
                report.bound.arena_bytes
            );
            combos += 1;
        }
    }
    assert_eq!(combos, 12);
}

#[test]
fn certified_bound_dominates_measured_on_fcnn() {
    certified_bound_dominates_measured(ModelKind::Fcnn);
}

#[test]
fn certified_bound_dominates_measured_on_lenet() {
    certified_bound_dominates_measured(ModelKind::LeNet);
}

#[test]
fn certified_bound_dominates_measured_on_alexnet() {
    certified_bound_dominates_measured(ModelKind::AlexNet);
}

#[test]
fn certified_bound_dominates_measured_on_vgg16() {
    certified_bound_dominates_measured(ModelKind::Vgg16);
}

#[test]
fn certified_bound_dominates_measured_on_squeezenet() {
    certified_bound_dominates_measured(ModelKind::SqueezeNet);
}

#[test]
fn certified_bound_dominates_measured_on_resnet18() {
    certified_bound_dominates_measured(ModelKind::ResNet18);
}
