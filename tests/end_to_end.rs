//! Cross-crate integration tests: the full pipeline from model builders
//! through the tuner, the analytic runtime, and the functional engine.

use edgenn_core::prelude::*;
use edgenn_core::runtime::{functional, Runtime};
use edgenn_sim::platforms;
use edgenn_tensor::Tensor;

/// Every tiny model, planned by the real tuner, executes functionally to
/// exactly the reference result — the core correctness claim of hybrid
/// execution.
#[test]
fn tuned_hybrid_execution_is_lossless_for_all_models() {
    let jetson = platforms::jetson_agx_xavier();
    let edgenn = EdgeNn::new(&jetson);
    for kind in ModelKind::ALL {
        let graph = build(kind, ModelScale::Tiny);
        let plan = edgenn.plan(&graph).unwrap();
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 2024);
        let reference = graph.forward(&input).unwrap();
        let outcome = functional::execute(&graph, &plan, &input).unwrap();
        assert!(
            outcome.output.approx_eq(&reference, 1e-4),
            "{kind}: hybrid output diverged by {}",
            outcome.output.max_abs_diff(&reference).unwrap_or(f32::NAN)
        );
    }
}

/// The paper's central claim (Figure 8): EdgeNN improves on direct GPU
/// execution for every benchmark, and each single design alone also helps.
/// Every report's event stream must also pass the happens-before trace
/// checker (no malformed intervals, no kernels sharing a core).
#[test]
fn edgenn_improves_every_benchmark_at_paper_scale() {
    let jetson = platforms::jetson_agx_xavier();
    for kind in ModelKind::ALL {
        let graph = build(kind, ModelScale::Paper);
        let baseline = GpuOnly::new(&jetson).infer(&graph).unwrap();
        let full = EdgeNn::new(&jetson).infer(&graph).unwrap();
        let memory_only = EdgeNn::with_config(&jetson, ExecutionConfig::memory_only())
            .infer(&graph)
            .unwrap();
        for report in [&baseline, &full, &memory_only] {
            let violations = edgenn_sim::trace::check_trace(&report.events, None);
            assert!(
                violations.is_empty(),
                "{kind}: invalid trace: {violations:?}"
            );
        }
        assert!(full.total_us < baseline.total_us, "{kind}: EdgeNN must win");
        assert!(
            memory_only.total_us <= baseline.total_us,
            "{kind}: zero-copy alone must not lose"
        );
        assert!(
            baseline.summary.copy_us > 0.0,
            "{kind}: the baseline must copy"
        );
        assert!(
            full.summary.copy_us < baseline.summary.copy_us,
            "{kind}: EdgeNN must copy less"
        );
    }
}

/// Simulation is a pure function of (graph, plan): bit-identical reports.
#[test]
fn simulation_is_deterministic() {
    let jetson = platforms::jetson_agx_xavier();
    let graph = build(ModelKind::ResNet18, ModelScale::Paper);
    let runtime = Runtime::new(&jetson);
    let tuner = Tuner::new(&graph, &runtime).unwrap();
    let plan = tuner
        .plan(&graph, &runtime, ExecutionConfig::edgenn())
        .unwrap();
    let a = runtime.simulate(&graph, &plan).unwrap();
    let b = runtime.simulate(&graph, &plan).unwrap();
    assert_eq!(a.total_us, b.total_us);
    assert_eq!(a.events.len(), b.events.len());
    assert_eq!(a.energy.energy_mj, b.energy.energy_mj);
}

/// Plans serialize and deserialize losslessly (deployability: a tuned
/// plan can be persisted on-device and reloaded).
#[test]
fn plans_round_trip_through_json() {
    let jetson = platforms::jetson_agx_xavier();
    let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
    let runtime = Runtime::new(&jetson);
    let tuner = Tuner::new(&graph, &runtime).unwrap();
    let plan = tuner
        .plan(&graph, &runtime, ExecutionConfig::edgenn())
        .unwrap();
    let json = serde_json::to_string(&plan).unwrap();
    let back: ExecutionPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(back, plan);
    // The reloaded plan simulates identically.
    let a = runtime.simulate(&graph, &plan).unwrap();
    let b = runtime.simulate(&graph, &back).unwrap();
    assert_eq!(a.total_us, b.total_us);
}

/// Reports serialize (the figure binaries emit them as JSON).
#[test]
fn inference_reports_serialize() {
    let jetson = platforms::jetson_agx_xavier();
    let graph = build(ModelKind::LeNet, ModelScale::Paper);
    let report = EdgeNn::new(&jetson).infer(&graph).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: InferenceReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.total_us, report.total_us);
    assert_eq!(back.layers.len(), report.layers.len());
}

/// Cross-platform sanity: the same network is fastest on the server,
/// slower on the integrated device, slowest on the CPU-only edge boards.
#[test]
fn platform_performance_ordering() {
    let jetson = platforms::jetson_agx_xavier();
    let rpi = platforms::raspberry_pi_4();
    let server = platforms::rtx_2080ti_server();
    let graph = build(ModelKind::Vgg16, ModelScale::Paper);

    let on_server = GpuOnly::new(&server).infer(&graph).unwrap();
    let on_jetson = EdgeNn::new(&jetson).infer(&graph).unwrap();
    let on_rpi = CpuOnly::new(&rpi).infer(&graph).unwrap();

    assert!(on_server.total_us < on_jetson.total_us);
    assert!(on_jetson.total_us < on_rpi.total_us);
    // Energy ordering reverses for the server (paper Figure 13).
    assert!(on_jetson.perf_per_watt() > on_server.perf_per_watt());
}

/// The adaptive loop keeps the plan valid and the latency bounded under
/// heavy measurement noise.
#[test]
fn adaptive_loop_is_stable_under_noise() {
    let jetson = platforms::jetson_agx_xavier();
    let graph = build(ModelKind::AlexNet, ModelScale::Paper);
    let runtime = Runtime::new(&jetson);
    let baseline = GpuOnly::new(&jetson).infer(&graph).unwrap();
    let mut tuner = Tuner::new(&graph, &runtime).unwrap();
    let (plan, history) = tuner
        .adapt(&graph, &runtime, ExecutionConfig::edgenn(), 10, 0.25)
        .unwrap();
    plan.validate(&graph).unwrap();
    assert_eq!(history.len(), 10);
    for (round, t) in history.iter().enumerate() {
        assert!(
            *t < baseline.total_us * 1.05,
            "round {round}: adaptive plan ({t}) regressed past the baseline ({})",
            baseline.total_us
        );
    }
}

/// Forced pathological plans still execute correctly (robustness): every
/// partitionable layer split at an extreme fraction.
#[test]
fn extreme_split_fractions_stay_correct() {
    use edgenn_core::plan::{Assignment, NodePlan};
    use edgenn_sim::AllocStrategy;

    let graph = build(ModelKind::ResNet18, ModelScale::Tiny);
    let input = Tensor::random(graph.input_shape().dims(), 1.0, 9);
    let reference = graph.forward(&input).unwrap();

    for fraction in [0.1, 0.9] {
        let mut nodes = vec![NodePlan::gpu_explicit(); graph.len()];
        for id in graph.topo_order() {
            let node = graph.node(id).unwrap();
            let shapes = graph.input_shapes(id).unwrap();
            if node.layer().partition_units(&shapes).unwrap_or(1) >= 2 {
                nodes[id.index()] = NodePlan {
                    assignment: Assignment::Split {
                        cpu_fraction: fraction,
                    },
                    output_alloc: AllocStrategy::Managed,
                    prefetch_inputs: false,
                };
            }
        }
        let plan = edgenn_core::plan::ExecutionPlan {
            config: ExecutionConfig::edgenn(),
            nodes,
        };
        let outcome = functional::execute(&graph, &plan, &input).unwrap();
        assert!(
            outcome.output.approx_eq(&reference, 1e-4),
            "fraction {fraction}: diverged"
        );
    }
}

/// The observability stack end to end: an observed run records every
/// activity into the recorder, decision provenance rides in the report (and
/// its JSON), and the exported chrome trace carries counter tracks.
#[test]
fn observability_spans_the_stack() {
    use edgenn_obs::Recorder;

    let jetson = platforms::jetson_agx_xavier();
    let graph = build(ModelKind::AlexNet, ModelScale::Paper);
    let recorder = Recorder::new();
    let runtime = Runtime::with_observer(&jetson, recorder.clone());
    let mut tuner = Tuner::new(&graph, &runtime).unwrap();
    let (plan, _) = tuner
        .adapt(&graph, &runtime, ExecutionConfig::edgenn(), 2, 0.1)
        .unwrap();
    let decisions = tuner.explain(&graph, &runtime, &plan).unwrap();
    let report = runtime
        .simulate(&graph, &plan)
        .unwrap()
        .with_decisions(decisions);

    assert!(edgenn_sim::trace::check_trace(&report.events, None).is_empty());

    // Decision provenance is attached and serializes with the report.
    assert_eq!(report.decisions.len(), graph.len() - 1);
    assert!(report.decisions.iter().all(|d| !d.rationale.is_empty()));
    let json = serde_json::to_string(&report).unwrap();
    let back: InferenceReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.decisions.len(), report.decisions.len());
    assert_eq!(
        back.decisions[0].candidates.len(),
        report.decisions[0].candidates.len()
    );

    // The recorder saw kernels, requests, and the tuner's EMA evolution.
    let metrics = recorder.metrics();
    assert!(metrics.counter_value("edgenn_kernel_total").unwrap_or(0.0) > 0.0);
    assert!(
        metrics
            .counter_value("edgenn_requests_total")
            .unwrap_or(0.0)
            >= 3.0
    );
    assert_eq!(metrics.counter_value("edgenn_plan_events_total"), Some(2.0));
    let samples = recorder.counter_samples();
    assert!(samples.iter().any(|s| s.track.starts_with("ema_")));

    // The exported trace carries both span and counter entries.
    let entries = edgenn_sim::chrome_trace_entries(&report.events, &samples);
    let trace = serde_json::to_string_pretty(&serde_json::Value::Array(entries)).unwrap();
    assert!(trace.contains("\"ph\": \"X\""));
    assert!(trace.contains("\"ph\": \"C\""));
    assert!(trace.contains("bandwidth_gbps"));
    assert!(trace.contains("ema_"));
}

/// The facade crate re-exports the full API.
#[test]
fn suite_facade_reexports_work() {
    let platform = edgenn_suite::sim::platforms::jetson_agx_xavier();
    let graph = edgenn_suite::nn::models::build(
        edgenn_suite::nn::models::ModelKind::LeNet,
        edgenn_suite::nn::models::ModelScale::Tiny,
    );
    let report = edgenn_suite::core::baselines::EdgeNn::new(&platform)
        .infer(&graph)
        .unwrap();
    assert!(report.total_us > 0.0);
    let t = edgenn_suite::tensor::Tensor::ones(&[2, 2]);
    assert_eq!(t.sum(), 4.0);
}
