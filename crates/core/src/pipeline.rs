//! Stage-pipelined execution for throughput serving.
//!
//! EdgeNN's hybrid plans minimize single-inference *latency*. For a
//! saturated request stream, a different strategy can win: split the
//! network into a CPU stage and a GPU stage at one cut point, so request
//! `k+1`'s front stage overlaps request `k`'s back stage — the pipelined
//! data-parallel scheduling of DART (the paper's reference \[88\], cited
//! as the multi-DNN real-time line of work). Steady-state throughput is
//! then bounded by the *slower stage*, not the end-to-end latency.
//!
//! The planner sweeps every cut position and both stage orientations,
//! picking the one with the best predicted bottleneck time.

use edgenn_nn::graph::Graph;
use edgenn_sim::AllocStrategy;
use serde::{Deserialize, Serialize};

use crate::plan::{Assignment, ExecutionConfig, ExecutionPlan, NodePlan};
use crate::runtime::Runtime;
use crate::tuner::Tuner;
use crate::{CoreError, Result};

/// A chosen pipeline split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelinePlan {
    /// The executable plan (front stage on one processor, back on the other).
    pub plan: ExecutionPlan,
    /// Index of the first node of the back stage.
    pub cut: usize,
    /// True when the front stage runs on the CPU.
    pub cpu_first: bool,
    /// Predicted bottleneck stage time (us) — the steady-state
    /// inter-completion gap.
    pub bottleneck_us: f64,
}

/// Finds the throughput-optimal two-stage pipeline split of a chain-style
/// execution order.
///
/// # Errors
/// Fails when the platform has no GPU or on profiling failures.
pub fn plan_pipeline(
    graph: &Graph,
    runtime: &Runtime<'_>,
    config: ExecutionConfig,
) -> Result<PipelinePlan> {
    if !runtime.platform().has_gpu() {
        return Err(CoreError::NoGpu {
            platform: runtime.platform().name.clone(),
        });
    }
    let tuner = Tuner::new(graph, runtime)?;
    let stats = tuner.stats();

    // Prefix sums of per-node solo times in topological order.
    let n = graph.len();
    let mut cpu_prefix = vec![0.0f64; n + 1];
    let mut gpu_prefix = vec![0.0f64; n + 1];
    for (i, stat) in stats.iter().enumerate() {
        cpu_prefix[i + 1] = cpu_prefix[i] + stat.t_cpu_us;
        gpu_prefix[i + 1] = gpu_prefix[i] + stat.t_gpu_us;
    }

    let mut best: Option<(usize, bool, f64)> = None;
    for cut in 1..n {
        // Front = nodes [1, cut), back = [cut, n).
        let candidates = [
            // CPU front, GPU back.
            (
                true,
                (cpu_prefix[cut] - cpu_prefix[1]),
                gpu_prefix[n] - gpu_prefix[cut],
            ),
            // GPU front, CPU back.
            (
                false,
                (gpu_prefix[cut] - gpu_prefix[1]),
                cpu_prefix[n] - cpu_prefix[cut],
            ),
        ];
        let mut cut_best = f64::INFINITY;
        for (cpu_first, front, back) in candidates {
            let bottleneck = front.max(back);
            cut_best = cut_best.min(bottleneck);
            if best.is_none_or(|(_, _, b)| bottleneck < b) {
                best = Some((cut, cpu_first, bottleneck));
            }
        }
        if let Some(rec) = runtime.observer() {
            // The sweep itself, as a counter track over cut positions.
            rec.sample("pipeline_bottleneck_us", cut as f64, cut_best);
        }
    }
    let (cut, cpu_first, bottleneck_us) = best.ok_or_else(|| CoreError::Internal {
        reason: "graph has no layers".to_string(),
    })?;
    if let Some(rec) = runtime.observer() {
        rec.instant("pipeline");
    }

    let mut nodes = vec![NodePlan::gpu_explicit(); n];
    for (idx, node) in nodes.iter_mut().enumerate() {
        let in_front = idx < cut;
        let on_cpu = in_front == cpu_first;
        node.assignment = if on_cpu {
            Assignment::Cpu
        } else {
            Assignment::Gpu
        };
        // Zero-copy hand-off between the stages.
        node.output_alloc = AllocStrategy::Managed;
    }
    let plan = ExecutionPlan { config, nodes };
    plan.validate(graph)?;
    Ok(PipelinePlan {
        plan,
        cut,
        cpu_first,
        bottleneck_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use edgenn_sim::platforms::{jetson_agx_xavier, raspberry_pi_4};

    #[test]
    fn pipeline_beats_latency_plan_on_saturated_streams() {
        // AlexNet: heavy conv front (GPU) + fc back (CPU-capable) is the
        // classic pipeline case.
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let mut config = ExecutionConfig::edgenn();
        config.memory_policy = crate::plan::MemoryPolicy::SemanticAware;

        let latency_plan = {
            let tuner = Tuner::new(&graph, &runtime).unwrap();
            tuner.plan(&graph, &runtime, config).unwrap()
        };
        let pipeline = plan_pipeline(&graph, &runtime, config).unwrap();
        assert!(pipeline.cut > 0 && pipeline.cut < graph.len());

        let requests = 16;
        let latency_stream = runtime
            .simulate_stream(&graph, &latency_plan, requests)
            .unwrap();
        let pipeline_stream = runtime
            .simulate_stream(&graph, &pipeline.plan, requests)
            .unwrap();

        // The pipelined stream overlaps stages across requests: its
        // steady-state completion gap must beat its own single-inference
        // latency, demonstrating real pipelining.
        let single = runtime.simulate(&graph, &pipeline.plan).unwrap();
        assert!(
            pipeline_stream.inter_completion_us() < single.total_us * 0.95,
            "no overlap: gap {} vs single {}",
            pipeline_stream.inter_completion_us(),
            single.total_us
        );
        // And its throughput should at least approach the latency plan's
        // (it wins when the stage balance is good; never collapses).
        assert!(
            pipeline_stream.throughput_per_s > latency_stream.throughput_per_s * 0.5,
            "pipeline {} vs latency-plan {}",
            pipeline_stream.throughput_per_s,
            latency_stream.throughput_per_s
        );
    }

    #[test]
    fn pipeline_prediction_matches_simulation_order_of_magnitude() {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::Fcnn, ModelScale::Paper);
        let pipeline = plan_pipeline(&graph, &runtime, ExecutionConfig::edgenn()).unwrap();
        let stream = runtime.simulate_stream(&graph, &pipeline.plan, 24).unwrap();
        let gap = stream.inter_completion_us();
        assert!(
            gap < pipeline.bottleneck_us * 3.0 && gap > pipeline.bottleneck_us * 0.3,
            "prediction {} vs measured {}",
            pipeline.bottleneck_us,
            gap
        );
    }

    #[test]
    fn pipeline_planning_reports_its_sweep_and_choice() {
        use edgenn_obs::Recorder;

        let platform = jetson_agx_xavier();
        let recorder = Recorder::new();
        let runtime = Runtime::with_observer(&platform, recorder.clone());
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let pipeline = plan_pipeline(&graph, &runtime, ExecutionConfig::edgenn()).unwrap();

        // One bottleneck sample per candidate cut position.
        let sweep: Vec<_> = recorder
            .counter_samples()
            .into_iter()
            .filter(|s| s.track == "pipeline_bottleneck_us")
            .collect();
        assert_eq!(sweep.len(), graph.len() - 1);
        // The chosen cut is the sweep's argmin.
        let min = sweep.iter().map(|s| s.value).fold(f64::INFINITY, f64::min);
        assert!((min - pipeline.bottleneck_us).abs() < 1e-9);
        // And the choice is marked as an instant event.
        assert_eq!(
            recorder
                .metrics()
                .counter_value("edgenn_pipeline_events_total"),
            Some(1.0)
        );
    }

    #[test]
    fn pipeline_requires_a_gpu() {
        let platform = raspberry_pi_4();
        let runtime = Runtime::new(&platform);
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        assert!(matches!(
            plan_pipeline(&graph, &runtime, ExecutionConfig::edgenn()),
            Err(CoreError::NoGpu { .. })
        ));
    }

    #[test]
    fn pipeline_plans_execute_losslessly() {
        use crate::runtime::functional;
        use edgenn_tensor::Tensor;
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        for kind in [ModelKind::AlexNet, ModelKind::Vgg16] {
            let graph = build(kind, ModelScale::Tiny);
            let pipeline = plan_pipeline(&graph, &runtime, ExecutionConfig::edgenn()).unwrap();
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 3);
            let reference = graph.forward(&input).unwrap();
            let outcome = functional::execute(&graph, &pipeline.plan, &input).unwrap();
            assert!(outcome.output.approx_eq(&reference, 1e-4), "{kind}");
        }
    }
}
