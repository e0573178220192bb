//! Tier B: legality of execution plans before simulation.
//!
//! A plan that passes here is safe to hand to the runtime: every
//! assignment is realizable on the target platform, split fractions
//! describe whole-kernel partitions, the Eq. 1–4 inputs lie in their
//! domains, and the working set fits the platform's DRAM.

use edgenn_core::footprint::footprint;
use edgenn_core::plan::{Assignment, ExecutionConfig, ExecutionPlan, HybridMode, MemoryPolicy};
use edgenn_core::tuner::NodeStats;
use edgenn_nn::graph::{Graph, NodeId};
use edgenn_nn::layer::LayerClass;
use edgenn_sim::memory::AllocStrategy;
use edgenn_sim::platforms::Platform;

use crate::{codes, Diagnostic, Span};

/// Verifies an execution config's scalar fields against their documented
/// ranges (EC017).
#[must_use]
pub fn check_config(config: &ExecutionConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut field = |name: &str, value: f64, ok: bool| {
        if !ok {
            out.push(Diagnostic::new(
                codes::CONFIG_FIELD_RANGE,
                Span::Global,
                format!("{name} = {value} is outside its valid range"),
            ));
        }
    };
    field(
        "sync_overhead_us",
        config.sync_overhead_us,
        config.sync_overhead_us.is_finite() && config.sync_overhead_us >= 0.0,
    );
    field(
        "host_roundtrip_fraction",
        config.host_roundtrip_fraction,
        config.host_roundtrip_fraction.is_finite()
            && (0.0..=1.0).contains(&config.host_roundtrip_fraction),
    );
    field(
        "jitter",
        config.jitter,
        config.jitter.is_finite() && (0.0..1.0).contains(&config.jitter),
    );
    out
}

/// Verifies the Eq. 1–4 inputs: every profiled time must be non-negative
/// and not NaN (EC016). `t_gpu_us = +inf` is the documented no-GPU
/// sentinel and passes.
#[must_use]
pub fn check_profile(stats: &[NodeStats]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let valid = |t: f64| !t.is_nan() && t >= 0.0;
    for (idx, s) in stats.iter().enumerate() {
        if !valid(s.t_cpu_us) || s.t_cpu_us == f64::INFINITY {
            out.push(Diagnostic::new(
                codes::INVALID_PROFILE_TIME,
                Span::Node(idx),
                format!("t_cpu_us = {} is outside Eq. 1-4's domain", s.t_cpu_us),
            ));
        }
        if !valid(s.t_gpu_us) {
            out.push(Diagnostic::new(
                codes::INVALID_PROFILE_TIME,
                Span::Node(idx),
                format!("t_gpu_us = {} is outside Eq. 1-4's domain", s.t_gpu_us),
            ));
        }
    }
    out
}

/// Whether `mode` permits intra-kernel (split) co-running at all.
fn allows_intra(mode: HybridMode) -> bool {
    matches!(
        mode,
        HybridMode::IntraKernelOnly | HybridMode::InterAndIntra
    )
}

/// Verifies one plan against the graph it will execute and the platform
/// it will execute on: config ranges (EC017), plan/graph agreement
/// (EC010), split-fraction validity (EC011) and alignment to whole
/// partition units (EC015), placement legality per the hybrid mode and
/// layer capabilities (EC013), GPU availability (EC014), semantic-aware
/// co-run allocation (EC012), and DRAM footprint (EC018).
#[must_use]
pub fn check_plan(graph: &Graph, plan: &ExecutionPlan, platform: &Platform) -> Vec<Diagnostic> {
    let mut out = check_config(&plan.config);

    if plan.nodes.len() != graph.len() {
        out.push(Diagnostic::new(
            codes::PLAN_SIZE_MISMATCH,
            Span::Global,
            format!(
                "plan covers {} node(s), graph '{}' has {}",
                plan.nodes.len(),
                graph.name(),
                graph.len()
            ),
        ));
        return out;
    }

    let has_gpu = platform.has_gpu();
    for (idx, node_plan) in plan.nodes.iter().enumerate() {
        let node = &graph.nodes()[idx];
        let layer = node.layer();
        let name = layer.name();
        let is_input = layer.class() == LayerClass::Input;

        let gpu_side = !matches!(node_plan.assignment, Assignment::Cpu);
        if gpu_side && !has_gpu && !is_input {
            out.push(Diagnostic::new(
                codes::GPU_WORK_WITHOUT_GPU,
                Span::Node(idx),
                format!(
                    "'{name}' is assigned {:?} but '{}' has no GPU",
                    node_plan.assignment, platform.name
                ),
            ));
        }

        match node_plan.assignment {
            Assignment::Cpu => {
                if plan.config.hybrid == HybridMode::GpuOnly && !is_input && has_gpu {
                    out.push(Diagnostic::new(
                        codes::ASSIGNMENT_FORBIDDEN,
                        Span::Node(idx),
                        format!("'{name}' runs on the CPU under the GPU-only mode"),
                    ));
                }
            }
            Assignment::Gpu => {
                if plan.config.hybrid == HybridMode::CpuOnly && !is_input {
                    out.push(Diagnostic::new(
                        codes::ASSIGNMENT_FORBIDDEN,
                        Span::Node(idx),
                        format!("'{name}' runs on the GPU under the CPU-only mode"),
                    ));
                }
            }
            Assignment::Split { cpu_fraction } | Assignment::SplitInput { cpu_fraction } => {
                let by_input = matches!(node_plan.assignment, Assignment::SplitInput { .. });
                if !allows_intra(plan.config.hybrid) {
                    out.push(Diagnostic::new(
                        codes::ASSIGNMENT_FORBIDDEN,
                        Span::Node(idx),
                        format!(
                            "'{name}' is split but mode {:?} forbids intra-kernel co-running",
                            plan.config.hybrid
                        ),
                    ));
                }
                // The split axis must hold two or more units to share out:
                // input channels, or output units.
                let shapes = graph.input_shapes(NodeId(idx));
                let (units, axis) = if by_input {
                    let units = shapes.and_then(|s| layer.input_channels(&s));
                    (units, "input channel")
                } else {
                    let units = shapes.and_then(|s| layer.partition_units(&s));
                    (units, "output unit")
                };
                let units = units.unwrap_or(1);
                if units < 2 {
                    out.push(Diagnostic::new(
                        codes::ASSIGNMENT_FORBIDDEN,
                        Span::Node(idx),
                        format!("'{name}' has {units} {axis}(s), too few to split"),
                    ));
                }
                if !cpu_fraction.is_finite() || cpu_fraction <= 0.0 || cpu_fraction > 1.0 {
                    out.push(Diagnostic::new(
                        codes::SPLIT_FRACTION_RANGE,
                        Span::Node(idx),
                        format!("'{name}' splits at cpu_fraction = {cpu_fraction}, outside (0, 1]"),
                    ));
                } else if !by_input {
                    // EC015 — the fraction must carve out whole kernels:
                    // at least one partition unit for each processor.
                    let cpu_units = (cpu_fraction * units as f64).round();
                    if units >= 2 && (cpu_units < 1.0 || cpu_units > (units - 1) as f64) {
                        out.push(Diagnostic::new(
                            codes::DEGENERATE_SPLIT,
                            Span::Node(idx),
                            format!(
                                "'{name}' at cpu_fraction = {cpu_fraction:.4} leaves one \
                                 processor without a whole unit ({units} units total)"
                            ),
                        ));
                    }
                }
                if by_input
                    && plan.config.memory_policy == MemoryPolicy::SemanticAware
                    && node_plan.output_alloc == AllocStrategy::Managed
                {
                    out.push(Diagnostic::new(
                        codes::MANAGED_CORUN_OUTPUT,
                        Span::Node(idx),
                        format!(
                            "'{name}' merges full-size partial sums through a managed array \
                             (semantics prescribe an explicit co-run output)"
                        ),
                    ));
                }
            }
        }
    }

    // EC018 — the working set must fit the platform's DRAM (0 = unknown
    // capacity, skip).
    if platform.dram_bytes > 0 {
        if let Ok(fp) = footprint(graph, plan) {
            if fp.peak_bytes > platform.dram_bytes {
                out.push(Diagnostic::new(
                    codes::FOOTPRINT_EXCEEDS_DRAM,
                    Span::Global,
                    format!(
                        "peak footprint {:.1} MiB exceeds '{}' DRAM ({:.1} MiB)",
                        fp.peak_bytes as f64 / (1 << 20) as f64,
                        platform.name,
                        platform.dram_bytes as f64 / (1 << 20) as f64
                    ),
                ));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenn_core::plan::NodePlan;
    use edgenn_nn::models::{build, ModelKind, ModelScale};
    use edgenn_sim::platforms::{jetson_agx_xavier, raspberry_pi_4};

    fn gpu_plan(graph: &Graph, config: ExecutionConfig) -> ExecutionPlan {
        ExecutionPlan {
            config,
            nodes: vec![NodePlan::gpu_explicit(); graph.len()],
        }
    }

    #[test]
    fn config_presets_are_in_range() {
        for config in [
            ExecutionConfig::edgenn(),
            ExecutionConfig::baseline_gpu(),
            ExecutionConfig::cpu_only(),
            ExecutionConfig::memory_only(),
            ExecutionConfig::hybrid_only(),
            ExecutionConfig::inter_kernel_only(),
            ExecutionConfig::edgenn_energy_aware(),
        ] {
            assert!(check_config(&config).is_empty());
        }
    }

    #[test]
    fn config_range_violations_trip_ec017() {
        let mut config = ExecutionConfig::edgenn();
        config.sync_overhead_us = -1.0;
        config.host_roundtrip_fraction = 1.5;
        config.jitter = 1.0;
        let diags = check_config(&config);
        assert_eq!(diags.len(), 3);
        assert!(diags.iter().all(|d| d.code == codes::CONFIG_FIELD_RANGE));
    }

    #[test]
    fn negative_profiled_time_trips_ec016_but_inf_gpu_is_the_sentinel() {
        let stats = vec![
            NodeStats {
                t_cpu_us: 10.0,
                t_gpu_us: f64::INFINITY,
                samples: 1,
            },
            NodeStats {
                t_cpu_us: -4.0,
                t_gpu_us: f64::NAN,
                samples: 1,
            },
        ];
        let diags = check_profile(&stats);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == codes::INVALID_PROFILE_TIME));
        assert!(diags.iter().all(|d| d.span == Span::Node(1)));
    }

    #[test]
    fn size_mismatch_short_circuits() {
        let graph = build(ModelKind::Fcnn, ModelScale::Tiny);
        let mut plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        plan.nodes.pop();
        let diags = check_plan(&graph, &plan, &jetson_agx_xavier());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::PLAN_SIZE_MISMATCH);
    }

    #[test]
    fn gpu_assignment_on_cpu_only_platform_trips_ec014() {
        let graph = build(ModelKind::Fcnn, ModelScale::Tiny);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        let diags = check_plan(&graph, &plan, &raspberry_pi_4());
        assert!(diags.iter().any(|d| d.code == codes::GPU_WORK_WITHOUT_GPU));
    }

    #[test]
    fn split_under_non_intra_mode_trips_ec013() {
        let graph = build(ModelKind::Fcnn, ModelScale::Tiny);
        let mut plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        plan.nodes[1].assignment = Assignment::Split { cpu_fraction: 0.5 };
        let diags = check_plan(&graph, &plan, &jetson_agx_xavier());
        assert!(
            diags.iter().any(|d| d.code == codes::ASSIGNMENT_FORBIDDEN),
            "{diags:?}"
        );
    }

    #[test]
    fn a_split_axis_of_one_unit_trips_ec013() {
        // LeNet's first conv reads one input channel: an input-channel
        // split has nothing to share out, whatever the mode allows.
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        assert_eq!(graph.nodes()[1].layer().class(), LayerClass::Conv);
        let mut plan = gpu_plan(&graph, ExecutionConfig::edgenn());
        plan.nodes[1].assignment = Assignment::SplitInput { cpu_fraction: 0.5 };
        let diags = check_plan(&graph, &plan, &jetson_agx_xavier());
        assert!(
            diags.iter().any(|d| d.code == codes::ASSIGNMENT_FORBIDDEN
                && d.message.contains("1 input channel(s)")),
            "{diags:?}"
        );
        plan.nodes[1].assignment = Assignment::Split { cpu_fraction: 0.5 };
        assert!(check_plan(&graph, &plan, &jetson_agx_xavier()).is_empty());
    }

    #[test]
    fn out_of_range_fraction_trips_ec011() {
        let graph = build(ModelKind::Fcnn, ModelScale::Tiny);
        for bad in [1.5, -0.2, f64::NAN] {
            let mut plan = gpu_plan(&graph, ExecutionConfig::edgenn());
            plan.nodes[1].assignment = Assignment::Split { cpu_fraction: bad };
            let diags = check_plan(&graph, &plan, &jetson_agx_xavier());
            assert!(
                diags.iter().any(|d| d.code == codes::SPLIT_FRACTION_RANGE),
                "fraction {bad}: {diags:?}"
            );
        }
    }

    #[test]
    fn footprint_beyond_dram_trips_ec018() {
        let graph = build(ModelKind::Vgg16, ModelScale::Paper);
        let plan = gpu_plan(&graph, ExecutionConfig::baseline_gpu());
        let mut tiny = jetson_agx_xavier();
        tiny.dram_bytes = 1 << 20; // 1 MiB device
        let diags = check_plan(&graph, &plan, &tiny);
        assert!(diags
            .iter()
            .any(|d| d.code == codes::FOOTPRINT_EXCEEDS_DRAM));
        // Unknown capacity skips the check.
        tiny.dram_bytes = 0;
        let diags = check_plan(&graph, &plan, &tiny);
        assert!(!diags
            .iter()
            .any(|d| d.code == codes::FOOTPRINT_EXCEEDS_DRAM));
    }
}
