//! Execution plans: the tuner's output, consumed by the runtime.

use edgenn_nn::graph::Graph;
use edgenn_sim::AllocStrategy;
use serde::{Deserialize, Serialize};

use crate::{CoreError, Result};

/// Which memory-management policy the planner applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryPolicy {
    /// Every array regular (`cudaMalloc` + explicit copies) — the paper's
    /// "direct execution of the original programs" baseline.
    AllExplicit,
    /// Every array managed (naive zero-copy everywhere).
    AllManaged,
    /// The paper's semantic-aware policy: per-array decision by role, with
    /// the adaptive cost refinement.
    SemanticAware,
}

/// What the tuner optimizes for.
///
/// The paper tunes for latency; the energy objective is this
/// reproduction's extension, motivated by the paper's own emphasis on
/// performance-per-watt (Figures 7 and 13): co-running burns both
/// processors, so when the latency gain is marginal an energy-optimal
/// plan keeps one of them idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TuneObjective {
    /// Minimize end-to-end latency (the paper's objective).
    Latency,
    /// Minimize energy per inference (latency x average power).
    Energy,
}

/// Numeric precision the functional runtime computes in.
///
/// Plans are precision-agnostic (the partition optimum depends only on
/// relative throughput); the executor consumes this field to pick the
/// kernel family. Int8 runs every int8-capable layer through the
/// quantized microkernels (an int8 [`edgenn_nn::layer::Part::Units`])
/// with f32 activations *between* nodes, so partition merges and
/// layer-boundary semantics are unchanged. Layers without int8 kernels
/// (pools, softmax, element-wise) stay f32, as does input-channel
/// splitting — partial *sums* need f32 accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// 32-bit float kernels everywhere (reference path).
    F32,
    /// 8-bit integer GEMM/dot kernels with fused requantize epilogues on
    /// every int8-capable layer.
    Int8,
}

impl Precision {
    /// Bytes per stored weight element under this precision (int8 packs
    /// quantized codes at one byte per element).
    pub fn weight_element_bytes(self) -> u64 {
        match self {
            Precision::F32 => 4,
            Precision::Int8 => 1,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::F32 => write!(f, "f32"),
            Precision::Int8 => write!(f, "int8"),
        }
    }
}

/// Which co-running capability the planner may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HybridMode {
    /// GPU computes everything (the paper's integrated-GPU baseline).
    GpuOnly,
    /// CPU computes everything (the edge-CPU baselines of Figure 6).
    CpuOnly,
    /// Only whole independent branches may move to the CPU — the
    /// state-of-the-art comparator of Section V-F (FineStream-style).
    InterKernelOnly,
    /// Only intra-kernel splitting of chain layers (ablation).
    IntraKernelOnly,
    /// Full EdgeNN: inter- and intra-kernel co-running.
    InterAndIntra,
}

/// Tuning knobs for plan construction and simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Memory policy.
    pub memory_policy: MemoryPolicy,
    /// Hybrid-execution mode.
    pub hybrid: HybridMode,
    /// Tuning objective.
    pub objective: TuneObjective,
    /// Fixed co-run synchronization overhead (us): kernel-completion wait
    /// plus worker join. Charged whenever both processors cooperate.
    pub sync_overhead_us: f64,
    /// Fraction of layer boundaries at which the naive
    /// ([`MemoryPolicy::AllExplicit`]) host-orchestrated programs round-trip
    /// activations through host memory (H2D before each GPU kernel, D2H
    /// after). calibrated: the paper's original benchmark programs are
    /// per-layer host-orchestrated CUDA; 1.0 would round-trip every
    /// boundary, 0.0 none. Ignored by the residency-tracked policies.
    pub host_roundtrip_fraction: f64,
    /// Deterministic execution-time jitter amplitude in [0, 1): models
    /// run-to-run variance so the adaptive tuner has something real to
    /// adapt to. 0 disables jitter.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
    /// Numeric precision of the functional kernels.
    pub precision: Precision,
}

impl ExecutionConfig {
    /// Full EdgeNN configuration.
    pub fn edgenn() -> Self {
        Self {
            memory_policy: MemoryPolicy::SemanticAware,
            hybrid: HybridMode::InterAndIntra,
            objective: TuneObjective::Latency,
            sync_overhead_us: 10.0,
            host_roundtrip_fraction: 0.35,
            jitter: 0.0,
            jitter_seed: 0,
            precision: Precision::F32,
        }
    }

    /// Full EdgeNN with int8 quantized kernels on every capable layer.
    pub fn edgenn_int8() -> Self {
        Self {
            precision: Precision::Int8,
            ..Self::edgenn()
        }
    }

    /// The paper's baseline: original programs, GPU only, explicit memory.
    pub fn baseline_gpu() -> Self {
        Self {
            memory_policy: MemoryPolicy::AllExplicit,
            hybrid: HybridMode::GpuOnly,
            ..Self::edgenn()
        }
    }

    /// CPU-only execution (edge-CPU platforms).
    pub fn cpu_only() -> Self {
        Self {
            memory_policy: MemoryPolicy::AllExplicit,
            hybrid: HybridMode::CpuOnly,
            ..Self::edgenn()
        }
    }

    /// Memory-management-only ablation (zero-copy without co-running).
    pub fn memory_only() -> Self {
        Self {
            memory_policy: MemoryPolicy::SemanticAware,
            hybrid: HybridMode::GpuOnly,
            ..Self::edgenn()
        }
    }

    /// Hybrid-execution-only ablation (co-running without zero-copy).
    pub fn hybrid_only() -> Self {
        Self {
            memory_policy: MemoryPolicy::AllExplicit,
            hybrid: HybridMode::InterAndIntra,
            ..Self::edgenn()
        }
    }

    /// EdgeNN tuned for energy per inference instead of latency
    /// (reproduction extension).
    pub fn edgenn_energy_aware() -> Self {
        Self {
            objective: TuneObjective::Energy,
            ..Self::edgenn()
        }
    }

    /// The Section V-F comparator: inter-kernel co-running only.
    pub fn inter_kernel_only() -> Self {
        Self {
            memory_policy: MemoryPolicy::SemanticAware,
            hybrid: HybridMode::InterKernelOnly,
            ..Self::edgenn()
        }
    }
}

/// Where one node's computation runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Assignment {
    /// Entirely on the GPU.
    Gpu,
    /// Entirely on the CPU.
    Cpu,
    /// Intra-kernel co-run by *output* units: the CPU computes
    /// `cpu_fraction` of the output channels/neurons, the GPU the rest,
    /// merged by concatenation.
    Split {
        /// CPU proportion `p_cpu ∈ (0, 1)`.
        cpu_fraction: f64,
    },
    /// Intra-kernel co-run by *input* channels (the paper's Section IV-D
    /// convolution split): each processor convolves a channel subset and
    /// produces a full-size partial sum, merged by element-wise addition.
    SplitInput {
        /// CPU proportion of the input channels, in `(0, 1)`.
        cpu_fraction: f64,
    },
}

impl Assignment {
    /// True when both processors participate.
    pub fn is_corun(&self) -> bool {
        matches!(
            self,
            Assignment::Split { .. } | Assignment::SplitInput { .. }
        )
    }
}

/// Per-node decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodePlan {
    /// Where the node computes.
    pub assignment: Assignment,
    /// Allocation strategy of the node's output array.
    pub output_alloc: AllocStrategy,
    /// Whether the node's inputs are prefetched to the consuming
    /// processor ahead of the kernel.
    pub prefetch_inputs: bool,
}

impl NodePlan {
    /// A GPU-resident node with explicit output (baseline default).
    pub fn gpu_explicit() -> Self {
        Self {
            assignment: Assignment::Gpu,
            output_alloc: AllocStrategy::Explicit,
            prefetch_inputs: false,
        }
    }
}

/// A complete plan for one graph: one [`NodePlan`] per node, in node-id
/// order, plus the config that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// The configuration the plan was built under.
    pub config: ExecutionConfig,
    /// Per-node decisions, indexed by `NodeId::index()`.
    pub nodes: Vec<NodePlan>,
}

impl ExecutionPlan {
    /// Validates that the plan covers `graph` exactly.
    ///
    /// # Errors
    /// Returns [`CoreError::PlanMismatch`] when node counts differ or a
    /// split fraction is out of range.
    pub fn validate(&self, graph: &Graph) -> Result<()> {
        if self.nodes.len() != graph.len() {
            return Err(CoreError::PlanMismatch {
                reason: format!(
                    "plan has {} node entries, graph '{}' has {}",
                    self.nodes.len(),
                    graph.name(),
                    graph.len()
                ),
            });
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Assignment::Split { cpu_fraction } | Assignment::SplitInput { cpu_fraction } =
                node.assignment
            {
                if !(0.0..=1.0).contains(&cpu_fraction) || cpu_fraction == 0.0 {
                    return Err(CoreError::PlanMismatch {
                        reason: format!("node {idx} has invalid split fraction {cpu_fraction}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of nodes co-run by both processors.
    pub fn corun_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.assignment.is_corun())
            .count()
    }

    /// Number of nodes whose output uses zero-copy.
    pub fn managed_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.output_alloc == AllocStrategy::Managed)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenn_nn::models::{build, ModelKind, ModelScale};

    #[test]
    fn preset_configs_encode_paper_modes() {
        let e = ExecutionConfig::edgenn();
        assert_eq!(e.memory_policy, MemoryPolicy::SemanticAware);
        assert_eq!(e.hybrid, HybridMode::InterAndIntra);
        let b = ExecutionConfig::baseline_gpu();
        assert_eq!(b.memory_policy, MemoryPolicy::AllExplicit);
        assert_eq!(b.hybrid, HybridMode::GpuOnly);
        assert_eq!(ExecutionConfig::memory_only().hybrid, HybridMode::GpuOnly);
        assert_eq!(
            ExecutionConfig::hybrid_only().memory_policy,
            MemoryPolicy::AllExplicit
        );
        assert_eq!(
            ExecutionConfig::inter_kernel_only().hybrid,
            HybridMode::InterKernelOnly
        );
        assert_eq!(e.precision, Precision::F32);
        let q = ExecutionConfig::edgenn_int8();
        assert_eq!(q.precision, Precision::Int8);
        assert_eq!(q.hybrid, HybridMode::InterAndIntra);
        assert_eq!(Precision::F32.weight_element_bytes(), 4);
        assert_eq!(Precision::Int8.weight_element_bytes(), 1);
        assert_eq!(Precision::Int8.to_string(), "int8");
    }

    #[test]
    fn validate_checks_length_and_fractions() {
        let graph = build(ModelKind::LeNet, ModelScale::Tiny);
        let mut plan = ExecutionPlan {
            config: ExecutionConfig::baseline_gpu(),
            nodes: vec![NodePlan::gpu_explicit(); graph.len()],
        };
        assert!(plan.validate(&graph).is_ok());

        plan.nodes.pop();
        assert!(matches!(
            plan.validate(&graph),
            Err(CoreError::PlanMismatch { .. })
        ));

        plan.nodes.push(NodePlan {
            assignment: Assignment::Split { cpu_fraction: 1.5 },
            output_alloc: AllocStrategy::Explicit,
            prefetch_inputs: false,
        });
        assert!(matches!(
            plan.validate(&graph),
            Err(CoreError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn plan_counters() {
        let plan = ExecutionPlan {
            config: ExecutionConfig::edgenn(),
            nodes: vec![
                NodePlan::gpu_explicit(),
                NodePlan {
                    assignment: Assignment::Split { cpu_fraction: 0.3 },
                    output_alloc: AllocStrategy::Explicit,
                    prefetch_inputs: false,
                },
                NodePlan {
                    assignment: Assignment::Cpu,
                    output_alloc: AllocStrategy::Managed,
                    prefetch_inputs: true,
                },
            ],
        };
        assert_eq!(plan.corun_count(), 1);
        assert_eq!(plan.managed_count(), 1);
        assert!(Assignment::Split { cpu_fraction: 0.3 }.is_corun());
        assert!(!Assignment::Gpu.is_corun());
    }
}
