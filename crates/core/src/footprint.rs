//! Memory-footprint accounting for an execution plan.
//!
//! The paper's regular (explicit) strategy keeps **two copies** of an
//! array — "the array should be a regular CUDA array with two copies for
//! the CPU and the GPU separately" (Section IV-B) — while a managed array
//! exists once in unified memory. On a 32 GB Xavier that rarely binds,
//! but on smaller boards (and for VGG-scale activations) the distinction
//! matters; this module computes peak memory under a plan with the
//! node-level liveness sweep ([`liveness_peak`]) over the lowered engine
//! schedule ([`Program::lower`]), the sweep tier D's liveness peak uses
//! too.

use edgenn_nn::graph::{Graph, NodeId};
use edgenn_nn::layer::LayerClass;
use edgenn_sim::AllocStrategy;
use edgenn_tensor::{gemm_packed_a_len, qgemm_pack_a_words};
use serde::{Deserialize, Serialize};

use crate::plan::{ExecutionPlan, MemoryPolicy, Precision};
use crate::schedule::{liveness_peak, Program};
use crate::Result;

/// Peak-memory breakdown of one plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Footprint {
    /// Model parameters resident for the whole run: what each layer's
    /// f32 prepack builds (the f32 weights and biases, a conv's weights as
    /// the GEMM's padded matrix, its only copy), plus — under an
    /// [`Precision::Int8`] plan — the sidecar each int8 layer's prepack
    /// builds (a conv's pair-word panel or a dense layer's codes, and the
    /// per-channel scale and row-sum tables). The f32 weights stay
    /// resident either way: they seed quantization and serve the layers
    /// without int8 kernels.
    pub weight_bytes: u64,
    /// Peak bytes of live activations, counting explicit arrays twice
    /// (host copy + device copy) and managed arrays once.
    pub peak_activation_bytes: u64,
    /// Peak total (weights + activations).
    pub peak_bytes: u64,
}

impl Footprint {
    /// Peak total in mebibytes.
    pub fn peak_mib(&self) -> f64 {
        self.peak_bytes as f64 / (1 << 20) as f64
    }
}

/// Bytes an array occupies under its allocation strategy: explicit arrays
/// are duplicated on host and device; managed arrays exist once.
fn array_bytes(elems: usize, strategy: AllocStrategy) -> u64 {
    let one = (elems * 4) as u64;
    match strategy {
        AllocStrategy::Explicit => 2 * one,
        AllocStrategy::Managed => one,
    }
}

/// Bytes node `id`'s layer keeps beyond the weights [`Graph::param_bytes`]
/// counts: a conv's GEMM padding rows ([`gemm_packed_a_len`]) and, with
/// `int8`, the sidecar its int8 prepack builds unless the engine keeps it
/// in f32 — a conv's pair-word panel ([`qgemm_pack_a_words`]) or a dense
/// layer's i8 codes, and an f32 scale and an i32 row sum per row.
fn held_beyond_params(program: &Program, id: NodeId, int8: bool) -> u64 {
    let (layer, facts) = (program.layer(id), program.facts(id));
    // A row per output unit and a column per input channel and kernel
    // tap: the forward pass costs two flops per column for each output
    // element (a fused ReLU's clamp adds less than two).
    let outputs: usize = program.dims(id).iter().product();
    let (rows, depth) = (facts.units, facts.flops as usize / (2 * outputs).max(1));
    let conv = layer.class() == LayerClass::Conv;
    let padding = if conv {
        gemm_packed_a_len(rows, depth) - rows * depth
    } else {
        0
    };
    let sidecar = match (conv, depth / facts.channels.max(1)) {
        _ if !(int8 && layer.int8_ready() && layer.int8_worthwhile()) => 0,
        (_, 0) => 0,
        (true, taps) => qgemm_pack_a_words(rows, depth, taps) * 4 + rows * 8,
        (false, _) => rows * depth + rows * 8,
    };
    (padding * 4 + sidecar) as u64
}

/// Bytes of model parameters the layers of `graph` hold under
/// `precision` ([`Footprint::weight_bytes`]): [`Graph::param_bytes`] plus
/// what each layer keeps beyond them. `program` is `graph`'s lowering,
/// which every caller has already built.
pub fn weight_bytes(graph: &Graph, program: &Program, precision: Precision) -> u64 {
    let int8 = precision == Precision::Int8;
    let held = graph
        .topo_order()
        .map(|id| held_beyond_params(program, id, int8));
    graph.param_bytes() + held.sum::<u64>()
}

/// Computes the peak memory footprint of executing `plan` over `graph`.
///
/// Liveness: a node's output array is allocated when the node executes,
/// while its inputs are still live, and freed after its last consumer
/// executes (the network output lives to the end). Weights are resident
/// throughout.
///
/// # Errors
/// Fails on plan/graph mismatches and on graphs outside the fork-join
/// family the engine runs.
pub fn footprint(graph: &Graph, plan: &ExecutionPlan) -> Result<Footprint> {
    plan.validate(graph)?;
    let program = Program::new(graph)?;
    let weight_bytes = weight_bytes(graph, &program, plan.config.precision);

    let sizes: Vec<u64> = graph
        .nodes()
        .iter()
        .zip(&plan.nodes)
        .map(|(node, node_plan)| {
            let strategy = match plan.config.memory_policy {
                MemoryPolicy::AllExplicit => AllocStrategy::Explicit,
                MemoryPolicy::AllManaged => AllocStrategy::Managed,
                MemoryPolicy::SemanticAware => node_plan.output_alloc,
            };
            array_bytes(node.output_shape().num_elements(), strategy)
        })
        .collect();
    // The engine borrows the network input; here it is an array like
    // any other, live until its last reader has run. The empty graph has
    // no input array and no output array.
    let schedule = program.lower(plan);
    let (input, output) = (graph.input_id().index(), graph.output_id().index());
    let bytes = |node: usize| sizes.get(node).copied().unwrap_or(0);
    let peak = liveness_peak(&schedule, &[input], bytes, output);

    Ok(Footprint {
        weight_bytes,
        peak_activation_bytes: peak,
        peak_bytes: weight_bytes + peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ExecutionConfig, NodePlan};
    use crate::runtime::Runtime;
    use crate::tuner::Tuner;
    use edgenn_nn::models::{build, ModelKind, ModelScale};
    use edgenn_sim::platforms::jetson_agx_xavier;

    fn plan_for(graph: &Graph, config: ExecutionConfig) -> ExecutionPlan {
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(graph, &runtime).unwrap();
        tuner.plan(graph, &runtime, config).unwrap()
    }

    #[test]
    fn explicit_arrays_double_activation_memory() {
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let explicit =
            footprint(&graph, &plan_for(&graph, ExecutionConfig::baseline_gpu())).unwrap();
        let mut managed_cfg = ExecutionConfig::baseline_gpu();
        managed_cfg.memory_policy = MemoryPolicy::AllManaged;
        let managed = footprint(&graph, &plan_for(&graph, managed_cfg)).unwrap();
        assert_eq!(explicit.weight_bytes, managed.weight_bytes);
        // "two copies for the CPU and the GPU separately": exactly 2x.
        assert_eq!(
            explicit.peak_activation_bytes,
            2 * managed.peak_activation_bytes
        );
        assert!(explicit.peak_bytes > managed.peak_bytes);
    }

    #[test]
    fn semantic_policy_sits_between_the_pure_policies() {
        let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
        let explicit =
            footprint(&graph, &plan_for(&graph, ExecutionConfig::baseline_gpu())).unwrap();
        let semantic = footprint(&graph, &plan_for(&graph, ExecutionConfig::edgenn())).unwrap();
        let mut managed_cfg = ExecutionConfig::baseline_gpu();
        managed_cfg.memory_policy = MemoryPolicy::AllManaged;
        let managed = footprint(&graph, &plan_for(&graph, managed_cfg)).unwrap();
        assert!(semantic.peak_activation_bytes <= explicit.peak_activation_bytes);
        assert!(semantic.peak_activation_bytes >= managed.peak_activation_bytes);
    }

    #[test]
    fn paper_scale_models_fit_the_xavier() {
        // The Xavier carries 32 GB; every benchmark must fit with room to
        // spare, and VGG must dominate the suite.
        let mut peaks = Vec::new();
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Paper);
            let fp = footprint(&graph, &plan_for(&graph, ExecutionConfig::edgenn())).unwrap();
            assert!(
                fp.peak_mib() < 32.0 * 1024.0,
                "{kind}: {} MiB",
                fp.peak_mib()
            );
            peaks.push((kind, fp.peak_bytes));
        }
        let max = peaks.iter().max_by_key(|(_, b)| *b).unwrap();
        assert_eq!(max.0, ModelKind::Vgg16, "VGG-16 should be the heaviest");
    }

    #[test]
    fn liveness_frees_dead_activations() {
        // Peak activations must be far below the sum of all layer outputs
        // for a deep chain (otherwise liveness is broken).
        let graph = build(ModelKind::Vgg16, ModelScale::Paper);
        let fp = footprint(&graph, &plan_for(&graph, ExecutionConfig::edgenn())).unwrap();
        let total_outputs: u64 = graph
            .topo_order()
            .map(|id| (graph.node(id).unwrap().output_shape().num_elements() * 4) as u64)
            .sum();
        assert!(
            fp.peak_activation_bytes < total_outputs / 4,
            "peak {} should be far below the sum {}",
            fp.peak_activation_bytes,
            total_outputs
        );
    }

    #[test]
    fn int8_sidecar_is_what_the_int8_prepack_builds() {
        for kind in ModelKind::ALL {
            // A fresh build: each layer's prepack reports the bytes it
            // packs on its first call.
            let graph = build(kind, ModelScale::Tiny);
            let f32_fp = footprint(&graph, &plan_for(&graph, ExecutionConfig::edgenn())).unwrap();
            let int8_plan = plan_for(&graph, ExecutionConfig::edgenn_int8());
            let int8_fp = footprint(&graph, &int8_plan).unwrap();
            // Activations stay f32 between nodes in both precisions.
            assert_eq!(f32_fp.peak_activation_bytes, int8_fp.peak_activation_bytes);
            let built: u64 = graph.nodes().iter().map(|n| n.layer().prepack(true)).sum();
            assert_eq!(int8_fp.weight_bytes - f32_fp.weight_bytes, built, "{kind}");
        }
    }

    #[test]
    fn f32_weights_are_what_the_f32_prepack_builds() {
        for kind in ModelKind::ALL {
            // A fresh build: each layer's prepack reports the parameter
            // bytes it builds, and keeps, on its first call.
            let graph = build(kind, ModelScale::Tiny);
            let fp = footprint(&graph, &plan_for(&graph, ExecutionConfig::edgenn())).unwrap();
            let built: u64 = graph.nodes().iter().map(|n| n.layer().prepack(false)).sum();
            assert_eq!(fp.weight_bytes, built, "{kind}");
        }
    }

    #[test]
    fn footprint_requires_a_matching_plan() {
        let graph = build(ModelKind::LeNet, ModelScale::Paper);
        let other = build(ModelKind::AlexNet, ModelScale::Paper);
        let plan = ExecutionPlan {
            config: ExecutionConfig::baseline_gpu(),
            nodes: vec![NodePlan::gpu_explicit(); other.len()],
        };
        assert!(footprint(&graph, &plan).is_err());
    }
}
