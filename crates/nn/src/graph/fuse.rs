//! ReLU fusion: an optimization pass folding activation nodes into their
//! producers.
//!
//! Every kernel launch on the integrated GPU costs ~10 µs of dispatch
//! (paper Challenge 2 territory: LeNet's latency is dominated by such
//! overheads). Since `relu(concat(a, b)) == concat(relu(a), relu(b))`,
//! a producer's output-range partials stay valid after fusion, so the
//! fused layer remains fully compatible with EdgeNN's intra-kernel
//! co-running. Input-channel splitting stays available too: the fused
//! node hands out *raw* partial sums (ReLU does not distribute over
//! them) and declares `deferred_epilogue_relu`, so the executor clamps
//! exactly once after merging the CPU and GPU halves.
//!
//! The graph compiler's `fuse-activations` pass (`graph::compile`)
//! produces these nodes; run it alone by turning every other pass and
//! the prepacking off in `CompileOptions`.

use std::sync::Arc;

use edgenn_tensor::{QuantParams, Shape, Tensor};

use crate::layer::{Layer, LayerClass, Part};
use crate::{Result, Workload};

/// A producer layer with a ReLU folded into its epilogue.
pub struct FusedRelu {
    name: String,
    inner: Arc<dyn Layer>,
}

impl FusedRelu {
    /// Fuses a ReLU into `inner`.
    pub fn new(inner: Arc<dyn Layer>) -> Self {
        Self {
            name: format!("{}+relu", inner.name()),
            inner,
        }
    }
}

impl Layer for FusedRelu {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        self.inner.class()
    }

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        self.inner.output_shape(inputs)
    }

    fn partitionable(&self) -> bool {
        self.inner.partitionable()
    }

    fn partition_units(&self, inputs: &[&Shape]) -> Result<usize> {
        self.inner.partition_units(inputs)
    }

    fn forward_into(&self, inputs: &[&Tensor], mut part: Part, out: &mut [f32]) -> Result<()> {
        // A units part clamps in the producer's epilogue — the activation
        // never makes a second pass over memory — whatever the caller
        // asked, since relu(relu(x)) == relu(x). An input-channel part
        // stays a raw partial sum: clamping it would be wrong, because
        // relu(a) + relu(b) != relu(a + b). The executor applies the
        // folded ReLU exactly once after merging — see
        // `deferred_epilogue_relu`.
        if let Part::Units { relu, .. } = &mut part {
            *relu = true;
        }
        self.inner.forward_into(inputs, part, out)
    }

    fn int8_ready(&self) -> bool {
        self.inner.int8_ready()
    }

    fn stamp_activation(&self, p: QuantParams) -> bool {
        self.inner.stamp_activation(p)
    }

    fn int8_worthwhile(&self) -> bool {
        self.inner.int8_worthwhile()
    }

    fn prepack(&self, int8: bool) -> u64 {
        self.inner.prepack(int8)
    }

    fn input_split_supported(&self) -> bool {
        self.inner.input_split_supported()
    }

    fn input_channels(&self, inputs: &[&Shape]) -> Result<usize> {
        self.inner.input_channels(inputs)
    }

    fn deferred_epilogue_relu(&self) -> bool {
        true
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        let mut w = self.inner.workload(inputs)?;
        // The fused epilogue clamps each output element in registers: one
        // extra op per element, no extra memory traffic.
        w.flops += w.output_bytes / 4;
        Ok(w)
    }

    fn working_set_bytes(&self, inputs: &[&Shape]) -> Result<u64> {
        self.inner.working_set_bytes(inputs)
    }

    fn scratch_elems(&self, inputs: &[&Shape]) -> Result<u64> {
        self.inner.scratch_elems(inputs)
    }

    fn scratch_bytes(&self, inputs: &[&Shape]) -> Result<u64> {
        self.inner.scratch_bytes(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{compile, CompileOptions, Graph};
    use crate::models::{build, ModelKind, ModelScale};

    /// The compiler with only its fusion pass on and no prepacking.
    fn fuse_only(graph: &Graph) -> Graph {
        let options = CompileOptions {
            fuse: true,
            prepack_f32: false,
            ..CompileOptions::prepack_only()
        };
        compile(graph, &options).unwrap().0
    }

    #[test]
    fn fusion_preserves_outputs_for_all_models() {
        for kind in ModelKind::ALL {
            let graph = build(kind, ModelScale::Tiny);
            let fused = fuse_only(&graph);
            assert!(
                fused.len() < graph.len(),
                "{kind}: fusion should remove nodes"
            );
            let input = Tensor::random(graph.input_shape().dims(), 1.0, 77);
            let a = graph.forward(&input).unwrap();
            let b = fused.forward(&input).unwrap();
            assert!(
                a.approx_eq(&b, 1e-5),
                "{kind}: fusion changed the output by {}",
                a.max_abs_diff(&b).unwrap()
            );
        }
    }

    #[test]
    fn fusion_counts_match_relu_topology() {
        // AlexNet: 7 conv/fc-adjacent ReLUs fuse (conv1..conv5, fc6, fc7);
        // the dropout/norm interleavings don't block them because the ReLU
        // directly follows its conv/fc producer in our builder.
        let graph = build(ModelKind::AlexNet, ModelScale::Paper);
        let fused = fuse_only(&graph);
        let removed = graph.len() - fused.len();
        assert_eq!(removed, 7, "AlexNet has 7 fusible ReLUs");
        assert!(fused
            .nodes()
            .iter()
            .any(|n| n.layer().name() == "conv1+relu"));
    }

    #[test]
    fn fork_join_structure_survives_fusion() {
        // SqueezeNet's squeeze ReLU is the fork node; fusing it into the
        // squeeze conv makes the fused node the fork — the fork-join
        // structure must survive intact.
        let graph = build(ModelKind::SqueezeNet, ModelScale::Paper);
        let fused = fuse_only(&graph);
        assert!(
            fused
                .nodes()
                .iter()
                .any(|n| n.layer().name() == "fire2_squeeze+relu"),
            "the fork ReLU fuses into the squeeze conv"
        );
        assert!(fused
            .nodes()
            .iter()
            .any(|n| n.layer().name() == "fire2_e1+relu"));
        // Structure survives: still 8 fork-join regions.
        assert_eq!(fused.structure().unwrap().parallel_segment_count(), 8);
    }

    #[test]
    fn fused_layers_keep_the_merge_invariant() {
        use crate::layer::test_support::assert_merge_invariant;
        use crate::layer::Conv2d;
        let conv = Arc::new(Conv2d::new("c", 3, 6, 3, 1, 1, 9));
        let fused = FusedRelu::new(conv);
        let x = Tensor::random(&[3, 6, 6], 1.0, 10);
        let full = fused.forward(&[&x]).unwrap();
        assert!(full.as_slice().iter().all(|&v| v >= 0.0), "relu applied");
        // Every cut, in both precisions, with and without a requested ReLU.
        assert_merge_invariant(&fused, &[&x]);
    }

    #[test]
    fn fused_int8_path_keeps_the_folded_relu() {
        use crate::layer::Conv2d;
        let conv = Arc::new(Conv2d::new("c", 3, 6, 3, 1, 1, 9));
        let fused = FusedRelu::new(Arc::clone(&conv) as Arc<dyn Layer>);
        assert!(fused.int8_ready());
        let x = Tensor::random(&[3, 6, 6], 1.0, 10);
        // Even when the caller does not request a ReLU, the folded one
        // applies — relu(relu(x)) == relu(x).
        let q = fused.forward_partial_int8(&[&x], 0..6, false).unwrap();
        assert!(q.as_slice().iter().all(|&v| v >= 0.0));
        let f = fused.forward(&[&x]).unwrap();
        assert!(q.approx_eq(&f, 0.05));
        // Scratch accounting passes through to the producer.
        let shape = Shape::new(&[3, 6, 6]);
        assert_eq!(
            fused.scratch_elems(&[&shape]).unwrap(),
            conv.scratch_elems(&[&shape]).unwrap()
        );
        assert_eq!(
            fused.scratch_bytes(&[&shape]).unwrap(),
            conv.scratch_bytes(&[&shape]).unwrap()
        );
    }

    #[test]
    fn fusion_reduces_flop_double_counting_but_keeps_totals_close() {
        let graph = build(ModelKind::Vgg16, ModelScale::Paper);
        let fused = fuse_only(&graph);
        let ratio = fused.total_flops() as f64 / graph.total_flops() as f64;
        assert!(
            (0.99..=1.01).contains(&ratio),
            "flops preserved, got {ratio}"
        );
    }
}
