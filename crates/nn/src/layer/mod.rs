//! Layer kernels with partition-aware execution.
//!
//! A *partition unit* is one slice of a layer's output along axis 0 —
//! an output channel for convolution/pooling, an output neuron for a
//! fully-connected layer. EdgeNN's intra-kernel co-running splits the
//! units between the CPU and the GPU (paper Section IV-C/IV-D); the split
//! is lossless because [`Layer::forward_partial`] over a covering set of
//! disjoint ranges concatenates back to exactly [`Layer::forward`].

mod activation;
mod combine;
mod conv;
mod dense;
mod norm;
mod params;
mod pool;

use std::ops::Range;

use edgenn_tensor::{ops, QuantParams, Shape, Tensor};

use crate::{NnError, Result, Workload};

pub use activation::{Dropout, Relu, Softmax};
pub use combine::{AddResidual, Concat, Constant, Flatten, Slice};
pub use conv::Conv2d;
pub use dense::Dense;
pub use norm::{BatchNorm2d, LocalResponseNorm};
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d, PoolKind};

/// Broad category of a layer.
///
/// The simulator assigns per-class efficiency factors (a GPU runs `Conv`
/// close to peak, `Fc` at memory-bound rates, …) and the semantic memory
/// planner keys some decisions off the class, mirroring the paper's
/// per-layer-type observations (Figures 10-11, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerClass {
    /// 2-D convolution.
    Conv,
    /// Fully-connected (dense) layer.
    Fc,
    /// Max/average/global pooling.
    Pool,
    /// Element-wise activation (ReLU, dropout) or softmax.
    Activation,
    /// Normalization (LRN, batch norm).
    Norm,
    /// Structural layers: concat, residual add, flatten.
    Combine,
    /// The graph's input pseudo-layer.
    Input,
}

impl LayerClass {
    /// Short lowercase tag used in reports ("conv", "fc", ...).
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Conv => "conv",
            Self::Fc => "fc",
            Self::Pool => "pool",
            Self::Activation => "act",
            Self::Norm => "norm",
            Self::Combine => "combine",
            Self::Input => "input",
        }
    }
}

/// A neural-network layer kernel.
pub trait Layer: Send + Sync {
    /// Human-readable layer name (unique within a graph).
    fn name(&self) -> &str;

    /// The layer's class.
    fn class(&self) -> LayerClass;

    /// Number of inputs the layer consumes.
    fn arity(&self) -> usize {
        1
    }

    /// Infers the output shape from input shapes.
    ///
    /// # Errors
    /// Fails when arity or shapes are incompatible with the layer.
    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape>;

    /// Reference forward pass.
    ///
    /// # Errors
    /// Fails on arity or shape mismatches.
    fn forward(&self, inputs: &[&Tensor]) -> Result<Tensor> {
        let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
        let units = self.partition_units(&shapes)?;
        self.forward_partial(inputs, 0..units)
    }

    /// Number of independently computable output slices along axis 0.
    ///
    /// Returns 1 for layers that cannot be split (e.g. softmax, whose
    /// normalization couples every output element).
    ///
    /// # Errors
    /// Fails when the input shapes are invalid for the layer.
    fn partition_units(&self, inputs: &[&Shape]) -> Result<usize> {
        Ok(self.output_shape(inputs)?.dim(0)?)
    }

    /// True when the layer supports computing a strict sub-range of units.
    fn partitionable(&self) -> bool {
        true
    }

    /// Computes output units `range` (a slice of axis 0 of the output).
    ///
    /// Implementations must satisfy the *merge invariant*: concatenating
    /// the outputs for disjoint covering ranges along axis 0 yields the
    /// same tensor as [`Layer::forward`].
    ///
    /// # Errors
    /// Fails on invalid ranges, arity or shape mismatches, or when a strict
    /// sub-range is requested from a non-partitionable layer.
    fn forward_partial(&self, inputs: &[&Tensor], range: Range<usize>) -> Result<Tensor>;

    /// [`Layer::forward_partial`] with an optional ReLU epilogue.
    ///
    /// The default runs the partial pass and clamps afterwards; layers
    /// backed by a GEMM override this to fold bias + ReLU into the
    /// microkernel's write-back loop ([`edgenn_tensor::Epilogue`]), so a
    /// [`crate::graph::FusedRelu`] wrapper costs no extra output sweep.
    ///
    /// # Errors
    /// Same contract as [`Layer::forward_partial`].
    fn forward_partial_fused(
        &self,
        inputs: &[&Tensor],
        range: Range<usize>,
        relu: bool,
    ) -> Result<Tensor> {
        let mut out = self.forward_partial(inputs, range)?;
        if relu {
            ops::relu_in_place(out.as_mut_slice());
        }
        Ok(out)
    }

    /// True when the layer has a real int8 kernel behind
    /// [`Layer::forward_partial_int8`] (conv and dense). Layers without
    /// one fall back to f32 transparently, so a whole-graph int8 run
    /// never fails — it just quantizes where it pays.
    fn int8_ready(&self) -> bool {
        false
    }

    /// Int8 forward over output units `range`, with an optional fused
    /// ReLU.
    ///
    /// Activations stay f32 *between* nodes: the kernel quantizes its
    /// input (with calibrated parameters when stamped, else dynamic
    /// min/max), runs the int8×int8→i32 GEMM, and requantizes to f32 in
    /// the write-back. Per-row independence of the requantize epilogue
    /// makes output-range partials *bitwise* identical to the same rows
    /// of a full int8 forward, so the merge invariant holds exactly.
    ///
    /// The default falls back to the f32 path.
    ///
    /// # Errors
    /// Same contract as [`Layer::forward_partial`].
    fn forward_partial_int8(
        &self,
        inputs: &[&Tensor],
        range: Range<usize>,
        relu: bool,
    ) -> Result<Tensor> {
        self.forward_partial_fused(inputs, range, relu)
    }

    /// Stamps calibrated activation quantization parameters onto the
    /// layer (first stamp wins; later stamps are ignored). Returns true
    /// when this call stamped. Layers without an int8 kernel ignore the
    /// stamp and return false.
    fn stamp_activation(&self, p: QuantParams) -> bool {
        let _ = p;
        false
    }

    /// True for a rectified-linear activation — the marker the
    /// compiler's fusion pass ([`crate::graph::compile`]) uses to fold a
    /// ReLU into its producer.
    fn is_relu(&self) -> bool {
        false
    }

    /// True for a layer whose output is its (single) input unchanged at
    /// inference time (dropout, full-range slice). The compiler's
    /// identity-elimination pass removes such nodes — an exact rewrite.
    fn is_identity(&self) -> bool {
        false
    }

    /// The constant tensor a zero-arity constant node produces, when the
    /// layer is one ([`crate::layer::Constant`]). The constant-folding
    /// pass evaluates nodes whose inputs are all constants at compile
    /// time; `None` for every ordinary layer.
    fn constant_value(&self) -> Option<&Tensor> {
        None
    }

    /// True for a pure axis-0 concatenation ([`crate::layer::Concat`]):
    /// the output is exactly its inputs laid out in order. The compiler's
    /// split/concat simplification relies on this to cancel covering
    /// slice/concat round-trips; a fused or otherwise-transforming
    /// wrapper must keep the default `false`.
    fn is_concat(&self) -> bool {
        false
    }

    /// The axis-0 window a structural slice keeps, when the layer is one
    /// ([`crate::layer::Slice`]). The compiler's split/concat
    /// simplification cancels a concat of in-order covering slices and
    /// removes full-range slices; `None` for every ordinary layer.
    fn slice_range(&self) -> Option<Range<usize>> {
        None
    }

    /// True when this layer fused a trailing ReLU whose application is
    /// *deferred* on the input-channel split path: its
    /// [`Layer::forward_partial_inputs`] returns raw partial sums (the
    /// epilogue cannot clamp partials — `relu(a) + relu(b) != relu(a+b)`)
    /// and the executor applies the ReLU once after merging. Layers
    /// returning true keep [`Layer::input_split_supported`] legal on
    /// fused nodes; everything else returns false.
    fn deferred_epilogue_relu(&self) -> bool {
        false
    }

    /// Whether the int8 kernel actually beats f32 for this layer's
    /// shape. The executor consults this in addition to
    /// [`Layer::int8_ready`]: quantize/requantize overhead is per-call,
    /// so tiny layers (e.g. the FCNN-Tiny dense stack) lose to the f32
    /// kernel and stay unquantized even under an int8 plan.
    fn int8_worthwhile(&self) -> bool {
        true
    }

    /// Materializes the layer's parameters and packs them into the GEMM
    /// (`int8`: qgemm) kernel layouts at compile time, so steady-state
    /// inference does zero weight-packing work. Returns the bytes packed
    /// *by this call* (0 when there is nothing to pack or it already
    /// happened — the hook is idempotent).
    fn prepack(&self, int8: bool) -> u64 {
        let _ = int8;
        0
    }

    /// True when the layer also supports the *input-channel* split: each
    /// processor convolves a subset of the input channels, producing a
    /// full-size partial sum that is merged by element-wise addition.
    /// This is the exact split the paper describes for convolution in
    /// Section IV-D ("the GPU calculates the convolution results of the
    /// first k input channels, and the CPU calculates the results of the
    /// remaining input channels").
    fn input_split_supported(&self) -> bool {
        false
    }

    /// Number of input channels available to an input-channel split.
    ///
    /// # Errors
    /// Fails when the input shapes are invalid for the layer.
    fn input_channels(&self, inputs: &[&Shape]) -> Result<usize> {
        let _ = inputs;
        Ok(1)
    }

    /// Computes the partial result over input channels `range`.
    ///
    /// Implementations must satisfy the *sum invariant*: adding the
    /// partial outputs of disjoint covering input ranges element-wise
    /// yields the same tensor as [`Layer::forward`] (the constant/bias
    /// term is contributed exactly once, by the range containing
    /// channel 0).
    ///
    /// # Errors
    /// Fails when the layer does not support input splitting or the range
    /// is invalid.
    fn forward_partial_inputs(&self, inputs: &[&Tensor], range: Range<usize>) -> Result<Tensor> {
        let _ = (inputs, range);
        Err(NnError::NotPartitionable {
            layer: self.name().to_string(),
        })
    }

    /// Analytic cost of the full forward pass.
    ///
    /// # Errors
    /// Fails when the input shapes are invalid for the layer.
    fn workload(&self, inputs: &[&Shape]) -> Result<Workload>;

    /// Bytes the kernel keeps live while computing — the working set the
    /// device simulator checks against CPU cache capacity.
    ///
    /// Defaults to input + weight bytes; convolution overrides this with
    /// its im2col-expanded patch matrix, which is what actually thrashes
    /// CPU caches on large layers.
    ///
    /// # Errors
    /// Fails when the input shapes are invalid for the layer.
    fn working_set_bytes(&self, inputs: &[&Shape]) -> Result<u64> {
        let w = self.workload(inputs)?;
        Ok(w.input_bytes + w.weight_bytes)
    }

    /// Upper bound on the 4-byte scratch-arena elements one forward call
    /// over this layer may acquire ([`edgenn_tensor::with_scratch`],
    /// [`edgenn_tensor::with_scratch_i32`]), across every
    /// execution path (full forward, output-channel partial, input-channel
    /// partial). The tier-D ownership analyzer certifies peak arena growth
    /// from this; the bound must be sound (never undercount) but may
    /// over-approximate. Layers that never touch the arena return 0.
    ///
    /// # Errors
    /// Fails when the input shapes are invalid for the layer.
    fn scratch_elems(&self, inputs: &[&Shape]) -> Result<u64> {
        let _ = inputs;
        Ok(0)
    }

    /// Byte-accurate upper bound on scratch-arena growth across every
    /// execution path *and precision*. The default converts
    /// [`Layer::scratch_elems`] at f32 width; layers with an int8 path
    /// override to also cover its i8/i16 acquisitions (which may exceed
    /// the f32 bound — the quantized GEMM widens both operands to i16).
    ///
    /// # Errors
    /// Fails when the input shapes are invalid for the layer.
    fn scratch_bytes(&self, inputs: &[&Shape]) -> Result<u64> {
        Ok(self.scratch_elems(inputs)? * 4)
    }

    /// Analytic cost of computing only `range` of the partition units.
    ///
    /// The default scales the full workload proportionally (keeping input
    /// reads whole); layers with non-uniform unit costs may override.
    ///
    /// # Errors
    /// Fails on invalid ranges or input shapes.
    fn workload_partial(&self, inputs: &[&Shape], range: Range<usize>) -> Result<Workload> {
        let units = self.partition_units(inputs)?;
        validate_range(self.name(), &range, units)?;
        Ok(self.workload(inputs)?.scaled(range.len(), units))
    }
}

/// Checks an arity requirement, producing a uniform error.
pub(crate) fn check_arity<T>(layer: &str, expected: usize, inputs: &[T]) -> Result<()> {
    if inputs.len() != expected {
        return Err(NnError::ArityMismatch {
            layer: layer.to_string(),
            expected,
            actual: inputs.len(),
        });
    }
    Ok(())
}

/// Validates a partition range against the unit count.
pub(crate) fn validate_range(layer: &str, range: &Range<usize>, units: usize) -> Result<()> {
    if range.start >= range.end || range.end > units {
        return Err(NnError::BadPartition {
            layer: layer.to_string(),
            start: range.start,
            end: range.end,
            units,
        });
    }
    Ok(())
}

/// Rejects strict sub-ranges for non-partitionable layers.
pub(crate) fn require_full_range(layer: &str, range: &Range<usize>, units: usize) -> Result<()> {
    validate_range(layer, range, units)?;
    if range.start != 0 || range.end != units {
        return Err(NnError::NotPartitionable {
            layer: layer.to_string(),
        });
    }
    Ok(())
}

/// The graph's input pseudo-layer: passes its tensor through unchanged.
#[derive(Debug, Clone)]
pub struct InputLayer {
    shape: Shape,
}

impl InputLayer {
    /// Creates an input node for tensors of `shape`.
    pub fn new(shape: Shape) -> Self {
        Self { shape }
    }

    /// The declared input shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }
}

impl Layer for InputLayer {
    fn name(&self) -> &str {
        "input"
    }

    fn class(&self) -> LayerClass {
        LayerClass::Input
    }

    fn arity(&self) -> usize {
        0
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(self.name(), 0, inputs)?;
        Ok(self.shape.clone())
    }

    fn partitionable(&self) -> bool {
        false
    }

    fn partition_units(&self, _inputs: &[&Shape]) -> Result<usize> {
        Ok(1)
    }

    fn forward_partial(&self, inputs: &[&Tensor], range: Range<usize>) -> Result<Tensor> {
        require_full_range(self.name(), &range, 1)?;
        check_arity(self.name(), 1, inputs)?;
        Ok(inputs[0].clone())
    }

    fn workload(&self, _inputs: &[&Shape]) -> Result<Workload> {
        Ok(Workload {
            output_bytes: (self.shape.num_elements() * 4) as u64,
            ..Workload::default()
        })
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared helper asserting the partition merge invariant for a layer.

    use super::*;

    /// Splits the layer's units at every cut point and checks that the
    /// concatenated partial results equal the full forward pass.
    pub(crate) fn assert_merge_invariant(layer: &dyn Layer, inputs: &[&Tensor]) {
        let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
        let units = layer.partition_units(&shapes).unwrap();
        let full = layer.forward(inputs).unwrap();
        assert!(units >= 1);
        for cut in 1..units {
            let a = layer.forward_partial(inputs, 0..cut).unwrap();
            let b = layer.forward_partial(inputs, cut..units).unwrap();
            let merged = Tensor::concat_axis0(&[&a, &b]).unwrap();
            let merged = merged.reshape(full.dims()).unwrap();
            assert!(
                merged.approx_eq(&full, 1e-5),
                "merge invariant broken for {} at cut {cut}/{units}",
                layer.name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_layer_passes_through() {
        let layer = InputLayer::new(Shape::new(&[2, 2]));
        let t = Tensor::arange(&[2, 2]);
        let out = layer.forward(&[&t]).unwrap();
        assert_eq!(out, t);
        assert_eq!(layer.output_shape(&[]).unwrap().dims(), &[2, 2]);
        assert_eq!(layer.class().tag(), "input");
    }

    #[test]
    fn input_layer_rejects_partitioning() {
        let layer = InputLayer::new(Shape::new(&[4]));
        let t = Tensor::zeros(&[4]);
        assert!(matches!(
            layer.forward_partial(&[&t], 0..0),
            Err(NnError::BadPartition { .. })
        ));
        assert!(!layer.partitionable());
    }

    #[test]
    fn validate_range_boundaries() {
        assert!(validate_range("l", &(0..4), 4).is_ok());
        assert!(validate_range("l", &(3..4), 4).is_ok());
        assert!(validate_range("l", &(0..5), 4).is_err());
        assert!(validate_range("l", &(2..2), 4).is_err());
    }

    #[test]
    fn require_full_range_rejects_subranges() {
        assert!(require_full_range("l", &(0..4), 4).is_ok());
        assert!(matches!(
            require_full_range("l", &(0..2), 4),
            Err(NnError::NotPartitionable { .. })
        ));
    }

    #[test]
    fn class_tags_are_stable() {
        assert_eq!(LayerClass::Conv.tag(), "conv");
        assert_eq!(LayerClass::Fc.tag(), "fc");
        assert_eq!(LayerClass::Pool.tag(), "pool");
        assert_eq!(LayerClass::Norm.tag(), "norm");
        assert_eq!(LayerClass::Combine.tag(), "combine");
        assert_eq!(LayerClass::Activation.tag(), "act");
    }
}
