//! Layer kernels with partition-aware execution.
//!
//! A *partition unit* is one slice of a layer's output along axis 0 —
//! an output channel for convolution/pooling, an output neuron for a
//! fully-connected layer. EdgeNN's intra-kernel co-running splits the
//! units between the CPU and the GPU (paper Section IV-C/IV-D). Every
//! layer computes through one entry, [`Layer::forward_into`], which writes
//! a [`Part`] of the output into a buffer its caller hands it: the split
//! is lossless because the parts of a covering set of disjoint ranges,
//! each written into its own sub-slice of one buffer, are bit for bit the
//! whole output. [`Layer::forward`] allocates and runs the whole range.
//!
//! Every other question about a layer has one answer too: how many
//! units or input channels it splits into, the scratch it may acquire in
//! any precision ([`Layer::scratch_bytes`]), and the one [`Role`] the
//! graph compiler's passes match on ([`Layer::role`]).

mod activation;
mod combine;
mod conv;
mod dense;
mod norm;
mod params;
mod pool;

use std::ops::Range;

use edgenn_tensor::{ops, QuantParams, Shape, Tensor, TensorError};

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

/// The part of a layer's output one [`Layer::forward_into`] call
/// computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Part {
    /// Output units `range`, a slice of axis 0 of the output (the
    /// output-channel split).
    Units {
        /// The output units to compute.
        range: Range<usize>,
        /// Run the layer's int8 kernel ([`Layer::int8_ready`]); a layer
        /// without one computes f32.
        int8: bool,
        /// Clamp the result at zero: a fused ReLU, applied in the GEMM
        /// write-back where the layer has one.
        relu: bool,
    },
    /// The raw partial sum over input channels `range`, a full-size output
    /// (the input-channel split, [`Layer::input_channels`]), computed in
    /// f32 and never clamped.
    Inputs(Range<usize>),
}

/// What a layer is to the graph compiler's rewrite passes
/// ([`crate::graph::compile`]). A layer has exactly one role, and each
/// pass matches on every role.
#[derive(Debug, Clone, PartialEq)]
pub enum Role<'a> {
    /// An ordinary kernel: no pass rewrites it on its own account. Every
    /// wrapper that transforms its inner layer's output (a fused
    /// `+relu`) keeps this role, so a fused concat is no concat.
    Kernel,
    /// A rectified-linear activation: fuse-activations folds it into its
    /// producer, and identity-elim drops it after an already clamped
    /// output.
    Relu,
    /// Output equals the single input at inference time (dropout):
    /// identity-elim removes it, an exact rewrite.
    Identity,
    /// A zero-arity node producing this tensor ([`Constant`]):
    /// fold-constants evaluates its all-constant consumers at compile
    /// time.
    Constant(&'a Tensor),
    /// A pure axis-0 concatenation ([`Concat`]), its output exactly its
    /// inputs laid out in order: simplify-slices cancels a concat of
    /// covering slices.
    Concat,
    /// A structural slice keeping this axis-0 window ([`Slice`]):
    /// simplify-slices cancels covering slice/concat round-trips, and
    /// identity-elim removes a full-range slice.
    Slice(Range<usize>),
}

/// A neural-network layer kernel.
///
/// Each method answers one question. The split axes are counts with no
/// yes/no probe beside them: a layer splits by output units when
/// [`Layer::partition_units`] is at least 2, and by input channels when
/// [`Layer::input_channels`] is.
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

    /// Number of independently computable output slices along axis 0; the
    /// layer splits by output units when this is at least 2.
    ///
    /// Returns 1 for layers that cannot be split (e.g. softmax, whose
    /// normalization couples every output element).
    ///
    /// # Errors
    /// Fails when the input shapes are invalid for the layer.
    fn partition_units(&self, inputs: &[&Shape]) -> Result<usize> {
        Ok(self.output_shape(inputs)?.dim(0)?)
    }

    /// Computes `part` of the layer's output into `out` — the layer's one
    /// compute entry, which every execution path runs.
    ///
    /// - `out` holds exactly the requested output units of a
    ///   [`Part::Units`] part (row-major, `range.len()` slices of axis 0),
    ///   or the whole output for a [`Part::Inputs`] part. The call
    ///   overwrites every element, whatever `out` held before.
    /// - Units parts satisfy the *merge invariant*: the parts of disjoint
    ///   covering ranges, each written into its own sub-slice of one
    ///   buffer, equal the full-range call bit for bit.
    /// - An input-channel part is the raw partial sum over those input
    ///   channels, computed in f32 and never clamped; the parts of
    ///   disjoint covering ranges add up to the full output, the bias
    ///   contributed once, by the range holding channel 0.
    /// - The int8 flag and the fused ReLU apply to units parts only:
    ///   `int8` selects the quantized kernel, which a layer without one
    ///   replaces with f32, and `relu` clamps the result, in the GEMM
    ///   write-back where the layer has one.
    ///
    /// # Errors
    /// Fails on arity or shape mismatches, an invalid range, an `out` of
    /// the wrong length, or an input-channel part of a layer with one
    /// input channel.
    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()>;

    /// Reference forward pass: the whole output, in f32.
    ///
    /// # Errors
    /// Fails on arity or shape mismatches.
    fn forward(&self, inputs: &[&Tensor]) -> Result<Tensor> {
        allocate_units(self, inputs, None, false, false)
    }

    /// True when the layer has a real int8 kernel behind
    /// [`Layer::forward_into`] (conv and dense). Layers without one fall
    /// back to f32 transparently, so a whole-graph int8 run never fails —
    /// it just quantizes where it pays.
    fn int8_ready(&self) -> bool {
        false
    }

    /// Int8 forward over output units `range`, with an optional fused
    /// ReLU, into a fresh tensor.
    ///
    /// Activations stay f32 *between* nodes: the kernel quantizes its
    /// input (with calibrated parameters when stamped, else dynamic
    /// min/max), runs the int8×int8→i32 GEMM, and requantizes to f32 in
    /// the write-back. Per-row independence of the requantize epilogue
    /// makes output-range partials *bitwise* identical to the same rows
    /// of a full int8 forward, so the merge invariant holds exactly.
    ///
    /// # Errors
    /// Same contract as [`Layer::forward_into`].
    fn forward_partial_int8(
        &self,
        inputs: &[&Tensor],
        range: Range<usize>,
        relu: bool,
    ) -> Result<Tensor> {
        allocate_units(self, inputs, Some(range), true, relu)
    }

    /// Stamps calibrated activation quantization parameters onto the
    /// layer (first stamp wins; later stamps are ignored). Returns true
    /// when this call stamped. Layers without an int8 kernel ignore the
    /// stamp and return false.
    fn stamp_activation(&self, p: QuantParams) -> bool {
        let _ = p;
        false
    }

    /// The layer's role in the graph compiler's rewrites; an ordinary
    /// kernel keeps the default [`Role::Kernel`].
    fn role(&self) -> Role<'_> {
        Role::Kernel
    }

    /// True when this layer fused a trailing ReLU whose application is
    /// *deferred* on the input-channel split path: its [`Part::Inputs`]
    /// parts are raw partial sums (the epilogue cannot clamp partials —
    /// `relu(a) + relu(b) != relu(a+b)`) and the executor applies the
    /// ReLU once after merging. Layers returning true keep the
    /// input-channel split ([`Layer::input_channels`]) legal on fused
    /// nodes; everything else returns false.
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

    /// Materializes the layer's parameters at compile time, each in the
    /// one layout its kernel reads (`int8`: the int8 sidecar), so
    /// steady-state inference does zero weight-packing work. Returns the
    /// bytes built *by this call*, which the layer keeps (0 when there is
    /// nothing to build or it already happened — the hook is idempotent).
    fn prepack(&self, int8: bool) -> u64 {
        let _ = int8;
        0
    }

    /// Number of input channels available to the *input-channel* split;
    /// the layer splits this way when it is at least 2. Each processor
    /// convolves a subset of the input channels, producing a full-size
    /// partial sum that is merged by element-wise addition: the exact
    /// split the paper describes for convolution in Section IV-D ("the
    /// GPU calculates the convolution results of the first k input
    /// channels, and the CPU calculates the results of the remaining
    /// input channels"). Layers without the split return 1.
    ///
    /// # Errors
    /// Fails when the input shapes are invalid for the layer.
    fn input_channels(&self, inputs: &[&Shape]) -> Result<usize> {
        let _ = inputs;
        Ok(1)
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

    /// Byte-accurate upper bound on the scratch arena one forward call
    /// over this layer may acquire ([`edgenn_tensor::with_scratch`], in
    /// any of its element types), across every execution path (full
    /// forward, output-channel partial, input-channel partial) and
    /// precision: the int8 kernels' i8/i32 acquisitions may exceed the f32
    /// ones, and weights are read in place, taking none. The tier-D
    /// ownership analyzer certifies peak arena growth from this; the bound
    /// must be sound (never undercount) but may over-approximate. Layers
    /// that never touch the arena return 0.
    ///
    /// # Errors
    /// Fails when the input shapes are invalid for the layer.
    fn scratch_bytes(&self, inputs: &[&Shape]) -> Result<u64> {
        let _ = inputs;
        Ok(0)
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

/// Validates a units part against a layer of `units` units of
/// `unit_len` elements each, and `out` against the units it asks for;
/// returns the range and the fused ReLU, for a layer without an int8
/// kernel. An input-channel part fails: the layer has no input-channel
/// split.
pub(crate) fn units_part(
    layer: &str,
    part: Part,
    units: usize,
    unit_len: usize,
    out: &[f32],
) -> Result<(Range<usize>, bool)> {
    let Part::Units { range, relu, .. } = part else {
        return Err(NnError::NotPartitionable {
            layer: layer.to_string(),
        });
    };
    validate_range(layer, &range, units)?;
    check_out(out, range.len() * unit_len)?;
    Ok((range, relu))
}

/// Checks that a compute call's `out` holds exactly `expected` elements.
pub(crate) fn check_out(out: &[f32], expected: usize) -> Result<()> {
    if out.len() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: out.len(),
        }
        .into());
    }
    Ok(())
}

/// Applies a units part's fused ReLU as a clamp over its finished output.
pub(crate) fn clamp_if(relu: bool, out: &mut [f32]) {
    if relu {
        ops::relu_in_place(out);
    }
}

/// Computes output units `range` (all of them for `None`) of `layer` into
/// a fresh tensor: the body of the allocating wrappers [`Layer::forward`]
/// and [`Layer::forward_partial_int8`].
fn allocate_units<L: Layer + ?Sized>(
    layer: &L,
    inputs: &[&Tensor],
    range: Option<Range<usize>>,
    int8: bool,
    relu: bool,
) -> Result<Tensor> {
    let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    let units = layer.partition_units(&shapes)?;
    let range = range.unwrap_or(0..units);
    let mut shape = layer.output_shape(&shapes)?;
    if range.len() != units {
        shape = shape.with_dim(0, range.len())?;
    }
    let mut out = vec![0.0; shape.num_elements()];
    layer.forward_into(inputs, Part::Units { range, int8, relu }, &mut out)?;
    Ok(Tensor::from_vec(out, shape.dims())?)
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

    /// No graph edge feeds the input node, so a graph asks with no
    /// shapes; a reference pass hands it the network input to pass on.
    fn output_shape(&self, _inputs: &[&Shape]) -> Result<Shape> {
        Ok(self.shape.clone())
    }

    fn partition_units(&self, _inputs: &[&Shape]) -> Result<usize> {
        Ok(1)
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(self.name(), 1, inputs)?;
        let (_, relu) = units_part(self.name(), part, 1, inputs[0].len(), out)?;
        out.copy_from_slice(inputs[0].as_slice());
        clamp_if(relu, out);
        Ok(())
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

    /// The bit patterns of `values`, so comparisons are exact (NaN, the
    /// sign of zero).
    pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A units part over `range`.
    pub(crate) fn units(range: Range<usize>, int8: bool, relu: bool) -> Part {
        Part::Units { range, int8, relu }
    }

    /// `part` of `layer`'s output through [`Layer::forward_into`], written
    /// into a NaN-filled buffer of the size the part asks for.
    pub(crate) fn compute(layer: &dyn Layer, inputs: &[&Tensor], part: Part) -> Result<Vec<f32>> {
        let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
        let mut len = layer.output_shape(&shapes)?.num_elements();
        if let Part::Units { range, .. } = &part {
            len = len / layer.partition_units(&shapes)? * range.len();
        }
        let mut out = vec![f32::NAN; len];
        layer.forward_into(inputs, part, &mut out)?;
        Ok(out)
    }

    /// Splits the layer's units at every cut point, writes each share
    /// into its own sub-slice of one NaN-filled buffer, and checks the
    /// result equals the full-range call bit for bit — in f32 and int8,
    /// with the fused ReLU off and on.
    pub(crate) fn assert_merge_invariant(layer: &dyn Layer, inputs: &[&Tensor]) {
        let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
        let units_n = layer.partition_units(&shapes).unwrap();
        let len = layer.output_shape(&shapes).unwrap().num_elements();
        assert!(units_n >= 1);
        for int8 in [false, true] {
            for relu in [false, true] {
                let full = compute(layer, inputs, units(0..units_n, int8, relu)).unwrap();
                if !int8 && !relu {
                    let reference = layer.forward(inputs).unwrap();
                    assert_eq!(bits(&full), bits(reference.as_slice()));
                }
                for cut in 1..units_n {
                    let mut merged = vec![f32::NAN; len];
                    let (a, b) = merged.split_at_mut(len / units_n * cut);
                    layer
                        .forward_into(inputs, units(0..cut, int8, relu), a)
                        .unwrap();
                    layer
                        .forward_into(inputs, units(cut..units_n, int8, relu), b)
                        .unwrap();
                    assert_eq!(
                        bits(&merged),
                        bits(&full),
                        "merge invariant broken for {} at cut {cut}/{units_n} (int8 {int8}, relu {relu})",
                        layer.name()
                    );
                }
            }
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
            test_support::compute(&layer, &[&t], test_support::units(0..0, false, false)),
            Err(NnError::BadPartition { .. })
        ));
        assert_eq!(layer.partition_units(&[]).unwrap(), 1);
    }

    #[test]
    fn validate_range_boundaries() {
        assert!(validate_range("l", &(0..4), 4).is_ok());
        assert!(validate_range("l", &(3..4), 4).is_ok());
        assert!(validate_range("l", &(0..5), 4).is_err());
        assert!(validate_range("l", &(2..2), 4).is_err());
    }

    #[test]
    fn units_part_rejects_input_parts_and_misfit_buffers() {
        use test_support::units;
        let out = [0.0; 8];
        let relu = units(1..3, true, true);
        assert_eq!(units_part("l", relu, 4, 4, &out).unwrap(), (1..3, true));
        assert!(matches!(
            units_part("l", Part::Inputs(0..4), 4, 2, &out),
            Err(NnError::NotPartitionable { .. })
        ));
        assert!(matches!(
            units_part("l", units(0..2, false, false), 4, 2, &out),
            Err(NnError::Tensor(TensorError::LengthMismatch { .. }))
        ));
    }

    #[test]
    fn every_layer_answers_each_question_once() {
        use crate::graph::{compile, CompileOptions, FusedRelu, GraphBuilder};
        use std::sync::Arc;
        fn arc(layer: impl Layer + 'static) -> Arc<dyn Layer> {
            Arc::new(layer)
        }
        let (chw, flat) = (Shape::new(&[2, 4, 4]), Shape::new(&[32]));
        // Compiling conv -> relu -> flatten -> dense -> relu yields the
        // fused form of each layer with an input-channel split.
        let mut b = GraphBuilder::new("fused", chw.clone());
        let x = b.input_id();
        let c = b.add(Conv2d::new("c", 2, 2, 3, 1, 1, 0), &[x]).unwrap();
        let r = b.add(Relu::new("r"), &[c]).unwrap();
        let f = b.add(Flatten::new("f"), &[r]).unwrap();
        let d = b.add(Dense::new("d", 32, 5, 1), &[f]).unwrap();
        let _ = b.add(Relu::new("r2"), &[d]).unwrap();
        let graph = compile(&b.finish().unwrap(), &CompileOptions::default());
        let graph = graph.unwrap().0;
        let fused = |name: &str| {
            let node = graph.nodes().iter().find(|n| n.layer().name() == name);
            node.unwrap().layer_arc()
        };
        let k = Tensor::arange(&[3, 2]);
        let lrn = LocalResponseNorm::alexnet_default("n");
        // Each layer, its role, and which of these it has: `u` one output
        // unit, `i` an input-channel split (two or more input channels),
        // `s` arena scratch.
        let rows: [(Arc<dyn Layer>, Role<'_>, &str); 19] = [
            (arc(InputLayer::new(chw.clone())), Role::Kernel, "u"),
            (arc(Conv2d::new("c", 2, 3, 3, 1, 1, 0)), Role::Kernel, "is"),
            (arc(Dense::new("d", 32, 5, 0)), Role::Kernel, "is"),
            (arc(Relu::new("r")), Role::Relu, ""),
            (arc(Dropout::new("dr")), Role::Identity, ""),
            (arc(Softmax::new("s")), Role::Kernel, "u"),
            (arc(Concat::new("cat", 2)), Role::Concat, ""),
            (arc(AddResidual::new("add")), Role::Kernel, ""),
            (arc(Constant::new("k", k.clone())), Role::Constant(&k), "u"),
            (arc(Slice::new("sl", 0, 2)), Role::Slice(0..2), ""),
            (arc(Flatten::new("f")), Role::Kernel, "u"),
            (arc(BatchNorm2d::new("bn", 2, 0)), Role::Kernel, ""),
            (arc(lrn), Role::Kernel, ""),
            (arc(MaxPool2d::new("mp", 2, 2)), Role::Kernel, ""),
            (arc(AvgPool2d::new("ap", 2, 2)), Role::Kernel, ""),
            (arc(GlobalAvgPool::new("gap")), Role::Kernel, ""),
            (fused("c+relu"), Role::Kernel, "is"),
            (fused("d+relu"), Role::Kernel, "is"),
            // A fused concat is no concat: simplify-slices leaves it be.
            (
                arc(FusedRelu::new(arc(Concat::new("c", 2)))),
                Role::Kernel,
                "",
            ),
        ];
        for (layer, role, has) in &rows {
            let shapes: Vec<&Shape> = match (layer.arity(), layer.class()) {
                (0, _) => vec![],
                (2, _) => vec![&chw, &chw],
                (_, LayerClass::Fc) => vec![&flat],
                _ => vec![&chw],
            };
            let name = layer.name();
            assert_eq!(layer.role(), *role, "{name}");
            let units = layer.partition_units(&shapes).unwrap();
            assert_eq!(units == 1, has.contains('u'), "{name}: {units} units");
            let channels = layer.input_channels(&shapes).unwrap();
            assert_eq!(
                channels != 1,
                has.contains('i'),
                "{name}: {channels} channels"
            );
            let scratch = layer.scratch_bytes(&shapes).unwrap();
            assert_eq!(scratch != 0, has.contains('s'), "{name}: {scratch} bytes");
        }
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
