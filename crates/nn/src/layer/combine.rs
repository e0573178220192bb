//! Structural layers: channel concatenation, residual addition, flatten.

use std::ops::Range;

use edgenn_tensor::{Shape, Tensor};

use crate::layer::{check_arity, clamp_if, units_part, Layer, LayerClass, Part};
use crate::{NnError, Result, Workload};

/// Channel-axis concatenation of two or more CHW maps.
///
/// This is SqueezeNet's fire-module join (`concat` in the paper's Figure 5)
/// and the synchronization point where EdgeNN's inter-kernel co-running
/// merges independent CPU and GPU branches.
#[derive(Debug, Clone)]
pub struct Concat {
    name: String,
    arity: usize,
}

impl Concat {
    /// Creates a concat layer joining `arity` inputs.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Self {
            name: name.into(),
            arity,
        }
    }

    fn check_shapes(&self, inputs: &[&Shape]) -> Result<()> {
        check_arity(&self.name, self.arity, inputs)?;
        let first = inputs[0];
        for s in inputs.iter().skip(1) {
            if s.rank() != first.rank() || s.dims()[1..] != first.dims()[1..] {
                return Err(NnError::BadInputShape {
                    layer: self.name.clone(),
                    reason: format!("trailing dims differ: {first} vs {s}"),
                });
            }
        }
        Ok(())
    }
}

impl Layer for Concat {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Combine
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn is_concat(&self) -> bool {
        true
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        self.check_shapes(inputs)?;
        let axis0 = inputs.iter().map(|s| s.dims()[0]).sum();
        inputs[0].with_dim(0, axis0).map_err(Into::into)
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
        self.check_shapes(&shapes)?;
        let total: usize = shapes.iter().map(|s| s.dims()[0]).sum();
        let unit_len = shapes[0].dims()[1..].iter().product();
        let (range, relu) = units_part(&self.name, part, total, unit_len, out)?;
        // Map the global output range onto per-input sub-ranges, each
        // copied straight to its place in `out`.
        let (mut offset, mut written) = (0, 0);
        for input in inputs {
            let len = input.shape().dim(0)?;
            let lo = range.start.max(offset);
            let hi = range.end.min(offset + len);
            if lo < hi {
                let src = &input.as_slice()[(lo - offset) * unit_len..(hi - offset) * unit_len];
                out[written..written + src.len()].copy_from_slice(src);
                written += src.len();
            }
            offset += len;
        }
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        self.check_shapes(inputs)?;
        let bytes: u64 = inputs.iter().map(|s| (s.num_elements() * 4) as u64).sum();
        Ok(Workload {
            flops: 0,
            input_bytes: bytes,
            output_bytes: bytes,
            weight_bytes: 0,
        })
    }
}

/// Element-wise residual addition of two equal-shape maps (ResNet).
#[derive(Debug, Clone)]
pub struct AddResidual {
    name: String,
}

impl AddResidual {
    /// Creates a residual-add layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for AddResidual {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Combine
    }

    fn arity(&self) -> usize {
        2
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 2, inputs)?;
        if inputs[0] != inputs[1] {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!("residual shapes differ: {} vs {}", inputs[0], inputs[1]),
            });
        }
        Ok(inputs[0].clone())
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 2, inputs)?;
        let shape = self.output_shape(&[inputs[0].shape(), inputs[1].shape()])?;
        let units = shape.dim(0)?;
        let unit_len = shape.num_elements() / units.max(1);
        let (range, relu) = units_part(&self.name, part, units, unit_len, out)?;
        let rows = range.start * unit_len..range.end * unit_len;
        let (a, b) = (
            &inputs[0].as_slice()[rows.clone()],
            &inputs[1].as_slice()[rows],
        );
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
        // ResNet's post-residual ReLU rides in the same elementwise pass
        // when fused: `max(a + b, 0)` is exactly add-then-clamp, so the
        // compiled graph matches the uncompiled one bitwise.
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 2, inputs)?;
        let elems = inputs[0].num_elements() as u64;
        Ok(Workload {
            flops: elems,
            input_bytes: 2 * elems * 4,
            output_bytes: elems * 4,
            weight_bytes: 0,
        })
    }
}

/// A compile-time constant: a zero-arity node holding a fixed tensor.
///
/// Model builders never emit these; they come from the graph compiler's
/// constant-folding pass (an all-constant subgraph collapses into one
/// `Constant`) and from tests that exercise it.
#[derive(Debug, Clone)]
pub struct Constant {
    name: String,
    value: Tensor,
}

impl Constant {
    /// Creates a constant node producing `value`.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Self {
            name: name.into(),
            value,
        }
    }
}

impl Layer for Constant {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Combine
    }

    fn arity(&self) -> usize {
        0
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 0, inputs)?;
        Ok(self.value.shape().clone())
    }

    fn partitionable(&self) -> bool {
        false
    }

    fn partition_units(&self, _inputs: &[&Shape]) -> Result<usize> {
        Ok(1)
    }

    fn constant_value(&self) -> Option<&Tensor> {
        Some(&self.value)
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 0, inputs)?;
        let (_, relu) = units_part(&self.name, part, 1, self.value.len(), out)?;
        out.copy_from_slice(self.value.as_slice());
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 0, inputs)?;
        Ok(Workload {
            output_bytes: (self.value.len() * 4) as u64,
            ..Workload::default()
        })
    }
}

/// An axis-0 slice `input[start..end]` of its single input.
///
/// The structural counterpart of [`Concat`]: a split emitted as explicit
/// slice nodes. The compiler's split/concat simplification cancels a
/// concat of slices that covers its producer in order, and removes
/// full-range slices as identities.
#[derive(Debug, Clone)]
pub struct Slice {
    name: String,
    start: usize,
    end: usize,
}

impl Slice {
    /// Creates a slice keeping axis-0 units `start..end`.
    pub fn new(name: impl Into<String>, start: usize, end: usize) -> Self {
        Self {
            name: name.into(),
            start,
            end,
        }
    }

    /// The kept axis-0 range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    fn check_input(&self, input: &Shape) -> Result<()> {
        if self.start >= self.end || self.end > input.dim(0)? {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                reason: format!(
                    "slice {}..{} out of bounds for {input}",
                    self.start, self.end
                ),
            });
        }
        Ok(())
    }

    /// True when the slice covers its whole input (an identity).
    pub fn covers(&self, input: &Shape) -> bool {
        self.start == 0 && input.dim(0).is_ok_and(|d| d == self.end)
    }
}

impl Layer for Slice {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Combine
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        inputs[0]
            .with_dim(0, self.end - self.start)
            .map_err(Into::into)
    }

    fn slice_range(&self) -> Option<Range<usize>> {
        Some(self.start..self.end)
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0].shape())?;
        let unit_len = inputs[0].len() / inputs[0].shape().dim(0)?;
        let (range, relu) = units_part(&self.name, part, self.end - self.start, unit_len, out)?;
        let rows = (self.start + range.start) * unit_len..(self.start + range.end) * unit_len;
        out.copy_from_slice(&inputs[0].as_slice()[rows]);
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        self.check_input(inputs[0])?;
        let out = self.output_shape(inputs)?;
        Ok(Workload {
            flops: 0,
            input_bytes: (inputs[0].num_elements() * 4) as u64,
            output_bytes: (out.num_elements() * 4) as u64,
            weight_bytes: 0,
        })
    }
}

/// Flattens any tensor to rank 1.
///
/// Pure data movement with no reordering (tensors are already contiguous
/// row-major), so it is modelled as zero-FLOP. Not partitionable: it sits
/// between conv and fc stages where the partition axis changes meaning.
#[derive(Debug, Clone)]
pub struct Flatten {
    name: String,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Combine
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        Ok(Shape::new(&[inputs[0].num_elements()]))
    }

    fn partitionable(&self) -> bool {
        false
    }

    fn partition_units(&self, _inputs: &[&Shape]) -> Result<usize> {
        Ok(1)
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        check_arity(&self.name, 1, inputs)?;
        let (_, relu) = units_part(&self.name, part, 1, inputs[0].len(), out)?;
        out.copy_from_slice(inputs[0].as_slice());
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        let bytes = (inputs[0].num_elements() * 4) as u64;
        Ok(Workload {
            flops: 0,
            input_bytes: bytes,
            output_bytes: bytes,
            weight_bytes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::test_support::{assert_merge_invariant, compute, units};

    #[test]
    fn concat_joins_channels() {
        let a = Tensor::filled(&[2, 2, 2], 1.0);
        let b = Tensor::filled(&[3, 2, 2], 2.0);
        let cat = Concat::new("cat", 2);
        let y = cat.forward(&[&a, &b]).unwrap();
        assert_eq!(y.dims(), &[5, 2, 2]);
        assert_eq!(y.as_slice()[0], 1.0);
        assert_eq!(y.as_slice()[8], 2.0);
    }

    #[test]
    fn concat_partial_spans_input_boundary() {
        let a = Tensor::arange(&[2, 1, 1]);
        let b = Tensor::arange(&[2, 1, 1]).scale(10.0);
        let cat = Concat::new("cat", 2);
        let part = compute(&cat, &[&a, &b], units(1..3, false, false)).unwrap();
        assert_eq!(part, &[1.0, 0.0]);
        assert_merge_invariant(&cat, &[&a, &b]);
    }

    #[test]
    fn concat_validates_trailing_dims_and_arity() {
        let a = Tensor::zeros(&[2, 2, 2]);
        let b = Tensor::zeros(&[2, 3, 2]);
        let cat = Concat::new("cat", 2);
        assert!(matches!(
            cat.forward(&[&a, &b]),
            Err(NnError::BadInputShape { .. })
        ));
        assert!(matches!(
            cat.forward(&[&a]),
            Err(NnError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn residual_adds_elementwise() {
        let a = Tensor::arange(&[2, 2, 2]);
        let b = Tensor::ones(&[2, 2, 2]);
        let add = AddResidual::new("add");
        let y = add.forward(&[&a, &b]).unwrap();
        assert_eq!(y.as_slice()[3], 4.0);
        assert_merge_invariant(&add, &[&a, &b]);
    }

    #[test]
    fn residual_requires_equal_shapes() {
        let add = AddResidual::new("add");
        assert!(add
            .output_shape(&[&Shape::new(&[2, 2, 2]), &Shape::new(&[2, 2, 3])])
            .is_err());
    }

    #[test]
    fn flatten_reshapes_without_reordering() {
        let x = Tensor::arange(&[2, 3, 4]);
        let f = Flatten::new("flat");
        let y = f.forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[24]);
        assert_eq!(y.as_slice(), x.as_slice());
        assert!(!f.partitionable());
    }

    #[test]
    fn combine_workloads_are_pure_traffic() {
        let s = Shape::new(&[4, 4, 4]);
        assert_eq!(Concat::new("c", 2).workload(&[&s, &s]).unwrap().flops, 0);
        assert_eq!(Flatten::new("f").workload(&[&s]).unwrap().flops, 0);
        assert!(AddResidual::new("a").workload(&[&s, &s]).unwrap().flops > 0);
    }

    #[test]
    fn residual_fused_relu_matches_add_then_clamp_bitwise() {
        let a = Tensor::random(&[6, 3, 3], 1.0, 7);
        let b = Tensor::random(&[6, 3, 3], 1.0, 8);
        let add = AddResidual::new("add");
        let mut reference = add.forward(&[&a, &b]).unwrap();
        edgenn_tensor::ops::relu_in_place(reference.as_mut_slice());
        let fused = compute(&add, &[&a, &b], units(0..6, false, true)).unwrap();
        assert_eq!(fused, reference.as_slice());
        // Partial fused ranges tile to the same result.
        let lo = compute(&add, &[&a, &b], units(0..2, false, true)).unwrap();
        let hi = compute(&add, &[&a, &b], units(2..6, false, true)).unwrap();
        assert_eq!(lo, &reference.as_slice()[..lo.len()]);
        assert_eq!(hi, &reference.as_slice()[lo.len()..]);
    }

    #[test]
    fn constant_produces_its_value() {
        let v = Tensor::arange(&[3, 2]);
        let c = Constant::new("k", v.clone());
        assert_eq!(c.arity(), 0);
        assert!(!c.partitionable());
        assert_eq!(c.constant_value().unwrap(), &v);
        assert_eq!(c.output_shape(&[]).unwrap(), *v.shape());
        assert_eq!(c.forward(&[]).unwrap(), v);
        assert_eq!(c.workload(&[]).unwrap().flops, 0);
        assert!(matches!(
            c.forward(&[&v]),
            Err(NnError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn slice_extracts_axis0_range() {
        let x = Tensor::arange(&[5, 2]);
        let s = Slice::new("s", 1, 4);
        let y = s.forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(y.as_slice(), &x.as_slice()[2..8]);
        // Partial ranges offset into the kept window.
        let part = compute(&s, &[&x], units(1..3, false, false)).unwrap();
        assert_eq!(part, &x.as_slice()[4..8]);
        assert_merge_invariant(&s, &[&x]);
        assert!(Slice::new("full", 0, 5).covers(x.shape()));
        assert!(!s.covers(x.shape()));
    }

    #[test]
    fn slice_rejects_out_of_bounds() {
        let x = Tensor::arange(&[4, 2]);
        assert!(matches!(
            Slice::new("s", 2, 2).forward(&[&x]),
            Err(NnError::BadInputShape { .. })
        ));
        assert!(matches!(
            Slice::new("s", 0, 5).forward(&[&x]),
            Err(NnError::BadInputShape { .. })
        ));
    }
}
