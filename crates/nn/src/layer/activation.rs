//! Element-wise activations, dropout, and softmax.

use edgenn_tensor::{ops, Shape, Tensor};

use crate::layer::{check_arity, clamp_if, units_part, Layer, LayerClass, Part};
use crate::{Result, Workload};

/// Rectified linear unit.
///
/// Element-wise, so any axis-0 partition of the input maps directly onto
/// the same partition of the output — the cheapest possible layer to
/// co-run.
#[derive(Debug, Clone)]
pub struct Relu {
    name: String,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_relu(&self) -> bool {
        true
    }

    fn class(&self) -> LayerClass {
        LayerClass::Activation
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        Ok(inputs[0].clone())
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        // relu(relu(x)) == relu(x): a fused ReLU changes nothing.
        copy_units(&self.name, inputs, part, out)?;
        ops::relu_in_place(out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        let elems = inputs[0].num_elements() as u64;
        Ok(Workload {
            flops: elems,
            input_bytes: elems * 4,
            output_bytes: elems * 4,
            weight_bytes: 0,
        })
    }
}

/// Copies output units `part` of an element-wise layer — the same units
/// of its single input — into `out`; returns the part's fused ReLU.
fn copy_units(layer: &str, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<bool> {
    check_arity(layer, 1, inputs)?;
    let units = inputs[0].shape().dim(0)?;
    let unit_len = inputs[0].len() / units.max(1);
    let (range, relu) = units_part(layer, part, units, unit_len, out)?;
    out.copy_from_slice(&inputs[0].as_slice()[range.start * unit_len..range.end * unit_len]);
    Ok(relu)
}

/// Inference-time dropout: the identity function.
///
/// The paper's AlexNet and VGG include dropout layers; at inference they
/// perform no work (inverted-dropout convention), but they still appear in
/// the DAG, so we keep them as explicit zero-FLOP nodes with pure
/// pass-through semantics.
#[derive(Debug, Clone)]
pub struct Dropout {
    name: String,
}

impl Dropout {
    /// Creates an inference-time dropout layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for Dropout {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Activation
    }

    fn is_identity(&self) -> bool {
        true
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        Ok(inputs[0].clone())
    }

    fn forward_into(&self, inputs: &[&Tensor], part: Part, out: &mut [f32]) -> Result<()> {
        let relu = copy_units(&self.name, inputs, part, out)?;
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

/// Softmax over a rank-1 score vector.
///
/// **Not partitionable**: the normalizing sum couples every output, so the
/// tuner must schedule it on a single processor (the DAG decomposition
/// treats it as an unsplittable chain node).
#[derive(Debug, Clone)]
pub struct Softmax {
    name: String,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for Softmax {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> LayerClass {
        LayerClass::Activation
    }

    fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        check_arity(&self.name, 1, inputs)?;
        Ok(inputs[0].clone())
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
        ops::softmax_in_place(out);
        clamp_if(relu, out);
        Ok(())
    }

    fn workload(&self, inputs: &[&Shape]) -> Result<Workload> {
        check_arity(&self.name, 1, inputs)?;
        let elems = inputs[0].num_elements() as u64;
        Ok(Workload {
            // exp + subtract + divide + two reductions, ~5 ops per element
            flops: 5 * elems,
            input_bytes: elems * 4,
            output_bytes: elems * 4,
            weight_bytes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::test_support::{assert_merge_invariant, compute, units};
    use crate::NnError;

    #[test]
    fn relu_matches_reference() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[4]).unwrap();
        let y = Relu::new("r").forward(&[&x]).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_merge_invariant() {
        let x = Tensor::random(&[6, 3, 3], 1.0, 1);
        assert_merge_invariant(&Relu::new("r"), &[&x]);
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let x = Tensor::random(&[5, 2], 1.0, 2);
        let y = Dropout::new("d").forward(&[&x]).unwrap();
        assert_eq!(y, x);
        assert_merge_invariant(&Dropout::new("d"), &[&x]);
        assert_eq!(Dropout::new("d").workload(&[x.shape()]).unwrap().flops, 0);
    }

    #[test]
    fn softmax_normalizes() {
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[3]).unwrap();
        let y = Softmax::new("s").forward(&[&x]).unwrap();
        assert!((y.sum() - 1.0).abs() < 1e-6);
        assert_eq!(y.argmax(), Some(2));
    }

    #[test]
    fn softmax_rejects_partitioning() {
        let s = Softmax::new("s");
        let x = Tensor::random(&[4], 1.0, 0);
        assert!(!s.partitionable());
        assert_eq!(s.partition_units(&[x.shape()]).unwrap(), 1);
        assert!(matches!(
            compute(&s, &[&x], units(0..0, false, false)),
            Err(NnError::BadPartition { .. })
        ));
    }

    #[test]
    fn activation_shapes_are_identity() {
        let shape = Shape::new(&[3, 4, 4]);
        assert_eq!(Relu::new("r").output_shape(&[&shape]).unwrap(), shape);
        assert_eq!(Dropout::new("d").output_shape(&[&shape]).unwrap(), shape);
        assert_eq!(Softmax::new("s").output_shape(&[&shape]).unwrap(), shape);
    }
}
