//! The owned dense tensor type.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Result, Shape, TensorError};

/// A dense, contiguous, row-major `f32` tensor.
///
/// This is the only tensor representation in the workspace. Layers in
/// `edgenn-nn` read `Tensor`s and write their outputs into flat buffers;
/// when the CPU and GPU each compute part of a layer (intra-kernel
/// co-running), the two parts are disjoint axis-0 runs of one buffer,
/// because the layout is row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if the buffer length differs
    /// from the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Self { data, shape })
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![0.0; shape.num_elements()],
            shape,
        }
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::filled(dims, 1.0)
    }

    /// Tensor filled with a constant.
    pub fn filled(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![value; shape.num_elements()],
            shape,
        }
    }

    /// Square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self {
            data,
            shape: Shape::new(&[n, n]),
        }
    }

    /// Deterministic pseudo-random tensor in `[-bound, bound)`.
    ///
    /// Used for synthetic weights and inputs; a fixed `seed` keeps every
    /// experiment reproducible, which the paper-reproduction harness relies
    /// on when comparing execution strategies.
    pub fn random(dims: &[usize], bound: f32, seed: u64) -> Self {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-bound, bound);
        let data = (0..shape.num_elements())
            .map(|_| dist.sample(&mut rng))
            .collect();
        Self { data, shape }
    }

    /// Tensor whose linear element `i` equals `i as f32`. Handy in tests.
    pub fn arange(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.num_elements()).map(|i| i as f32).collect();
        Self { data, shape }
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension list.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the tensor in bytes (`f32` elements).
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Immutable view of the flat buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    /// Propagates index validation from [`Shape::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    /// Propagates index validation from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let offset = self.shape.offset(index)?;
        self.data[offset] = value;
        Ok(())
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Errors
    /// Returns [`TensorError::ReshapeMismatch`] when counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.num_elements() != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.data.len(),
                to: shape.num_elements(),
            });
        }
        Ok(Self {
            data: self.data.clone(),
            shape,
        })
    }

    /// Concatenates tensors along axis 0. All parts must agree on every
    /// non-leading dimension.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when trailing dims disagree
    /// and [`TensorError::EmptyRange`] when `parts` is empty.
    pub fn concat_axis0(parts: &[&Tensor]) -> Result<Self> {
        let first = parts
            .first()
            .ok_or(TensorError::EmptyRange { start: 0, end: 0 })?;
        let trailing = &first.shape.dims()[1..];
        let mut axis0 = 0usize;
        let mut total = 0usize;
        for part in parts {
            if part.shape.rank() != first.shape.rank() || &part.shape.dims()[1..] != trailing {
                return Err(TensorError::ShapeMismatch {
                    left: first.shape.dims().to_vec(),
                    right: part.shape.dims().to_vec(),
                });
            }
            axis0 += part.shape.dims()[0];
            total += part.len();
        }
        let mut data = Vec::with_capacity(total);
        for part in parts {
            data.extend_from_slice(&part.data);
        }
        let mut dims = first.shape.dims().to_vec();
        dims[0] = axis0;
        Ok(Self {
            data,
            shape: Shape::new(&dims),
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Element-wise combination of two equally shaped tensors.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            data,
            shape: self.shape.clone(),
        })
    }

    /// Element-wise sum.
    ///
    /// # Errors
    /// See [`Tensor::zip_with`].
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise product.
    ///
    /// # Errors
    /// See [`Tensor::zip_with`].
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Scales every element by a constant.
    pub fn scale(&self, factor: f32) -> Self {
        self.map(|x| x * factor)
    }

    /// Matrix multiply of two rank-2 tensors.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::MatmulDimMismatch`] when inner dims disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Self> {
        crate::gemm::gemm(self, other)
    }

    /// Largest absolute element difference between two tensors.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// True when every pairwise difference is within `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other).is_ok_and(|d| d <= tol)
    }

    /// Index of the maximum element (first occurrence), or `None` if empty.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert_eq!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err(),
            TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn constructors_fill_as_documented() {
        assert!(Tensor::zeros(&[3]).as_slice().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).as_slice().iter().all(|&x| x == 1.0));
        assert!(Tensor::filled(&[2, 2], 2.5)
            .as_slice()
            .iter()
            .all(|&x| x == 2.5));
        assert_eq!(Tensor::eye(3).get(&[1, 1]).unwrap(), 1.0);
        assert_eq!(Tensor::eye(3).get(&[1, 2]).unwrap(), 0.0);
        assert_eq!(Tensor::arange(&[2, 2]).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Tensor::random(&[32], 1.0, 7);
        let b = Tensor::random(&[32], 1.0, 7);
        let c = Tensor::random(&[32], 1.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(&[2, 3]);
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn concat_joins_axis0_runs() {
        let t = Tensor::arange(&[5, 3]);
        let a = Tensor::from_vec(t.as_slice()[..6].to_vec(), &[2, 3]).unwrap();
        let b = Tensor::from_vec(t.as_slice()[6..].to_vec(), &[3, 3]).unwrap();
        let merged = Tensor::concat_axis0(&[&a, &b]).unwrap();
        assert_eq!(merged, t);
    }

    #[test]
    fn concat_rejects_mismatched_trailing_dims() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::zeros(&[1, 3]);
        assert!(matches!(
            Tensor::concat_axis0(&[&a, &b]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(Tensor::concat_axis0(&[]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.map(|x| -x).as_slice(), &[-1.0, -2.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn comparison_helpers() {
        let a = Tensor::from_vec(vec![1.0, 5.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 5.001, 3.0], &[3]).unwrap();
        assert!((a.max_abs_diff(&b).unwrap() - 0.001).abs() < 1e-6);
        assert!(a.approx_eq(&b, 0.01));
        assert!(!a.approx_eq(&b, 1e-6));
        assert_eq!(a.argmax(), Some(1));
        assert_eq!(a.sum(), 9.0);
        assert_eq!(Tensor::zeros(&[0]).argmax(), None);
    }

    #[test]
    fn byte_len_counts_f32s() {
        assert_eq!(Tensor::zeros(&[4, 4]).byte_len(), 64);
    }
}
