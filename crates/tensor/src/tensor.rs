use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Shape, TensorError};

/// An owned, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single numeric container used throughout the TBNet
/// reproduction: network weights, gradients, activations and datasets are all
/// `Tensor`s. The representation is always contiguous, which keeps the
/// convolution kernels in [`crate::ops`] simple and predictable — the property
/// the TEE cost model relies on when counting bytes.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), tbnet_tensor::TensorError> {
/// use tbnet_tensor::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 3]);
/// *t.at_mut(&[1, 2])? = 5.0;
/// assert_eq!(t.at(&[1, 2])?, 5.0);
/// assert_eq!(t.numel(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Serialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

// Decoding goes through `Tensor::from_vec`, so a checkpoint whose `data`
// length disagrees with its `shape` (truncated, tampered, or with a shape
// whose element count overflows) is a decode error instead of a tensor
// that panics in the first kernel to index it. Same JSON as the derive.
impl<'de> Deserialize<'de> for Tensor {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let data = Vec::<f32>::from_value(v.field("data"))?;
        let shape = Shape::from_value(v.field("shape"))?;
        if shape
            .dims()
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .is_none()
        {
            return Err(serde::DeError(format!(
                "tensor shape {:?} has more elements than fit usize",
                shape.dims()
            )));
        }
        Tensor::from_vec(data, shape.dims()).map_err(|e| serde::DeError(format!("tensor: {e}")))
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps a `Vec<f32>` as a tensor with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` disagrees with
    /// the number of elements implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                got: data.len(),
                op: "from_vec",
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Builds a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: data.to_vec(),
            shape: Shape::new(&[data.len()]),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice (shorthand for `self.shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying contiguous buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying contiguous buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Mutable reference to the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn at_mut(&mut self, index: &[usize]) -> Result<&mut f32, TensorError> {
        let off = self.shape.offset(index)?;
        Ok(&mut self.data[off])
    }

    /// Returns a tensor with the same data re-interpreted under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                got: self.numel(),
                op: "reshape",
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// In-place fill with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`None` for an empty tensor).
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Minimum element (`None` for an empty tensor).
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Index of the maximum element in the flattened buffer.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Sum of absolute values (L1 norm) of all elements.
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|&x| x.abs()).sum()
    }

    /// `true` when every element is finite (no NaN/Inf) — useful as a training
    /// invariant in tests.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Matrix product `self @ other` (convenience wrapper around
    /// [`crate::ops::matmul()`]).
    ///
    /// # Errors
    ///
    /// See [`crate::ops::matmul()`].
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        crate::ops::matmul(self, other)
    }

    /// Elementwise sum (convenience wrapper around [`crate::ops::add`]).
    ///
    /// # Errors
    ///
    /// See [`crate::ops::add`].
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        crate::ops::add(self, other)
    }

    /// Checks that `other` has exactly this tensor's shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] labelled with `op` otherwise.
    pub fn expect_same_shape(&self, other: &Tensor, op: &'static str) -> Result<(), TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                got: other.shape.dims().to_vec(),
                op,
            });
        }
        Ok(())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, … {} elements …, {:.4}]",
                self.data[0],
                self.data[1],
                self.numel(),
                self.data[self.numel() - 1]
            )
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
        let eye = Tensor::eye(3);
        assert_eq!(eye.sum(), 3.0);
        assert_eq!(eye.at(&[1, 1]).unwrap(), 1.0);
        assert_eq!(eye.at(&[0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        *t.at_mut(&[1, 2, 3]).unwrap() = 9.0;
        assert_eq!(t.at(&[1, 2, 3]).unwrap(), 9.0);
        assert_eq!(t.as_slice()[23], 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), Some(3.0));
        assert_eq!(t.min(), Some(-2.0));
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(t.l1_norm(), 6.0);
        assert_eq!(t.sq_norm(), 14.0);
    }

    #[test]
    fn map_and_fill() {
        let mut t = Tensor::from_slice(&[1.0, 2.0]);
        let doubled = t.map(|x| 2.0 * x);
        assert_eq!(doubled.as_slice(), &[2.0, 4.0]);
        t.map_inplace(|x| x + 1.0);
        assert_eq!(t.as_slice(), &[2.0, 3.0]);
        t.fill(0.0);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn finiteness_check() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.as_mut_slice()[0] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn expect_same_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(a.expect_same_shape(&b, "test").is_err());
        assert!(a.expect_same_shape(&a.clone(), "test").is_ok());
    }

    #[test]
    fn debug_output_small_and_large() {
        let small = Tensor::ones(&[2]);
        assert!(format!("{small:?}").contains("1.0"));
        let large = Tensor::ones(&[100]);
        assert!(format!("{large:?}").contains("elements"));
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
