//! A minimal dense row-major `f32` tensor.
//!
//! This is deliberately a small, dependency-free tensor: the reproduction
//! only needs NCHW batches, dense matmul/conv kernels and elementwise maps.

use std::fmt;

/// Dense row-major tensor of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has zero dimensions.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "tensor must have at least one dimension");
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut t = Tensor::zeros(shape);
        t.data.iter_mut().for_each(|x| *x = value);
        t
    }

    /// Build from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            data.len(),
            "shape {shape:?} does not match buffer of {} elements",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Shape slice.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable data view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret with a new shape of identical element count.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "cannot reshape {:?} -> {shape:?}",
            self.shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "shape mismatch in add");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place `self += alpha * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Scale all elements in place.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Set every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element along the last axis for each row of a
    /// 2-D `[n, k]` tensor — the predicted class per sample.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2, "argmax_rows requires a 2-d tensor");
        let k = self.shape[1];
        self.data
            .chunks(k)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}(", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(6)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 6 {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[2, 2], 1.5);
        assert_eq!(f.sum(), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_shape() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn map_and_axpy() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let doubled = a.map(|x| 2.0 * x);
        assert_eq!(doubled.as_slice(), &[2.0, 4.0, 6.0]);
        let mut b = Tensor::zeros(&[3]);
        b.axpy(0.5, &a);
        assert_eq!(b.as_slice(), &[0.5, 1.0, 1.5]);
    }

    #[test]
    fn argmax_rows_picks_class() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.0, 0.3, 0.1, 0.6]);
        assert_eq!(t.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn debug_is_compact() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.len() < 120);
        assert!(s.contains("Tensor[100]"));
    }
}
