//! Dense row-major matrix type tuned for the small systems (1–10 states)
//! that appear in embedded control design.

use crate::error::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, row-major, heap-allocated matrix of `f64` entries.
///
/// The type is deliberately simple: control-oriented workloads in this
/// repository never exceed a handful of states, so cache blocking or SIMD are
/// irrelevant, while predictable semantics and exhaustive error reporting are
/// essential.
///
/// # Example
///
/// ```
/// use cps_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok::<(), cps_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates an all-zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the rows are empty or have
    /// inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidArgument {
                reason: "matrix must have at least one row and one column".to_string(),
            });
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::InvalidArgument {
                reason: "all rows must have the same length".to_string(),
            });
        }
        let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidArgument {
                reason: "matrix dimensions must be positive".to_string(),
            });
        }
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument {
                reason: format!("expected {} entries, got {}", rows * cols, data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a column vector (an `n × 1` matrix) from a slice.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `entries` is empty.
    pub fn column(entries: &[f64]) -> Result<Self> {
        Self::from_vec(entries.len(), 1, entries.to_vec())
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `diag` is empty.
    pub fn diagonal(diag: &[f64]) -> Result<Self> {
        if diag.is_empty() {
            return Err(LinalgError::InvalidArgument {
                reason: "diagonal must not be empty".to_string(),
            });
        }
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the underlying row-major data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the entry at `(row, col)` or `None` if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Extracts row `row` as a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> Vec<f64> {
        assert!(row < self.rows, "row index out of bounds");
        self.data[row * self.cols..(row + 1) * self.cols].to_vec()
    }

    /// Extracts column `col` as a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn col(&self, col: usize) -> Vec<f64> {
        assert!(col < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, col)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // In-place / workspace tier.
    //
    // The `*_into` entry points validate shapes once and then delegate to
    // the `*_kernel` inner loops, which only `debug_assert!` their
    // preconditions. Hot paths (the simulation kernels in `cps-control` and
    // the scenario engine in `cps-core`) validate at construction time and
    // call the kernels directly on pre-allocated buffers, so the per-step
    // cost is a bare fused multiply-add loop with no heap traffic.
    // ------------------------------------------------------------------

    /// Writes `self * v` into `out` without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()` or
    /// `out.len() != self.rows()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (out.len(), 1),
                op: "matvec_into (output)",
            });
        }
        self.matvec_kernel(v, out);
        Ok(())
    }

    /// Unvalidated inner loop of [`Matrix::matvec_into`]: `out = self * v`.
    ///
    /// Shapes are only `debug_assert!`ed; callers are expected to have
    /// validated them once up front (release builds index safely through
    /// iterators either way — this crate forbids `unsafe`).
    #[inline]
    pub fn matvec_kernel(&self, v: &[f64], out: &mut [f64]) {
        debug_assert_eq!(v.len(), self.cols, "matvec_kernel: input length");
        debug_assert_eq!(out.len(), self.rows, "matvec_kernel: output length");
        for (row, slot) in self.data.chunks_exact(self.cols).zip(out.iter_mut()) {
            let mut acc = 0.0;
            for (a, x) in row.iter().zip(v) {
                acc += a * x;
            }
            *slot = acc;
        }
    }

    /// Writes `self * rhs` into `out` without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the inner dimensions differ
    /// or `out` does not have shape `(self.rows(), rhs.cols())`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, rhs.cols),
                right: out.shape(),
                op: "matmul_into (output)",
            });
        }
        self.matmul_kernel(rhs, out);
        Ok(())
    }

    /// Unvalidated inner loop of [`Matrix::matmul_into`]: `out = self * rhs`.
    ///
    /// The accumulation runs branch-free over dense rows: for the 2–6 state
    /// matrices of this workspace a zero-skip test costs more in mispredicts
    /// than the multiply it saves (the sparse-aware variant this replaced
    /// lost on every case-study shape).
    #[inline]
    pub fn matmul_kernel(&self, rhs: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(self.cols, rhs.rows, "matmul_kernel: inner dimensions");
        debug_assert_eq!(out.shape(), (self.rows, rhs.cols), "matmul_kernel: output shape");
        let n = rhs.cols;
        for (a_row, out_row) in
            self.data.chunks_exact(self.cols).zip(out.data.chunks_exact_mut(n))
        {
            out_row.fill(0.0);
            for (aik, b_row) in a_row.iter().zip(rhs.data.chunks_exact(n)) {
                for (o, b) in out_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
    }

    /// Overwrites `self` with the entries of `src` without reallocating.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, src: &Matrix) -> Result<()> {
        if self.shape() != src.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: src.shape(),
                op: "copy_from",
            });
        }
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// Writes the transpose of `self` into `out` without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `out` does not have shape
    /// `(self.cols(), self.rows())`.
    pub fn transpose_into(&self, out: &mut Matrix) -> Result<()> {
        if out.shape() != (self.cols, self.rows) {
            return Err(LinalgError::ShapeMismatch {
                left: (self.cols, self.rows),
                right: out.shape(),
                op: "transpose_into (output)",
            });
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        Ok(())
    }

    /// In-place scaled accumulation `self += factor * rhs` (a matrix axpy).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign_scaled(&mut self, rhs: &Matrix, factor: f64) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "add_assign_scaled",
            });
        }
        axpy(&mut self.data, factor, &rhs.data);
        Ok(())
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add_matrix(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "add",
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn sub_matrix(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "sub",
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Returns `self` scaled by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * factor).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Scales every entry in place (`self *= factor`), the allocation-free
    /// twin of [`Matrix::scale`].
    pub fn scale_assign(&mut self, factor: f64) {
        for value in &mut self.data {
            *value *= factor;
        }
    }

    /// Sum of the diagonal entries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { shape: self.shape(), op: "trace" });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Maximum absolute row sum (induced infinity norm).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self[(r, c)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, a| acc.max(a.abs()))
    }

    /// Returns `true` if all entries are finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }

    /// Returns `true` if `self` and `other` have the same shape and all
    /// entries differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Returns `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the contiguous sub-matrix with rows `row..row + height` and
    /// columns `col..col + width`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the block exceeds the
    /// matrix bounds or is empty.
    pub fn block(&self, row: usize, col: usize, height: usize, width: usize) -> Result<Matrix> {
        if height == 0 || width == 0 {
            return Err(LinalgError::InvalidArgument {
                reason: "block dimensions must be positive".to_string(),
            });
        }
        if row + height > self.rows || col + width > self.cols {
            return Err(LinalgError::InvalidArgument {
                reason: format!(
                    "block ({row}+{height}, {col}+{width}) exceeds matrix shape {}x{}",
                    self.rows, self.cols
                ),
            });
        }
        let mut out = Matrix::zeros(height, width);
        for r in 0..height {
            for c in 0..width {
                out[(r, c)] = self[(row + r, col + c)];
            }
        }
        Ok(out)
    }

    /// Writes `block` into `self` with its top-left corner at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the block does not fit.
    pub fn set_block(&mut self, row: usize, col: usize, block: &Matrix) -> Result<()> {
        if row + block.rows > self.rows || col + block.cols > self.cols {
            return Err(LinalgError::InvalidArgument {
                reason: format!(
                    "block of shape {}x{} at ({row}, {col}) exceeds matrix shape {}x{}",
                    block.rows, block.cols, self.rows, self.cols
                ),
            });
        }
        for r in 0..block.rows {
            for c in 0..block.cols {
                self[(row + r, col + c)] = block[(r, c)];
            }
        }
        Ok(())
    }

    /// Horizontally concatenates `self` and `rhs` (`[self | rhs]`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the row counts differ.
    pub fn hstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "hstack",
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        out.set_block(0, 0, self)?;
        out.set_block(0, self.cols, rhs)?;
        Ok(out)
    }

    /// Vertically concatenates `self` and `rhs` (`[self; rhs]`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column counts differ.
    pub fn vstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "vstack",
            });
        }
        let mut out = Matrix::zeros(self.rows + rhs.rows, self.cols);
        out.set_block(0, 0, self)?;
        out.set_block(self.rows, 0, rhs)?;
        Ok(out)
    }

    /// Raises a square matrix to a non-negative integer power by repeated
    /// squaring.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square.
    pub fn powi(&self, mut exponent: u32) -> Result<Matrix> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { shape: self.shape(), op: "powi" });
        }
        let mut result = Matrix::identity(self.rows);
        let mut base = self.clone();
        while exponent > 0 {
            if exponent & 1 == 1 {
                result = result.matmul(&base)?;
            }
            exponent >>= 1;
            if exponent > 0 {
                base = base.matmul(&base)?;
            }
        }
        Ok(result)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_matrix(rhs).expect("matrix addition requires equal shapes")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_matrix(rhs).expect("matrix subtraction requires equal shapes")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix multiplication requires compatible shapes")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        *self = self.add_matrix(rhs).expect("matrix addition requires equal shapes");
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        *self = self.sub_matrix(rhs).expect("matrix subtraction requires equal shapes");
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.5}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Euclidean norm of a vector, ‖v‖₂.
///
/// This is the norm the paper applies to the plant state when comparing
/// against the threshold `E_th`. Inlined so that on a fixed-size state the
/// loop unrolls into the caller's step.
#[inline]
pub fn vec_norm(v: &[f64]) -> f64 {
    v.iter().map(|a| a * a).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Vector axpy `y += a * x`, the allocation-free building block of the
/// in-place tier.
///
/// Lengths are only `debug_assert!`ed — validate once before entering a hot
/// loop (the `zip` stops at the shorter slice in release builds).
#[inline]
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "axpy requires equal lengths");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace().unwrap(), 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidArgument { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(0, 2, vec![]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn diagonal_builds_expected_matrix() {
        let d = Matrix::diagonal(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert!(Matrix::diagonal(&[]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(0, 1)], 3.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = sample();
        let b = Matrix::zeros(3, 2);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn matmul_into_matches_matmul_and_validates() {
        let a = sample();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let mut out = Matrix::zeros(2, 2);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        // Re-running into the same workspace overwrites, not accumulates.
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        let mut wrong = Matrix::zeros(3, 2);
        assert!(a.matmul_into(&b, &mut wrong).is_err());
        assert!(a.matmul_into(&Matrix::zeros(3, 2), &mut out).is_err());
    }

    #[test]
    fn matmul_handles_zero_entries_densely() {
        // The old inner loop special-cased zero entries; the dense kernel
        // must produce the same products for sparse inputs.
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[14.0, 16.0], &[0.0, 0.0]]).unwrap());
    }

    #[test]
    fn matvec_into_matches_matvec_and_validates() {
        let a = sample();
        let v = [1.0, -1.0];
        let mut out = [0.0f64; 2];
        a.matvec_into(&v, &mut out).unwrap();
        assert_eq!(out.to_vec(), a.matvec(&v).unwrap());
        let mut short = [0.0f64; 1];
        assert!(a.matvec_into(&v, &mut short).is_err());
        assert!(a.matvec_into(&[1.0], &mut out).is_err());
    }

    #[test]
    fn copy_from_and_transpose_into() {
        let a = sample();
        let mut dst = Matrix::zeros(2, 2);
        dst.copy_from(&a).unwrap();
        assert_eq!(dst, a);
        assert!(dst.copy_from(&Matrix::zeros(3, 2)).is_err());

        let rect = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let mut t = Matrix::zeros(3, 2);
        rect.transpose_into(&mut t).unwrap();
        assert_eq!(t, rect.transpose());
        let mut wrong = Matrix::zeros(2, 3);
        assert!(rect.transpose_into(&mut wrong).is_err());
    }

    #[test]
    fn add_assign_scaled_is_axpy() {
        let mut a = sample();
        let b = Matrix::identity(2);
        a.add_assign_scaled(&b, -2.0).unwrap();
        assert_eq!(a, Matrix::from_rows(&[&[-1.0, 2.0], &[3.0, 2.0]]).unwrap());
        assert!(a.add_assign_scaled(&Matrix::zeros(3, 3), 1.0).is_err());

        let mut y = vec![1.0, 2.0];
        axpy(&mut y, 0.5, &[2.0, 4.0]);
        assert_eq!(y, vec![2.0, 4.0]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let v = vec![1.0, -1.0];
        let prod = a.matvec(&v).unwrap();
        assert_eq!(prod, vec![-1.0, -1.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = sample();
        let b = Matrix::identity(2);
        let sum = a.add_matrix(&b).unwrap();
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = sum.sub_matrix(&b).unwrap();
        assert!(diff.approx_eq(&a, 1e-12));
        assert_eq!(a.scale(2.0)[(1, 1)], 8.0);
        let mut scaled = a.clone();
        scaled.scale_assign(2.0);
        assert_eq!(scaled, a.scale(2.0));
        assert!(a.add_matrix(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn operator_impls() {
        let a = sample();
        let b = Matrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        assert_eq!((&a - &b)[(0, 0)], 0.0);
        assert_eq!((&a * &b), a);
        assert_eq!((&a * 2.0)[(0, 1)], 4.0);
        assert_eq!((-&a)[(1, 0)], -3.0);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c[(1, 1)], 5.0);
        c -= &b;
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.inf_norm(), 4.0);
        assert_eq!(a.max_abs(), 4.0);
        assert!((vec_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn block_extraction_and_insertion() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        let b = a.block(1, 1, 2, 2).unwrap();
        assert_eq!(b, Matrix::from_rows(&[&[5.0, 6.0], &[8.0, 9.0]]).unwrap());
        assert!(a.block(2, 2, 2, 2).is_err());
        assert!(a.block(0, 0, 0, 1).is_err());

        let mut c = Matrix::zeros(3, 3);
        c.set_block(1, 1, &Matrix::identity(2)).unwrap();
        assert_eq!(c[(2, 2)], 1.0);
        assert!(c.set_block(2, 2, &Matrix::identity(2)).is_err());
    }

    #[test]
    fn stacking() {
        let a = sample();
        let h = a.hstack(&Matrix::identity(2)).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(1, 3)], 1.0);
        let v = a.vstack(&Matrix::identity(2)).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(3, 1)], 1.0);
        assert!(a.hstack(&Matrix::zeros(3, 1)).is_err());
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let a = sample();
        let p3 = a.powi(3).unwrap();
        let manual = a.matmul(&a).unwrap().matmul(&a).unwrap();
        assert!(p3.approx_eq(&manual, 1e-9));
        assert_eq!(a.powi(0).unwrap(), Matrix::identity(2));
        assert!(Matrix::zeros(2, 3).powi(2).is_err());
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn display_contains_entries() {
        let text = format!("{}", sample());
        assert!(text.contains("1.00000"));
        assert!(text.contains("4.00000"));
    }

    #[test]
    fn accessors() {
        let a = sample();
        assert_eq!(a.get(0, 1), Some(2.0));
        assert_eq!(a.get(2, 0), None);
        assert_eq!(a.row(1), vec![3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
        assert!(a.is_finite());
        assert!(a.is_square());
        assert!(!Matrix::zeros(1, 2).is_square());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = sample();
        let _ = a[(2, 0)];
    }
}
