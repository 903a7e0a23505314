//! Discrete-time Lyapunov equation solver.
//!
//! Used to certify stability of the designed closed loops and to compute
//! quadratic performance bounds for the switched system analysis.

use crate::error::{LinalgError, Result};
use crate::lu::Lu;
use crate::matrix::Matrix;

/// Solves the discrete-time Lyapunov equation
/// `AᵀPA − P + Q = 0` for `P`.
///
/// The equation is vectorised via the Kronecker identity
/// `(Aᵀ ⊗ Aᵀ − I) vec(P) = −vec(Q)` and solved with a dense LU
/// factorisation; for the ≤ 10-state systems in this repository the `n² × n²`
/// system is tiny.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] / [`LinalgError::ShapeMismatch`] on malformed
///   inputs.
/// * [`LinalgError::Singular`] if `A` has an eigenvalue pair with
///   `λᵢ·λⱼ = 1` (the equation then has no unique solution — in particular
///   when `A` is not Schur stable and `Q` ≻ 0 there is no positive-definite
///   solution).
///
/// # Example
///
/// ```
/// use cps_linalg::{solve_discrete_lyapunov, Matrix};
///
/// let a = Matrix::from_rows(&[&[0.5, 0.1], &[0.0, 0.8]])?;
/// let q = Matrix::identity(2);
/// let p = solve_discrete_lyapunov(&a, &q)?;
/// // Residual AᵀPA − P + Q must vanish.
/// let residual = a.transpose().matmul(&p)?.matmul(&a)?.sub_matrix(&p)?.add_matrix(&q)?;
/// assert!(residual.max_abs() < 1e-10);
/// # Ok::<(), cps_linalg::LinalgError>(())
/// ```
pub fn solve_discrete_lyapunov(a: &Matrix, q: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape(), op: "discrete lyapunov" });
    }
    if q.shape() != a.shape() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: q.shape(),
            op: "discrete lyapunov",
        });
    }
    let n = a.rows();
    let at = a.transpose();
    // Build M = (Aᵀ ⊗ Aᵀ) − I, acting on vec(P) with column-major vec
    // convention vec(P)[i + j*n] = P[i][j].
    let dim = n * n;
    let mut m = Matrix::zeros(dim, dim);
    for i in 0..n {
        for j in 0..n {
            let row = i + j * n;
            for k in 0..n {
                for l in 0..n {
                    let col = k + l * n;
                    // (Aᵀ P A)[i][j] = Σ_{k,l} Aᵀ[i][k] P[k][l] A[l][j]
                    //               = Σ_{k,l} A[k][i] P[k][l] A[l][j]
                    m[(row, col)] += at[(i, k)] * a[(l, j)];
                }
            }
            m[(row, row)] -= 1.0;
        }
    }
    // Right-hand side: −vec(Q).
    let mut rhs = vec![0.0; dim];
    for i in 0..n {
        for j in 0..n {
            rhs[i + j * n] = -q[(i, j)];
        }
    }
    let sol = Lu::decompose(&m)?.solve(&rhs)?;
    let mut p = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            p[(i, j)] = sol[i + j * n];
        }
    }
    // Symmetrise against round-off: the exact solution is symmetric whenever
    // Q is symmetric.
    let p_sym = p.add_matrix(&p.transpose())?.scale(0.5);
    Ok(if q.is_symmetric(1e-12) { p_sym } else { p })
}

/// Checks Schur stability of `A` through the Lyapunov criterion: `A` is
/// stable iff the Lyapunov equation with `Q = I` has a positive-definite
/// solution.
///
/// This provides an independent cross-check of the eigenvalue-based
/// [`crate::eig::is_schur_stable`] and is used in tests.
///
/// # Errors
///
/// Propagates solver errors, except singularity which is mapped to
/// `Ok(false)` (an eigenvalue product on the unit circle is not stable).
pub fn is_schur_stable_lyapunov(a: &Matrix) -> Result<bool> {
    let q = Matrix::identity(a.rows());
    match solve_discrete_lyapunov(a, &q) {
        Ok(p) => Ok(is_positive_definite(&p)),
        Err(LinalgError::Singular { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Returns `true` if the symmetric matrix `p` is positive definite, tested
/// by attempting a [`cholesky_in_place`] factorisation of a flat copy.
pub fn is_positive_definite(p: &Matrix) -> bool {
    p.is_square() && cholesky_in_place(&mut p.as_slice().to_vec(), p.rows())
}

/// Cholesky factorisation `A = L·Lᵀ` of the symmetric `n × n` matrix stored
/// row-major in `a`, in place: only the lower triangle is read, and it is
/// overwritten with `L` (the strict upper triangle is left untouched).
///
/// Returns `false` as soon as a pivot is not positive (or is NaN), i.e. the
/// matrix is not positive definite; `a` is then partly overwritten. This is
/// the textbook row-by-row algorithm, so Higham's backward-error result
/// holds for it (*Accuracy and Stability of Numerical Algorithms*, Thm.
/// 10.3): when it succeeds, `L·Lᵀ = A + ΔA` with
/// `‖ΔA‖₂ ≤ γ₍ₙ₊₁₎/(1 − γ₍ₙ₊₁₎)·trace(A)`, `γₖ = k·u/(1 − k·u)`. Callers
/// that need a rigorous positive-definiteness proof factor `A − s·I` with a
/// shift `s` above that bound.
///
/// Allocation-free; `a.len()` must be `n * n` (debug-asserted).
pub fn cholesky_in_place(a: &mut [f64], n: usize) -> bool {
    debug_assert_eq!(a.len(), n * n, "cholesky_in_place: matrix length");
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if !(sum > 0.0) {
                    return false;
                }
                a[i * n + i] = sum.sqrt();
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::is_schur_stable;

    #[test]
    fn lyapunov_residual_vanishes() {
        let a = Matrix::from_rows(&[&[0.9, 0.2, 0.0], &[-0.1, 0.7, 0.1], &[0.0, 0.0, 0.5]]).unwrap();
        let q = Matrix::identity(3);
        let p = solve_discrete_lyapunov(&a, &q).unwrap();
        let residual = a
            .transpose()
            .matmul(&p)
            .unwrap()
            .matmul(&a)
            .unwrap()
            .sub_matrix(&p)
            .unwrap()
            .add_matrix(&q)
            .unwrap();
        assert!(residual.max_abs() < 1e-9);
        assert!(p.is_symmetric(1e-9));
        assert!(is_positive_definite(&p));
    }

    #[test]
    fn stable_matrix_gives_positive_definite_solution() {
        let a = Matrix::from_rows(&[&[0.3, -0.4], &[0.4, 0.3]]).unwrap();
        assert!(is_schur_stable(&a).unwrap());
        assert!(is_schur_stable_lyapunov(&a).unwrap());
    }

    #[test]
    fn unstable_matrix_fails_lyapunov_test() {
        let a = Matrix::from_rows(&[&[1.1, 0.0], &[0.0, 0.2]]).unwrap();
        assert!(!is_schur_stable(&a).unwrap());
        assert!(!is_schur_stable_lyapunov(&a).unwrap());
    }

    #[test]
    fn shape_validation() {
        let a = Matrix::identity(2).scale(0.5);
        assert!(solve_discrete_lyapunov(&Matrix::zeros(2, 3), &Matrix::identity(2)).is_err());
        assert!(solve_discrete_lyapunov(&a, &Matrix::identity(3)).is_err());
    }

    #[test]
    fn positive_definite_detection() {
        assert!(is_positive_definite(&Matrix::identity(3)));
        let indefinite = Matrix::diagonal(&[1.0, -1.0]).unwrap();
        assert!(!is_positive_definite(&indefinite));
        assert!(!is_positive_definite(&Matrix::zeros(2, 3)));
        let semidefinite = Matrix::diagonal(&[1.0, 0.0]).unwrap();
        assert!(!is_positive_definite(&semidefinite));
        assert!(!is_positive_definite(&Matrix::diagonal(&[1.0, f64::NAN]).unwrap()));
    }

    #[test]
    fn cholesky_in_place_reconstructs_the_matrix() {
        let a = [4.0, 2.0, -2.0, 2.0, 10.0, 1.0, -2.0, 1.0, 6.0];
        let mut l = a;
        assert!(cholesky_in_place(&mut l, 3));
        for i in 0..3 {
            for j in 0..=i {
                let product: f64 = (0..=j).map(|k| l[i * 3 + k] * l[j * 3 + k]).sum();
                assert!((product - a[i * 3 + j]).abs() < 1e-12, "({i}, {j})");
            }
        }
        // The strict upper triangle is not touched.
        assert_eq!([l[1], l[2], l[5]], [a[1], a[2], a[5]]);
        let mut indefinite = [1.0, 2.0, 2.0, 1.0];
        assert!(!cholesky_in_place(&mut indefinite, 2));
        assert!(cholesky_in_place(&mut [], 0));
    }
}
