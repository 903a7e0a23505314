//! # cps-linalg
//!
//! Dense small-matrix linear algebra substrate for the DATE 2019 reproduction
//! *Exploiting System Dynamics for Resource-Efficient Automotive CPS Design*.
//!
//! Automotive control loops involve plants with a handful of states, so this
//! crate favours clarity, exhaustive validation and predictable numerics over
//! raw throughput. It provides exactly the operations the rest of the
//! workspace needs:
//!
//! * [`Matrix`] — dense row-major matrices with shape-checked arithmetic,
//!   plus a two-tier in-place API for hot paths: validated `matvec_into` /
//!   `matmul_into` / `add_assign_scaled` entry points over debug-asserted
//!   `matvec_kernel` / `matmul_kernel` / [`axpy`] inner loops that simulation
//!   kernels call on pre-allocated workspaces (validate once, then
//!   allocation-free).
//! * [`matvec_kernel_n`] / [`matmul_kernel_n`] — const-generic unrolled
//!   twins of the dynamic kernels for the small state dimensions the case
//!   study actually has (callers dispatch on the order once per kernel or
//!   run), bit-identical to the dynamic tier by construction.
//! * [`Lu`] / [`solve`] / [`inverse`] / [`determinant`] — LU factorisation
//!   with partial pivoting.
//! * [`Qr`] / [`polyfit`] — Householder QR and least-squares fitting.
//! * [`eigenvalues`] / [`spectral_radius`] / [`is_schur_stable`] — spectra of
//!   small real matrices via Hessenberg reduction + shifted QR.
//! * [`expm`] / [`discretize_zoh`] / [`input_integral`] — matrix exponential
//!   and the zero-order-hold integrals behind the paper's delayed-input plant
//!   model (Eq. (1)).
//! * [`solve_discrete_lyapunov`] / [`cholesky_in_place`] — Lyapunov-based
//!   stability certificates and the one positive-definiteness test.
//! * [`solve_dare`] / [`dlqr`] — discrete Riccati equation and LQR synthesis.
//!
//! # Example
//!
//! ```
//! use cps_linalg::{dlqr, discretize_zoh, is_schur_stable, DareOptions, Matrix};
//!
//! // Continuous-time double integrator, sampled with h = 20 ms.
//! let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]])?;
//! let b = Matrix::column(&[0.0, 1.0])?;
//! let (phi, gamma) = discretize_zoh(&a, &b, 0.02)?;
//!
//! let sol = dlqr(&phi, &gamma, &Matrix::identity(2), &Matrix::from_rows(&[&[0.1]])?,
//!                DareOptions::default())?;
//! let closed_loop = phi.sub_matrix(&gamma.matmul(&sol.gain)?)?;
//! assert!(is_schur_stable(&closed_loop)?);
//! # Ok::<(), cps_linalg::LinalgError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod expm;
mod lu;
mod lyapunov;
mod matrix;
mod qr;
mod riccati;
mod specialized;

pub mod eig;

pub use eig::{eigenvalues, is_hurwitz_stable, is_schur_stable, spectral_radius, Complex};
pub use error::{LinalgError, Result};
pub use expm::{
    discretize_zoh, discretize_zoh_with, expm, expm_into, expm_with, input_integral,
    input_integral_with, ExpmWorkspace,
};
pub use lu::{determinant, inverse, solve, Lu};
pub use lyapunov::{
    cholesky_in_place, is_positive_definite, is_schur_stable_lyapunov, solve_discrete_lyapunov,
};
pub use matrix::{axpy, dot, vec_norm, Matrix};
pub use qr::{polyfit, polyval, Qr};
pub use riccati::{
    dlqr, dlqr_with, solve_dare, solve_dare_in_place, solve_dare_reference, solve_dare_with,
    DareOptions, LqrSolution, RiccatiWorkspace,
};
pub use specialized::{matmul_kernel_n, matvec_kernel_n};
