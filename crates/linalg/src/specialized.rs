//! Const-generic specialisations of the dense kernels.
//!
//! The dynamic kernels in [`crate::Matrix`] ([`Matrix::matvec_kernel`],
//! [`Matrix::matmul_kernel`]) serve every shape; this module adds square
//! kernels for the small state dimensions the simulation and
//! characterisation engines actually have. [`matvec_kernel_n`] and
//! [`matmul_kernel_n`] take the dimension as a compile-time `N`, so the
//! compiler fully unrolls the loops and keeps the accumulators in
//! registers. Callers pick `N` once per kernel or run (`cps-control`'s
//! `StepKernel` and its dwell/wait settle engine) and fall back to the
//! dynamic loop above their largest arm.
//!
//! # Bit-identity
//!
//! Every kernel here accumulates each output element with a single running
//! sum in ascending-`k` order starting from `0.0` — exactly the order of
//! [`Matrix::matvec_kernel`] and [`Matrix::matmul_kernel`] — so the
//! specialisations can never change a result.
//!
//! [`Matrix::matvec_kernel`]: crate::Matrix::matvec_kernel
//! [`Matrix::matmul_kernel`]: crate::Matrix::matmul_kernel

/// Unrolled `out = a * x` for a compile-time square dimension `N`.
///
/// `a` is an `N×N` row-major slice. Bit-identical to
/// [`crate::Matrix::matvec_kernel`] on the same data: one running
/// accumulator per output element, ascending-`k` additions from `0.0`.
///
/// Lengths are only `debug_assert!`ed — validate once before entering a hot
/// loop, exactly like the dynamic kernel tier.
#[inline]
pub fn matvec_kernel_n<const N: usize>(a: &[f64], x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), N * N, "matvec_kernel_n: matrix length");
    debug_assert_eq!(x.len(), N, "matvec_kernel_n: input length");
    debug_assert_eq!(out.len(), N, "matvec_kernel_n: output length");
    for (row, slot) in a.chunks_exact(N).zip(out.iter_mut()) {
        let mut acc = 0.0;
        for (a, x) in row.iter().zip(x) {
            acc += a * x;
        }
        *slot = acc;
    }
}

/// Unrolled `out = a * b` for compile-time square `N×N` operands.
///
/// All three slices are `N×N` row-major. Accumulation order matches
/// [`crate::Matrix::matmul_kernel`] element for element (zero-fill, then
/// ascending-`k` rank-1 updates), so results are bit-identical to the
/// dynamic kernel.
#[inline]
pub fn matmul_kernel_n<const N: usize>(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), N * N, "matmul_kernel_n: lhs length");
    debug_assert_eq!(b.len(), N * N, "matmul_kernel_n: rhs length");
    debug_assert_eq!(out.len(), N * N, "matmul_kernel_n: output length");
    for (a_row, out_row) in a.chunks_exact(N).zip(out.chunks_exact_mut(N)) {
        out_row.fill(0.0);
        for (aik, b_row) in a_row.iter().zip(b.chunks_exact(N)) {
            for (o, b) in out_row.iter_mut().zip(b_row) {
                *o += aik * b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Deterministic non-trivial test values (no external RNG in unit tests).
    fn lcg_values(seed: u64, count: usize) -> Vec<f64> {
        let mut state = seed.max(1);
        (0..count)
            .map(|_| {
                state =
                    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Map to [-1, 1) with enough entropy that reassociation
                // would be visible in the low mantissa bits.
                (state >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    fn reference_matvec(dim: usize, a: &[f64], x: &[f64]) -> Vec<f64> {
        let matrix = Matrix::from_vec(dim, dim, a.to_vec()).unwrap();
        let mut out = vec![0.0; dim];
        matrix.matvec_kernel(x, &mut out);
        out
    }

    #[test]
    fn const_generic_matvec_is_bit_identical_to_dynamic() {
        fn check<const N: usize>() {
            let a = lcg_values(N as u64, N * N);
            let x = lcg_values(N as u64 + 100, N);
            let mut out = vec![0.0; N];
            matvec_kernel_n::<N>(&a, &x, &mut out);
            assert_eq!(out, reference_matvec(N, &a, &x), "N = {N}");
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
        check::<5>();
        check::<6>();
    }

    #[test]
    fn const_generic_matmul_is_bit_identical_to_dynamic() {
        fn check<const N: usize>() {
            let a = lcg_values(N as u64 + 1, N * N);
            let b = lcg_values(N as u64 + 201, N * N);
            let mut out = vec![0.0; N * N];
            matmul_kernel_n::<N>(&a, &b, &mut out);
            let lhs = Matrix::from_vec(N, N, a).unwrap();
            let rhs = Matrix::from_vec(N, N, b).unwrap();
            let mut reference = Matrix::zeros(N, N);
            lhs.matmul_kernel(&rhs, &mut reference);
            assert_eq!(out.as_slice(), reference.as_slice(), "N = {N}");
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
        check::<5>();
        check::<6>();
    }
}
