//! Truncated Neumann-series polynomial preconditioner.
//!
//! `M⁻¹ ≈ Σ_{k=0}^{degree} (I − D⁻¹A)ᵏ D⁻¹` — a matrix-polynomial
//! approximate inverse built only from Jacobi sweeps and SpMVs. Unlike
//! ILU's triangular solves (sequential by row), every operation here is
//! fine-grain parallel, which makes polynomial preconditioning a natural
//! fit for the paper's one-block-per-system kernels. Converges for the
//! XGC matrices because `ρ(I − D⁻¹A) < 1` (they are close to identity
//! after Jacobi scaling — Figure 2).
//!
//! Note the structural difference from the other preconditioners: the
//! apply needs the *matrix*, so the per-system state holds a reference
//! context built at `generate` time (the inverted diagonal) and the
//! SpMVs are replayed against `A` inside `apply` via a stored closure
//! over the matrix values — here realized by caching the system's rows
//! in CSR-like arrays.

use batsolv_formats::BatchMatrix;
use batsolv_types::Scalar;

use crate::precond::Preconditioner;

/// The polynomial (Neumann) preconditioner of a given degree.
///
/// Degree 0 is exactly scalar Jacobi; each extra degree adds one SpMV
/// per application.
#[derive(Clone, Copy, Debug)]
pub struct NeumannPolynomial {
    /// Polynomial degree (number of correction terms beyond Jacobi).
    pub degree: usize,
}

impl NeumannPolynomial {
    /// A polynomial preconditioner of the given degree.
    pub fn new(degree: usize) -> Self {
        NeumannPolynomial { degree }
    }
}

/// Per-system state: the system's rows in CSR-like arrays (so `apply`
/// can run SpMVs without holding a borrow of the batch matrix) plus the
/// inverted diagonal.
pub struct NeumannState<T> {
    n: usize,
    row_ptrs: Vec<u32>,
    col_idxs: Vec<u32>,
    values: Vec<T>,
    inv_diag: Vec<T>,
    degree: usize,
}

impl<T: Scalar> NeumannState<T> {
    /// `y = A x` against the cached rows.
    #[inline(always)]
    fn spmv(&self, x: &[T], y: &mut [T]) {
        for r in 0..self.n {
            let (b, e) = (self.row_ptrs[r] as usize, self.row_ptrs[r + 1] as usize);
            let mut acc = T::ZERO;
            for k in b..e {
                acc = self.values[k].mul_add(x[self.col_idxs[k] as usize], acc);
            }
            y[r] = acc;
        }
    }
}

impl<T: Scalar> Preconditioner<T> for NeumannPolynomial {
    type State = NeumannState<T>;

    fn generate<M: BatchMatrix<T> + ?Sized>(
        &self,
        a: &M,
        i: usize,
    ) -> batsolv_types::Result<Self::State> {
        let n = a.dims().num_rows;
        // Cache the system's rows. `entry` is O(n²) for dense-ish
        // formats but cheap for our stencils; production code would use
        // format-specific extraction — acceptable for a preconditioner
        // generated once per solve.
        let mut row_ptrs = Vec::with_capacity(n + 1);
        let mut col_idxs = Vec::new();
        let mut values = Vec::new();
        row_ptrs.push(0u32);
        for r in 0..n {
            for c in 0..n {
                let v = a.entry(i, r, c);
                if v != T::ZERO {
                    col_idxs.push(c as u32);
                    values.push(v);
                }
            }
            row_ptrs.push(col_idxs.len() as u32);
        }
        let mut inv_diag = vec![T::ZERO; n];
        a.extract_diagonal(i, &mut inv_diag);
        for d in inv_diag.iter_mut() {
            *d = if *d == T::ZERO { T::ONE } else { T::ONE / *d };
        }
        Ok(NeumannState {
            n,
            row_ptrs,
            col_idxs,
            values,
            inv_diag,
            degree: self.degree,
        })
    }

    #[inline(always)]
    fn apply(&self, state: &NeumannState<T>, input: &[T], output: &mut [T]) {
        let n = state.n;
        // z_0 = D⁻¹ r; z_{k+1} = z_k + D⁻¹ (r − A z_k); output = z_degree.
        for k in 0..n {
            output[k] = state.inv_diag[k] * input[k];
        }
        if state.degree == 0 {
            return;
        }
        let mut az = vec![T::ZERO; n];
        for _ in 0..state.degree {
            state.spmv(output, &mut az);
            for k in 0..n {
                output[k] += state.inv_diag[k] * (input[k] - az[k]);
            }
        }
    }

    fn name(&self) -> &'static str {
        "neumann-polynomial"
    }

    fn apply_flops(&self, n: usize) -> u64 {
        // Jacobi scale + degree × (SpMV ~18n for the stencil + 3n update).
        n as u64 + self.degree as u64 * (21 * n as u64)
    }

    fn generate_flops(&self, n: usize, _nnz: usize) -> u64 {
        n as u64
    }

    fn state_bytes(&self, n: usize) -> usize {
        // The inverted diagonal; the cached rows alias the matrix values
        // conceptually (a real GPU kernel would read A directly).
        n * T::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::BatchBicgstab;
    use crate::precond::Jacobi;
    use crate::stop::AbsResidual;
    use batsolv_formats::{BatchCsr, BatchVectors, SparsityPattern};
    use batsolv_gpusim::DeviceSpec;
    use std::sync::Arc;

    fn batch() -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(9, 8, true));
        let mut m = BatchCsr::zeros(2, p).unwrap();
        for i in 0..2 {
            m.fill_system(i, |r, c| if r == c { 9.0 + 0.4 * i as f64 } else { -0.85 });
        }
        m
    }

    #[test]
    fn degree_zero_equals_jacobi() {
        let m = batch();
        let poly = NeumannPolynomial::new(0);
        let st_p = Preconditioner::<f64>::generate(&poly, &m, 0).unwrap();
        let st_j = Preconditioner::<f64>::generate(&Jacobi, &m, 0).unwrap();
        let input: Vec<f64> = (0..72).map(|k| (k as f64 * 0.3).sin()).collect();
        let mut out_p = vec![0.0; 72];
        let mut out_j = vec![0.0; 72];
        poly.apply(&st_p, &input, &mut out_p);
        Jacobi.apply(&st_j, &input, &mut out_j);
        for (a, b) in out_p.iter().zip(out_j.iter()) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn higher_degree_is_a_better_approximate_inverse() {
        // ‖x − M⁻¹ A x‖ shrinks with the degree.
        let m = batch();
        let n = 72;
        let x: Vec<f64> = (0..n).map(|k| 1.0 + (k % 5) as f64 * 0.1).collect();
        let mut ax = vec![0.0; n];
        m.spmv_system(0, &x, &mut ax);
        let err_at = |deg: usize| -> f64 {
            let poly = NeumannPolynomial::new(deg);
            let st = Preconditioner::<f64>::generate(&poly, &m, 0).unwrap();
            let mut out = vec![0.0; n];
            poly.apply(&st, &ax, &mut out);
            out.iter()
                .zip(x.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        let (e0, e2, e4) = (err_at(0), err_at(2), err_at(4));
        assert!(e2 < 0.5 * e0, "deg2 {e2} vs deg0 {e0}");
        assert!(e4 < 0.5 * e2, "deg4 {e4} vs deg2 {e2}");
    }

    #[test]
    fn polynomial_cuts_bicgstab_iterations() {
        let m = batch();
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::a100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let jac = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let poly = BatchBicgstab::new(NeumannPolynomial::new(3), AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(jac.all_converged() && poly.all_converged());
        assert!(
            poly.max_iterations() < jac.max_iterations(),
            "poly {} vs jacobi {}",
            poly.max_iterations(),
            jac.max_iterations()
        );
        // Same solution either way.
        assert!(m.max_residual_norm(&x2, &b).unwrap() < 1e-8);
    }
}
