//! Mixed-precision batched iterative refinement.
//!
//! An extension beyond the paper (in the spirit of Ginkgo's
//! mixed-precision work the authors pursue elsewhere): solve the inner
//! batched systems in **single precision** — halving the matrix traffic
//! and the shared-memory workspace footprint, so more of BiCGSTAB's
//! vectors fit on-CU — and recover double-precision accuracy with an
//! outer defect-correction loop:
//!
//! ```text
//! repeat:  r = b − A x        (f64)
//!          solve A₃₂ d = r    (f32 batched BiCGSTAB, loose tolerance)
//!          x ← x + d          (f64)
//! until ‖r‖ < τ
//! ```
//!
//! The XGC matrices are well-conditioned (Figure 2), which is exactly
//! the regime where refinement converges in a few outer sweeps.

use batsolv_blas as blas;
use batsolv_formats::{BatchCsr, BatchEll, BatchMatrix, BatchVectors};
use batsolv_gpusim::{run_batch_map_mut, DeviceSpec};
use batsolv_types::{BatchDims, Result, Scalar};

use crate::bicgstab::BatchBicgstab;
use crate::common::{BatchSolveReport, SystemResult};
use crate::precond::Jacobi;
use crate::stop::RelResidual;

/// Report of one mixed-precision refinement solve.
#[derive(Clone, Debug)]
pub struct RefinementReport {
    /// Per-system outer-iteration counts and final (f64) residuals.
    pub per_system: Vec<SystemResult>,
    /// Inner (f32) solve reports, one per outer sweep.
    pub inner: Vec<BatchSolveReport>,
    /// Total simulated time (inner solves + outer residual kernels).
    pub time_s: f64,
}

impl RefinementReport {
    /// True when every system met the outer tolerance.
    pub fn all_converged(&self) -> bool {
        self.per_system.iter().all(|s| s.converged)
    }

    /// Worst final residual.
    pub fn max_residual(&self) -> f64 {
        self.per_system
            .iter()
            .map(|s| s.residual)
            .fold(0.0f64, f64::max)
    }

    /// Largest outer sweep count.
    pub fn max_outer_iterations(&self) -> u32 {
        self.per_system
            .iter()
            .map(|s| s.iterations)
            .max()
            .unwrap_or(0)
    }
}

/// Mixed-precision refinement driver: f32 batched BiCGSTAB inside, f64
/// defect correction outside.
#[derive(Clone, Debug)]
pub struct MixedPrecisionBicgstab {
    /// Outer (double-precision) absolute residual tolerance.
    pub outer_tol: f64,
    /// Inner (single-precision) **relative** residual reduction. Must be
    /// relative, not absolute: the inner right-hand side is the shrinking
    /// outer residual, and an absolute inner tolerance would be satisfied
    /// by the zero guess once the outer loop gets close — stalling the
    /// refinement. f32 reliably delivers ~1e-4 relative reduction.
    pub inner_reduction: f32,
    /// Cap on outer sweeps.
    pub max_outer: usize,
    /// Cap on inner iterations per sweep.
    pub max_inner: usize,
}

impl Default for MixedPrecisionBicgstab {
    fn default() -> Self {
        MixedPrecisionBicgstab {
            outer_tol: 1e-10,
            inner_reduction: 1e-4,
            max_outer: 12,
            max_inner: 200,
        }
    }
}

impl MixedPrecisionBicgstab {
    /// Solve `A x = b` (all f64) to `outer_tol` using f32 inner solves
    /// on the ELL format.
    pub fn solve(
        &self,
        device: &DeviceSpec,
        a: &BatchCsr<f64>,
        b: &BatchVectors<f64>,
        x: &mut BatchVectors<f64>,
    ) -> Result<RefinementReport> {
        let dims = a.dims();
        dims.ensure_same(&b.dims(), "refinement b")?;
        dims.ensure_same(&x.dims(), "refinement x")?;
        let (ns, n) = (dims.num_systems, dims.num_rows);

        // Single-precision copy of the batch, in the winning format.
        let a32: BatchCsr<f32> = a.map_values(|v| v as f32);
        let a32 = BatchEll::from_csr(&a32)?;
        let inner_solver = BatchBicgstab::new(Jacobi, RelResidual::new(self.inner_reduction))
            .with_max_iters(self.max_inner);

        let f32_dims = BatchDims::new(ns, n)?;
        let mut outer_done = vec![false; ns];
        let mut outer_iters = vec![0u32; ns];
        let mut residuals = vec![f64::INFINITY; ns];
        let mut inner_reports = Vec::new();
        let mut time_s = 0.0;

        for _sweep in 0..self.max_outer {
            // r = b − A x in f64, per system (one simulated kernel; we
            // charge it as one extra stage of the inner launch below).
            let mut r64 = BatchVectors::<f64>::zeros(dims);
            {
                let chunks: Vec<&mut [f64]> = r64.systems_mut().collect();
                let _ = run_batch_map_mut(
                    chunks,
                    #[inline(always)]
                    |i, ri| {
                        a.spmv_system(i, x.system(i), ri);
                        blas::sub_from(b.system(i), ri);
                        0u8
                    },
                );
            }
            let mut all_done = true;
            for i in 0..ns {
                residuals[i] = blas::nrm2(r64.system(i)).to_f64();
                if residuals[i] < self.outer_tol {
                    outer_done[i] = true;
                } else {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
            // Demote the residual, normalized per system so f32 keeps its
            // full relative accuracy even when ‖r‖ is tiny.
            let mut r32 = BatchVectors::<f32>::zeros(f32_dims);
            for i in 0..ns {
                let scale = if residuals[i] > 0.0 {
                    residuals[i]
                } else {
                    1.0
                };
                for (dst, src) in r32.system_mut(i).iter_mut().zip(r64.system(i)) {
                    *dst = (src / scale) as f32;
                }
            }
            let mut d32 = BatchVectors::<f32>::zeros(f32_dims);
            let report = inner_solver.solve(device, &a32, &r32, &mut d32)?;
            time_s += report.time_s();
            // Promote, rescale, and correct; track live systems' sweeps.
            for i in 0..ns {
                if outer_done[i] {
                    continue;
                }
                outer_iters[i] += 1;
                let scale = if residuals[i] > 0.0 {
                    residuals[i]
                } else {
                    1.0
                };
                let xi = x.system_mut(i);
                for (xv, dv) in xi.iter_mut().zip(d32.system(i)) {
                    *xv += *dv as f64 * scale;
                }
            }
            inner_reports.push(report);
        }

        // Final residual evaluation.
        let mut per_system = Vec::with_capacity(ns);
        let mut r = vec![0.0f64; n];
        for i in 0..ns {
            a.spmv_system(i, x.system(i), &mut r);
            blas::sub_from(b.system(i), &mut r);
            let res = blas::nrm2(&r);
            per_system.push(SystemResult {
                iterations: outer_iters[i],
                residual: res,
                converged: res < self.outer_tol,
                breakdown: None,
            });
        }
        Ok(RefinementReport {
            per_system,
            inner: inner_reports,
            time_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_formats::SparsityPattern;
    use std::sync::Arc;

    use crate::stop::AbsResidual;

    fn batch(ns: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(10, 9, true));
        let mut m = BatchCsr::zeros(ns, p).unwrap();
        for i in 0..ns {
            m.fill_system(i, |r, c| {
                if r == c {
                    9.5 + 0.2 * i as f64
                } else {
                    -0.9 - 0.05 * ((r + c) % 3) as f64
                }
            });
        }
        m
    }

    #[test]
    fn refinement_reaches_double_precision_accuracy() {
        let m = batch(3);
        let x_true =
            BatchVectors::from_fn(m.dims(), |s, r| ((s + 1) as f64) * (r as f64 * 0.2).sin());
        let mut b = BatchVectors::zeros(m.dims());
        m.spmv(&x_true, &mut b).unwrap();
        let mut x = BatchVectors::zeros(m.dims());
        let rep = MixedPrecisionBicgstab::default()
            .solve(&DeviceSpec::a100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged(), "residual {}", rep.max_residual());
        // Well below anything f32 alone could deliver.
        assert!(rep.max_residual() < 1e-10);
        // A handful of outer sweeps suffice on well-conditioned systems.
        assert!(
            rep.max_outer_iterations() <= 6,
            "{}",
            rep.max_outer_iterations()
        );
    }

    #[test]
    fn f32_alone_cannot_reach_1e10() {
        // Sanity check of the premise: whatever the f32 solver's own
        // recurrence claims, its TRUE residual stalls far above the
        // double-precision target.
        let m = batch(1);
        let a32: BatchCsr<f32> = m.map_values(|v| v as f32);
        let b32 = BatchVectors::<f32>::constant(a32.dims(), 1.0);
        let mut x32 = BatchVectors::<f32>::zeros(a32.dims());
        let _ = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10f32))
            .with_max_iters(300)
            .solve(&DeviceSpec::a100(), &a32, &b32, &mut x32)
            .unwrap();
        let true_res = a32.max_residual_norm(&x32, &b32).unwrap();
        assert!(
            true_res > 1e-8,
            "f32 true residual unexpectedly reached {true_res}"
        );
    }

    #[test]
    fn inner_solves_use_smaller_workspace() {
        let m = batch(2);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let rep = MixedPrecisionBicgstab::default()
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        // The f32 inner kernel's shared footprint is half the f64 one.
        let inner_shared = rep.inner[0].shared_per_block;
        let mut x64 = BatchVectors::zeros(m.dims());
        let rep64 = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::v100(), &m, &b, &mut x64)
            .unwrap();
        assert!(inner_shared * 2 <= rep64.shared_per_block + m.dims().num_rows * 8);
    }

    #[test]
    fn warm_started_refinement_converges_faster() {
        let m = batch(2);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let solver = MixedPrecisionBicgstab::default();
        let dev = DeviceSpec::a100();
        let mut x_cold = BatchVectors::zeros(m.dims());
        let cold = solver.solve(&dev, &m, &b, &mut x_cold).unwrap();
        // Re-solve from the converged solution: zero outer sweeps needed.
        let again = solver.solve(&dev, &m, &b, &mut x_cold).unwrap();
        assert!(again.max_outer_iterations() <= 1);
        assert!(cold.max_outer_iterations() >= 1);
    }
}
