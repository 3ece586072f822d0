//! Batched restarted GMRES(m).
//!
//! The heavyweight member of the solver-choice ablation: robust on
//! nonsymmetric systems, but each iteration orthogonalizes against the
//! whole Krylov basis — for the small XGC systems the extra dots and the
//! `(m+1) · n` basis storage (which cannot fit in shared memory) make it
//! lose to BiCGSTAB. Right-preconditioned, modified Gram–Schmidt, Givens
//! rotations on the Hessenberg matrix.

use core::marker::PhantomData;

use batsolv_blas as blas;
use batsolv_blas::counts as bc;
use batsolv_blas::counts::MemSpace;
use batsolv_formats::{BatchMatrix, BatchVectors};
use batsolv_gpusim::{run_batch_map_mut, DeviceSpec, SimKernel};
use batsolv_types::{OpCounts, Result, Scalar};

use crate::common::{
    assemble_block_stats, placed_spmv_counts, sanitize_block_result, BatchSolveReport, StageCosts,
    SyncProfile, SystemResult,
};
use crate::logger::{IterationLogger, NoopLogger};
use crate::precond::Preconditioner;
use crate::stop::StopCriterion;
use crate::workspace::{VectorClass, VectorSpec, WorkspacePlan};

/// Reduction barriers are priced separately via [`SyncProfile`].
const SETUP_STAGES: u64 = 3;

/// Plannable vectors of GMRES — the Krylov basis itself always lives in
/// global memory (it is `(m+1) × n`, far beyond any shared budget).
const GMRES_VECTORS: [VectorSpec; 3] = [
    VectorSpec::new("z", VectorClass::SpMV),
    VectorSpec::new("w", VectorClass::SpMV),
    VectorSpec::new("r", VectorClass::Other),
];

/// The batched GMRES(m) solver.
#[derive(Clone, Debug)]
pub struct BatchGmres<T, P, S> {
    /// Preconditioner (applied on the right).
    pub precond: P,
    /// Stopping criterion.
    pub stop: S,
    /// Restart length m.
    pub restart: usize,
    /// Total inner-iteration cap.
    pub max_iters: usize,
    _marker: PhantomData<T>,
}

impl<T, P, S> BatchGmres<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    /// GMRES with restart length `restart` and a 500-iteration cap.
    pub fn new(precond: P, stop: S, restart: usize) -> Self {
        assert!(restart >= 1);
        BatchGmres {
            precond,
            stop,
            restart,
            max_iters: 500,
            _marker: PhantomData,
        }
    }

    /// Override the iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Solve the batch with `x` as initial guess; price on `device`.
    pub fn solve<M: BatchMatrix<T>>(
        &self,
        device: &DeviceSpec,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<BatchSolveReport> {
        self.solve_logged(device, a, b, x, |_| NoopLogger)
    }

    /// [`Self::solve`] with a per-system logger factory. The logger sees
    /// the cheap Givens residual estimate during inner iterations and the
    /// recomputed true residual at every restart boundary — the boundary
    /// re-logs under the same iteration number, which is why histories
    /// record `(iteration, residual)` pairs.
    pub fn solve_logged<M, L, F>(
        &self,
        device: &DeviceSpec,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
        make_logger: F,
    ) -> Result<BatchSolveReport>
    where
        M: BatchMatrix<T>,
        L: IterationLogger<T>,
        F: Fn(usize) -> L + Sync + Send,
    {
        let dims = a.dims();
        dims.ensure_same(&b.dims(), "gmres b")?;
        dims.ensure_same(&x.dims(), "gmres x")?;
        let n = dims.num_rows;
        let plan = WorkspacePlan::plan::<T>(device.shared_budget_bytes(), n, &GMRES_VECTORS);

        let (precond, stop, m, max_iters) =
            (&self.precond, &self.stop, self.restart, self.max_iters);
        let chunks: Vec<&mut [T]> = x.systems_mut().collect();
        let results: Vec<SystemResult> = run_batch_map_mut(
            chunks,
            #[inline(always)]
            |i, xi| {
                let mut logger = make_logger(i);
                let x0 = xi.to_vec();
                let r = gmres_block(
                    a,
                    i,
                    b.system(i),
                    xi,
                    precond,
                    stop,
                    m,
                    max_iters,
                    &mut logger,
                );
                sanitize_block_result(&x0, xi, r)
            },
        );

        let (setup, per_iter, ro_req) = self.cost_decomposition(a, device, &plan);
        // Modified Gram–Schmidt is inherently sequential: the j-th inner
        // iteration performs ~j dependent (dot, axpy) pairs — ~(m+1)/2
        // averaged over a restart cycle. Each of those dots is also a
        // reduction barrier, plus the ‖w‖ normalization: the MGS sweep's
        // synchronization density is exactly why GMRES loses to BiCGSTAB
        // for these small systems despite needing only one SpMV.
        let depth = (self.restart as u64).div_ceil(2);
        // One preconditioner apply per inner iteration (ẑ before the
        // SpMV): a level-scheduled apply adds its per-level barriers.
        let p_syncs = self.precond.apply_syncs(n);
        let p_stages = self.precond.apply_stages(n).saturating_sub(1);
        let sync = SyncProfile {
            setup_syncs: 1,
            setup_reductions: 1,
            iter_syncs: depth + 1 + p_syncs,
            iter_reductions: depth + 1,
            iter_hidden_reductions: 0,
        };
        let costs = StageCosts {
            setup,
            per_iter,
            setup_stages: SETUP_STAGES,
            iter_stages: 4 + depth + p_stages,
            ro_req_per_iter: ro_req,
            sync,
        };
        let blocks: Vec<_> = results
            .iter()
            .map(|r| assemble_block_stats(a, &plan, r, &costs))
            .collect();
        let kernel = SimKernel::new(device, plan.shared_bytes)
            .with_reduction_width(n as u64)
            .price(&blocks);
        Ok(BatchSolveReport {
            per_system: results,
            kernel,
            plan_description: plan.describe(),
            shared_per_block: plan.shared_bytes,
            global_vector_bytes: plan.global_vector_bytes(),
            solver: "gmres",
            format: a.format_name(),
            device: device.name,
            syncs_per_iteration: sync.syncs_per_iteration(),
        })
    }

    fn cost_decomposition<M: BatchMatrix<T>>(
        &self,
        a: &M,
        device: &DeviceSpec,
        plan: &WorkspacePlan,
    ) -> (OpCounts, OpCounts, u64) {
        let n = a.dims().num_rows;
        let w = device.warp_size;
        let sp = |name: &str| plan.space_of(name);
        let mut setup = OpCounts::ZERO;
        setup += placed_spmv_counts(a, w, MemSpace::Global, sp("r"));
        setup += bc::axpy_counts::<T>(n, MemSpace::Global, sp("r"), w);
        setup.flops += self.precond.generate_flops(n, a.stored_per_system());
        setup += bc::nrm2_counts::<T>(n, sp("r"), w);
        setup += bc::copy_counts::<T>(n, sp("r"), MemSpace::Global, w); // v0 into the basis

        // Average inner iteration: one SpMV, one preconditioner apply,
        // and an MGS sweep over ~(m+1)/2 basis vectors in global memory.
        let depth = (self.restart as u64).div_ceil(2);
        let mut it = OpCounts::ZERO;
        it += bc::elementwise_counts::<T>(n, MemSpace::Global, MemSpace::Global, sp("z"), w);
        it.flops += self.precond.apply_flops(n);
        it += placed_spmv_counts(a, w, sp("z"), sp("w"));
        for _ in 0..depth {
            it += bc::dot_counts::<T>(n, sp("w"), MemSpace::Global, w);
            it += bc::axpy_counts::<T>(n, MemSpace::Global, sp("w"), w);
        }
        it += bc::nrm2_counts::<T>(n, sp("w"), w);
        it += bc::copy_counts::<T>(n, sp("w"), MemSpace::Global, w); // store v_{j+1}

        let ro = a.value_bytes_per_system() as u64 + a.shared_index_bytes() as u64;
        (setup, it, ro)
    }
}

/// Per-block right-preconditioned restarted GMRES kernel.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn gmres_block<T, M, P, S, L>(
    a: &M,
    i: usize,
    b: &[T],
    x: &mut [T],
    precond: &P,
    stop: &S,
    m: usize,
    max_iters: usize,
    logger: &mut L,
) -> SystemResult
where
    T: Scalar,
    M: BatchMatrix<T> + ?Sized,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
    L: IterationLogger<T>,
{
    let n = b.len();
    let pstate = match precond.generate(a, i) {
        Ok(s) => s,
        Err(_) => {
            logger.log_finish(0, T::ZERO, false);
            return SystemResult {
                iterations: 0,
                residual: f64::INFINITY,
                converged: false,
                breakdown: Some("preconditioner"),
            };
        }
    };
    let bnorm = blas::nrm2(b);
    let mut r = vec![T::ZERO; n];
    let mut z = vec![T::ZERO; n];
    let mut w = vec![T::ZERO; n];
    // Krylov basis, (m+1) rows of n.
    let mut basis = vec![T::ZERO; (m + 1) * n];
    // Hessenberg in column-major packed (m+1) x m.
    let mut h = vec![T::ZERO; (m + 1) * m];
    let mut g = vec![T::ZERO; m + 1];
    let mut cs = vec![T::ZERO; m];
    let mut sn = vec![T::ZERO; m];

    let mut total_iters: u32 = 0;
    let mut res0 = T::ZERO;
    let mut res;

    loop {
        // r = b - A x
        a.spmv_system(i, x, &mut r);
        blas::sub_from(b, &mut r);
        let beta = blas::nrm2(&r);
        if total_iters == 0 {
            res0 = beta;
        } else {
            // Restart boundary: the true residual, re-logged under the
            // iteration number the inner loop just finished on (the last
            // inner log was the Givens estimate for the same iteration).
            logger.log_iteration(total_iters, beta);
        }
        res = beta;
        if stop.is_converged(res, res0, bnorm) {
            logger.log_finish(total_iters, res, true);
            return SystemResult {
                iterations: total_iters,
                residual: res.to_f64(),
                converged: true,
                breakdown: None,
            };
        }
        if total_iters as usize >= max_iters {
            logger.log_finish(total_iters, res, false);
            return SystemResult {
                iterations: total_iters,
                residual: res.to_f64(),
                converged: false,
                breakdown: None,
            };
        }
        if beta == T::ZERO || !beta.is_finite() {
            logger.log_finish(total_iters, res, false);
            return SystemResult {
                iterations: total_iters,
                residual: res.to_f64(),
                converged: false,
                breakdown: Some("beta"),
            };
        }
        let inv_beta = T::ONE / beta;
        for k in 0..n {
            basis[k] = r[k] * inv_beta;
        }
        g.iter_mut().for_each(|v| *v = T::ZERO);
        g[0] = beta;

        let mut j_used = 0;
        for j in 0..m {
            // w = A M⁻¹ v_j
            precond.apply(&pstate, &basis[j * n..(j + 1) * n], &mut z);
            a.spmv_system(i, &z, &mut w);
            // Modified Gram–Schmidt.
            for k in 0..=j {
                let vk = &basis[k * n..(k + 1) * n];
                let hkj = blas::dot(&w, vk);
                h[k * m + j] = hkj;
                blas::axpy(-hkj, vk, &mut w);
            }
            let hh = blas::nrm2(&w);
            h[(j + 1) * m + j] = hh;
            total_iters += 1;
            j_used = j + 1;
            if hh != T::ZERO {
                let inv = T::ONE / hh;
                for k in 0..n {
                    basis[(j + 1) * n + k] = w[k] * inv;
                }
            }
            // Apply existing Givens rotations to column j.
            for k in 0..j {
                let t1 = cs[k] * h[k * m + j] + sn[k] * h[(k + 1) * m + j];
                let t2 = -sn[k] * h[k * m + j] + cs[k] * h[(k + 1) * m + j];
                h[k * m + j] = t1;
                h[(k + 1) * m + j] = t2;
            }
            // New rotation to zero h[j+1][j].
            let (hjj, hj1j) = (h[j * m + j], h[(j + 1) * m + j]);
            let denom = (hjj * hjj + hj1j * hj1j).sqrt();
            if denom == T::ZERO {
                break; // lucky breakdown: solution is exact in this space
            }
            cs[j] = hjj / denom;
            sn[j] = hj1j / denom;
            h[j * m + j] = denom;
            h[(j + 1) * m + j] = T::ZERO;
            let gj = g[j];
            g[j] = cs[j] * gj;
            g[j + 1] = -sn[j] * gj;
            res = g[j + 1].abs();
            logger.log_iteration(total_iters, res);
            if stop.is_converged(res, res0, bnorm)
                || total_iters as usize >= max_iters
                || hh == T::ZERO
            {
                break;
            }
        }

        // Solve the j_used × j_used triangular system H y = g.
        let mut y = vec![T::ZERO; j_used];
        for row in (0..j_used).rev() {
            let mut acc = g[row];
            for col in (row + 1)..j_used {
                acc -= h[row * m + col] * y[col];
            }
            let d = h[row * m + row];
            if d == T::ZERO {
                logger.log_finish(total_iters, res, false);
                return SystemResult {
                    iterations: total_iters,
                    residual: res.to_f64(),
                    converged: false,
                    breakdown: Some("singular H"),
                };
            }
            y[row] = acc / d;
        }
        // x += M⁻¹ (V y)   (right preconditioning)
        r.iter_mut().for_each(|v| *v = T::ZERO);
        for (jcol, &yj) in y.iter().enumerate() {
            blas::axpy(yj, &basis[jcol * n..(jcol + 1) * n], &mut r);
        }
        precond.apply(&pstate, &r, &mut z);
        for k in 0..n {
            x[k] += z[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::Jacobi;
    use crate::stop::AbsResidual;
    use batsolv_formats::{BatchCsr, SparsityPattern};
    use std::sync::Arc;

    fn nonsym_batch(ns: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(7, 7, true));
        let mut m = BatchCsr::zeros(ns, p).unwrap();
        for i in 0..ns {
            m.fill_system(i, |r, c| {
                if r == c {
                    9.0 + 0.2 * i as f64
                } else if c > r {
                    -1.4
                } else {
                    -0.4
                }
            });
        }
        m
    }

    #[test]
    fn gmres_solves_nonsymmetric_batch() {
        let m = nonsym_batch(3);
        let xs = BatchVectors::from_fn(m.dims(), |s, r| (s as f64 + 1.0) * (r as f64 * 0.4).cos());
        let mut b = BatchVectors::zeros(m.dims());
        m.spmv(&xs, &mut b).unwrap();
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchGmres::new(Jacobi, AbsResidual::new(1e-10), 30)
            .solve(&DeviceSpec::a100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged(), "{rep:?}");
        assert!(m.max_residual_norm(&x, &b).unwrap() < 1e-8);
    }

    #[test]
    fn short_restart_needs_more_iterations() {
        let m = nonsym_batch(1);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let long = BatchGmres::new(Jacobi, AbsResidual::new(1e-12), 40)
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let short = BatchGmres::new(Jacobi, AbsResidual::new(1e-12), 3)
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(long.all_converged());
        assert!(short.max_iterations() >= long.max_iterations());
    }

    #[test]
    fn already_converged_guess_takes_zero_iterations() {
        let m = nonsym_batch(1);
        let xs = BatchVectors::constant(m.dims(), 0.5);
        let mut b = BatchVectors::zeros(m.dims());
        m.spmv(&xs, &mut b).unwrap();
        let mut x = xs.clone();
        let rep = BatchGmres::new(Jacobi, AbsResidual::new(1e-10), 20)
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert_eq!(rep.max_iterations(), 0);
    }

    #[test]
    fn restart_boundary_relogs_the_true_residual() {
        use crate::logger::ConvergenceHistory;
        use std::sync::Mutex;
        let m = nonsym_batch(1);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let histories: Mutex<Vec<ConvergenceHistory<f64>>> = Mutex::new(vec![]);
        struct Collector<'a> {
            inner: ConvergenceHistory<f64>,
            sink: &'a Mutex<Vec<ConvergenceHistory<f64>>>,
        }
        impl IterationLogger<f64> for Collector<'_> {
            fn log_iteration(&mut self, it: u32, r: f64) {
                self.inner.log_iteration(it, r);
            }
            fn log_finish(&mut self, it: u32, r: f64, c: bool) {
                self.inner.log_finish(it, r, c);
                self.sink.lock().unwrap().push(self.inner.clone());
            }
        }
        // Restart length 3 forces several restart cycles.
        let rep = BatchGmres::new(Jacobi, AbsResidual::new(1e-10), 3)
            .solve_logged(&DeviceSpec::v100(), &m, &b, &mut x, |_| Collector {
                inner: ConvergenceHistory::default(),
                sink: &histories,
            })
            .unwrap();
        assert!(rep.all_converged());
        let hs = histories.into_inner().unwrap();
        assert_eq!(hs.len(), 1);
        let h = &hs[0];
        assert!(h.converged);
        assert_eq!(h.iterations, rep.max_iterations() as u32);
        // Each restart recomputes r = b - A x and logs it under the same
        // iteration number as the last inner estimate.
        assert!(h.has_restart_boundary(), "{:?}", h.residuals);
        // Iteration numbers never decrease, and duplicates only appear
        // at restart boundaries.
        assert!(h.residuals.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn iteration_cap_respected() {
        let m = nonsym_batch(1);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchGmres::new(Jacobi, AbsResidual::new(1e-30), 10)
            .with_max_iters(7)
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(!rep.all_converged());
        assert!(rep.max_iterations() <= 7);
    }
}
