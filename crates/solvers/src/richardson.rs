//! Batched (preconditioned, relaxed) Richardson iteration.
//!
//! The simplest preconditionable fixed-point solver:
//! `x ← x + ω M⁻¹ (b − A x)`. Cheap per iteration but slow to converge —
//! included as the low end of the solver-choice ablation.

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
use crate::precond::Preconditioner;
use crate::stop::StopCriterion;
use crate::workspace::{WorkspacePlan, RICHARDSON_VECTORS};

/// Reduction barriers are priced separately via [`SyncProfile`].
const SETUP_STAGES: u64 = 2;
const ITER_STAGES: u64 = 4;
/// Richardson: setup ‖b‖; per iteration one residual norm.
const SYNC: SyncProfile = SyncProfile {
    setup_syncs: 1,
    setup_reductions: 1,
    iter_syncs: 1,
    iter_reductions: 1,
    iter_hidden_reductions: 0,
};

/// The batched Richardson solver.
#[derive(Clone, Debug)]
pub struct BatchRichardson<T, P, S> {
    /// Preconditioner.
    pub precond: P,
    /// Stopping criterion.
    pub stop: S,
    /// Relaxation factor ω.
    pub omega: T,
    /// Iteration cap.
    pub max_iters: usize,
    _marker: PhantomData<T>,
}

impl<T, P, S> BatchRichardson<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    /// Solver with relaxation `omega` and a 1000-iteration cap.
    pub fn new(precond: P, stop: S, omega: T) -> Self {
        BatchRichardson {
            precond,
            stop,
            omega,
            max_iters: 1000,
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
        let dims = a.dims();
        dims.ensure_same(&b.dims(), "richardson b")?;
        dims.ensure_same(&x.dims(), "richardson x")?;
        let n = dims.num_rows;
        let plan = WorkspacePlan::plan::<T>(device.shared_budget_bytes(), n, &RICHARDSON_VECTORS);

        let (precond, stop, omega, max_iters) =
            (&self.precond, &self.stop, self.omega, self.max_iters);
        let chunks: Vec<&mut [T]> = x.systems_mut().collect();
        let results: Vec<SystemResult> = run_batch_map_mut(
            chunks,
            #[inline(always)]
            |i, xi| {
                let x0 = xi.to_vec();
                let r = richardson_block(a, i, b.system(i), xi, precond, stop, omega, max_iters);
                sanitize_block_result(&x0, xi, r)
            },
        );

        let (setup, per_iter, ro_req) = self.cost_decomposition(a, device, &plan);
        // One preconditioner apply per iteration (the M⁻¹r correction).
        let p_syncs = self.precond.apply_syncs(n);
        let p_stages = self.precond.apply_stages(n).saturating_sub(1);
        let costs = StageCosts {
            setup,
            per_iter,
            setup_stages: SETUP_STAGES,
            iter_stages: ITER_STAGES + p_stages,
            ro_req_per_iter: ro_req,
            sync: SYNC.with_precond_applies(1, p_syncs),
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
            solver: "richardson",
            format: a.format_name(),
            device: device.name,
            syncs_per_iteration: SYNC.syncs_per_iteration(),
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
        setup.flops += self.precond.generate_flops(n, a.stored_per_system());
        setup += bc::nrm2_counts::<T>(n, MemSpace::Global, w);

        let mut it = OpCounts::ZERO;
        it += placed_spmv_counts(a, w, sp("x"), sp("r"));
        it += bc::axpy_counts::<T>(n, MemSpace::Global, sp("r"), w); // b - Ax
        it += bc::nrm2_counts::<T>(n, sp("r"), w);
        it += bc::elementwise_counts::<T>(n, sp("r"), MemSpace::Global, sp("z"), w);
        it.flops += self.precond.apply_flops(n);
        it += bc::axpy_counts::<T>(n, sp("z"), sp("x"), w);

        let ro = a.value_bytes_per_system() as u64 + a.shared_index_bytes() as u64;
        (setup, it, ro)
    }
}

/// Per-block Richardson kernel.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn richardson_block<T, M, P, S>(
    a: &M,
    i: usize,
    b: &[T],
    x: &mut [T],
    precond: &P,
    stop: &S,
    omega: T,
    max_iters: usize,
) -> SystemResult
where
    T: Scalar,
    M: BatchMatrix<T> + ?Sized,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    let n = b.len();
    let pstate = match precond.generate(a, i) {
        Ok(s) => s,
        Err(_) => {
            return SystemResult {
                iterations: 0,
                residual: f64::INFINITY,
                converged: false,
                breakdown: Some("preconditioner"),
            }
        }
    };
    let mut r = vec![T::ZERO; n];
    let mut z = vec![T::ZERO; n];
    let bnorm = blas::nrm2(b);
    let mut res0 = T::ZERO;
    let mut res = T::ZERO;
    for iter in 0..max_iters as u32 {
        a.spmv_system(i, x, &mut r);
        blas::sub_from(b, &mut r);
        res = blas::nrm2(&r);
        if iter == 0 {
            res0 = res;
        }
        if !res.is_finite() {
            return SystemResult {
                iterations: iter,
                residual: res.to_f64(),
                converged: false,
                breakdown: Some("divergence"),
            };
        }
        if stop.is_converged(res, res0, bnorm) {
            return SystemResult {
                iterations: iter,
                residual: res.to_f64(),
                converged: true,
                breakdown: None,
            };
        }
        precond.apply(&pstate, &r, &mut z);
        blas::axpy(omega, &z, x);
    }
    SystemResult {
        iterations: max_iters as u32,
        residual: res.to_f64(),
        converged: stop.is_converged(res, res0, bnorm),
        breakdown: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::Jacobi;
    use crate::stop::AbsResidual;
    use batsolv_formats::{BatchCsr, SparsityPattern};
    use std::sync::Arc;

    fn dominant_batch(ns: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(6, 6, true));
        let mut m = BatchCsr::zeros(ns, p).unwrap();
        for i in 0..ns {
            m.fill_system(i, |r, c| if r == c { 12.0 + i as f64 } else { -1.0 });
        }
        m
    }

    #[test]
    fn richardson_converges_on_dominant_systems() {
        let m = dominant_batch(2);
        let xs = BatchVectors::from_fn(m.dims(), |_, r| (r as f64 * 0.2).sin());
        let mut b = BatchVectors::zeros(m.dims());
        m.spmv(&xs, &mut b).unwrap();
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchRichardson::new(Jacobi, AbsResidual::new(1e-10), 1.0)
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert!(m.max_residual_norm(&x, &b).unwrap() < 1e-8);
    }

    #[test]
    fn richardson_needs_more_iterations_than_bicgstab() {
        let m = dominant_batch(1);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let rich = BatchRichardson::new(Jacobi, AbsResidual::new(1e-10), 1.0)
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let bicg = crate::bicgstab::BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(rich.max_iterations() > bicg.max_iterations());
    }

    #[test]
    fn under_relaxation_slows_convergence() {
        let m = dominant_batch(1);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let full = BatchRichardson::new(Jacobi, AbsResidual::new(1e-10), 1.0)
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let half = BatchRichardson::new(Jacobi, AbsResidual::new(1e-10), 0.5)
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(half.max_iterations() > full.max_iterations());
    }

    #[test]
    fn divergent_spectrum_reported_as_unconverged() {
        // Not diagonally dominant: Jacobi-Richardson diverges; the solver
        // must report that rather than pretend.
        let p = Arc::new(SparsityPattern::stencil_2d(4, 4, true));
        let mut m = BatchCsr::<f64>::zeros(1, p).unwrap();
        m.fill_system(0, |r, c| if r == c { 1.0 } else { -2.0 });
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchRichardson::new(Jacobi, AbsResidual::new(1e-10), 1.0)
            .with_max_iters(50)
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(!rep.all_converged());
    }
}
