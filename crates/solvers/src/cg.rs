//! Batched preconditioned conjugate gradients.
//!
//! One of the "several preconditionable iterative solvers" the paper
//! implemented before settling on BiCGSTAB. CG needs a symmetric positive
//! definite operator — the XGC collision matrices are *not* symmetric,
//! which is exactly why BiCGSTAB won (the ablation bench
//! `repro ablation-solver` demonstrates this).

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
use crate::workspace::{WorkspacePlan, CG_VECTORS};

/// Reduction barriers are priced separately via [`SyncProfile`];
/// stage counts cover only the dependent vector operations.
const SETUP_STAGES: u64 = 4;
const ITER_STAGES: u64 = 6;
/// Classical CG: setup (r,z) and ‖r‖; per iteration (p,q), ‖r‖, (r,z) —
/// 3 exposed reductions with their own barriers.
const SYNC: SyncProfile = SyncProfile {
    setup_syncs: 2,
    setup_reductions: 2,
    iter_syncs: 3,
    iter_reductions: 3,
    iter_hidden_reductions: 0,
};

/// The batched CG solver.
#[derive(Clone, Debug)]
pub struct BatchCg<T, P, S> {
    /// Preconditioner.
    pub precond: P,
    /// Stopping criterion.
    pub stop: S,
    /// Iteration cap.
    pub max_iters: usize,
    /// Fused-AXPY path: merge the `x ← x + αp` / `r ← r − αq` updates
    /// into one vector pass. Bitwise-identical numerics, one less stage
    /// per iteration.
    pub fused_axpy: bool,
    _marker: PhantomData<T>,
}

impl<T, P, S> BatchCg<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    /// Solver with a 500-iteration cap.
    pub fn new(precond: P, stop: S) -> Self {
        BatchCg {
            precond,
            stop,
            max_iters: 500,
            fused_axpy: false,
            _marker: PhantomData,
        }
    }

    /// Override the iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Enable the fused-AXPY path (merged x/r updates). Numerics are
    /// bitwise-identical; only the simulated stage pricing changes.
    pub fn with_fused_axpy(mut self, fused: bool) -> Self {
        self.fused_axpy = fused;
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
        dims.ensure_same(&b.dims(), "cg b")?;
        dims.ensure_same(&x.dims(), "cg x")?;
        let n = dims.num_rows;
        let plan = WorkspacePlan::plan::<T>(device.shared_budget_bytes(), n, &CG_VECTORS);

        let precond = &self.precond;
        let stop = &self.stop;
        let max_iters = self.max_iters;
        let chunks: Vec<&mut [T]> = x.systems_mut().collect();
        let fused = self.fused_axpy;
        let results: Vec<SystemResult> = run_batch_map_mut(
            chunks,
            #[inline(always)]
            |i, xi| {
                let x0 = xi.to_vec();
                let r = cg_block(a, i, b.system(i), xi, precond, stop, max_iters, fused);
                sanitize_block_result(&x0, xi, r)
            },
        );

        let (setup, per_iter, ro_req) = self.cost_decomposition(a, device, &plan);
        // One preconditioner apply per iteration plus one at setup: a
        // level-scheduled apply adds its per-level barriers and stages.
        let p_syncs = self.precond.apply_syncs(n);
        let p_stages = self.precond.apply_stages(n).saturating_sub(1);
        let mut sync = SYNC.with_precond_applies(1, p_syncs);
        sync.setup_syncs += p_syncs;
        let costs = StageCosts {
            setup,
            per_iter,
            setup_stages: SETUP_STAGES + p_stages,
            iter_stages: if fused { ITER_STAGES - 1 } else { ITER_STAGES } + p_stages,
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
            solver: "cg",
            format: a.format_name(),
            device: device.name,
            syncs_per_iteration: costs.sync.syncs_per_iteration(),
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
        setup += bc::elementwise_counts::<T>(n, sp("r"), MemSpace::Global, sp("z"), w);
        setup.flops += self.precond.generate_flops(n, a.stored_per_system());
        setup += bc::copy_counts::<T>(n, sp("z"), sp("p"), w);
        setup += bc::dot_counts::<T>(n, sp("r"), sp("z"), w);
        setup += bc::nrm2_counts::<T>(n, sp("r"), w);

        // One CG iteration: one SpMV, two dots, two axpys, a norm, a
        // preconditioner application, and the direction update.
        let mut it = OpCounts::ZERO;
        it += placed_spmv_counts(a, w, sp("p"), sp("q"));
        it += bc::dot_counts::<T>(n, sp("p"), sp("q"), w);
        it += bc::axpy_counts::<T>(n, sp("p"), MemSpace::Global, w); // x update
        it += bc::axpy_counts::<T>(n, sp("q"), sp("r"), w);
        it += bc::nrm2_counts::<T>(n, sp("r"), w);
        it += bc::elementwise_counts::<T>(n, sp("r"), MemSpace::Global, sp("z"), w);
        it.flops += self.precond.apply_flops(n);
        it += bc::dot_counts::<T>(n, sp("r"), sp("z"), w);
        it += bc::axpby_counts::<T>(n, sp("z"), sp("p"), w);

        // Read-only traffic: one SpMV per iteration.
        let ro = a.value_bytes_per_system() as u64 + a.shared_index_bytes() as u64;
        (setup, it, ro)
    }
}

/// Per-block preconditioned CG kernel.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn cg_block<T, M, P, S>(
    a: &M,
    i: usize,
    b: &[T],
    x: &mut [T],
    precond: &P,
    stop: &S,
    max_iters: usize,
    fused_axpy: bool,
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
    let mut p = vec![T::ZERO; n];
    let mut q = vec![T::ZERO; n];

    a.spmv_system(i, x, &mut r);
    blas::sub_from(b, &mut r);
    precond.apply(&pstate, &r, &mut z);
    blas::copy(&z, &mut p);
    let mut rz = blas::dot(&r, &z);
    let bnorm = blas::nrm2(b);
    let res0 = blas::nrm2(&r);
    let mut res = res0;

    for iter in 0..max_iters as u32 {
        if stop.is_converged(res, res0, bnorm) {
            return SystemResult {
                iterations: iter,
                residual: res.to_f64(),
                converged: true,
                breakdown: None,
            };
        }
        a.spmv_system(i, &p, &mut q);
        let pq = blas::dot(&p, &q);
        if pq == T::ZERO || !pq.is_finite() {
            return SystemResult {
                iterations: iter,
                residual: res.to_f64(),
                converged: false,
                breakdown: Some("p.q"),
            };
        }
        let alpha = rz / pq;
        // x ← x + αp ; r ← r − αq. The fused path merges both updates
        // into one vector pass — IEEE-identical per element.
        if fused_axpy {
            // mul_add mirrors blas::axpy's FMA exactly.
            for k in 0..n {
                x[k] = alpha.mul_add(p[k], x[k]);
                r[k] = (-alpha).mul_add(q[k], r[k]);
            }
        } else {
            blas::axpy(alpha, &p, x);
            blas::axpy(-alpha, &q, &mut r);
        }
        res = blas::nrm2(&r);
        if !res.is_finite() {
            return SystemResult {
                iterations: iter + 1,
                residual: res.to_f64(),
                converged: false,
                breakdown: Some("divergence"),
            };
        }
        precond.apply(&pstate, &r, &mut z);
        let rz_new = blas::dot(&r, &z);
        if rz == T::ZERO {
            return SystemResult {
                iterations: iter + 1,
                residual: res.to_f64(),
                converged: false,
                breakdown: Some("r.z"),
            };
        }
        let beta = rz_new / rz;
        rz = rz_new;
        blas::axpby(T::ONE, &z, beta, &mut p); // p ← z + β p
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

    /// Symmetric positive definite stencil batch (5-point Laplacian + shift).
    fn spd_batch(num_systems: usize, nx: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(nx, nx, false));
        let mut m = BatchCsr::zeros(num_systems, p).unwrap();
        for i in 0..num_systems {
            m.fill_system(i, |r, c| if r == c { 4.5 + 0.1 * i as f64 } else { -1.0 });
        }
        m
    }

    #[test]
    fn cg_solves_spd_batch() {
        let m = spd_batch(3, 8);
        let xs = BatchVectors::from_fn(m.dims(), |s, r| ((s * 13 + r) % 7) as f64 * 0.2);
        let mut b = BatchVectors::zeros(m.dims());
        m.spmv(&xs, &mut b).unwrap();
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchCg::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::a100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert!(m.max_residual_norm(&x, &b).unwrap() < 1e-8);
        assert_eq!(rep.solver, "cg");
    }

    #[test]
    fn cg_struggles_on_strongly_nonsymmetric_systems() {
        // The reason the paper uses BiCGSTAB: with strong asymmetry CG
        // needs more iterations than BiCGSTAB, or fails outright.
        let p = Arc::new(SparsityPattern::stencil_2d(8, 8, true));
        let mut m = BatchCsr::<f64>::zeros(1, p).unwrap();
        m.fill_system(0, |r, c| {
            if r == c {
                9.0
            } else if c > r {
                -1.9 // strong upwind asymmetry
            } else {
                -0.1
            }
        });
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let cg = BatchCg::new(Jacobi, AbsResidual::new(1e-10))
            .with_max_iters(300)
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let bicg = crate::bicgstab::BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .with_max_iters(300)
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(bicg.all_converged());
        assert!(
            !cg.all_converged() || cg.max_iterations() > bicg.max_iterations(),
            "cg {} iters vs bicgstab {}",
            cg.max_iterations(),
            bicg.max_iterations()
        );
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let m = spd_batch(1, 6);
        let b = BatchVectors::zeros(m.dims());
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchCg::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert_eq!(rep.max_iterations(), 0);
    }

    #[test]
    fn cg_uses_fewer_workspace_vectors_than_bicgstab() {
        // 4 vectors vs 9: CG's shared footprint is smaller.
        let m = spd_batch(1, 31); // 961 rows ≈ the XGC size
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x = BatchVectors::zeros(m.dims());
        let rep = BatchCg::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x)
            .unwrap();
        assert!(rep.shared_per_block <= 4 * 961 * 8);
        assert!(rep.plan_description.starts_with("4 shared"));
    }
}
