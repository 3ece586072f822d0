//! Batched pipelined BiCGSTAB (Cools–Vanroose style reformulation).
//!
//! Classical BiCGSTAB stops the block six times per iteration — ‖r‖, ρ,
//! (r̂,v), ‖s‖, (t,s), (t,t) each sit behind their own reduction barrier.
//! The pipelined variant regroups the dot products around the two SpMVs:
//! (r̂,v) is fused with the `v = A p̂` product, and a single five-way
//! fused reduction — (t,s), (t,t), (s,s), (r̂,s), (r̂,t) — rides on the
//! `t = A ŝ` product. The remaining quantities come from scalar
//! recurrences: `ρ' = (r̂,s) − ω (r̂,t)` replaces the ρ dot (since
//! `r = s − ωt`), and `‖r‖² = (s,s) − 2ω(t,s) + ω²(t,t)` replaces the
//! residual norm. Two synchronization points per iteration instead of
//! six; the trees themselves are hidden behind the SpMVs.
//!
//! The recurrences are algebraically equal but round differently from
//! the classical dots, so iterates are *not* bitwise-identical — the
//! metamorphic tests bound the divergence instead.

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
use crate::workspace::{WorkspacePlan, BICGSTAB_VECTORS};

/// Same setup as classical BiCGSTAB (residual, shadow copy, precond).
const SETUP_STAGES: u64 = 3;
/// Dependent chain per iteration: p-update → M⁻¹/SpMV(v) → s-update →
/// M⁻¹/SpMV(t) → fused x/r update. The reductions overlap the SpMVs.
const ITER_STAGES: u64 = 5;
/// Two barriers per iteration; both reduction trees are fused into the
/// SpMVs (hidden), so only the sync cost is exposed.
const SYNC: SyncProfile = SyncProfile {
    setup_syncs: 1,
    setup_reductions: 1,
    iter_syncs: 2,
    iter_reductions: 0,
    iter_hidden_reductions: 2,
};

/// The batched pipelined BiCGSTAB solver.
#[derive(Clone, Debug)]
pub struct PipelinedBicgstab<T, P, S> {
    /// Preconditioner (generated per system inside the kernel).
    pub precond: P,
    /// Stopping criterion, evaluated per system per iteration.
    pub stop: S,
    /// Iteration cap.
    pub max_iters: usize,
    _marker: PhantomData<T>,
}

impl<T, P, S> PipelinedBicgstab<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    /// Solver with the given components and a 500-iteration cap.
    pub fn new(precond: P, stop: S) -> Self {
        PipelinedBicgstab {
            precond,
            stop,
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

    /// [`Self::solve`] with a per-system logger factory (residual traces).
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
        let results = self.run_numerics(a, b, x, make_logger)?;
        Ok(self.price_results(device, a, results))
    }

    /// Numeric phase only (see [`BatchBicgstab::run_numerics`]).
    ///
    /// [`BatchBicgstab::run_numerics`]: crate::bicgstab::BatchBicgstab::run_numerics
    pub fn run_numerics<M, L, F>(
        &self,
        a: &M,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
        make_logger: F,
    ) -> Result<Vec<SystemResult>>
    where
        M: BatchMatrix<T>,
        L: IterationLogger<T>,
        F: Fn(usize) -> L + Sync + Send,
    {
        let dims = a.dims();
        dims.ensure_same(&b.dims(), "pipelined-bicgstab b")?;
        dims.ensure_same(&x.dims(), "pipelined-bicgstab x")?;
        let precond = &self.precond;
        let stop = &self.stop;
        let max_iters = self.max_iters;
        let chunks: Vec<&mut [T]> = x.systems_mut().collect();
        Ok(run_batch_map_mut(
            chunks,
            #[inline(always)]
            |i, xi| {
                let mut logger = make_logger(i);
                let x0 = xi.to_vec();
                let r = pipelined_bicgstab_block(
                    a,
                    i,
                    b.system(i),
                    xi,
                    precond,
                    stop,
                    max_iters,
                    &mut logger,
                );
                sanitize_block_result(&x0, xi, r)
            },
        ))
    }

    /// Pricing phase only (see [`BatchBicgstab::price_results`]).
    ///
    /// [`BatchBicgstab::price_results`]: crate::bicgstab::BatchBicgstab::price_results
    pub fn price_results<M: BatchMatrix<T>>(
        &self,
        device: &DeviceSpec,
        a: &M,
        results: Vec<SystemResult>,
    ) -> BatchSolveReport {
        let n = a.dims().num_rows;
        let plan = WorkspacePlan::plan::<T>(device.shared_budget_bytes(), n, &BICGSTAB_VECTORS);
        let (setup, per_iter, ro_req_per_iter) = self.cost_decomposition(a, device, &plan);
        // Two preconditioner applies per iteration (p̂ and ŝ).
        let p_syncs = self.precond.apply_syncs(n);
        let p_stages = self.precond.apply_stages(n).saturating_sub(1);
        let costs = StageCosts {
            setup,
            per_iter,
            setup_stages: SETUP_STAGES,
            iter_stages: ITER_STAGES + 2 * p_stages,
            ro_req_per_iter,
            sync: SYNC.with_precond_applies(2, p_syncs),
        };
        let blocks: Vec<_> = results
            .iter()
            .map(|r| assemble_block_stats(a, &plan, r, &costs))
            .collect();
        let kernel = SimKernel::new(device, plan.shared_bytes)
            .with_reduction_width(n as u64)
            .price(&blocks);
        BatchSolveReport {
            per_system: results,
            kernel,
            plan_description: plan.describe(),
            shared_per_block: plan.shared_bytes,
            global_vector_bytes: plan.global_vector_bytes(),
            solver: "pipelined-bicgstab",
            format: a.format_name(),
            device: device.name,
            syncs_per_iteration: SYNC.syncs_per_iteration(),
        }
    }

    /// Per-block cost decomposition: `(setup, per_iteration,
    /// ro_bytes_requested_per_iteration)`.
    fn cost_decomposition<M: BatchMatrix<T>>(
        &self,
        a: &M,
        device: &DeviceSpec,
        plan: &WorkspacePlan,
    ) -> (OpCounts, OpCounts, u64) {
        let n = a.dims().num_rows;
        let w = device.warp_size;
        let nnz = a.stored_per_system();
        let sp = |name: &str| plan.space_of(name);

        // Setup is identical to classical: r = b - Ax; r̂ = r; precond
        // generate; fused ‖r‖, ‖b‖ (ρ₀ = ‖r‖² comes for free).
        let mut setup = OpCounts::ZERO;
        setup += placed_spmv_counts(a, w, sp("x"), sp("r"));
        setup += bc::axpy_counts::<T>(n, MemSpace::Global, sp("r"), w); // b - r
        setup += bc::copy_counts::<T>(n, sp("r"), sp("r_hat"), w);
        setup.flops += self.precond.generate_flops(n, nnz);
        setup.global_read_bytes += self.precond.state_bytes(n) as u64;
        setup += bc::nrm2_counts::<T>(n, sp("r"), w);
        setup += bc::nrm2_counts::<T>(n, MemSpace::Global, w); // ‖b‖

        // One pipelined iteration: the ρ dot and the residual norm are
        // replaced by scalar recurrences; the five-way fused reduction
        // adds (s,s), (r̂,s), (r̂,t) next to classical's (t,s), (t,t).
        let mut it = OpCounts::ZERO;
        it += bc::axpby_counts::<T>(n, sp("v"), sp("p"), w); // p ← p - ωv (scaled)
        it += bc::axpby_counts::<T>(n, sp("r"), sp("p"), w); // p ← r + βp
        it += bc::elementwise_counts::<T>(n, sp("p"), MemSpace::Global, sp("p_hat"), w);
        it.flops += self.precond.apply_flops(n);
        it += placed_spmv_counts(a, w, sp("p_hat"), sp("v"));
        it += bc::dot_counts::<T>(n, sp("r_hat"), sp("v"), w); // fused with SpMV(v)
        it += bc::axpby_counts::<T>(n, sp("v"), sp("s"), w); // s = r - αv
        it += bc::elementwise_counts::<T>(n, sp("s"), MemSpace::Global, sp("s_hat"), w);
        it.flops += self.precond.apply_flops(n);
        it += placed_spmv_counts(a, w, sp("s_hat"), sp("t"));
        it += bc::dot_counts::<T>(n, sp("t"), sp("s"), w); // ┐
        it += bc::dot_counts::<T>(n, sp("t"), sp("t"), w); // │ five-way fused
        it += bc::dot_counts::<T>(n, sp("s"), sp("s"), w); // │ reduction with
        it += bc::dot_counts::<T>(n, sp("r_hat"), sp("s"), w); // │ SpMV(t)
        it += bc::dot_counts::<T>(n, sp("r_hat"), sp("t"), w); // ┘
        it += bc::axpy_counts::<T>(n, sp("p_hat"), sp("x"), w);
        it += bc::axpy_counts::<T>(n, sp("s_hat"), sp("x"), w);
        it += bc::axpby_counts::<T>(n, sp("t"), sp("r"), w); // r = s - ωt

        let ro_req_per_iter =
            2 * (a.value_bytes_per_system() as u64 + a.shared_index_bytes() as u64);
        (setup, it, ro_req_per_iter)
    }
}

/// The per-block pipelined BiCGSTAB kernel: solves `A_i x = b` in place.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn pipelined_bicgstab_block<T, M, P, S, L>(
    a: &M,
    i: usize,
    b: &[T],
    x: &mut [T],
    precond: &P,
    stop: &S,
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
            return SystemResult {
                iterations: 0,
                residual: f64::INFINITY,
                converged: false,
                breakdown: Some("preconditioner"),
            }
        }
    };

    let mut r = vec![T::ZERO; n];
    let mut r_hat = vec![T::ZERO; n];
    let mut p = vec![T::ZERO; n];
    let mut p_hat = vec![T::ZERO; n];
    let mut v = vec![T::ZERO; n];
    let mut s = vec![T::ZERO; n];
    let mut s_hat = vec![T::ZERO; n];
    let mut t = vec![T::ZERO; n];

    // r = b - A x; r̂ = r.
    a.spmv_system(i, x, &mut r);
    blas::sub_from(b, &mut r);
    blas::copy(&r, &mut r_hat);

    let bnorm = blas::nrm2(b);
    let res0 = blas::nrm2(&r);
    let mut res = res0;

    // ρ₀ = (r̂, r) = ‖r‖² — free from the setup reduction.
    let mut rho = res0 * res0;
    let mut rho_prev = T::ONE;
    let mut alpha = T::ONE;
    let mut omega = T::ONE;

    let finish = |iters: u32, res: T, converged: bool, breakdown, logger: &mut L| {
        logger.log_finish(iters, res, converged);
        SystemResult {
            iterations: iters,
            residual: res.to_f64(),
            converged,
            breakdown,
        }
    };

    for iter in 0..max_iters as u32 {
        if stop.is_converged(res, res0, bnorm) {
            return finish(iter, res, true, None, logger);
        }
        if rho == T::ZERO || !rho.is_finite() {
            return finish(iter, res, false, Some("rho"), logger);
        }
        let beta = (rho / rho_prev) * (alpha / omega);
        // p ← r + β (p − ω v)
        for k in 0..n {
            p[k] = r[k] + beta * (p[k] - omega * v[k]);
        }
        precond.apply(&pstate, &p, &mut p_hat);
        a.spmv_system(i, &p_hat, &mut v);
        // Sync point 1: (r̂, v), fused with the SpMV above.
        let rv = blas::dot(&r_hat, &v);
        if rv == T::ZERO || !rv.is_finite() {
            return finish(iter, res, false, Some("r_hat.v"), logger);
        }
        alpha = rho / rv;
        // s = r - α v
        for k in 0..n {
            s[k] = r[k] - alpha * v[k];
        }
        precond.apply(&pstate, &s, &mut s_hat);
        a.spmv_system(i, &s_hat, &mut t);
        // Sync point 2: the five-way fused reduction, overlapped with the
        // SpMV above. Everything after this is scalar recurrence.
        let ts = blas::dot(&t, &s);
        let tt = blas::dot(&t, &t);
        let ss = blas::dot(&s, &s);
        let rs = blas::dot(&r_hat, &s);
        let rt = blas::dot(&r_hat, &t);

        let snorm = ss.sqrt();
        if stop.is_converged(snorm, res0, bnorm) {
            blas::axpy(alpha, &p_hat, x);
            logger.log_iteration(iter + 1, snorm);
            return finish(iter + 1, snorm, true, None, logger);
        }
        if tt == T::ZERO || !tt.is_finite() {
            return finish(iter, snorm, false, Some("t.t"), logger);
        }
        omega = ts / tt;
        if omega == T::ZERO {
            return finish(iter, snorm, false, Some("omega"), logger);
        }
        // Scalar recurrences: ρ' = (r̂, s − ωt); ‖r‖² = ‖s − ωt‖²
        // expanded (clamped at zero against cancellation).
        rho_prev = rho;
        rho = rs - omega * rt;
        let mut res_sq = ss - (omega + omega) * ts + omega * omega * tt;
        if res_sq < T::ZERO {
            res_sq = T::ZERO;
        }
        res = res_sq.sqrt();
        // x ← x + α p̂ + ω ŝ ; r ← s − ω t — no reduction follows.
        for k in 0..n {
            x[k] = x[k] + alpha * p_hat[k] + omega * s_hat[k];
            r[k] = s[k] - omega * t[k];
        }
        if !res.is_finite() {
            return finish(iter + 1, res, false, Some("divergence"), logger);
        }
        logger.log_iteration(iter + 1, res);
    }
    let converged = stop.is_converged(res, res0, bnorm);
    finish(max_iters as u32, res, converged, None, logger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::BatchBicgstab;
    use crate::precond::Jacobi;
    use crate::stop::AbsResidual;
    use batsolv_formats::{BatchCsr, BatchEll, SparsityPattern};
    use std::sync::Arc;

    fn stencil_batch(num_systems: usize, nx: usize, ny: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
        let mut m = BatchCsr::zeros(num_systems, p).unwrap();
        for i in 0..num_systems {
            let shift = 0.05 * i as f64;
            m.fill_system(i, |r, c| {
                if r == c {
                    9.0 + shift
                } else {
                    -0.8 - 0.15 * ((r * 3 + c) % 4) as f64
                }
            });
        }
        m
    }

    #[test]
    fn pipelined_bicgstab_solves_the_stencil_batch() {
        let m = stencil_batch(4, 8, 7);
        let xs = BatchVectors::from_fn(m.dims(), |s, r| ((s + 1) as f64) * (r as f64 * 0.3).sin());
        let mut b = BatchVectors::zeros(m.dims());
        m.spmv(&xs, &mut b).unwrap();
        let mut x = BatchVectors::zeros(m.dims());
        let rep = PipelinedBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged(), "{rep:?}");
        assert!(m.max_residual_norm(&x, &b).unwrap() < 1e-8);
        assert_eq!(rep.solver, "pipelined-bicgstab");
    }

    #[test]
    fn two_syncs_per_iteration_vs_six_classical() {
        let m = stencil_batch(2, 8, 8);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let pipe = PipelinedBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let classic = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert_eq!(pipe.syncs_per_iteration, 2.0);
        assert_eq!(classic.syncs_per_iteration, 6.0);
        assert!(pipe.syncs() < classic.syncs());
        // Hidden trees still show in the profiler totals.
        assert!(pipe.reductions() > 0);
    }

    #[test]
    fn pipelined_is_simulated_faster_at_batch_64() {
        // ELL matches the acceptance workload's format: its lighter
        // traffic leaves the sync latency dominant, which pipelining
        // removes.
        let csr = stencil_batch(64, 32, 31); // 992 rows — the XGC size
        let m = BatchEll::from_csr(&csr).unwrap();
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let pipe = PipelinedBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let classic = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(pipe.all_converged() && classic.all_converged());
        let speedup = classic.time_s() / pipe.time_s();
        assert!(speedup >= 1.3, "pipelined speedup {speedup:.2} < 1.3");
    }

    #[test]
    fn iteration_cap_reports_unconverged() {
        let m = stencil_batch(1, 8, 8);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let rep = PipelinedBicgstab::new(Jacobi, AbsResidual::new(1e-30))
            .with_max_iters(3)
            .solve(&DeviceSpec::v100(), &m, &b, &mut x)
            .unwrap();
        assert!(!rep.all_converged());
        assert_eq!(rep.max_iterations(), 3);
    }

    #[test]
    fn logger_sees_the_recurrence_residuals() {
        use crate::logger::ConvergenceHistory;
        let m = stencil_batch(1, 8, 8);
        let b = BatchVectors::constant(m.dims(), 1.0);
        let mut x = BatchVectors::zeros(m.dims());
        let mut hist = ConvergenceHistory::default();
        let r = pipelined_bicgstab_block(
            &m,
            0,
            b.system(0),
            x.systems_mut().next().unwrap(),
            &Jacobi,
            &AbsResidual::new(1e-10),
            500,
            &mut hist,
        );
        assert!(r.converged);
        assert!(hist.mean_rate() < 1.0);
    }
}
