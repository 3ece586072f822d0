//! The block-diagonal monolithic ablation (paper Section II).
//!
//! "One solution for solving a batch of small sparse problems would be to
//! assemble them into block-diagonal matrices with sparse diagonal
//! blocks" — the paper rejects this because (1) the iteration count is
//! set by the most difficult system, (2) every iteration has global
//! synchronization, (3) the sparsity pattern is duplicated per block,
//! and (4) each solver component is a separate kernel launch. This
//! module implements that rejected design so the `repro
//! ablation-monolithic` bench can measure all four effects.

use std::sync::Arc;

use batsolv_formats::{BatchCsr, BatchMatrix, BatchVectors, SparsityPattern};
use batsolv_gpusim::{run_batch_map_mut, DeviceSpec, KernelReport};
use batsolv_types::{BatchDims, Result, Scalar};

use crate::bicgstab::bicgstab_block;
use crate::common::{sanitize_block_result, BatchSolveReport};
use crate::logger::NoopLogger;
use crate::precond::Preconditioner;
use crate::stop::StopCriterion;

/// Assemble a batch into one block-diagonal system. Note the storage
/// regression the paper points out: the shared pattern must be
/// **duplicated** for every block in the global matrix.
pub fn assemble_block_diagonal<T: Scalar>(batch: &BatchCsr<T>) -> Result<BatchCsr<T>> {
    let dims = batch.dims();
    let (ns, n) = (dims.num_systems, dims.num_rows);
    let nnz = batch.pattern().nnz();
    let mut row_ptrs = Vec::with_capacity(ns * n + 1);
    let mut col_idxs = Vec::with_capacity(ns * nnz);
    let mut values = Vec::with_capacity(ns * nnz);
    row_ptrs.push(0u32);
    for s in 0..ns {
        let base = (s * n) as u32;
        let offset = (s * nnz) as u32;
        for r in 0..n {
            let (b, e) = batch.pattern().row_range(r);
            for k in b..e {
                col_idxs.push(base + batch.pattern().col_idxs()[k]);
            }
            row_ptrs.push(offset + batch.pattern().row_ptrs()[r + 1]);
        }
        values.extend_from_slice(batch.values_of(s));
    }
    let pattern = Arc::new(SparsityPattern::from_csr(ns * n, row_ptrs, col_idxs)?);
    BatchCsr::from_system_values(pattern, &[values])
}

/// Non-batched BiCGSTAB on the assembled block-diagonal system, with the
/// monolithic solver's multi-kernel-launch cost model.
#[derive(Clone, Debug)]
pub struct MonolithicBicgstab<T, P, S> {
    /// Preconditioner.
    pub precond: P,
    /// Stopping criterion — applied to the **global** residual.
    pub stop: S,
    /// Iteration cap.
    pub max_iters: usize,
    _marker: core::marker::PhantomData<T>,
}

impl<T, P, S> MonolithicBicgstab<T, P, S>
where
    T: Scalar,
    P: Preconditioner<T>,
    S: StopCriterion<T>,
{
    /// Solver with a 500-iteration cap.
    pub fn new(precond: P, stop: S) -> Self {
        MonolithicBicgstab {
            precond,
            stop,
            max_iters: 500,
            _marker: core::marker::PhantomData,
        }
    }

    /// Solve the batch by assembling it into one system.
    pub fn solve(
        &self,
        device: &DeviceSpec,
        a: &BatchCsr<T>,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<BatchSolveReport> {
        let dims = a.dims();
        dims.ensure_same(&b.dims(), "monolithic b")?;
        dims.ensure_same(&x.dims(), "monolithic x")?;
        let (ns, n) = (dims.num_systems, dims.num_rows);

        let big = assemble_block_diagonal(a)?;
        let big_dims = BatchDims::new(1, ns * n)?;
        let b_flat = BatchVectors::from_values(big_dims, b.values().to_vec())?;
        // The one big system is a single block of the executor, so it runs
        // with the same host code generation as the batched kernels.
        let result = run_batch_map_mut(
            vec![x.values_mut()],
            #[inline(always)]
            |_, xv| {
                let x0 = xv.to_vec();
                let r = bicgstab_block(
                    &big,
                    0,
                    b_flat.system(0),
                    xv,
                    &self.precond,
                    &self.stop,
                    self.max_iters,
                    false,
                    &mut NoopLogger,
                );
                sanitize_block_result(&x0, xv, r)
            },
        )[0];

        // Every system pays the global iteration count — the paper's
        // first objection to the monolithic design.
        let per_system = vec![result; ns];
        let kernel = self.price(device, &big, ns, n, result.iterations);
        Ok(BatchSolveReport {
            per_system,
            kernel,
            plan_description: format!(
                "monolithic: {} duplicated patterns, global sync per iteration",
                ns
            ),
            shared_per_block: 0,
            global_vector_bytes: 0,
            solver: "monolithic-bicgstab",
            format: "BatchCsr(block-diagonal)",
            device: device.name,
            syncs_per_iteration: 6.0,
        })
    }

    /// Multi-kernel-launch cost model: a monolithic iterative solver
    /// launches each component (SpMV, dots, axpys) as its own kernel,
    /// re-reading its operands from global memory every time.
    fn price(
        &self,
        device: &DeviceSpec,
        big: &BatchCsr<T>,
        ns: usize,
        n: usize,
        iterations: u32,
    ) -> KernelReport {
        let vb = T::BYTES as f64;
        let total_rows = (ns * n) as f64;
        let nnz = big.pattern().nnz() as f64;
        let bw = device.mem_bw_gbps * 1e9;
        // SpMV: stream values + duplicated indices + vectors.
        let spmv_bytes = nnz * (vb + 4.0) + 2.0 * total_rows * vb;
        let spmv_flops = 2.0 * nnz;
        let t_spmv = (spmv_bytes / bw).max(spmv_flops / (device.peak_fp64_gflops * 1e9 * 0.5));
        // Dense kernel: streams ~2.5 vectors.
        let t_dense = 2.5 * total_rows * vb / bw;
        // 14 launches per iteration (2 SpMV + 12 vector/reduction ops).
        let launches_per_iter = 14.0;
        let t_iter =
            launches_per_iter * device.launch_overhead_us * 1e-6 + 2.0 * t_spmv + 12.0 * t_dense;
        let setup = 3.0 * device.launch_overhead_us * 1e-6 + t_spmv + 2.0 * t_dense;
        let time_s = setup + iterations as f64 * t_iter;
        let launch_s =
            (3.0 + launches_per_iter * iterations as f64) * device.launch_overhead_us * 1e-6;
        let it = iterations as f64;
        KernelReport {
            time_s,
            makespan_s: time_s - launch_s,
            launch_s,
            warp_utilization: 0.9, // large grids keep lanes busy
            l1_hit_rate: 0.0,      // operands re-stream from DRAM each launch
            l2_hit_rate: 0.0,
            dram_bytes: ((2.0 * t_spmv + 12.0 * t_dense) * bw * it) as u64,
            flops: (2.0 * spmv_flops * it) as u64,
            achieved_gflops: if time_s > 0.0 {
                2.0 * spmv_flops * it / time_s / 1e9
            } else {
                0.0
            },
            // Every reduction is its own device-wide kernel: the barrier
            // is the launch boundary itself, so its cost lives in
            // `launch_s` rather than a separate sync term.
            syncs: 2 + 6 * iterations as u64,
            reductions: 2 + 6 * iterations as u64,
            sync_s: 0.0,
            block_times: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::BatchBicgstab;
    use crate::precond::Jacobi;
    use crate::stop::AbsResidual;

    fn mixed_batch() -> BatchCsr<f64> {
        // One easy and one hard system — the monolithic design forces the
        // easy one to iterate as long as the hard one.
        let p = Arc::new(SparsityPattern::stencil_2d(8, 8, true));
        let mut m = BatchCsr::zeros(2, p).unwrap();
        m.fill_system(0, |r, c| if r == c { 60.0 } else { -1.0 });
        m.fill_system(1, |r, c| if r == c { 8.2 } else { -1.0 });
        m
    }

    #[test]
    fn block_diagonal_assembly_is_correct() {
        let m = mixed_batch();
        let big = assemble_block_diagonal(&m).unwrap();
        assert_eq!(big.dims().num_rows, 128);
        assert_eq!(big.pattern().nnz(), 2 * m.pattern().nnz());
        // Entries land on the right diagonal blocks.
        assert_eq!(big.get(0, 0, 0), 60.0);
        assert_eq!(big.get(0, 64, 64), 8.2);
        assert_eq!(big.get(0, 0, 64), 0.0);
        // SpMV on the big system equals per-system SpMVs.
        let x: Vec<f64> = (0..128).map(|k| (k as f64 * 0.1).sin()).collect();
        let mut y_big = vec![0.0; 128];
        big.spmv_system(0, &x, &mut y_big);
        let mut y0 = vec![0.0; 64];
        let mut y1 = vec![0.0; 64];
        m.spmv_system(0, &x[..64], &mut y0);
        m.spmv_system(1, &x[64..], &mut y1);
        for r in 0..64 {
            assert!((y_big[r] - y0[r]).abs() < 1e-14);
            assert!((y_big[64 + r] - y1[r]).abs() < 1e-14);
        }
    }

    #[test]
    fn monolithic_converges_but_couples_iteration_counts() {
        let m = mixed_batch();
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();

        let mut x_mono = BatchVectors::zeros(m.dims());
        let mono = MonolithicBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x_mono)
            .unwrap();
        assert!(mono.all_converged());
        assert!(m.max_residual_norm(&x_mono, &b).unwrap() < 1e-8);
        // Both systems report the same (global) iteration count.
        assert_eq!(mono.per_system[0].iterations, mono.per_system[1].iterations);

        let mut x_batch = BatchVectors::zeros(m.dims());
        let batched = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x_batch)
            .unwrap();
        // Batched: the easy system stops early.
        assert!(batched.per_system[0].iterations < mono.per_system[0].iterations);
    }

    #[test]
    fn monolithic_is_slower_in_the_model() {
        // The paper: "internal experiments have shown that such a method
        // is slower than the proposed batched iterative solvers."
        let p = Arc::new(SparsityPattern::stencil_2d(32, 31, true));
        let mut m = BatchCsr::<f64>::zeros(64, p).unwrap();
        for i in 0..64 {
            m.fill_system(i, |r, c| if r == c { 9.0 + 0.01 * i as f64 } else { -0.9 });
        }
        let b = BatchVectors::constant(m.dims(), 1.0);
        let dev = DeviceSpec::v100();
        let mut x1 = BatchVectors::zeros(m.dims());
        let mono = MonolithicBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x1)
            .unwrap();
        let mut x2 = BatchVectors::zeros(m.dims());
        let batched = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
            .solve(&dev, &m, &b, &mut x2)
            .unwrap();
        assert!(
            mono.time_s() > batched.time_s(),
            "monolithic {} vs batched {}",
            mono.time_s(),
            batched.time_s()
        );
    }
}
