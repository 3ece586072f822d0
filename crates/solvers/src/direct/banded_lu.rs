//! Batched banded LU with partial pivoting — the `dgbsv` baseline.
//!
//! This is the solver XGC production runs use today, on the CPU: LAPACK
//! band storage (`ldab = 2·kl + ku + 1`, the extra `kl` rows holding
//! pivoting fill), unblocked right-looking factorization (`dgbtf2`), and
//! banded forward/backward substitution. The batch is parallelized with
//! one system per worker core, exactly like the proxy app's Kokkos
//! dispatch over 38 Skylake cores.

use batsolv_formats::{BatchBanded, BatchMatrix, BatchVectors};
use batsolv_gpusim::{run_batch_map_mut, BlockStats, DeviceSpec, SimKernel, TrafficProfile};
use batsolv_types::{OpCounts, Result, Scalar};

use crate::common::{sanitize_block_result, BatchSolveReport, SystemResult};

/// The batched `dgbsv`-style direct solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchBandedLu;

impl BatchBandedLu {
    /// Solve every system of the banded batch; the matrix is copied per
    /// system (factorization is destructive, like `dgbsv`'s `AB`).
    pub fn solve<T: Scalar>(
        &self,
        device: &DeviceSpec,
        a: &BatchBanded<T>,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<BatchSolveReport> {
        let dims = a.dims();
        dims.ensure_same(&b.dims(), "dgbsv b")?;
        dims.ensure_same(&x.dims(), "dgbsv x")?;
        let n = dims.num_rows;
        let (kl, ku, ldab) = (a.kl(), a.ku(), a.ldab());

        let chunks: Vec<&mut [T]> = x.systems_mut().collect();
        let results: Vec<SystemResult> = run_batch_map_mut(
            chunks,
            #[inline(always)]
            |i, xi| {
                let x0 = xi.to_vec();
                xi.copy_from_slice(b.system(i));
                let mut ab = a.ab_of(i).to_vec();
                let mut piv = vec![0usize; n];
                let sys = match gbtrf(n, kl, ku, ldab, &mut ab, &mut piv) {
                    Ok(()) => {
                        gbtrs(n, kl, ku, ldab, &ab, &piv, xi);
                        // True residual for the report.
                        let mut r = vec![T::ZERO; n];
                        a.spmv_system(i, xi, &mut r);
                        let res = b
                            .system(i)
                            .iter()
                            .zip(r.iter())
                            .map(|(&bv, &rv)| (bv - rv) * (bv - rv))
                            .fold(T::ZERO, |acc, v| acc + v)
                            .sqrt()
                            .to_f64();
                        SystemResult {
                            iterations: 1,
                            residual: res,
                            // A factor+solve with a poisoned input can finish
                            // and still produce garbage: accept only finite
                            // residuals as solved.
                            converged: res.is_finite(),
                            breakdown: if res.is_finite() {
                                None
                            } else {
                                Some("nonfinite")
                            },
                        }
                    }
                    Err(_) => SystemResult {
                        iterations: 0,
                        residual: f64::INFINITY,
                        converged: false,
                        breakdown: Some("singular"),
                    },
                };
                sanitize_block_result(&x0, xi, sys)
            },
        );

        let stats = block_stats::<T>(device, n, kl, ku, ldab);
        let blocks = vec![stats; dims.num_systems];
        let kernel = SimKernel::new(device, 0).price(&blocks);
        Ok(BatchSolveReport {
            per_system: results,
            kernel,
            plan_description: "band storage in core-local cache".into(),
            shared_per_block: 0,
            global_vector_bytes: 0,
            solver: "dgbsv",
            format: "BatchBanded",
            device: device.name,
            syncs_per_iteration: 0.0,
        })
    }
}

/// Per-block cost of one banded factor+solve.
fn block_stats<T: Scalar>(
    device: &DeviceSpec,
    n: usize,
    kl: usize,
    ku: usize,
    ldab: usize,
) -> BlockStats {
    let w = device.warp_size as u64;
    let (n64, kl64) = (n as u64, kl as u64);
    let width = (kl + ku) as u64; // fill-extended upper width
    let vb = T::BYTES as u64;
    let mut counts = OpCounts::ZERO;
    // Factorization: per column, kl divisions + kl*(kl+ku) FMAs.
    counts.flops = n64 * (kl64 + 2 * kl64 * width);
    // Solve: forward (kl per row) + backward (kl+ku per row).
    counts.flops += n64 * 2 * (kl64 + width + 1);
    // The trailing-submatrix update vectorizes over the row width.
    counts.record_lanes(width.max(1), w, n64 * kl64);
    let slab = (ldab * n) as u64 * vb;
    counts.global_read_bytes = slab;
    counts.global_write_bytes = slab + n64 * vb;
    BlockStats {
        iterations: 1,
        converged: true,
        syncs: 0,
        reductions: 0,
        hidden_reductions: 0,
        counts,
        // Columns factor sequentially; each depends on the previous.
        dependent_steps: 2 * n64,
        traffic: TrafficProfile {
            shared_ro_working_set: 0, // no cross-block shared structure
            ro_working_set: slab,     // the pristine matrix, read once
            ro_requested: slab,
            rw_working_set: slab,
            // Each of the kl update rows touches ~width entries per column.
            rw_requested: n64 * kl64 * width * 2 * vb,
            write_once: n64 * vb,
            shared_bytes: 0,
        },
    }
}

/// Unblocked banded LU with partial pivoting (LAPACK `dgbtf2` layout).
pub fn gbtrf<T: Scalar>(
    n: usize,
    kl: usize,
    ku: usize,
    ldab: usize,
    ab: &mut [T],
    piv: &mut [usize],
) -> Result<()> {
    debug_assert_eq!(ab.len(), ldab * n);
    let kv = kl + ku; // fill-extended upper bandwidth
    let idx = |i: usize, j: usize| j * ldab + kl + ku + i - j;
    for j in 0..n {
        // Pivot search within the column's band rows.
        let i_max = (j + kl).min(n - 1);
        let mut p = j;
        let mut pmax = ab[idx(j, j)].abs();
        for i in (j + 1)..=i_max {
            let v = ab[idx(i, j)].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax == T::ZERO {
            return Err(batsolv_types::Error::SingularMatrix {
                batch_index: 0,
                detail: format!("gbtrf: zero pivot column {j}"),
            });
        }
        piv[j] = p;
        let c_max = (j + kv).min(n - 1);
        if p != j {
            for c in j..=c_max {
                ab.swap(idx(j, c), idx(p, c));
            }
        }
        let pivot = ab[idx(j, j)];
        for i in (j + 1)..=i_max {
            let m = ab[idx(i, j)] / pivot;
            ab[idx(i, j)] = m;
            for c in (j + 1)..=c_max {
                let u = ab[idx(j, c)];
                ab[idx(i, c)] = ab[idx(i, c)] - m * u;
            }
        }
    }
    Ok(())
}

/// Banded triangular solves using factors from [`gbtrf`]; `b` becomes `x`.
pub fn gbtrs<T: Scalar>(
    n: usize,
    kl: usize,
    ku: usize,
    ldab: usize,
    ab: &[T],
    piv: &[usize],
    b: &mut [T],
) {
    let kv = kl + ku;
    let idx = |i: usize, j: usize| j * ldab + kl + ku + i - j;
    // Forward: apply pivots and L (unit lower, multipliers stored in band).
    for j in 0..n {
        let p = piv[j];
        if p != j {
            b.swap(j, p);
        }
        let i_max = (j + kl).min(n - 1);
        let bj = b[j];
        for i in (j + 1)..=i_max {
            b[i] -= ab[idx(i, j)] * bj;
        }
    }
    // Backward: U has bandwidth kv.
    for j in (0..n).rev() {
        let c_max = (j + kv).min(n - 1);
        let mut acc = b[j];
        for c in (j + 1)..=c_max {
            acc -= ab[idx(j, c)] * b[c];
        }
        b[j] = acc / ab[idx(j, j)];
    }
}

/// Simulated time of a batched `dgbsv` sweep without running numerics:
/// used by the Figure 1 timeline model.
pub fn dgbsv_time_model<T: Scalar>(
    device: &DeviceSpec,
    num_systems: usize,
    n: usize,
    kl: usize,
    ku: usize,
) -> f64 {
    let ldab = 2 * kl + ku + 1;
    let stats = block_stats::<T>(device, n, kl, ku, ldab);
    let blocks = vec![stats; num_systems];
    SimKernel::new(device, 0).price(&blocks).time_s
}

/// Analytic flop count of one `dgbsv` solve (used by external reports).
pub fn dgbsv_flops(n: usize, kl: usize, ku: usize) -> u64 {
    let (n, kl, w) = (n as u64, kl as u64, (kl + ku) as u64);
    n * (kl + 2 * kl * w) + n * 2 * (kl + w + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_blas::lu::dense_solve;
    use batsolv_formats::{BatchCsr, BatchDense, SparsityPattern};
    use std::sync::Arc;

    fn stencil_banded(ns: usize, nx: usize, ny: usize) -> (BatchCsr<f64>, BatchBanded<f64>) {
        let p = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
        let mut csr = BatchCsr::zeros(ns, p).unwrap();
        for i in 0..ns {
            csr.fill_system(i, |r, c| {
                if r == c {
                    7.0 + 0.3 * i as f64
                } else {
                    -0.6 - 0.1 * ((r * 5 + 3 * c) % 7) as f64
                }
            });
        }
        let banded = BatchBanded::from_csr(&csr).unwrap();
        (csr, banded)
    }

    #[test]
    fn dgbsv_matches_dense_lu() {
        let (csr, banded) = stencil_banded(2, 5, 4);
        let n = 20;
        let dense = BatchDense::from_csr(&csr);
        let b = BatchVectors::from_fn(csr.dims(), |s, r| ((s + r) % 5) as f64 - 1.5);
        let mut x = BatchVectors::zeros(csr.dims());
        let rep = BatchBandedLu
            .solve(&DeviceSpec::skylake_node(), &banded, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        for i in 0..2 {
            let x_ref = dense_solve(n, dense.matrix_of(i), b.system(i)).unwrap();
            for r in 0..n {
                assert!(
                    (x.system(i)[r] - x_ref[r]).abs() < 1e-11,
                    "system {i} row {r}"
                );
            }
        }
    }

    #[test]
    fn dgbsv_residual_is_machine_precision() {
        let (csr, banded) = stencil_banded(3, 8, 7);
        let b = BatchVectors::from_fn(csr.dims(), |_, r| (r as f64 * 0.17).sin());
        let mut x = BatchVectors::zeros(csr.dims());
        let rep = BatchBandedLu
            .solve(&DeviceSpec::skylake_node(), &banded, &b, &mut x)
            .unwrap();
        // Direct solvers hit machine precision — far below the 1e-10 the
        // iterative solver targets.
        assert!(
            rep.max_residual() < 1e-12,
            "residual {}",
            rep.max_residual()
        );
    }

    #[test]
    fn pivoting_handles_reordered_dominance() {
        // A banded matrix whose natural pivot is not on the diagonal.
        let n = 6;
        let mut banded = BatchBanded::<f64>::zeros(1, n, 2, 1).unwrap();
        for r in 0..n {
            for c in r.saturating_sub(2)..=(r + 1).min(n - 1) {
                *banded.at_mut(0, r, c) = if c + 1 == r {
                    10.0 // big subdiagonal forces row swaps
                } else if r == c {
                    0.5
                } else {
                    1.0
                };
            }
        }
        let b = BatchVectors::from_fn(banded.dims(), |_, r| r as f64 + 1.0);
        let mut x = BatchVectors::zeros(banded.dims());
        let rep = BatchBandedLu
            .solve(&DeviceSpec::skylake_node(), &banded, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert!(rep.max_residual() < 1e-12);
    }

    #[test]
    fn singular_matrix_reported() {
        let banded = BatchBanded::<f64>::zeros(1, 4, 1, 1).unwrap();
        let b = BatchVectors::constant(banded.dims(), 1.0);
        let mut x = BatchVectors::zeros(banded.dims());
        let rep = BatchBandedLu
            .solve(&DeviceSpec::skylake_node(), &banded, &b, &mut x)
            .unwrap();
        assert!(!rep.all_converged());
        assert_eq!(rep.per_system[0].breakdown, Some("singular"));
    }

    #[test]
    fn cpu_scaling_steps_at_core_multiples() {
        // 38 workers: batch of 38 uniform systems costs one "wave"; 39
        // costs roughly two (greedy over equal durations).
        let (_, banded38) = stencil_banded(38, 8, 7);
        let (_, banded39) = stencil_banded(39, 8, 7);
        let dev = DeviceSpec::skylake_node();
        let run = |m: &BatchBanded<f64>| {
            let b = BatchVectors::constant(m.dims(), 1.0);
            let mut x = BatchVectors::zeros(m.dims());
            BatchBandedLu.solve(&dev, m, &b, &mut x).unwrap().time_s()
        };
        let t38 = run(&banded38);
        let t39 = run(&banded39);
        assert!(t39 > 1.5 * t38, "t39={t39} t38={t38}");
    }

    #[test]
    fn flop_formula_is_consistent() {
        // The 992-row XGC case: ~2·n·kl·(kl+ku) ≈ 4.3 MFlops + solve.
        let f = dgbsv_flops(992, 33, 33);
        assert!(f > 4_000_000 && f < 5_500_000, "flops {f}");
    }
}
