//! Batched cyclic-reduction tridiagonal solver.
//!
//! The related-work baseline (Section III): cuSPARSE's
//! `gtsv2StridedBatch` and the cuThomasBatch line of work solve batched
//! tridiagonal systems with variants of cyclic reduction. We implement
//! odd-even reduction: each level eliminates the odd-indexed unknowns,
//! halving the system; back-substitution walks the levels in reverse.
//! Unlike the Thomas algorithm, every level is fine-grain parallel, at
//! the price of ~2.4× the arithmetic.

use batsolv_formats::{BatchMatrix, BatchTridiag, BatchVectors};
use batsolv_gpusim::{run_batch_map_mut, BlockStats, DeviceSpec, SimKernel, TrafficProfile};
use batsolv_types::{Error, OpCounts, Result, Scalar};

use crate::common::{sanitize_block_result, BatchSolveReport, SystemResult};

/// The batched cyclic-reduction solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchCyclicReduction;

impl BatchCyclicReduction {
    /// Solve every tridiagonal system of the batch.
    pub fn solve<T: Scalar>(
        &self,
        device: &DeviceSpec,
        a: &BatchTridiag<T>,
        b: &BatchVectors<T>,
        x: &mut BatchVectors<T>,
    ) -> Result<BatchSolveReport> {
        let dims = a.dims();
        dims.ensure_same(&b.dims(), "cr b")?;
        dims.ensure_same(&x.dims(), "cr x")?;
        let n = dims.num_rows;

        let chunks: Vec<&mut [T]> = x.systems_mut().collect();
        let results: Vec<SystemResult> = run_batch_map_mut(
            chunks,
            #[inline(always)]
            |i, xi| {
                let x0 = xi.to_vec();
                let sys = match cr_solve(a.dl_of(i), a.d_of(i), a.du_of(i), b.system(i)) {
                    Ok(sol) => {
                        xi.copy_from_slice(&sol);
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
                        breakdown: Some("zero pivot"),
                    },
                };
                sanitize_block_result(&x0, xi, sys)
            },
        );

        let stats = block_stats::<T>(device, n);
        let blocks = vec![stats; dims.num_systems];
        let kernel = SimKernel::new(device, 0).price(&blocks);
        Ok(BatchSolveReport {
            per_system: results,
            kernel,
            plan_description: "interleaved diagonals, log-depth reduction".into(),
            shared_per_block: 0,
            global_vector_bytes: 0,
            solver: "cyclic-reduction",
            format: "BatchTridiag",
            device: device.name,
            syncs_per_iteration: 0.0,
        })
    }
}

fn block_stats<T: Scalar>(device: &DeviceSpec, n: usize) -> BlockStats {
    let w = device.warp_size as u64;
    let n64 = n as u64;
    let vb = T::BYTES as u64;
    let levels = (usize::BITS - n.leading_zeros()) as u64;
    let mut counts = OpCounts::ZERO;
    // ~17 flops per eliminated unknown (forward) + 5 per back-substituted.
    counts.flops = 17 * n64 + 5 * n64;
    // Each level is fully parallel over its surviving rows.
    let mut rows = n64 / 2;
    for _ in 0..levels {
        counts.record_lanes(rows.max(1), w, 4);
        rows /= 2;
    }
    counts.global_read_bytes = 4 * n64 * vb;
    counts.global_write_bytes = 2 * n64 * vb;
    BlockStats {
        iterations: 1,
        converged: true,
        syncs: 0,
        reductions: 0,
        hidden_reductions: 0,
        counts,
        // Log-depth: two sweeps of `levels` dependent stages.
        dependent_steps: 2 * levels,
        traffic: TrafficProfile {
            shared_ro_working_set: 0, // no cross-block shared structure
            ro_working_set: 4 * n64 * vb,
            ro_requested: 4 * n64 * vb,
            rw_working_set: 2 * n64 * vb,
            rw_requested: 4 * n64 * vb,
            write_once: n64 * vb,
            shared_bytes: 0,
        },
    }
}

/// Recursive odd-even cyclic reduction; returns the solution.
pub fn cr_solve<T: Scalar>(dl: &[T], d: &[T], du: &[T], b: &[T]) -> Result<Vec<T>> {
    let n = d.len();
    if n == 1 {
        if d[0] == T::ZERO {
            return Err(zero_pivot(0));
        }
        return Ok(vec![b[0] / d[0]]);
    }
    // Eliminate odd-indexed unknowns (0-based indices 1, 3, 5, ...).
    let m = n / 2;
    let mut rdl = vec![T::ZERO; m];
    let mut rd = vec![T::ZERO; m];
    let mut rdu = vec![T::ZERO; m];
    let mut rb = vec![T::ZERO; m];
    for k in 0..m {
        let i = 2 * k + 1;
        if d[i - 1] == T::ZERO {
            return Err(zero_pivot(i - 1));
        }
        let alpha = dl[i] / d[i - 1];
        let (gamma, dl_next, du_next, b_next) = if i + 1 < n {
            if d[i + 1] == T::ZERO {
                return Err(zero_pivot(i + 1));
            }
            (du[i] / d[i + 1], dl[i + 1], du[i + 1], b[i + 1])
        } else {
            (T::ZERO, T::ZERO, T::ZERO, T::ZERO)
        };
        rd[k] = d[i] - alpha * du[i - 1] - gamma * dl_next;
        rdl[k] = if k > 0 { -alpha * dl[i - 1] } else { T::ZERO };
        rdu[k] = if i + 1 < n { -gamma * du_next } else { T::ZERO };
        rb[k] = b[i] - alpha * b[i - 1] - gamma * b_next;
    }
    let xo = cr_solve(&rdl, &rd, &rdu, &rb)?;
    // Back-substitute the even-indexed unknowns.
    let mut x = vec![T::ZERO; n];
    for k in 0..m {
        x[2 * k + 1] = xo[k];
    }
    for k in 0..n.div_ceil(2) {
        let i = 2 * k;
        if d[i] == T::ZERO {
            return Err(zero_pivot(i));
        }
        let mut acc = b[i];
        if i > 0 {
            acc -= dl[i] * x[i - 1];
        }
        if i + 1 < n {
            acc -= du[i] * x[i + 1];
        }
        x[i] = acc / d[i];
    }
    Ok(x)
}

fn zero_pivot(row: usize) -> Error {
    Error::SingularMatrix {
        batch_index: 0,
        detail: format!("cyclic reduction: zero pivot at row {row}"),
    }
}

/// Thomas algorithm (sequential reference used in tests).
pub fn thomas_solve<T: Scalar>(dl: &[T], d: &[T], du: &[T], b: &[T]) -> Result<Vec<T>> {
    let n = d.len();
    let mut c = vec![T::ZERO; n];
    let mut g = vec![T::ZERO; n];
    if d[0] == T::ZERO {
        return Err(zero_pivot(0));
    }
    c[0] = du[0] / d[0];
    g[0] = b[0] / d[0];
    for i in 1..n {
        let denom = d[i] - dl[i] * c[i - 1];
        if denom == T::ZERO {
            return Err(zero_pivot(i));
        }
        c[i] = du[i] / denom;
        g[i] = (b[i] - dl[i] * g[i - 1]) / denom;
    }
    let mut x = g;
    for i in (0..n - 1).rev() {
        let xi = x[i] - c[i] * x[i + 1];
        x[i] = xi;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_types::BatchDims;

    fn toeplitz(ns: usize, n: usize, lo: f64, di: f64, up: f64) -> BatchTridiag<f64> {
        BatchTridiag::from_fn(BatchDims::new(ns, n).unwrap(), |s, r| {
            let scale = 1.0 + 0.1 * s as f64;
            (
                if r == 0 { 0.0 } else { lo * scale },
                di * scale,
                if r == n - 1 { 0.0 } else { up * scale },
            )
        })
    }

    #[test]
    fn cr_matches_thomas_on_various_sizes() {
        for n in [1, 2, 3, 5, 8, 17, 64, 100, 127, 128, 129] {
            let a = toeplitz(1, n, -1.0, 2.5, -1.2);
            let b: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).sin()).collect();
            let x_cr = cr_solve(a.dl_of(0), a.d_of(0), a.du_of(0), &b).unwrap();
            let x_th = thomas_solve(a.dl_of(0), a.d_of(0), a.du_of(0), &b).unwrap();
            for r in 0..n {
                assert!(
                    (x_cr[r] - x_th[r]).abs() < 1e-9,
                    "n={n} row {r}: {} vs {}",
                    x_cr[r],
                    x_th[r]
                );
            }
        }
    }

    #[test]
    fn batch_solve_has_exact_residuals() {
        let a = toeplitz(5, 100, -1.0, 3.0, -0.8);
        let b = BatchVectors::from_fn(a.dims(), |s, r| ((s + r) % 7) as f64 * 0.3 - 1.0);
        let mut x = BatchVectors::zeros(a.dims());
        let rep = BatchCyclicReduction
            .solve(&DeviceSpec::a100(), &a, &b, &mut x)
            .unwrap();
        assert!(rep.all_converged());
        assert!(
            rep.max_residual() < 1e-11,
            "residual {}",
            rep.max_residual()
        );
    }

    #[test]
    fn log_depth_beats_thomas_depth_in_the_model() {
        // The whole point of cyclic reduction on a GPU: ~2·log2(n)
        // dependent stages instead of ~2·n.
        let stats = block_stats::<f64>(&DeviceSpec::v100(), 1024);
        assert!(stats.dependent_steps <= 2 * 11);
    }

    #[test]
    fn zero_pivot_is_an_error() {
        let a = toeplitz(1, 4, -1.0, 0.0, -1.0);
        let b = vec![1.0; 4];
        assert!(cr_solve(a.dl_of(0), a.d_of(0), a.du_of(0), &b).is_err());
        assert!(thomas_solve(a.dl_of(0), a.d_of(0), a.du_of(0), &b).is_err());
    }

    #[test]
    fn nonsymmetric_system_solves() {
        let a = toeplitz(1, 33, -0.3, 2.0, -1.7);
        let b: Vec<f64> = (0..33).map(|k| k as f64).collect();
        let x = cr_solve(a.dl_of(0), a.d_of(0), a.du_of(0), &b).unwrap();
        // Verify by SpMV.
        let mut r = vec![0.0; 33];
        a.spmv_system(0, &x, &mut r);
        for k in 0..33 {
            assert!((r[k] - b[k]).abs() < 1e-10);
        }
    }
}
