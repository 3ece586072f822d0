//! `collision-batch`: the paper's evaluation shape. Batches of 128
//! interleaved ion/electron XGC systems on the 32×31 (992-row) grid,
//! each converted to ELL and solved by fused BiCGSTAB with scalar Jacobi
//! to absolute 1e-10 through `BatchExecutor` (concurrent, V100 model),
//! in a closed loop from one caller thread.

use std::time::{Duration, Instant};

use batsolv_formats::BatchEll;
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{BatchExecutor, ExecMode};
use batsolv_solvers::{AbsResidual, BatchBicgstab, Jacobi};
use batsolv_trace::Tracer;
use batsolv_xgc::{VelocityGrid, XgcWorkload};

use crate::check::{meets_tol, solution_hash, true_residual, TOL};
use crate::inputs::derive_seed;
use crate::report::Outcome;
use crate::spans::Spans;

/// Ion/electron pairs per batch: 128 systems.
pub const PAIRS: usize = 64;
/// Distinct batches generated per seed and cycled through.
pub const BATCHES: usize = 4;

/// The pre-generated batches of one seed.
pub struct Inputs {
    pub batches: Vec<XgcWorkload>,
}

pub fn setup(seed: u64) -> Inputs {
    let batches = (0..BATCHES)
        .map(|k| {
            XgcWorkload::generate(
                VelocityGrid::xgc_standard(),
                PAIRS,
                derive_seed(seed, &format!("collision/{k}")),
            )
            .expect("XGC batch generation")
        })
        .collect();
    Inputs { batches }
}

/// What one measured phase saw.
#[derive(Default)]
pub struct Phase {
    /// Wall time of each batch (ELL conversion + execute), ms.
    pub batch_ms: Vec<f64>,
    /// Wall time of the whole closed loop, s.
    pub wall_s: f64,
    pub verified_systems: u64,
    pub outcome: Outcome,
    /// Simulated device time summed over batches, s.
    pub sim_s: f64,
    pub systems: u64,
    /// Iterations of every solved system: (is_ion, iterations).
    pub iterations: Vec<(bool, u32)>,
    pub max_residual: f64,
    pub syncs_per_iter: f64,
    pub launches_per_batch: f64,
    pub global_vectors: f64,
    pub rows: usize,
    /// Hash of each batch's first solution; every repeat must match it.
    pub hashes: Vec<u64>,
}

/// Solve batches in a closed loop for `budget`, and every batch at
/// least once.
pub fn run(inputs: &Inputs, budget: Duration, spans: &Spans, tracer: Tracer) -> Phase {
    let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(TOL)).with_fused_axpy(true);
    let exec = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Concurrent).with_tracer(tracer);
    let mut hashes: Vec<Option<u64>> = vec![None; inputs.batches.len()];
    let mut phase = Phase {
        rows: inputs.batches[0].grid.num_nodes(),
        ..Phase::default()
    };
    let start = Instant::now();
    let mut op = 0u64;
    while (op as usize) < inputs.batches.len() || start.elapsed() < budget {
        let k = op as usize % inputs.batches.len();
        let w = &inputs.batches[k];
        let n_sys = w.num_systems();
        let root = spans.enter("bench.batch", None, op);
        let mut x = w.warm_guess.clone();
        let t0 = Instant::now();
        let ell = {
            let _s = spans.enter("formats.BatchEll::from_csr", root.id(), op);
            BatchEll::from_csr(&w.matrices)
        };
        let report = ell.and_then(|ell| {
            let _s = spans.enter("runtime.BatchExecutor::execute", root.id(), op);
            exec.execute(&solver, &ell, &w.rhs, &mut x)
        });
        let dt = t0.elapsed();
        phase.outcome.attempted += n_sys as u64;
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("collision-batch: batch {op} failed: {e}");
                phase.outcome.failed += n_sys as u64;
                op += 1;
                continue;
            }
        };
        phase.batch_ms.push(dt.as_secs_f64() * 1e3);
        phase.sim_s += report.sim_time_s;
        phase.systems += n_sys as u64;
        phase.syncs_per_iter = report.syncs_per_iteration;
        phase.launches_per_batch = report.launches as f64;
        if let Some(f) = &report.fused {
            phase.global_vectors = f.global_vector_bytes as f64 / (phase.rows * 8) as f64;
        }
        {
            let _s = spans.enter("formats.spmv_system", root.id(), op);
            for (i, sys) in report.per_system.iter().enumerate() {
                phase.iterations.push((i % 2 == 0, sys.iterations));
                let res = true_residual(&w.matrices, i, w.rhs.system(i), x.system(i));
                phase.max_residual = phase.max_residual.max(res);
                if !sys.converged || !meets_tol(res) {
                    phase.outcome.failed += 1;
                    if sys.converged {
                        eprintln!("collision-batch: system {i} claims convergence at true residual {res:e}");
                        phase.outcome.wrong += 1;
                    }
                } else {
                    phase.verified_systems += 1;
                }
            }
        }
        let h = solution_hash(x.values());
        match hashes[k] {
            None => hashes[k] = Some(h),
            Some(prev) if prev != h => {
                eprintln!("collision-batch: batch {k} solution hash changed between repeats");
                phase.outcome.wrong += 1;
            }
            Some(_) => {}
        }
        op += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.hashes = hashes.into_iter().flatten().collect();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let a = setup(7);
        let b = setup(7);
        let c = setup(8);
        assert_eq!(a.batches.len(), BATCHES);
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x.num_systems(), 2 * PAIRS);
            assert_eq!(x.matrices.values_of(0), y.matrices.values_of(0));
            assert_eq!(
                x.matrices.values_of(2 * PAIRS - 1),
                y.matrices.values_of(2 * PAIRS - 1)
            );
            assert_eq!(x.rhs.values(), y.rhs.values());
        }
        assert_ne!(a.batches[0].rhs.values(), c.batches[0].rhs.values());
        // Distinct batches within one seed.
        assert_ne!(a.batches[0].rhs.values(), a.batches[1].rhs.values());
    }
}
