//! Kernel probes on a workload's own inputs, and the STREAM-triad host
//! bandwidth probe. Every probe runs on one thread and reports the
//! median of repeated passes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use batsolv_blas::{axpy, dot};
use batsolv_formats::{BatchBanded, BatchCsr, BatchEll, BatchMatrix, BatchVectors};
use batsolv_gpusim::{BlockStats, DeviceSpec, SimKernel, TrafficProfile};
use batsolv_runtime::{BatchExecutor, ExecMode};
use batsolv_solvers::direct::BatchBandedLu;
use batsolv_solvers::{AbsResidual, BatchBicgstab, Ilu0, Jacobi, Preconditioner};
use batsolv_trace::Tracer;
use batsolv_xgc::XgcWorkload;

use crate::check::{true_residual, TOL};
use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::median;

/// Last-level cache of the reference machine (`lscpu`: one 300 MiB L3).
pub const LLC_BYTES: usize = 300 << 20;
/// Each STREAM array is four times the last-level cache: 1200 MiB.
pub const STREAM_ARRAY_BYTES: usize = 4 * LLC_BYTES;
/// Timed passes per probe.
const REPS: usize = 5;
/// Systems the banded-LU probe factors and solves.
const LU_SYSTEMS: usize = 16;

/// Median wall time of `REPS` runs of `f`, after one warm-up run.
fn time_median(mut f: impl FnMut()) -> Duration {
    f();
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&mut samples))
}

/// Single-threaded STREAM triad `a = b + s·c` over three arrays of
/// [`STREAM_ARRAY_BYTES`] each. Returns GB/s counting 3 × 8 bytes per
/// element (no write-allocate traffic).
pub fn stream_triad_gbs() -> f64 {
    let n = STREAM_ARRAY_BYTES / 8;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
                *ai = bi + s * ci;
            }
            black_box(&a);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    assert_eq!(a[n / 2], 7.0, "triad result");
    (3 * STREAM_ARRAY_BYTES) as f64 / median(&mut samples) / 1e9
}

/// Simulated device time of one fused whole-batch SpMV, µs.
fn spmv_sim_us<M: BatchMatrix<f64>>(device: &DeviceSpec, a: &M) -> f64 {
    let counts = a.spmv_counts(device.warp_size);
    let n = a.dims().num_rows;
    let block = BlockStats {
        iterations: 1,
        converged: true,
        syncs: 0,
        reductions: 0,
        hidden_reductions: 0,
        counts,
        dependent_steps: 1,
        traffic: TrafficProfile {
            ro_working_set: (a.value_bytes_per_system() + a.shared_index_bytes() + n * 8) as u64,
            shared_ro_working_set: a.shared_index_bytes() as u64,
            ro_requested: counts.global_read_bytes,
            rw_working_set: 0,
            rw_requested: 0,
            write_once: counts.global_write_bytes,
            shared_bytes: counts.shared_read_bytes + counts.shared_write_bytes,
        },
    };
    SimKernel {
        device,
        shared_per_block: 0,
        launches: 1,
        reduction_width: 0,
    }
    .price(&vec![block; a.dims().num_systems])
    .time_s
        * 1e6
}

/// The kernel probes on `w`'s systems. Sets the `formats`, `blas` and
/// `solvers` apply metrics and `host.stream_gbs`.
pub fn kernels(w: &XgcWorkload, metrics: &mut Metrics, spans: &Spans) {
    let device = DeviceSpec::v100();
    let csr: &BatchCsr<f64> = &w.matrices;
    let dims = csr.dims();
    let (systems, n) = (dims.num_systems, dims.num_rows);
    let nnz = csr.pattern().nnz();
    let op = 0;

    let stream_gbs = {
        let _s = spans.enter("host.stream_triad", None, op);
        stream_triad_gbs()
    };
    metrics.set("host.stream_gbs", stream_gbs);

    let t = {
        let _s = spans.enter("formats.BatchEll::from_csr", None, op);
        time_median(|| {
            black_box(BatchEll::from_csr(black_box(csr)).expect("ELL conversion"));
        })
    };
    metrics.set(
        "formats.from_csr_us_per_system",
        t.as_secs_f64() * 1e6 / systems as f64,
    );

    let ell = BatchEll::from_csr(csr).expect("ELL conversion");
    let x = w.warm_guess.clone();
    let mut y = BatchVectors::zeros(dims);
    let t = {
        let _s = spans.enter("formats.BatchMatrix::spmv", None, op);
        time_median(|| ell.spmv(black_box(&x), &mut y).expect("SpMV"))
    };
    let bytes = systems * (ell.value_bytes_per_system() + 2 * n * 8) + ell.shared_index_bytes();
    metrics.set(
        "formats.spmv_ns_per_nnz",
        t.as_secs_f64() * 1e9 / (systems * nnz) as f64,
    );
    metrics.set("formats.spmv_bytes_computed", bytes as f64);
    metrics.set(
        "formats.spmv_bw_frac",
        bytes as f64 / t.as_secs_f64() / 1e9 / stream_gbs,
    );
    metrics.set("formats.spmv_sim_us", spmv_sim_us(&device, &ell));

    let t = {
        let _s = spans.enter("blas.dot", None, op);
        time_median(|| {
            for i in 0..systems {
                black_box(dot(w.rhs.system(i), w.warm_guess.system(i)));
            }
        })
    };
    metrics.set(
        "blas.dot_ns_per_elem",
        t.as_secs_f64() * 1e9 / (systems * n) as f64,
    );
    let t = {
        let _s = spans.enter("blas.axpy", None, op);
        time_median(|| {
            for i in 0..systems {
                axpy(black_box(1e-3), w.rhs.system(i), y.system_mut(i));
            }
        })
    };
    metrics.set(
        "blas.axpy_ns_per_elem",
        t.as_secs_f64() * 1e9 / (systems * n) as f64,
    );

    let jacobi: Vec<Vec<f64>> = (0..systems)
        .map(|i| Jacobi.generate(csr, i).expect("Jacobi setup"))
        .collect();
    let t = {
        let _s = spans.enter("solvers.Jacobi::apply", None, op);
        time_median(|| {
            for (i, state) in jacobi.iter().enumerate() {
                Jacobi.apply(state, w.rhs.system(i), y.system_mut(i));
            }
        })
    };
    metrics.set(
        "solvers.jacobi_apply_ns_per_row",
        t.as_secs_f64() * 1e9 / (systems * n) as f64,
    );

    let ilu = Ilu0::new(std::sync::Arc::clone(csr.pattern()));
    let states: Vec<_> = (0..systems)
        .map(|i| ilu.generate(csr, i).expect("ILU(0) factorization"))
        .collect();
    let t = {
        let _s = spans.enter("solvers.Ilu0::apply", None, op);
        time_median(|| {
            for (i, state) in states.iter().enumerate() {
                ilu.apply(state, w.rhs.system(i), y.system_mut(i));
            }
        })
    };
    metrics.set(
        "solvers.ilu0_apply_ns_per_row",
        t.as_secs_f64() * 1e9 / (systems * n) as f64,
    );

    let lu_n = LU_SYSTEMS.min(systems);
    let lu_csr = BatchCsr::from_system_values(
        std::sync::Arc::clone(csr.pattern()),
        &(0..lu_n)
            .map(|i| csr.values_of(i).to_vec())
            .collect::<Vec<_>>(),
    )
    .expect("banded-LU sub-batch");
    let banded = BatchBanded::from_csr(&lu_csr).expect("banded conversion");
    let lu_dims = banded.dims();
    let b = BatchVectors::from_fn(lu_dims, |s, r| w.rhs.system(s)[r]);
    let mut xl = BatchVectors::zeros(lu_dims);
    let t = {
        let _s = spans.enter("solvers.BatchBandedLu::solve", None, op);
        time_median(|| {
            BatchBandedLu
                .solve(&device, &banded, &b, &mut xl)
                .expect("banded LU");
        })
    };
    metrics.set(
        "solvers.banded_lu_ms_per_system",
        t.as_secs_f64() * 1e3 / lu_n as f64,
    );
}

/// One `BatchExecutor` solve of up to 128 of `w`'s systems, as the
/// service's rung 1 runs it: sets the `solvers` iteration metrics and
/// the `gpusim` launch metrics for workloads that reach the executor
/// only through a service.
pub fn executor(w: &XgcWorkload, metrics: &mut Metrics, spans: &Spans) -> f64 {
    let take = w.num_systems().min(128);
    let csr = BatchCsr::from_system_values(
        std::sync::Arc::clone(w.matrices.pattern()),
        &(0..take)
            .map(|i| w.matrices.values_of(i).to_vec())
            .collect::<Vec<_>>(),
    )
    .expect("executor sub-batch");
    let dims = csr.dims();
    let b = BatchVectors::from_fn(dims, |s, r| w.rhs.system(s)[r]);
    let mut x = BatchVectors::from_fn(dims, |s, r| w.warm_guess.system(s)[r]);
    let ell = BatchEll::from_csr(&csr).expect("ELL conversion");
    let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(TOL)).with_fused_axpy(true);
    let exec = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Concurrent)
        .with_tracer(Tracer::disabled());
    let t0 = Instant::now();
    let report = {
        let _s = spans.enter("runtime.BatchExecutor::execute", None, 0);
        exec.execute(&solver, &ell, &b, &mut x)
            .expect("executor probe")
    };
    let wall = t0.elapsed().as_secs_f64();
    let iters: Vec<(bool, u32)> = report
        .per_system
        .iter()
        .enumerate()
        .map(|(i, s)| (i % 2 == 0, s.iterations))
        .collect();
    let max_res = (0..take)
        .map(|i| true_residual(&csr, i, b.system(i), x.system(i)))
        .fold(0.0, f64::max);
    let global = report.fused.as_ref().map_or(0, |f| f.global_vector_bytes) as f64
        / (dims.num_rows * 8) as f64;
    set_solver_metrics(
        metrics,
        &[wall * 1e3],
        &iters,
        dims.num_rows,
        report.syncs_per_iteration,
        report.launches as f64,
        global,
    );
    max_res
}

/// The `solvers` iteration and `gpusim` launch metrics from executor
/// wall times (ms), per-system iterations `(is_ion, iterations)` and the
/// launch report.
pub fn set_solver_metrics(
    metrics: &mut Metrics,
    execute_ms: &[f64],
    iterations: &[(bool, u32)],
    rows: usize,
    syncs_per_iter: f64,
    launches: f64,
    global_vectors: f64,
) {
    let mean_of = |ion: bool| {
        let v: Vec<f64> = iterations
            .iter()
            .filter(|(is_ion, _)| *is_ion == ion)
            .map(|&(_, k)| f64::from(k))
            .collect();
        crate::stats::mean(&v)
    };
    let total_iters: f64 = iterations.iter().map(|&(_, k)| f64::from(k)).sum();
    let mut ms = execute_ms.to_vec();
    metrics.set("runtime.execute_ms", median(&mut ms));
    metrics.set(
        "solvers.iter_ns_per_row",
        execute_ms.iter().sum::<f64>() * 1e6 / (total_iters * rows as f64).max(1.0),
    );
    metrics.set("solvers.iters_ion_mean", mean_of(true));
    metrics.set("solvers.iters_electron_mean", mean_of(false));
    metrics.set("gpusim.syncs_per_iter", syncs_per_iter);
    metrics.set("gpusim.launches_per_batch", launches);
    metrics.set("gpusim.global_vectors", global_vectors);
}
