//! Host code generation must not change a single bit of any solve.
//!
//! Each iterative `*_block` kernel is called here directly, from test
//! code compiled for the baseline target, so its `mul_add`s go through
//! the portable libm path. The public `solve` runs the same kernel
//! through `batsolv_gpusim::run_batch_map_mut`, which on an x86-64 host
//! with FMA executes it in an FMA-enabled frame. Both must produce
//! bitwise-equal solutions and identical iteration counts for every
//! iterative solver on every format the XGC stencil converts to. On a
//! host without FMA both sides take the portable path.

use batsolv_formats::{BatchDia, BatchEll, BatchMatrix, BatchVectors};
use batsolv_gpusim::DeviceSpec;
use batsolv_types::Result;
use batsolv_xgc::{VelocityGrid, XgcWorkload};

use crate::bicgstab::{bicgstab_block, BatchBicgstab};
use crate::cg::{cg_block, BatchCg};
use crate::cgs::{cgs_block, BatchCgs};
use crate::common::{sanitize_block_result, BatchSolveReport, SystemResult};
use crate::gmres::{gmres_block, BatchGmres};
use crate::logger::NoopLogger;
use crate::pipelined_bicgstab::{pipelined_bicgstab_block, PipelinedBicgstab};
use crate::pipelined_cg::{pipelined_cg_block, PipelinedCg};
use crate::precond::Jacobi;
use crate::richardson::{richardson_block, BatchRichardson};
use crate::stop::AbsResidual;

/// Enough iterations for BiCGSTAB to converge on the small grid; the
/// solvers that do not converge on these nonsymmetric systems stop at
/// the cap, which is compared just the same.
const MAX_ITERS: usize = 80;

/// Solve every system of `w` with `direct` (one `*_block` call per
/// system, as the solver's block closure makes it) and with `public`,
/// and require bitwise-equal `x` and equal iteration counts.
fn assert_same<M: BatchMatrix<f64>>(
    label: &str,
    a: &M,
    w: &XgcWorkload,
    direct: impl Fn(&M, usize, &[f64], &mut [f64]) -> SystemResult,
    public: impl Fn(&M, &BatchVectors<f64>, &mut BatchVectors<f64>) -> Result<BatchSolveReport>,
) {
    let mut x_public = w.warm_guess.clone();
    let report = public(a, &w.rhs, &mut x_public).unwrap();
    for i in 0..w.num_systems() {
        let x0 = w.warm_guess.system(i);
        let mut xi = x0.to_vec();
        let r = direct(a, i, w.rhs.system(i), &mut xi);
        let r = sanitize_block_result(x0, &mut xi, r);
        assert_eq!(
            r.iterations, report.per_system[i].iterations,
            "{label}: system {i} iteration count"
        );
        for (k, (d, p)) in xi.iter().zip(x_public.system(i)).enumerate() {
            assert_eq!(
                d.to_bits(),
                p.to_bits(),
                "{label}: system {i} entry {k}: {d:e} vs {p:e}"
            );
        }
    }
}

fn every_iterative_solver<M: BatchMatrix<f64>>(format: &str, a: &M, w: &XgcWorkload) {
    let dev = DeviceSpec::v100();
    let stop = AbsResidual::new(1e-10);

    for fused in [false, true] {
        let s = BatchBicgstab::new(Jacobi, stop)
            .with_max_iters(MAX_ITERS)
            .with_fused_axpy(fused);
        assert_same(
            &format!("bicgstab(fused={fused})/{format}"),
            a,
            w,
            |a, i, b, x| {
                bicgstab_block(
                    a,
                    i,
                    b,
                    x,
                    &s.precond,
                    &s.stop,
                    s.max_iters,
                    fused,
                    &mut NoopLogger,
                )
            },
            |a, b, x| s.solve(&dev, a, b, x),
        );

        let s = BatchCg::new(Jacobi, stop)
            .with_max_iters(MAX_ITERS)
            .with_fused_axpy(fused);
        assert_same(
            &format!("cg(fused={fused})/{format}"),
            a,
            w,
            |a, i, b, x| cg_block(a, i, b, x, &s.precond, &s.stop, s.max_iters, fused),
            |a, b, x| s.solve(&dev, a, b, x),
        );
    }

    let s = BatchCgs::new(Jacobi, stop).with_max_iters(MAX_ITERS);
    assert_same(
        &format!("cgs/{format}"),
        a,
        w,
        |a, i, b, x| cgs_block(a, i, b, x, &s.precond, &s.stop, s.max_iters),
        |a, b, x| s.solve(&dev, a, b, x),
    );

    let s = BatchGmres::new(Jacobi, stop, 20).with_max_iters(MAX_ITERS);
    assert_same(
        &format!("gmres/{format}"),
        a,
        w,
        |a, i, b, x| {
            gmres_block(
                a,
                i,
                b,
                x,
                &s.precond,
                &s.stop,
                s.restart,
                s.max_iters,
                &mut NoopLogger,
            )
        },
        |a, b, x| s.solve(&dev, a, b, x),
    );

    let s = PipelinedBicgstab::new(Jacobi, stop).with_max_iters(MAX_ITERS);
    assert_same(
        &format!("pipelined-bicgstab/{format}"),
        a,
        w,
        |a, i, b, x| {
            pipelined_bicgstab_block(
                a,
                i,
                b,
                x,
                &s.precond,
                &s.stop,
                s.max_iters,
                &mut NoopLogger,
            )
        },
        |a, b, x| s.solve(&dev, a, b, x),
    );

    let s = PipelinedCg::new(Jacobi, stop).with_max_iters(MAX_ITERS);
    assert_same(
        &format!("pipelined-cg/{format}"),
        a,
        w,
        |a, i, b, x| pipelined_cg_block(a, i, b, x, &s.precond, &s.stop, s.max_iters),
        |a, b, x| s.solve(&dev, a, b, x),
    );

    let s = BatchRichardson::new(Jacobi, stop, 1.0).with_max_iters(MAX_ITERS);
    assert_same(
        &format!("richardson/{format}"),
        a,
        w,
        |a, i, b, x| richardson_block(a, i, b, x, &s.precond, &s.stop, s.omega, s.max_iters),
        |a, b, x| s.solve(&dev, a, b, x),
    );
}

#[test]
fn block_kernels_match_the_dispatched_solve_bitwise() {
    let w = XgcWorkload::generate(VelocityGrid::small(12, 11), 2, 42).unwrap();
    every_iterative_solver("csr", &w.matrices, &w);
    every_iterative_solver("ell", &BatchEll::from_csr(&w.matrices).unwrap(), &w);
    every_iterative_solver("dia", &BatchDia::from_csr(&w.matrices, 16).unwrap(), &w);
}
