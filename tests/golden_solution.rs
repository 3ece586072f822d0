//! Bitwise golden check of the paper's solve path: a seeded 992-row XGC
//! batch, converted to ELL and solved by fused BiCGSTAB + Jacobi through
//! `BatchExecutor`. The constant was recorded before the run-time FMA
//! dispatch in `batsolv-gpusim` existed, so any change in host code
//! generation that altered a single bit of any solution fails here.

use batsolv::prelude::*;
use batsolv::runtime::{BatchExecutor, ExecMode};

/// FNV-1a over the bit patterns of a solution.
fn solution_hash(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

const GOLDEN: u64 = 0x0863_4aab_ed44_9f80;

#[test]
fn fused_bicgstab_on_ell_reproduces_the_golden_hash() {
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), 4, 20_221_004).unwrap();
    assert_eq!(w.matrices.dims().num_rows, 992);
    let ell = BatchEll::from_csr(&w.matrices).unwrap();
    let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10)).with_fused_axpy(true);
    let exec = BatchExecutor::new(DeviceSpec::v100(), ExecMode::Concurrent);
    let mut x = w.warm_guess.clone();
    let report = exec.execute(&solver, &ell, &w.rhs, &mut x).unwrap();
    assert!(report.per_system.iter().all(|r| r.converged));
    assert_eq!(
        solution_hash(x.values()),
        GOLDEN,
        "hash {:#018x}",
        solution_hash(x.values())
    );
}
