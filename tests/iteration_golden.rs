//! Bitwise golden check of the BiCGSTAB iteration itself: every
//! per-system record (`iterations`, `residual` bits, `converged`,
//! `breakdown`) and every solution bit of BiCGSTAB + Jacobi, on ELL and
//! on CSR, at the paper's 992 rows and at 99 rows (not a multiple of the
//! ELL kernel's 8-row block, so its tail loop runs). A run capped at 3
//! iterations pins the residual of a non-converged exit too. Both values
//! of `fused_axpy` must give the same bits. The constants were recorded
//! before the SpMV became row-blocked and the reductions moved into the
//! vector passes; any change to a single bit of a result fails here.

use batsolv::prelude::*;

/// FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One golden case: grid and iteration cap.
struct Case {
    name: &'static str,
    /// `(n_par, n_perp)` of the velocity grid.
    grid: (usize, usize),
    max_iters: usize,
    golden: u64,
}

const CASES: [Case; 4] = [
    Case {
        name: "992",
        grid: (32, 31),
        max_iters: 500,
        golden: 0xf590_3bae_e690_b73f,
    },
    Case {
        name: "992/cap3",
        grid: (32, 31),
        max_iters: 3,
        golden: 0xfbda_3b6b_9cf3_6884,
    },
    Case {
        name: "99",
        grid: (11, 9),
        max_iters: 500,
        golden: 0xd441_a6df_00d9_3b6a,
    },
    Case {
        name: "99/cap3",
        grid: (11, 9),
        max_iters: 3,
        golden: 0xb431_7604_399b_c411,
    },
];

/// Solve `case` on ELL or CSR with the given `fused_axpy` flag and hash
/// every per-system record and solution bit.
fn run(case: &Case, ell: bool, fused_axpy: bool) -> u64 {
    let w = XgcWorkload::generate(VelocityGrid::small(case.grid.0, case.grid.1), 3, 20_261_017)
        .unwrap();
    let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
        .with_max_iters(case.max_iters)
        .with_fused_axpy(fused_axpy);
    let dev = DeviceSpec::v100();
    let mut x = w.warm_guess.clone();
    let report = if ell {
        let ell = BatchEll::from_csr(&w.matrices).unwrap();
        solver.solve(&dev, &ell, &w.rhs, &mut x).unwrap()
    } else {
        solver.solve(&dev, &w.matrices, &w.rhs, &mut x).unwrap()
    };
    let capped = case.max_iters < 500;
    // A capped run must leave systems short of the tolerance (the
    // electron-like ones); a full run must bring every system to it.
    assert_eq!(
        report.all_converged(),
        !capped,
        "{}: capped {capped}",
        case.name
    );
    let mut h = Fnv::new();
    for r in &report.per_system {
        h.u64(u64::from(r.iterations));
        h.u64(r.residual.to_bits());
        h.u64(u64::from(r.converged));
        h.bytes(r.breakdown.unwrap_or("-").as_bytes());
    }
    for v in x.values() {
        h.u64(v.to_bits());
    }
    h.0
}

#[test]
fn bicgstab_iteration_reproduces_the_golden_hashes() {
    let mut moved = Vec::new();
    for case in &CASES {
        for (format, ell) in [("ell", true), ("csr", false)] {
            for fused_axpy in [false, true] {
                let h = run(case, ell, fused_axpy);
                println!("{:<9} {format} fused={fused_axpy:<5} {h:#018x}", case.name);
                if h != case.golden {
                    moved.push(format!("{}/{format}/fused={fused_axpy}", case.name));
                }
            }
        }
    }
    assert!(moved.is_empty(), "golden hashes moved: {moved:?}");
}
