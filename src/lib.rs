//! # batsolv — batched sparse iterative solvers for fusion collision kernels
//!
//! A from-scratch Rust reproduction of *"Batched sparse iterative solvers
//! on GPU for the collision operator for fusion plasma simulations"*
//! (Kashi, Nayak, Kulkarni, Scheinberg, Lin, Anzt — IPDPS 2022): the
//! batched matrix formats, the fused single-kernel BiCGSTAB with
//! per-system convergence, the automatic shared-memory workspace
//! configuration, the direct-solver baselines (`dgbsv`-style banded LU,
//! Givens sparse QR), the XGC collision-kernel proxy app, and a GPU
//! execution-model simulator that regenerates the paper's performance
//! figures without GPU hardware.
//!
//! ## Quickstart
//!
//! ```
//! use batsolv::prelude::*;
//!
//! // A batch of XGC-like systems: 4 mesh nodes × (ion + electron).
//! let workload = XgcWorkload::generate(VelocityGrid::small(10, 9), 4, 7).unwrap();
//!
//! // Batched BiCGSTAB + Jacobi at the paper's tolerance, priced on a
//! // simulated A100.
//! let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10));
//! let mut x = BatchVectors::zeros(workload.rhs.dims());
//! let report = solver
//!     .solve(&DeviceSpec::a100(), &workload.matrices, &workload.rhs, &mut x)
//!     .unwrap();
//!
//! assert!(report.all_converged());
//! println!(
//!     "solved {} systems in {:.1} simulated microseconds ({})",
//!     report.per_system.len(),
//!     report.time_s() * 1e6,
//!     report.plan_description,
//! );
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `batsolv-types` | scalars, complex numbers, errors, op counts |
//! | [`formats`] | `batsolv-formats` | `BatchCsr`, `BatchEll`, `BatchDia`, `BatchDense`, banded |
//! | [`blas`] | `batsolv-blas` | batched dense kernels + small LU |
//! | [`gpusim`] | `batsolv-gpusim` | device models, scheduler, cache model, simulated timing |
//! | [`solvers`] | `batsolv-solvers` | BiCGSTAB/CG/CGS/GMRES, preconditioners, direct baselines |
//! | [`eigen`] | `batsolv-eigen` | Hessenberg + Francis QR eigensolver |
//! | [`xgc`] | `batsolv-xgc` | collision-kernel proxy app (grid, operator, Picard loop) |
//! | [`runtime`] | `batsolv-runtime` | shard worker core of both serving stacks, and the dynamic-batching solve service on it (admission gate, escalation ladder, blame isolation, watchdog, circuit breaker, stats) |
//! | [`faults`] | `batsolv-faults` | deterministic fault injection (seeded `FaultPlan`, data poisoning, launch disruption) |

pub use batsolv_blas as blas;
pub use batsolv_eigen as eigen;
pub use batsolv_faults as faults;
pub use batsolv_formats as formats;
pub use batsolv_gpusim as gpusim;
pub use batsolv_runtime as runtime;
pub use batsolv_solvers as solvers;
pub use batsolv_types as types;
pub use batsolv_xgc as xgc;

/// The items most programs need.
pub mod prelude {
    pub use batsolv_formats::{
        BatchBanded, BatchCsr, BatchDense, BatchDia, BatchEll, BatchMatrix, BatchVectors,
        SparsityPattern,
    };
    pub use batsolv_gpusim::{DeviceSpec, Scheduling, SimKernel};
    pub use batsolv_runtime::{
        RejectReason, RungAttempt, RuntimeConfig, SolveError, SolveMethod, SolveRequest,
        SolveService, SubmitError,
    };
    pub use batsolv_solvers::direct::{BatchBandedLu, BatchDenseLu, BatchSparseQr};
    pub use batsolv_solvers::{
        AbsResidual, BatchBicgstab, BatchCg, BatchCgs, BatchGmres, BatchSolveReport, BlockJacobi,
        Identity, Ilu0, Jacobi, MixedPrecisionBicgstab, NeumannPolynomial, RelResidual,
        SystemResult,
    };
    pub use batsolv_types::{BatchDims, Complex, Error, OpCounts, Result, Scalar};
    pub use batsolv_xgc::picard::SolverKind;
    pub use batsolv_xgc::{
        CollisionProxy, Moments, MultiSpeciesProxy, Species, VelocityGrid, XgcWorkload,
    };
}
