//! `batsolv-runtime` — the serving core: a supervised shard worker and
//! the dynamic-batching solve service built on it.
//!
//! The paper's batched solvers assume the caller already *has* a batch:
//! XGC hands over all ~44k mesh-node systems of a time step at once. In
//! a coupled-code or service setting the systems instead arrive one at a
//! time, from many threads, and the launch-overhead amortization that
//! makes batching pay (Figure 4) has to be manufactured at runtime. This
//! crate does that with the continuous-batching shape used by inference
//! servers, hardened for faulty inputs and a faulty backend:
//!
//! * a **shard worker core** ([`shard`], [`work`]) — a bounded chunk
//!   queue with explicit backpressure and one supervised worker thread
//!   per shard, with deadline budgets, retries, blame isolation, steal
//!   and hedge, and exactly-once outcome slots. `batsolv-fleet` runs one
//!   shard per device; [`SolveService`] is a one-shard fleet;
//! * an **admission gate** — non-finite values/RHS/guess and unusable
//!   Jacobi diagonals bounce with [`SubmitError::Rejected`] *before* they
//!   can poison a fused launch shared with healthy requests, and a full
//!   queue rejects with [`SubmitError::QueueFull`];
//! * a **batch former** as the service worker's front stage, with two
//!   flush triggers — target batch size reached, or the oldest request
//!   aged past a configurable linger time;
//! * an **escalation ladder** ([`LadderEngine`]) running each formed
//!   batch as one fused [`BatchBicgstab`](batsolv_solvers::BatchBicgstab)
//!   launch, retrying stragglers with restarted GMRES and, last, the
//!   banded-LU direct solver (`dgbsv` baseline); every rung attempted is
//!   recorded in the outcome ([`RungAttempt`]);
//! * **blame isolation** — a panic or simulated device failure during a
//!   fused dispatch is caught, the batch is re-run one system at a time
//!   so blame lands on the request that provokes it
//!   ([`SolveError::WorkerPanic`] / [`SolveError::DeviceFailure`]), and
//!   healthy neighbors still get their solutions; a panic elsewhere in
//!   the loop respawns it;
//! * a **watchdog** thread flagging dispatches that exceed a time budget
//!   and a **circuit breaker** shedding load with
//!   [`SubmitError::CircuitOpen`] after a run of degraded batches;
//! * **per-request outcomes**, exactly one per accepted request,
//!   delivered through a [`Ticket`], and a per-shard **stats registry**
//!   with the full failure taxonomy, read via [`SolveService::stats`].
//!
//! ```
//! use std::sync::Arc;
//! use batsolv_formats::SparsityPattern;
//! use batsolv_gpusim::DeviceSpec;
//! use batsolv_runtime::{RuntimeConfig, SolveRequest, SolveService};
//!
//! // Shared 5-point stencil; every request supplies its own values.
//! let pattern = Arc::new(SparsityPattern::stencil_2d(8, 8, false));
//! let config = RuntimeConfig::new(DeviceSpec::v100())
//!     .with_batch_target(4)
//!     .with_linger(std::time::Duration::from_millis(1));
//! let service = SolveService::start(Arc::clone(&pattern), config).unwrap();
//!
//! // Diagonally dominant values: 8 on the diagonal, -1 off it.
//! let values: Vec<f64> = (0..pattern.num_rows())
//!     .flat_map(|r| {
//!         pattern.row_cols(r).iter().map(move |&c| {
//!             if c as usize == r { 8.0 } else { -1.0 }
//!         })
//!     })
//!     .collect();
//! let ticket = service
//!     .submit(SolveRequest::new(values, vec![1.0; pattern.num_rows()]))
//!     .unwrap();
//! let solution = ticket.wait().unwrap();
//! assert!(solution.residual <= 1e-10);
//! let stats = service.shutdown();
//! assert_eq!(stats.accepted, 1);
//! ```

pub mod admission;
pub mod autotune;
pub mod breaker;
pub mod budget;
pub mod classes;
pub mod config;
pub mod degrade;
pub mod dispatcher;
pub mod executor;
pub mod former;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod reservoir;
pub mod service;
pub mod shard;
pub mod stats;
pub mod terminal;
pub mod watchdog;
pub mod work;

pub use admission::{AdmissionGate, RejectReason};
pub use autotune::{AutoTuner, AutoTunerConfig, Decision};
pub use breaker::{BreakerConfig, CircuitBreaker};
pub use budget::DeadlineBudget;
pub use classes::{ClassStats, ClassTracker, ClassesSnapshot};
pub use config::{DegradeConfig, HedgeConfig, RetryPolicy, RuntimeConfig};
pub use dispatcher::{
    BatchItem, BatchReport, ItemOutcome, LadderConfig, LadderEngine, PrecondVariant, SimSplit,
    SolveEngine, SolverVariant,
};
pub use executor::{BatchExecutor, ExecMode, ExecReport};
pub use former::{BatchFormer, FlushReason};
pub use metrics::{
    prometheus_text, prometheus_text_full, prometheus_text_with_classes, render_class_series,
};
pub use queue::{BoundedQueue, PopResult, PushResult};
pub use request::{
    RequestId, RungAttempt, Solution, SolveError, SolveMethod, SolveOutcome, SolveRequest,
    SubmitError, Ticket,
};
pub use reservoir::{percentile_us, Reservoir, DEFAULT_RESERVOIR_CAPACITY};
pub use service::SolveService;
pub use shard::ShardSnapshot;
pub use stats::{StatsRegistry, StatsSnapshot};
pub use terminal::{panic_detail, settle, Phases, Terminals};
pub use watchdog::{spawn_watchdog, WatchState};
pub use work::GroupTicket;
