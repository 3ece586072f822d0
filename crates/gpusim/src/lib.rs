#![allow(clippy::needless_range_loop)] // indexed loops are the clearest idiom for stencil/linear-algebra kernels
//! GPU execution-model simulator.
//!
//! The paper evaluates batched solvers on NVIDIA V100/A100 and AMD MI100
//! GPUs against a dual-socket Skylake node. This environment has no GPU,
//! so — per the substitution policy in `DESIGN.md` — this crate provides a
//! software model of the execution hierarchy those results depend on:
//!
//! * [`device`] — the processors of the paper's Table I as parameterized
//!   [`DeviceSpec`]s (peak FP64, memory bandwidth, L1/shared capacity, L2,
//!   compute-unit count, warp width, launch overhead);
//! * [`occupancy`] — how many thread blocks are resident per compute unit
//!   given their dynamic shared-memory footprint (Section IV.D);
//! * [`schedule`] — block-to-CU scheduling and makespan: greedy list
//!   scheduling for the NVIDIA parts (smooth curves in Figure 6) and
//!   wave-synchronous dispatch for the MI100 (the step pattern at
//!   multiples of its 120 CUs);
//! * [`cache`] — an L1/L2 residency model that converts requested traffic
//!   into DRAM traffic and produces the hit rates of Table II;
//! * [`model`] — the per-block timing model (issued warp instructions +
//!   memory time + serialized-stage latency) and whole-kernel pricing;
//! * [`sync`] — global-synchronization and tree-reduction pricing (the
//!   per-iteration barrier costs the pipelined solver variants attack);
//! * [`exec`] — actually runs the per-block numeric closures in parallel
//!   on CPU threads (rayon), so results are bit-exact while time is
//!   simulated;
//! * [`transfer`] — host↔device copy model for the Figure 1 timeline;
//! * [`timeline`] — builders folding priced launches and transfers into
//!   `batsolv-trace` timeline events;
//! * [`hook`] — pre-launch disruption seam ([`LaunchHook`]) used by the
//!   dispatch layer for chaos testing: simulated launch failures, stalls,
//!   and worker panics.
//!
//! Numerics are always executed for real; only *time* is modeled.

pub mod cache;
pub mod device;
pub mod exec;
pub mod hook;
pub mod model;
pub mod occupancy;
pub mod schedule;
pub mod sync;
pub mod timeline;
pub mod transfer;

pub use cache::{CacheOutcome, TrafficProfile};
pub use device::{DeviceClass, DeviceSpec, Scheduling};
pub use exec::{run_batch, run_batch_map_mut, run_batch_mut};
pub use hook::{LaunchDisruption, LaunchHook, NoDisruption};
pub use model::{BlockStats, KernelReport, SimKernel};
pub use occupancy::{max_threads_per_block, resident_blocks_per_cu, warps_per_block};
pub use schedule::makespan;
pub use sync::{reduction_depth, reduction_time_s, sync_time_s};
pub use timeline::{kernel_launch_event, reduction_event, sync_point_event, transfer_event};
pub use transfer::{transfer_time, Direction};
