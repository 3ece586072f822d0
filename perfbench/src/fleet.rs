//! `fleet-skew`: groups of 992-row XGC systems sent open-loop to a
//! 2-shard `FleetService` (default steal, V100 profile, CPU spill pool).
//! Group sizes are heavy-tailed: groups below `min_batch_size` spill to
//! banded LU on the CPU pool, groups above the chunk size are split
//! across shards. Placement hints skew arrivals toward shard 0, and every
//! request carries a deadline equal to the workload's latency limit.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use batsolv_fleet::{FleetConfig, FleetService, FleetSnapshot, GroupTicket};
use batsolv_runtime::{SolveError, SolveOutcome, SolveRequest, SubmitError};
use batsolv_trace::Tracer;
use batsolv_xgc::{VelocityGrid, XgcWorkload};

use crate::check::{meets_tol, true_residual};
use crate::inputs::{derive_seed, group_plan, GroupPlan};
use crate::report::Outcome;
use crate::spans::Spans;

/// GPU shards in the fleet.
pub const SHARDS: usize = 2;
/// Chunks smaller than this spill to the CPU pool.
pub const MIN_BATCH: usize = 32;
/// Systems per dispatched chunk; larger groups are split.
pub const CHUNK: usize = 64;
/// Ion/electron pairs in the system pool: 512 distinct systems.
pub const POOL_PAIRS: usize = 256;
/// Group arrivals per second.
pub const GROUP_RATE: f64 = 4.0;
/// The latency limit (and every request's deadline), ms. Fixed once
/// from a calibration run (`--calibrate --seed 1 --seconds 30` at 6
/// groups/s: p50 70 ms, p90 134 ms, p99 235 ms with no deadline) at
/// about twice its p99.
pub const LIMIT_MS: f64 = 500.0;

/// The system pool of one seed.
pub struct Inputs {
    pub pool: XgcWorkload,
}

pub fn setup(seed: u64) -> Inputs {
    let pool = XgcWorkload::generate(
        VelocityGrid::xgc_standard(),
        POOL_PAIRS,
        derive_seed(seed, "fleet/pool"),
    )
    .expect("XGC pool generation");
    Inputs { pool }
}

pub fn start_service(inputs: &Inputs, tracer: Tracer) -> FleetService {
    let config = FleetConfig::new(SHARDS)
        .with_min_batch_size(MIN_BATCH)
        .with_max_batch_size(CHUNK)
        .with_tracer(tracer);
    FleetService::start(Arc::clone(inputs.pool.pattern()), config).expect("fleet start")
}

pub fn plan(seed: u64, tag: &str, span: Duration, inputs: &Inputs) -> Vec<GroupPlan> {
    group_plan(seed, tag, GROUP_RATE, span, inputs.pool.num_systems())
}

/// What one open-loop phase saw.
#[derive(Default)]
pub struct Phase {
    /// Latency of each fully served group from its due time, ms.
    pub group_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    /// Queue wait of every served system, ms.
    pub queue_wait_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub batch_sizes: Vec<f64>,
    pub outcome: Outcome,
    pub groups: u64,
    pub slo_miss_groups: u64,
    pub rejected: u64,
    pub shed: u64,
    pub escalated: u64,
    pub wall_s: f64,
    pub max_residual: f64,
    pub snapshot: Option<FleetSnapshot>,
}

/// Send `plan` to `fleet`. `deadline` is attached to every request.
pub fn run(
    fleet: &FleetService,
    inputs: &Inputs,
    plan: &[GroupPlan],
    deadline: Option<Duration>,
    spans: &Spans,
) -> Phase {
    let pool = &inputs.pool;
    let n_pool = pool.num_systems();
    let (tx, rx) = mpsc::channel::<(u64, Instant, Result<GroupTicket, SubmitError>)>();
    let origin = Instant::now() + Duration::from_millis(1);
    let mut phase = Phase::default();
    let mut served: Vec<(usize, f64, Vec<SolveOutcome>)> = Vec::with_capacity(plan.len());
    thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(plan.len());
            let mut submit_us = Vec::with_capacity(plan.len());
            for (g, group) in plan.iter().enumerate() {
                let due = origin + group.due;
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let requests: Vec<SolveRequest> = (0..group.size)
                    .map(|m| {
                        let sys = pool.system((group.first + m) % n_pool);
                        let r = SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec())
                            .with_guess(sys.warm_guess.to_vec());
                        match deadline {
                            Some(d) => r.with_deadline(d),
                            None => r,
                        }
                    })
                    .collect();
                let t0 = Instant::now();
                let ticket = {
                    let _s = spans.enter("fleet.FleetService::submit_group", None, g as u64);
                    fleet.submit_group(requests, Some(group.hint))
                };
                submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                tx.send((g as u64, due, ticket)).expect("collector alive");
            }
            drop(tx);
            (late_ms, submit_us)
        });
        for (g, due, ticket) in rx {
            match ticket {
                Ok(t) => {
                    let outcomes = {
                        let _s = spans.enter("fleet.GroupTicket::wait_all", None, g);
                        t.wait_all()
                    };
                    served.push((g as usize, due.elapsed().as_secs_f64() * 1e3, outcomes));
                }
                Err(e) => {
                    eprintln!("fleet-skew: group {g} refused: {e}");
                    phase.rejected += plan[g as usize].size as u64;
                    phase.slo_miss_groups += 1;
                }
            }
        }
        let (late_ms, submit_us) = generator.join().expect("generator thread");
        phase.late_ms = late_ms;
        phase.submit_us = submit_us;
    });
    phase.wall_s = origin.elapsed().as_secs_f64();
    phase.snapshot = Some(fleet.snapshot());
    phase.groups = plan.len() as u64;
    phase.outcome.attempted = plan.iter().map(|g| g.size as u64).sum();
    phase.outcome.failed = phase.rejected;

    let limit = deadline.map_or(f64::INFINITY, |d| d.as_secs_f64() * 1e3);
    for (g, group_ms, outcomes) in served {
        let group = &plan[g];
        let mut group_ok = true;
        for (m, outcome) in outcomes.into_iter().enumerate() {
            let idx = (group.first + m) % n_pool;
            match outcome {
                Ok(sol) => {
                    let res = true_residual(&pool.matrices, idx, pool.rhs.system(idx), &sol.x);
                    phase.max_residual = phase.max_residual.max(res);
                    if !meets_tol(res) {
                        eprintln!(
                            "fleet-skew: system {idx} returned by {} at true residual {res:e}",
                            sol.method.name()
                        );
                        phase.outcome.failed += 1;
                        phase.outcome.wrong += 1;
                        group_ok = false;
                        continue;
                    }
                    if sol.rungs.len() > 1 {
                        phase.escalated += 1;
                    }
                    let wait_ms = sol.queue_wait.as_secs_f64() * 1e3;
                    phase.queue_wait_ms.push(wait_ms);
                    phase.service_ms.push(group_ms - wait_ms);
                    phase.batch_sizes.push(sol.batch_size as f64);
                }
                Err(e) => {
                    if matches!(e, SolveError::DeadlineExceeded { .. }) {
                        phase.shed += 1;
                    } else {
                        eprintln!("fleet-skew: system {idx} failed: {e}");
                    }
                    phase.outcome.failed += 1;
                    group_ok = false;
                }
            }
        }
        if group_ok {
            phase.group_ms.push(group_ms);
        }
        if !group_ok || group_ms > limit {
            phase.slo_miss_groups += 1;
        }
    }
    phase
}
