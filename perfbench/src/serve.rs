//! `serve-stream`: single mesh-node requests on the small 10×9 (90-row)
//! grid, ion/electron 1:1, sent open-loop to a `SolveService` with its
//! default config (batch target 128, linger 2 ms, 1e-10). One generator
//! thread sends on a seeded Poisson schedule of absolute due times; one
//! collector thread waits on the tickets in order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{
    RuntimeConfig, SolveOutcome, SolveRequest, SolveService, StatsSnapshot, SubmitError,
};
use batsolv_trace::Tracer;
use batsolv_xgc::{VelocityGrid, XgcWorkload};

use crate::check::{meets_tol, true_residual};
use crate::inputs::{derive_seed, poisson_schedule};
use crate::report::Outcome;
use crate::spans::Spans;

/// Ion/electron pairs in the request pool: 4096 distinct systems.
pub const POOL_PAIRS: usize = 2048;
/// The fixed arrival rate, requests per second.
pub const FIXED_RATE: f64 = 2000.0;
/// The rate ladder for `runtime.max_rate_rps`, requests per second.
pub const LADDER: [f64; 6] = [2000.0, 4000.0, 8000.0, 16000.0, 32000.0, 64000.0];
/// Length of one ladder step.
pub const LADDER_STEP: Duration = Duration::from_millis(800);
/// The latency limit on the tail, ms.
pub const LIMIT_MS: f64 = 10.0;

pub fn grid() -> VelocityGrid {
    VelocityGrid::small(10, 9)
}

/// The request pool of one seed.
pub struct Inputs {
    pub pool: XgcWorkload,
}

pub fn setup(seed: u64) -> Inputs {
    let pool = XgcWorkload::generate(grid(), POOL_PAIRS, derive_seed(seed, "serve/pool"))
        .expect("XGC pool generation");
    Inputs { pool }
}

pub fn start_service(inputs: &Inputs, tracer: Tracer) -> SolveService {
    let config = RuntimeConfig::new(DeviceSpec::v100()).with_tracer(tracer);
    SolveService::start(Arc::clone(inputs.pool.pattern()), config).expect("service start")
}

/// What one open-loop phase saw.
#[derive(Default)]
pub struct Phase {
    /// Latency of each successful request from its due time, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub late_ms: Vec<f64>,
    /// Wall time of each `submit` call, µs.
    pub submit_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub outcome: Outcome,
    /// Requests that failed or missed the latency limit.
    pub slo_miss: u64,
    pub escalated: u64,
    pub rejected: u64,
    /// Requests outstanding at each send.
    pub outstanding: Vec<u64>,
    pub wall_s: f64,
    pub max_residual: f64,
    /// Service counters accumulated over the phase.
    pub sim_s: f64,
    pub batches: u64,
    pub batch_size_mean: f64,
}

impl Phase {
    /// Outstanding requests rose across the phase: the mean over its
    /// second half exceeds twice the first half's by more than one
    /// batch target.
    pub fn backlog_grew(&self) -> bool {
        let n = self.outstanding.len();
        if n < 4 {
            return false;
        }
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        let (first, second) = self.outstanding.split_at(n / 2);
        mean(second) > 2.0 * mean(first) + 128.0
    }
}

/// Send `schedule` (offsets from the phase start) to `service`.
pub fn run(service: &SolveService, inputs: &Inputs, schedule: &[Duration], spans: &Spans) -> Phase {
    let pool = &inputs.pool;
    let before = service.stats();
    let completed = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(u64, Instant, Result<batsolv_runtime::Ticket, SubmitError>)>();
    let origin = Instant::now() + Duration::from_millis(1);
    let mut phase = Phase::default();
    let mut outcomes: Vec<(usize, f64, SolveOutcome)> = Vec::with_capacity(schedule.len());
    thread::scope(|scope| {
        let completed = &completed;
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(schedule.len());
            let mut submit_us = Vec::with_capacity(schedule.len());
            let mut outstanding = Vec::with_capacity(schedule.len());
            for (i, off) in schedule.iter().enumerate() {
                let due = origin + *off;
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let sent = Instant::now();
                late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                let sys = pool.system(i % pool.num_systems());
                let request = SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec())
                    .with_guess(sys.warm_guess.to_vec());
                let t0 = Instant::now();
                let ticket = {
                    let _s = spans.enter("runtime.SolveService::submit", None, i as u64);
                    service.submit(request)
                };
                submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                outstanding.push(i as u64 - completed.load(Ordering::Relaxed));
                tx.send((i as u64, due, ticket)).expect("collector alive");
            }
            drop(tx);
            (late_ms, submit_us, outstanding)
        });
        for (i, due, ticket) in rx {
            let outcome = match ticket {
                Ok(t) => {
                    let _s = spans.enter("runtime.Ticket::wait", None, i);
                    Some(t.wait())
                }
                Err(e) => {
                    eprintln!("serve-stream: request {i} refused: {e}");
                    None
                }
            };
            let latency_ms = due.elapsed().as_secs_f64() * 1e3;
            completed.fetch_add(1, Ordering::Relaxed);
            match outcome {
                Some(o) => outcomes.push((i as usize % pool.num_systems(), latency_ms, o)),
                None => phase.rejected += 1,
            }
        }
        let (late_ms, submit_us, outstanding) = generator.join().expect("generator thread");
        phase.late_ms = late_ms;
        phase.submit_us = submit_us;
        phase.outstanding = outstanding;
    });
    phase.wall_s = origin.elapsed().as_secs_f64();
    let after = service.stats();
    account(&mut phase, &before, &after);

    phase.outcome.attempted = schedule.len() as u64;
    phase.outcome.failed = phase.rejected;
    phase.slo_miss = phase.rejected;
    for (idx, latency_ms, outcome) in outcomes {
        match outcome {
            Ok(sol) => {
                let res = true_residual(&pool.matrices, idx, pool.rhs.system(idx), &sol.x);
                phase.max_residual = phase.max_residual.max(res);
                if !meets_tol(res) {
                    eprintln!(
                        "serve-stream: system {idx} returned by {} at true residual {res:e}",
                        sol.method.name()
                    );
                    phase.outcome.failed += 1;
                    phase.outcome.wrong += 1;
                    phase.slo_miss += 1;
                    continue;
                }
                if latency_ms > LIMIT_MS {
                    phase.slo_miss += 1;
                }
                if sol.rungs.len() > 1 {
                    phase.escalated += 1;
                }
                let wait_ms = sol.queue_wait.as_secs_f64() * 1e3;
                phase.queue_wait_ms.push(wait_ms);
                phase.service_ms.push(latency_ms - wait_ms);
                phase.latency_ms.push(latency_ms);
            }
            Err(e) => {
                eprintln!("serve-stream: system {idx} failed: {e}");
                phase.outcome.failed += 1;
                phase.slo_miss += 1;
            }
        }
    }
    phase
}

fn account(phase: &mut Phase, before: &StatsSnapshot, after: &StatsSnapshot) {
    phase.sim_s = after.sim_time_total_s - before.sim_time_total_s;
    phase.batches = after.batches_formed - before.batches_formed;
    let dispatched = after.completed() - before.completed();
    phase.batch_size_mean = if phase.batches > 0 {
        dispatched as f64 / phase.batches as f64
    } else {
        0.0
    };
}

/// The fixed-rate schedule of one seed.
pub fn fixed_schedule(seed: u64, span: Duration) -> Vec<Duration> {
    poisson_schedule(seed, "serve/fixed", FIXED_RATE, span)
}

/// Climb the rate ladder; the highest step whose tail meets
/// [`LIMIT_MS`] with every request served and no growing backlog.
/// Stops at the first step that fails. Also returns the wrong outputs
/// the ladder saw.
pub fn max_rate(inputs: &Inputs, seed: u64, tail_p: u32) -> (f64, u64) {
    let mut best = 0.0;
    let mut wrong = 0;
    for (k, &rate) in LADDER.iter().enumerate() {
        let service = start_service(inputs, Tracer::disabled());
        let schedule = poisson_schedule(seed, &format!("serve/ladder/{k}"), rate, LADDER_STEP);
        let mut phase = run(&service, inputs, &schedule, &Spans::new(false));
        drop(service);
        wrong += phase.outcome.wrong;
        let tail = crate::stats::percentile(&mut phase.latency_ms, tail_p);
        let ok = phase.outcome.failed == 0 && tail <= LIMIT_MS && !phase.backlog_grew();
        eprintln!(
            "serve-stream ladder: {rate} rps: tail p{tail_p} {tail:.3} ms, failed {}, \
             backlog grew {} -> {}",
            phase.outcome.failed,
            phase.backlog_grew(),
            if ok { "pass" } else { "fail" }
        );
        if !ok {
            break;
        }
        best = rate;
    }
    (best, wrong)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_growth_is_detected() {
        let steady = Phase {
            outstanding: (0..1000).map(|i| 20 + (i % 7)).collect(),
            ..Phase::default()
        };
        assert!(!steady.backlog_grew());
        let growing = Phase {
            outstanding: (0..1000).collect(),
            ..Phase::default()
        };
        assert!(growing.backlog_grew());
    }
}
