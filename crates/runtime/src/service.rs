//! The solve service: submission API, supervised worker, lifecycle.
//!
//! The worker is *supervised*: the batch loop runs under
//! `catch_unwind`, and a panic during a fused dispatch does not take the
//! service down. Instead the batch is re-dispatched one system at a time
//! so the panic is attributed to the request that provokes it — its
//! ticket resolves to [`SolveError::WorkerPanic`] while every innocent
//! neighbor is solved normally. The same isolation applies to simulated
//! device failures. A watchdog thread flags dispatches that exceed a time
//! budget, and a circuit breaker sheds load after a run of degraded
//! batches.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::LaunchHook;
use batsolv_trace::EventKind;
use batsolv_types::{Error, Result};

use crate::admission::AdmissionGate;
use crate::autotune::AutoTuner;
use crate::breaker::CircuitBreaker;
use crate::classes::{ClassTracker, ClassesSnapshot};
use crate::config::RuntimeConfig;
use crate::dispatcher::{BatchItem, ItemOutcome, LadderEngine, SimSplit, SolveEngine};
use crate::former::{BatchFormer, FlushReason};
use crate::queue::{BoundedQueue, PopResult, PushResult};
use crate::request::{SolveError, SolveMethod, SolveOutcome, SolveRequest, SubmitError, Ticket};
use crate::stats::{BatchOutcomes, StatsRegistry, StatsSnapshot};
use crate::terminal::{panic_detail, settle, Phases, Terminals};
use crate::watchdog::{spawn_watchdog, WatchState};

/// A request as it travels through the queue and former.
struct Pending {
    item: BatchItem,
    deadline: Option<Duration>,
    enqueued_at: Instant,
    phases: Phases,
    reply: mpsc::Sender<SolveOutcome>,
}

struct Shared {
    queue: BoundedQueue<Pending>,
    stats: StatsRegistry,
    /// The tracer, the class tracker and the autotuner, behind the one
    /// funnel every terminal outcome passes through.
    terminals: Terminals,
    watch: Arc<WatchState>,
    breaker: Option<CircuitBreaker>,
    /// Monotonic batch sequence; lives here (not in the worker) so it
    /// survives worker respawns.
    batch_seq: AtomicU64,
}

/// Multi-threaded dynamic-batching solve service.
///
/// Submitters hand in individual systems over a shared
/// [`SparsityPattern`]; a supervised worker thread groups them into
/// batches (target size or linger timeout, whichever fires first) and
/// dispatches each batch as one fused solve through the escalation
/// ladder. See the crate docs for an end-to-end example.
pub struct SolveService {
    shared: Arc<Shared>,
    pattern: Arc<SparsityPattern>,
    gate: Option<AdmissionGate>,
    worker: Option<thread::JoinHandle<()>>,
    watchdog: Option<thread::JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
    next_id: AtomicU64,
}

impl SolveService {
    /// Start a service with the production engine ([`LadderEngine`]:
    /// fused BiCGSTAB → restarted GMRES → banded-LU fallback).
    pub fn start(pattern: Arc<SparsityPattern>, config: RuntimeConfig) -> Result<SolveService> {
        let engine = Arc::new(
            LadderEngine::new(config.device.clone(), Arc::clone(&pattern), config.ladder)
                .with_tracer(config.tracer.clone()),
        );
        Self::start_with_engine(pattern, config, engine)
    }

    /// Start a service whose fused launches pass through `hook` first —
    /// the fault-injection seam (see `batsolv-faults`).
    pub fn start_with_hook(
        pattern: Arc<SparsityPattern>,
        config: RuntimeConfig,
        hook: Arc<dyn LaunchHook>,
    ) -> Result<SolveService> {
        let engine = Arc::new(
            LadderEngine::with_hook(
                config.device.clone(),
                Arc::clone(&pattern),
                config.ladder,
                hook,
            )
            .with_tracer(config.tracer.clone()),
        );
        Self::start_with_engine(pattern, config, engine)
    }

    /// Start a service with a caller-provided engine (tests inject
    /// doubles here).
    pub fn start_with_engine(
        pattern: Arc<SparsityPattern>,
        config: RuntimeConfig,
        engine: Arc<dyn SolveEngine>,
    ) -> Result<SolveService> {
        config.validate().map_err(Error::InvalidConfig)?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            stats: StatsRegistry::new(),
            terminals: Terminals {
                tracer: config.tracer.clone(),
                classes: ClassTracker::new(),
                autotune: config.autotune.map(AutoTuner::new),
            },
            watch: Arc::new(WatchState::new()),
            breaker: config.breaker.map(CircuitBreaker::new),
            batch_seq: AtomicU64::new(0),
        });
        shared.stats.set_solver(config.ladder.solver.name());
        shared.stats.set_precond(config.ladder.precond.name());
        let gate = config
            .validate_admission
            .then(|| AdmissionGate::new(&pattern, config.min_diag_abs));

        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = config.watchdog_budget.map(|budget| {
            let stats_shared = Arc::clone(&shared);
            let budget_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
            spawn_watchdog(
                Arc::clone(&shared.watch),
                budget,
                Arc::clone(&watchdog_stop),
                move || {
                    stats_shared.stats.on_watchdog_stall();
                    let tracer = &stats_shared.terminals.tracer;
                    tracer.emit(None, EventKind::WatchdogStall { budget_us });
                    // A stalled dispatch is exactly the moment the recent
                    // event history matters: freeze it.
                    let _ = tracer.dump_flight("watchdog_stall");
                },
            )
        });

        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("batsolv-runtime-supervisor".into())
            .spawn(move || supervisor_loop(worker_shared, config, engine))
            .map_err(|e| Error::InvalidConfig(format!("failed to spawn worker: {e}")))?;
        Ok(SolveService {
            shared,
            pattern,
            gate,
            worker: Some(worker),
            watchdog,
            watchdog_stop,
            next_id: AtomicU64::new(0),
        })
    }

    /// The sparsity pattern every request must match.
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        &self.pattern
    }

    /// Submit one system. Non-blocking: a full queue rejects with
    /// [`SubmitError::QueueFull`] instead of stalling the caller — the
    /// backpressure signal of the service. Poisoned payloads bounce with
    /// [`SubmitError::Rejected`] before they can share a fused launch
    /// with healthy work, and an open circuit breaker sheds load with
    /// [`SubmitError::CircuitOpen`].
    pub fn submit(&self, request: SolveRequest) -> std::result::Result<Ticket, SubmitError> {
        let submit_started = Instant::now();
        let nnz = self.pattern.nnz();
        let n = self.pattern.num_rows();
        let admitted = request
            .check(nnz, n)
            .and_then(|()| match &self.gate {
                Some(gate) => gate
                    .check(&request.values, &request.rhs, request.guess.as_deref())
                    .map_err(|reason| SubmitError::Rejected { reason }),
                None => Ok(()),
            })
            .and_then(|()| match &self.shared.breaker {
                Some(breaker) => breaker
                    .check(Instant::now())
                    .map_err(|retry_after| SubmitError::CircuitOpen { retry_after }),
                None => Ok(()),
            });
        if let Err(e) = admitted {
            return Err(self.reject(e));
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let enqueued_at = Instant::now();
        let pending = Pending {
            item: BatchItem {
                id,
                values: request.values,
                rhs: request.rhs,
                guess: request.guess,
                tolerance: request.tolerance,
            },
            deadline: request.deadline,
            enqueued_at,
            phases: Phases::new(submit_started, enqueued_at, request.deadline.is_some()),
            reply: tx,
        };
        match self.shared.queue.try_push(pending) {
            PushResult::Ok => {
                self.shared.stats.on_accepted();
                self.shared
                    .terminals
                    .tracer
                    .emit(Some(id), EventKind::Submitted { n });
                Ok(Ticket { id, rx })
            }
            PushResult::Full(_) => Err(self.reject(SubmitError::QueueFull {
                capacity: self.shared.queue.capacity(),
            })),
            PushResult::Closed(_) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Count a rejected submission and emit its `Rejected` event.
    fn reject(&self, e: SubmitError) -> SubmitError {
        let reason = e.reason();
        self.shared.stats.on_rejected(reason);
        self.shared
            .terminals
            .tracer
            .emit(None, EventKind::Rejected { reason });
        e
    }

    /// Point-in-time copy of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Point-in-time per-workload-class latency/SLO statistics.
    pub fn classes(&self) -> ClassesSnapshot {
        self.shared.terminals.classes.snapshot()
    }

    /// Current autotuner per-class choices (empty when autotuning is
    /// disabled or no terminal outcome has been observed yet).
    pub fn autotune_choices(&self) -> Vec<batsolv_trace::AutotuneChoice> {
        self.shared
            .terminals
            .autotune
            .as_ref()
            .map(AutoTuner::choices)
            .unwrap_or_default()
    }

    /// The full Prometheus metrics page: service counters plus the
    /// per-class latency, deadline, and burn-rate series (and, when the
    /// autotuner runs, its per-class choice series).
    pub fn prometheus(&self) -> String {
        crate::metrics::prometheus_text_full(
            &self.stats(),
            Some(&self.classes()),
            &self.autotune_choices(),
        )
    }

    /// Stop accepting work, drain everything already queued, and join
    /// the worker. Outstanding tickets resolve before this returns.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_in_place();
        self.shared.stats.snapshot()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        self.watchdog_stop.store(true, Ordering::Release);
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The supervisor: keeps the worker loop alive across panics. The batch
/// former lives *here*, outside the unwind boundary, so requests already
/// pulled from the queue survive a worker crash and are re-dispatched by
/// the respawned loop instead of being lost.
fn supervisor_loop(shared: Arc<Shared>, config: RuntimeConfig, engine: Arc<dyn SolveEngine>) {
    let linger_ns = u64::try_from(config.linger.as_nanos()).unwrap_or(u64::MAX);
    let mut former: BatchFormer<Pending> = BatchFormer::new(config.batch_target, linger_ns);
    let epoch = Instant::now();
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&shared, &config, engine.as_ref(), &mut former, epoch)
        }));
        match result {
            Ok(()) => break, // clean shutdown: queue closed and drained
            Err(_) => {
                // The worker panicked outside the per-batch isolation
                // (a bug, or chaos injected outside dispatch). Respawn
                // the loop; everything still in `former` re-dispatches.
                shared.stats.on_worker_respawn();
                shared.terminals.tracer.emit(None, EventKind::WorkerRespawn);
            }
        }
    }
}

/// The single consumer: pops requests, forms batches, dispatches.
fn worker_loop(
    shared: &Shared,
    config: &RuntimeConfig,
    engine: &dyn SolveEngine,
    former: &mut BatchFormer<Pending>,
    epoch: Instant,
) {
    let now_ns = |at: Instant| -> u64 {
        u64::try_from(at.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
    };
    // Popping ends the queue phase; the former's linger clock starts.
    let admit = |former: &mut BatchFormer<Pending>, mut p: Pending| {
        p.phases.queue = p.enqueued_at.elapsed();
        let stamp = now_ns(p.enqueued_at.max(epoch));
        former.push(p, stamp);
    };

    'outer: loop {
        // Sleep until the oldest pending request's linger deadline, or
        // indefinitely-ish when nothing is pending.
        let timeout = match former.next_flush_at() {
            Some(0) => Duration::ZERO,
            Some(deadline_ns) => {
                Duration::from_nanos(deadline_ns.saturating_sub(now_ns(Instant::now())))
            }
            None => Duration::from_millis(100),
        };
        match shared.queue.pop_wait(timeout) {
            PopResult::Item(p) => {
                admit(former, p);
                // Greedily drain the backlog that piled up while the
                // previous batch was solving: without this, requests
                // already past their linger age would be flushed one at
                // a time instead of fused into full batches.
                while former.len() < config.batch_target {
                    match shared.queue.pop_wait(Duration::ZERO) {
                        PopResult::Item(p) => admit(former, p),
                        _ => break,
                    }
                }
            }
            PopResult::TimedOut => {}
            PopResult::Closed => break 'outer,
        }
        while let Some((batch, reason)) = former.poll(now_ns(Instant::now())) {
            trace_batch_formed(shared, batch.len(), reason);
            dispatch(shared, engine, batch);
        }
    }

    // Shutdown: flush the remainder below target/linger.
    while let Some((batch, reason)) = former.drain() {
        trace_batch_formed(shared, batch.len(), reason);
        dispatch(shared, engine, batch);
    }
}

/// Emit the batch-formed event with a sequence number that survives
/// worker respawns.
fn trace_batch_formed(shared: &Shared, size: usize, reason: FlushReason) {
    let tracer = &shared.terminals.tracer;
    if !tracer.is_enabled() {
        return;
    }
    let seq = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
    let reason = match reason {
        FlushReason::TargetReached => "target",
        FlushReason::LingerExpired => "linger",
        FlushReason::Drain => "drain",
    };
    tracer.emit(None, EventKind::BatchFormed { seq, size, reason });
}

/// Solve one formed batch and fulfill its tickets.
fn dispatch(shared: &Shared, engine: &dyn SolveEngine, batch: Vec<Pending>) {
    let dispatched_at = Instant::now();
    // Enforce queue-wait deadlines at the last moment before the solve:
    // expired requests get a structured error, not a wasted solve slot.
    let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
    for mut p in batch {
        let waited = dispatched_at.saturating_duration_since(p.enqueued_at);
        match p.deadline {
            Some(deadline) if waited > deadline => {
                shared.stats.on_deadline_exceeded();
                let expired = Err(SolveError::DeadlineExceeded { waited, deadline });
                finish(shared, p, None, ("deadline_exceeded", expired), None, false);
            }
            _ => {
                p.phases.linger = waited.saturating_sub(p.phases.queue);
                shared.terminals.tracer.emit(
                    Some(p.item.id),
                    EventKind::Dequeued {
                        wait_us: u64::try_from(waited.as_micros()).unwrap_or(u64::MAX),
                    },
                );
                live.push(p);
            }
        }
    }
    if live.is_empty() {
        return;
    }
    run_batch(shared, engine, live, dispatched_at);
}

/// Run one batch through the engine with panic/device-failure isolation.
///
/// A panic or device failure on a multi-system batch re-dispatches each
/// member as a singleton: with a deterministic fault source the same
/// request fails again *alone* and absorbs the blame, while every other
/// member solves normally — a faulty neighbor never costs a healthy
/// request its outcome.
fn run_batch(
    shared: &Shared,
    engine: &dyn SolveEngine,
    live: Vec<Pending>,
    dispatched_at: Instant,
) {
    let items: Vec<BatchItem> = live.iter().map(|p| p.item.clone()).collect();
    let batch_size = items.len();
    shared.watch.begin();
    let solved = catch_unwind(AssertUnwindSafe(|| engine.solve_batch(&items)));
    shared.watch.end();
    match solved {
        Ok(Ok(report)) => {
            shared.stats.on_sync_counts(report.syncs, report.reductions);
            fulfill(
                shared,
                live,
                report.outcomes,
                report.sim_time_s,
                report.split,
                dispatched_at,
            )
        }
        Ok(Err(Error::DeviceFailure { code })) if batch_size == 1 => {
            note_health(shared, 1, 1);
            for p in live {
                shared.stats.on_device_failure();
                let failed = Err(SolveError::DeviceFailure { code });
                finish(
                    shared,
                    p,
                    Some(dispatched_at),
                    ("device_failure", failed),
                    None,
                    false,
                );
            }
        }
        Err(payload) if batch_size == 1 => {
            note_health(shared, 1, 1);
            let detail = panic_detail(payload);
            for p in live {
                shared.stats.on_worker_panic_outcome();
                let failed = Err(SolveError::WorkerPanic {
                    detail: detail.clone(),
                });
                finish(
                    shared,
                    p,
                    Some(dispatched_at),
                    ("worker_panic", failed),
                    None,
                    false,
                );
            }
        }
        Ok(Err(Error::DeviceFailure { .. })) | Err(_) => {
            for p in live {
                run_batch(shared, engine, vec![p], dispatched_at);
            }
        }
        Ok(Err(e)) => {
            // Engine-level failure (shape bug): every ticket of the batch
            // gets the structured error.
            let msg: &'static str = match e {
                Error::DimensionMismatch(_) => "engine dimension mismatch",
                _ => "engine failure",
            };
            let waits = queue_waits(&live, dispatched_at);
            let failed = live.len() as u64;
            for p in live {
                let outcome = Err(SolveError::NotConverged {
                    iterations: 0,
                    residual: f64::NAN,
                    breakdown: Some(msg),
                    rungs: vec![],
                });
                finish(
                    shared,
                    p,
                    Some(dispatched_at),
                    ("engine_failure", outcome),
                    None,
                    false,
                );
            }
            shared.stats.on_batch(
                batch_size,
                &waits,
                &[],
                BatchOutcomes {
                    failed,
                    breakdowns: vec![msg; batch_size],
                    ..Default::default()
                },
                0.0,
            );
            note_health(shared, batch_size, batch_size);
        }
    }
}

/// Each request's queue wait, measured at dispatch: queue plus linger,
/// never the solve that follows.
fn queue_waits(live: &[Pending], dispatched_at: Instant) -> Vec<Duration> {
    live.iter()
        .map(|p| dispatched_at.saturating_duration_since(p.enqueued_at))
        .collect()
}

/// Deliver per-item outcomes and record the batch in stats + breaker.
fn fulfill(
    shared: &Shared,
    live: Vec<Pending>,
    outcomes: Vec<ItemOutcome>,
    sim_time_s: f64,
    split: SimSplit,
    dispatched_at: Instant,
) {
    let batch_size = live.len();
    debug_assert_eq!(outcomes.len(), batch_size);
    let waits = queue_waits(&live, dispatched_at);
    let iterations: Vec<u32> = outcomes.iter().map(|o| o.iterations).collect();
    // Straggler attribution: the fused launch runs until its slowest
    // member converges, so the member with the most iterations set the
    // batch's completion time (first such member on ties).
    let straggler_idx = iterations
        .iter()
        .enumerate()
        .max_by_key(|&(i, &it)| (it, std::cmp::Reverse(i)))
        .map(|(i, _)| i);
    let item_sim = split.per_item(batch_size);
    let mut tally = BatchOutcomes::default();
    let mut degraded = 0usize;
    for (idx, ((p, o), &wait)) in live.into_iter().zip(outcomes).zip(&waits).enumerate() {
        tally.rungs_attempted.push(o.rungs.len());
        match (o.converged, o.method) {
            (false, _) => {
                tally.failed += 1;
                degraded += 1;
                tally.breakdowns.extend(o.breakdown);
            }
            (true, SolveMethod::Bicgstab) => tally.converged_iterative += 1,
            (true, SolveMethod::Gmres) => tally.converged_gmres += 1,
            (true, SolveMethod::BandedLuFallback) => {
                tally.converged_fallback += 1;
                degraded += 1;
            }
        }
        let straggler = straggler_idx == Some(idx) && batch_size > 1;
        let settled = settle(o, batch_size, wait);
        finish(
            shared,
            p,
            Some(dispatched_at),
            settled,
            Some(&item_sim),
            straggler,
        );
    }
    shared
        .stats
        .on_batch(batch_size, &waits, &iterations, tally, sim_time_s);
    note_health(shared, batch_size, degraded);
}

/// Report `p`'s terminal outcome through the funnel, then deliver it.
/// A dispatched request's solve phase runs from `dispatched_at` to now.
fn finish(
    shared: &Shared,
    mut p: Pending,
    dispatched_at: Option<Instant>,
    (tag, outcome): (&'static str, SolveOutcome),
    sim: Option<&SimSplit>,
    straggler: bool,
) {
    if let Some(at) = dispatched_at {
        p.phases.solve = at.elapsed();
    }
    shared
        .terminals
        .record(p.item.id, &p.phases, tag, &outcome, sim, straggler);
    let _ = p.reply.send(outcome);
}

/// Report a batch's health (`degraded` of `size` members) to the breaker.
fn note_health(shared: &Shared, size: usize, degraded: usize) {
    if let Some(breaker) = &shared.breaker {
        shared
            .terminals
            .feed_breaker(breaker, size, degraded, &shared.stats.breaker_trips);
    }
}
