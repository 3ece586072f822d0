//! The shard worker core both serving stacks run on: one bounded chunk
//! queue, one supervised worker thread driving a [`SolveEngine`] on one
//! simulated device, an optional circuit breaker, and one stats registry.
//! `batsolv-fleet` starts one shard per device plus one for the CPU
//! spill pool; [`SolveService`](crate::SolveService) is a one-shard
//! fleet whose worker puts the [`BatchFormer`] in front of execution.
//!
//! * **Steal** — a worker whose queue stays empty past a poll interval
//!   walks its fixed, seeded victim order and takes the *oldest* queued
//!   chunk of the first victim with a backlog, in one atomic pop, so a
//!   chunk executes once however thief, victim and breaker interleave.
//! * **Deadline budgets** — the worker debits each system's queue wait
//!   at dispatch and sheds systems whose budget is spent (or, at
//!   degradation level 2+, cannot cover the predicted chunk cost).
//! * **Failure epilogue** — a retryable failure (device fault, worker
//!   panic) re-queues the chunk on a *different* shard after a seeded
//!   backoff while [`RetryPolicy::max_attempts`] allows; then a
//!   multi-system chunk re-runs each member alone on the same shard, so
//!   only the request that provokes the fault fails.
//! * **Hedged dispatch** — an idle worker with nothing to steal
//!   duplicates a peer's flight older than its p99-derived hedge delay;
//!   both share outcome slots, so delivery stays exactly-once.
//! * **Supervision** — a panic in the engine call fails its chunk; a
//!   panic elsewhere respawns the loop, and the front stage, outside the
//!   unwind boundary, keeps what it already pulled off the queue. The
//!   shard's [`WatchState`] brackets every engine call for a watchdog.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use batsolv_trace::EventKind;
use batsolv_types::Error;

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::config::{HedgeConfig, RetryPolicy};
use crate::degrade::DegradeState;
use crate::dispatcher::{BatchItem, BatchReport, SimSplit, SolveEngine};
use crate::former::{BatchFormer, FlushReason};
use crate::queue::{BoundedQueue, PopResult, PushResult};
use crate::request::{SolveError, SolveMethod, SolveOutcome};
use crate::reservoir::percentile_us;
use crate::stats::StatsRegistry;
use crate::terminal::{panic_detail, settle, Terminals};
use crate::watchdog::WatchState;
use crate::work::{Chunk, Pending};

/// How long a fleet worker waits on its empty queue before probing
/// peers.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// How long a batching worker with nothing pending waits on its empty
/// queue (a push wakes it at once either way).
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// Point-in-time copy of one shard's counters and percentiles. The CPU
/// spill pool reports through the same shape (its `shard` id is one
/// past the GPU range, its `device` is the Skylake node).
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// Shard id (GPU shards `0..devices`; the CPU pool is `devices`).
    pub shard: u32,
    /// Simulated device behind the shard.
    pub device: &'static str,
    /// Chunks queued right now.
    pub queue_depth: usize,
    /// Whether the shard's circuit breaker is open right now.
    pub breaker_open: bool,
    /// Chunks this shard's worker executed (own plus stolen).
    pub chunks_executed: u64,
    /// Systems that reached a converged solution here.
    pub completed: u64,
    /// Systems that reached a terminal failure here.
    pub failed: u64,
    /// Chunks this shard stole from loaded peers.
    pub steals_in: u64,
    /// Chunks loaded peers stole from this shard's queue.
    pub steals_out: u64,
    /// Times this shard's breaker tripped open.
    pub breaker_trips: u64,
    /// Chunks this shard re-queued elsewhere after a retryable failure.
    pub retries: u64,
    /// Hedge duplicates this shard launched against peer flights.
    pub hedges_fired: u64,
    /// Hedge duplicates this shard won (delivered at least one outcome).
    pub hedges_won: u64,
    /// Systems shed at dispatch (budget spent or sub-deadline under
    /// degradation).
    pub shed: u64,
    /// Simulated device time this shard accumulated, seconds.
    pub sim_time_s: f64,
    /// Median queue wait of systems executed here.
    pub wait_p50: Duration,
    /// 99th-percentile queue wait of systems executed here.
    pub wait_p99: Duration,
    /// Median submit-to-outcome latency of systems executed here.
    pub latency_p50: Duration,
    /// 99th-percentile submit-to-outcome latency.
    pub latency_p99: Duration,
}

/// A chunk currently inside `solve_batch` on some shard, advertised so
/// idle peers can hedge it. `hedged` is the claim bit: only one peer
/// ever duplicates a given flight.
struct InflightChunk {
    started: Instant,
    origin: u32,
    hedged: AtomicBool,
    /// Payload clones sharing the primaries' outcome slots.
    items: Vec<Pending>,
}

/// Everything a shard shares with its submitters and with thieving
/// peers: its queue, breaker, stats, and identity.
pub struct Shard {
    /// Shard id: the trace lane and metrics label of its device.
    pub id: u32,
    /// Name of the simulated device behind the shard.
    pub device_name: &'static str,
    /// The bounded chunk queue its worker drains.
    pub queue: BoundedQueue<Chunk>,
    /// Counters of every chunk the worker executes and every outcome
    /// it delivers.
    pub stats: StatsRegistry,
    /// Sheds submissions after a run of degraded executions; `None`
    /// runs without one.
    pub breaker: Option<CircuitBreaker>,
    /// Engine-call progress, stamped around every `solve_batch`.
    pub watch: Arc<WatchState>,
    /// The chunk this shard's worker has in flight, if hedging is on.
    inflight: Mutex<Option<Arc<InflightChunk>>>,
}

impl Shard {
    /// An idle shard `id` on `device_name` with a queue of
    /// `queue_capacity` chunks.
    pub fn new(
        id: u32,
        device_name: &'static str,
        queue_capacity: usize,
        breaker: Option<BreakerConfig>,
    ) -> Shard {
        Shard {
            id,
            device_name,
            queue: BoundedQueue::new(queue_capacity),
            stats: StatsRegistry::new(),
            breaker: breaker.map(CircuitBreaker::new),
            watch: Arc::new(WatchState::new()),
            inflight: Mutex::new(None),
        }
    }

    /// The breaker's admission check: `Err(retry_after)` while it sheds.
    pub fn admit(&self, now: Instant) -> Result<(), Duration> {
        self.breaker.as_ref().map_or(Ok(()), |b| b.check(now))
    }

    /// Snapshot the shard, appending its raw samples to fleet-wide merge
    /// vectors.
    pub fn snapshot(
        &self,
        now: Instant,
        merged_wait_us: &mut Vec<u64>,
        merged_latency_us: &mut Vec<u64>,
    ) -> ShardSnapshot {
        let (wait, mut latency) = self.stats.samples_us();
        merged_wait_us.extend_from_slice(&wait);
        merged_latency_us.extend_from_slice(&latency);
        latency.sort_unstable();
        let latency = |p| Duration::from_micros(percentile_us(&latency, p));
        let stats = self.stats.snapshot();
        let completed =
            stats.converged_iterative + stats.converged_gmres + stats.converged_fallback;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let s = &self.stats;
        ShardSnapshot {
            shard: self.id,
            device: self.device_name,
            queue_depth: self.queue.len(),
            breaker_open: self.admit(now).is_err(),
            chunks_executed: load(&s.chunks_executed),
            completed,
            failed: stats.completed() - completed,
            steals_in: load(&s.steals_in),
            steals_out: load(&s.steals_out),
            breaker_trips: stats.breaker_trips,
            retries: load(&s.retries),
            hedges_fired: load(&s.hedges_fired),
            hedges_won: load(&s.hedges_won),
            shed: load(&s.shed),
            sim_time_s: stats.sim_time_total_s,
            wait_p50: stats.queue_wait_p50,
            wait_p99: stats.queue_wait_p99,
            latency_p50: latency(0.50),
            latency_p99: latency(0.99),
        }
    }
}

/// Everything one worker thread needs: its shard, its peers (for
/// steals, retries, and hedges), the engine, and the shared policies.
pub struct WorkerCtx {
    /// Name of the worker thread.
    pub name: String,
    /// The shard the worker drains.
    pub shard: Arc<Shard>,
    /// Every GPU shard of the fleet, indexed by id (retry targets,
    /// steal victims, hedge candidates).
    pub peers: Arc<Vec<Arc<Shard>>>,
    /// The engine every execution runs on.
    pub engine: Arc<dyn SolveEngine>,
    /// Fixed victim-visit order (empty disables stealing).
    pub victims: Vec<u32>,
    /// The terminal funnel; only a delivery that wins its outcome slot
    /// reports through it.
    pub terminals: Arc<Terminals>,
    /// Retry policy for retryable chunk failures.
    pub retry: RetryPolicy,
    /// Straggler-hedging policy.
    pub hedge: HedgeConfig,
    /// The fleet's degradation ladder; `None` runs without one.
    pub degrade: Option<Arc<DegradeState>>,
    /// Device-model prediction for one full chunk (level-2 shedding
    /// compares budgets against it).
    pub predicted_chunk_cost: Duration,
    /// True for the CPU spill pool's worker: its dispatch wall time
    /// lands in the ledger's `spill` phase instead of `solve`.
    pub is_spill: bool,
    /// The front stage, as `(batch target, linger)`: popped systems wait
    /// in a [`BatchFormer`] until one of its triggers cuts them into one
    /// execution. `None` executes every popped chunk as it is.
    pub batching: Option<(usize, Duration)>,
}

impl WorkerCtx {
    fn hedging_allowed(&self) -> bool {
        self.hedge.enabled && self.degrade.iter().all(|d| d.hedging_allowed())
    }
}

/// The front stage of a batching worker. It lives outside the loop's
/// unwind boundary, so requests already pulled off the queue survive a
/// respawn.
struct FrontStage {
    former: BatchFormer<Pending>,
    target: usize,
    /// Origin of the former's virtual nanosecond clock.
    epoch: Instant,
    /// `BatchFormed` sequence number; survives respawns.
    seq: u64,
}

impl FrontStage {
    fn now_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// How long the worker may wait for work before the next cut is due;
    /// `None` when nothing is pending.
    fn timeout(&self) -> Option<Duration> {
        let at = self.former.next_flush_at()?;
        let now = self.now_ns(Instant::now());
        Some(Duration::from_nanos(at.saturating_sub(now)))
    }

    /// Popping ends a system's queue phase; the former's linger clock
    /// runs from its enqueue.
    fn admit(&mut self, chunk: Chunk) {
        for mut p in chunk.items {
            p.phases.queue = p.enqueued.elapsed();
            let stamp = self.now_ns(p.enqueued);
            self.former.push(p, stamp);
        }
    }

    /// Trace and execute one cut batch.
    fn cut(&mut self, ctx: &WorkerCtx, items: Vec<Pending>, reason: FlushReason) {
        let reason = match reason {
            FlushReason::TargetReached => "target",
            FlushReason::LingerExpired => "linger",
            FlushReason::Drain => "drain",
        };
        let (seq, size) = (self.seq, items.len());
        ctx.terminals
            .tracer
            .emit(None, EventKind::BatchFormed { seq, size, reason });
        self.seq += 1;
        let chunk = Chunk {
            items,
            origin: ctx.shard.id,
        };
        execute_chunk(ctx, chunk, None);
    }
}

/// Spawn one shard's worker thread. It drains the shard's queue until
/// the queue is closed and empty, then flushes its front stage.
pub fn spawn_shard_worker(ctx: WorkerCtx) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(ctx.name.clone())
        .spawn(move || {
            let mut front = ctx.batching.map(|(target, linger)| FrontStage {
                former: BatchFormer::new(
                    target,
                    u64::try_from(linger.as_nanos()).unwrap_or(u64::MAX),
                ),
                target,
                epoch: Instant::now(),
                seq: 0,
            });
            while catch_unwind(AssertUnwindSafe(|| worker_loop(&ctx, &mut front))).is_err() {
                ctx.shard.stats.on_worker_respawn();
                ctx.terminals.tracer.emit(None, EventKind::WorkerRespawn);
            }
        })
}

/// The loop a worker runs (and re-runs after a respawn).
fn worker_loop(ctx: &WorkerCtx, front: &mut Option<FrontStage>) {
    loop {
        let timeout = match front {
            Some(f) => f.timeout().unwrap_or(IDLE_WAIT),
            None => POLL_INTERVAL,
        };
        match ctx.shard.queue.pop_wait(timeout) {
            PopResult::Item(chunk) => match front.as_mut() {
                None => execute_chunk(ctx, chunk, None),
                Some(f) => {
                    f.admit(chunk);
                    // Greedily drain the backlog that piled up while the
                    // previous batch was solving: without this, requests
                    // already past their linger age would be flushed one
                    // at a time instead of fused into full batches.
                    while f.former.len() < f.target {
                        match ctx.shard.queue.try_pop() {
                            Some(chunk) => f.admit(chunk),
                            None => break,
                        }
                    }
                }
            },
            PopResult::TimedOut => idle_work(ctx),
            PopResult::Closed => break,
        }
        if let Some(f) = front.as_mut() {
            while let Some((batch, reason)) = f.former.poll(f.now_ns(Instant::now())) {
                f.cut(ctx, batch, reason);
            }
        }
    }
    // Shutdown: flush the remainder below target and linger.
    if let Some(f) = front.as_mut() {
        while let Some((batch, reason)) = f.former.drain() {
            f.cut(ctx, batch, reason);
        }
    }
}

/// What an idle worker does: raid peers greedily (once a steal
/// succeeds, keep taking chunks, re-checking the own queue between
/// them, instead of paying the poll interval per stolen chunk), and when
/// nothing is queued anywhere consider hedging a straggling peer flight.
fn idle_work(ctx: &WorkerCtx) {
    let mut raided = false;
    while ctx.shard.queue.is_empty() {
        let Some(chunk) = steal(ctx) else { break };
        execute_chunk(ctx, chunk, None);
        raided = true;
    }
    if !raided {
        try_hedge(ctx);
    }
}

/// Take the oldest queued chunk of the first victim with a backlog.
fn steal(ctx: &WorkerCtx) -> Option<Chunk> {
    ctx.victims.iter().find_map(|&v| {
        let victim = &ctx.peers[v as usize];
        let chunk = victim.queue.try_pop()?;
        victim.stats.steals_out.fetch_add(1, Ordering::Relaxed);
        ctx.shard.stats.steals_in.fetch_add(1, Ordering::Relaxed);
        ctx.terminals.tracer.emit(
            None,
            EventKind::ShardSteal {
                thief: ctx.shard.id,
                victim: chunk.origin,
                size: chunk.len(),
            },
        );
        Some(chunk)
    })
}

/// Dispatch one chunk: attribute each system's wait, shed spent
/// budgets, then run what is left. `hedge_of` names the shard whose
/// in-flight chunk this execution duplicates; `None` is the scheduled
/// flight. Terminal outcomes go through each
/// item's outcome slot, so no path — success, shed, engine error, retry
/// exhaustion, worker panic, lost hedge race — ever delivers twice or
/// drops an item.
fn execute_chunk(ctx: &WorkerCtx, chunk: Chunk, hedge_of: Option<u32>) {
    let shard = &ctx.shard;
    let dispatch_start = Instant::now();
    let primary = hedge_of.is_none();
    let advertise = primary && ctx.hedging_allowed();
    let lingered = ctx.batching.is_some();
    let shedding = ctx.degrade.as_ref().is_some_and(|d| d.shedding());
    let origin = chunk.origin;

    let mut live: Vec<Pending> = Vec::with_capacity(chunk.len());
    let mut hedge_clones: Vec<Pending> = Vec::new();
    let mut shed = 0usize;
    for mut p in chunk.items {
        if p.slot.is_claimed() {
            // The other side of a hedge pair already delivered this
            // one; executing it again would be pure waste.
            continue;
        }
        // Clone for the hedge advertisement *before* attributing this
        // hop's wait: the duplicate measures its own enqueue → hedge
        // dispatch span as the hedge phase, so pre-charging the
        // primary's queue wait here would double-count the interval.
        if advertise {
            hedge_clones.push(p.clone());
        }
        let wait = dispatch_start.saturating_duration_since(p.enqueued);
        // Attribute this hop's wait to its phase: first-hop dispatch is
        // queueing (split at the pop into queue and linger when a front
        // stage held it), a retry re-queue is a transit hop, and a hedge
        // duplicate charges its whole enqueue → dispatch span (queue
        // plus the primary's partial flight) to the hedge phase.
        match hedge_of {
            None if p.attempt > 1 => p.phases.transit += wait,
            None if lingered => {}
            None => p.phases.queue += wait,
            Some(_) => p.phases.hedge += wait,
        }
        if primary {
            if let Some(budget) = p.budget.as_mut() {
                budget.debit(wait);
                if budget.is_exhausted() || (shedding && !budget.covers(ctx.predicted_chunk_cost)) {
                    if fail(ctx, &p, deadline_exceeded(&p)) {
                        shard.stats.shed.fetch_add(1, Ordering::Relaxed);
                        shed += 1;
                    }
                    continue;
                }
            }
            if lingered {
                p.phases.linger = wait.saturating_sub(p.phases.queue);
            }
            let wait_us = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
            let dequeued = EventKind::Dequeued { wait_us };
            ctx.terminals.tracer.emit(Some(p.item.id), dequeued);
        }
        live.push(p);
    }
    if let (Some(degrade), true) = (&ctx.degrade, shed > 0) {
        ctx.terminals.tracer.emit(
            None,
            EventKind::Shed {
                shard: shard.id,
                size: shed,
                level: degrade.level(),
            },
        );
    }
    if live.is_empty() {
        return;
    }
    // Advertise the flight for hedging *before* the (possibly stalling)
    // solve; `run` retracts it after.
    if advertise {
        *shard.inflight.lock().unwrap() = Some(Arc::new(InflightChunk {
            started: dispatch_start,
            origin,
            hedged: AtomicBool::new(false),
            items: hedge_clones,
        }));
    }
    run(ctx, live, hedge_of, dispatch_start, advertise);
}

/// One engine execution of `live`, which was dispatched at
/// `dispatch_start`, and the delivery or failure handling of its result.
fn run(
    ctx: &WorkerCtx,
    mut live: Vec<Pending>,
    hedge_of: Option<u32>,
    dispatch_start: Instant,
    advertised: bool,
) {
    let shard = &ctx.shard;
    // `live[i]` keeps the request state of `items[i]`, whose payload
    // moved into the engine's batch.
    let items: Vec<BatchItem> = live.iter_mut().map(Pending::take_item).collect();
    let n = items.len();
    shard.watch.begin();
    let result = catch_unwind(AssertUnwindSafe(|| ctx.engine.solve_batch(&items)));
    shard.watch.end();
    shard.stats.chunks_executed.fetch_add(1, Ordering::Relaxed);
    if advertised {
        *shard.inflight.lock().unwrap() = None;
    }

    // Feed the breaker *before* outcomes go out: it guards the device,
    // and a caller unblocked by a failure delivery must observe the trip
    // on its very next submit. It sees every execution's health — a
    // failed fused launch before isolation, a losing hedge — because it
    // guards the device, not the outcome slots.
    if let Some(breaker) = &shard.breaker {
        let degraded = match &result {
            Ok(Ok(report)) => report
                .outcomes
                .iter()
                .filter(|o| !o.converged || o.method == SolveMethod::BandedLuFallback)
                .count(),
            _ => n,
        };
        ctx.terminals
            .feed_breaker(breaker, n, degraded, &shard.stats.breaker_trips);
    }

    let error = match result {
        Ok(Ok(report)) => return deliver_report(ctx, live, report, hedge_of, dispatch_start),
        Ok(Err(Error::DeviceFailure { code })) => SolveError::DeviceFailure { code },
        Ok(Err(_)) => SolveError::DeviceFailure {
            code: "engine_error",
        },
        Err(panic) => SolveError::WorkerPanic {
            detail: panic_detail(panic),
        },
    };
    for (p, item) in live.iter_mut().zip(items) {
        p.item = item;
    }
    finish_failed(ctx, hedge_of, live, error, dispatch_start);
}

/// Deliver a solved execution's outcomes to every slot it wins.
fn deliver_report(
    ctx: &WorkerCtx,
    live: Vec<Pending>,
    report: BatchReport,
    hedge_of: Option<u32>,
    dispatch_start: Instant,
) {
    let shard = &ctx.shard;
    let n = live.len();
    debug_assert_eq!(report.outcomes.len(), n);
    shard
        .stats
        .on_batch(n, report.sim_time_s, report.syncs, report.reductions);
    let exec = dispatch_start.elapsed();
    let item_sim = report.split.per_item(n);
    // The batch-rule straggler: the fused launch runs until its slowest
    // member converges, so the member with the most iterations set the
    // execution's completion time (first such member on ties).
    let slowest = (n > 1)
        .then(|| {
            let iterations = report.outcomes.iter().map(|o| o.iterations).enumerate();
            iterations.max_by_key(|&(i, it)| (it, std::cmp::Reverse(i)))
        })
        .flatten()
        .map(|(i, _)| i);
    let mut delivered = 0usize;
    for (idx, (outcome, mut p)) in report.outcomes.into_iter().zip(live).enumerate() {
        // Claim first, count second, send last: by the time the caller
        // unblocks, every counter and sample for this outcome has landed.
        let Some(tx) = p.slot.claim() else { continue };
        delivered += 1;
        let wait = dispatch_start.saturating_duration_since(p.enqueued);
        if ctx.is_spill {
            p.phases.spill += exec;
        } else {
            p.phases.solve += exec;
        }
        // Only the slot winner samples: the reservoirs then reflect the
        // latency callers actually observed.
        let samples = Some((wait, p.enqueued.elapsed()));
        let settled = settle(outcome, n, wait);
        let slow = slowest == Some(idx);
        deliver(ctx, &p, tx, settled, Some(&item_sim), samples, slow);
    }
    if let (Some(primary), true) = (hedge_of, delivered > 0) {
        shard.stats.hedges_won.fetch_add(1, Ordering::Relaxed);
        ctx.terminals.tracer.emit(
            None,
            EventKind::HedgeWon {
                winner: shard.id,
                loser: primary,
                size: delivered,
            },
        );
    }
}

/// Count a won slot's terminal outcome, report it through the funnel,
/// and send it. `samples` (queue wait, latency) comes with a solved
/// delivery; `batch_straggler` is the batch rule's flag, which only a
/// one-system group uses (see [`GroupProgress`](crate::work::GroupProgress)).
fn deliver(
    ctx: &WorkerCtx,
    p: &Pending,
    tx: mpsc::Sender<SolveOutcome>,
    (tag, outcome): (&'static str, SolveOutcome),
    sim: Option<&SimSplit>,
    samples: Option<(Duration, Duration)>,
    batch_straggler: bool,
) {
    ctx.shard.stats.on_outcome(&outcome, samples);
    let straggler = p.group.finish_one(batch_straggler);
    ctx.terminals
        .record(p.item.id, &p.phases, tag, &outcome, sim, straggler);
    let _ = tx.send(outcome);
}

/// Deliver a terminal failure if `p`'s slot is still unclaimed; true
/// when this call delivered it.
fn fail(ctx: &WorkerCtx, p: &Pending, outcome: (&'static str, SolveOutcome)) -> bool {
    let Some(tx) = p.slot.claim() else {
        return false;
    };
    deliver(ctx, p, tx, outcome, None, None, false);
    true
}

/// The terminal outcome of a system whose deadline budget is spent; it
/// reports the whole wait debited, not the wait capped at the deadline.
fn deadline_exceeded(p: &Pending) -> (&'static str, SolveOutcome) {
    let budget = p.budget.expect("only a deadline budget can be spent");
    let error = SolveError::DeadlineExceeded {
        waited: budget.debited(),
        deadline: budget.total(),
    };
    ("deadline_exceeded", Err(error))
}

/// Failure epilogue: retry the chunk elsewhere while the policy allows;
/// then isolate a multi-system chunk; a lone system gets the terminal
/// error.
///
/// `SolveError::DeviceFailure` and `SolveError::WorkerPanic` are the
/// *retryable* class (mirroring `FailureClass` in batsolv-faults): the
/// fault hit the attempt, not the data, so a different shard may well
/// succeed. Data-level failures (`NotConverged`) come through the
/// success path and are always terminal.
fn finish_failed(
    ctx: &WorkerCtx,
    hedge_of: Option<u32>,
    live: Vec<Pending>,
    error: SolveError,
    dispatch_start: Instant,
) {
    // A hedge duplicate never delivers failures and never retries: the
    // primary flight still owns these items, and hedging exists to beat
    // stragglers, not to double-report faults.
    if hedge_of.is_some() {
        return;
    }
    let reason = match error {
        SolveError::WorkerPanic { .. } => "worker_panic",
        _ => "device_failure",
    };
    let attempt = live.first().map_or(1, |p| p.attempt);
    if attempt < ctx.retry.max_attempts {
        return retry(ctx, live, &error, reason, dispatch_start);
    }
    let live: Vec<Pending> = live.into_iter().filter(|p| !p.slot.is_claimed()).collect();
    if live.len() > 1 {
        // Blame isolation: re-run each member alone on this shard. A
        // request whose own payload or id provokes the fault fails again
        // alone; every other member solves, its queue wait and solve
        // phase still measured from the fused dispatch.
        for p in live {
            run(ctx, vec![p], None, dispatch_start, false);
        }
        return;
    }
    // Wall time the failed attempt burned inside the dispatch; folded
    // into the solve phase of the terminal ledger.
    let attempt_time = dispatch_start.elapsed();
    for mut p in live {
        p.phases.solve += attempt_time;
        fail(ctx, &p, (reason, Err(error.clone())));
    }
}

/// Re-queue a failed chunk's unclaimed systems on another shard after
/// the policy's backoff. Systems the backoff would push past their
/// deadline, and every system when no shard takes the chunk, are
/// delivered terminally instead.
fn retry(
    ctx: &WorkerCtx,
    live: Vec<Pending>,
    error: &SolveError,
    reason: &'static str,
    dispatch_start: Instant,
) {
    let shard = &ctx.shard;
    let attempt_time = dispatch_start.elapsed();
    // Deterministic backoff keyed by the chunk's lead request id.
    let next_attempt = live.first().map_or(1, |p| p.attempt) + 1;
    let lead_id = live.first().map_or(0, |p| p.item.id);
    let backoff = ctx.retry.backoff(next_attempt, lead_id);

    // Debit the backoff we are about to sleep from every budget; systems
    // it would push past their deadline fail now instead of burning a
    // pointless attempt.
    let mut pendings: Vec<Pending> = Vec::with_capacity(live.len());
    for mut p in live {
        if p.slot.is_claimed() {
            continue;
        }
        p.phases.solve += attempt_time;
        p.phases.backoff += backoff;
        if let Some(b) = p.budget.as_mut() {
            b.debit(backoff);
            if b.is_exhausted() {
                fail(ctx, &p, deadline_exceeded(&p));
                continue;
            }
        }
        p.enqueued = Instant::now();
        p.attempt = next_attempt;
        pendings.push(p);
    }
    if pendings.is_empty() {
        return;
    }

    std::thread::sleep(backoff);
    // Walk the other shards first (self only as a last resort, when the
    // fleet has a single GPU shard): a fault that hit this device
    // should not greet the retry too.
    let devices = ctx.peers.len();
    let mut chunk = Chunk {
        items: pendings,
        origin: shard.id,
    };
    for k in 1..=devices {
        let target = &ctx.peers[(shard.id as usize + k) % devices];
        if target.admit(Instant::now()).is_err() {
            continue;
        }
        chunk.origin = target.id;
        let size = chunk.len();
        match target.queue.try_push(chunk) {
            PushResult::Ok => {
                shard.stats.retries.fetch_add(1, Ordering::Relaxed);
                ctx.terminals.tracer.emit(
                    None,
                    EventKind::RetryAttempt {
                        from: shard.id,
                        to: target.id,
                        size,
                        attempt: next_attempt,
                        backoff_us: backoff.as_micros() as u64,
                        reason,
                    },
                );
                return;
            }
            PushResult::Full(back) | PushResult::Closed(back) => chunk = back,
        }
    }
    // Every queue full or breaker open: terminal after all.
    for p in &chunk.items {
        fail(ctx, p, (reason, Err(error.clone())));
    }
}

/// The hedge delay for duplicating `victim`'s flight: the larger of
/// the configured floor and `p99_factor` times the victim's observed
/// p99 chunk latency (cold reservoirs fall back to the floor alone).
fn hedge_delay(ctx: &WorkerCtx, victim: &Shard) -> Duration {
    let p99 = victim.stats.latency_percentile(0.99);
    ctx.hedge.min_delay.max(p99.mul_f64(ctx.hedge.p99_factor))
}

/// Idle-path hedging: scan peers for a flight older than its hedge
/// delay, claim it (one hedge per flight), and execute the duplicate.
fn try_hedge(ctx: &WorkerCtx) {
    if !ctx.hedging_allowed() {
        return;
    }
    for peer in ctx.peers.iter() {
        if peer.id == ctx.shard.id {
            continue;
        }
        let Some(infl) = peer.inflight.lock().unwrap().clone() else {
            continue;
        };
        let age = infl.started.elapsed();
        if age < hedge_delay(ctx, peer) {
            continue;
        }
        if infl.hedged.swap(true, Ordering::AcqRel) {
            continue; // someone else already duplicated this flight
        }
        let items: Vec<Pending> = infl
            .items
            .iter()
            .filter(|p| !p.slot.is_claimed())
            .cloned()
            .collect();
        if items.is_empty() {
            continue;
        }
        let size = items.len();
        ctx.shard.stats.hedges_fired.fetch_add(1, Ordering::Relaxed);
        ctx.terminals.tracer.emit(
            None,
            EventKind::HedgeFired {
                primary: peer.id,
                hedge: ctx.shard.id,
                size,
                age_us: age.as_micros() as u64,
            },
        );
        let chunk = Chunk {
            items,
            origin: infl.origin,
        };
        execute_chunk(ctx, chunk, Some(peer.id));
        return;
    }
}
