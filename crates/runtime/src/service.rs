//! The solve service: submission API and lifecycle of a one-shard
//! fleet. `submit` checks a request and pushes it as a one-system chunk;
//! the shard worker ([`crate::shard`]) forms batches with its front
//! stage, dispatches each as one fused solve, isolates blame for a
//! failed batch, and delivers every outcome. A watchdog thread flags
//! dispatches that exceed a time budget, and a circuit breaker sheds
//! load after a run of degraded batches.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::{LaunchHook, NoDisruption};
use batsolv_trace::EventKind;
use batsolv_types::{Error, Result};

use crate::admission::AdmissionGate;
use crate::autotune::AutoTuner;
use crate::classes::{ClassTracker, ClassesSnapshot};
use crate::config::{HedgeConfig, RetryPolicy, RuntimeConfig};
use crate::dispatcher::{LadderEngine, SolveEngine};
use crate::queue::PushResult;
use crate::request::{SolveRequest, SubmitError, Ticket};
use crate::shard::{spawn_shard_worker, Shard, WorkerCtx};
use crate::stats::StatsSnapshot;
use crate::terminal::Terminals;
use crate::watchdog::spawn_watchdog;
use crate::work::{Chunk, GroupProgress, Pending};

/// Multi-threaded dynamic-batching solve service.
///
/// Submitters hand in individual systems over a shared
/// [`SparsityPattern`]; a supervised worker thread groups them into
/// batches (target size or linger timeout, whichever fires first) and
/// dispatches each batch as one fused solve through the escalation
/// ladder. See the crate docs for an end-to-end example.
pub struct SolveService {
    shard: Arc<Shard>,
    /// The tracer, the class tracker and the autotuner, behind the one
    /// funnel every terminal outcome passes through.
    terminals: Arc<Terminals>,
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
        Self::start_with_hook(pattern, config, Arc::new(NoDisruption))
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
        let shard = Arc::new(Shard::new(
            0,
            config.device.name,
            config.queue_capacity,
            config.breaker,
        ));
        shard.stats.set_solver(config.ladder.solver.name());
        shard.stats.set_precond(config.ladder.precond.name());
        let terminals = Arc::new(Terminals {
            tracer: config.tracer.clone(),
            classes: ClassTracker::new(),
            autotune: config.autotune.map(AutoTuner::new),
        });
        let gate = config
            .validate_admission
            .then(|| AdmissionGate::new(&pattern, config.min_diag_abs));

        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = config.watchdog_budget.map(|budget| {
            let (shard, terminals) = (Arc::clone(&shard), Arc::clone(&terminals));
            let budget_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
            spawn_watchdog(
                Arc::clone(&shard.watch),
                budget,
                Arc::clone(&watchdog_stop),
                move || {
                    shard.stats.on_watchdog_stall();
                    let tracer = &terminals.tracer;
                    tracer.emit(None, EventKind::WatchdogStall { budget_us });
                    // A stalled dispatch is exactly the moment the recent
                    // event history matters: freeze it.
                    let _ = tracer.dump_flight("watchdog_stall");
                },
            )
        });

        // A one-shard fleet: no peers to steal from, hedge against or
        // retry on, so a failed batch goes straight to blame isolation.
        let worker = spawn_shard_worker(WorkerCtx {
            name: "batsolv-runtime-supervisor".into(),
            shard: Arc::clone(&shard),
            peers: Arc::new(vec![Arc::clone(&shard)]),
            engine,
            victims: Vec::new(),
            terminals: Arc::clone(&terminals),
            retry: RetryPolicy::disabled(),
            hedge: HedgeConfig::disabled(),
            degrade: None,
            predicted_chunk_cost: Duration::ZERO,
            is_spill: false,
            batching: Some((config.batch_target, config.linger)),
        })
        .map_err(|e| Error::InvalidConfig(format!("failed to spawn worker: {e}")))?;
        Ok(SolveService {
            shard,
            terminals,
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
            .and_then(|()| {
                self.shard
                    .admit(Instant::now())
                    .map_err(|retry_after| SubmitError::CircuitOpen { retry_after })
            });
        if let Err(e) = admitted {
            return Err(self.reject(e));
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let group = Arc::new(GroupProgress::new(1));
        let (pending, rx) = Pending::admit(id, request, submit_started, Instant::now(), group);
        let chunk = Chunk {
            items: vec![pending],
            origin: self.shard.id,
        };
        match self.shard.queue.try_push(chunk) {
            PushResult::Ok => {
                self.shard.stats.on_accepted();
                self.terminals
                    .tracer
                    .emit(Some(id), EventKind::Submitted { n });
                Ok(Ticket { id, rx })
            }
            PushResult::Full(_) => Err(self.reject(SubmitError::QueueFull {
                capacity: self.shard.queue.capacity(),
            })),
            PushResult::Closed(_) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Count a rejected submission and emit its `Rejected` event.
    fn reject(&self, e: SubmitError) -> SubmitError {
        let reason = e.reason();
        self.shard.stats.on_rejected(reason);
        self.terminals
            .tracer
            .emit(None, EventKind::Rejected { reason });
        e
    }

    /// Point-in-time copy of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shard.stats.snapshot()
    }

    /// Point-in-time per-workload-class latency/SLO statistics.
    pub fn classes(&self) -> ClassesSnapshot {
        self.terminals.classes.snapshot()
    }

    /// Current autotuner per-class choices (empty when autotuning is
    /// disabled or no terminal outcome has been observed yet).
    pub fn autotune_choices(&self) -> Vec<batsolv_trace::AutotuneChoice> {
        self.terminals
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
        self.shard.stats.snapshot()
    }

    fn shutdown_in_place(&mut self) {
        self.shard.queue.close();
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
