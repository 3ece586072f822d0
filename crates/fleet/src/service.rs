//! [`FleetService`]: sharded multi-device serving with size-aware
//! dispatch, work stealing, and CPU spill.
//!
//! One service owns `devices` GPU shards — each a simulated device, a
//! bounded chunk queue, a worker thread, a circuit breaker, and stats —
//! plus the CPU banded-LU spill pool. Groups submitted through
//! [`FleetService::submit_group`] are routed by the [`DeviceRange`]
//! policy and placed *atomically*: a submit lock serializes placement
//! planning, and workers only ever drain queues, so a group either
//! lands whole or is rejected whole (no half-dispatched groups whose
//! orphaned members never resolve).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::{DeviceSpec, LaunchHook, NoDisruption};
use batsolv_runtime::degrade::DegradeState;
use batsolv_runtime::shard::{spawn_shard_worker, Shard, WorkerCtx};
use batsolv_runtime::work::{Chunk, GroupProgress, Pending};
use batsolv_runtime::{
    percentile_us, ClassTracker, ClassesSnapshot, GroupTicket, LadderEngine, PushResult,
    SolveRequest, SubmitError, Terminals,
};
use batsolv_trace::EventKind;
use batsolv_types::{Error, Result};

use crate::config::{FleetConfig, HedgeConfig};
use crate::metrics::fleet_prometheus_text;
use crate::range::{victim_order, DeviceRange, Route};
use crate::stats::FleetSnapshot;

/// Iteration count assumed by admission-time cost prediction: the
/// paper's Table III electron-species solves land near 40 iterations,
/// which makes the predicted chunk cost a realistic (not worst-case)
/// feasibility bar for deadline budgets.
const PREDICT_ITERS: u32 = 40;

/// A running fleet: GPU shards plus the CPU spill pool.
pub struct FleetService {
    range: DeviceRange,
    /// The range used at degradation level 3: the CPU spill cutoff is
    /// doubled, so marginal chunks widen onto the spill pool instead of
    /// deepening saturated GPU queues.
    wide_range: DeviceRange,
    shards: Arc<Vec<Arc<Shard>>>,
    cpu: Arc<Shard>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes placement planning against concurrent submitters and
    /// shutdown, making group placement all-or-nothing.
    submit_lock: Mutex<()>,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
    round_robin: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    gpu_chunks: AtomicU64,
    spilled: AtomicU64,
    queue_capacity: usize,
    nnz: usize,
    n: usize,
    degrade: Arc<DegradeState>,
    /// Device-model prediction for one full chunk, the admission
    /// feasibility bar for deadline-carrying requests.
    predicted_chunk_cost: Duration,
    /// The tracer and the fleet-wide per-class latency/SLO tracker,
    /// behind the terminal funnel every winning delivery reports through.
    terminals: Arc<Terminals>,
}

impl FleetService {
    /// Start a fleet over `pattern` with the given knobs.
    pub fn start(pattern: Arc<SparsityPattern>, cfg: FleetConfig) -> Result<FleetService> {
        let hooks = vec![Arc::new(NoDisruption) as Arc<dyn LaunchHook>; cfg.devices];
        FleetService::start_with_hooks(pattern, cfg, hooks)
    }

    /// Start a fleet with a chaos [`LaunchHook`] per GPU shard
    /// (`hooks[i]` disrupts shard `i`) — the seam the deterministic
    /// fault-injection tests drive.
    pub fn start_with_hooks(
        pattern: Arc<SparsityPattern>,
        cfg: FleetConfig,
        hooks: Vec<Arc<dyn LaunchHook>>,
    ) -> Result<FleetService> {
        cfg.validate()?;
        if hooks.len() != cfg.devices {
            return Err(Error::InvalidConfig(format!(
                "{} launch hooks for {} GPU shards (one per shard)",
                hooks.len(),
                cfg.devices
            )));
        }
        let range = DeviceRange::new(cfg.devices, cfg.min_batch_size, cfg.max_batch_size);
        let wide_range = DeviceRange::new(
            cfg.devices,
            (cfg.min_batch_size * 2).min(cfg.max_batch_size),
            cfg.max_batch_size,
        );
        let degrade = Arc::new(DegradeState::new(cfg.degrade));
        // The fleet has no autotuner: its shards run one fixed ladder.
        let terminals = Arc::new(Terminals {
            tracer: cfg.tracer.clone(),
            classes: ClassTracker::new(),
            autotune: None,
        });
        let spec = cfg.profile.spec();
        let predicted_chunk_cost = Duration::from_secs_f64(spec.predict_chunk_seconds(
            pattern.num_rows(),
            pattern.nnz(),
            cfg.max_batch_size,
            PREDICT_ITERS,
        ));

        let shard = |id, device| {
            Arc::new(Shard::new(
                id,
                device,
                cfg.queue_capacity,
                Some(cfg.breaker),
            ))
        };
        let shards: Arc<Vec<Arc<Shard>>> = Arc::new(
            (0..cfg.devices as u32)
                .map(|id| shard(id, spec.name))
                .collect(),
        );
        let cpu = shard(range.cpu_shard(), DeviceSpec::skylake_node().name);

        let spawn = |shard: &Arc<Shard>, engine: LadderEngine, victims, hedge, is_spill| {
            let engine = engine.with_tracer(cfg.tracer.clone()).with_shard(shard.id);
            spawn_shard_worker(WorkerCtx {
                name: format!("fleet-shard-{}", shard.id),
                shard: Arc::clone(shard),
                peers: Arc::clone(&shards),
                engine: Arc::new(engine),
                victims,
                terminals: Arc::clone(&terminals),
                retry: cfg.retry,
                hedge,
                degrade: Some(Arc::clone(&degrade)),
                predicted_chunk_cost,
                is_spill,
                batching: None,
            })
            .map_err(|e| Error::InvalidConfig(format!("failed to spawn shard worker: {e}")))
        };
        let mut workers = Vec::with_capacity(cfg.devices + 1);
        for (shard, hook) in shards.iter().zip(hooks) {
            let engine =
                LadderEngine::with_hook(spec.clone(), Arc::clone(&pattern), cfg.ladder, hook);
            let victims = if cfg.steal {
                victim_order(cfg.devices, shard.id, cfg.steal_seed)
            } else {
                Vec::new()
            };
            workers.push(spawn(shard, engine, victims, cfg.hedge, false)?);
        }
        // The CPU pool is one more worker over the same machinery: the
        // same engine cut down to its banded-LU rung, and it never steals
        // (GPU backlogs would defeat the size cutoff that routed work
        // away from it) and never hedges (its chunks are the small spill
        // tail, not fused straggler candidates).
        let cpu_engine = LadderEngine::cpu_pool(Arc::clone(&pattern), cfg.cpu_workers);
        let no_hedge = HedgeConfig::disabled();
        workers.push(spawn(&cpu, cpu_engine, Vec::new(), no_hedge, true)?);

        Ok(FleetService {
            range,
            wide_range,
            shards,
            cpu,
            workers: Mutex::new(workers),
            submit_lock: Mutex::new(()),
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            round_robin: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            gpu_chunks: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            queue_capacity: cfg.queue_capacity,
            nnz: pattern.nnz(),
            n: pattern.num_rows(),
            degrade,
            predicted_chunk_cost,
            terminals,
        })
    }

    /// Number of GPU shards.
    pub fn num_devices(&self) -> usize {
        self.range.num_devices()
    }

    /// The dispatch policy in force.
    pub fn range(&self) -> &DeviceRange {
        &self.range
    }

    /// Submit a group of systems over the fleet's shared pattern.
    ///
    /// `hint` is an optional placement affinity (e.g. a mesh-partition
    /// id); absent one, groups round-robin across shards. The group is
    /// routed by [`DeviceRange::route_group`] and placed atomically:
    /// either every chunk is queued (`Ok`) or none is (`Err`). Chunks
    /// aimed at a breaker-open or full shard walk the range to the next
    /// healthy one; only when every GPU shard refuses does the submit
    /// fail with [`SubmitError::CircuitOpen`] (all breakers open) or
    /// [`SubmitError::QueueFull`].
    ///
    /// A rejected group counts every one of its systems as rejected and
    /// emits one `Rejected` event per system, tagged like the service's;
    /// a refusal during shutdown is not counted as a rejection.
    pub fn submit_group(
        &self,
        requests: Vec<SolveRequest>,
        hint: Option<u32>,
    ) -> std::result::Result<GroupTicket, SubmitError> {
        let systems = requests.len();
        self.place_group(requests, hint).map_err(|e| {
            if !matches!(e, SubmitError::ShuttingDown) {
                let reason = e.reason();
                self.rejected.fetch_add(systems as u64, Ordering::Relaxed);
                for _ in 0..systems {
                    self.terminals
                        .tracer
                        .emit(None, EventKind::Rejected { reason });
                }
            }
            e
        })
    }

    /// Validate, plan and queue one group; every error is a rejection
    /// of the whole group.
    fn place_group(
        &self,
        requests: Vec<SolveRequest>,
        hint: Option<u32>,
    ) -> std::result::Result<GroupTicket, SubmitError> {
        // Phase-ledger anchor: everything between here and the first
        // queue push is the admission phase (validation, degradation
        // bookkeeping, feasibility, placement planning).
        let submit_started = Instant::now();
        if requests.is_empty() {
            return Err(SubmitError::ShapeMismatch {
                field: "group",
                expected: 1,
                got: 0,
            });
        }
        for r in &requests {
            r.check(self.nnz, self.n)?;
        }

        let _placement = self.submit_lock.lock().unwrap();
        if self.shutting_down.load(Ordering::Relaxed) {
            return Err(SubmitError::ShuttingDown);
        }

        // Re-evaluate the degradation ladder on fleet-wide GPU queue
        // occupancy (serialized here under the submit lock).
        let queued: usize = self.shards.iter().map(|s| s.queue.len()).sum();
        let capacity = (self.range.num_devices() * self.queue_capacity).max(1);
        if let Some((from, to)) = self.degrade.observe(queued as f64 / capacity as f64) {
            self.terminals
                .tracer
                .emit(None, EventKind::DegradeShift { from, to });
        }

        // Deadline feasibility: if the device model already prices one
        // chunk above a request's whole budget, queueing it would only
        // burn queue slots on work guaranteed to miss. Fast-fail the
        // group instead with a structured reject.
        for r in &requests {
            if let Some(deadline) = r.deadline {
                if self.predicted_chunk_cost > deadline {
                    return Err(SubmitError::Infeasible {
                        predicted: self.predicted_chunk_cost,
                        budget: deadline,
                    });
                }
            }
        }

        // Plan every chunk's destination before queueing anything. At
        // degradation level 3 the wide range (doubled spill cutoff)
        // diverts marginal chunks to the CPU pool.
        let range = if self.degrade.widen_spill() {
            &self.wide_range
        } else {
            &self.range
        };
        let first = range.pick_shard(hint, self.round_robin.fetch_add(1, Ordering::Relaxed));
        let placements = range.route_group(requests.len(), first);
        let now = Instant::now();
        let devices = self.range.num_devices();
        let mut planned = vec![0usize; devices + 1]; // [devices] = CPU pool
        let mut targets: Vec<Route> = Vec::with_capacity(placements.len());
        for p in &placements {
            match p.route {
                Route::CpuPool => {
                    if self.cpu.queue.len() + planned[devices] >= self.queue_capacity {
                        return Err(SubmitError::QueueFull {
                            capacity: self.queue_capacity,
                        });
                    }
                    planned[devices] += 1;
                    targets.push(Route::CpuPool);
                }
                Route::Shard(s) => {
                    let mut chosen = None;
                    let mut open_retry: Option<Duration> = None;
                    let mut cur = s;
                    for _ in 0..devices {
                        let shard = &self.shards[cur as usize];
                        match shard.admit(now) {
                            Err(retry) => {
                                open_retry =
                                    Some(open_retry.map_or(retry, |r: Duration| r.min(retry)));
                            }
                            Ok(()) => {
                                if shard.queue.len() + planned[cur as usize] < self.queue_capacity {
                                    chosen = Some(cur);
                                    break;
                                }
                            }
                        }
                        cur = range.next_shard(cur);
                    }
                    match chosen {
                        Some(c) => {
                            planned[c as usize] += 1;
                            targets.push(Route::Shard(c));
                        }
                        None => {
                            return Err(match open_retry {
                                Some(retry_after) => SubmitError::CircuitOpen { retry_after },
                                None => SubmitError::QueueFull {
                                    capacity: self.queue_capacity,
                                },
                            });
                        }
                    }
                }
            }
        }

        // Placement is feasible: mint ids, build the ticket, queue every
        // chunk. Pushes cannot fail now — capacity was planned under the
        // submit lock and workers only drain.
        let total = requests.len();
        let base = self.next_id.fetch_add(total as u64, Ordering::Relaxed);
        let enqueued = Instant::now();
        let group = Arc::new(GroupProgress::new(total));
        let mut ids = Vec::with_capacity(total);
        let mut rxs = Vec::with_capacity(total);
        let mut pendings = Vec::with_capacity(total);
        for (k, r) in requests.into_iter().enumerate() {
            let id = base + k as u64;
            let group = Arc::clone(&group);
            let (pending, rx) = Pending::admit(id, r, submit_started, enqueued, group);
            ids.push(id);
            rxs.push(rx);
            pendings.push(pending);
        }

        let mut rest = pendings;
        for (p, target) in placements.iter().zip(targets) {
            let tail = rest.split_off(p.end - p.start);
            let items = rest;
            rest = tail;
            let size = items.len();
            match target {
                Route::Shard(s) => {
                    let shard = &self.shards[s as usize];
                    let pushed = shard.queue.try_push(Chunk { items, origin: s });
                    assert!(
                        matches!(pushed, PushResult::Ok),
                        "planned GPU chunk placement cannot fail"
                    );
                    self.gpu_chunks.fetch_add(1, Ordering::Relaxed);
                    self.terminals.tracer.emit(
                        None,
                        EventKind::ShardDispatch {
                            shard: s,
                            device: shard.device_name,
                            size,
                            queue_depth: shard.queue.len(),
                        },
                    );
                }
                Route::CpuPool => {
                    let pushed = self.cpu.queue.try_push(Chunk {
                        items,
                        origin: self.cpu.id,
                    });
                    assert!(
                        matches!(pushed, PushResult::Ok),
                        "planned CPU chunk placement cannot fail"
                    );
                    self.spilled.fetch_add(size as u64, Ordering::Relaxed);
                    self.terminals.tracer.emit(
                        None,
                        EventKind::CpuSpill {
                            size,
                            min_batch_size: range.min_batch_size,
                        },
                    );
                }
            }
        }
        debug_assert!(rest.is_empty());
        self.accepted.fetch_add(total as u64, Ordering::Relaxed);
        Ok(GroupTicket::new(ids, rxs))
    }

    /// Point-in-time fleet rollup: every shard, the CPU pool, merged
    /// percentiles, and scheduler counters.
    pub fn snapshot(&self) -> FleetSnapshot {
        let now = Instant::now();
        let mut wait_us = Vec::new();
        let mut latency_us = Vec::new();
        let shards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.snapshot(now, &mut wait_us, &mut latency_us))
            .collect();
        let cpu_pool = self.cpu.snapshot(now, &mut wait_us, &mut latency_us);
        wait_us.sort_unstable();
        latency_us.sort_unstable();
        let makespan_s = shards
            .iter()
            .map(|s| s.sim_time_s)
            .chain(std::iter::once(cpu_pool.sim_time_s))
            .fold(0.0f64, f64::max);
        let sim_time_total_s =
            shards.iter().map(|s| s.sim_time_s).sum::<f64>() + cpu_pool.sim_time_s;
        FleetSnapshot {
            wait_p50: Duration::from_micros(percentile_us(&wait_us, 0.50)),
            wait_p99: Duration::from_micros(percentile_us(&wait_us, 0.99)),
            latency_p50: Duration::from_micros(percentile_us(&latency_us, 0.50)),
            latency_p99: Duration::from_micros(percentile_us(&latency_us, 0.99)),
            shards,
            cpu_pool,
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            gpu_chunks: self.gpu_chunks.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            makespan_s,
            sim_time_total_s,
            degrade_level: self.degrade.level(),
            classes: self.terminals.classes.snapshot(),
        }
    }

    /// Point-in-time per-workload-class statistics.
    pub fn classes(&self) -> ClassesSnapshot {
        self.terminals.classes.snapshot()
    }

    /// Render the current snapshot as a Prometheus metrics page with
    /// per-device labels.
    pub fn prometheus_text(&self) -> String {
        fleet_prometheus_text(&self.snapshot())
    }

    /// Drain every queue, stop every worker, and return the final
    /// rollup. Queued work still executes: queues drain before closing.
    pub fn shutdown(self) -> FleetSnapshot {
        {
            let _placement = self.submit_lock.lock().unwrap();
            self.shutting_down.store(true, Ordering::Relaxed);
            for s in self.shards.iter() {
                s.queue.close();
            }
            self.cpu.queue.close();
        }
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
        self.snapshot()
    }
}
