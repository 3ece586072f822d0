//! End-to-end fleet service behavior: group solving across shards,
//! atomic submit rejection, breaker-aware dispatch, and drain-on-
//! shutdown semantics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use batsolv_faults::{FaultKind, FaultPlan, FaultRates};
use batsolv_fleet::{DeviceProfile, FleetConfig, FleetService, RetryPolicy};
use batsolv_formats::SparsityPattern;
use batsolv_gpusim::{LaunchDisruption, LaunchHook, NoDisruption};
use batsolv_runtime::{BreakerConfig, SolveError, SolveOutcome, SolveRequest, SubmitError};
use batsolv_trace::{
    parse_prom_value, EventKind, FlightRecorder, MemorySink, TraceEvent, TraceSink, Tracer,
};

fn dominant_values(pattern: &SparsityPattern) -> Vec<f64> {
    (0..pattern.num_rows())
        .flat_map(|r| {
            pattern
                .row_cols(r)
                .iter()
                .map(move |&c| if c as usize == r { 8.0 } else { -1.0 })
                .collect::<Vec<_>>()
        })
        .collect()
}

fn group(pattern: &SparsityPattern, size: usize) -> Vec<SolveRequest> {
    (0..size)
        .map(|_| SolveRequest::new(dominant_values(pattern), vec![1.0; pattern.num_rows()]))
        .collect()
}

#[test]
fn fleet_solves_groups_across_shards_and_rolls_up_stats() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let cfg = FleetConfig::new(4)
        .with_profile(DeviceProfile::A100)
        .with_min_batch_size(4)
        .with_max_batch_size(16);
    let service = FleetService::start(Arc::clone(&pattern), cfg).unwrap();
    assert_eq!(service.num_devices(), 4);

    // 48 systems: three 16-wide chunks fanning out over shards.
    let ticket = service.submit_group(group(&pattern, 48), None).unwrap();
    assert_eq!(ticket.len(), 48);
    for outcome in ticket.wait_all() {
        assert!(outcome.unwrap().residual <= 1e-10);
    }

    let snap = service.snapshot();
    assert_eq!(snap.accepted, 48);
    assert_eq!(snap.completed(), 48);
    assert_eq!(snap.failed(), 0);
    assert_eq!(snap.gpu_chunks, 3);
    assert_eq!(snap.spilled, 0);
    let executed: u64 = snap.shards.iter().map(|s| s.chunks_executed).sum();
    assert_eq!(executed, 3);
    assert!(snap.makespan_s > 0.0);
    assert!(snap.sim_time_total_s >= snap.makespan_s);
    assert!(snap.latency_p99 >= snap.latency_p50);

    // The Prometheus page is a pure function of the snapshot.
    let page = batsolv_fleet::fleet_prometheus_text(&snap);
    assert_eq!(
        parse_prom_value(&page, "batsolv_fleet_requests_accepted_total"),
        Some(48.0)
    );
    for d in 0..4 {
        assert!(page.contains(&format!(
            r#"batsolv_fleet_device_chunks_total{{device="{d}",profile="NVIDIA A100-40GB"}}"#
        )));
    }

    // The human-readable page carries the per-shard breakdown.
    let rendered = snap.render();
    assert!(rendered.contains("shard  0"));
    assert!(rendered.contains("steals"));
    service.shutdown();
}

#[test]
fn submit_is_atomic_on_rejection() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    let service = FleetService::start(Arc::clone(&pattern), FleetConfig::new(2)).unwrap();

    // Shape errors reject before anything queues.
    let mut bad = group(&pattern, 4);
    bad[3].rhs.pop();
    match service.submit_group(bad, None) {
        Err(SubmitError::ShapeMismatch { field, .. }) => assert_eq!(field, "rhs"),
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    match service.submit_group(Vec::new(), None) {
        Err(SubmitError::ShapeMismatch { field, .. }) => assert_eq!(field, "group"),
        other => panic!("expected empty-group rejection, got {other:?}"),
    }
    let snap = service.shutdown();
    assert_eq!(snap.accepted, 0, "rejected groups queued nothing");
    assert_eq!(snap.rejected, 4);
}

#[test]
fn dispatch_walks_past_a_tripped_breaker() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    struct AlwaysFail;
    impl LaunchHook for AlwaysFail {
        fn disrupt(&self, _ids: &[u64]) -> LaunchDisruption {
            LaunchDisruption::DeviceFail { code: "dead" }
        }
    }
    let sink = Arc::new(MemorySink::new());
    let recorder = Arc::new(FlightRecorder::new(256));
    let cfg = FleetConfig::new(2)
        .with_min_batch_size(2)
        .with_max_batch_size(8)
        .with_steal(false)
        .with_breaker(BreakerConfig {
            trip_after: 1,
            cooldown: Duration::from_secs(60),
            max_backoff: Duration::from_secs(60),
            degraded_fraction: 0.5,
        })
        .with_tracer(Tracer::with_flight_recorder(
            sink.clone(),
            Arc::clone(&recorder),
        ));
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![Arc::new(AlwaysFail), Arc::new(NoDisruption)];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();

    // First group lands on shard 0, fails, trips the breaker.
    let t = service.submit_group(group(&pattern, 4), Some(0)).unwrap();
    for o in t.wait_all() {
        assert!(matches!(
            o,
            Err(batsolv_runtime::SolveError::DeviceFailure { code: "dead" })
        ));
    }

    // Subsequent groups hinted at the dead shard walk to the healthy one.
    let t = service.submit_group(group(&pattern, 4), Some(0)).unwrap();
    for o in t.wait_all() {
        assert!(o.is_ok(), "rerouted to the healthy shard");
    }

    let snap = service.shutdown();
    assert!(snap.shards[0].breaker_open, "shard 0 still cooling down");
    assert_eq!(snap.shards[0].breaker_trips, 1);
    assert_eq!(snap.shards[1].completed, 4);

    // The trip froze the flight recorder, as a service trip does.
    let dump = recorder
        .last_dump()
        .expect("a fleet breaker trip must dump the flight recorder");
    assert_eq!(dump.reason, "breaker_trip");
    assert!(sink.snapshot().iter().any(|e| matches!(
        e.kind,
        EventKind::FlightDump {
            reason: "breaker_trip",
            ..
        }
    )));
}

#[test]
fn shutdown_drains_queued_work() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    let service = FleetService::start(
        Arc::clone(&pattern),
        FleetConfig::new(2)
            .with_min_batch_size(2)
            .with_max_batch_size(4),
    )
    .unwrap();
    let tickets: Vec<_> = (0..6)
        .map(|_| service.submit_group(group(&pattern, 4), None).unwrap())
        .collect();
    let snap = service.shutdown();
    assert_eq!(snap.completed(), 24, "queued chunks execute before exit");
    for t in tickets {
        for o in t.wait_all() {
            assert!(o.unwrap().residual <= 1e-10);
        }
    }
}

/// The CPU spill pool ignores the ladder's preconditioner: banded LU is
/// its only rung, so even with the heaviest ladder setting (ILU(0))
/// spilled chunks come back as unpreconditioned direct solves while the
/// GPU shards run the preconditioned ladder.
#[test]
fn cpu_spill_stays_unpreconditioned_banded_lu_under_an_ilu0_ladder() {
    use batsolv_runtime::{PrecondVariant, SolveMethod};

    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let mut cfg = FleetConfig::new(2)
        .with_profile(DeviceProfile::A100)
        .with_min_batch_size(8)
        .with_max_batch_size(16);
    cfg.ladder.precond = PrecondVariant::Ilu0;
    let service = FleetService::start(Arc::clone(&pattern), cfg).unwrap();

    // A 16-wide group rides the GPU shards (preconditioned ladder); a
    // 5-wide remainder falls below min_batch_size and spills to the CPU.
    let gpu_ticket = service.submit_group(group(&pattern, 16), None).unwrap();
    let spill_ticket = service.submit_group(group(&pattern, 5), None).unwrap();
    for outcome in gpu_ticket.wait_all() {
        let sol = outcome.unwrap();
        assert!(sol.residual <= 1e-8);
        assert_ne!(
            sol.method,
            SolveMethod::BandedLuFallback,
            "full-width chunks must ride the GPU iterative ladder"
        );
    }
    for outcome in spill_ticket.wait_all() {
        let sol = outcome.unwrap();
        assert!(sol.residual <= 1e-8);
        assert_eq!(sol.method, SolveMethod::BandedLuFallback);
        assert_eq!(
            sol.rungs.len(),
            1,
            "the spill pool never escalates: banded LU is its only rung"
        );
        assert_eq!(sol.rungs[0].method, SolveMethod::BandedLuFallback);
    }

    let snap = service.shutdown();
    assert_eq!(snap.spilled, 5);
    assert_eq!(snap.completed(), 21);
    assert_eq!(snap.failed(), 0);
}

/// A ladder with which every chunk would fail or panic is refused at
/// start, the same checks `RuntimeConfig::validate` applies.
#[test]
fn start_rejects_a_ladder_that_fails_every_chunk() {
    use batsolv_runtime::{LadderConfig, PrecondVariant};
    use batsolv_types::Error;

    type Spoil = fn(&mut LadderConfig);
    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    let cases: [(&str, Spoil); 7] = [
        ("block-jacobi:0", |l| {
            l.precond = PrecondVariant::BlockJacobi(0)
        }),
        ("gmres_restart 0", |l| l.gmres_restart = 0),
        ("gmres_max_iters 0", |l| l.gmres_max_iters = 0),
        ("max_iters 0", |l| l.max_iters = 0),
        ("tolerance 0", |l| l.default_tolerance = 0.0),
        ("tolerance < 0", |l| l.default_tolerance = -1e-10),
        ("tolerance NaN", |l| l.default_tolerance = f64::NAN),
    ];
    for (what, spoil) in cases {
        let mut cfg = FleetConfig::new(2);
        spoil(&mut cfg.ladder);
        match FleetService::start(Arc::clone(&pattern), cfg) {
            Err(Error::InvalidConfig(_)) => {}
            Err(e) => panic!("{what}: expected InvalidConfig, got {e:?}"),
            Ok(_) => panic!("{what}: start accepted a ladder that fails every chunk"),
        }
    }
}

/// `start_with_hooks` takes one hook per GPU shard; any other count is a
/// caller error and comes back as `InvalidConfig`, not a panic.
#[test]
fn start_with_hooks_rejects_a_hook_count_that_is_not_one_per_shard() {
    use batsolv_types::Error;

    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    for count in [0usize, 1, 3] {
        let hooks: Vec<Arc<dyn LaunchHook>> = (0..count)
            .map(|_| Arc::new(NoDisruption) as Arc<dyn LaunchHook>)
            .collect();
        match FleetService::start_with_hooks(Arc::clone(&pattern), FleetConfig::new(2), hooks) {
            Err(Error::InvalidConfig(_)) => {}
            Err(e) => panic!("{count} hooks: expected InvalidConfig, got {e:?}"),
            Ok(_) => panic!("{count} hooks: start accepted them for 2 shards"),
        }
    }
}

/// One request with a tolerance that is not finite and positive would
/// set the stopping criterion of every chunk it shares. Its whole group
/// is refused at submission; the same group without it solves on rung 1.
#[test]
fn bad_tolerance_rejects_its_group_and_batchmates_stay_on_rung_one() {
    use batsolv_runtime::{RejectReason, SolveMethod};

    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let cfg = FleetConfig::new(2)
        .with_min_batch_size(4)
        .with_max_batch_size(16);
    let service = FleetService::start(Arc::clone(&pattern), cfg).unwrap();
    for tol in [0.0, -1e-8, f64::NAN, f64::INFINITY] {
        let mut poisoned = group(&pattern, 8);
        poisoned[3].tolerance = Some(tol);
        match service.submit_group(poisoned, None) {
            Err(SubmitError::Rejected {
                reason: RejectReason::BadTolerance { .. },
            }) => {}
            other => panic!("tolerance {tol}: expected BadTolerance, got {other:?}"),
        }
    }
    assert_eq!(
        service.snapshot().accepted,
        0,
        "nothing of a refused group queues"
    );

    let ticket = service.submit_group(group(&pattern, 8), None).unwrap();
    for outcome in ticket.wait_all() {
        let sol = outcome.unwrap();
        assert_eq!(sol.method, SolveMethod::Bicgstab);
        assert_eq!(sol.rungs.len(), 1, "batchmates stay on rung 1");
    }
    service.shutdown();
}

/// A one-shard fleet with retries off serves one group of 8 through a
/// `FaultPlan` launch hook with `rates`. Returns the ids the plan faults
/// with `kind` and every member's outcome.
fn blame_case(kind: FaultKind, rates: FaultRates, seed: u64) -> (Vec<u64>, Vec<SolveOutcome>) {
    let plan = FaultPlan::new(seed, rates);
    let guilty: Vec<u64> = (0..8).filter(|&id| plan.rolls(kind, id)).collect();
    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    let cfg = FleetConfig::new(1).with_retry(RetryPolicy::disabled());
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![Arc::new(plan)];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();
    let ticket = service.submit_group(group(&pattern, 8), None).unwrap();
    assert_eq!(ticket.ids(), (0..8).collect::<Vec<u64>>());
    let outcomes = ticket.wait_all();
    let snap = service.shutdown();
    assert_eq!(snap.failed(), guilty.len() as u64, "only the guilty fail");
    assert_eq!(snap.completed(), 8 - guilty.len() as u64);
    (guilty, outcomes)
}

/// Blame isolation: the fused chunk a launch panic fails re-runs each
/// member alone, so only the request whose own launch panics gets
/// `WorkerPanic`, and the detail names it.
#[test]
fn a_worker_panic_is_blamed_on_the_request_that_provokes_it() {
    let rates = FaultRates {
        panic: 0.2,
        ..Default::default()
    };
    let (guilty, outcomes) = blame_case(FaultKind::Panic, rates, 21);
    assert_eq!(guilty, vec![7], "seed 21 panics request 7 alone");
    for (id, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Err(SolveError::WorkerPanic { detail }) if id == 7 => {
                assert!(detail.contains("request 7"), "detail: {detail}")
            }
            Ok(sol) if id != 7 => assert!(sol.residual <= 1e-10),
            other => panic!("request {id}: {other:?}"),
        }
    }
}

/// The device-failure variant of blame isolation.
#[test]
fn a_device_failure_is_blamed_on_the_request_that_provokes_it() {
    let rates = FaultRates {
        device_fail: 0.2,
        ..Default::default()
    };
    let (guilty, outcomes) = blame_case(FaultKind::DeviceFail, rates, 33);
    assert_eq!(guilty, vec![0, 5], "seed 33 fails requests 0 and 5");
    for (id, outcome) in outcomes.iter().enumerate() {
        if guilty.contains(&(id as u64)) {
            assert!(
                matches!(outcome, Err(SolveError::DeviceFailure { .. })),
                "request {id}: {outcome:?}"
            );
        } else {
            assert!(outcome.is_ok(), "innocent request {id}: {outcome:?}");
        }
    }
}

/// A trace sink that panics on the first `Dequeued` event: a fault in
/// the worker loop outside the engine call.
struct PanicOnFirstDequeue {
    fired: AtomicBool,
    inner: MemorySink,
}

impl TraceSink for PanicOnFirstDequeue {
    fn emit(&self, event: &TraceEvent) {
        let dequeued = matches!(event.kind, EventKind::Dequeued { .. });
        if dequeued && !self.fired.swap(true, Ordering::SeqCst) {
            panic!("trace sink failure");
        }
        self.inner.emit(event);
    }
}

/// A panic outside the engine call unwinds the shard's worker loop; the
/// loop respawns, so the chunk it held resolves as `ServiceShutdown`
/// and the next group is still served.
#[test]
fn a_panic_outside_the_engine_respawns_the_shard_worker() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    let sink = Arc::new(PanicOnFirstDequeue {
        fired: AtomicBool::new(false),
        inner: MemorySink::new(),
    });
    let cfg = FleetConfig::new(1).with_tracer(Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let service = FleetService::start(Arc::clone(&pattern), cfg).unwrap();
    for outcome in service
        .submit_group(group(&pattern, 8), None)
        .unwrap()
        .wait_all()
    {
        assert!(
            matches!(outcome, Err(SolveError::ServiceShutdown)),
            "{outcome:?}"
        );
    }

    let ticket = service.submit_group(group(&pattern, 8), None).unwrap();
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(ticket.wait_all()));
    let served = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a respawned worker serves the next group");
    waiter.join().unwrap().unwrap();
    assert!(served.iter().all(Result::is_ok), "{served:?}");
    assert!(sink
        .inner
        .snapshot()
        .iter()
        .any(|e| matches!(e.kind, EventKind::WorkerRespawn)));
    service.shutdown();
}
