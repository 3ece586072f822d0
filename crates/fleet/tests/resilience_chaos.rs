//! Chaos tests for the fleet's robustness layers: deadline budgets,
//! retry-with-backoff, and hedged dispatch.
//!
//! The centerpiece is a retries × hedges × fault-type matrix (also run
//! combo-by-combo in CI via the `CHAOS_FAULT` / `CHAOS_RETRIES` /
//! `CHAOS_HEDGE` environment variables): under injected device
//! failures, stalls, and worker panics, every submitted system gets
//! *exactly one* terminal outcome, only the injected fault kind ever
//! fails a request, and fleet accounting (`completed + failed`)
//! matches delivered outcomes. With retries on, transient faults are
//! survived entirely: every system converges.

use std::sync::Arc;
use std::time::Duration;

use batsolv_faults::{FaultPlan, FaultRates, TransientFaults};
use batsolv_fleet::{FleetConfig, FleetService, HedgeConfig, RetryPolicy};
use batsolv_formats::SparsityPattern;
use batsolv_gpusim::{DeviceSpec, LaunchDisruption, LaunchHook, NoDisruption};
use batsolv_runtime::{
    BatchItem, LadderEngine, SolveEngine, SolveError, SolveRequest, SubmitError,
};
use batsolv_trace::{EventKind, MemorySink, TraceSink, Tracer};

fn dominant_values(pattern: &SparsityPattern, bump: f64) -> Vec<f64> {
    (0..pattern.num_rows())
        .flat_map(|r| {
            pattern
                .row_cols(r)
                .iter()
                .map(move |&c| if c as usize == r { 8.0 + bump } else { -1.0 })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Always stalls the launch (a straggler, not a failure).
struct Stall(Duration);

impl LaunchHook for Stall {
    fn disrupt(&self, _ids: &[u64]) -> LaunchDisruption {
        LaunchDisruption::Stall(self.0)
    }
}

/// One matrix cell: a transient fault of `fault` kind on shard 0 of a
/// 3-shard fleet, with the given retry/hedge policies. Returns nothing;
/// asserts the exactly-once and taxonomy invariants inside.
fn run_matrix_case(fault: &str, max_attempts: u32, hedge_on: bool) {
    let pattern = Arc::new(SparsityPattern::stencil_2d(5, 5, false));
    let n = pattern.num_rows();
    let rates = match fault {
        "device_fail" => FaultRates {
            device_fail: 1.0,
            ..Default::default()
        },
        "stall" => FaultRates {
            stall: 1.0,
            ..Default::default()
        },
        "panic" => FaultRates {
            panic: 1.0,
            ..Default::default()
        },
        other => panic!("unknown CHAOS_FAULT {other:?}"),
    };
    let plan = FaultPlan::new(0xc4a0_5000, rates).with_stall_duration(Duration::from_millis(25));
    let hedge = if hedge_on {
        HedgeConfig::enabled()
            .with_min_delay(Duration::from_millis(5))
            .with_p99_factor(3.0)
    } else {
        HedgeConfig::disabled()
    };
    let cfg = FleetConfig::new(3)
        .with_min_batch_size(2)
        .with_max_batch_size(8)
        .with_steal(true)
        .with_retry(RetryPolicy::new(max_attempts).with_seed(7))
        .with_hedge(hedge);
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![
        Arc::new(TransientFaults::new(plan)),
        Arc::new(NoDisruption),
        Arc::new(NoDisruption),
    ];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();

    let groups = 6usize;
    let per_group = 8usize;
    let mut tickets = Vec::new();
    for _ in 0..groups {
        let group: Vec<SolveRequest> = (0..per_group)
            .map(|_| SolveRequest::new(dominant_values(&pattern, 0.0), vec![1.0; n]))
            .collect();
        tickets.push(service.submit_group(group, Some(0)).unwrap());
    }

    let mut ok = 0usize;
    let mut injected = 0usize;
    for t in tickets {
        let outcomes = t.wait_all();
        assert_eq!(outcomes.len(), per_group, "one terminal outcome each");
        for o in outcomes {
            match o {
                Ok(s) => {
                    assert!(s.residual <= 1e-8);
                    ok += 1;
                }
                Err(SolveError::DeviceFailure { code }) => {
                    assert_eq!(code, "injected_launch_failure");
                    assert_eq!(fault, "device_fail", "fault kind matches the injection");
                    injected += 1;
                }
                Err(SolveError::WorkerPanic { .. }) => {
                    assert_eq!(fault, "panic", "fault kind matches the injection");
                    injected += 1;
                }
                Err(other) => panic!("unexpected terminal outcome: {other}"),
            }
        }
    }
    assert_eq!(ok + injected, groups * per_group);
    // A stall never fails a launch; and any transient fault is survived
    // entirely once retries are on (the re-route lands on a clean shard
    // or clears the first-sighting filter).
    if fault == "stall" || max_attempts > 1 {
        assert_eq!(
            injected, 0,
            "fault={fault} retries={max_attempts}: every system must converge"
        );
    }

    let snap = service.shutdown();
    assert_eq!(
        snap.completed() + snap.failed(),
        (groups * per_group) as u64,
        "exactly-once accounting: counters match delivered outcomes"
    );
    assert_eq!(snap.completed(), ok as u64);
    assert_eq!(snap.failed(), injected as u64);
}

/// Full retries × hedges × fault-type sweep, or a single cell when the
/// `CHAOS_*` environment variables narrow it (the CI matrix job).
#[test]
fn chaos_matrix_exactly_one_terminal_outcome_per_system() {
    let want_fault = std::env::var("CHAOS_FAULT").ok();
    let want_retries = std::env::var("CHAOS_RETRIES").ok();
    let want_hedge = std::env::var("CHAOS_HEDGE").ok();
    for fault in ["device_fail", "stall", "panic"] {
        if want_fault.as_deref().is_some_and(|w| w != fault) {
            continue;
        }
        for retries in [1u32, 3] {
            if want_retries
                .as_deref()
                .is_some_and(|w| w != retries.to_string())
            {
                continue;
            }
            for hedge in [false, true] {
                let label = if hedge { "on" } else { "off" };
                if want_hedge.as_deref().is_some_and(|w| w != label) {
                    continue;
                }
                eprintln!("matrix cell: fault={fault} retries={retries} hedge={label}");
                run_matrix_case(fault, retries, hedge);
            }
        }
    }
}

#[test]
fn hedged_winner_solutions_are_bitwise_identical_to_unhedged_execution() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let n = pattern.num_rows();
    // Steal OFF: queued chunks stay behind the straggler, and the idle
    // peer's only way to help is a hedge of the in-flight chunk.
    let cfg = FleetConfig::new(2)
        .with_min_batch_size(4)
        .with_max_batch_size(16)
        .with_steal(false)
        .with_hedge(
            HedgeConfig::enabled()
                .with_min_delay(Duration::from_millis(5))
                .with_p99_factor(3.0),
        );
    let ladder = cfg.ladder;
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![
        Arc::new(Stall(Duration::from_millis(40))),
        Arc::new(NoDisruption),
    ];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();

    let groups: Vec<Vec<SolveRequest>> = (0..4)
        .map(|g| {
            (0..16)
                .map(|i| {
                    SolveRequest::new(
                        dominant_values(&pattern, (g * 16 + i) as f64 * 1e-3),
                        vec![1.0 + i as f64 * 0.25; n],
                    )
                })
                .collect()
        })
        .collect();
    let tickets: Vec<_> = groups
        .iter()
        .map(|g| service.submit_group(g.clone(), Some(0)).unwrap())
        .collect();
    let fleet_solutions: Vec<Vec<Vec<f64>>> = tickets
        .into_iter()
        .map(|t| t.wait_all().into_iter().map(|o| o.unwrap().x).collect())
        .collect();

    let snap = service.shutdown();
    assert!(
        snap.hedges_fired() >= 1,
        "the idle shard hedged the straggler (fired {})",
        snap.hedges_fired()
    );
    assert!(
        snap.hedges_won() >= 1,
        "a 40 ms stall loses to a clean duplicate (won {})",
        snap.hedges_won()
    );

    // Reference: the same chunks through a lone engine — no fleet, no
    // hedging. Solver numerics are placement- and duplication-
    // independent, so the hedged winners must match bit for bit.
    let reference = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), ladder);
    for (g, group) in groups.iter().enumerate() {
        let items: Vec<BatchItem> = group
            .iter()
            .enumerate()
            .map(|(i, r)| BatchItem {
                id: i as u64,
                values: r.values.clone(),
                rhs: r.rhs.clone(),
                guess: r.guess.clone(),
                tolerance: r.tolerance,
            })
            .collect();
        let report = reference.solve_batch(&items).unwrap();
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(
                fleet_solutions[g][i], outcome.x,
                "group {g} item {i}: hedged execution must be bitwise identical"
            );
        }
    }
}

#[test]
fn budget_expiring_while_queued_sheds_instead_of_executing() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(5, 5, false));
    let n = pattern.num_rows();
    let cfg = FleetConfig::new(1)
        .with_min_batch_size(2)
        .with_max_batch_size(8)
        .with_steal(false);
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![Arc::new(Stall(Duration::from_millis(30)))];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();

    // Group A (no deadline) occupies the lone shard for 30 ms; group B
    // carries a 10 ms budget that expires while it sits queued behind A.
    let group_a: Vec<SolveRequest> = (0..8)
        .map(|_| SolveRequest::new(dominant_values(&pattern, 0.0), vec![1.0; n]))
        .collect();
    let group_b: Vec<SolveRequest> = (0..8)
        .map(|_| {
            SolveRequest::new(dominant_values(&pattern, 0.0), vec![1.0; n])
                .with_deadline(Duration::from_millis(10))
        })
        .collect();
    let ticket_a = service.submit_group(group_a, Some(0)).unwrap();
    let ticket_b = service.submit_group(group_b, Some(0)).unwrap();

    for o in ticket_a.wait_all() {
        assert!(o.is_ok(), "undeadlined group solves despite the stall");
    }
    for o in ticket_b.wait_all() {
        match o {
            Err(SolveError::DeadlineExceeded { waited, deadline }) => {
                assert_eq!(deadline, Duration::from_millis(10));
                assert!(waited >= deadline, "budget was spent before dispatch");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    let snap = service.shutdown();
    assert_eq!(snap.shed(), 8, "every deadlined system was shed");
    assert_eq!(snap.completed(), 8);
    assert_eq!(snap.failed(), 8);
}

/// A spent budget reports the whole wait it was debited, not the wait
/// capped at the deadline: queued behind a 30 ms stall, a 10 ms
/// deadline is missed by the stall's length.
#[test]
fn deadline_exceeded_reports_the_real_wait() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(5, 5, false));
    let n = pattern.num_rows();
    let cfg = FleetConfig::new(1)
        .with_min_batch_size(2)
        .with_max_batch_size(8)
        .with_steal(false);
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![Arc::new(Stall(Duration::from_millis(30)))];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();
    let request = || SolveRequest::new(dominant_values(&pattern, 0.0), vec![1.0; n]);
    let deadline = Duration::from_millis(10);
    let blocker = service.submit_group(vec![request(); 8], Some(0)).unwrap();
    let late = service
        .submit_group(vec![request().with_deadline(deadline); 8], Some(0))
        .unwrap();
    assert!(blocker.wait_all().iter().all(Result::is_ok));
    for outcome in late.wait_all() {
        match outcome {
            Err(SolveError::DeadlineExceeded {
                waited,
                deadline: d,
            }) => {
                assert_eq!(d, deadline);
                assert!(waited > deadline, "waited {waited:?}: the real wait");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    service.shutdown();
}

#[test]
fn infeasible_deadline_is_rejected_at_admission() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(5, 5, false));
    let n = pattern.num_rows();
    let service = FleetService::start(
        Arc::clone(&pattern),
        FleetConfig::new(2).with_min_batch_size(2),
    )
    .unwrap();

    // A zero deadline can never cover the predicted chunk cost: the
    // whole group is fast-failed before anything queues.
    let group: Vec<SolveRequest> = (0..8)
        .map(|_| {
            SolveRequest::new(dominant_values(&pattern, 0.0), vec![1.0; n])
                .with_deadline(Duration::ZERO)
        })
        .collect();
    match service.submit_group(group, None) {
        Err(SubmitError::Infeasible { predicted, budget }) => {
            assert!(predicted > Duration::ZERO);
            assert_eq!(budget, Duration::ZERO);
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }

    let snap = service.shutdown();
    assert_eq!(snap.rejected, 8, "the whole group counts as rejected");
    assert_eq!(snap.accepted, 0);
    assert_eq!(snap.gpu_chunks, 0, "nothing was queued");
    assert_eq!(snap.completed() + snap.failed(), 0);
}

#[test]
fn retry_reroutes_to_a_different_shard_with_attempt_attribution() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(5, 5, false));
    let n = pattern.num_rows();
    let sink = Arc::new(MemorySink::new());
    let plan = FaultPlan::new(
        0xf1ee,
        FaultRates {
            device_fail: 1.0,
            ..Default::default()
        },
    );
    // Steal OFF so the first attempt definitely executes on the faulty
    // shard 0 rather than being rescued by a thief.
    let cfg = FleetConfig::new(2)
        .with_min_batch_size(2)
        .with_max_batch_size(8)
        .with_steal(false)
        .with_retry(RetryPolicy::new(2).with_seed(11))
        .with_tracer(Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let hooks: Vec<Arc<dyn LaunchHook>> =
        vec![Arc::new(TransientFaults::new(plan)), Arc::new(NoDisruption)];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();

    let group: Vec<SolveRequest> = (0..8)
        .map(|_| SolveRequest::new(dominant_values(&pattern, 0.0), vec![1.0; n]))
        .collect();
    let ticket = service.submit_group(group, Some(0)).unwrap();
    for o in ticket.wait_all() {
        assert!(o.is_ok(), "the retry on the clean shard succeeds: {o:?}");
    }

    let snap = service.shutdown();
    assert!(
        snap.shards[0].retries >= 1,
        "the faulty shard re-queued its failed chunk"
    );

    let events = sink.snapshot();
    let retry = events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::RetryAttempt {
                from,
                to,
                attempt,
                reason,
                ..
            } => Some((*from, *to, *attempt, *reason)),
            _ => None,
        })
        .expect("a RetryAttempt event was traced");
    assert_eq!(retry.0, 0, "retry originates on the faulty shard");
    assert_eq!(retry.1, 1, "and re-routes to the other shard");
    assert_eq!(retry.2, 2, "attempt attribution: second execution");
    assert_eq!(retry.3, "device_failure");
}
