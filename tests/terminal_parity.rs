//! Terminal parity of the two serving stacks.
//!
//! One small seeded XGC workload runs through `SolveService` and through
//! a one-device `FleetService` with the same escalation ladder, each
//! traced into its own memory sink. Both stacks report a request's end
//! through one shared funnel, so for every accepted request each trace
//! must carry exactly one `Terminal` and one `Ledger` event with the same
//! outcome tag, every ledger must balance, and the two stacks must agree
//! request by request on the tag and the iteration count. The ladder's
//! iteration caps are starved so the success path spreads over all three
//! rungs; a launch hook that fails every launch covers the device-failure
//! path, with the fleet's retries off. A seeded panic hook that faults
//! some requests' launches pins blame isolation: both stacks fail only
//! the guilty requests and solve the innocent ones bitwise alike.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use batsolv::prelude::*;
use batsolv::runtime::{LadderConfig, PrecondVariant, SolveOutcome, SolverVariant};
use batsolv_faults::{FaultKind, FaultPlan, FaultRates};
use batsolv_fleet::{DeviceProfile, FleetConfig, FleetService, RetryPolicy};
use batsolv_gpusim::{LaunchDisruption, LaunchHook, NoDisruption};
use batsolv_trace::{EventKind, MemorySink, PhaseLedger, TraceEvent, Tracer};

/// Fails every launch it sees.
struct DeadDevice;

impl LaunchHook for DeadDevice {
    fn disrupt(&self, _ids: &[u64]) -> LaunchDisruption {
        LaunchDisruption::DeviceFail { code: "dead" }
    }
}

fn workload() -> XgcWorkload {
    XgcWorkload::generate(VelocityGrid::small(12, 10), 3, 20_261_017).unwrap()
}

fn requests(w: &XgcWorkload) -> Vec<SolveRequest> {
    w.systems()
        .map(|s| SolveRequest::new(s.values.to_vec(), s.rhs.to_vec()))
        .collect()
}

/// Iteration caps starved so that some systems need GMRES and some the
/// banded-LU rung.
fn ladder() -> LadderConfig {
    LadderConfig {
        default_tolerance: 1e-10,
        max_iters: 6,
        enable_gmres: true,
        gmres_restart: 2,
        gmres_max_iters: 4,
        enable_fallback: true,
        solver: SolverVariant::Bicgstab,
        precond: PrecondVariant::None,
    }
}

/// One request's terminal record as a trace reports it.
#[derive(Debug)]
struct Record {
    tag: &'static str,
    iterations: u32,
}

/// Check the funnel's contract on one stack's trace and return each
/// accepted request's record, in submission order.
fn records(stack: &str, ids: &[u64], events: &[TraceEvent]) -> Vec<Record> {
    let mut terminals: HashMap<u64, Vec<Record>> = HashMap::new();
    let mut ledgers: HashMap<u64, Vec<PhaseLedger>> = HashMap::new();
    for e in events {
        let Some(id) = e.trace_id else { continue };
        match &e.kind {
            EventKind::Terminal {
                outcome,
                iterations,
                ..
            } => terminals.entry(id).or_default().push(Record {
                tag: outcome,
                iterations: *iterations,
            }),
            EventKind::Ledger(ledger) => ledgers.entry(id).or_default().push(ledger.clone()),
            _ => {}
        }
    }
    assert_eq!(
        terminals.len(),
        ids.len(),
        "{stack}: terminals {terminals:?}"
    );
    assert_eq!(
        ledgers.len(),
        ids.len(),
        "{stack}: one ledger set per request"
    );
    ids.iter()
        .map(|id| {
            let mut terminal = terminals.remove(id).unwrap_or_default();
            let ledger = ledgers.remove(id).unwrap_or_default();
            assert_eq!(terminal.len(), 1, "{stack}: request {id} terminals");
            assert_eq!(ledger.len(), 1, "{stack}: request {id} ledgers");
            let (record, ledger) = (terminal.remove(0), &ledger[0]);
            assert_eq!(record.tag, ledger.outcome, "{stack}: request {id} tags");
            assert_eq!(
                record.iterations, ledger.iterations,
                "{stack}: request {id}"
            );
            assert!(
                ledger.balanced_within(1e-6),
                "{stack}: request {id} ledger does not balance: {ledger:?}"
            );
            record
        })
        .collect()
}

/// Run the workload through a `SolveService`; `hook` sits in front of
/// every launch.
fn through_service(w: &XgcWorkload, hook: Arc<dyn LaunchHook>) -> Vec<Record> {
    served(w, hook).0
}

/// [`through_service`], also returning each request's outcome.
fn served(w: &XgcWorkload, hook: Arc<dyn LaunchHook>) -> (Vec<Record>, Vec<SolveOutcome>) {
    let sink = Arc::new(MemorySink::new());
    let mut config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(w.num_systems())
        .with_linger(Duration::from_millis(50))
        .with_breaker(None)
        .with_tracer(Tracer::new(sink.clone()));
    config.ladder = ladder();
    let service = SolveService::start_with_hook(Arc::clone(w.pattern()), config, hook).unwrap();
    let tickets: Vec<_> = requests(w)
        .into_iter()
        .map(|r| service.submit(r).unwrap())
        .collect();
    let ids: Vec<u64> = tickets.iter().map(|t| t.id()).collect();
    let outcomes = tickets.into_iter().map(|t| t.wait()).collect();
    service.shutdown();
    (records("service", &ids, &sink.snapshot()), outcomes)
}

/// Run the workload through a one-device `FleetService` as one group
/// that rides the GPU shard.
fn through_fleet(w: &XgcWorkload, hook: Arc<dyn LaunchHook>) -> Vec<Record> {
    fleet_served(w, hook).0
}

/// [`through_fleet`], also returning each request's outcome.
fn fleet_served(w: &XgcWorkload, hook: Arc<dyn LaunchHook>) -> (Vec<Record>, Vec<SolveOutcome>) {
    let sink = Arc::new(MemorySink::new());
    let config = FleetConfig::new(1)
        .with_profile(DeviceProfile::V100)
        .with_min_batch_size(1)
        .with_max_batch_size(w.num_systems())
        .with_ladder(ladder())
        .with_retry(RetryPolicy::disabled())
        .with_tracer(Tracer::new(sink.clone()));
    let fleet =
        FleetService::start_with_hooks(Arc::clone(w.pattern()), config, vec![hook]).unwrap();
    let ticket = fleet.submit_group(requests(w), None).unwrap();
    let ids = ticket.ids().to_vec();
    let outcomes = ticket.wait_all();
    fleet.shutdown();
    (records("fleet", &ids, &sink.snapshot()), outcomes)
}

fn assert_parity(service: &[Record], fleet: &[Record]) {
    assert_eq!(service.len(), fleet.len());
    for (k, (s, f)) in service.iter().zip(fleet).enumerate() {
        assert_eq!(
            (s.tag, s.iterations),
            (f.tag, f.iterations),
            "request {k}: service and fleet disagree"
        );
    }
}

#[test]
fn success_path_reports_the_same_terminals_in_both_stacks() {
    let w = workload();
    let service = through_service(&w, Arc::new(NoDisruption));
    let fleet = through_fleet(&w, Arc::new(NoDisruption));
    assert_parity(&service, &fleet);
    for tag in [
        "converged_bicgstab",
        "converged_gmres",
        "converged_banded_lu",
    ] {
        assert!(
            service.iter().any(|r| r.tag == tag),
            "the starved ladder should end some request with {tag}: {service:?}"
        );
    }
}

#[test]
fn device_failure_reports_the_same_terminals_in_both_stacks() {
    let w = workload();
    let service = through_service(&w, Arc::new(DeadDevice));
    let fleet = through_fleet(&w, Arc::new(DeadDevice));
    assert_parity(&service, &fleet);
    assert!(
        service
            .iter()
            .all(|r| r.tag == "device_failure" && r.iterations == 0),
        "{service:?}"
    );
}

#[test]
fn a_guilty_request_is_isolated_the_same_way_in_both_stacks() {
    let w = workload();
    let plan = FaultPlan::new(
        24,
        FaultRates {
            panic: 0.2,
            ..Default::default()
        },
    );
    let guilty: Vec<usize> = (0..w.num_systems())
        .filter(|&i| plan.rolls(FaultKind::Panic, i as u64))
        .collect();
    assert_eq!(guilty, vec![3, 5], "seed 24 panics requests 3 and 5");
    let (service, service_out) = served(&w, Arc::new(plan.clone()));
    let (fleet, fleet_out) = fleet_served(&w, Arc::new(plan));
    assert_parity(&service, &fleet);
    for (k, (s, f)) in service_out.iter().zip(&fleet_out).enumerate() {
        if guilty.contains(&k) {
            assert_eq!(service[k].tag, "worker_panic", "request {k}");
            continue;
        }
        let (s, f) = (s.as_ref().unwrap(), f.as_ref().unwrap());
        assert_eq!(s.x, f.x, "request {k}: innocent solutions differ");
    }
}
