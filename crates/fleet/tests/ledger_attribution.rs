//! End-to-end latency attribution through the fleet: every winning
//! delivery — GPU chunk, CPU spill, group straggler — emits exactly one
//! phase ledger whose wall phases partition the submit → terminal
//! interval, the class tracker agrees with the Prometheus page, and
//! spilled systems record their solve time in the spill phase.

use std::sync::Arc;
use std::time::Duration;

use batsolv_fleet::{FleetConfig, FleetService};
use batsolv_formats::SparsityPattern;
use batsolv_runtime::SolveRequest;
use batsolv_trace::{parse_prom_labeled, EventKind, MemorySink, Tracer, WorkloadClass};

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

const MIN: usize = 8;

fn fleet_with_trace(pattern: &Arc<SparsityPattern>) -> (FleetService, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn batsolv_trace::TraceSink>);
    let cfg = FleetConfig::new(2)
        .with_min_batch_size(MIN)
        .with_max_batch_size(16)
        .with_tracer(tracer);
    (FleetService::start(Arc::clone(pattern), cfg).unwrap(), sink)
}

#[test]
fn every_winning_delivery_carries_a_balanced_ledger() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let (fleet, sink) = fleet_with_trace(&pattern);

    // Two chunks of 16 on GPU shards plus a sub-cutoff remainder of 3
    // that spills to the CPU pool.
    let total = 35usize;
    let ticket = fleet
        .submit_group(group(&pattern, total), None)
        .expect("group fits");
    for outcome in ticket.wait_all() {
        assert!(outcome.unwrap().residual <= 1e-10);
    }
    let snap = fleet.shutdown();

    let ledgers: Vec<_> = sink
        .snapshot()
        .into_iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Ledger(l) => Some((ev.trace_id, l)),
            _ => None,
        })
        .collect();
    assert_eq!(
        ledgers.len(),
        total,
        "exactly one ledger per winning delivery"
    );
    for (trace_id, ledger) in &ledgers {
        assert!(trace_id.is_some(), "fleet ledgers are request-scoped");
        assert!(ledger.end_to_end_us > 0.0);
        assert!(
            ledger.balanced_within(1.0),
            "phase sum must match end-to-end: {ledger:?}"
        );
        assert!(
            ledger.solve_us > 0.0 || ledger.spill_us > 0.0,
            "every delivered request spent time in a solve pool"
        );
        assert_eq!(
            ledger.deadline, None,
            "no deadlines were carried by this group"
        );
        assert!(ledger.outcome.starts_with("converged"));
    }
    // The spilled remainder attributes its dispatch to the spill phase
    // (and never to solve); GPU chunks do the opposite.
    let spilled: Vec<_> = ledgers.iter().filter(|(_, l)| l.spill_us > 0.0).collect();
    assert_eq!(spilled.len() as u64, snap.spilled, "3 spilled systems");
    for (_, l) in &spilled {
        assert_eq!(l.solve_us, 0.0, "spill dispatch must not land in solve");
        assert!(
            l.sim_spmv_us + l.sim_reduction_us + l.sim_sync_us >= 0.0,
            "spill ledgers still carry the sim split"
        );
    }
    // Exactly one delivery completed the group: the straggler.
    let stragglers = ledgers.iter().filter(|(_, l)| l.straggler).count();
    assert_eq!(stragglers, 1, "one straggler per submission group");

    // The class tracker observed every delivery, and the diagonally
    // dominant stencil converges fast: all ion-like.
    assert_eq!(snap.classes.total(), total as u64);
    assert_eq!(snap.classes.get(WorkloadClass::IonLike).count, total as u64);
    // The human-readable render lists the populated class.
    assert!(snap.render().contains("ion-like"));
}

#[test]
fn prometheus_page_and_snapshot_agree_on_classes() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let (fleet, _sink) = fleet_with_trace(&pattern);
    let ticket = fleet
        .submit_group(group(&pattern, 16), None)
        .expect("group fits");
    for outcome in ticket.wait_all() {
        outcome.unwrap();
    }
    let page = fleet.prometheus_text();
    let classes = fleet.classes();
    let ion = classes.get(WorkloadClass::IonLike);
    assert_eq!(ion.count, 16);
    assert_eq!(
        parse_prom_labeled(
            &page,
            "batsolv_fleet_class_requests_total",
            &[("class", "ion-like")],
        ),
        Some(ion.count as f64)
    );
    assert_eq!(
        parse_prom_labeled(
            &page,
            "batsolv_fleet_class_latency_us",
            &[("class", "ion-like"), ("quantile", "0.99")],
        ),
        Some(ion.p99_us as f64),
        "page p99 must match the snapshot p99"
    );
    batsolv_trace::check_prom_conformance(&page).expect("live fleet page must be conformant");
    let _ = fleet.shutdown();
}

#[test]
fn deadline_ledgers_report_hits_and_misses() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let (fleet, sink) = fleet_with_trace(&pattern);
    // A generous deadline every system meets comfortably.
    let requests: Vec<SolveRequest> = group(&pattern, MIN)
        .into_iter()
        .map(|r| r.with_deadline(Duration::from_secs(60)))
        .collect();
    let ticket = fleet.submit_group(requests, None).expect("feasible group");
    for outcome in ticket.wait_all() {
        outcome.unwrap();
    }
    let _ = fleet.shutdown();
    let ledgers: Vec<_> = sink
        .snapshot()
        .into_iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Ledger(l) => Some(l),
            _ => None,
        })
        .collect();
    assert_eq!(ledgers.len(), MIN);
    for l in &ledgers {
        assert_eq!(l.deadline, Some(true), "generous deadlines are hits");
        assert!(l.balanced_within(1.0));
    }
}

/// Every dispatched request leaves one `Dequeued` event carrying its
/// queue wait, as in the single-device service's traces.
#[test]
fn every_dispatched_request_is_traced_as_dequeued() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let (fleet, sink) = fleet_with_trace(&pattern);
    let ticket = fleet.submit_group(group(&pattern, 35), None).unwrap();
    let mut ids = ticket.ids().to_vec();
    for outcome in ticket.wait_all() {
        outcome.unwrap();
    }
    let _ = fleet.shutdown();
    let mut dequeued: Vec<u64> = sink
        .snapshot()
        .into_iter()
        .filter(|ev| matches!(ev.kind, EventKind::Dequeued { .. }))
        .map(|ev| ev.trace_id.expect("dequeued events are request-scoped"))
        .collect();
    dequeued.sort_unstable();
    ids.sort_unstable();
    assert_eq!(dequeued, ids, "one dequeue per dispatched request");
}
