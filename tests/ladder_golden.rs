//! Bitwise golden check of the escalation ladder.
//!
//! A small seeded XGC batch runs through `LadderEngine` for both rung-1
//! solver variants (`bicgstab`, `pipelined-bicgstab`) under every ladder
//! preconditioner, with iteration caps starved so that part of the batch
//! climbs to GMRES; one more case starves GMRES as well, so that systems
//! reach banded LU. Each case runs untraced and traced. The hashes cover
//! every outcome field, every report field, and (traced) the event
//! stream without timestamps; `SolverIteration` events are hashed as a
//! sorted multiset because worker threads emit them. One more test sends
//! a group below `min_batch_size` through a `FleetService`, so it lands
//! on the CPU spill pool. `FLEET_SPILL` was recorded before the ladder
//! became one generic rung loop. The per-case results hashes printed
//! under `--nocapture` predate the cut from five rung-1 variants to two:
//! the `pipelined-bicgstab` lines are unchanged, and the `bicgstab`
//! lines differ from the old fused-AXPY `bicgstab-fused` lines only in
//! the solver name hashed from `BatchReport::solver`. Any change to a
//! single bit of a result fails here.

use std::sync::Arc;

use batsolv::prelude::*;
use batsolv::runtime::{
    BatchItem, BatchReport, ItemOutcome, LadderConfig, LadderEngine, PrecondVariant, SolveEngine,
    SolverVariant,
};
use batsolv_fleet::{FleetConfig, FleetService};
use batsolv_trace::{EventKind, MemorySink, TraceEvent, Tracer};

const LADDER_RESULTS: u64 = 0x6328_48fc_82e6_ce40;
const LADDER_EVENTS: u64 = 0x1666_5d54_dd9b_e019;
const FLEET_SPILL: u64 = 0x162c_338f_24a9_0a18;

/// FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_rungs(h: &mut Fnv, method: SolveMethod, rungs: &[RungAttempt]) {
    h.str(method.name());
    h.u64(rungs.len() as u64);
    for r in rungs {
        h.str(&format!("{r:?}"));
    }
}

fn hash_outcome(h: &mut Fnv, o: &ItemOutcome) {
    h.u64(o.id);
    for v in &o.x {
        h.f64(*v);
    }
    h.u64(u64::from(o.iterations));
    h.f64(o.residual);
    h.u64(u64::from(o.converged));
    h.str(&format!("{:?}", o.breakdown));
    hash_rungs(h, o.method, &o.rungs);
}

fn hash_report(h: &mut Fnv, r: &BatchReport) {
    for o in &r.outcomes {
        hash_outcome(h, o);
    }
    h.f64(r.sim_time_s);
    h.u64(r.syncs);
    h.u64(r.reductions);
    for part in [
        r.split.spmv_us,
        r.split.reduction_us,
        r.split.sync_us,
        r.split.transfer_us,
    ] {
        h.f64(part);
    }
    h.str(r.solver);
}

/// The event stream without timestamps: ordered, except that the
/// per-iteration records are compared as a sorted multiset.
fn hash_events(h: &mut Fnv, events: &[TraceEvent]) {
    let mut iterations = Vec::new();
    for e in events {
        let line = format!("{:?} {:?}", e.trace_id, e.kind);
        if matches!(e.kind, EventKind::SolverIteration { .. }) {
            iterations.push(line);
        } else {
            h.str(&line);
        }
    }
    iterations.sort();
    h.u64(iterations.len() as u64);
    for line in &iterations {
        h.str(line);
    }
}

fn workload() -> XgcWorkload {
    XgcWorkload::generate(VelocityGrid::small(12, 10), 3, 20_261_017).unwrap()
}

/// Every system of the workload as a ladder item; odd ones warm-start.
fn items(w: &XgcWorkload) -> Vec<BatchItem> {
    w.systems()
        .map(|s| BatchItem {
            id: s.index as u64,
            values: s.values.to_vec(),
            rhs: s.rhs.to_vec(),
            guess: (s.index % 2 == 1).then(|| s.warm_guess.to_vec()),
            tolerance: None,
        })
        .collect()
}

/// Iteration caps starved so that part of the batch climbs to GMRES.
fn starved(solver: SolverVariant, precond: PrecondVariant) -> LadderConfig {
    LadderConfig {
        default_tolerance: 1e-10,
        max_iters: 6,
        enable_gmres: true,
        gmres_restart: 4,
        gmres_max_iters: 8,
        enable_fallback: true,
        solver,
        precond,
    }
}

const SOLVERS: [SolverVariant; 2] = [SolverVariant::Bicgstab, SolverVariant::PipelinedBicgstab];

const PRECONDS: [PrecondVariant; 4] = [
    PrecondVariant::None,
    PrecondVariant::Jacobi,
    PrecondVariant::BlockJacobi(4),
    PrecondVariant::Ilu0,
];

/// Every solver variant under every preconditioner with the starved
/// caps, then one case with GMRES starved too, so that systems reach
/// banded LU.
fn cases() -> Vec<LadderConfig> {
    let mut cases: Vec<LadderConfig> = SOLVERS
        .iter()
        .flat_map(|&solver| PRECONDS.iter().map(move |&p| starved(solver, p)))
        .collect();
    cases.push(LadderConfig {
        max_iters: 2,
        gmres_restart: 1,
        gmres_max_iters: 1,
        ..starved(SolverVariant::Bicgstab, PrecondVariant::None)
    });
    cases
}

#[test]
fn every_ladder_case_reproduces_the_golden_hashes() {
    let w = workload();
    let batch = items(&w);
    let (mut results, mut events) = (Fnv::new(), Fnv::new());
    let mut depth = [0usize; 4];
    for cfg in cases() {
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(w.pattern()), cfg);
        let untraced = engine.solve_batch(&batch).unwrap();

        let sink = Arc::new(MemorySink::new());
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(w.pattern()), cfg)
            .with_tracer(Tracer::new(sink.clone()));
        let traced = engine.solve_batch(&batch).unwrap();

        let label = format!(
            "{:>18} / {:<12} caps {}/{}",
            cfg.solver.name(),
            cfg.precond.name(),
            cfg.max_iters,
            cfg.gmres_max_iters
        );
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        hash_report(&mut a, &untraced);
        hash_report(&mut b, &traced);
        assert_eq!(a.0, b.0, "{label}: tracing changed a result");
        let mut e = Fnv::new();
        hash_events(&mut e, &sink.snapshot());
        eprintln!("{label} results {:#018x} events {:#018x}", a.0, e.0);
        results.u64(a.0);
        events.u64(e.0);
        for o in &untraced.outcomes {
            depth[o.rungs.len()] += 1;
        }
    }
    eprintln!("systems by rungs attempted: {depth:?}");
    assert!(depth[2] > 0, "some systems must finish on GMRES: {depth:?}");
    assert!(depth[3] > 0, "some systems must reach banded LU: {depth:?}");
    assert_eq!(
        results.0, LADDER_RESULTS,
        "results hash {:#018x}",
        results.0
    );
    assert_eq!(events.0, LADDER_EVENTS, "events hash {:#018x}", events.0);
}

#[test]
fn cpu_spill_pool_reproduces_the_golden_hash() {
    let w = workload();
    let sink = Arc::new(MemorySink::new());
    let cfg = FleetConfig::new(1).with_tracer(Tracer::new(sink.clone()));
    let min = cfg.min_batch_size;
    let fleet = FleetService::start(Arc::clone(w.pattern()), cfg).unwrap();
    let group: Vec<SolveRequest> = w
        .systems()
        .take(min - 1)
        .map(|s| SolveRequest::new(s.values.to_vec(), s.rhs.to_vec()))
        .collect();
    assert!(group.len() < min, "the group must spill");
    let outcomes = fleet.submit_group(group, None).unwrap().wait_all();
    let cpu_shard = fleet.range().cpu_shard();
    let snap = fleet.shutdown();

    let mut h = Fnv::new();
    for outcome in &outcomes {
        let s = outcome
            .as_ref()
            .expect("banded LU solves every spilled system");
        for v in &s.x {
            h.f64(*v);
        }
        h.u64(u64::from(s.iterations));
        h.f64(s.residual);
        hash_rungs(&mut h, s.method, &s.rungs);
    }
    h.f64(snap.cpu_pool.sim_time_s);
    eprintln!("fleet spill {:#018x}", h.0);

    let on_cpu = |e: &&TraceEvent| match e.kind {
        EventKind::KernelLaunch { shard, .. } | EventKind::Transfer { shard, .. } => {
            shard == cpu_shard
        }
        _ => false,
    };
    let events = sink.snapshot();
    let lane: Vec<&TraceEvent> = events.iter().filter(on_cpu).collect();
    let launches = lane
        .iter()
        .filter(|e| matches!(e.kind, EventKind::KernelLaunch { .. }))
        .count();
    assert_eq!(launches, 1, "one launch for the one spilled chunk");
    assert_eq!(lane.len(), launches, "the CPU lane carries no transfers");
    assert_eq!(h.0, FLEET_SPILL, "fleet spill hash {:#018x}", h.0);
}
