//! batsolv benchmark driver.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <collision-batch|serve-stream|fleet-skew|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--calibrate]
//! ```
//!
//! With `--trace 0` a run measures the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it repeats the workload with the
//! benchmark's spans on, with the program's own telemetry on, runs the
//! kernel probes, writes `perfbench-out/spans-<workload>.json` and
//! prints the per-layer metrics. Human-readable lines go to stderr; the
//! last line of stdout is the JSON result (`all` runs every workload in
//! turn and prints one result line each). A wrong output exits 1.

mod check;
mod collision;
mod fleet;
mod inputs;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use batsolv_trace::{LedgerAggregator, MemorySink, Tracer};

use report::{Metrics, Outcome, END_TO_END, PER_LAYER};
use spans::Spans;
use stats::{median, percentile, windowed_median_and_tail};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    Collision,
    Serve,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "collision-batch" => Some(Workload::Collision),
            "serve-stream" => Some(Workload::Serve),
            "fleet-skew" => Some(Workload::Fleet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Collision => "collision-batch",
            Workload::Serve => "serve-stream",
            Workload::Fleet => "fleet-skew",
        }
    }

    /// The fixed tail percentile: the one [`stats::tail_percentile`]
    /// picks for the samples one window of a 30 s run collects.
    fn tail_p(self) -> u32 {
        match self {
            Workload::Collision => 90,
            Workload::Serve => 99,
            Workload::Fleet => 90,
        }
    }

    /// Windows the latency samples are split into (see
    /// [`stats::windowed_median_and_tail`]).
    fn windows(self) -> usize {
        match self {
            Workload::Collision => 2,
            Workload::Serve => 50,
            Workload::Fleet => 1,
        }
    }
}

const ALL: [Workload; 3] = [Workload::Collision, Workload::Serve, Workload::Fleet];

#[derive(Clone)]
struct Args {
    workloads: Vec<Workload>,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    calibrate: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <collision-batch|serve-stream|fleet-skew|all> \
         --seed <n> --seconds <s> --trace <0|1> [--calibrate]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut calibrate = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            calibrate = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match Workload::parse(&value) {
                    Some(w) => vec![w],
                    None if value == "all" => ALL.to_vec(),
                    None => usage(&format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unexpected argument {flag}")),
        }
    }
    let workloads = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload: workloads[0],
        workloads,
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive whole number")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        calibrate,
    }
}

/// Run `setup` [`SETUP_REPS`] times; keep the last result. Returns it
/// with the median set-up time and the median input-generation time
/// (the part of set-up `gen_s` reports for each result).
fn timed_setup<T>(mut setup: impl FnMut() -> (T, f64)) -> (T, f64, f64) {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut gens = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let (value, gen_s) = setup();
        totals.push(t0.elapsed().as_secs_f64());
        gens.push(gen_s);
        last = Some(value);
    }
    (
        last.expect("at least one set-up"),
        median(&mut totals),
        median(&mut gens),
    )
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// A program tracer feeding an in-memory sink, as `--profile-out` wires
/// it, and the ledger aggregation that follows the run.
fn telemetry() -> (Tracer, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    (Tracer::new(sink.clone()), sink)
}

fn aggregate(sink: &MemorySink) -> u64 {
    let agg = LedgerAggregator::build(&sink.snapshot());
    agg.report(1.0).requests
}

fn frac_change(new: f64, base: f64) -> f64 {
    if base > 0.0 {
        new / base - 1.0
    } else {
        0.0
    }
}

/// Per-layer metrics of layers (or benchmark parts) a workload does not
/// reach; they report 0.
fn unreached(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Collision => &[
            "runtime.queue_wait_ms_p50",
            "runtime.queue_wait_ms_tail",
            "runtime.service_ms_p50",
            "runtime.batch_size_mean",
            "runtime.batches_per_s",
            "runtime.escalated_frac",
            "runtime.rejected_frac",
            "fleet.submit_group_us_p50",
            "fleet.queue_wait_ms_tail",
            "fleet.spill_frac",
            "fleet.steals_per_100_groups",
            "fleet.shed_frac",
            "fleet.shard_imbalance",
            "fleet.chunks_per_group",
            "bench.generator_late_ms_tail",
        ],
        Workload::Serve => &[
            "fleet.submit_group_us_p50",
            "fleet.queue_wait_ms_tail",
            "fleet.spill_frac",
            "fleet.steals_per_100_groups",
            "fleet.shed_frac",
            "fleet.shard_imbalance",
            "fleet.chunks_per_group",
        ],
        Workload::Fleet => &[],
    }
}

fn run_collision(args: &Args, m: &mut Metrics) -> Outcome {
    let (inputs, setup_s, gen_s) = timed_setup(|| timed(|| collision::setup(args.seed)));
    let systems = (collision::BATCHES * collision::PAIRS * 2) as f64;
    let tail_p = Workload::Collision.tail_p();
    let summarize = |phase: &collision::Phase| {
        windowed_median_and_tail(
            &phase.batch_ms,
            Workload::Collision.windows(),
            tail_p,
            "collision-batch batches",
        )
    };
    let mut outcome = Outcome::default();
    if !args.trace {
        let phase = collision::run(
            &inputs,
            Duration::from_secs(args.seconds),
            &Spans::new(false),
            Tracer::disabled(),
        );
        let (p50, tail) = summarize(&phase);
        m.set("setup_s", setup_s);
        m.set("p50_ms", p50);
        m.set("tail_ms", tail);
        m.set(
            "systems_per_s",
            phase.verified_systems as f64 / phase.wall_s,
        );
        m.set(
            "sim_us_per_system",
            phase.sim_s * 1e6 / phase.systems.max(1) as f64,
        );
        m.set(
            "slo_met_frac",
            phase.verified_systems as f64 / phase.outcome.attempted.max(1) as f64,
        );
        eprintln!(
            "collision-batch: {} batches of 128, batch p50 {p50:.3} ms p{tail_p} {tail:.3} ms, \
             max true residual {:e}, solution hashes {:016x?}",
            phase.batch_ms.len(),
            phase.max_residual,
            phase.hashes
        );
        return phase.outcome;
    }
    let third = Duration::from_secs_f64(args.seconds as f64 / 3.0);
    let base = collision::run(&inputs, third, &Spans::new(false), Tracer::disabled());
    let spans = Spans::new(true);
    let traced = collision::run(&inputs, third, &spans, Tracer::disabled());
    let (tracer, sink) = telemetry();
    let tele = collision::run(&inputs, third, &Spans::new(false), tracer);
    let events = aggregate(&sink);
    eprintln!("collision-batch: telemetry captured {events} ledger requests");
    for p in [&base, &traced, &tele] {
        outcome.add(p.outcome);
    }
    let p50 = |p: &collision::Phase| median(&mut p.batch_ms.clone());
    m.set(
        "bench.span_overhead_frac",
        frac_change(p50(&traced), p50(&base)),
    );
    m.set("trace.overhead_frac", frac_change(p50(&tele), p50(&base)));
    probes::set_solver_metrics(
        m,
        &spans.durations_ms("runtime.BatchExecutor::execute"),
        &traced.iterations,
        traced.rows,
        traced.syncs_per_iter,
        traced.launches_per_batch,
        traced.global_vectors,
    );
    m.set(
        "solvers.true_residual_max_over_tol",
        traced.max_residual / check::TOL,
    );
    m.set(
        "gpusim.sim_us_per_request",
        traced.sim_s * 1e6 / traced.systems.max(1) as f64,
    );
    m.set("xgc.generate_us_per_system", gen_s * 1e6 / systems);
    m.set(
        "bench.slo_miss_frac",
        1.0 - traced.verified_systems as f64 / traced.outcome.attempted.max(1) as f64,
    );
    m.set("bench.samples", traced.batch_ms.len() as f64);
    probes::kernels(&inputs.batches[0], m, &spans);
    write_spans(args, &spans);
    outcome
}

fn run_serve(args: &Args, m: &mut Metrics) -> Outcome {
    let (inputs, setup_s, gen_s) = timed_setup(|| {
        let (inputs, gen_s) = timed(|| serve::setup(args.seed));
        let service = serve::start_service(&inputs, Tracer::disabled());
        ((inputs, service), gen_s)
    });
    let (inputs, service) = inputs;
    let tail_p = Workload::Serve.tail_p();
    let summarize = |phase: &serve::Phase| {
        windowed_median_and_tail(
            &phase.latency_ms,
            Workload::Serve.windows(),
            tail_p,
            "serve-stream requests",
        )
    };
    let span = Duration::from_secs(args.seconds);
    if !args.trace {
        let schedule = serve::fixed_schedule(args.seed, span);
        let phase = serve::run(&service, &inputs, &schedule, &Spans::new(false));
        let (p50, tail) = summarize(&phase);
        m.set("setup_s", setup_s);
        m.set("p50_ms", p50);
        m.set("tail_ms", tail);
        m.set(
            "systems_per_s",
            phase.latency_ms.len() as f64 / phase.wall_s,
        );
        m.set(
            "sim_us_per_system",
            phase.sim_s * 1e6 / phase.latency_ms.len().max(1) as f64,
        );
        m.set(
            "slo_met_frac",
            1.0 - phase.slo_miss as f64 / phase.outcome.attempted.max(1) as f64,
        );
        let mut late = phase.late_ms.clone();
        eprintln!(
            "serve-stream: {} requests at {} rps, latency p50 {p50:.3} ms p{tail_p} {tail:.3} ms, \
             mean batch {:.1}, generator late p{tail_p} {:.3} ms, max true residual {:e}",
            phase.outcome.attempted,
            serve::FIXED_RATE,
            phase.batch_size_mean,
            percentile(&mut late, tail_p),
            phase.max_residual
        );
        return phase.outcome;
    }
    let third = span / 3;
    let schedule = serve::fixed_schedule(args.seed, third);
    let base = serve::run(&service, &inputs, &schedule, &Spans::new(false));
    let spans = Spans::new(true);
    let traced = serve::run(&service, &inputs, &schedule, &spans);
    drop(service);
    let (tracer, sink) = telemetry();
    let tele_service = serve::start_service(&inputs, tracer);
    let tele = serve::run(&tele_service, &inputs, &schedule, &Spans::new(false));
    drop(tele_service);
    let events = aggregate(&sink);
    eprintln!("serve-stream: telemetry captured {events} ledger requests");
    let mut outcome = Outcome::default();
    for p in [&base, &traced, &tele] {
        outcome.add(p.outcome);
    }
    let p50 = |p: &serve::Phase| median(&mut p.latency_ms.clone());
    m.set(
        "bench.span_overhead_frac",
        frac_change(p50(&traced), p50(&base)),
    );
    m.set("trace.overhead_frac", frac_change(p50(&tele), p50(&base)));
    let (max_rate, ladder_wrong) = serve::max_rate(&inputs, args.seed, tail_p);
    outcome.wrong += ladder_wrong;
    eprintln!("serve-stream: max rate {max_rate} req/s");

    let mut submit = traced.submit_us.clone();
    let mut wait = traced.queue_wait_ms.clone();
    let mut service_ms = traced.service_ms.clone();
    let mut late = traced.late_ms.clone();
    let n = traced.outcome.attempted.max(1) as f64;
    eprintln!(
        "serve-stream: submit p50 {:.3} us p{tail_p} {:.3} us",
        median(&mut submit),
        percentile(&mut submit, tail_p)
    );
    m.set("runtime.queue_wait_ms_p50", median(&mut wait));
    m.set("runtime.queue_wait_ms_tail", percentile(&mut wait, tail_p));
    m.set("runtime.service_ms_p50", median(&mut service_ms));
    m.set("runtime.batch_size_mean", traced.batch_size_mean);
    m.set(
        "runtime.batches_per_s",
        traced.batches as f64 / traced.wall_s,
    );
    m.set("runtime.escalated_frac", traced.escalated as f64 / n);
    m.set("runtime.rejected_frac", traced.rejected as f64 / n);
    m.set("gpusim.sim_us_per_request", traced.sim_s * 1e6 / n);
    m.set(
        "bench.generator_late_ms_tail",
        percentile(&mut late, tail_p),
    );
    m.set("bench.slo_miss_frac", traced.slo_miss as f64 / n);
    m.set("bench.samples", traced.latency_ms.len() as f64);
    m.set(
        "xgc.generate_us_per_system",
        gen_s * 1e6 / (serve::POOL_PAIRS * 2) as f64,
    );
    let probe_res = probes::executor(&inputs.pool, m, &spans);
    m.set(
        "solvers.true_residual_max_over_tol",
        traced.max_residual.max(probe_res) / check::TOL,
    );
    probes::kernels(&inputs.pool, m, &spans);
    write_spans(args, &spans);
    outcome
}

fn run_fleet(args: &Args, m: &mut Metrics) -> Outcome {
    let limit = Duration::from_secs_f64(fleet::LIMIT_MS / 1e3);
    let (inputs, setup_s, gen_s) = timed_setup(|| {
        let (inputs, gen_s) = timed(|| fleet::setup(args.seed));
        let service = fleet::start_service(&inputs, Tracer::disabled());
        ((inputs, service), gen_s)
    });
    let (inputs, service) = inputs;
    let tail_p = Workload::Fleet.tail_p();
    let summarize = |phase: &fleet::Phase| {
        windowed_median_and_tail(
            &phase.group_ms,
            Workload::Fleet.windows(),
            tail_p,
            "fleet-skew groups",
        )
    };
    let span = Duration::from_secs(args.seconds);
    if args.calibrate {
        let plan = fleet::plan(args.seed, "fleet/calibrate", span, &inputs);
        let phase = fleet::run(&service, &inputs, &plan, None, &Spans::new(false));
        let mut ms = phase.group_ms.clone();
        eprintln!(
            "fleet-skew calibration: {} groups, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            ms.len(),
            median(&mut ms),
            percentile(&mut ms, 90),
            percentile(&mut ms, 99),
            percentile(&mut ms, 100)
        );
        std::process::exit(0);
    }
    if !args.trace {
        let plan = fleet::plan(args.seed, "fleet/fixed", span, &inputs);
        let phase = fleet::run(&service, &inputs, &plan, Some(limit), &Spans::new(false));
        let (p50, tail) = summarize(&phase);
        let served = phase.outcome.attempted - phase.outcome.failed;
        let snap = phase.snapshot.as_ref().expect("fleet snapshot");
        m.set("setup_s", setup_s);
        m.set("p50_ms", p50);
        m.set("tail_ms", tail);
        m.set("systems_per_s", served as f64 / phase.wall_s);
        m.set(
            "sim_us_per_system",
            snap.sim_time_total_s * 1e6 / served.max(1) as f64,
        );
        m.set(
            "slo_met_frac",
            1.0 - phase.slo_miss_groups as f64 / phase.groups.max(1) as f64,
        );
        eprintln!(
            "fleet-skew: {} groups ({} systems), group p50 {p50:.3} ms p{tail_p} {tail:.3} ms, \
             spilled {}, shed {}, max true residual {:e}",
            phase.groups, phase.outcome.attempted, snap.spilled, phase.shed, phase.max_residual
        );
        return phase.outcome;
    }
    let third = span / 3;
    let plan = fleet::plan(args.seed, "fleet/fixed", third, &inputs);
    let base = fleet::run(&service, &inputs, &plan, Some(limit), &Spans::new(false));
    drop(service);
    // The traced phase gets a fresh fleet so its counters are its own.
    let traced_service = fleet::start_service(&inputs, Tracer::disabled());
    let spans = Spans::new(true);
    let traced = fleet::run(&traced_service, &inputs, &plan, Some(limit), &spans);
    drop(traced_service);
    let (tracer, sink) = telemetry();
    let tele_service = fleet::start_service(&inputs, tracer);
    let tele = fleet::run(
        &tele_service,
        &inputs,
        &plan,
        Some(limit),
        &Spans::new(false),
    );
    drop(tele_service);
    let events = aggregate(&sink);
    eprintln!("fleet-skew: telemetry captured {events} ledger requests");
    let mut outcome = Outcome::default();
    for p in [&base, &traced, &tele] {
        outcome.add(p.outcome);
    }
    let p50 = |p: &fleet::Phase| median(&mut p.group_ms.clone());
    m.set(
        "bench.span_overhead_frac",
        frac_change(p50(&traced), p50(&base)),
    );
    m.set("trace.overhead_frac", frac_change(p50(&tele), p50(&base)));

    let snap = traced.snapshot.as_ref().expect("fleet snapshot");
    let groups = traced.groups.max(1) as f64;
    let systems = traced.outcome.attempted.max(1) as f64;
    let served = (traced.outcome.attempted - traced.outcome.failed).max(1) as f64;
    let mut submit = traced.submit_us.clone();
    let mut wait = traced.queue_wait_ms.clone();
    let mut service_ms = traced.service_ms.clone();
    let mut late = traced.late_ms.clone();
    let steals: u64 = snap.shards.iter().map(|s| s.steals_in).sum();
    let chunks: Vec<f64> = snap
        .shards
        .iter()
        .map(|s| s.chunks_executed as f64)
        .collect();
    let mean_chunks = stats::mean(&chunks);
    let max_chunks = chunks.iter().copied().fold(0.0, f64::max);
    m.set("fleet.submit_group_us_p50", median(&mut submit));
    m.set("fleet.queue_wait_ms_tail", percentile(&mut wait, tail_p));
    m.set("fleet.spill_frac", snap.spilled as f64 / systems);
    m.set(
        "fleet.steals_per_100_groups",
        steals as f64 * 100.0 / groups,
    );
    m.set("fleet.shed_frac", traced.shed as f64 / systems);
    m.set(
        "fleet.shard_imbalance",
        if mean_chunks > 0.0 {
            max_chunks / mean_chunks
        } else {
            0.0
        },
    );
    m.set(
        "fleet.chunks_per_group",
        (snap.gpu_chunks + snap.cpu_pool.chunks_executed) as f64 / groups,
    );
    m.set("runtime.queue_wait_ms_p50", median(&mut wait));
    m.set("runtime.queue_wait_ms_tail", percentile(&mut wait, tail_p));
    m.set("runtime.service_ms_p50", median(&mut service_ms));
    m.set("runtime.batch_size_mean", stats::mean(&traced.batch_sizes));
    m.set(
        "runtime.batches_per_s",
        snap.gpu_chunks as f64 / traced.wall_s,
    );
    m.set("runtime.escalated_frac", traced.escalated as f64 / systems);
    m.set("runtime.rejected_frac", traced.rejected as f64 / systems);
    m.set(
        "gpusim.sim_us_per_request",
        snap.sim_time_total_s * 1e6 / served,
    );
    m.set(
        "bench.generator_late_ms_tail",
        percentile(&mut late, tail_p),
    );
    m.set(
        "bench.slo_miss_frac",
        traced.slo_miss_groups as f64 / groups,
    );
    m.set("bench.samples", traced.group_ms.len() as f64);
    m.set(
        "xgc.generate_us_per_system",
        gen_s * 1e6 / (fleet::POOL_PAIRS * 2) as f64,
    );
    let probe_res = probes::executor(&inputs.pool, m, &spans);
    m.set(
        "solvers.true_residual_max_over_tol",
        traced.max_residual.max(probe_res) / check::TOL,
    );
    probes::kernels(&inputs.pool, m, &spans);
    write_spans(args, &spans);
    outcome
}

fn write_spans(args: &Args, spans: &Spans) {
    let path = PathBuf::from(format!("perfbench-out/spans-{}.json", args.workload.name()));
    let records = spans.records();
    match spans::write_json(&path, args.workload.name(), args.seed, &records) {
        Ok(()) => {
            eprintln!("spans: {} written to {}", records.len(), path.display());
            for (layer, (count, total, own)) in spans::layer_summary(&records) {
                eprintln!(
                    "  {layer:<8} {count:>7} spans  total {:>10.3} ms  self {:>10.3} ms",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Run one workload and print its result line; returns false if an
/// output failed the check or a metric could not be reported.
fn run(args: &Args) -> bool {
    let mut metrics = Metrics::default();
    let outcome = match args.workload {
        Workload::Collision => run_collision(args, &mut metrics),
        Workload::Serve => run_serve(args, &mut metrics),
        Workload::Fleet => run_fleet(args, &mut metrics),
    };
    let registry: &[(&str, &str)] = if args.trace {
        for name in unreached(args.workload) {
            metrics.set(name, 0.0);
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for (name, unit) in registry {
        if let Some(v) = metrics.get(name) {
            eprintln!("{:<16} {name:<36} {v:>14.6} {unit}", args.workload.name());
        }
    }
    eprintln!(
        "{}: attempted {}, failed {}, wrong outputs {}",
        args.workload.name(),
        outcome.attempted,
        outcome.failed,
        outcome.wrong
    );
    match report::result_line(registry, &metrics, outcome) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    }
    if outcome.wrong > 0 {
        eprintln!("error: {} outputs failed the check", outcome.wrong);
        return false;
    }
    true
}

fn main() {
    let args = parse_args();
    let mut ok = true;
    for &workload in &args.workloads {
        ok &= run(&Args {
            workload,
            ..args.clone()
        });
    }
    if !ok {
        std::process::exit(1);
    }
}
