//! Per-shard counters, latency statistics, and the failure taxonomy.
//!
//! One registry per shard worker, read as a [`StatsSnapshot`] by the
//! single-device service and as a shard row by the fleet. Hot-path
//! counters are atomics; the batch-size histogram, breakdown taxonomy,
//! and the latency samples live behind a mutex touched once per
//! execution and once per delivered outcome. Every outcome is counted at
//! the delivery that wins its outcome slot, so the counters match what
//! callers observe even when hedges execute a system twice.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::request::{SolveError, SolveMethod, SolveOutcome};
use crate::reservoir::{percentile_us, Reservoir};

/// Number of power-of-two histogram buckets: bucket `k` counts batches
/// of size in `[2^k, 2^(k+1))`, so bucket 0 is size 1, bucket 10 covers
/// 1024..2047, and everything larger lands in the last bucket.
const HIST_BUCKETS: usize = 12;

/// Escalation-ladder depth buckets: requests whose dispatch attempted
/// 1, 2, or 3 rungs.
pub const RUNG_BUCKETS: usize = 3;

#[derive(Debug, Default)]
struct Sampled {
    batch_size_hist: [u64; HIST_BUCKETS],
    /// Queue-wait samples in microseconds, one per solved delivery.
    /// Bounded: a fixed-capacity reservoir (Algorithm R, seeded), so a
    /// long-running service never grows the registry without limit while
    /// percentiles stay exact under the cap and representative above it.
    wait_samples_us: Reservoir,
    /// Enqueue-to-outcome latency samples in microseconds, same
    /// deliveries (the fleet's hedge delay and latency percentiles).
    latency_samples_us: Reservoir,
    iterations_total: u64,
    iterations_max: u64,
    /// Breakdown tag → occurrence count (terminal breakdowns only).
    breakdowns: BTreeMap<&'static str, u64>,
    /// `rung_hist[k]` counts requests whose dispatch attempted `k+1`
    /// ladder rungs.
    rung_hist: [u64; RUNG_BUCKETS],
    /// Name of the configured rung-1 solver variant ("" until set).
    solver: &'static str,
    /// Name of the configured ladder preconditioner ("" until set).
    precond: &'static str,
}

/// One shard's counter registry, written by its worker and the
/// submission path, read via [`StatsRegistry::snapshot`].
#[derive(Debug, Default)]
pub struct StatsRegistry {
    accepted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shape: AtomicU64,
    rejected_nonfinite: AtomicU64,
    rejected_zero_diag: AtomicU64,
    rejected_tolerance: AtomicU64,
    rejected_circuit_open: AtomicU64,
    converged_iterative: AtomicU64,
    converged_gmres: AtomicU64,
    converged_fallback: AtomicU64,
    failed_not_converged: AtomicU64,
    failed_deadline: AtomicU64,
    failed_device: AtomicU64,
    failed_panic: AtomicU64,
    /// Executions whose engine returned a report.
    batches_formed: AtomicU64,
    /// Breaker trips, counted by [`Terminals::feed_breaker`].
    ///
    /// [`Terminals::feed_breaker`]: crate::Terminals::feed_breaker
    pub(crate) breaker_trips: AtomicU64,
    watchdog_stalls: AtomicU64,
    worker_respawns: AtomicU64,
    sim_syncs_total: AtomicU64,
    sim_reductions_total: AtomicU64,
    /// Simulated device time, summed in whole nanoseconds per execution
    /// (atomics hold no f64).
    sim_time_ns: AtomicU64,
    // The shard row's counters, documented on `ShardSnapshot`; a chunk
    // execution counts failed ones too (own, stolen, hedged).
    pub(crate) chunks_executed: AtomicU64,
    pub(crate) steals_in: AtomicU64,
    pub(crate) steals_out: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) hedges_fired: AtomicU64,
    pub(crate) hedges_won: AtomicU64,
    pub(crate) shed: AtomicU64,
    sampled: Mutex<Sampled>,
}

impl StatsRegistry {
    /// Fresh registry, all zeros.
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    pub(crate) fn on_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one rejected submission under its [`SubmitError::reason`]
    /// tag.
    ///
    /// [`SubmitError::reason`]: crate::SubmitError::reason
    pub(crate) fn on_rejected(&self, reason: &str) {
        let counter = match reason {
            "queue_full" => &self.rejected_full,
            "nonfinite" => &self.rejected_nonfinite,
            "zero_diag" => &self.rejected_zero_diag,
            "tolerance" => &self.rejected_tolerance,
            "circuit_open" => &self.rejected_circuit_open,
            "shape" => &self.rejected_shape,
            // Only the fleet rejects as infeasible; shutdown is no reject.
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_watchdog_stall(&self) {
        self.watchdog_stalls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the configured rung-1 solver variant (once, at startup).
    pub(crate) fn set_solver(&self, name: &'static str) {
        self.sampled.lock().unwrap().solver = name;
    }

    /// Record the configured ladder preconditioner (once, at startup).
    pub(crate) fn set_precond(&self, name: &'static str) {
        self.sampled.lock().unwrap().precond = name;
    }

    /// Record one execution whose engine returned a report: its size,
    /// the simulated kernel time it cost, and its synchronization
    /// counters.
    pub(crate) fn on_batch(&self, batch_size: usize, sim_time_s: f64, syncs: u64, reductions: u64) {
        self.batches_formed.fetch_add(1, Ordering::Relaxed);
        let ns = (sim_time_s * 1e9).max(0.0) as u64;
        self.sim_time_ns.fetch_add(ns, Ordering::Relaxed);
        self.sim_syncs_total.fetch_add(syncs, Ordering::Relaxed);
        self.sim_reductions_total
            .fetch_add(reductions, Ordering::Relaxed);
        let bucket = usize::try_from(batch_size.max(1).ilog2())
            .unwrap()
            .min(HIST_BUCKETS - 1);
        self.sampled.lock().unwrap().batch_size_hist[bucket] += 1;
    }

    /// Count one delivered outcome. `samples` carries the queue wait and
    /// the enqueue-to-outcome latency of a solved (engine-returned)
    /// delivery; the ladder's iterations, rungs and breakdown tag are
    /// read off the outcome itself.
    pub(crate) fn on_outcome(&self, outcome: &SolveOutcome, samples: Option<(Duration, Duration)>) {
        let (counter, ran) = match outcome {
            Ok(s) => {
                let counter = match s.method {
                    SolveMethod::Bicgstab => &self.converged_iterative,
                    SolveMethod::Gmres => &self.converged_gmres,
                    SolveMethod::BandedLuFallback => &self.converged_fallback,
                };
                (counter, Some((s.iterations, s.rungs.len(), None)))
            }
            Err(SolveError::NotConverged {
                iterations,
                rungs,
                breakdown,
                ..
            }) => (
                &self.failed_not_converged,
                Some((*iterations, rungs.len(), *breakdown)),
            ),
            Err(SolveError::DeadlineExceeded { .. }) => (&self.failed_deadline, None),
            Err(SolveError::DeviceFailure { .. }) => (&self.failed_device, None),
            Err(SolveError::WorkerPanic { .. }) => (&self.failed_panic, None),
            Err(SolveError::ServiceShutdown) => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let mut s = self.sampled.lock().unwrap();
        if let Some((wait, latency)) = samples {
            s.wait_samples_us.push(wait.as_micros() as u64);
            s.latency_samples_us.push(latency.as_micros() as u64);
        }
        if let Some((iterations, rungs, breakdown)) = ran {
            s.iterations_total += u64::from(iterations);
            s.iterations_max = s.iterations_max.max(u64::from(iterations));
            s.rung_hist[rungs.clamp(1, RUNG_BUCKETS) - 1] += 1;
            if let Some(tag) = breakdown {
                *s.breakdowns.entry(tag).or_insert(0) += 1;
            }
        }
    }

    /// Copies of the raw wait and latency samples, in microseconds.
    pub(crate) fn samples_us(&self) -> (Vec<u64>, Vec<u64>) {
        let s = self.sampled.lock().unwrap();
        (
            s.wait_samples_us.samples().to_vec(),
            s.latency_samples_us.samples().to_vec(),
        )
    }

    /// The `p` percentile of the latency samples.
    pub(crate) fn latency_percentile(&self, p: f64) -> Duration {
        let mut samples = self
            .sampled
            .lock()
            .unwrap()
            .latency_samples_us
            .samples()
            .to_vec();
        samples.sort_unstable();
        Duration::from_micros(percentile_us(&samples, p))
    }

    /// Consistent point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let s = self.sampled.lock().unwrap();
        let mut waits = s.wait_samples_us.samples().to_vec();
        waits.sort_unstable();
        let pct = |p: f64| Duration::from_micros(percentile_us(&waits, p));
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_shape: self.rejected_shape.load(Ordering::Relaxed),
            rejected_nonfinite: self.rejected_nonfinite.load(Ordering::Relaxed),
            rejected_zero_diag: self.rejected_zero_diag.load(Ordering::Relaxed),
            rejected_tolerance: self.rejected_tolerance.load(Ordering::Relaxed),
            rejected_circuit_open: self.rejected_circuit_open.load(Ordering::Relaxed),
            converged_iterative: self.converged_iterative.load(Ordering::Relaxed),
            converged_gmres: self.converged_gmres.load(Ordering::Relaxed),
            converged_fallback: self.converged_fallback.load(Ordering::Relaxed),
            failed_not_converged: self.failed_not_converged.load(Ordering::Relaxed),
            failed_deadline: self.failed_deadline.load(Ordering::Relaxed),
            failed_device: self.failed_device.load(Ordering::Relaxed),
            failed_panic: self.failed_panic.load(Ordering::Relaxed),
            batches_formed: self.batches_formed.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            watchdog_stalls: self.watchdog_stalls.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            batch_size_hist: s.batch_size_hist,
            rung_hist: s.rung_hist,
            breakdowns: s.breakdowns.clone(),
            queue_wait_p50: pct(0.50),
            queue_wait_p99: pct(0.99),
            solver_iterations_total: s.iterations_total,
            solver_iterations_max: s.iterations_max,
            sim_time_total_s: self.sim_time_ns.load(Ordering::Relaxed) as f64 / 1e9,
            sim_syncs_total: self.sim_syncs_total.load(Ordering::Relaxed),
            sim_reductions_total: self.sim_reductions_total.load(Ordering::Relaxed),
            solver: s.solver,
            precond: s.precond,
        }
    }
}

/// Point-in-time copy of the service counters.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests rejected with [`crate::SubmitError::QueueFull`].
    pub rejected_queue_full: u64,
    /// Requests rejected with [`crate::SubmitError::ShapeMismatch`].
    pub rejected_shape: u64,
    /// Requests rejected by the admission gate for non-finite payloads.
    pub rejected_nonfinite: u64,
    /// Requests rejected by the admission gate for unusable diagonals.
    pub rejected_zero_diag: u64,
    /// Requests rejected for a tolerance that is not finite and positive.
    pub rejected_tolerance: u64,
    /// Requests shed with [`crate::SubmitError::CircuitOpen`].
    pub rejected_circuit_open: u64,
    /// Requests converged by BiCGSTAB (rung 1).
    pub converged_iterative: u64,
    /// Requests converged by GMRES (rung 2).
    pub converged_gmres: u64,
    /// Requests converged by the banded-LU fallback (rung 3).
    pub converged_fallback: u64,
    /// Requests that failed to converge on every rung.
    pub failed_not_converged: u64,
    /// Requests abandoned past their queue-wait deadline.
    pub failed_deadline: u64,
    /// Requests failed by a device/launch failure.
    pub failed_device: u64,
    /// Requests failed by a worker panic attributed to them.
    pub failed_panic: u64,
    /// Fused batches dispatched.
    pub batches_formed: u64,
    /// Circuit-breaker trips (closed/half-open → open transitions).
    pub breaker_trips: u64,
    /// Dispatches flagged by the watchdog as exceeding the time budget.
    pub watchdog_stalls: u64,
    /// Times the supervisor respawned a panicked worker.
    pub worker_respawns: u64,
    /// Power-of-two batch-size histogram; bucket `k` counts batches of
    /// size `[2^k, 2^(k+1))`.
    pub batch_size_hist: [u64; HIST_BUCKETS],
    /// `rung_hist[k]` counts requests whose dispatch attempted `k+1`
    /// escalation rungs.
    pub rung_hist: [u64; RUNG_BUCKETS],
    /// Terminal breakdown tag → occurrence count.
    pub breakdowns: BTreeMap<&'static str, u64>,
    /// Median queue wait across dispatched requests.
    pub queue_wait_p50: Duration,
    /// 99th-percentile queue wait across dispatched requests.
    pub queue_wait_p99: Duration,
    /// Total iterative-solver iterations spent.
    pub solver_iterations_total: u64,
    /// Worst single-system iteration count.
    pub solver_iterations_max: u64,
    /// Total simulated kernel time across dispatched batches, seconds.
    pub sim_time_total_s: f64,
    /// Total simulated synchronization points across dispatched batches.
    pub sim_syncs_total: u64,
    /// Total simulated reduction trees (exposed + hidden) across
    /// dispatched batches.
    pub sim_reductions_total: u64,
    /// Configured rung-1 solver variant ("" until the service sets it).
    pub solver: &'static str,
    /// Configured ladder preconditioner ("" until the service sets it).
    pub precond: &'static str,
}

impl StatsSnapshot {
    /// Requests that reached any terminal outcome.
    pub fn completed(&self) -> u64 {
        self.converged_iterative
            + self.converged_gmres
            + self.converged_fallback
            + self.failed_not_converged
            + self.failed_deadline
            + self.failed_device
            + self.failed_panic
    }

    /// Requests rejected before entering the queue, all causes.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_shape
            + self.rejected_nonfinite
            + self.rejected_zero_diag
            + self.rejected_tolerance
            + self.rejected_circuit_open
    }

    /// Mean batch size across dispatched batches.
    pub fn mean_batch_size(&self) -> f64 {
        let dispatched = self.converged_iterative
            + self.converged_gmres
            + self.converged_fallback
            + self.failed_not_converged;
        if self.batches_formed == 0 {
            0.0
        } else {
            dispatched as f64 / self.batches_formed as f64
        }
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("solve service stats\n");
        out.push_str(&format!(
            "  requests : {} accepted, {} rejected (queue full), {} rejected (shape)\n",
            self.accepted, self.rejected_queue_full, self.rejected_shape
        ));
        out.push_str(&format!(
            "  admission: {} rejected (non-finite), {} rejected (zero diagonal), \
             {} rejected (tolerance), {} shed (circuit open)\n",
            self.rejected_nonfinite,
            self.rejected_zero_diag,
            self.rejected_tolerance,
            self.rejected_circuit_open
        ));
        out.push_str(&format!(
            "  outcomes : {} converged (bicgstab), {} converged (gmres), \
             {} converged (LU fallback), {} not converged, {} deadline exceeded\n",
            self.converged_iterative,
            self.converged_gmres,
            self.converged_fallback,
            self.failed_not_converged,
            self.failed_deadline
        ));
        out.push_str(&format!(
            "  faults   : {} device failures, {} worker panics, {} worker respawns, \
             {} breaker trips, {} watchdog stalls\n",
            self.failed_device,
            self.failed_panic,
            self.worker_respawns,
            self.breaker_trips,
            self.watchdog_stalls
        ));
        if !self.breakdowns.is_empty() {
            out.push_str("  breakdowns by kind:\n");
            for (tag, count) in &self.breakdowns {
                out.push_str(&format!("    [{tag:>14}] {count}\n"));
            }
        }
        out.push_str(&format!(
            "  batching : {} batches, mean size {:.1}\n",
            self.batches_formed,
            self.mean_batch_size()
        ));
        out.push_str("  batch-size histogram:\n");
        for (k, &count) in self.batch_size_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = 1u64 << k;
            let hi = (1u64 << (k + 1)) - 1;
            let label = if k == self.batch_size_hist.len() - 1 {
                format!("{lo}+")
            } else if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}-{hi}")
            };
            out.push_str(&format!("    [{label:>7}] {count}\n"));
        }
        if self.rung_hist.iter().any(|&c| c > 0) {
            out.push_str("  escalation rungs attempted:\n");
            for (k, &count) in self.rung_hist.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                out.push_str(&format!("    [{} rung(s)] {count}\n", k + 1));
            }
        }
        out.push_str(&format!(
            "  queue wait: p50 {:.3} ms, p99 {:.3} ms\n",
            self.queue_wait_p50.as_secs_f64() * 1e3,
            self.queue_wait_p99.as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "  solver   : {} iterations total, {} max per system, {:.3} ms simulated kernel time\n",
            self.solver_iterations_total,
            self.solver_iterations_max,
            self.sim_time_total_s * 1e3
        ));
        if !self.solver.is_empty() {
            out.push_str(&format!(
                "  variant  : {} ({} syncs, {} reductions simulated)\n",
                self.solver, self.sim_syncs_total, self.sim_reductions_total
            ));
        }
        if !self.precond.is_empty() {
            out.push_str(&format!("  precond  : {}\n", self.precond));
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::request::{RungAttempt, Solution};

    /// A converged outcome after `iterations`, having climbed `rungs`
    /// ladder rungs.
    pub(crate) fn solved(method: SolveMethod, iterations: u32, rungs: usize) -> SolveOutcome {
        let rung = RungAttempt {
            method,
            iterations,
            residual: 0.0,
            converged: true,
            breakdown: None,
        };
        Ok(Solution {
            x: vec![],
            iterations,
            residual: 0.0,
            method,
            batch_size: 1,
            queue_wait: Duration::ZERO,
            rungs: vec![rung; rungs],
        })
    }

    /// A not-converged outcome that climbed `rungs` rungs and ended
    /// with breakdown `tag`, if any.
    pub(crate) fn broke_down(tag: Option<&'static str>, rungs: usize) -> SolveOutcome {
        Err(SolveError::NotConverged {
            iterations: 0,
            residual: f64::NAN,
            breakdown: tag,
            rungs: vec![
                RungAttempt {
                    method: SolveMethod::Bicgstab,
                    iterations: 0,
                    residual: f64::NAN,
                    converged: false,
                    breakdown: tag,
                };
                rungs
            ],
        })
    }

    /// Record one solved execution the way a shard worker does: the
    /// execution, then one delivery per outcome with its queue wait.
    fn batch(r: &StatsRegistry, waits: &[Duration], outcomes: &[SolveOutcome], sim_time_s: f64) {
        r.on_batch(outcomes.len().max(waits.len()), sim_time_s, 0, 0);
        for (k, outcome) in outcomes.iter().enumerate() {
            let wait = waits.get(k).copied().unwrap_or_default();
            r.on_outcome(outcome, Some((wait, wait)));
        }
    }

    fn converged_n(n: usize) -> Vec<SolveOutcome> {
        vec![solved(SolveMethod::Bicgstab, 1, 1); n]
    }

    #[test]
    fn counters_accumulate() {
        let r = StatsRegistry::new();
        r.on_accepted();
        r.on_accepted();
        r.on_rejected("queue_full");
        r.on_outcome(
            &Err(SolveError::DeadlineExceeded {
                waited: Duration::from_millis(2),
                deadline: Duration::from_millis(1),
            }),
            None,
        );
        batch(
            &r,
            &[Duration::from_micros(100), Duration::from_micros(300)],
            &[
                solved(SolveMethod::Bicgstab, 10, 1),
                solved(SolveMethod::Bicgstab, 20, 1),
            ],
            1.5e-4,
        );
        let s = r.snapshot();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.failed_deadline, 1);
        assert_eq!(s.batches_formed, 1);
        assert_eq!(s.converged_iterative, 2);
        assert_eq!(s.solver_iterations_total, 30);
        assert_eq!(s.solver_iterations_max, 20);
        assert_eq!(s.batch_size_hist[1], 1); // size 2 → bucket 1
        assert_eq!(s.rung_hist, [2, 0, 0]);
        assert!((s.sim_time_total_s - 1.5e-4).abs() < 1e-12);
        assert_eq!(s.completed(), 3);
    }

    #[test]
    fn percentiles_from_samples() {
        let r = StatsRegistry::new();
        let waits: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        batch(&r, &waits, &converged_n(100), 0.0);
        let s = r.snapshot();
        // Index round((100-1)*0.5) = 50 → the 51 µs sample.
        assert_eq!(s.queue_wait_p50, Duration::from_micros(51));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(99));
        assert_eq!(s.batch_size_hist[6], 1); // size 100 → bucket 6 (64-127)
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = StatsRegistry::new().snapshot();
        assert_eq!(s.completed(), 0);
        assert_eq!(s.rejected_total(), 0);
        assert_eq!(s.queue_wait_p50, Duration::ZERO);
        assert_eq!(s.mean_batch_size(), 0.0);
        assert!(s.render().contains("0 accepted"));
    }

    #[test]
    fn render_mentions_every_section() {
        let r = StatsRegistry::new();
        batch(
            &r,
            &[Duration::from_micros(5)],
            &[solved(SolveMethod::BandedLuFallback, 3, 3)],
            1e-6,
        );
        r.on_outcome(&broke_down(Some("divergence"), 3), None);
        let text = r.snapshot().render();
        assert!(text.contains("batch-size histogram"));
        assert!(text.contains("LU fallback"));
        assert!(text.contains("queue wait"));
        assert!(text.contains("divergence"));
        assert!(text.contains("escalation rungs"));
        assert!(text.contains("breaker trips"));
    }

    #[test]
    fn failure_taxonomy_counters() {
        let r = StatsRegistry::new();
        r.on_rejected("nonfinite");
        r.on_rejected("nonfinite");
        r.on_rejected("zero_diag");
        r.on_rejected("circuit_open");
        r.on_outcome(&Err(SolveError::DeviceFailure { code: "dead" }), None);
        let panicked = SolveError::WorkerPanic {
            detail: "boom".into(),
        };
        r.on_outcome(&Err(panicked), None);
        r.breaker_trips.fetch_add(1, Ordering::Relaxed);
        r.on_watchdog_stall();
        r.on_worker_respawn();
        let s = r.snapshot();
        assert_eq!(s.rejected_nonfinite, 2);
        assert_eq!(s.rejected_zero_diag, 1);
        assert_eq!(s.rejected_circuit_open, 1);
        assert_eq!(s.failed_device, 1);
        assert_eq!(s.failed_panic, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.watchdog_stalls, 1);
        assert_eq!(s.worker_respawns, 1);
        assert_eq!(s.rejected_total(), 4);
        assert_eq!(s.completed(), 2, "device + panic count as terminal");
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let r = StatsRegistry::new();
        batch(&r, &[Duration::from_micros(777)], &converged_n(1), 0.0);
        let s = r.snapshot();
        assert_eq!(s.queue_wait_p50, Duration::from_micros(777));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(777));
        assert_eq!(s.batch_size_hist[0], 1); // size 1 → bucket 0
    }

    #[test]
    fn histogram_buckets_at_power_of_two_boundaries() {
        // Sizes 2^k land in bucket k; 2^k − 1 lands in bucket k − 1.
        for (size, bucket) in [
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 2),
            (7, 2),
            (8, 3),
            (1 << 11, 11),
        ] {
            let r = StatsRegistry::new();
            r.on_batch(size, 0.0, 0, 0);
            let s = r.snapshot();
            assert_eq!(
                s.batch_size_hist[bucket], 1,
                "size {size} should land in bucket {bucket}"
            );
            assert_eq!(s.batch_size_hist.iter().sum::<u64>(), 1);
        }
        // Oversized batches clamp into the last bucket.
        let r = StatsRegistry::new();
        r.on_batch(1 << 13, 0.0, 0, 0);
        assert_eq!(r.snapshot().batch_size_hist[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn percentiles_at_power_of_two_sample_counts() {
        // n = 2^k and n = 2^k − 1 exercise both parities of the
        // round((n−1)·p) index formula.
        for n in [1u64, 2, 4, 8, 16, 3, 7, 15] {
            let r = StatsRegistry::new();
            let waits: Vec<Duration> = (1..=n).map(Duration::from_micros).collect();
            batch(&r, &waits, &converged_n(n as usize), 0.0);
            let s = r.snapshot();
            let idx = ((n - 1) as f64 * 0.5).round() as u64;
            assert_eq!(
                s.queue_wait_p50,
                Duration::from_micros(idx + 1),
                "p50 of 1..={n}"
            );
            assert_eq!(s.queue_wait_p99, Duration::from_micros(n), "p99 of 1..={n}");
        }
    }

    #[test]
    fn wait_samples_stay_bounded_and_percentiles_stable() {
        use crate::reservoir::DEFAULT_RESERVOIR_CAPACITY;
        let r = StatsRegistry::new();
        // Feed far more samples than the reservoir holds, all 500 µs.
        let waits = vec![Duration::from_micros(500); 4096];
        let outcomes = converged_n(4096);
        for _ in 0..8 {
            batch(&r, &waits, &outcomes, 0.0);
        }
        let s = r.snapshot();
        // 32k offered, at most DEFAULT_RESERVOIR_CAPACITY retained — and
        // a uniform subsample of a constant stream has exact percentiles.
        assert_eq!(s.queue_wait_p50, Duration::from_micros(500));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(500));
        let retained = {
            let sampled = r.sampled.lock().unwrap();
            sampled.wait_samples_us.len()
        };
        assert!(retained <= DEFAULT_RESERVOIR_CAPACITY);
        assert_eq!(retained, DEFAULT_RESERVOIR_CAPACITY);
    }

    #[test]
    fn reservoir_percentiles_track_a_skewed_stream() {
        // 90% fast (100 µs), 10% slow (10 ms): after heavy subsampling
        // p50 must stay fast and p99 must stay slow.
        let r = StatsRegistry::new();
        let mut waits = vec![Duration::from_micros(100); 900];
        waits.extend(vec![Duration::from_micros(10_000); 100]);
        let outcomes = converged_n(1000);
        for _ in 0..40 {
            batch(&r, &waits, &outcomes, 0.0);
        }
        let s = r.snapshot();
        assert_eq!(s.queue_wait_p50, Duration::from_micros(100));
        assert_eq!(s.queue_wait_p99, Duration::from_micros(10_000));
    }

    #[test]
    fn breakdowns_aggregate_by_tag() {
        let r = StatsRegistry::new();
        for tags in [[Some("rho"), Some("singular")], [Some("rho"), None]] {
            r.on_batch(2, 0.0, 0, 0);
            for tag in tags {
                r.on_outcome(&broke_down(tag, 3), None);
            }
        }
        let s = r.snapshot();
        assert_eq!(s.breakdowns.get("rho"), Some(&2));
        assert_eq!(s.breakdowns.get("singular"), Some(&1));
        assert_eq!(s.rung_hist, [0, 0, 4]);
    }
}
