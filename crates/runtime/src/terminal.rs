//! A request's terminal moment, shared by every serving stack.
//!
//! Whichever path a request takes through a shard worker, the
//! single-device service's or a fleet's, it ends here exactly once. Its wall-phase
//! accumulators ([`Phases`]) close into a [`PhaseLedger`], and
//! [`Terminals::record`] emits the `Terminal` and `Ledger` events and
//! feeds the class tracker and, when one is configured, the autotuner.
//! Exactly-once is the caller's side of the contract: the shard worker
//! calls in only from the delivery that won the request's outcome slot.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use batsolv_trace::{classify, EventKind, PhaseLedger, Tracer};

use crate::autotune::AutoTuner;
use crate::breaker::CircuitBreaker;
use crate::classes::ClassTracker;
use crate::dispatcher::{ItemOutcome, SimSplit};
use crate::request::{RequestId, Solution, SolveError, SolveMethod, SolveOutcome};

/// The wall phases one request has accumulated so far. They partition
/// `[submitted, terminal]`; the ledger's `other` absorbs whatever no
/// phase claims, so the phase-sum invariant holds exactly.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// When the request entered submit: the end-to-end anchor, never
    /// reset (retries and hedges keep it).
    pub submitted: Instant,
    /// Whether the request carries a deadline.
    pub deadline: bool,
    /// Validation and placement before the first queue push.
    pub admission: Duration,
    /// First-hop queue wait.
    pub queue: Duration,
    /// Batch-former hold between queue pop and dispatch.
    pub linger: Duration,
    /// Queue waits of retry re-routes (hops after the first).
    pub transit: Duration,
    /// Retry backoff slept on the request's behalf.
    pub backoff: Duration,
    /// Enqueue → dispatch of the hedge duplicate that carried it.
    pub hedge: Duration,
    /// Dispatch wall time on a solve engine, failed attempts included.
    pub solve: Duration,
    /// Dispatch wall time in the CPU spill pool.
    pub spill: Duration,
}

impl Phases {
    /// A request that entered submit at `submitted` and its first queue
    /// at `enqueued`: everything in between is admission.
    pub fn new(submitted: Instant, enqueued: Instant, deadline: bool) -> Phases {
        Phases {
            submitted,
            deadline,
            admission: enqueued.saturating_duration_since(submitted),
            queue: Duration::ZERO,
            linger: Duration::ZERO,
            transit: Duration::ZERO,
            backoff: Duration::ZERO,
            hedge: Duration::ZERO,
            solve: Duration::ZERO,
            spill: Duration::ZERO,
        }
    }

    /// Close the phases into the request's ledger at `now`. `sim` is the
    /// request's share of its dispatch's simulated solve split (a
    /// separate clock, reported beside the wall phases); `straggler`
    /// follows the caller's own rule.
    pub fn ledger(
        &self,
        outcome: &'static str,
        iterations: u32,
        converged: bool,
        sim: Option<&SimSplit>,
        straggler: bool,
        now: Instant,
    ) -> PhaseLedger {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let sim = sim.copied().unwrap_or_default();
        let mut ledger = PhaseLedger {
            outcome,
            class: classify(iterations, converged),
            iterations,
            straggler,
            deadline: self.deadline.then_some(outcome != "deadline_exceeded"),
            end_to_end_us: us(now.saturating_duration_since(self.submitted)),
            admission_us: us(self.admission),
            queue_us: us(self.queue),
            linger_us: us(self.linger),
            transit_us: us(self.transit),
            backoff_us: us(self.backoff),
            hedge_us: us(self.hedge),
            solve_us: us(self.solve),
            spill_us: us(self.spill),
            other_us: 0.0,
            sim_spmv_us: sim.spmv_us,
            sim_reduction_us: sim.reduction_us,
            sim_sync_us: sim.sync_us,
            sim_transfer_us: sim.transfer_us,
        };
        ledger.close();
        ledger
    }
}

/// The terminal tag and the caller-facing outcome of one engine result.
pub fn settle(
    o: ItemOutcome,
    batch_size: usize,
    queue_wait: Duration,
) -> (&'static str, SolveOutcome) {
    if !o.converged {
        let failed = SolveError::NotConverged {
            iterations: o.iterations,
            residual: o.residual,
            breakdown: o.breakdown,
            rungs: o.rungs,
        };
        return ("not_converged", Err(failed));
    }
    let tag = match o.method {
        SolveMethod::Bicgstab => "converged_bicgstab",
        SolveMethod::Gmres => "converged_gmres",
        SolveMethod::BandedLuFallback => "converged_banded_lu",
    };
    let solution = Solution {
        x: o.x,
        iterations: o.iterations,
        residual: o.residual,
        method: o.method,
        batch_size,
        queue_wait,
        rungs: o.rungs,
    };
    (tag, Ok(solution))
}

/// Best-effort text of a caught panic payload.
pub fn panic_detail(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(|| "non-string panic payload".to_string(), |s| s.to_string()),
    }
}

/// The funnel every terminal outcome passes through, and the sinks it
/// feeds.
pub struct Terminals {
    /// Where the `Terminal`, `Ledger` and breaker events go.
    pub tracer: Tracer,
    /// Per-class latency and SLO tracker, fed one ledger per request.
    pub classes: ClassTracker,
    /// Telemetry autotuner, fed every convergence record when present.
    pub autotune: Option<AutoTuner>,
}

impl Terminals {
    /// Report request `id`'s terminal outcome: emit `Terminal`, close
    /// `phases` into its ledger, feed the class tracker and the
    /// autotuner, then emit `Ledger`. Call once per request, before the
    /// outcome is sent.
    pub fn record(
        &self,
        id: RequestId,
        phases: &Phases,
        tag: &'static str,
        outcome: &SolveOutcome,
        sim: Option<&SimSplit>,
        straggler: bool,
    ) {
        let (iterations, residual, rungs) = match outcome {
            Ok(s) => (s.iterations, s.residual, s.rungs.len()),
            Err(SolveError::NotConverged {
                iterations,
                residual,
                rungs,
                ..
            }) => (*iterations, *residual, rungs.len()),
            Err(_) => (0, f64::NAN, 0),
        };
        let converged = outcome.is_ok();
        self.tracer.emit(
            Some(id),
            EventKind::Terminal {
                outcome: tag,
                iterations,
                residual,
                rungs,
            },
        );
        let ledger = phases.ledger(tag, iterations, converged, sim, straggler, Instant::now());
        self.classes.observe_ledger(Some(id), &ledger);
        if let Some(tuner) = &self.autotune {
            if let Some(decision) = tuner.observe(ledger.class, iterations, converged) {
                self.tracer.emit(None, decision.to_event());
            }
        }
        self.tracer.emit(Some(id), EventKind::Ledger(ledger));
    }

    /// Feed one execution's health to `breaker`. A trip is counted in
    /// `trips`, emitted as `BreakerTrip`, and freezes the flight
    /// recorder: the events that led up to it are the ones that matter.
    pub fn feed_breaker(
        &self,
        breaker: &CircuitBreaker,
        size: usize,
        degraded: usize,
        trips: &AtomicU64,
    ) {
        if breaker.on_batch(Instant::now(), size, degraded) {
            trips.fetch_add(1, Ordering::Relaxed);
            self.tracer.emit(None, EventKind::BreakerTrip);
            let _ = self.tracer.dump_flight("breaker_trip");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RungAttempt;

    fn outcome(converged: bool, method: SolveMethod) -> ItemOutcome {
        ItemOutcome {
            id: 3,
            x: vec![1.0],
            iterations: 7,
            residual: 1e-11,
            converged,
            method,
            breakdown: (!converged).then_some("rho_zero"),
            rungs: vec![RungAttempt {
                method,
                iterations: 7,
                residual: 1e-11,
                converged,
                breakdown: None,
            }],
        }
    }

    #[test]
    fn settle_tags_every_method_and_failure() {
        for (method, want) in [
            (SolveMethod::Bicgstab, "converged_bicgstab"),
            (SolveMethod::Gmres, "converged_gmres"),
            (SolveMethod::BandedLuFallback, "converged_banded_lu"),
        ] {
            let (tag, out) = settle(outcome(true, method), 4, Duration::from_micros(9));
            assert_eq!(tag, want);
            let s = out.unwrap();
            assert_eq!((s.batch_size, s.queue_wait), (4, Duration::from_micros(9)));
            assert_eq!((s.iterations, s.rungs.len()), (7, 1));
        }
        match settle(outcome(false, SolveMethod::Gmres), 4, Duration::ZERO) {
            ("not_converged", Err(SolveError::NotConverged { breakdown, .. })) => {
                assert_eq!(breakdown, Some("rho_zero"))
            }
            other => panic!("expected not_converged, got {other:?}"),
        }
    }

    #[test]
    fn ledger_partitions_the_interval() {
        let t0 = Instant::now();
        let mut phases = Phases::new(t0, t0 + Duration::from_micros(5), true);
        phases.queue = Duration::from_micros(20);
        phases.solve = Duration::from_micros(100);
        let now = t0 + Duration::from_micros(150);
        let ledger = phases.ledger("converged_bicgstab", 4, true, None, false, now);
        assert_eq!(ledger.admission_us, 5.0);
        assert_eq!(ledger.end_to_end_us, 150.0);
        assert!((ledger.other_us - 25.0).abs() < 1e-9);
        assert!(ledger.balanced_within(1e-6));
        assert_eq!(ledger.deadline, Some(true));
        let missed = phases.ledger("deadline_exceeded", 0, false, None, false, now);
        assert_eq!(missed.deadline, Some(false));
        let sim = SimSplit {
            spmv_us: 1.0,
            reduction_us: 2.0,
            sync_us: 3.0,
            transfer_us: 4.0,
        };
        let ledger = phases.ledger("converged_gmres", 4, true, Some(&sim), true, now);
        assert_eq!(ledger.sim_transfer_us, 4.0);
        assert!(ledger.straggler && ledger.balanced_within(1e-6));
    }

    #[test]
    fn panic_payloads_read_the_same_everywhere() {
        let caught = |f: fn()| std::panic::catch_unwind(f).unwrap_err();
        let literal = panic_detail(caught(|| panic!("boom")));
        let formatted = panic_detail(caught(|| panic!("boom {}", 7)));
        let opaque = panic_detail(caught(|| std::panic::panic_any(42u32)));
        assert_eq!(literal, "boom");
        assert_eq!(formatted, "boom 7");
        assert_eq!(opaque, "non-string panic payload");
    }
}
