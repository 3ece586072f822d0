//! Serving configuration: the service's knobs and the retry, hedge and
//! degradation policies of the shard worker core.

use std::time::Duration;

use batsolv_gpusim::DeviceSpec;
use batsolv_trace::Tracer;

use crate::autotune::AutoTunerConfig;
use crate::breaker::BreakerConfig;
use crate::dispatcher::{LadderConfig, PrecondVariant, SolverVariant};

/// Tuning knobs of the solve service.
///
/// The two batching knobs trade latency against throughput exactly like a
/// continuous-batching inference server: `batch_target` caps how many
/// systems are fused into one launch (throughput), `linger` bounds how
/// long the oldest queued request may wait for companions (latency).
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Simulated device batches are priced on.
    pub device: DeviceSpec,
    /// Bound on the submission queue; a full queue rejects new requests
    /// with [`crate::SubmitError::QueueFull`] (explicit backpressure,
    /// never a silent drop).
    pub queue_capacity: usize,
    /// Flush trigger 1: cut a batch as soon as this many requests are
    /// pending.
    pub batch_target: usize,
    /// Flush trigger 2: cut a batch (of whatever size) once the oldest
    /// pending request has waited this long.
    pub linger: Duration,
    /// The escalation ladder: tolerance, iteration caps, the rung-1
    /// solver variant, the preconditioner of the iterative rungs, and
    /// which escalation rungs run.
    pub ladder: LadderConfig,
    /// Telemetry-driven solver × preconditioner recommendation engine;
    /// `None` disables it.
    pub autotune: Option<AutoTunerConfig>,
    /// Whether the admission gate validates payloads (finiteness, usable
    /// Jacobi diagonal) at submission. Disable only in chaos tests that
    /// deliberately feed poisoned systems to the ladder.
    pub validate_admission: bool,
    /// Diagonal magnitudes at or below this are rejected by the gate.
    pub min_diag_abs: f64,
    /// Dispatch-time budget of the watchdog; batches exceeding it are
    /// counted as stalled. `None` disables the watchdog thread.
    pub watchdog_budget: Option<Duration>,
    /// Circuit-breaker knobs; `None` disables the breaker.
    pub breaker: Option<BreakerConfig>,
    /// Structured-event tracer threaded through the service, ladder, and
    /// solver layers. Defaults to [`Tracer::disabled`], which reduces
    /// every emission site to a single branch.
    pub tracer: Tracer,
}

impl RuntimeConfig {
    /// Defaults: V100 pricing, 1024-deep queue, batches of 128, 2 ms
    /// linger, the paper's 1e-10 tolerance.
    pub fn new(device: DeviceSpec) -> RuntimeConfig {
        RuntimeConfig {
            device,
            queue_capacity: 1024,
            batch_target: 128,
            linger: Duration::from_millis(2),
            ladder: LadderConfig::default(),
            autotune: None,
            validate_admission: true,
            min_diag_abs: 0.0,
            watchdog_budget: Some(Duration::from_secs(30)),
            breaker: Some(BreakerConfig::default()),
            tracer: Tracer::disabled(),
        }
    }

    /// Override the submission-queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Override the batch-size flush target.
    pub fn with_batch_target(mut self, target: usize) -> Self {
        self.batch_target = target;
        self
    }

    /// Override the linger time.
    pub fn with_linger(mut self, linger: Duration) -> Self {
        self.linger = linger;
        self
    }

    /// Override the default tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.ladder.default_tolerance = tolerance;
        self
    }

    /// Override the iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.ladder.max_iters = max_iters;
        self
    }

    /// Override the rung-1 solver variant.
    pub fn with_solver(mut self, solver: SolverVariant) -> Self {
        self.ladder.solver = solver;
        self
    }

    /// Override the ladder preconditioner.
    pub fn with_precond(mut self, precond: PrecondVariant) -> Self {
        self.ladder.precond = precond;
        self
    }

    /// Enable (or with `None`, disable) the telemetry autotuner.
    pub fn with_autotune(mut self, autotune: Option<AutoTunerConfig>) -> Self {
        self.autotune = autotune;
        self
    }

    /// Enable or disable the direct fallback.
    pub fn with_fallback(mut self, enabled: bool) -> Self {
        self.ladder.enable_fallback = enabled;
        self
    }

    /// Enable or disable the GMRES escalation rung.
    pub fn with_gmres(mut self, enabled: bool) -> Self {
        self.ladder.enable_gmres = enabled;
        self
    }

    /// Override the GMRES restart length and iteration cap.
    pub fn with_gmres_limits(mut self, restart: usize, max_iters: usize) -> Self {
        self.ladder.gmres_restart = restart;
        self.ladder.gmres_max_iters = max_iters;
        self
    }

    /// Enable or disable the admission gate.
    pub fn with_admission(mut self, enabled: bool) -> Self {
        self.validate_admission = enabled;
        self
    }

    /// Override the admission gate's diagonal-magnitude floor.
    pub fn with_min_diag_abs(mut self, floor: f64) -> Self {
        self.min_diag_abs = floor;
        self
    }

    /// Override (or with `None`, disable) the watchdog budget.
    pub fn with_watchdog(mut self, budget: Option<Duration>) -> Self {
        self.watchdog_budget = budget;
        self
    }

    /// Override (or with `None`, disable) the circuit breaker.
    pub fn with_breaker(mut self, breaker: Option<BreakerConfig>) -> Self {
        self.breaker = breaker;
        self
    }

    /// Attach a tracer; every service, ladder, and solver event flows
    /// into its sink (and flight recorder, if one is configured).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Validate the knob combination.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        if self.batch_target == 0 {
            return Err("batch_target must be at least 1".into());
        }
        self.ladder.validate()?;
        if self.autotune.is_some_and(|a| a.window == 0) {
            return Err("autotune window must be at least 1".into());
        }
        if self.min_diag_abs.is_nan() || self.min_diag_abs < 0.0 {
            return Err(format!(
                "min_diag_abs must be non-negative, got {}",
                self.min_diag_abs
            ));
        }
        self.breaker
            .as_ref()
            .map_or(Ok(()), BreakerConfig::validate)
    }
}

/// Retry policy for retryable chunk failures (device failures and
/// worker panics — see `FailureClass` in `batsolv-faults`).
///
/// Backoff is exponential with deterministic, seeded jitter: the delay
/// for `(attempt, id)` is a pure function of the policy, so chaos tests
/// replaying a seed observe identical retry schedules. `max_attempts`
/// counts *executions*, not re-tries: 1 (the default) means a chunk runs
/// once. Once attempts are spent, a failed multi-system chunk is split
/// and each member re-runs alone on the same shard, so only the request
/// that provokes the fault fails.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total execution attempts per chunk (1 = retries off).
    pub max_attempts: u32,
    /// Backoff before attempt 2 (doubles each further attempt).
    pub base_backoff: Duration,
    /// Ceiling on any single backoff, jitter included.
    pub max_backoff: Duration,
    /// Jitter fraction: the delay is scaled by `1.0 + jitter * u` with
    /// `u` uniform in `[0, 1)` drawn from the seeded hash.
    pub jitter: f64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl RetryPolicy {
    /// Retries off: one attempt, then straight to blame isolation.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            jitter: 0.25,
            seed: 0x5eed_4e77,
        }
    }

    /// Retries on with `max_attempts` total executions and the default
    /// 1 ms base / 100 ms cap / 25% jitter schedule.
    pub fn new(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::disabled()
        }
    }

    /// Fix the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Deterministic backoff before executing `attempt` (2-based: the
    /// first retry is attempt 2) of the chunk whose lead request id is
    /// `id`. Pure in `(self, attempt, id)`.
    pub fn backoff(&self, attempt: u32, id: u64) -> Duration {
        // Exponent for the retry ordinal; clamp so the shift is defined.
        let exp = attempt.saturating_sub(2).min(20);
        let base = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        // splitmix64 over (seed, id, attempt) for the jitter draw.
        let mut z = self
            .seed
            .wrapping_add(id.rotate_left(17))
            .wrapping_add(attempt as u64)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let scaled = base.mul_f64(1.0 + self.jitter.max(0.0) * u);
        scaled.min(self.max_backoff)
    }
}

/// Straggler-hedging policy: once a primary chunk has been in flight
/// longer than its shard class's hedge delay, an idle shard duplicates
/// it and the first terminal outcome wins the shared outcome slots.
#[derive(Clone, Copy, Debug)]
pub struct HedgeConfig {
    /// Master switch (also forced off at degradation level >= 1).
    pub enabled: bool,
    /// Floor on the hedge delay, so cold reservoirs (no latency
    /// samples yet) do not hedge instantly.
    pub min_delay: Duration,
    /// Hedge when the in-flight age exceeds this multiple of the
    /// executing shard's observed p99 chunk latency.
    pub p99_factor: f64,
}

impl HedgeConfig {
    /// Hedging off (the default).
    pub fn disabled() -> HedgeConfig {
        HedgeConfig {
            enabled: false,
            min_delay: Duration::from_millis(20),
            p99_factor: 2.0,
        }
    }

    /// Hedging on with the default 20 ms floor and 2x p99 trigger.
    pub fn enabled() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            ..HedgeConfig::disabled()
        }
    }

    /// Set the hedge-delay floor.
    pub fn with_min_delay(mut self, d: Duration) -> Self {
        self.min_delay = d;
        self
    }

    /// Set the p99 multiple that triggers a hedge.
    pub fn with_p99_factor(mut self, f: f64) -> Self {
        self.p99_factor = f;
        self
    }
}

/// Queue-occupancy thresholds of the graceful-degradation ladder.
///
/// The fraction is fleet-wide GPU queue occupancy (queued chunks over
/// total capacity). Crossing a threshold upward raises the level;
/// falling back below lowers it. Levels: 0 normal, 1 hedges disabled,
/// 2 sub-deadline shedding, 3 CPU-spill widening.
#[derive(Clone, Copy, Debug)]
pub struct DegradeConfig {
    /// Occupancy at which hedging turns off (level 1).
    pub hedge_off: f64,
    /// Occupancy at which sub-deadline work is shed (level 2).
    pub shed: f64,
    /// Occupancy at which the CPU spill cutoff widens (level 3).
    pub widen_spill: f64,
}

impl Default for DegradeConfig {
    fn default() -> DegradeConfig {
        DegradeConfig {
            hedge_off: 0.50,
            shed: 0.75,
            widen_spill: 0.90,
        }
    }
}

impl DegradeConfig {
    /// The ladder level for an occupancy fraction.
    pub fn level_for(&self, occupancy: f64) -> u8 {
        if occupancy >= self.widen_spill {
            3
        } else if occupancy >= self.shed {
            2
        } else if occupancy >= self.hedge_off {
            1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides() {
        let c = RuntimeConfig::new(DeviceSpec::a100())
            .with_queue_capacity(8)
            .with_batch_target(4)
            .with_linger(Duration::from_micros(500))
            .with_tolerance(1e-8)
            .with_max_iters(50)
            .with_fallback(false);
        assert_eq!(c.queue_capacity, 8);
        assert_eq!(c.batch_target, 4);
        assert_eq!(c.linger, Duration::from_micros(500));
        assert_eq!(c.ladder.default_tolerance, 1e-8);
        assert_eq!(c.ladder.max_iters, 50);
        assert!(!c.ladder.enable_fallback);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_knobs() {
        let base = RuntimeConfig::new(DeviceSpec::v100());
        assert!(base.clone().with_queue_capacity(0).validate().is_err());
        assert!(base.clone().with_batch_target(0).validate().is_err());
        assert!(base.clone().with_tolerance(0.0).validate().is_err());
        assert!(base.clone().with_max_iters(0).validate().is_err());
        assert!(base.validate().is_ok());
    }

    #[test]
    fn backoff_is_deterministic_under_a_fixed_seed() {
        let policy = RetryPolicy::new(5).with_seed(42);
        let again = RetryPolicy::new(5).with_seed(42);
        for attempt in 2..=5u32 {
            for id in [0u64, 1, 17, 1 << 40] {
                assert_eq!(
                    policy.backoff(attempt, id),
                    again.backoff(attempt, id),
                    "pure function of (policy, attempt, id)"
                );
            }
        }
        // A different seed shifts the jitter for at least one cell.
        let other = RetryPolicy::new(5).with_seed(43);
        assert_ne!(policy.backoff(2, 17), other.backoff(2, 17));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::new(40)
        };
        // No jitter: attempt 2 = base, attempt 3 = 2x base, ...
        assert_eq!(policy.backoff(2, 9), Duration::from_millis(1));
        assert_eq!(policy.backoff(3, 9), Duration::from_millis(2));
        assert_eq!(policy.backoff(4, 9), Duration::from_millis(4));
        // Deep attempts saturate at the cap instead of overflowing.
        assert_eq!(policy.backoff(40, 9), policy.max_backoff);
        // Jitter never exceeds the cap either.
        let jittered = RetryPolicy::new(40);
        assert!(jittered.backoff(40, 9) <= jittered.max_backoff);
    }

    #[test]
    fn degrade_levels_follow_the_thresholds() {
        let d = DegradeConfig::default();
        assert_eq!(d.level_for(0.0), 0);
        assert_eq!(d.level_for(0.49), 0);
        assert_eq!(d.level_for(0.50), 1);
        assert_eq!(d.level_for(0.75), 2);
        assert_eq!(d.level_for(0.90), 3);
        assert_eq!(d.level_for(1.0), 3);
    }
}
