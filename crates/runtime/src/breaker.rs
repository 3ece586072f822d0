//! Per-pattern circuit breaker.
//!
//! A storm of breakdowns or fallback escalations usually means something
//! upstream is systematically wrong (a bad Picard state poisoning every
//! node's values, a device fault) — and every further dispatch burns a
//! full iterative-solve budget discovering that again. The breaker
//! watches consecutive *degraded* batches and, after a configurable run
//! of them, trips: submissions are shed with
//! [`SubmitError::CircuitOpen`](crate::SubmitError::CircuitOpen) until a
//! cooldown elapses, then a half-open probe batch decides between closing
//! (healthy again) and re-opening with exponentially longer backoff.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive degraded batches that trip the breaker.
    pub trip_after: u32,
    /// How long the breaker stays open after the first trip; doubles on
    /// every failed half-open probe.
    pub cooldown: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// A batch is *degraded* when at least this fraction of its items
    /// failed or needed a fallback rung.
    pub degraded_fraction: f64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_after: 8,
            cooldown: Duration::from_millis(100),
            max_backoff: Duration::from_secs(10),
            degraded_fraction: 0.5,
        }
    }
}

impl BreakerConfig {
    /// Reject knobs with which the breaker cannot work: a trip needs at
    /// least one degraded batch, and `degraded_fraction` must be a
    /// fraction (NaN is not).
    pub fn validate(&self) -> Result<(), String> {
        if self.trip_after == 0 {
            return Err("breaker trip_after must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.degraded_fraction) {
            return Err(format!(
                "breaker degraded_fraction must be in [0, 1], got {}",
                self.degraded_fraction
            ));
        }
        Ok(())
    }
}

#[derive(Debug)]
enum State {
    /// Healthy; counting consecutive degraded batches.
    Closed { consecutive: u32 },
    /// Shedding load until `until`; `backoff` is the duration that was
    /// applied (doubled on the next re-open).
    Open { until: Instant, backoff: Duration },
    /// One probe batch is allowed through; its outcome decides.
    HalfOpen { backoff: Duration },
}

/// The breaker itself. One per service (the service serves one sparsity
/// pattern, so this is per-pattern by construction).
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
}

impl CircuitBreaker {
    /// A closed breaker with the given knobs.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: Mutex::new(State::Closed { consecutive: 0 }),
        }
    }

    /// Admission-time check. `Ok` admits the request; `Err(retry_after)`
    /// sheds it. An expired open period transitions to half-open and
    /// admits (the probe).
    pub fn check(&self, now: Instant) -> Result<(), Duration> {
        let mut s = self.state.lock().unwrap();
        match *s {
            State::Closed { .. } | State::HalfOpen { .. } => Ok(()),
            State::Open { until, backoff } => {
                if now >= until {
                    *s = State::HalfOpen { backoff };
                    Ok(())
                } else {
                    Err(until - now)
                }
            }
        }
    }

    /// Record one dispatched batch (`degraded` of `total` items failed or
    /// escalated). Returns `true` when this batch *tripped* the breaker
    /// (closed/half-open → open), so the caller can count trips.
    pub fn on_batch(&self, now: Instant, total: usize, degraded: usize) -> bool {
        if total == 0 {
            return false;
        }
        let is_degraded = degraded as f64 / total as f64 >= self.cfg.degraded_fraction;
        let mut s = self.state.lock().unwrap();
        match *s {
            State::Closed { consecutive } => {
                if !is_degraded {
                    *s = State::Closed { consecutive: 0 };
                    return false;
                }
                let consecutive = consecutive + 1;
                if consecutive >= self.cfg.trip_after {
                    *s = State::Open {
                        until: now + self.cfg.cooldown,
                        backoff: self.cfg.cooldown,
                    };
                    true
                } else {
                    *s = State::Closed { consecutive };
                    false
                }
            }
            State::HalfOpen { backoff } => {
                if is_degraded {
                    let backoff = (backoff * 2).min(self.cfg.max_backoff);
                    *s = State::Open {
                        until: now + backoff,
                        backoff,
                    };
                    true
                } else {
                    *s = State::Closed { consecutive: 0 };
                    false
                }
            }
            // Batches formed before the trip may still drain while open;
            // they don't change the state.
            State::Open { .. } => false,
        }
    }

    /// True when submissions are currently being shed.
    pub fn is_open(&self, now: Instant) -> bool {
        self.check(now).is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            cooldown: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            degraded_fraction: 0.5,
        }
    }

    #[test]
    fn trips_after_consecutive_degraded_batches() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        assert!(!b.on_batch(t0, 4, 4));
        assert!(!b.on_batch(t0, 4, 3));
        assert!(b.check(t0).is_ok());
        assert!(b.on_batch(t0, 4, 2), "third degraded batch must trip");
        assert!(b.check(t0).is_err());
    }

    #[test]
    fn healthy_batch_resets_the_run() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        assert!(!b.on_batch(t0, 4, 4));
        assert!(!b.on_batch(t0, 4, 4));
        assert!(!b.on_batch(t0, 4, 0), "healthy batch resets");
        assert!(!b.on_batch(t0, 4, 4));
        assert!(!b.on_batch(t0, 4, 4));
        assert!(b.check(t0).is_ok());
    }

    #[test]
    fn below_fraction_is_not_degraded() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..10 {
            assert!(!b.on_batch(t0, 10, 4)); // 40% < 50%
        }
        assert!(b.check(t0).is_ok());
    }

    #[test]
    fn half_open_probe_closes_or_reopens_with_backoff() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_batch(t0, 1, 1);
        }
        let retry = b.check(t0).unwrap_err();
        assert!(retry <= Duration::from_millis(10));

        // After the cooldown the probe is admitted (half-open)...
        let t1 = t0 + Duration::from_millis(11);
        assert!(b.check(t1).is_ok());
        // ...and a degraded probe re-opens with doubled backoff.
        assert!(b.on_batch(t1, 1, 1));
        let retry = b.check(t1).unwrap_err();
        assert!(retry > Duration::from_millis(10), "backoff must grow");

        // A healthy probe closes it for good.
        let t2 = t1 + Duration::from_millis(21);
        assert!(b.check(t2).is_ok());
        assert!(!b.on_batch(t2, 1, 0));
        assert!(b.check(t2).is_ok());
        assert!(!b.is_open(t2));
    }

    #[test]
    fn backoff_is_capped() {
        let b = CircuitBreaker::new(cfg());
        let mut t = Instant::now();
        for _ in 0..3 {
            b.on_batch(t, 1, 1);
        }
        // Fail many probes; backoff must stop at max_backoff.
        for _ in 0..8 {
            t += Duration::from_secs(1);
            assert!(b.check(t).is_ok(), "probe after long wait");
            b.on_batch(t, 1, 1);
        }
        let retry = b.check(t).unwrap_err();
        assert!(retry <= Duration::from_millis(40));
    }

    #[test]
    fn empty_batches_are_ignored() {
        let b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..10 {
            assert!(!b.on_batch(t0, 0, 0));
        }
        assert!(b.check(t0).is_ok());
    }
}
