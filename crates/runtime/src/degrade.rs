//! The graceful-degradation ladder.
//!
//! One fleet-wide level, driven by GPU queue occupancy observed at
//! admission (under the submit lock, so transitions are serialized):
//!
//! | level | behavior shed                                   |
//! |-------|-------------------------------------------------|
//! | 0     | normal operation                                |
//! | 1     | hedging disabled (no duplicate work under load) |
//! | 2     | + sub-deadline chunks shed at dispatch          |
//! | 3     | + CPU spill cutoff widens (2x `min_batch_size`) |
//!
//! Each behavior is *additive*: level 3 implies 1 and 2. Shard workers
//! read the level lock-free on their hot path; the fleet's admission
//! path publishes transitions as `DegradeShift` trace events and the
//! level rides every fleet snapshot. The single-device service has no
//! ladder: its shard worker runs without one.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::config::DegradeConfig;

/// Shared, lock-free view of the ladder level.
pub struct DegradeState {
    level: AtomicU8,
    cfg: DegradeConfig,
}

impl DegradeState {
    /// Level 0 under the given thresholds.
    pub fn new(cfg: DegradeConfig) -> DegradeState {
        DegradeState {
            level: AtomicU8::new(0),
            cfg,
        }
    }

    /// Current ladder level.
    pub fn level(&self) -> u8 {
        self.level.load(Ordering::Acquire)
    }

    /// Re-evaluate the level for a fresh occupancy observation.
    /// Returns `Some((from, to))` on a transition. Callers serialize
    /// observations (the fleet calls this under its submit lock).
    pub fn observe(&self, occupancy: f64) -> Option<(u8, u8)> {
        let to = self.cfg.level_for(occupancy);
        let from = self.level.swap(to, Ordering::AcqRel);
        (from != to).then_some((from, to))
    }

    /// Hedging allowed only at level 0.
    pub fn hedging_allowed(&self) -> bool {
        self.level() < 1
    }

    /// Sub-deadline shedding from level 2.
    pub fn shedding(&self) -> bool {
        self.level() >= 2
    }

    /// Widened CPU spill from level 3.
    pub fn widen_spill(&self) -> bool {
        self.level() >= 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_transitions_are_reported_once() {
        let state = DegradeState::new(DegradeConfig::default());
        assert_eq!(state.level(), 0);
        assert!(state.hedging_allowed());
        assert_eq!(state.observe(0.2), None, "no transition below hedge_off");
        assert_eq!(state.observe(0.6), Some((0, 1)));
        assert!(!state.hedging_allowed());
        assert_eq!(state.observe(0.6), None, "steady level reports nothing");
        assert_eq!(state.observe(0.95), Some((1, 3)));
        assert!(state.shedding());
        assert!(state.widen_spill());
        // Recovery steps back down.
        assert_eq!(state.observe(0.1), Some((3, 0)));
        assert!(state.hedging_allowed());
    }
}
