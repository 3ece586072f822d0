//! Work items flowing through the fleet: pending systems, routed
//! chunks, and the group ticket callers redeem for outcomes.
//!
//! The exactly-once contract lives here. Every accepted system owns one
//! [`OutcomeSlot`]: an atomically claimed, single-shot outcome channel.
//! Retries and hedge duplicates mean a system can be *executed* more
//! than once, but only the first executor to reach a terminal outcome
//! wins the slot — every later delivery attempt is a no-op. Stats
//! counters (`completed`/`failed`) increment only on the winning
//! delivery, so accounting matches what the caller observes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use batsolv_runtime::{BatchItem, DeadlineBudget, Phases, RequestId, SolveError, SolveOutcome};

/// Group-completion tracker for straggler attribution: the winning
/// delivery that drops `remaining` to zero finished the group, and its
/// phase ledger gets the `straggler` flag (only meaningful for groups
/// of more than one system).
pub(crate) struct GroupProgress {
    total: usize,
    remaining: AtomicUsize,
}

impl GroupProgress {
    pub fn new(total: usize) -> GroupProgress {
        GroupProgress {
            total,
            remaining: AtomicUsize::new(total),
        }
    }

    /// Record one terminal delivery; true iff it completed a group of
    /// more than one system (the group's straggler).
    pub fn finish_one(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 && self.total > 1
    }
}

/// Single-shot, first-winner-wins outcome channel for one system.
///
/// `claimed` is the race arbiter: the first `deliver` to swap it true
/// takes the sender and sends; everyone else sees `false` back and
/// drops their outcome on the floor. The sender is consumed on the
/// winning delivery so the receiver's `recv` can also unblock via
/// disconnect if the service is torn down before any delivery.
pub(crate) struct OutcomeSlot {
    claimed: AtomicBool,
    tx: Mutex<Option<mpsc::Sender<SolveOutcome>>>,
}

impl OutcomeSlot {
    pub fn new(tx: mpsc::Sender<SolveOutcome>) -> OutcomeSlot {
        OutcomeSlot {
            claimed: AtomicBool::new(false),
            tx: Mutex::new(Some(tx)),
        }
    }

    /// Claim the slot, returning its sender to the winner. Losers get
    /// `None`. Winners update stats counters *before* sending, so a
    /// caller unblocked by the outcome always observes consistent
    /// snapshots.
    pub fn claim(&self) -> Option<mpsc::Sender<SolveOutcome>> {
        if self.claimed.swap(true, Ordering::AcqRel) {
            return None;
        }
        self.tx.lock().unwrap().take()
    }

    /// Deliver the terminal outcome if no one has yet. Returns true iff
    /// this call won the slot. Production paths use [`claim`] directly
    /// so counters land before the send; this wrapper keeps the race
    /// tests focused on the claim arbiter itself.
    ///
    /// [`claim`]: OutcomeSlot::claim
    #[cfg(test)]
    pub fn deliver(&self, outcome: SolveOutcome) -> bool {
        match self.claim() {
            Some(tx) => {
                // A dropped receiver is the caller's business, not ours.
                let _ = tx.send(outcome);
                true
            }
            None => false,
        }
    }

    /// True once some executor has won the slot. Advisory only — a
    /// false answer can be stale by the time the caller acts on it, so
    /// it gates *work avoidance*, never correctness.
    pub fn is_claimed(&self) -> bool {
        self.claimed.load(Ordering::Acquire)
    }
}

/// One accepted system awaiting execution, with its reply slot.
///
/// Clone-able because hedging duplicates in-flight work: the hedge
/// executor gets its own copy of the payload but shares the
/// [`OutcomeSlot`] through the `Arc`, which is what keeps the outcome
/// exactly-once.
#[derive(Clone)]
pub(crate) struct Pending {
    /// The payload as the engine takes it; `item.id` is the
    /// fleet-assigned request id (one namespace across shards).
    pub item: BatchItem,
    /// When the system entered a queue (wait measurement). Reset on
    /// retry re-queue so wait samples measure the current hop.
    pub enqueued: Instant,
    /// Remaining deadline budget, if the request carried a deadline.
    /// A value type: it rides the Pending through queues, steals, and
    /// retries, debited at each hop.
    pub budget: Option<DeadlineBudget>,
    /// 1-based execution attempt; bumped when the retry policy
    /// re-routes the system after a retryable failure.
    pub attempt: u32,
    /// Exactly-once outcome channel, shared with any hedge duplicate.
    pub slot: Arc<OutcomeSlot>,
    /// Wall-phase accumulators of the phase ledger; unlike `enqueued`,
    /// their `submitted` anchor is never reset.
    pub phases: Phases,
    /// Group-completion tracker shared by every member.
    pub group: Arc<GroupProgress>,
}

impl Pending {
    /// Move the payload out for the engine, leaving the id behind.
    pub fn take_item(&mut self) -> BatchItem {
        let id = self.item.id;
        std::mem::replace(
            &mut self.item,
            BatchItem {
                id,
                ..BatchItem::default()
            },
        )
    }
}

/// A routed unit of execution: the systems of one placement, tagged
/// with the shard the scheduler assigned them to. A thief executing a
/// stolen chunk keeps `origin` so steals stay attributable.
pub(crate) struct Chunk {
    pub items: Vec<Pending>,
    /// The shard the scheduler originally dispatched the chunk to.
    pub origin: u32,
}

impl Chunk {
    pub fn len(&self) -> usize {
        self.items.len()
    }
}

/// Handle for one submitted group: redeem it for every member's
/// terminal outcome, in submission order.
#[derive(Debug)]
pub struct GroupTicket {
    pub(crate) ids: Vec<RequestId>,
    pub(crate) rxs: Vec<mpsc::Receiver<SolveOutcome>>,
}

impl GroupTicket {
    /// Request ids assigned to the group, in submission order.
    pub fn ids(&self) -> &[RequestId] {
        &self.ids
    }

    /// Systems in the group.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for an empty group (never produced by a successful submit).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Block until every member reaches its terminal outcome.
    pub fn wait_all(self) -> Vec<SolveOutcome> {
        self.rxs
            .into_iter()
            .map(|rx| rx.recv().unwrap_or(Err(SolveError::ServiceShutdown)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_delivers_exactly_once() {
        let (tx, rx) = mpsc::channel();
        let slot = OutcomeSlot::new(tx);
        assert!(!slot.is_claimed());
        assert!(slot.deliver(Err(SolveError::ServiceShutdown)));
        assert!(slot.is_claimed());
        // Second delivery loses the race and is dropped.
        assert!(!slot.deliver(Err(SolveError::DeviceFailure { code: "too_late" })));
        let got = rx.recv().unwrap();
        assert!(matches!(got, Err(SolveError::ServiceShutdown)));
        // Nothing else arrives: sender consumed, channel disconnected.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn concurrent_deliveries_produce_one_winner() {
        for _ in 0..64 {
            let (tx, rx) = mpsc::channel();
            let slot = Arc::new(OutcomeSlot::new(tx));
            let wins: Vec<bool> = std::thread::scope(|s| {
                (0..4)
                    .map(|_| {
                        let slot = Arc::clone(&slot);
                        s.spawn(move || slot.deliver(Err(SolveError::ServiceShutdown)))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            assert_eq!(wins.iter().filter(|&&w| w).count(), 1);
            assert_eq!(rx.try_iter().count(), 1);
        }
    }
}
