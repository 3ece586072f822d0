//! Fleet observability: per-shard snapshots rolled up into a
//! fleet-wide view with merged percentiles.

use std::time::Duration;

use batsolv_runtime::ClassesSnapshot;

pub use batsolv_runtime::ShardSnapshot;

/// Fleet-wide rollup: every shard's snapshot plus merged percentiles
/// and scheduler counters.
#[derive(Clone, Debug)]
pub struct FleetSnapshot {
    /// GPU shards, ordered by id.
    pub shards: Vec<ShardSnapshot>,
    /// The CPU banded-LU spill pool.
    pub cpu_pool: ShardSnapshot,
    /// Systems accepted by the scheduler.
    pub accepted: u64,
    /// Systems rejected at submit (shape, backpressure, breaker).
    pub rejected: u64,
    /// Chunks dispatched to GPU shards.
    pub gpu_chunks: u64,
    /// Systems spilled to the CPU pool (sub-`min_batch_size` chunks).
    pub spilled: u64,
    /// Fleet-wide median queue wait (samples merged across shards).
    pub wait_p50: Duration,
    /// Fleet-wide 99th-percentile queue wait.
    pub wait_p99: Duration,
    /// Fleet-wide median submit-to-outcome latency.
    pub latency_p50: Duration,
    /// Fleet-wide 99th-percentile submit-to-outcome latency.
    pub latency_p99: Duration,
    /// Fleet makespan: the busiest device's simulated time, seconds.
    pub makespan_s: f64,
    /// Sum of simulated device time across the fleet, seconds.
    pub sim_time_total_s: f64,
    /// Graceful-degradation ladder level (0 = normal; 1 = hedges off;
    /// 2 = + sub-deadline shedding; 3 = + widened CPU spill).
    pub degrade_level: u8,
    /// Per-workload-class latency and SLO statistics, fed by every
    /// winning delivery's phase ledger.
    pub classes: ClassesSnapshot,
}

impl FleetSnapshot {
    /// Systems that reached a converged solution anywhere.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum::<u64>() + self.cpu_pool.completed
    }

    /// Systems that reached a terminal failure anywhere.
    pub fn failed(&self) -> u64 {
        self.shards.iter().map(|s| s.failed).sum::<u64>() + self.cpu_pool.failed
    }

    /// Total steals across the fleet (each steal counts once).
    pub fn steals(&self) -> u64 {
        self.shards.iter().map(|s| s.steals_in).sum()
    }

    /// Total breaker trips across the fleet.
    pub fn breaker_trips(&self) -> u64 {
        self.shards.iter().map(|s| s.breaker_trips).sum()
    }

    /// Total retry re-queues across the fleet (CPU pool included).
    pub fn retries(&self) -> u64 {
        self.shards.iter().map(|s| s.retries).sum::<u64>() + self.cpu_pool.retries
    }

    /// Total hedge duplicates fired across the fleet.
    pub fn hedges_fired(&self) -> u64 {
        self.shards.iter().map(|s| s.hedges_fired).sum()
    }

    /// Total hedge duplicates that won their race.
    pub fn hedges_won(&self) -> u64 {
        self.shards.iter().map(|s| s.hedges_won).sum()
    }

    /// Total systems shed at dispatch across the fleet.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum::<u64>() + self.cpu_pool.shed
    }

    /// Human-readable multi-line report with a per-shard breakdown —
    /// the periodic stats page of `batsolv-serve --devices N`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet stats: {} accepted, {} rejected, {} completed, {} failed, \
             {} steals, {} spilled systems, {} retries, {}/{} hedges won/fired, \
             {} shed, degrade level {}\n",
            self.accepted,
            self.rejected,
            self.completed(),
            self.failed(),
            self.steals(),
            self.spilled,
            self.retries(),
            self.hedges_won(),
            self.hedges_fired(),
            self.shed(),
            self.degrade_level,
        ));
        out.push_str(&format!(
            "  fleet    : wait p50 {:?} p99 {:?} | latency p50 {:?} p99 {:?} | \
             makespan {:.6}s of {:.6}s total sim\n",
            self.wait_p50,
            self.wait_p99,
            self.latency_p50,
            self.latency_p99,
            self.makespan_s,
            self.sim_time_total_s,
        ));
        for s in self.shards.iter().chain(std::iter::once(&self.cpu_pool)) {
            out.push_str(&format!(
                "  shard {:>2} : {} | queue {} | breaker {} | {} chunks, {} ok, {} failed, \
                 steals {}/{} in/out | wait p50 {:?} p99 {:?} | sim {:.6}s\n",
                s.shard,
                s.device,
                s.queue_depth,
                if s.breaker_open { "OPEN" } else { "closed" },
                s.chunks_executed,
                s.completed,
                s.failed,
                s.steals_in,
                s.steals_out,
                s.wait_p50,
                s.wait_p99,
                s.sim_time_s,
            ));
        }
        out.push_str(&self.classes.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_runtime::percentile_us;

    #[test]
    fn percentile_follows_the_runtime_convention() {
        let pct = |sorted: &[u64], p| Duration::from_micros(percentile_us(sorted, p));
        assert_eq!(pct(&[], 0.99), Duration::ZERO);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&sorted, 0.50), Duration::from_micros(51));
        assert_eq!(pct(&sorted, 0.99), Duration::from_micros(99));
        assert_eq!(pct(&[7], 0.99), Duration::from_micros(7));
    }
}
