//! Seeded input generation: random streams, arrival schedules and group
//! shapes. Everything a workload sends is a pure function of `--seed`.

use std::time::Duration;

/// splitmix64: a small, fast generator with a fixed, documented output
/// sequence, so the inputs do not depend on any other crate's RNG.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`tag`) under the run's seed. Distinct
    /// tags give independent streams.
    pub fn stream(seed: u64, tag: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the tag
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// A seed for the program's own input generators (`XgcWorkload`).
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    Rng::stream(seed, tag).next_u64()
}

/// Due times of a Poisson arrival process at `rate` per second over
/// `span`, conditioned on its expected count: `round(rate · span)` due
/// times drawn uniformly over the span and sorted, as offsets from the
/// start of the phase. Fixing the count keeps the offered load the same
/// for every seed; only the arrival pattern changes.
pub fn poisson_schedule(seed: u64, tag: &str, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::stream(seed, tag);
    let n = (rate * span.as_secs_f64()).round() as usize;
    let mut due: Vec<Duration> = (0..n).map(|_| span.mul_f64(rng.next_f64())).collect();
    due.sort_unstable();
    due
}

/// One group of the fleet workload: its due time, size, first pool
/// index and placement hint.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupPlan {
    pub due: Duration,
    pub size: usize,
    pub first: usize,
    pub hint: u32,
}

/// Heavy-tailed group sizes and how many of each one block of
/// [`BLOCK`] groups holds. Groups of 16 and 24 fall below the fleet's
/// `min_batch_size` (32) and spill to banded LU on the CPU pool; groups
/// of 96 and 160 exceed the 64-system chunk and are split across shards.
/// The cumulative shares (70, 75, 85, 95, 100 %) keep the median inside
/// the size-16 class and p90 inside the size-96 class, so neither sits
/// on a step between two sizes' latencies. Every group takes tens of
/// milliseconds or more, long enough that host preemption slows it in
/// proportion instead of doubling a few-millisecond job.
pub const GROUP_SIZES: [(usize, usize); 5] = [(16, 14), (24, 1), (48, 2), (96, 2), (160, 1)];

/// Groups per block: every block carries the same sizes, in an order
/// shuffled by the seed, so the offered work is even across the run.
pub const BLOCK: usize = 20;

/// Share of groups hinted at shard 0; the rest go to shard 1.
pub const SHARD0_SHARE: f64 = 0.8;

/// The fleet workload's arrival plan: `rate · span` groups (rounded down
/// to whole blocks), one per slot of `1 / rate` seconds at a uniformly
/// jittered offset inside its slot, sizes from [`GROUP_SIZES`] shuffled
/// within each block, members drawn from a pool of `pool` systems.
/// Arrivals stay random, but no stretch of the run gets more than its
/// share of work, so one seed's load matches another's.
pub fn group_plan(seed: u64, tag: &str, rate: f64, span: Duration, pool: usize) -> Vec<GroupPlan> {
    let blocks = (rate * span.as_secs_f64()) as usize / BLOCK;
    let slot = 1.0 / rate;
    let mut rng = Rng::stream(seed, tag);
    let mut plan = Vec::with_capacity(blocks * BLOCK);
    for b in 0..blocks {
        let mut sizes: Vec<usize> = GROUP_SIZES
            .iter()
            .flat_map(|&(size, count)| std::iter::repeat_n(size, count))
            .collect();
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, rng.below(i + 1));
        }
        for (k, size) in sizes.into_iter().enumerate() {
            let i = b * BLOCK + k;
            plan.push(GroupPlan {
                due: Duration::from_secs_f64((i as f64 + rng.next_f64()) * slot),
                size,
                first: rng.below(pool),
                hint: u32::from(rng.next_f64() >= SHARD0_SHARE),
            });
        }
    }
    plan
}

/// Mean group size.
#[cfg(test)]
fn mean_group_size() -> f64 {
    GROUP_SIZES
        .iter()
        .map(|&(s, c)| (s * c) as f64)
        .sum::<f64>()
        / BLOCK as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let span = Duration::from_secs(2);
        let a = poisson_schedule(7, "serve", 1000.0, span);
        let b = poisson_schedule(7, "serve", 1000.0, span);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, "serve", 1000.0, span));
        assert_ne!(a, poisson_schedule(7, "other", 1000.0, span));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&d| d < span));
        assert_eq!(a.len(), 2000);
    }

    #[test]
    fn group_plan_is_skewed_heavy_tailed_and_even() {
        assert_eq!(GROUP_SIZES.iter().map(|&(_, c)| c).sum::<usize>(), BLOCK);
        assert!((mean_group_size() - 34.8).abs() < 1e-9);
        let span = Duration::from_secs(20);
        let plan = group_plan(3, "fleet", 30.0, span, 512);
        assert_eq!(plan.len(), 600);
        let n = plan.len() as f64;
        let shard0 = plan.iter().filter(|g| g.hint == 0).count() as f64;
        assert!((shard0 / n - SHARD0_SHARE).abs() < 0.05);
        assert!(plan.iter().all(|g| g.first < 512 && g.due < span));
        assert!(plan.windows(2).all(|w| w[0].due < w[1].due));
        // Every block offers the same work.
        for block in plan.chunks(BLOCK) {
            let work: usize = block.iter().map(|g| g.size).sum();
            assert_eq!(work as f64, mean_group_size() * BLOCK as f64);
        }
        // Same seed, same plan; another seed, another order.
        assert_eq!(plan, group_plan(3, "fleet", 30.0, span, 512));
        assert_ne!(plan, group_plan(4, "fleet", 30.0, span, 512));
    }

    #[test]
    fn derived_seeds_differ_by_tag() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
    }
}
