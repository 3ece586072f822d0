//! Real parallel execution of the batch.
//!
//! The numeric result of every batched operation is computed for real —
//! one closure invocation per "thread block" (batch system), executed on
//! the host's cores via rayon. Only *time* comes from the model; values
//! are bit-exact regardless of which simulated device is selected.
//!
//! Every block runs through [`on_block`], the one place the host picks
//! its code generation: on an x86-64 CPU with FMA the block body runs in
//! a frame compiled with that feature, so `mul_add` becomes one
//! instruction instead of a call into libm. The frame only reaches code
//! inlined into it, which is why every kernel a block closure calls is
//! `#[inline(always)]`. `mul_add` is correctly rounded either way, and
//! Rust never contracts a separate `*` and `+`, so results are bitwise
//! identical on both paths.

use rayon::prelude::*;

/// Run one block's body, in an FMA-enabled frame when the CPU has FMA.
#[inline(always)]
fn on_block<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("fma") {
        // SAFETY: `with_fma`'s only requirement is that the CPU supports
        // FMA, which the run-time check above just confirmed.
        return unsafe { with_fma(f) };
    }
    f()
}

/// Call `f` in a frame compiled with FMA enabled; code that LLVM inlines
/// into it is compiled with the feature too.
///
/// # Safety
///
/// The CPU executing the call must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn with_fma<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Run `f(block_index)` for every block of the grid in parallel and
/// collect the results in block order.
///
/// This is the software analogue of launching a CUDA/HIP grid with
/// `num_blocks` thread blocks (the paper's "one system per thread block"
/// mapping): each invocation must be independent of the others.
pub fn run_batch<R, F>(num_blocks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync + Send,
{
    (0..num_blocks)
        .into_par_iter()
        .map(|i| {
            on_block(
                #[inline(always)]
                || f(i),
            )
        })
        .collect()
}

/// Run `f(block_index, chunk)` over disjoint mutable chunks (e.g. the
/// per-system slices of a solution multivector) in parallel.
pub fn run_batch_mut<T, F>(chunks: Vec<&mut [T]>, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync + Send,
{
    chunks.into_par_iter().enumerate().for_each(|(i, chunk)| {
        on_block(
            #[inline(always)]
            || f(i, chunk),
        )
    });
}

/// Like [`run_batch_mut`] but collects a per-block result — the shape the
/// batched solvers use: block `i` updates its solution slice in place and
/// returns its convergence record.
pub fn run_batch_map_mut<T, R, F>(chunks: Vec<&mut [T]>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync + Send,
{
    chunks
        .into_par_iter()
        .enumerate()
        .map(|(i, chunk)| {
            on_block(
                #[inline(always)]
                || f(i, chunk),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_block_order() {
        let out = run_batch(100, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn every_block_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let _ = run_batch(1000, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn mutable_chunks_are_disjoint() {
        let mut data = vec![0u64; 40];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(10).collect();
        run_batch_mut(chunks, |i, c| {
            for v in c.iter_mut() {
                *v = i as u64 + 1;
            }
        });
        assert!(data[..10].iter().all(|&v| v == 1));
        assert!(data[30..].iter().all(|&v| v == 4));
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<usize> = run_batch(0, |i| i);
        assert!(out.is_empty());
    }
}
