//! The common interface all batch matrix formats implement.

use batsolv_types::{BatchDims, OpCounts, Result, Scalar};

use crate::vectors::BatchVectors;

/// A batch of equally-shaped square matrices.
///
/// The contract mirrors what the paper's single-kernel solver needs from a
/// matrix: a per-system SpMV (executed inside "one thread block per
/// system"), the diagonal (for the Jacobi preconditioner), and operation
/// counts so the device model can price each SpMV.
pub trait BatchMatrix<T: Scalar>: Send + Sync {
    /// Batch shape.
    fn dims(&self) -> BatchDims;

    /// Human-readable format name (`"BatchCsr"`, `"BatchEll"`, ...).
    fn format_name(&self) -> &'static str;

    /// Stored entries per system (including explicit padding for ELL).
    fn stored_per_system(&self) -> usize;

    /// `y = A_i x` for system `i`.
    fn spmv_system(&self, i: usize, x: &[T], y: &mut [T]);

    /// `y = alpha * A_i x + beta * y` for system `i`, in one pass with no
    /// temporary: each row of `A_i x` accumulates in the same order as in
    /// [`BatchMatrix::spmv_system`] and is then combined with `y`.
    fn spmv_system_advanced(&self, i: usize, alpha: T, x: &[T], beta: T, y: &mut [T]);

    /// Write the diagonal of system `i` into `diag`.
    fn extract_diagonal(&self, i: usize, diag: &mut [T]);

    /// Entry `(row, col)` of system `i`, zero when outside the stored
    /// structure. Used by preconditioner setup (block extraction, ILU)
    /// and tests; not a hot path.
    fn entry(&self, i: usize, row: usize, col: usize) -> T;

    /// Operation counts of **one** per-system SpMV, for a device with the
    /// given warp width. `x` and `y` traffic is accounted as global here;
    /// the solver adjusts for vectors it placed in shared memory.
    fn spmv_counts(&self, warp_size: u32) -> OpCounts;

    /// Bytes of `x` reads that [`BatchMatrix::spmv_counts`] booked as
    /// global traffic (the solver re-books them as shared traffic when
    /// its workspace plan placed `x` in shared memory).
    fn spmv_x_read_bytes(&self) -> u64 {
        (self.stored_per_system() * T::BYTES) as u64
    }

    /// Bytes of `y` writes booked by [`BatchMatrix::spmv_counts`].
    fn spmv_y_write_bytes(&self) -> u64 {
        (self.dims().num_rows * T::BYTES) as u64
    }

    /// Bytes of per-system value storage.
    fn value_bytes_per_system(&self) -> usize;

    /// Bytes of index/pointer storage shared across the whole batch.
    fn shared_index_bytes(&self) -> usize;

    /// Convenience: `y = A x` over the whole batch, sequentially.
    /// (Parallel batch execution is the job of `batsolv-gpusim`.)
    fn spmv(&self, x: &BatchVectors<T>, y: &mut BatchVectors<T>) -> Result<()> {
        self.dims().ensure_same(&x.dims(), "spmv x")?;
        self.dims().ensure_same(&y.dims(), "spmv y")?;
        for i in 0..self.dims().num_systems {
            self.spmv_system(i, x.system(i), y.system_mut(i));
        }
        Ok(())
    }

    /// Total residual check helper: `max_i ||b_i - A_i x_i||`.
    fn max_residual_norm(&self, x: &BatchVectors<T>, b: &BatchVectors<T>) -> Result<T> {
        self.dims().ensure_same(&x.dims(), "residual x")?;
        self.dims().ensure_same(&b.dims(), "residual b")?;
        let n = self.dims().num_rows;
        let mut r = vec![T::ZERO; n];
        let mut worst = T::ZERO;
        for i in 0..self.dims().num_systems {
            self.spmv_system(i, x.system(i), &mut r);
            let norm = b
                .system(i)
                .iter()
                .zip(r.iter())
                .map(|(&bi, &ri)| (bi - ri) * (bi - ri))
                .fold(T::ZERO, |a, v| a + v)
                .sqrt();
            worst = worst.max_val(norm);
        }
        Ok(worst)
    }
}
