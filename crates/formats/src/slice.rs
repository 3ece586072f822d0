//! `SystemSlice`: view one system of a batch as a single-system batch.
//!
//! The parallel batch executor hands each worker ("thread block") exactly
//! one system of the shared-pattern batch. Rather than copying that
//! system's values out, a [`SystemSlice`] adapts `(batch, index)` into a
//! `num_systems == 1` [`BatchMatrix`], delegating every kernel to the
//! underlying batch at the fixed index. Because the delegated kernels are
//! byte-for-byte the same code paths the fused batch solve runs, a solve
//! through a slice is bitwise identical to the corresponding lane of the
//! fused solve — the property the differential oracle tests pin down.

use batsolv_types::{BatchDims, Error, OpCounts, Result, Scalar};

use crate::traits::BatchMatrix;

/// A borrowed single-system view into a batch matrix.
#[derive(Clone, Copy, Debug)]
pub struct SystemSlice<'a, T, M: ?Sized> {
    inner: &'a M,
    index: usize,
    dims: BatchDims,
    _marker: core::marker::PhantomData<T>,
}

impl<'a, T: Scalar, M: BatchMatrix<T> + ?Sized> SystemSlice<'a, T, M> {
    /// View system `index` of `inner` as a 1-system batch.
    ///
    /// Returns a structured error (not a panic) for an out-of-range
    /// index, so callers fanning over dynamic batches can surface the
    /// failure per task.
    pub fn new(inner: &'a M, index: usize) -> Result<Self> {
        let d = inner.dims();
        if index >= d.num_systems {
            return Err(Error::IndexOutOfBounds {
                index,
                len: d.num_systems,
                context: "SystemSlice over batch matrix",
            });
        }
        Ok(SystemSlice {
            inner,
            index,
            dims: BatchDims::new(1, d.num_rows)?,
            _marker: core::marker::PhantomData,
        })
    }

    /// Index of the viewed system within the underlying batch.
    pub fn index(&self) -> usize {
        self.index
    }
}

impl<T: Scalar, M: BatchMatrix<T> + ?Sized> BatchMatrix<T> for SystemSlice<'_, T, M> {
    fn dims(&self) -> BatchDims {
        self.dims
    }

    fn format_name(&self) -> &'static str {
        self.inner.format_name()
    }

    fn stored_per_system(&self) -> usize {
        self.inner.stored_per_system()
    }

    #[inline(always)]
    fn spmv_system(&self, i: usize, x: &[T], y: &mut [T]) {
        debug_assert_eq!(i, 0, "SystemSlice has exactly one system");
        self.inner.spmv_system(self.index, x, y);
    }

    #[inline(always)]
    fn spmv_system_advanced(&self, i: usize, alpha: T, x: &[T], beta: T, y: &mut [T]) {
        debug_assert_eq!(i, 0, "SystemSlice has exactly one system");
        self.inner
            .spmv_system_advanced(self.index, alpha, x, beta, y);
    }

    fn extract_diagonal(&self, i: usize, diag: &mut [T]) {
        debug_assert_eq!(i, 0, "SystemSlice has exactly one system");
        self.inner.extract_diagonal(self.index, diag);
    }

    fn entry(&self, i: usize, row: usize, col: usize) -> T {
        debug_assert_eq!(i, 0, "SystemSlice has exactly one system");
        self.inner.entry(self.index, row, col)
    }

    fn spmv_counts(&self, warp_size: u32) -> OpCounts {
        self.inner.spmv_counts(warp_size)
    }

    fn spmv_x_read_bytes(&self) -> u64 {
        self.inner.spmv_x_read_bytes()
    }

    fn spmv_y_write_bytes(&self) -> u64 {
        self.inner.spmv_y_write_bytes()
    }

    fn value_bytes_per_system(&self) -> usize {
        self.inner.value_bytes_per_system()
    }

    fn shared_index_bytes(&self) -> usize {
        self.inner.shared_index_bytes()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::csr::BatchCsr;
    use crate::pattern::SparsityPattern;
    use crate::vectors::BatchVectors;

    fn batch() -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(4, 3, true));
        let mut m = BatchCsr::zeros(3, p).unwrap();
        for i in 0..3 {
            m.fill_system(i, |r, c| {
                if r == c {
                    5.0 + i as f64
                } else {
                    -0.3 - i as f64 * 0.1
                }
            });
        }
        m
    }

    #[test]
    fn slice_spmv_matches_the_sliced_system() {
        let m = batch();
        let dims = m.dims();
        let x = BatchVectors::from_fn(dims, |s, r| (s * 11 + r) as f64 * 0.07);
        let mut y = BatchVectors::zeros(dims);
        m.spmv(&x, &mut y).unwrap();
        for i in 0..dims.num_systems {
            let slice = SystemSlice::new(&m, i).unwrap();
            assert_eq!(slice.dims().num_systems, 1);
            assert_eq!(slice.dims().num_rows, dims.num_rows);
            let mut ys = vec![0.0; dims.num_rows];
            slice.spmv_system(0, x.system(i), &mut ys);
            assert_eq!(ys.as_slice(), y.system(i));
            let mut d_full = vec![0.0; dims.num_rows];
            let mut d_slice = vec![0.0; dims.num_rows];
            m.extract_diagonal(i, &mut d_full);
            slice.extract_diagonal(0, &mut d_slice);
            assert_eq!(d_full, d_slice);
        }
    }

    #[test]
    fn out_of_range_index_is_a_structured_error() {
        let m = batch();
        let err = SystemSlice::new(&m, 3).unwrap_err();
        match err {
            Error::IndexOutOfBounds { index, len, .. } => {
                assert_eq!(index, 3);
                assert_eq!(len, 3);
            }
            other => panic!("expected IndexOutOfBounds, got {other:?}"),
        }
    }
}
