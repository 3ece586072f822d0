//! `BatchTridiag`: strided batched tridiagonal storage.
//!
//! This is the layout consumed by cuSPARSE's `gtsv2StridedBatch` (the
//! related-work baseline of Section III): three arrays of length `n` per
//! system, stored system-major. The cyclic-reduction direct solver in
//! `batsolv-solvers` operates on this format.

use batsolv_types::{BatchDims, Error, OpCounts, Result, Scalar};

use crate::traits::BatchMatrix;

/// A batch of tridiagonal matrices.
#[derive(Clone, Debug)]
pub struct BatchTridiag<T> {
    dims: BatchDims,
    /// Sub-diagonal per system (`dl[0]` unused, kept for alignment).
    dl: Vec<T>,
    /// Main diagonal per system.
    d: Vec<T>,
    /// Super-diagonal per system (`du[n-1]` unused).
    du: Vec<T>,
}

impl<T: Scalar> BatchTridiag<T> {
    /// A zero batch.
    pub fn zeros(dims: BatchDims) -> Self {
        let len = dims.total_rows();
        BatchTridiag {
            dims,
            dl: vec![T::ZERO; len],
            d: vec![T::ZERO; len],
            du: vec![T::ZERO; len],
        }
    }

    /// Build from per-system closures giving `(dl, d, du)` for each row.
    pub fn from_fn(dims: BatchDims, mut f: impl FnMut(usize, usize) -> (T, T, T)) -> Self {
        let mut m = Self::zeros(dims);
        for s in 0..dims.num_systems {
            for r in 0..dims.num_rows {
                let (lo, di, up) = f(s, r);
                let off = dims.system_offset(s) + r;
                m.dl[off] = lo;
                m.d[off] = di;
                m.du[off] = up;
            }
        }
        m
    }

    /// Sub-diagonal of system `i`.
    pub fn dl_of(&self, i: usize) -> &[T] {
        let n = self.dims.num_rows;
        &self.dl[i * n..(i + 1) * n]
    }

    /// Main diagonal of system `i`.
    pub fn d_of(&self, i: usize) -> &[T] {
        let n = self.dims.num_rows;
        &self.d[i * n..(i + 1) * n]
    }

    /// Super-diagonal of system `i`.
    pub fn du_of(&self, i: usize) -> &[T] {
        let n = self.dims.num_rows;
        &self.du[i * n..(i + 1) * n]
    }

    /// Row `r` of `A_i x`: diagonal, then sub-, then super-diagonal term.
    #[inline(always)]
    fn row_times(&self, i: usize, r: usize, x: &[T]) -> T {
        let n = self.dims.num_rows;
        let mut acc = self.d_of(i)[r] * x[r];
        if r > 0 {
            acc = self.dl_of(i)[r].mul_add(x[r - 1], acc);
        }
        if r + 1 < n {
            acc = self.du_of(i)[r].mul_add(x[r + 1], acc);
        }
        acc
    }

    /// Copies of the three diagonals of system `i` (for in-place solvers).
    pub fn diagonals_owned(&self, i: usize) -> (Vec<T>, Vec<T>, Vec<T>) {
        (
            self.dl_of(i).to_vec(),
            self.d_of(i).to_vec(),
            self.du_of(i).to_vec(),
        )
    }

    /// Validate that off-diagonal boundary slots are zero.
    pub fn validate(&self) -> Result<()> {
        let n = self.dims.num_rows;
        for i in 0..self.dims.num_systems {
            if self.dl_of(i)[0] != T::ZERO || self.du_of(i)[n - 1] != T::ZERO {
                return Err(Error::InvalidFormat(format!(
                    "system {i}: boundary off-diagonal slots must be zero"
                )));
            }
        }
        Ok(())
    }
}

impl<T: Scalar> BatchMatrix<T> for BatchTridiag<T> {
    fn dims(&self) -> BatchDims {
        self.dims
    }

    fn format_name(&self) -> &'static str {
        "BatchTridiag"
    }

    fn stored_per_system(&self) -> usize {
        3 * self.dims.num_rows
    }

    #[inline(always)]
    fn spmv_system(&self, i: usize, x: &[T], y: &mut [T]) {
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = self.row_times(i, r, x);
        }
    }

    #[inline(always)]
    fn spmv_system_advanced(&self, i: usize, alpha: T, x: &[T], beta: T, y: &mut [T]) {
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = alpha * self.row_times(i, r, x) + beta * *yr;
        }
    }

    fn extract_diagonal(&self, i: usize, diag: &mut [T]) {
        diag.copy_from_slice(self.d_of(i));
    }

    fn entry(&self, i: usize, row: usize, col: usize) -> T {
        if row == col {
            self.d_of(i)[row]
        } else if col + 1 == row {
            self.dl_of(i)[row]
        } else if row + 1 == col {
            self.du_of(i)[row]
        } else {
            T::ZERO
        }
    }

    fn spmv_x_read_bytes(&self) -> u64 {
        (self.dims.num_rows * T::BYTES) as u64
    }

    fn spmv_counts(&self, warp_size: u32) -> OpCounts {
        let n = self.dims.num_rows as u64;
        let vb = T::BYTES as u64;
        let mut c = OpCounts::ZERO;
        c.flops = 6 * n;
        c.global_read_bytes = 3 * n * vb + n * vb;
        c.global_write_bytes = n * vb;
        c.record_lanes(n, warp_size as u64, 3);
        c
    }

    fn value_bytes_per_system(&self) -> usize {
        3 * self.dims.num_rows * T::BYTES
    }

    fn shared_index_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims(ns: usize, n: usize) -> BatchDims {
        BatchDims::new(ns, n).unwrap()
    }

    fn laplacian(ns: usize, n: usize) -> BatchTridiag<f64> {
        BatchTridiag::from_fn(dims(ns, n), |_, r| {
            (
                if r == 0 { 0.0 } else { -1.0 },
                2.0,
                if r == n - 1 { 0.0 } else { -1.0 },
            )
        })
    }

    #[test]
    fn spmv_of_laplacian() {
        let m = laplacian(1, 5);
        let x = [1.0, 1.0, 1.0, 1.0, 1.0];
        let mut y = [0.0; 5];
        m.spmv_system(0, &x, &mut y);
        assert_eq!(y, [1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn validate_boundary_slots() {
        assert!(laplacian(2, 4).validate().is_ok());
        let mut bad = laplacian(1, 4);
        bad.dl[0] = 1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn diagonal_extraction() {
        let m = laplacian(2, 4);
        let mut d = [0.0; 4];
        m.extract_diagonal(1, &mut d);
        assert_eq!(d, [2.0; 4]);
    }

    #[test]
    fn storage_is_three_vectors() {
        let m = laplacian(2, 10);
        assert_eq!(m.value_bytes_per_system(), 3 * 10 * 8);
        assert_eq!(m.stored_per_system(), 30);
    }

    #[test]
    fn diagonals_owned_round_trip() {
        let m = laplacian(1, 4);
        let (dl, d, du) = m.diagonals_owned(0);
        assert_eq!(dl, vec![0.0, -1.0, -1.0, -1.0]);
        assert_eq!(d, vec![2.0; 4]);
        assert_eq!(du, vec![-1.0, -1.0, -1.0, 0.0]);
    }
}
