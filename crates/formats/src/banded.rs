//! `BatchBanded`: LAPACK-style band storage.
//!
//! This is the layout of the paper's CPU baseline, LAPACK's `dgbsv`: each
//! system is an `ldab × n` column-major array with `ldab = 2·kl + ku + 1`;
//! entry `A(i, j)` lives at `AB[kl + ku + i - j, j]`, and the extra `kl`
//! leading rows are workspace for the fill-in produced by partial pivoting.
//! The XGC stencil matrices have `kl = ku = nx + 1 = 33`.

use batsolv_types::{BatchDims, Error, OpCounts, Result, Scalar};

use crate::csr::BatchCsr;
use crate::traits::BatchMatrix;

/// A batch of banded matrices in `dgbsv` band storage.
#[derive(Clone, Debug)]
pub struct BatchBanded<T> {
    dims: BatchDims,
    kl: usize,
    ku: usize,
    /// Leading dimension of each band slab: `2*kl + ku + 1`.
    ldab: usize,
    /// System-major; within a system, column-major `ldab × n`.
    values: Vec<T>,
}

impl<T: Scalar> BatchBanded<T> {
    /// A zero batch with the given bandwidths.
    pub fn zeros(num_systems: usize, n: usize, kl: usize, ku: usize) -> Result<Self> {
        if kl >= n || ku >= n {
            return Err(Error::InvalidConfig(format!(
                "bandwidths kl={kl}, ku={ku} too large for n={n}"
            )));
        }
        let dims = BatchDims::new(num_systems, n)?;
        let ldab = 2 * kl + ku + 1;
        Ok(BatchBanded {
            dims,
            kl,
            ku,
            ldab,
            values: vec![T::ZERO; num_systems * ldab * n],
        })
    }

    /// Convert a CSR batch, using the pattern's bandwidths.
    pub fn from_csr(csr: &BatchCsr<T>) -> Result<Self> {
        let (kl, ku) = csr.pattern().bandwidths();
        let n = csr.dims().num_rows;
        let mut banded = Self::zeros(csr.dims().num_systems, n, kl, ku)?;
        for i in 0..csr.dims().num_systems {
            let vals = csr.values_of(i);
            for r in 0..n {
                let (b, e) = csr.pattern().row_range(r);
                for k in b..e {
                    let c = csr.pattern().col_idxs()[k] as usize;
                    *banded.at_mut(i, r, c) = vals[k];
                }
            }
        }
        Ok(banded)
    }

    /// Lower bandwidth.
    #[inline]
    pub fn kl(&self) -> usize {
        self.kl
    }

    /// Upper bandwidth.
    #[inline]
    pub fn ku(&self) -> usize {
        self.ku
    }

    /// Leading dimension of the band slab.
    #[inline]
    pub fn ldab(&self) -> usize {
        self.ldab
    }

    /// Flat index within a system slab of band entry `(row, col)`.
    ///
    /// Valid for `col - ku <= row <= col + kl` **plus** the fill-in region
    /// `col - ku - kl <= row < col - ku` used during pivoted factorization.
    #[inline]
    pub fn band_index(&self, row: usize, col: usize) -> usize {
        col * self.ldab + (self.kl + self.ku + row) - col
    }

    /// True if `(row, col)` lies within the stored band (not fill region).
    #[inline]
    pub fn in_band(&self, row: usize, col: usize) -> bool {
        (col as isize - row as isize) <= self.ku as isize
            && (row as isize - col as isize) <= self.kl as isize
    }

    /// Band slab of system `i`.
    #[inline]
    pub fn ab_of(&self, i: usize) -> &[T] {
        let slab = self.ldab * self.dims.num_rows;
        &self.values[i * slab..(i + 1) * slab]
    }

    /// Mutable band slab of system `i`.
    #[inline]
    pub fn ab_of_mut(&mut self, i: usize) -> &mut [T] {
        let slab = self.ldab * self.dims.num_rows;
        &mut self.values[i * slab..(i + 1) * slab]
    }

    /// Entry `(row, col)` of system `i` (zero outside the band).
    pub fn at(&self, i: usize, row: usize, col: usize) -> T {
        if !self.in_band(row, col) {
            return T::ZERO;
        }
        self.ab_of(i)[self.band_index(row, col)]
    }

    /// Row `r` of `A_i x`, accumulated left to right over the band.
    #[inline(always)]
    fn row_times(&self, i: usize, r: usize, x: &[T]) -> T {
        let lo = r.saturating_sub(self.kl);
        let hi = (r + self.ku).min(self.dims.num_rows - 1);
        let mut acc = T::ZERO;
        for c in lo..=hi {
            acc = self.at(i, r, c).mul_add(x[c], acc);
        }
        acc
    }

    /// Mutable reference to band entry `(row, col)` of system `i`.
    ///
    /// # Panics
    /// If `(row, col)` is outside the band.
    pub fn at_mut(&mut self, i: usize, row: usize, col: usize) -> &mut T {
        assert!(
            self.in_band(row, col),
            "({row}, {col}) outside band kl={}, ku={}",
            self.kl,
            self.ku
        );
        let idx = self.band_index(row, col);
        &mut self.ab_of_mut(i)[idx]
    }
}

impl<T: Scalar> BatchMatrix<T> for BatchBanded<T> {
    fn dims(&self) -> BatchDims {
        self.dims
    }

    fn format_name(&self) -> &'static str {
        "BatchBanded"
    }

    fn stored_per_system(&self) -> usize {
        self.ldab * self.dims.num_rows
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
        for r in 0..self.dims.num_rows {
            diag[r] = self.at(i, r, r);
        }
    }

    fn entry(&self, i: usize, row: usize, col: usize) -> T {
        self.at(i, row, col)
    }

    fn spmv_x_read_bytes(&self) -> u64 {
        (self.dims.num_rows * T::BYTES) as u64
    }

    fn spmv_counts(&self, warp_size: u32) -> OpCounts {
        // CPU-baseline format: assume a well-vectorized band traversal.
        let n = self.dims.num_rows as u64;
        let band = (self.kl + self.ku + 1) as u64;
        let vb = T::BYTES as u64;
        let mut c = OpCounts::ZERO;
        c.flops = 2 * band * n;
        c.global_read_bytes = band * n * vb + n * vb;
        c.global_write_bytes = n * vb;
        c.record_lanes(n, warp_size as u64, band);
        c
    }

    fn value_bytes_per_system(&self) -> usize {
        self.ldab * self.dims.num_rows * T::BYTES
    }

    fn shared_index_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::BatchDense;
    use crate::pattern::SparsityPattern;
    use std::sync::Arc;

    fn stencil_csr() -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(4, 3, true));
        let mut m = BatchCsr::zeros(2, p).unwrap();
        for i in 0..2 {
            m.fill_system(i, |r, c| {
                if r == c {
                    6.0 + i as f64
                } else {
                    -0.5 - ((r * 7 + c) % 4) as f64 * 0.1
                }
            });
        }
        m
    }

    #[test]
    fn from_csr_preserves_entries() {
        let csr = stencil_csr();
        let banded = BatchBanded::from_csr(&csr).unwrap();
        assert_eq!(banded.kl(), 5);
        assert_eq!(banded.ku(), 5);
        assert_eq!(banded.ldab(), 16);
        for i in 0..2 {
            for r in 0..12 {
                for c in 0..12 {
                    assert_eq!(banded.at(i, r, c), csr.get(i, r, c), "({i},{r},{c})");
                }
            }
        }
    }

    #[test]
    fn spmv_matches_dense() {
        let csr = stencil_csr();
        let banded = BatchBanded::from_csr(&csr).unwrap();
        let dense = BatchDense::from_csr(&csr);
        let x: Vec<f64> = (0..12).map(|k| 0.3 * k as f64 - 1.0).collect();
        let mut y1 = vec![0.0; 12];
        let mut y2 = vec![0.0; 12];
        banded.spmv_system(1, &x, &mut y1);
        dense.spmv_system(1, &x, &mut y2);
        for r in 0..12 {
            assert!((y1[r] - y2[r]).abs() < 1e-13);
        }
    }

    #[test]
    fn band_index_layout_is_lapack() {
        // LAPACK: AB(kl+ku+1+i-j, j) in 1-based Fortran; our 0-based
        // flat index is col*ldab + kl+ku+row-col.
        let banded = BatchBanded::<f64>::zeros(1, 6, 2, 1).unwrap();
        assert_eq!(banded.ldab(), 6);
        assert_eq!(banded.band_index(0, 0), 3);
        assert_eq!(banded.band_index(2, 1), 6 + 4);
        assert!(banded.in_band(2, 1));
        assert!(!banded.in_band(3, 0)); // below band (kl = 2)
        assert!(!banded.in_band(0, 2)); // above band (ku = 1)
    }

    #[test]
    fn bandwidth_validation() {
        assert!(BatchBanded::<f64>::zeros(1, 4, 4, 1).is_err());
        assert!(BatchBanded::<f64>::zeros(1, 4, 1, 4).is_err());
        assert!(BatchBanded::<f64>::zeros(1, 4, 3, 3).is_ok());
    }

    #[test]
    fn diagonal_matches() {
        let csr = stencil_csr();
        let banded = BatchBanded::from_csr(&csr).unwrap();
        let mut d1 = vec![0.0; 12];
        let mut d2 = vec![0.0; 12];
        banded.extract_diagonal(0, &mut d1);
        csr.extract_diagonal(0, &mut d2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn xgc_band_storage_cost() {
        // For the real XGC size: kl = ku = 33, ldab = 100, n = 992 — the
        // storage dgbsv actually factorizes in place.
        let banded = BatchBanded::<f64>::zeros(1, 992, 33, 33).unwrap();
        assert_eq!(banded.ldab(), 100);
        assert_eq!(banded.value_bytes_per_system(), 100 * 992 * 8);
    }
}
