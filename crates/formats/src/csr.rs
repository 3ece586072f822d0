//! `BatchCsr`: compressed sparse row with a shared sparsity pattern.
//!
//! The pattern (row pointers + column indices) is stored **once** for the
//! whole batch; each system stores only its value array. The SpMV kernel
//! models the paper's GPU mapping: one warp per row, with a warp-parallel
//! reduction — which is exactly why CSR underperforms ELL for the 9-point
//! stencil (only 9 of 32/64 lanes ever do useful work, Section V).

use std::sync::Arc;

use batsolv_types::{BatchDims, OpCounts, Result, Scalar};

use crate::pattern::SparsityPattern;
use crate::traits::BatchMatrix;

/// A batch of CSR matrices sharing one sparsity pattern.
#[derive(Clone, Debug)]
pub struct BatchCsr<T> {
    dims: BatchDims,
    pattern: Arc<SparsityPattern>,
    /// System-major: system `i` owns `values[i*nnz .. (i+1)*nnz]`.
    values: Vec<T>,
}

impl<T: Scalar> BatchCsr<T> {
    /// A zero-valued batch over `pattern`.
    pub fn zeros(num_systems: usize, pattern: Arc<SparsityPattern>) -> Result<Self> {
        let dims = BatchDims::new(num_systems, pattern.num_rows())?;
        let values = vec![T::ZERO; num_systems * pattern.nnz()];
        Ok(BatchCsr {
            dims,
            pattern,
            values,
        })
    }

    /// Build from per-system value arrays (each of length `pattern.nnz()`).
    pub fn from_system_values(pattern: Arc<SparsityPattern>, systems: &[Vec<T>]) -> Result<Self> {
        let dims = BatchDims::new(systems.len(), pattern.num_rows())?;
        let nnz = pattern.nnz();
        let mut values = Vec::with_capacity(systems.len() * nnz);
        for (i, sys) in systems.iter().enumerate() {
            if sys.len() != nnz {
                return Err(batsolv_types::dim_mismatch!(
                    "system {i} has {} values, pattern has {} nnz",
                    sys.len(),
                    nnz
                ));
            }
            values.extend_from_slice(sys);
        }
        Ok(BatchCsr {
            dims,
            pattern,
            values,
        })
    }

    /// Replicate one system's values across a batch of `num_systems`.
    pub fn replicate(
        num_systems: usize,
        pattern: Arc<SparsityPattern>,
        values: &[T],
    ) -> Result<Self> {
        if values.len() != pattern.nnz() {
            return Err(batsolv_types::dim_mismatch!(
                "replicate: {} values vs {} nnz",
                values.len(),
                pattern.nnz()
            ));
        }
        let dims = BatchDims::new(num_systems, pattern.num_rows())?;
        let mut all = Vec::with_capacity(num_systems * values.len());
        for _ in 0..num_systems {
            all.extend_from_slice(values);
        }
        Ok(BatchCsr {
            dims,
            pattern,
            values: all,
        })
    }

    /// The shared sparsity pattern.
    #[inline]
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        &self.pattern
    }

    /// Values of system `i` (CSR order).
    #[inline]
    pub fn values_of(&self, i: usize) -> &[T] {
        let nnz = self.pattern.nnz();
        &self.values[i * nnz..(i + 1) * nnz]
    }

    /// Mutable values of system `i`.
    #[inline]
    pub fn values_of_mut(&mut self, i: usize) -> &mut [T] {
        let nnz = self.pattern.nnz();
        &mut self.values[i * nnz..(i + 1) * nnz]
    }

    /// Read entry `(row, col)` of system `i` (zero if not stored).
    pub fn get(&self, i: usize, row: usize, col: usize) -> T {
        match self.pattern.find(row, col) {
            Some(k) => self.values_of(i)[k],
            None => T::ZERO,
        }
    }

    /// Set entry `(row, col)` of system `i`; errors if outside the pattern.
    pub fn set(&mut self, i: usize, row: usize, col: usize, v: T) -> Result<()> {
        match self.pattern.find(row, col) {
            Some(k) => {
                self.values_of_mut(i)[k] = v;
                Ok(())
            }
            None => Err(batsolv_types::Error::InvalidFormat(format!(
                "entry ({row}, {col}) not in sparsity pattern"
            ))),
        }
    }

    /// Convert values to another precision (pattern is shared untouched).
    /// The workhorse of mixed-precision solvers: an `f32` copy halves
    /// both the value traffic and the workspace footprint.
    pub fn map_values<U: Scalar>(&self, f: impl Fn(T) -> U) -> BatchCsr<U> {
        BatchCsr {
            dims: self.dims,
            pattern: Arc::clone(&self.pattern),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Fill system `i` from an entry function over the stored pattern.
    pub fn fill_system(&mut self, i: usize, mut f: impl FnMut(usize, usize) -> T) {
        let pattern = Arc::clone(&self.pattern);
        let vals = self.values_of_mut(i);
        for r in 0..pattern.num_rows() {
            let (b, e) = pattern.row_range(r);
            for k in b..e {
                vals[k] = f(r, pattern.col_idxs()[k] as usize);
            }
        }
    }
}

impl<T: Scalar> BatchMatrix<T> for BatchCsr<T> {
    fn dims(&self) -> BatchDims {
        self.dims
    }

    fn format_name(&self) -> &'static str {
        "BatchCsr"
    }

    fn stored_per_system(&self) -> usize {
        self.pattern.nnz()
    }

    #[inline(always)]
    fn spmv_system(&self, i: usize, x: &[T], y: &mut [T]) {
        debug_assert_eq!(x.len(), self.dims.num_rows);
        debug_assert_eq!(y.len(), self.dims.num_rows);
        let vals = self.values_of(i);
        let cols = self.pattern.col_idxs();
        let ptrs = self.pattern.row_ptrs();
        for r in 0..self.dims.num_rows {
            let (b, e) = (ptrs[r] as usize, ptrs[r + 1] as usize);
            let mut acc = T::ZERO;
            for k in b..e {
                acc = vals[k].mul_add(x[cols[k] as usize], acc);
            }
            y[r] = acc;
        }
    }

    #[inline(always)]
    fn spmv_system_advanced(&self, i: usize, alpha: T, x: &[T], beta: T, y: &mut [T]) {
        let vals = self.values_of(i);
        let cols = self.pattern.col_idxs();
        let ptrs = self.pattern.row_ptrs();
        for r in 0..self.dims.num_rows {
            let (b, e) = (ptrs[r] as usize, ptrs[r + 1] as usize);
            let mut acc = T::ZERO;
            for k in b..e {
                acc = vals[k].mul_add(x[cols[k] as usize], acc);
            }
            y[r] = alpha * acc + beta * y[r];
        }
    }

    fn extract_diagonal(&self, i: usize, diag: &mut [T]) {
        let vals = self.values_of(i);
        for r in 0..self.dims.num_rows {
            diag[r] = match self.pattern.diag_position(r) {
                Some(k) => vals[k],
                None => T::ZERO,
            };
        }
    }

    fn entry(&self, i: usize, row: usize, col: usize) -> T {
        self.get(i, row, col)
    }

    fn spmv_counts(&self, warp_size: u32) -> OpCounts {
        let mut c = OpCounts::ZERO;
        let w = warp_size as u64;
        for r in 0..self.dims.num_rows {
            let nnz = self.pattern.nnz_in_row(r) as u64;
            if nnz == 0 {
                continue;
            }
            // One warp per row: load + multiply phase uses `nnz` lanes over
            // ceil(nnz / w) passes of the warp.
            let passes = nnz.div_ceil(w);
            for p in 0..passes {
                let active = (nnz - p * w).min(w);
                c.record_lanes(active, w, 1);
            }
            // Warp-parallel tree reduction: active lanes halve each stage
            // (the paper: "only 5 threads (9 divided by 2, rounded up)
            // active in the first reduction stage").
            let mut active = nnz.min(w).div_ceil(2);
            while active >= 1 {
                c.record_lanes(active, w, 1);
                c.flops += active;
                c.cross_warp_ops += 1; // shuffle/DPP data exchange
                if active == 1 {
                    break;
                }
                active = active.div_ceil(2);
            }
            c.flops += 2 * nnz; // multiply-accumulate of the load phase
        }
        let nnz_total = self.pattern.nnz() as u64;
        let n = self.dims.num_rows as u64;
        let vb = T::BYTES as u64;
        c.global_read_bytes += nnz_total * vb; // values (unique per system)
        c.global_read_bytes += nnz_total * 4; // column indices (shared)
        c.global_read_bytes += (n + 1) * 4; // row pointers (shared)
        c.global_read_bytes += nnz_total * vb; // gathered x entries
        c.global_write_bytes += n * vb; // y
        c
    }

    fn value_bytes_per_system(&self) -> usize {
        self.pattern.nnz() * T::BYTES
    }

    fn shared_index_bytes(&self) -> usize {
        self.pattern.index_storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::BatchVectors;

    fn small_pattern() -> Arc<SparsityPattern> {
        // [ 2 1 0 ]
        // [ 0 3 1 ]
        // [ 1 0 4 ]
        Arc::new(
            SparsityPattern::from_coords(3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)])
                .unwrap(),
        )
    }

    fn small_batch() -> BatchCsr<f64> {
        let mut m = BatchCsr::zeros(2, small_pattern()).unwrap();
        // System 0 as in the comment above.
        for &(r, c, v) in &[
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 1, 3.0),
            (1, 2, 1.0),
            (2, 0, 1.0),
            (2, 2, 4.0),
        ] {
            m.set(0, r, c, v).unwrap();
        }
        // System 1 = 10x system 0.
        for &(r, c, v) in &[
            (0, 0, 20.0),
            (0, 1, 10.0),
            (1, 1, 30.0),
            (1, 2, 10.0),
            (2, 0, 10.0),
            (2, 2, 40.0),
        ] {
            m.set(1, r, c, v).unwrap();
        }
        m
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let m = small_batch();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        m.spmv_system(0, &x, &mut y);
        assert_eq!(y, [4.0, 9.0, 13.0]);
        m.spmv_system(1, &x, &mut y);
        assert_eq!(y, [40.0, 90.0, 130.0]);
    }

    #[test]
    fn spmv_advanced_alpha_beta() {
        let m = small_batch();
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        m.spmv_system_advanced(0, 2.0, &x, -1.0, &mut y);
        assert_eq!(y, [7.0, 17.0, 25.0]);
    }

    #[test]
    fn batch_spmv_via_trait() {
        let m = small_batch();
        let x = BatchVectors::from_fn(m.dims(), |_, r| (r + 1) as f64);
        let mut y = BatchVectors::zeros(m.dims());
        m.spmv(&x, &mut y).unwrap();
        assert_eq!(y.system(0), &[4.0, 9.0, 13.0]);
        assert_eq!(y.system(1), &[40.0, 90.0, 130.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let m = small_batch();
        let mut d = [0.0; 3];
        m.extract_diagonal(0, &mut d);
        assert_eq!(d, [2.0, 3.0, 4.0]);
        m.extract_diagonal(1, &mut d);
        assert_eq!(d, [20.0, 30.0, 40.0]);
    }

    #[test]
    fn set_outside_pattern_errors() {
        let mut m = small_batch();
        assert!(m.set(0, 0, 2, 5.0).is_err());
        assert_eq!(m.get(0, 0, 2), 0.0);
    }

    #[test]
    fn fill_system_visits_all_entries() {
        let mut m = BatchCsr::<f64>::zeros(1, small_pattern()).unwrap();
        m.fill_system(0, |r, c| (10 * r + c) as f64);
        assert_eq!(m.get(0, 2, 2), 22.0);
        assert_eq!(m.get(0, 0, 1), 1.0);
    }

    #[test]
    fn replicate_copies_values() {
        let p = small_pattern();
        let vals = vec![1.0f64; p.nnz()];
        let m = BatchCsr::replicate(3, p, &vals).unwrap();
        assert_eq!(m.dims().num_systems, 3);
        assert_eq!(m.values_of(2), &vals[..]);
    }

    #[test]
    fn warp_model_nine_lanes_of_32() {
        // For the paper's 9-nnz rows on warp 32: the load phase uses 9
        // lanes, the reduction stages use 5, 3, 2, 1 lanes.
        let p = Arc::new(SparsityPattern::stencil_2d(32, 31, true));
        let m = BatchCsr::<f64>::zeros(1, p).unwrap();
        let c = m.spmv_counts(32);
        // Utilization must be far below 1 (dominated by 9/32 + reduction).
        let u = c.lane_utilization();
        assert!(u < 0.45, "CSR warp utilization {u} should be poor");
        // ELL-equivalent flop count is bounded below by 2*nnz.
        assert!(c.flops as usize >= 2 * m.pattern().nnz());
    }

    #[test]
    fn wider_wavefront_is_worse() {
        // AMD's 64-wide wavefronts waste even more lanes (Section V).
        let p = Arc::new(SparsityPattern::stencil_2d(32, 31, true));
        let m = BatchCsr::<f64>::zeros(1, p).unwrap();
        let u32w = m.spmv_counts(32).lane_utilization();
        let u64w = m.spmv_counts(64).lane_utilization();
        assert!(u64w < u32w);
    }

    #[test]
    fn from_system_values_validates_length() {
        let p = small_pattern();
        assert!(BatchCsr::from_system_values(p.clone(), &[vec![0.0f64; 5]]).is_err());
        assert!(BatchCsr::from_system_values(p, &[vec![0.0f64; 6]]).is_ok());
    }
}
