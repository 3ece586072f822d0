//! `BatchEll`: ELLPACK storage with shared column indices.
//!
//! Rows are padded to a uniform width (9 for the XGC stencil, with padding
//! only at grid-boundary rows), removing the row-pointer array. The column
//! indices and each system's values are stored in a caller-selected
//! [`ValueLayout`]: **column-major** (entry `(row, k)` at
//! `k * num_rows + row`, the default) places consecutive rows' entries at
//! consecutive addresses so that consecutive GPU threads — one thread per
//! row — issue coalesced loads: the layout of the paper's Figure 5(b).
//! The row-major order is kept as the measured baseline.

use std::sync::Arc;

use batsolv_types::{BatchDims, Error, OpCounts, Result, Scalar};

use crate::csr::BatchCsr;
use crate::layout::ValueLayout;
use crate::pattern::SparsityPattern;
use crate::traits::BatchMatrix;

/// Sentinel column index marking a padding slot.
pub const ELL_PAD: u32 = u32::MAX;

/// A batch of ELL matrices sharing one set of column indices.
#[derive(Clone, Debug)]
pub struct BatchEll<T> {
    dims: BatchDims,
    /// The originating CSR pattern (kept for conversions and diagonal
    /// lookup; the index array below is derived from it).
    pattern: Arc<SparsityPattern>,
    /// Uniform row width (`max_nnz_per_row` of the pattern).
    width: usize,
    /// Memory order of `col_idxs` and each per-system value slab.
    layout: ValueLayout,
    /// Shared column indices, in `layout` order, `width * num_rows`
    /// entries, padding slots hold [`ELL_PAD`].
    col_idxs: Vec<u32>,
    /// Values, system-major outer; within a system a `width * num_rows`
    /// slab in `layout` order (including padding zeros).
    values: Vec<T>,
}

impl<T: Scalar> BatchEll<T> {
    /// A zero-valued ELL batch over `pattern` in the paper's
    /// column-major layout.
    pub fn zeros(num_systems: usize, pattern: Arc<SparsityPattern>) -> Result<Self> {
        Self::zeros_in(num_systems, pattern, ValueLayout::ColMajor)
    }

    /// A zero-valued ELL batch over `pattern` with an explicit layout.
    pub fn zeros_in(
        num_systems: usize,
        pattern: Arc<SparsityPattern>,
        layout: ValueLayout,
    ) -> Result<Self> {
        let n = pattern.num_rows();
        let dims = BatchDims::new(num_systems, n)?;
        let width = pattern.max_nnz_per_row();
        if width == 0 {
            return Err(Error::InvalidFormat("empty pattern for BatchEll".into()));
        }
        let mut col_idxs = vec![ELL_PAD; width * n];
        for r in 0..n {
            for (k, &c) in pattern.row_cols(r).iter().enumerate() {
                col_idxs[layout.index(n, width, r, k)] = c;
            }
        }
        let values = vec![T::ZERO; num_systems * width * n];
        Ok(BatchEll {
            dims,
            pattern,
            width,
            layout,
            col_idxs,
            values,
        })
    }

    /// Convert a CSR batch to column-major ELL (the paper's layout).
    pub fn from_csr(csr: &BatchCsr<T>) -> Result<Self> {
        Self::from_csr_in(csr, ValueLayout::ColMajor)
    }

    /// Convert a CSR batch to ELL with an explicit value layout.
    pub fn from_csr_in(csr: &BatchCsr<T>, layout: ValueLayout) -> Result<Self> {
        let mut ell = Self::zeros_in(csr.dims().num_systems, Arc::clone(csr.pattern()), layout)?;
        let n = ell.dims.num_rows;
        let width = ell.width;
        for i in 0..csr.dims().num_systems {
            let src = csr.values_of(i);
            let slab = ell.values_of_mut(i);
            for r in 0..n {
                let (b, e) = csr.pattern().row_range(r);
                for (k, kk) in (b..e).enumerate() {
                    slab[layout.index(n, width, r, k)] = src[kk];
                }
            }
        }
        Ok(ell)
    }

    /// Re-order the batch into another layout (values are copied; the
    /// numeric content is unchanged).
    pub fn to_layout(&self, layout: ValueLayout) -> Self {
        if layout == self.layout {
            return self.clone();
        }
        let n = self.dims.num_rows;
        let width = self.width;
        let mut out = Self::zeros_in(self.dims.num_systems, Arc::clone(&self.pattern), layout)
            .expect("dims already validated");
        for i in 0..self.dims.num_systems {
            let src = self.values_of(i);
            let dst = out.values_of_mut(i);
            for r in 0..n {
                for k in 0..width {
                    dst[layout.index(n, width, r, k)] = src[self.layout.index(n, width, r, k)];
                }
            }
        }
        out
    }

    /// Convert back to CSR.
    pub fn to_csr(&self) -> BatchCsr<T> {
        let mut csr = BatchCsr::zeros(self.dims.num_systems, Arc::clone(&self.pattern))
            .expect("dims already validated");
        let n = self.dims.num_rows;
        let width = self.width;
        let layout = self.layout;
        for i in 0..self.dims.num_systems {
            let slab = self.values_of(i);
            // fill_system visits pattern entries in CSR order; map each to
            // its ELL slot.
            let pattern = Arc::clone(&self.pattern);
            csr.fill_system(i, |r, c| {
                let k = pattern
                    .row_cols(r)
                    .iter()
                    .position(|&cc| cc as usize == c)
                    .expect("entry present");
                slab[layout.index(n, width, r, k)]
            });
        }
        csr
    }

    /// Uniform row width (entries per row including padding).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Memory order of the value slabs and index array.
    #[inline]
    pub fn layout(&self) -> ValueLayout {
        self.layout
    }

    /// The originating sparsity pattern.
    #[inline]
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        &self.pattern
    }

    /// Shared column-index array (in [`Self::layout`] order, padding =
    /// [`ELL_PAD`]).
    #[inline]
    pub fn col_idxs(&self) -> &[u32] {
        &self.col_idxs
    }

    /// Value slab of system `i` (`width * num_rows`, in
    /// [`Self::layout`] order).
    #[inline]
    pub fn values_of(&self, i: usize) -> &[T] {
        let slab = self.width * self.dims.num_rows;
        &self.values[i * slab..(i + 1) * slab]
    }

    /// Mutable value slab of system `i`.
    #[inline]
    pub fn values_of_mut(&mut self, i: usize) -> &mut [T] {
        let slab = self.width * self.dims.num_rows;
        &mut self.values[i * slab..(i + 1) * slab]
    }

    /// Read entry `(row, col)` of system `i` (zero if not stored).
    pub fn get(&self, i: usize, row: usize, col: usize) -> T {
        let n = self.dims.num_rows;
        for k in 0..self.width {
            let idx = self.layout.index(n, self.width, row, k);
            if self.col_idxs[idx] == col as u32 {
                return self.values_of(i)[idx];
            }
        }
        T::ZERO
    }

    /// Fill system `i` from an entry function over the stored pattern.
    pub fn fill_system(&mut self, i: usize, mut f: impl FnMut(usize, usize) -> T) {
        let n = self.dims.num_rows;
        let width = self.width;
        let layout = self.layout;
        let cols = self.col_idxs.clone();
        let slab = self.values_of_mut(i);
        for r in 0..n {
            for k in 0..width {
                let idx = layout.index(n, width, r, k);
                let c = cols[idx];
                if c != ELL_PAD {
                    slab[idx] = f(r, c as usize);
                }
            }
        }
    }

    /// Fraction of value slots that are padding (the waste the paper calls
    /// "very little padding necessary, only for the boundary points").
    pub fn padding_fraction(&self) -> f64 {
        let slots = self.width * self.dims.num_rows;
        let pad = slots - self.pattern.nnz();
        pad as f64 / slots as f64
    }
}

impl<T: Scalar> BatchMatrix<T> for BatchEll<T> {
    fn dims(&self) -> BatchDims {
        self.dims
    }

    fn format_name(&self) -> &'static str {
        match self.layout {
            ValueLayout::ColMajor => "BatchEll",
            ValueLayout::RowMajor => "BatchEll(row-major)",
        }
    }

    fn stored_per_system(&self) -> usize {
        self.width * self.dims.num_rows
    }

    #[inline(always)]
    fn spmv_system(&self, i: usize, x: &[T], y: &mut [T]) {
        debug_assert_eq!(x.len(), self.dims.num_rows);
        debug_assert_eq!(y.len(), self.dims.num_rows);
        let n = self.dims.num_rows;
        let slab = self.values_of(i);
        match self.layout {
            // Thread-per-row mapping: the outer k loop walks the stencil
            // entries; for each k, "threads" (rows) stream consecutive
            // slots — a unit-stride zip the compiler can vectorize.
            ValueLayout::ColMajor => {
                y.iter_mut().for_each(|v| *v = T::ZERO);
                for k in 0..self.width {
                    let cols = &self.col_idxs[k * n..(k + 1) * n];
                    let vals = &slab[k * n..(k + 1) * n];
                    for ((yr, &c), &v) in y.iter_mut().zip(cols).zip(vals) {
                        if c != ELL_PAD {
                            *yr = v.mul_add(x[c as usize], *yr);
                        }
                    }
                }
            }
            // Row-at-a-time: each row's `width` entries are contiguous.
            // Accumulation visits k in the same ascending order as the
            // column-major path, so results are bitwise identical.
            ValueLayout::RowMajor => {
                let rows = self
                    .col_idxs
                    .chunks_exact(self.width)
                    .zip(slab.chunks_exact(self.width));
                for (yr, (cols, vals)) in y.iter_mut().zip(rows) {
                    let mut acc = T::ZERO;
                    for (&c, &v) in cols.iter().zip(vals) {
                        if c != ELL_PAD {
                            acc = v.mul_add(x[c as usize], acc);
                        }
                    }
                    *yr = acc;
                }
            }
        }
    }

    #[inline(always)]
    fn spmv_system_advanced(&self, i: usize, alpha: T, x: &[T], beta: T, y: &mut [T]) {
        let n = self.dims.num_rows;
        let slab = self.values_of(i);
        for (r, yr) in y.iter_mut().enumerate() {
            // Ascending k from zero, as in both `spmv_system` layouts.
            let mut acc = T::ZERO;
            for k in 0..self.width {
                let idx = self.layout.index(n, self.width, r, k);
                let c = self.col_idxs[idx];
                if c != ELL_PAD {
                    acc = slab[idx].mul_add(x[c as usize], acc);
                }
            }
            *yr = alpha * acc + beta * *yr;
        }
    }

    fn extract_diagonal(&self, i: usize, diag: &mut [T]) {
        let n = self.dims.num_rows;
        let slab = self.values_of(i);
        for r in 0..n {
            let mut d = T::ZERO;
            for k in 0..self.width {
                let idx = self.layout.index(n, self.width, r, k);
                if self.col_idxs[idx] == r as u32 {
                    d = slab[idx];
                    break;
                }
            }
            diag[r] = d;
        }
    }

    fn entry(&self, i: usize, row: usize, col: usize) -> T {
        self.get(i, row, col)
    }

    fn spmv_x_read_bytes(&self) -> u64 {
        // Gathers skip the padding slots.
        (self.pattern.nnz() * T::BYTES) as u64
    }

    fn spmv_counts(&self, warp_size: u32) -> OpCounts {
        let mut c = OpCounts::ZERO;
        let n = self.dims.num_rows as u64;
        let w = warp_size as u64;
        let warps = n.div_ceil(w);
        // One thread per row; k-th pass touches all rows whose nnz > k.
        for k in 0..self.width {
            let active: u64 = (0..self.dims.num_rows)
                .filter(|&r| self.pattern.nnz_in_row(r) > k)
                .count() as u64;
            // Every warp still issues the pass (they walk k in lockstep).
            c.lane_total += warps * w;
            c.lane_active += active;
            c.flops += 2 * active;
        }
        let vb = T::BYTES as u64;
        let slots = (self.width as u64) * n;
        // Slab traffic (values + indices) pays the layout's coalescing
        // factor: column-major streams, row-major strides by `width`.
        let amp = self.layout.traffic_amplification(self.width);
        c.global_read_bytes += slots * vb * amp; // values incl. padding
        c.global_read_bytes += slots * 4 * amp; // shared column indices
        c.global_read_bytes += (self.pattern.nnz() as u64) * vb; // gathered x
        c.global_write_bytes += n * vb; // y
        c
    }

    fn value_bytes_per_system(&self) -> usize {
        self.width * self.dims.num_rows * T::BYTES
    }

    fn shared_index_bytes(&self) -> usize {
        // Figure 3: num_nnz_per_row x num_rows indices, stored once.
        self.width * self.dims.num_rows * core::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::BatchVectors;

    fn stencil_csr(nx: usize, ny: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
        let mut m = BatchCsr::zeros(2, p).unwrap();
        for i in 0..2 {
            let scale = (i + 1) as f64;
            m.fill_system(i, |r, c| {
                if r == c {
                    4.0 * scale
                } else {
                    -0.3 * scale * ((r + c) % 3 + 1) as f64
                }
            });
        }
        m
    }

    #[test]
    fn ell_spmv_matches_csr() {
        let csr = stencil_csr(5, 4);
        let ell = BatchEll::from_csr(&csr).unwrap();
        let x = BatchVectors::from_fn(csr.dims(), |s, r| ((s + 1) * (r + 1)) as f64 * 0.1);
        let mut y_csr = BatchVectors::zeros(csr.dims());
        let mut y_ell = BatchVectors::zeros(csr.dims());
        csr.spmv(&x, &mut y_csr).unwrap();
        ell.spmv(&x, &mut y_ell).unwrap();
        for i in 0..2 {
            for r in 0..20 {
                assert!(
                    (y_csr.system(i)[r] - y_ell.system(i)[r]).abs() < 1e-12,
                    "mismatch at system {i} row {r}"
                );
            }
        }
    }

    #[test]
    fn layouts_produce_bitwise_identical_spmv() {
        let csr = stencil_csr(7, 6);
        let col = BatchEll::from_csr_in(&csr, ValueLayout::ColMajor).unwrap();
        let row = BatchEll::from_csr_in(&csr, ValueLayout::RowMajor).unwrap();
        assert_eq!(col.format_name(), "BatchEll");
        assert_eq!(row.format_name(), "BatchEll(row-major)");
        let x = BatchVectors::from_fn(csr.dims(), |s, r| ((s * 13 + r) as f64 * 0.37).sin());
        let mut y_col = BatchVectors::zeros(csr.dims());
        let mut y_row = BatchVectors::zeros(csr.dims());
        col.spmv(&x, &mut y_col).unwrap();
        row.spmv(&x, &mut y_row).unwrap();
        // Same accumulation order per row — not just close, identical.
        assert_eq!(y_col.values(), y_row.values());
    }

    #[test]
    fn to_layout_round_trips() {
        let csr = stencil_csr(5, 5);
        let col = BatchEll::from_csr(&csr).unwrap();
        let row = col.to_layout(ValueLayout::RowMajor);
        assert_eq!(row.layout(), ValueLayout::RowMajor);
        let back = row.to_layout(ValueLayout::ColMajor);
        assert_eq!(back.values_of(1), col.values_of(1));
        assert_eq!(back.col_idxs(), col.col_idxs());
    }

    #[test]
    fn roundtrip_csr_ell_csr_both_layouts() {
        let csr = stencil_csr(4, 3);
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let back = BatchEll::from_csr_in(&csr, layout).unwrap().to_csr();
            for i in 0..2 {
                assert_eq!(csr.values_of(i), back.values_of(i), "{layout:?}");
            }
        }
    }

    #[test]
    fn padding_only_at_boundaries() {
        let csr = stencil_csr(32, 31);
        let ell = BatchEll::from_csr(&csr).unwrap();
        assert_eq!(ell.width(), 9);
        // 992 rows * 9 slots = 8928; interior rows are unpadded.
        let frac = ell.padding_fraction();
        assert!(frac > 0.0 && frac < 0.15, "padding fraction {frac}");
    }

    #[test]
    fn diagonal_matches_csr_in_both_layouts() {
        let csr = stencil_csr(5, 5);
        let mut d_csr = vec![0.0; 25];
        csr.extract_diagonal(1, &mut d_csr);
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let ell = BatchEll::from_csr_in(&csr, layout).unwrap();
            let mut d_ell = vec![0.0; 25];
            ell.extract_diagonal(1, &mut d_ell);
            assert_eq!(d_csr, d_ell, "{layout:?}");
        }
    }

    #[test]
    fn ell_warp_utilization_is_high() {
        // The paper's Table II: ELL reaches ~98% warp use, CSR ~75% or less.
        let csr = stencil_csr(32, 31);
        let ell = BatchEll::from_csr(&csr).unwrap();
        let u_ell = ell.spmv_counts(32).lane_utilization();
        let u_csr = csr.spmv_counts(32).lane_utilization();
        assert!(u_ell > 0.85, "ELL utilization {u_ell}");
        assert!(u_ell > u_csr, "ELL {u_ell} must beat CSR {u_csr}");
    }

    #[test]
    fn row_major_pays_coalescing_penalty_in_the_model() {
        let csr = stencil_csr(32, 31);
        let col = BatchEll::from_csr_in(&csr, ValueLayout::ColMajor).unwrap();
        let row = BatchEll::from_csr_in(&csr, ValueLayout::RowMajor).unwrap();
        let col_bytes = col.spmv_counts(32).global_read_bytes;
        let row_bytes = row.spmv_counts(32).global_read_bytes;
        assert!(
            row_bytes > 5 * col_bytes,
            "row-major {row_bytes} should amplify traffic vs col-major {col_bytes}"
        );
    }

    #[test]
    fn get_reads_stored_and_padding() {
        let csr = stencil_csr(3, 3);
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let ell = BatchEll::from_csr_in(&csr, layout).unwrap();
            assert_eq!(ell.get(0, 4, 4), csr.get(0, 4, 4), "{layout:?}");
            assert_eq!(ell.get(0, 0, 8), 0.0); // not in pattern
        }
    }

    #[test]
    fn fill_system_matches_csr_fill() {
        for layout in [ValueLayout::ColMajor, ValueLayout::RowMajor] {
            let p = Arc::new(SparsityPattern::stencil_2d(4, 4, true));
            let mut csr = BatchCsr::<f64>::zeros(1, p.clone()).unwrap();
            let mut ell = BatchEll::<f64>::zeros_in(1, p, layout).unwrap();
            let f = |r: usize, c: usize| (r * 31 + c) as f64;
            csr.fill_system(0, f);
            ell.fill_system(0, f);
            for r in 0..16 {
                for c in 0..16 {
                    assert_eq!(csr.get(0, r, c), ell.get(0, r, c), "({r},{c}) {layout:?}");
                }
            }
        }
    }

    #[test]
    fn storage_accounting() {
        let csr = stencil_csr(32, 31);
        let ell = BatchEll::from_csr(&csr).unwrap();
        assert_eq!(ell.value_bytes_per_system(), 9 * 992 * 8);
        assert_eq!(ell.shared_index_bytes(), 9 * 992 * 4);
        assert_eq!(ell.stored_per_system(), 9 * 992);
    }
}
