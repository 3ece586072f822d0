//! Batched preconditioners.
//!
//! The paper's results use a (scalar) Jacobi preconditioner with
//! BiCGSTAB; the XGC matrices are well-conditioned enough that nothing
//! heavier pays off. For completeness — and for the ablation benches —
//! this module also provides identity, block-Jacobi (the batched
//! Gauss-Jordan inversion line of work the paper cites), and ILU(0).
//!
//! Like Ginkgo's `PrecType` template parameter, the preconditioner is a
//! compile-time generic of the solver kernel; `generate` runs once per
//! system at solve start (inside the fused kernel) and `apply` runs per
//! iteration.

use std::sync::Arc;

use batsolv_blas as blas;
use batsolv_formats::{BatchMatrix, SparsityPattern};
use batsolv_types::{Error, Result, Scalar};

use crate::levels::LevelSchedule;

/// A batched preconditioner: per-system state generated from the matrix,
/// applied as `output = M⁻¹ · input`.
pub trait Preconditioner<T: Scalar>: Send + Sync + Clone {
    /// Per-system preconditioner state.
    type State: Send;

    /// Build the state for system `i` of `a`.
    fn generate<M: BatchMatrix<T> + ?Sized>(&self, a: &M, i: usize) -> Result<Self::State>;

    /// `output = M⁻¹ · input`.
    fn apply(&self, state: &Self::State, input: &[T], output: &mut [T]);

    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Flops of one `apply` on an `n`-row system (for the device model).
    fn apply_flops(&self, n: usize) -> u64;

    /// Flops of `generate` (for the device model).
    fn generate_flops(&self, n: usize, nnz: usize) -> u64;

    /// Bytes of per-system state (counts toward the shared-memory budget
    /// if the workspace planner placed the state in shared memory).
    fn state_bytes(&self, n: usize) -> usize;

    /// Global barriers one `apply` pays on top of the solver's own
    /// synchronization profile. Pointwise preconditioners are barrier-free
    /// (they fuse into the surrounding vector op); level-scheduled
    /// triangular solves pay one barrier per level boundary.
    fn apply_syncs(&self, _n: usize) -> u64 {
        0
    }

    /// Serialized dependent stages one `apply` executes. Pointwise
    /// preconditioners are a single stage; level-scheduled triangular
    /// solves serialize one stage per level.
    fn apply_stages(&self, _n: usize) -> u64 {
        1
    }
}

/// No preconditioning: `M = I`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Identity;

impl<T: Scalar> Preconditioner<T> for Identity {
    type State = ();

    fn generate<M: BatchMatrix<T> + ?Sized>(&self, _a: &M, _i: usize) -> Result<()> {
        Ok(())
    }

    #[inline(always)]
    fn apply(&self, _state: &(), input: &[T], output: &mut [T]) {
        output.copy_from_slice(input);
    }

    fn name(&self) -> &'static str {
        "none"
    }

    fn apply_flops(&self, _n: usize) -> u64 {
        0
    }

    fn generate_flops(&self, _n: usize, _nnz: usize) -> u64 {
        0
    }

    fn state_bytes(&self, _n: usize) -> usize {
        0
    }
}

/// Scalar Jacobi: `M = diag(A)`. The paper's production choice.
#[derive(Clone, Copy, Debug, Default)]
pub struct Jacobi;

impl<T: Scalar> Preconditioner<T> for Jacobi {
    /// Inverted diagonal (rows with zero diagonal keep factor 1).
    type State = Vec<T>;

    fn generate<M: BatchMatrix<T> + ?Sized>(&self, a: &M, i: usize) -> Result<Vec<T>> {
        let n = a.dims().num_rows;
        let mut diag = vec![T::ZERO; n];
        a.extract_diagonal(i, &mut diag);
        for d in diag.iter_mut() {
            *d = if *d == T::ZERO { T::ONE } else { T::ONE / *d };
        }
        Ok(diag)
    }

    #[inline(always)]
    fn apply(&self, inv_diag: &Vec<T>, input: &[T], output: &mut [T]) {
        blas::mul_elementwise(input, inv_diag, output);
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn apply_flops(&self, n: usize) -> u64 {
        n as u64
    }

    fn generate_flops(&self, n: usize, _nnz: usize) -> u64 {
        n as u64
    }

    fn state_bytes(&self, n: usize) -> usize {
        n * T::BYTES
    }
}

/// Block-Jacobi with fixed block size: the diagonal blocks are inverted
/// at generate time (batched Gauss-Jordan style) and applied as small
/// dense GEMVs.
#[derive(Clone, Copy, Debug)]
pub struct BlockJacobi {
    /// Size of each diagonal block (the last block may be smaller).
    pub block_size: usize,
}

impl BlockJacobi {
    /// Block-Jacobi with blocks of `block_size` rows.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size >= 1);
        BlockJacobi { block_size }
    }
}

/// State of [`BlockJacobi`]: inverted diagonal blocks, stored dense.
pub struct BlockJacobiState<T> {
    /// Inverted blocks, concatenated; block `k` covers rows
    /// `k*bs .. min((k+1)*bs, n)` and is stored row-major at its offset.
    inv_blocks: Vec<T>,
    offsets: Vec<(usize, usize, usize)>, // (row0, size, value offset)
}

impl<T: Scalar> Preconditioner<T> for BlockJacobi {
    type State = BlockJacobiState<T>;

    fn generate<M: BatchMatrix<T> + ?Sized>(&self, a: &M, i: usize) -> Result<Self::State> {
        let n = a.dims().num_rows;
        let bs = self.block_size;
        let mut inv_blocks = Vec::new();
        let mut offsets = Vec::new();
        let mut row0 = 0;
        while row0 < n {
            let size = bs.min(n - row0);
            let mut block = vec![T::ZERO; size * size];
            for r in 0..size {
                for c in 0..size {
                    block[r * size + c] = a.entry(i, row0 + r, row0 + c);
                }
            }
            let inv = blas::lu::dense_invert(size, &block).map_err(|_| Error::SingularMatrix {
                batch_index: i,
                detail: format!("singular Jacobi block at row {row0}"),
            })?;
            offsets.push((row0, size, inv_blocks.len()));
            inv_blocks.extend_from_slice(&inv);
            row0 += size;
        }
        Ok(BlockJacobiState {
            inv_blocks,
            offsets,
        })
    }

    #[inline(always)]
    fn apply(&self, state: &BlockJacobiState<T>, input: &[T], output: &mut [T]) {
        for &(row0, size, off) in &state.offsets {
            let blk = &state.inv_blocks[off..off + size * size];
            for r in 0..size {
                let mut acc = T::ZERO;
                for c in 0..size {
                    acc = blk[r * size + c].mul_add(input[row0 + c], acc);
                }
                output[row0 + r] = acc;
            }
        }
    }

    fn name(&self) -> &'static str {
        "block-jacobi"
    }

    fn apply_flops(&self, n: usize) -> u64 {
        2 * (n as u64) * self.block_size as u64
    }

    fn generate_flops(&self, n: usize, _nnz: usize) -> u64 {
        let bs = self.block_size as u64;
        // ~(2/3)bs³ per inversion via LU + n/bs solves.
        (n as u64 / bs.max(1) + 1) * (2 * bs * bs * bs)
    }

    fn state_bytes(&self, n: usize) -> usize {
        n * self.block_size * T::BYTES
    }
}

/// ILU(0): incomplete LU restricted to the matrix's own sparsity pattern.
///
/// The pattern must be supplied at construction (it is shared by the
/// whole batch, so the symbolic phase — including the triangular-solve
/// [`LevelSchedule`] — is done once). `apply` runs the two sparse
/// triangular solves level-scheduled: rows within a level are
/// dependency-free, so each level is one parallel step between barriers,
/// fused across the batch. The arithmetic per row is identical to the
/// naive sweep ([`Ilu0::apply_naive`]), so the two orders are bitwise
/// equal.
#[derive(Clone)]
pub struct Ilu0 {
    pattern: Arc<SparsityPattern>,
    levels: Arc<LevelSchedule>,
}

impl Ilu0 {
    /// ILU(0) over the given shared pattern.
    pub fn new(pattern: Arc<SparsityPattern>) -> Self {
        let levels = Arc::new(LevelSchedule::build(&pattern));
        Ilu0 { pattern, levels }
    }

    /// The triangular-solve level schedule (shared by the batch).
    pub fn levels(&self) -> &LevelSchedule {
        &self.levels
    }

    /// Naive row-by-row forward/backward substitution — the obviously
    /// correct sequential reference the level-scheduled
    /// [`Preconditioner::apply`] must match bitwise (differential suite).
    pub fn apply_naive<T: Scalar>(&self, state: &Ilu0State<T>, input: &[T], output: &mut [T]) {
        let p = &state.pattern;
        let n = p.num_rows();
        // Forward solve L y = input (unit diagonal).
        for r in 0..n {
            let (b, e) = p.row_range(r);
            let mut acc = input[r];
            for k in b..e {
                let c = p.col_idxs()[k] as usize;
                if c >= r {
                    break;
                }
                acc -= state.lu[k] * output[c];
            }
            output[r] = acc;
        }
        // Backward solve U x = y.
        for r in (0..n).rev() {
            let (b, e) = p.row_range(r);
            let mut acc = output[r];
            let mut diag = T::ONE;
            for k in b..e {
                let c = p.col_idxs()[k] as usize;
                if c < r {
                    continue;
                } else if c == r {
                    diag = state.lu[k];
                } else {
                    acc -= state.lu[k] * output[c];
                }
            }
            output[r] = acc / diag;
        }
    }
}

/// State of [`Ilu0`]: in-pattern LU factors in CSR value order.
pub struct Ilu0State<T> {
    pattern: Arc<SparsityPattern>,
    /// Combined L (below diagonal, unit) and U (diagonal + above) values.
    lu: Vec<T>,
}

impl<T: Scalar> Preconditioner<T> for Ilu0 {
    type State = Ilu0State<T>;

    fn generate<M: BatchMatrix<T> + ?Sized>(&self, a: &M, i: usize) -> Result<Self::State> {
        let p = &self.pattern;
        let n = p.num_rows();
        if n != a.dims().num_rows {
            return Err(batsolv_types::dim_mismatch!(
                "ilu0 pattern has {} rows, matrix {}",
                n,
                a.dims().num_rows
            ));
        }
        // Copy values in pattern order.
        let mut lu = vec![T::ZERO; p.nnz()];
        for r in 0..n {
            let (b, e) = p.row_range(r);
            for k in b..e {
                lu[k] = a.entry(i, r, p.col_idxs()[k] as usize);
            }
        }
        // IKJ-variant incomplete factorization restricted to the pattern.
        for r in 1..n {
            let (rb, re) = p.row_range(r);
            for kk in rb..re {
                let k = p.col_idxs()[kk] as usize;
                if k >= r {
                    break;
                }
                let dk = p.diag_position(k).ok_or_else(|| Error::SingularMatrix {
                    batch_index: i,
                    detail: format!("ILU0: no diagonal in row {k}"),
                })?;
                let pivot = lu[dk];
                if pivot == T::ZERO || !pivot.is_finite() {
                    return Err(Error::SingularMatrix {
                        batch_index: i,
                        detail: format!("ILU0: unusable pivot at row {k}"),
                    });
                }
                let factor = lu[kk] / pivot;
                if !factor.is_finite() {
                    return Err(Error::SingularMatrix {
                        batch_index: i,
                        detail: format!("ILU0: non-finite multiplier at row {r}, col {k}"),
                    });
                }
                lu[kk] = factor;
                // Subtract factor * U(k, j) for j in row k beyond k, where
                // (r, j) is in the pattern.
                let (kb, ke) = p.row_range(k);
                for jj in kb..ke {
                    let j = p.col_idxs()[jj] as usize;
                    if j <= k {
                        continue;
                    }
                    if let Some(rj) = p.find(r, j) {
                        lu[rj] = lu[rj] - factor * lu[jj];
                    }
                }
            }
        }
        // A fault-injected matrix (NaN values, near-zero diagonals) can
        // poison factors without tripping a pivot guard; a non-finite
        // factor would silently corrupt every subsequent apply, so the
        // factorization itself reports structured breakdown instead.
        if lu.iter().any(|v| !v.is_finite()) {
            return Err(Error::SingularMatrix {
                batch_index: i,
                detail: "ILU0: non-finite factor after elimination".into(),
            });
        }
        for r in 0..n {
            if let Some(d) = p.diag_position(r) {
                if lu[d] == T::ZERO {
                    return Err(Error::SingularMatrix {
                        batch_index: i,
                        detail: format!("ILU0: zero U diagonal at row {r}"),
                    });
                }
            }
        }
        Ok(Ilu0State {
            pattern: Arc::clone(p),
            lu,
        })
    }

    /// Level-scheduled apply: each level's rows are dependency-free, so
    /// the sweep executes level-by-level (one barrier per boundary) and
    /// still computes **bitwise** the same floats as the naive row order
    /// ([`Ilu0::apply_naive`]) — every row's arithmetic reads only
    /// already-final values from earlier levels.
    #[inline(always)]
    fn apply(&self, state: &Ilu0State<T>, input: &[T], output: &mut [T]) {
        let p = &state.pattern;
        // Forward solve L y = input (unit diagonal), by lower level.
        for level in self.levels.lower_levels() {
            for &r in level {
                let r = r as usize;
                let (b, e) = p.row_range(r);
                let mut acc = input[r];
                for k in b..e {
                    let c = p.col_idxs()[k] as usize;
                    if c >= r {
                        break;
                    }
                    acc -= state.lu[k] * output[c];
                }
                output[r] = acc;
            }
        }
        // Backward solve U x = y, by upper level.
        for level in self.levels.upper_levels() {
            for &r in level {
                let r = r as usize;
                let (b, e) = p.row_range(r);
                let mut acc = output[r];
                let mut diag = T::ONE;
                for k in b..e {
                    let c = p.col_idxs()[k] as usize;
                    if c < r {
                        continue;
                    } else if c == r {
                        diag = state.lu[k];
                    } else {
                        acc -= state.lu[k] * output[c];
                    }
                }
                output[r] = acc / diag;
            }
        }
    }

    fn name(&self) -> &'static str {
        "ilu0"
    }

    fn apply_flops(&self, _n: usize) -> u64 {
        2 * self.pattern.nnz() as u64
    }

    fn generate_flops(&self, _n: usize, nnz: usize) -> u64 {
        // Roughly nnz_per_row multiply-subtracts per stored entry.
        let w = self.pattern.max_nnz_per_row() as u64;
        2 * nnz as u64 * w
    }

    fn state_bytes(&self, _n: usize) -> usize {
        self.pattern.nnz() * T::BYTES
    }

    fn apply_syncs(&self, _n: usize) -> u64 {
        self.levels.apply_syncs()
    }

    fn apply_stages(&self, _n: usize) -> u64 {
        self.levels.apply_stages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_formats::BatchCsr;

    fn spd_csr(n_side: usize) -> BatchCsr<f64> {
        let p = Arc::new(SparsityPattern::stencil_2d(n_side, n_side, true));
        let mut m = BatchCsr::zeros(1, p).unwrap();
        m.fill_system(0, |r, c| if r == c { 9.0 } else { -1.0 });
        m
    }

    #[test]
    fn identity_copies() {
        let m = spd_csr(3);
        Preconditioner::<f64>::generate(&Identity, &m, 0).unwrap();
        let mut out = vec![0.0; 9];
        Identity.apply(&(), &[2.0; 9], &mut out);
        assert_eq!(out, vec![2.0; 9]);
    }

    #[test]
    fn jacobi_inverts_diagonal() {
        let m = spd_csr(3);
        let st = Preconditioner::<f64>::generate(&Jacobi, &m, 0).unwrap();
        let mut out = vec![0.0; 9];
        Jacobi.apply(&st, &[9.0; 9], &mut out);
        for v in out {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn jacobi_guards_zero_diagonal() {
        let p = Arc::new(SparsityPattern::from_coords(2, &[(0, 1), (1, 0), (1, 1)]).unwrap());
        let mut m = BatchCsr::<f64>::zeros(1, p).unwrap();
        m.set(0, 0, 1, 3.0).unwrap();
        m.set(0, 1, 0, 2.0).unwrap();
        m.set(0, 1, 1, 4.0).unwrap();
        let st = Preconditioner::<f64>::generate(&Jacobi, &m, 0).unwrap();
        assert_eq!(st[0], 1.0); // zero diagonal → pass-through
        assert_eq!(st[1], 0.25);
    }

    #[test]
    fn block_jacobi_exact_on_block_diagonal_matrix() {
        // A matrix that IS block diagonal (2x2 blocks): block-Jacobi is an
        // exact inverse.
        let p = Arc::new(
            SparsityPattern::from_coords(
                4,
                &[
                    (0, 0),
                    (0, 1),
                    (1, 0),
                    (1, 1),
                    (2, 2),
                    (2, 3),
                    (3, 2),
                    (3, 3),
                ],
            )
            .unwrap(),
        );
        let mut m = BatchCsr::<f64>::zeros(1, p).unwrap();
        for &(r, c, v) in &[
            (0, 0, 4.0),
            (0, 1, 1.0),
            (1, 0, 2.0),
            (1, 1, 3.0),
            (2, 2, 5.0),
            (2, 3, -1.0),
            (3, 2, 0.5),
            (3, 3, 2.0),
        ] {
            m.set(0, r, c, v).unwrap();
        }
        let bj = BlockJacobi::new(2);
        let st = Preconditioner::<f64>::generate(&bj, &m, 0).unwrap();
        // M⁻¹ A x should equal x for any x.
        let x = [1.0, -2.0, 0.5, 3.0];
        let mut ax = [0.0; 4];
        m.spmv_system(0, &x, &mut ax);
        let mut out = [0.0; 4];
        bj.apply(&st, &ax, &mut out);
        for r in 0..4 {
            assert!((out[r] - x[r]).abs() < 1e-13, "row {r}: {}", out[r]);
        }
    }

    #[test]
    fn ilu0_exact_for_banded_no_fill_case() {
        // For a tridiagonal matrix, ILU(0) is the exact LU — applying it
        // to A x must reproduce x.
        let n = 8;
        let coords: Vec<(usize, usize)> = (0..n)
            .flat_map(|r| {
                let mut v = vec![(r, r)];
                if r > 0 {
                    v.push((r, r - 1));
                }
                if r + 1 < n {
                    v.push((r, r + 1));
                }
                v
            })
            .collect();
        let p = Arc::new(SparsityPattern::from_coords(n, &coords).unwrap());
        let mut m = BatchCsr::<f64>::zeros(1, p.clone()).unwrap();
        m.fill_system(0, |r, c| if r == c { 4.0 } else { -1.0 });
        let ilu = Ilu0::new(p);
        let st = Preconditioner::<f64>::generate(&ilu, &m, 0).unwrap();
        let x: Vec<f64> = (0..n).map(|k| (k as f64 * 0.9).sin()).collect();
        let mut ax = vec![0.0; n];
        m.spmv_system(0, &x, &mut ax);
        let mut out = vec![0.0; n];
        ilu.apply(&st, &ax, &mut out);
        for r in 0..n {
            assert!((out[r] - x[r]).abs() < 1e-12, "row {r}");
        }
    }

    #[test]
    fn ilu0_reduces_residual_better_than_jacobi() {
        // One application of ILU0 should be a better approximate inverse
        // than Jacobi on the stencil matrix: ||I - M⁻¹A e|| smaller.
        let m = spd_csr(6);
        let n = 36;
        let ilu = Ilu0::new(Arc::clone(m.pattern()));
        let sj = Preconditioner::<f64>::generate(&Jacobi, &m, 0).unwrap();
        let si = Preconditioner::<f64>::generate(&ilu, &m, 0).unwrap();
        let x = vec![1.0; n];
        let mut ax = vec![0.0; n];
        m.spmv_system(0, &x, &mut ax);
        let mut mj = vec![0.0; n];
        let mut mi = vec![0.0; n];
        Jacobi.apply(&sj, &ax, &mut mj);
        ilu.apply(&si, &ax, &mut mi);
        let err = |v: &[f64]| -> f64 {
            v.iter()
                .zip(x.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            err(&mi) < err(&mj),
            "ilu {} vs jacobi {}",
            err(&mi),
            err(&mj)
        );
    }

    #[test]
    fn state_sizes_reported() {
        let m = spd_csr(4);
        assert_eq!(Preconditioner::<f64>::state_bytes(&Identity, 16), 0);
        assert_eq!(Preconditioner::<f64>::state_bytes(&Jacobi, 16), 16 * 8);
        let ilu = Ilu0::new(Arc::clone(m.pattern()));
        assert_eq!(
            Preconditioner::<f64>::state_bytes(&ilu, 16),
            m.pattern().nnz() * 8
        );
    }
}
