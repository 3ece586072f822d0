//! Output checks shared by the workloads.

use batsolv_formats::{BatchCsr, BatchMatrix};

/// The tolerance every workload requests: the paper's absolute 1e-10.
pub const TOL: f64 = 1e-10;

/// A true residual within [`TOL`]; a NaN residual is not.
pub fn meets_tol(residual: f64) -> bool {
    residual <= TOL
}

/// True residual ‖b − A_i x‖₂ of system `i`, computed with the program's
/// own `BatchMatrix::spmv_system` on the input matrix.
pub fn true_residual(a: &BatchCsr<f64>, i: usize, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.spmv_system(i, x, &mut ax);
    b.iter()
        .zip(&ax)
        .map(|(bv, av)| (bv - av) * (bv - av))
        .sum::<f64>()
        .sqrt()
}

/// FNV-1a over the bit patterns of a solution, to check that a seed
/// reproduces its solutions bit for bit.
pub fn solution_hash(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use batsolv_formats::SparsityPattern;

    #[test]
    fn residual_of_an_exact_solution_is_zero() {
        let p = Arc::new(SparsityPattern::stencil_2d(3, 3, false));
        let mut a = BatchCsr::zeros(1, p).unwrap();
        a.fill_system(0, |r, c| if r == c { 2.0 } else { 0.0 });
        let x = vec![1.5; 9];
        let b = vec![3.0; 9];
        assert_eq!(true_residual(&a, 0, &b, &x), 0.0);
        assert!((true_residual(&a, 0, &b, &[1.0; 9]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hash_sees_every_bit() {
        let a = [1.0, 2.0];
        let b = [1.0, f64::from_bits(2.0f64.to_bits() ^ 1)];
        assert_eq!(solution_hash(&a), solution_hash(&[1.0, 2.0]));
        assert_ne!(solution_hash(&a), solution_hash(&b));
    }
}
