//! Level-1 dense kernels for one system of a batch.
//!
//! These are the "intermediate vector" operations of Algorithm 1 in the
//! paper (BiCGSTAB): dots, axpys, norms and elementwise scaling. On the
//! GPU they run warp-parallel within the system's thread block; here they
//! are straight loops that the compiler vectorizes, and the lane-activity
//! accounting lives in [`crate::counts`].

use batsolv_types::Scalar;

/// `x · y`.
#[inline(always)]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::ZERO;
    for (&a, &b) in x.iter().zip(y.iter()) {
        acc = a.mul_add(b, acc);
    }
    acc
}

/// Euclidean norm `‖x‖₂`.
#[inline(always)]
pub fn nrm2<T: Scalar>(x: &[T]) -> T {
    dot(x, x).sqrt()
}

/// `y ← α·x + y`.
#[inline(always)]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (&xv, yv) in x.iter().zip(y.iter_mut()) {
        *yv = alpha.mul_add(xv, *yv);
    }
}

/// `y ← α·x + β·y`.
#[inline(always)]
pub fn axpby<T: Scalar>(alpha: T, x: &[T], beta: T, y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (&xv, yv) in x.iter().zip(y.iter_mut()) {
        *yv = alpha.mul_add(xv, beta * *yv);
    }
}

/// `x ← α·x`.
#[inline(always)]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// `y ← x`.
#[inline(always)]
pub fn copy<T: Scalar>(x: &[T], y: &mut [T]) {
    y.copy_from_slice(x);
}

/// `z ← x ⊙ y` (Hadamard product; the scalar-Jacobi application).
#[inline(always)]
pub fn mul_elementwise<T: Scalar>(x: &[T], y: &[T], z: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    for i in 0..x.len() {
        z[i] = x[i] * y[i];
    }
}

/// `y ← x ⊘ d` with zero-diagonal protection: rows whose `d` entry is
/// exactly zero pass through unscaled (matches Ginkgo's batch Jacobi).
#[inline(always)]
pub fn div_elementwise_guarded<T: Scalar>(x: &[T], d: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), d.len());
    debug_assert_eq!(x.len(), y.len());
    for i in 0..x.len() {
        y[i] = if d[i] == T::ZERO { x[i] } else { x[i] / d[i] };
    }
}

/// `r ← b − r` in place (used to finish residual computation after
/// `r = A·x`).
#[inline(always)]
pub fn sub_from<T: Scalar>(b: &[T], r: &mut [T]) {
    debug_assert_eq!(b.len(), r.len());
    for (&bv, rv) in b.iter().zip(r.iter_mut()) {
        *rv = bv - *rv;
    }
}

/// Infinity norm `max |x_i|`.
#[inline(always)]
pub fn nrm_inf<T: Scalar>(x: &[T]) -> T {
    x.iter().fold(T::ZERO, |m, &v| m.max_val(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let x = [3.0f64, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(nrm2(&x), 5.0);
        assert_eq!(nrm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn axpy_variants() {
        let x = [1.0f64, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
        axpby(1.0, &x, 0.5, &mut y);
        assert_eq!(y, [7.0, 14.0, 21.0]);
    }

    #[test]
    fn scal_copy_sub() {
        let mut x = [2.0f64, -4.0];
        scal(0.5, &mut x);
        assert_eq!(x, [1.0, -2.0]);
        let mut y = [0.0; 2];
        copy(&x, &mut y);
        assert_eq!(y, x);
        sub_from(&[5.0, 5.0], &mut y);
        assert_eq!(y, [4.0, 7.0]);
    }

    #[test]
    fn elementwise_ops() {
        let mut z = [0.0f64; 3];
        mul_elementwise(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &mut z);
        assert_eq!(z, [4.0, 10.0, 18.0]);
        let mut y = [0.0f64; 3];
        div_elementwise_guarded(&[8.0, 9.0, 1.5], &[2.0, 0.0, 3.0], &mut y);
        assert_eq!(y, [4.0, 9.0, 0.5]); // zero pivot passes through
    }
}
