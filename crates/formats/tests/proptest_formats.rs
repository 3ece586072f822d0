#![allow(clippy::needless_range_loop)]
//! Property-based tests of the storage formats: conversion round-trips,
//! SpMV linearity, pattern invariants.

use std::sync::Arc;

use batsolv_formats::{
    matrix_market, BatchBanded, BatchCsr, BatchDense, BatchDia, BatchEll, BatchMatrix,
    BatchVectors, SparsityPattern, ValueLayout,
};
use proptest::prelude::*;

/// Random (row, col) coordinate sets for arbitrary patterns.
fn coords(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..n, 0..n), 1..4 * n)
}

/// A random batch over a random stencil with deterministic values.
fn stencil_batch() -> impl Strategy<Value = BatchCsr<f64>> {
    stencil_batch_in(2..7, 2..7)
}

/// [`stencil_batch`] over grids of `nx × ny` nodes drawn from the ranges.
fn stencil_batch_in(
    nx: std::ops::Range<usize>,
    ny: std::ops::Range<usize>,
) -> impl Strategy<Value = BatchCsr<f64>> {
    (nx, ny, 1usize..4, any::<u32>()).prop_map(|(nx, ny, ns, seed)| {
        let p = Arc::new(SparsityPattern::stencil_2d(nx, ny, true));
        let mut m = BatchCsr::zeros(ns, p).unwrap();
        for s in 0..ns {
            m.fill_system(s, |r, c| {
                let h = ((seed as usize)
                    .wrapping_mul(31)
                    .wrapping_add(s * 131 + r * 17 + c * 7)
                    % 1000) as f64
                    / 1000.0;
                if r == c {
                    5.0 + h
                } else {
                    h - 0.5
                }
            });
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The column-major ELL SpMV walks rows in register blocks and ends
    /// with a scalar tail. Row counts from 1 to 240 cover grids shorter
    /// than one block, with a partial last block, and whole blocks; every
    /// row must match the row-major layout and CSR to the bit.
    #[test]
    fn ell_layouts_agree_bitwise_on_any_row_count(
        m in stencil_batch_in(1..17, 1..16),
        alpha in -3.0f64..3.0,
        beta in -3.0f64..3.0,
    ) {
        let n = m.dims().num_rows;
        let col = BatchEll::from_csr_in(&m, ValueLayout::ColMajor).unwrap();
        let row = BatchEll::from_csr_in(&m, ValueLayout::RowMajor).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for s in 0..m.dims().num_systems {
            let x: Vec<f64> = (0..n).map(|k| ((s * 7 + k) as f64 * 0.37).sin()).collect();
            let y0: Vec<f64> = (0..n).map(|k| ((s + 3 * k) as f64 * 0.11).cos()).collect();
            let mut plain = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
            let mut adv = [y0.clone(), y0.clone(), y0.clone()];
            let formats: [&dyn BatchMatrix<f64>; 3] = [&col, &row, &m];
            for (k, a) in formats.iter().enumerate() {
                a.spmv_system(s, &x, &mut plain[k]);
                a.spmv_system_advanced(s, alpha, &x, beta, &mut adv[k]);
            }
            for k in 1..3 {
                prop_assert_eq!(bits(&plain[0]), bits(&plain[k]), "spmv_system, n = {}", n);
                prop_assert_eq!(bits(&adv[0]), bits(&adv[k]), "spmv_system_advanced, n = {}", n);
            }
        }
    }

    #[test]
    fn pattern_from_coords_is_sorted_and_deduped(cs in coords(12)) {
        let p = SparsityPattern::from_coords(12, &cs).unwrap();
        for r in 0..12 {
            let cols = p.row_cols(r);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} not strictly sorted");
        }
        // Every input coordinate is findable; nnz never exceeds input size.
        for &(r, c) in &cs {
            prop_assert!(p.find(r, c).is_some());
        }
        prop_assert!(p.nnz() <= cs.len());
    }

    #[test]
    fn csr_ell_roundtrip_is_exact(m in stencil_batch()) {
        let back = BatchEll::from_csr(&m).unwrap().to_csr();
        for s in 0..m.dims().num_systems {
            prop_assert_eq!(m.values_of(s), back.values_of(s));
        }
    }

    #[test]
    fn spmv_is_linear(m in stencil_batch(), a in -3.0f64..3.0, b in -3.0f64..3.0) {
        let dims = m.dims();
        let n = dims.num_rows;
        let x = BatchVectors::from_fn(dims, |s, r| ((s + 2 * r) % 7) as f64 - 3.0);
        let y = BatchVectors::from_fn(dims, |s, r| ((3 * s + r) % 5) as f64 - 2.0);
        // A(ax + by) == a·Ax + b·Ay, per system.
        for sys in 0..dims.num_systems {
            let combo: Vec<f64> = (0..n)
                .map(|k| a * x.system(sys)[k] + b * y.system(sys)[k])
                .collect();
            let mut lhs = vec![0.0; n];
            m.spmv_system(sys, &combo, &mut lhs);
            let mut ax = vec![0.0; n];
            let mut ay = vec![0.0; n];
            m.spmv_system(sys, x.system(sys), &mut ax);
            m.spmv_system(sys, y.system(sys), &mut ay);
            for k in 0..n {
                let rhs = a * ax[k] + b * ay[k];
                prop_assert!((lhs[k] - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
            }
        }
    }

    #[test]
    fn entry_accessor_agrees_with_dense(m in stencil_batch()) {
        let dense = BatchDense::from_csr(&m);
        let n = m.dims().num_rows;
        for s in 0..m.dims().num_systems {
            for r in 0..n {
                for c in 0..n {
                    prop_assert_eq!(m.entry(s, r, c), dense.entry(s, r, c));
                }
            }
        }
    }

    #[test]
    fn banded_conversion_preserves_every_entry(m in stencil_batch()) {
        let banded = BatchBanded::from_csr(&m).unwrap();
        let n = m.dims().num_rows;
        for s in 0..m.dims().num_systems {
            for r in 0..n {
                for c in 0..n {
                    prop_assert_eq!(banded.entry(s, r, c), m.entry(s, r, c), "({}, {}, {})", s, r, c);
                }
            }
        }
    }

    #[test]
    fn spmv_advanced_reduces_to_plain(m in stencil_batch()) {
        let n = m.dims().num_rows;
        let ell = BatchEll::from_csr(&m).unwrap();
        let ell_row = BatchEll::from_csr_in(&m, ValueLayout::RowMajor).unwrap();
        let dia = BatchDia::from_csr(&m, 16).unwrap();
        let dia_row = BatchDia::from_csr_in(&m, 16, ValueLayout::RowMajor).unwrap();
        let banded = BatchBanded::from_csr(&m).unwrap();
        let dense = BatchDense::from_csr(&m);
        let formats: [&dyn BatchMatrix<f64>; 7] =
            [&m, &ell, &ell_row, &dia, &dia_row, &banded, &dense];
        let x: Vec<f64> = (0..n).map(|k| (k as f64 * 0.7).sin()).collect();
        for a in formats {
            let name = a.format_name();
            let mut plain = vec![0.0; n];
            a.spmv_system(0, &x, &mut plain);
            // alpha = 1, beta = 0 must equal the plain SpMV: each row
            // accumulates in the same order on both paths.
            let mut adv = vec![9.0; n];
            a.spmv_system_advanced(0, 1.0, &x, 0.0, &mut adv);
            prop_assert_eq!(&adv, &plain, "{}", name);
            // alpha = 2, beta = -1 against the manual combination.
            let mut y: Vec<f64> = (0..n).map(|k| k as f64 * 0.1).collect();
            let expect: Vec<f64> = y.iter().zip(plain.iter()).map(|(yy, p)| 2.0 * p - yy).collect();
            a.spmv_system_advanced(0, 2.0, &x, -1.0, &mut y);
            prop_assert_eq!(&y, &expect, "{}", name);
        }
    }

    #[test]
    fn matrix_market_roundtrip(m in stencil_batch()) {
        let text = matrix_market::write_matrix(&m, 0);
        let (p2, vals) = matrix_market::read_matrix::<f64>(&text).unwrap();
        p2.ensure_same(m.pattern(), "roundtrip").unwrap();
        for (a, b) in vals.iter().zip(m.values_of(0)) {
            prop_assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn diagonal_extraction_consistent(m in stencil_batch()) {
        let ell = BatchEll::from_csr(&m).unwrap();
        let n = m.dims().num_rows;
        let mut d1 = vec![0.0; n];
        let mut d2 = vec![0.0; n];
        for s in 0..m.dims().num_systems {
            m.extract_diagonal(s, &mut d1);
            ell.extract_diagonal(s, &mut d2);
            prop_assert_eq!(&d1, &d2);
            for r in 0..n {
                prop_assert_eq!(d1[r], m.entry(s, r, r));
            }
        }
    }

    #[test]
    fn lane_utilization_is_a_probability(m in stencil_batch(), warp in 1u32..128) {
        let u = m.spmv_counts(warp).lane_utilization();
        prop_assert!((0.0..=1.0).contains(&u));
        let ell = BatchEll::from_csr(&m).unwrap();
        let ue = ell.spmv_counts(warp).lane_utilization();
        prop_assert!((0.0..=1.0).contains(&ue));
    }
}
