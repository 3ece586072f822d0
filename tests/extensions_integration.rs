//! Integration tests of the extension components: DIA format, CGS,
//! mixed precision, Neumann preconditioning, multi-species proxy,
//! multi-device fleet scaling, campaign driver.

use batsolv::prelude::*;
use batsolv::xgc::campaign::{run_campaign, CampaignConfig};

fn workload() -> XgcWorkload {
    XgcWorkload::generate(VelocityGrid::small(12, 11), 4, 31).unwrap()
}

#[test]
fn every_format_reaches_the_same_solution() {
    let w = workload();
    let dev = DeviceSpec::a100();
    let stop = AbsResidual::new(1e-11);
    let solver = BatchBicgstab::new(Jacobi, stop);

    let mut reference = BatchVectors::zeros(w.rhs.dims());
    assert!(solver
        .solve(&dev, &w.matrices, &w.rhs, &mut reference)
        .unwrap()
        .all_converged());

    // ELL, DIA, banded, dense — identical math, different layouts.
    let ell = w.ell().unwrap();
    let dia = batsolv::formats::BatchDia::from_csr(&w.matrices, 16).unwrap();
    let banded = w.banded().unwrap();
    let dense = batsolv::formats::BatchDense::from_csr(&w.matrices);
    let check = |x: &BatchVectors<f64>, label: &str| {
        for (a, b) in x.values().iter().zip(reference.values()) {
            assert!((a - b).abs() < 1e-8, "{label}: {a} vs {b}");
        }
    };
    let mut x = BatchVectors::zeros(w.rhs.dims());
    assert!(solver
        .solve(&dev, &ell, &w.rhs, &mut x)
        .unwrap()
        .all_converged());
    check(&x, "ell");
    let mut x = BatchVectors::zeros(w.rhs.dims());
    assert!(solver
        .solve(&dev, &dia, &w.rhs, &mut x)
        .unwrap()
        .all_converged());
    check(&x, "dia");
    let mut x = BatchVectors::zeros(w.rhs.dims());
    assert!(solver
        .solve(&dev, &banded, &w.rhs, &mut x)
        .unwrap()
        .all_converged());
    check(&x, "banded");
    let mut x = BatchVectors::zeros(w.rhs.dims());
    assert!(solver
        .solve(&dev, &dense, &w.rhs, &mut x)
        .unwrap()
        .all_converged());
    check(&x, "dense");
}

#[test]
fn cgs_and_bicgstab_agree_on_the_answer() {
    let w = workload();
    let dev = DeviceSpec::v100();
    let mut x1 = BatchVectors::zeros(w.rhs.dims());
    let r1 = BatchCgs::new(Jacobi, AbsResidual::new(1e-11))
        .solve(&dev, &w.matrices, &w.rhs, &mut x1)
        .unwrap();
    let mut x2 = BatchVectors::zeros(w.rhs.dims());
    let r2 = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-11))
        .solve(&dev, &w.matrices, &w.rhs, &mut x2)
        .unwrap();
    assert!(r1.all_converged() && r2.all_converged());
    for (a, b) in x1.values().iter().zip(x2.values()) {
        assert!((a - b).abs() < 1e-8);
    }
}

#[test]
fn mixed_precision_matches_f64_on_the_xgc_workload() {
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), 4, 17).unwrap();
    let dev = DeviceSpec::v100();
    let mut x64 = BatchVectors::zeros(w.rhs.dims());
    let plain = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10))
        .solve(&dev, &w.ell().unwrap(), &w.rhs, &mut x64)
        .unwrap();
    let mut xmp = BatchVectors::zeros(w.rhs.dims());
    let mixed = MixedPrecisionBicgstab::default()
        .solve(&dev, &w.matrices, &w.rhs, &mut xmp)
        .unwrap();
    assert!(plain.all_converged() && mixed.all_converged());
    let scale = x64.values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    for (a, b) in x64.values().iter().zip(xmp.values()) {
        assert!((a - b).abs() < 1e-8 * scale.max(1.0));
    }
    // Electron systems converge in a handful of outer sweeps.
    assert!(mixed.max_outer_iterations() <= 6);
}

#[test]
fn neumann_polynomial_trades_iterations_for_spmvs() {
    let w = workload();
    let dev = DeviceSpec::a100();
    let ell = w.ell().unwrap();
    let mut iters = Vec::new();
    for degree in [0usize, 1, 3] {
        let mut x = BatchVectors::zeros(w.rhs.dims());
        let r = BatchBicgstab::new(NeumannPolynomial::new(degree), AbsResidual::new(1e-10))
            .solve(&dev, &ell, &w.rhs, &mut x)
            .unwrap();
        assert!(r.all_converged());
        iters.push(r.max_iterations());
    }
    assert!(
        iters[2] < iters[0],
        "degree 3 {} vs degree 0 {}",
        iters[2],
        iters[0]
    );
}

#[test]
fn multi_species_proxy_scales_batches_with_lineup() {
    let proxy = MultiSpeciesProxy::future_xgc(VelocityGrid::small(10, 9), 3, 6);
    assert_eq!(proxy.batch_size(), 21);
    let mut state = proxy.initial_state(3);
    let rep = proxy.run_picard(&mut state, &DeviceSpec::a100()).unwrap();
    assert_eq!(rep.linear_iters[0].len(), 7);
    assert!(rep.density_drift.iter().all(|&d| d < 1e-7));
}

#[test]
fn multi_gpu_round_robin_reduces_makespan() {
    use batsolv_fleet::{FleetConfig, FleetService};
    use std::sync::Arc;

    const GROUP: usize = 8;
    let w = XgcWorkload::generate(VelocityGrid::small(10, 9), 32, 9).unwrap();
    let n = w.num_systems();
    // One batch as groups of 8 hinted round-robin over the shards, with
    // stealing off and nothing small enough to spill to the CPU pool.
    let makespan = |devices: usize| {
        let cfg = FleetConfig::new(devices)
            .with_min_batch_size(GROUP)
            .with_max_batch_size(GROUP)
            .with_steal(false);
        let fleet = FleetService::start(Arc::clone(w.pattern()), cfg).unwrap();
        let tickets: Vec<_> = (0..n)
            .step_by(GROUP)
            .enumerate()
            .map(|(g, first)| {
                let group = (first..first + GROUP)
                    .map(|k| {
                        let s = w.system(k);
                        SolveRequest::new(s.values.to_vec(), s.rhs.to_vec())
                    })
                    .collect();
                let hint = Some((g % devices) as u32);
                fleet.submit_group(group, hint).unwrap()
            })
            .collect();
        for t in tickets {
            for outcome in t.wait_all() {
                assert_eq!(outcome.unwrap().method, SolveMethod::Bicgstab);
            }
        }
        let snap = fleet.shutdown();
        assert_eq!(snap.spilled, 0);
        snap.makespan_s
    };
    let (one, four) = (makespan(1), makespan(4));
    // Eight equal groups over four shards: each shard carries a quarter
    // of the launches, so the busiest device finishes well before the
    // lone one does.
    assert!(
        one > 0.0 && four < one / 2.0,
        "1 shard {one} s, 4 shards {four} s"
    );
}

#[test]
fn campaign_chains_states_between_runs() {
    let cfg = CampaignConfig {
        num_steps: 2,
        num_mesh_nodes: 2,
        grid: VelocityGrid::small(10, 9),
        solver: SolverKind::BicgstabEll,
        warm_start: true,
        seed: 4,
    };
    let dev = DeviceSpec::a100();
    let first = run_campaign(&cfg, &dev).unwrap();
    // Continue from the final state: a proxy on the same grid accepts it.
    let proxy = CollisionProxy::new(cfg.grid, cfg.num_mesh_nodes);
    let mut state = first.final_state.clone();
    let cont = proxy
        .run_picard(&mut state, &dev, SolverKind::BicgstabEll, true)
        .unwrap();
    // Closer to equilibrium → the continuation needs no more iterations
    // than the campaign's last step did.
    let last_iters = first.steps.last().unwrap().electron_iters;
    assert!(
        cont.iterations[0].linear_iters[1].max <= last_iters + 1,
        "continuation regressed: {} vs {last_iters}",
        cont.iterations[0].linear_iters[1].max
    );
}
