//! Extension experiments beyond the paper's evaluation: the future-work
//! configurations the paper motivates but does not measure.
//!
//! * **multispecies** — Section II.A's "~10 ion species and electrons"
//!   workload: batch size scales with the species count;
//! * **multigpu** — Summit-node deployment (6 × V100), strong scaling of
//!   one collision batch over a `FleetService` of 1–6 shards;
//! * **mixed-precision** — f32 inner solves + f64 refinement vs the
//!   plain f64 batched BiCGSTAB;
//! * **gpu-direct** — why nobody runs `dgbsv` *on* the GPU: the banded
//!   factorization's sequential column chain versus the batched
//!   iterative kernel.

use std::time::Duration;

use batsolv_formats::{BatchBanded, BatchVectors};
use batsolv_gpusim::DeviceSpec;
use batsolv_solvers::direct::banded_lu::dgbsv_time_model;
use batsolv_solvers::direct::dense_lu::dense_lu_time_model;
use batsolv_solvers::{AbsResidual, BatchBicgstab, Jacobi, MixedPrecisionBicgstab};
use batsolv_trace::chrome_trace;
use batsolv_types::Result;
use batsolv_xgc::{MultiSpeciesProxy, VelocityGrid, XgcWorkload};

use crate::config::RunConfig;
use crate::experiments::fleet::drive;
use crate::output::{fmt_time, write_csv, TextTable};

/// Multi-species scaling: mesh nodes needed to saturate the GPU shrink
/// as the species count grows.
pub fn multi_species(cfg: &RunConfig) -> Result<String> {
    let grid = if cfg.quick {
        VelocityGrid::small(12, 11)
    } else {
        VelocityGrid::xgc_standard()
    };
    let nodes = if cfg.quick { 2 } else { 8 };
    let dev = DeviceSpec::a100();
    let mut rows = Vec::new();
    let mut table = TextTable::new(&[
        "ion species",
        "batch size",
        "electron iters (sweep 0)",
        "solve time (5 sweeps)",
        "per-system time",
    ]);
    let mut per_system_times = Vec::new();
    for num_ions in [1usize, 4, 10] {
        let proxy = MultiSpeciesProxy::future_xgc(grid, nodes, num_ions);
        let mut state = proxy.initial_state(cfg.seed);
        let report = proxy.run_picard(&mut state, &dev)?;
        for (s, drift) in report.density_drift.iter().enumerate() {
            assert!(*drift < 1e-7, "species {s} drifted {drift}");
        }
        let electron_iters = report.linear_iters[0].last().unwrap().max;
        let per_system = report.total_solve_time_s / report.batch_size as f64;
        rows.push(format!(
            "{num_ions},{},{electron_iters},{:.9},{:.12}",
            report.batch_size, report.total_solve_time_s, per_system
        ));
        table.row(&[
            num_ions.to_string(),
            report.batch_size.to_string(),
            electron_iters.to_string(),
            fmt_time(report.total_solve_time_s),
            fmt_time(per_system),
        ]);
        per_system_times.push(per_system);
    }
    write_csv(
        &cfg.out_dir,
        "ext_multispecies.csv",
        "ion_species,batch,electron_iters,total_s,per_system_s",
        &rows,
    )?;
    let mut out = String::from(
        "== Extension: multi-species proxy (paper's future XGC, ~10 ions + electrons) ==\n",
    );
    out.push_str(&table.render());
    // More species → bigger batch → better per-system amortization.
    let ok = per_system_times.last().unwrap() < &per_system_times[0];
    out.push_str(&format!(
        "shape check: {} (species count multiplies the batch and improves GPU amortization)\n",
        if ok { "PASS" } else { "FAIL" }
    ));
    Ok(out)
}

/// Multi-GPU strong scaling on the Summit node layout: one collision
/// batch served by a `FleetService` of 1, 2, 4 and 6 V100 shards.
pub fn multi_gpu(cfg: &RunConfig) -> Result<String> {
    let pairs = if cfg.quick { 240 } else { 1440 };
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), pairs, cfg.seed)?;

    let mut rows = Vec::new();
    let mut table = TextTable::new(&["GPUs", "time", "speedup vs 1", "efficiency"]);
    let mut effs = Vec::new();
    let mut t1 = 0.0;
    let mut summit = None;
    for k in [1usize, 2, 4, 6] {
        // BENCH_fleet's deterministic pass: stealing off, round-robin
        // hints, no pacing; and no CPU spill, so every system runs on a
        // GPU shard. The time is the busiest shard's simulated time.
        let rep = drive(&w, k, false, false, Duration::ZERO, None, false)?;
        let time_s = rep.snap.makespan_s;
        if k == 1 {
            t1 = time_s;
        }
        let speedup = t1 / time_s;
        let eff = speedup / k as f64;
        rows.push(format!("{k},{time_s:.9},{speedup:.3},{eff:.3}"));
        table.row(&[
            k.to_string(),
            fmt_time(time_s),
            format!("{speedup:.2}x"),
            format!("{:.0}%", eff * 100.0),
        ]);
        effs.push(eff);
        summit = Some(rep);
    }
    write_csv(
        &cfg.out_dir,
        "ext_multigpu.csv",
        "gpus,time_s,speedup,efficiency",
        &rows,
    )?;

    // Per-device timelines of the 6-shard run: every shard tags its
    // launches with its id, so the chrome exporter lays them out as one
    // lane per device.
    let summit = summit.expect("the sweep ends at 6 devices");
    let devices = summit.snap.shards.len();
    let trace = chrome_trace(&summit.events);
    let lanes = (0..devices)
        .filter(|d| trace.contains(&format!("device {d} kernels")))
        .count();
    std::fs::write(cfg.out_dir.join("ext_multigpu_trace.json"), &trace)?;

    let mut out =
        String::from("== Extension: multi-GPU strong scaling (Summit node, 6 x V100) ==\n");
    out.push_str(&table.render());
    // Efficiency floor at 6 GPUs: shards that ran one after another would
    // score 1/6, well under 0.35. What keeps the measured value below 1
    // is the group-size cycle: round-robin over six shards hands shard 0
    // every largest group.
    let ok = effs[3] > 0.35 && effs.windows(2).all(|w| w[1] <= w[0] + 0.02) && lanes == devices;
    out.push_str(&format!(
        "per-device timeline: {lanes} kernel lanes in ext_multigpu_trace.json (one per V100)\n"
    ));
    out.push_str(&format!(
        "shape check: {} (embarrassingly parallel batch scales to 6 GPUs with bounded efficiency loss)\n",
        if ok { "PASS" } else { "FAIL" }
    ));
    Ok(out)
}

/// Mixed-precision refinement vs plain f64 BiCGSTAB.
pub fn mixed_precision(cfg: &RunConfig) -> Result<String> {
    let pairs = if cfg.quick { 32 } else { 240 };
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), pairs, cfg.seed)?;
    let dev = DeviceSpec::v100();

    let mut x64 = BatchVectors::zeros(w.rhs.dims());
    let ell = w.ell()?;
    let plain =
        BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10)).solve(&dev, &ell, &w.rhs, &mut x64)?;
    let mut x_mp = BatchVectors::zeros(w.rhs.dims());
    let mixed = MixedPrecisionBicgstab::default().solve(&dev, &w.matrices, &w.rhs, &mut x_mp)?;

    let rows = vec![
        format!(
            "f64-bicgstab,{:.9},{:.3e},{}",
            plain.time_s(),
            plain.max_residual(),
            plain.shared_per_block
        ),
        format!(
            "mixed-precision,{:.9},{:.3e},{}",
            mixed.time_s,
            mixed.max_residual(),
            mixed.inner.first().map(|r| r.shared_per_block).unwrap_or(0)
        ),
    ];
    write_csv(
        &cfg.out_dir,
        "ext_mixed_precision.csv",
        "solver,time_s,max_residual,shared_bytes_per_block",
        &rows,
    )?;

    let mut out =
        String::from("== Extension: mixed-precision refinement (f32 inner, f64 outer) ==\n");
    out.push_str(&format!(
        "f64 BiCGSTAB:      {} | residual {:.1e} | {} B shared/block\n",
        fmt_time(plain.time_s()),
        plain.max_residual(),
        plain.shared_per_block
    ));
    out.push_str(&format!(
        "mixed refinement:  {} | residual {:.1e} | {} B shared/block (f32 inner)\n",
        fmt_time(mixed.time_s),
        mixed.max_residual(),
        mixed.inner.first().map(|r| r.shared_per_block).unwrap_or(0)
    ));
    // The workspace claim: an f32 vector is half an f64 vector, so the
    // planner fits ALL NINE BiCGSTAB vectors into the V100's 48 KiB
    // budget (vs 6 of 9 in f64).
    let inner_plan = mixed
        .inner
        .first()
        .map(|r| r.plan_description.clone())
        .unwrap_or_default();
    let ok = mixed.all_converged()
        && mixed.max_residual() < 1e-10
        && inner_plan.starts_with("9 shared")
        && plain.plan_description.starts_with("6 shared");
    out.push_str(&format!(
        "f64 plan: {} | f32 inner plan: {}\n",
        plain.plan_description, inner_plan
    ));
    out.push_str(&format!(
        "shape check: {} (f64 accuracy from f32 inner solves; all 9 vectors shared in f32 vs 6 in f64)\n",
        if ok { "PASS" } else { "FAIL" }
    ));
    Ok(out)
}

/// Why the banded direct solver stays on the CPU: price dgbsv on every
/// device and watch the GPU models choke on its sequential column chain.
pub fn gpu_direct(cfg: &RunConfig) -> Result<String> {
    let pairs = if cfg.quick { 120 } else { 480 };
    let grid = VelocityGrid::xgc_standard();
    let w = XgcWorkload::generate(grid, pairs, cfg.seed)?;
    let banded = BatchBanded::from_csr(&w.matrices)?;
    let (n, kl, ku) = (grid.num_nodes(), banded.kl(), banded.ku());
    let batch = 2 * pairs;

    let mut rows = Vec::new();
    let mut table = TextTable::new(&[
        "device",
        "dense LU (modeled)",
        "dgbsv (modeled)",
        "batched BiCGSTAB-ELL",
    ]);
    let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10));
    let ell = w.ell()?;
    let mut t_direct_gpu = 0.0f64;
    let mut t_iter_gpu = 0.0f64;
    let mut t_direct_cpu = 0.0f64;
    let mut t_iter_cpu = 0.0f64;
    for dev in [
        DeviceSpec::skylake_node(),
        DeviceSpec::v100(),
        DeviceSpec::a100(),
    ] {
        let t_dense = dense_lu_time_model::<f64>(&dev, batch, n);
        let t_direct = dgbsv_time_model::<f64>(&dev, batch, n, kl, ku);
        let mut x = BatchVectors::zeros(w.rhs.dims());
        let t_iter = solver.solve(&dev, &ell, &w.rhs, &mut x)?.time_s();
        rows.push(format!(
            "{},{t_dense:.9},{t_direct:.9},{t_iter:.9}",
            dev.name
        ));
        table.row(&[
            dev.name.into(),
            fmt_time(t_dense),
            fmt_time(t_direct),
            fmt_time(t_iter),
        ]);
        if dev.name.contains("V100") {
            t_direct_gpu = t_direct;
            t_iter_gpu = t_iter;
        }
        if dev.name.contains("6148") {
            t_direct_cpu = t_direct;
            t_iter_cpu = t_iter;
        }
    }
    write_csv(
        &cfg.out_dir,
        "ext_gpu_direct.csv",
        "device,dense_lu_s,dgbsv_s,bicgstab_ell_s",
        &rows,
    )?;

    let mut out = String::from("== Extension: banded direct solve priced on the GPU ==\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "moving dgbsv CPU→V100: {:.2}x SLOWER | moving BiCGSTAB CPU→V100: {:.2}x faster\n",
        t_direct_gpu / t_direct_cpu,
        t_iter_cpu / t_iter_gpu
    ));
    // The inversion that motivates the paper: porting the *direct*
    // solver to the GPU makes it slower (its column chain serializes
    // the device), while the batched iterative solver speeds up.
    let ok = t_direct_gpu > 1.5 * t_direct_cpu && t_iter_gpu < t_iter_cpu;
    out.push_str(&format!(
        "shape check: {} (the GPU slows the banded factorization down but speeds the batched iterative solver up)\n",
        if ok { "PASS" } else { "FAIL" }
    ));
    Ok(out)
}
