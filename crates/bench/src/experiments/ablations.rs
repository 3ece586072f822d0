//! Ablation studies for the design choices the paper calls out.
//!
//! * **monolithic** (Section II): block-diagonal assembly + one global
//!   solver vs the batched design;
//! * **shared** (Section IV.D): shared-memory placement policy sweep;
//! * **solver** (Section IV.B): BiCGSTAB vs CG vs CGS vs GMRES;
//! * **tolerance** (Section V): solver tolerance vs conservation — the
//!   "1e-10 buys 1e-7 conservation" coupling.

use batsolv_formats::BatchVectors;
use batsolv_gpusim::DeviceSpec;
use batsolv_solvers::monolithic::MonolithicBicgstab;
use batsolv_solvers::{AbsResidual, BatchBicgstab, BatchCg, BatchCgs, BatchGmres, Jacobi};
use batsolv_types::Result;
use batsolv_xgc::picard::SolverKind;
use batsolv_xgc::{CollisionProxy, VelocityGrid, XgcWorkload};

use crate::config::RunConfig;
use crate::output::{fmt_time, write_csv, TextTable};

/// Batched vs monolithic block-diagonal solve.
pub fn monolithic(cfg: &RunConfig) -> Result<String> {
    let pairs = if cfg.quick { 16 } else { 64 };
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), pairs, cfg.seed)?;
    let dev = DeviceSpec::v100();
    let stop = AbsResidual::new(1e-10);

    let mut x1 = BatchVectors::zeros(w.rhs.dims());
    let batched = BatchBicgstab::new(Jacobi, stop).solve(&dev, &w.matrices, &w.rhs, &mut x1)?;
    let mut x2 = BatchVectors::zeros(w.rhs.dims());
    let mono = MonolithicBicgstab::new(Jacobi, stop).solve(&dev, &w.matrices, &w.rhs, &mut x2)?;

    let rows = vec![
        format!(
            "batched,{:.9},{},{:.1}",
            batched.time_s(),
            batched.max_iterations(),
            batched.mean_iterations()
        ),
        format!(
            "monolithic,{:.9},{},{:.1}",
            mono.time_s(),
            mono.max_iterations(),
            mono.mean_iterations()
        ),
    ];
    write_csv(
        &cfg.out_dir,
        "ablation_monolithic.csv",
        "design,total_s,max_iters,mean_iters",
        &rows,
    )?;

    let mut out =
        String::from("== Ablation: batched vs monolithic block-diagonal (Section II) ==\n");
    out.push_str(&format!(
        "batched: {} (mean {:.1} iters, ions stop early) | monolithic: {} ({} global iters for every system)\n",
        fmt_time(batched.time_s()),
        batched.mean_iterations(),
        fmt_time(mono.time_s()),
        mono.max_iterations()
    ));
    let ok = batched.time_s() < mono.time_s()
        && batched.mean_iterations() < mono.mean_iterations()
        && batched.all_converged()
        && mono.all_converged();
    out.push_str(&format!(
        "shape check: {} (paper: \"such a method is slower than the proposed batched iterative solvers\")\n",
        if ok { "PASS" } else { "FAIL" }
    ));
    Ok(out)
}

/// Shared-memory placement policy sweep on the V100 model.
pub fn shared_memory(cfg: &RunConfig) -> Result<String> {
    let pairs = if cfg.quick { 32 } else { 128 };
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), pairs, cfg.seed)?;
    let solver = BatchBicgstab::new(Jacobi, AbsResidual::new(1e-10));

    let mut rows = Vec::new();
    let mut table = TextTable::new(&["shared budget", "placement", "solve time"]);
    let mut times = Vec::new();
    for budget_kb in [0.0f64, 16.0, 48.0, 96.0] {
        let mut dev = DeviceSpec::v100();
        dev.max_dynamic_shared_kb = budget_kb;
        let mut x = BatchVectors::zeros(w.rhs.dims());
        let rep = solver.solve(&dev, &w.matrices, &w.rhs, &mut x)?;
        assert!(rep.all_converged());
        rows.push(format!(
            "{budget_kb},{},{:.9}",
            rep.plan_description.replace(',', ";"),
            rep.time_s()
        ));
        table.row(&[
            format!("{budget_kb:.0} KiB"),
            rep.plan_description.clone(),
            fmt_time(rep.time_s()),
        ]);
        times.push(rep.time_s());
    }
    write_csv(
        &cfg.out_dir,
        "ablation_shared_memory.csv",
        "budget_kb,placement,total_s",
        &rows,
    )?;

    let mut out = String::from("== Ablation: shared-memory placement (Section IV.D) ==\n");
    out.push_str(&table.render());
    // The paper's default (48 KiB on V100) must not lose to all-global,
    // and the oversized 96 KiB budget exposes the occupancy trade-off:
    // 9 shared vectors (≈70 KiB) halve the resident blocks per SM, which
    // can cost more than the extra shared vectors save — the reason the
    // planner does not simply request the hardware maximum.
    let t0 = times[0]; // all-global
    let t48 = times[2]; // the paper's configuration
    let ok = t48 <= t0 * 1.001;
    out.push_str(&format!(
        "48 KiB vs all-global: {:.2}x | 96 KiB occupancy trade-off: {:+.0}% vs 48 KiB\n",
        t0 / t48,
        (times[3] / t48 - 1.0) * 100.0
    ));
    out.push_str(&format!(
        "shape check: {} (the production budget never loses to all-global)\n",
        if ok { "PASS" } else { "FAIL" }
    ));
    Ok(out)
}

/// Solver-choice ablation: BiCGSTAB vs CG vs CGS vs GMRES(30).
pub fn solver_choice(cfg: &RunConfig) -> Result<String> {
    let pairs = if cfg.quick { 8 } else { 32 };
    let w = XgcWorkload::generate(VelocityGrid::xgc_standard(), pairs, cfg.seed)?;
    let dev = DeviceSpec::a100();
    let stop = AbsResidual::new(1e-10);

    let mut rows = Vec::new();
    let mut table = TextTable::new(&["solver", "converged", "max iters", "solve time"]);
    let mut entries: Vec<(&str, bool, u32, f64)> = Vec::new();
    {
        let mut x = BatchVectors::zeros(w.rhs.dims());
        let r = BatchBicgstab::new(Jacobi, stop).solve(&dev, &w.matrices, &w.rhs, &mut x)?;
        entries.push((
            "bicgstab",
            r.all_converged(),
            r.max_iterations(),
            r.time_s(),
        ));
    }
    {
        let mut x = BatchVectors::zeros(w.rhs.dims());
        let r = BatchCg::new(Jacobi, stop).with_max_iters(400).solve(
            &dev,
            &w.matrices,
            &w.rhs,
            &mut x,
        )?;
        entries.push(("cg", r.all_converged(), r.max_iterations(), r.time_s()));
    }
    {
        let mut x = BatchVectors::zeros(w.rhs.dims());
        let r = BatchCgs::new(Jacobi, stop).solve(&dev, &w.matrices, &w.rhs, &mut x)?;
        entries.push(("cgs", r.all_converged(), r.max_iterations(), r.time_s()));
    }
    {
        let mut x = BatchVectors::zeros(w.rhs.dims());
        let r = BatchGmres::new(Jacobi, stop, 30).solve(&dev, &w.matrices, &w.rhs, &mut x)?;
        entries.push((
            "gmres(30)",
            r.all_converged(),
            r.max_iterations(),
            r.time_s(),
        ));
    }
    for (name, conv, iters, t) in &entries {
        rows.push(format!("{name},{conv},{iters},{t:.9}"));
        table.row(&[
            name.to_string(),
            conv.to_string(),
            iters.to_string(),
            fmt_time(*t),
        ]);
    }
    write_csv(
        &cfg.out_dir,
        "ablation_solver_choice.csv",
        "solver,converged,max_iters,total_s",
        &rows,
    )?;

    let mut out = String::from("== Ablation: solver choice (Section IV.B) ==\n");
    out.push_str(&table.render());
    let bicg = entries.iter().find(|e| e.0 == "bicgstab").unwrap();
    let ok = bicg.1
        && entries
            .iter()
            .filter(|e| e.1)
            .all(|e| bicg.3 <= e.3 * 1.001);
    out.push_str(&format!(
        "shape check: {} (paper: \"empirically, BiCGSTAB was the most efficient solver\")\n",
        if ok { "PASS" } else { "FAIL" }
    ));
    Ok(out)
}

/// Tolerance vs conservation: the 1e-10 ↔ 1e-7 coupling.
pub fn tolerance(cfg: &RunConfig) -> Result<String> {
    let nodes = if cfg.quick { 2 } else { 8 };
    let dev = DeviceSpec::v100();
    let mut rows = Vec::new();
    let mut table = TextTable::new(&["solver tol", "electron density drift", "meets 1e-7?"]);
    let mut drift_at = std::collections::BTreeMap::new();
    for &tol in &[1e-4f64, 1e-6, 1e-8, 1e-10, 1e-12] {
        let proxy = CollisionProxy::new(VelocityGrid::xgc_standard(), nodes).with_tolerance(tol);
        let mut state = proxy.initial_state(cfg.seed);
        let rep = proxy.run_picard(&mut state, &dev, SolverKind::BicgstabEll, true)?;
        let drift = rep.density_drift[1];
        rows.push(format!("{tol:e},{drift:e},{}", drift < 1e-7));
        table.row(&[
            format!("{tol:.0e}"),
            format!("{drift:.2e}"),
            if drift < 1e-7 {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
        drift_at.insert(format!("{tol:e}"), drift);
    }
    write_csv(
        &cfg.out_dir,
        "ablation_tolerance.csv",
        "tol,electron_density_drift,conserved_1e7",
        &rows,
    )?;

    let mut out = String::from("== Ablation: solver tolerance vs conservation (Section V) ==\n");
    out.push_str(&table.render());
    let ok = drift_at["1e-10"] < 1e-7 && drift_at["1e-4"] > 1e-7;
    out.push_str(&format!(
        "shape check: {} (tight tolerance conserves density; loose tolerance does not — the paper's reason for 1e-10)\n",
        if ok { "PASS" } else { "FAIL" }
    ));
    Ok(out)
}
