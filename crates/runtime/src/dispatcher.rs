//! Batch dispatcher: turns a formed batch into one fused solve.
//!
//! The engine is a trait so the service loop can be exercised with a
//! deterministic test double (e.g. a blocking engine for backpressure
//! tests) while production uses [`LadderEngine`]: the paper's fused
//! batched BiCGSTAB, escalated per-system through restarted GMRES and
//! finally the banded-LU (`dgbsv`) direct baseline. Each rung only
//! reprocesses the systems the previous rung left behind, so a healthy
//! batch pays exactly one BiCGSTAB launch. All rungs run through one
//! generic loop; the fleet's CPU spill pool is the same engine with the
//! banded-LU rung alone ([`LadderEngine::cpu_pool`]).
//!
//! The engine consults a [`LaunchHook`] immediately before the fused
//! launch — the chaos seam: a hook can fail the launch like a device
//! error, stall it, or panic the worker (see `batsolv-faults`).

use std::sync::Arc;

use batsolv_formats::{BatchBanded, BatchCsr, BatchVectors, SparsityPattern};
use batsolv_gpusim::{DeviceSpec, Direction, LaunchHook, NoDisruption};
use batsolv_solvers::direct::BatchBandedLu;
use batsolv_solvers::{
    AbsResidual, BatchBicgstab, BatchGmres, BatchSolveReport, BlockJacobi, Identity, Ilu0,
    IterationLogger, Jacobi, NoopLogger, PipelinedBicgstab, Preconditioner, TraceLogger,
};
use batsolv_trace::{EventKind, Tracer};
use batsolv_types::{BatchDims, Result};

use crate::executor::DeviceLane;
use crate::request::{RequestId, RungAttempt, SolveMethod};

/// One request's payload as handed to the engine.
#[derive(Clone, Debug, Default)]
pub struct BatchItem {
    /// Service-assigned id, echoed back in the outcome.
    pub id: RequestId,
    /// CSR values over the shared pattern.
    pub values: Vec<f64>,
    /// Right-hand side.
    pub rhs: Vec<f64>,
    /// Optional warm-start guess.
    pub guess: Option<Vec<f64>>,
    /// Per-request tolerance override.
    pub tolerance: Option<f64>,
}

/// One request's result as produced by the engine.
#[derive(Clone, Debug)]
pub struct ItemOutcome {
    /// Echoed request id.
    pub id: RequestId,
    /// Solution vector (last iterate when not converged).
    pub x: Vec<f64>,
    /// Total iterative-solver iterations spent on this system, summed
    /// across rungs.
    pub iterations: u32,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Whether a solution within tolerance was produced.
    pub converged: bool,
    /// Which path produced `x`.
    pub method: SolveMethod,
    /// Solver breakdown tag, if any.
    pub breakdown: Option<&'static str>,
    /// Every ladder rung attempted, in order.
    pub rungs: Vec<RungAttempt>,
}

/// What one fused dispatch produced.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-item outcomes, in batch order.
    pub outcomes: Vec<ItemOutcome>,
    /// Simulated kernel time of the dispatch (all rungs).
    pub sim_time_s: f64,
    /// Synchronization points paid across all rungs (worst block).
    pub syncs: u64,
    /// Reduction trees performed across all rungs (exposed + hidden).
    pub reductions: u64,
    /// Name of the rung-1 solver variant that ran.
    pub solver: &'static str,
    /// Simulated solve-time decomposition of the whole dispatch.
    pub split: SimSplit,
}

/// Where the simulated solve time of a dispatch went, microseconds
/// (sim clock, all rungs summed). This is the Figure 1 decomposition at
/// service granularity: compute (SpMV + vector ops), exposed reduction
/// trees, barrier waits, and host↔device transfers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimSplit {
    /// SpMV + vector-op compute time (kernel time minus barriers).
    pub spmv_us: f64,
    /// Exposed tree-reduction time.
    pub reduction_us: f64,
    /// Barrier (synchronization-point) time.
    pub sync_us: f64,
    /// Host↔device transfer time (operand upload + solution download).
    pub transfer_us: f64,
}

impl SimSplit {
    /// Sum of every component.
    pub fn total_us(&self) -> f64 {
        self.spmv_us + self.reduction_us + self.sync_us + self.transfer_us
    }

    /// Fold one rung's kernel report in. `sync_s` covers barriers plus
    /// exposed reductions; it is apportioned between the two by their
    /// critical-path counts, and the remainder of the kernel time is
    /// compute (SpMV + fused vector passes).
    pub fn add_kernel(&mut self, report: &BatchSolveReport) {
        let total_us = report.time_s() * 1e6;
        let sync_block_us = (report.kernel.sync_s * 1e6).min(total_us);
        let (syncs, reds) = (report.syncs() as f64, report.reductions() as f64);
        let denom = syncs + reds;
        let red_share = if denom > 0.0 { reds / denom } else { 0.0 };
        self.reduction_us += sync_block_us * red_share;
        self.sync_us += sync_block_us * (1.0 - red_share);
        self.spmv_us += total_us - sync_block_us;
    }

    /// Fold one host↔device copy in.
    pub fn add_transfer(&mut self, device: &DeviceSpec, bytes: u64, dir: Direction) {
        self.transfer_us += batsolv_gpusim::transfer_time(device, bytes, dir) * 1e6;
    }

    /// Even per-request share of the dispatch (batch members share the
    /// fused launch, so attribution divides it).
    pub fn per_item(&self, batch_size: usize) -> SimSplit {
        let d = batch_size.max(1) as f64;
        SimSplit {
            spmv_us: self.spmv_us / d,
            reduction_us: self.reduction_us / d,
            sync_us: self.sync_us / d,
            transfer_us: self.transfer_us / d,
        }
    }
}

/// Which fused solver variant carries rung 1 of the ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverVariant {
    /// Batched BiCGSTAB (Algorithm 1), priced with the fused-AXPY vector
    /// pass the host loop runs: 5 syncs/iteration.
    #[default]
    Bicgstab,
    /// Pipelined BiCGSTAB (fused reductions): 2 syncs/iteration.
    PipelinedBicgstab,
}

impl SolverVariant {
    /// Parse a `--solver` flag value; `None` on an unknown name.
    pub fn parse(s: &str) -> Option<SolverVariant> {
        match s {
            "bicgstab" => Some(SolverVariant::Bicgstab),
            "pipelined-bicgstab" => Some(SolverVariant::PipelinedBicgstab),
            _ => None,
        }
    }

    /// The name used in reports, traces and metrics.
    pub fn name(self) -> &'static str {
        match self {
            SolverVariant::Bicgstab => "bicgstab",
            SolverVariant::PipelinedBicgstab => "pipelined-bicgstab",
        }
    }

    /// Every accepted `--solver` value, for usage/error messages.
    pub const NAMES: &'static [&'static str] = &["bicgstab", "pipelined-bicgstab"];
}

/// Which batched preconditioner the iterative rungs run under.
///
/// Rung 3 (banded LU) and the fleet's CPU spill path are direct solves
/// and always run unpreconditioned regardless of this choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrecondVariant {
    /// `M = I`: no preconditioning.
    None,
    /// Scalar Jacobi (`M = diag(A)`), the paper's production choice.
    #[default]
    Jacobi,
    /// Batched block-Jacobi with dense per-block LU inversion; the
    /// payload is the block size.
    BlockJacobi(usize),
    /// Batched ILU(0): apply is a pair of level-scheduled sparse
    /// triangular solves, priced per level in the device model.
    Ilu0,
}

impl PrecondVariant {
    /// Block size used when `block-jacobi` is named without one.
    pub const DEFAULT_BLOCK: usize = 4;

    /// Parse a `--precond` flag value; `None` on an unknown name.
    pub fn parse(s: &str) -> Option<PrecondVariant> {
        match s {
            "none" => Some(PrecondVariant::None),
            "jacobi" => Some(PrecondVariant::Jacobi),
            "block-jacobi" => Some(PrecondVariant::BlockJacobi(Self::DEFAULT_BLOCK)),
            "ilu0" => Some(PrecondVariant::Ilu0),
            _ => s
                .strip_prefix("block-jacobi:")
                .and_then(|b| b.parse::<usize>().ok())
                .filter(|&b| b > 0)
                .map(PrecondVariant::BlockJacobi),
        }
    }

    /// The name used in reports, traces and metrics (block size elided).
    pub fn name(self) -> &'static str {
        match self {
            PrecondVariant::None => "none",
            PrecondVariant::Jacobi => "jacobi",
            PrecondVariant::BlockJacobi(_) => "block-jacobi",
            PrecondVariant::Ilu0 => "ilu0",
        }
    }

    /// Every accepted `--precond` form, for usage/error messages.
    pub const NAMES: &'static [&'static str] = &["none", "jacobi", "block-jacobi:<b>", "ilu0"];
}

/// A batch solver the service can dispatch to.
pub trait SolveEngine: Send + Sync + 'static {
    /// Solve every item of the batch; must return exactly one outcome
    /// per item, in order.
    fn solve_batch(&self, items: &[BatchItem]) -> Result<BatchReport>;
}

/// Knobs of the escalation ladder.
#[derive(Clone, Copy, Debug)]
pub struct LadderConfig {
    /// Tolerance used when an item carries none.
    pub default_tolerance: f64,
    /// BiCGSTAB iteration cap (rung 1).
    pub max_iters: usize,
    /// Whether rung 2 (restarted GMRES) runs at all.
    pub enable_gmres: bool,
    /// GMRES restart length.
    pub gmres_restart: usize,
    /// GMRES total-iteration cap.
    pub gmres_max_iters: usize,
    /// Whether rung 3 (banded LU) runs at all.
    pub enable_fallback: bool,
    /// Which fused solver variant carries rung 1.
    pub solver: SolverVariant,
    /// Which preconditioner the iterative rungs (1 and 2) run under.
    pub precond: PrecondVariant,
}

impl Default for LadderConfig {
    /// The paper's production ladder: Jacobi-preconditioned BiCGSTAB to
    /// an absolute 1e-10 within 500 iterations, then GMRES(30) capped at
    /// 300 iterations, then banded LU.
    fn default() -> LadderConfig {
        LadderConfig {
            default_tolerance: 1e-10,
            max_iters: 500,
            enable_gmres: true,
            gmres_restart: 30,
            gmres_max_iters: 300,
            enable_fallback: true,
            solver: SolverVariant::Bicgstab,
            precond: PrecondVariant::Jacobi,
        }
    }
}

impl LadderConfig {
    /// Reject knobs with which every dispatch would fail or panic.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.default_tolerance.is_nan() || self.default_tolerance <= 0.0 {
            return Err(format!(
                "tolerance must be positive, got {}",
                self.default_tolerance
            ));
        }
        if self.max_iters == 0 {
            return Err("max_iters must be at least 1".into());
        }
        if self.enable_gmres && (self.gmres_restart == 0 || self.gmres_max_iters == 0) {
            return Err("gmres_restart and gmres_max_iters must be at least 1".into());
        }
        if self.precond == PrecondVariant::BlockJacobi(0) {
            return Err("block-jacobi block size must be at least 1".into());
        }
        Ok(())
    }
}

/// One step of the escalation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rung {
    /// The configured fused [`SolverVariant`].
    Krylov,
    /// Restarted GMRES, warm-started from the previous rung's iterate.
    Gmres,
    /// Banded-LU (`dgbsv`) direct solve from a zero start.
    BandedLu,
}

impl Rung {
    /// The rung's fixed ladder position, as traced.
    fn position(self) -> u8 {
        match self {
            Rung::Krylov => 1,
            Rung::Gmres => 2,
            Rung::BandedLu => 3,
        }
    }

    /// The method recorded on outcomes the rung produces.
    fn method(self) -> SolveMethod {
        match self {
            Rung::Krylov => SolveMethod::Bicgstab,
            Rung::Gmres => SolveMethod::Gmres,
            Rung::BandedLu => SolveMethod::BandedLuFallback,
        }
    }
}

/// The production engine: BiCGSTAB → restarted GMRES → banded LU.
pub struct LadderEngine {
    lane: DeviceLane,
    pattern: Arc<SparsityPattern>,
    cfg: LadderConfig,
    /// The rungs every dispatch climbs, in order.
    rungs: Vec<Rung>,
}

impl LadderEngine {
    /// Engine over `pattern`, priced on `device`, with no disruption.
    pub fn new(device: DeviceSpec, pattern: Arc<SparsityPattern>, cfg: LadderConfig) -> Self {
        Self::with_hook(device, pattern, cfg, Arc::new(NoDisruption))
    }

    /// Engine with a caller-provided launch hook (chaos testing).
    pub fn with_hook(
        device: DeviceSpec,
        pattern: Arc<SparsityPattern>,
        cfg: LadderConfig,
        hook: Arc<dyn LaunchHook>,
    ) -> LadderEngine {
        let mut rungs = vec![Rung::Krylov];
        if cfg.enable_gmres {
            rungs.push(Rung::Gmres);
        }
        if cfg.enable_fallback {
            rungs.push(Rung::BandedLu);
        }
        let mut lane = DeviceLane::new(device);
        lane.hook = hook;
        LadderEngine {
            lane,
            pattern,
            cfg,
            rungs,
        }
    }

    /// The fleet's CPU spill pool: the banded-LU rung alone, priced on
    /// the paper's Skylake node with `workers` solve cores (the paper's
    /// baseline uses 38). It never escalates: LU *is* its only rung.
    pub fn cpu_pool(pattern: Arc<SparsityPattern>, workers: usize) -> LadderEngine {
        let mut device = DeviceSpec::skylake_node();
        device.num_cus = workers as u32;
        let mut engine = LadderEngine::new(device, pattern, LadderConfig::default());
        engine.rungs = vec![Rung::BandedLu];
        engine
    }

    /// Attach a tracer: rung spans, per-iteration residuals, and the
    /// kernel-launch/transfer timeline flow into its sink.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.lane.tracer = tracer;
        self
    }

    /// Tag the engine with a fleet shard id: every kernel-launch,
    /// sync, reduction, and transfer record it emits carries the id,
    /// which the chrome exporter turns into one device lane per shard.
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.lane.shard = shard;
        self
    }

    /// Bytes a subset's operands (values + RHS) occupy on the wire.
    fn upload_bytes(items: &[BatchItem], subset: &[usize]) -> u64 {
        subset
            .iter()
            .map(|&i| ((items[i].values.len() + items[i].rhs.len()) * 8) as u64)
            .sum()
    }

    /// Tightest tolerance requested across the batch (a fused launch has
    /// one stopping criterion, so it must satisfy the strictest member).
    fn effective_tolerance(&self, items: &[BatchItem]) -> f64 {
        items
            .iter()
            .filter_map(|it| it.tolerance)
            .fold(self.cfg.default_tolerance, f64::min)
    }

    /// Build the CSR batch / RHS vectors for a subset of items.
    fn assemble(
        &self,
        items: &[BatchItem],
        subset: &[usize],
    ) -> Result<(BatchCsr<f64>, BatchVectors<f64>, BatchDims)> {
        let n = self.pattern.num_rows();
        let dims = BatchDims::new(subset.len(), n)?;
        let values: Vec<Vec<f64>> = subset.iter().map(|&i| items[i].values.clone()).collect();
        let a = BatchCsr::from_system_values(Arc::clone(&self.pattern), &values)?;
        let mut rhs_flat = Vec::with_capacity(subset.len() * n);
        for &i in subset {
            rhs_flat.extend_from_slice(&items[i].rhs);
        }
        let b = BatchVectors::from_values(dims, rhs_flat)?;
        Ok((a, b, dims))
    }

    /// One fused launch of `rung` over an assembled subset. Untraced
    /// dispatches pass the no-op logger, so the hot kernel carries no
    /// per-iteration branch.
    #[allow(clippy::too_many_arguments)]
    fn run<P, L, F>(
        &self,
        rung: Rung,
        precond: &P,
        tol: f64,
        a: &BatchCsr<f64>,
        b: &BatchVectors<f64>,
        x: &mut BatchVectors<f64>,
        logger: F,
    ) -> Result<BatchSolveReport>
    where
        P: Preconditioner<f64> + Clone,
        L: IterationLogger<f64>,
        F: Fn(usize) -> L + Sync + Send,
    {
        let device = &self.lane.device;
        let (stop, max_iters) = (AbsResidual::new(tol), self.cfg.max_iters);
        match (rung, self.cfg.solver) {
            (Rung::Krylov, SolverVariant::Bicgstab) => BatchBicgstab::new(precond.clone(), stop)
                .with_max_iters(max_iters)
                .with_fused_axpy(true)
                .solve_logged(device, a, b, x, logger),
            (Rung::Krylov, SolverVariant::PipelinedBicgstab) => {
                PipelinedBicgstab::new(precond.clone(), stop)
                    .with_max_iters(max_iters)
                    .solve_logged(device, a, b, x, logger)
            }
            (Rung::Gmres, _) => BatchGmres::new(precond.clone(), stop, self.cfg.gmres_restart)
                .with_max_iters(self.cfg.gmres_max_iters)
                .solve_logged(device, a, b, x, logger),
            (Rung::BandedLu, _) => BatchBandedLu.solve(device, &BatchBanded::from_csr(a)?, b, x),
        }
    }

    /// Climb the rungs under `precond`. The first rung takes the whole
    /// batch; each later one only the systems still unconverged, so a
    /// healthy batch pays exactly one launch.
    fn ladder<P: Preconditioner<f64> + Clone>(
        &self,
        precond: P,
        items: &[BatchItem],
    ) -> Result<BatchReport> {
        let n = self.pattern.num_rows();
        let tol = self.effective_tolerance(items);
        let tracer = &self.lane.tracer;
        let traced = tracer.is_enabled();
        let mut outcomes: Vec<ItemOutcome> = Vec::with_capacity(items.len());
        let (mut sim_time_s, mut syncs, mut reductions) = (0.0, 0, 0);
        let mut split = SimSplit::default();
        let mut solver = self.cfg.solver.name();

        for (step, &rung) in self.rungs.iter().enumerate() {
            let sub: Vec<usize> = (0..items.len())
                .filter(|&i| step == 0 || !outcomes[i].converged)
                .collect();
            if step > 0 && sub.is_empty() {
                break;
            }
            let (a, b, dims) = self.assemble(items, &sub)?;
            // Start from the caller's guess on the first rung and from the
            // previous rung's (sanitized, finite) iterate after that.
            let mut x = BatchVectors::zeros(dims);
            if rung != Rung::BandedLu {
                for (k, &i) in sub.iter().enumerate() {
                    let start = match step {
                        0 => items[i].guess.as_deref(),
                        _ => Some(outcomes[i].x.as_slice()),
                    };
                    if let Some(start) = start {
                        x.system_mut(k).copy_from_slice(start);
                    }
                }
            }
            let (pos, method) = (rung.position(), rung.method());
            let span = match rung {
                Rung::Krylov => self.cfg.solver.name(),
                _ => method.name(),
            };
            if traced {
                for &i in &sub {
                    tracer.emit(
                        Some(items[i].id),
                        EventKind::RungBegin {
                            rung: pos,
                            method: span,
                        },
                    );
                }
            }
            let report = if traced {
                self.run(rung, &precond, tol, &a, &b, &mut x, |k| {
                    TraceLogger::new(tracer, items[sub[k]].id, pos)
                })?
            } else {
                self.run(rung, &precond, tol, &a, &b, &mut x, |_| NoopLogger)?
            };
            let upload = Self::upload_bytes(items, &sub);
            if traced {
                self.lane.trace_transfer(upload, Direction::HostToDevice);
                self.lane.trace_launch(sub.len(), n, &report);
                for (k, &i) in sub.iter().enumerate() {
                    let r = &report.per_system[k];
                    tracer.emit(
                        Some(items[i].id),
                        EventKind::RungEnd {
                            rung: pos,
                            method: span,
                            iterations: r.iterations,
                            residual: r.residual,
                            converged: r.converged,
                            breakdown: r.breakdown,
                        },
                    );
                }
            }
            sim_time_s += report.time_s();
            syncs += report.syncs();
            reductions += report.reductions();
            split.add_transfer(&self.lane.device, upload, Direction::HostToDevice);
            split.add_kernel(&report);

            if step == 0 && rung != Rung::Krylov {
                solver = report.solver;
            }
            for (k, &i) in sub.iter().enumerate() {
                let r = &report.per_system[k];
                let attempt = RungAttempt {
                    method,
                    iterations: r.iterations,
                    residual: r.residual,
                    converged: r.converged,
                    breakdown: r.breakdown,
                };
                // The first rung a system attempts sets its outcome
                // whether or not it converged; later rungs replace it only
                // on success, and only iterative rungs add iterations.
                if step == 0 {
                    outcomes.push(ItemOutcome {
                        id: items[i].id,
                        x: x.system(k).to_vec(),
                        iterations: r.iterations,
                        residual: r.residual,
                        converged: r.converged,
                        method,
                        breakdown: r.breakdown,
                        rungs: vec![attempt],
                    });
                    continue;
                }
                let o = &mut outcomes[i];
                o.rungs.push(attempt);
                if rung != Rung::BandedLu {
                    o.iterations += r.iterations;
                }
                if r.converged {
                    o.x = x.system(k).to_vec();
                    o.residual = r.residual;
                    o.converged = true;
                    o.method = method;
                    o.breakdown = None;
                } else {
                    o.breakdown = r.breakdown.or(o.breakdown);
                }
            }
        }

        // Download of the solutions, one fused d2h copy for the batch.
        let download = (items.len() * n * 8) as u64;
        self.lane.trace_transfer(download, Direction::DeviceToHost);
        split.add_transfer(&self.lane.device, download, Direction::DeviceToHost);

        Ok(BatchReport {
            outcomes,
            sim_time_s,
            syncs,
            reductions,
            solver,
            split,
        })
    }
}

impl SolveEngine for LadderEngine {
    fn solve_batch(&self, items: &[BatchItem]) -> Result<BatchReport> {
        // Chaos seam: the hook sees the fused launch before it happens.
        let ids: Vec<u64> = items.iter().map(|it| it.id).collect();
        self.lane.consult_hook(&ids)?;
        // The preconditioner is a compile-time generic of the solver
        // kernels, so the runtime choice monomorphizes here, once, and
        // every iterative rung runs under it.
        match self.cfg.precond {
            PrecondVariant::None => self.ladder(Identity, items),
            PrecondVariant::Jacobi => self.ladder(Jacobi, items),
            PrecondVariant::BlockJacobi(bs) => self.ladder(BlockJacobi::new(bs), items),
            PrecondVariant::Ilu0 => self.ladder(Ilu0::new(Arc::clone(&self.pattern)), items),
        }
    }
}

#[cfg(test)]
mod tests {
    use batsolv_gpusim::LaunchDisruption;
    use batsolv_types::Error;

    use super::*;

    fn cfg(tol: f64, max_iters: usize) -> LadderConfig {
        LadderConfig {
            default_tolerance: tol,
            max_iters,
            ..LadderConfig::default()
        }
    }

    /// 1-D Laplacian values over a tridiagonal pattern, diagonally
    /// dominant so Jacobi-BiCGSTAB converges fast.
    fn laplacian_case(n: usize) -> (Arc<SparsityPattern>, Vec<f64>, Vec<f64>) {
        let mut coords = Vec::new();
        for r in 0..n {
            if r > 0 {
                coords.push((r, r - 1));
            }
            coords.push((r, r));
            if r + 1 < n {
                coords.push((r, r + 1));
            }
        }
        let pattern = Arc::new(SparsityPattern::from_coords(n, &coords).unwrap());
        let mut values = Vec::with_capacity(pattern.nnz());
        for r in 0..n {
            if r > 0 {
                values.push(-1.0);
            }
            values.push(4.0);
            if r + 1 < n {
                values.push(-1.0);
            }
        }
        let rhs = vec![1.0; n];
        (pattern, values, rhs)
    }

    fn items_of(values: &[f64], rhs: &[f64], count: usize) -> Vec<BatchItem> {
        (0..count as u64)
            .map(|id| BatchItem {
                id,
                values: values.to_vec(),
                rhs: rhs.to_vec(),
                guess: None,
                tolerance: None,
            })
            .collect()
    }

    #[test]
    fn precond_variant_parses_every_flag_form() {
        assert_eq!(PrecondVariant::parse("none"), Some(PrecondVariant::None));
        assert_eq!(
            PrecondVariant::parse("jacobi"),
            Some(PrecondVariant::Jacobi)
        );
        assert_eq!(
            PrecondVariant::parse("block-jacobi:8"),
            Some(PrecondVariant::BlockJacobi(8))
        );
        assert_eq!(
            PrecondVariant::parse("block-jacobi"),
            Some(PrecondVariant::BlockJacobi(PrecondVariant::DEFAULT_BLOCK))
        );
        assert_eq!(PrecondVariant::parse("ilu0"), Some(PrecondVariant::Ilu0));
        assert_eq!(PrecondVariant::parse("block-jacobi:0"), None);
        assert_eq!(PrecondVariant::parse("block-jacobi:x"), None);
        assert_eq!(PrecondVariant::parse("ssor"), None);
    }

    #[test]
    fn solver_variant_names_round_trip() {
        for &name in SolverVariant::NAMES {
            let v = SolverVariant::parse(name).unwrap_or_else(|| panic!("{name} does not parse"));
            assert_eq!(v.name(), name);
        }
        assert_eq!(SolverVariant::NAMES.len(), 2);
        for retired in ["bicgstab-fused", "cg", "pipelined-cg"] {
            assert_eq!(SolverVariant::parse(retired), None, "{retired}");
        }
    }

    #[test]
    fn every_precond_variant_carries_rung_one() {
        let (pattern, values, rhs) = laplacian_case(32);
        for pv in [
            PrecondVariant::None,
            PrecondVariant::Jacobi,
            PrecondVariant::BlockJacobi(2),
            PrecondVariant::Ilu0,
        ] {
            let mut c = cfg(1e-10, 200);
            c.precond = pv;
            let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
            let report = engine.solve_batch(&items_of(&values, &rhs, 3)).unwrap();
            for o in &report.outcomes {
                assert!(o.converged, "{}: system {} unconverged", pv.name(), o.id);
                assert_eq!(
                    o.rungs.len(),
                    1,
                    "{}: healthy systems climb no rungs",
                    pv.name()
                );
            }
        }
    }

    #[test]
    fn ilu0_rung_converges_in_fewer_iterations_than_jacobi() {
        // ILU(0) on a tridiagonal pattern is an exact factorization, so
        // rung 1 converges essentially immediately.
        let (pattern, values, rhs) = laplacian_case(48);
        let run = |pv: PrecondVariant| {
            let mut c = cfg(1e-10, 200);
            c.precond = pv;
            let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
            let report = engine.solve_batch(&items_of(&values, &rhs, 2)).unwrap();
            report.outcomes.iter().map(|o| o.iterations).max().unwrap()
        };
        let jacobi = run(PrecondVariant::Jacobi);
        let ilu0 = run(PrecondVariant::Ilu0);
        assert!(
            ilu0 < jacobi,
            "ilu0 iterations {ilu0} should beat jacobi {jacobi}"
        );
    }

    #[test]
    fn engine_solves_a_batch_on_the_first_rung() {
        let (pattern, values, rhs) = laplacian_case(32);
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), cfg(1e-10, 200));
        let report = engine.solve_batch(&items_of(&values, &rhs, 4)).unwrap();
        assert_eq!(report.outcomes.len(), 4);
        for o in &report.outcomes {
            assert!(o.converged, "system {} residual {}", o.id, o.residual);
            assert_eq!(o.method, SolveMethod::Bicgstab);
            assert_eq!(o.rungs.len(), 1, "healthy systems climb no rungs");
            assert!(o.residual <= 1e-10);
        }
        assert!(report.sim_time_s > 0.0);
    }

    #[test]
    fn sim_split_decomposes_the_dispatch() {
        let (pattern, values, rhs) = laplacian_case(32);
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), cfg(1e-10, 200));
        let report = engine.solve_batch(&items_of(&values, &rhs, 4)).unwrap();
        let s = report.split;
        assert!(s.spmv_us > 0.0, "compute component present");
        assert!(s.sync_us > 0.0, "barrier component present");
        assert!(s.transfer_us > 0.0, "h2d + d2h priced");
        assert!(s.reduction_us >= 0.0);
        // The kernel components reassemble the simulated kernel time; the
        // transfer component sits on top of it.
        let kernel_us = s.spmv_us + s.sync_us + s.reduction_us;
        assert!(
            (kernel_us - report.sim_time_s * 1e6).abs() < 1e-6,
            "kernel split {kernel_us} vs sim_time {}",
            report.sim_time_s * 1e6
        );
        let per = s.per_item(4);
        assert!((per.total_us() * 4.0 - s.total_us()).abs() < 1e-9);
    }

    #[test]
    fn starved_bicgstab_escalates_to_gmres() {
        let (pattern, values, rhs) = laplacian_case(24);
        // One BiCGSTAB iteration cannot reach 1e-10, but GMRES with
        // restart >= n solves the system exactly within one cycle.
        let mut c = cfg(1e-10, 1);
        c.gmres_restart = 32;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
        let report = engine.solve_batch(&items_of(&values, &rhs, 1)).unwrap();
        let o = &report.outcomes[0];
        assert!(o.converged);
        assert_eq!(o.method, SolveMethod::Gmres);
        assert_eq!(o.rungs.len(), 2);
        assert_eq!(o.rungs[0].method, SolveMethod::Bicgstab);
        assert!(!o.rungs[0].converged);
        assert_eq!(o.rungs[1].method, SolveMethod::Gmres);
        assert!(
            o.iterations > o.rungs[0].iterations,
            "iterations accumulate"
        );
    }

    #[test]
    fn starved_iterative_rungs_fall_through_to_lu() {
        let (pattern, values, rhs) = laplacian_case(64);
        // Cripple both iterative rungs: the direct rung must rescue it.
        let mut c = cfg(1e-12, 1);
        c.gmres_restart = 2;
        c.gmres_max_iters = 2;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
        let report = engine.solve_batch(&items_of(&values, &rhs, 1)).unwrap();
        let o = &report.outcomes[0];
        assert!(o.converged, "direct rung must rescue the request");
        assert_eq!(o.method, SolveMethod::BandedLuFallback);
        assert_eq!(o.rungs.len(), 3, "all three rungs attempted");
        assert!(o.residual < 1e-8, "direct solve residual {}", o.residual);
    }

    #[test]
    fn ladder_disabled_reports_not_converged() {
        let (pattern, values, rhs) = laplacian_case(64);
        let mut c = cfg(1e-12, 1);
        c.enable_gmres = false;
        c.enable_fallback = false;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
        let report = engine.solve_batch(&items_of(&values, &rhs, 1)).unwrap();
        let o = &report.outcomes[0];
        assert!(!o.converged);
        assert_eq!(o.method, SolveMethod::Bicgstab);
        assert_eq!(o.rungs.len(), 1);
    }

    #[test]
    fn singular_system_fails_every_rung_without_poisoning_neighbors() {
        let (pattern, values, rhs) = laplacian_case(16);
        let mut bad_values = values.clone();
        // Zero out row 5 entirely: structurally singular.
        let (lo, hi) = pattern.row_range(5);
        for v in &mut bad_values[lo..hi] {
            *v = 0.0;
        }
        let mut items = items_of(&values, &rhs, 3);
        items[1].values = bad_values;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), cfg(1e-10, 50));
        let report = engine.solve_batch(&items).unwrap();
        assert!(report.outcomes[0].converged);
        assert!(report.outcomes[2].converged);
        let bad = &report.outcomes[1];
        assert!(!bad.converged, "singular system cannot converge");
        assert!(bad.breakdown.is_some());
        assert_eq!(bad.rungs.len(), 3, "ladder exhausted");
        assert!(
            bad.x.iter().all(|v| v.is_finite()),
            "failed outcome still returns finite x"
        );
        // Healthy neighbors solve to the same answer as a clean batch.
        let clean = engine.solve_batch(&items_of(&values, &rhs, 3)).unwrap();
        assert_eq!(report.outcomes[0].x, clean.outcomes[0].x);
        assert_eq!(report.outcomes[2].x, clean.outcomes[2].x);
    }

    #[test]
    fn tightest_member_tolerance_wins() {
        let (pattern, values, rhs) = laplacian_case(16);
        let mut c = cfg(1e-4, 200);
        c.enable_gmres = false;
        c.enable_fallback = false;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c);
        let items: Vec<BatchItem> = [None, Some(1e-11)]
            .into_iter()
            .enumerate()
            .map(|(id, tolerance)| BatchItem {
                id: id as u64,
                values: values.clone(),
                rhs: rhs.clone(),
                guess: None,
                tolerance,
            })
            .collect();
        assert_eq!(engine.effective_tolerance(&items), 1e-11);
        let report = engine.solve_batch(&items).unwrap();
        for o in &report.outcomes {
            assert!(o.converged);
            assert!(o.residual <= 1e-11, "residual {} too loose", o.residual);
        }
    }

    #[test]
    fn traced_engine_emits_rung_spans_and_launch_timeline() {
        use batsolv_trace::MemorySink;
        let sink = Arc::new(MemorySink::new());
        let (pattern, values, rhs) = laplacian_case(16);
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), cfg(1e-10, 200))
            .with_tracer(Tracer::new(sink.clone()));
        engine.solve_batch(&items_of(&values, &rhs, 2)).unwrap();
        let events = sink.snapshot();
        let count =
            |pred: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
        assert_eq!(
            count(&|k| matches!(k, EventKind::RungBegin { rung: 1, .. })),
            2
        );
        assert_eq!(
            count(&|k| matches!(
                k,
                EventKind::RungEnd {
                    rung: 1,
                    converged: true,
                    ..
                }
            )),
            2
        );
        assert_eq!(
            count(&|k| matches!(k, EventKind::KernelLaunch { .. })),
            1,
            "healthy batch pays exactly one launch"
        );
        assert_eq!(count(&|k| matches!(k, EventKind::Transfer { .. })), 2);
        assert!(
            count(&|k| matches!(k, EventKind::SolverIteration { rung: 1, .. })) > 0,
            "per-iteration residuals bridge through the TraceLogger"
        );
        // Iteration events carry the owning request's id.
        assert!(events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SolverIteration { .. }))
            .all(|e| matches!(e.trace_id, Some(0) | Some(1))));
    }

    #[test]
    fn escalation_traces_every_rung_and_launch() {
        use batsolv_trace::MemorySink;
        let sink = Arc::new(MemorySink::new());
        let (pattern, values, rhs) = laplacian_case(64);
        let mut c = cfg(1e-12, 1);
        c.gmres_restart = 2;
        c.gmres_max_iters = 2;
        let engine = LadderEngine::new(DeviceSpec::v100(), Arc::clone(&pattern), c)
            .with_tracer(Tracer::new(sink.clone()));
        engine.solve_batch(&items_of(&values, &rhs, 1)).unwrap();
        let events = sink.snapshot();
        let launches: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::KernelLaunch { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(launches, vec![0, 1, 2], "one launch per rung, ordered seq");
        for rung in 1..=3u8 {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::RungBegin { rung: r, .. } if r == rung)),
                "rung {rung} begin missing"
            );
        }
    }

    #[test]
    fn device_fail_hook_fails_the_whole_launch() {
        struct AlwaysFail;
        impl LaunchHook for AlwaysFail {
            fn disrupt(&self, _ids: &[u64]) -> LaunchDisruption {
                LaunchDisruption::DeviceFail { code: "test_fail" }
            }
        }
        let (pattern, values, rhs) = laplacian_case(8);
        let engine = LadderEngine::with_hook(
            DeviceSpec::v100(),
            Arc::clone(&pattern),
            cfg(1e-10, 50),
            Arc::new(AlwaysFail),
        );
        match engine.solve_batch(&items_of(&values, &rhs, 2)) {
            Err(Error::DeviceFailure { code }) => assert_eq!(code, "test_fail"),
            other => panic!("expected DeviceFailure, got {other:?}"),
        }
    }

    #[test]
    fn cpu_engine_solves_on_the_skylake_profile() {
        let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
        let n = pattern.num_rows();
        let values: Vec<f64> = (0..n)
            .flat_map(|r| {
                pattern
                    .row_cols(r)
                    .iter()
                    .map(move |&c| if c as usize == r { 8.0 } else { -1.0 })
                    .collect::<Vec<_>>()
            })
            .collect();
        let engine = LadderEngine::cpu_pool(Arc::clone(&pattern), 38);
        assert_eq!(engine.lane.device.num_cus, 38);
        let report = engine
            .solve_batch(&items_of(&values, &vec![1.0; n], 3))
            .unwrap();
        assert_eq!(report.outcomes.len(), 3);
        for o in &report.outcomes {
            assert!(o.converged);
            assert_eq!(o.method, SolveMethod::BandedLuFallback);
            assert_eq!(o.rungs.len(), 1, "the pool never escalates");
            assert_eq!(o.iterations, 1, "LU reports one iteration");
        }
        assert_eq!(report.solver, "dgbsv");
        assert!(report.sim_time_s > 0.0, "host dispatch is still priced");
        assert_eq!(report.split.transfer_us, 0.0, "host data moves nowhere");
    }
}
