//! Telemetry-driven solver × preconditioner autotuning.
//!
//! The tuner watches the same per-request convergence telemetry the
//! class tracker aggregates — the Table III workload taxonomy computed
//! from each terminal `ConvergenceHistory`-derived record — and commits
//! one (solver, preconditioner) recommendation per [`WorkloadClass`]:
//! ion-like solves converge in a handful of iterations, so the cheap
//! pointwise Jacobi under BiCGSTAB wins; electron-like solves are
//! iteration-bound, so the heavier batched preconditioners (block-Jacobi,
//! then ILU(0)) pay for their per-apply barriers by cutting the iteration
//! count; anomalous solves get the heaviest rung-1 configuration ahead of
//! the escalation ladder.
//!
//! Decisions are **deterministic** — a pure function of the observation
//! stream and the configured seed (used only as a boundary tie-break) —
//! and **sticky**: a class's choice is recomputed only once per
//! [`AutoTunerConfig::window`] observations of that class, so telemetry
//! noise inside a window can never flap the recommendation. Every
//! (re)decision is surfaced three ways and must agree across all of
//! them: an `autotune_decision` trace event, the
//! `batsolv_autotune_info` Prometheus series, and the `autotune`
//! section of the `--profile-out` ledger report.

use std::sync::Mutex;

use batsolv_trace::{AutotuneChoice, EventKind, WorkloadClass, CLASS_COUNT, ION_ITER_MAX};

use crate::dispatcher::{PrecondVariant, SolverVariant};

/// Knobs of the telemetry autotuner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AutoTunerConfig {
    /// Terminal outcomes of one class between (re)decisions. The first
    /// observation of a class always produces an immediate provisional
    /// decision; after that the choice is frozen for `window`
    /// observations at a time.
    pub window: usize,
    /// Tie-break seed. Decisions are a pure function of the observation
    /// stream and this seed, so a fixed seed makes the tuner fully
    /// deterministic.
    pub seed: u64,
}

impl Default for AutoTunerConfig {
    fn default() -> Self {
        AutoTunerConfig {
            window: 32,
            seed: 0,
        }
    }
}

/// One committed per-class recommendation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Workload class the decision covers.
    pub class: WorkloadClass,
    /// Recommended rung-1 solver variant.
    pub solver: SolverVariant,
    /// Recommended ladder preconditioner.
    pub precond: PrecondVariant,
    /// Terminal outcomes of this class observed when the decision was
    /// (re)committed.
    pub observations: u64,
    /// How many times the class's choice has changed (0 = first).
    pub revision: u64,
}

impl Decision {
    /// The trace event announcing this decision.
    pub fn to_event(&self) -> EventKind {
        EventKind::AutotuneDecision {
            class: self.class.name(),
            solver: self.solver.name(),
            precond: self.precond.name(),
            observations: self.observations,
            revision: self.revision,
        }
    }

    /// The ledger-report mirror of this decision.
    pub fn to_choice(&self) -> AutotuneChoice {
        AutotuneChoice {
            class: self.class,
            solver: self.solver.name(),
            precond: self.precond.name(),
            observations: self.observations,
            revision: self.revision,
        }
    }
}

/// Per-class observation window and committed choice.
#[derive(Debug, Default)]
struct ClassState {
    seen: u64,
    window_count: usize,
    window_iters: u64,
    window_converged: usize,
    current: Option<Decision>,
}

/// The telemetry-driven recommendation engine. Thread-safe: the service
/// worker observes terminal outcomes while scrapers read choices.
#[derive(Debug)]
pub struct AutoTuner {
    cfg: AutoTunerConfig,
    classes: Mutex<[ClassState; CLASS_COUNT]>,
}

impl AutoTuner {
    /// Tuner with the given knobs (`window` is clamped to at least 1).
    pub fn new(mut cfg: AutoTunerConfig) -> AutoTuner {
        cfg.window = cfg.window.max(1);
        AutoTuner {
            cfg,
            classes: Mutex::new(Default::default()),
        }
    }

    /// Feed one terminal convergence record. Returns the class's
    /// decision when this observation (re)committed one — the caller
    /// surfaces it as a trace event — and `None` while the current
    /// choice stays frozen (inside a window, or recomputed unchanged).
    pub fn observe(
        &self,
        class: WorkloadClass,
        iterations: u32,
        converged: bool,
    ) -> Option<Decision> {
        let mut classes = self.classes.lock().unwrap();
        let st = &mut classes[class.index()];
        st.seen += 1;
        st.window_count += 1;
        st.window_iters += u64::from(iterations);
        if converged {
            st.window_converged += 1;
        }

        let first = st.current.is_none();
        if !first && st.window_count < self.cfg.window {
            return None;
        }
        let mean_iters = st.window_iters as f64 / st.window_count as f64;
        let converged_frac = st.window_converged as f64 / st.window_count as f64;
        let (solver, precond) = choose(class, mean_iters, converged_frac, self.cfg.seed);
        st.window_count = 0;
        st.window_iters = 0;
        st.window_converged = 0;

        let unchanged = st
            .current
            .is_some_and(|d| d.solver == solver && d.precond == precond);
        let revision = match st.current {
            Some(d) if unchanged => d.revision,
            Some(d) => d.revision + 1,
            None => 0,
        };
        let decision = Decision {
            class,
            solver,
            precond,
            observations: st.seen,
            revision,
        };
        st.current = Some(decision);
        (first || !unchanged).then_some(decision)
    }

    /// Current per-class decisions, [`WorkloadClass::ALL`] order,
    /// classes never observed omitted.
    pub fn decisions(&self) -> Vec<Decision> {
        let classes = self.classes.lock().unwrap();
        classes.iter().filter_map(|st| st.current).collect()
    }

    /// The ledger-report mirror of [`AutoTuner::decisions`].
    pub fn choices(&self) -> Vec<AutotuneChoice> {
        self.decisions().iter().map(Decision::to_choice).collect()
    }
}

/// The deterministic decision policy: heavier iteration burden buys a
/// heavier preconditioner. The electron band splits at twice the ion
/// iteration ceiling — below it block-Jacobi recovers most of the
/// iteration reduction without ILU(0)'s per-level barriers; at or above
/// it the level-scheduled triangular solves pay for themselves. The
/// seed breaks the exact-boundary tie so the policy is total.
fn choose(
    class: WorkloadClass,
    mean_iters: f64,
    converged_frac: f64,
    seed: u64,
) -> (SolverVariant, PrecondVariant) {
    match class {
        WorkloadClass::IonLike => (SolverVariant::Bicgstab, PrecondVariant::Jacobi),
        WorkloadClass::ElectronLike => {
            let threshold = f64::from(2 * ION_ITER_MAX);
            let heavy = if mean_iters == threshold {
                seed.is_multiple_of(2)
            } else {
                mean_iters > threshold || converged_frac < 1.0
            };
            if heavy {
                (SolverVariant::Bicgstab, PrecondVariant::Ilu0)
            } else {
                (
                    SolverVariant::Bicgstab,
                    PrecondVariant::BlockJacobi(PrecondVariant::DEFAULT_BLOCK),
                )
            }
        }
        WorkloadClass::Anomalous => (SolverVariant::Bicgstab, PrecondVariant::Ilu0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsolv_solvers::ConvergenceHistory;

    fn tuner(window: usize) -> AutoTuner {
        AutoTuner::new(AutoTunerConfig { window, seed: 7 })
    }

    #[test]
    fn first_observation_commits_a_provisional_decision() {
        let t = tuner(8);
        let d = t.observe(WorkloadClass::IonLike, 4, true).unwrap();
        assert_eq!(d.class, WorkloadClass::IonLike);
        assert_eq!(d.solver, SolverVariant::Bicgstab);
        assert_eq!(d.precond, PrecondVariant::Jacobi);
        assert_eq!(d.revision, 0);
        assert_eq!(d.observations, 1);
    }

    #[test]
    fn classes_decide_independently() {
        let t = tuner(4);
        let ion = t.observe(WorkloadClass::IonLike, 5, true).unwrap();
        let ele = t.observe(WorkloadClass::ElectronLike, 60, true).unwrap();
        let anom = t.observe(WorkloadClass::Anomalous, 500, false).unwrap();
        assert_eq!(ion.precond, PrecondVariant::Jacobi);
        assert_eq!(ele.precond, PrecondVariant::Ilu0);
        assert_eq!(anom.precond, PrecondVariant::Ilu0);
        assert_eq!(t.decisions().len(), 3);
    }

    #[test]
    fn light_electron_band_prefers_block_jacobi() {
        let t = tuner(4);
        let d = t.observe(WorkloadClass::ElectronLike, 16, true).unwrap();
        assert_eq!(d.solver, SolverVariant::Bicgstab);
        assert_eq!(
            d.precond,
            PrecondVariant::BlockJacobi(PrecondVariant::DEFAULT_BLOCK)
        );
    }

    #[test]
    fn decisions_are_sticky_within_a_window() {
        let t = tuner(6);
        // Provisional decision from a light electron observation.
        let d = t.observe(WorkloadClass::ElectronLike, 16, true).unwrap();
        assert_eq!(d.precond.name(), "block-jacobi");
        // Flappy telemetry inside the window must not change the choice.
        for iters in [70, 16, 75, 14, 78] {
            assert_eq!(
                t.observe(WorkloadClass::ElectronLike, iters, true),
                None,
                "choice must stay frozen inside the window"
            );
        }
        // The 6th post-decision observation closes the window; the heavy
        // mean now flips the choice with a bumped revision.
        let d = t.observe(WorkloadClass::ElectronLike, 79, true).unwrap();
        assert_eq!(d.precond, PrecondVariant::Ilu0);
        assert_eq!(d.revision, 1);
        assert_eq!(d.observations, 7);
    }

    #[test]
    fn unchanged_recomputation_stays_silent() {
        let t = tuner(3);
        assert!(t.observe(WorkloadClass::IonLike, 3, true).is_some());
        for _ in 0..7 {
            assert_eq!(t.observe(WorkloadClass::IonLike, 4, true), None);
        }
        // Still the original revision after two silent window closes.
        let d = t.decisions()[0];
        assert_eq!(d.revision, 0);
        assert_eq!(d.precond, PrecondVariant::Jacobi);
    }

    #[test]
    fn identical_streams_and_seed_give_identical_decisions() {
        let feed = |t: &AutoTuner| {
            let mut log = Vec::new();
            for i in 0..40u32 {
                let (class, iters, conv) = match i % 3 {
                    0 => (WorkloadClass::IonLike, 3 + i % 5, true),
                    1 => (WorkloadClass::ElectronLike, 30 + (i * 7) % 50, true),
                    _ => (WorkloadClass::Anomalous, 200, false),
                };
                if let Some(d) = t.observe(class, iters, conv) {
                    log.push(d);
                }
            }
            log
        };
        let a = tuner(5);
        let b = tuner(5);
        assert_eq!(feed(&a), feed(&b));
        assert_eq!(a.decisions(), b.decisions());
    }

    /// A canned per-system convergence trace, as the solver's
    /// [`IterationLogger`] would record it.
    fn history(iterations: u32, rate: f64, converged: bool) -> ConvergenceHistory<f64> {
        use batsolv_solvers::IterationLogger;
        let mut h = ConvergenceHistory::default();
        let mut res = 1.0f64;
        for k in 1..=iterations {
            res *= rate;
            h.log_iteration(k, res);
        }
        h.log_finish(iterations, res, converged);
        h
    }

    /// The canned fixtures of the acceptance criteria: an ion-like
    /// history (fast geometric collapse) and an electron-like one
    /// (iteration-bound), fed through the same `ConvergenceHistory` →
    /// `WorkloadClass` bridge the service uses. Under a fixed seed the
    /// tuner's (solver, preconditioner) choice per class is fully
    /// deterministic.
    #[test]
    fn canned_convergence_histories_drive_deterministic_choices() {
        let ion = history(5, 0.01, true);
        let electron = history(60, 0.7, true);
        assert_eq!(ion.workload_class(), WorkloadClass::IonLike);
        assert_eq!(electron.workload_class(), WorkloadClass::ElectronLike);

        let t = tuner(4);
        let d_ion = t
            .observe(ion.workload_class(), ion.iterations, ion.converged)
            .unwrap();
        let d_ele = t
            .observe(
                electron.workload_class(),
                electron.iterations,
                electron.converged,
            )
            .unwrap();
        assert_eq!(
            (d_ion.solver, d_ion.precond),
            (SolverVariant::Bicgstab, PrecondVariant::Jacobi)
        );
        assert_eq!(
            (d_ele.solver, d_ele.precond),
            (SolverVariant::Bicgstab, PrecondVariant::Ilu0)
        );

        // Same fixtures, same seed, fresh tuner: identical decisions.
        let t2 = tuner(4);
        let d2_ion = t2
            .observe(ion.workload_class(), ion.iterations, ion.converged)
            .unwrap();
        let d2_ele = t2
            .observe(
                electron.workload_class(),
                electron.iterations,
                electron.converged,
            )
            .unwrap();
        assert_eq!(
            (d_ion.solver, d_ion.precond),
            (d2_ion.solver, d2_ion.precond)
        );
        assert_eq!(
            (d_ele.solver, d_ele.precond),
            (d2_ele.solver, d2_ele.precond)
        );
    }

    /// An anomalous fixture (diverging residuals, no convergence) lands
    /// on the heavy rung-1 configuration.
    #[test]
    fn anomalous_history_gets_the_heaviest_configuration() {
        let anom = history(40, 1.3, false);
        assert_eq!(anom.workload_class(), WorkloadClass::Anomalous);
        let t = tuner(4);
        let d = t
            .observe(anom.workload_class(), anom.iterations, anom.converged)
            .unwrap();
        assert_eq!(
            (d.solver, d.precond),
            (SolverVariant::Bicgstab, PrecondVariant::Ilu0)
        );
    }

    #[test]
    fn choices_mirror_decisions_exactly() {
        let t = tuner(4);
        t.observe(WorkloadClass::ElectronLike, 70, true);
        t.observe(WorkloadClass::IonLike, 2, true);
        let decisions = t.decisions();
        let choices = t.choices();
        assert_eq!(decisions.len(), choices.len());
        for (d, c) in decisions.iter().zip(&choices) {
            assert_eq!(d.class, c.class);
            assert_eq!(d.solver.name(), c.solver);
            assert_eq!(d.precond.name(), c.precond);
            assert_eq!(d.observations, c.observations);
            assert_eq!(d.revision, c.revision);
        }
    }
}
