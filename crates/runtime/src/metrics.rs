//! Prometheus text-exposition rendering of a [`StatsSnapshot`].
//!
//! Built on the trace crate's typed [`MetricsRegistry`] so conformance
//! (matching `# HELP`/`# TYPE` per family, valid name charset, no
//! duplicate series) holds by construction instead of by hand. Every
//! exposed series is a pure function of the snapshot (and the optional
//! class snapshot), so a scrape and a [`StatsSnapshot::render`] call
//! taken at the same instant can never disagree. `parse_prom_value` /
//! `parse_prom_labeled` read the page back, which the integration tests
//! and the `ext-trace` experiment use to assert exporter/snapshot
//! agreement.

use batsolv_trace::{AutotuneChoice, MetricsRegistry, SLO_WINDOWS};

use crate::classes::ClassesSnapshot;
use crate::stats::StatsSnapshot;

/// Render the snapshot as a Prometheus text-format metrics page.
pub fn prometheus_text(s: &StatsSnapshot) -> String {
    prometheus_text_full(s, None, &[])
}

/// Render the snapshot plus the per-class latency/SLO series.
pub fn prometheus_text_with_classes(
    s: &StatsSnapshot,
    classes: Option<&ClassesSnapshot>,
) -> String {
    prometheus_text_full(s, classes, &[])
}

/// Render the snapshot, the per-class latency/SLO series, and the
/// autotuner's current per-class (solver, preconditioner) choices.
pub fn prometheus_text_full(
    s: &StatsSnapshot,
    classes: Option<&ClassesSnapshot>,
    autotune: &[AutotuneChoice],
) -> String {
    let mut m = MetricsRegistry::new();
    m.counter(
        "batsolv_requests_accepted_total",
        "Requests admitted to the queue.",
        &[],
        s.accepted as f64,
    );

    for (reason, count) in [
        ("queue_full", s.rejected_queue_full),
        ("shape", s.rejected_shape),
        ("nonfinite", s.rejected_nonfinite),
        ("zero_diag", s.rejected_zero_diag),
        ("tolerance", s.rejected_tolerance),
        ("circuit_open", s.rejected_circuit_open),
    ] {
        m.counter(
            "batsolv_requests_rejected_total",
            "Requests rejected before entering the queue, by reason.",
            &[("reason", reason)],
            count as f64,
        );
    }

    for (outcome, count) in [
        ("converged_bicgstab", s.converged_iterative),
        ("converged_gmres", s.converged_gmres),
        ("converged_banded_lu", s.converged_fallback),
        ("not_converged", s.failed_not_converged),
        ("deadline_exceeded", s.failed_deadline),
        ("device_failure", s.failed_device),
        ("worker_panic", s.failed_panic),
    ] {
        m.counter(
            "batsolv_outcomes_total",
            "Terminal request outcomes, by kind.",
            &[("outcome", outcome)],
            count as f64,
        );
    }
    m.counter(
        "batsolv_requests_completed_total",
        "Requests that reached any terminal outcome.",
        &[],
        s.completed() as f64,
    );

    m.counter(
        "batsolv_batches_formed_total",
        "Fused batches dispatched.",
        &[],
        s.batches_formed as f64,
    )
    .gauge(
        "batsolv_batch_size_mean",
        "Mean batch size across dispatched batches.",
        &[],
        s.mean_batch_size(),
    );

    // Proper cumulative histogram over the power-of-two batch-size
    // buckets. The sum of sizes across batches equals the number of
    // dispatched requests, which the snapshot tracks exactly.
    let dispatched =
        s.converged_iterative + s.converged_gmres + s.converged_fallback + s.failed_not_converged;
    let les: Vec<String> = (0..s.batch_size_hist.len())
        .map(|k| format!("{}", (1u64 << (k + 1)) - 1))
        .collect();
    let mut cum = 0.0;
    let cumulative: Vec<(&str, f64)> = s
        .batch_size_hist
        .iter()
        .zip(&les)
        .map(|(&count, le)| {
            cum += count as f64;
            (le.as_str(), cum)
        })
        .collect();
    m.histogram_from_buckets(
        "batsolv_batch_size",
        "Batch sizes of dispatched fused launches (power-of-two buckets).",
        &[],
        &cumulative,
        s.batches_formed as f64,
        dispatched as f64,
    );

    for (k, &count) in s.rung_hist.iter().enumerate() {
        let rungs = format!("{}", k + 1);
        m.counter(
            "batsolv_rungs_attempted_total",
            "Requests by number of escalation rungs their dispatch attempted.",
            &[("rungs", rungs.as_str())],
            count as f64,
        );
    }

    if !s.breakdowns.is_empty() {
        for (tag, &count) in &s.breakdowns {
            m.counter(
                "batsolv_breakdowns_total",
                "Terminal solver breakdowns, by tag.",
                &[("kind", tag)],
                count as f64,
            );
        }
    }

    m.counter(
        "batsolv_breaker_trips_total",
        "Circuit-breaker trips (closed/half-open to open transitions).",
        &[],
        s.breaker_trips as f64,
    )
    .counter(
        "batsolv_watchdog_stalls_total",
        "Dispatches flagged by the watchdog as exceeding the time budget.",
        &[],
        s.watchdog_stalls as f64,
    )
    .counter(
        "batsolv_worker_respawns_total",
        "Times the supervisor respawned a panicked worker.",
        &[],
        s.worker_respawns as f64,
    );

    m.gauge(
        "batsolv_queue_wait_p50_us",
        "Median queue wait across dispatched requests, microseconds.",
        &[],
        s.queue_wait_p50.as_secs_f64() * 1e6,
    )
    .gauge(
        "batsolv_queue_wait_p99_us",
        "99th-percentile queue wait across dispatched requests, microseconds.",
        &[],
        s.queue_wait_p99.as_secs_f64() * 1e6,
    )
    .counter(
        "batsolv_solver_iterations_total",
        "Total iterative-solver iterations spent.",
        &[],
        s.solver_iterations_total as f64,
    )
    .gauge(
        "batsolv_solver_iterations_max",
        "Worst single-system iteration count.",
        &[],
        s.solver_iterations_max as f64,
    )
    .gauge(
        "batsolv_sim_kernel_time_seconds",
        "Total simulated kernel time across dispatched batches.",
        &[],
        s.sim_time_total_s,
    )
    .counter(
        "batsolv_sim_syncs_total",
        "Total simulated synchronization points across dispatched batches.",
        &[],
        s.sim_syncs_total as f64,
    )
    .counter(
        "batsolv_sim_reductions_total",
        "Total simulated reduction trees (exposed + hidden) across dispatched batches.",
        &[],
        s.sim_reductions_total as f64,
    );
    if !s.solver.is_empty() {
        m.gauge(
            "batsolv_solver_info",
            "Configured rung-1 solver variant (constant 1, variant in the label).",
            &[("solver", s.solver)],
            1.0,
        );
    }
    if !s.precond.is_empty() {
        m.gauge(
            "batsolv_precond_info",
            "Configured ladder preconditioner (constant 1, name in the label).",
            &[("precond", s.precond)],
            1.0,
        );
    }

    for a in autotune {
        let class = a.class.name();
        m.gauge(
            "batsolv_autotune_info",
            "Autotuner per-class solver/preconditioner choice (constant 1, \
             choice in the labels).",
            &[
                ("class", class),
                ("solver", a.solver),
                ("precond", a.precond),
            ],
            1.0,
        )
        .counter(
            "batsolv_autotune_observations_total",
            "Terminal convergence records the autotuner observed per class.",
            &[("class", class)],
            a.observations as f64,
        )
        .gauge(
            "batsolv_autotune_revision",
            "Times the autotuner changed a class's choice (0 = first choice).",
            &[("class", class)],
            a.revision as f64,
        );
    }

    if let Some(classes) = classes {
        render_class_series(&mut m, "batsolv", classes);
    }
    m.render()
}

/// Append the per-class request/latency/SLO series under `prefix`.
/// Shared with the fleet exporter (prefix `batsolv_fleet`) so both
/// surfaces expose the identical per-class schema.
pub fn render_class_series(m: &mut MetricsRegistry, prefix: &str, classes: &ClassesSnapshot) {
    let requests = format!("{prefix}_class_requests_total");
    let latency = format!("{prefix}_class_latency_us");
    let hist = format!("{prefix}_class_latency_histogram_us");
    let hit_ratio = format!("{prefix}_class_deadline_hit_ratio");
    let burn = format!("{prefix}_slo_burn_rate");
    for c in &classes.classes {
        let name = c.class.name();
        m.counter(
            &requests,
            "Terminal requests per workload class.",
            &[("class", name)],
            c.count as f64,
        );
        for (q, v) in [("0.5", c.p50_us), ("0.99", c.p99_us)] {
            m.gauge(
                &latency,
                "End-to-end latency quantiles per workload class, microseconds.",
                &[("class", name), ("quantile", q)],
                v as f64,
            );
        }
        m.gauge(
            &hit_ratio,
            "Fraction of deadline-carrying requests that met their deadline.",
            &[("class", name)],
            c.deadline_hit_ratio(),
        );
        for (&(window, _), &rate) in SLO_WINDOWS.iter().zip(&c.burn_rates) {
            m.gauge(
                &burn,
                "Deadline-SLO burn rate (miss rate over error budget) per window.",
                &[("class", name), ("window", window)],
                rate,
            );
        }
        if !c.samples_us.is_empty() {
            m.log_histogram_us(
                &hist,
                "End-to-end latency per workload class (power-of-two buckets, \
                 microseconds); the tail bucket carries the slowest request's \
                 trace id as an exemplar.",
                &[("class", name)],
                &c.samples_us,
                c.slowest,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassTracker;
    use crate::stats::tests::{broke_down, solved};
    use crate::stats::StatsRegistry;
    use crate::SolveMethod;
    use batsolv_trace::{
        check_prom_conformance, parse_prom_labeled, parse_prom_value, WorkloadClass,
    };
    use std::time::Duration;

    #[test]
    fn page_agrees_with_the_snapshot() {
        let r = StatsRegistry::new();
        r.on_accepted();
        r.on_accepted();
        r.on_rejected("queue_full");
        r.breaker_trips
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        r.on_batch(2, 2.5e-4, 0, 0);
        let mut rho = broke_down(Some("rho"), 3);
        if let Err(crate::SolveError::NotConverged { iterations, .. }) = &mut rho {
            *iterations = 9;
        }
        for (outcome, wait) in [(solved(SolveMethod::Bicgstab, 7, 1), 40), (rho, 60)] {
            let wait = Duration::from_micros(wait);
            r.on_outcome(&outcome, Some((wait, wait)));
        }
        let s = r.snapshot();
        let page = prometheus_text(&s);
        assert_eq!(
            parse_prom_value(&page, "batsolv_requests_accepted_total"),
            Some(s.accepted as f64)
        );
        assert_eq!(
            parse_prom_value(&page, "batsolv_requests_rejected_total"),
            Some(s.rejected_queue_full as f64),
            "first rejected sample is the queue_full label"
        );
        assert_eq!(
            parse_prom_value(&page, "batsolv_requests_completed_total"),
            Some(s.completed() as f64)
        );
        assert_eq!(
            parse_prom_value(&page, "batsolv_batches_formed_total"),
            Some(1.0)
        );
        assert_eq!(
            parse_prom_value(&page, "batsolv_solver_iterations_total"),
            Some(16.0)
        );
        assert_eq!(
            parse_prom_value(&page, "batsolv_queue_wait_p50_us"),
            Some(s.queue_wait_p50.as_secs_f64() * 1e6)
        );
        assert!(
            (parse_prom_value(&page, "batsolv_sim_kernel_time_seconds").unwrap() - 2.5e-4).abs()
                < 1e-12
        );
        assert!(page.contains("batsolv_breakdowns_total{kind=\"rho\"} 1\n"));
        assert!(page.contains("batsolv_rungs_attempted_total{rungs=\"3\"} 1\n"));
        assert_eq!(
            parse_prom_value(&page, "batsolv_breaker_trips_total"),
            Some(1.0)
        );
        // Batch-size histogram: size 2 lands in the le="3" bucket and the
        // buckets are cumulative.
        assert_eq!(
            parse_prom_labeled(&page, "batsolv_batch_size_bucket", &[("le", "1")]),
            Some(0.0)
        );
        assert_eq!(
            parse_prom_labeled(&page, "batsolv_batch_size_bucket", &[("le", "3")]),
            Some(1.0)
        );
        assert_eq!(
            parse_prom_labeled(&page, "batsolv_batch_size_bucket", &[("le", "+Inf")]),
            Some(1.0)
        );
        assert_eq!(parse_prom_value(&page, "batsolv_batch_size_sum"), Some(2.0));
    }

    #[test]
    fn empty_snapshot_renders_a_complete_page() {
        let page = prometheus_text(&StatsRegistry::new().snapshot());
        for name in [
            "batsolv_requests_accepted_total",
            "batsolv_requests_rejected_total",
            "batsolv_outcomes_total",
            "batsolv_batches_formed_total",
            "batsolv_batch_size",
            "batsolv_queue_wait_p50_us",
            "batsolv_sim_kernel_time_seconds",
        ] {
            assert!(
                page.contains(&format!("# TYPE {name} ")),
                "{name} family missing"
            );
        }
        // No samples: breakdowns are omitted, everything else is zero.
        assert!(!page.contains("batsolv_breakdowns_total"));
        assert_eq!(
            parse_prom_value(&page, "batsolv_requests_accepted_total"),
            Some(0.0)
        );
    }

    #[test]
    fn page_is_exposition_conformant_with_and_without_classes() {
        let r = StatsRegistry::new();
        r.on_accepted();
        r.on_batch(1, 1e-6, 0, 0);
        let wait = Duration::from_micros(10);
        r.on_outcome(&solved(SolveMethod::Bicgstab, 5, 1), Some((wait, wait)));
        let s = r.snapshot();
        check_prom_conformance(&prometheus_text(&s)).expect("classless page conforms");

        let t = ClassTracker::new();
        t.observe(WorkloadClass::IonLike, 120, Some(3), Some(true));
        t.observe(WorkloadClass::ElectronLike, 9_000, Some(4), Some(false));
        let page = prometheus_text_with_classes(&s, Some(&t.snapshot()));
        check_prom_conformance(&page).expect("class page conforms");
        assert_eq!(
            parse_prom_labeled(
                &page,
                "batsolv_class_requests_total",
                &[("class", "ion-like")]
            ),
            Some(1.0)
        );
        assert_eq!(
            parse_prom_labeled(
                &page,
                "batsolv_class_latency_us",
                &[("class", "ion-like"), ("quantile", "0.99")]
            ),
            Some(120.0)
        );
        assert_eq!(
            parse_prom_labeled(
                &page,
                "batsolv_class_deadline_hit_ratio",
                &[("class", "electron-like")]
            ),
            Some(0.0)
        );
        assert!(
            parse_prom_labeled(
                &page,
                "batsolv_slo_burn_rate",
                &[("class", "electron-like"), ("window", "1m")]
            )
            .unwrap()
                > 1.0
        );
        // The slow request's trace id rides the tail bucket as an exemplar.
        assert!(page.contains("trace_id=\"4\""), "{page}");
    }

    #[test]
    fn precond_and_autotune_series_render_and_conform() {
        let r = StatsRegistry::new();
        r.set_precond("ilu0");
        let choices = vec![
            AutotuneChoice {
                class: WorkloadClass::IonLike,
                solver: "pipelined-bicgstab",
                precond: "jacobi",
                observations: 17,
                revision: 0,
            },
            AutotuneChoice {
                class: WorkloadClass::ElectronLike,
                solver: "bicgstab",
                precond: "ilu0",
                observations: 40,
                revision: 2,
            },
        ];
        let page = prometheus_text_full(&r.snapshot(), None, &choices);
        check_prom_conformance(&page).expect("autotune page conforms");
        assert_eq!(
            parse_prom_labeled(&page, "batsolv_precond_info", &[("precond", "ilu0")]),
            Some(1.0)
        );
        for c in &choices {
            assert_eq!(
                parse_prom_labeled(
                    &page,
                    "batsolv_autotune_info",
                    &[
                        ("class", c.class.name()),
                        ("solver", c.solver),
                        ("precond", c.precond),
                    ],
                ),
                Some(1.0)
            );
            assert_eq!(
                parse_prom_labeled(
                    &page,
                    "batsolv_autotune_observations_total",
                    &[("class", c.class.name())],
                ),
                Some(c.observations as f64)
            );
            assert_eq!(
                parse_prom_labeled(
                    &page,
                    "batsolv_autotune_revision",
                    &[("class", c.class.name())],
                ),
                Some(c.revision as f64)
            );
        }
        // No autotuner, no autotune families.
        let bare = prometheus_text(&r.snapshot());
        assert!(!bare.contains("batsolv_autotune_"));
    }
}
