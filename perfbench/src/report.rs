//! The metric registry and the result line.
//!
//! Every run prints every metric of its kind: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A layer a
//! workload does not exercise reports 0 (see `perfbench/README.md`).

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("systems_per_s", "1/s"),
    ("sim_us_per_system", "us"),
    ("slo_met_frac", "frac"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("xgc.generate_us_per_system", "us"),
    ("formats.spmv_ns_per_nnz", "ns"),
    ("formats.spmv_bw_frac", "frac"),
    ("formats.spmv_bytes_computed", "bytes"),
    ("formats.spmv_sim_us", "us"),
    ("formats.from_csr_us_per_system", "us"),
    ("blas.dot_ns_per_elem", "ns"),
    ("blas.axpy_ns_per_elem", "ns"),
    ("solvers.iters_ion_mean", "count"),
    ("solvers.iters_electron_mean", "count"),
    ("solvers.iter_ns_per_row", "ns"),
    ("solvers.jacobi_apply_ns_per_row", "ns"),
    ("solvers.ilu0_apply_ns_per_row", "ns"),
    ("solvers.banded_lu_ms_per_system", "ms"),
    ("solvers.true_residual_max_over_tol", "ratio"),
    ("gpusim.syncs_per_iter", "count"),
    ("gpusim.launches_per_batch", "count"),
    ("gpusim.global_vectors", "count"),
    ("gpusim.sim_us_per_request", "us"),
    ("runtime.execute_ms", "ms"),
    ("runtime.queue_wait_ms_p50", "ms"),
    ("runtime.queue_wait_ms_tail", "ms"),
    ("runtime.service_ms_p50", "ms"),
    ("runtime.batch_size_mean", "count"),
    ("runtime.batches_per_s", "1/s"),
    ("runtime.escalated_frac", "frac"),
    ("runtime.rejected_frac", "frac"),
    ("fleet.submit_group_us_p50", "us"),
    ("fleet.queue_wait_ms_tail", "ms"),
    ("fleet.spill_frac", "frac"),
    ("fleet.steals_per_100_groups", "count"),
    ("fleet.shed_frac", "frac"),
    ("fleet.shard_imbalance", "ratio"),
    ("fleet.chunks_per_group", "count"),
    ("trace.overhead_frac", "frac"),
    ("host.stream_gbs", "GB/s"),
    ("bench.generator_late_ms_tail", "ms"),
    ("bench.span_overhead_frac", "frac"),
    ("bench.slo_miss_frac", "frac"),
    ("bench.samples", "count"),
];

/// Collected metric values of one run.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Operation counts and the output check of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that failed the check (a wrong answer, not a refusal).
    pub wrong: u64,
}

impl Outcome {
    pub fn add(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Render the result line for `registry`. Fails if a registered metric
/// is missing or not finite.
pub fn result_line(
    registry: &[(&'static str, &'static str)],
    metrics: &Metrics,
    outcome: Outcome,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(registry.len());
    for &(name, unit) in registry {
        let v = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.wrong == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric `name` declared in `BENCHMARK.json`, in file order.
    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn result_line_has_every_metric_and_fails_on_a_gap() {
        let reg = [("a_ms", "ms"), ("b", "count")];
        let mut m = Metrics::default();
        m.set("a_ms", 1.25);
        let o = Outcome {
            attempted: 3,
            failed: 1,
            wrong: 0,
        };
        assert!(result_line(&reg, &m, o).is_err());
        m.set("b", 2.0);
        let line = result_line(&reg, &m, o).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        m.set("b", f64::NAN);
        assert!(result_line(&reg, &m, o).is_err());
    }
}
