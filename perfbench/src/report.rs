//! Metric names, medians and the result line.
//!
//! The two lists below are the benchmark's contract with `BENCHMARK.json`:
//! an untraced run reports exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`], and a test checks that the JSON file names the same set.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.assemble_s", "s"),
    ("core.run_s", "s"),
    ("sim.engine_cpu_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.engine_blocked_s", "s"),
    ("apps.cpu_s", "s"),
    ("sim.attributed_share", "ratio"),
    ("host.cpu_s", "s"),
    ("host.cpu_per_wall", "ratio"),
    ("bench.trace_overhead_s", "s"),
    ("apps.ppm.step_us", "us"),
    ("apps.wavelet.analyze2d_us", "us"),
    ("apps.nbody.step_us", "us"),
    ("trace.summary_s", "s"),
    ("trace.encode_ns_per_record", "ns"),
    ("trace.decode_ns_per_record", "ns"),
    ("trace.chunked_decode_ns_per_record", "ns"),
    ("stream.observe_ns_per_record", "ns"),
    ("conform.fingerprint_ns_per_record", "ns"),
    ("disk.replay_ns_per_req", "ns"),
    ("obs.collect_s", "s"),
    ("obs.chrome_export_s", "s"),
    ("obs.proc_export_s", "s"),
    ("obs.export_bytes", "bytes"),
    ("obs.spans", "count"),
    ("sim.events", "count"),
    ("trace.records", "count"),
    ("kernel.cache.hit_ratio", "ratio"),
    ("kernel.cache.misses", "count"),
    ("kernel.cache.dirty_evictions", "count"),
    ("kernel.vm.faults", "count"),
    ("kernel.vm.swap_ins", "count"),
    ("kernel.vm.swap_outs", "count"),
    ("kernel.vm.page_ins", "count"),
    ("disk.submitted", "count"),
    ("disk.dispatched", "count"),
    ("disk.merge_ratio", "ratio"),
    ("disk.busy_s", "s"),
    ("disk.max_queue_depth", "count"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
];

/// The `q` quantile of a non-empty sample, interpolating linearly between
/// the two nearest order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples gathered per metric name; reported as medians.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Add one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// All samples of `name` (empty if none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// One reported value per metric of `list`, in list order: the median
    /// and its sample count. A metric nobody measured is an error, never
    /// a zero.
    pub fn medians(&self, list: &[(&'static str, &'static str)]) -> Result<Vec<Reported>, String> {
        list.iter()
            .map(|&(name, unit)| {
                let v = self.get(name);
                if v.is_empty() {
                    return Err(format!("metric {name} was not measured"));
                }
                let value = median(v);
                if !value.is_finite() {
                    return Err(format!("metric {name} is not finite: {value}"));
                }
                Ok(Reported {
                    name,
                    unit,
                    value,
                    samples: v.len(),
                    q1: quantile(v, 0.25),
                    q3: quantile(v, 0.75),
                })
            })
            .collect()
    }
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median value.
    pub value: f64,
    /// Samples behind the median.
    pub samples: usize,
    /// Lower quartile of the samples.
    pub q1: f64,
    /// Upper quartile of the samples.
    pub q3: f64,
}

/// Human-readable metric table.
pub fn table(metrics: &[Reported]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "  {:<36} {:>20} {:<6} (median of {}, quartiles {} to {})\n",
                m.name, m.value, m.unit, m.samples, m.q1, m.q3
            )
        })
        .collect()
}

/// The machine-readable result line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn unmeasured_metric_is_an_error() {
        let mut s = Samples::default();
        s.push("wall_s", 1.5);
        assert!(s.medians(&[("wall_s", "s")]).is_ok());
        assert!(s.medians(END_TO_END).is_err());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let m = Reported {
            name: "wall_s",
            unit: "s",
            value: 0.25,
            samples: 3,
            q1: 0.25,
            q3: 0.25,
        };
        assert_eq!(
            json_line(true, 4, 0, &[m]),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` at the checkout root must name exactly the metrics
    /// the harness reports.
    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
        }
        let workloads = crate::workloads::Workload::ALL.len();
        let entries = text.matches("\"name\":").count();
        assert_eq!(entries, workloads + END_TO_END.len() + PER_LAYER.len());
    }
}
