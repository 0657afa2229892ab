//! Metric names and units, order statistics, and the result line.

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("frames_per_s", "1/s"),
    ("cpu_us_per_frame", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("splitter.router_ns_per_frame", "ns"),
    ("framer.frame_ns_per_frame", "ns"),
    ("extract.extract_ns_per_frame", "ns"),
    ("score.score_ns_per_frame", "ns"),
    ("reorder.merge_ns_per_frame", "ns"),
    ("extract.failures_frac", "fraction"),
    ("score.anomaly_frac", "fraction"),
    ("update.quarantined_sas", "count"),
    ("update.retrain_due_events", "count"),
    ("fusion.voter_disagreements", "count"),
    ("fusion.drift_verdicts", "count"),
    ("fusion.voter_outages", "count"),
    ("pipeline.feed_block_s", "s"),
    ("pipeline.queue_depth_max", "count"),
    ("shard.skew", "ratio"),
    ("shard.sheds", "count"),
    ("health.degraded_frac", "fraction"),
    ("health.restarts", "count"),
    ("cpu.sys_frac", "fraction"),
    ("cpu.unattributed_frac", "fraction"),
    ("cpu.pipeline_us_per_frame", "us"),
    ("cpu.generator_us_per_frame", "us"),
    ("host.steal_frac", "fraction"),
    ("gen.late_max_ms", "ms"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("latency_p99_us", "us"),
    ("latency_max_us", "us"),
    ("frames_failed_frac", "fraction"),
    ("trace.st_frames_per_s", "1/s"),
    ("trace.st_cpu_us_per_frame", "us"),
    ("trace.overhead_frac", "fraction"),
    ("trace.framer_ns_per_frame", "ns"),
    ("trace.peek_ns_per_frame", "ns"),
    ("trace.extract_ns_per_frame", "ns"),
    ("trace.score_ns_per_frame", "ns"),
    ("trace.fusion_ns_per_frame", "ns"),
];

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The nearest-rank `q`-quantile of `values` (0 when empty); `q = 1` is
/// the maximum.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The result line under construction.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    attempted: u64,
    failed: u64,
    table: &'static [(&'static str, &'static str)],
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// A report of the end-to-end (`trace == false`) or per-layer metrics.
    pub fn new(correct: bool, attempted: u64, failed: u64, trace: bool) -> Report {
        Report {
            correct,
            attempted,
            failed,
            table: if trace { &PER_LAYER } else { &END_TO_END },
            values: Vec::new(),
        }
    }

    /// Records one metric; its name must be in the report's table.
    pub fn push(&mut self, name: &str, value: f64) -> Result<(), String> {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("metric {name} is not in the table"))?;
        if self.values.iter().any(|(n, _, _)| *n == name) {
            return Err(format!("metric {name} recorded twice"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        self.values.push((name, unit, value));
        Ok(())
    }

    /// Checks that every metric of the table was recorded.
    pub fn finish(&self) -> Result<(), String> {
        match self
            .table
            .iter()
            .find(|(name, _)| !self.values.iter().any(|(n, _, _)| n == name))
        {
            Some((name, _)) => Err(format!("metric {name} was not recorded")),
            None => Ok(()),
        }
    }

    /// The result as one JSON object on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_uses_only_letters_digits_underscore_dot_and_dash() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        assert!(!valid_name("latency p50"));
        assert!(!valid_name("cpu:sys"));
    }

    #[test]
    fn the_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list end")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{section} lists {listed} metrics");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }

    #[test]
    fn report_emits_every_metric_once_as_json() {
        let mut report = Report::new(true, 10, 0, false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            report.push(name, 1.5 + i as f64).expect("known metric");
        }
        report.finish().expect("complete");
        assert!(report.push("frames_per_s", 2.0).is_err(), "duplicate");
        assert!(report.push("nope", 2.0).is_err(), "unknown");
        let json = report.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(json.contains("\"frames_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        assert!(Report::new(true, 1, 0, false).finish().is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert!((median(&values) - 3.0).abs() < f64::EPSILON);
        assert!((percentile(&values, 0.9) - 5.0).abs() < f64::EPSILON);
        assert!((percentile(&values, 0.2) - 1.0).abs() < f64::EPSILON);
        assert!(median(&[]).abs() < f64::EPSILON);
    }
}
