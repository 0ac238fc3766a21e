//! Order statistics and the result line.

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run of a workload reports.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations the run attempted (updates, packages, device installs).
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Worker threads the timed phase used.
    pub threads: usize,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// The result object: the last line of standard output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(value: f64) -> String {
    assert!(
        value.is_finite(),
        "metric value {value} is not a JSON number"
    );
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// Linear-interpolation quantile (`q` in 0..=1) of `values`, the
/// definition numpy and `statistics.quantiles(method="inclusive")` use.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
            threads: 1,
        };
        outcome.push("setup_s", "s", 0.25);
        outcome.push("wire_bytes_per_update", "bytes", 1024.0);
        assert_eq!(
            outcome.to_json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "wire_bytes_per_update": {"value": 1024.0, "unit": "bytes"}}}"#
        );
    }
}
