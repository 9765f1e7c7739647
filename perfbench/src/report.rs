//! Result reporting: a human-readable block of `name = value unit` lines
//! (with sample counts and load context) followed, as the last line of
//! standard output, by one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How the value was obtained (sample count, phase), for the
    /// human-readable lines only.
    pub basis: String,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations whose output failed a check (or never arrived).
    pub failed: u64,
    /// The metrics printed in the JSON line.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics (load context, the
    /// per-layer ledger, failed checks).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, basis: String) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            basis,
        });
    }

    /// Add a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record `ops` checked operations, `bad` of which failed, with the
    /// reason printed when any did.
    pub fn check(&mut self, ops: u64, bad: u64, what: &str) {
        self.attempted += ops;
        self.failed += bad;
        if bad > 0 {
            self.notes
                .push(format!("CHECK FAILED: {what} ({bad} of {ops} operations)"));
        }
    }

    /// Failed over attempted operations.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable block.
    pub fn render_text(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== perfbench {workload}");
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<28} = {:>14.4} {:<6} ({})",
                m.name, m.value, m.unit, m.basis
            );
        }
        let _ = writeln!(
            out,
            "{:<28} = {:>14.6} {:<6} ({} failed of {} attempted)",
            "error_frac",
            self.error_frac(),
            "ratio",
            self.failed,
            self.attempted
        );
        out
    }

    /// The final JSON line.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives. JSON has no infinity: an infinite latency (a refused request at
/// the percentile) becomes the largest finite value, so it still reads
/// as the worst possible; NaN (a bug in a metric) becomes 0.
fn json_number(value: f64) -> String {
    let value = if value.is_nan() {
        0.0
    } else {
        value.clamp(f64::MIN, f64::MAX)
    };
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(10, 0, "all good");
        o.metric("ops_per_s", "ops/s", 1234.5, "3 passes".into());
        o.metric("setup_s", "s", 0.25, "median of 3".into());
        assert_eq!(
            o.render_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 1234.5, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(4, 1, "one body did not validate");
        assert!(o.render_json().starts_with("{\"correct\": false"));
        assert_eq!(o.error_frac(), 0.25);
        assert!(o.render_text("x").contains("CHECK FAILED"));
    }

    #[test]
    fn non_finite_values_render_as_json_numbers() {
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(f64::INFINITY), format!("{:?}", f64::MAX));
        assert_eq!(json_number(2.0), "2.0");
    }
}
