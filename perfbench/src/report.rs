//! What one benchmark run reports: metrics, operations, check results.

/// Metrics plus operation and check accounting for one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (simulations, scenarios or jobs).
    pub attempted: u64,
    /// Operations that failed, including those whose output check
    /// failed.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record a failed operation or output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.fail_ops(1, what);
    }

    /// Record `n` operations that failed for the reason `what`.
    pub fn fail_ops(&mut self, n: u64, what: impl Into<String>) {
        let what = what.into();
        eprintln!("[perfbench] CHECK FAILED: {what}");
        self.failed += n;
        self.failures.push(what);
    }

    /// Fail with `what()` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Human-readable lines, one metric per line with its unit.
    pub fn print_metrics(&self) {
        for (name, value, unit) in &self.metrics {
            println!("[metric] {name} = {value} {unit}");
        }
        println!("[ops] attempted {}, failed {}", self.attempted, self.failed);
    }

    /// The final JSON line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`. Numbers print in Rust's shortest round-trip form, so
    /// every measured digit survives.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric must be a finite number; a NaN or infinity is a
    /// benchmark defect, not a measurement.
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, v, _)| format!("metric {n} is not finite ({v})"))
            .collect();
        for b in bad {
            self.fail(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.attempt(3);
        r.metric("run_s", 1.25, "s");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.attempt(2);
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "bytes differ".into());
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
        assert!(r.json_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn non_finite_metrics_fail_the_run() {
        let mut r = Report::default();
        r.attempt(1);
        r.metric("x", f64::NAN, "s");
        r.check_finite();
        assert!(!r.correct());
    }
}
