//! The run's output: header lines that record run validity, named metrics
//! with units, and the final one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Everything one invocation reports.
#[derive(Debug)]
pub struct Report {
    header: Vec<(String, String)>,
    metrics: BTreeMap<String, (f64, String)>,
    /// Operations attempted: reads, writes and answer checks.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, unanswered tickets and
    /// answer mismatches.
    pub failed: u64,
    failures: Vec<String>,
}

impl Default for Report {
    fn default() -> Self {
        Self::new()
    }
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report {
            header: Vec::new(),
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Record one header line.
    pub fn info(&mut self, key: &str, value: impl Display) {
        self.header.push((key.to_string(), value.to_string()));
    }

    /// Record one metric; a later value under the same name replaces it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// The value recorded under `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// Every metric: name → (value, unit).
    pub fn metrics(&self) -> &BTreeMap<String, (f64, String)> {
        &self.metrics
    }

    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failed operation and keep its description (the first few
    /// are printed in the header).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what.into());
        }
    }

    /// Descriptions of the first failures.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// True when every operation and every answer check succeeded and
    /// every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.values().all(|(v, _)| v.is_finite())
    }

    /// Share of attempted operations that succeeded.
    pub fn success_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }

    /// The final result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_string(name),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Header lines (`# key: value`), then failures, then the JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.header {
            out.push_str(&format!("# {k}: {v}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("# FAILED: {f}\n"));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::new();
        r.attempt(3);
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.fail("mismatch");
        assert!(!r.correct());
        assert!((r.success_frac() - 2.0 / 3.0).abs() < 1e-12);
    }
}
