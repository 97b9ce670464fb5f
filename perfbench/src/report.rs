//! The benchmark's output: human-readable metric lines, then one JSON
//! result object as the last line of standard output.

use std::fmt::Write as _;

/// Every end-to-end metric, in `BENCHMARK.json` order, with its unit.
/// Each workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("warm_points_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("wall_s_2t", "s"),
    ("first_record_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, e.g. `ms` or `1/s`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// A run's result: correctness counters plus metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (grid points run, or points requested).
    pub attempted: u64,
    /// Failed points + wrong outputs + errored submissions.
    pub failed: u64,
    /// Descriptions of every failed check.
    pub errors: Vec<String>,
    /// Metrics for the JSON line, in order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric to the JSON line and prints it.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, note: &str) {
        print_line(name, unit, value, note);
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a failed check worth `count` failed operations.
    pub fn fail(&mut self, count: u64, message: String) {
        eprintln!("CHECK FAILED: {message}");
        self.failed += count;
        self.errors.push(message);
    }

    /// Records a failure unless the metrics are exactly `expected`, in
    /// order and with the same units (a workload that could not finish
    /// its measurements reports fewer).
    pub fn require_metrics(&mut self, expected: &[(&str, &str)]) {
        let got: Vec<(&str, &str)> = self.metrics.iter().map(|m| (m.name, m.unit)).collect();
        if got != expected {
            self.fail(
                0,
                format!(
                    "reported {} of the {} expected metrics",
                    got.iter().filter(|m| expected.contains(m)).count(),
                    expected.len()
                ),
            );
        }
    }

    /// Whether every output check passed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result object (one line, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Prints one human-readable metric line.
pub fn print_line(name: &str, unit: &str, value: f64, note: &str) {
    if note.is_empty() {
        println!("  {name:<28} {value:>14.6} {unit}");
    } else {
        println!("  {name:<28} {value:>14.6} {unit:<8} {note}");
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for
/// this process), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.metrics.push(Metric {
            name: "setup_s",
            unit: "s",
            value: 0.25,
        });
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.fail(1, "boom".to_string());
        assert!(!r.correct());
        assert_eq!(r.error_rate(), 0.25);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
