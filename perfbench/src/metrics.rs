//! Result line, operation accounting and process measurements.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit (`s`, `1/s`, `MiB`, `count`, ...).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// Operation tallies and metrics of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (campaign calls and replica comparisons).
    pub attempted: u64,
    /// Operations that failed: errors, panics, broken invariants, and the
    /// calls of any pass whose report digest was wrong.
    pub failed: u64,
    /// Reported metrics, in insertion order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one operation, logging its error if it failed.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED: {e}");
                None
            }
        }
    }

    /// Applies a check over `ops` operations that each succeeded on their
    /// own: if the check fails, all of them count as failed.
    pub fn check(&mut self, result: Result<(), String>, ops: usize) {
        if let Err(e) = result {
            self.failed += ops as u64;
            eprintln!("FAILED: {e}");
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Whether every operation succeeded and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed.min(self.attempted)
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat`, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median([]).is_nan());
    }

    #[test]
    fn a_failed_check_fails_the_operations_it_covers() {
        let mut r = Report::default();
        r.op::<()>(Ok(()));
        r.op::<()>(Ok(()));
        assert!(r.correct());
        r.check(Err("digest 01 differs from the expected 02".into()), 2);
        assert_eq!((r.attempted, r.failed), (2, 2));
        assert!(!r.correct());
        assert!(r
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 2"));
    }

    #[test]
    fn result_line_lists_metrics_with_units() {
        let mut r = Report::default();
        r.op::<()>(Ok(()));
        r.metric(Metric::new("wall_s", "s", 1.25));
        r.metric(Metric::new("peak_rss_mb", "MB", 97.5));
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 97.5, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn process_measurements_read_proc() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
