//! Summary statistics and the metric report every run prints.

use std::fmt::Write as _;

/// The value at quantile `q` (0..=1) of `samples`, by the nearest-rank
/// rule on the sorted samples. Empty input gives 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// The arithmetic mean of `samples`; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median over rounds of each round's mean: a whole-list aggregate
/// that a burst of host noise in one round does not move.
pub fn median_of_means(rounds: &[Vec<f64>]) -> f64 {
    let means: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| mean(r))
        .collect();
    median(&means)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail quantile a metric may claim over `n` samples: the highest of
/// 0.99, 0.95, 0.9 and 0.75 that leaves at least ten samples beyond it,
/// or the median when fewer than forty samples exist (no tail at all).
pub fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        // The tolerance absorbs 1.0 - 0.9 landing just below 0.1.
        .find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB, read from
/// procfs; `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One metric of the final report.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The one-line JSON result: the last line a run prints.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they cannot arise from the
            // measurements here, but never print an unparseable line.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(quantile(&v, 0.9), 91.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(48), 0.75);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(1000), 0.99);
    }

    #[test]
    fn report_is_one_json_line() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.push("p50_ms", 1.25, "ms");
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }
}
