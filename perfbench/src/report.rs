//! The result a run prints: named metrics with units, the attempted / failed
//! job counts, and the summary statistics the workloads share.

use std::fmt::Write as _;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports. The last stdout line is [`Report::json`].
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Self-check failures that are not per-job (e.g. counters that did not
    /// repeat); any of them makes the run incorrect.
    pub check_errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            eprintln!("CHECK FAILED: {message}");
            self.check_errors.push(message);
        }
    }

    /// Counts one attempted job, failed unless `ok`.
    pub fn job(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("JOB FAILED: {}", what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_errors.is_empty() && self.attempted > 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
        }
        out
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
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
}

/// Integers print without a fraction; everything else with all the digits
/// Rust's shortest round-trip formatting gives.
fn json_number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The closed-loop summary of per-case call times (seconds, one vector per
/// case of the slate, one entry per pass; every case has as many entries).
/// `elements_per_s` is Σ n over all calls ÷ Σ of their times. `job_p50_ms`
/// and `job_p95_ms` are each case's median and 95th-percentile time,
/// combined by geometric mean so that every case weighs the same although
/// their times differ by orders of magnitude.
pub fn put_closed_loop(report: &mut Report, sizes: &[usize], times: &[Vec<f64>]) {
    let per_case = |q: f64| -> Vec<f64> { times.iter().map(|t| quantile(t, q)).collect() };
    let elements: f64 = sizes
        .iter()
        .zip(times)
        .map(|(&n, t)| (n * t.len()) as f64)
        .sum();
    let total: f64 = times.iter().flatten().sum();
    report.put("elements_per_s", elements / total, "elements/s");
    report.put("job_p50_ms", geomean(&per_case(0.5)) * 1e3, "ms");
    report.put("job_p95_ms", geomean(&per_case(0.95)) * 1e3, "ms");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn geomean_weighs_cases_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn json_has_the_contract_keys() {
        let mut r = Report::default();
        r.job(true, String::new);
        r.put("latency_ms", 1.25, "ms");
        r.put("count", 3.0, "count");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }
}
