//! Statistics and output: percentiles, named counters, and the metric
//! table plus the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;

/// Renders a number for JSON with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of `samples`: always one of
/// the samples, never an interpolation between two unrelated inputs.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 50th and 90th nearest-rank percentiles.
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// See [`p50`].
pub fn p90(samples: &[f64]) -> f64 {
    percentile(samples, 90.0)
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Named counters, summed as they are added.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters(pub BTreeMap<String, f64>);

impl Counters {
    /// Adds `value` to counter `key`.
    pub fn add(&mut self, key: &str, value: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += value;
    }

    /// The counter's value (0 when never added).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Adds every counter of `other`.
    pub fn absorb(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    /// A JSON object of the counters.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{}", flux_bench::json::quote(k), num(*v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// Parses [`Counters::to_json`].
    pub fn from_json(value: &flux_bench::json::Value) -> Counters {
        let mut out = Counters::default();
        if let flux_bench::json::Value::Object(map) = value {
            for (k, v) in map {
                out.add(k, v.as_f64().unwrap_or(0.0));
            }
        }
        out
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Its name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub n: usize,
    /// The samples themselves, where there are several (for the result
    /// file; empty otherwise).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            samples: Vec::new(),
        }
    }

    /// A metric summarising `samples` with `summary`.
    pub fn of(
        name: &str,
        samples: &[f64],
        summary: fn(&[f64]) -> f64,
        unit: &'static str,
    ) -> Metric {
        Metric {
            samples: samples.to_vec(),
            ..Metric::new(name, summary(samples), unit, samples.len())
        }
    }
}

/// Prints the metric table, then the one-line JSON result (the last line of
/// standard output).
pub fn print_result(metrics: &[Metric], attempted: usize, failed: usize, correct: bool) {
    println!("{:<32} {:>16} {:<8} {:>6}", "metric", "value", "unit", "n");
    for m in metrics {
        println!("{:<32} {:>16.6} {:<8} {:>6}", m.name, m.value, m.unit, m.n);
    }
    let share = failed as f64 / attempted.max(1) as f64;
    println!(
        "{:<32} {:>16.6} {:<8} {:>6}",
        "fail_share", share, "ratio", attempted
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                flux_bench::json::quote(&m.name),
                num(m.value),
                flux_bench::json::quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}
