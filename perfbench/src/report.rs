//! Named metrics, the human-readable report and the final JSON line.

use crate::stats::Samples;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes (1 for a count).
    pub samples: usize,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        self.add(name, value as f64, "count", 1);
    }

    /// The `q`-quantile of `samples`.
    pub fn quantile(&mut self, name: &'static str, samples: &Samples, q: f64, unit: &'static str) {
        self.add(name, samples.quantile(q), unit, samples.len());
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for m in &self.0 {
            let note = if m.value.is_nan() { "  (no samples)" } else { "" };
            println!(
                "  {:<34} {:>16.4} {:<6} n={}{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}

/// A JSON number for `v`: infinite latencies (failed operations) clamp to
/// the largest finite value and a metric without samples reads 0.
fn number(v: f64) -> String {
    if v.is_nan() {
        "0".into()
    } else {
        format!("{}", v.clamp(-f64::MAX, f64::MAX))
    }
}

pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
