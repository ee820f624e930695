//! The traced run's timers: the benchmark's own clocks around calls into
//! each module's public functions, summed per layer.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer totals: times in milliseconds and work counts.
#[derive(Default)]
pub struct Layers {
    ms: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
}

impl Layers {
    /// Runs `f`, adding its wall time to layer `name` (and, with a
    /// `split`, to `name.<split>` as well).
    pub fn time<T>(&mut self, name: &str, split: Option<&str>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        *self.ms.entry(name.to_string()).or_default() += ms;
        if let Some(s) = split {
            *self.ms.entry(format!("{name}.{s}")).or_default() += ms;
        }
        out
    }

    pub fn count(&mut self, name: &str, n: usize) {
        *self.counts.entry(name.to_string()).or_default() += n as f64;
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn get_count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The sum of the named layers' times.
    pub fn sum_ms(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.ms(n)).sum()
    }
}

/// `le64` or `gt64`: which side of one 64-bit bag word an instance's
/// vertex count falls on.
pub fn word_split(num_vertices: usize) -> &'static str {
    if num_vertices <= 64 {
        "le64"
    } else {
        "gt64"
    }
}
