//! Order statistics, span accumulation and process probes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `q` quantile's position.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Fewest samples for which the `q` quantile has at least `min_beyond`
/// samples past it.
pub fn samples_for_tail(q: f64, min_beyond: usize) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= min_beyond)
        .expect("a finite sample suffices")
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Share of `xs` at most `limit` (1 for an empty sample).
pub fn share_within(xs: &[f64], limit: f64) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    xs.iter().filter(|&&x| x <= limit).count() as f64 / xs.len() as f64
}

/// Seconds in `d`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Named span totals and counters of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    secs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f` inside a span named `name` and adds its duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, secs(t.elapsed()));
        out
    }

    /// Adds `s` seconds to span `name`.
    pub fn add(&mut self, name: &'static str, s: f64) {
        *self.secs.entry(name).or_insert(0.0) += s;
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// Total seconds of span `name` (0 when never entered).
    pub fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Value of counter `name` (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the named spans.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_and_tail_counts() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(samples_for_tail(0.9, 10), 100);
        assert_eq!(samples_for_tail(0.99, 10), 1000);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(share_within(&[1.0, 2.0, 3.0, 4.0], 2.0), 0.5);
    }
}
