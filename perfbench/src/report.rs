//! The result line, the detail line and the run fingerprint.

use inf2vec_util::json::push_json_string;

use crate::Args;

/// One correctness gate and what it saw.
#[derive(Debug)]
pub struct Gate {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub gates: Vec<Gate>,
    /// Generated input sizes, for the fingerprint.
    pub inputs: Vec<(&'static str, u64)>,
    /// Free-form numbers for the detail line (sample counts, traced
    /// wall time, tracing overhead, ...).
    pub detail: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An outcome with `attempted` ops, none failed yet.
    pub fn new(attempted: u64) -> Self {
        Self {
            correct: true,
            attempted,
            ..Self::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn input(&mut self, name: &'static str, value: u64) {
        self.inputs.push((name, value));
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.detail.push((name, value));
    }

    /// Records a gate; a failed gate marks the run incorrect and counts
    /// `failed_ops` failed operations (at least one).
    pub fn gate(&mut self, name: &'static str, passed: bool, detail: String, failed_ops: u64) {
        if !passed {
            self.correct = false;
            self.failed += failed_ops.max(1);
        }
        self.gates.push(Gate {
            name,
            passed,
            detail,
        });
    }

    /// Adds the gate every run has: all metric values are finite.
    pub fn check_finite(&mut self) {
        let bad: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0)
            .collect();
        let detail = format!("non-finite metrics: {bad:?}");
        self.gate("finite_metrics", bad.is_empty(), detail, 1);
    }

    /// Prints the human-readable summary to stderr, then the detail line
    /// and, last, the result line to stdout.
    pub fn print(&self, args: &Args, fp: &Fingerprint) {
        let mode = if args.trace { "traced" } else { "untraced" };
        eprintln!("== {} seed {} ({mode}) ==", args.workload, args.seed);
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<28} {value:>14.6} {unit}");
        }
        for (name, value) in &self.detail {
            eprintln!("  ({name} = {value})");
        }
        for g in &self.gates {
            let verdict = if g.passed { "ok" } else { "FAILED" };
            eprintln!("  gate {:<24} {verdict}: {}", g.name, g.detail);
        }

        let mut d = String::from("{\"detail\":{\"workload\":");
        push_json_string(&mut d, &args.workload);
        d.push_str(&format!(
            ",\"seed\":{},\"trace\":{}",
            args.seed, args.trace as u8
        ));
        d.push_str(",\"fingerprint\":");
        fp.push_json(&mut d);
        d.push_str(",\"inputs\":{");
        for (i, (name, value)) in self.inputs.iter().enumerate() {
            if i > 0 {
                d.push(',');
            }
            push_json_string(&mut d, name);
            d.push_str(&format!(":{value}"));
        }
        d.push_str("},\"numbers\":{");
        for (i, (name, value)) in self.detail.iter().enumerate() {
            if i > 0 {
                d.push(',');
            }
            push_json_string(&mut d, name);
            d.push(':');
            push_number(&mut d, *value);
        }
        d.push_str("},\"gates\":{");
        for (i, g) in self.gates.iter().enumerate() {
            if i > 0 {
                d.push(',');
            }
            push_json_string(&mut d, g.name);
            d.push_str(if g.passed { ":true" } else { ":false" });
        }
        d.push_str("}}}");
        println!("{d}");

        let mut r = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                r.push(',');
            }
            push_json_string(&mut r, name);
            r.push_str(":{\"value\":");
            push_number(&mut r, *value);
            r.push_str(",\"unit\":");
            push_json_string(&mut r, unit);
            r.push('}');
        }
        r.push_str("}}");
        println!("{r}");
    }
}

/// JSON has no infinities or NaN; a non-finite number prints as `null`
/// (and fails the `finite_metrics` gate before it gets here).
fn push_number(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x}"));
    } else {
        out.push_str("null");
    }
}

/// Where a result was measured.
#[derive(Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub fs_type: String,
    pub source_rev: String,
}

impl Fingerprint {
    pub fn collect(args: &Args) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            fs_type: args.fs_type.clone(),
            source_rev: args.source_rev.clone(),
        }
    }

    fn push_json(&self, out: &mut String) {
        out.push_str(&format!("{{\"nproc\":{},\"cpu_model\":", self.nproc));
        push_json_string(out, &self.cpu_model);
        out.push_str(",\"fs_type\":");
        push_json_string(out, &self.fs_type);
        out.push_str(",\"source_rev\":");
        push_json_string(out, &self.source_rev);
        out.push('}');
    }
}
