//! The quarantine report: per-defect counts, sampled offending lines, and
//! throughput, for one ingested stream.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use inf2vec_util::error::DefectKind;
use inf2vec_util::json::{self, ObjectWriter};

/// What happened to a defective record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Collapsed under every policy (duplicate edges/activations,
    /// self-loops) — the record contributed what it could.
    Normalized,
    /// Fixed under `Repair` (clamped timestamp) — the record survived.
    Repaired,
    /// Dropped under `Skip`/`Repair` — the record is gone.
    Quarantined,
}

/// One sampled offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefectSample {
    /// Defect class.
    pub kind: DefectKind,
    /// 1-based line number in the source stream.
    pub line: u64,
    /// The offending content, truncated to [`SAMPLE_MAX_CHARS`].
    pub content: String,
    /// What happened to the record.
    pub disposition: Disposition,
}

/// Longest stored/emitted sample content, in chars.
pub const SAMPLE_MAX_CHARS: usize = 160;

/// Per-stream ingestion accounting: every record is either ok,
/// normalized, repaired, or quarantined, and every defect lands in a
/// per-kind counter with the first few offenders sampled verbatim.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Which stream this report covers (`"edges"` or `"actions"`).
    pub stream: &'static str,
    /// Policy name the stream was ingested under.
    pub policy: &'static str,
    /// Physical lines seen (comments and blanks included).
    pub lines: u64,
    /// Candidate records seen (non-comment, non-blank lines).
    pub records: u64,
    /// Records ingested without any defect.
    pub records_ok: u64,
    /// Records dropped.
    pub quarantined: u64,
    /// Records fixed and kept.
    pub repaired: u64,
    /// Records collapsed by normalization (duplicates, self-loops).
    pub normalized: u64,
    /// Bytes consumed from the stream.
    pub bytes: u64,
    /// Wall-clock ingestion time.
    pub elapsed_secs: f64,
    counts: BTreeMap<DefectKind, u64>,
    samples: Vec<DefectSample>,
    max_samples_per_defect: usize,
}

impl IngestReport {
    /// An empty report for `stream` under `policy`.
    pub fn new(stream: &'static str, policy: &'static str, max_samples_per_defect: usize) -> Self {
        Self {
            stream,
            policy,
            lines: 0,
            records: 0,
            records_ok: 0,
            quarantined: 0,
            repaired: 0,
            normalized: 0,
            bytes: 0,
            elapsed_secs: 0.0,
            counts: BTreeMap::new(),
            samples: Vec::new(),
            max_samples_per_defect,
        }
    }

    /// Records one defect; returns true when the offending line was kept
    /// as a sample (callers mirror exactly those into telemetry events so
    /// event volume stays bounded too).
    pub fn note(
        &mut self,
        kind: DefectKind,
        line: u64,
        content: &str,
        disposition: Disposition,
    ) -> bool {
        *self.counts.entry(kind).or_insert(0) += 1;
        match disposition {
            Disposition::Normalized => self.normalized += 1,
            Disposition::Repaired => self.repaired += 1,
            Disposition::Quarantined => self.quarantined += 1,
        }
        let sampled = self.counts[&kind] <= self.max_samples_per_defect as u64;
        if sampled {
            self.samples.push(DefectSample {
                kind,
                line,
                content: truncate_sample(content),
                disposition,
            });
        }
        sampled
    }

    /// Total occurrences of `kind`.
    pub fn count(&self, kind: DefectKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total defects of any kind.
    pub fn total_defects(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Per-kind counts in taxonomy order (zero counts omitted).
    pub fn counts(&self) -> impl Iterator<Item = (DefectKind, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// The sampled offending lines, in arrival order.
    pub fn samples(&self) -> &[DefectSample] {
        &self.samples
    }

    /// Records per second (0 when the clock saw nothing).
    pub fn records_per_sec(&self) -> f64 {
        safe_rate(self.records, self.elapsed_secs)
    }

    /// Bytes per second (0 when the clock saw nothing).
    pub fn bytes_per_sec(&self) -> f64 {
        safe_rate(self.bytes, self.elapsed_secs)
    }

    /// One JSON object (no trailing newline): scalar totals, a `defects`
    /// map keyed by kind name, and a `samples` array.
    pub fn to_json(&self) -> String {
        json::object(|o| self.write_json(o))
    }

    /// Writes the members of [`to_json`](Self::to_json) into `o`.
    pub(crate) fn write_json(&self, o: &mut ObjectWriter<'_>) {
        o.str("stream", self.stream)
            .str("policy", self.policy)
            .num("lines", self.lines)
            .num("records", self.records)
            .num("records_ok", self.records_ok)
            .num("quarantined", self.quarantined)
            .num("repaired", self.repaired)
            .num("normalized", self.normalized)
            .num("bytes", self.bytes)
            .num("elapsed_secs", format_args!("{:?}", self.elapsed_secs))
            .num(
                "records_per_sec",
                format_args!("{:?}", self.records_per_sec()),
            )
            .num("bytes_per_sec", format_args!("{:?}", self.bytes_per_sec()))
            .obj("defects", |o| {
                for (kind, n) in self.counts() {
                    o.num(kind.name(), n);
                }
            })
            .arr("samples", |a| {
                for sample in &self.samples {
                    let disposition = match sample.disposition {
                        Disposition::Normalized => "normalized",
                        Disposition::Repaired => "repaired",
                        Disposition::Quarantined => "quarantined",
                    };
                    a.obj(|o| {
                        o.str("kind", sample.kind.name())
                            .num("line", sample.line)
                            .str("disposition", disposition)
                            .str("content", &sample.content);
                    });
                }
            });
    }

    /// A short human-readable summary, one line per populated defect kind.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "[ingest:{}] policy={} records={} ok={} quarantined={} repaired={} normalized={} \
             ({} bytes, {:.1} records/s)",
            self.stream,
            self.policy,
            self.records,
            self.records_ok,
            self.quarantined,
            self.repaired,
            self.normalized,
            self.bytes,
            self.records_per_sec(),
        );
        for (kind, n) in self.counts() {
            let _ = write!(s, "\n  {kind}: {n}");
        }
        s
    }
}

fn safe_rate(n: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

fn truncate_sample(content: &str) -> String {
    if content.chars().count() <= SAMPLE_MAX_CHARS {
        content.to_string()
    } else {
        let mut s: String = content.chars().take(SAMPLE_MAX_CHARS).collect();
        s.push('…');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_samples_are_bounded() {
        let mut r = IngestReport::new("edges", "skip", 2);
        for line in 0..5 {
            r.note(
                DefectKind::MalformedLine,
                line + 1,
                "junk",
                Disposition::Quarantined,
            );
        }
        r.note(DefectKind::SelfLoop, 9, "3 3", Disposition::Normalized);
        assert_eq!(r.count(DefectKind::MalformedLine), 5);
        assert_eq!(r.count(DefectKind::SelfLoop), 1);
        assert_eq!(r.count(DefectKind::DanglingNode), 0);
        assert_eq!(r.total_defects(), 6);
        assert_eq!(r.quarantined, 5);
        assert_eq!(r.normalized, 1);
        // Only 2 malformed samples kept + 1 self-loop.
        assert_eq!(r.samples().len(), 3);
    }

    #[test]
    fn json_is_parseable_by_the_obs_event_parser() {
        // The report object is flat-plus-two-nested; reuse the obs parser
        // on a doctored copy to validate escaping of the scalar prefix.
        let mut r = IngestReport::new("actions", "repair", 4);
        r.bytes = 100;
        r.records = 10;
        r.records_ok = 9;
        r.elapsed_secs = 0.5;
        r.note(
            DefectKind::NonFiniteTimestamp,
            3,
            "1 2 NaN\t\"quoted\"",
            Disposition::Quarantined,
        );
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"non_finite_timestamp\":1"));
        assert!(json.contains("\"records_per_sec\":20.0"));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn long_samples_are_truncated() {
        let mut r = IngestReport::new("edges", "skip", 1);
        let long = "x".repeat(500);
        r.note(DefectKind::MalformedLine, 1, &long, Disposition::Quarantined);
        assert!(r.samples()[0].content.chars().count() <= SAMPLE_MAX_CHARS + 1);
    }

    #[test]
    fn summary_mentions_each_kind() {
        let mut r = IngestReport::new("edges", "skip", 1);
        r.note(DefectKind::DuplicateEdge, 2, "0 1", Disposition::Normalized);
        let s = r.summary();
        assert!(s.contains("duplicate_edge: 1"), "{s}");
    }
}
