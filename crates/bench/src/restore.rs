//! The `restore` and `verify-archive` subcommands: operate on the
//! segmented archive store (`<log>.archive.d/`) that the pipeline's
//! compaction seals behind the live action log.
//!
//! ```text
//! repro restore [--archive-log FILE] [--restore-out FILE]
//! repro verify-archive [--archive-log FILE] [--archive-report FILE]
//! ```
//!
//! `restore` rebuilds the full logical stream — every archived segment's
//! payload followed by the live log's payload — verifying each segment's
//! checksum on the way, and writes it atomically to the output path. When
//! a `shadow.log` ground-truth file sits next to the log (the soak
//! harness writes one), the reconstruction is byte-compared against it.
//!
//! `verify-archive` re-checksums every segment, checks the manifest
//! chain (contiguous offsets/lines, no gaps), and confirms the archive
//! is contiguous with the live log's compaction sentinel. It exits
//! non-zero on any corruption — this is what CI runs after the long
//! soak to prove the retained history is still restorable.

use std::path::PathBuf;

use inf2vec_ingest::{archive_dir, ArchiveStore};
use inf2vec_util::fnv1a;
use inf2vec_util::json;

use crate::common::Opts;
use crate::die;

/// The action log the archive commands operate on: `--archive-log`,
/// defaulting to the soak workdir's `actions.log`.
fn target_log(opts: &Opts) -> PathBuf {
    opts.archive_log
        .clone()
        .unwrap_or_else(|| opts.out.join("soak").join("actions.log"))
}

/// Runs `repro restore`: archive ++ live payload → `--restore-out`.
pub fn restore(opts: &Opts) {
    let log = target_log(opts);
    if !log.exists() {
        die(&format!(
            "no action log at {} (run `repro soak` first, or point --archive-log at one)",
            log.display()
        ));
    }
    let out = opts
        .restore_out
        .clone()
        .unwrap_or_else(|| opts.out.join("soak").join("restored.log"));
    let store = ArchiveStore::open(archive_dir(&log))
        .unwrap_or_else(|e| die(&format!("cannot open archive for {}: {e}", log.display())));
    let stats = store
        .restore_to(&log, &out)
        .unwrap_or_else(|e| die(&format!("restore failed: {e}")));

    let restored = std::fs::read(&out)
        .unwrap_or_else(|e| die(&format!("cannot read back {}: {e}", out.display())));
    let payload = &restored[stats.sentinel_len as usize..];
    opts.say(&format!(
        "[restore] {} segments + live tail -> {} ({} archived + {} live payload bytes from logical offset {})",
        stats.segments,
        out.display(),
        stats.archived_bytes,
        stats.live_bytes,
        stats.start_offset,
    ));
    opts.say(&format!(
        "[restore] payload checksum {:016x} ({} bytes, first retained line {})",
        fnv1a(payload),
        payload.len(),
        stats.start_line,
    ));

    // The soak harness keeps an untouched ground-truth copy of every
    // byte it wrote; when present, the reconstruction must match it.
    let shadow_path = log.with_file_name("shadow.log");
    if shadow_path.exists() {
        let shadow = std::fs::read(&shadow_path)
            .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", shadow_path.display())));
        let identical = shadow.len() as u64 >= stats.start_offset
            && payload == &shadow[stats.start_offset as usize..];
        opts.say(&format!(
            "[restore] shadow comparison: restored payload {} shadow.log suffix",
            if identical { "==" } else { "!=" },
        ));
        if !identical {
            die("restored stream diverges from the shadow ground truth");
        }
    }
}

/// Runs `repro verify-archive`: checksums, chain, live contiguity.
pub fn verify_archive(opts: &Opts) {
    let log = target_log(opts);
    if !log.exists() {
        die(&format!(
            "no action log at {} (run `repro soak` first, or point --archive-log at one)",
            log.display()
        ));
    }
    let store = ArchiveStore::open(archive_dir(&log))
        .unwrap_or_else(|e| die(&format!("cannot open archive for {}: {e}", log.display())));
    let verify = store.verify(Some(&log));
    let report_json = verify_json(opts, &store, &verify);
    if let Some(path) = &opts.archive_report {
        match std::fs::write(path, &report_json) {
            Ok(()) => opts.note(&format!("[verify-archive] report written to {}", path.display())),
            Err(e) => die(&format!("cannot write {}: {e}", path.display())),
        }
    }
    match verify {
        Ok(report) => {
            opts.say(&format!(
                "[verify-archive] ok: {} segments, {} payload bytes, boundary seq {} offset {} line {}, end offset {}, contiguous_with_live={}",
                report.segments,
                report.payload_bytes,
                report.start.seq,
                report.start.offset,
                report.start.line,
                report.end_offset,
                report.contiguous_with_live,
            ));
        }
        Err(e) => die(&format!("archive verification failed: {e}")),
    }
}

/// The `--archive-report` JSON: the verify outcome plus enough manifest
/// state to diff across runs (CI uploads this next to the manifest).
fn verify_json(
    opts: &Opts,
    store: &ArchiveStore,
    verify: &std::io::Result<inf2vec_ingest::VerifyReport>,
) -> String {
    json::object_lines(|o| {
        o.str("archive_dir", &store.dir().display().to_string())
            .str("log", &target_log(opts).display().to_string());
        match verify {
            Ok(r) => {
                o.bool("ok", true)
                    .num("segments", r.segments)
                    .num("payload_bytes", r.payload_bytes)
                    .obj("start", |o| {
                        o.num("seq", r.start.seq)
                            .num("offset", r.start.offset)
                            .num("line", r.start.line);
                    })
                    .num("end_offset", r.end_offset)
                    .bool("contiguous_with_live", r.contiguous_with_live);
            }
            Err(e) => {
                o.bool("ok", false).str("error", &e.to_string());
            }
        }
    })
}
