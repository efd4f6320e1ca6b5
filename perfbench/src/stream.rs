//! `stream-digg`: the continuous pipeline with the default config.
//!
//! The input is an endless digg-like action stream over the 2K-user
//! preset graph: the training episodes are replayed cycle after cycle
//! under fresh item ids, `SLOTS` of them interleaved round-robin so
//! episodes open and close at a steady rate, with about 1% malformed or
//! dangling lines. One op appends `CHUNK` lines to the log and calls
//! `Pipeline::run_until_idle`, which returns once the journal has
//! committed them. Snapshots publish through `RegistrySink` into a
//! `ModelRegistry`.
//!
//! The traced half follows every op with a replay from outside: a mirror
//! of the pipeline (its own `LogTail`, episode assembly, `episode_pairs`,
//! `OnlineSgns`, `Journal` and registry) redoes the op's work call by
//! call under spans, and must land on the pipeline's exact model
//! checksum after every op. The pipeline's own counters give the journal
//! write and publish counts the replay multiplies.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inf2vec_core::episode_pairs;
use inf2vec_diffusion::synth::{generate, SyntheticConfig};
use inf2vec_diffusion::{Episode, ItemId};
use inf2vec_embed::{EmbeddingStore, NegativeTable, OnlineSgns};
use inf2vec_eval::activation::ActivationTask;
use inf2vec_eval::{Aggregator, ScoringModel};
use inf2vec_graph::{DiGraph, NodeId};
use inf2vec_ingest::{LogTail, TailItem};
use inf2vec_pipeline::{
    Journal, JournalState, OpenItemState, Pipeline, PipelineConfig, Reconciliation, RegistrySink,
};
use inf2vec_serve::{store_checksum, ModelRegistry};
use inf2vec_util::rng::{split_seed, Xoshiro256pp};

use crate::report::Outcome;
use crate::stats::{
    beyond, median, peak_rss_mb, quantile, samples_for_tail, secs, share_within, sorted, Layers,
};
use crate::Args;

/// How far the replayed layers may overshoot the traced wall time, as a
/// share of it, before the trace counts as inconsistent.
const REPLAY_TOLERANCE: f64 = 0.05;
/// Lines appended per op.
const CHUNK: usize = 256;
/// Episodes interleaved at any time (below `close_after`, so an episode
/// never closes while it is still being emitted).
const SLOTS: usize = 16;
/// One line in this many is defective.
const DEFECT_EVERY: u64 = 100;
/// Warm-up ops per set-up (lazy row initialisation, open-episode fill).
const WARMUP_OPS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The tail percentile reported as `op_tail_ms`.
const TAIL_Q: f64 = 0.9;
/// The model scored for `auc` is the one after this many timed ops, so
/// the number does not depend on how far a run gets; `train_s` is the
/// time those ops took.
const AUC_AT_OP: usize = 90;
/// The commit latency limit behind `slo_share` (about five median ops).
const SLO_S: f64 = 1.0;

/// One interleaved episode: item id, activations, next index.
type Slot = (u32, Vec<(NodeId, u64)>, usize);

/// The endless, seeded action stream.
struct StreamGen {
    episodes: Vec<Episode>,
    item_stride: u32,
    order: Vec<usize>,
    next: usize,
    cycle: u32,
    slots: Vec<Slot>,
    rr: usize,
    rng: Xoshiro256pp,
    n_users: u32,
    good: u64,
    bad: u64,
}

impl StreamGen {
    fn new(episodes: Vec<Episode>, item_stride: u32, n_users: u32, seed: u64) -> Self {
        let mut g = Self {
            order: (0..episodes.len()).collect(),
            episodes,
            item_stride,
            next: 0,
            cycle: 0,
            slots: Vec::new(),
            rr: 0,
            rng: Xoshiro256pp::new(seed),
            n_users,
            good: 0,
            bad: 0,
        };
        g.rng.shuffle(&mut g.order);
        for _ in 0..SLOTS {
            let s = g.next_episode();
            g.slots.push(s);
        }
        g
    }

    fn next_episode(&mut self) -> Slot {
        if self.next == self.order.len() {
            self.next = 0;
            self.cycle += 1;
            self.rng.shuffle(&mut self.order);
        }
        let e = &self.episodes[self.order[self.next]];
        self.next += 1;
        let base = u64::from(self.cycle) * 1_000_000;
        let acts = e
            .activations()
            .iter()
            .map(|&(u, t)| (u, base + t))
            .collect();
        (self.cycle * self.item_stride + e.item.0, acts, 0)
    }

    /// Appends one line to `out`.
    fn line(&mut self, out: &mut String) {
        use std::fmt::Write as _;
        if self.rng.below(DEFECT_EVERY) == 0 {
            self.bad += 1;
            if self.rng.chance(0.5) {
                let _ = writeln!(out, "garbled record {}", self.rng.below(1 << 20));
            } else {
                let _ = writeln!(out, "{}\t7\t7", self.n_users + self.rng.below(1000) as u32);
            }
            return;
        }
        let slot = self.rr % SLOTS;
        self.rr += 1;
        if self.slots[slot].2 == self.slots[slot].1.len() {
            self.slots[slot] = self.next_episode();
        }
        let (item, acts, i) = &mut self.slots[slot];
        let (u, t) = acts[*i];
        *i += 1;
        self.good += 1;
        let _ = writeln!(out, "{}\t{}\t{}", u.0, item, t);
    }

    fn append_chunk(&mut self, log: &mut std::fs::File, buf: &mut String) -> std::io::Result<()> {
        buf.clear();
        for _ in 0..CHUNK {
            self.line(buf);
        }
        log.write_all(buf.as_bytes())?;
        log.flush()
    }
}

/// One opened pipeline plus its stream.
struct Rig {
    pipeline: Pipeline,
    gen: StreamGen,
    log: std::fs::File,
    log_path: PathBuf,
    journal_dir: PathBuf,
    buf: String,
    /// Bytes appended to the log so far.
    appended: u64,
}

impl Rig {
    fn op(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        self.gen
            .append_chunk(&mut self.log, &mut self.buf)
            .map_err(|e| format!("append: {e}"))?;
        self.appended += self.buf.len() as u64;
        // `run_until_idle` can return on idle polls left over from before
        // the append; the op ends when the commit covers the whole chunk.
        while self.pipeline.position().offset < self.appended {
            self.pipeline
                .run_until_idle()
                .map_err(|e| format!("run_until_idle: {e}"))?;
        }
        Ok(secs(t.elapsed()))
    }
}

struct Inputs {
    graph: Arc<DiGraph>,
    train: Vec<Episode>,
    test: Vec<Episode>,
    item_stride: u32,
}

fn inputs(seed: u64) -> Inputs {
    let synth = generate(&SyntheticConfig::digg_like(), split_seed(seed, 0x57D1));
    let data = synth.dataset;
    let split = data.split(0.9, 0.0, split_seed(seed, 0x5918));
    let item_stride = data
        .log
        .episodes()
        .iter()
        .map(|e| e.item.0)
        .max()
        .unwrap_or(0)
        + 1;
    Inputs {
        train: data.episodes_at(&split.train).cloned().collect(),
        test: data.episodes_at(&split.test).cloned().collect(),
        graph: Arc::new(data.graph),
        item_stride,
    }
}

fn config(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.inf2vec.seed = split_seed(seed, 0x9E1);
    cfg
}

/// Opens a fresh pipeline in `dir` and warms it up.
fn set_up(inp: &Inputs, seed: u64, dir: &Path) -> Result<(Rig, Arc<ModelRegistry>), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let log_path = dir.join("actions.log");
    let journal_dir = dir.join("journal");
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .map_err(|e| format!("log: {e}"))?;
    let cfg = config(seed);
    let registry = Arc::new(ModelRegistry::new(Some(cfg.inf2vec.k)));
    let pipeline = Pipeline::open(
        cfg,
        &log_path,
        &journal_dir,
        Arc::clone(&inp.graph),
        Arc::new(RegistrySink::new(Arc::clone(&registry))),
    )
    .map_err(|e| format!("open: {e}"))?;
    let gen = StreamGen::new(
        inp.train.clone(),
        inp.item_stride,
        inp.graph.node_count(),
        split_seed(seed, 0x5EED),
    );
    let mut rig = Rig {
        pipeline,
        gen,
        log,
        log_path,
        journal_dir,
        buf: String::new(),
        appended: 0,
    };
    for _ in 0..WARMUP_OPS {
        rig.op()?;
    }
    Ok((rig, registry))
}

/// An open episode in the mirror (same folding rule as the pipeline).
#[derive(Default)]
struct OpenItem {
    users: BTreeMap<u32, (u64, u64)>,
    last_seq: u64,
    folded: u64,
}

/// The pipeline, re-done from outside under spans.
struct Mirror {
    tail: LogTail,
    open: BTreeMap<u32, OpenItem>,
    records_seen: u64,
    records_applied: u64,
    quarantined: u64,
    online: OnlineSgns,
    cfg: PipelineConfig,
    graph: Arc<DiGraph>,
    journal: Journal,
    round: u64,
    registry: ModelRegistry,
    pipeline_round: u64,
    seen_publishes: (u64, u64),
}

/// The newest round among the pipeline's two journal slots, read from
/// their second line (`round N`).
fn journal_round(dir: &Path) -> u64 {
    ["journal.a", "journal.b"]
        .iter()
        .filter_map(|slot| {
            let text = std::fs::read(dir.join(slot)).ok()?;
            let head = std::str::from_utf8(&text[..text.len().min(64)]).ok()?;
            head.lines().nth(1)?.strip_prefix("round ")?.parse().ok()
        })
        .max()
        .unwrap_or(0)
}

impl Mirror {
    fn start(rig: &Rig, inp: &Inputs, seed: u64, scratch: &Path) -> Result<Self, String> {
        let cfg = config(seed);
        let state = Journal::new(&rig.journal_dir)
            .and_then(|j| j.load_latest())
            .map_err(|e| format!("mirror: {e}"))?
            .ok_or("mirror: the pipeline has no journal yet")?;
        let online = OnlineSgns::from_state(state.online, cfg.online.clone(), cfg.seed())
            .map_err(|e| format!("mirror: {e}"))?;
        let open = state
            .open
            .into_iter()
            .map(|it| {
                let users = it.users.iter().map(|&(u, t, q)| (u, (t, q))).collect();
                let item = OpenItem {
                    users,
                    last_seq: it.last_seq,
                    folded: it.folded,
                };
                (it.item, item)
            })
            .collect();
        let rec = rig.pipeline.reconciliation();
        Ok(Self {
            tail: LogTail::resume(&rig.log_path, inp.graph.node_count(), state.pos),
            open,
            records_seen: state.records_seen,
            records_applied: state.records_applied,
            quarantined: state.quarantined,
            online,
            registry: ModelRegistry::new(Some(cfg.inf2vec.k)),
            cfg,
            graph: Arc::clone(&inp.graph),
            journal: Journal::new(scratch.join("mirror-journal")).map_err(|e| e.to_string())?,
            round: 0,
            pipeline_round: journal_round(&rig.journal_dir),
            seen_publishes: (rec.publishes_ok, rec.publishes_skipped),
        })
    }

    /// Replays the op the pipeline just finished. Returns false when
    /// the mirror's model differs from the pipeline's.
    fn replay(&mut self, rig: &Rig, layers: &mut Layers) -> Result<bool, String> {
        let mut items = Vec::new();
        layers.time("ingest.tail_s", || -> Result<(), String> {
            loop {
                let batch = self
                    .tail
                    .poll(self.cfg.batch_max)
                    .map_err(|e| e.to_string())?;
                if batch.is_empty() {
                    return Ok(());
                }
                items.extend(batch);
            }
        })?;
        for item in items {
            match item {
                TailItem::Record(r) => {
                    self.records_seen += 1;
                    layers.count("ingest.records", 1.0);
                    let seq = self.records_seen;
                    let entry = self.open.entry(r.item).or_default();
                    let slot = entry.users.entry(r.user).or_insert((r.time, seq));
                    if r.time < slot.0 {
                        *slot = (r.time, seq);
                    }
                    entry.folded += 1;
                    entry.last_seq = seq;
                    self.close_due(layers);
                }
                TailItem::Defect { .. } => {
                    self.quarantined += 1;
                    layers.count("ingest.defects", 1.0);
                }
            }
        }

        // Journal: the same state, written as often as the pipeline wrote.
        let round = journal_round(&rig.journal_dir);
        let writes = round.saturating_sub(self.pipeline_round);
        self.pipeline_round = round;
        for _ in 0..writes {
            let path = layers.time("pipeline.journal_s", || {
                let state = self.state();
                self.round += 1;
                self.journal.write(&state)
            });
            let path = path.map_err(|e| format!("mirror journal: {e}"))?;
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            layers.count("pipeline.journal_writes", 1.0);
            layers.count("pipeline.journal_bytes", bytes as f64);
        }

        // Publish: every offer clones and checksums the store on the
        // trainer thread; every accepted one installs on the publisher.
        let rec: Reconciliation = rig.pipeline.reconciliation();
        let ok = rec.publishes_ok - self.seen_publishes.0;
        let skipped = rec.publishes_skipped.saturating_sub(self.seen_publishes.1);
        self.seen_publishes = (rec.publishes_ok, rec.publishes_skipped);
        layers.count("pipeline.publishes", ok as f64);
        layers.count("pipeline.publish_skipped", skipped as f64);
        for i in 0..ok + skipped {
            let (store, sum) = layers.time("pipeline.publish_s", || {
                let store = self.online.store().clone();
                let sum = store_checksum(&store);
                (store, sum)
            });
            if i < ok {
                let installed = layers.time("serve.install_s", || {
                    self.registry
                        .install_checked(store.clone(), "mirror", Some(sum))
                });
                installed.map_err(|e| format!("mirror install: {e}"))?;
                layers.count("serve.installs", 1.0);
            }
        }
        Ok(
            self.online.episodes_applied() == rig.pipeline.episodes_applied()
                && store_checksum(self.online.store()) == rec.store_checksum,
        )
    }

    fn close_due(&mut self, layers: &mut Layers) {
        let close_after = self.cfg.close_after.max(1);
        let due: Vec<u32> = self
            .open
            .iter()
            .filter(|(_, it)| self.records_seen - it.last_seq >= close_after)
            .map(|(&item, _)| item)
            .collect();
        for item in due {
            let it = self.open.remove(&item).expect("due item is open");
            let mut acts: Vec<(u64, u64, u32)> =
                it.users.iter().map(|(&u, &(t, q))| (t, q, u)).collect();
            acts.sort_unstable();
            let episode = Episode::new(
                ItemId(item),
                acts.iter().map(|&(t, _, u)| (NodeId(u), t)).collect(),
            );
            let seq = self.online.episodes_applied();
            let (pairs, _) = layers.time("core.episode_pairs_s", || {
                episode_pairs(&self.graph, &episode, &self.cfg.inf2vec, seq)
            });
            apply_traced(&mut self.online, seq, &pairs, layers);
            self.records_applied += it.folded;
        }
    }

    fn state(&self) -> JournalState {
        JournalState {
            round: self.round,
            pos: self.tail.position(),
            records_seen: self.records_seen,
            records_applied: self.records_applied,
            quarantined: self.quarantined,
            open: self
                .open
                .iter()
                .map(|(&item, it)| OpenItemState {
                    item,
                    last_seq: it.last_seq,
                    folded: it.folded,
                    users: it.users.iter().map(|(&u, &(t, q))| (u, t, q)).collect(),
                })
                .collect(),
            online: self.online.state().clone(),
        }
    }
}

/// `apply_episode` under spans: the sampler rebuild it does first is
/// replayed on the same pre-episode counts and timed as
/// `embed.negatives_s`; the rest of the call is `embed.online_s`.
/// Returns the replay's own duration, which is not part of the op.
pub fn apply_traced(
    online: &mut OnlineSgns,
    seq: u64,
    pairs: &[(u32, u32)],
    layers: &mut Layers,
) -> f64 {
    let negatives = {
        let t = Instant::now();
        let counts = &online.state().ctx_counts;
        if !counts.iter().all(|&c| c == 0) {
            std::hint::black_box(NegativeTable::from_counts(counts));
        }
        secs(t.elapsed())
    };
    let t = Instant::now();
    std::hint::black_box(online.apply_episode(seq, pairs));
    let apply = secs(t.elapsed());
    layers.add("embed.negatives_s", negatives);
    layers.add("embed.online_s", apply - negatives);
    layers.count("embed.episodes", 1.0);
    layers.count("core.pairs", pairs.len() as f64);
    negatives
}

/// Ops until `budget` has passed and at least `min` are done.
fn measure(
    rig: &mut Rig,
    budget: Duration,
    min: usize,
    mut after_op: impl FnMut(&mut Rig, usize) -> Result<(), String>,
) -> Result<(Vec<f64>, f64), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut busy = 0.0;
    while times.len() < min || start.elapsed() < budget {
        let dt = rig.op()?;
        busy += dt;
        times.push(dt);
        after_op(rig, times.len())?;
    }
    Ok((times, busy))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inp = inputs(args.seed);
    let mut setups = Vec::new();
    let mut rig = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let dir = args.work_dir.join(format!("setup-{i}"));
        let (r, registry) = set_up(&inp, args.seed, &dir)?;
        setups.push(secs(t.elapsed()));
        if let Some((mut old, _)) = rig.replace((r, registry)) {
            old.pipeline
                .shutdown()
                .map_err(|e| format!("shutdown: {e}"))?;
            drop(old);
            std::fs::remove_dir_all(args.work_dir.join(format!("setup-{}", i - 1))).ok();
        }
    }
    let (mut rig, registry) = rig.expect("at least one set-up");

    let min_ops = samples_for_tail(TAIL_Q, 10).max(AUC_AT_OP);
    let half = args.budget / 2;
    let mut auc_store: Option<EmbeddingStore> = None;
    let mut snapshot_at = |rig: &mut Rig, n: usize| {
        if n == AUC_AT_OP {
            auc_store = Some(rig.pipeline.store().clone());
        }
        Ok(())
    };
    let budget = if args.trace { half } else { args.budget };
    let (times, busy) = measure(&mut rig, budget, min_ops, &mut snapshot_at)?;
    let lines_per_op = CHUNK as f64;
    let throughput = |times: &[f64]| lines_per_op * times.len() as f64 / times.iter().sum::<f64>();

    let mut out = Outcome::new(times.len() as u64);
    let mut traced = None;
    if args.trace {
        let mut layers = Layers::default();
        let mut mirror = Mirror::start(&rig, &inp, args.seed, &args.work_dir)?;
        let mut diverged = 0u64;
        let (ttimes, tbusy) = measure(&mut rig, half, 1, |rig, _| {
            if !mirror.replay(rig, &mut layers)? {
                diverged += 1;
            }
            Ok(())
        })?;
        out.gate(
            "mirror_exact",
            diverged == 0,
            format!(
                "{diverged} of {} replayed ops left a different model",
                ttimes.len()
            ),
            diverged,
        );
        traced = Some((layers, ttimes, tbusy));
    }

    // Final drain: every record lands applied or quarantined.
    rig.pipeline
        .drain_open_episodes()
        .map_err(|e| format!("drain: {e}"))?;
    let rec = rig.pipeline.reconciliation();
    let (good, bad) = (rig.gen.good, rig.gen.bad);
    out.gate(
        "reconciles",
        rec.balances(good, bad) && rec.records_pending == 0,
        format!(
            "seen {} applied {} quarantined {} pending {} vs written good {good} bad {bad}",
            rec.records_seen, rec.records_applied, rec.records_quarantined, rec.records_pending
        ),
        1,
    );
    out.gate(
        "publishes_clean",
        rec.publishes_failed == 0 && rec.publishes_withheld == 0 && rec.restarts == (0, 0, 0),
        format!(
            "ok {} failed {} withheld {} skipped {} restarts {:?}",
            rec.publishes_ok,
            rec.publishes_failed,
            rec.publishes_withheld,
            rec.publishes_skipped,
            rec.restarts
        ),
        1,
    );
    let served = registry.current().map_or(0, |m| m.version());
    out.gate(
        "registry_serving",
        served > 0 && served == rec.publishes_ok,
        format!("registry version {served}, publishes {}", rec.publishes_ok),
        1,
    );
    rig.pipeline
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;

    let auc_store = auc_store.ok_or("the AUC snapshot op was never reached")?;
    let task = ActivationTask::build(&inp.graph, inp.test.iter());
    let model = inf2vec_core::Inf2vecModel::new(auc_store);
    let auc = task
        .evaluate(&ScoringModel::Representation(&model, Aggregator::Ave))
        .auc;

    out.input("users", u64::from(inp.graph.node_count()));
    out.input("edges", inp.graph.edge_count() as u64);
    out.input("records", good);
    out.input("defects", bad);
    out.input("episodes", rec.episodes_applied);
    out.input("test_episodes", inp.test.len() as u64);

    let s = sorted(&times);
    out.note("ops", times.len() as f64);
    out.note("tail_quantile", TAIL_Q);
    out.note("samples_beyond_tail", beyond(times.len(), TAIL_Q) as f64);
    out.note("lines_per_op", lines_per_op);
    if let Some((layers, ttimes, tbusy)) = traced {
        let per = ttimes.len() as f64;
        let named = [
            "ingest.tail_s",
            "core.episode_pairs_s",
            "embed.negatives_s",
            "embed.online_s",
            "pipeline.journal_s",
            "pipeline.publish_s",
        ];
        for name in named.iter().copied().chain(["serve.install_s"]) {
            out.metric(name, layers.get(name) / per, "s");
        }
        let unattributed = tbusy - layers.sum(&named);
        out.metric("pipeline.unattributed_s", unattributed / per, "s");
        out.metric("trace.unattributed_s", unattributed / per, "s");
        for name in [
            "ingest.records",
            "ingest.defects",
            "core.pairs",
            "embed.episodes",
            "pipeline.journal_writes",
            "pipeline.journal_bytes",
            "pipeline.publishes",
            "pipeline.publish_skipped",
            "serve.installs",
        ] {
            out.metric(name, layers.counted(name) / per, "count");
        }
        out.metric("trace.wall_s", tbusy / per, "s");
        out.metric("trace.unattributed_share", unattributed / tbusy, "ratio");
        let st = sorted(&ttimes);
        out.metric(
            "trace.overhead_pct",
            100.0 * (quantile(&st, 0.5) / quantile(&s, 0.5) - 1.0),
            "%",
        );
        out.note("traced_ops", per);
        out.note("untraced_op_p50_ms", 1e3 * quantile(&s, 0.5));
        out.note("traced_op_p50_ms", 1e3 * quantile(&st, 0.5));
        out.note("untraced_throughput_per_s", throughput(&times));
        out.note("traced_throughput_per_s", throughput(&ttimes));
        // The replayed layers re-measure work the op already did, so
        // they may overshoot its wall time by a little noise, not more.
        out.gate(
            "spans_fit_wall",
            unattributed >= -REPLAY_TOLERANCE * tbusy,
            format!("named spans leave {unattributed:.4} s of {tbusy:.4} s"),
            1,
        );
    } else {
        out.metric("setup_s", median(&setups), "s");
        out.metric("throughput_per_s", throughput(&times), "1/s");
        out.metric("op_p50_ms", 1e3 * quantile(&s, 0.5), "ms");
        out.metric("op_tail_ms", 1e3 * quantile(&s, TAIL_Q), "ms");
        out.metric("train_s", times[..AUC_AT_OP].iter().sum(), "s");
        out.metric("auc", auc, "ratio");
        out.metric("slo_share", share_within(&times, SLO_S), "ratio");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.note("measured_busy_s", busy);
        out.note("slo_ms", 1e3 * SLO_S);
    }
    Ok(out)
}
