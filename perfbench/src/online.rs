//! `online-100k`: `OnlineSgns::apply_episode` at Digg scale.
//!
//! Inputs: the digg-like preset rescaled to 100K users (about 1M edges;
//! the paper's Digg has 68K users and 823K edges) and its cascades, 80%
//! fed and 20% held out for the AUC. One op takes the next fed cascade
//! (cycling, with a fresh episode sequence number), builds its pairs with
//! `episode_pairs` and applies them with `apply_episode` — the
//! per-episode sampler rebuild is O(n), which is what this workload
//! exposes.

use std::time::Instant;

use inf2vec_core::{episode_pairs, Inf2vecConfig};
use inf2vec_diffusion::synth::{generate, SyntheticConfig};
use inf2vec_diffusion::Episode;
use inf2vec_embed::{EmbeddingStore, OnlineConfig, OnlineSgns};
use inf2vec_eval::activation::ActivationTask;
use inf2vec_eval::{Aggregator, ScoringModel};
use inf2vec_graph::DiGraph;
use inf2vec_serve::store_checksum;
use inf2vec_util::rng::split_seed;

use crate::report::Outcome;
use crate::stats::{
    beyond, median, peak_rss_mb, quantile, samples_for_tail, secs, share_within, sorted, Layers,
};
use crate::stream::apply_traced;
use crate::Args;

const USERS: u32 = 100_000;
const ITEMS: u32 = 800;
const K: usize = 50;
/// Episodes applied untimed by each set-up (lazy rows, first counts).
const WARMUP_EPISODES: u64 = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The tail percentile reported as `op_tail_ms`.
const TAIL_Q: f64 = 0.95;
/// Every this-many-th op is re-applied to a clone of its pre-episode
/// state, which must reproduce the same checksum.
const CHECK_EVERY: usize = 500;
/// The model scored for `auc` is the one after this many timed ops, so
/// the number does not depend on how far a run gets; `train_s` is the
/// time those ops took.
const AUC_AT_OP: usize = 1000;
/// The per-episode latency limit behind `slo_share` (about five median
/// ops).
const SLO_S: f64 = 0.02;

struct Feed {
    graph: DiGraph,
    episodes: Vec<Episode>,
    cfg: Inf2vecConfig,
    seq: u64,
}

impl Feed {
    /// The next episode's pairs and sequence number.
    fn next_pairs(&mut self, layers: Option<&mut Layers>) -> (u64, Vec<(u32, u32)>) {
        let seq = self.seq;
        self.seq += 1;
        let e = &self.episodes[seq as usize % self.episodes.len()];
        let t = Instant::now();
        let (pairs, _) = episode_pairs(&self.graph, e, &self.cfg, seq);
        if let Some(layers) = layers {
            layers.add("core.episode_pairs_s", secs(t.elapsed()));
        }
        (seq, pairs)
    }
}

/// A fresh trainer warmed up on the first episodes of the feed.
fn set_up(feed: &mut Feed, seed: u64) -> OnlineSgns {
    feed.seq = 0;
    let mut online = OnlineSgns::new(USERS as usize, K, OnlineConfig::default(), seed);
    for _ in 0..WARMUP_EPISODES {
        let (seq, pairs) = feed.next_pairs(None);
        online.apply_episode(seq, &pairs);
    }
    online
}

/// The trainer under load plus its replay-check tallies.
struct Bench {
    online: OnlineSgns,
    feed: Feed,
    seed: u64,
    checks: u64,
    check_failures: u64,
}

impl Bench {
    /// One op: the next episode's pairs, then `apply_episode`. Returns
    /// the op's duration (without any replay done for the trace) and its
    /// pair count. Every `CHECK_EVERY`-th op is re-applied to a clone of
    /// its pre-episode state, outside the timed part.
    fn op(&mut self, i: usize, layers: Option<&mut Layers>) -> (f64, usize) {
        let before = i
            .is_multiple_of(CHECK_EVERY)
            .then(|| self.online.state().clone());
        let t = Instant::now();
        let (seq, pairs, replay) = match layers {
            Some(layers) => {
                let (seq, pairs) = self.feed.next_pairs(Some(layers));
                let replay = apply_traced(&mut self.online, seq, &pairs, layers);
                (seq, pairs, replay)
            }
            None => {
                let (seq, pairs) = self.feed.next_pairs(None);
                self.online.apply_episode(seq, &pairs);
                (seq, pairs, 0.0)
            }
        };
        let dt = secs(t.elapsed()) - replay;
        if let Some(state) = before {
            let mut again = OnlineSgns::from_state(state, OnlineConfig::default(), self.seed)
                .expect("a cloned state is well-formed");
            again.apply_episode(seq, &pairs);
            self.checks += 1;
            if store_checksum(again.store()) != store_checksum(self.online.store()) {
                self.check_failures += 1;
            }
        }
        (dt, pairs.len())
    }

    /// Ops until `budget` has passed and at least `min` are done; the
    /// store after op `AUC_AT_OP` is kept in `snapshot` when given.
    fn measure(
        &mut self,
        budget: std::time::Duration,
        min: usize,
        mut layers: Option<&mut Layers>,
        mut snapshot: Option<&mut Option<EmbeddingStore>>,
    ) -> (Vec<f64>, usize) {
        let start = Instant::now();
        let mut times = Vec::new();
        let mut pairs = 0;
        while times.len() < min || start.elapsed() < budget {
            let (dt, p) = self.op(times.len() + 1, layers.as_deref_mut());
            times.push(dt);
            pairs += p;
            if times.len() == AUC_AT_OP {
                if let Some(slot) = snapshot.as_deref_mut() {
                    *slot = Some(self.online.store().clone());
                }
            }
        }
        (times, pairs)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = SyntheticConfig::digg_like().scaled(USERS, ITEMS);
    let synth = generate(&cfg, split_seed(args.seed, 0x0A1));
    let data = synth.dataset;
    let split = data.split(0.8, 0.0, split_seed(args.seed, 0x0A4));
    let test: Vec<Episode> = data.episodes_at(&split.test).cloned().collect();
    let mut feed = Feed {
        episodes: data.episodes_at(&split.train).cloned().collect(),
        graph: data.graph,
        cfg: Inf2vecConfig {
            seed: split_seed(args.seed, 0x0A2),
            ..inf2vec_pipeline::PipelineConfig::default().inf2vec
        },
        seq: 0,
    };
    let online_seed = split_seed(args.seed, 0x0A3);

    let mut setups = Vec::new();
    let mut online = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        online = Some(set_up(&mut feed, online_seed));
        setups.push(secs(t.elapsed()));
    }
    let online = online.expect("at least one set-up");

    let min_ops = samples_for_tail(TAIL_Q, 10).max(AUC_AT_OP);
    let budget = if args.trace {
        args.budget / 2
    } else {
        args.budget
    };
    let mut bench = Bench {
        online,
        feed,
        seed: online_seed,
        checks: 0,
        check_failures: 0,
    };
    let mut auc_store = None;
    let (times, pairs) = bench.measure(budget, min_ops, None, Some(&mut auc_store));
    let throughput = |times: &[f64], pairs: usize| pairs as f64 / times.iter().sum::<f64>();
    let mut out = Outcome::new(times.len() as u64);
    let s = sorted(&times);

    if args.trace {
        let mut layers = Layers::default();
        let (ttimes, tpairs) = bench.measure(budget, 1, Some(&mut layers), None);
        let per = ttimes.len() as f64;
        let wall: f64 = ttimes.iter().sum();
        let named = [
            "core.episode_pairs_s",
            "embed.negatives_s",
            "embed.online_s",
        ];
        for name in named {
            out.metric(name, layers.get(name) / per, "s");
        }
        for name in ["core.pairs", "embed.episodes"] {
            out.metric(name, layers.counted(name) / per, "count");
        }
        let unattributed = wall - layers.sum(&named);
        out.metric("trace.unattributed_s", unattributed / per, "s");
        out.metric("trace.wall_s", wall / per, "s");
        out.metric("trace.unattributed_share", unattributed / wall, "ratio");
        let st = sorted(&ttimes);
        out.metric(
            "trace.overhead_pct",
            100.0 * (quantile(&st, 0.5) / quantile(&s, 0.5) - 1.0),
            "%",
        );
        out.note("traced_ops", per);
        out.note("untraced_op_p50_ms", 1e3 * quantile(&s, 0.5));
        out.note("traced_op_p50_ms", 1e3 * quantile(&st, 0.5));
        out.note("untraced_throughput_per_s", throughput(&times, pairs));
        out.note("traced_throughput_per_s", throughput(&ttimes, tpairs));
        out.gate(
            "spans_fit_wall",
            unattributed >= 0.0,
            format!("named spans leave {unattributed:.4} s of {wall:.4} s"),
            1,
        );
    } else {
        out.metric("setup_s", median(&setups), "s");
        out.metric("throughput_per_s", throughput(&times, pairs), "1/s");
        out.metric("op_p50_ms", 1e3 * quantile(&s, 0.5), "ms");
        out.metric("op_tail_ms", 1e3 * quantile(&s, TAIL_Q), "ms");
        out.metric("train_s", times[..AUC_AT_OP].iter().sum(), "s");
        let model = inf2vec_core::Inf2vecModel::new(
            auc_store.ok_or("the AUC snapshot op was never reached")?,
        );
        let task = ActivationTask::build(&bench.feed.graph, test.iter());
        let auc = task
            .evaluate(&ScoringModel::Representation(&model, Aggregator::Ave))
            .auc;
        out.metric("auc", auc, "ratio");
        out.metric("slo_share", share_within(&times, SLO_S), "ratio");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.note("slo_ms", 1e3 * SLO_S);
    }
    out.gate(
        "replay_identical",
        bench.checks > 0 && bench.check_failures == 0,
        format!(
            "{} of {} re-applied episodes changed the checksum",
            bench.check_failures, bench.checks
        ),
        bench.check_failures,
    );
    out.gate(
        "finite_parameters",
        !bench.online.store().has_non_finite(),
        "online store is finite".into(),
        1,
    );
    out.input("users", u64::from(bench.feed.graph.node_count()));
    out.input("edges", bench.feed.graph.edge_count() as u64);
    out.input("episodes", bench.feed.seq);
    out.input("cascades", bench.feed.episodes.len() as u64);
    out.input("test_episodes", test.len() as u64);
    out.note("ops", times.len() as f64);
    out.note("tail_quantile", TAIL_Q);
    out.note("samples_beyond_tail", beyond(times.len(), TAIL_Q) as f64);
    out.note("pairs_per_op", pairs as f64 / times.len() as f64);
    Ok(out)
}
