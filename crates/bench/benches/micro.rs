//! Criterion micro-benchmarks for the hot kernels.
//!
//! Complements the `repro fig9` wall-clock comparison with statistically
//! sound per-operation timings: context generation (Algorithm 1), the SGNS
//! update (Eq. 6), walks, propagation-network extraction, pair extraction,
//! Monte-Carlo spread, one EM iteration, the atomic checkpoint write
//! (the fault-tolerance layer's per-epoch overhead), and the online
//! trainer's per-episode cost across a user-count sweep.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use inf2vec_baselines::em::{IcEm, IcEmConfig};
use inf2vec_core::context::generate_context;
use inf2vec_core::corpus::InfluenceContextSource;
use inf2vec_core::Inf2vecConfig;
use inf2vec_diffusion::pairs::episode_pairs;
use inf2vec_diffusion::synth::{generate, SyntheticConfig, SyntheticDataset};
use inf2vec_diffusion::{ic, Episode, PropagationNetwork};
use inf2vec_embed::checkpoint::write_checkpoint;
use inf2vec_embed::sgns::{FlatPairs, SgnsConfig, SgnsTrainer, TrainOptions};
use inf2vec_embed::{EmbeddingStore, NegativeTable, OnlineConfig, OnlineSgns};
use inf2vec_graph::walk::{restart_walk, Node2vecWalker};
use inf2vec_graph::NodeId;
use inf2vec_obs::{NoopRecorder, Telemetry};
use inf2vec_util::rng::Xoshiro256pp;

fn setup() -> SyntheticDataset {
    generate(&SyntheticConfig::tiny(), 42)
}

fn biggest_episode(s: &SyntheticDataset) -> &Episode {
    s.dataset
        .log
        .episodes()
        .iter()
        .max_by_key(|e| e.len())
        .expect("episodes exist")
}

fn bench_pair_extraction(c: &mut Criterion) {
    let s = setup();
    let e = biggest_episode(&s);
    c.bench_function("pairs/episode_pairs", |b| {
        b.iter(|| black_box(episode_pairs(&s.dataset.graph, black_box(e))))
    });
}

fn bench_propnet_build(c: &mut Criterion) {
    let s = setup();
    let e = biggest_episode(&s);
    c.bench_function("propnet/build", |b| {
        b.iter(|| black_box(PropagationNetwork::build(&s.dataset.graph, black_box(e))))
    });
}

fn bench_context_generation(c: &mut Criterion) {
    let s = setup();
    let net = PropagationNetwork::build(&s.dataset.graph, biggest_episode(&s));
    let mut rng = Xoshiro256pp::new(7);
    c.bench_function("context/algorithm1_L50_alpha0.1", |b| {
        b.iter(|| black_box(generate_context(&net, 0, 5, 45, 0.5, &mut rng)))
    });
}

fn bench_walks(c: &mut Criterion) {
    let s = setup();
    let mut rng = Xoshiro256pp::new(3);
    let mut buf = Vec::with_capacity(64);
    c.bench_function("walk/restart_len50", |b| {
        b.iter(|| {
            buf.clear();
            restart_walk(&s.dataset.graph, 0, 50, 0.5, &mut rng, &mut buf);
            black_box(buf.len())
        })
    });
    let walker = Node2vecWalker::new(1.0, 1.0, 40);
    c.bench_function("walk/node2vec_len40", |b| {
        b.iter(|| {
            buf.clear();
            walker.walk(&s.dataset.graph, NodeId(0), &mut rng, &mut buf);
            black_box(buf.len())
        })
    });
}

fn bench_sgns_step(c: &mut Criterion) {
    let s = setup();
    let n = s.dataset.graph.node_count() as usize;
    for k in [10usize, 50] {
        let store = EmbeddingStore::new(n, k, 1);
        let negs = NegativeTable::uniform(n as u32);
        // 1000 pairs, 1 epoch, 5 negatives: per-iteration cost of Eq. 6.
        let pairs: Vec<(u32, u32)> = (0..1000u32)
            .map(|i| (i % n as u32, (i * 7 + 1) % n as u32))
            .collect();
        let source = FlatPairs::new(pairs);
        let trainer = SgnsTrainer::new(SgnsConfig {
            epochs: 1,
            ..SgnsConfig::default()
        });
        c.bench_function(&format!("sgns/1000_pairs_k{k}"), |b| {
            b.iter(|| black_box(trainer.train(&store, &source, &negs)))
        });
    }
}

/// `OnlineSgns::apply_episode` at n = 1K..1M users, k = 50, 400-pair
/// episodes. Ids are drawn heavy-tailed (`n · x^2`, x uniform), as
/// activity is in social data. The trainer is first warmed on
/// `max(256, n / 250)` episodes, enough for nearly every row to have been
/// drawn as a negative once: a row's lazy init is a one-time cost per
/// user, not a per-episode one. Every iteration then applies the next
/// episode of a 64-episode cycle, so counts and the sampler keep moving.
/// Pairs/s = 400 / time per iteration; an O(n) step per episode would
/// show as a cost growing with n.
fn bench_online_apply_episode(c: &mut Criterion) {
    const PAIRS: usize = 400;
    let mut group = c.benchmark_group("online_apply_episode");
    group.sample_size(10);
    for n in [1_000u32, 10_000, 100_000, 1_000_000] {
        let mut rng = Xoshiro256pp::new(11);
        let mut id = || (n as f64 * rng.next_f64().powi(2)) as u32;
        let episodes: Vec<Vec<(u32, u32)>> = (0..64)
            .map(|_| {
                (0..PAIRS)
                    .map(|_| (id(), id()))
                    .filter(|(u, v)| u != v)
                    .collect()
            })
            .collect();
        let mut online = OnlineSgns::new(n as usize, 50, OnlineConfig::default(), 3);
        let mut seq = 0u64;
        for _ in 0..256.max(n / 250) {
            online.apply_episode(seq, &episodes[seq as usize % episodes.len()]);
            seq += 1;
        }
        group.bench_function(format!("n{n}_k50_{PAIRS}pairs"), |b| {
            b.iter(|| {
                let loss = online.apply_episode(seq, &episodes[seq as usize % episodes.len()]);
                seq += 1;
                black_box(loss)
            })
        });
    }
    group.finish();
}

fn bench_corpus_generation(c: &mut Criterion) {
    let s = setup();
    let nets: Vec<PropagationNetwork> = s
        .dataset
        .log
        .episodes()
        .iter()
        .map(|e| PropagationNetwork::build(&s.dataset.graph, e))
        .collect();
    let cfg = Inf2vecConfig::default();
    c.bench_function("context/full_corpus", |b| {
        b.iter_batched(
            || nets.clone(),
            |nets| black_box(InfluenceContextSource::new(nets, &cfg)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_checkpoint_write(c: &mut Criterion) {
    // Per-epoch cost of the fault-tolerance layer: snapshot-to-disk of the
    // full parameter store via temp file + fsync + rename. K = 50 matches
    // the paper's default dimension; n matches the synthetic graph.
    let s = setup();
    let n = s.dataset.graph.node_count() as usize;
    let store = EmbeddingStore::new(n, 50, 1);
    let dir = std::env::temp_dir().join(format!("inf2vec-bench-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let path = dir.join("bench.ckpt");
    c.bench_function(&format!("checkpoint/atomic_write_n{n}_k50"), |b| {
        b.iter(|| {
            write_checkpoint(black_box(&path), 1, 1000, 1.0, Some(0.5), black_box(&store))
                .expect("checkpoint write")
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_obs_overhead(c: &mut Criterion) {
    // Primitive cost of the instrumentation points: a disabled handle is
    // one branch per call, a registry-backed one an atomic add. Both must
    // be far below the cost of an SGNS pair update.
    let disabled = Telemetry::disabled();
    c.bench_function("obs/disabled_handle_x1000", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                disabled.count("inf2vec_train_pairs_total", black_box(i));
                disabled.observe("inf2vec_train_epoch_seconds", black_box(i as f64));
            }
        })
    });
    let live = Telemetry::with_registry();
    c.bench_function("obs/registry_handle_x1000", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                live.count("inf2vec_train_pairs_total", black_box(i));
                live.observe("inf2vec_train_epoch_seconds", black_box(i as f64));
            }
        })
    });

    // End-to-end ≤2% budget: the same single-epoch SGNS run with the
    // telemetry branch disabled vs. routed through a no-op recorder.
    let s = setup();
    let n = s.dataset.graph.node_count() as usize;
    let pairs: Vec<(u32, u32)> = (0..1000u32)
        .map(|i| (i % n as u32, (i * 7 + 1) % n as u32))
        .collect();
    let source = FlatPairs::new(pairs);
    let negs = NegativeTable::uniform(n as u32);
    let trainer = SgnsTrainer::new(SgnsConfig {
        epochs: 1,
        ..SgnsConfig::default()
    });
    for (label, telemetry) in [
        ("disabled", Telemetry::disabled()),
        ("noop", Telemetry::new(Arc::new(NoopRecorder))),
    ] {
        let store = EmbeddingStore::new(n, 50, 1);
        c.bench_function(&format!("sgns/1000_pairs_telemetry_{label}"), |b| {
            b.iter(|| {
                let opts = TrainOptions {
                    telemetry: telemetry.clone(),
                    ..TrainOptions::default()
                };
                black_box(
                    trainer
                        .try_train_with(&store, &source, &negs, opts)
                        .expect("bench training"),
                )
            })
        });
    }
}

fn bench_trace_flight(c: &mut Criterion) {
    use inf2vec_obs::{Event, TraceCtx};

    // Deriving + stamping a causal trace context onto an event: the
    // per-record cost the pipeline pays on its accept path when a
    // recorder is attached.
    c.bench_function("obs/trace_stamp_x1000", |b| {
        b.iter(|| {
            for seq in 0..1000u64 {
                let e = TraceCtx::for_record(black_box(42), black_box(seq)).stamp(
                    Event::new("trace.accept")
                        .u64("seq", seq)
                        .u64("user", seq % 64)
                        .u64("item", seq % 8),
                );
                black_box(e);
            }
        })
    });

    // Pushing events through an enabled handle: clone into the flight
    // ring plus a no-op recorder call (with_registry has both).
    let live = Telemetry::with_registry();
    c.bench_function("obs/flight_ring_push_x1000", |b| {
        b.iter(|| {
            for seq in 0..1000u64 {
                live.emit_with(|| {
                    TraceCtx::for_record(42, seq).stamp(
                        Event::new("trace.accept")
                            .u64("seq", seq)
                            .u64("user", seq % 64)
                            .u64("item", seq % 8),
                    )
                });
            }
        })
    });

    // The same emit sites with tracing off: emit_with must not build the
    // event at all — one branch per call.
    let disabled = Telemetry::disabled();
    c.bench_function("obs/trace_emit_disabled_x1000", |b| {
        b.iter(|| {
            for seq in 0..1000u64 {
                disabled.emit_with(|| {
                    TraceCtx::for_record(42, seq).stamp(
                        Event::new("trace.accept")
                            .u64("seq", seq)
                            .u64("user", seq % 64)
                            .u64("item", seq % 8),
                    )
                });
            }
        })
    });
}

fn bench_monte_carlo(c: &mut Criterion) {
    let s = setup();
    let probs = ic::EdgeProbs::weighted_cascade(&s.dataset.graph);
    let seeds = [NodeId(0), NodeId(1)];
    let mut rng = Xoshiro256pp::new(5);
    c.bench_function("ic/monte_carlo_100_runs", |b| {
        b.iter(|| {
            black_box(ic::monte_carlo(
                &s.dataset.graph,
                &probs,
                &seeds,
                100,
                &mut rng,
            ))
        })
    });
}

fn bench_em_iteration(c: &mut Criterion) {
    let s = setup();
    let episodes: Vec<&Episode> = s.dataset.log.episodes().iter().collect();
    c.bench_function("em/one_iteration", |b| {
        b.iter(|| {
            black_box(IcEm::train(
                &s.dataset.graph,
                &episodes,
                &IcEmConfig {
                    iterations: 1,
                    init_prob: 0.1,
                },
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_pair_extraction,
    bench_propnet_build,
    bench_context_generation,
    bench_walks,
    bench_sgns_step,
    bench_online_apply_episode,
    bench_corpus_generation,
    bench_checkpoint_write,
    bench_obs_overhead,
    bench_trace_flight,
    bench_monte_carlo,
    bench_em_iteration,
);
criterion_main!(benches);
