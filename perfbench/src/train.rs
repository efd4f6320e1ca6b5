//! `train-digg`: Algorithm 2 on the digg-like preset, from files.
//!
//! Inputs: the digg-like synthetic dataset (2K users, 1200 items) for the
//! seed, split 80/10/10 by episode; the edge list and the training
//! episodes' actions are written as files, the test episodes stay with
//! the benchmark for the AUC gate. One op is one complete training from
//! the files: ingest, `PropagationNetwork::build_all`, the Algorithm-1
//! contexts (`InfluenceContextSource`), `NegativeTable`, then
//! `SgnsTrainer` with K = 50, L = 50, one thread. The op percentiles
//! are over SGNS iterations (epochs), the unit of the paper's Fig 9.

use std::io::Write as _;
use std::time::Instant;

use inf2vec_core::{Inf2vecConfig, Inf2vecModel, InfluenceContextSource};
use inf2vec_diffusion::synth::{generate, SyntheticConfig};
use inf2vec_diffusion::{Episode, PropagationNetwork};
use inf2vec_embed::sgns::{SgnsConfig, SgnsTrainer, TrainOptions};
use inf2vec_embed::{EmbeddingStore, NegativeTable};
use inf2vec_eval::activation::ActivationTask;
use inf2vec_eval::{Aggregator, ScoringModel};
use inf2vec_ingest::{IngestConfig, Ingestor};
use inf2vec_util::rng::split_seed;

use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, quantile, secs, share_within, sorted, Layers};
use crate::Args;

/// SGNS passes per training. Fewer than the paper's 10-20 so that one
/// run holds several complete trainings; the AUC gate below still sees a
/// converged-enough model.
const EPOCHS: usize = 4;
/// Trainings per run, at least: `setup_s` and `train_s` are medians.
const MIN_TRAININGS: usize = 3;
/// Set-up-only passes (ingest through `NegativeTable`) before the
/// trainings; `setup_s` is the median over these and the trainings' own.
const SETUP_REPEATS: usize = 30;
/// Accepted held-out AUC band (Table II metric) for this preset.
const AUC_BAND: (f64, f64) = (0.70, 0.98);
/// The per-iteration (SGNS epoch) latency limit behind `slo_share`
/// (about twice the median iteration).
const SLO_S: f64 = 2.5;

struct Files {
    edges: std::path::PathBuf,
    actions: std::path::PathBuf,
    test: Vec<Episode>,
    users: u64,
    edge_count: u64,
    records: u64,
    episodes: u64,
}

fn write_inputs(args: &Args) -> Result<Files, String> {
    let synth = generate(&SyntheticConfig::digg_like(), split_seed(args.seed, 0x7A1D));
    let data = &synth.dataset;
    let split = data.split(0.8, 0.1, split_seed(args.seed, 0x5917));
    let edges = args.work_dir.join("edges.txt");
    let actions = args.work_dir.join("actions.txt");
    let io = |e: std::io::Error| format!("writing inputs: {e}");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&edges).map_err(io)?);
    inf2vec_graph::io::write_edge_list(&data.graph, &mut w).map_err(io)?;
    w.flush().map_err(io)?;
    let mut w = std::io::BufWriter::new(std::fs::File::create(&actions).map_err(io)?);
    let mut records = 0u64;
    for e in data.episodes_at(&split.train) {
        for &(u, t) in e.activations() {
            writeln!(w, "{}\t{}\t{}", u.0, e.item.0, t).map_err(io)?;
            records += 1;
        }
    }
    w.flush().map_err(io)?;
    Ok(Files {
        edges,
        actions,
        test: data.episodes_at(&split.test).cloned().collect(),
        users: data.graph.node_count() as u64,
        edge_count: data.graph.edge_count() as u64,
        records,
        episodes: split.train.len() as u64,
    })
}

fn config(seed: u64) -> Inf2vecConfig {
    Inf2vecConfig {
        k: 50,
        l: 50,
        epochs: EPOCHS,
        threads: 1,
        seed: split_seed(seed, 0x1F2),
        ..Inf2vecConfig::default()
    }
}

/// What one training produced.
struct Trained {
    model: Inf2vecModel,
    graph: inf2vec_graph::DiGraph,
    setup_s: f64,
    train_s: f64,
    sgns_s: f64,
    /// Wall time of each SGNS iteration (epoch), Fig 9's unit.
    iterations: Vec<f64>,
    pairs: u64,
}

/// Everything SGNS needs, built from the files.
struct Prepared {
    graph: inf2vec_graph::DiGraph,
    source: InfluenceContextSource,
    negatives: NegativeTable,
}

/// Ingest, `build_all`, contexts and the negative table. Spans go into
/// `layers`; they cost two clock reads each, so the untraced path shares
/// this code.
fn prepare(files: &Files, cfg: &Inf2vecConfig, layers: &mut Layers) -> Result<Prepared, String> {
    let ingested = layers
        .time("ingest.load_s", || {
            Ingestor::new(IngestConfig::default()).ingest_paths(
                &files.edges,
                &files.actions,
                "digg-like",
            )
        })
        .map_err(|e| format!("ingest: {e}"))?;
    let dataset = ingested.dataset;
    layers.count("ingest.records", dataset.log.action_count() as f64);
    let n = dataset.graph.node_count() as usize;
    let nets = layers.time("diffusion.propnet_s", || {
        PropagationNetwork::build_all(&dataset.graph, dataset.log.episodes(), &cfg.telemetry)
    });
    let source = layers.time("core.contexts_s", || InfluenceContextSource::new(nets, cfg));
    layers.count("core.tuples", source.tuple_count() as f64);
    let negatives = layers.time("embed.negatives_s", || {
        NegativeTable::from_counts(&source.context_target_counts(n))
    });
    Ok(Prepared {
        graph: dataset.graph,
        source,
        negatives,
    })
}

/// One training from the files: [`prepare`], then SGNS.
fn train_once(files: &Files, cfg: &Inf2vecConfig, layers: &mut Layers) -> Result<Trained, String> {
    let start = Instant::now();
    let p = prepare(files, cfg, layers)?;
    let setup_s = secs(start.elapsed());

    let sgns_start = Instant::now();
    let mut store = EmbeddingStore::new(
        p.graph.node_count() as usize,
        cfg.k,
        split_seed(cfg.seed, 0x171),
    );
    store.use_bias = cfg.use_bias;
    let trainer = SgnsTrainer::try_new(SgnsConfig {
        negatives: cfg.negatives,
        lr: cfg.lr,
        lr_min: cfg.lr,
        epochs: cfg.epochs,
        threads: cfg.threads,
        seed: split_seed(cfg.seed, 0x262),
    })
    .map_err(|e| e.to_string())?;
    let mut iterations = Vec::with_capacity(cfg.epochs);
    let mut last = Instant::now();
    let mut on_epoch = |_: &inf2vec_embed::sgns::EpochState| {
        iterations.push(secs(last.elapsed()));
        last = Instant::now();
        Ok(())
    };
    let options = TrainOptions {
        on_epoch: Some(&mut on_epoch),
        ..TrainOptions::default()
    };
    let report = trainer
        .try_train_with(&store, &p.source, &p.negatives, options)
        .map_err(|e| format!("sgns: {e}"))?;
    let sgns_s = secs(sgns_start.elapsed());
    layers.add("embed.sgns_s", sgns_s);
    layers.count("embed.sgns_pairs", report.pairs_processed as f64);
    Ok(Trained {
        model: Inf2vecModel::new(store),
        graph: p.graph,
        setup_s,
        train_s: secs(start.elapsed()),
        sgns_s,
        iterations,
        pairs: report.pairs_processed,
    })
}

/// Runs trainings until `budget` has passed and at least `min` are done.
fn measure(
    files: &Files,
    cfg: &Inf2vecConfig,
    budget: std::time::Duration,
    min: usize,
    layers: &mut Layers,
) -> Result<(Vec<Trained>, f64), String> {
    let start = Instant::now();
    let mut done: Vec<Trained> = Vec::new();
    // Stop when another training would end more than halfway past the
    // budget, so a run overshoots by at most half a training.
    while done.len() < min
        || secs(start.elapsed()) + median(&done.iter().map(|t| t.train_s).collect::<Vec<_>>()) / 2.0
            < secs(budget)
    {
        done.push(train_once(files, cfg, layers)?);
    }
    Ok((done, secs(start.elapsed())))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let files = write_inputs(args)?;
    let cfg = config(args.seed);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        prepare(&files, &cfg, &mut Layers::default())?;
        setups.push(secs(t.elapsed()));
    }
    let half = args.budget / 2;
    let mut untraced_layers = Layers::default();
    let (runs, wall) = if args.trace {
        // First half untraced: the baseline for the tracing overhead.
        measure(&files, &cfg, half, MIN_TRAININGS, &mut untraced_layers)?
    } else {
        measure(
            &files,
            &cfg,
            args.budget,
            MIN_TRAININGS,
            &mut untraced_layers,
        )?
    };
    let mut out = Outcome::new(runs.len() as u64);
    out.input("users", files.users);
    out.input("edges", files.edge_count);
    out.input("records", files.records);
    out.input("defects", 0);
    out.input("episodes", files.episodes);
    out.input("test_episodes", files.test.len() as u64);

    let throughput = |rs: &[Trained]| {
        rs.iter().map(|t| t.pairs as f64).sum::<f64>() / rs.iter().map(|t| t.sgns_s).sum::<f64>()
    };
    let train_s = median(&runs.iter().map(|t| t.train_s).collect::<Vec<_>>());
    setups.extend(runs.iter().map(|t| t.setup_s));
    let setup_s = median(&setups);

    // Gates on the last model: finite parameters, AUC in band, and every
    // training bit-identical (single-threaded SGNS is deterministic).
    let last = runs.last().expect("at least one training");
    let finite = !last.model.store.has_non_finite();
    out.gate(
        "finite_parameters",
        finite,
        format!("non-finite parameters: {}", !finite),
        1,
    );
    let task = ActivationTask::build(&last.graph, files.test.iter());
    let auc = task
        .evaluate(&ScoringModel::Representation(&last.model, Aggregator::Ave))
        .auc;
    let in_band = auc >= AUC_BAND.0 && auc <= AUC_BAND.1;
    out.gate(
        "auc_band",
        in_band,
        format!(
            "held-out AUC {auc:.4} (band {:?}, {} candidates)",
            AUC_BAND,
            task.candidate_count()
        ),
        1,
    );
    let sums: Vec<u64> = runs
        .iter()
        .map(|t| inf2vec_serve::store_checksum(&t.model.store))
        .collect();
    let identical = sums.windows(2).all(|w| w[0] == w[1]);
    out.gate(
        "repeatable",
        identical,
        format!("model checksums {sums:x?}"),
        1,
    );

    if args.trace {
        let mut layers = Layers::default();
        let (traced, traced_wall) = measure(&files, &cfg, half, 1, &mut layers)?;
        let named = [
            "ingest.load_s",
            "diffusion.propnet_s",
            "core.contexts_s",
            "embed.negatives_s",
            "embed.sgns_s",
        ];
        let per = traced.len() as f64;
        for name in named {
            out.metric(name, layers.get(name) / per, "s");
        }
        for name in ["ingest.records", "core.tuples", "embed.sgns_pairs"] {
            out.metric(name, layers.counted(name) / per, "count");
        }
        let unattributed = traced_wall - layers.sum(&named);
        out.metric("trace.unattributed_s", unattributed / per, "s");
        out.metric("trace.wall_s", traced_wall / per, "s");
        out.metric(
            "trace.unattributed_share",
            unattributed / traced_wall,
            "ratio",
        );
        let traced_tp = throughput(&traced);
        out.metric(
            "trace.overhead_pct",
            100.0 * (throughput(&runs) / traced_tp - 1.0),
            "%",
        );
        out.note("untraced_trainings", runs.len() as f64);
        out.note("traced_trainings", per);
        out.note("untraced_throughput_per_s", throughput(&runs));
        out.note("traced_throughput_per_s", traced_tp);
        out.gate(
            "spans_cover_wall",
            unattributed >= 0.0 && unattributed / traced_wall < 0.05,
            format!("named spans leave {unattributed:.4} s of {traced_wall:.4} s"),
            1,
        );
    } else {
        out.metric("setup_s", setup_s, "s");
        out.metric("throughput_per_s", throughput(&runs), "1/s");
        let iterations: Vec<f64> = runs.iter().flat_map(|t| t.iterations.clone()).collect();
        let its = sorted(&iterations);
        out.metric("op_p50_ms", 1e3 * quantile(&its, 0.5), "ms");
        out.metric("op_tail_ms", 1e3 * quantile(&its, 1.0), "ms");
        out.metric("train_s", train_s, "s");
        out.metric("auc", auc, "ratio");
        out.metric("slo_share", share_within(&iterations, SLO_S), "ratio");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.note("trainings", runs.len() as f64);
        out.note("iterations", iterations.len() as f64);
        out.note("tail_quantile", 1.0);
        out.note("samples_beyond_tail", 0.0);
        out.note("slo_ms", 1e3 * SLO_S);
        out.note("measured_wall_s", wall);
    }
    Ok(out)
}
