#![warn(missing_docs)]

//! Embedding substrate: parameter stores and skip-gram training.
//!
//! Inf2vec, node2vec, and MF all learn per-node latent vectors with
//! stochastic gradient descent; this crate provides their shared machinery:
//!
//! - [`hogwild`]: lock-free shared parameter matrices (`HogwildMatrix`) for
//!   word2vec-style parallel SGD.
//! - [`store`]: the `EmbeddingStore` — per-node source/target vectors plus
//!   the influence-ability and conformity biases of the paper's Definition 2.
//! - [`negative`]: the unigram^0.75 negative-sampling distribution of
//!   word2vec, as a static alias table (batch) and an incrementally
//!   maintained Fenwick tree (online).
//! - [`sgns`]: the skip-gram-with-negative-sampling trainer implementing the
//!   gradient updates of the paper's Eq. 6 over any [`sgns::PairSource`],
//!   with checkpoint/resume, divergence rollback, and panic-contained
//!   Hogwild workers.
//! - [`checkpoint`]: atomic on-disk training checkpoints (parameters plus
//!   epoch/lr/loss state) for crash recovery.
//! - [`faultinject`]: pair-source fault injectors (seeded panic-on-nth-pair)
//!   for robustness tests.

pub mod checkpoint;
pub mod faultinject;
pub mod hogwild;
pub mod negative;
pub mod online;
pub mod sgns;
pub mod store;

pub use checkpoint::Checkpoint;
pub use hogwild::HogwildMatrix;
pub use negative::{NegativeSampler, NegativeTable};
pub use online::{OnlineConfig, OnlineSgns, OnlineState};
pub use sgns::{
    DivergenceGuard, EpochState, FlatPairs, PairSource, RecoveryEvent, SgnsConfig, SgnsTrainer,
    TrainOptions, TrainReport,
};
pub use store::EmbeddingStore;
