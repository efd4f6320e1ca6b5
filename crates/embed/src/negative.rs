//! Negative-sampling distributions.
//!
//! word2vec draws negative samples from the unigram distribution raised to
//! the 3/4 power; the paper adopts the same scheme ("we randomly generate
//! several negative instances", Eq. 4, |N| typically 5–10). Frequencies here
//! are how often each node appears as a *context* (influence target), so
//! frequently-influenced users serve as hard negatives.
//!
//! Two samplers implement [`NegativeSampler`]:
//!
//! - [`NegativeTable`]: a static alias table, O(n) to build and O(1) per
//!   draw — the batch trainer's corpus counts never change.
//! - [`NegativeTree`]: a Fenwick tree over integer fixed-point weights,
//!   O(log n) per count update and per draw — the online trainer's counts
//!   move every episode, and a per-episode O(n) rebuild would dominate.

use std::fmt;

use inf2vec_util::rng::Xoshiro256pp;
use inf2vec_util::AliasTable;

/// word2vec's distortion exponent.
pub const DISTORTION: f64 = 0.75;

/// A distribution over node ids `0..len()` that negatives are drawn from.
pub trait NegativeSampler {
    /// Number of node ids the sampler ranges over.
    fn len(&self) -> u32;

    /// Draws one node id.
    fn sample(&self, rng: &mut Xoshiro256pp) -> u32;

    /// True when the sampler ranges over no ids.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws a node id different from both `u` and `v` (word2vec resamples
    /// on collision with the positive target; we also exclude the center).
    /// Falls back to a uniform draw after a few collisions, then walks the
    /// id space to the next admissible id. Only with `len() <= 2` can no
    /// admissible id exist; the fallback draw is then returned as is.
    #[inline]
    fn sample_excluding(&self, u: u32, v: u32, rng: &mut Xoshiro256pp) -> u32 {
        for _ in 0..8 {
            let w = self.sample(rng);
            if w != u && w != v {
                return w;
            }
        }
        // Degenerate distribution: at most two ids are excluded, so two
        // steps of the walk reach an admissible one whenever it exists.
        let n = self.len();
        let mut w = rng.below(n as u64) as u32;
        for _ in 0..2 {
            if w != u && w != v {
                break;
            }
            w = (w + 1) % n;
        }
        w
    }
}

/// Static sampler over node ids `0..n` (alias method).
#[derive(Debug, Clone)]
pub struct NegativeTable {
    table: AliasTable,
    n: u32,
}

impl NegativeTable {
    /// Builds the sampler from per-node context counts. Nodes with zero
    /// count get a floor of 1 so every node can appear as a negative (the
    /// evaluation ranks *all* candidate users, including never-influenced
    /// ones, so they must receive gradient signal).
    pub fn from_counts(counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "need at least one node");
        let weights: Vec<f64> = counts
            .iter()
            .map(|&c| (c.max(1) as f64).powf(DISTORTION))
            .collect();
        Self {
            table: AliasTable::new(&weights),
            n: counts.len() as u32,
        }
    }

    /// Uniform sampler over `n` nodes (used when no counts exist, e.g. the
    /// citation case study's cold start).
    pub fn uniform(n: u32) -> Self {
        assert!(n > 0, "need at least one node");
        Self {
            table: AliasTable::new(&vec![1.0; n as usize]),
            n,
        }
    }
}

impl NegativeSampler for NegativeTable {
    fn len(&self) -> u32 {
        self.n
    }

    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> u32 {
        self.table.sample(rng) as u32
    }
}

/// Context counts whose fixed-point weights [`NegativeTree`] cannot hold:
/// the counts sum past `u64::MAX`, which no trainer can reach by applying
/// pairs (its `u64` pair counter would overflow first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SamplerOverflow {
    /// Number of counts offered.
    pub(crate) nodes: usize,
}

impl fmt::Display for SamplerOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "context counts over {} nodes sum past u64::MAX; the negative \
             sampler's fixed-point weights cannot hold them",
            self.nodes
        )
    }
}

impl std::error::Error for SamplerOverflow {}

/// Incrementally maintained unigram^0.75 sampler over node ids `0..n`.
///
/// Node weights are the integers `round(max(c,1)^0.75 · 2^SCALE)`. Every
/// node carries at least the floor weight `weight(0)`; the part above it
/// (its *excess*) sits in a leaf array, and a Fenwick tree over blocks of
/// [`BLOCK`](Self::BLOCK) leaves sums the excess. A draw takes
/// `r = below(total)`: below `n · weight(0)` it lands uniformly in O(1),
/// otherwise it descends the block tree in O(log n) and scans one block.
/// Splitting off the floor makes growth O(1) (a new node has no excess)
/// and keeps the descent's arrays small enough to stay in cache.
///
/// Integer sums are exact, so both arrays are a pure function of the
/// counts: a sampler rebuilt with [`from_counts`](Self::from_counts) is
/// equal, node for node, to one kept current with [`grow`](Self::grow)
/// and [`set_count`](Self::set_count) over any history. The capacity (a
/// power of two) is a pure function of `n` for the same reason.
///
/// # Overflow
///
/// `total` fits in `u64` for every reachable state. With `n <= 2^32` ids
/// whose counts sum to at most `2^64`, Hölder's inequality bounds
/// `Σ max(c,1)^0.75 <= n + n^(1/4) · (Σ c)^(3/4) <= 2^32 + 2^56`, so the
/// scaled total stays below `2^39 + 2^63` plus at most `n/2` of rounding.
/// [`from_counts`](Self::from_counts) rejects counts whose sum exceeds
/// `u64::MAX` with a typed [`SamplerOverflow`]. The scale puts the floor
/// weight at 128 units, a relative rounding error of at most 0.4% —
/// finer, at a million nodes, than word2vec's 10^8-slot table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NegativeTree {
    /// Per-id weight above the floor, `weight(c) - weight(0)`; `capacity`
    /// long, zero at and beyond `n`.
    excess: Vec<u64>,
    /// 1-based Fenwick array over the per-block sums of `excess`, of
    /// length `capacity / BLOCK + 1`: `blocks[i]` sums blocks
    /// `[i - lowbit(i), i)`, so its last entry is the total excess.
    blocks: Vec<u64>,
    n: u32,
}

impl NegativeTree {
    /// Fixed-point scale: weights carry `SCALE` fractional bits.
    pub const SCALE: u32 = 7;

    /// Leaves per block of the Fenwick tree (a power of two).
    pub const BLOCK: usize = 16;

    /// The fixed-point weight of a node with context count `c`.
    #[inline]
    pub fn weight(c: u64) -> u64 {
        ((c.max(1) as f64).powf(DISTORTION) * (1u64 << Self::SCALE) as f64).round() as u64
    }

    /// The floor weight every node carries, `weight(0) = 2^SCALE`.
    const FLOOR: u64 = 1 << Self::SCALE;

    /// Leaf capacity for `n` ids: a pure function of `n`.
    fn capacity(n: usize) -> usize {
        n.next_power_of_two().max(Self::BLOCK)
    }

    /// Builds the sampler from per-node context counts in O(n).
    pub fn from_counts(counts: &[u64]) -> Result<Self, SamplerOverflow> {
        let overflow = SamplerOverflow {
            nodes: counts.len(),
        };
        counts
            .iter()
            .try_fold(0u64, |sum, &c| sum.checked_add(c))
            .ok_or(overflow.clone())?;
        let n = u32::try_from(counts.len()).map_err(|_| overflow)?;
        let mut excess = vec![0u64; Self::capacity(counts.len())];
        for (e, &c) in excess.iter_mut().zip(counts) {
            *e = Self::weight(c) - Self::FLOOR;
        }
        let mut blocks = vec![0u64; excess.len() / Self::BLOCK + 1];
        for (slot, block) in blocks[1..].iter_mut().zip(excess.chunks(Self::BLOCK)) {
            *slot = block.iter().sum();
        }
        // Linear Fenwick build: push each node's sum into its parent.
        let nb = blocks.len() - 1;
        for i in 1..=nb {
            let parent = i + (i & i.wrapping_neg());
            if parent <= nb {
                blocks[parent] += blocks[i];
            }
        }
        Ok(Self { excess, blocks, n })
    }

    /// Sum of all weights (`0` only for an empty sampler).
    pub fn total(&self) -> u64 {
        self.floor_mass() + self.blocks[self.blocks.len() - 1]
    }

    /// The mass of the floor weights, `n · weight(0)`.
    fn floor_mass(&self) -> u64 {
        u64::from(self.n) * Self::FLOOR
    }

    /// Extends the id space to `n` with zero-count nodes in amortised
    /// O(1): new ids have no excess, and a capacity doubling only moves
    /// the total excess into the new root. A no-op when `n` is not larger.
    pub fn grow(&mut self, n: u32) {
        if n <= self.n {
            return;
        }
        let cap = Self::capacity(n as usize);
        if cap > self.excess.len() {
            self.excess.resize(cap, 0);
        }
        while self.blocks.len() - 1 < cap / Self::BLOCK {
            let nb = self.blocks.len() - 1;
            let total = self.blocks[nb];
            self.blocks.resize(2 * nb + 1, 0);
            // Entry 2·nb covers blocks [0, 2·nb): the old total plus
            // zeros. The entries between cover only new, empty blocks.
            self.blocks[2 * nb] = total;
        }
        self.n = n;
    }

    /// Sets node `id`'s context count to `count`, in O(log n).
    #[inline]
    pub fn set_count(&mut self, id: u32, count: u64) {
        let new = Self::weight(count) - Self::FLOOR;
        let slot = &mut self.excess[id as usize];
        // Two's complement, so the delta may be "negative"; every entry
        // holds a sum that fits in `u64`, so the wrapping arithmetic lands
        // on exactly that sum.
        let delta = new.wrapping_sub(*slot);
        *slot = new;
        if delta != 0 {
            let nb = self.blocks.len() - 1;
            let mut i = id as usize / Self::BLOCK + 1;
            while i <= nb {
                self.blocks[i] = self.blocks[i].wrapping_add(delta);
                i += i & i.wrapping_neg();
            }
        }
    }
}

impl NegativeSampler for NegativeTree {
    fn len(&self) -> u32 {
        self.n
    }

    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> u32 {
        let floor = self.floor_mass();
        let mut r = rng.below(self.total());
        if r < floor {
            return (r / Self::FLOOR) as u32;
        }
        r -= floor;
        // Descend to the block whose prefix-sum interval holds `r`. The
        // block count is a power of two and `r` is below the last entry
        // (the total), so the descent starts one level down and never
        // steps past the end. Branch-free: which way each level goes is a
        // coin flip the branch predictor cannot learn.
        let mut pos = 0usize;
        let mut step = (self.blocks.len() - 1) >> 1;
        while step > 0 {
            let v = self.blocks[pos + step];
            let take = v <= r;
            r -= if take { v } else { 0 };
            pos += if take { step } else { 0 };
            step >>= 1;
        }
        // Then to the leaf inside it.
        let start = pos * Self::BLOCK;
        for (i, &e) in self.excess[start..start + Self::BLOCK].iter().enumerate() {
            if r < e {
                return (start + i) as u32;
            }
            r -= e;
        }
        unreachable!("a block's leaves sum to its Fenwick entry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Draws `trials` samples and returns per-id frequencies.
    fn frequencies(s: &impl NegativeSampler, seed: u64, trials: u32) -> Vec<f64> {
        let mut rng = Xoshiro256pp::new(seed);
        let mut hits = vec![0u32; s.len() as usize];
        for _ in 0..trials {
            hits[s.sample(&mut rng) as usize] += 1;
        }
        hits.iter().map(|&h| h as f64 / trials as f64).collect()
    }

    #[test]
    fn distortion_flattens_distribution() {
        // Counts 1 : 16 -> weights 1 : 8, so the frequent node should be
        // sampled ~8/9 of the time, not 16/17.
        let t = NegativeTable::from_counts(&[1, 16]);
        let f1 = frequencies(&t, 1, 100_000)[1];
        assert!((f1 - 8.0 / 9.0).abs() < 0.01, "f1 = {f1}");
    }

    #[test]
    fn tree_distortion_flattens_distribution() {
        // The same 1 : 8 weight ratio, plus a never-seen node floored to 1.
        let t = NegativeTree::from_counts(&[1, 16, 0]).unwrap();
        let f = frequencies(&t, 1, 200_000);
        for (got, want) in f.iter().zip([0.1, 0.8, 0.1]) {
            assert!((got - want).abs() < 0.01, "frequencies {f:?}");
        }
    }

    #[test]
    fn tree_matches_the_alias_table_distribution() {
        let counts: Vec<u64> = (0..37u64).map(|i| (i * 7919) % 101).collect();
        let tree = NegativeTree::from_counts(&counts).unwrap();
        let table = NegativeTable::from_counts(&counts);
        let (ft, fa) = (
            frequencies(&tree, 5, 400_000),
            frequencies(&table, 6, 400_000),
        );
        let weights: Vec<f64> = counts
            .iter()
            .map(|&c| (c.max(1) as f64).powf(DISTORTION))
            .collect();
        let total: f64 = weights.iter().sum();
        for i in 0..counts.len() {
            let p = weights[i] / total;
            assert!((ft[i] - p).abs() < 0.004, "tree id {i}: {} vs {p}", ft[i]);
            assert!((fa[i] - p).abs() < 0.004, "table id {i}: {} vs {p}", fa[i]);
        }
    }

    #[test]
    fn zero_counts_still_sampled() {
        let t = NegativeTable::from_counts(&[0, 0, 100]);
        let tree = NegativeTree::from_counts(&[0, 0, 100]).unwrap();
        for f in [frequencies(&t, 2, 10_000), frequencies(&tree, 2, 10_000)] {
            assert!(f.iter().all(|&p| p > 0.0), "some node never sampled: {f:?}");
        }
    }

    #[test]
    fn exclusion_respected() {
        let t = NegativeTable::uniform(5);
        let tree = NegativeTree::from_counts(&[3, 0, 9, 1, 4]).unwrap();
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..1000 {
            for w in [
                t.sample_excluding(1, 3, &mut rng),
                tree.sample_excluding(1, 3, &mut rng),
            ] {
                assert!(w != 1 && w != 3 && w < 5);
            }
        }
    }

    #[test]
    fn exclusion_degenerate_three_nodes() {
        let t = NegativeTable::from_counts(&[0, 1_000_000, 0]);
        let tree = NegativeTree::from_counts(&[0, 1_000_000_000, 0]).unwrap();
        let mut rng = Xoshiro256pp::new(4);
        for _ in 0..100 {
            assert_ne!(t.sample_excluding(1, 1, &mut rng), 1);
            assert_ne!(tree.sample_excluding(1, 1, &mut rng), 1);
        }
    }

    #[test]
    fn exclusion_degenerate_two_nodes_and_one() {
        let mut rng = Xoshiro256pp::new(8);
        // Two nodes, one excluded: the other one is always found, even
        // when the excluded node holds nearly all the mass.
        let t = NegativeTable::from_counts(&[1_000_000, 0]);
        let tree = NegativeTree::from_counts(&[1_000_000_000, 0]).unwrap();
        for _ in 0..200 {
            assert_eq!(t.sample_excluding(0, 0, &mut rng), 1);
            assert_eq!(tree.sample_excluding(0, 0, &mut rng), 1);
        }
        // No admissible id exists: the draw terminates in range.
        let tree = NegativeTree::from_counts(&[5, 5]).unwrap();
        for _ in 0..50 {
            assert!(tree.sample_excluding(0, 1, &mut rng) < 2);
        }
        let single = NegativeTree::from_counts(&[0]).unwrap();
        assert_eq!(single.sample_excluding(0, 0, &mut rng), 0);
        assert_eq!(
            NegativeTable::uniform(1).sample_excluding(0, 0, &mut rng),
            0
        );
    }

    #[test]
    fn grow_then_update_equals_rebuild() {
        let mut t = NegativeTree::from_counts(&[0, 2]).unwrap();
        t.grow(70);
        t.set_count(4, 3);
        t.set_count(1, 6);
        t.set_count(69, 1000);
        let mut counts = vec![0u64; 70];
        counts[1] = 6;
        counts[4] = 3;
        counts[69] = 1000;
        assert_eq!(t, NegativeTree::from_counts(&counts).unwrap());
        assert_eq!(
            t.total(),
            counts.iter().map(|&c| NegativeTree::weight(c)).sum()
        );
    }

    #[test]
    fn extreme_counts_fit_and_overflow_fails_typed() {
        // One node holding every pair a u64 counter can count: its weight
        // is about 2^55, far from the u64 limit.
        let t = NegativeTree::from_counts(&[u64::MAX, 0, 0]).unwrap();
        assert!(t.total() > 1 << 54 && t.total() < 1 << 56);
        let mut rng = Xoshiro256pp::new(9);
        assert_eq!(t.sample_excluding(0, 1, &mut rng), 2);
        // Counts evenly spread maximise the weight sum for a given count
        // sum (Hölder); it still fits.
        let spread = vec![u64::MAX / 4096; 4096];
        let t = NegativeTree::from_counts(&spread).unwrap();
        assert!(t.total() < u64::MAX / 2);
        // A count sum past u64::MAX is unreachable by training and is
        // rejected with a typed error rather than wrapped.
        let err = NegativeTree::from_counts(&[u64::MAX, 1]).unwrap_err();
        assert_eq!(err, SamplerOverflow { nodes: 2 });
        assert!(err.to_string().contains("u64::MAX"));
    }

    #[test]
    fn empty_tree_is_empty_until_grown() {
        let mut t = NegativeTree::from_counts(&[]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
        t.grow(3);
        assert_eq!(t, NegativeTree::from_counts(&[0, 0, 0]).unwrap());
    }

    proptest! {
        /// Any interleaving of growth and count increments leaves the
        /// maintained tree node-for-node equal to one rebuilt from the
        /// counts — the property journal recovery relies on.
        #[test]
        fn maintained_tree_equals_rebuilt_tree(
            start in 1usize..40,
            steps in prop::collection::vec((0u32..3, 0u32..400, 1u64..50), 1..60),
        ) {
            let mut counts = vec![0u64; start];
            let mut tree = NegativeTree::from_counts(&counts).unwrap();
            for (kind, id, by) in steps {
                if kind == 0 {
                    // Growth by up to 3x: crosses power-of-two capacities
                    // and block-tree doublings.
                    let n = counts.len() + (id as usize % (2 * counts.len() + 1));
                    counts.resize(n, 0);
                    tree.grow(n as u32);
                } else {
                    let id = id % counts.len() as u32;
                    counts[id as usize] += by;
                    tree.set_count(id, counts[id as usize]);
                }
                prop_assert_eq!(&tree, &NegativeTree::from_counts(&counts).unwrap());
            }
        }
    }
}
