//! Sharded Hamming centroid index.
//!
//! DUAL's chip partitions stored hypervectors across crossbar blocks
//! and searches every block in parallel (§V-C); the software analogue
//! keeps the sub-centroid set split into `shards` contiguous slices and
//! answers nearest queries by folding per-shard winners under the
//! same `(distance, index)` total order that
//! [`dual_hdc::search::top_k`] sorts by. Because shards are contiguous
//! and merged in shard order, every query is **bit-identical** to a
//! flat scan over the whole set — sharding changes the execution shape,
//! never the answer.

use crate::engine::as_u64;
use dual_hdc::Hypervector;
use dual_obs::{Key, Obs};

/// A set of sub-centroids partitioned into contiguous shards.
///
/// The index *owns* the centroid storage: the online-clustering layer
/// reads current centers through [`ShardedIndex::centroids`] and
/// rewrites them in place via [`ShardedIndex::set`], so there is a
/// single source of truth for "what does the chip currently store".
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedIndex {
    centroids: Vec<Hypervector>,
    shards: usize,
}

impl ShardedIndex {
    /// An index over `centroids` split into at most `shards` contiguous
    /// slices (fewer when there are fewer centroids than shards).
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`.
    #[must_use]
    pub fn new(centroids: Vec<Hypervector>, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        Self { centroids, shards }
    }

    /// Number of stored sub-centroids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// Whether nothing is stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Configured shard count (an upper bound; actual shards never
    /// outnumber stored centroids).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// All stored sub-centroids, in global index order.
    #[must_use]
    pub fn centroids(&self) -> &[Hypervector] {
        &self.centroids
    }

    /// Append a sub-centroid, returning its global index.
    pub fn push(&mut self, hv: Hypervector) -> usize {
        self.centroids.push(hv);
        self.centroids.len() - 1
    }

    /// Overwrite the sub-centroid at global index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn set(&mut self, i: usize, hv: Hypervector) {
        assert!(i < self.centroids.len(), "centroid index out of range");
        self.centroids[i] = hv;
    }

    /// Global index and Hamming distance of the sub-centroid nearest to
    /// `query`: per-shard winners folded in shard order, so ties break
    /// toward the lowest global index exactly as a flat
    /// [`dual_hdc::search::nearest`] scan does. `None` when the index is
    /// empty.
    #[must_use]
    pub fn nearest(&self, query: &Hypervector) -> Option<(usize, usize)> {
        let mut tally = ScanTally::default();
        let best = self.scan(query, &mut tally);
        tally.flush();
        best
    }

    /// Assign every query to its nearest sub-centroid, chunking queries
    /// across up to `threads` scoped workers (`0` = auto). The output
    /// is bit-identical to [`dual_hdc::search::assign_batch`] over the
    /// flat centroid set for every `(shards, threads)` combination.
    ///
    /// # Panics
    ///
    /// Panics when the index is empty (an assignment target must
    /// exist).
    #[must_use]
    pub fn assign(&self, queries: &[Hypervector], threads: usize) -> Vec<(usize, usize)> {
        assert!(!self.is_empty(), "cannot assign against an empty index");
        let mut out = vec![(0usize, 0usize); queries.len()];
        dual_pool::par_fill(&mut out, threads, |offset, slots| {
            let mut tally = ScanTally::default();
            for (slot, q) in slots.iter_mut().zip(&queries[offset..]) {
                // Non-empty index: the scan always finds a winner; the
                // fallback keeps the closure total without panicking.
                *slot = self.scan(q, &mut tally).unwrap_or((0, 0));
            }
            tally.flush();
        });
        out
    }

    /// The allocation-free sharded scan behind [`ShardedIndex::nearest`]
    /// and [`ShardedIndex::assign`]. Each shard of the balanced
    /// [`dual_pool::balanced_ranges`] split keeps its own
    /// strict-improvement winner — the bounded top-1 discipline of
    /// [`dual_hdc::search::top_k`] with `k = 1` — and the winners fold
    /// in shard order, ties to the earlier shard. The search counters go
    /// into `tally` exactly as one `search::top_k(query, shard, 1)` call
    /// per shard would record them.
    fn scan(&self, query: &Hypervector, tally: &mut ScanTally) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for r in dual_pool::balanced_ranges(self.centroids.len(), self.shards) {
            let mut shard_best: Option<(usize, usize)> = None;
            for (i, c) in self.centroids[r.clone()].iter().enumerate() {
                let d = query.hamming(c);
                if shard_best.is_none_or(|(_, bd)| d < bd) {
                    shard_best = Some((r.start + i, d));
                    tally.pushes += 1;
                }
            }
            tally.queries += 1;
            if let Some((gi, d)) = shard_best {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((gi, d));
                }
            }
        }
        tally.words += as_u64(self.centroids.len()) * as_u64(query.dim().div_ceil(64));
        best
    }
}

/// `hdc.search.*` counts of a run of scans, flushed to the global
/// recorder once per worker chunk instead of once per shard.
#[derive(Default)]
struct ScanTally {
    queries: u64,
    words: u64,
    pushes: u64,
}

impl ScanTally {
    fn flush(&self) {
        let obs = Obs::global();
        obs.add(Key::HdcSearchQueries, self.queries);
        obs.add(Key::HdcPopcountWords, self.words);
        obs.add(Key::HdcTopKPushes, self.pushes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_hdc::ops::random_hypervector;
    use dual_hdc::search;

    fn pool(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
        (0..n)
            .map(|i| random_hypervector(dim, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    #[test]
    fn sharded_nearest_matches_flat_scan() {
        for n in [1usize, 2, 7, 63, 64, 65] {
            let cents = pool(n, 256, 11);
            let queries = pool(9, 256, 5);
            for shards in [1usize, 2, 3, 8, 64] {
                let idx = ShardedIndex::new(cents.clone(), shards);
                for q in &queries {
                    assert_eq!(
                        idx.nearest(q),
                        search::nearest(q, &cents),
                        "n={n} shards={shards}"
                    );
                }
            }
        }
    }

    #[test]
    fn assign_matches_assign_batch_for_all_shapes() {
        let cents = pool(10, 128, 17);
        let queries = pool(33, 128, 29);
        let want = search::assign_batch(&queries, &cents, 1);
        for shards in [1usize, 2, 3, 10] {
            let idx = ShardedIndex::new(cents.clone(), shards);
            for threads in [0usize, 1, 2, 3, 8] {
                assert_eq!(
                    idx.assign(&queries, threads),
                    want,
                    "shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn ties_break_toward_low_global_index_across_shard_boundaries() {
        let q = Hypervector::zeros(16);
        let cents = vec![q.clone(), q.clone(), q.clone(), q.clone()];
        for shards in [1usize, 2, 4] {
            let idx = ShardedIndex::new(cents.clone(), shards);
            assert_eq!(idx.nearest(&q), Some((0, 0)), "shards={shards}");
        }
    }

    #[test]
    fn push_and_set_manage_storage() {
        let mut idx = ShardedIndex::new(Vec::new(), 4);
        assert!(idx.is_empty());
        assert_eq!(idx.nearest(&Hypervector::zeros(8)), None);
        assert_eq!(idx.push(Hypervector::zeros(8)), 0);
        assert_eq!(idx.push(Hypervector::zeros(8)), 1);
        idx.set(1, Hypervector::from_bitvec(dual_hdc::BitVec::ones(8)));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.centroids()[1].bits().count_ones(), 8);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        let _ = ShardedIndex::new(Vec::new(), 0);
    }

    #[test]
    #[should_panic(expected = "empty index")]
    fn assign_rejects_empty_index() {
        let idx = ShardedIndex::new(Vec::new(), 2);
        let _ = idx.assign(&[Hypervector::zeros(8)], 1);
    }
}
