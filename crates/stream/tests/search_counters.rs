//! `ShardedIndex::assign` against its reference, answers and search
//! counters both.
//!
//! The reference is the per-shard form the index stands for: one
//! `search::top_k(query, shard, 1)` call per shard of
//! `dual_pool::chunk_ranges`. The index must return the flat
//! `search::assign_batch` answer and record exactly the
//! `hdc.search.*` counts those `top_k` calls record. This is its own
//! test binary because it installs the process-global registry, which
//! no other test in the process may write to while it measures.

use dual_hdc::ops::random_hypervector;
use dual_hdc::{search, Hypervector};
use dual_obs::{Key, Registry};
use dual_stream::ShardedIndex;

const KEYS: [Key; 3] = [
    Key::HdcSearchQueries,
    Key::HdcPopcountWords,
    Key::HdcTopKPushes,
];

fn pool(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
    (0..n)
        .map(|i| random_hypervector(dim, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// The three search counters recorded while `f` runs.
fn deltas(reg: &Registry, f: impl FnOnce()) -> [u64; 3] {
    let before = KEYS.map(|k| reg.counter(k));
    f();
    let after = KEYS.map(|k| reg.counter(k));
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn sharded_assign_matches_flat_answers_and_per_shard_top_k_counters() {
    let reg = dual_obs::install_global();
    let dim = 200;
    let queries = pool(11, dim, 5);
    for slots in [1usize, 2, 7, 64, 65, 1024] {
        // Every third centroid copies one of four queries, so exact ties
        // inside and across shards are common and the push count
        // depends on the tie rule.
        let cents: Vec<Hypervector> = pool(slots, dim, 11)
            .into_iter()
            .enumerate()
            .map(|(i, hv)| {
                if i % 3 == 0 {
                    queries[i % 4].clone()
                } else {
                    hv
                }
            })
            .collect();
        let want = search::assign_batch(&queries, &cents, 1);
        for shards in [1usize, 2, 3, 8, 64] {
            let reference = deltas(reg, || {
                for q in &queries {
                    for r in dual_pool::chunk_ranges(slots, shards) {
                        std::hint::black_box(search::top_k(q, &cents[r], 1));
                    }
                }
            });
            let idx = ShardedIndex::new(cents.clone(), shards);
            for threads in [1usize, 2, 3] {
                let mut got = Vec::new();
                let counted = deltas(reg, || got = idx.assign(&queries, threads));
                let case = format!("slots={slots} shards={shards} threads={threads}");
                assert_eq!(got, want, "{case}");
                assert_eq!(
                    counted, reference,
                    "{case}: [queries, popcount_words, topk_pushes]"
                );
            }
        }
    }
}
