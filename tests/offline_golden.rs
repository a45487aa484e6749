//! Golden pin for the sparse offline engine: the stamps of one seeded
//! 20k-message computation over `complete(16)` hash to a recorded value.
//!
//! The sparse engine's output is a pure function of the message poset, so
//! any change to how it builds the realizer must leave these bytes alone.
//! The sequential engine and the pool-backed one at every pool size must
//! all hash to the same constant.

use rand::rngs::StdRng;
use rand::SeedableRng;
use synctime::prelude::*;
use synctime_par::ThreadPool;

/// FNV-1a of the stamps recorded from the heap-sweep realizer.
const GOLDEN: u64 = 0x5597_f518_ddde_2853;

fn computation() -> SyncComputation {
    let topo = graph::topology::complete(16);
    let mut rng = StdRng::seed_from_u64(20_020);
    workload::random_computation(&topo, 20_000, &mut rng)
}

/// 64-bit FNV-1a over the message count, the dimension, then every
/// component of every vector in message order, each as little-endian `u64`.
fn fnv1a(stamps: &MessageTimestamps) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(stamps.len() as u64);
    eat(stamps.dim() as u64);
    for v in stamps.vectors().iter() {
        for &x in v {
            eat(x);
        }
    }
    h
}

#[test]
fn sparse_stamps_match_the_golden_hash() {
    let comp = computation();
    let seq = offline::stamp_computation_sparse(&comp);
    assert_eq!(seq.len(), 20_000);
    assert_eq!(fnv1a(&seq), GOLDEN, "sequential engine");
    for workers in [1, 2, 8] {
        let par = offline::stamp_computation_sparse_parallel(&comp, &ThreadPool::new(workers));
        assert_eq!(fnv1a(&par), GOLDEN, "pool of {workers}");
    }
}
