//! The two-heap deferring sweep and the reach-table chain validator that
//! preceded the chain-clock ranks, kept verbatim as differential oracles:
//!
//! * on every message poset the rank realizer must produce the same
//!   extensions as the heap sweep, extension for extension;
//! * on arbitrary DAGs with shuffled ids, where the two may order a level
//!   differently, the rank family must still realize the poset and the
//!   chain-clock `lt` must match the dense closure;
//! * `SparsePoset::from_edges_and_chains` must accept exactly the chain
//!   families the reach-table validator accepted, and reject the rest with
//!   the same error variant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::{sparse_chain_realizer, sparse_verify};
use crate::{Poset, PosetError, SparsePoset};

/// The linear extension of `p` that defers chain `chain_index` for as long
/// as any other minimal element exists: a Kahn sweep over the generating
/// edges with two min-heaps of available elements, split by chain
/// membership; the deferred chain only supplies an element when the other
/// heap runs dry.
fn sparse_extension_deferring(p: &SparsePoset, chain_index: usize) -> Vec<usize> {
    assert!(chain_index < p.chain_count(), "chain index out of range");
    let n = p.len();
    let mut pending: Vec<u32> = (0..n).map(|v| p.predecessors(v).len() as u32).collect();
    let mut others: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut deferred: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let offer = |v: usize, others: &mut BinaryHeap<_>, deferred: &mut BinaryHeap<_>| {
        if p.chain_of(v) == chain_index {
            deferred.push(Reverse(v));
        } else {
            others.push(Reverse(v));
        }
    };
    for v in 0..n {
        if pending[v] == 0 {
            offer(v, &mut others, &mut deferred);
        }
    }
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let Reverse(v) = others
            .pop()
            .or_else(|| deferred.pop())
            .expect("a finite poset always has a minimal unplaced element");
        out.push(v);
        for &w in p.successors(v) {
            let w = w as usize;
            pending[w] -= 1;
            if pending[w] == 0 {
                offer(w, &mut others, &mut deferred);
            }
        }
    }
    out
}

/// Sentinel meaning "no strict successor in this chain".
const NONE: u32 = u32::MAX;

/// The reach-table construction: for every element and chain, the least
/// position in the chain of a strict successor, merged in one
/// reverse-topological sweep. Chains are valid iff each element's least
/// same-chain strict successor is its chain neighbour and the last element
/// has none. Returns `lt` as a closure over the table.
#[allow(clippy::type_complexity)]
fn reach_table_poset(
    len: usize,
    edges: &[(usize, usize)],
    chains: Vec<Vec<usize>>,
) -> Result<Box<dyn Fn(usize, usize) -> bool>, PosetError> {
    let chain_count = chains.len();
    let mut chain_of = vec![NONE; len];
    let mut pos_in_chain = vec![NONE; len];
    for (c, chain) in chains.iter().enumerate() {
        for (i, &v) in chain.iter().enumerate() {
            if v >= len {
                return Err(PosetError::ElementOutOfRange { element: v, len });
            }
            if chain_of[v] != NONE {
                return Err(PosetError::InvalidChain {
                    chain: c,
                    element: v,
                });
            }
            chain_of[v] = c as u32;
            pos_in_chain[v] = i as u32;
        }
    }
    if let Some(v) = (0..len).find(|&v| chain_of[v] == NONE) {
        return Err(PosetError::InvalidChain {
            chain: chain_count,
            element: v,
        });
    }
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); len];
    for &(a, b) in edges {
        for &x in &[a, b] {
            if x >= len {
                return Err(PosetError::ElementOutOfRange { element: x, len });
            }
        }
        if a == b {
            return Err(PosetError::CycleDetected { element: a });
        }
        succs[a].push(b as u32);
    }
    for list in &mut succs {
        list.sort_unstable();
        list.dedup();
    }
    let mut indegree = vec![0u32; len];
    for list in &succs {
        for &b in list {
            indegree[b as usize] += 1;
        }
    }
    let mut order = Vec::with_capacity(len);
    let mut queue: Vec<usize> = (0..len).filter(|&v| indegree[v] == 0).collect();
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in &succs[v] {
            indegree[w as usize] -= 1;
            if indegree[w as usize] == 0 {
                queue.push(w as usize);
            }
        }
    }
    if order.len() != len {
        let culprit = (0..len)
            .find(|&v| indegree[v] > 0)
            .expect("a cycle leaves positive indegrees");
        return Err(PosetError::CycleDetected { element: culprit });
    }
    let mut reach = vec![NONE; len * chain_count];
    let mut row = vec![NONE; chain_count];
    for &v in order.iter().rev() {
        row.fill(NONE);
        for &s in &succs[v] {
            let s = s as usize;
            let srow = &reach[s * chain_count..(s + 1) * chain_count];
            for (slot, &m) in row.iter_mut().zip(srow) {
                if m < *slot {
                    *slot = m;
                }
            }
            let sc = chain_of[s] as usize;
            if pos_in_chain[s] < row[sc] {
                row[sc] = pos_in_chain[s];
            }
        }
        reach[v * chain_count..(v + 1) * chain_count].copy_from_slice(&row);
    }
    for (c, chain) in chains.iter().enumerate() {
        for (i, &v) in chain.iter().enumerate() {
            let want = if i + 1 < chain.len() {
                i as u32 + 1
            } else {
                NONE
            };
            if reach[v * chain_count + c] != want {
                return Err(PosetError::InvalidChain {
                    chain: c,
                    element: v,
                });
            }
        }
    }
    Ok(Box::new(move |a, b| {
        a != b && reach[a * chain_count + chain_of[b] as usize] <= pos_in_chain[b]
    }))
}

/// A message poset folded the way the trace accumulator folds one: each
/// message links to the previous message at its sender and at its
/// receiver, and joins its sender's chain. Random pairs repeat (duplicate
/// edges) and some processes never send (empty chains).
fn message_poset(rng: &mut StdRng) -> SparsePoset {
    let processes = rng.gen_range(2..9);
    let senders: Vec<usize> = (0..processes).filter(|_| rng.gen_bool(0.7)).collect();
    let mut last: Vec<Option<usize>> = vec![None; processes];
    let mut chains = vec![Vec::new(); processes];
    let mut edges = Vec::new();
    let messages = if senders.is_empty() {
        0
    } else {
        rng.gen_range(0..80)
    };
    let mut pair = (0, 1);
    for id in 0..messages {
        // Often resend on the previous pair, so both endpoints link to the
        // same message twice.
        if id == 0 || rng.gen_bool(0.6) {
            let s = senders[rng.gen_range(0..senders.len())];
            let mut r = rng.gen_range(0..processes - 1);
            if r >= s {
                r += 1;
            }
            pair = (s, r);
        }
        let (s, r) = pair;
        for p in [s, r] {
            if let Some(prev) = last[p].replace(id) {
                edges.push((prev, id));
            }
        }
        chains[s].push(id);
    }
    SparsePoset::from_edges_and_chains(messages, &edges, chains)
        .expect("a rendezvous order is a topological witness")
}

/// A random DAG given in hidden order `0..n` — every chain linked
/// consecutively, plus random forward edges, some repeated — then relabeled
/// by a random permutation so that edges no longer ascend. Returns the
/// size, the (shuffled) edges and the relabeled chains.
fn shuffled_dag(rng: &mut StdRng) -> (usize, Vec<(usize, usize)>, Vec<Vec<usize>>) {
    let n = rng.gen_range(0..40);
    let k = rng.gen_range(1..6);
    let mut chains = vec![Vec::new(); k];
    for v in 0..n {
        chains[rng.gen_range(0..k)].push(v);
    }
    let mut edges = Vec::new();
    for chain in &chains {
        edges.extend(chain.windows(2).map(|w| (w[0], w[1])));
    }
    let density = rng.gen_range(0.0..0.15);
    for a in 0..n {
        for b in a + 1..n {
            if rng.gen_bool(density) {
                edges.push((a, b));
                if rng.gen_bool(0.2) {
                    edges.push((a, b));
                }
            }
        }
    }
    let mut label: Vec<usize> = (0..n).collect();
    label.shuffle(rng);
    let edges: Vec<(usize, usize)> = {
        let mut e: Vec<_> = edges.iter().map(|&(a, b)| (label[a], label[b])).collect();
        e.shuffle(rng);
        e
    };
    let chains = chains
        .into_iter()
        .map(|c| c.into_iter().map(|v| label[v]).collect())
        .collect();
    (n, edges, chains)
}

/// Breaks a valid instance in one of the ways the validators must agree
/// on: a reversed chain, two chains merged, an element repeated or dropped
/// or out of range, a back edge (cycle), a self-loop, a bad edge endpoint.
fn break_instance(
    rng: &mut StdRng,
    n: usize,
    edges: &mut Vec<(usize, usize)>,
    chains: &mut Vec<Vec<usize>>,
) {
    let c = rng.gen_range(0..chains.len());
    match rng.gen_range(0..8) {
        0 => chains[c].reverse(),
        1 if chains.len() > 1 => {
            let other = chains.remove((c + 1) % chains.len());
            let keep = c % chains.len();
            let target = &mut chains[keep];
            let at = rng.gen_range(0..=target.len());
            for (i, v) in other.into_iter().enumerate() {
                target.insert(at + i, v);
            }
        }
        2 if n > 0 => {
            let v = rng.gen_range(0..n);
            let at = rng.gen_range(0..=chains[c].len());
            chains[c].insert(at, v);
        }
        3 if !chains[c].is_empty() => {
            let at = rng.gen_range(0..chains[c].len());
            chains[c].remove(at);
        }
        4 => chains[c].push(n + rng.gen_range(0..3)),
        5 if !edges.is_empty() => {
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            edges.push((b, a));
        }
        6 if n > 0 => {
            let v = rng.gen_range(0..n);
            edges.push((v, v));
        }
        7 => edges.push((rng.gen_range(0..n + 1), n + rng.gen_range(0..2))),
        _ => edges.reverse(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On message posets the rank realizer is the heap sweep, extension
    /// for extension, and it realizes the poset.
    #[test]
    fn ranks_match_the_heap_sweep_on_message_posets(seed in any::<u64>()) {
        let p = message_poset(&mut StdRng::seed_from_u64(seed));
        let (which, exts) = sparse_chain_realizer(&p);
        let nonempty: Vec<usize> = (0..p.chain_count()).filter(|&c| !p.chains()[c].is_empty()).collect();
        prop_assert_eq!(&which, &nonempty);
        let want: Vec<Vec<usize>> = nonempty.iter().map(|&c| sparse_extension_deferring(&p, c)).collect();
        prop_assert_eq!(&exts, &want, "seed {}", seed);
        prop_assert!(sparse_verify(&p, &exts));
    }

    /// With shuffled ids the rank family may differ from the heap sweep,
    /// but it still realizes the poset, and `lt` matches the dense closure.
    #[test]
    fn ranks_realize_shuffled_dags(seed in any::<u64>()) {
        let (n, edges, chains) = shuffled_dag(&mut StdRng::seed_from_u64(seed));
        let p = SparsePoset::from_edges_and_chains(n, &edges, chains).unwrap();
        let dense = Poset::from_cover_edges(n, &edges).unwrap();
        let (_, exts) = sparse_chain_realizer(&p);
        prop_assert!(sparse_verify(&p, &exts), "seed {}", seed);
        prop_assert!(crate::realizer::verify(&dense, &exts), "seed {}", seed);
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(p.lt(a, b), dense.lt(a, b), "lt({}, {}), seed {}", a, b, seed);
            }
        }
    }

    /// The chain-clock validator accepts exactly the families the
    /// reach-table validator accepted, rejects the rest with the same
    /// variant, and agrees on `lt` when both accept.
    #[test]
    fn validator_matches_the_reach_table(seed in any::<u64>(), breaks in 0usize..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, mut edges, mut chains) = shuffled_dag(&mut rng);
        for _ in 0..breaks {
            break_instance(&mut rng, n, &mut edges, &mut chains);
        }
        let want = reach_table_poset(n, &edges, chains.clone());
        let got = SparsePoset::from_edges_and_chains(n, &edges, chains.clone());
        match (&got, &want) {
            (Ok(p), Ok(lt)) => {
                for a in 0..n {
                    for b in 0..n {
                        prop_assert_eq!(p.lt(a, b), lt(a, b), "lt({}, {})", a, b);
                    }
                }
            }
            (Err(g), Err(w)) => prop_assert_eq!(
                std::mem::discriminant(g),
                std::mem::discriminant(w),
                "got {:?}, reference {:?}, chains {:?}, edges {:?}", g, w, chains, edges
            ),
            _ => prop_assert!(
                false,
                "got {:?}, reference accepted: {}, chains {:?}, edges {:?}",
                got.as_ref().err(), want.is_ok(), chains, edges
            ),
        }
    }
}

#[test]
fn every_break_kind_is_reached() {
    // The generators must exercise what the properties claim: empty
    // chains, duplicate edges, non-ascending edges, and every verdict.
    let (mut empty_chain, mut duplicate, mut descending) = (false, false, false);
    for seed in 0..500u64 {
        let p = message_poset(&mut StdRng::seed_from_u64(seed));
        empty_chain |= p.chains().iter().any(Vec::is_empty) && !p.is_empty();
        let (n, edges, chains) = shuffled_dag(&mut StdRng::seed_from_u64(seed));
        descending |= edges.iter().any(|&(a, b)| a > b);
        let p = SparsePoset::from_edges_and_chains(n, &edges, chains).unwrap();
        duplicate |= p.edge_count() < edges.len();
    }
    assert!(empty_chain && duplicate && descending);
    let (mut ok, mut range, mut cycle, mut chain) = (0, 0, 0, 0);
    for seed in 0..2000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, mut edges, mut chains) = shuffled_dag(&mut rng);
        for _ in 0..(seed % 3) {
            break_instance(&mut rng, n, &mut edges, &mut chains);
        }
        match reach_table_poset(n, &edges, chains) {
            Ok(_) => ok += 1,
            Err(PosetError::ElementOutOfRange { .. }) => range += 1,
            Err(PosetError::CycleDetected { .. }) => cycle += 1,
            Err(PosetError::InvalidChain { .. }) => chain += 1,
        }
    }
    assert!(
        ok > 0 && range > 0 && cycle > 0 && chain > 0,
        "{ok} {range} {cycle} {chain}"
    );
}
