//! The map-based `from_process_sequences` that preceded the sorted
//! endpoint array, kept verbatim as a differential oracle: on every input
//! — valid, malformed or cyclic — the production implementation must
//! return the same computation or the same error variant with the same
//! key.

use proptest::prelude::*;

use super::{Builder, EventKind, MessageId, ProcessId, SyncComputation};
use crate::TraceError;

/// Five `BTreeMap`s, a count check and a min-heap topological sort: the
/// reference semantics, error precedence included.
fn from_process_sequences(sequences: Vec<Vec<EventKind>>) -> Result<SyncComputation, TraceError> {
    let process_count = sequences.len();
    // Collect per-key endpoints.
    use std::collections::BTreeMap;
    let mut sends: BTreeMap<usize, (ProcessId, usize)> = BTreeMap::new();
    let mut recvs: BTreeMap<usize, (ProcessId, usize)> = BTreeMap::new();
    for (p, seq) in sequences.iter().enumerate() {
        for (i, ev) in seq.iter().enumerate() {
            match ev {
                EventKind::Internal => {}
                EventKind::Send(MessageId(k)) => {
                    if sends.insert(*k, (p, i)).is_some() {
                        return Err(TraceError::MalformedSequences { message: *k });
                    }
                }
                EventKind::Receive(MessageId(k)) => {
                    if recvs.insert(*k, (p, i)).is_some() {
                        return Err(TraceError::MalformedSequences { message: *k });
                    }
                }
            }
        }
    }
    if sends.len() != recvs.len() {
        let lonely = sends
            .keys()
            .find(|k| !recvs.contains_key(k))
            .or_else(|| recvs.keys().find(|k| !sends.contains_key(k)))
            .copied()
            .unwrap_or(0);
        return Err(TraceError::MalformedSequences { message: lonely });
    }
    let keys: Vec<usize> = sends.keys().copied().collect();
    for &k in &keys {
        if !recvs.contains_key(&k) {
            return Err(TraceError::MalformedSequences { message: k });
        }
        if sends[&k].0 == recvs[&k].0 {
            return Err(TraceError::SelfMessage(sends[&k].0));
        }
    }
    // Build the per-process message orders and topologically sort the
    // "must rendezvous earlier" constraints.
    let key_index: BTreeMap<usize, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut per_process: Vec<Vec<usize>> = vec![Vec::new(); process_count];
    for (p, seq) in sequences.iter().enumerate() {
        for ev in seq {
            if let Some(MessageId(k)) = ev.message() {
                per_process[p].push(key_index[&k]);
            }
        }
    }
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); keys.len()];
    let mut indegree = vec![0usize; keys.len()];
    for order in &per_process {
        for w in order.windows(2) {
            successors[w[0]].push(w[1]);
            indegree[w[1]] += 1;
        }
    }
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..keys.len())
        .filter(|&v| indegree[v] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::with_capacity(keys.len());
    while let Some(std::cmp::Reverse(v)) = ready.pop() {
        order.push(v);
        for &w in &successors[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                ready.push(std::cmp::Reverse(w));
            }
        }
    }
    if order.len() != keys.len() {
        let culprit = (0..keys.len())
            .find(|&v| indegree[v] > 0)
            .expect("a cycle leaves positive indegree");
        return Err(TraceError::NotSynchronous {
            message: keys[culprit],
        });
    }
    // Renumber messages into rendezvous order and rebuild via Builder.
    let mut rank = vec![0usize; keys.len()];
    for (pos, &v) in order.iter().enumerate() {
        rank[v] = pos;
    }
    let mut message_meta = vec![(0usize, 0usize); keys.len()]; // (sender, receiver) by rank
    for &k in &keys {
        let idx = key_index[&k];
        message_meta[rank[idx]] = (sends[&k].0, recvs[&k].0);
    }
    let mut histories: Vec<Vec<EventKind>> = vec![Vec::new(); process_count];
    for (p, seq) in sequences.iter().enumerate() {
        for ev in seq {
            histories[p].push(match ev {
                EventKind::Internal => EventKind::Internal,
                EventKind::Send(MessageId(k)) => EventKind::Send(MessageId(rank[key_index[k]])),
                EventKind::Receive(MessageId(k)) => {
                    EventKind::Receive(MessageId(rank[key_index[k]]))
                }
            });
        }
    }
    Ok(SyncComputation::assemble(
        process_count,
        message_meta,
        histories,
    ))
}

/// A small deterministic generator (splitmix64), so a case is a seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A random realizable computation's histories, with its messages
/// relabelled by scattered distinct keys, small or spread over the whole
/// word.
fn valid_sequences(rng: &mut Mix) -> Vec<Vec<EventKind>> {
    let n = 2 + rng.below(5);
    let steps = rng.below(40);
    let mut b = Builder::new(n);
    for _ in 0..steps {
        if rng.below(4) == 0 {
            b.internal(rng.below(n)).expect("process in range");
        } else {
            let s = rng.below(n);
            let r = (s + 1 + rng.below(n - 1)) % n;
            b.message(s, r).expect("distinct processes");
        }
    }
    let comp = b.build();
    let mut keys: Vec<usize> = (0..comp.message_count() * 3 + 1).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    if rng.below(2) == 0 {
        // Spread the keys over every byte of the word (an odd multiplier
        // is a bijection), as runtime keys `process << 32 | seq` are.
        for k in &mut keys {
            *k = k.wrapping_mul(0x9e37_79b9_7f4a_7c15_u64 as usize);
        }
    }
    (0..n)
        .map(|p| {
            comp.history(p)
                .iter()
                .map(|ev| match *ev {
                    EventKind::Internal => EventKind::Internal,
                    EventKind::Send(m) => EventKind::Send(MessageId(keys[m.0])),
                    EventKind::Receive(m) => EventKind::Receive(MessageId(keys[m.0])),
                })
                .collect()
        })
        .collect()
}

/// Every external event's `(process, index)`.
fn externals(seqs: &[Vec<EventKind>], want_receive: Option<bool>) -> Vec<(ProcessId, usize)> {
    let mut out = Vec::new();
    for (p, seq) in seqs.iter().enumerate() {
        for (i, ev) in seq.iter().enumerate() {
            let is_receive = match ev {
                EventKind::Internal => continue,
                EventKind::Send(_) => false,
                EventKind::Receive(_) => true,
            };
            if want_receive.is_none_or(|w| w == is_receive) {
                out.push((p, i));
            }
        }
    }
    out
}

/// Breaks the sequences in one adversarial way: a duplicated send or
/// receive, a lonely send or receive, a self-message, a swap of two local
/// events (often a cyclic order), or a key collision.
fn mutate(seqs: &mut [Vec<EventKind>], rng: &mut Mix) {
    let n = seqs.len();
    let pick = |rng: &mut Mix, seqs: &[Vec<EventKind>], want: Option<bool>| {
        let all = externals(seqs, want);
        (!all.is_empty()).then(|| all[rng.below(all.len())])
    };
    match rng.below(7) {
        0 | 1 => {
            // Duplicate send (0) or receive (1) somewhere.
            let receive = rng.below(2) == 1;
            if let Some((p, i)) = pick(rng, seqs, Some(receive)) {
                let ev = seqs[p][i];
                let q = rng.below(n);
                let at = rng.below(seqs[q].len() + 1);
                seqs[q].insert(at, ev);
            }
        }
        2 | 3 => {
            // Drop a receive (lonely send) or a send (lonely receive).
            let receive = rng.below(2) == 0;
            if let Some((p, i)) = pick(rng, seqs, Some(receive)) {
                seqs[p].remove(i);
            }
        }
        4 => {
            // Move a receive onto its sender's process: a self-message.
            if let Some((p, i)) = pick(rng, seqs, Some(true)) {
                let key = seqs[p][i].message().map_or(0, |m| m.0);
                let sender = (0..n).find(|&q| seqs[q].contains(&EventKind::Send(MessageId(key))));
                if let Some(q) = sender {
                    let ev = seqs[p].remove(i);
                    let at = rng.below(seqs[q].len() + 1);
                    seqs[q].insert(at, ev);
                }
            }
        }
        5 => {
            // Swap two events of one process.
            let p = rng.below(n);
            if seqs[p].len() >= 2 {
                let a = rng.below(seqs[p].len());
                let b = rng.below(seqs[p].len());
                seqs[p].swap(a, b);
            }
        }
        _ => {
            // Relabel one endpoint with another message's key.
            if let (Some((p, i)), Some((q, j))) = (pick(rng, seqs, None), pick(rng, seqs, None)) {
                let key = seqs[q][j].message().map_or(0, |m| m.0);
                seqs[p][i] = match seqs[p][i] {
                    EventKind::Send(_) => EventKind::Send(MessageId(key)),
                    _ => EventKind::Receive(MessageId(key)),
                };
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Valid computations, and the same computations broken 1–3 times,
    /// get the same answer from both implementations: the same
    /// computation, or the same error variant naming the same key.
    #[test]
    fn sorted_endpoints_match_the_map_reference(seed in any::<u64>(), breaks in 0usize..4) {
        let mut rng = Mix(seed);
        let mut seqs = valid_sequences(&mut rng);
        for _ in 0..breaks {
            mutate(&mut seqs, &mut rng);
        }
        let want = from_process_sequences(seqs.clone());
        let got = SyncComputation::from_process_sequences(seqs.clone());
        prop_assert_eq!(got, want, "sequences: {:?}", seqs);
    }
}

#[test]
fn every_error_kind_is_reached() {
    // The generator must actually exercise each branch it claims to.
    let (mut ok, mut malformed, mut selfm, mut cyclic) = (0, 0, 0, 0);
    for seed in 0..2000u64 {
        let mut rng = Mix(seed);
        let mut seqs = valid_sequences(&mut rng);
        for _ in 0..(seed % 3) {
            mutate(&mut seqs, &mut rng);
        }
        match from_process_sequences(seqs) {
            Ok(_) => ok += 1,
            Err(TraceError::MalformedSequences { .. }) => malformed += 1,
            Err(TraceError::SelfMessage(_)) => selfm += 1,
            Err(TraceError::NotSynchronous { .. }) => cyclic += 1,
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(
        ok > 0 && malformed > 0 && selfm > 0 && cyclic > 0,
        "{ok} {malformed} {selfm} {cyclic}"
    );
}
