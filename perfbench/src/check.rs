//! The correctness checks. Each runs outside the timed windows and returns
//! how many outputs were wrong, so a failure counts against `failed`.

use synctime_core::MessageTimestamps;
use synctime_runtime::LogEntry;
use synctime_store::RecoveredTrace;
use synctime_trace::MessageId;

/// Sampled pairs on which two stampings disagree about `↦` (Theorems 4
/// and 8 both characterise it, so offline and online stamps must agree on
/// every pair). A length mismatch makes every pair wrong.
pub fn disagreeing_pairs(
    offline: &MessageTimestamps,
    online: &MessageTimestamps,
    pairs: &[(u32, u32)],
) -> u64 {
    if offline.len() != online.len() {
        return pairs.len().max(1) as u64;
    }
    pairs
        .iter()
        .filter(|&&(a, b)| {
            let (a, b) = (MessageId(a as usize), MessageId(b as usize));
            offline.precedes(a, b) != online.precedes(a, b)
        })
        .count() as u64
}

/// Whether recovery gave back exactly the run's logs, dropping nothing.
pub fn recovery_matches(run_logs: &[Vec<LogEntry>], recovered: &RecoveredTrace) -> bool {
    recovered.dropped_records == 0 && recovered.logs == run_logs
}

/// Verdicts that differ from the local comparison on `snapshot`; a
/// missing verdict or an out-of-range id counts as wrong.
pub fn wrong_verdicts(
    snapshot: &MessageTimestamps,
    pairs: &[(u32, u32)],
    verdicts: &[bool],
) -> u64 {
    let answered = pairs.len().min(verdicts.len());
    let wrong = pairs
        .iter()
        .zip(verdicts)
        .filter(|&(&(a, b), &v)| {
            let (a, b) = (a as usize, b as usize);
            a >= snapshot.len()
                || b >= snapshot.len()
                || snapshot.precedes(MessageId(a), MessageId(b)) != v
        })
        .count();
    (wrong + pairs.len() - answered) as u64
}

/// [`wrong_verdicts`] for a trace republished while the call ran: each
/// `batch`-sized slice of verdicts was answered from one snapshot (the
/// server resolves a trace once per frame), so a slice is right when some
/// candidate snapshot explains all of it. Returns the wrong verdicts of
/// the best-matching candidate per slice.
pub fn wrong_verdicts_any(
    candidates: &[&MessageTimestamps],
    pairs: &[(u32, u32)],
    verdicts: &[bool],
    batch: usize,
) -> u64 {
    if candidates.is_empty() || verdicts.len() != pairs.len() {
        return pairs.len().max(1) as u64;
    }
    pairs
        .chunks(batch.max(1))
        .zip(verdicts.chunks(batch.max(1)))
        .map(|(p, v)| {
            candidates
                .iter()
                .map(|s| wrong_verdicts(s, p, v))
                .min()
                .unwrap_or(p.len() as u64)
        })
        .sum()
}

/// Whether two stampings are identical, message by message.
pub fn same_stamps(a: &MessageTimestamps, b: &MessageTimestamps) -> bool {
    a.vectors() == b.vectors()
}

#[cfg(test)]
mod tests {
    use super::*;
    use synctime_core::online::OnlineStamper;
    use synctime_graph::{decompose, topology};
    use synctime_runtime::Runtime;

    fn small_stamps() -> MessageTimestamps {
        use rand::SeedableRng;
        let topo = topology::complete(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let comp = synctime_sim::workload::random_computation(&topo, 300, &mut rng);
        OnlineStamper::new(&decompose::best_known(&topo))
            .stamp_computation(&comp)
            .expect("topology channels are in the decomposition")
    }

    fn all_pairs(n: u32) -> Vec<(u32, u32)> {
        (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).collect()
    }

    #[test]
    fn a_flipped_verdict_is_caught() {
        let stamps = small_stamps();
        let pairs = all_pairs(40);
        let mut verdicts: Vec<bool> = pairs
            .iter()
            .map(|&(a, b)| stamps.precedes(MessageId(a as usize), MessageId(b as usize)))
            .collect();
        assert_eq!(wrong_verdicts(&stamps, &pairs, &verdicts), 0);
        assert_eq!(wrong_verdicts_any(&[&stamps], &pairs, &verdicts, 256), 0);
        verdicts[777] = !verdicts[777];
        assert_eq!(wrong_verdicts(&stamps, &pairs, &verdicts), 1);
        assert_eq!(wrong_verdicts_any(&[&stamps], &pairs, &verdicts, 256), 1);
        assert_eq!(
            wrong_verdicts(&stamps, &pairs, &verdicts[..10]),
            pairs.len() as u64 - 10
        );
    }

    #[test]
    fn a_dropped_recovered_record_is_caught() {
        let topo = topology::cycle(4);
        let dec = decompose::best_known(&topo);
        let run = Runtime::new(&topo, &dec)
            .run(crate::live::ring_behaviors(&[1, 2, 3], None))
            .expect("ring run");
        let root =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".bench_work/check-dropped");
        let _ = std::fs::remove_dir_all(&root);
        synctime_store::persist_logs(&root, "ring", run.logs()).expect("persist");
        let recovered = synctime_store::read_trace_dir(&root.join("ring")).expect("recover");
        let _ = std::fs::remove_dir_all(&root);
        assert!(recovery_matches(run.logs(), &recovered));
        let mut short = recovered.clone();
        short.logs[2].pop();
        assert!(!recovery_matches(run.logs(), &short));
        let mut dropped = recovered.clone();
        dropped.dropped_records = 1;
        assert!(!recovery_matches(run.logs(), &dropped));
    }

    #[test]
    fn offline_and_online_disagreement_is_counted() {
        let stamps = small_stamps();
        let pairs = all_pairs(30);
        assert_eq!(disagreeing_pairs(&stamps, &stamps, &pairs), 0);
        let mut vectors = stamps.vectors().to_vec();
        vectors.swap(0, 29);
        let swapped = MessageTimestamps::new(vectors);
        assert!(disagreeing_pairs(&swapped, &stamps, &pairs) > 0);
        assert!(!same_stamps(&swapped, &stamps));
    }
}
