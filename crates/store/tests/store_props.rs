//! Property tests for the store's crash tolerance: arbitrary stamp
//! payloads (any vector's `wire::encode_full` bytes) encoded into store files, then truncated or
//! corrupted at arbitrary byte positions — recovery must keep exactly a
//! valid record prefix, reconstruct it successfully, and never panic.
//! Adversarial record streams appended in flush-sized batches check the
//! incremental tail reader against a whole-directory reference assembly.

use proptest::collection;
use proptest::prelude::*;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use synctime_core::wire;

use synctime_store::record::{encode_meta, encode_record, scan_file, Meta, FORMAT_VERSION};
use synctime_store::{
    materialize, persist_logs, read_trace_dir, LogEntry, ReconfigRecord, RecoveredTrace,
    StampRecord, StoreError, TraceStore, TraceTailReader, LOG_FILE, SNAPSHOT_FILE,
};
use synctime_testutil::TempDir;

// Arbitrary stamp bytes: every stamp is stored as `wire::encode_full` of
// its vector, so an arbitrary component vector covers every stamp the
// store can be handed.
prop_compose! {
    fn arb_stamp()(components in collection::vec(0u64..1_000_000, 0..9)) -> Vec<u8> {
        wire::encode_full(&synctime_core::VectorTime::from(components))
    }
}

prop_compose! {
    fn arb_record()(
        process in 0u64..4,
        pseq in 0u64..64,
        peer in 0u64..4,
        key in any::<u64>(),
        stamp in arb_stamp(),
        kind in 0u8..3,
    ) -> StampRecord {
        match kind {
            0 => StampRecord::Sent { process, pseq, peer, key, stamp },
            1 => StampRecord::Received { process, pseq, peer, key, stamp },
            _ => StampRecord::Internal { process, pseq },
        }
    }
}

fn encode_file(records: &[StampRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_meta(
        &mut bytes,
        &Meta {
            version: FORMAT_VERSION,
            process_count: 4,
            generation: 0,
        },
    );
    for rec in records {
        encode_record(&mut bytes, rec);
    }
    bytes
}

/// Deterministic two-process rendezvous logs: `rounds` ping-pongs built
/// by hand (no runtime needed), with stamps of the given dimension so
/// different clock widths flow through persistence.
fn synthetic_logs(rounds: u64, dim: usize) -> Vec<Vec<LogEntry>> {
    let stamp = |c: u64| {
        let mut v = vec![0u64; dim.max(1)];
        v[0] = c;
        synctime_core::VectorTime::from(v)
    };
    let mut a = Vec::new();
    let mut b = Vec::new();
    for r in 0..rounds {
        let k1 = r * 2;
        let k2 = r * 2 + 1;
        a.push(LogEntry::Sent {
            to: 1,
            key: k1,
            stamp: stamp(k1 + 1),
        });
        b.push(LogEntry::Received {
            from: 0,
            key: k1,
            stamp: stamp(k1 + 1),
        });
        b.push(LogEntry::Internal);
        b.push(LogEntry::Sent {
            to: 0,
            key: (1 << 32) | k2,
            stamp: stamp(k2 + 1),
        });
        a.push(LogEntry::Received {
            from: 1,
            key: (1 << 32) | k2,
            stamp: stamp(k2 + 1),
        });
    }
    vec![a, b]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Untruncated files scan back to exactly the records written, and
    /// any truncation keeps a (possibly shorter) prefix — never garbage,
    /// never a panic.
    #[test]
    fn truncated_files_scan_to_a_record_prefix(
        records in collection::vec(arb_record(), 0..24),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode_file(&records);
        let whole = scan_file(&bytes);
        prop_assert_eq!(whole.records.as_slice(), records.as_slice());
        prop_assert_eq!(whole.torn_bytes, 0);

        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let scan = scan_file(&bytes[..cut]);
        prop_assert!(scan.records.len() <= records.len());
        prop_assert_eq!(scan.records.as_slice(), &records[..scan.records.len()]);
    }

    /// A single flipped byte anywhere in the file still yields a valid
    /// record prefix (the CRC refuses the damaged record and everything
    /// after it; records before the flip are untouched).
    #[test]
    fn corrupted_files_scan_to_a_record_prefix(
        records in collection::vec(arb_record(), 1..16),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_file(&records);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let scan = scan_file(&bytes);
        prop_assert!(scan.records.len() <= records.len());
        for (got, want) in scan.records.iter().zip(records.iter()) {
            prop_assert_eq!(got, want);
        }
    }

    /// End-to-end crash recovery: persist a run, truncate the sealed
    /// snapshot at an arbitrary byte, and recover — the result is always
    /// a reconstructible prefix of the original per-process logs (or a
    /// typed corruption error while META itself is torn; never a panic).
    #[test]
    fn torn_store_recovers_a_reconstructible_prefix(
        rounds in 1u64..6,
        dim in 1usize..5,
        cut_frac in 0.0f64..1.0,
    ) {
        let logs = synthetic_logs(rounds, dim);
        let root = TempDir::new(&format!("store-props-torn-{rounds}-{dim}"));
        let store = persist_logs(&root, "t", &logs).expect("persist");
        let snap = store.dir().join(synctime_store::SNAPSHOT_FILE);
        let bytes = std::fs::read(&snap).expect("read snapshot");

        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&snap, &bytes[..cut]).expect("truncate");
        match read_trace_dir(store.dir()) {
            Ok(rec) => {
                prop_assert_eq!(rec.logs.len(), logs.len());
                for (got, want) in rec.logs.iter().zip(logs.iter()) {
                    prop_assert!(got.len() <= want.len());
                    prop_assert_eq!(got.as_slice(), &want[..got.len()]);
                }
                materialize(&rec.logs).expect("recovered prefix reconstructs");
            }
            Err(StoreError::Corrupt(_)) => {
                // Only legitimate while the META record itself is torn.
            }
            Err(other) => return Err(TestCaseError::Fail(format!("unexpected error: {other}"))),
        }
    }

    /// Full round trip at arbitrary widths: what goes in comes back out,
    /// bit for bit, through persist → recover → materialize.
    #[test]
    fn persisted_runs_round_trip(rounds in 1u64..8, dim in 1usize..6) {
        let logs = synthetic_logs(rounds, dim);
        let root = TempDir::new(&format!("store-props-rt-{rounds}-{dim}"));
        let store = persist_logs(&root, "t", &logs).expect("persist");
        let rec = read_trace_dir(store.dir()).expect("recover");
        prop_assert_eq!(&rec.logs, &logs);
        prop_assert_eq!(rec.dropped_records, 0);
        materialize(&rec.logs).expect("reconstructs");
    }
}

/// The whole-directory recovery assembly that preceded the incremental
/// reader, kept as a reference: read and scan both files, dedup into
/// per-process `BTreeMap`s, take the dense prefixes, then truncate at the
/// first partnerless entry and recount until nothing changes.
fn reference_read(dir: &Path) -> Result<RecoveredTrace, StoreError> {
    let mut torn_bytes = 0usize;
    let mut metas: Vec<Meta> = Vec::new();
    let mut all: Vec<StampRecord> = Vec::new();
    let mut boundaries: Vec<ReconfigRecord> = Vec::new();
    for name in [SNAPSHOT_FILE, LOG_FILE] {
        let path = dir.join(name);
        if !path.exists() {
            continue;
        }
        let scan = scan_file(&std::fs::read(&path).map_err(StoreError::from)?);
        torn_bytes += scan.torn_bytes;
        if let Some(meta) = scan.meta {
            metas.push(meta);
            all.extend(scan.records);
            boundaries.extend(scan.reconfigs);
        }
    }
    let Some(first) = metas.first().copied() else {
        return Err(StoreError::Corrupt(format!(
            "no readable store metadata in {}",
            dir.display()
        )));
    };
    if first.version != FORMAT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "store format version {} (this build reads {FORMAT_VERSION})",
            first.version
        )));
    }
    if metas.iter().any(|m| m.process_count != first.process_count) {
        return Err(StoreError::Corrupt(
            "snapshot and log disagree on the process count".to_string(),
        ));
    }
    let process_count = first.process_count as usize;
    let generation = metas.iter().map(|m| m.generation).max().unwrap_or(0);
    let parsed = all.len();
    let mut per: Vec<BTreeMap<u64, StampRecord>> =
        (0..process_count).map(|_| BTreeMap::new()).collect();
    for rec in all {
        if let Some(map) = per.get_mut(rec.process() as usize) {
            map.entry(rec.pseq()).or_insert(rec);
        }
    }
    let decode = |bytes: &[u8]| wire::decode_full(bytes).expect("scanned stamps decode");
    let mut logs: Vec<Vec<LogEntry>> = per
        .iter()
        .map(|map| {
            map.iter()
                .enumerate()
                .take_while(|(i, (&pseq, _))| pseq == *i as u64)
                .map(|(_, (_, rec))| match rec {
                    StampRecord::Sent {
                        peer, key, stamp, ..
                    } => LogEntry::Sent {
                        to: *peer as usize,
                        key: *key,
                        stamp: decode(stamp),
                    },
                    StampRecord::Received {
                        peer, key, stamp, ..
                    } => LogEntry::Received {
                        from: *peer as usize,
                        key: *key,
                        stamp: decode(stamp),
                    },
                    StampRecord::Internal { .. } => LogEntry::Internal,
                })
                .collect()
        })
        .collect();
    loop {
        let mut sent: BTreeMap<u64, usize> = BTreeMap::new();
        let mut received: BTreeMap<u64, usize> = BTreeMap::new();
        for entry in logs.iter().flatten() {
            match entry {
                LogEntry::Sent { key, .. } => *sent.entry(*key).or_default() += 1,
                LogEntry::Received { key, .. } => *received.entry(*key).or_default() += 1,
                LogEntry::Internal => {}
            }
        }
        let mut changed = false;
        for log in &mut logs {
            let cut = log.iter().position(|entry| match entry {
                LogEntry::Sent { key, .. } => !received.contains_key(key),
                LogEntry::Received { key, .. } => !sent.contains_key(key),
                LogEntry::Internal => false,
            });
            if let Some(cut) = cut {
                log.truncate(cut);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    boundaries.sort_by_key(|r| r.epoch);
    boundaries.dedup_by_key(|r| r.epoch);
    boundaries.retain(|r| {
        r.cuts.len() == process_count
            && r.cuts
                .iter()
                .zip(&logs)
                .all(|(&cut, log)| cut as usize <= log.len())
    });
    let records = logs.iter().map(Vec::len).sum();
    Ok(RecoveredTrace {
        process_count,
        generation,
        logs,
        records,
        torn_bytes,
        dropped_records: parsed - records,
        reconfigs: boundaries,
    })
}

/// A small deterministic generator (splitmix64), so a stream is a seed.
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

/// One step of an adversarial append stream.
#[derive(Debug, Clone)]
enum Op {
    Record(StampRecord),
    Reconfig(ReconfigRecord),
}

/// A rendezvous-shaped record stream for `processes` processes, then
/// broken: records swapped out of `pseq` order, coordinates repeated
/// (sometimes with different contents), keys shared by two or more
/// messages, records dropped (leaving partnerless entries and `pseq`
/// gaps), partnerless records added, records naming a process beyond the
/// run, RECONFIG records with repeated epochs and arbitrary cuts, and now
/// and then an undecodable stamp. Keys mix small values with values above
/// `u32::MAX` (runtime keys are `process << 32 | seq`), and some receives
/// are logged many records after their send, so the send waits unmatched
/// while both logs grow past it.
fn adversarial_stream(rng: &mut Mix, processes: usize) -> Vec<Op> {
    let stamp = |c: u64| wire::encode_full(&synctime_core::VectorTime::from(vec![c, c / 2]));
    let mut next_pseq = vec![0u64; processes + 1];
    let mut ops = Vec::new();
    let mut key = 0u64;
    let mut used: Vec<u64> = Vec::new();
    // Receives logged late: (step due, receiver, sender, key).
    let mut late: Vec<(usize, usize, usize, u64)> = Vec::new();
    let receive = |ops: &mut Vec<Op>, next_pseq: &mut [u64], r: usize, s: usize, k: u64| {
        ops.push(Op::Record(StampRecord::Received {
            process: r as u64,
            pseq: next_pseq[r],
            peer: s as u64,
            key: k,
            stamp: stamp(k),
        }));
        next_pseq[r] += 1;
    };
    let steps = 8 + rng.below(40);
    for step in 0..steps {
        while let Some(at) = late.iter().position(|&(due, ..)| due <= step) {
            let (_, r, s, k) = late.swap_remove(at);
            receive(&mut ops, &mut next_pseq, r, s, k);
        }
        if rng.below(5) == 0 {
            let p = rng.below(processes);
            ops.push(Op::Record(StampRecord::Internal {
                process: p as u64,
                pseq: next_pseq[p],
            }));
            next_pseq[p] += 1;
            continue;
        }
        let s = rng.below(processes);
        let r = (s + 1 + rng.below(processes - 1)) % processes;
        // Now and then a message reuses an earlier key; a reused key may
        // be reused again, so some keys carry three or more entries.
        let k = if !used.is_empty() && rng.below(6) == 0 {
            used[rng.below(used.len())]
        } else {
            key += 1;
            if rng.below(3) == 0 {
                ((s as u64 + 1) << 32) | key
            } else {
                key
            }
        };
        used.push(k);
        ops.push(Op::Record(StampRecord::Sent {
            process: s as u64,
            pseq: next_pseq[s],
            peer: r as u64,
            key: k,
            stamp: stamp(k),
        }));
        next_pseq[s] += 1;
        if rng.below(6) == 0 {
            late.push((step + 4 + rng.below(16), r, s, k));
        } else {
            receive(&mut ops, &mut next_pseq, r, s, k);
        }
    }
    // Receives still due land at the end, long after their sends.
    for (_, r, s, k) in late {
        receive(&mut ops, &mut next_pseq, r, s, k);
    }
    let breaks = rng.below(12);
    for _ in 0..breaks {
        let at = rng.below(ops.len());
        match rng.below(7) {
            0 => {
                // Out of order: a record arrives a few records late, so
                // its process's later records wait beyond a gap.
                let op = ops.remove(at);
                let to = (at + 1 + rng.below(8)).min(ops.len());
                ops.insert(to, op);
            }
            1 => {
                // Repeat a coordinate later, maybe with other contents.
                if let Op::Record(rec) = ops[at].clone() {
                    let copy = if rng.below(2) == 0 {
                        rec
                    } else {
                        StampRecord::Internal {
                            process: rec.process(),
                            pseq: rec.pseq(),
                        }
                    };
                    let to = (at + 1 + rng.below(4)).min(ops.len());
                    ops.insert(to, Op::Record(copy));
                }
            }
            2 => {
                // Drop a record: a partnerless entry, and a pseq gap.
                ops.remove(at);
            }
            3 => {
                // A partnerless send or receive with a fresh key.
                let p = rng.below(processes);
                key += 1;
                let rec = if rng.below(2) == 0 {
                    StampRecord::Sent {
                        process: p as u64,
                        pseq: next_pseq[p],
                        peer: ((p + 1) % processes) as u64,
                        key,
                        stamp: stamp(key),
                    }
                } else {
                    StampRecord::Received {
                        process: p as u64,
                        pseq: next_pseq[p],
                        peer: ((p + 1) % processes) as u64,
                        key,
                        stamp: stamp(key),
                    }
                };
                next_pseq[p] += 1;
                ops.insert(at, Op::Record(rec));
            }
            4 => {
                // A record naming a process the run does not have.
                ops.insert(
                    at,
                    Op::Record(StampRecord::Internal {
                        process: processes as u64,
                        pseq: next_pseq[processes],
                    }),
                );
                next_pseq[processes] += 1;
            }
            _ => {
                // An epoch boundary: small epochs repeat, cuts may outrun
                // the logs or name the wrong number of processes.
                let cut_count = if rng.below(5) == 0 {
                    processes + 1
                } else {
                    processes
                };
                let cuts = (0..cut_count).map(|_| rng.below(12) as u64).collect();
                ops.insert(
                    at,
                    Op::Reconfig(ReconfigRecord {
                        epoch: 1 + rng.below(3) as u64,
                        cuts,
                        ops: vec![(rng.below(2) as u8, 0, 1)],
                    }),
                );
            }
        }
    }
    if rng.below(8) == 0 {
        // Late in the stream, a checksum-valid record whose stamp bytes do
        // not decode: it ends every reader's valid prefix.
        let at = ops.len() - ops.len() / 4;
        ops.insert(
            at,
            Op::Record(StampRecord::Sent {
                process: 0,
                pseq: 0,
                peer: 1,
                key: 0,
                stamp: vec![0xff; 3],
            }),
        );
    }
    ops
}

/// A warm reader's poll, a fresh reader's first poll, the one-shot
/// [`read_trace_dir`] and the reference assembly must agree on every
/// field of the recovered trace.
fn check_readers(
    reader: &mut TraceTailReader,
    dir: &Path,
    when: &str,
) -> Result<(), TestCaseError> {
    let warm = reader.poll().expect("warm poll");
    let first_poll = TraceTailReader::new(dir).poll().expect("first poll");
    let one_shot = read_trace_dir(dir).expect("one-shot read");
    let reference = reference_read(dir).expect("reference read");
    prop_assert_eq!(&warm, &reference, "warm poll vs reference {}", when);
    prop_assert_eq!(&first_poll, &reference, "first poll vs reference {}", when);
    prop_assert_eq!(
        &one_shot,
        &reference,
        "read_trace_dir vs reference {}",
        when
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adversarial streams appended in random flush-sized batches, with a
    /// torn final record that completes later and a mid-stream snapshot:
    /// after every flush the tail reader equals a full re-read and the
    /// reference assembly, `dropped_records` and `torn_bytes` included.
    #[test]
    fn tail_reader_equals_reference_on_adversarial_streams(
        seed in any::<u64>(),
        processes in 2usize..5,
    ) {
        let mut rng = Mix(seed);
        let ops = adversarial_stream(&mut rng, processes);
        let root = TempDir::new("store-props-adversarial");
        let mut store = TraceStore::create(&root, "t", processes)
            .expect("create")
            .with_snapshot_every(0);
        let dir = store.dir().to_path_buf();
        let log_path = dir.join(LOG_FILE);
        let mut reader = TraceTailReader::new(&dir);
        check_readers(&mut reader, &dir, "before any append")?;
        let snapshot_at = rng.below(ops.len());
        let mut i = 0;
        while i < ops.len() {
            let batch = 1 + rng.below(6);
            for op in &ops[i..(i + batch).min(ops.len())] {
                match op {
                    Op::Record(rec) => store.append(rec.clone()).expect("append"),
                    Op::Reconfig(rec) => store.append_reconfig(rec).expect("append reconfig"),
                }
            }
            let from = i;
            i = (i + batch).min(ops.len());
            store.flush().expect("flush");
            check_readers(&mut reader, &dir, &format!("after ops {from}..{i}"))?;
            if (from..i).contains(&snapshot_at) {
                store.snapshot().expect("snapshot");
                check_readers(&mut reader, &dir, &format!("after snapshot at op {i}"))?;
            }
            // Tear the next record: half its bytes reach the file, the
            // readers see a torn tail; then the bytes go away again and
            // the store appends the record whole on the next batch.
            if let Some(Op::Record(next)) = ops.get(i) {
                if rng.below(3) == 0 {
                    let mut framed = Vec::new();
                    encode_record(&mut framed, next);
                    let keep = 1 + rng.below(framed.len() - 1);
                    let len = std::fs::metadata(&log_path).expect("stat log").len();
                    let mut file = std::fs::OpenOptions::new()
                        .append(true)
                        .open(&log_path)
                        .expect("open log");
                    file.write_all(&framed[..keep]).expect("tear");
                    drop(file);
                    check_readers(&mut reader, &dir, &format!("with op {i} torn"))?;
                    std::fs::OpenOptions::new()
                        .write(true)
                        .open(&log_path)
                        .and_then(|f| f.set_len(len))
                        .expect("untear");
                }
            }
        }
        store.snapshot().expect("seal");
        check_readers(&mut reader, &dir, "after sealing")?;
    }
}

/// The stream generator must actually reach the index paths it claims
/// to: keys with three or more entries (spilled past the inline slots),
/// keys above `u32::MAX`, and receives logged long after their sends.
#[test]
fn adversarial_streams_cover_the_index_paths() {
    let (mut spilled, mut wide, mut late) = (0, 0, 0);
    for seed in 0..200u64 {
        let ops = adversarial_stream(&mut Mix(seed), 2 + (seed % 3) as usize);
        let mut entries: BTreeMap<u64, usize> = BTreeMap::new();
        let mut sent_at: BTreeMap<u64, usize> = BTreeMap::new();
        let mut stream_late = false;
        for (at, op) in ops.iter().enumerate() {
            match op {
                Op::Record(StampRecord::Sent { key, .. }) => {
                    *entries.entry(*key).or_default() += 1;
                    sent_at.entry(*key).or_insert(at);
                }
                Op::Record(StampRecord::Received { key, .. }) => {
                    *entries.entry(*key).or_default() += 1;
                    stream_late |= sent_at.get(key).is_some_and(|&s| at >= s + 8);
                }
                _ => {}
            }
        }
        spilled += usize::from(entries.values().any(|&n| n >= 3));
        wide += usize::from(entries.keys().any(|&k| k > u64::from(u32::MAX)));
        late += usize::from(stream_late);
    }
    assert!(
        spilled > 20 && wide > 20 && late > 20,
        "{spilled} {wide} {late}"
    );
}
