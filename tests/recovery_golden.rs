//! Golden pin for cold recovery: one seeded, persisted ring run is read
//! back with `read_trace_dir` and materialized, and the recovered logs,
//! the rebuilt computation and its stamps hash to recorded values.
//!
//! The store is written with automatic compaction on, so recovery reads a
//! snapshot *and* a log tail. The tail ends in a torn record, and one
//! process's last entries are never written, so their partners are
//! trimmed by the matched-keys rule. Any change to how recovery assembles
//! or how materialize rebuilds must leave these bytes alone.

use std::io::Write;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synctime::prelude::*;
use synctime::runtime::LogEntry;
use synctime_store::{
    materialize, read_trace_dir, record_from_log_entry, RecoveredTrace, TraceStore, LOG_FILE,
};
use synctime_testutil::TempDir;

/// FNV-1a of the recovered trace, recorded before the allocation-light
/// recovery rewrite.
const GOLDEN_RECOVERED: u64 = 0xd5b8_8d3d_221d_66e3;

/// FNV-1a of the materialized computation and stamps, recorded likewise.
const GOLDEN_MATERIALIZED: u64 = 0x5394_d6c2_60c6_3299;

const RING: usize = 4;
const ROUNDS: usize = 2500;

/// 64-bit FNV-1a over a stream of little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stamp(&mut self, v: &[u64]) {
        self.eat(v.len() as u64);
        for &x in v {
            self.eat(x);
        }
    }
}

/// A ring of four processes: even processes send right then receive
/// from the left, odd ones the reverse. Each process logs a seeded
/// number of internal events before every rendezvous.
fn ring_logs(seed: u64) -> Vec<Vec<LogEntry>> {
    let topo = graph::topology::cycle(RING);
    let dec = graph::decompose::best_known(&topo);
    let behaviors: Vec<Behavior> = (0..RING)
        .map(|p| {
            let right = (p + 1) % RING;
            let left = (p + RING - 1) % RING;
            let behavior: Behavior = Box::new(move |ctx| {
                let mut rng = StdRng::seed_from_u64(seed ^ ((p as u64) << 40));
                for round in 0..ROUNDS {
                    for _ in 0..rng.gen_range(0..3usize) {
                        ctx.internal();
                    }
                    if p % 2 == 0 {
                        ctx.send(right, round as u64)?;
                        ctx.receive_from(left)?;
                    } else {
                        let (x, _) = ctx.receive_from(left)?;
                        ctx.send(right, x)?;
                    }
                }
                Ok(())
            });
            behavior
        })
        .collect();
    let run = Runtime::new(&topo, &dec).run(behaviors).expect("ring run");
    run.logs().to_vec()
}

/// Persists `logs` round-robin across processes under the default
/// compaction trigger, leaving out process 2's last three entries, then
/// tears a half-written record onto the log's end.
fn persist(root: &std::path::Path, logs: &[Vec<LogEntry>]) -> std::path::PathBuf {
    let mut store = TraceStore::create(root, "ring", logs.len()).expect("create store");
    let longest = logs.iter().map(Vec::len).max().unwrap_or(0);
    for pseq in 0..longest {
        for (process, log) in logs.iter().enumerate() {
            let withheld = process == 2 && pseq + 3 >= log.len();
            if let Some(entry) = log.get(pseq).filter(|_| !withheld) {
                let rec = record_from_log_entry(process as u64, pseq as u64, entry);
                store.append(rec).expect("append");
            }
        }
    }
    store.sync().expect("sync");
    assert!(store.generation() > 0, "the run must have compacted");
    let dir = store.dir().to_path_buf();
    let mut framed = Vec::new();
    let last = logs[2].len() - 3;
    synctime_store::record::encode_record(
        &mut framed,
        &record_from_log_entry(2, last as u64, &logs[2][last]),
    );
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(LOG_FILE))
        .expect("open log");
    log.write_all(&framed[..framed.len() / 2]).expect("tear");
    dir
}

fn hash_recovered(rec: &RecoveredTrace) -> u64 {
    let mut h = Fnv::new();
    for x in [
        rec.process_count,
        rec.generation as usize,
        rec.records,
        rec.torn_bytes,
        rec.dropped_records,
        rec.reconfigs.len(),
    ] {
        h.eat(x as u64);
    }
    for log in &rec.logs {
        h.eat(log.len() as u64);
        for entry in log {
            match entry {
                LogEntry::Sent { to, key, stamp } => {
                    h.eat(0);
                    h.eat(*to as u64);
                    h.eat(*key);
                    h.stamp(stamp.as_slice());
                }
                LogEntry::Received { from, key, stamp } => {
                    h.eat(1);
                    h.eat(*from as u64);
                    h.eat(*key);
                    h.stamp(stamp.as_slice());
                }
                LogEntry::Internal => h.eat(2),
            }
        }
    }
    h.0
}

fn hash_materialized(comp: &SyncComputation, stamps: &MessageTimestamps) -> u64 {
    let mut h = Fnv::new();
    h.eat(comp.process_count() as u64);
    h.eat(comp.message_count() as u64);
    for m in comp.messages() {
        h.eat(m.sender as u64);
        h.eat(m.receiver as u64);
    }
    for p in 0..comp.process_count() {
        let history = comp.history(p);
        h.eat(history.len() as u64);
        for ev in history {
            h.eat(ev.message().map_or(u64::MAX, |m| m.0 as u64));
        }
    }
    h.eat(stamps.len() as u64);
    h.eat(stamps.dim() as u64);
    for v in stamps.vectors().iter() {
        h.stamp(v);
    }
    h.0
}

#[test]
fn cold_recovery_matches_the_golden_hash() {
    let logs = ring_logs(0x5eed_0015);
    let root = TempDir::new("recovery-golden");
    let dir = persist(&root, &logs);
    let rec = read_trace_dir(&dir).expect("recover");
    let (comp, stamps) = materialize(&rec.logs).expect("materialize");

    assert!(rec.torn_bytes > 0, "the log must end torn");
    assert!(rec.dropped_records > 0, "withheld partners must be trimmed");
    assert_eq!(comp.message_count(), stamps.len());
    assert_eq!(
        hash_recovered(&rec),
        GOLDEN_RECOVERED,
        "recovered logs {:#018x}",
        hash_recovered(&rec)
    );
    assert_eq!(
        hash_materialized(&comp, &stamps),
        GOLDEN_MATERIALIZED,
        "materialized {:#018x}",
        hash_materialized(&comp, &stamps)
    );
}
