//! The trace store writer ([`TraceStore`]) and directory-level recovery
//! ([`TraceTailReader`], [`read_trace_dir`]).
//!
//! ## Snapshot / compaction lifecycle
//!
//! A [`TraceStore`] appends records to `log.st`. Once the log tail has
//! both reached `snapshot_every` appends *and* grown to rival the
//! snapshotted prefix (a geometric trigger, so total compaction I/O
//! stays a constant factor of the bytes ingested — a fixed cadence
//! would rewrite the whole trace `O(n / cadence)` times), and on
//! demand, it compacts:
//!
//! 1. write *all* records to `snapshot.tmp` under the next generation,
//!    flush, fsync;
//! 2. atomically rename `snapshot.tmp` → `snapshot.st` and fsync the
//!    directory;
//! 3. recreate `log.st` empty (a lone META record of the new generation).
//!
//! A crash at any point leaves a recoverable store: before the rename the
//! old snapshot + old log are intact; between the rename and the log
//! truncation the new snapshot *contains* every record the stale log
//! repeats, and recovery's coordinate-level deduplication makes the
//! overlap harmless.
//!
//! ## Recovery invariants
//!
//! Recovery takes both files' valid record prefixes (torn tails dropped
//! by the scan layer), snapshot first, then:
//!
//! 1. **dedup** — one record per `(process, pseq)` coordinate, first
//!    occurrence wins;
//! 2. **dense prefix** — each process keeps its longest gap-free `pseq`
//!    prefix (a gap means later records of that process are unanchored);
//! 3. **matched keys** — the greatest family of prefixes of those logs in
//!    which every kept entry's rendezvous partner record is kept too
//!    (counted per key: a send needs a receive with its key, and vice
//!    versa).
//!
//! The result is the largest causally consistent prefix family of the
//! original run: local orders are prefixes, every kept send has its kept
//! receive, and [`reconstruct_from_logs`] rebuilds exactly the trace an
//! uninterrupted in-memory run would have produced from the same prefix.
//! A quiesced, fully flushed store recovers the *whole* run.
//!
//! There is one implementation of these rules, an assembly that takes
//! records one at a time. [`TraceTailReader`] keeps one assembled record
//! by record; a warm poll reads only the log bytes appended since the
//! last one and runs the matched-keys rule as a worklist over the
//! unmatched frontier, so its cost follows what changed, not the length
//! of the trace. [`read_trace_dir`] runs the same cold ingestion a fresh
//! reader's first poll runs, then finishes the assembly **by value**: the
//! dense logs are truncated to their matched lengths and moved out,
//! where a reader, which keeps its state, must clone the kept entries.
//!
//! The matched-keys index keeps a message key's counts and its first send
//! and first receive **inline**, 24 bytes per key (a reused key's later
//! entries spill into a side map, otherwise never allocated). It tracks
//! unmatched entries with **a flag per entry and a cursor** per process:
//! only the push of an entry sets a flag, its own at the newest index,
//! and every later change clears one, so no flag below the cursor is ever
//! set again and the cursor advances lazily in amortised O(1) per entry.
//!
//! [`reconstruct_from_logs`]: synctime_runtime::reconstruct_from_logs

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::hash::{BuildHasher, Hasher};
use std::io::{BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use synctime_core::wire;
use synctime_runtime::LogEntry;
use synctime_trace::ProcessId;

use crate::record::{
    encode_meta, encode_reconfig, encode_record, scan_meta, walk_records, Meta, Payload,
    ReconfigRecord, StampRecord, FORMAT_VERSION,
};
use crate::StoreError;

/// File holding all records up to the last compaction.
pub const SNAPSHOT_FILE: &str = "snapshot.st";

/// File holding records appended since the last compaction.
pub const LOG_FILE: &str = "log.st";

/// The staging name a snapshot is written under before its atomic rename.
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Default appends between automatic compactions.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 4096;

/// Bound on a trace name in bytes (it becomes a directory name).
const MAX_TRACE_NAME: usize = 255;

/// Checks that `name` is safe to use as a store subdirectory: non-empty,
/// at most 255 bytes, no path separators or NUL, and no leading dot.
///
/// # Errors
///
/// [`StoreError::InvalidTraceName`] describing the violation.
pub fn validate_trace_name(name: &str) -> Result<(), StoreError> {
    if name.is_empty() {
        return Err(StoreError::InvalidTraceName(
            "trace name is empty".to_string(),
        ));
    }
    if name.len() > MAX_TRACE_NAME {
        return Err(StoreError::InvalidTraceName(format!(
            "trace name of {} bytes exceeds the {MAX_TRACE_NAME}-byte bound",
            name.len()
        )));
    }
    if name.starts_with('.') {
        return Err(StoreError::InvalidTraceName(format!(
            "trace name {name:?} starts with a dot"
        )));
    }
    if name.chars().any(|c| c == '/' || c == '\\' || c == '\0') {
        return Err(StoreError::InvalidTraceName(format!(
            "trace name {name:?} contains a path separator"
        )));
    }
    Ok(())
}

/// Lists the trace subdirectories of a store root as `(name, path)`
/// pairs, sorted by name. Entries that are not directories or whose names
/// would not validate are skipped, not errors — a store root may hold
/// unrelated files.
///
/// # Errors
///
/// [`StoreError::Io`] when the root itself cannot be read.
pub fn trace_dirs(root: &Path) -> Result<Vec<(String, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if validate_trace_name(name).is_ok() {
            out.push((name.to_string(), path));
        }
    }
    out.sort();
    Ok(out)
}

/// Flushes directory metadata (the rename durability point on POSIX).
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The append side of one trace's durable log. See the module docs for
/// the snapshot/compaction lifecycle.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    log: BufWriter<File>,
    process_count: usize,
    generation: u64,
    /// Every record appended so far, already framed and checksummed —
    /// exactly the bytes a snapshot writes, so compaction is a single
    /// sequential write instead of a re-encode of the whole history.
    encoded: Vec<u8>,
    /// Records appended so far (the geometric trigger's unit).
    records: usize,
    since_snapshot: usize,
    snapshot_every: usize,
    scratch: Vec<u8>,
}

impl TraceStore {
    /// Creates (or resets) the store for `trace` under `root`, writing a
    /// fresh generation-0 log. Any previous contents of the trace
    /// directory are superseded.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidTraceName`] for an unusable name,
    /// [`StoreError::Io`] on filesystem failures.
    pub fn create(root: &Path, trace: &str, process_count: usize) -> Result<Self, StoreError> {
        validate_trace_name(trace)?;
        let dir = root.join(trace);
        fs::create_dir_all(&dir)?;
        for stale in [SNAPSHOT_FILE, SNAPSHOT_TMP] {
            let path = dir.join(stale);
            if path.exists() {
                fs::remove_file(&path)?;
            }
        }
        let meta = Meta {
            version: FORMAT_VERSION,
            process_count: process_count as u64,
            generation: 0,
        };
        let mut scratch = Vec::new();
        encode_meta(&mut scratch, &meta);
        let mut log = BufWriter::new(File::create(dir.join(LOG_FILE))?);
        log.write_all(&scratch)?;
        log.flush()?;
        log.get_ref().sync_all()?;
        Ok(TraceStore {
            dir,
            log,
            process_count,
            generation: 0,
            encoded: Vec::new(),
            records: 0,
            since_snapshot: 0,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            scratch,
        })
    }

    /// Sets how many appends trigger an automatic compaction (0 disables
    /// automatic snapshots; [`TraceStore::snapshot`] still works).
    #[must_use]
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Appends one record to the log (buffered — call
    /// [`TraceStore::flush`] to make it visible to readers, or
    /// [`TraceStore::sync`] to make it durable). Triggers a compaction
    /// when the configured append budget is reached.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write or compaction failures.
    pub fn append(&mut self, rec: StampRecord) -> Result<(), StoreError> {
        self.scratch.clear();
        encode_record(&mut self.scratch, &rec);
        self.append_scratch()
    }

    /// Writes the framed record staged in `scratch` and runs the
    /// compaction trigger — the tail shared by every append flavor.
    fn append_scratch(&mut self) -> Result<(), StoreError> {
        self.log.write_all(&self.scratch)?;
        self.encoded.extend_from_slice(&self.scratch);
        self.records += 1;
        self.since_snapshot += 1;
        // Geometric trigger: compact only once the un-snapshotted tail is
        // at least `snapshot_every` records AND at least as large as the
        // snapshotted prefix, so a long run rewrites each record O(1)
        // times in total rather than once per cadence window.
        let snapshotted = self.records - self.since_snapshot;
        if self.snapshot_every != 0
            && self.since_snapshot >= self.snapshot_every
            && self.since_snapshot >= snapshotted
        {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Appends one RECONFIG epoch-boundary record. Counts toward the
    /// compaction trigger like any other record and rides the same
    /// snapshot byte stream, so a boundary survives compaction alongside
    /// the entries it segments.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write or compaction failures.
    pub fn append_reconfig(&mut self, rec: &ReconfigRecord) -> Result<(), StoreError> {
        self.scratch.clear();
        encode_reconfig(&mut self.scratch, rec);
        self.append_scratch()
    }

    /// Pushes buffered appends to the OS (readers polling the file see
    /// them after this; durability additionally needs
    /// [`TraceStore::sync`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failures.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.log.flush()?;
        Ok(())
    }

    /// Flushes and fsyncs the log: everything appended so far survives a
    /// crash (modulo the final record tearing, which recovery tolerates).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on flush or fsync failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.log.flush()?;
        self.log.get_ref().sync_all()?;
        Ok(())
    }

    /// Compacts now: writes every record to a fresh snapshot (staged and
    /// atomically renamed), then truncates the log under the next
    /// generation. See the module docs for the crash-safety argument.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure; the store is still
    /// recoverable afterwards (the sequence is crash-safe at every step).
    pub fn snapshot(&mut self) -> Result<(), StoreError> {
        let generation = self.generation + 1;
        let meta = Meta {
            version: FORMAT_VERSION,
            process_count: self.process_count as u64,
            generation,
        };
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            // Record bytes were framed and checksummed at append time;
            // the snapshot is META followed by that byte stream verbatim.
            let mut snap = BufWriter::new(File::create(&tmp)?);
            self.scratch.clear();
            encode_meta(&mut self.scratch, &meta);
            snap.write_all(&self.scratch)?;
            snap.write_all(&self.encoded)?;
            snap.flush()?;
            snap.get_ref().sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        sync_dir(&self.dir)?;
        // Drain the old writer's buffer before truncating, so its drop
        // cannot flush stale records into the fresh log.
        self.log.flush()?;
        let mut log = BufWriter::new(File::create(self.dir.join(LOG_FILE))?);
        self.scratch.clear();
        encode_meta(&mut self.scratch, &meta);
        log.write_all(&self.scratch)?;
        log.flush()?;
        log.get_ref().sync_all()?;
        self.log = log;
        self.generation = generation;
        self.since_snapshot = 0;
        Ok(())
    }

    /// How many records have been appended to this store.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The current snapshot generation (0 until the first compaction).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The run's process count, as written into every META record.
    pub fn process_count(&self) -> usize {
        self.process_count
    }

    /// The trace's directory (`<root>/<trace>`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// What recovery reassembled from one trace directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredTrace {
    /// The run's process count (from the META records).
    pub process_count: usize,
    /// The highest snapshot generation seen.
    pub generation: u64,
    /// The recovered per-process logs: the largest causally consistent
    /// prefix family of the persisted run, ready for
    /// [`reconstruct_from_logs`](synctime_runtime::reconstruct_from_logs).
    pub logs: Vec<Vec<LogEntry>>,
    /// Entry records surviving into `logs`.
    pub records: usize,
    /// Bytes refused by the torn-tail scan, across both files.
    pub torn_bytes: usize,
    /// Records parsed but trimmed by dedup, gap, or matching rules.
    pub dropped_records: usize,
    /// Epoch boundaries whose cuts are fully covered by the recovered
    /// logs, sorted by epoch (first record of a duplicated epoch wins). A
    /// boundary that names more processes than the run has, or whose cut
    /// lies beyond a recovered log's end (the boundary outran the torn
    /// tail), is dropped — replay can only segment what it holds.
    pub reconfigs: Vec<ReconfigRecord>,
}

/// Recovers one trace directory into per-process logs: the cold read a
/// fresh [`TraceTailReader`]'s first poll runs, so one-shot recovery and
/// tailing share one assembly path, finished by value (the kept entries
/// are moved out, not cloned). See the module docs for the recovery
/// invariants; this is the crash-recovery entry point.
///
/// # Errors
///
/// [`StoreError::Io`] when the directory cannot be read,
/// [`StoreError::Corrupt`] when no readable META record exists, the
/// format version is unknown, or the files disagree on the process count.
/// Torn tails and partial records are *not* errors — they shorten the
/// recovered prefix instead.
pub fn read_trace_dir(dir: &Path) -> Result<RecoveredTrace, StoreError> {
    let cold = ColdRead::new(dir)?;
    Ok(cold.state.into_recovered(cold.snap_torn + cold.log_torn))
}

/// Checks the META records of the files present (snapshot first) and
/// returns the run's process count and highest generation.
fn check_metas(dir: &Path, metas: &[Meta]) -> Result<(usize, u64), StoreError> {
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
    let generation = metas.iter().map(|m| m.generation).max().unwrap_or(0);
    Ok((first.process_count as usize, generation))
}

/// Where one keyed entry sits in the dense logs: 8 bytes, since
/// [`MatchedLogs::push`] refuses entries whose coordinates do not fit in
/// `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    process: u32,
    index: u32,
}

impl Slot {
    /// No entry; `push` never indexes process `u32::MAX`.
    const NONE: Slot = Slot {
        process: u32::MAX,
        index: 0,
    };
}

/// One message key's entries across the dense logs, in 24 bytes (the key
/// map is touched once or twice per entry, so its footprint is most of
/// what indexing costs). Arrays indexed by kind hold the send side at 0
/// and the receive side at 1.
#[derive(Debug)]
struct KeyEntries {
    /// Entries carrying the key, per kind. [`MatchedLogs::push`] refuses
    /// an entry that would overflow its count.
    counts: [u32; 2],
    /// The key's first entry of each kind, inline; [`Slot::NONE`] until
    /// one is logged. Later ones spill to [`MatchedLogs`]' `spilled`.
    first: [Slot; 2],
}

impl Default for KeyEntries {
    fn default() -> Self {
        KeyEntries {
            counts: [0; 2],
            first: [Slot::NONE; 2],
        }
    }
}

/// The entries of one kind carrying `key`: its inline first slot, then
/// whatever spilled.
fn slots<'a>(
    k: &KeyEntries,
    spilled: &'a HashMap<u64, Vec<(Slot, bool)>, KeyHash>,
    key: u64,
    receive: bool,
) -> impl Iterator<Item = Slot> + 'a {
    let first = k.first[usize::from(receive)];
    let more = if spilled.is_empty() {
        None
    } else {
        spilled.get(&key)
    };
    (first != Slot::NONE).then_some(first).into_iter().chain(
        more.into_iter()
            .flatten()
            .filter(move |&&(_, r)| r == receive)
            .map(|&(slot, _)| slot),
    )
}

/// Builds the matched-keys index's hasher: one folded multiply of the
/// `u64` key under two seeds drawn once per process from [`RandomState`],
/// far cheaper than SipHash and still not predictable from outside the
/// process.
#[derive(Debug, Clone, Copy)]
struct KeyHash {
    seed: u64,
    mul: u64,
}

impl KeyHash {
    fn new() -> Self {
        static SEEDS: OnceLock<(u64, u64)> = OnceLock::new();
        let &(seed, mul) = SEEDS.get_or_init(|| {
            let state = RandomState::new();
            (state.hash_one(0u64), state.hash_one(1u64) | 1)
        });
        KeyHash { seed, mul }
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher {
            hash: self.seed,
            mul: self.mul,
        }
    }
}

/// The hasher [`KeyHash`] builds.
#[derive(Debug)]
struct KeyHasher {
    hash: u64,
    mul: u64,
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let full = u128::from(self.hash ^ x) * u128::from(self.mul);
        self.hash = (full as u64) ^ ((full >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One process's entries that no opposite-kind entry matches: a flag per
/// entry, and a cursor no later than the first set flag.
///
/// Only [`MatchedLogs::push`] sets a flag, and only on the entry it
/// appends; every other change clears one. So no flag below the cursor is
/// ever set again, and advancing the cursor past cleared flags is
/// amortised O(1) per entry.
#[derive(Debug, Default)]
struct Unmatched {
    flags: Vec<bool>,
    cursor: usize,
}

impl Unmatched {
    /// The first unmatched entry, if any.
    fn first(&mut self) -> Option<usize> {
        while self.flags.get(self.cursor) == Some(&false) {
            self.cursor += 1;
        }
        (self.cursor < self.flags.len()).then_some(self.cursor)
    }
}

/// Dense per-process logs indexed for the **matched-keys** rule: the
/// greatest family of log prefixes in which every kept entry's key has at
/// least one kept entry of the opposite kind (a send needs a receive and
/// vice versa).
///
/// Entries arrive one at a time ([`MatchedLogs::push`]); each updates its
/// key's counts and slots and the per-process unmatched flags (entries
/// that no opposite-kind entry matches anywhere). A key keeps its first
/// send and first receive inline; only a reused key's later entries go
/// to a side map, which the usual one-send-one-receive trace never
/// allocates.
///
/// [`MatchedLogs::matched_lens`] then finds the family with a worklist:
/// cut each process at its first unmatched entry, and whenever a cut
/// drops a key's last send (or receive), cut the processes holding that
/// key's receives (or sends) too. A cut only ever removes entries outside
/// the greatest family, and the cascade stops once no kept entry lacks a
/// partner, so the result is exactly that family — what rounds of "count,
/// then truncate at the first partnerless entry" converge to. The work is
/// the unmatched frontier plus the entries the cuts remove, not the whole
/// trace.
#[derive(Debug)]
pub(crate) struct MatchedLogs {
    logs: Vec<Vec<LogEntry>>,
    keys: HashMap<u64, KeyEntries, KeyHash>,
    /// Per key, every entry after the first of its kind, with `true` for
    /// a receive.
    spilled: HashMap<u64, Vec<(Slot, bool)>, KeyHash>,
    unmatched: Vec<Unmatched>,
}

impl MatchedLogs {
    /// Empty logs for `process_count` processes.
    pub(crate) fn new(process_count: usize) -> Self {
        Self::with_capacity(process_count, 0)
    }

    /// Empty logs for `process_count` processes, with room for about
    /// `entries` entries spread evenly over them (a hint: more still fit).
    pub(crate) fn with_capacity(process_count: usize, entries: usize) -> Self {
        let per_process = entries / process_count.max(1);
        MatchedLogs {
            logs: (0..process_count)
                .map(|_| Vec::with_capacity(per_process))
                .collect(),
            keys: HashMap::with_capacity_and_hasher(entries / 2, KeyHash::new()),
            spilled: HashMap::with_hasher(KeyHash::new()),
            unmatched: (0..process_count)
                .map(|_| Unmatched {
                    flags: Vec::with_capacity(per_process),
                    cursor: 0,
                })
                .collect(),
        }
    }

    /// The dense logs so far.
    pub(crate) fn logs(&self) -> &[Vec<LogEntry>] {
        &self.logs
    }

    /// Appends `entry` to `process`'s log. Returns `false`, appending
    /// nothing, when the process number or the entry's index in its log
    /// does not fit a [`Slot`], or its key already has `u32::MAX` entries
    /// of its kind (over four billion of any).
    #[must_use]
    pub(crate) fn push(&mut self, process: usize, entry: LogEntry) -> bool {
        let index = self.logs[process].len();
        let (Ok(p), Ok(i)) = (u32::try_from(process), u32::try_from(index)) else {
            return false;
        };
        let slot = Slot {
            process: p,
            index: i,
        };
        if slot.process == Slot::NONE.process {
            return false;
        }
        let unmatched = match key_of(&entry) {
            None => false,
            Some((key, receive)) => {
                let k = self.keys.entry(key).or_default();
                let kind = usize::from(receive);
                let Some(count) = k.counts[kind].checked_add(1) else {
                    return false;
                };
                if count == 1 {
                    // The key's first entry of this kind matches every
                    // opposite-kind entry already logged.
                    for s in slots(k, &self.spilled, key, !receive) {
                        self.unmatched[s.process as usize].flags[s.index as usize] = false;
                    }
                    k.first[kind] = slot;
                } else {
                    self.spilled.entry(key).or_default().push((slot, receive));
                }
                k.counts[kind] = count;
                k.counts[1 - kind] == 0
            }
        };
        self.unmatched[process].flags.push(unmatched);
        self.logs[process].push(entry);
        true
    }

    /// Per process, the length of its prefix in the greatest matched
    /// prefix family (see the type docs).
    pub(crate) fn matched_lens(&mut self) -> Vec<usize> {
        let mut lens: Vec<usize> = self.logs.iter().map(Vec::len).collect();
        let mut work: Vec<(usize, usize)> = self
            .unmatched
            .iter_mut()
            .enumerate()
            .filter_map(|(p, unmatched)| unmatched.first().map(|i| (p, i)))
            .collect();
        // The cascade borrows the keys' counts as the kept family's counts
        // and gives them back below.
        while let Some((p, cut)) = work.pop() {
            let old = lens[p];
            if cut >= old {
                continue;
            }
            lens[p] = cut;
            for (key, receive) in self.logs[p][cut..old].iter().filter_map(key_of) {
                let Some(k) = self.keys.get_mut(&key) else {
                    continue;
                };
                let left = &mut k.counts[usize::from(receive)];
                *left -= 1;
                if *left == 0 {
                    work.extend(
                        slots(k, &self.spilled, key, !receive)
                            .map(|s| (s.process as usize, s.index as usize))
                            .filter(|&(q, i)| i < lens[q]),
                    );
                }
            }
        }
        for (log, &len) in self.logs.iter().zip(&lens) {
            for (key, receive) in log[len..].iter().filter_map(key_of) {
                if let Some(k) = self.keys.get_mut(&key) {
                    k.counts[usize::from(receive)] += 1;
                }
            }
        }
        lens
    }

    /// The greatest matched prefix family itself, consuming the index:
    /// the logs are truncated in place and moved out.
    pub(crate) fn into_matched(mut self) -> Vec<Vec<LogEntry>> {
        let lens = self.matched_lens();
        let mut logs = self.logs;
        for (log, len) in logs.iter_mut().zip(lens) {
            log.truncate(len);
        }
        logs
    }
}

/// An entry's message key and whether it is a receive; `None` for an
/// internal event.
fn key_of(entry: &LogEntry) -> Option<(u64, bool)> {
    match entry {
        LogEntry::Sent { key, .. } => Some((*key, false)),
        LogEntry::Received { key, .. } => Some((*key, true)),
        LogEntry::Internal => None,
    }
}

/// The recovery invariants applied record by record: everything a trace
/// directory's records assemble into, kept current as records arrive.
#[derive(Debug)]
struct Assembly {
    process_count: usize,
    generation: u64,
    /// Entry records ingested, kept or not.
    parsed: usize,
    /// Per process, first-seen records beyond a `pseq` gap, waiting for
    /// it to fill.
    pending: Vec<BTreeMap<u64, LogEntry>>,
    /// Per process, the gap-free `pseq` prefix.
    dense: MatchedLogs,
    /// Epoch boundaries by epoch; the first record of an epoch wins.
    reconfigs: BTreeMap<u64, ReconfigRecord>,
}

impl Assembly {
    /// An empty assembly with room for the entries of `bytes` store bytes
    /// (a hint: more still fit).
    fn new(process_count: usize, generation: u64, bytes: usize) -> Self {
        Assembly {
            process_count,
            generation,
            parsed: 0,
            pending: vec![BTreeMap::new(); process_count],
            dense: MatchedLogs::with_capacity(process_count, bytes / RECORD_BYTES_HINT),
            reconfigs: BTreeMap::new(),
        }
    }

    /// Takes one scanned record, decoding its stamp — the only decode a
    /// record gets. An entry is dropped if its process is beyond the
    /// META's count or its coordinate was seen before (first occurrence
    /// wins), parked if it lies beyond a gap, and appended otherwise,
    /// together with every parked entry the append makes contiguous.
    /// Returns `false`, refusing the record and ending the scanned
    /// prefix, when the stamp bytes do not decode or the entry does not
    /// fit the index (see [`MatchedLogs::push`]).
    fn take(&mut self, payload: Payload<'_>) -> bool {
        let (process, pseq, entry) = match payload {
            Payload::Sent {
                process,
                pseq,
                peer,
                key,
                stamp,
            } => {
                let Some(stamp) = wire::decode_full(stamp) else {
                    return false;
                };
                let to = peer as ProcessId;
                (process, pseq, LogEntry::Sent { to, key, stamp })
            }
            Payload::Received {
                process,
                pseq,
                peer,
                key,
                stamp,
            } => {
                let Some(stamp) = wire::decode_full(stamp) else {
                    return false;
                };
                let from = peer as ProcessId;
                (process, pseq, LogEntry::Received { from, key, stamp })
            }
            Payload::Internal { process, pseq } => (process, pseq, LogEntry::Internal),
            Payload::Reconfig(rec) => {
                self.reconfigs.entry(rec.epoch).or_insert(rec);
                return true;
            }
        };
        self.parsed += 1;
        if process >= self.process_count as u64 {
            return true;
        }
        let process = process as usize;
        let next = self.dense.logs()[process].len() as u64;
        if pseq < next {
            return true;
        }
        if pseq > next {
            self.pending[process].entry(pseq).or_insert(entry);
            return true;
        }
        if !self.dense.push(process, entry) {
            return false;
        }
        let pending = &mut self.pending[process];
        while let Some(entry) = pending.remove(&(self.dense.logs()[process].len() as u64)) {
            if !self.dense.push(process, entry) {
                break;
            }
        }
        true
    }

    /// Takes the records of `bytes` from `start` on (see
    /// [`walk_records`]) and returns where the accepted prefix ends.
    fn take_all(&mut self, bytes: &[u8], start: usize) -> usize {
        let mut pos = start;
        walk_records(bytes, &mut pos, |payload| self.take(payload));
        pos
    }

    /// The recovered trace as of the records ingested so far, with the
    /// kept entries cloned: a tail reader keeps its state for the next
    /// poll.
    fn recovered(&mut self, torn_bytes: usize) -> RecoveredTrace {
        let lens = self.dense.matched_lens();
        let logs = self
            .dense
            .logs()
            .iter()
            .zip(&lens)
            .map(|(log, &len)| log[..len].to_vec())
            .collect();
        self.finish(logs, torn_bytes)
    }

    /// The recovered trace, consuming the assembly: the dense logs are
    /// truncated to their matched lengths and moved out, not cloned.
    fn into_recovered(mut self, torn_bytes: usize) -> RecoveredTrace {
        let logs = std::mem::replace(&mut self.dense, MatchedLogs::new(0)).into_matched();
        self.finish(logs, torn_bytes)
    }

    /// Wraps the kept logs with their counts and the epoch boundaries
    /// they cover.
    fn finish(&self, logs: Vec<Vec<LogEntry>>, torn_bytes: usize) -> RecoveredTrace {
        let reconfigs = self
            .reconfigs
            .values()
            .filter(|r| {
                r.cuts.len() == self.process_count
                    && r.cuts
                        .iter()
                        .zip(&logs)
                        .all(|(&cut, log)| cut as usize <= log.len())
            })
            .cloned()
            .collect();
        let records = logs.iter().map(Vec::len).sum();
        RecoveredTrace {
            process_count: self.process_count,
            generation: self.generation,
            logs,
            records,
            torn_bytes,
            dropped_records: self.parsed - records,
            reconfigs,
        }
    }
}

/// Store bytes per entry record assumed when pre-sizing a cold read's
/// assembly. A record with a two-component stamp takes about 22 bytes,
/// so the usual store is sized in one go and never regrows; only the
/// pages an entry touches cost memory. A store of smaller records just
/// grows past the hint.
const RECORD_BYTES_HINT: usize = 16;

/// Both store files read in full through one [`Assembly`], snapshot
/// first: the one cold path behind [`read_trace_dir`] and a
/// [`TraceTailReader`]'s cold read.
struct ColdRead {
    state: Assembly,
    /// Torn bytes of the snapshot file.
    snap_torn: usize,
    /// Torn bytes of the log file.
    log_torn: usize,
    /// The log's generation and accepted prefix end, when its META is
    /// readable.
    log_tail: Option<(u64, usize)>,
}

/// One store file as a cold read sees it: its bytes and, when readable,
/// its META with the offset of the first record; `None` when absent.
type FileRead = Option<(Vec<u8>, Option<(Meta, usize)>)>;

impl ColdRead {
    fn new(dir: &Path) -> Result<Self, StoreError> {
        let read = |name: &str| -> Result<FileRead, StoreError> {
            match fs::read(dir.join(name)) {
                Ok(bytes) => {
                    let meta = scan_meta(&bytes);
                    Ok(Some((bytes, meta)))
                }
                Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
                Err(e) => Err(e.into()),
            }
        };
        let snap = read(SNAPSHOT_FILE)?;
        let log = read(LOG_FILE)?;
        let metas: Vec<Meta> = [&snap, &log]
            .into_iter()
            .flatten()
            .filter_map(|(_, meta)| meta.map(|(meta, _)| meta))
            .collect();
        let (process_count, generation) = check_metas(dir, &metas)?;
        let bytes = [&snap, &log]
            .into_iter()
            .flatten()
            .map(|(b, _)| b.len())
            .sum();
        let mut state = Assembly::new(process_count, generation, bytes);
        // A file without a readable META is torn from its first byte.
        // Returns (valid prefix end, length).
        let mut take_file = |file: &FileRead| match file {
            Some((bytes, Some((_, start)))) => (state.take_all(bytes, *start), bytes.len()),
            Some((bytes, None)) => (0, bytes.len()),
            None => (0, 0),
        };
        let (snap_end, snap_len) = take_file(&snap);
        let (log_end, log_len) = take_file(&log);
        let log_tail = match &log {
            Some((_, Some((meta, _)))) => Some((meta.generation, log_end)),
            _ => None,
        };
        Ok(ColdRead {
            state,
            snap_torn: snap_len - snap_end,
            log_torn: log_len - log_end,
            log_tail,
        })
    }
}

/// Upper bound on a META record's framed size: 8-byte frame, 1-byte tag,
/// three varints of at most 10 bytes each. Reading this much from a
/// file's head always captures the whole META.
const META_HEAD_BYTES: usize = 8 + 1 + 3 * 10;

/// An incremental reader for a growing trace directory, and the one
/// assembly path recovery has ([`read_trace_dir`] runs a fresh reader's
/// cold read and finishes it by value).
///
/// The reader keeps the recovery invariants assembled: per process the
/// gap-free log plus records parked beyond a gap, per key the entry
/// counts and positions the matched-keys rule needs, and the log's
/// scanned byte offset. While the log's generation is unchanged, a poll
/// reads only the bytes past that offset, decodes each new record once
/// and re-runs the matched-keys worklist over the unmatched frontier. A
/// cold read — the first poll, a generation bump
/// (compaction), a shrunk log, or an unreadable log META — discards the
/// state and feeds the snapshot and then the whole log through the same
/// ingestion. Either way a poll answers exactly what recovery over the
/// files as they are now would.
#[derive(Debug)]
pub struct TraceTailReader {
    dir: PathBuf,
    /// The log generation `state` was read under; `None` until a read
    /// found a readable log META (no warm poll without one).
    generation: Option<u64>,
    /// Bytes of `log.st` ingested (META included). A torn final record
    /// stays beyond this offset and is re-tried on the next poll, once
    /// its bytes complete.
    log_offset: usize,
    /// Torn bytes of the snapshot file (the log's torn tail is recomputed
    /// per poll — it may still complete).
    snap_torn: usize,
    state: Option<Assembly>,
    /// Reused buffer for the appended bytes.
    tail: Vec<u8>,
}

impl TraceTailReader {
    /// A reader for `dir`, holding nothing yet; the first [`poll`]
    /// performs a full read.
    ///
    /// [`poll`]: TraceTailReader::poll
    pub fn new(dir: &Path) -> Self {
        TraceTailReader {
            dir: dir.to_path_buf(),
            generation: None,
            log_offset: 0,
            snap_torn: 0,
            state: None,
            tail: Vec::new(),
        }
    }

    /// Recovers the trace as of now: a cold read on the first call or
    /// after a compaction, an appended-tail read otherwise.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a file cannot be read,
    /// [`StoreError::Corrupt`] when no META is readable or the files
    /// disagree. A warm poll's error leaves the state untouched; after a
    /// cold read's error the next poll reads cold again.
    pub fn poll(&mut self) -> Result<RecoveredTrace, StoreError> {
        match self.poll_tail()? {
            Some(recovered) => Ok(recovered),
            None => self.cold_read(),
        }
    }

    /// The warm path: ingests the records appended past `log_offset`, or
    /// returns `None` when only a cold read will do (no state, log
    /// missing, generation moved, log shrunk).
    fn poll_tail(&mut self) -> Result<Option<RecoveredTrace>, StoreError> {
        let (Some(generation), Some(state)) = (self.generation, self.state.as_mut()) else {
            return Ok(None);
        };
        let mut file = match File::open(self.dir.join(LOG_FILE)) {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut head = [0u8; META_HEAD_BYTES];
        let n = read_up_to(&mut file, &mut head)?;
        match scan_meta(&head[..n]) {
            Some((meta, _)) if meta.generation == generation => {}
            // A compaction's generation bump, or a log whose META is
            // unreadable (mid-recreate).
            _ => return Ok(None),
        }
        let len = file.metadata()?.len() as usize;
        if len < self.log_offset {
            // Shrunk without a generation bump: not a compaction the
            // protocol produces, but never serve stale state.
            return Ok(None);
        }
        file.seek(SeekFrom::Start(self.log_offset as u64))?;
        self.tail.clear();
        file.take((len - self.log_offset) as u64)
            .read_to_end(&mut self.tail)?;
        let consumed = state.take_all(&self.tail, 0);
        self.log_offset += consumed;
        let log_torn = self.tail.len() - consumed;
        Ok(Some(state.recovered(self.snap_torn + log_torn)))
    }

    /// Discards the state and reads snapshot and log in full through the
    /// same ingestion a warm poll uses.
    fn cold_read(&mut self) -> Result<RecoveredTrace, StoreError> {
        self.state = None;
        self.generation = None;
        self.log_offset = 0;
        let ColdRead {
            mut state,
            snap_torn,
            log_torn,
            log_tail,
        } = ColdRead::new(&self.dir)?;
        self.snap_torn = snap_torn;
        if let Some((generation, end)) = log_tail {
            self.generation = Some(generation);
            self.log_offset = end;
        }
        let recovered = state.recovered(snap_torn + log_torn);
        self.state = Some(state);
        Ok(recovered)
    }
}

/// Reads up to `buf.len()` bytes from `file`'s current position,
/// returning how many were read (short at end of file).
fn read_up_to(file: &mut File, buf: &mut [u8]) -> Result<usize, StoreError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = file.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}
