//! `query_serve` and `serve_ingest`: pipelined precedence queries against a
//! `QueryFabric` served by `serve_fabric` over loopback.
//!
//! Both keep one closed-loop client connection issuing calls of
//! [`BATCHES_PER_CALL`] × [`BATCH`] random pairs at window [`WINDOW`],
//! rotating over four static traces. `serve_ingest` adds one open-loop
//! ingest thread that, every [`PERIOD`], appends the next chunk of a
//! pre-recorded ring run to a store, tail-reads it, materializes it and
//! republishes it — the `serve-query --store-dir` tailer path — and the
//! client queries that growing trace alongside the static ones.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use synctime_core::online::OnlineStamper;
use synctime_core::{wire, MessageTimestamps};
use synctime_graph::{decompose, topology};
use synctime_net::{answer_query_into, serve_fabric, QueryClient, QueryFabric, DEFAULT_SHARDS};
use synctime_runtime::Runtime;
use synctime_store::{StampRecord, TraceStore, TraceTailReader};

use crate::span::SpanLog;
use crate::stats::{
    mean, median, ms, ns, percentile, phases, quiet_parts, steal_ticks, timed_setup,
};
use crate::{check, live, Config, Report};

/// Static traces in the catalog.
const TRACES: usize = 4;
/// Processes of each static trace's `complete` topology.
const PROCESSES: usize = 8;
/// Pairs per QUERY3 frame.
pub const BATCH: usize = 256;
/// Frames per call.
pub const BATCHES_PER_CALL: usize = 32;
/// Frames in flight.
pub const WINDOW: usize = 16;
/// Distinct pre-generated pair sets the calls cycle through.
const PAIR_SETS: usize = 16;
/// The ingest schedule: one chunk is due every period.
pub const PERIOD: Duration = Duration::from_millis(10);
/// Log levels (one entry per process each) appended per chunk; a whole
/// level is one round's half, so every chunk ends on a consistent cut.
const LEVELS_PER_CHUNK: usize = 8;
/// Published snapshots of the growing trace kept for verifying answers
/// given while a republish raced the call.
const HISTORY: usize = 16;

/// The served catalog, its server and the client connection.
struct Served {
    fabric: Arc<QueryFabric>,
    names: Vec<String>,
    snapshots: Vec<Arc<MessageTimestamps>>,
    client: QueryClient,
    pair_sets: Vec<Vec<(u32, u32)>>,
    dim: usize,
}

impl Drop for Served {
    fn drop(&mut self) {
        // The server thread keeps the fabric alive for the life of the
        // process; empty it so a superseded set-up frees its traces.
        for name in &self.names {
            self.fabric
                .publish(name, MessageTimestamps::new(Vec::new()));
        }
    }
}

fn serve_setup(cfg: &Config, decompose_ms: &mut Vec<f64>) -> Result<Served, String> {
    let topo = topology::complete(PROCESSES);
    let t = Instant::now();
    let dec = decompose::best_known(&topo);
    decompose_ms.push(ms(t.elapsed()));
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x5345_5256);
    let fabric = Arc::new(QueryFabric::new(DEFAULT_SHARDS));
    let stamper = OnlineStamper::new(&dec);
    let mut names = Vec::new();
    let mut snapshots = Vec::new();
    for t in 0..TRACES {
        let comp =
            synctime_sim::workload::random_computation(&topo, cfg.scale.query_messages, &mut rng);
        let stamps = stamper
            .stamp_computation(&comp)
            .map_err(|e| format!("stamp trace: {e}"))?;
        let name = format!("trace-{t}");
        snapshots.push(fabric.publish(&name, stamps));
        names.push(name);
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let served = Arc::clone(&fabric);
    // The server runs until the process exits: `serve_fabric` has no stop.
    std::thread::spawn(move || serve_fabric(listener, served, 1));
    let mut client =
        QueryClient::connect(&addr.to_string()).map_err(|e| format!("connect: {e}"))?;
    let m = cfg.scale.query_messages as u32;
    let pair_sets: Vec<Vec<(u32, u32)>> = (0..PAIR_SETS)
        .map(|_| {
            (0..BATCH * BATCHES_PER_CALL)
                .map(|_| (rng.gen_range(0..m), rng.gen_range(0..m)))
                .collect()
        })
        .collect();
    for (name, snapshot) in names.iter().zip(&snapshots) {
        let verdicts = client
            .precedes_many_pipelined(name, &pair_sets[0], BATCH, WINDOW)
            .map_err(|e| format!("warm-up call: {e}"))?;
        if check::wrong_verdicts(snapshot, &pair_sets[0], &verdicts) > 0 {
            return Err("warm-up call returned wrong verdicts".to_string());
        }
    }
    Ok(Served {
        fabric,
        names,
        snapshots,
        client,
        pair_sets,
        dim: dec.len(),
    })
}

/// A snapshot of the growing trace as published.
#[derive(Clone)]
struct Published {
    version: u64,
    name: String,
    snapshot: Arc<MessageTimestamps>,
}

/// The growing trace's recent publishes, shared by the ingest thread and
/// the client. Publishing and recording happen under one lock, so a call
/// that starts after reading `back()` can only be answered from that
/// snapshot or a later one still listed here.
type History = Mutex<VecDeque<Published>>;

/// The pre-recorded ring run `serve_ingest` replays, chunked.
struct Recording {
    chunks: Vec<Vec<StampRecord>>,
    reference: MessageTimestamps,
}

fn record_ring(cfg: &Config) -> Result<Recording, String> {
    let topo = topology::cycle(live::RING);
    let dec = decompose::best_known(&topo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x494e_4753);
    let payloads: Vec<u64> = (0..cfg.scale.ingest_rounds)
        .map(|_| rng.gen::<u64>())
        .collect();
    let run = Runtime::new(&topo, &dec)
        .run(live::ring_behaviors(&payloads, None))
        .map_err(|e| format!("record ring run: {e}"))?;
    let logs = run.logs();
    let levels = logs.iter().map(Vec::len).min().unwrap_or(0);
    let records: Vec<Vec<StampRecord>> = (0..levels)
        .map(|level| {
            (0..live::RING)
                .map(|p| {
                    synctime_store::record_from_log_entry(p as u64, level as u64, &logs[p][level])
                })
                .collect()
        })
        .collect();
    let chunks = records
        .chunks(LEVELS_PER_CHUNK)
        .map(|c| c.concat())
        .collect();
    let (_, reference) =
        synctime_store::materialize(logs).map_err(|e| format!("materialize recording: {e}"))?;
    Ok(Recording { chunks, reference })
}

/// What the ingest thread measured.
#[derive(Default)]
struct Ingest {
    chunks: u64,
    failed: u64,
    lag_ns: Vec<u64>,
    /// When each chunk was due, in seconds since the schedule started.
    due_s: Vec<f64>,
    late_ns: Vec<u64>,
    append_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    materialize_ms: Vec<f64>,
    publish_us: Vec<f64>,
}

/// One epoch's growing trace: its store, a tail reader on that store, and
/// the catalog name it is published under.
struct LiveTrace {
    name: String,
    store: TraceStore,
    reader: TraceTailReader,
}

/// Publishes snapshots of the growing trace and records each in the
/// history under the same lock.
struct Publisher<'a> {
    fabric: &'a QueryFabric,
    history: &'a History,
    published: u64,
}

impl Publisher<'_> {
    fn publish(&mut self, name: &str, stamps: MessageTimestamps) -> Arc<MessageTimestamps> {
        let mut h = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        let snapshot = self.fabric.publish(name, stamps);
        self.published += 1;
        h.push_back(Published {
            version: self.published,
            name: name.to_string(),
            snapshot: Arc::clone(&snapshot),
        });
        if h.len() > HISTORY {
            h.pop_front();
        }
        snapshot
    }
}

/// Appends one chunk, tail-reads, materializes and republishes the trace.
/// Returns whether recovery kept every record, and the published snapshot.
fn ingest_chunk(
    chunk: &[StampRecord],
    live: &mut LiveTrace,
    publisher: &mut Publisher,
    out: &mut Ingest,
    log: &mut SpanLog,
    op: u64,
) -> Result<(bool, Arc<MessageTimestamps>), String> {
    let root = log.begin("chunk", op, None);
    let span = log.begin("store.append", op, Some(root));
    let t = Instant::now();
    for rec in chunk {
        live.store
            .append(rec.clone())
            .map_err(|e| format!("append: {e}"))?;
    }
    live.store.flush().map_err(|e| format!("flush: {e}"))?;
    out.append_ms.push(ms(t.elapsed()));
    log.end(span);
    let span = log.begin("store.tail_poll", op, Some(root));
    let t = Instant::now();
    let recovered = live.reader.poll().map_err(|e| format!("tail poll: {e}"))?;
    out.poll_ms.push(ms(t.elapsed()));
    log.end(span);
    let span = log.begin("store.tail_materialize", op, Some(root));
    let t = Instant::now();
    let (_, stamps) =
        synctime_store::materialize(&recovered.logs).map_err(|e| format!("materialize: {e}"))?;
    out.materialize_ms.push(ms(t.elapsed()));
    log.end(span);
    let span = log.begin("net.publish", op, Some(root));
    let t = Instant::now();
    let snapshot = publisher.publish(&live.name, stamps);
    out.publish_us.push(t.elapsed().as_secs_f64() * 1e6);
    log.end(span);
    log.end(root);
    Ok((recovered.dropped_records == 0, snapshot))
}

/// Creates the stores one ingest phase replays into, one per epoch of
/// `chunks · PERIOD`, enough for `seconds` plus one spare. Creating them
/// before the phase keeps each creation's fsync off the chunk schedule.
fn create_stores(root: &Path, chunks: usize, seconds: f64) -> Result<Vec<LiveTrace>, String> {
    let epoch_s = chunks.max(1) as f64 * PERIOD.as_secs_f64();
    let epochs = (seconds / epoch_s).ceil() as usize + 1;
    (0..epochs)
        .map(|e| {
            let name = format!("live-{e}");
            // No automatic compaction either: its fsync would put the
            // shared disk's latency into the lag figures. `live_persist`
            // measures sealing.
            let store = TraceStore::create(root, &name, live::RING)
                .map_err(|err| format!("create store: {err}"))?
                .with_snapshot_every(0);
            let reader = TraceTailReader::new(store.dir());
            Ok(LiveTrace {
                name,
                store,
                reader,
            })
        })
        .collect()
}

/// The open-loop ingest thread: chunk `k` is due at `start + k·PERIOD`
/// whether or not earlier chunks were on time. Each epoch replays the
/// recording into the next fresh store, so the work per chunk stays
/// bounded however long the run.
fn ingest_loop(
    rec: &Recording,
    traces: Vec<LiveTrace>,
    mut publisher: Publisher,
    stop: &AtomicBool,
    start: Instant,
    log: &mut SpanLog,
) -> Result<Ingest, String> {
    let mut out = Ingest::default();
    let mut due_index = 0u32;
    for mut live in traces {
        let mut last = None;
        let mut next = 0usize;
        while next < rec.chunks.len() && !stop.load(Ordering::Relaxed) {
            let due = start + PERIOD * due_index;
            due_index += 1;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            if stop.load(Ordering::Relaxed) {
                break;
            }
            out.late_ns
                .push(ns(Instant::now().saturating_duration_since(due)));
            let (ok, snapshot) = ingest_chunk(
                &rec.chunks[next],
                &mut live,
                &mut publisher,
                &mut out,
                log,
                u64::from(due_index),
            )?;
            out.lag_ns
                .push(ns(Instant::now().saturating_duration_since(due)));
            out.due_s.push((due - start).as_secs_f64());
            out.chunks += 1;
            out.failed += u64::from(!ok);
            last = Some(snapshot);
            next += 1;
        }
        if next == 0 {
            break;
        }
        if next < rec.chunks.len() {
            // Outside the timed window: finish the epoch so its final
            // snapshot can be checked against the whole recording.
            let rest = rec.chunks[next..].concat();
            let mut quiet = SpanLog::new(false, start, "ingest");
            let (ok, snapshot) = ingest_chunk(
                &rest,
                &mut live,
                &mut publisher,
                &mut Ingest::default(),
                &mut quiet,
                0,
            )?;
            out.failed += u64::from(!ok);
            last = Some(snapshot);
        }
        out.failed += u64::from(!last.is_some_and(|s| check::same_stamps(&s, &rec.reference)));
    }
    Ok(out)
}

/// What the client measured.
#[derive(Default)]
struct Calls {
    call_ns: Vec<u64>,
    /// When each call ended, in seconds since the phase started.
    call_at_s: Vec<f64>,
    /// Length of the windows the phase's figures are taken over.
    window_s: f64,
    /// Host steal ticks read as each window of the phase began, and once
    /// more at its end.
    steal_at: Vec<u64>,
    queries: u64,
    wrong: u64,
    answer_ns: u64,
    answered: u64,
    live_calls: u64,
}

/// Answers a call's batches in-process the way the server does — one
/// catalog resolve per frame, then the allocation-free answer path — and
/// returns the time taken.
fn answer_locally(fabric: &QueryFabric, name: &str, pairs: &[(u32, u32)]) -> u64 {
    let mut body = Vec::with_capacity(BATCH);
    let t = Instant::now();
    for batch in pairs.chunks(BATCH) {
        body.clear();
        if let Ok(snapshot) = fabric.resolve(name) {
            for &(m1, m2) in batch {
                let _ = answer_query_into(
                    &snapshot,
                    synctime_net::query::QUERY_PRECEDES,
                    m1,
                    m2,
                    &mut body,
                );
            }
        }
        std::hint::black_box(&body);
    }
    ns(t.elapsed())
}

/// Runs the client for `seconds`, rotating over the static traces and,
/// when `history` is given, the growing one.
fn client_phase(
    served: &mut Served,
    history: Option<&History>,
    start: Instant,
    seconds: f64,
    window_s: f64,
    log: &mut SpanLog,
    op: &mut u64,
) -> Calls {
    let mut calls = Calls {
        window_s,
        steal_at: vec![steal_ticks()],
        ..Calls::default()
    };
    let rotation = TRACES + usize::from(history.is_some());
    let mut live_pairs = Vec::with_capacity(BATCH * BATCHES_PER_CALL);
    while start.elapsed().as_secs_f64() < seconds || calls.call_ns.is_empty() {
        *op += 1;
        let i = *op as usize;
        let base = &served.pair_sets[i % PAIR_SETS];
        let live_before = match history {
            Some(h) if i % rotation == TRACES => h
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .back()
                .cloned()
                .filter(|p| p.snapshot.len() >= 2),
            _ => None,
        };
        let (name, pairs): (String, &[(u32, u32)]) = match &live_before {
            Some(p) => {
                let len = p.snapshot.len() as u32;
                live_pairs.clear();
                live_pairs.extend(base.iter().map(|&(a, b)| (a % len, b % len)));
                (p.name.clone(), &live_pairs)
            }
            None => (served.names[i % TRACES].clone(), base),
        };
        let root = log.begin("call", *op, None);
        let span = log.begin("net.call", *op, Some(root));
        let t = Instant::now();
        let result = served
            .client
            .precedes_many_pipelined(&name, pairs, BATCH, WINDOW);
        let call_ns = ns(t.elapsed());
        log.end(span);
        let span = log.begin("bench.check", *op, Some(root));
        let wrong = match (&result, &live_before) {
            (Err(_), _) => pairs.len() as u64,
            (Ok(verdicts), Some(before)) => {
                calls.live_calls += 1;
                let h = history
                    .map(|h| h.lock().unwrap_or_else(PoisonError::into_inner).clone())
                    .unwrap_or_default();
                let mut candidates: Vec<&MessageTimestamps> = vec![&before.snapshot];
                candidates.extend(
                    h.iter()
                        .filter(|p| p.name == before.name && p.version > before.version)
                        .map(|p| &*p.snapshot),
                );
                check::wrong_verdicts_any(&candidates, pairs, verdicts, BATCH)
            }
            (Ok(verdicts), None) => {
                check::wrong_verdicts(&served.snapshots[i % TRACES], pairs, verdicts)
            }
        };
        log.end(span);
        if log.enabled() && live_before.is_none() {
            let span = log.begin("bench.answer_locally", *op, Some(root));
            calls.answer_ns += answer_locally(&served.fabric, &name, pairs);
            calls.answered += pairs.len() as u64;
            log.end(span);
        }
        log.end(root);
        calls.call_ns.push(call_ns);
        let at = start.elapsed().as_secs_f64();
        calls.call_at_s.push(at);
        while calls.steal_at.len() <= (at / window_s) as usize {
            calls.steal_at.push(steal_ticks());
        }
        calls.queries += pairs.len() as u64;
        calls.wrong += wrong;
    }
    calls.steal_at.push(steal_ticks());
    calls
}

/// The per-query wire cost of one call's frames, priced by `core::wire`.
fn bytes_per_query(name: &str) -> f64 {
    let per_frame = wire::batch_query3_frame_bytes(name.len(), BATCH)
        + wire::batch_answer3_frame_bytes(BATCH, BATCH);
    per_frame as f64 / BATCH as f64
}

fn layer_ms(log: &SpanLog, names: &[&str]) -> f64 {
    names.iter().map(|n| log.total(n).0 as f64 / 1e6).sum()
}

/// Fewest samples a window needs for its own percentile.
const MIN_WINDOW_SAMPLES: usize = 10;

/// One window of a serving phase (a second, or one ingest epoch): the calls
/// that ended in it, the chunks due in it, and the host steal it suffered.
struct Window {
    steal: u64,
    call_ns: Vec<u64>,
    lag_ns: Vec<u64>,
}

/// Splits a phase's calls and chunks into its windows.
fn split_windows(calls: &Calls, ingested: &Ingest) -> Vec<Window> {
    let mut windows: Vec<Window> = calls
        .steal_at
        .windows(2)
        .map(|pair| Window {
            steal: pair[1] - pair[0],
            call_ns: Vec::new(),
            lag_ns: Vec::new(),
        })
        .collect();
    let last = windows.len().saturating_sub(1);
    for (&at, &ns) in calls.call_at_s.iter().zip(&calls.call_ns) {
        if let Some(w) = windows.get_mut(((at / calls.window_s) as usize).min(last)) {
            w.call_ns.push(ns);
        }
    }
    for (&at, &ns) in ingested.due_s.iter().zip(&ingested.lag_ns) {
        if let Some(w) = windows.get_mut(((at / calls.window_s) as usize).min(last)) {
            w.lag_ns.push(ns);
        }
    }
    windows
}

/// Runs `query_serve`.
///
/// # Errors
///
/// When the server or client cannot be set up.
pub fn run_query_serve(cfg: &Config) -> Result<Report, String> {
    run_serving(cfg, false)
}

/// Runs `serve_ingest`.
///
/// # Errors
///
/// When the server, client or store cannot be set up.
pub fn run_serve_ingest(cfg: &Config) -> Result<Report, String> {
    run_serving(cfg, true)
}

fn run_serving(cfg: &Config, ingest: bool) -> Result<Report, String> {
    let workload = if ingest {
        "serve_ingest"
    } else {
        "query_serve"
    };
    let epoch = Instant::now();
    let mut decompose_ms = Vec::new();
    let (setup_s, (mut served, recording)) = timed_setup(cfg.scale.setup_reps, || {
        let served = serve_setup(cfg, &mut decompose_ms)?;
        let recording = if ingest {
            Some(record_ring(cfg)?)
        } else {
            None
        };
        Ok((served, recording))
    })?;

    let mut report = Report::default();
    let mut op = 0u64;
    let mut per_op_ms = [0.0f64; 2];
    let mut calls = Calls::default();
    let mut ingested = Ingest::default();
    let mut traced = SpanLog::new(true, epoch, "client");
    let mut traced_wall_ms = 0.0;
    for (tracing, seconds) in phases(cfg) {
        let mut log = SpanLog::new(tracing, epoch, "client");
        let start = Instant::now();
        let (phase_calls, phase_ingest) = match &recording {
            None => (
                client_phase(&mut served, None, start, seconds, 1.0, &mut log, &mut op),
                Ingest::default(),
            ),
            Some(rec) => {
                let history: History = Mutex::new(VecDeque::new());
                let stop = AtomicBool::new(false);
                let mut ingest_log = log.for_thread("ingest");
                let root = cfg.work_dir.join(format!("ingest-{}", u8::from(tracing)));
                let traces = create_stores(&root, rec.chunks.len(), seconds)?;
                let fabric = Arc::clone(&served.fabric);
                let (c, i) = std::thread::scope(|s| {
                    let publisher = Publisher {
                        fabric: &fabric,
                        history: &history,
                        published: 0,
                    };
                    let (history, stop) = (&history, &stop);
                    let ingest_log = &mut ingest_log;
                    let handle = s.spawn(move || {
                        ingest_loop(rec, traces, publisher, stop, start, ingest_log)
                    });
                    let c = client_phase(
                        &mut served,
                        Some(history),
                        start,
                        seconds,
                        // One epoch per window: every window then sees the
                        // same growth of the live trace.
                        rec.chunks.len() as f64 * PERIOD.as_secs_f64(),
                        &mut log,
                        &mut op,
                    );
                    stop.store(true, Ordering::Relaxed);
                    (c, handle.join())
                });
                let i = i.map_err(|_| "ingest thread panicked".to_string())??;
                let _ = std::fs::remove_dir_all(&root);
                log.absorb(ingest_log);
                (c, i)
            }
        };
        report.attempted += phase_calls.queries + phase_ingest.chunks;
        report.failed += phase_calls.wrong + phase_ingest.failed;
        per_op_ms[usize::from(tracing)] = mean(
            &phase_calls
                .call_ns
                .iter()
                .map(|&n| n as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        if tracing {
            traced_wall_ms = ms(start.elapsed());
            traced = log;
        }
        calls = phase_calls;
        ingested = phase_ingest;
    }

    // Figures per window, then the median over the windows the host stole
    // the least time from.
    // A window cut short by the end of the phase has too few calls (and
    // too little time to suffer steal) to count.
    let windows: Vec<Window> = split_windows(&calls, &ingested)
        .into_iter()
        .filter(|w| w.call_ns.len() >= MIN_WINDOW_SAMPLES)
        .collect();
    let quiet = quiet_parts(&windows, |w| w.steal);
    let all = Window {
        steal: 0,
        call_ns: calls.call_ns.clone(),
        lag_ns: ingested.lag_ns.clone(),
    };
    let over_quiet = |samples: fn(&Window) -> &[u64], stat: &dyn Fn(&[u64]) -> f64| {
        let figures: Vec<f64> = quiet
            .iter()
            .map(|w| samples(w))
            .filter(|s| s.len() >= MIN_WINDOW_SAMPLES)
            .map(stat)
            .collect();
        if figures.is_empty() {
            stat(samples(&all))
        } else {
            median(&figures)
        }
    };
    let per_call = (BATCH * BATCHES_PER_CALL) as f64;
    fn calls_of(w: &Window) -> &[u64] {
        &w.call_ns
    }
    let qps = over_quiet(calls_of, &|w| {
        per_call * w.len() as f64 / (w.iter().sum::<u64>() as f64 / 1e9)
    });
    let call_p50 = over_quiet(calls_of, &|w| percentile(w, 50.0) as f64) / 1e3;
    // The tails are p90: on a shared 2-core host a window's p99 moves with
    // other tenants' load far more than its p90 does. p99 is printed too.
    let call_p90 = over_quiet(calls_of, &|w| percentile(w, 90.0) as f64) / 1e3;
    let call_p99 = over_quiet(calls_of, &|w| percentile(w, 99.0) as f64) / 1e3;
    let by_chunk = |q: f64| over_quiet(|w| &w.lag_ns, &|w| percentile(w, q) as f64) / 1e6;
    let (lag_p50, lag_p90) = if ingest {
        (by_chunk(50.0), by_chunk(90.0))
    } else {
        (call_p50 / 1e3, call_p90 / 1e3)
    };
    report.e2e = vec![
        ("setup_s", setup_s),
        ("peak_rss_mb", crate::stats::peak_rss_mb()),
        ("throughput_per_s", qps),
        ("latency_p50_us", call_p50),
        ("latency_tail_us", call_p90),
        ("lag_p50_ms", lag_p50),
        ("lag_tail_ms", lag_p90),
    ];
    report.named = vec![
        ("query_qps", qps, "query/s"),
        ("call_p50_us", call_p50, "us"),
        ("call_p90_us", call_p90, "us"),
        ("call_p99_us", call_p99, "us"),
        ("quiet_windows", quiet.len() as f64, "count"),
        (
            "host_steal_s",
            (calls.steal_at.last().unwrap_or(&0) - calls.steal_at[0]) as f64 / 100.0,
            "s",
        ),
    ];
    if ingest {
        let late_p99 = percentile(&ingested.late_ns, 99.0) as f64 / 1e6;
        report.named.extend([
            ("visible_lag_p50_ms", lag_p50, "ms"),
            ("visible_lag_p90_ms", lag_p90, "ms"),
            ("visible_lag_p99_ms", by_chunk(99.0), "ms"),
            ("ingest_late_p99_ms", late_p99, "ms"),
            ("ingest_chunks", ingested.chunks as f64, "count"),
            ("live_calls", calls.live_calls as f64, "count"),
        ]);
    }

    if cfg.trace {
        let answer_ns = calls.answer_ns as f64 / calls.answered.max(1) as f64;
        let call_ns_per_query = calls.call_ns.iter().sum::<u64>() as f64 / calls.queries as f64;
        let residual = traced_wall_ms
            - layer_ms(
                &traced,
                &["net.call", "bench.check", "bench.answer_locally"],
            );
        report.layers = vec![
            ("graph.decompose_ms", median(&decompose_ms)),
            ("graph.dim", served.dim as f64),
            (
                "net.call_us",
                median(
                    &calls
                        .call_ns
                        .iter()
                        .map(|&n| n as f64 / 1e3)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("net.answer_ns_per_query", answer_ns),
            ("net.transport_ns_per_query", call_ns_per_query - answer_ns),
            ("net.bytes_per_query", bytes_per_query(&served.names[0])),
            ("residual_ms", residual),
            ("trace_overhead", per_op_ms[1] / per_op_ms[0]),
        ];
        if ingest {
            report.layers.extend([
                ("store.append_ms", mean(&ingested.append_ms)),
                ("store.tail_poll_ms", mean(&ingested.poll_ms)),
                ("store.tail_materialize_ms", mean(&ingested.materialize_ms)),
                ("net.publish_us", mean(&ingested.publish_us)),
                (
                    "ingest.late_ms",
                    percentile(&ingested.late_ns, 99.0) as f64 / 1e6,
                ),
            ]);
        }
        report.notes.push(format!(
            "{workload}: client residual {residual:.1} ms of {traced_wall_ms:.1} ms traced wall ({:.2}%)",
            100.0 * residual / traced_wall_ms
        ));
        crate::write_spans(cfg, workload, &traced);
    }
    Ok(report)
}
