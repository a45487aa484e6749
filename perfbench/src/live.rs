//! `live_persist`: a ring of 4 rendezvous processes streams every stamp to
//! a store writer; each cycle ends with seal and recovery of the trace.
//!
//! Closed loop, one caller: the next cycle starts when the previous one has
//! been recovered and checked. Work is in the `runtime` matcher, the online
//! `core` clocks with their SK wire deltas, and `store` write and read; no
//! parser and no sockets are involved.

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use rand::{Rng, SeedableRng};
use synctime_graph::{decompose, topology, EdgeDecomposition, Graph};
use synctime_runtime::{Behavior, RunStats, Runtime};

use crate::span::SpanLog;
use crate::stats::{median, ms, ns, percentile, phases, quiet_parts, steal_ticks, timed_setup};
use crate::{check, Config, Report};

/// Processes in the ring: two rendezvous in flight on two cores.
pub const RING: usize = 4;

/// A run holds a few dozen cycles, each recovered once, so the recovery
/// tail reported is p75: the highest percentile with about ten cycles
/// beyond it. The send tail is p90 per cycle: on a shared 2-core host the
/// per-cycle p99 moves with other tenants' load far more than p90 does.
const LAG_TAIL: f64 = 75.0;

/// What one process thread measured around its own rendezvous calls.
#[derive(Debug, Clone)]
pub struct ProcTiming {
    /// Duration of every blocking `send`, in ns.
    pub send_ns: Vec<u64>,
    /// Summed duration of the `receive_from` calls, in ns.
    pub receive_ns: u64,
    /// Number of `receive_from` calls.
    pub receives: u64,
    /// When the behavior started and ended.
    pub start: Instant,
    /// See `start`.
    pub end: Instant,
}

/// The ring's behaviors: even processes send right then receive from the
/// left, odd ones the reverse, once per payload, so no pairing can
/// deadlock. With `timings`, each process times its own calls and hands
/// the figures over when it ends.
pub fn ring_behaviors(
    payloads: &[u64],
    timings: Option<Arc<Mutex<Vec<ProcTiming>>>>,
) -> Vec<Behavior> {
    let payloads: Arc<[u64]> = payloads.into();
    (0..RING)
        .map(|p| {
            let payloads = Arc::clone(&payloads);
            let timings = timings.clone();
            let right = (p + 1) % RING;
            let left = (p + RING - 1) % RING;
            let behavior: Behavior = Box::new(move |ctx| {
                let start = Instant::now();
                let mut send_ns = Vec::with_capacity(payloads.len());
                let mut receive_ns = 0u64;
                for &payload in payloads.iter() {
                    if p % 2 == 0 {
                        let t = Instant::now();
                        ctx.send(right, payload)?;
                        send_ns.push(ns(t.elapsed()));
                        let t = Instant::now();
                        ctx.receive_from(left)?;
                        receive_ns += ns(t.elapsed());
                    } else {
                        let t = Instant::now();
                        let (x, _) = ctx.receive_from(left)?;
                        receive_ns += ns(t.elapsed());
                        let t = Instant::now();
                        ctx.send(right, x)?;
                        send_ns.push(ns(t.elapsed()));
                    }
                }
                if let Some(timings) = timings {
                    timings
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(ProcTiming {
                            send_ns,
                            receive_ns,
                            receives: payloads.len() as u64,
                            start,
                            end: Instant::now(),
                        });
                }
                Ok(())
            });
            behavior
        })
        .collect()
}

/// One cycle's figures.
struct Cycle {
    messages: u64,
    run_ns: u64,
    seal_ms: f64,
    recover_ms: f64,
    materialize_ms: f64,
    ok: bool,
    stats: RunStats,
    send_p50_ns: u64,
    send_p90_ns: u64,
    send_p99_ns: u64,
    records: usize,
    bytes: u64,
    generation: u64,
    dropped: usize,
    torn: usize,
    /// Host steal during the run, in `/proc/stat` ticks.
    steal: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs, seals, recovers and checks one persisted ring run.
fn run_cycle(
    topo: &Graph,
    dec: &EdgeDecomposition,
    payloads: &[u64],
    root: &Path,
    name: &str,
    log: &mut SpanLog,
    op: u64,
) -> Result<Cycle, String> {
    let cycle = log.begin("cycle", op, None);
    let (tx, writer) =
        synctime_store::spawn_writer(root, name, RING).map_err(|e| format!("open store: {e}"))?;
    let rt = Runtime::new(topo, dec).with_log_sink(tx);
    let timings = Arc::new(Mutex::new(Vec::with_capacity(RING)));
    let behaviors = ring_behaviors(payloads, Some(Arc::clone(&timings)));

    let run_span = log.begin("runtime.run", op, Some(cycle));
    let steal0 = steal_ticks();
    let t = Instant::now();
    let run = rt.run(behaviors).map_err(|e| format!("ring run: {e}"))?;
    let run_ns = ns(t.elapsed());
    let steal = steal_ticks() - steal0;
    log.end(run_span);
    let timings = std::mem::take(&mut *timings.lock().unwrap_or_else(PoisonError::into_inner));
    let mut send_ns = Vec::with_capacity(payloads.len() * RING);
    for pt in timings {
        let sent: u64 = pt.send_ns.iter().sum();
        log.aggregate(
            "runtime.send",
            op,
            Some(run_span),
            (pt.start, pt.end),
            sent,
            pt.send_ns.len() as u64,
        );
        log.aggregate(
            "runtime.receive",
            op,
            Some(run_span),
            (pt.start, pt.end),
            pt.receive_ns,
            pt.receives,
        );
        send_ns.extend(pt.send_ns);
    }

    drop(rt); // releases the sink, so the writer drains and seals
    let span = log.begin("store.seal", op, Some(cycle));
    let t = Instant::now();
    let sealed = writer.finish().map_err(|e| format!("seal store: {e}"))?;
    let seal_ms = ms(t.elapsed());
    log.end(span);

    let dir = root.join(name);
    let span = log.begin("store.recover", op, Some(cycle));
    let t = Instant::now();
    let recovered =
        synctime_store::read_trace_dir(&dir).map_err(|e| format!("recover store: {e}"))?;
    let recover_ms = ms(t.elapsed());
    log.end(span);
    let span = log.begin("store.materialize", op, Some(cycle));
    let t = Instant::now();
    let materialized = synctime_store::materialize(&recovered.logs);
    let materialize_ms = ms(t.elapsed());
    log.end(span);

    let span = log.begin("bench.check", op, Some(cycle));
    let messages = (payloads.len() * RING) as u64;
    let ok = check::recovery_matches(run.logs(), &recovered)
        && materialized.is_ok_and(|(_, stamps)| stamps.len() as u64 == messages);
    let bytes = dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    log.end(span);
    log.end(cycle);
    Ok(Cycle {
        messages,
        run_ns,
        seal_ms,
        recover_ms,
        materialize_ms,
        ok,
        stats: run.stats().clone(),
        send_p50_ns: percentile(&send_ns, 50.0),
        send_p90_ns: percentile(&send_ns, 90.0),
        send_p99_ns: percentile(&send_ns, 99.0),
        records: sealed.records(),
        bytes,
        generation: sealed.generation(),
        dropped: recovered.dropped_records,
        torn: recovered.torn_bytes,
        steal,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// When the ring or the store cannot run at all.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let epoch = Instant::now();
    let topo = topology::cycle(RING);
    let mut decompose_ms = Vec::new();
    let (setup_s, (dec, payloads)) = timed_setup(cfg.scale.setup_reps, || {
        let t = Instant::now();
        let dec = decompose::best_known(&topo);
        decompose_ms.push(ms(t.elapsed()));
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x4c49_5645);
        let payloads: Vec<u64> = (0..cfg.scale.live_rounds)
            .map(|_| rng.gen::<u64>())
            .collect();
        // One short cycle lets thread start-up, file creation and page
        // cache warm-up happen before anything is timed.
        let warm = &payloads[..payloads.len().min(500)];
        let mut quiet = SpanLog::new(false, epoch, "main");
        let cycle = run_cycle(&topo, &dec, warm, &cfg.work_dir, "warmup", &mut quiet, 0)?;
        if !cycle.ok {
            return Err("warm-up cycle failed its recovery check".to_string());
        }
        Ok((dec, payloads))
    })?;

    let mut report = Report::default();
    let mut op = 0u64;
    let mut per_op_ms = [0.0f64; 2];
    let mut traced = SpanLog::new(true, epoch, "main");
    let mut traced_wall_ms = 0.0;
    let mut cycles: Vec<Cycle> = Vec::new();
    for (tracing, seconds) in phases(cfg) {
        let mut log = SpanLog::new(tracing, epoch, "main");
        let start = Instant::now();
        let mut phase: Vec<Cycle> = Vec::new();
        while start.elapsed().as_secs_f64() < seconds || phase.is_empty() {
            op += 1;
            let cycle = run_cycle(
                &topo,
                &dec,
                &payloads,
                &cfg.work_dir,
                &format!("cycle-{op}"),
                &mut log,
                op,
            )?;
            report.attempted += cycle.messages;
            if !cycle.ok {
                report.failed += cycle.messages;
            }
            phase.push(cycle);
        }
        let run_ms: f64 = phase.iter().map(|c| c.run_ns as f64 / 1e6).sum();
        per_op_ms[usize::from(tracing)] = run_ms / phase.len() as f64;
        if tracing {
            traced_wall_ms = ms(start.elapsed());
            traced = log;
        }
        cycles = phase;
    }

    // Per-cycle figures, then the median over the cycles the host stole
    // the least time from.
    let messages: u64 = cycles.iter().map(|c| c.messages).sum();
    let quiet = quiet_parts(&cycles, |c| c.steal);
    let over_quiet =
        |f: &dyn Fn(&Cycle) -> f64| median(&quiet.iter().map(|c| f(c)).collect::<Vec<_>>());
    let throughput = over_quiet(&|c| c.messages as f64 / (c.run_ns as f64 / 1e9));
    let send_p50 = over_quiet(&|c| c.send_p50_ns as f64) / 1e3;
    let send_p90 = over_quiet(&|c| c.send_p90_ns as f64) / 1e3;
    let send_p99 = over_quiet(&|c| c.send_p99_ns as f64) / 1e3;
    let lags: Vec<u64> = quiet
        .iter()
        .map(|c| ((c.recover_ms + c.materialize_ms) * 1e6) as u64)
        .collect();
    let (lag_p50, lag_tail) = (
        percentile(&lags, 50.0) as f64 / 1e6,
        percentile(&lags, LAG_TAIL) as f64 / 1e6,
    );
    report.e2e = vec![
        ("setup_s", setup_s),
        ("peak_rss_mb", crate::stats::peak_rss_mb()),
        ("throughput_per_s", throughput),
        ("latency_p50_us", send_p50),
        ("latency_tail_us", send_p90),
        ("lag_p50_ms", lag_p50),
        ("lag_tail_ms", lag_tail),
    ];
    report.named = vec![
        ("run_msgs_per_s", throughput, "msg/s"),
        ("send_p50_us", send_p50, "us"),
        ("send_p90_us", send_p90, "us"),
        ("send_p99_us", send_p99, "us"),
        ("recover_p50_ms", lag_p50, "ms"),
        ("recover_p75_ms", lag_tail, "ms"),
        ("cycles", cycles.len() as f64, "count"),
        ("quiet_cycles", quiet.len() as f64, "count"),
        (
            "host_steal_s",
            cycles.iter().map(|c| c.steal).sum::<u64>() as f64 / 100.0,
            "s",
        ),
    ];

    if cfg.trace {
        let stats: Vec<&RunStats> = cycles.iter().map(|c| &c.stats).collect();
        let sum = |f: fn(&RunStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
        let med = |f: fn(&RunStats) -> u64| {
            median(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        let per_cycle = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
        let msgs = messages as f64;
        let layer_ms: f64 = [
            "runtime.run",
            "store.seal",
            "store.recover",
            "store.materialize",
            "bench.check",
        ]
        .iter()
        .map(|n| traced.total(n).0 as f64 / 1e6)
        .sum();
        report.layers = vec![
            ("graph.decompose_ms", median(&decompose_ms)),
            ("graph.dim", dec.len() as f64),
            (
                "runtime.send_ms_total",
                traced.total("runtime.send").0 as f64 / 1e6,
            ),
            (
                "runtime.receive_ms_total",
                traced.total("runtime.receive").0 as f64 / 1e6,
            ),
            ("runtime.blocked_ms", sum(|s| s.total_blocked_ns) / 1e6),
            ("runtime.wakeups", sum(|s| s.wakeups) / msgs),
            ("runtime.wakeup_p50_us", med(|s| s.wakeup_p50_ns) / 1e3),
            ("runtime.wakeup_p99_us", med(|s| s.wakeup_p99_ns) / 1e3),
            ("runtime.ack_p50_us", med(|s| s.ack_latency_p50_ns) / 1e3),
            ("runtime.resync_frames", sum(|s| s.resync_frames)),
            ("core.wire_bytes", sum(|s| s.total_wire_bytes) / msgs),
            (
                "core.wire_bytes_full",
                sum(|s| s.total_wire_bytes_full) / msgs,
            ),
            (
                "core.wire_savings_ratio",
                sum(|s| s.total_wire_bytes) / sum(|s| s.total_wire_bytes_full),
            ),
            ("store.records", per_cycle(|c| c.records as f64)),
            ("store.bytes", per_cycle(|c| c.bytes as f64)),
            ("store.generation", per_cycle(|c| c.generation as f64)),
            ("store.seal_ms", per_cycle(|c| c.seal_ms)),
            ("store.recover_ms", per_cycle(|c| c.recover_ms)),
            ("store.materialize_ms", per_cycle(|c| c.materialize_ms)),
            (
                "store.dropped_records",
                cycles.iter().map(|c| c.dropped as f64).sum(),
            ),
            (
                "store.torn_bytes",
                cycles.iter().map(|c| c.torn as f64).sum(),
            ),
            ("residual_ms", traced_wall_ms - layer_ms),
            ("trace_overhead", per_op_ms[1] / per_op_ms[0]),
        ];
        report.notes.push(format!(
            "live_persist: residual {:.1} ms of {:.1} ms traced wall ({:.2}%)",
            traced_wall_ms - layer_ms,
            traced_wall_ms,
            100.0 * (traced_wall_ms - layer_ms) / traced_wall_ms
        ));
        crate::write_spans(cfg, "live_persist", &traced);
    }
    Ok(report)
}
