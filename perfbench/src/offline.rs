//! `offline_stamp`: one caller repeatedly reads the JSON of a random trace
//! over `complete(16)`, folds it into a `SparsePoset` and stamps it with the
//! offline engine (Figure 9) on a `par` pool of `nproc` workers.
//!
//! Closed loop, one caller. `trace`, `poset` and offline `core` do almost
//! all the work; `runtime`, `store` and `net` do none.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use synctime_core::{offline, online::OnlineStamper, MessageTimestamps};
use synctime_graph::{decompose, topology};
use synctime_par::ThreadPool;
use synctime_trace::stream::{JsonEventReader, SparsePosetAccumulator, StreamEvent};

use crate::span::SpanLog;
use crate::stats::{
    mean, median, ms, ns, percentile, phases, quiet_parts, steal_ticks, timed_setup,
};
use crate::{check, Config, Report};

/// Processes in the generated traces.
const PROCESSES: usize = 16;

/// Pairs per job compared against the online stamps.
const CHECK_PAIRS: usize = 4096;

/// A run holds a few dozen jobs, so the tail reported is p75: the highest
/// percentile with about ten jobs beyond it.
const TAIL: f64 = 75.0;

/// The inputs a job reads, made once in set-up.
struct Inputs {
    json: Vec<u8>,
    online: MessageTimestamps,
    pairs: Vec<(u32, u32)>,
    dim: usize,
}

/// One job's figures.
struct Job {
    messages: u64,
    total_ns: u64,
    parse_ms: f64,
    build_ms: f64,
    stamp_ms: f64,
    poset_bytes: usize,
    dim: usize,
    wrong: u64,
    /// Host steal during the timed part, in `/proc/stat` ticks.
    steal: u64,
}

fn make_inputs(cfg: &Config, decompose_ms: &mut Vec<f64>) -> Result<Inputs, String> {
    let topo = topology::complete(PROCESSES);
    let t = Instant::now();
    let dec = decompose::best_known(&topo);
    decompose_ms.push(ms(t.elapsed()));
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x4f46_464c);
    let comp =
        synctime_sim::workload::random_computation(&topo, cfg.scale.offline_messages, &mut rng);
    let json = synctime_trace::json::to_json_string(&comp).into_bytes();
    let online = OnlineStamper::new(&dec)
        .stamp_computation(&comp)
        .map_err(|e| format!("online reference stamps: {e}"))?;
    let m = comp.message_count() as u32;
    let pairs = (0..CHECK_PAIRS)
        .map(|_| (rng.gen_range(0..m), rng.gen_range(0..m)))
        .collect();
    Ok(Inputs {
        json,
        online,
        pairs,
        dim: dec.len(),
    })
}

/// Parses, folds and stamps the trace once, then checks the stamps.
fn run_job(inputs: &Inputs, pool: &ThreadPool, log: &mut SpanLog, op: u64) -> Result<Job, String> {
    let job = log.begin("job", op, None);
    let steal0 = steal_ticks();
    let t0 = Instant::now();
    let span = log.begin("trace.parse", op, Some(job));
    let mut reader =
        JsonEventReader::new(inputs.json.as_slice()).map_err(|e| format!("trace header: {e}"))?;
    let processes = reader.processes();
    let mut messages = Vec::new();
    for event in reader.by_ref() {
        if let StreamEvent::Message { sender, receiver } =
            event.map_err(|e| format!("trace event: {e}"))?
        {
            messages.push((sender, receiver));
        }
    }
    log.end(span);
    let t1 = Instant::now();
    let span = log.begin("poset.build", op, Some(job));
    let mut acc = SparsePosetAccumulator::new(processes);
    for &(s, r) in &messages {
        acc.message(s, r)
            .map_err(|e| format!("fold message: {e}"))?;
    }
    let poset = acc.finish().map_err(|e| format!("finish poset: {e}"))?;
    log.end(span);
    let t2 = Instant::now();
    let span = log.begin("core.offline_stamp", op, Some(job));
    let stamps = offline::stamp_sparse_poset_with(&poset, Some(pool));
    log.end(span);
    let t3 = Instant::now();
    let steal = steal_ticks() - steal0;

    let span = log.begin("bench.check", op, Some(job));
    let wrong = check::disagreeing_pairs(&stamps, &inputs.online, &inputs.pairs);
    log.end(span);
    log.end(job);
    Ok(Job {
        messages: messages.len() as u64,
        total_ns: ns(t3 - t0),
        parse_ms: ms(t1 - t0),
        build_ms: ms(t2 - t1),
        stamp_ms: ms(t3 - t2),
        poset_bytes: poset.approx_bytes(),
        dim: stamps.dim(),
        wrong,
        steal,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// When the generated trace cannot be parsed or stamped at all.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut decompose_ms = Vec::new();
    let (setup_s, inputs) =
        timed_setup(cfg.scale.setup_reps, || make_inputs(cfg, &mut decompose_ms))?;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let pool = ThreadPool::new(workers);

    let mut report = Report::default();
    let mut op = 0u64;
    let mut per_op_ms = [0.0f64; 2];
    let mut traced = SpanLog::new(true, epoch, "main");
    let mut traced_wall_ms = 0.0;
    let mut jobs: Vec<Job> = Vec::new();
    for (tracing, seconds) in phases(cfg) {
        let mut log = SpanLog::new(tracing, epoch, "main");
        let start = Instant::now();
        let mut phase = Vec::new();
        while start.elapsed().as_secs_f64() < seconds || phase.is_empty() {
            op += 1;
            let job = run_job(&inputs, &pool, &mut log, op)?;
            report.attempted += job.messages;
            if job.wrong > 0 || job.messages as usize != inputs.online.len() {
                report.failed += job.messages;
            }
            phase.push(job);
        }
        per_op_ms[usize::from(tracing)] = mean(
            &phase
                .iter()
                .map(|j| j.total_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        if tracing {
            traced_wall_ms = ms(start.elapsed());
            traced = log;
        }
        jobs = phase;
    }

    // Every job stamps the same trace, so the median job sets throughput.
    // Jobs the host stole the most time from are left out.
    let job_ns: Vec<u64> = quiet_parts(&jobs, |j| j.steal)
        .iter()
        .map(|j| j.total_ns)
        .collect();
    let (p50, tail) = (
        percentile(&job_ns, 50.0) as f64,
        percentile(&job_ns, TAIL) as f64,
    );
    let throughput = inputs.online.len() as f64 / (p50 / 1e9);
    report.e2e = vec![
        ("setup_s", setup_s),
        ("peak_rss_mb", crate::stats::peak_rss_mb()),
        ("throughput_per_s", throughput),
        ("latency_p50_us", p50 / 1e3),
        ("latency_tail_us", tail / 1e3),
        ("lag_p50_ms", p50 / 1e6),
        ("lag_tail_ms", tail / 1e6),
    ];
    report.named = vec![
        ("stamp_msgs_per_s", throughput, "msg/s"),
        ("job_p50_ms", p50 / 1e6, "ms"),
        ("job_p75_ms", tail / 1e6, "ms"),
        ("jobs", jobs.len() as f64, "count"),
        ("quiet_jobs", job_ns.len() as f64, "count"),
        (
            "host_steal_s",
            jobs.iter().map(|j| j.steal).sum::<u64>() as f64 / 100.0,
            "s",
        ),
    ];

    if cfg.trace {
        let per_job = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
        let layer_ms: f64 = [
            "trace.parse",
            "poset.build",
            "core.offline_stamp",
            "bench.check",
        ]
        .iter()
        .map(|n| traced.total(n).0 as f64 / 1e6)
        .sum();
        report.layers = vec![
            ("graph.decompose_ms", median(&decompose_ms)),
            ("graph.dim", inputs.dim as f64),
            ("trace.parse_ms", per_job(|j| j.parse_ms)),
            ("trace.bytes_in", inputs.json.len() as f64),
            ("poset.build_ms", per_job(|j| j.build_ms)),
            ("poset.bytes", per_job(|j| j.poset_bytes as f64)),
            ("core.offline_stamp_ms", per_job(|j| j.stamp_ms)),
            ("core.offline_dim", per_job(|j| j.dim as f64)),
            ("residual_ms", traced_wall_ms - layer_ms),
            ("trace_overhead", per_op_ms[1] / per_op_ms[0]),
        ];
        report.notes.push(format!(
            "offline_stamp: residual {:.1} ms of {:.1} ms traced wall ({:.2}%)",
            traced_wall_ms - layer_ms,
            traced_wall_ms,
            100.0 * (traced_wall_ms - layer_ms) / traced_wall_ms
        ));
        crate::write_spans(cfg, "offline_stamp", &traced);
    }
    Ok(report)
}
