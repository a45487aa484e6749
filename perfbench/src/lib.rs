//! End-to-end and per-layer benchmark of `synctime`'s stamping and
//! serving paths.
//!
//! Four workloads each drive a different slice of the crates through their
//! public functions, and nothing in the program itself is instrumented: the
//! benchmark times the calls it makes.
//!
//! | workload        | loop                        | layers doing the work                     |
//! |-----------------|-----------------------------|-------------------------------------------|
//! | `offline_stamp` | closed, 1 caller            | `trace`, `poset`, offline `core` + `par`  |
//! | `live_persist`  | closed, 1 caller            | `runtime`, online `core`, `store`         |
//! | `query_serve`   | closed, 1 connection        | `net` framing, pool and catalog, `core`   |
//! | `serve_ingest`  | closed reads + open ingest  | `net`, `store` tail reads, catalog publish |
//!
//! Every workload reports the same seven end-to-end metrics (see
//! [`E2E_METRICS`]). What one operation is, which percentile the tail
//! metrics take, and how a run's parts are reduced to one figure differ per
//! workload and are spelled out in `perfbench/README.md`. A traced run
//! (`--trace 1`) records spans around each call ([`span`]) and reports the
//! per-layer table ([`LAYER_METRICS`]) instead.

pub mod check;
pub mod live;
pub mod offline;
pub mod serve;
pub mod span;
pub mod stats;

use std::path::PathBuf;

/// The end-to-end metrics every workload reports with `--trace 0`:
/// `(name, unit)`. Kept in step with `BENCHMARK.json` by a test.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("lag_p50_ms", "ms"),
    ("lag_tail_ms", "ms"),
];

/// The per-layer metrics every workload reports with `--trace 1`:
/// `(name, unit)`. A layer a workload does not exercise reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("graph.decompose_ms", "ms"),
    ("graph.dim", "count"),
    ("trace.parse_ms", "ms/job"),
    ("trace.bytes_in", "B/job"),
    ("poset.build_ms", "ms/job"),
    ("poset.bytes", "B/job"),
    ("core.offline_stamp_ms", "ms/job"),
    ("core.offline_dim", "count"),
    ("runtime.send_ms_total", "ms"),
    ("runtime.receive_ms_total", "ms"),
    ("runtime.blocked_ms", "ms"),
    ("runtime.wakeups", "1/msg"),
    ("runtime.wakeup_p50_us", "us"),
    ("runtime.wakeup_p99_us", "us"),
    ("runtime.ack_p50_us", "us"),
    ("runtime.resync_frames", "count"),
    ("core.wire_bytes", "B/msg"),
    ("core.wire_bytes_full", "B/msg"),
    ("core.wire_savings_ratio", "ratio"),
    ("store.records", "count/cycle"),
    ("store.bytes", "B/cycle"),
    ("store.generation", "count/cycle"),
    ("store.seal_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("store.materialize_ms", "ms"),
    ("store.dropped_records", "count"),
    ("store.torn_bytes", "B"),
    ("store.append_ms", "ms/chunk"),
    ("store.tail_poll_ms", "ms/chunk"),
    ("store.tail_materialize_ms", "ms/chunk"),
    ("net.publish_us", "us"),
    ("ingest.late_ms", "ms"),
    ("net.call_us", "us"),
    ("net.answer_ns_per_query", "ns"),
    ("net.transport_ns_per_query", "ns"),
    ("net.bytes_per_query", "B"),
    ("residual_ms", "ms"),
    ("trace_overhead", "ratio"),
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &[
    "offline_stamp",
    "live_persist",
    "query_serve",
    "serve_ingest",
];

/// Input sizes. `full` is what the benchmark measures; `smoke` is the
/// CI-scale shrink the benchmark's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Messages in each offline job's trace.
    pub offline_messages: usize,
    /// Ring rounds per `live_persist` cycle (4 messages per round).
    pub live_rounds: u64,
    /// Messages in each static query trace.
    pub query_messages: usize,
    /// Ring rounds in the pre-recorded run `serve_ingest` replays.
    pub ingest_rounds: u64,
    /// Times set-up is repeated for the `setup_s` median.
    pub setup_reps: usize,
}

impl Scale {
    /// The measured sizes.
    pub const FULL: Scale = Scale {
        offline_messages: 300_000,
        live_rounds: 5_000,
        query_messages: 50_000,
        ingest_rounds: 500,
        setup_reps: 5,
    };

    /// Sizes small enough for unit tests.
    pub const SMOKE: Scale = Scale {
        offline_messages: 6_000,
        live_rounds: 300,
        query_messages: 3_000,
        ingest_rounds: 100,
        setup_reps: 2,
    };
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seeds every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for stores; created and removed by the workload.
    pub work_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (the unit of the throughput metric).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// End-to-end metrics, `(name, value)`, in [`E2E_METRICS`] order.
    pub e2e: Vec<(&'static str, f64)>,
    /// The same numbers under the workload's own names, printed for people.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics measured by a traced run (absent names read 0).
    pub layers: Vec<(&'static str, f64)>,
    /// Notes for people: residual share, anomaly ratios.
    pub notes: Vec<String>,
}

impl Report {
    /// The per-layer table in [`LAYER_METRICS`] order, 0 where unmeasured.
    pub fn layer_table(&self) -> Vec<(&'static str, f64, &'static str)> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, v, unit)
            })
            .collect()
    }

    /// The end-to-end table in [`E2E_METRICS`] order with units.
    pub fn e2e_table(&self) -> Vec<(&'static str, f64, &'static str)> {
        E2E_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .e2e
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(f64::NAN, |&(_, v)| v);
                (name, v, unit)
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// the run's kind.
    pub fn result_json(&self, trace: bool) -> String {
        let table = if trace {
            self.layer_table()
        } else {
            self.e2e_table()
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (a bug) become `null`, so a reader of
/// the result line refuses it instead of parsing garbage.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// A message when the name is unknown or the workload could not run at
/// all (a check failure is not an error: it is counted in the report).
pub fn run_workload(name: &str, cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("create work dir: {e}"))?;
    let report = match name {
        "offline_stamp" => offline::run(cfg),
        "live_persist" => live::run(cfg),
        "query_serve" => serve::run_query_serve(cfg),
        "serve_ingest" => serve::run_serve_ingest(cfg),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            WORKLOADS.join(", ")
        )),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    report
}

/// Writes a traced run's spans to `.bench_out/spans_<workload>_<seed>.jsonl`
/// under the working directory; a write failure is reported, not fatal.
pub fn write_spans(cfg: &Config, workload: &str, log: &span::SpanLog) {
    let path = PathBuf::from(".bench_out").join(format!("spans_{workload}_{}.jsonl", cfg.seed));
    match log.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            log.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "{workload}: could not write spans to {}: {e}",
            path.display()
        ),
    }
}
