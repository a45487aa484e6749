//! Runs the benchmark's workloads.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` — end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. Exits 1
//! when a correctness check failed and 2 on bad arguments or a workload
//! that could not run.

use std::path::PathBuf;
use std::process::ExitCode;

use synctime_perfbench::{run_workload, Config, Scale, WORKLOADS};

fn parse_args() -> Result<(Vec<String>, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let names = if workload == "all" {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload]
    } else {
        return Err(format!(
            "unknown workload `{workload}` (known: all, {})",
            WORKLOADS.join(", ")
        ));
    };
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let cfg = Config {
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        scale: Scale::FULL,
        work_dir: PathBuf::new(),
    };
    Ok((names, cfg))
}

fn main() -> ExitCode {
    let (names, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for name in &names {
        let cfg = Config {
            work_dir: PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id())),
            ..cfg.clone()
        };
        let report = match run_workload(name, &cfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(2);
            }
        };
        let table = if cfg.trace {
            report.layer_table()
        } else {
            report.e2e_table()
        };
        for (metric, value, unit) in table.iter().chain(&report.named) {
            println!("{name} {metric} {value:.6} {unit}");
        }
        for note in &report.notes {
            println!("{name} note: {note}");
        }
        let correct = report.failed == 0 && report.attempted > 0;
        if !correct {
            eprintln!(
                "perfbench: {name}: {} of {} operations failed their checks",
                report.failed, report.attempted
            );
        }
        all_correct &= correct;
        println!("{}", report.result_json(cfg.trace));
    }
    // Leave no empty scratch root behind; a non-empty one is not ours.
    let _ = std::fs::remove_dir(".bench_work");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
