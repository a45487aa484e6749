//! The runtime's observability layer end to end: the deadlock watchdog
//! turns stalled rendezvous into diagnosed errors, and clean runs produce
//! consistent `RunStats` summaries.

use std::time::{Duration, Instant};

use synctime::prelude::*;
use synctime::runtime::{RunStats, RuntimeError, WaitOp};
use synctime_graph::{decompose, topology};

/// A deliberately deadlocked 2-process program: both sides block in
/// `receive_from` forever. The watchdog must abort with the 0 <-> 1 cycle
/// well within the test's patience, instead of hanging the suite.
#[test]
fn deadlocked_program_aborts_with_cycle() {
    let topo = topology::path(2);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec).with_watchdog(Duration::from_millis(150));
    let started = Instant::now();
    let err = rt
        .run(vec![
            Box::new(|ctx| ctx.receive_from(1).map(|_| ())),
            Box::new(|ctx| ctx.receive_from(0).map(|_| ())),
        ])
        .unwrap_err();
    assert!(started.elapsed() < Duration::from_secs(30), "near-hang");
    let RuntimeError::Deadlock { ref diagnosis } = err else {
        panic!("expected a deadlock diagnosis, got {err}");
    };
    assert_eq!(diagnosis.cycle, vec![0, 1]);
    assert_eq!(diagnosis.waiting.len(), 2);
    assert!(diagnosis
        .waiting
        .iter()
        .all(|w| w.op == WaitOp::ReceiveFrom));
    // The rendered diagnosis names the cycle for log consumers.
    assert!(err.to_string().contains("P0 -> P1 -> P0"), "{err}");
}

/// Three processes in a send cycle over a triangle: 0 -> 1 -> 2 -> 0, all
/// blocked sending. The watchdog extracts the 3-cycle.
#[test]
fn three_process_send_cycle_is_diagnosed() {
    let topo = topology::triangle();
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec).with_watchdog(Duration::from_millis(150));
    let err = rt
        .run(vec![
            Box::new(|ctx| ctx.send(1, 0).map(|_| ())),
            Box::new(|ctx| ctx.send(2, 0).map(|_| ())),
            Box::new(|ctx| ctx.send(0, 0).map(|_| ())),
        ])
        .unwrap_err();
    let RuntimeError::Deadlock { diagnosis } = err else {
        panic!("expected a deadlock diagnosis, got {err}");
    };
    assert_eq!(diagnosis.cycle, vec![0, 1, 2]);
    assert!(diagnosis.waiting.iter().all(|w| w.op == WaitOp::SendTo));
}

/// Slow is not dead: a pipeline whose stages nap for multiples of the
/// watchdog timeout between rendezvous. Peers park far longer than the
/// timeout, but no wait cycle ever forms, so the cycle-based watchdog must
/// let the run finish instead of mistaking patience for deadlock.
#[test]
fn slow_but_live_pipeline_is_never_flagged() {
    let topo = topology::path(3);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec).with_watchdog(Duration::from_millis(40));
    let run = rt
        .run(vec![
            Box::new(|ctx| {
                for i in 0..3 {
                    std::thread::sleep(Duration::from_millis(120));
                    ctx.send(1, i)?;
                }
                Ok(())
            }),
            Box::new(|ctx| {
                for _ in 0..3 {
                    let (x, _) = ctx.receive_from(0)?;
                    std::thread::sleep(Duration::from_millis(60));
                    ctx.send(2, x)?;
                }
                Ok(())
            }),
            Box::new(|ctx| {
                for _ in 0..3 {
                    ctx.receive_from(1)?;
                }
                Ok(())
            }),
        ])
        .expect("slow-but-live pipeline was flagged as deadlocked");
    assert_eq!(run.stats().messages, 6);
}

/// A genuine deadlock among a subset must be caught even while a bystander
/// keeps doing useful (non-blocking) work: the watchdog reasons about wait
/// cycles, not about whether every thread is stuck.
#[test]
fn partial_deadlock_is_diagnosed_despite_live_bystander() {
    let topo = topology::path(3);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec).with_watchdog(Duration::from_millis(150));
    let err = rt
        .run(vec![
            Box::new(|_ctx| {
                // Alive and busy, never waiting on anyone.
                std::thread::sleep(Duration::from_millis(600));
                Ok(())
            }),
            Box::new(|ctx| ctx.receive_from(2).map(|_| ())),
            Box::new(|ctx| ctx.receive_from(1).map(|_| ())),
        ])
        .unwrap_err();
    let RuntimeError::Deadlock { diagnosis } = err else {
        panic!("expected a deadlock diagnosis, got {err}");
    };
    assert_eq!(diagnosis.cycle, vec![1, 2]);
    assert!(!diagnosis.cycle.contains(&0), "P0 was never waiting");
}

/// Blocked endpoints park on their channel slot, and the stats expose the
/// wakeup path they actually took.
#[test]
fn parking_reports_wakeups() {
    let topo = topology::cycle(3);
    let dec = decompose::best_known(&topo);
    let behaviors: Vec<Behavior> = (0..3)
        .map(|p| -> Behavior {
            Box::new(move |ctx| {
                for i in 0..20 {
                    if p == 0 {
                        ctx.send(1, i)?;
                        ctx.receive_from(2)?;
                    } else {
                        let (t, _) = ctx.receive_from(p - 1)?;
                        ctx.send((p + 1) % 3, t)?;
                    }
                }
                Ok(())
            })
        })
        .collect();
    let parking = Runtime::new(&topo, &dec).run(behaviors).unwrap();
    assert_eq!(parking.stats().messages, 60);
    let s = parking.stats();
    assert!(s.wakeups > 0, "a ring must park at least once");
    assert!(s.wakeup_p50_ns <= s.wakeup_p99_ns);
    assert!(s.wakeup_p99_ns <= s.wakeup_max_ns);
}

/// A correct program under a tight watchdog: many rounds, never tripped,
/// and the stats line up with the protocol's accounting.
#[test]
fn clean_run_stats_are_consistent() {
    let topo = topology::cycle(4);
    let dec = decompose::best_known(&topo);
    let rounds = 25u64;
    let rt = Runtime::new(&topo, &dec).with_watchdog(Duration::from_millis(500));
    let behaviors: Vec<Behavior> = (0..4)
        .map(|p| -> Behavior {
            Box::new(move |ctx| {
                for i in 0..rounds {
                    if p == 0 {
                        ctx.send(1, i)?;
                        ctx.receive_from(3)?;
                    } else {
                        let (token, _) = ctx.receive_from(p - 1)?;
                        ctx.send((p + 1) % 4, token)?;
                    }
                }
                Ok(())
            })
        })
        .collect();
    let run = rt.run(behaviors).expect("clean ring tripped the watchdog");
    let stats = run.stats();
    assert_eq!(stats.messages, 4 * rounds);
    assert_eq!(stats.receives, 4 * rounds);
    // Every rendezvous would move one offer frame plus one ack frame with
    // full fixed-width d-vectors (frame headers included); that baseline is
    // counted at both endpoints. The actual bytes ride per-channel delta
    // streams, so they are positive and never exceed the baseline.
    let dim = dec.len() as u64;
    assert_eq!(
        stats.total_wire_bytes_full,
        stats.messages * 2 * synctime_core::wire::rendezvous_bytes_full(dim as usize)
    );
    assert!(stats.total_wire_bytes > 0);
    assert!(stats.total_wire_bytes <= stats.total_wire_bytes_full);
    assert!(stats.ack_latency_p50_ns > 0);
    assert!(stats.ack_latency_p99_ns >= stats.ack_latency_p50_ns);
    assert!(stats.ack_latency_max_ns >= stats.ack_latency_p99_ns);
    // The token made `rounds` trips through each edge group; components
    // count exactly the messages of their group.
    assert_eq!(
        stats.max_vector_component,
        stats.messages / dim.max(1),
        "components partition the {} messages across {} groups",
        stats.messages,
        dim
    );
    // Per-process counters sum to the totals.
    let sends: u64 = stats.per_process.iter().map(|p| p.sends).sum();
    assert_eq!(sends, stats.messages);
    // The JSON export round-trips losslessly.
    let reparsed = RunStats::from_json(&stats.to_json()).unwrap();
    assert_eq!(&reparsed, stats);
}
