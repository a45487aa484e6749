//! Differential battery under churn: a reconfigured computation must tell
//! the same story as its oracle, with and without faults.
//!
//! Two properties over seeded random [`ChurnPlan`]s:
//!
//! * **Fault-free churn is deterministic and order-exact.** The engine is
//!   deterministic given a plan, so two runs must produce byte-identical
//!   logs and boundaries, and the final-epoch stamps must encode the
//!   reconstructed computation's synchronous order exactly (Theorem 4,
//!   surviving arbitrarily many rebases).
//! * **Churn and crash faults compose.** Crashes make the interleaving
//!   racy (termination cascades), so runs may diverge byte-for-byte; what
//!   must still hold is internal consistency of the durable pathway:
//!   persist the run with its reconfiguration records, recover it,
//!   materialise the latest epoch, and the recovered stamps must encode
//!   the recovered computation's order.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synctime_runtime::reconstruct_from_logs;
use synctime_sim::{run_churn, ChurnConfig, ChurnPlan, ChurnRun, FaultPlan};
use synctime_testutil::TempDir;
use synctime_trace::Oracle;

/// Runs the plan under `fault`, failing the case on any error.
fn churn(plan: &ChurnPlan, fault: &FaultPlan) -> Result<ChurnRun, TestCaseError> {
    let cfg = ChurnConfig {
        fault: fault.clone(),
    };
    run_churn(plan, &cfg).map_err(|e| TestCaseError::Fail(format!("churn run failed: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fault-free: identical logs and boundaries on a rerun, and
    /// order-exact final-epoch stamps.
    #[test]
    fn fault_free_churn_is_deterministic_and_order_exact(
        seed in 0u64..10_000,
        universe in 4usize..8,
        boundaries in 1usize..4,
    ) {
        let plan = ChurnPlan::random(universe, boundaries, 2, &mut StdRng::seed_from_u64(seed));
        let no_faults = FaultPlan::default();
        let run = churn(&plan, &no_faults)?;
        let (comp, stamps) = reconstruct_from_logs(&run.final_epoch_logs())
            .map_err(|e| TestCaseError::Fail(format!("final epoch: {e}")))?;
        prop_assert!(
            stamps.encodes(&Oracle::new(&comp)),
            "stamps do not encode the final epoch's order"
        );
        let rerun = churn(&plan, &no_faults)?;
        prop_assert_eq!(&rerun.logs, &run.logs, "a rerun produced different logs");
        prop_assert_eq!(
            &rerun.boundaries, &run.boundaries,
            "a rerun produced different boundaries"
        );
    }

    /// Crashes composed with churn: the persisted run must recover and its
    /// latest epoch must materialise into stamps that encode the recovered
    /// computation's order.
    #[test]
    fn churn_and_crash_faults_compose_through_store_recovery(
        seed in 0u64..10_000,
        universe in 4usize..8,
        boundaries in 1usize..3,
        crashes in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = ChurnPlan::random(universe, boundaries, 2, &mut rng);
        let fault = FaultPlan::random(universe, 4, crashes, 0, &mut rng);
        let root = TempDir::new("churn-diff");
        let run = churn(&plan, &fault)?;
        let records: Vec<synctime_store::ReconfigRecord> = run
            .boundaries
            .iter()
            .map(|b| synctime_store::ReconfigRecord {
                epoch: b.epoch,
                cuts: b.cuts.clone(),
                ops: b.ops.clone(),
            })
            .collect();
        let trace = "churned";
        synctime_store::persist_logs_with_reconfigs(&root, trace, &run.logs, &records)
            .map_err(|e| TestCaseError::Fail(format!("persist: {e}")))?;
        let rec = synctime_store::read_trace_dir(&root.join(trace))
            .map_err(|e| TestCaseError::Fail(format!("recover: {e}")))?;
        prop_assert_eq!(&rec.logs, &run.logs, "recovery must round-trip");
        let (epoch, comp, stamps) = synctime_store::materialize_latest_epoch(&rec)
            .map_err(|e| TestCaseError::Fail(format!("materialise: {e}")))?;
        prop_assert_eq!(epoch, run.final_epoch(), "latest epoch mismatch");
        prop_assert!(
            stamps.encodes(&Oracle::new(&comp)),
            "recovered stamps do not encode the recovered order"
        );
    }
}
