//! Property tests: every runner is observationally equivalent through
//! the [`run_runner`] dispatch — the engine and socket substrates drive
//! the identical session pipeline, so verdicts, mismatch identity and
//! typed link errors must be substrate-independent across DUT
//! configurations (single- and dual-core), workload seeds, bug-injection
//! points and fault schedules.

use difftest_core::{run_runner, DiffConfig, FaultPlan, RunOutcome, RunnerKind, RunnerReport};
use difftest_dut::{BugKind, BugSpec, DutConfig};
use difftest_workload::Workload;
use proptest::prelude::*;

/// Every substrate, dispatched through the one entry point the examples
/// use.
const KINDS: [RunnerKind; 2] = [RunnerKind::Engine, RunnerKind::Socket];

/// Every property runs on a single-core DUT and on a dual-core one,
/// whose single stream interleaves both cores' events.
fn duts() -> [DutConfig; 2] {
    let mut dual = DutConfig::xiangshan_minimal();
    dual.cores = 2;
    [DutConfig::nutshell(), dual]
}

fn run(
    kind: RunnerKind,
    dut: &DutConfig,
    config: DiffConfig,
    w: &Workload,
    bugs: Vec<BugSpec>,
    fault: Option<FaultPlan>,
) -> RunnerReport {
    run_runner(kind, dut.clone(), config, w, bugs, 500_000, 8, fault)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn runners_agree_on_clean_runs(seed in 0u64..1_000) {
        let w = Workload::microbench().seed(seed).iterations(40).build();
        for dut in &duts() {
            let engine = run(RunnerKind::Engine, dut, DiffConfig::BNSD, &w, Vec::new(), None);
            prop_assert_eq!(engine.outcome, RunOutcome::GoodTrap, "{} core(s)", dut.cores);
            for kind in KINDS {
                let r = run(kind, dut, DiffConfig::BNSD, &w, Vec::new(), None);
                prop_assert_eq!(r.outcome, engine.outcome, "{:?} on {} core(s)", kind, dut.cores);
                prop_assert_eq!(
                    r.items, engine.items,
                    "{:?} on {} core(s): same stream, same items", kind, dut.cores
                );
                prop_assert_eq!(
                    r.instructions, engine.instructions,
                    "{:?} on {} core(s)", kind, dut.cores
                );
            }
        }
    }

    #[test]
    fn runners_agree_on_mismatch_identity(
        seed in 0u64..1_000,
        bug_cycle in 1_000u64..6_000,
    ) {
        let w = Workload::linux_boot().seed(seed).iterations(300).build();
        let bugs = vec![BugSpec::new(BugKind::RegWriteCorruption, bug_cycle)];
        for dut in &duts() {
            let engine = run(RunnerKind::Engine, dut, DiffConfig::BNSD, &w, bugs.clone(), None);
            for kind in KINDS {
                let r = run(kind, dut, DiffConfig::BNSD, &w, bugs.clone(), None);
                prop_assert_eq!(r.outcome, engine.outcome, "{:?} on {} core(s)", kind, dut.cores);
                // One stream, one in-order consumer: arrival order is
                // identical, so the first failing check is byte-for-byte
                // the same mismatch on every substrate.
                prop_assert_eq!(
                    r.mismatch.clone(), engine.mismatch.clone(),
                    "{:?} on {} core(s): mismatch identity", kind, dut.cores
                );
            }
        }
    }

    #[test]
    fn runners_agree_on_typed_fault_outcomes(
        seed in 0u64..1_000,
        rate in 5u16..40,
    ) {
        // BN is report-only on every substrate (no retention ring), so
        // the same seeded fault schedule over the same packet stream
        // must yield the identical typed outcome — recovered-clean or
        // the same link error at the same sequence.
        let w = Workload::microbench().seed(seed).iterations(60).build();
        let plan = Some(FaultPlan::uniform(seed ^ 0x9e37, rate));
        for dut in &duts() {
            let engine = run(RunnerKind::Engine, dut, DiffConfig::BN, &w, Vec::new(), plan);
            prop_assert!(
                matches!(engine.outcome, RunOutcome::GoodTrap | RunOutcome::LinkError { .. }),
                "engine on {} core(s): fault must be recovered or typed, got {:?}",
                dut.cores, engine.outcome
            );
            for kind in KINDS {
                let r = run(kind, dut, DiffConfig::BN, &w, Vec::new(), plan);
                prop_assert_eq!(r.outcome, engine.outcome, "{:?} on {} core(s)", kind, dut.cores);
                prop_assert!(r.mismatch.is_none(), "{:?}: phantom mismatch", kind);
                if let RunOutcome::LinkError { .. } = r.outcome {
                    prop_assert!(r.link.total_detected() > 0, "{:?}: untyped link error", kind);
                }
            }
        }
    }
}
