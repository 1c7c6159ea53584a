//! Property tests: the sharded runner is observationally equivalent to the
//! single-consumer threaded runner — same outcome and, on a single core,
//! the identical mismatch — across workload seeds and bug-injection
//! points. The shards only parallelize checking; they must never change
//! what is checked.

use difftest_core::engine::{DiffConfig, RunOutcome};
use difftest_core::{run_sharded_session, run_threaded_session, Session};
use difftest_dut::{BugKind, BugSpec, DutConfig};
use difftest_workload::Workload;
use proptest::prelude::*;

fn dual_core_minimal() -> DutConfig {
    let mut cfg = DutConfig::xiangshan_minimal();
    cfg.cores = 2;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_matches_threaded_on_clean_runs(seed in 0u64..1_000) {
        let w = Workload::microbench().seed(seed).iterations(40).build();
        let t = run_threaded_session(Session::new(
            DutConfig::nutshell(), DiffConfig::BNSD, &w, Vec::new(), 500_000, 8, None,
        ));
        let s = run_sharded_session(Session::new(
            DutConfig::nutshell(), DiffConfig::BNSD, &w, Vec::new(), 500_000, 8, None,
        ));
        prop_assert_eq!(s.outcome, t.outcome);
        prop_assert_eq!(s.outcome, RunOutcome::GoodTrap);
        prop_assert_eq!(s.items, t.items, "both runners check the same stream");
    }

    #[test]
    fn sharded_matches_threaded_on_buggy_runs(
        seed in 0u64..1_000,
        bug_cycle in 1_000u64..6_000,
    ) {
        let w = Workload::linux_boot().seed(seed).iterations(300).build();
        let bugs = vec![BugSpec::new(BugKind::RegWriteCorruption, bug_cycle)];
        let t = run_threaded_session(Session::new(
            DutConfig::xiangshan_minimal(), DiffConfig::BNSD, &w, bugs.clone(), 500_000, 8, None,
        ));
        let s = run_sharded_session(Session::new(
            DutConfig::xiangshan_minimal(), DiffConfig::BNSD, &w, bugs, 500_000, 8, None,
        ));
        prop_assert_eq!(s.outcome, t.outcome);
        // Single core: arrival order is identical, so the first failing
        // check must be byte-for-byte the same mismatch.
        prop_assert_eq!(s.mismatch.clone(), t.mismatch.clone());
        // Every checker mismatch carries a flight-recorder snapshot with
        // the mismatch record in it.
        if let Some(m) = &t.mismatch {
            let tf = t.flight.as_ref().expect("threaded mismatch without flight snapshot");
            let sf = s.flight.as_ref().expect("sharded mismatch without flight snapshot");
            for (name, snap) in [("threaded", tf), ("sharded", sf)] {
                let hit = snap.records.iter().any(|r| {
                    r.kind == difftest_stats::FlightKind::Mismatch && r.value == m.seq
                });
                prop_assert!(hit, "{} snapshot missing the mismatch record", name);
            }
        } else {
            prop_assert!(t.flight.is_none() && s.flight.is_none());
        }
    }

    #[test]
    fn metrics_are_deterministic_across_workers(seed in 0u64..1_000) {
        // Cross-worker metrics determinism: N workers merged in core
        // order must reproduce exactly what the single-consumer runner
        // measured on the same stream — histogram for histogram.
        let w = Workload::microbench().seed(seed).iterations(40).build();
        let t = run_threaded_session(Session::new(
            DutConfig::nutshell(), DiffConfig::BNSD, &w, Vec::new(), 500_000, 8, None,
        ));
        let s = run_sharded_session(Session::new(
            DutConfig::nutshell(), DiffConfig::BNSD, &w, Vec::new(), 500_000, 8, None,
        ));
        // Single core: both runners pack the identical packet stream, so
        // the merged histograms must match the threaded ones bucket for
        // bucket (phase timings are wall-clock and naturally differ).
        prop_assert_eq!(
            s.metrics.histogram("packet.bytes"), t.metrics.histogram("packet.bytes"),
            "merged packet.bytes histogram diverged from the threaded runner"
        );
        prop_assert_eq!(
            s.metrics.histogram("packet.items"), t.metrics.histogram("packet.items")
        );
        for key in ["obs.transfers", "obs.items", "obs.bytes"] {
            prop_assert_eq!(s.metrics.counters.get(key), t.metrics.counters.get(key), "{}", key);
        }
        // And a re-run with the same seed reproduces the merged registry
        // exactly: worker scheduling must not leak into the aggregation.
        let s2 = run_sharded_session(Session::new(
            DutConfig::nutshell(), DiffConfig::BNSD, &w, Vec::new(), 500_000, 8, None,
        ));
        prop_assert_eq!(
            s.metrics.histogram("packet.bytes"), s2.metrics.histogram("packet.bytes")
        );
        for key in ["obs.transfers", "obs.items", "obs.bytes"] {
            prop_assert_eq!(s.metrics.counters.get(key), s2.metrics.counters.get(key), "{}", key);
        }
    }

    #[test]
    fn dual_core_item_totals_are_deterministic(seed in 0u64..1_000) {
        // Multi-core: the threaded runner packs all cores into one
        // AccelUnit while the sharded one packs per core, so packet
        // boundaries (and their histograms) legitimately differ — but
        // the checked item volume is schedule-independent.
        let w = Workload::microbench().seed(seed).iterations(40).build();
        let t = run_threaded_session(Session::new(
            dual_core_minimal(), DiffConfig::BNSD, &w, Vec::new(), 500_000, 8, None,
        ));
        let s = run_sharded_session(Session::new(
            dual_core_minimal(), DiffConfig::BNSD, &w, Vec::new(), 500_000, 8, None,
        ));
        prop_assert_eq!(s.outcome, RunOutcome::GoodTrap);
        prop_assert_eq!(
            s.metrics.counters.get("obs.items"),
            t.metrics.counters.get("obs.items"),
            "clean dual-core runs must check the same item volume"
        );
        let s2 = run_sharded_session(Session::new(
            dual_core_minimal(), DiffConfig::BNSD, &w, Vec::new(), 500_000, 8, None,
        ));
        prop_assert_eq!(
            s.metrics.histogram("packet.bytes"), s2.metrics.histogram("packet.bytes"),
            "sharded re-run must merge to the identical histogram"
        );
        prop_assert_eq!(
            s.metrics.counters.get("obs.bytes"), s2.metrics.counters.get("obs.bytes")
        );
    }

    #[test]
    fn sharded_matches_threaded_on_dual_core(seed in 0u64..1_000, buggy in any::<bool>()) {
        let w = Workload::microbench().seed(seed).iterations(40).build();
        let bugs = if buggy {
            vec![BugSpec::new(BugKind::RegWriteCorruption, 2_000)]
        } else {
            Vec::new()
        };
        let t = run_threaded_session(Session::new(
            dual_core_minimal(), DiffConfig::BNSD, &w, bugs.clone(), 500_000, 8, None,
        ));
        let s = run_sharded_session(Session::new(
            dual_core_minimal(), DiffConfig::BNSD, &w, bugs, 500_000, 8, None,
        ));
        // Across cores the two runners may stop at different points in the
        // interleaving, but the verdict class must agree.
        prop_assert_eq!(s.outcome, t.outcome);
        prop_assert_eq!(s.mismatch.is_some(), t.mismatch.is_some());
    }
}
