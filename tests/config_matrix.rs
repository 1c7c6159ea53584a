//! What the optimization levels change beside the verdict: simulated
//! speed rises with each, two cores are checked and attributed, an MMIO
//! load synchronizes the REF once on every stream, the cycle cap holds and
//! the parked queue stays bounded. That every level verifies the same
//! workloads to the same good trap over the same execution is the
//! conformance matrix's (`tests/conformance.rs`).

use difftest_h::core::squash::{MAX_PARKED, MAX_TAG_LEAD, MAX_WINDOW_AGE};
use difftest_h::core::wire::WireItemRef;
use difftest_h::core::{CoSimulation, DiffConfig, QueueSink, RunOutcome, Session, Verdict};
use difftest_h::dut::DutConfig;
use difftest_h::platform::Platform;
use difftest_h::workload::Workload;

fn run_one(workload: &Workload, dut: DutConfig, config: DiffConfig) -> (RunOutcome, u64, u64) {
    let session = Session::new(dut, config, workload, Vec::new(), 400_000, 8, None)
        .with_platform(Platform::palladium());
    let mut sim = CoSimulation::new(session).expect("valid setup");
    let report = sim.run();
    (report.outcome, report.cycles, report.instructions)
}

#[test]
fn speeds_increase_monotonically_with_optimizations() {
    let w = Workload::linux_boot().seed(4).iterations(200).build();
    for platform in [Platform::palladium(), Platform::fpga()] {
        let mut last = 0.0;
        for config in DiffConfig::ALL {
            let session = Session::new(
                DutConfig::xiangshan_default(),
                config,
                &w,
                Vec::new(),
                60_000,
                8,
                None,
            )
            .with_platform(platform.clone());
            let mut sim = CoSimulation::new(session).expect("valid setup");
            let report = sim.run();
            assert!(
                report.speed_hz > last,
                "{config:?} on {} must be faster than the previous level \
                 ({} <= {last})",
                platform.name(),
                report.speed_hz
            );
            last = report.speed_hz;
        }
    }
}

#[test]
fn dual_core_verifies_and_reports_per_core() {
    let w = Workload::linux_boot().seed(6).iterations(80).build();
    let session = Session::new(
        DutConfig::xiangshan_dual(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        400_000,
        8,
        None,
    )
    .with_platform(Platform::palladium());
    let mut sim = CoSimulation::new(session).expect("valid setup");
    let report = sim.run();
    assert_eq!(report.outcome, RunOutcome::GoodTrap);
    // Both cores were checked. They run the same program under
    // independent stall timing, so their progress differs slightly at the
    // moment core 0 hits the good trap.
    let (a, b) = (sim.checker().seq(0), sim.checker().seq(1));
    assert!(a > 1_000 && b > 1_000, "both cores progressed ({a}, {b})");
    let gap = a.abs_diff(b) as f64 / a.max(b) as f64;
    assert!(gap < 0.05, "cores drifted too far apart ({a}, {b})");
}

#[test]
fn dual_core_bug_is_attributed_to_core_zero() {
    use difftest_h::dut::{BugKind, BugSpec};
    let w = Workload::linux_boot().seed(6).iterations(200).build();
    let session = Session::new(
        DutConfig::xiangshan_dual(),
        DiffConfig::BNSD,
        &w,
        vec![BugSpec::new(BugKind::RegWriteCorruption, 5_000)],
        400_000,
        8,
        None,
    )
    .with_platform(Platform::palladium());
    let mut sim = CoSimulation::new(session).expect("valid setup");
    let report = sim.run();
    assert_eq!(report.outcome, RunOutcome::Mismatch);
    let failure = report.failure.expect("mismatch report");
    assert_eq!(failure.coarse.core, 0, "bugs are injected into core 0");
    assert_eq!(failure.precise.expect("replay localizes").core, 0);
}

/// One MMIO load synchronizes the REF once, whatever the stream: BN's
/// skipped commit and BNSD's one tagged copy of the value (the MMIO
/// `LoadEvent` on XiangShan, the skipped commit on NutShell) each arm it
/// once, so `sw.mmio_skips` agrees between the two.
#[test]
fn mmio_skips_count_once_per_load_on_every_stream() {
    let w = Workload::mmio_heavy().seed(7).iterations(40).build();
    for dut in [DutConfig::xiangshan_dual(), DutConfig::nutshell()] {
        let skips = [DiffConfig::BN, DiffConfig::BNSD].map(|config| {
            let session = Session::new(dut.clone(), config, &w, Vec::new(), 400_000, 8, None)
                .with_platform(Platform::palladium());
            let mut sim = CoSimulation::new(session).expect("valid setup");
            let report = sim.run();
            assert_eq!(report.outcome, RunOutcome::GoodTrap, "{config:?}");
            report.counters().get("sw.mmio_skips")
        });
        assert!(skips[0] > 0, "{}: the program reads MMIO", dut.name);
        assert_eq!(skips[0], skips[1], "{}: BN vs BNSD mmio skips", dut.name);
    }
}

#[test]
fn max_cycles_is_respected() {
    let w = Workload::linux_boot().seed(3).iterations(50_000).build();
    let (outcome, cycles, _) = run_one(&w, DutConfig::nutshell(), DiffConfig::BNSD);
    assert_eq!(outcome, RunOutcome::MaxCycles);
    assert_eq!(cycles, 400_000);
}

/// The largest order-tag lead over its core's checked position, and the
/// largest parked count, that `session`'s honest stream shows a checker
/// fed item by item (admit, view, check) as `Consumer` feeds it.
fn parked_peaks(session: &Session) -> (u64, usize) {
    let mut producer = session.producer(QueueSink::default());
    producer.run();
    let transfers = std::mem::take(&mut producer.link_mut().sink_mut().queue);
    let (mut sw, mut checker) = (session.sw_unit(), session.checker(false));
    let mut peaks = (0u64, 0usize);
    for t in &transfers {
        let Some(body) = sw.admit(t).expect("an honest transfer admits") else {
            continue;
        };
        sw.visit_admitted(body, &mut |item| {
            if let WireItemRef::Tagged { core, tag, .. } | WireItemRef::Diff { core, tag, .. } =
                &item
            {
                peaks.0 = peaks.0.max(tag.0.saturating_sub(checker.seq(*core)));
            }
            let verdict = checker.process_ref(item).expect("an honest stream checks");
            peaks.1 = peaks.1.max(checker.pending_items());
            verdict == Verdict::Continue
        })
        .expect("an admitted body visits");
    }
    peaks
}

/// The parked-queue bounds hold on every honest stream: the largest tag
/// lead and parked count across the five presets on XiangShan Minimal
/// under every configuration, plus a 128-commit fusion window on the
/// widest preset, stay under `MAX_TAG_LEAD` and
/// `MAX_PARKED`, whose derivation every preset's commit width and slot
/// table satisfy.
#[test]
fn parked_queue_bounds_hold_on_every_honest_stream() {
    for dut in [
        DutConfig::nutshell(),
        DutConfig::xiangshan_minimal(),
        DutConfig::xiangshan_default(),
        DutConfig::xiangshan_dual(),
    ] {
        let window_commits = u64::from(MAX_WINDOW_AGE) * u64::from(dut.commit_width);
        assert!(window_commits <= MAX_TAG_LEAD, "{}", dut.name);
        let per_cycle: usize = dut.slots.iter().map(|(_, n)| usize::from(n)).sum();
        let two_windows = 2 * MAX_WINDOW_AGE as usize * per_cycle;
        assert!(two_windows <= MAX_PARKED, "{}: {per_cycle}", dut.name);
    }

    let workloads = [
        Workload::microbench().seed(3).iterations(60).build(),
        Workload::linux_boot().seed(3).iterations(60).build(),
        Workload::spec_like().seed(3).iterations(60).build(),
        Workload::mmio_heavy().seed(3).iterations(120).build(),
        Workload::trap_heavy().seed(3).iterations(120).build(),
    ];
    let mut sessions: Vec<Session> = workloads
        .iter()
        .flat_map(|w| {
            DiffConfig::ALL.map(|config| {
                let dut = DutConfig::xiangshan_minimal();
                Session::new(dut, config, w, Vec::new(), 400_000, 8, None)
            })
        })
        .collect();
    let w = Workload::linux_boot().seed(3).iterations(200).build();
    let dut = DutConfig::xiangshan_default();
    sessions.push(
        Session::new(dut, DiffConfig::BNSD, &w, Vec::new(), 400_000, 8, None)
            .with_fusion_window(128),
    );

    let observed = sessions
        .iter()
        .map(parked_peaks)
        .fold((0, 0), |a, b| (a.0.max(b.0), a.1.max(b.1)));
    eprintln!(
        "parked peaks: lead {} of {MAX_TAG_LEAD}, parked {} of {MAX_PARKED}",
        observed.0, observed.1
    );
    assert!(observed.0 > 0 && observed.1 > 0, "the matrix parks items");
    assert!(observed.0 <= MAX_TAG_LEAD, "lead {}", observed.0);
    assert!(observed.1 <= MAX_PARKED, "parked {}", observed.1);
}
