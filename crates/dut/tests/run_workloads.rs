//! End-to-end DUT smoke tests: generated workloads run to a good trap and
//! produce plausible event streams.

use difftest_dut::{bug_catalog, BugKind, BugSpec, Dut, DutConfig, Hook};
use difftest_event::record::Records;
use difftest_event::{
    ArchFpRegState, ArchIntRegState, ArchVecRegState, CsrState, DebugModeState, Event, EventKind,
    HypervisorCsrState, TriggerCsrState, VecCsrState,
};
use difftest_isa::csr::CsrIndex;
use difftest_ref::{ArchState, Memory, RefModel, StepOutcome};
use difftest_workload::Workload;

fn image_of(words: &[u32]) -> Memory {
    let mut mem = Memory::new();
    mem.load_words(Memory::RAM_BASE, words);
    mem
}

#[test]
fn microbench_runs_to_good_trap_on_every_config() {
    let w = Workload::microbench().seed(3).iterations(30).build();
    for cfg in [
        DutConfig::nutshell(),
        DutConfig::xiangshan_minimal(),
        DutConfig::xiangshan_default(),
        DutConfig::xiangshan_dual(),
    ] {
        let name = cfg.name.clone();
        let mut dut = Dut::new(cfg, &image_of(w.words()), Vec::new());
        dut.run_to_halt(2_000_000);
        let halt = dut
            .halted()
            .unwrap_or_else(|| panic!("{name} did not halt"));
        assert!(halt.good, "{name} bad trap at {:#x}", halt.pc);
    }
}

#[test]
fn linux_boot_takes_timer_interrupts() {
    let w = Workload::linux_boot().seed(5).iterations(200).build();
    let mut dut = Dut::new(
        DutConfig::xiangshan_default(),
        &image_of(w.words()),
        Vec::new(),
    );
    let mut interrupts = 0;
    let mut mmio_loads = 0;
    while dut.halted().is_none() && dut.cycles() < 2_000_000 {
        let out = dut.tick();
        for ev in &out.events {
            match &ev.event {
                Event::ArchEvent(a) if a.is_interrupt != 0 => interrupts += 1,
                Event::LoadEvent(l) if l.is_mmio != 0 => mmio_loads += 1,
                _ => {}
            }
        }
    }
    assert!(
        dut.halted().map(|h| h.good).unwrap_or(false),
        "no good trap"
    );
    assert!(interrupts > 3, "only {interrupts} interrupts");
    assert!(mmio_loads > 50, "only {mmio_loads} MMIO loads");
}

#[test]
fn dut_matches_ref_on_deterministic_workload() {
    // Microbench has no MMIO and no interrupts, so the DUT (bug-free) and
    // the REF must retire identical instruction streams.
    let w = Workload::microbench().seed(11).iterations(80).build();
    let mut dut = Dut::new(
        DutConfig::xiangshan_default(),
        &image_of(w.words()),
        Vec::new(),
    );
    let mut rf = RefModel::new(image_of(w.words()));

    let mut commits = Vec::new();
    while dut.halted().is_none() && dut.cycles() < 1_000_000 {
        let out = dut.tick();
        for ev in out.events {
            if let Event::InstrCommit(c) = ev.event {
                commits.push(c);
            }
        }
    }
    assert!(dut.halted().unwrap().good);
    assert!(commits.len() > 5_000, "only {} commits", commits.len());

    for c in &commits {
        assert_eq!(rf.state().pc(), c.pc, "pc divergence at commit");
        match rf.step() {
            StepOutcome::Retired { effect, .. } => {
                if c.wen != 0 {
                    let got = effect
                        .xw
                        .map(|(_, v)| v)
                        .or(effect.fw.map(|(_, v)| v))
                        .unwrap_or(0);
                    assert_eq!(got, c.wdata, "wdata divergence at pc {:#x}", c.pc);
                }
            }
            other => panic!("REF outcome {other:?} at pc {:#x}", c.pc),
        }
    }
}

#[test]
fn event_stream_has_expected_shape() {
    let w = Workload::linux_boot().seed(7).iterations(40).build();
    let mut dut = Dut::new(
        DutConfig::xiangshan_default(),
        &image_of(w.words()),
        Vec::new(),
    );
    let mut kind_seen = [false; EventKind::COUNT];
    let mut bytes = 0usize;
    let mut events = 0usize;
    while dut.halted().is_none() && dut.cycles() < 2_000_000 {
        for ev in dut.tick().events {
            kind_seen[ev.event.kind() as usize] = true;
            bytes += ev.event.encoded_len();
            events += 1;
        }
    }
    let commits = dut.total_commits();
    let seen = kind_seen.iter().filter(|s| **s).count();
    assert!(seen >= 20, "only {seen} of 32 kinds observed");
    assert!(events > 1_000);
    // Table 4: XiangShan default averages ~1437 bytes per instruction.
    let bpi = bytes as f64 / commits as f64;
    assert!((500.0..4_000.0).contains(&bpi), "bytes/instr {bpi}");
}

#[test]
fn tick_and_tick_into_are_equivalent() {
    let w = Workload::microbench().seed(4).iterations(10).build();
    let image = image_of(w.words());
    let mut a = Dut::new(DutConfig::xiangshan_minimal(), &image, Vec::new());
    let mut b = Dut::new(DutConfig::xiangshan_minimal(), &image, Vec::new());
    // The record leg: the capture arena, decoded, is the typed view.
    let mut c = Dut::new(DutConfig::xiangshan_minimal(), &image, Vec::new());
    let mut buf = Vec::new();
    let mut records = Vec::new();
    while a.halted().is_none() && a.cycles() < 100_000 {
        let out = a.tick();
        buf.clear();
        let summary = b.tick_into(&mut buf);
        assert_eq!(out.cycle, summary.cycle);
        assert_eq!(out.commits, summary.commits);
        assert_eq!(out.events, buf);
        records.clear();
        assert_eq!(c.tick_records(&mut records), summary);
        let decoded: Vec<_> = Records::new(&records)
            .map(|r| r.expect("a captured record decodes").to_monitored())
            .collect();
        assert_eq!(decoded, buf);
    }
    assert_eq!(a.halted(), b.halted());
    assert_eq!(a.halted(), c.halted());
}

#[test]
fn tokens_are_monotone_and_orders_nondecreasing_per_core() {
    let w = Workload::microbench().seed(1).iterations(10).build();
    let mut dut = Dut::new(
        DutConfig::xiangshan_dual(),
        &image_of(w.words()),
        Vec::new(),
    );
    let mut last_token = None;
    let mut last_order = [0u64; 2];
    while dut.halted().is_none() && dut.cycles() < 1_000_000 {
        for ev in dut.tick().events {
            if let Some(t) = last_token {
                assert!(ev.token.0 > t, "tokens must be strictly monotone");
            }
            last_token = Some(ev.token.0);
            let core = ev.core as usize;
            assert!(ev.order.0 >= last_order[core], "order regressed");
            last_order[core] = ev.order.0;
        }
    }
}

/// The state-dump kinds: whole register files and CSR groups.
const DUMP_KINDS: [EventKind; 8] = [
    EventKind::ArchIntRegState,
    EventKind::CsrState,
    EventKind::ArchFpRegState,
    EventKind::ArchVecRegState,
    EventKind::VecCsrState,
    EventKind::HypervisorCsrState,
    EventKind::TriggerCsrState,
    EventKind::DebugModeState,
];

/// The dump of `kind` a core in state `s` captures, built as a payload
/// struct by value: the oracle of the monitor's by-reference writer.
fn dump_of(kind: EventKind, s: &ArchState) -> Event {
    match kind {
        EventKind::ArchIntRegState => ArchIntRegState { regs: *s.xregs() }.into(),
        EventKind::CsrState => CsrState { csrs: *s.csrs() }.into(),
        EventKind::ArchFpRegState => ArchFpRegState { regs: *s.fregs() }.into(),
        EventKind::ArchVecRegState => ArchVecRegState { regs: [0; 64] }.into(),
        EventKind::VecCsrState => VecCsrState {
            vstart: s.csr(CsrIndex::Vstart),
            vl: s.csr(CsrIndex::Vl),
            vtype: s.csr(CsrIndex::Vtype),
            vcsr: s.csr(CsrIndex::Vcsr),
            vlenb: 16,
            vill: 0,
        }
        .into(),
        EventKind::HypervisorCsrState => {
            let mut csrs = [0u64; 11];
            csrs[0] = s.csr(CsrIndex::Hstatus);
            csrs[1] = s.csr(CsrIndex::Hedeleg);
            HypervisorCsrState { csrs, virt_mode: 0 }.into()
        }
        EventKind::TriggerCsrState => TriggerCsrState::default().into(),
        EventKind::DebugModeState => DebugModeState::default().into(),
        other => panic!("{other:?} is not a dump kind"),
    }
}

#[test]
fn state_dumps_equal_the_state_they_were_written_from() {
    // A timer-interrupt workload moves the CSRs, and the two state bugs
    // perturb the state just before the dumps are written from it.
    let w = Workload::linux_boot().seed(5).iterations(40).build();
    let bugs = vec![
        BugSpec::new(BugKind::WrongVstart, 300),
        BugSpec::new(BugKind::VsDirtyNotSet, 600),
    ];
    for cfg in [
        DutConfig::nutshell(),
        DutConfig::xiangshan_minimal(),
        DutConfig::xiangshan_default(),
        DutConfig::xiangshan_dual(),
    ] {
        let name = cfg.name.clone();
        let mut dut = Dut::new(cfg, &image_of(w.words()), bugs.clone());
        let mut records = Vec::new();
        let mut seen = [0u64; EventKind::COUNT];
        while dut.halted().is_none() && dut.cycles() < 20_000 {
            records.clear();
            dut.tick_records(&mut records);
            for rec in Records::new(&records) {
                let rec = rec.expect("a captured record decodes");
                let kind = rec.header.kind;
                if !DUMP_KINDS.contains(&kind) {
                    continue;
                }
                let core = &dut.cores()[rec.header.core as usize];
                assert_eq!(
                    rec.payload.to_event(),
                    dump_of(kind, core.state()),
                    "{name} cycle {}: {kind:?}",
                    rec.header.cycle
                );
                seen[kind as usize] += 1;
            }
        }
        // Each preset writes its dump set whole at every dump point.
        let sets = seen[EventKind::ArchIntRegState as usize];
        assert!(sets > 100, "{name} captured {sets} dump sets");
        for kind in DUMP_KINDS {
            let n = seen[kind as usize];
            assert!(n == 0 || n == sets, "{name}: {n} {kind:?} of {sets} sets");
        }
    }
}

#[test]
fn no_bug_hooks_a_state_dump_as_an_event() {
    // The monitor writes dumps without `perturb_event`: sound only while
    // no catalog bug corrupts a dump kind in flight.
    for spec in bug_catalog() {
        if let Hook::Event(kind) = spec.kind.hook() {
            assert!(
                !DUMP_KINDS.contains(&kind),
                "{:?} hooks the {kind:?} dump as an event",
                spec.kind
            );
        }
    }
}
