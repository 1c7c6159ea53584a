//! The multi-core design under test with its monitor wrapper.

use difftest_event::record::Records;
use difftest_event::MonitoredEvent;
use difftest_ref::Memory;

use crate::bugs::{BugInjector, BugSpec};
use crate::config::DutConfig;
use crate::core::{DutCore, MonitorPort};

/// Why the simulation stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaltInfo {
    /// The core that executed the terminating trap.
    pub core: u8,
    /// `true` for a good trap (`ebreak` with `a0 == 0`).
    pub good: bool,
    /// PC of the trap.
    pub pc: u64,
    /// Cycle at which the trap fired.
    pub cycle: u64,
}

/// Everything one DUT cycle produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleOutput {
    /// The cycle index.
    pub cycle: u64,
    /// Monitored events in capture (token) order.
    pub events: Vec<MonitoredEvent>,
    /// Instructions committed across all cores.
    pub commits: u32,
}

/// The scalar part of one DUT cycle (its records are appended to a
/// caller arena by [`Dut::tick_records`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleSummary {
    /// The cycle index.
    pub cycle: u64,
    /// Instructions committed across all cores.
    pub commits: u32,
}

/// The design under test: one or more [`DutCore`]s plus the monitor that
/// stamps captured events with cycle, order tag and replay token.
/// Cloning captures a full snapshot (the prior-work debugging strategy the
/// paper's Replay replaces — see `difftest_core::snapshot`).
#[derive(Debug, Clone)]
pub struct Dut {
    cfg: DutConfig,
    cores: Vec<DutCore>,
    cycle: u64,
    next_token: u64,
    halted: Option<HaltInfo>,
    total_commits: u64,
}

impl Dut {
    /// Creates a DUT over copies of the program image, injecting `bugs`
    /// into core 0.
    pub fn new(cfg: DutConfig, image: &Memory, bugs: Vec<BugSpec>) -> Self {
        let cores = (0..cfg.cores)
            .map(|i| {
                let injector = if i == 0 {
                    BugInjector::new(bugs.clone())
                } else {
                    BugInjector::none()
                };
                DutCore::new(i as u8, cfg.clone(), image.clone(), injector)
            })
            .collect();
        Dut {
            cfg,
            cores,
            cycle: 0,
            next_token: 0,
            halted: None,
            total_commits: 0,
        }
    }

    /// The configuration this DUT was built with.
    pub fn config(&self) -> &DutConfig {
        &self.cfg
    }

    /// The current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Instructions committed so far across all cores.
    pub fn total_commits(&self) -> u64 {
        self.total_commits
    }

    /// Set once a core executed the terminating trap.
    pub fn halted(&self) -> Option<&HaltInfo> {
        self.halted.as_ref()
    }

    /// Access to the cores (tests, debugging reports).
    pub fn cores(&self) -> &[DutCore] {
        &self.cores
    }

    /// Runs one cycle of every core and returns the monitored events.
    ///
    /// Convenience wrapper over [`Dut::tick_records`]; hot loops should
    /// pass a reused arena to `tick_records` instead.
    pub fn tick(&mut self) -> CycleOutput {
        let mut events = Vec::new();
        let summary = self.tick_into(&mut events);
        CycleOutput {
            cycle: summary.cycle,
            events,
            commits: summary.commits,
        }
    }

    /// Runs one cycle of every core, appending its monitored events to
    /// `out` as values: the cycle's records, decoded.
    pub fn tick_into(&mut self, out: &mut Vec<MonitoredEvent>) -> CycleSummary {
        let mut records = Vec::new();
        let summary = self.tick_records(&mut records);
        let events = Records::new(&records).map_while(Result::ok);
        out.extend(events.map(|r| r.to_monitored()));
        summary
    }

    /// Runs one cycle of every core, appending each monitored event to
    /// `out` as one [`difftest_event::record`] in token order (the caller
    /// clears and reuses the arena to avoid per-cycle allocation).
    pub fn tick_records(&mut self, out: &mut Vec<u8>) -> CycleSummary {
        let cycle = self.cycle;
        self.cycle += 1;
        let mut commits = 0u32;
        let mut port = MonitorPort {
            cycle,
            out,
            next_token: &mut self.next_token,
        };

        for core in &mut self.cores {
            commits += core.tick(&mut port);
            if self.halted.is_none() {
                if let Some(trap) = core.halt() {
                    self.halted = Some(HaltInfo {
                        core: core.id(),
                        good: trap.code == 0,
                        pc: trap.pc,
                        cycle,
                    });
                }
            }
        }

        self.total_commits += commits as u64;
        CycleSummary { cycle, commits }
    }

    /// Runs until halted or `max_cycles`, discarding events (useful for
    /// workload smoke tests and IPC calibration).
    pub fn run_to_halt(&mut self, max_cycles: u64) -> u64 {
        let mut records = Vec::new();
        while self.halted.is_none() && self.cycle < max_cycles {
            records.clear();
            self.tick_records(&mut records);
        }
        self.cycle
    }

    /// Approximate in-memory footprint of a full snapshot of this DUT, in
    /// bytes (resident memory pages plus architectural and cache state).
    pub fn snapshot_footprint(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| {
                let mem = c.mem().resident_pages() as u64 * 4096;
                let arch = (32 + 32 + 24) as u64 * 8;
                let caches = 2 * 512 * 9 + 2 * 32 * 9; // tags + valid bits
                mem + arch + caches
            })
            .sum()
    }

    /// Average committed instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.total_commits as f64 / (self.cycle as f64 * self.cores.len() as f64)
        }
    }
}
