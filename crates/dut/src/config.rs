//! DUT configurations mirroring the paper's Table 3/4 setups.

use difftest_event::EventKind;

/// How many hardware instances (ports/slots) of each event type exist per
/// cycle — the provisioning a fixed-offset packing scheme must reserve
/// space for.
///
/// Fixed-offset packing (the baseline DiffTest-H improves on) allocates
/// `slots × (1 + encoded_len)` bytes per kind per cycle regardless of how
/// many instances are actually valid, which is where the >60% packet
/// bubbles of paper §4.2 come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTable {
    slots: Vec<u8>,
}

impl SlotTable {
    /// Builds a slot table from `(kind, count)` pairs; unlisted kinds get
    /// zero slots.
    pub fn from_pairs(pairs: &[(EventKind, u8)]) -> Self {
        let mut slots = vec![0u8; EventKind::COUNT];
        for (kind, count) in pairs {
            slots[*kind as usize] = *count;
        }
        SlotTable { slots }
    }

    /// Slots provisioned for `kind`.
    #[inline]
    pub fn slots(&self, kind: EventKind) -> u8 {
        self.slots[kind as usize]
    }

    /// Iterates `(kind, slots)` over kinds with at least one slot.
    pub fn iter(&self) -> impl Iterator<Item = (EventKind, u8)> + '_ {
        EventKind::ALL
            .iter()
            .copied()
            .filter_map(move |k| match self.slots(k) {
                0 => None,
                n => Some((k, n)),
            })
    }

    /// Number of event types provisioned (the paper's "verification states"
    /// column).
    pub fn kind_count(&self) -> usize {
        self.slots.iter().filter(|&&s| s > 0).count()
    }

    /// Bytes of one fixed-offset cycle packet: every slot carries a
    /// one-byte valid flag plus its full payload.
    pub fn fixed_layout_bytes(&self) -> usize {
        self.iter()
            .map(|(k, n)| (1 + k.encoded_len()) * n as usize)
            .sum()
    }
}

/// A design-under-test configuration (paper Table 3/4).
#[derive(Debug, Clone, PartialEq)]
pub struct DutConfig {
    /// Display name.
    pub name: String,
    /// Instructions committed per cycle at most.
    pub commit_width: u32,
    /// Number of cores.
    pub cores: u32,
    /// Design size in gates (area/capacity models).
    pub gates: f64,
    /// Monitor probes per core (area model; paper §6.4 uses 128).
    pub probes_per_core: u32,
    /// Emit the architectural state dumps every N commit-cycles (1 =
    /// every commit cycle).
    pub state_dump_period: u32,
    /// Per-cycle hardware slot provisioning, and the monitor's emit
    /// policy: a kind with no slots is never emitted, and the store-buffer
    /// and TLB models run only when their events have slots.
    pub slots: SlotTable,
    /// Pipeline stall model parameters.
    pub pipeline: PipelineParams,
}

/// Parameters of the deterministic stall model shaping commit density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineParams {
    /// Probability (×1e6) that a cycle commits nothing (front-end stall).
    pub frontend_stall_ppm: u32,
    /// Probability (×1e6) that a load misses the D-cache.
    pub dcache_miss_ppm: u32,
    /// Stall cycles charged on a D-cache miss.
    pub miss_penalty: u32,
    /// Probability (×1e6) that the commit group ends after each commit
    /// (models dispatch/ROB fragmentation; shapes the mean group size).
    pub group_break_ppm: u32,
}

impl DutConfig {
    /// NutShell: scalar in-order core, 0.6 M gates, 6 event types
    /// (Table 4 row 1: ~93 B/instruction).
    pub fn nutshell() -> Self {
        use EventKind as K;
        DutConfig {
            name: "NutShell".to_owned(),
            commit_width: 1,
            cores: 1,
            gates: 0.6e6,
            probes_per_core: 32,
            state_dump_period: 8,
            slots: SlotTable::from_pairs(&[
                (K::InstrCommit, 1),
                (K::TrapEvent, 1),
                (K::ArchEvent, 1),
                (K::ArchIntRegState, 1),
                (K::CsrState, 1),
                (K::StoreEvent, 1),
            ]),
            pipeline: PipelineParams {
                frontend_stall_ppm: 550_000,
                dcache_miss_ppm: 60_000,
                miss_penalty: 6,
                group_break_ppm: 0,
            },
        }
    }

    /// XiangShan (Minimal): 2-wide out-of-order, 39.4 M gates, 32 event
    /// types (~692 B/instruction).
    pub fn xiangshan_minimal() -> Self {
        DutConfig {
            name: "XiangShan (Minimal)".to_owned(),
            commit_width: 2,
            cores: 1,
            gates: 39.4e6,
            probes_per_core: 128,
            state_dump_period: 2,
            slots: Self::xiangshan_slots(2),
            pipeline: PipelineParams {
                frontend_stall_ppm: 300_000,
                dcache_miss_ppm: 50_000,
                miss_penalty: 8,
                group_break_ppm: 800_000,
            },
        }
    }

    /// XiangShan (Default): 6-wide out-of-order, 57.6 M gates, 32 event
    /// types (~1437 B/instruction).
    pub fn xiangshan_default() -> Self {
        DutConfig {
            name: "XiangShan (Default)".to_owned(),
            commit_width: 6,
            cores: 1,
            gates: 57.6e6,
            probes_per_core: 128,
            state_dump_period: 1,
            slots: Self::xiangshan_slots(6),
            pipeline: PipelineParams {
                frontend_stall_ppm: 150_000,
                dcache_miss_ppm: 45_000,
                miss_penalty: 8,
                group_break_ppm: 850_000,
            },
        }
    }

    /// XiangShan (Default, dual-core): 111.8 M gates (~3025 B/instruction
    /// aggregated over both cores).
    pub fn xiangshan_dual() -> Self {
        let mut cfg = Self::xiangshan_default();
        cfg.name = "XiangShan (Default, 2C)".to_owned();
        cfg.cores = 2;
        cfg.gates = 111.8e6;
        cfg
    }

    fn xiangshan_slots(width: u8) -> SlotTable {
        use EventKind as K;
        SlotTable::from_pairs(&[
            // Control flow.
            (K::InstrCommit, width),
            (K::TrapEvent, 1),
            (K::ArchEvent, 1),
            (K::Redirect, width),
            (K::RunaheadEvent, width),
            // Register updates.
            (K::ArchIntRegState, 1),
            (K::ArchFpRegState, 1),
            (K::CsrState, 1),
            (K::IntWriteback, 2 * width),
            (K::FpWriteback, width),
            (K::DebugModeState, 1),
            (K::TriggerCsrState, 1),
            (K::HypervisorCsrState, 1),
            (K::VecCsrState, 1),
            // Memory access.
            (K::LoadEvent, width.max(3)),
            (K::StoreEvent, 4),
            (K::AtomicEvent, 1),
            // Memory hierarchy.
            (K::SbufferEvent, 2),
            (K::RefillEvent, 4),
            (K::L1TlbEvent, 4),
            (K::L2TlbEvent, 2),
            (K::LrScEvent, 1),
            (K::PtwEvent, 2),
            // Extensions.
            (K::ArchVecRegState, 1),
            (K::VecWriteback, width),
            (K::HCsrUpdate, 2),
            (K::VirtualInterrupt, 1),
            (K::GuestPageFault, 1),
            (K::VecLoad, 2),
            (K::VecStore, 2),
            (K::FpCsrUpdate, 1),
            (K::VecConfig, 1),
        ])
    }

    /// Number of verification event types this configuration covers.
    pub fn event_types(&self) -> usize {
        self.slots.kind_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nutshell_has_six_types() {
        assert_eq!(DutConfig::nutshell().event_types(), 6);
    }

    #[test]
    fn xiangshan_has_thirty_two_types() {
        assert_eq!(DutConfig::xiangshan_default().event_types(), 32);
        assert_eq!(DutConfig::xiangshan_minimal().event_types(), 32);
        assert_eq!(DutConfig::xiangshan_dual().event_types(), 32);
    }

    #[test]
    fn fixed_layout_is_kilobytes_for_xiangshan() {
        // Paper §2.2: the aggregated DPI-C interface size is ~11.5 KB for
        // the full 32-type coverage. Our per-core provisioning is several
        // KB; the dual-core aggregate approaches the paper's figure.
        let xs = DutConfig::xiangshan_default();
        let per_core = xs.slots.fixed_layout_bytes();
        assert!(per_core > 3_000, "per-core layout {per_core}");
        let dual = 2 * per_core;
        assert!((6_000..16_000).contains(&dual), "dual layout {dual}");
    }

    #[test]
    fn slot_table_iteration() {
        let t = SlotTable::from_pairs(&[(EventKind::InstrCommit, 6)]);
        assert_eq!(t.kind_count(), 1);
        assert_eq!(t.slots(EventKind::InstrCommit), 6);
        assert_eq!(t.slots(EventKind::TrapEvent), 0);
        let total: usize = t.iter().map(|(k, n)| n as usize * k.encoded_len()).sum();
        assert_eq!(total, 6 * EventKind::InstrCommit.encoded_len());
    }

    #[test]
    fn dual_core_doubles_cores_only() {
        let d = DutConfig::xiangshan_dual();
        let s = DutConfig::xiangshan_default();
        assert_eq!(d.cores, 2);
        assert_eq!(d.commit_width, s.commit_width);
        assert!(d.gates > s.gates);
    }
}
