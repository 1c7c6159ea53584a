//! The REF model's per-instruction decode cache.
//!
//! `RefModel::step` fetches and decodes the instruction at the current PC
//! on every call; on the host hot path the decode is pure overhead for the
//! overwhelmingly common case of re-executing already-seen code. The cache
//! stores the decoded [`Insn`] keyed by `(pc, raw_bits)` — the raw word is
//! re-fetched and compared on every hit, so a stale entry can never
//! produce a wrong instruction: `decode` is a pure function of the raw
//! bits, and a raw mismatch is simply a miss.
//!
//! Invalidation is still performed eagerly (rather than relying on the
//! key alone) so hit-rate accounting stays honest and slots free up:
//!
//! - a store that intersects a cached line's `[pc, pc+4)` window
//!   invalidates that line ([`DecodeCache::invalidate_store`]),
//! - `fence`/`fence.i` (and any future SFENCE decoding) flushes the whole
//!   cache (the RISC-V contract for making stores visible to fetch),
//! - a journal revert flushes too — compensation entries can restore old
//!   code bytes without going through the store path.
//!
//! This is one of the model's two execution tiers; the other is the same
//! `step` with the cache disabled (`RefModel::set_decode_cache_enabled`),
//! the oracle `tests/icache_coherence.rs` holds this one to.

use difftest_isa::Insn;

/// Entries in the direct-mapped array. 4096 × ~48 B keeps the table well
/// inside L2 while covering the hot loops of every workload preset.
const SLOTS: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct Entry {
    pc: u64,
    raw: u32,
    insn: Insn,
}

/// Hit/miss/invalidation counters, exposed for tests and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to `decode`.
    pub misses: u64,
    /// Lines invalidated by intersecting stores.
    pub store_invalidations: u64,
    /// Whole-cache flushes (fence, revert).
    pub flushes: u64,
}

impl DecodeCacheStats {
    /// Accumulates another core's counters (multi-core aggregation).
    pub fn merge(&mut self, other: &DecodeCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.store_invalidations += other.store_invalidations;
        self.flushes += other.flushes;
    }
}

/// The cache itself. See the module docs for the coherence rules.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    slots: Vec<Option<Entry>>,
    enabled: bool,
    stats: DecodeCacheStats,
}

impl Default for DecodeCache {
    fn default() -> Self {
        DecodeCache {
            slots: vec![None; SLOTS],
            enabled: true,
            stats: DecodeCacheStats::default(),
        }
    }
}

impl DecodeCache {
    #[inline]
    fn index(pc: u64) -> usize {
        ((pc >> 2) as usize) & (SLOTS - 1)
    }

    /// Looks up the decoded instruction for `(pc, raw)`.
    #[inline]
    pub fn lookup(&mut self, pc: u64, raw: u32) -> Option<Insn> {
        if !self.enabled {
            return None;
        }
        match self.slots[Self::index(pc)] {
            Some(e) if e.pc == pc && e.raw == raw => {
                self.stats.hits += 1;
                Some(e.insn)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Caches a freshly decoded instruction.
    #[inline]
    pub fn insert(&mut self, pc: u64, raw: u32, insn: Insn) {
        if self.enabled {
            self.slots[Self::index(pc)] = Some(Entry { pc, raw, insn });
        }
    }

    /// Invalidates every cached line whose 4-byte fetch window intersects
    /// the stored range `[addr, addr + len)`.
    ///
    /// A line for `pc` intersects iff `pc + 4 > addr && pc < addr + len`,
    /// i.e. `pc ∈ [addr - 3, addr + len - 1]` — at most `(len + 6) / 4 + 1`
    /// direct-mapped slots for the `len ≤ 8` stores the ISA produces.
    pub fn invalidate_store(&mut self, addr: u64, len: u64) {
        if !self.enabled || len == 0 {
            return;
        }
        let first = addr.saturating_sub(3);
        let last = addr + len - 1;
        for word in (first >> 2)..=(last >> 2) {
            let slot = &mut self.slots[(word as usize) & (SLOTS - 1)];
            if let Some(e) = slot {
                if e.pc + 4 > addr && e.pc < addr + len {
                    *slot = None;
                    self.stats.store_invalidations += 1;
                }
            }
        }
    }

    /// Drops every entry (fence, journal revert).
    pub fn flush(&mut self) {
        if self.slots.iter().any(Option::is_some) {
            self.slots.iter_mut().for_each(|s| *s = None);
        }
        self.stats.flushes += 1;
    }

    /// Enables or disables the cache. Disabling flushes, so a re-enable
    /// never observes pre-disable entries.
    pub fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.slots.iter_mut().for_each(|s| *s = None);
        }
        self.enabled = enabled;
    }

    /// Whether lookups are served at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The counters.
    pub fn stats(&self) -> DecodeCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_isa::decode;

    const PC: u64 = 0x8000_0000;

    fn nop_insn() -> (u32, Insn) {
        let raw = 0x0000_0013; // addi x0, x0, 0
        (raw, decode(raw))
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = DecodeCache::default();
        let (raw, insn) = nop_insn();
        assert_eq!(c.lookup(PC, raw), None);
        c.insert(PC, raw, insn);
        assert_eq!(c.lookup(PC, raw), Some(insn));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn raw_mismatch_is_a_miss() {
        let mut c = DecodeCache::default();
        let (raw, insn) = nop_insn();
        c.insert(PC, raw, insn);
        assert_eq!(c.lookup(PC, raw ^ 0x100), None);
    }

    #[test]
    fn aliased_pc_is_a_miss() {
        let mut c = DecodeCache::default();
        let (raw, insn) = nop_insn();
        c.insert(PC, raw, insn);
        // Same direct-mapped slot, different pc.
        let alias = PC + (SLOTS as u64) * 4;
        assert_eq!(c.lookup(alias, raw), None);
    }

    #[test]
    fn store_invalidates_intersecting_lines_only() {
        let mut c = DecodeCache::default();
        let (raw, insn) = nop_insn();
        for i in 0..4 {
            c.insert(PC + 4 * i, raw, insn);
        }
        // An 8-byte store over the middle two instructions.
        c.invalidate_store(PC + 4, 8);
        assert_eq!(c.lookup(PC, raw), Some(insn));
        assert_eq!(c.lookup(PC + 4, raw), None);
        assert_eq!(c.lookup(PC + 8, raw), None);
        assert_eq!(c.lookup(PC + 12, raw), Some(insn));
        assert_eq!(c.stats().store_invalidations, 2);
    }

    #[test]
    fn unaligned_store_catches_partial_overlap() {
        let mut c = DecodeCache::default();
        let (raw, insn) = nop_insn();
        c.insert(PC, raw, insn);
        // A one-byte store into the line's last byte.
        c.invalidate_store(PC + 3, 1);
        assert_eq!(c.lookup(PC, raw), None);
    }

    #[test]
    fn flush_and_disable_drop_everything() {
        let mut c = DecodeCache::default();
        let (raw, insn) = nop_insn();
        c.insert(PC, raw, insn);
        c.flush();
        assert_eq!(c.lookup(PC, raw), None);
        c.insert(PC, raw, insn);
        c.set_enabled(false);
        assert_eq!(c.lookup(PC, raw), None, "disabled lookups never hit");
        c.set_enabled(true);
        assert_eq!(c.lookup(PC, raw), None, "re-enable starts cold");
    }
}
