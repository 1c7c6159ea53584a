//! The REF model's per-instruction decode cache.
//!
//! `RefModel::step` fetches and decodes the instruction at the current PC
//! on every call; on the host hot path the decode is pure overhead for the
//! overwhelmingly common case of re-executing already-seen code. The cache
//! stores the decoded [`Insn`] keyed by `(pc, raw_bits)`.
//!
//! The key is the whole coherence protocol. The raw word is re-fetched and
//! compared on every lookup, and `decode` is a pure function of the raw
//! bits, so a line whose code bytes changed is simply a miss: a store over
//! code, a `fence`, and a journal revert that restores old code bytes need
//! no invalidation, and none is performed.
//!
//! This is one of the model's two execution tiers; the other is the same
//! `step` with the cache disabled (`RefModel::set_decode_cache_enabled`),
//! the oracle `tests/icache_coherence.rs` holds this one to.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

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

/// Hit/miss counters, exposed for tests and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to `decode`.
    pub misses: u64,
}

impl DecodeCacheStats {
    /// Accumulates another core's counters (multi-core aggregation).
    pub fn merge(&mut self, other: &DecodeCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// The cache itself. See the module docs for why it needs no invalidation.
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
        match self.slots.get(Self::index(pc)) {
            Some(Some(e)) if e.pc == pc && e.raw == raw => {
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
        if !self.enabled {
            return;
        }
        if let Some(slot) = self.slots.get_mut(Self::index(pc)) {
            *slot = Some(Entry { pc, raw, insn });
        }
    }

    /// Enables or disables the cache. Disabling drops every entry, so a
    /// re-enable never observes pre-disable entries.
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
    fn flush_and_disable_drop_everything() {
        let mut c = DecodeCache::default();
        let (raw, insn) = nop_insn();
        c.insert(PC, raw, insn);
        c.set_enabled(false);
        assert_eq!(c.lookup(PC, raw), None, "disabled lookups never hit");
        c.set_enabled(true);
        assert_eq!(c.lookup(PC, raw), None, "re-enable starts cold");
    }
}
