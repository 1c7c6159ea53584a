//! Memory-hierarchy models: caches, TLBs and the store buffer.
//!
//! These models carry real tag state — hits and misses depend on the actual
//! access stream — and produce the memory-hierarchy verification events of
//! the catalog (refills, TLB fills, sbuffer flushes, page-table walks).

use difftest_ref::Memory;

const LINE_BYTES: u64 = 64;

/// A direct-mapped cache tag array (64-byte lines).
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u64>,
    valid: Vec<bool>,
    index_mask: u64,
}

impl Cache {
    /// Creates a cache with `lines` lines (rounded up to a power of two).
    pub fn new(lines: usize) -> Self {
        let lines = lines.next_power_of_two().max(2);
        Cache {
            tags: vec![0; lines],
            valid: vec![false; lines],
            index_mask: lines as u64 - 1,
        }
    }

    /// Accesses `addr`; returns `true` on a hit. A miss installs the line.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / LINE_BYTES;
        let idx = (line & self.index_mask) as usize;
        let tag = line >> self.index_mask.trailing_ones();
        if self.valid[idx] && self.tags[idx] == tag {
            true
        } else {
            self.valid[idx] = true;
            self.tags[idx] = tag;
            false
        }
    }

    /// The line-aligned address of `addr`.
    pub fn line_addr(addr: u64) -> u64 {
        addr & !(LINE_BYTES - 1)
    }

    /// Reads a full line from memory as eight 64-bit beats (refill data).
    pub fn read_line(mem: &Memory, addr: u64) -> [u64; 8] {
        let base = Self::line_addr(addr);
        let mut beats = [0u64; 8];
        for (i, beat) in beats.iter_mut().enumerate() {
            *beat = mem.read(base + 8 * i as u64, 8);
        }
        beats
    }
}

/// A direct-mapped TLB over 4 KiB pages.
///
/// The project runs with `satp = 0` (bare translation), so fills map each
/// virtual page number to an identical physical page number — an invariant
/// the checker verifies on every TLB event.
#[derive(Debug, Clone)]
pub struct Tlb {
    vpns: Vec<u64>,
    valid: Vec<bool>,
    index_mask: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `entries` entries (rounded up to a power of two).
    pub fn new(entries: usize) -> Self {
        let entries = entries.next_power_of_two().max(2);
        Tlb {
            vpns: vec![0; entries],
            valid: vec![false; entries],
            index_mask: entries as u64 - 1,
            misses: 0,
        }
    }

    /// Looks up the page of `addr`; returns `Some(vpn)` on a miss (a fill
    /// event should be emitted), `None` on a hit.
    pub fn access(&mut self, addr: u64) -> Option<u64> {
        let vpn = addr >> 12;
        let idx = (vpn & self.index_mask) as usize;
        if self.valid[idx] && self.vpns[idx] == vpn {
            None
        } else {
            self.valid[idx] = true;
            self.vpns[idx] = vpn;
            self.misses += 1;
            Some(vpn)
        }
    }

    /// Total misses so far (drives second-level TLB / PTW event pacing).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// A flush record produced when the store buffer drains a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbufferFlush {
    /// Line-aligned address.
    pub addr: u64,
    /// The accumulated line image.
    pub data: [u8; 64],
    /// Byte-enable mask of the accumulated stores.
    pub mask: u64,
}

/// A single-line store buffer that coalesces stores and flushes on a line
/// change.
#[derive(Debug, Clone)]
pub struct Sbuffer {
    line_addr: Option<u64>,
    data: [u8; 64],
    mask: u64,
}

impl Default for Sbuffer {
    fn default() -> Self {
        Sbuffer {
            line_addr: None,
            data: [0; 64],
            mask: 0,
        }
    }
}

impl Sbuffer {
    /// Creates an empty store buffer.
    pub fn new() -> Self {
        Sbuffer::default()
    }

    /// Accepts a store; returns a flush record when the store targets a
    /// different line than the one being coalesced.
    pub fn store(&mut self, addr: u64, len: u8, value: u64) -> Option<SbufferFlush> {
        let line = Cache::line_addr(addr);
        let flushed = match self.line_addr {
            Some(cur) if cur != line => self.flush(),
            _ => None,
        };
        if self.line_addr != Some(line) {
            self.line_addr = Some(line);
            self.data = [0; 64];
            self.mask = 0;
        }
        let off = (addr - line) as usize;
        for i in 0..len as usize {
            if off + i < 64 {
                self.data[off + i] = (value >> (8 * i)) as u8;
                self.mask |= 1 << (off + i);
            }
        }
        flushed
    }

    /// Drains the buffered line, if any.
    pub fn flush(&mut self) -> Option<SbufferFlush> {
        let addr = self.line_addr.take()?;
        let f = SbufferFlush {
            addr,
            data: self.data,
            mask: self.mask,
        };
        self.data = [0; 64];
        self.mask = 0;
        Some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_miss_then_hit() {
        let mut c = Cache::new(64);
        assert!(!c.access(0x8000_0000));
        assert!(c.access(0x8000_0000));
        assert!(c.access(0x8000_0038)); // same line
        assert!(!c.access(0x8000_0040)); // next line
    }

    #[test]
    fn cache_conflict_eviction() {
        let mut c = Cache::new(2);
        assert!(!c.access(0x8000_0000));
        // Same index, different tag: evicts.
        assert!(!c.access(0x8000_0000 + 2 * 64));
        assert!(!c.access(0x8000_0000));
    }

    #[test]
    fn line_read() {
        let mut mem = Memory::new();
        mem.write(0x8000_0040, 8, 0xdead);
        let beats = Cache::read_line(&mem, 0x8000_0044);
        assert_eq!(beats[0], 0xdead);
        assert_eq!(beats[1], 0);
    }

    #[test]
    fn tlb_identity_fills() {
        let mut t = Tlb::new(16);
        assert_eq!(t.access(0x8000_1000), Some(0x80001));
        assert_eq!(t.access(0x8000_1fff), None);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn sbuffer_coalesces_and_flushes() {
        let mut s = Sbuffer::new();
        assert!(s.store(0x8000_0000, 8, 0x1122_3344_5566_7788).is_none());
        assert!(s.store(0x8000_0008, 4, 0xaabbccdd).is_none());
        // New line: flushes the old one.
        let f = s.store(0x8000_0040, 1, 0xff).unwrap();
        assert_eq!(f.addr, 0x8000_0000);
        assert_eq!(f.mask, 0x0fff);
        assert_eq!(f.data[0], 0x88);
        assert_eq!(f.data[8], 0xdd);
        // Explicit drain returns the new line.
        let f2 = s.flush().unwrap();
        assert_eq!(f2.addr, 0x8000_0040);
        assert_eq!(f2.mask, 1);
        assert!(s.flush().is_none());
    }
}
