//! Sparse physical memory shared (by value) between the DUT and REF models.

use std::collections::HashMap;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Sparse byte-addressable physical memory.
///
/// The RAM window starts at [`Memory::RAM_BASE`]; everything below it is the
/// MMIO hole handled by the device models (on the DUT side) or synchronized
/// from the DUT (on the REF side). Pages are allocated lazily on first write,
/// so multi-megabyte address spaces cost only what the workload touches.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Vec<u8>>,
}

impl Memory {
    /// Base address of the RAM window (matches the XiangShan/NutShell map).
    pub const RAM_BASE: u64 = 0x8000_0000;
    /// Size of the RAM window.
    pub const RAM_SIZE: u64 = 0x1000_0000; // 256 MiB
    /// Size of one lazily-allocated page (the checkpoint codec's unit).
    pub const PAGE_SIZE: usize = PAGE_SIZE;

    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Returns `true` if `addr` falls in the MMIO hole (below RAM).
    #[inline]
    pub fn is_mmio(addr: u64) -> bool {
        addr < Self::RAM_BASE
    }

    /// Returns `true` if `addr..addr+len` lies fully inside the RAM window.
    #[inline]
    pub fn in_ram(addr: u64, len: u64) -> bool {
        addr >= Self::RAM_BASE && addr.saturating_add(len) <= Self::RAM_BASE + Self::RAM_SIZE
    }

    /// Reads one byte (unmapped bytes read as zero).
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        let page = addr >> PAGE_BITS;
        match self.pages.get(&page) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = addr >> PAGE_BITS;
        let p = self
            .pages
            .entry(page)
            .or_insert_with(|| vec![0u8; PAGE_SIZE]);
        p[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `len <= 8` bytes little-endian.
    ///
    /// The common case — the access stays inside one 4 KiB page — costs a
    /// single page lookup plus a fixed-size copy; only accesses straddling
    /// a page boundary fall back to the per-byte path.
    pub fn read(&self, addr: u64, len: usize) -> u64 {
        debug_assert!(len <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + len <= PAGE_SIZE {
            let Some(p) = self.pages.get(&(addr >> PAGE_BITS)) else {
                return 0;
            };
            let mut buf = [0u8; 8];
            buf[..len].copy_from_slice(&p[off..off + len]);
            return u64::from_le_bytes(buf);
        }
        let mut v = 0u64;
        for i in 0..len {
            v |= (self.read_u8(addr + i as u64) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `len <= 8` bytes of `value` little-endian.
    ///
    /// Same single-page fast path as [`read`](Self::read).
    pub fn write(&mut self, addr: u64, len: usize, value: u64) {
        debug_assert!(len <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + len <= PAGE_SIZE {
            let p = self
                .pages
                .entry(addr >> PAGE_BITS)
                .or_insert_with(|| vec![0u8; PAGE_SIZE]);
            p[off..off + len].copy_from_slice(&value.to_le_bytes()[..len]);
            return;
        }
        for i in 0..len {
            self.write_u8(addr + i as u64, (value >> (8 * i)) as u8);
        }
    }

    /// Reads a 32-bit instruction word.
    #[inline]
    pub fn fetch(&self, addr: u64) -> u32 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 4 <= PAGE_SIZE {
            return match self.pages.get(&(addr >> PAGE_BITS)) {
                Some(p) => u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]]),
                None => 0,
            };
        }
        self.read(addr, 4) as u32
    }

    /// Loads a program image of 32-bit words starting at `base`.
    pub fn load_words(&mut self, base: u64, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write(base + 4 * i as u64, 4, *w as u64);
        }
    }

    /// Number of resident (allocated) pages; used by tests and stats.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0x8000_0000, 8), 0);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new();
        m.write(0x8000_0100, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x8000_0100, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x8000_0100, 4), 0x5566_7788);
        assert_eq!(m.read(0x8000_0104, 4), 0x1122_3344);
        assert_eq!(m.read_u8(0x8000_0100), 0x88);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = 0x8000_0ffe; // spans a 4 KiB page boundary
        m.write(addr, 4, 0xaabb_ccdd);
        assert_eq!(m.read(addr, 4), 0xaabb_ccdd);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn mmio_classification() {
        assert!(Memory::is_mmio(0x1000_0000));
        assert!(!Memory::is_mmio(0x8000_0000));
        assert!(Memory::in_ram(0x8000_0000, 8));
        assert!(!Memory::in_ram(0x8000_0000 + Memory::RAM_SIZE, 1));
    }

    #[test]
    fn fast_path_matches_per_byte_around_page_boundary() {
        let mut m = Memory::new();
        let boundary = Memory::RAM_BASE + PAGE_SIZE as u64;
        for i in 0..32u64 {
            m.write_u8(boundary - 16 + i, (0xa0 + i) as u8);
        }
        for start in 0..24u64 {
            let addr = boundary - 16 + start;
            for len in 1..=8usize {
                let mut per_byte = 0u64;
                for i in 0..len {
                    per_byte |= (m.read_u8(addr + i as u64) as u64) << (8 * i);
                }
                assert_eq!(m.read(addr, len), per_byte, "addr {addr:#x} len {len}");
            }
            assert_eq!(m.fetch(addr), m.read(addr, 4) as u32, "fetch at {addr:#x}");
        }
        // Writes through both paths agree too.
        let mut a = Memory::new();
        let mut b = Memory::new();
        for start in 0..12u64 {
            let addr = boundary - 6 + start;
            let v = 0x0102_0304_0506_0708u64.rotate_left(start as u32 * 8);
            a.write(addr, 8, v);
            for i in 0..8 {
                b.write_u8(addr + i as u64, (v >> (8 * i)) as u8);
            }
        }
        for i in 0..64u64 {
            let addr = boundary - 32 + i;
            assert_eq!(a.read_u8(addr), b.read_u8(addr), "byte {addr:#x}");
        }
    }

    #[test]
    fn load_words_places_instructions() {
        let mut m = Memory::new();
        m.load_words(Memory::RAM_BASE, &[0x13, 0x9302_0000]);
        assert_eq!(m.fetch(Memory::RAM_BASE), 0x13);
        assert_eq!(m.fetch(Memory::RAM_BASE + 4), 0x9302_0000);
    }
}
