//! MMIO devices: CLINT timer and UART.
//!
//! These are the sources of non-determinism in the DUT. The CLINT counts
//! *cycles*, so the instruction at which a timer interrupt fires depends on
//! microarchitectural timing the REF cannot reproduce; the UART receive
//! register returns a byte stream derived from device-local state. Both must
//! therefore be synchronized to the REF as non-deterministic events.

pub use difftest_ref::map::{
    CLINT_BASE, CLINT_MSIP, CLINT_MTIME, CLINT_MTIMECMP, UART_BASE, UART_DATA, UART_STATUS,
};

/// Core-local interrupt controller with a cycle-granularity timer.
#[derive(Debug, Clone, Default)]
pub struct Clint {
    mtime: u64,
    mtimecmp: u64,
    msip: bool,
}

impl Clint {
    /// Creates a CLINT with the timer disarmed.
    pub fn new() -> Self {
        Clint {
            mtime: 0,
            mtimecmp: u64::MAX,
            msip: false,
        }
    }

    /// Advances `mtime` by one cycle.
    pub fn tick(&mut self) {
        self.mtime += 1;
    }

    /// Returns `true` while the timer interrupt is pending.
    pub fn timer_pending(&self) -> bool {
        self.mtime >= self.mtimecmp
    }

    /// Returns `true` while the software interrupt is pending.
    pub fn software_pending(&self) -> bool {
        self.msip
    }

    /// MMIO read.
    pub fn read(&self, addr: u64) -> u64 {
        match addr {
            CLINT_MSIP => self.msip as u64,
            CLINT_MTIMECMP => self.mtimecmp,
            CLINT_MTIME => self.mtime,
            _ => 0,
        }
    }

    /// MMIO write.
    pub fn write(&mut self, addr: u64, value: u64) {
        match addr {
            CLINT_MSIP => self.msip = value & 1 != 0,
            CLINT_MTIMECMP => self.mtimecmp = value,
            CLINT_MTIME => self.mtime = value,
            _ => {}
        }
    }

    /// Current `mtime` (tests, stats).
    pub fn mtime(&self) -> u64 {
        self.mtime
    }
}

/// A UART whose receive stream depends on device-local state — the
/// archetypal MMIO non-determinism.
#[derive(Debug, Clone)]
pub struct Uart {
    rx_state: u64,
    tx: Vec<u8>,
}

impl Uart {
    /// Creates a UART with a seeded receive stream.
    pub fn new(seed: u64) -> Self {
        Uart {
            rx_state: seed | 1,
            tx: Vec::new(),
        }
    }

    /// MMIO read. Reading the data register consumes one receive byte whose
    /// value depends on the device state *and* the cycle of the access.
    pub fn read(&mut self, addr: u64, cycle: u64) -> u64 {
        match addr {
            UART_DATA => {
                // xorshift mixed with the access cycle: timing-dependent.
                self.rx_state ^= self.rx_state << 13;
                self.rx_state ^= self.rx_state >> 7;
                self.rx_state ^= self.rx_state << 17;
                let b = (self.rx_state ^ cycle).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56;
                0x20 + (b % 95) // printable ASCII
            }
            UART_STATUS => 0x60, // transmit idle + holding empty
            _ => 0,
        }
    }

    /// MMIO write. Writing the data register appends to the transcript.
    pub fn write(&mut self, addr: u64, value: u64) {
        if addr == UART_DATA {
            self.tx.push(value as u8);
        }
    }

    /// Bytes the program has printed.
    pub fn transcript(&self) -> &[u8] {
        &self.tx
    }
}

/// The per-core device complex.
#[derive(Debug, Clone)]
pub struct Devices {
    /// Timer/software interrupt controller.
    pub clint: Clint,
    /// Serial port.
    pub uart: Uart,
}

impl Devices {
    /// Creates the device complex with a UART receive-stream seed.
    pub fn new(uart_seed: u64) -> Self {
        Devices {
            clint: Clint::new(),
            uart: Uart::new(uart_seed),
        }
    }

    /// Advances cycle-driven device state.
    pub fn tick(&mut self) {
        self.clint.tick();
    }

    /// Routes an MMIO read.
    pub fn read(&mut self, addr: u64, cycle: u64) -> u64 {
        if (CLINT_BASE..CLINT_BASE + 0x1_0000).contains(&addr) {
            self.clint.read(addr)
        } else if (UART_BASE..UART_BASE + 0x100).contains(&addr) {
            self.uart.read(addr, cycle)
        } else {
            0
        }
    }

    /// Routes an MMIO write.
    pub fn write(&mut self, addr: u64, value: u64) {
        if (CLINT_BASE..CLINT_BASE + 0x1_0000).contains(&addr) {
            self.clint.write(addr, value);
        } else if (UART_BASE..UART_BASE + 0x100).contains(&addr) {
            self.uart.write(addr, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_fires_after_compare() {
        let mut c = Clint::new();
        c.write(CLINT_MTIMECMP, 3);
        assert!(!c.timer_pending());
        c.tick();
        c.tick();
        assert!(!c.timer_pending());
        c.tick();
        assert!(c.timer_pending());
        assert_eq!(c.read(CLINT_MTIME), 3);
    }

    #[test]
    fn uart_rx_depends_on_cycle() {
        let mut a = Uart::new(42);
        let mut b = Uart::new(42);
        let va = a.read(UART_DATA, 100);
        let vb = b.read(UART_DATA, 101);
        assert_ne!(va, vb, "same device state, different cycle");
        // Values are printable ASCII.
        assert!((0x20..0x7f).contains(&va));
    }

    #[test]
    fn uart_transcript_collects_writes() {
        let mut u = Uart::new(1);
        u.write(UART_DATA, b'h' as u64);
        u.write(UART_DATA, b'i' as u64);
        assert_eq!(u.transcript(), b"hi");
    }

    #[test]
    fn device_routing() {
        let mut d = Devices::new(7);
        d.write(CLINT_MTIMECMP, 99);
        assert_eq!(d.read(CLINT_MTIMECMP, 0), 99);
        assert_eq!(d.read(UART_STATUS, 0), 0x60);
        assert_eq!(d.read(0x3000_0000, 0), 0);
    }

    #[test]
    fn software_interrupt_bit() {
        let mut c = Clint::new();
        assert!(!c.software_pending());
        c.write(CLINT_MSIP, 1);
        assert!(c.software_pending());
        c.write(CLINT_MSIP, 0);
        assert!(!c.software_pending());
    }
}
