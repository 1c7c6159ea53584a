//! Workload presets: seeded RV64 program generators.
//!
//! The paper evaluates on Linux boot, microbench and SPEC CPU workloads.
//! What the communication layer cares about is the *event mix* those
//! workloads induce — commit density, CSR churn, MMIO/interrupt (NDE) rate,
//! memory locality — so each preset generates a real RV64 program shaped to
//! one of those regimes (see `DESIGN.md` §1). Every program installs a trap
//! handler (timer interrupt re-arm + `ecall` skip) and terminates with a
//! good trap (`ebreak` with `a0 == 0`).

use difftest_isa::csr::CsrIndex;
use difftest_isa::{encode, FReg, Reg};
use difftest_ref::map;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::asm::{Asm, BranchOp};

/// The workload families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// Boot-like: CSR churn, timer interrupts, UART I/O, ecalls, memcpy,
    /// floating point — the paper's "Linux boot" regime (NDE-rich).
    LinuxBoot,
    /// Compute loop: integer arithmetic with a small memory footprint.
    Microbench,
    /// Memory-heavy strided walks with mul/div pressure (SPEC-like).
    SpecLike,
    /// A tight loop of UART MMIO reads: worst case for order-coupled fusion.
    MmioHeavy,
    /// Frequent `ecall`s: exception-entry stress.
    TrapHeavy,
    /// Randomized block soup: every generator block in random order — the
    /// co-simulation fuzzing regime (MorFuzz-style differential stress).
    Fuzz,
}

impl Preset {
    /// Display name of the preset.
    pub fn name(self) -> &'static str {
        match self {
            Preset::LinuxBoot => "linux_boot",
            Preset::Microbench => "microbench",
            Preset::SpecLike => "spec_like",
            Preset::MmioHeavy => "mmio_heavy",
            Preset::TrapHeavy => "trap_heavy",
            Preset::Fuzz => "fuzz",
        }
    }
}

/// Configures and builds one workload program.
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    preset: Preset,
    seed: u64,
    iterations: u32,
}

impl WorkloadBuilder {
    /// Sets the generator seed (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the outer-loop iteration count (default per preset).
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations.max(1);
        self
    }

    /// Generates the program.
    ///
    /// # Panics
    ///
    /// Panics if the generator produces an unresolvable program — that
    /// would be a bug in the generator, not in user input.
    pub fn build(self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xd1ff_7e57);
        let mut g = Gen {
            a: Asm::new(),
            rng: &mut rng,
            label_counter: 0,
        };
        g.prologue(self.preset);
        match self.preset {
            Preset::LinuxBoot => g.linux_boot_body(self.iterations),
            Preset::Microbench => g.microbench_body(self.iterations),
            Preset::SpecLike => g.spec_like_body(self.iterations),
            Preset::MmioHeavy => g.mmio_heavy_body(self.iterations),
            Preset::TrapHeavy => g.trap_heavy_body(self.iterations),
            Preset::Fuzz => g.fuzz_body(self.iterations),
        }
        g.epilogue();
        let words =
            g.a.finish()
                .expect("workload generator produced a valid program");
        Workload {
            name: self.preset.name().to_owned(),
            preset: self.preset,
            seed: self.seed,
            words,
        }
    }
}

/// A generated workload program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    name: String,
    preset: Preset,
    seed: u64,
    words: Vec<u32>,
}

impl Workload {
    /// Starts building a boot-like workload.
    pub fn linux_boot() -> WorkloadBuilder {
        WorkloadBuilder {
            preset: Preset::LinuxBoot,
            seed: 1,
            iterations: 400,
        }
    }

    /// Starts building a compute microbenchmark.
    pub fn microbench() -> WorkloadBuilder {
        WorkloadBuilder {
            preset: Preset::Microbench,
            seed: 1,
            iterations: 400,
        }
    }

    /// Starts building a memory-heavy SPEC-like workload.
    pub fn spec_like() -> WorkloadBuilder {
        WorkloadBuilder {
            preset: Preset::SpecLike,
            seed: 1,
            iterations: 500,
        }
    }

    /// Starts building an MMIO-saturated workload.
    pub fn mmio_heavy() -> WorkloadBuilder {
        WorkloadBuilder {
            preset: Preset::MmioHeavy,
            seed: 1,
            iterations: 800,
        }
    }

    /// Starts building an exception-heavy workload.
    pub fn trap_heavy() -> WorkloadBuilder {
        WorkloadBuilder {
            preset: Preset::TrapHeavy,
            seed: 1,
            iterations: 800,
        }
    }

    /// Starts building a randomized fuzzing workload.
    pub fn fuzz() -> WorkloadBuilder {
        WorkloadBuilder {
            preset: Preset::Fuzz,
            seed: 1,
            iterations: 300,
        }
    }

    /// The workload's name (e.g. `"linux_boot"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The preset family.
    pub fn preset(&self) -> Preset {
        self.preset
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The program image as 32-bit words, to be loaded at the RAM base.
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}

// Register conventions of generated programs:
//  - t5, t6: trap-handler scratch (never live in the body),
//  - s0: outer loop counter, s1: data base pointer,
//  - s10, s11: cold-region walk mask/index (never in the pool),
//  - a0: reserved for the exit code,
//  - pool (randomized data flow): a1-a7, s2-s9, t0-t4.
const POOL: [Reg; 20] = [
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
    Reg::A5,
    Reg::A6,
    Reg::A7,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
    Reg::S8,
    Reg::S9,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
];

const DATA_BASE: i64 = (map::RAM_BASE + 0x10_0000) as i64;
const TIMER_PERIOD: i64 = 1800;

struct Gen<'r> {
    a: Asm,
    rng: &'r mut StdRng,
    label_counter: u32,
}

impl Gen<'_> {
    fn fresh_label(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("{stem}_{}", self.label_counter)
    }

    fn pool_reg(&mut self) -> Reg {
        POOL[self.rng.random_range(0..POOL.len())]
    }

    /// Trap vector setup, handler, pool initialization.
    fn prologue(&mut self, preset: Preset) {
        let a = &mut self.a;
        a.la(Reg::T0, "handler");
        a.csrw(CsrIndex::Mtvec.address(), Reg::T0);
        a.jal_to(Reg::ZERO, "main");

        // Trap handler: re-arm the timer on interrupts, skip the
        // instruction on ecalls. Uses only t5/t6.
        a.label("handler");
        a.csrr(Reg::T5, CsrIndex::Mcause.address());
        a.branch_to(BranchOp::Bge, Reg::T5, Reg::ZERO, "handler_exc");
        // Interrupt: mtimecmp = mtime + period (the mtime MMIO load is an
        // NDE the checker must synchronize).
        a.li(Reg::T6, map::CLINT_MTIME as i64);
        a.raw(encode::ld(Reg::T5, Reg::T6, 0));
        a.addi(Reg::T5, Reg::T5, TIMER_PERIOD);
        a.li(Reg::T6, map::CLINT_MTIMECMP as i64);
        a.raw(encode::sd(Reg::T5, Reg::T6, 0));
        a.mret();
        a.label("handler_exc");
        // Exception (ecall): mepc += 4.
        a.csrr(Reg::T5, CsrIndex::Mepc.address());
        a.addi(Reg::T5, Reg::T5, 4);
        a.csrw(CsrIndex::Mepc.address(), Reg::T5);
        a.mret();

        a.label("main");
        a.li(Reg::S1, DATA_BASE);
        for (i, r) in POOL.iter().enumerate() {
            let v = self.rng.random_range(-(1 << 20)..(1 << 20)) | i as i64;
            self.a.li(*r, v);
        }

        if preset == Preset::LinuxBoot {
            // Arm the cycle-granularity timer and enable machine interrupts.
            let a = &mut self.a;
            a.li(Reg::T0, TIMER_PERIOD);
            a.li(Reg::T1, map::CLINT_MTIMECMP as i64);
            a.raw(encode::sd(Reg::T0, Reg::T1, 0));
            a.li(Reg::T0, 1 << 7); // mie.MTIE
            a.csrw(CsrIndex::Mie.address(), Reg::T0);
            a.raw(encode::csrrsi(Reg::ZERO, CsrIndex::Mstatus.address(), 8)); // MIE
        }
    }

    fn epilogue(&mut self) {
        self.a.label("exit");
        self.a.li(Reg::A0, 0);
        self.a.ebreak();
    }

    /// Wraps `body` in an outer loop of `iterations` rounds.
    fn outer_loop(&mut self, iterations: u32, body: impl FnOnce(&mut Self)) {
        self.a.li(Reg::S0, iterations as i64);
        self.a.label("loop");
        body(self);
        self.a.addi(Reg::S0, Reg::S0, -1);
        self.a
            .branch_to(BranchOp::Beq, Reg::S0, Reg::ZERO, "loop_done");
        self.a.jal_to(Reg::ZERO, "loop");
        self.a.label("loop_done");
    }

    // ---- instruction blocks --------------------------------------------

    fn arith_block(&mut self, n: usize) {
        for _ in 0..n {
            let (rd, rs1, rs2) = (self.pool_reg(), self.pool_reg(), self.pool_reg());
            let w = match self.rng.random_range(0..18u32) {
                0 => encode::add(rd, rs1, rs2),
                1 => encode::sub(rd, rs1, rs2),
                2 => encode::xor(rd, rs1, rs2),
                3 => encode::or(rd, rs1, rs2),
                4 => encode::and(rd, rs1, rs2),
                5 => encode::sll(rd, rs1, rs2),
                6 => encode::addw(rd, rs1, rs2),
                7 => encode::addi(rd, rs1, self.rng.random_range(-512..512)),
                8 => encode::slli(rd, rs1, self.rng.random_range(0..30)),
                9 => encode::sltu(rd, rs1, rs2),
                // Zbb: the B-extension slice XiangShan ships.
                10 => encode::andn(rd, rs1, rs2),
                11 => encode::xnor(rd, rs1, rs2),
                12 => encode::min(rd, rs1, rs2),
                13 => encode::maxu(rd, rs1, rs2),
                14 => encode::ror(rd, rs1, rs2),
                15 => encode::rori(rd, rs1, self.rng.random_range(0..64)),
                16 => encode::cpop(rd, rs1),
                _ => encode::rev8(rd, rs1),
            };
            self.a.raw(w);
        }
    }

    fn mul_div_block(&mut self, n: usize) {
        for _ in 0..n {
            let (rd, rs1, rs2) = (self.pool_reg(), self.pool_reg(), self.pool_reg());
            let w = match self.rng.random_range(0..6u32) {
                0 => encode::mul(rd, rs1, rs2),
                1 => encode::mulh(rd, rs1, rs2),
                2 => encode::div(rd, rs1, rs2),
                3 => encode::divu(rd, rs1, rs2),
                4 => encode::rem(rd, rs1, rs2),
                _ => encode::mulw(rd, rs1, rs2),
            };
            self.a.raw(w);
        }
    }

    /// Aligned loads and stores inside a 4 KiB window at the data base.
    /// Every store is eventually reloaded (read-after-write), as real
    /// programs do — which is also what surfaces latent store-dropping
    /// bugs as register divergence.
    fn mem_block(&mut self, n: usize) {
        for _ in 0..n {
            let off = self.rng.random_range(0..216i64) * 8; // fits the S-immediate
            let r = self.pool_reg();
            if self.rng.random_bool(0.45) {
                // Mix the (monotone) loop counter into the stored value so
                // every dynamic store writes fresh data, then reload it.
                let tmp = self.pool_reg();
                self.a.raw(encode::add(tmp, r, Reg::S0));
                self.a.raw(encode::sd(tmp, Reg::S1, off));
                let rd = self.pool_reg();
                self.a.raw(encode::ld(rd, Reg::S1, off));
            } else {
                self.a.raw(encode::ld(r, Reg::S1, off));
            }
        }
    }

    /// A data-dependent forward branch over a small block.
    fn branch_block(&mut self) {
        let skip = self.fresh_label("skip");
        let (rs1, rs2) = (self.pool_reg(), self.pool_reg());
        let op = match self.rng.random_range(0..4u32) {
            0 => BranchOp::Beq,
            1 => BranchOp::Bne,
            2 => BranchOp::Blt,
            _ => BranchOp::Bgeu,
        };
        self.a.branch_to(op, rs1, rs2, &skip);
        let n = self.rng.random_range(1..4);
        self.arith_block(n);
        self.a.label(&skip);
    }

    fn fp_block(&mut self, n: usize) {
        let (f0, f1, f2) = (FReg::new(0), FReg::new(1), FReg::new(2));
        let r = self.pool_reg();
        self.a.raw(encode::fmv_d_x(f1, r));
        for _ in 0..n {
            let w = match self.rng.random_range(0..3u32) {
                0 => encode::fadd_d(f0, f0, f1),
                1 => encode::fmul_d(f2, f0, f1),
                _ => encode::fsub_d(f0, f2, f1),
            };
            self.a.raw(w);
        }
        self.a.raw(encode::fsd(f0, Reg::S1, 0x700));
        self.a.raw(encode::fld(f2, Reg::S1, 0x700));
    }

    fn csr_block(&mut self) {
        let r = self.pool_reg();
        match self.rng.random_range(0..6u32) {
            0 => self.a.csrw(CsrIndex::Mscratch.address(), r),
            1 => {
                // Set FS/VS dirty in mstatus (never touching MIE).
                self.a.li(Reg::T0, (0b11 << 13) | (0b11 << 9));
                self.a.raw(encode::csrrs(
                    Reg::ZERO,
                    CsrIndex::Mstatus.address(),
                    Reg::T0,
                ));
            }
            2 => {
                self.a.raw(encode::andi(Reg::T0, r, 0x7f));
                self.a.csrw(CsrIndex::Vstart.address(), Reg::T0);
            }
            3 => {
                self.a.raw(encode::andi(Reg::T0, r, 0xff));
                self.a.csrw(CsrIndex::Vl.address(), Reg::T0);
                self.a.li(Reg::T1, 0xd0);
                self.a.csrw(CsrIndex::Vtype.address(), Reg::T1);
            }
            4 => {
                self.a.raw(encode::andi(Reg::T0, r, 0xff));
                self.a.csrw(CsrIndex::Fcsr.address(), Reg::T0);
            }
            _ => {
                self.a.raw(encode::andi(Reg::T0, r, 0x3ff));
                self.a.csrw(CsrIndex::Hedeleg.address(), Reg::T0);
            }
        }
    }

    /// The full CSR suite, once per call: vector config, fcsr, hypervisor
    /// delegation, scratch and status dirty bits — the register churn of a
    /// booting kernel, and the event sources of the extension checks.
    fn csr_suite_block(&mut self) {
        let r = self.pool_reg();
        self.a.csrw(CsrIndex::Mscratch.address(), r);
        self.a.raw(encode::andi(Reg::T0, r, 0xff));
        self.a.csrw(CsrIndex::Vl.address(), Reg::T0);
        self.a.li(Reg::T1, 0xd0);
        self.a.csrw(CsrIndex::Vtype.address(), Reg::T1);
        self.a.raw(encode::andi(Reg::T0, r, 0x7f));
        self.a.csrw(CsrIndex::Vstart.address(), Reg::T0);
        self.a.raw(encode::andi(Reg::T0, r, 0xff));
        self.a.csrw(CsrIndex::Fcsr.address(), Reg::T0);
        self.a.raw(encode::andi(Reg::T0, r, 0x3ff));
        self.a.csrw(CsrIndex::Hedeleg.address(), Reg::T0);
        // Mark the FP and vector units dirty, as executing kernels do.
        self.a.li(Reg::T0, (0b11 << 13) | (0b11 << 9));
        self.a.raw(encode::csrrs(
            Reg::ZERO,
            CsrIndex::Mstatus.address(),
            Reg::T0,
        ));
    }

    fn uart_write_block(&mut self, n: usize) {
        self.a.li(Reg::T0, map::UART_DATA as i64);
        for _ in 0..n {
            let ch = self.rng.random_range(0x20..0x7fi64);
            self.a.li(Reg::T1, ch);
            self.a.raw(encode::sb(Reg::T1, Reg::T0, 0));
        }
    }

    fn uart_read_block(&mut self, n: usize) {
        self.a.li(Reg::T0, map::UART_DATA as i64);
        for i in 0..n {
            // Each read is an MMIO NDE; the value lands in the data buffer.
            self.a.raw(encode::lbu(Reg::T1, Reg::T0, 0));
            self.a
                .raw(encode::sb(Reg::T1, Reg::S1, 0x780 + (i as i64 % 64)));
        }
    }

    /// One cold cache line + page per call: sustained refill and TLB
    /// traffic, the way a booting system keeps touching new memory.
    /// Uses the reserved s10 (mask) / s11 (index) registers.
    fn cold_walk_block(&mut self) {
        self.a.raw(encode::add(Reg::T0, Reg::S1, Reg::S11));
        self.a.raw(encode::ld(Reg::T1, Reg::T0, 0));
        // Advance by a page plus a line so both the TLB and the cache miss.
        self.a.li(Reg::T1, 4096 + 64);
        self.a.raw(encode::add(Reg::S11, Reg::S11, Reg::T1));
        self.a.raw(encode::and(Reg::S11, Reg::S11, Reg::S10));
        self.a.raw(encode::andi(Reg::S11, Reg::S11, -8));
    }

    fn atomic_block(&mut self) {
        let r = self.pool_reg();
        self.a.li(Reg::T0, DATA_BASE + 0x7c0);
        let amo = match self.rng.random_range(0..6u32) {
            0 => encode::amoadd_d(Reg::T1, Reg::T0, r),
            1 => encode::amoswap_d(Reg::T1, Reg::T0, r),
            2 => encode::amoxor_d(Reg::T1, Reg::T0, r),
            3 => encode::amoor_w(Reg::T1, Reg::T0, r),
            4 => encode::amomax_d(Reg::T1, Reg::T0, r),
            _ => encode::amominu_w(Reg::T1, Reg::T0, r),
        };
        self.a.raw(amo);
        self.a.raw(encode::lr_d(Reg::T2, Reg::T0));
        self.a.raw(encode::sc_d(Reg::T3, Reg::T0, Reg::T1));
    }

    // ---- preset bodies ---------------------------------------------------

    fn microbench_body(&mut self, iterations: u32) {
        self.outer_loop(iterations, |g| {
            g.arith_block(40);
            g.mul_div_block(10);
            g.mem_block(12);
            g.branch_block();
            g.arith_block(30);
            g.branch_block();
        });
    }

    fn linux_boot_body(&mut self, iterations: u32) {
        self.a.li(Reg::S10, 0x3_ffff); // 256 KiB walk window
        self.a.li(Reg::S11, 0x2_0000); // start above the hot data
        self.outer_loop(iterations, |g| {
            g.cold_walk_block();
            g.csr_suite_block();
            g.csr_block();
            g.arith_block(25);
            g.mem_block(14);
            g.branch_block();
            g.uart_write_block(2);
            g.mul_div_block(6);
            g.uart_read_block(2);
            g.fp_block(5);
            g.branch_block();
            g.a.ecall();
            g.arith_block(20);
            g.atomic_block();
            g.csr_block();
            g.branch_block();
        });
    }

    fn spec_like_body(&mut self, iterations: u32) {
        // Strided walk over a 256 KiB window: real cache misses. The walk
        // index/mask live in the reserved s11/s10 registers, which the
        // randomized pool never clobbers.
        self.a.li(Reg::S11, 0); // walk index
        self.a.li(Reg::S10, 0x3_ffff); // window mask
        self.outer_loop(iterations, |g| {
            for _ in 0..10 {
                g.a.raw(encode::add(Reg::T0, Reg::S1, Reg::S11));
                g.a.raw(encode::ld(Reg::T1, Reg::T0, 0));
                g.a.raw(encode::add(Reg::T1, Reg::T1, Reg::S11));
                g.a.raw(encode::sd(Reg::T1, Reg::T0, 8));
                // index = (index + 2016) & mask, 8-byte aligned.
                g.a.addi(Reg::S11, Reg::S11, 2016);
                g.a.raw(encode::and(Reg::S11, Reg::S11, Reg::S10));
                g.a.raw(encode::andi(Reg::S11, Reg::S11, -8));
            }
            g.mul_div_block(12);
            g.arith_block(20);
            g.branch_block();
        });
    }

    fn mmio_heavy_body(&mut self, iterations: u32) {
        self.outer_loop(iterations, |g| {
            g.uart_read_block(6);
            g.arith_block(8);
            g.uart_write_block(2);
            g.branch_block();
        });
    }

    fn trap_heavy_body(&mut self, iterations: u32) {
        self.outer_loop(iterations, |g| {
            g.arith_block(10);
            g.a.ecall();
            g.mem_block(4);
            g.a.ecall();
            g.branch_block();
        });
    }

    /// Random block soup: a different mix every seed, every position.
    fn fuzz_body(&mut self, iterations: u32) {
        // Arm the timer too, so interrupts race the random stream.
        self.a.li(Reg::T0, TIMER_PERIOD);
        self.a.li(Reg::T1, map::CLINT_MTIMECMP as i64);
        self.a.raw(encode::sd(Reg::T0, Reg::T1, 0));
        self.a.li(Reg::T0, 1 << 7);
        self.a.csrw(CsrIndex::Mie.address(), Reg::T0);
        self.a
            .raw(encode::csrrsi(Reg::ZERO, CsrIndex::Mstatus.address(), 8));
        self.a.li(Reg::S10, 0x3_ffff);
        self.a.li(Reg::S11, 0x2_0000);

        self.outer_loop(iterations, |g| {
            for _ in 0..14 {
                match g.rng.random_range(0..11u32) {
                    0 => g.arith_block(8),
                    1 => g.mul_div_block(4),
                    2 => g.mem_block(5),
                    3 => g.branch_block(),
                    4 => g.fp_block(3),
                    5 => g.csr_block(),
                    6 => g.uart_read_block(1),
                    7 => g.uart_write_block(1),
                    8 => g.atomic_block(),
                    9 => g.a.ecall(),
                    _ => g.cold_walk_block(),
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_build() {
        for w in [
            Workload::linux_boot().build(),
            Workload::microbench().build(),
            Workload::spec_like().build(),
            Workload::mmio_heavy().build(),
            Workload::trap_heavy().build(),
        ] {
            assert!(w.words().len() > 50, "{} too small", w.name());
            assert!(w.words().len() < 200_000, "{} too large", w.name());
        }
    }

    #[test]
    fn seeds_change_programs() {
        let a = Workload::microbench().seed(1).build();
        let b = Workload::microbench().seed(2).build();
        assert_ne!(a.words(), b.words());
        let a2 = Workload::microbench().seed(1).build();
        assert_eq!(a.words(), a2.words(), "same seed is reproducible");
    }

    #[test]
    fn iterations_scale_size_not_much() {
        // Iterations change the loop counter, not the program size class.
        let small = Workload::microbench().iterations(10).build();
        let large = Workload::microbench().iterations(10_000).build();
        // Only the loop-counter materialization may differ (one extra word).
        let delta = large.words().len() as i64 - small.words().len() as i64;
        assert!(delta.unsigned_abs() <= 2, "delta {delta}");
    }
}
