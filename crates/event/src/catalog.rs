//! The verification event catalog: 32 structurally diverse event types.
//!
//! This mirrors Table 1 of the paper: five categories (control flow,
//! register updates, memory access, memory hierarchy, RISC-V extensions)
//! covering 32 event types whose encoded sizes differ by up to 170×
//! (3 bytes for [`RunaheadEvent`] up to 512 bytes for [`ArchVecRegState`]).
//! The variable lengths and distinct layouts are exactly the *structural
//! semantics* that the Batch packing mechanism exploits.

// The generated decoders and views read peer bytes: every index is
// checked.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::field::WireField;
use crate::wire::{CodecError, Reader, Writer};

/// The five verification-event categories of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Exceptions, interrupts, commits, traps, redirects.
    ControlFlow,
    /// CSRs, general-purpose/floating-point/vector register files.
    RegisterUpdate,
    /// Load/store/atomic operations.
    MemoryAccess,
    /// Caches, TLBs, store buffers, page-table walks.
    MemoryHierarchy,
    /// Vector/hypervisor extension state.
    Extension,
}

impl Category {
    /// All categories in catalog order.
    pub const ALL: [Category; 5] = [
        Category::ControlFlow,
        Category::RegisterUpdate,
        Category::MemoryAccess,
        Category::MemoryHierarchy,
        Category::Extension,
    ];

    /// Human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            Category::ControlFlow => "Control Flow",
            Category::RegisterUpdate => "Register Updates",
            Category::MemoryAccess => "Memory Access",
            Category::MemoryHierarchy => "Memory Hierarchy",
            Category::Extension => "RISC-V Extensions",
        }
    }
}

/// Generates compile-time-offset field accessors for one borrowed view
/// struct: a token muncher that accumulates each preceding field's
/// `WireField::LEN` into the next accessor's offset, so every read is a
/// direct indexed load from the wire bytes with no runtime cursor.
macro_rules! view_accessors {
    ($refname:ident, $off:expr,) => {};
    ($refname:ident, $off:expr, $field:ident : $ty:ty, $($rest:tt)*) => {
        impl<'a> $refname<'a> {
            #[doc = concat!("Reads the `", stringify!($field),
                "` field straight from the wire bytes.")]
            #[inline]
            pub fn $field(&self) -> <$ty as WireField>::View<'a> {
                <$ty as WireField>::view_at(self.bytes, $off)
            }
        }
        view_accessors!($refname, $off + <$ty as WireField>::LEN, $($rest)*);
    };
}

macro_rules! catalog {
    ($(
        $(#[$meta:meta])*
        ($category:ident) struct $name:ident view $refname:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty, )*
        }
    )*) => {
        $(
            $(#[$meta])*
            #[derive(Debug, Clone, PartialEq)]
            pub struct $name {
                $( $(#[$fmeta])* pub $field: $ty, )*
            }

            impl $name {
                /// Encoded size in bytes of this payload.
                pub const ENCODED_LEN: usize = 0 $(+ <$ty as WireField>::LEN)*;

                /// Appends the fixed binary layout to `buf`.
                #[inline]
                pub fn encode_into(&self, buf: &mut Vec<u8>) {
                    Self::write_fields(buf, $( &self.$field ),*);
                }

                /// Appends the fixed binary layout of fields passed by
                /// reference: the layout's one writer, so a monitor can
                /// write a payload straight from the state it lives in
                /// without building the struct first.
                #[inline]
                // One argument per field: the writer mirrors the struct.
                #[allow(clippy::too_many_arguments)]
                pub fn write_fields(buf: &mut Vec<u8>, $( $field: &$ty ),*) {
                    let mut w = Writer::new(buf);
                    $( WireField::write($field, &mut w); )*
                }

                /// Decodes from an exact-length byte slice.
                ///
                /// # Errors
                ///
                /// Returns [`CodecError`] when `bytes` is shorter or longer
                /// than [`Self::ENCODED_LEN`].
                pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
                    let mut r = Reader::new(bytes);
                    let v = Self { $( $field: <$ty as WireField>::read(&mut r)?, )* };
                    r.finish()?;
                    Ok(v)
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self { $( $field: <$ty as WireField>::ZERO, )* }
                }
            }

            #[doc = concat!("A borrowed view of a [`", stringify!($name),
                "`] payload, reading fields directly from validated wire \
                 bytes without materializing the struct.")]
            #[derive(Debug, Clone, Copy)]
            pub struct $refname<'a> {
                /// Exactly [`ENCODED_LEN`](Self::ENCODED_LEN) wire bytes.
                bytes: &'a [u8],
            }

            impl<'a> $refname<'a> {
                #[doc = concat!("Encoded size in bytes, equal to [`",
                    stringify!($name), "::ENCODED_LEN`].")]
                pub const ENCODED_LEN: usize = $name::ENCODED_LEN;

                #[doc = concat!("Wraps an exact-length payload slice \
                    without copying.\n\n# Errors\n\nReturns the same \
                    [`CodecError`] as [`", stringify!($name),
                    "::decode`] when `bytes` is not exactly `ENCODED_LEN` \
                    long.")]
                #[inline]
                pub fn new(bytes: &'a [u8]) -> Result<Self, CodecError> {
                    if bytes.len() == $name::ENCODED_LEN {
                        Ok($refname { bytes })
                    } else {
                        // Cold path: the field-wise decoder reports the
                        // exact error the materializing path would.
                        match $name::decode(bytes) {
                            Err(e) => Err(e),
                            Ok(_) => unreachable!("length mismatch must fail decode"),
                        }
                    }
                }

                /// The raw wire bytes backing this view.
                #[inline]
                pub fn wire_bytes(&self) -> &'a [u8] {
                    self.bytes
                }

                /// Materializes the owned payload struct.
                #[inline]
                pub fn to_owned(self) -> $name {
                    match $name::decode(self.bytes) {
                        Ok(v) => v,
                        Err(_) => unreachable!("length was validated at construction"),
                    }
                }

                /// Whether every field view equals the corresponding
                /// field of `owned` — pins the generated accessors to the
                /// materializing decoder in property tests.
                pub fn fields_match(&self, owned: &$name) -> bool {
                    true $(&& <$ty as WireField>::view_matches(self.$field(), &owned.$field))*
                }
            }

            impl PartialEq<$name> for $refname<'_> {
                fn eq(&self, other: &$name) -> bool {
                    self.fields_match(other)
                }
            }

            view_accessors!($refname, 0usize, $( $field : $ty, )*);
        )*

        /// Discriminant identifying one of the 32 verification event types.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum EventKind { $( $name, )* }

        impl EventKind {
            /// Number of event kinds.
            pub const COUNT: usize = 0 $( + { stringify!($name); 1 } )*;

            /// All kinds in discriminant order.
            pub const ALL: [EventKind; Self::COUNT] = [ $( EventKind::$name, )* ];

            /// The encoded payload size of this kind, in bytes.
            pub const fn encoded_len(self) -> usize {
                match self { $( EventKind::$name => $name::ENCODED_LEN, )* }
            }

            /// The catalog category of this kind.
            pub const fn category(self) -> Category {
                match self { $( EventKind::$name => Category::$category, )* }
            }

            /// The type name of this kind.
            pub const fn name(self) -> &'static str {
                match self { $( EventKind::$name => stringify!($name), )* }
            }

            /// Reconstructs a kind from its `u8` discriminant.
            ///
            /// # Errors
            ///
            /// Returns [`CodecError::BadKind`] for out-of-range values.
            pub fn from_u8(v: u8) -> Result<EventKind, CodecError> {
                Self::ALL.get(v as usize).copied().ok_or(CodecError::BadKind(v))
            }
        }

        /// A verification event: one of the 32 catalog types with payload.
        ///
        /// Variant sizes intentionally span 3–512 bytes: events are moved
        /// in bulk buffers on the hot path, where boxing the large
        /// register-state dumps would cost an allocation per event.
        #[derive(Debug, Clone, PartialEq)]
        #[allow(clippy::large_enum_variant)]
        pub enum Event {
            $(
                #[doc = concat!("A [`", stringify!($name), "`] event.")]
                $name($name),
            )*
        }

        impl Event {
            /// The kind discriminant of this event.
            pub const fn kind(&self) -> EventKind {
                match self { $( Event::$name(_) => EventKind::$name, )* }
            }

            /// The encoded payload size in bytes.
            pub const fn encoded_len(&self) -> usize {
                self.kind().encoded_len()
            }

            /// Appends the payload's fixed binary layout to `buf`.
            pub fn encode_into(&self, buf: &mut Vec<u8>) {
                match self { $( Event::$name(p) => p.encode_into(buf), )* }
            }

            /// Decodes a payload of the given kind from an exact-length
            /// slice.
            ///
            /// # Errors
            ///
            /// Returns [`CodecError`] on a length mismatch.
            pub fn decode(kind: EventKind, bytes: &[u8]) -> Result<Event, CodecError> {
                Ok(match kind {
                    $( EventKind::$name => Event::$name($name::decode(bytes)?), )*
                })
            }
        }

        $(
            impl From<$name> for Event {
                fn from(p: $name) -> Event { Event::$name(p) }
            }
        )*

        /// A borrowed verification event: one of the 32 catalog views
        /// over validated wire bytes.
        ///
        /// This is the consumer-side zero-materialization type: the
        /// checker reads every kind's fields through it, in the packet
        /// buffer, an order-decoupled item's parked payload copy, or a
        /// Replay ring record. Checking never builds the owned [`Event`].
        #[derive(Debug, Clone, Copy)]
        pub enum EventRef<'a> {
            $(
                #[doc = concat!("A borrowed [`", stringify!($name), "`] payload.")]
                $name($refname<'a>),
            )*
        }

        impl<'a> EventRef<'a> {
            /// Wraps an exact-length payload slice of the given kind
            /// without copying or materializing.
            ///
            /// # Errors
            ///
            /// Returns the same [`CodecError`] as [`Event::decode`] on a
            /// length mismatch.
            #[inline]
            pub fn parse(kind: EventKind, bytes: &'a [u8]) -> Result<EventRef<'a>, CodecError> {
                Ok(match kind {
                    $( EventKind::$name => EventRef::$name($refname::new(bytes)?), )*
                })
            }

            /// The kind discriminant of this event.
            pub const fn kind(&self) -> EventKind {
                match self { $( EventRef::$name(_) => EventKind::$name, )* }
            }

            /// The raw wire bytes backing this view.
            pub fn wire_bytes(&self) -> &'a [u8] {
                match self { $( EventRef::$name(v) => v.wire_bytes(), )* }
            }

            /// Materializes the owned [`Event`].
            pub fn to_event(&self) -> Event {
                match self { $( EventRef::$name(v) => Event::$name((*v).to_owned()), )* }
            }

            /// Whether this view's field reads all equal the fields of an
            /// owned event of the same kind.
            pub fn fields_match(&self, owned: &Event) -> bool {
                match (self, owned) {
                    $( (EventRef::$name(v), Event::$name(o)) => v.fields_match(o), )*
                    _ => false,
                }
            }
        }
    };
}

catalog! {
    // ------------------------------------------------------------------
    // Control flow (5 types)
    // ------------------------------------------------------------------

    /// One committed instruction: the fundamental verification event.
    (ControlFlow) struct InstrCommit view InstrCommitRef {
        /// PC of the committed instruction.
        pub pc: u64,
        /// Raw instruction word.
        pub instr: u32,
        /// Non-zero when the instruction wrote an integer register.
        pub wen: u8,
        /// Destination register index.
        pub wdest: u8,
        /// Value written to the destination register.
        pub wdata: u64,
        /// Flag bits, see [`commit_flags`].
        pub flags: u8,
        /// Reorder-buffer index at commit (microarchitectural context).
        pub rob_idx: u16,
    }

    /// Simulation-terminating trap (good/bad trap in DiffTest terms).
    (ControlFlow) struct TrapEvent view TrapEventRef {
        /// PC of the trapping instruction.
        pub pc: u64,
        /// Trap code: 0 = good trap (`ebreak` with a0 == 0), else bad.
        pub code: u8,
        /// Non-zero when the trap is valid.
        pub has_trap: u8,
        /// DUT cycle at which the trap fired.
        pub cycle: u64,
    }

    /// Exception or interrupt entry. Interrupt entries are
    /// non-deterministic events that must be synchronized to the REF.
    (ControlFlow) struct ArchEvent view ArchEventRef {
        /// PC at trap entry.
        pub pc: u64,
        /// `mcause` value (interrupt bit included).
        pub cause: u64,
        /// `mtval` value.
        pub tval: u64,
        /// Non-zero for interrupts (asynchronous, NDE).
        pub is_interrupt: u8,
    }

    /// Front-end redirect (taken branch / jump) for control-flow tracing.
    (ControlFlow) struct Redirect view RedirectRef {
        /// PC of the redirecting instruction.
        pub pc: u64,
        /// Redirect target.
        pub target: u64,
        /// Non-zero when the redirect was a taken conditional branch.
        pub taken: u8,
        /// Branch type discriminant (microarchitectural).
        pub branch_type: u8,
    }

    /// Runahead checkpoint bookkeeping: the smallest event of the catalog
    /// (3 bytes, giving the catalog its 170× size spread).
    (ControlFlow) struct RunaheadEvent view RunaheadEventRef {
        /// Non-zero when a checkpoint is live.
        pub valid: u8,
        /// Checkpoint identifier.
        pub checkpoint_id: u16,
    }

    // ------------------------------------------------------------------
    // Register updates (9 types)
    // ------------------------------------------------------------------

    /// Full integer architectural register file.
    (RegisterUpdate) struct ArchIntRegState view ArchIntRegStateRef {
        /// `x0..x31`.
        pub regs: [u64; 32],
    }

    /// Full floating-point architectural register file.
    (RegisterUpdate) struct ArchFpRegState view ArchFpRegStateRef {
        /// `f0..f31` raw bits.
        pub regs: [u64; 32],
    }

    /// The dense tracked-CSR file (indexed by `difftest_isa::csr::CsrIndex`).
    (RegisterUpdate) struct CsrState view CsrStateRef {
        /// All 24 tracked CSRs.
        pub csrs: [u64; 24],
    }

    /// A single integer register writeback (port-level event).
    (RegisterUpdate) struct IntWriteback view IntWritebackRef {
        /// Destination register index.
        pub idx: u8,
        /// Value written.
        pub data: u64,
    }

    /// A single floating-point register writeback (port-level event).
    (RegisterUpdate) struct FpWriteback view FpWritebackRef {
        /// Destination register index.
        pub idx: u8,
        /// Raw bits written.
        pub data: u64,
    }

    /// Debug-mode register state.
    (RegisterUpdate) struct DebugModeState view DebugModeStateRef {
        /// Non-zero when the hart is in debug mode.
        pub debug_mode: u8,
        /// `dcsr`.
        pub dcsr: u64,
        /// `dpc`.
        pub dpc: u64,
        /// `dscratch0`.
        pub dscratch0: u64,
        /// `dscratch1`.
        pub dscratch1: u64,
    }

    /// Hardware trigger (Sdtrig) CSR state.
    (RegisterUpdate) struct TriggerCsrState view TriggerCsrStateRef {
        /// `tselect`.
        pub tselect: u64,
        /// `tdata1` for four triggers.
        pub tdata1: [u64; 4],
        /// `tdata2` for three triggers.
        pub tdata2: [u64; 3],
        /// `tinfo`.
        pub tinfo: u16,
    }

    /// Hypervisor CSR state.
    (RegisterUpdate) struct HypervisorCsrState view HypervisorCsrStateRef {
        /// `hstatus, hedeleg, hideleg, hvip, hip, hie, htval, htinst,
        /// hgatp, vsstatus, vsatp`.
        pub csrs: [u64; 11],
        /// Non-zero when running in virtualized (VS/VU) mode.
        pub virt_mode: u8,
    }

    /// Vector CSR state.
    (RegisterUpdate) struct VecCsrState view VecCsrStateRef {
        /// `vstart`.
        pub vstart: u64,
        /// `vl`.
        pub vl: u64,
        /// `vtype`.
        pub vtype: u64,
        /// `vcsr`.
        pub vcsr: u64,
        /// `vlenb`.
        pub vlenb: u64,
        /// Non-zero when `vtype.vill` is set.
        pub vill: u8,
    }

    // ------------------------------------------------------------------
    // Memory access (3 types)
    // ------------------------------------------------------------------

    /// A load operation. MMIO loads are non-deterministic events whose
    /// observed value must be synchronized to the REF (skip mechanism).
    (MemoryAccess) struct LoadEvent view LoadEventRef {
        /// PC of the load.
        pub pc: u64,
        /// Effective address.
        pub addr: u64,
        /// Loaded value (after extension).
        pub data: u64,
        /// Access width in bytes.
        pub len: u8,
        /// Non-zero when the access hit the MMIO hole (NDE).
        pub is_mmio: u8,
        /// Functional-unit type (microarchitectural context).
        pub fu_type: u8,
        /// Operation sub-type.
        pub op_type: u8,
    }

    /// A store operation leaving the store queue.
    (MemoryAccess) struct StoreEvent view StoreEventRef {
        /// Effective address (8-byte aligned base).
        pub addr: u64,
        /// Store data (little-endian, masked).
        pub data: u64,
        /// Byte-enable mask.
        pub mask: u8,
    }

    /// An atomic memory operation (AMO or LR/SC pair completion).
    (MemoryAccess) struct AtomicEvent view AtomicEventRef {
        /// Effective address.
        pub addr: u64,
        /// Operand data.
        pub data: u64,
        /// Byte-enable mask.
        pub mask: u8,
        /// Old memory value returned to the destination register.
        pub out: u64,
        /// Functional-unit operation code.
        pub fu_op: u8,
    }

    // ------------------------------------------------------------------
    // Memory hierarchy (6 types)
    // ------------------------------------------------------------------

    /// A store-buffer (sbuffer) flush of one 64-byte cache line.
    (MemoryHierarchy) struct SbufferEvent view SbufferEventRef {
        /// Line-aligned address.
        pub addr: u64,
        /// Line data.
        pub data: [u8; 64],
        /// Byte-enable mask for the line.
        pub mask: u64,
    }

    /// A cache refill of one 64-byte line (d-cache or i-cache).
    (MemoryHierarchy) struct RefillEvent view RefillEventRef {
        /// Line-aligned address.
        pub addr: u64,
        /// Line data as eight 64-bit beats.
        pub data: [u64; 8],
        /// 0 = d-cache, 1 = i-cache, 2 = prefetch.
        pub refill_type: u8,
    }

    /// An L1 TLB fill.
    (MemoryHierarchy) struct L1TlbEvent view L1TlbEventRef {
        /// `satp` at the time of the fill.
        pub satp: u64,
        /// Virtual page number.
        pub vpn: u64,
        /// Physical page number.
        pub ppn: u64,
        /// Non-zero when the fill is valid.
        pub valid: u8,
    }

    /// An L2 TLB fill (covers multiple PTEs per fill).
    (MemoryHierarchy) struct L2TlbEvent view L2TlbEventRef {
        /// Non-zero when the fill is valid.
        pub valid: u8,
        /// Base virtual page number.
        pub vpn: u64,
        /// Index of the valid PTE within the fill group.
        pub pte_idx: u8,
        /// Up to six physical page numbers.
        pub ppns: [u64; 6],
        /// Permission bits.
        pub perm: u8,
    }

    /// LR/SC reservation tracking.
    (MemoryHierarchy) struct LrScEvent view LrScEventRef {
        /// Non-zero when the event is valid.
        pub valid: u8,
        /// Non-zero when the SC succeeded.
        pub success: u8,
        /// Reservation address.
        pub addr: u64,
        /// SC store data.
        pub data: u64,
    }

    /// A page-table-walk completion.
    (MemoryHierarchy) struct PtwEvent view PtwEventRef {
        /// Virtual page number walked.
        pub vpn: u64,
        /// PTEs fetched at each of four levels.
        pub levels: [u64; 4],
        /// Non-zero when the walk page-faulted.
        pub pf: u8,
        /// Requestor (0 = load, 1 = store, 2 = fetch).
        pub source: u8,
    }

    // ------------------------------------------------------------------
    // RISC-V extensions (9 types)
    // ------------------------------------------------------------------

    /// Full vector architectural register file (32 × VLEN=128 as 2 × u64
    /// halves): the largest event of the catalog (512 bytes).
    (Extension) struct ArchVecRegState view ArchVecRegStateRef {
        /// `v0..v31`, two 64-bit halves each.
        pub regs: [u64; 64],
    }

    /// A single vector register writeback.
    (Extension) struct VecWriteback view VecWritebackRef {
        /// Destination vector register index.
        pub idx: u8,
        /// The 128-bit value as two 64-bit halves.
        pub data: [u64; 2],
    }

    /// A hypervisor CSR update.
    (Extension) struct HCsrUpdate view HCsrUpdateRef {
        /// CSR address.
        pub addr: u16,
        /// New value.
        pub data: u64,
        /// Non-zero when performed from virtualized mode.
        pub virt: u8,
    }

    /// A virtual interrupt injection.
    (Extension) struct VirtualInterrupt view VirtualInterruptRef {
        /// Interrupt cause.
        pub cause: u64,
        /// PC at injection.
        pub pc: u64,
        /// Non-zero when valid.
        pub valid: u8,
    }

    /// A guest page fault (two-stage translation).
    (Extension) struct GuestPageFault view GuestPageFaultRef {
        /// Guest physical address.
        pub gpaddr: u64,
        /// Guest virtual address.
        pub gva: u64,
        /// PC of the faulting access.
        pub pc: u64,
        /// Fault type discriminant.
        pub fault_type: u8,
    }

    /// A vector unit-stride load.
    (Extension) struct VecLoad view VecLoadRef {
        /// PC of the load.
        pub pc: u64,
        /// Effective address.
        pub addr: u64,
        /// The 128-bit loaded value.
        pub data: [u64; 2],
        /// Effective vector length.
        pub vl: u8,
        /// Element mask.
        pub mask: u8,
    }

    /// A vector unit-stride store.
    (Extension) struct VecStore view VecStoreRef {
        /// PC of the store.
        pub pc: u64,
        /// Effective address.
        pub addr: u64,
        /// The 128-bit stored value.
        pub data: [u64; 2],
        /// Element mask.
        pub mask: u8,
    }

    /// A floating-point CSR (fflags/frm) update.
    (Extension) struct FpCsrUpdate view FpCsrUpdateRef {
        /// Accumulated exception flags.
        pub fflags: u8,
        /// Rounding mode.
        pub frm: u8,
        /// Full `fcsr` value.
        pub data: u64,
    }

    /// A `vsetvl`-style vector configuration change.
    (Extension) struct VecConfig view VecConfigRef {
        /// New `vl`.
        pub vl: u64,
        /// New `vtype`.
        pub vtype: u64,
        /// 0 = vsetvli, 1 = vsetivli, 2 = vsetvl.
        pub set_by: u8,
    }
}

/// Flag bits of [`InstrCommit::flags`].
pub mod commit_flags {
    /// The instruction was skipped (MMIO access; NDE).
    pub const SKIP: u8 = 1 << 0;
    /// The instruction was a load.
    pub const LOAD: u8 = 1 << 1;
    /// The instruction was a store.
    pub const STORE: u8 = 1 << 2;
    /// The instruction was a taken branch.
    pub const BRANCH_TAKEN: u8 = 1 << 3;
    /// The destination register is floating-point.
    pub const FP_WEN: u8 = 1 << 4;
}

impl Event {
    /// Returns `true` for non-deterministic events: DUT-specific behaviour
    /// (interrupt entries, MMIO accesses) that must be synchronized to the
    /// REF at a precise instruction boundary (paper §2.1, §4.3).
    pub fn is_nde(&self) -> bool {
        match self {
            Event::ArchEvent(e) => e.is_interrupt != 0,
            Event::LoadEvent(e) => e.is_mmio != 0,
            Event::InstrCommit(c) => c.flags & commit_flags::SKIP != 0,
            Event::VirtualInterrupt(v) => v.valid != 0,
            _ => false,
        }
    }
}

impl EventRef<'_> {
    /// Mirror of [`Event::is_nde`] over the borrowed view: reads only the
    /// discriminating field from the wire bytes.
    pub fn is_nde(&self) -> bool {
        match self {
            EventRef::ArchEvent(e) => e.is_interrupt() != 0,
            EventRef::LoadEvent(e) => e.is_mmio() != 0,
            EventRef::InstrCommit(c) => c.flags() & commit_flags::SKIP != 0,
            EventRef::VirtualInterrupt(v) => v.valid() != 0,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_two_kinds() {
        assert_eq!(EventKind::COUNT, 32);
        assert_eq!(EventKind::ALL.len(), 32);
    }

    #[test]
    fn size_spread_is_170x() {
        let min = EventKind::ALL
            .iter()
            .map(|k| k.encoded_len())
            .min()
            .unwrap();
        let max = EventKind::ALL
            .iter()
            .map(|k| k.encoded_len())
            .max()
            .unwrap();
        assert_eq!(min, RunaheadEvent::ENCODED_LEN);
        assert_eq!(min, 3);
        assert_eq!(max, ArchVecRegState::ENCODED_LEN);
        assert_eq!(max, 512);
        assert!(max / min >= 170, "spread {}x", max / min);
    }

    #[test]
    fn category_counts_match_table1() {
        let count = |c: Category| EventKind::ALL.iter().filter(|k| k.category() == c).count();
        assert_eq!(count(Category::ControlFlow), 5);
        assert_eq!(count(Category::RegisterUpdate), 9);
        assert_eq!(count(Category::MemoryAccess), 3);
        assert_eq!(count(Category::MemoryHierarchy), 6);
        assert_eq!(count(Category::Extension), 9);
    }

    #[test]
    fn kind_u8_round_trip() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(EventKind::from_u8(i as u8).unwrap(), *k);
        }
        assert!(EventKind::from_u8(32).is_err());
    }

    #[test]
    fn encode_decode_round_trip_every_kind() {
        // Default payloads encode to the advertised length and decode back.
        for kind in EventKind::ALL {
            let ev = Event::decode(kind, &vec![0u8; kind.encoded_len()]).unwrap();
            let mut buf = Vec::new();
            ev.encode_into(&mut buf);
            assert_eq!(buf.len(), kind.encoded_len(), "{}", kind.name());
            let back = Event::decode(kind, &buf).unwrap();
            assert_eq!(back, ev, "{}", kind.name());
        }
    }

    #[test]
    fn commit_round_trip_with_values() {
        let c = InstrCommit {
            pc: 0x8000_0042,
            instr: 0x13,
            wen: 1,
            wdest: 10,
            wdata: 0xdead_beef,
            flags: commit_flags::LOAD | commit_flags::SKIP,
            rob_idx: 99,
        };
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        assert_eq!(buf.len(), InstrCommit::ENCODED_LEN);
        assert_eq!(InstrCommit::decode(&buf).unwrap(), c);
    }

    #[test]
    fn decode_wrong_length_fails() {
        assert!(InstrCommit::decode(&[0u8; 3]).is_err());
        let too_long = vec![0u8; InstrCommit::ENCODED_LEN + 1];
        assert!(matches!(
            InstrCommit::decode(&too_long),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn nde_classification() {
        assert!(Event::ArchEvent(ArchEvent {
            is_interrupt: 1,
            ..Default::default()
        })
        .is_nde());
        assert!(!Event::ArchEvent(ArchEvent::default()).is_nde());
        assert!(Event::LoadEvent(LoadEvent {
            is_mmio: 1,
            ..Default::default()
        })
        .is_nde());
        assert!(!Event::StoreEvent(StoreEvent::default()).is_nde());
    }

    #[test]
    fn from_payload_into_event() {
        let e: Event = StoreEvent {
            addr: 8,
            data: 9,
            mask: 0xff,
        }
        .into();
        assert_eq!(e.kind(), EventKind::StoreEvent);
    }
}
