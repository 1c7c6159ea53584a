//! The one definition of the monitor's architectural state dumps: which
//! kinds there are, their capture order and what each holds. The monitor
//! writes every dump with [`write_state_dump`], Squash holds each kind in
//! its [`state_dump_slot`], and the checker compares register files
//! against [`dump_words`] and renders the REF's small dumps with
//! [`write_state_dump`], so the three cannot disagree on a field.

use difftest_event::wire::Writer;
use difftest_event::{DebugModeState, EventKind, HypervisorCsrState, TriggerCsrState, VecCsrState};
use difftest_isa::csr::CsrIndex;
use difftest_ref::ArchState;

/// The state-dump kinds, in the order the monitor captures them at a
/// dump point.
pub const STATE_DUMPS: [EventKind; 8] = [
    EventKind::ArchIntRegState,
    EventKind::CsrState,
    EventKind::ArchFpRegState,
    EventKind::ArchVecRegState,
    EventKind::VecCsrState,
    EventKind::HypervisorCsrState,
    EventKind::TriggerCsrState,
    EventKind::DebugModeState,
];

/// The position of a state-dump kind in [`STATE_DUMPS`], else `None`.
#[inline]
pub fn state_dump_slot(kind: EventKind) -> Option<usize> {
    use EventKind as K;
    Some(match kind {
        K::ArchIntRegState => 0,
        K::CsrState => 1,
        K::ArchFpRegState => 2,
        K::ArchVecRegState => 3,
        K::VecCsrState => 4,
        K::HypervisorCsrState => 5,
        K::TriggerCsrState => 6,
        K::DebugModeState => 7,
        _ => return None,
    })
}

/// The vector register file: architecturally zero in this model.
const VREGS: [u64; 64] = [0; 64];

/// The words of a register-file dump (integer, floating-point, CSR or
/// vector), which are exactly its payload; `None` for any other kind.
#[inline]
pub fn dump_words(kind: EventKind, st: &ArchState) -> Option<&[u64]> {
    use EventKind as K;
    match kind {
        K::ArchIntRegState => Some(st.xregs()),
        K::CsrState => Some(st.csrs()),
        K::ArchFpRegState => Some(st.fregs()),
        K::ArchVecRegState => Some(&VREGS),
        _ => None,
    }
}

/// Appends the payload of a `kind` dump of `st` to `buf` (nothing for a
/// kind that is no state dump).
#[inline]
pub fn write_state_dump(kind: EventKind, st: &ArchState, buf: &mut Vec<u8>) {
    use EventKind as K;
    if let Some(words) = dump_words(kind, st) {
        Writer::new(buf).u64_array(words);
        return;
    }
    match kind {
        K::VecCsrState => VecCsrState::write_fields(
            buf,
            &st.csr(CsrIndex::Vstart),
            &st.csr(CsrIndex::Vl),
            &st.csr(CsrIndex::Vtype),
            &st.csr(CsrIndex::Vcsr),
            &16,
            &0,
        ),
        K::HypervisorCsrState => {
            let mut h = [0u64; 11];
            h[0] = st.csr(CsrIndex::Hstatus);
            h[1] = st.csr(CsrIndex::Hedeleg);
            HypervisorCsrState::write_fields(buf, &h, &0);
        }
        K::TriggerCsrState => TriggerCsrState::write_fields(buf, &0, &[0; 4], &[0; 3], &0),
        K::DebugModeState => DebugModeState::write_fields(buf, &0, &0, &0, &0, &0),
        _ => {}
    }
}
