//! Trace dump and reload (paper §5 "iterative debugging support").
//!
//! Re-running the whole DUT to debug the *verification logic* is wasteful,
//! so DiffTest-H can dump the monitored event stream (the "DUT trace") and
//! later drive the checking pipeline from the trace alone. A trace is an
//! 8-byte magic followed by [`difftest_event::record`]s, the layout the
//! Replay ring retains its events in.

use std::io::{self, Read, Write};

use difftest_event::record::{encode_record, Records};
use difftest_event::{CodecError, MonitoredEvent};

/// Magic prefix of a trace file.
const MAGIC: &[u8; 8] = b"DTHTRC02";

/// Errors from trace reload.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream did not start with the trace magic.
    BadMagic,
    /// A record failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a DiffTest-H trace (bad magic)"),
            TraceError::Codec(e) => write!(f, "trace record corrupt: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> Self {
        TraceError::Codec(e)
    }
}

/// Writes monitored events to a byte stream.
///
/// A `&mut W` also works wherever `W: Write` is required.
pub fn dump<W: Write>(mut w: W, events: &[MonitoredEvent]) -> Result<(), TraceError> {
    w.write_all(MAGIC)?;
    let mut buf = Vec::new();
    for ev in events {
        buf.clear();
        encode_record(ev, &mut buf);
        w.write_all(&buf)?;
    }
    Ok(())
}

/// The records of a trace held in memory, after its magic.
fn records(bytes: &[u8]) -> Result<Records<'_>, TraceError> {
    bytes
        .strip_prefix(MAGIC)
        .map(Records::new)
        .ok_or(TraceError::BadMagic)
}

/// Reads an entire trace back into memory.
pub fn reload<R: Read>(mut r: R) -> Result<Vec<MonitoredEvent>, TraceError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    records(&bytes)?
        .map(|rec| Ok(rec?.to_monitored()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_event::{InstrCommit, OrderTag, StoreEvent, Token};

    fn sample() -> Vec<MonitoredEvent> {
        vec![
            MonitoredEvent {
                core: 0,
                cycle: 10,
                order: OrderTag(1),
                token: Token(0),
                event: InstrCommit {
                    pc: 0x8000_0000,
                    wen: 1,
                    wdest: 5,
                    wdata: 99,
                    ..Default::default()
                }
                .into(),
            },
            MonitoredEvent {
                core: 1,
                cycle: 11,
                order: OrderTag(2),
                token: Token(1),
                event: StoreEvent {
                    addr: 0x8000_1000,
                    data: 7,
                    mask: 0xff,
                }
                .into(),
            },
        ]
    }

    #[test]
    fn dump_reload_round_trip() {
        let events = sample();
        let mut buf = Vec::new();
        dump(&mut buf, &events).unwrap();
        let back = reload(&buf[..]).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = reload(&b"NOTATRACE"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic));
    }

    #[test]
    fn streaming_reader_rejects_short_magic() {
        assert!(matches!(reload(&b"DTH"[..]), Err(TraceError::BadMagic)));
    }

    #[test]
    fn truncated_record_rejected() {
        let mut buf = Vec::new();
        dump(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(reload(&buf[..]), Err(TraceError::Codec(_))));
    }

    #[test]
    fn empty_trace_is_valid() {
        let mut buf = Vec::new();
        dump(&mut buf, &[]).unwrap();
        assert!(reload(&buf[..]).unwrap().is_empty());
    }
}
