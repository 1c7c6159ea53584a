//! The one byte layout of a monitored event (paper §4.4 and §5).
//!
//! A record is the monitor's stamps followed by the payload's fixed
//! [`Event::encode_into`](crate::Event::encode_into) layout:
//!
//! ```text
//! core:u8  kind:u8  cycle:u64  order:u64  token:u64  payload[kind-length]
//! ```
//!
//! The kind byte comes before the words, so a reader learns the record's
//! length from the header alone. The Replay ring retains its events in
//! this layout and the trace file stores them in it, behind a magic.

use crate::catalog::{EventKind, EventRef};
use crate::monitor::{MonitoredEvent, OrderTag, Token};
use crate::wire::CodecError;

/// Bytes of the fixed record header.
pub const RECORD_HEADER_BYTES: usize = 26;

/// Appends `ev`'s record to `buf`. The header is built on the stack and
/// written in one piece (one capacity check, not five).
#[inline]
pub fn encode_record(ev: &MonitoredEvent, buf: &mut Vec<u8>) {
    let mut head = [0u8; RECORD_HEADER_BYTES];
    head[0] = ev.core;
    head[1] = ev.event.kind() as u8;
    head[2..10].copy_from_slice(&ev.cycle.to_le_bytes());
    head[10..18].copy_from_slice(&ev.order.0.to_le_bytes());
    head[18..26].copy_from_slice(&ev.token.0.to_le_bytes());
    buf.extend_from_slice(&head);
    ev.event.encode_into(buf);
}

/// A record's header: the monitor's stamps and the payload's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Core the event came from.
    pub core: u8,
    /// Kind of the payload that follows.
    pub kind: EventKind,
    /// DUT cycle at capture.
    pub cycle: u64,
    /// Commit-order binding.
    pub order: OrderTag,
    /// Replay-buffer token.
    pub token: Token,
}

impl RecordHeader {
    /// Reads the header at the start of `bytes` and returns it with the
    /// length of the whole record. The payload is neither read nor
    /// required to be present.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when `bytes` is shorter than a
    /// header, [`CodecError::BadKind`] on an out-of-range kind byte.
    #[inline]
    pub fn read(bytes: &[u8]) -> Result<(RecordHeader, usize), CodecError> {
        let Some((head, _)) = bytes.split_first_chunk::<RECORD_HEADER_BYTES>() else {
            return Err(CodecError::UnexpectedEnd {
                needed: RECORD_HEADER_BYTES,
                available: bytes.len(),
            });
        };
        let kind = EventKind::from_u8(head[1])?;
        let word = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&head[at..at + 8]);
            u64::from_le_bytes(w)
        };
        let header = RecordHeader {
            core: head[0],
            kind,
            cycle: word(2),
            order: OrderTag(word(10)),
            token: Token(word(18)),
        };
        Ok((header, RECORD_HEADER_BYTES + kind.encoded_len()))
    }
}

/// One record, borrowed: its header and a view of its payload.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// The monitor's stamps.
    pub header: RecordHeader,
    /// The payload, viewed in place.
    pub payload: EventRef<'a>,
}

impl<'a> RecordRef<'a> {
    /// Splits the record at the start of `bytes` off the bytes after it:
    /// [`RecordHeader::read`]'s errors, or [`CodecError::UnexpectedEnd`]
    /// when the payload is cut short.
    #[inline]
    fn split(bytes: &'a [u8]) -> Result<(RecordRef<'a>, &'a [u8]), CodecError> {
        let (header, len) = RecordHeader::read(bytes)?;
        let Some((record, rest)) = bytes.split_at_checked(len) else {
            return Err(CodecError::UnexpectedEnd {
                needed: len,
                available: bytes.len(),
            });
        };
        let payload = EventRef::parse(header.kind, &record[RECORD_HEADER_BYTES..])?;
        Ok((RecordRef { header, payload }, rest))
    }

    /// Materializes the owned event.
    pub fn to_monitored(&self) -> MonitoredEvent {
        MonitoredEvent {
            core: self.header.core,
            cycle: self.header.cycle,
            order: self.header.order,
            token: self.header.token,
            event: self.payload.to_event(),
        }
    }
}

/// The records of a byte slice, in order. A malformed record yields its
/// [`CodecError`] and ends the walk.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    rest: &'a [u8],
}

impl<'a> Records<'a> {
    /// Walks `bytes`, which holds whole records back to back.
    pub fn new(bytes: &'a [u8]) -> Self {
        Records { rest: bytes }
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<RecordRef<'a>, CodecError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        match RecordRef::split(self.rest) {
            Ok((record, rest)) => {
                self.rest = rest;
                Some(Ok(record))
            }
            Err(e) => {
                self.rest = &[];
                Some(Err(e))
            }
        }
    }
}
