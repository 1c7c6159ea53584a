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

// Records arrive from trace files and the Replay ring: every read of
// them is checked.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::catalog::{EventKind, EventRef};
use crate::monitor::{MonitoredEvent, OrderTag, Token};
use crate::wire::CodecError;

/// Bytes of the fixed record header.
pub const RECORD_HEADER_BYTES: usize = 26;

/// Appends `ev`'s record to `buf`.
#[inline]
pub fn encode_record(ev: &MonitoredEvent, buf: &mut Vec<u8>) {
    let header = RecordHeader {
        core: ev.core,
        kind: ev.event.kind(),
        cycle: ev.cycle,
        order: ev.order,
        token: ev.token,
    };
    header.write(buf);
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
    /// Appends the header to `buf`, where the layout of a `kind` payload
    /// must follow. The header is built on the stack and written in one
    /// piece (one capacity check, not five).
    #[inline]
    pub fn write(&self, buf: &mut Vec<u8>) {
        let mut head = [0u8; RECORD_HEADER_BYTES];
        head[0] = self.core;
        head[1] = self.kind as u8;
        head[2..10].copy_from_slice(&self.cycle.to_le_bytes());
        head[10..18].copy_from_slice(&self.order.0.to_le_bytes());
        head[18..26].copy_from_slice(&self.token.0.to_le_bytes());
        buf.extend_from_slice(&head);
    }

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
        let short = || CodecError::UnexpectedEnd {
            needed: RECORD_HEADER_BYTES,
            available: bytes.len(),
        };
        let Some((head, _)) = bytes.split_first_chunk::<RECORD_HEADER_BYTES>() else {
            return Err(short());
        };
        let [core, kind, ref words @ ..] = *head;
        let kind = EventKind::from_u8(kind)?;
        // 24 bytes split into exactly three words.
        let (&[cycle, order, token], _) = words.as_chunks::<8>() else {
            return Err(short());
        };
        let header = RecordHeader {
            core,
            kind,
            cycle: u64::from_le_bytes(cycle),
            order: OrderTag(u64::from_le_bytes(order)),
            token: Token(u64::from_le_bytes(token)),
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
    /// The whole record, header included.
    bytes: &'a [u8],
}

/// The payload of a whole record.
#[inline]
fn payload_of(record: &[u8]) -> &[u8] {
    record.get(RECORD_HEADER_BYTES..).unwrap_or_default()
}

impl<'a> RecordRef<'a> {
    /// The record's bytes as they lie, header and payload: what a holder
    /// of a record copies instead of re-encoding it.
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
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

    /// The next record's header and whole bytes: [`RecordHeader::read`]'s
    /// errors, or [`CodecError::UnexpectedEnd`] when the payload is cut
    /// short, end the walk.
    #[inline]
    fn next_record(&mut self) -> Option<Result<(RecordHeader, &'a [u8]), CodecError>> {
        if self.rest.is_empty() {
            return None;
        }
        let bytes = self.rest;
        self.rest = &[];
        let (header, len) = match RecordHeader::read(bytes) {
            Ok(read) => read,
            Err(e) => return Some(Err(e)),
        };
        let Some((record, rest)) = bytes.split_at_checked(len) else {
            return Some(Err(CodecError::UnexpectedEnd {
                needed: len,
                available: bytes.len(),
            }));
        };
        self.rest = rest;
        Some(Ok((header, record)))
    }

    /// The next record as its header and payload bytes, the payload
    /// unviewed: the header-first walk, for a reader that views only
    /// some kinds. The payload is exactly its kind's length. Like
    /// [`next`](Iterator::next), a malformed record yields its
    /// [`CodecError`] and ends the walk.
    #[inline]
    pub fn next_raw(&mut self) -> Option<Result<(RecordHeader, &'a [u8]), CodecError>> {
        Some(
            self.next_record()?
                .map(|(header, record)| (header, payload_of(record))),
        )
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Result<RecordRef<'a>, CodecError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (header, record) = match self.next_record()? {
            Ok(split) => split,
            Err(e) => return Some(Err(e)),
        };
        match EventRef::parse(header.kind, payload_of(record)) {
            Ok(payload) => Some(Ok(RecordRef {
                header,
                payload,
                bytes: record,
            })),
            Err(e) => {
                self.rest = &[];
                Some(Err(e))
            }
        }
    }
}
