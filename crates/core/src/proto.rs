//! The DTH wire protocol as a first-class layer: typed messages and an
//! incremental (non-blocking-read-safe) frame decoder.
//!
//! The socket runner's producer writes this format and its consumer
//! loop ([`crate::mux::serve_connection`]) decodes it; the stream runs
//! one way only, and the verdict reaches the runner in-process.
//!
//! # Wire format
//!
//! A session is one client → server byte stream:
//!
//! ```text
//! client → server   "DTH1" ver                                           (hello)
//!                   [ 0x00 core items len bytes ]*                       (transfer frames)
//!                   0x01 produced                                        (end frame)
//! ```
//!
//! The hello carries no run description: both ends are threads of one
//! process, and the consumer is built from the same
//! [`Session`](crate::Session) as the producer. All integers are
//! little-endian: fixed-size fields parse with the event codec's
//! [`Reader`], the writers use this module's private `w_*` helpers.
//! Every frame's length prefix is bounds-checked against
//! [`MAX_FRAME_BYTES`] *before* any allocation, so a hostile or
//! desynchronized stream yields a typed error, never a panic or an
//! unbounded buffer.
//!
//! The magic and the version byte ([`PROTO_VERSION`]) right after it let
//! a consumer meeting a foreign stream, or one from a different build,
//! reject it as [`ProtoError::BadMagic`] or [`ProtoError::BadVersion`]
//! instead of misparsing the frames that follow.

use std::fmt;
use std::io::{self, Write};

use difftest_event::wire::{CodecError, Reader};

use crate::transport::Transfer;

/// Magic opening every client stream.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"DTH1";
/// Protocol revision carried right after the handshake magic. Version 2
/// was version 1 (the implicit, pre-extraction format) plus this very
/// byte; version 3 ended the (since retired) result blob with the
/// consumer's whole observation bundle; version 4 drops the hello's
/// consumer kill knob; version 5 delta-codes the order tag and token
/// heading each Tagged and Diff item inside transfer frames; version 6
/// shrinks the hello to the magic and this byte.
pub const PROTO_VERSION: u8 = 6;

/// Frame type: a [`Transfer`] packet.
pub const FRAME_TRANSFER: u8 = 0;
/// Frame type: end of stream, carrying the pre-fault produced count.
pub const FRAME_END: u8 = 1;

/// Upper bound on a transfer frame's length prefix; a larger prefix
/// means a desynchronized or hostile stream.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// The hello: magic and version.
const HELLO_LEN: usize = 4 + 1;
/// Fixed-size prefix of a transfer frame: type, core, items, byte length.
const TRANSFER_HEADER: usize = 1 + 1 + 4 + 4;

/// The stream's opening: it names the protocol and its version, and
/// nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello;

/// One decoded client → server message.
#[derive(Debug)]
pub enum ClientMsg {
    /// The stream's opening; always its first message.
    Hello(Hello),
    /// One packet of the event stream.
    Transfer(Transfer),
    /// End of stream with the producer's pre-fault produced count (the
    /// consumer's tail-loss reference).
    End {
        /// Packets the producer handed to the link before faults.
        produced: u32,
    },
}

/// Why a client stream failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream does not start with [`HANDSHAKE_MAGIC`].
    BadMagic,
    /// The version byte does not match [`PROTO_VERSION`].
    BadVersion(u8),
    /// A length prefix exceeds its pinned bound — rejected before any
    /// allocation.
    Oversize {
        /// Which length field lied.
        what: &'static str,
        /// The advertised length.
        len: u64,
        /// The bound it violated.
        max: u64,
    },
    /// An unknown frame-type byte.
    BadFrame(u8),
    /// A fixed-size field ended early (internal consistency guard; the
    /// incremental decoder normally reports "need more bytes" instead).
    Truncated,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadMagic => write!(f, "handshake magic mismatch"),
            ProtoError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTO_VERSION})"
                )
            }
            ProtoError::Oversize { what, len, max } => {
                write!(f, "{what} length {len} exceeds bound {max}")
            }
            ProtoError::BadFrame(b) => write!(f, "unknown frame type {b}"),
            ProtoError::Truncated => write!(f, "stream truncated mid-field"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CodecError> for ProtoError {
    fn from(_: CodecError) -> Self {
        ProtoError::Truncated
    }
}

/// Incremental decoder for the client side of the stream: push bytes as
/// they arrive (any fragmentation), pull whole [`ClientMsg`]s out. Safe
/// to drive from a non-blocking read loop — a partial message is simply
/// "not yet", never an error.
///
/// Buffering is bounded by the protocol's pinned sizes: a length prefix
/// is validated the moment it is readable, so the internal buffer never
/// grows past the largest legal message.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    hello_done: bool,
    ended: bool,
}

impl FrameDecoder {
    /// A decoder expecting the start of a client stream.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends newly received bytes (already-consumed bytes are
    /// compacted away first, so the buffer tracks in-flight data only).
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into a message.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the hello has been decoded.
    pub fn hello_seen(&self) -> bool {
        self.hello_done
    }

    /// Whether the end frame has been decoded (no more messages follow).
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Decodes the next complete message, `Ok(None)` when more bytes
    /// are needed. After an `Err` the stream is desynchronized; callers
    /// must not keep decoding.
    pub fn next_msg(&mut self) -> Result<Option<ClientMsg>, ProtoError> {
        if self.ended {
            return Ok(None);
        }
        let avail = self.buf.get(self.pos..).unwrap_or_default();
        let parsed = if self.hello_done {
            parse_frame(avail)?
        } else {
            parse_hello(avail)?.map(|(h, used)| (ClientMsg::Hello(h), used))
        };
        let Some((msg, used)) = parsed else {
            return Ok(None);
        };
        self.pos += used;
        match &msg {
            ClientMsg::Hello(_) => self.hello_done = true,
            ClientMsg::End { .. } => self.ended = true,
            ClientMsg::Transfer(_) => {}
        }
        Ok(Some(msg))
    }
}

/// Parses a hello off the front of `avail`; `None` = need more bytes.
/// Validation is as eager as the bytes allow: a wrong magic prefix or
/// version byte is rejected without waiting for the rest.
fn parse_hello(avail: &[u8]) -> Result<Option<(Hello, usize)>, ProtoError> {
    if !HANDSHAKE_MAGIC.starts_with(avail.get(..4).unwrap_or(avail)) {
        return Err(ProtoError::BadMagic);
    }
    match avail.get(4) {
        None => Ok(None),
        Some(&PROTO_VERSION) => Ok(Some((Hello, HELLO_LEN))),
        Some(&v) => Err(ProtoError::BadVersion(v)),
    }
}

/// Parses a post-hello frame off the front of `avail`; `None` = need
/// more bytes.
fn parse_frame(avail: &[u8]) -> Result<Option<(ClientMsg, usize)>, ProtoError> {
    let Some(&ty) = avail.first() else {
        return Ok(None);
    };
    match ty {
        FRAME_TRANSFER => {
            let Some(header) = avail.get(1..TRANSFER_HEADER) else {
                return Ok(None);
            };
            let mut r = Reader::new(header);
            let core = r.u8()?;
            let items = r.u32()?;
            let len = r.u32()? as usize;
            if len > MAX_FRAME_BYTES {
                return Err(ProtoError::Oversize {
                    what: "transfer frame",
                    len: len as u64,
                    max: MAX_FRAME_BYTES as u64,
                });
            }
            let total = TRANSFER_HEADER + len;
            let Some(bytes) = avail.get(TRANSFER_HEADER..total) else {
                return Ok(None);
            };
            Ok(Some((
                ClientMsg::Transfer(Transfer {
                    bytes: bytes.to_vec(),
                    core,
                    items,
                }),
                total,
            )))
        }
        FRAME_END => {
            let Some(body) = avail.get(1..5) else {
                return Ok(None);
            };
            let mut r = Reader::new(body);
            let produced = r.u32()?;
            Ok(Some((ClientMsg::End { produced }, 5)))
        }
        b => Err(ProtoError::BadFrame(b)),
    }
}

/// Writes the hello that opens a client stream: [`HANDSHAKE_MAGIC`] and
/// [`PROTO_VERSION`].
pub fn write_hello<W: Write>(w: &mut W, _: &Hello) -> io::Result<()> {
    w.write_all(&HANDSHAKE_MAGIC)?;
    w_u8(w, PROTO_VERSION)
}

/// Writes one transfer frame.
pub fn write_transfer_frame<W: Write>(w: &mut W, t: &Transfer) -> io::Result<()> {
    w_u8(w, FRAME_TRANSFER)?;
    w_u8(w, t.core)?;
    w_u32(w, t.items)?;
    w_u32(w, t.bytes.len() as u32)?;
    w.write_all(&t.bytes)
}

/// Writes the end-of-stream frame.
pub fn write_end_frame<W: Write>(w: &mut W, produced: u32) -> io::Result<()> {
    w_u8(w, FRAME_END)?;
    w_u32(w, produced)
}

fn w_u8<W: Write>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips_through_the_decoder() {
        let mut blob = Vec::new();
        write_hello(&mut blob, &Hello).unwrap();
        assert_eq!(blob.len(), HELLO_LEN);
        let mut dec = FrameDecoder::new();
        dec.push(&blob);
        assert!(matches!(
            dec.next_msg().unwrap(),
            Some(ClientMsg::Hello(Hello))
        ));
        assert!(dec.hello_seen());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_handles_arbitrary_fragmentation() {
        let mut stream = Vec::new();
        write_hello(&mut stream, &Hello).unwrap();
        let t = Transfer {
            bytes: vec![1, 2, 3, 4, 5],
            core: 0,
            items: 2,
        };
        write_transfer_frame(&mut stream, &t).unwrap();
        write_end_frame(&mut stream, 1).unwrap();

        // Byte-at-a-time delivery must decode the identical messages.
        let mut dec = FrameDecoder::new();
        let mut msgs = Vec::new();
        for &b in &stream {
            dec.push(&[b]);
            while let Some(m) = dec.next_msg().unwrap() {
                msgs.push(m);
            }
        }
        assert_eq!(msgs.len(), 3);
        assert!(matches!(msgs[0], ClientMsg::Hello(_)));
        let ClientMsg::Transfer(ref got) = msgs[1] else {
            panic!("expected a transfer");
        };
        assert_eq!(
            (&got.bytes[..], got.core, got.items),
            (&[1, 2, 3, 4, 5][..], 0, 2)
        );
        assert!(matches!(msgs[2], ClientMsg::End { produced: 1 }));
        assert!(dec.ended());
    }

    #[test]
    fn wrong_version_is_a_typed_error() {
        let mut blob = Vec::new();
        blob.extend_from_slice(&HANDSHAKE_MAGIC);
        blob.push(PROTO_VERSION + 1);
        let mut dec = FrameDecoder::new();
        dec.push(&blob);
        assert_eq!(
            dec.next_msg().unwrap_err(),
            ProtoError::BadVersion(PROTO_VERSION + 1)
        );
    }

    #[test]
    fn wrong_magic_is_rejected_on_the_first_byte() {
        let mut dec = FrameDecoder::new();
        dec.push(b"GET ");
        assert_eq!(dec.next_msg().unwrap_err(), ProtoError::BadMagic);
    }
}
