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
//! client → server   "DTH1" ver config cores trace epoch len words        (hello)
//!                   [ 0x00 core items len bytes ]*                       (transfer frames)
//!                   0x01 produced                                        (end frame)
//! ```
//!
//! All integers are little-endian: fixed-size fields parse with the
//! event codec's [`Reader`], the writers use this module's private
//! `w_*` helpers. Every length prefix is bounds-checked *before* any
//! allocation: frames against [`MAX_FRAME_BYTES`], hello image words
//! against [`MAX_HELLO_WORDS`], so a hostile or desynchronized stream
//! yields a typed error, never a panic or an unbounded buffer.
//!
//! The version byte ([`PROTO_VERSION`]) right after the magic lets a
//! consumer meeting a stream from a different build reject it as
//! [`ProtoError::BadVersion`] instead of misparsing the fields that
//! follow.

// Peer bytes reach this module: every read of them is checked.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fmt;
use std::io::{self, Write};

use difftest_event::wire::{CodecError, Reader};
use difftest_ref::Memory;

use crate::session::{DiffConfig, Session};
use crate::transport::Transfer;

/// Magic opening every client stream.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"DTH1";
/// Protocol revision carried right after the handshake magic. Version 2
/// was version 1 (the implicit, pre-extraction format) plus this very
/// byte; version 3 ended the (since retired) result blob with the
/// consumer's whole observation bundle; version 4 drops the hello's
/// consumer kill knob; version 5 delta-codes the order tag and token
/// heading each Tagged and Diff item inside transfer frames.
pub const PROTO_VERSION: u8 = 5;

/// Frame type: a [`Transfer`] packet.
pub const FRAME_TRANSFER: u8 = 0;
/// Frame type: end of stream, carrying the pre-fault produced count.
pub const FRAME_END: u8 = 1;

/// Upper bound on a transfer frame's length prefix; a larger prefix
/// means a desynchronized or hostile stream.
pub const MAX_FRAME_BYTES: usize = 1 << 24;
/// Upper bound on the hello's memory-image word count (the whole RAM).
pub const MAX_HELLO_WORDS: usize = (Memory::RAM_SIZE / 4) as usize;
/// Upper bound on the hello's advertised core count.
pub const MAX_CORES: u32 = 1024;

/// Fixed-size prefix of the hello: magic, version, config, cores, trace
/// flag, wall epoch, image word count.
const HELLO_HEADER: usize = 4 + 1 + 1 + 4 + 1 + 8 + 4;
/// Fixed-size prefix of a transfer frame: type, core, items, byte length.
const TRANSFER_HEADER: usize = 1 + 1 + 4 + 4;

/// What the producer tells the consumer before any frame flows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The optimization configuration both sides must agree on.
    pub config: DiffConfig,
    /// DUT core count (= reference models on the consumer).
    pub cores: u32,
    /// Span tracing requested: the consumer records its own track for
    /// the runner to merge with the producer's.
    pub trace: bool,
    /// The producer's wall-clock nanoseconds at its trace clock origin;
    /// the consumer shifts its spans by the epoch delta so producer and
    /// consumer land on one merged timeline.
    pub epoch_wall_ns: u64,
    /// The workload memory image, loaded at `Memory::RAM_BASE`.
    pub words: Vec<u32>,
}

impl Hello {
    /// The hello describing `session` (configuration, tracing) with the
    /// given workload image. The second argument is ignored: it set the
    /// retired consumer kill knob, and stays only for callers that still
    /// pass it.
    pub fn from_session(session: &Session, _ignored: u32, words: &[u32]) -> Hello {
        Hello {
            config: session.config(),
            cores: session.dut_cfg().cores,
            trace: session.tracer().is_some(),
            epoch_wall_ns: session.tracer().map_or(0, |t| t.epoch_wall_ns()),
            words: words.to_vec(),
        }
    }
}

/// One decoded client → server message.
#[derive(Debug)]
pub enum ClientMsg {
    /// Session setup; always the stream's first message.
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
    /// A field holds a value outside its domain (config byte, core
    /// count, frame type).
    BadValue(&'static str),
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
            ProtoError::BadValue(what) => write!(f, "bad {what}"),
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
    if let Some(&v) = avail.get(4).filter(|&&v| v != PROTO_VERSION) {
        return Err(ProtoError::BadVersion(v));
    }
    let Some(header) = avail.get(5..HELLO_HEADER) else {
        return Ok(None);
    };
    let mut r = Reader::new(header);
    let config = DiffConfig::from_wire(r.u8()?).ok_or(ProtoError::BadValue("config"))?;
    let cores = r.u32()?;
    if cores == 0 || cores > MAX_CORES {
        return Err(ProtoError::BadValue("core count"));
    }
    let trace = r.u8()? != 0;
    let epoch_wall_ns = r.u64()?;
    let len = r.u32()? as usize;
    if len > MAX_HELLO_WORDS {
        return Err(ProtoError::Oversize {
            what: "hello image",
            len: len as u64,
            max: MAX_HELLO_WORDS as u64,
        });
    }
    let total = HELLO_HEADER + len * 4;
    let Some(image) = avail.get(HELLO_HEADER..total) else {
        return Ok(None);
    };
    let mut words = Vec::with_capacity(len);
    let mut r = Reader::new(image);
    for _ in 0..len {
        words.push(r.u32()?);
    }
    Ok(Some((
        Hello {
            config,
            cores,
            trace,
            epoch_wall_ns,
            words,
        },
        total,
    )))
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

/// Writes the hello that opens a client stream.
pub fn write_hello<W: Write>(w: &mut W, hello: &Hello) -> io::Result<()> {
    w.write_all(&HANDSHAKE_MAGIC)?;
    w_u8(w, PROTO_VERSION)?;
    w_u8(w, hello.config.to_wire())?;
    w_u32(w, hello.cores)?;
    w_u8(w, u8::from(hello.trace))?;
    w_u64(w, hello.epoch_wall_ns)?;
    w_u32(w, hello.words.len() as u32)?;
    for &word in &hello.words {
        w_u32(w, word)?;
    }
    Ok(())
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

fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest_dut::DutConfig;
    use difftest_stats::MonotonicClock;
    use difftest_workload::Workload;
    use std::sync::Arc;

    #[test]
    fn hello_round_trips_through_the_decoder() {
        let w = Workload::microbench().seed(3).iterations(5).build();
        let session = Session::new(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            1_000,
            8,
            None,
        );
        let hello = Hello::from_session(&session, 0, w.words());
        let mut blob = Vec::new();
        write_hello(&mut blob, &hello).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&blob);
        let Some(ClientMsg::Hello(hs)) = dec.next_msg().unwrap() else {
            panic!("expected a decoded hello");
        };
        assert_eq!(hs, hello);
        assert!(dec.hello_seen());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn hello_carries_trace_epoch() {
        let w = Workload::microbench().seed(3).iterations(5).build();
        let clock = Arc::new(MonotonicClock::default());
        let session = Session::new(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            1_000,
            8,
            None,
        )
        .with_tracer(Some(difftest_stats::Tracer::with_clock(
            "/tmp/unused-trace.json",
            clock,
            123_456_789,
        )));
        let hello = Hello::from_session(&session, 0, w.words());
        let mut blob = Vec::new();
        write_hello(&mut blob, &hello).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&blob);
        let Some(ClientMsg::Hello(hs)) = dec.next_msg().unwrap() else {
            panic!("expected a decoded hello");
        };
        assert!(hs.trace);
        assert_eq!(hs.epoch_wall_ns, 123_456_789);
    }

    #[test]
    fn decoder_handles_arbitrary_fragmentation() {
        let w = Workload::microbench().seed(9).iterations(5).build();
        let session = Session::new(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            1_000,
            8,
            None,
        );
        let mut stream = Vec::new();
        write_hello(&mut stream, &Hello::from_session(&session, 0, w.words())).unwrap();
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
