//! The DTH wire protocol as a first-class layer: typed messages, an
//! incremental (non-blocking-read-safe) frame decoder, and the `DTHR`
//! result codec.
//!
//! The socket runner buried this format in its own module; extracting
//! it lets every transport speak the same bytes — the one-shot
//! [`crate::socket`] runner (a consumer thread per run) and the
//! persistent `difftest-serve` daemon (a thread per concurrent session)
//! are both thin clients of this module.
//!
//! # Wire format
//!
//! A session is one client → server byte stream and one server → client
//! result blob:
//!
//! ```text
//! client → server   "DTH1" ver config cores kill trace epoch len words   (hello)
//!                   [ 0x00 core items len bytes ]*                       (transfer frames)
//!                   0x01 produced                                        (end frame)
//! server → client   "DTHR" verdict mismatch link-error items link obs     (result blob)
//! ```
//!
//! All integers are little-endian: fixed-size fields parse with the
//! event codec's [`Reader`], the blocking `io` paths use this module's
//! private `w_*`/`r_*` helpers. Every length prefix is bounds-checked
//! *before* any allocation: frames against [`MAX_FRAME_BYTES`], hello
//! image words against [`MAX_HELLO_WORDS`], the result blob's [`Obs`]
//! counts against what one consumer can hold ([`Obs::read_from`]), so
//! a hostile or desynchronized stream yields a typed error, never a
//! panic or an unbounded buffer.
//!
//! The version byte ([`PROTO_VERSION`]) right after the magic is new
//! with this layer: both ends of a difftest build always agree on it,
//! and a daemon meeting a stream from a different build rejects it as
//! [`ProtoError::BadVersion`] instead of misparsing the fields that
//! follow.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;

use difftest_event::wire::{CodecError, Reader};
use difftest_ref::Memory;
use difftest_stats::Obs;

use crate::checker::{Mismatch, Verdict};
use crate::consume::ConsumerOutput;
use crate::fault::{LinkErrorKind, LinkStats};
use crate::session::{DiffConfig, Session};
use crate::transport::Transfer;

/// Magic opening every client stream.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"DTH1";
/// Magic opening every result blob.
pub const RESULT_MAGIC: [u8; 4] = *b"DTHR";
/// Protocol revision carried right after the handshake magic. Version 2
/// was version 1 (the implicit, pre-extraction format) plus this very
/// byte; version 3 ends the result blob with the consumer's whole
/// [`Obs`] instead of hand-picked phases, gauges, counters, flight
/// records and spans.
pub const PROTO_VERSION: u8 = 3;

/// Frame type: a [`Transfer`] packet.
pub const FRAME_TRANSFER: u8 = 0;
/// Frame type: end of stream, carrying the pre-fault produced count.
pub const FRAME_END: u8 = 1;

/// Upper bound on any length-prefixed field (frames, strings); a larger
/// prefix means a desynchronized or hostile stream.
pub const MAX_FRAME_BYTES: usize = 1 << 24;
/// Upper bound on the hello's memory-image word count (the whole RAM).
pub const MAX_HELLO_WORDS: usize = (Memory::RAM_SIZE / 4) as usize;
/// Upper bound on the hello's advertised core count.
pub const MAX_CORES: u32 = 1024;

/// Fixed-size prefix of the hello: magic, version, config, cores,
/// kill-after, trace flag, wall epoch, image word count.
const HELLO_HEADER: usize = 4 + 1 + 1 + 4 + 4 + 1 + 8 + 4;
/// Fixed-size prefix of a transfer frame: type, core, items, byte length.
const TRANSFER_HEADER: usize = 1 + 1 + 4 + 4;

/// Environment variable naming an external daemon for the socket runner
/// to connect to instead of pairing with an in-process consumer
/// (`unix:<path>` or `tcp:<host:port>`, see [`ServeAddr`]).
pub const SERVE_ADDR_ENV: &str = "DIFFTEST_SERVE_ADDR";

/// What the producer tells the consumer before any frame flows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The optimization configuration both sides must agree on.
    pub config: DiffConfig,
    /// DUT core count (= reference models on the consumer).
    pub cores: u32,
    /// Consumer self-kill knob (0 = disabled): exit abruptly right
    /// after delivering the n-th transfer frame, exercising the
    /// producer's typed link-error path.
    pub kill_after: u32,
    /// Span tracing requested: the consumer records its own tracks and
    /// ships them back in the result blob.
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
    /// given workload image and kill knob.
    pub fn from_session(session: &Session, kill_after: u32, words: &[u32]) -> Hello {
        Hello {
            config: session.config(),
            cores: session.dut_cfg().cores,
            kill_after,
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
        let avail = &self.buf[self.pos..];
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
    let n = avail.len().min(4);
    if avail[..n] != HANDSHAKE_MAGIC[..n] {
        return Err(ProtoError::BadMagic);
    }
    if avail.len() >= 5 && avail[4] != PROTO_VERSION {
        return Err(ProtoError::BadVersion(avail[4]));
    }
    if avail.len() < HELLO_HEADER {
        return Ok(None);
    }
    let mut r = Reader::new(&avail[5..HELLO_HEADER]);
    let config = DiffConfig::from_wire(r.u8()?).ok_or(ProtoError::BadValue("config"))?;
    let cores = r.u32()?;
    if cores == 0 || cores > MAX_CORES {
        return Err(ProtoError::BadValue("core count"));
    }
    let kill_after = r.u32()?;
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
    if avail.len() < total {
        return Ok(None);
    }
    let mut words = Vec::with_capacity(len);
    let mut r = Reader::new(&avail[HELLO_HEADER..total]);
    for _ in 0..len {
        words.push(r.u32()?);
    }
    Ok(Some((
        Hello {
            config,
            cores,
            kill_after,
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
            if avail.len() < TRANSFER_HEADER {
                return Ok(None);
            }
            let mut r = Reader::new(&avail[1..TRANSFER_HEADER]);
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
            if avail.len() < total {
                return Ok(None);
            }
            let bytes = avail[TRANSFER_HEADER..total].to_vec();
            Ok(Some((
                ClientMsg::Transfer(Transfer { bytes, core, items }),
                total,
            )))
        }
        FRAME_END => {
            if avail.len() < 5 {
                return Ok(None);
            }
            let mut r = Reader::new(&avail[1..5]);
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
    w_u32(w, hello.kill_after)?;
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

/// The consumer's output as the producer reads it back from the `DTHR`
/// blob: the same fields, its span tracks shifted onto the producer's
/// clock.
pub type ConsumerResult = ConsumerOutput;

/// Writes a finished consumer's output as the `DTHR` result blob.
pub fn write_result<W: Write>(w: &mut W, out: &ConsumerOutput) -> io::Result<()> {
    w.write_all(&RESULT_MAGIC)?;
    match out.verdict {
        Some(Verdict::Halt { core, good, pc }) => {
            w_u8(w, 1)?;
            w_u8(w, core)?;
            w_u8(w, u8::from(good))?;
            w_u64(w, pc)?;
        }
        // `Continue` and `None` both mean "no verified halt".
        _ => w_u8(w, 0)?,
    }
    match &out.mismatch {
        Some(m) => {
            w_u8(w, 1)?;
            w_u8(w, m.core)?;
            w_u64(w, m.seq)?;
            w_str(w, &m.check)?;
            w_str(w, &m.expected)?;
            w_str(w, &m.actual)?;
        }
        None => w_u8(w, 0)?,
    }
    match out.link_error {
        Some((kind, seq, core)) => {
            w_u8(w, 1)?;
            w_u8(w, kind as u8)?;
            w_u32(w, seq)?;
            w_u8(w, core)?;
        }
        None => w_u8(w, 0)?,
    }
    w_u64(w, out.items)?;
    for d in out.link.detected {
        w_u64(w, d)?;
    }
    w_u64(w, out.link.stale_dropped)?;
    w_u64(w, out.link.recovered)?;
    w_u64(w, out.link.retransmits)?;
    w_u64(w, out.link.retransmit_bytes)?;
    out.obs.write_to(w)
}

/// Reads a `DTHR` result blob back (the producer side). Any truncation
/// or domain violation is a typed [`io::ErrorKind::InvalidData`] /
/// `UnexpectedEof` error — the caller maps either onto its link-error
/// reporting.
pub fn read_result<R: Read>(r: &mut R) -> io::Result<ConsumerResult> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != RESULT_MAGIC {
        return Err(bad("result magic"));
    }
    let verdict = match r_u8(r)? {
        0 => None,
        _ => {
            let core = r_u8(r)?;
            let good = r_u8(r)? != 0;
            let pc = r_u64(r)?;
            Some(Verdict::Halt { core, good, pc })
        }
    };
    let mismatch = match r_u8(r)? {
        0 => None,
        _ => Some(Mismatch {
            core: r_u8(r)?,
            seq: r_u64(r)?,
            check: r_str(r)?,
            expected: r_str(r)?,
            actual: r_str(r)?,
        }),
    };
    let link_error = match r_u8(r)? {
        0 => None,
        _ => {
            let kind = link_error_kind_from_wire(r_u8(r)?)?;
            let seq = r_u32(r)?;
            let core = r_u8(r)?;
            Some((kind, seq, core))
        }
    };
    let items = r_u64(r)?;
    let mut link = LinkStats::default();
    for slot in &mut link.detected {
        *slot = r_u64(r)?;
    }
    link.stale_dropped = r_u64(r)?;
    link.recovered = r_u64(r)?;
    link.retransmits = r_u64(r)?;
    link.retransmit_bytes = r_u64(r)?;
    Ok(ConsumerOutput {
        verdict,
        mismatch,
        link_error,
        items,
        link,
        obs: Obs::read_from(r)?,
    })
}

fn link_error_kind_from_wire(b: u8) -> io::Result<LinkErrorKind> {
    LinkErrorKind::ALL
        .get(b as usize)
        .copied()
        .ok_or_else(|| bad("link error kind"))
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("dth wire: bad {what}"))
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

/// A `u32` length prefix followed by the UTF-8 bytes.
fn w_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn r_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a length-prefixed UTF-8 string, rejecting a prefix beyond
/// [`MAX_FRAME_BYTES`] (a desynchronized or hostile stream) *before*
/// allocating.
fn r_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = r_u32(r)? as usize;
    if len > MAX_FRAME_BYTES {
        return Err(bad("string length"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("string encoding"))
}

/// An address the verification service listens on (and a client
/// connects to): `unix:<path>` or `tcp:<host:port>`. This is the syntax
/// of both the [`SERVE_ADDR_ENV`] environment variable and the
/// `difftest-serve` CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A Unix-domain socket at the given filesystem path.
    Unix(PathBuf),
    /// A TCP endpoint (`host:port`).
    Tcp(String),
}

impl ServeAddr {
    /// Parses `unix:<path>` / `tcp:<host:port>`; `None` on anything else.
    pub fn parse(s: &str) -> Option<ServeAddr> {
        let s = s.trim();
        if let Some(path) = s.strip_prefix("unix:") {
            return (!path.is_empty()).then(|| ServeAddr::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            return (!addr.is_empty()).then(|| ServeAddr::Tcp(addr.to_string()));
        }
        None
    }
}

impl fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ServeAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::transport::SwUnit;
    use difftest_dut::DutConfig;
    use difftest_ref::RefModel;
    use difftest_stats::{
        FlightKind, FlightRecord, MonotonicClock, SpanBuf, SpanEvent, SpanKind, PID_CONSUMER,
    };
    use difftest_workload::Workload;
    use std::borrow::Cow;
    use std::sync::Arc;

    #[test]
    fn result_blob_round_trips() {
        let image = Memory::new();
        let consumer = crate::consume::Consumer::new(
            SwUnit::packed(1),
            Checker::new(vec![RefModel::new(image)], false),
        );
        let mut out = consumer.finish();
        out.items = 42;
        out.mismatch = Some(Mismatch {
            core: 1,
            seq: 7,
            check: "pc".into(),
            expected: "0x80000000".into(),
            actual: "0x80000004".into(),
        });
        out.link_error = Some((LinkErrorKind::Gap, 9, 1));
        out.link.note(LinkErrorKind::Gap);
        out.obs.metrics.counters.set("decode.hits", 4055);
        let h = out.obs.metrics.register_histogram("packet.bytes");
        out.obs.metrics.record(h, 17);
        out.obs.metrics.record(h, 4096);
        out.obs.flight.records.push(FlightRecord {
            kind: FlightKind::Mismatch,
            core: 1,
            seq: 9,
            cycle: 1234,
            value: 7,
        });
        out.obs.spans = vec![SpanBuf {
            pid: PID_CONSUMER,
            tid: 0,
            process: "consumer".into(),
            track: "consumer".into(),
            events: vec![
                SpanEvent {
                    kind: SpanKind::FlowIn,
                    name: Cow::Borrowed("pkt"),
                    ts_ns: 10,
                    dur_ns: 0,
                    id: 3,
                },
                SpanEvent {
                    kind: SpanKind::Span,
                    name: Cow::Borrowed("unpack"),
                    ts_ns: 10,
                    dur_ns: 25,
                    id: 3,
                },
            ],
            recorded: 2,
            dropped: 0,
        }];
        let mut blob = Vec::new();
        write_result(&mut blob, &out).unwrap();
        let res = read_result(&mut blob.as_slice()).unwrap();
        assert_eq!(res.items, 42);
        let m = res.mismatch.unwrap();
        assert_eq!((m.core, m.seq), (1, 7));
        assert_eq!(m.actual, "0x80000004");
        assert_eq!(res.link_error, Some((LinkErrorKind::Gap, 9, 1)));
        assert_eq!(res.link.count(LinkErrorKind::Gap), 1);
        assert_eq!(res.obs.flight.records.len(), 1);
        assert_eq!(res.obs.flight.records[0].kind, FlightKind::Mismatch);
        assert_eq!(res.obs.flight.records[0].cycle, 1234);
        assert_eq!(res.obs.spans, out.obs.spans);
        assert_eq!(res.obs.metrics.counters.get("decode.hits"), 4055);
        let h = res.obs.metrics.histogram("packet.bytes").unwrap();
        assert_eq!((h.count(), h.max()), (2, 4096));
        assert_eq!(res.obs, out.obs);
    }

    #[test]
    fn result_blob_omits_empty_span_section() {
        let image = Memory::new();
        let consumer = crate::consume::Consumer::new(
            SwUnit::packed(1),
            Checker::new(vec![RefModel::new(image)], false),
        );
        let out = consumer.finish();
        let mut blob = Vec::new();
        write_result(&mut blob, &out).unwrap();
        let res = read_result(&mut blob.as_slice()).unwrap();
        assert!(res.obs.spans.is_empty());
    }

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
        let hello = Hello::from_session(&session, 5, w.words());
        let mut blob = Vec::new();
        write_hello(&mut blob, &hello).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&blob);
        let Some(ClientMsg::Hello(hs)) = dec.next_msg().unwrap() else {
            panic!("expected a decoded hello");
        };
        assert_eq!(hs, hello);
        assert_eq!(hs.kill_after, 5);
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

    #[test]
    fn flight_kinds_survive_the_wire() {
        let consumer = crate::consume::Consumer::new(
            SwUnit::packed(1),
            Checker::new(vec![RefModel::new(Memory::new())], false),
        );
        let mut out = consumer.finish();
        for (seq, kind) in FlightKind::ALL.into_iter().enumerate() {
            out.obs.flight.records.push(FlightRecord {
                kind,
                core: 0,
                seq: seq as u32,
                cycle: 0,
                value: 0,
            });
        }
        let mut blob = Vec::new();
        write_result(&mut blob, &out).unwrap();
        let res = read_result(&mut blob.as_slice()).unwrap();
        assert_eq!(res.obs.flight, out.obs.flight);
        // The first record's kind byte: after the flight count, which
        // follows the trailing evicted count and empty span section.
        let kind_at = blob.len() - 8 - 4 - 22 * FlightKind::ALL.len();
        blob[kind_at] = 7;
        assert!(read_result(&mut blob.as_slice()).is_err());
        for k in LinkErrorKind::ALL {
            assert_eq!(link_error_kind_from_wire(k as u8).unwrap(), k);
        }
        assert!(link_error_kind_from_wire(5).is_err());
    }

    #[test]
    fn io_helpers_round_trip() {
        let mut blob = Vec::new();
        w_u8(&mut blob, 7).unwrap();
        w_u32(&mut blob, 42).unwrap();
        w_u64(&mut blob, u64::MAX).unwrap();
        w_str(&mut blob, "difftest").unwrap();
        let mut r = blob.as_slice();
        assert_eq!(r_u8(&mut r).unwrap(), 7);
        assert_eq!(r_u32(&mut r).unwrap(), 42);
        assert_eq!(r_u64(&mut r).unwrap(), u64::MAX);
        assert_eq!(r_str(&mut r).unwrap(), "difftest");
    }

    #[test]
    fn hostile_string_prefix_is_rejected_before_allocation() {
        let mut blob = Vec::new();
        w_u32(&mut blob, u32::MAX).unwrap();
        let err = r_str(&mut blob.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn serve_addr_parses_and_displays() {
        assert_eq!(
            ServeAddr::parse("unix:/tmp/x.sock"),
            Some(ServeAddr::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            ServeAddr::parse("tcp:127.0.0.1:4100"),
            Some(ServeAddr::Tcp("127.0.0.1:4100".into()))
        );
        assert_eq!(ServeAddr::parse("udp:nope"), None);
        assert_eq!(ServeAddr::parse("unix:"), None);
        assert_eq!(
            ServeAddr::parse("tcp:h:1").map(|a| a.to_string()),
            Some("tcp:h:1".into())
        );
    }
}
