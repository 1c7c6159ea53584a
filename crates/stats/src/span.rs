//! Causal span tracing: bounded per-thread span buffers over the
//! injectable [`Clock`], with an offline analysis pass.
//!
//! The metrics registry (DESIGN.md §10) answers *how much* time each
//! phase took in aggregate; spans answer *where a specific packet's
//! wall-time went* as it crossed producer → link → consumer. Each
//! runner hands out one [`SpanSink`] per thread of execution (producer
//! loop, consumer); a sink records complete spans
//! (name, start, duration), flow endpoints that link a packet's
//! pack→transport→unpack→check spans by `seq`, and counter samples.
//! Everything is keyed to a *track* — a `(pid, tid)` pair plus
//! human-readable names — so the Chrome-trace export
//! ([`crate::chrometrace`]) can lay the run out as one timeline per
//! thread.
//!
//! Tracing is off unless a [`Tracer`] is installed (normally from the
//! `DIFFTEST_TRACE` environment variable); a disabled sink is a single
//! branch on the hot path and records nothing.

use crate::metrics::Clock;
use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Environment variable naming the Chrome-trace output path.
pub const TRACE_ENV: &str = "DIFFTEST_TRACE";

/// Trace process id for producer-side tracks (DUT loop, send path).
pub const PID_PRODUCER: u32 = 1;
/// Trace process id for consumer-side tracks. The consumer is a thread
/// in every runner, but its tracks take their own pid so producer and
/// consumer read as two lanes on every runner's timeline.
pub const PID_CONSUMER: u32 = 2;

/// Default per-sink event capacity; past it, events are counted as
/// dropped rather than grown without bound.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// What a recorded [`SpanEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A complete duration span (`"ph":"X"`).
    Span,
    /// A flow origin (`"ph":"s"`): this side hands a causal id off.
    FlowOut,
    /// A flow target (`"ph":"f"`): this side picks a causal id up.
    FlowIn,
    /// A counter sample (`"ph":"C"`); `id` carries the value.
    Counter,
}

/// One recorded event on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event flavor.
    pub kind: SpanKind,
    /// Event name ("pack", "unpack", "check", ...).
    pub name: Cow<'static, str>,
    /// Start time in clock nanoseconds.
    pub ts_ns: u64,
    /// Duration in nanoseconds (zero for flows and counters).
    pub dur_ns: u64,
    /// Causal tag: packet `seq` for spans and flows, the sampled value
    /// for counters, interval index for interval spans.
    pub id: u64,
}

/// A finished per-thread buffer of events plus its track identity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanBuf {
    /// Trace process id ([`PID_PRODUCER`] / [`PID_CONSUMER`]).
    pub pid: u32,
    /// Trace thread id, unique within the pid.
    pub tid: u32,
    /// Human-readable process name ("producer", "consumer").
    pub process: String,
    /// Human-readable track name ("dut", "consumer").
    pub track: String,
    /// The recorded events, in completion order (not start order).
    pub events: Vec<SpanEvent>,
    /// Events successfully recorded into `events`.
    pub recorded: u64,
    /// Events rejected because the buffer was at capacity.
    pub dropped: u64,
}

impl SpanBuf {
    /// True when nothing was recorded (disabled sink or idle track).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The zero clock backing disabled sinks; never read on the hot path
/// (the `enabled` check short-circuits first).
#[derive(Debug, Default)]
struct ZeroClock;

impl Clock for ZeroClock {
    fn now_ns(&self) -> u64 {
        0
    }
}

/// A bounded, single-threaded span recorder. One per producer loop /
/// consumer; never shared across threads (each thread owns
/// its sink and the buffers are gathered after joins).
pub struct SpanSink {
    enabled: bool,
    cap: usize,
    clock: Arc<dyn Clock + Send + Sync>,
    buf: SpanBuf,
}

impl fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanSink")
            .field("enabled", &self.enabled)
            .field("cap", &self.cap)
            .field("buf", &self.buf)
            .finish_non_exhaustive()
    }
}

impl Default for SpanSink {
    fn default() -> Self {
        SpanSink::disabled()
    }
}

impl SpanSink {
    /// A sink that records nothing; one branch per call site.
    pub fn disabled() -> SpanSink {
        SpanSink {
            enabled: false,
            cap: 0,
            clock: Arc::new(ZeroClock),
            buf: SpanBuf::default(),
        }
    }

    /// An enabled sink on the given track. Prefer [`Tracer::sink`].
    pub fn on_track(
        clock: Arc<dyn Clock + Send + Sync>,
        cap: usize,
        pid: u32,
        tid: u32,
        process: &str,
        track: &str,
    ) -> SpanSink {
        SpanSink {
            enabled: true,
            cap,
            clock,
            buf: SpanBuf {
                pid,
                tid,
                process: process.to_string(),
                track: track.to_string(),
                events: Vec::new(),
                recorded: 0,
                dropped: 0,
            },
        }
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reads the clock, or returns 0 when disabled. Pass the value to
    /// [`end`](Self::end); the split keeps borrows of the traced state
    /// out of the sink, mirroring [`crate::PhaseTimer`].
    #[inline]
    pub fn start(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.clock.now_ns()
    }

    /// Closes a span opened at `started_ns` under `name`, tagged `id`.
    #[inline]
    pub fn end(&mut self, name: &'static str, started_ns: u64, id: u64) {
        if !self.enabled {
            return;
        }
        let now = self.clock.now_ns();
        self.push(SpanEvent {
            kind: SpanKind::Span,
            name: Cow::Borrowed(name),
            ts_ns: started_ns,
            dur_ns: now.saturating_sub(started_ns),
            id,
        });
    }

    /// Records a flow origin (`id` is the causal tag, normally `seq`).
    #[inline]
    pub fn flow_out(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let now = self.clock.now_ns();
        self.push(SpanEvent {
            kind: SpanKind::FlowOut,
            name: Cow::Borrowed(name),
            ts_ns: now,
            dur_ns: 0,
            id,
        });
    }

    /// Records a flow target matching an earlier [`flow_out`](Self::flow_out).
    #[inline]
    pub fn flow_in(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let now = self.clock.now_ns();
        self.push(SpanEvent {
            kind: SpanKind::FlowIn,
            name: Cow::Borrowed(name),
            ts_ns: now,
            dur_ns: 0,
            id,
        });
    }

    /// Records a counter sample (renders as a counter track).
    #[inline]
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let now = self.clock.now_ns();
        self.push(SpanEvent {
            kind: SpanKind::Counter,
            name: Cow::Borrowed(name),
            ts_ns: now,
            dur_ns: 0,
            id: value,
        });
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.buf.events.len() >= self.cap {
            self.buf.dropped += 1;
            return;
        }
        self.buf.recorded += 1;
        self.buf.events.push(ev);
    }

    /// Consumes the sink, returning its buffer (empty when disabled).
    pub fn into_buf(self) -> SpanBuf {
        self.buf
    }

    /// Takes the buffer out, leaving the sink disabled and empty.
    pub fn take_buf(&mut self) -> SpanBuf {
        self.enabled = false;
        std::mem::take(&mut self.buf)
    }
}

/// Shared trace configuration: where the trace goes and which clock
/// spans read. Every sink a tracer hands out reads its one clock, so
/// all of a run's tracks share one timeline.
#[derive(Clone)]
pub struct Tracer {
    path: PathBuf,
    clock: Arc<dyn Clock + Send + Sync>,
    capacity: usize,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("path", &self.path)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer writing to `path` over a fresh real monotonic clock.
    pub fn to_path(path: impl Into<PathBuf>) -> Tracer {
        Tracer::with_clock(path, Arc::new(crate::metrics::MonotonicClock::default()))
    }

    /// Reads [`TRACE_ENV`]; `None` (tracing off) when unset or empty.
    pub fn from_env() -> Option<Tracer> {
        match std::env::var_os(TRACE_ENV) {
            Some(path) if !path.is_empty() => Some(Tracer::to_path(PathBuf::from(path))),
            _ => None,
        }
    }

    /// A tracer over an explicit clock; tests drive this with a
    /// [`crate::FakeClock`] for deterministic timestamps.
    pub fn with_clock(path: impl Into<PathBuf>, clock: Arc<dyn Clock + Send + Sync>) -> Tracer {
        Tracer {
            path: path.into(),
            clock,
            capacity: DEFAULT_SPAN_CAPACITY,
        }
    }

    /// Overrides the per-sink event capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Tracer {
        self.capacity = capacity;
        self
    }

    /// The trace output path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The tracer's clock (shared by every sink it hands out).
    pub fn clock(&self) -> Arc<dyn Clock + Send + Sync> {
        Arc::clone(&self.clock)
    }

    /// An enabled sink on the named track.
    pub fn sink(&self, pid: u32, tid: u32, process: &str, track: &str) -> SpanSink {
        SpanSink::on_track(
            Arc::clone(&self.clock),
            self.capacity,
            pid,
            tid,
            process,
            track,
        )
    }
}

// ---------------------------------------------------------------------------
// Offline analysis: group stats and per-seq critical paths.
// ---------------------------------------------------------------------------

/// Aggregate statistics for one span name across a set of buffers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanGroup {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total wall nanoseconds across those spans.
    pub total_ns: u64,
    /// Total minus time covered by spans nested inside them on the
    /// same track (the span's own work).
    pub self_ns: u64,
}

/// One hop of a packet's critical path: where it was, when, for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalStep {
    /// Track the span ran on ("dut", "consumer").
    pub track: String,
    /// Span name ("pack", "unpack", "check", ...).
    pub name: String,
    /// Start time (aligned nanoseconds).
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A borrowed view over gathered [`SpanBuf`]s with typed filters,
/// patterned after [`crate::TraceQuery`]: narrow with the filter
/// methods, then aggregate.
#[derive(Debug, Clone)]
pub struct SpanQuery<'a> {
    rows: Vec<(&'a SpanBuf, &'a SpanEvent)>,
}

impl<'a> SpanQuery<'a> {
    /// A query over every event in every buffer.
    pub fn new(bufs: &'a [SpanBuf]) -> SpanQuery<'a> {
        let rows = bufs
            .iter()
            .flat_map(|b| b.events.iter().map(move |e| (b, e)))
            .collect();
        SpanQuery { rows }
    }

    /// Number of rows in the current selection.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the selection is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Narrows with an arbitrary predicate.
    pub fn filter(self, mut pred: impl FnMut(&SpanBuf, &SpanEvent) -> bool) -> SpanQuery<'a> {
        SpanQuery {
            rows: self.rows.into_iter().filter(|(b, e)| pred(b, e)).collect(),
        }
    }

    /// Only events of `kind`.
    pub fn kind(self, kind: SpanKind) -> SpanQuery<'a> {
        self.filter(move |_, e| e.kind == kind)
    }

    /// Only complete spans.
    pub fn spans(self) -> SpanQuery<'a> {
        self.kind(SpanKind::Span)
    }

    /// Only events named `name`.
    pub fn named(self, name: &str) -> SpanQuery<'a> {
        let name = name.to_string();
        self.filter(move |_, e| e.name == name)
    }

    /// Only events on the named track.
    pub fn on_track(self, track: &str) -> SpanQuery<'a> {
        let track = track.to_string();
        self.filter(move |b, _| b.track == track)
    }

    /// Only events with causal tag `id` (packet seq, interval index).
    pub fn tagged(self, id: u64) -> SpanQuery<'a> {
        self.filter(move |_, e| e.id == id)
    }

    /// The selected rows as `(buf, event)` pairs.
    pub fn rows(&self) -> &[(&'a SpanBuf, &'a SpanEvent)] {
        &self.rows
    }

    /// Groups complete spans by name with count / total / self-time.
    /// Self-time subtracts child spans nested inside on the same track;
    /// results are sorted by descending total.
    pub fn group_stats(&self) -> Vec<SpanGroup> {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<&str, SpanGroup> = BTreeMap::new();
        // Per-track nesting pass: sort spans by (ts, dur desc), walk a
        // stack of open spans, and charge each child's duration against
        // its innermost enclosing parent's self-time.
        let mut by_track: BTreeMap<(u32, u32), Vec<&SpanEvent>> = BTreeMap::new();
        for (b, e) in &self.rows {
            if e.kind == SpanKind::Span {
                by_track.entry((b.pid, b.tid)).or_default().push(e);
            }
        }
        for spans in by_track.values_mut() {
            spans.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(b.dur_ns.cmp(&a.dur_ns)));
            let mut stack: Vec<&SpanEvent> = Vec::new();
            for ev in spans.iter() {
                while let Some(top) = stack.last() {
                    if top.ts_ns.saturating_add(top.dur_ns) <= ev.ts_ns {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let g = groups.entry(ev.name.as_ref()).or_default();
                g.count += 1;
                g.total_ns += ev.dur_ns;
                g.self_ns += ev.dur_ns;
                if let Some(parent) = stack.last() {
                    let pg = groups.entry(parent.name.as_ref()).or_default();
                    pg.self_ns = pg.self_ns.saturating_sub(ev.dur_ns);
                }
                stack.push(ev);
            }
        }
        let mut out: Vec<SpanGroup> = groups
            .into_iter()
            .map(|(name, mut g)| {
                g.name = name.to_string();
                g
            })
            .collect();
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        out
    }

    /// The critical path of causal tag `seq`: every complete span
    /// carrying that tag, ordered by start time — pack on the producer
    /// track, unpack/check on the consumer track.
    pub fn critical_path(&self, seq: u64) -> Vec<CriticalStep> {
        let mut steps: Vec<CriticalStep> = self
            .rows
            .iter()
            .filter(|(_, e)| e.kind == SpanKind::Span && e.id == seq)
            .map(|(b, e)| CriticalStep {
                track: b.track.clone(),
                name: e.name.to_string(),
                ts_ns: e.ts_ns,
                dur_ns: e.dur_ns,
            })
            .collect();
        steps.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(a.name.cmp(&b.name)));
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FakeClock;

    fn fake_tracer(clock: &Arc<FakeClock>) -> Tracer {
        let c: Arc<dyn Clock + Send + Sync> = Arc::clone(clock) as _;
        Tracer::with_clock("/tmp/unused.json", c)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = SpanSink::disabled();
        assert!(!s.enabled());
        let t0 = s.start();
        assert_eq!(t0, 0);
        s.end("pack", t0, 7);
        s.flow_out("pkt", 7);
        s.counter("depth", 3);
        let buf = s.into_buf();
        assert!(buf.is_empty());
        assert_eq!(buf.recorded, 0);
        assert_eq!(buf.dropped, 0);
    }

    #[test]
    fn spans_carry_deterministic_timestamps() {
        let clock = Arc::new(FakeClock::new());
        let tracer = fake_tracer(&clock);
        let mut s = tracer.sink(PID_PRODUCER, 0, "producer", "dut");
        clock.advance(100);
        let t0 = s.start();
        clock.advance(250);
        s.end("pack", t0, 42);
        s.flow_out("pkt", 42);
        let buf = s.into_buf();
        assert_eq!(buf.recorded, 2);
        assert_eq!(
            buf.events[0],
            SpanEvent {
                kind: SpanKind::Span,
                name: Cow::Borrowed("pack"),
                ts_ns: 100,
                dur_ns: 250,
                id: 42,
            }
        );
        assert_eq!(buf.events[1].kind, SpanKind::FlowOut);
        assert_eq!(buf.events[1].ts_ns, 350);
        assert_eq!(buf.events[1].id, 42);
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let clock = Arc::new(FakeClock::new());
        let tracer = fake_tracer(&clock).with_capacity(3);
        let mut s = tracer.sink(PID_PRODUCER, 0, "p", "t");
        for i in 0..5 {
            let t0 = s.start();
            clock.advance(10);
            s.end("pack", t0, i);
        }
        let buf = s.into_buf();
        assert_eq!(buf.events.len(), 3);
        assert_eq!(buf.recorded, 3);
        assert_eq!(buf.dropped, 2);
    }

    fn span(name: &'static str, ts: u64, dur: u64, id: u64) -> SpanEvent {
        SpanEvent {
            kind: SpanKind::Span,
            name: Cow::Borrowed(name),
            ts_ns: ts,
            dur_ns: dur,
            id,
        }
    }

    #[test]
    fn group_stats_compute_self_time() {
        // Track 0: ingest [0,100) containing unpack [10,30) and
        // check [40,90); a second ingest [100,150) with nothing nested.
        let buf = SpanBuf {
            pid: PID_CONSUMER,
            tid: 0,
            process: "consumer".into(),
            track: "consumer".into(),
            events: vec![
                span("unpack", 10, 20, 1),
                span("check", 40, 50, 1),
                span("ingest", 0, 100, 1),
                span("ingest", 100, 50, 2),
            ],
            recorded: 4,
            dropped: 0,
        };
        let bufs = [buf];
        let q = SpanQuery::new(&bufs);
        let groups = q.group_stats();
        let get = |name: &str| groups.iter().find(|g| g.name == name).unwrap().clone();
        let ingest = get("ingest");
        assert_eq!(ingest.count, 2);
        assert_eq!(ingest.total_ns, 150);
        assert_eq!(ingest.self_ns, 150 - 20 - 50);
        let unpack = get("unpack");
        assert_eq!(unpack.total_ns, 20);
        assert_eq!(unpack.self_ns, 20);
        assert_eq!(groups[0].name, "ingest", "sorted by total desc");
    }

    #[test]
    fn critical_path_orders_by_start_across_tracks() {
        let producer = SpanBuf {
            pid: PID_PRODUCER,
            tid: 0,
            process: "producer".into(),
            track: "dut".into(),
            events: vec![span("pack", 0, 40, 7), span("pack", 200, 10, 8)],
            recorded: 2,
            dropped: 0,
        };
        let consumer = SpanBuf {
            pid: PID_CONSUMER,
            tid: 0,
            process: "consumer".into(),
            track: "consumer".into(),
            events: vec![span("unpack", 60, 20, 7), span("check", 85, 30, 7)],
            recorded: 2,
            dropped: 0,
        };
        let bufs = [producer, consumer];
        let path = SpanQuery::new(&bufs).critical_path(7);
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["pack", "unpack", "check"]);
        assert_eq!(path[0].track, "dut");
        assert_eq!(path[1].track, "consumer");
        assert!(path.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn query_filters_narrow() {
        let bufs = [SpanBuf {
            pid: 1,
            tid: 0,
            process: "p".into(),
            track: "dut".into(),
            events: vec![
                span("pack", 0, 10, 1),
                span("pack", 20, 10, 2),
                SpanEvent {
                    kind: SpanKind::FlowOut,
                    name: Cow::Borrowed("pkt"),
                    ts_ns: 5,
                    dur_ns: 0,
                    id: 1,
                },
            ],
            recorded: 3,
            dropped: 0,
        }];
        let q = SpanQuery::new(&bufs);
        assert_eq!(q.len(), 3);
        assert_eq!(q.clone().spans().len(), 2);
        assert_eq!(q.clone().named("pkt").len(), 1);
        assert_eq!(q.clone().tagged(1).len(), 2);
        assert_eq!(q.clone().on_track("dut").len(), 3);
        assert!(q.on_track("nope").is_empty());
    }
}
