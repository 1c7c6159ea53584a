//! The metrics registry: counters, gauges, histograms and phase timing
//! behind one merge-able, exportable surface.
//!
//! [`Metrics`] is what a runner carries through a run and attaches to its
//! report. Histograms are registered once up front and recorded by
//! integer [`HistogramId`] handle, so the per-packet hot path performs no
//! name lookup and no allocation. Phase wall-time is attributed through a
//! [`PhaseTimer`] over an injectable monotonic [`Clock`], so tests can
//! drive timing deterministically with a [`FakeClock`].
//!
//! Setting `DIFFTEST_OBS=<path>` makes every runner append its metrics
//! (and, on failure, its flight-recorder snapshot) to `<path>` as JSONL
//! via [`export_to_env`].

use std::borrow::Cow;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::histogram::Histogram;
use crate::recorder::FlightSnapshot;

/// Environment variable naming the JSONL observability export path.
pub const OBS_ENV: &str = "DIFFTEST_OBS";

/// One pipeline phase wall-time is attributed to (per runner, per
/// thread of execution). The taxonomy is fixed so exports from different
/// runners line up column-for-column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Advancing the DUT one cycle.
    Tick = 0,
    /// Capturing/retaining monitored events (replay ring, staging).
    Monitor = 1,
    /// Hardware-side fusion + tight packing.
    Pack = 2,
    /// Crossing the link: fault model, channel sends, routing.
    Transport = 3,
    /// Software-side CRC verify + meta-guided unpacking.
    Unpack = 4,
    /// Stepping the reference model and comparing.
    Check = 5,
    /// Loss recovery: retention-ring retransmits, replay localization.
    Arq = 6,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 7;

    /// Every phase, in attribution order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Tick,
        Phase::Monitor,
        Phase::Pack,
        Phase::Transport,
        Phase::Unpack,
        Phase::Check,
        Phase::Arq,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Tick => "tick",
            Phase::Monitor => "monitor",
            Phase::Pack => "pack",
            Phase::Transport => "transport",
            Phase::Unpack => "unpack",
            Phase::Check => "check",
            Phase::Arq => "arq",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-time per [`Phase`] in nanoseconds — plain mergeable data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; Phase::COUNT],
}

impl PhaseTimes {
    /// Adds `nanos` to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase as usize] += nanos;
    }

    /// Nanoseconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Sums another attribution into this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += b;
        }
    }

    /// Total attributed nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Iterates `(phase, nanos)` in taxonomy order (all phases, even
    /// zero ones — exports must always carry the full taxonomy).
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.nanos[p as usize]))
    }
}

/// A monotonic nanosecond clock. Runners use [`MonotonicClock`]; tests
/// inject [`FakeClock`] to make phase attribution deterministic.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin; never decreases.
    fn now_ns(&self) -> u64;
}

/// The real monotonic clock ([`Instant`]-based).
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for MonotonicClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A manually advanced clock for deterministic timing tests. Atomic (not
/// `Cell`) so one clock can be shared behind an `Arc` by every span sink
/// and phase timer in a multi-threaded deterministic run.
#[derive(Debug, Default)]
pub struct FakeClock {
    now: std::sync::atomic::AtomicU64,
}

impl FakeClock {
    /// Starts at time zero.
    pub fn new() -> Self {
        FakeClock::default()
    }

    /// Advances the clock by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.now
            .fetch_add(nanos, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.now.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Attributes wall-time spans to phases against an injectable clock.
#[derive(Debug)]
pub struct PhaseTimer<C: Clock = MonotonicClock> {
    clock: C,
    times: PhaseTimes,
}

impl PhaseTimer<MonotonicClock> {
    /// A timer over the real monotonic clock.
    pub fn monotonic() -> Self {
        PhaseTimer::with_clock(MonotonicClock::default())
    }
}

impl Default for PhaseTimer<MonotonicClock> {
    fn default() -> Self {
        PhaseTimer::monotonic()
    }
}

impl<C: Clock> PhaseTimer<C> {
    /// A timer over an explicit clock (tests use [`FakeClock`]).
    pub fn with_clock(clock: C) -> Self {
        PhaseTimer {
            clock,
            times: PhaseTimes::default(),
        }
    }

    /// Reads the clock; pass the value to [`stop`](Self::stop) to close
    /// the span. Split start/stop (rather than a closure) keeps borrows
    /// of the measured state out of the timer.
    #[inline]
    pub fn start(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Closes a span opened at `started_ns`, attributing it to `phase`.
    #[inline]
    pub fn stop(&mut self, phase: Phase, started_ns: u64) {
        self.lap(phase, started_ns);
    }

    /// Closes a span opened at `since`, attributing it to `phase`, and
    /// returns the reading that closed it, which opens the next span: a
    /// chain of back-to-back phases ("laps") reads the clock once per
    /// phase, not twice.
    #[inline]
    pub fn lap(&mut self, phase: Phase, since: u64) -> u64 {
        let now = self.clock.now_ns();
        self.times.add(phase, now.saturating_sub(since));
        now
    }

    /// Times a closure as one span of `phase`.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = self.start();
        let r = f();
        self.stop(phase, t0);
        r
    }

    /// The attribution so far.
    pub fn times(&self) -> PhaseTimes {
        self.times
    }
}

/// Stable handle to a registered histogram (index into the registry; no
/// name lookup on the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Stable handle to a registered gauge. Like [`HistogramId`], updating
/// through the handle is an indexed store — no name comparison or map
/// probe per update, which matters for gauges refreshed inside runner
/// hot loops (queue depths, pool occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// The registry a runner carries: counters + gauges + histograms +
/// phase attribution, merged deterministically across threads and
/// exported as JSONL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Monotonic named counters (the existing [`Counters`] primitive).
    ///
    /// [`Counters`]: crate::Counters
    pub counters: crate::Counters,
    /// Phase wall-time attribution.
    pub phases: PhaseTimes,
    gauge_names: Vec<Cow<'static, str>>,
    gauge_vals: Vec<u64>,
    hist_names: Vec<Cow<'static, str>>,
    hists: Vec<Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Registers (or finds) the histogram `name`, returning its handle.
    /// Registration allocates the fixed bucket array; recording never
    /// allocates.
    pub fn register_histogram(&mut self, name: impl Into<Cow<'static, str>>) -> HistogramId {
        let name = name.into();
        if let Some(i) = self.hist_names.iter().position(|n| *n == name) {
            return HistogramId(i);
        }
        self.hist_names.push(name);
        self.hists.push(Histogram::new());
        HistogramId(self.hists.len() - 1)
    }

    /// Records one sample into a registered histogram — O(1), no lookup.
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.hists[id.0].record(value);
    }

    /// Looks a histogram up by name (export/analysis path).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hist_names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.hists[i])
    }

    /// Iterates `(name, histogram)` in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.hist_names
            .iter()
            .map(Cow::as_ref)
            .zip(self.hists.iter())
    }

    /// Registers (or finds) the gauge `name`, returning its handle.
    /// A fresh gauge starts at zero.
    pub fn register_gauge(&mut self, name: impl Into<Cow<'static, str>>) -> GaugeId {
        let name = name.into();
        if let Some(i) = self.gauge_names.iter().position(|n| *n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name);
        self.gauge_vals.push(0);
        GaugeId(self.gauge_vals.len() - 1)
    }

    /// Sets a registered gauge to its latest value — O(1), no lookup.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: u64) {
        self.gauge_vals[id.0] = value;
    }

    /// Raises a registered gauge to `value` if it is larger (a running
    /// high-water mark) — O(1), no lookup.
    #[inline]
    pub fn set_max(&mut self, id: GaugeId, value: u64) {
        let slot = &mut self.gauge_vals[id.0];
        *slot = (*slot).max(value);
    }

    /// Sets gauge `name` to its latest value, registering it first if
    /// needed. Convenience for cold paths; hot loops should hold a
    /// [`GaugeId`] and call [`set`](Self::set).
    pub fn set_gauge(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        let id = self.register_gauge(name);
        self.set(id, value);
    }

    /// Reads gauge `name` (zero if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauge_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.gauge_vals[i])
            .unwrap_or(0)
    }

    /// Iterates `(name, value)` in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.gauge_names
            .iter()
            .map(Cow::as_ref)
            .zip(self.gauge_vals.iter().copied())
    }

    /// Merges another registry into this one. Deterministic regardless
    /// of thread scheduling: counters and histograms sum (histograms
    /// matched by name, unknown names appended in the other's
    /// registration order), gauges take the maximum, phases sum.
    pub fn merge(&mut self, other: &Metrics) {
        self.counters.merge(&other.counters);
        self.phases.merge(&other.phases);
        for (name, value) in other.gauge_names.iter().zip(other.gauge_vals.iter()) {
            match self.gauge_names.iter().position(|n| n == name) {
                Some(i) => self.gauge_vals[i] = self.gauge_vals[i].max(*value),
                None => {
                    self.gauge_names.push(name.clone());
                    self.gauge_vals.push(*value);
                }
            }
        }
        for (name, hist) in other.hist_names.iter().zip(other.hists.iter()) {
            match self.hist_names.iter().position(|n| n == name) {
                Some(i) => self.hists[i].merge(hist),
                None => {
                    self.hist_names.push(name.clone());
                    self.hists.push(hist.clone());
                }
            }
        }
    }

    /// Renders the registry as JSON Lines: one `run` header, then one
    /// line per counter, gauge, histogram summary, and phase (all seven
    /// phases always, even when zero).
    pub fn to_jsonl(&self, runner: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"run\",\"runner\":\"{}\"}}\n",
            escape_json(runner)
        ));
        for (name, value) in self.counters.iter() {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}\n",
                escape_json(name)
            ));
        }
        for (name, value) in self.gauges() {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}\n",
                escape_json(name)
            ));
        }
        for (name, h) in self.histograms() {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{}}}\n",
                escape_json(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
            ));
        }
        for (phase, nanos) in self.phases.iter() {
            out.push_str(&format!(
                "{{\"type\":\"phase\",\"name\":\"{}\",\"nanos\":{nanos}}}\n",
                phase.name()
            ));
        }
        out
    }

    /// Appends this registry (and an optional flight-recorder snapshot)
    /// to the JSONL file at `path`, creating it if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from opening or writing the file.
    pub fn export_jsonl(
        &self,
        path: &Path,
        runner: &str,
        flight: Option<&FlightSnapshot>,
    ) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(self.to_jsonl(runner).as_bytes())?;
        if let Some(snap) = flight {
            snap.to_jsonl(&mut f)?;
        }
        f.flush()
    }
}

/// Exports `metrics` (plus an optional flight snapshot) to the path
/// named by `DIFFTEST_OBS`, if set. Returns `Ok(true)` when an export
/// happened, `Ok(false)` when the variable is unset — the near-free
/// default.
///
/// # Errors
///
/// Propagates I/O failures from the export itself.
pub fn export_to_env(
    runner: &str,
    metrics: &Metrics,
    flight: Option<&FlightSnapshot>,
) -> io::Result<bool> {
    match std::env::var_os(OBS_ENV) {
        Some(path) if !path.is_empty() => {
            metrics.export_jsonl(Path::new(&path), runner, flight)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn escape_json(s: &str) -> Cow<'_, str> {
    if s.chars().all(|c| c != '"' && c != '\\' && c >= ' ') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_registration_is_idempotent() {
        let mut m = Metrics::new();
        let a = m.register_histogram("packet.bytes");
        let b = m.register_histogram("packet.bytes");
        assert_eq!(a, b);
        m.record(a, 100);
        m.record(b, 200);
        assert_eq!(m.histogram("packet.bytes").map(Histogram::count), Some(2));
        assert!(m.histogram("missing").is_none());
    }

    #[test]
    fn gauge_registration_is_idempotent_and_handles_update() {
        let mut m = Metrics::new();
        let a = m.register_gauge("queue.depth");
        let b = m.register_gauge("queue.depth");
        assert_eq!(a, b);
        assert_eq!(m.gauge("queue.depth"), 0, "fresh gauges read zero");
        m.set(a, 7);
        m.set(b, 3);
        assert_eq!(m.gauge("queue.depth"), 3, "set is last-write-wins");
        m.set_max(a, 9);
        m.set_max(a, 5);
        assert_eq!(
            m.gauge("queue.depth"),
            9,
            "set_max keeps the high-water mark"
        );
        m.set_gauge("queue.depth", 1);
        assert_eq!(m.gauge("queue.depth"), 1, "name path aliases the handle");
        assert_eq!(m.gauge("missing"), 0);
        assert_eq!(m.gauges().count(), 1);
    }

    #[test]
    fn fake_clock_attributes_deterministically() {
        let mut t = PhaseTimer::with_clock(FakeClock::new());
        let t0 = t.start();
        t.clock.advance(500);
        t.stop(Phase::Tick, t0);
        let t1 = t.start();
        t.clock.advance(250);
        t.stop(Phase::Check, t1);
        let t2 = t.start();
        t.clock.advance(125);
        t.stop(Phase::Unpack, t2);
        let times = t.times();
        assert_eq!(times.get(Phase::Tick), 500);
        assert_eq!(times.get(Phase::Check), 250);
        assert_eq!(times.get(Phase::Unpack), 125);
        assert_eq!(times.get(Phase::Arq), 0);
        assert_eq!(times.total_ns(), 875);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |vals: &[u64]| {
            let mut m = Metrics::new();
            let h = m.register_histogram("h");
            for &v in vals {
                m.record(h, v);
            }
            m.counters.add("n", vals.len() as u64);
            m.set_gauge("g", vals.iter().copied().max().unwrap_or(0));
            m.phases.add(Phase::Check, vals.iter().sum());
            m
        };
        let a = mk(&[1, 2, 3]);
        let b = mk(&[10, 20]);
        let mut ab = Metrics::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Metrics::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters.get("n"), 5);
        assert_eq!(ab.gauge("g"), 20);
        assert_eq!(ab.phases.get(Phase::Check), 36);
        assert_eq!(ab.histogram("h").map(Histogram::count), Some(5));
    }

    #[test]
    fn jsonl_carries_all_seven_phases() {
        let mut m = Metrics::new();
        let h = m.register_histogram("x");
        m.record(h, 7);
        m.counters.inc("c");
        m.set_gauge("g", 3);
        let text = m.to_jsonl("test");
        for phase in Phase::ALL {
            assert!(
                text.contains(&format!("\"name\":\"{}\"", phase.name())),
                "missing phase {phase} in {text}"
            );
        }
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":"), "{line}");
        }
        assert!(text.contains("\"type\":\"histogram\""));
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"type\":\"gauge\""));
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb"), "a\\u000ab");
    }

    #[test]
    fn export_to_env_is_noop_when_unset() {
        // The test runner must not have DIFFTEST_OBS set globally.
        if std::env::var_os(OBS_ENV).is_none() {
            let m = Metrics::new();
            assert!(!export_to_env("none", &m, None).unwrap());
        }
    }

    /// Every JSONL line must be a parseable JSON object even under
    /// hostile metric names — the exact edge cases `escape_json`
    /// handles (quotes, backslashes, control characters) plus names
    /// that need no escaping at all.
    #[test]
    fn jsonl_lines_parse_under_hostile_metric_names() {
        let hostile = [
            "plain.counter",
            "quote\"inside",
            "back\\slash",
            "tab\there",
            "new\nline",
            "carriage\rreturn",
            "nul\u{0}byte",
            "unicode.καμήλα",
            "all\"\\\n\tat once",
        ];
        let mut m = Metrics::new();
        for (i, name) in hostile.iter().enumerate() {
            m.counters.set(*name, i as u64 + 1);
            m.set_gauge(*name, 10 + i as u64);
            let h = m.register_histogram(*name);
            m.record(h, 100 + i as u64);
        }
        let text = m.to_jsonl("runner\"with\\specials\n");
        let mut names_seen = 0usize;
        for line in text.lines() {
            let v = crate::chrometrace::parse_json(line)
                .unwrap_or_else(|e| panic!("unparseable JSONL line ({e}): {line}"));
            let name = v.get("name").and_then(crate::chrometrace::Json::as_str);
            if let Some(name) = name {
                if hostile.contains(&name) {
                    // Escaping must round-trip: the parsed name is the
                    // original, byte for byte.
                    names_seen += 1;
                }
            }
        }
        assert_eq!(
            names_seen,
            hostile.len() * 3,
            "each hostile name must round-trip through counter, gauge and histogram lines"
        );
    }
}
