//! Chrome trace-event export and validation for [`crate::span`].
//!
//! [`render`] serializes gathered [`SpanBuf`]s as the Chrome
//! trace-event JSON format (`{"traceEvents":[...]}`) that loads
//! directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`:
//!
//! - `"ph":"M"` metadata names each process/thread track,
//! - `"ph":"X"` complete duration events carry the spans (`ts`/`dur`
//!   in microseconds, fractional, so nanosecond spans survive),
//! - `"ph":"s"`/`"ph":"f"` flow arrows link a packet's pack span to
//!   its unpack/check spans by `seq` (only *matched* pairs are
//!   emitted: a dropped packet's dangling flow origin is already
//!   visible in the fault metrics and would render as a broken arrow),
//! - `"ph":"C"` counter events render gauge samples as counter tracks.
//!
//! [`validate`] re-parses an exported file with the in-crate JSON
//! parser ([`parse_json`]) and checks the structural invariants CI
//! relies on (`scripts/trace_check`): well-formed JSON, monotonic
//! timestamps per track, properly nested spans, and fully paired flow
//! arrows.

use crate::metrics::escape_json;
use crate::span::{SpanBuf, SpanEvent, SpanKind};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Formats nanoseconds as fractional microseconds ("12.345").
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn push_line(out: &mut String, first: &mut bool, line: &str) {
    if !std::mem::take(first) {
        out.push_str(",\n");
    }
    out.push_str(line);
}

/// Renders buffers as Chrome trace-event JSON.
pub fn render(bufs: &[SpanBuf]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;

    // Track metadata: one process_name per pid, one thread_name per
    // (pid, tid). BTreeMap keeps the order deterministic.
    let mut processes: BTreeMap<u32, &str> = BTreeMap::new();
    let mut threads: BTreeMap<(u32, u32), &str> = BTreeMap::new();
    for b in bufs {
        processes.entry(b.pid).or_insert(&b.process);
        threads.entry((b.pid, b.tid)).or_insert(&b.track);
    }
    for (pid, name) in &processes {
        let line = format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            pid,
            escape_json(name)
        );
        push_line(&mut out, &mut first, &line);
    }
    for ((pid, tid), name) in &threads {
        let line = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            pid,
            tid,
            escape_json(name)
        );
        push_line(&mut out, &mut first, &line);
    }

    // Flow pairing: match each (name, id) FlowOut to the earliest
    // FlowIn at or after it; only matched pairs render.
    // One rendered flow endpoint: (phase, name, ts_ns, flow id).
    type FlowEndpoint<'a> = (char, &'a str, u64, u64);
    let mut outs: BTreeMap<(&str, u64), (u32, u32, u64)> = BTreeMap::new();
    let mut ins: BTreeMap<(&str, u64), (u32, u32, u64)> = BTreeMap::new();
    for b in bufs {
        for e in &b.events {
            match e.kind {
                SpanKind::FlowOut => {
                    let entry = outs.entry((e.name.as_ref(), e.id));
                    let v = entry.or_insert((b.pid, b.tid, e.ts_ns));
                    if e.ts_ns < v.2 {
                        *v = (b.pid, b.tid, e.ts_ns);
                    }
                }
                SpanKind::FlowIn => {
                    let entry = ins.entry((e.name.as_ref(), e.id));
                    let v = entry.or_insert((b.pid, b.tid, e.ts_ns));
                    if e.ts_ns < v.2 {
                        *v = (b.pid, b.tid, e.ts_ns);
                    }
                }
                _ => {}
            }
        }
    }
    let mut flows: BTreeMap<(u32, u32), Vec<FlowEndpoint>> = BTreeMap::new();
    for (key, &(opid, otid, ots)) in &outs {
        if let Some(&(ipid, itid, its)) = ins.get(key) {
            if its >= ots {
                flows
                    .entry((opid, otid))
                    .or_default()
                    .push(('s', key.0, ots, key.1));
                flows
                    .entry((ipid, itid))
                    .or_default()
                    .push(('f', key.0, its, key.1));
            }
        }
    }

    // Per-track event lists, sorted by (ts, dur desc) so nested spans
    // follow their parents and timestamps are monotonic per track.
    for b in bufs {
        let mut evs: Vec<&SpanEvent> = b
            .events
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::Span | SpanKind::Counter))
            .collect();
        evs.sort_by(|a, c| a.ts_ns.cmp(&c.ts_ns).then(c.dur_ns.cmp(&a.dur_ns)));
        let mut fl = flows.remove(&(b.pid, b.tid)).unwrap_or_default();
        fl.sort_by(|a, c| a.2.cmp(&c.2).then(a.3.cmp(&c.3)));
        // Merge spans/counters and flow endpoints by timestamp so the
        // whole track stays time-ordered.
        fn flow_line(pid: u32, tid: u32, (ph, name, ts, id): (char, &str, u64, u64)) -> String {
            let bp = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
            format!(
                "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"{}\"{},\"pid\":{},\"tid\":{},\"ts\":{},\"id\":{}}}",
                escape_json(name),
                ph,
                bp,
                pid,
                tid,
                us(ts),
                id
            )
        }
        let mut fi = 0;
        for e in evs {
            while fi < fl.len() && fl[fi].2 < e.ts_ns {
                let line = flow_line(b.pid, b.tid, fl[fi]);
                push_line(&mut out, &mut first, &line);
                fi += 1;
            }
            let line = match e.kind {
                SpanKind::Span => format!(
                    "{{\"name\":\"{}\",\"cat\":\"difftest\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{}}}}}",
                    escape_json(&e.name),
                    b.pid,
                    b.tid,
                    us(e.ts_ns),
                    us(e.dur_ns),
                    e.id
                ),
                SpanKind::Counter => format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{},\"tid\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
                    escape_json(&e.name),
                    b.pid,
                    b.tid,
                    us(e.ts_ns),
                    e.id
                ),
                _ => unreachable!("filtered above"),
            };
            push_line(&mut out, &mut first, &line);
        }
        while fi < fl.len() {
            let line = flow_line(b.pid, b.tid, fl[fi]);
            push_line(&mut out, &mut first, &line);
            fi += 1;
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders and writes the trace to `path` (truncating).
pub fn write_trace(path: &Path, bufs: &[SpanBuf]) -> io::Result<()> {
    std::fs::write(path, render(bufs))
}

// ---------------------------------------------------------------------------
// A minimal JSON value parser: enough to validate our own output (and
// the JSONL metrics export) without an external JSON crate.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("utf8"))?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("short \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in our output;
                            // map unpaired ones to U+FFFD.
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("utf8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.err("utf8"))?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// What [`validate`] found in a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events (including metadata).
    pub events: usize,
    /// Complete (`X`) duration events.
    pub spans: usize,
    /// Matched flow pairs (`s` events, which equals `f` events).
    pub flows: usize,
    /// Counter (`C`) samples.
    pub counters: usize,
    /// Distinct `(pid, tid)` tracks carrying events.
    pub tracks: usize,
}

fn field_num(ev: &Json, key: &str, i: usize) -> Result<f64, String> {
    ev.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("event {i}: missing numeric \"{key}\""))
}

/// Checks an exported trace's structural invariants: well-formed JSON
/// with a `traceEvents` array, every event carrying `name`/`ph`/`pid`,
/// per-track monotonic timestamps, properly nested `X` spans, and
/// every `s` flow paired with an `f` (and vice versa).
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let root = parse_json(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing \"traceEvents\" array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    // (pid, tid) -> (last_ts, open-span end-time stack)
    let mut tracks: BTreeMap<(u64, u64), (f64, Vec<f64>)> = BTreeMap::new();
    let mut flow_s: BTreeMap<(String, u64), usize> = BTreeMap::new();
    let mut flow_f: BTreeMap<(String, u64), usize> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        let pid = field_num(ev, "pid", i)? as u64;
        if ph == "M" {
            continue;
        }
        let tid = field_num(ev, "tid", i)? as u64;
        let ts = field_num(ev, "ts", i)?;
        let (last_ts, stack) = tracks.entry((pid, tid)).or_insert((f64::MIN, Vec::new()));
        if ts < *last_ts {
            return Err(format!(
                "event {i} ({name}): ts {ts} goes backwards on track ({pid},{tid})"
            ));
        }
        *last_ts = ts;
        match ph {
            "X" => {
                summary.spans += 1;
                let dur = field_num(ev, "dur", i)?;
                let end = ts + dur;
                while stack.last().is_some_and(|&top| top <= ts) {
                    stack.pop();
                }
                if let Some(&top) = stack.last() {
                    if end > top {
                        return Err(format!(
                            "event {i} ({name}): span [{ts},{end}) partially overlaps \
                             an open span ending at {top} on track ({pid},{tid})"
                        ));
                    }
                }
                stack.push(end);
            }
            "s" => {
                let id = field_num(ev, "id", i)? as u64;
                *flow_s.entry((name.to_string(), id)).or_default() += 1;
            }
            "f" => {
                let id = field_num(ev, "id", i)? as u64;
                if ev.get("bp").and_then(Json::as_str) != Some("e") {
                    return Err(format!("event {i} ({name}): flow \"f\" without bp:\"e\""));
                }
                *flow_f.entry((name.to_string(), id)).or_default() += 1;
            }
            "C" => {
                summary.counters += 1;
                if ev.get("args").and_then(|a| a.get("value")).is_none() {
                    return Err(format!("event {i} ({name}): counter without args.value"));
                }
            }
            other => return Err(format!("event {i} ({name}): unsupported ph \"{other}\"")),
        }
    }

    for (key, n) in &flow_s {
        if flow_f.get(key).copied().unwrap_or(0) != *n {
            return Err(format!(
                "flow \"{}\" id {} has {} origin(s) but {} target(s)",
                key.0,
                key.1,
                n,
                flow_f.get(key).copied().unwrap_or(0)
            ));
        }
        summary.flows += n;
    }
    for key in flow_f.keys() {
        if !flow_s.contains_key(key) {
            return Err(format!(
                "flow \"{}\" id {} has a target but no origin",
                key.0, key.1
            ));
        }
    }
    summary.tracks = tracks.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanBuf, SpanEvent, SpanKind, PID_CONSUMER, PID_PRODUCER};
    use std::borrow::Cow;

    fn ev(kind: SpanKind, name: &'static str, ts: u64, dur: u64, id: u64) -> SpanEvent {
        SpanEvent {
            kind,
            name: Cow::Borrowed(name),
            ts_ns: ts,
            dur_ns: dur,
            id,
        }
    }

    fn sample_bufs() -> Vec<SpanBuf> {
        vec![
            SpanBuf {
                pid: PID_PRODUCER,
                tid: 0,
                process: "producer".into(),
                track: "dut".into(),
                events: vec![
                    ev(SpanKind::Span, "pack", 100, 300, 1),
                    ev(SpanKind::FlowOut, "pkt", 150, 0, 1),
                    ev(SpanKind::Span, "pack", 600, 200, 2),
                    ev(SpanKind::FlowOut, "pkt", 650, 0, 2),
                ],
                recorded: 4,
                dropped: 0,
            },
            SpanBuf {
                pid: PID_CONSUMER,
                tid: 0,
                process: "consumer".into(),
                track: "consumer".into(),
                events: vec![
                    // Recorded at end-time: nested spans appear before
                    // their parent; render must still sort correctly.
                    ev(SpanKind::FlowIn, "pkt", 500, 0, 1),
                    ev(SpanKind::Span, "unpack", 510, 40, 1),
                    ev(SpanKind::Span, "check", 560, 100, 1),
                    ev(SpanKind::Span, "ingest", 500, 200, 1),
                    ev(SpanKind::FlowIn, "pkt", 900, 0, 2),
                    ev(SpanKind::Span, "ingest", 900, 50, 2),
                    ev(SpanKind::Counter, "reorder.buffered", 950, 0, 3),
                ],
                recorded: 7,
                dropped: 0,
            },
        ]
    }

    #[test]
    fn render_round_trips_through_validate() {
        let text = render(&sample_bufs());
        let summary = validate(&text).expect("render output must validate");
        assert_eq!(summary.spans, 6);
        assert_eq!(summary.flows, 2, "both pkt flows matched");
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.tracks, 2);
    }

    #[test]
    fn unmatched_flow_origins_are_not_rendered() {
        let mut bufs = sample_bufs();
        // A dropped packet: origin with no consumer-side target.
        bufs[0]
            .events
            .push(ev(SpanKind::FlowOut, "pkt", 900, 0, 99));
        let text = render(&bufs);
        let summary = validate(&text).expect("dangling origin must be filtered");
        assert_eq!(summary.flows, 2);
        assert!(!text.contains("\"id\":99"));
    }

    #[test]
    fn fractional_microseconds_preserve_nanos() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(12_345), "12.345");
    }

    #[test]
    fn validate_rejects_backwards_time() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":0,"ts":10.0,"dur":1.0,"args":{"id":0}},
            {"name":"b","ph":"X","pid":1,"tid":0,"ts":5.0,"dur":1.0,"args":{"id":0}}
        ]}"#;
        let err = validate(text).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn validate_rejects_partial_overlap() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":0,"ts":0.0,"dur":10.0,"args":{"id":0}},
            {"name":"b","ph":"X","pid":1,"tid":0,"ts":5.0,"dur":10.0,"args":{"id":0}}
        ]}"#;
        let err = validate(text).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn validate_rejects_unpaired_flows() {
        let text = r#"{"traceEvents":[
            {"name":"pkt","cat":"flow","ph":"s","pid":1,"tid":0,"ts":1.0,"id":7}
        ]}"#;
        let err = validate(text).unwrap_err();
        assert!(err.contains("origin"), "{err}");
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a\"b":[1,-2.5,true,null,"xA\n"],"o":{}}"#).unwrap();
        let arr = v.get("a\"b").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-2.5));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4].as_str(), Some("xA\n"));
        assert_eq!(v.get("o"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("\"raw\u{0001}ctrl\"").is_err());
    }
}
