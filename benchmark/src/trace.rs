//! Span recording for the traced run: spans are kept in memory while the
//! run measures and written as JSON lines when it ends.
//!
//! One line per span:
//! `{"id":7,"parent":1,"run":"xs_squash_engine/s7","name":"transport.pack",
//!   "start_ns":..,"end_ns":..,"busy_ns":..,"args":{"calls":1024,..}}`
//! `start_ns`/`end_ns` bracket the span on the run's monotonic clock;
//! `busy_ns` is the time actually spent inside the layer's calls (a layer
//! span covers a window of many short calls, so `busy_ns <= end - start`).
//! A window span's self time is its duration minus its children's busy
//! time: loop glue and the timestamps themselves.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
pub struct Recorder {
    run: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// `run` identifies the run every span belongs to (workload + seed).
    pub fn new(run: String) -> Recorder {
        Recorder {
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one span and returns its id (for children to name).
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        busy_ns: u64,
        args: Vec<(&'static str, u64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            busy_ns,
            args,
        });
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn line(&self, s: &Span) -> String {
        let args: Vec<String> = s
            .args
            .iter()
            .map(|(k, v)| format!("{}:{v}", json::string(k)))
            .collect();
        format!(
            "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"args\":{{{}}}}}",
            s.id,
            s.parent,
            json::string(&self.run),
            json::string(s.name),
            s.start_ns,
            s.end_ns,
            s.busy_ns,
            args.join(",")
        )
    }

    /// Writes every span as one JSON line, replacing `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            writeln!(w, "{}", self.line(s))?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;

    #[test]
    fn spans_round_trip_through_the_json_lines() {
        let mut r = Recorder::new("wl/s\"7".to_owned());
        let root = r.record(0, "window", (10, 90), 80, vec![("cycles", 1024)]);
        let child = r.record(
            root,
            "dut.tick",
            (12, 70),
            31,
            vec![("calls", 1024), ("events", 9)],
        );
        assert_eq!((root, child), (1, 2));
        let lines: Vec<String> = r.spans().iter().map(|s| r.line(s)).collect();
        let v = parse_json(&lines[1]).expect("valid json");
        assert_eq!(v.get("parent").and_then(|j| j.as_num()), Some(1.0));
        assert_eq!(v.get("name").and_then(|j| j.as_str()), Some("dut.tick"));
        assert_eq!(v.get("run").and_then(|j| j.as_str()), Some("wl/s\"7"));
        assert_eq!(v.get("busy_ns").and_then(|j| j.as_num()), Some(31.0));
        let args = v.get("args").expect("args object");
        assert_eq!(args.get("events").and_then(|j| j.as_num()), Some(9.0));
    }
}
