//! CLI gate for exported span traces: validates each file's Chrome
//! trace-event structure (well-formed JSON, per-track monotonic
//! timestamps, properly nested spans, matched flow pairs) and prints a
//! one-line summary. Exits non-zero when any file is missing or
//! malformed — `scripts/trace_check` wraps this for CI.
//!
//! ```text
//! cargo run --release --example trace_check -- [--require-flows] <trace.json>...
//! ```
//!
//! `--require-flows` additionally demands producer→consumer causality: at
//! least one matched pack→unpack flow arrow and events on at least two
//! pids (producer and consumer) — the acceptance bar for the socket
//! runner's merged trace.

use std::collections::BTreeSet;

use difftest_h::stats::{parse_json, validate_trace, Json};

fn check(path: &str, require_flows: bool) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let summary = validate_trace(&text)?;
    if summary.spans == 0 {
        return Err("no duration events".into());
    }

    // validate() already parsed the text; re-parse for pid coverage.
    let root = parse_json(&text)?;
    let mut pids: BTreeSet<u64> = BTreeSet::new();
    if let Some(events) = root.get("traceEvents").and_then(Json::as_arr) {
        for ev in events {
            if let Some(pid) = ev.get("pid").and_then(Json::as_num) {
                pids.insert(pid as u64);
            }
        }
    }
    if require_flows {
        if summary.flows == 0 {
            return Err("no matched flow arrows (pack→unpack causality missing)".into());
        }
        if pids.len() < 2 {
            return Err(format!(
                "events on {} pid(s); producer and consumer tracks required",
                pids.len()
            ));
        }
    }
    Ok(format!(
        "{} events, {} spans, {} flows, {} counters, {} tracks, {} pid(s)",
        summary.events,
        summary.spans,
        summary.flows,
        summary.counters,
        summary.tracks,
        pids.len()
    ))
}

fn main() {
    let mut require_flows = false;
    let mut paths = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--require-flows" => require_flows = true,
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprintln!("usage: trace_check [--require-flows] <trace.json>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match check(path, require_flows) {
            Ok(summary) => println!("{path}: OK — {summary}"),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
