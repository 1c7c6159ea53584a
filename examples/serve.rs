//! Persistent verification daemon smoke: one in-process `difftest-serve`
//! service, three concurrent producer sessions across both transports,
//! and the per-session observability trail that multiplexing keeps
//! intact.
//!
//! The one-shot socket runner builds a consumer inside each run; here
//! the consumer side is resident in the service and producers dial it —
//! two over the Unix listener, one over TCP. Every verdict must equal
//! the single-process engine on the same workload, and the drain
//! summary plus the `DIFFTEST_OBS` JSONL must show the daemon's
//! accounting: `serve.*` lifecycle counters at the service level and a
//! `serve.s<id>` export per session.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use std::sync::Arc;

use difftest_h::core::{
    run_session, run_socket_session, DiffConfig, RunOutcome, RunnerKind, ServeAddr, Session,
};
use difftest_h::dut::DutConfig;
use difftest_h::serve::{spawn, ServeConfig};
use difftest_h::stats::{parse_json, OBS_ENV};
use difftest_h::workload::Workload;

const MAX_CYCLES: u64 = 400_000;
const QUEUE_DEPTH: usize = 8;

fn session(addr: &ServeAddr, seed: u64) -> (u64, RunOutcome, u64) {
    let w = Workload::microbench().seed(seed).iterations(30).build();
    let session = Session::new(
        DutConfig::nutshell(),
        DiffConfig::BNSD,
        &w,
        Vec::new(),
        MAX_CYCLES,
        QUEUE_DEPTH,
        None,
    );
    let rep = run_socket_session(session.clone(), Some(addr));
    let engine = run_session(RunnerKind::Engine, session);
    assert_eq!(rep.outcome, engine.outcome, "seed {seed}: daemon vs engine");
    assert_eq!(rep.items, engine.items, "seed {seed}: item volume");
    (seed, rep.outcome, rep.items)
}

fn main() {
    // Export somewhere self-contained unless the caller chose a path.
    let obs_path = match std::env::var_os(OBS_ENV) {
        Some(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => {
            let p = std::env::temp_dir().join("difftest-serve-smoke.jsonl");
            std::env::set_var(OBS_ENV, &p);
            p
        }
    };
    let _ = std::fs::remove_file(&obs_path);

    let handle = spawn(ServeConfig {
        unix_path: Some(std::env::temp_dir().join(format!(
            "difftest-serve-example-{}.sock",
            std::process::id()
        ))),
        tcp_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let unix = Arc::new(handle.unix_addr().expect("unix addr").clone());
    let tcp = Arc::new(handle.tcp_addr().expect("tcp addr").clone());
    println!("serve: daemon up on {unix} and {tcp}");

    let mut joins = Vec::new();
    for (seed, addr) in [(31, &unix), (32, &unix), (33, &tcp)] {
        let addr = Arc::clone(addr);
        joins.push(std::thread::spawn(move || session(&addr, seed)));
    }
    for join in joins {
        let (seed, outcome, items) = join.join().expect("producer thread");
        assert_eq!(outcome, RunOutcome::GoodTrap, "seed {seed}");
        println!("serve: session seed {seed}: {outcome:?}, {items} items checked");
    }

    let summary = handle.drain().expect("drain");
    assert_eq!(summary.counter("serve.sessions.opened"), 3);
    assert_eq!(summary.counter("serve.sessions.finished"), 3);
    assert_eq!(summary.counter("serve.conns.unix"), 2);
    assert_eq!(summary.counter("serve.conns.tcp"), 1);
    assert_eq!(summary.metrics.gauge("serve.sessions.active"), 0);
    println!(
        "serve: drained — {} sessions, {} items, {} bytes read, peak concurrency {}",
        summary.counter("serve.sessions.opened"),
        summary.counter("serve.items"),
        summary.counter("serve.bytes.read"),
        summary.metrics.gauge("serve.sessions.active.max"),
    );

    // The JSONL trail: every line parses, each session exported its own
    // metrics under `serve.s<id>`, and the final service export carries
    // the lifecycle counters asserted above.
    let text = std::fs::read_to_string(&obs_path).expect("obs export");
    let mut runs = Vec::new();
    let mut serve_counters = 0u64;
    let mut current_is_serve = false;
    for line in text.lines() {
        let v = parse_json(line).expect("well-formed JSONL line");
        match v.get("type").and_then(|t| t.as_str()) {
            Some("run") => {
                let runner = v
                    .get("runner")
                    .and_then(|r| r.as_str())
                    .expect("runner label")
                    .to_string();
                current_is_serve = runner == "serve";
                runs.push(runner);
            }
            Some("counter") if current_is_serve => {
                let name = v.get("name").and_then(|n| n.as_str()).unwrap_or("");
                if name.starts_with("serve.") {
                    serve_counters += 1;
                }
            }
            _ => {}
        }
    }
    for sid in 1..=3u64 {
        assert!(
            runs.iter().any(|r| r == &format!("serve.s{sid}")),
            "missing per-session export serve.s{sid} in {runs:?}"
        );
    }
    assert!(
        runs.iter().any(|r| r == "serve"),
        "missing service-level export in {runs:?}"
    );
    assert!(
        serve_counters >= 5,
        "service export carries too few serve.* counters"
    );
    println!(
        "serve: {} exports in {} ({} service counters) — all good",
        runs.len(),
        obs_path.display(),
        serve_counters
    );
}
