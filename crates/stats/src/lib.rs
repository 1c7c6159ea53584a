//! Performance counters, report tables and the trace toolkit.
//!
//! This crate implements the paper's §5 "tuning toolkit":
//!
//! - [`Counters`]: hardware- and software-side performance counters
//!   (transmission counts, data volume, fusion ratios, packet utilization),
//! - [`Metrics`]: the observability registry — counters plus log-bucketed
//!   [`Histogram`]s, gauges and per-[`Phase`] wall-time attribution,
//!   merged deterministically across threads and exported as JSONL
//!   (`DIFFTEST_OBS=<path>`),
//! - [`FlightRecorder`]: a bounded free-running ring of structured
//!   pipeline records, snapshotted into failure reports for post-mortem
//!   debugging without re-running the DUT,
//! - [`Obs`]: what one side of a run observed (metrics, flight
//!   snapshot, span tracks), joined across sides with one
//!   [`Obs::absorb`] and carried whole by its wire codec,
//! - [`Table`] and the `fmt_*` helpers: the plain-text renderer every
//!   benchmark harness uses to print paper-shaped tables,
//! - [`trace`]: DUT-trace dump/reload for DUT-decoupled iterative
//!   debugging of the verification logic,
//! - [`TraceQuery`]: typed filter/group/aggregate analysis over reloaded
//!   traces (the substitution for the paper's SQL backend — see
//!   `DESIGN.md` §1),
//! - [`span`] and [`chrometrace`]: causal span tracing — bounded
//!   per-thread span buffers over the injectable [`Clock`], exported as
//!   Chrome trace-event JSON (`DIFFTEST_TRACE=<path>`) that loads in
//!   Perfetto, with flow arrows linking a packet's pack→unpack→check
//!   spans by `seq` and an offline [`SpanQuery`] analysis pass
//!   (DESIGN.md §15).
//!
//! # Examples
//!
//! ```
//! use difftest_stats::Counters;
//!
//! let mut c = Counters::new();
//! c.add("hw.bytes_sent", 4096);
//! c.inc("hw.transfers");
//! assert_eq!(c.get("hw.bytes_sent"), 4096);
//! ```

#![warn(missing_docs)]
// Every runner records into these types on its hot path and exports them
// at the end; non-test code is held to the no-unwrap bar mechanically.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chrometrace;
mod counter;
mod histogram;
mod metrics;
mod obs;
mod query;
mod recorder;
pub mod span;
mod table;
pub mod trace;

pub use chrometrace::{parse_json, validate as validate_trace, Json, TraceSummary};
pub use counter::Counters;
pub use histogram::Histogram;
pub use metrics::{
    export_to_env, Clock, FakeClock, GaugeId, HistogramId, Metrics, MonotonicClock, Phase,
    PhaseTimer, PhaseTimes, OBS_ENV,
};
pub use obs::Obs;
pub use query::{GroupStats, TraceQuery};
pub use recorder::{FlightKind, FlightRecord, FlightRecorder, FlightSnapshot};
pub use span::{
    wall_epoch_ns, CriticalStep, SpanBuf, SpanEvent, SpanGroup, SpanKind, SpanQuery, SpanSink,
    Tracer, PID_CONSUMER, PID_PRODUCER, TRACE_ENV,
};
pub use table::{fmt_hz, fmt_pct, fmt_ratio, Table};
