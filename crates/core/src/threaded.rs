//! A real-threads pipelined runner: hardware/software parallelism with
//! actual concurrency instead of virtual clocks.
//!
//! The engine in [`crate::engine`] *models* non-blocking transmission
//! (paper §4.5) with overlapped virtual timelines. This module demonstrates
//! the same architecture with OS threads: the calling thread runs the
//! shared [`Producer`](crate::produce::Producer) (DUT and acceleration
//! unit), a consumer thread runs the shared
//! [`Consumer`](crate::consume::Consumer) pipeline, and a bounded channel
//! between them ([`ChannelSink`](crate::link::ChannelSink) /
//! [`ChannelSource`](crate::link::ChannelSource)) provides the
//! backpressure of the paper's sending/receiving queues. It reports
//! wall-clock throughput rather than simulated KHz.
//
// Seam rule: runner modules build on `session`/`link`/`produce`/
// `consume` (and the shared `channel` topology) only — never on another
// runner's internals (enforced by `make ci`'s grep).

use crate::channel::run_channels;
use crate::session::{RunCommon, RunnerKind, Session};

/// Result of a threaded run: the shared [`RunCommon`] core plus
/// wall-clock throughput.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// The report core shared by every runner (verdict, volume, link
    /// health, observability).
    pub common: RunCommon,
    /// Host wall-clock seconds.
    pub wall_s: f64,
    /// Host-side throughput in DUT cycles per wall-clock second.
    pub cycles_per_sec: f64,
}

/// Runs a co-simulation with the hardware and software sides on separate
/// OS threads, connected by a bounded transfer queue of the session's
/// `queue_depth`: the channel topology ([`crate::channel`]) with one
/// unrouted lane and one full-width consumer. Only the non-blocking
/// configurations make sense here; the blocking semantics of `Z`/`B`
/// would serialize the threads anyway.
///
/// This runner has no retention ring, so under a fault plan it reports
/// rather than recovers: decode failures surface as
/// [`RunOutcome::LinkError`](crate::RunOutcome::LinkError), stale
/// duplicates are dropped and counted, and a gap left at end of stream
/// (a lost packet, including a tail drop the sequence window alone
/// cannot see) is a [`crate::fault::LinkErrorKind::Gap`].
///
/// # Panics
///
/// Panics when the configuration is blocking, or if a thread dies (a
/// poisoned internal invariant) — never on workload behaviour or link
/// faults.
pub fn run_threaded_session(session: Session) -> ThreadedReport {
    let run = run_channels(RunnerKind::Threaded, &session);
    ThreadedReport {
        cycles_per_sec: run.common.cycles as f64 / run.wall_s.max(1e-9),
        common: run.common,
        wall_s: run.wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{DiffConfig, RunOutcome};
    use difftest_dut::{BugKind, BugSpec, DutConfig};
    use difftest_workload::Workload;

    fn run_threaded(
        dut_cfg: DutConfig,
        config: DiffConfig,
        workload: &Workload,
        bugs: Vec<BugSpec>,
        max_cycles: u64,
    ) -> ThreadedReport {
        run_threaded_session(Session::new(
            dut_cfg, config, workload, bugs, max_cycles, 8, None,
        ))
    }

    #[test]
    fn threaded_run_reaches_good_trap() {
        let w = Workload::microbench().seed(2).iterations(50).build();
        let r = run_threaded(
            DutConfig::nutshell(),
            DiffConfig::BNSD,
            &w,
            Vec::new(),
            500_000,
        );
        assert_eq!(r.outcome, RunOutcome::GoodTrap);
        assert!(r.items > 0);
        assert!(r.cycles_per_sec > 0.0);
    }

    #[test]
    fn threaded_run_detects_bugs() {
        let w = Workload::linux_boot().seed(2).iterations(300).build();
        let r = run_threaded(
            DutConfig::xiangshan_minimal(),
            DiffConfig::BNSD,
            &w,
            vec![BugSpec::new(BugKind::RegWriteCorruption, 5_000)],
            500_000,
        );
        assert_eq!(r.outcome, RunOutcome::Mismatch);
        assert!(r.mismatch.is_some());
    }

    #[test]
    #[should_panic(expected = "non-blocking")]
    fn threaded_run_rejects_blocking_configs() {
        let w = Workload::microbench().seed(2).iterations(5).build();
        let _ = run_threaded(DutConfig::nutshell(), DiffConfig::Z, &w, Vec::new(), 1_000);
    }
}
