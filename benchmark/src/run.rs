//! One run of one workload: set-up, the timed region (or the traced
//! passes), verdict checks, and the result line.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::adapter::{self, Counts, Json, Program, Scenario, LAYERS};
use crate::json;
use crate::procfs;
use crate::spec::{self, MetricDef};
use crate::stats;
use crate::trace::Recorder;

/// Programs generated per run; round `r` runs program `r % PROGRAMS`.
const PROGRAMS: usize = 8;
/// Set-up is sampled once per this many seconds of `--seconds`, at most
/// `MAX_SETUPS` times.
const SECONDS_PER_SETUP: f64 = 2.0;
const MAX_SETUPS: usize = 5;
/// A traced pass is a reference session plus an in-order pass, two rounds'
/// worth of time, so a traced run takes about as long as an untraced one.
const ROUNDS_PER_TRACED_PASS: usize = 2;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// What one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
}

impl RunOutput {
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in &self.metrics {
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(&m.name),
                json::number(m.value).map_err(|e| format!("{}: {e}", m.name))?,
                json::string(&m.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }

    pub fn parse(line: &str) -> Result<RunOutput, String> {
        let v = adapter::parse_json(line)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
        let count = |k: &str| -> Result<u64, String> {
            let n = field(k)?
                .as_num()
                .ok_or_else(|| format!("{k} is not a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{k} is not a whole number: {n}"));
            }
            Ok(n as u64)
        };
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("correct is not a boolean".to_owned()),
        };
        let Json::Obj(fields) = field("metrics")? else {
            return Err("metrics is not an object".to_owned());
        };
        let mut metrics = Vec::new();
        for (name, m) in fields {
            let value = m.get("value").and_then(Json::as_num);
            let unit = m.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric {name} lacks value or unit"));
            };
            metrics.push(Measured {
                name: name.clone(),
                unit: unit.to_owned(),
                value,
            });
        }
        Ok(RunOutput {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Pairs measured values with the contract's table: every metric of the
/// table exactly once, in table order, with the table's unit.
fn measured(defs: &[MetricDef], values: &[(&str, f64)]) -> Result<Vec<Measured>, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("measured {name}, which the contract does not list"));
    }
    defs.iter()
        .map(|d| {
            let mut hits = values.iter().filter(|(n, _)| *n == d.name);
            match (hits.next(), hits.next()) {
                (Some((_, v)), None) => Ok(Measured {
                    name: d.name.to_owned(),
                    unit: d.unit.to_owned(),
                    value: *v,
                }),
                (None, _) => Err(format!("{} was not measured", d.name)),
                _ => Err(format!("{} was measured twice", d.name)),
            }
        })
        .collect()
}

/// One set-up: what a fresh process does between its start and the start
/// of its timed region. `benchmark setup` prints it as one line.
#[derive(Debug, Clone, PartialEq)]
pub struct SetUp {
    pub seconds: f64,
    /// Counts of the warm-up round's operations.
    pub counts: Vec<Counts>,
}

impl SetUp {
    pub fn to_json(&self) -> Result<String, String> {
        let rows: Vec<String> = self
            .counts
            .iter()
            .map(|c| {
                format!(
                    "[{},{},{},{},{}]",
                    c.cycles, c.instructions, c.items, c.bytes, c.transfers
                )
            })
            .collect();
        Ok(format!(
            "{{\"setup_s\":{},\"counts\":[{}]}}",
            json::number(self.seconds)?,
            rows.join(",")
        ))
    }

    pub fn parse(line: &str) -> Result<SetUp, String> {
        let v = adapter::parse_json(line)?;
        let seconds = v.get("setup_s").and_then(Json::as_num);
        let rows = v.get("counts").and_then(Json::as_arr);
        let (Some(seconds), Some(rows)) = (seconds, rows) else {
            return Err("set-up line lacks setup_s or counts".to_owned());
        };
        let counts = rows
            .iter()
            .map(|row| {
                let n: Option<Vec<f64>> = row.as_arr()?.iter().map(Json::as_num).collect();
                match n?[..] {
                    [cycles, instructions, items, bytes, transfers] => Some(Counts {
                        cycles: cycles as u64,
                        instructions: instructions as u64,
                        items: items as u64,
                        bytes: bytes as u64,
                        transfers: transfers as u64,
                    }),
                    _ => None,
                }
            })
            .collect::<Option<_>>()
            .ok_or("set-up line: a counts row is not five numbers")?;
        Ok(SetUp { seconds, counts })
    }
}

/// Runs `benchmark <args>` in a fresh process and returns the last line it
/// printed.
pub fn spawn_self(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning benchmark {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    line.map(str::to_owned)
        .ok_or_else(|| format!("benchmark {args:?} printed nothing ({})", output.status))
}

/// Set-up, as a fresh process pays it: generate the programs, then one
/// untimed round of the same configuration so caches, the allocator and
/// (socket) the re-exec path are warm. `start` is when the process began.
pub fn set_up(workload: &str, seed: u64, start: Instant) -> Result<(SetUp, Vec<Program>), String> {
    let sc = adapter::scenario(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let programs: Vec<Program> = (0..PROGRAMS).map(|i| sc.build_program(seed, i)).collect();
    let mut counts = Vec::new();
    for op in 0..sc.ops_per_round() {
        let o = sc.run_warm_up(&programs[0], op);
        if let Some(why) = o.failure {
            return Err(format!("warm-up operation {op} failed: {why}"));
        }
        counts.push(o.counts);
    }
    let seconds = start.elapsed().as_secs_f64();
    Ok((SetUp { seconds, counts }, programs))
}

/// One round of the timed region.
#[derive(Debug, Clone, Copy)]
struct Round {
    cycles_per_sec: f64,
    cpu_ns_per_cycle: f64,
}

fn rounds_for(seconds: f64, sc: &Scenario) -> usize {
    ((seconds / sc.nominal_round_s).round() as usize).max(1)
}

/// Where runs write their artefacts: `out/` beside the benchmark's
/// manifest, inside the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run(args: &RunArgs, process_start: Instant) -> Result<RunOutput, String> {
    let sc = adapter::scenario(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    if args.traced {
        traced(&sc, args)
    } else {
        untraced(&sc, args, process_start)
    }
}

fn untraced(sc: &Scenario, args: &RunArgs, process_start: Instant) -> Result<RunOutput, String> {
    let ops = sc.ops_per_round();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |why: Option<String>, what: &str| {
        attempted += 1;
        if let Some(why) = why {
            failed += 1;
            eprintln!("benchmark: {} {what}: {why}", args.workload);
        }
    };
    // Every count of a deterministic program repeats exactly.
    let differ = |seen: &Counts, now: &Counts| {
        (seen != now).then(|| format!("counts {now:?} differ from the first run's {seen:?}"))
    };

    // This process's own set-up. The same is done in further fresh
    // processes, one at a time, between the rounds below: every sample is a
    // process start, they span the run as the rounds do, and `setup_s` is
    // their median.
    let (own, programs) = set_up(&args.workload, args.seed, process_start)?;
    let setups = ((args.seconds / SECONDS_PER_SETUP).round() as usize).clamp(1, MAX_SETUPS);
    let mut setup_s = vec![own.seconds];

    let model_speed_hz = if sc.uses_engine() {
        None
    } else {
        Some(sc.model_speed_hz(&programs[0])?)
    };

    let n_rounds = rounds_for(args.seconds, sc);
    let mut first: Vec<Option<Vec<Counts>>> = vec![None; PROGRAMS];
    let mut rounds: Vec<Round> = Vec::with_capacity(n_rounds);
    let mut op_wall_ms = Vec::with_capacity(n_rounds * ops);
    let mut total = Counts::default();
    let mut sim_time_s = 0.0;
    for round in 0..n_rounds {
        while setup_s.len() < setups && setup_s.len() * n_rounds / setups <= round {
            let i = setup_s.len();
            let line = spawn_self(&["setup", &args.workload, &args.seed.to_string()])?;
            let other = SetUp::parse(&line).map_err(|e| format!("set-up {i}: {e}: {line}"))?;
            if other.counts.len() != ops {
                return Err(format!("set-up {i} ran {} operations", other.counts.len()));
            }
            for (op, (seen, now)) in own.counts.iter().zip(&other.counts).enumerate() {
                check(differ(seen, now), &format!("set-up {i} op {op}"));
            }
            setup_s.push(other.seconds);
        }
        let p = round % PROGRAMS;
        let cpu0 = procfs::cpu_ticks()?;
        let (mut wall_ns, mut cycles) = (0u64, 0u64);
        let mut counts = Vec::with_capacity(ops);
        for op in 0..ops {
            let o = sc.run_op(&programs[p], op);
            let repeat = first[p]
                .as_ref()
                .and_then(|seen| differ(&seen[op], &o.counts));
            check(o.failure.or(repeat), &format!("round {round} op {op}"));
            wall_ns += o.wall_ns;
            cycles += o.counts.cycles;
            op_wall_ms.push(o.wall_ns as f64 / 1e6);
            total.cycles += o.counts.cycles;
            total.bytes += o.counts.bytes;
            sim_time_s += o.sim_time_s.unwrap_or(0.0);
            counts.push(o.counts);
        }
        let cpu_ticks = procfs::cpu_ticks()? - cpu0;
        first[p].get_or_insert(counts);
        rounds.push(Round {
            cycles_per_sec: cycles as f64 / (wall_ns as f64 / 1e9),
            cpu_ns_per_cycle: cpu_ticks as f64 * procfs::NS_PER_TICK / cycles as f64,
        });
    }

    // Timings are the median round's; the quartiles go to the log.
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no samples for {what}"));
    let over_rounds = |name: &str, f: fn(&Round) -> f64| {
        let values: Vec<f64> = rounds.iter().map(f).collect();
        let q = stats::summarize(&values).ok_or_else(|| format!("no rounds for {name}"))?;
        eprintln!(
            "benchmark: {} {name} over {} rounds: q1 {:.1} median {:.1} q3 {:.1}",
            args.workload, q.n, q.q1, q.median, q.q3
        );
        Ok::<f64, String>(q.median)
    };
    // The tail is the slow operations' typical time, not the host's stalls:
    // each operation of a round by its median over the rounds, then the
    // highest percentile over those that the run's sample count supports.
    let typical: Vec<f64> = (0..ops)
        .filter_map(|op| {
            let walls: Vec<f64> = op_wall_ms.iter().skip(op).step_by(ops).copied().collect();
            stats::median(&walls)
        })
        .collect();
    let tail = stats::tail_per_mille(op_wall_ms.len());
    let values = [
        (
            "cycles_per_sec",
            over_rounds("cycles_per_sec", |r| r.cycles_per_sec)?,
        ),
        (
            "cpu_ns_per_cycle",
            over_rounds("cpu_ns_per_cycle", |r| r.cpu_ns_per_cycle)?,
        ),
        (
            "sim_speed_hz",
            model_speed_hz.unwrap_or(total.cycles as f64 / sim_time_s),
        ),
        (
            "wire_bytes_per_cycle",
            total.bytes as f64 / total.cycles as f64,
        ),
        (
            "verdict_ms_p50",
            need(stats::median(&op_wall_ms), "verdict_ms_p50")?,
        ),
        (
            "verdict_ms_tail",
            need(stats::percentile(&typical, tail), "verdict_ms_tail")?,
        ),
        ("peak_rss_mb", procfs::peak_rss_mib()?),
        ("setup_s", need(stats::median(&setup_s), "setup_s")?),
    ];
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics: measured(&spec::contract().end_to_end, &values)?,
    })
}

/// Two fixed kernels timed before the traced passes. Neither runs code of
/// the program under test, so a slow reading means a slow host. The first
/// is a serial integer chain, which only a descheduled or down-clocked CPU
/// slows; the second walks 8 MiB at random, which contention for the
/// shared cache and memory — the interference this benchmark's host shows
/// most — slows as well (README, "Host noise").
fn calibrate() -> (f64, f64) {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..(64u32 << 20) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    let chain_ns = start.elapsed().as_nanos() as f64;

    let mut table = vec![1u64; 1 << 20];
    let start = Instant::now();
    let (mut at, mut acc) = (0usize, 0u64);
    for _ in 0..(2u32 << 20) {
        acc = acc.wrapping_add(table[at]);
        table[at] = acc;
        at = (at * 5 + 1 + (acc as usize & 7)) & (table.len() - 1);
    }
    std::hint::black_box(acc);
    (chain_ns, start.elapsed().as_nanos() as f64)
}

fn traced(sc: &Scenario, args: &RunArgs) -> Result<RunOutput, String> {
    let (calib_ns, calib_mem_ns) = calibrate();

    let mut programs = Vec::new();
    let mut build_ms = Vec::new();
    for i in 0..PROGRAMS {
        let t = Instant::now();
        programs.push(sc.build_program(args.seed, i));
        build_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
    }

    // Pairs of (untraced session, traced in-order pass) over the same
    // program and cycle budget, back to back so both see the same host.
    // The traced pass must reproduce the untraced counts exactly.
    let passes = (rounds_for(args.seconds, sc) / ROUNDS_PER_TRACED_PASS).max(1);
    let cycles = sc.stream_cycles;
    let mut rec = Recorder::new(format!("{}/seed{}", args.workload, args.seed));
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut busy = [0u64; 5];
    let mut sum = Counts::default();
    let (mut events, mut tagged) = (0u64, 0u64);
    let (mut closure, mut overhead) = (Vec::new(), Vec::new());
    let (mut ipc, mut utilization, mut fusion, mut recycle) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut phases = [0u64; 7];
    let mut phase_cycles = 0u64;
    let mut fail = |what: String| {
        failed += 1;
        eprintln!("benchmark: {} traced: {what}", args.workload);
    };
    for i in 0..passes {
        let program = &programs[i % PROGRAMS];
        let reference = sc.run_stream(program, cycles);
        let pass = sc.layer_pass(program, cycles, &mut rec)?;
        attempted += 2;
        if let Some(why) = &reference.failure {
            fail(format!("untraced session {i}: {why}"));
        }
        if pass.counts != reference.counts {
            fail(format!(
                "pass {i} counted {:?}, the untraced session {:?}",
                pass.counts, reference.counts
            ));
        }
        for (slot, ns) in busy.iter_mut().zip(pass.busy_ns) {
            *slot += ns;
        }
        sum.cycles += pass.counts.cycles;
        sum.bytes += pass.counts.bytes;
        sum.transfers += pass.counts.transfers;
        events += pass.events;
        tagged += pass.tagged;
        closure.push(pass.busy_ns.iter().sum::<u64>() as f64 / reference.wall_ns as f64);
        overhead.push(pass.wall_ns as f64 / reference.wall_ns as f64);
        ipc.push(pass.ipc);
        utilization.push(pass.batch_utilization);
        fusion.push(pass.fusion_ratio);
        recycle.push(pass.pool_recycle_ratio);
        if sc.ops_per_round() == 1 {
            for (slot, ns) in phases.iter_mut().zip(reference.phases_ns) {
                *slot += ns;
            }
            phase_cycles += reference.counts.cycles;
        }
    }
    // A workload of bug sessions reads the program's phase times from one
    // round of its own operations, so the Replay (arq) phase shows.
    if sc.ops_per_round() > 1 {
        for op in 0..sc.ops_per_round() {
            let r = sc.run_op(&programs[0], op);
            attempted += 1;
            if let Some(why) = &r.failure {
                fail(format!("bug session {op}: {why}"));
            }
            for (slot, ns) in phases.iter_mut().zip(r.phases_ns) {
                *slot += ns;
            }
            phase_cycles += r.counts.cycles;
        }
    }

    let iso = sc.iso_passes(&programs[0])?;
    let session_build_ms = sc.session_build_ms(&programs[0])?;
    let localize_ms = sc.localize_ms(&programs[0])?;

    let trace_path = out_dir().join(format!("trace.{}.jsonl", args.workload));
    rec.write_jsonl(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let per_cycle = |ns: u64| ns as f64 / sum.cycles as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let phase_total: u64 = phases.iter().sum();
    let layer = |name: &str| {
        LAYERS
            .iter()
            .position(|l| *l == name)
            .map(|i| busy[i])
            .unwrap_or(0)
    };
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no samples for {what}"));
    let mut values = vec![
        ("dut.tick_ns_per_cycle", per_cycle(layer("dut.tick"))),
        ("dut.events_per_cycle", events as f64 / sum.cycles as f64),
        ("dut.ipc", mean(&ipc)),
        (
            "replay.retain_ns_per_cycle",
            per_cycle(layer("replay.retain")),
        ),
        (
            "transport.pack_ns_per_cycle",
            per_cycle(layer("transport.pack")),
        ),
        (
            "link.feed_ns_per_transfer",
            layer("link.feed") as f64 / sum.transfers as f64,
        ),
        (
            "consume.ingest_ns_per_cycle",
            per_cycle(layer("consume.ingest")),
        ),
        (
            "link.transfers_per_kcycle",
            sum.transfers as f64 * 1000.0 / sum.cycles as f64,
        ),
        (
            "link.bytes_per_transfer",
            sum.bytes as f64 / sum.transfers as f64,
        ),
        ("batch.utilization", mean(&utilization)),
        ("squash.fusion_ratio", mean(&fusion)),
        (
            "squash.tagged_per_kcycle",
            tagged as f64 * 1000.0 / sum.cycles as f64,
        ),
        ("pool.recycle_ratio", mean(&recycle)),
        ("squash.fuse_ns_per_event", iso.fuse_ns_per_event),
        ("wire.encode_ns_per_item", iso.encode_ns_per_item),
        ("batch.pack_ns_per_item", iso.pack_ns_per_item),
        ("event.crc32_ns_per_byte", iso.crc32_ns_per_byte),
        ("transport.admit_ns_per_byte", iso.admit_ns_per_byte),
        ("checker.check_ns_per_item", iso.check_ns_per_item),
        ("ref.step_ns_per_insn", iso.ref_step_ns_per_insn),
        (
            "ref.step_noblocks_ns_per_insn",
            iso.ref_step_noblocks_ns_per_insn,
        ),
        ("ref.block_hit_ratio", iso.ref_block_hit_ratio),
        ("ref.checkpoint_ns", iso.ref_checkpoint_ns),
        ("ref.revert_ns", iso.ref_revert_ns),
        ("proto.decode_ns_per_byte", iso.proto_decode_ns_per_byte),
        ("session.build_ms", session_build_ms),
        ("replay.localize_ms", localize_ms),
        (
            "workload.build_ms",
            need(stats::median(&build_ms), "workload.build_ms")?,
        ),
        (
            "phase.total_ns_per_cycle",
            phase_total as f64 / phase_cycles as f64,
        ),
        (
            "trace.closure_ratio",
            need(stats::median(&closure), "trace.closure_ratio")?,
        ),
        (
            "trace.overhead_ratio",
            need(stats::median(&overhead), "trace.overhead_ratio")?,
        ),
        ("harness.calib_ns", calib_ns),
        ("harness.calib_mem_ns", calib_mem_ns),
    ];
    let share_names: Vec<String> = spec::PHASES
        .iter()
        .map(|p| format!("phase.{p}_share"))
        .collect();
    for (name, ns) in share_names.iter().zip(phases) {
        values.push((name.as_str(), ns as f64 / phase_total.max(1) as f64));
    }
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics: measured(&spec::contract().per_layer, &values)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunOutput {
        RunOutput {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Measured {
                    name: "latency_ms".to_owned(),
                    unit: "ms".to_owned(),
                    value: 1.2034,
                },
                Measured {
                    name: "cycles_per_sec".to_owned(),
                    unit: "cycles/s".to_owned(),
                    value: 237_412.908_113_5,
                },
            ],
        }
    }

    #[test]
    fn result_line_round_trips() {
        let out = sample();
        let line = out.to_json().unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\"latency_ms\":{\"value\":1.2034,\"unit\":\"ms\"}"));
        assert_eq!(RunOutput::parse(&line), Ok(out));
    }

    #[test]
    fn result_line_rejects_non_finite_and_malformed() {
        let mut out = sample();
        out.metrics[0].value = f64::NAN;
        assert!(out.to_json().unwrap_err().contains("latency_ms"));
        assert!(RunOutput::parse("{\"correct\":true}").is_err());
        assert!(
            RunOutput::parse("{\"correct\":1,\"attempted\":1,\"failed\":0,\"metrics\":{}}")
                .is_err()
        );
        assert!(RunOutput::parse(
            "{\"correct\":true,\"attempted\":1.5,\"failed\":0,\"metrics\":{}}"
        )
        .is_err());
        assert!(RunOutput::parse("not json").is_err());
    }

    #[test]
    fn set_up_line_round_trips() {
        let counts = |cycles| Counts {
            cycles,
            instructions: 2,
            items: 3,
            bytes: 4,
            transfers: 5,
        };
        let s = SetUp {
            seconds: 0.1 + 0.2,
            counts: vec![counts(100_000), counts(10_812)],
        };
        assert_eq!(SetUp::parse(&s.to_json().unwrap()), Ok(s));
        assert!(SetUp::parse("{\"setup_s\":1}").is_err());
        assert!(SetUp::parse("{\"setup_s\":1,\"counts\":[[1,2,3]]}").is_err());
    }

    #[test]
    fn measured_demands_exactly_the_contract_set() {
        let defs = &spec::contract().end_to_end[..2];
        let ok = measured(defs, &[("cpu_ns_per_cycle", 2.0), ("cycles_per_sec", 1.0)]).unwrap();
        assert_eq!(ok[0].name, "cycles_per_sec", "table order, not call order");
        assert_eq!(ok[0].unit, "cycles/s");
        assert!(
            measured(defs, &[("cycles_per_sec", 1.0)]).is_err(),
            "missing"
        );
        assert!(measured(
            defs,
            &[
                ("cycles_per_sec", 1.0),
                ("cpu_ns_per_cycle", 2.0),
                ("extra", 3.0)
            ]
        )
        .is_err());
        assert!(measured(
            defs,
            &[
                ("cycles_per_sec", 1.0),
                ("cycles_per_sec", 1.0),
                ("cpu_ns_per_cycle", 2.0)
            ]
        )
        .is_err());
    }
}
