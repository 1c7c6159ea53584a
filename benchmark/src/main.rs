//! The gated host benchmark of the DiffTest-H reproduction.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is its result
//! benchmark [--seed N] [--seconds S]                       every workload, 5 untraced runs + 1 traced each
//! benchmark --check                                         short self-test of verdicts and exact counts
//! benchmark compare A.json B.json                           two result files, one row per workload x metric
//! ```
//!
//! A run also starts `benchmark setup W N` itself: one more set-up of
//! workload W in a fresh process, timed from that process's start.
//!
//! See README.md beside the manifest.

mod adapter;
mod compare;
mod json;
mod procfs;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark [--seed <n>] [--seconds <s>]
  benchmark --check
  benchmark compare <a.json> <b.json>";

#[derive(Debug, Default, PartialEq)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    check: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            f.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not a valid value");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => f.seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                f.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(f)
}

fn dispatch(args: &[String], process_start: Instant) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare takes two result files".to_owned());
            };
            return compare::run(a.as_ref(), b.as_ref());
        }
        Some("setup") => {
            let [_, workload, seed] = args else {
                return Err("setup takes a workload and a seed".to_owned());
            };
            let seed = seed.parse().map_err(|_| format!("seed {seed}"))?;
            let (setup, _) = run::set_up(workload, seed, process_start)?;
            println!("{}", setup.to_json()?);
            return Ok(true);
        }
        _ => {}
    }
    let f = parse_flags(args)?;
    if f.check {
        return suite::check();
    }
    let seed = f.seed.unwrap_or(spec::DEFAULT_SEED);
    let seconds = f.seconds.unwrap_or(spec::contract().run_seconds);
    let Some(workload) = f.workload else {
        return suite::run(seed, seconds);
    };
    let out = run::run(
        &run::RunArgs {
            workload,
            seed,
            seconds,
            traced: f.trace.unwrap_or(false),
        },
        process_start,
    )?;
    println!("{}", out.to_json()?);
    Ok(out.correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // The socket runner re-executes this binary as its consumer.
    adapter::child_entry();
    adapter::isolate_environment(&run::out_dir());
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_gate_s_command_line_parses() {
        let f = flags(&[
            "--workload",
            "bug_sweep",
            "--seed",
            "13",
            "--seconds",
            "6",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("bug_sweep"));
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(13), Some(6.0), Some(true))
        );
        assert_eq!(flags(&[]).unwrap(), Flags::default());
        assert!(flags(&["--check"]).unwrap().check);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert!(flags(&["--seed"]).is_err());
        assert!(flags(&["--seed", "x"]).is_err());
        assert!(flags(&["--trace", "2"]).is_err());
        assert!(flags(&["--frobnicate", "1"]).is_err());
    }
}
