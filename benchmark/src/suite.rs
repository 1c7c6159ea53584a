//! The whole benchmark in one command: every workload, several untraced
//! runs and one traced run each, every run a fresh subprocess of this
//! binary, never two at once. Also the `--check` self-test and the result
//! file `compare` reads.

use std::fs;
use std::path::Path;

use crate::adapter::{parse_json, Json};
use crate::json;
use crate::run::{out_dir, spawn_self, RunOutput};
use crate::spec;
use crate::stats;

/// Untraced runs per workload.
const REPS: usize = 5;

/// Every value one metric took over the runs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Series>,
    pub per_layer: Vec<Series>,
}

/// One complete set of runs; what `out/results.seed<N>.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub seconds: f64,
    pub workloads: Vec<WorkloadResult>,
}

fn series_json(list: &[Series]) -> Result<String, String> {
    let mut out = Vec::new();
    for s in list {
        let values: Result<Vec<String>, String> =
            s.values.iter().map(|v| json::number(*v)).collect();
        out.push(format!(
            "{}:{{\"unit\":{},\"values\":[{}]}}",
            json::string(&s.name),
            json::string(&s.unit),
            values.map_err(|e| format!("{}: {e}", s.name))?.join(",")
        ));
    }
    Ok(format!("{{{}}}", out.join(",")))
}

fn parse_series(v: &Json) -> Result<Vec<Series>, String> {
    let Json::Obj(fields) = v else {
        return Err("metric table is not an object".to_owned());
    };
    fields
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str);
            let values = m.get("values").and_then(Json::as_arr);
            let (Some(unit), Some(values)) = (unit, values) else {
                return Err(format!("metric {name} lacks unit or values"));
            };
            let values: Option<Vec<f64>> = values.iter().map(Json::as_num).collect();
            Ok(Series {
                name: name.clone(),
                unit: unit.to_owned(),
                values: values.ok_or_else(|| format!("metric {name} holds a non-number"))?,
            })
        })
        .collect()
}

impl Results {
    pub fn to_json(&self) -> Result<String, String> {
        let mut workloads = Vec::new();
        for w in &self.workloads {
            workloads.push(format!(
                "{}:{{\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{}}}",
                json::string(&w.name),
                w.attempted,
                w.failed,
                series_json(&w.end_to_end)?,
                series_json(&w.per_layer)?
            ));
        }
        Ok(format!(
            "{{\"seed\":{},\"seconds\":{},\"workloads\":{{\n{}\n}}}}\n",
            self.seed,
            json::number(self.seconds)?,
            workloads.join(",\n")
        ))
    }

    pub fn parse(text: &str) -> Result<Results, String> {
        let v = parse_json(text)?;
        let num = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("result file lacks {k:?}"))
        };
        let Some(Json::Obj(fields)) = v.get("workloads") else {
            return Err("result file lacks \"workloads\"".to_owned());
        };
        let mut workloads = Vec::new();
        for (name, w) in fields {
            let table =
                |k: &str| parse_series(w.get(k).ok_or_else(|| format!("{name} lacks {k:?}"))?);
            workloads.push(WorkloadResult {
                name: name.clone(),
                attempted: num(w, "attempted")? as u64,
                failed: num(w, "failed")? as u64,
                end_to_end: table("end_to_end")?,
                per_layer: table("per_layer")?,
            });
        }
        Ok(Results {
            seed: num(&v, "seed")? as u64,
            seconds: num(&v, "seconds")?,
            workloads,
        })
    }

    pub fn load(path: &Path) -> Result<Results, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One run in a fresh subprocess of this binary; its result line parsed.
fn spawn_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunOutput, String> {
    let line = spawn_self(&[
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ])?;
    RunOutput::parse(&line).map_err(|e| format!("{workload}: {e}"))
}

fn push_values(into: &mut Vec<Series>, out: &RunOutput) {
    for m in &out.metrics {
        match into.iter_mut().find(|s| s.name == m.name) {
            Some(s) => s.values.push(m.value),
            None => into.push(Series {
                name: m.name.clone(),
                unit: m.unit.clone(),
                values: vec![m.value],
            }),
        }
    }
}

fn print_table(title: &str, list: &[Series]) {
    println!("  {title}");
    println!(
        "    {:<32} {:>9} {:>16} {:>16} {:>16} {:>3}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for s in list {
        if let Some(q) = stats::summarize(&s.values) {
            println!(
                "    {:<32} {:>9} {:>16.4} {:>16.4} {:>16.4} {:>3}",
                s.name, s.unit, q.median, q.q1, q.q3, q.n
            );
        }
    }
}

/// Names of the metrics of `list` that did not read the same on every run.
fn drifting<'a>(list: &'a [Series], exact: &[&str]) -> Vec<&'a str> {
    list.iter()
        .filter(|s| exact.contains(&s.name.as_str()))
        .filter(|s| {
            s.values
                .windows(2)
                .any(|w| w[0].to_bits() != w[1].to_bits())
        })
        .map(|s| s.name.as_str())
        .collect()
}

/// Runs every workload `REPS` times untraced and once traced, interleaved
/// round-robin so a slow minute on a shared host lands on every workload
/// and the median discards it. Returns whether every check passed.
pub fn run(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut results: Vec<WorkloadResult> = spec::contract()
        .workloads
        .iter()
        .map(|w| WorkloadResult {
            name: w.name.clone(),
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        })
        .collect();
    let mut ok = true;
    for rep in 0..=REPS {
        let traced = rep == REPS;
        for w in &mut results {
            eprintln!(
                "benchmark: {} {}",
                w.name,
                if traced {
                    "traced".to_owned()
                } else {
                    format!("run {}/{REPS}", rep + 1)
                }
            );
            let out = spawn_run(&w.name, seed, seconds, traced)?;
            ok &= out.correct;
            w.attempted += out.attempted;
            w.failed += out.failed;
            // Untraced runs come first and all attempt the same operations.
            if !traced && w.attempted != out.attempted * (rep as u64 + 1) {
                ok = false;
                println!(
                    "FAILED: {} attempted {} operations, earlier runs another number",
                    w.name, out.attempted
                );
            }
            push_values(
                if traced {
                    &mut w.per_layer
                } else {
                    &mut w.end_to_end
                },
                &out,
            );
        }
    }

    println!("seed {seed}, {seconds} s per run, {REPS} untraced runs + 1 traced run per workload");
    for (w, def) in results.iter().zip(&spec::contract().workloads) {
        println!(
            "\n{}: {} operations attempted, {} failed\n  {}",
            w.name, w.attempted, w.failed, def.why
        );
        print_table("end to end (span recording off)", &w.end_to_end);
        print_table("per layer (traced run)", &w.per_layer);
        for name in drifting(&w.end_to_end, &spec::EXACT) {
            ok = false;
            println!("  FAILED: {name} must repeat exactly and did not");
        }
    }

    let results = Results {
        seed,
        seconds,
        workloads: results,
    };
    let path = out_dir().join(format!("results.seed{seed}.json"));
    fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    fs::write(&path, results.to_json()?).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults: {}", path.display());
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// Every workload for a twentieth of its time: verdicts hold, and what
/// must repeat exactly does so over two back-to-back runs. (That a run
/// emits exactly the metrics `BENCHMARK.json` names needs no check: a run
/// builds its result line from that file's lists and fails otherwise.)
pub fn check() -> Result<bool, String> {
    let contract = spec::contract();
    let seconds = contract.run_seconds / 20.0;
    let mut problems: Vec<String> = Vec::new();
    for w in &contract.workloads {
        eprintln!("benchmark: check {}", w.name);
        let a = spawn_run(&w.name, spec::DEFAULT_SEED, seconds, false)?;
        let b = spawn_run(&w.name, spec::DEFAULT_SEED, seconds, false)?;
        // The traced run checks its counts against an untraced session itself.
        let t = spawn_run(&w.name, spec::DEFAULT_SEED, seconds, true)?;
        for out in [&a, &b, &t] {
            if !out.correct {
                problems.push(format!("{}: {} operations failed", w.name, out.failed));
            }
        }
        if a.attempted != b.attempted {
            problems.push(format!(
                "{}: attempted {} then {}",
                w.name, a.attempted, b.attempted
            ));
        }
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if spec::EXACT.contains(&x.name.as_str()) && x.value.to_bits() != y.value.to_bits() {
                problems.push(format!(
                    "{}: {} read {} then {}",
                    w.name, x.name, x.value, y.value
                ));
            }
        }
    }
    for p in &problems {
        println!("FAILED: {p}");
    }
    if problems.is_empty() {
        println!(
            "check passed: {} workloads, {} + {} metrics",
            contract.workloads.len(),
            contract.end_to_end.len(),
            contract.per_layer.len()
        );
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        let series = |name: &str, unit: &str, values: &[f64]| Series {
            name: name.to_owned(),
            unit: unit.to_owned(),
            values: values.to_vec(),
        };
        Results {
            seed: 7,
            seconds: 6.0,
            workloads: vec![WorkloadResult {
                name: "xs_batch_engine".to_owned(),
                attempted: 65,
                failed: 0,
                end_to_end: vec![
                    series(
                        "cycles_per_sec",
                        "cycles/s",
                        &[220_113.25, 219_870.5, 0.1 + 0.2],
                    ),
                    series("setup_s", "s", &[1.5]),
                ],
                per_layer: vec![series("dut.ipc", "count", &[])],
            }],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample();
        assert_eq!(Results::parse(&r.to_json().unwrap()), Ok(r));
        assert!(Results::parse("{}").is_err());
        assert!(Results::parse("{\"seed\":1,\"seconds\":1,\"workloads\":{\"w\":{}}}").is_err());
    }

    #[test]
    fn exact_metrics_that_drift_are_named() {
        let mut r = sample();
        let list = &mut r.workloads[0].end_to_end;
        assert!(drifting(list, &["setup_s", "cycles_per_sec"]) == ["cycles_per_sec"]);
        assert!(drifting(list, &["setup_s"]).is_empty());
        list[0].values = vec![3.0, 3.0, 3.0];
        assert!(drifting(list, &["cycles_per_sec"]).is_empty());
    }
}
