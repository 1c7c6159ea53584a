//! The benchmark's contract: workload and metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is the
//! only copy; it is compiled in and parsed once.

use std::sync::OnceLock;

use crate::adapter::{parse_json, Json};

/// The seed results are recorded on; 13 is held out: run it to confirm a
/// claim, never to tune one.
pub const DEFAULT_SEED: u64 = 7;

/// End-to-end metrics computed from the program's own counts: two runs on
/// one seed must read the same to the last bit.
pub const EXACT: [&str; 2] = ["sim_speed_hz", "wire_bytes_per_cycle"];

/// Names of the seven `PhaseTimer` phases, in the repository's order.
pub const PHASES: [&str; 7] = [
    "tick",
    "monitor",
    "pack",
    "transport",
    "unpack",
    "check",
    "arq",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone)]
pub struct WorkloadDef {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by before it
    /// counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    /// Seconds one run measures.
    pub run_seconds: f64,
    pub workloads: Vec<WorkloadDef>,
    /// Measured with span recording off; every workload reports every one.
    pub end_to_end: Vec<MetricDef>,
    /// Reported by the traced run; every workload reports every one.
    pub per_layer: Vec<MetricDef>,
}

fn parse_contract(text: &str) -> Result<Contract, String> {
    let v = parse_json(text)?;
    let list = |key: &str| {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no list {key:?}"))
    };
    let text_of = |e: &Json, key: &str| {
        e.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("an entry lacks {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        list(key)?
            .iter()
            .map(|e| {
                Ok(MetricDef {
                    name: text_of(e, "name")?,
                    unit: text_of(e, "unit")?,
                    better: match text_of(e, "better")?.as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("\"better\": {other:?}")),
                    },
                    bound: e.get("bound").and_then(Json::as_num),
                })
            })
            .collect()
    };
    Ok(Contract {
        run_seconds: v
            .get("run_seconds")
            .and_then(Json::as_num)
            .ok_or("no \"run_seconds\"")?,
        workloads: list("workloads")?
            .iter()
            .map(|e| {
                Ok(WorkloadDef {
                    name: text_of(e, "name")?,
                    why: text_of(e, "why")?,
                })
            })
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        parse_contract(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Starts with a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_legal_and_unique() {
        let c = contract();
        let mut seen = std::collections::BTreeSet::new();
        let names = (c.workloads.iter().map(|w| &w.name))
            .chain(c.end_to_end.iter().map(|m| &m.name))
            .chain(c.per_layer.iter().map(|m| &m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn contract_limits_hold() {
        let c = contract();
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        for w in &c.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &c.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        for m in &c.per_layer {
            assert_eq!(m.bound, None, "{}", m.name);
        }
        for name in EXACT {
            assert!(c.end_to_end.iter().any(|m| m.name == name), "{name}");
        }
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
    }

    #[test]
    fn malformed_contracts_are_refused() {
        assert!(parse_contract("{}").is_err());
        assert!(parse_contract(
            "{\"run_seconds\":1,\"workloads\":[{\"name\":\"w\"}],\"end_to_end\":[],\"per_layer\":[]}"
        )
        .is_err());
        assert!(parse_contract(
            "{\"run_seconds\":1,\"workloads\":[],\"end_to_end\":[{\"name\":\"m\",\"unit\":\"s\",\"better\":\"faster\"}],\"per_layer\":[]}"
        )
        .is_err());
    }
}
