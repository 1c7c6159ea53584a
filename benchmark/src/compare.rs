//! `benchmark compare A.json B.json`: two sets of runs on one seed, one row
//! per workload and end-to-end metric, A as the base, with the verdict the
//! regression rule gives. Timings are judged against their bound; metrics
//! computed from the program's own counts (`spec::EXACT`) and the number of
//! operations must be identical, whatever their bound allows across seeds.

use std::path::Path;

use crate::spec::{self, Better};
use crate::stats::{self, Summary};
use crate::suite::{Results, Series, WorkloadResult};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs' spread is wider than the bound and the two sets overlap:
    /// the data cannot tell unchanged from regressed.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub base: Summary,
    pub new: Summary,
    /// `new.median / base.median`.
    pub ratio: f64,
    pub verdict: Verdict,
}

fn spread(s: &Summary) -> f64 {
    (s.q3 - s.q1) / s.median.abs()
}

/// Compares the runs of one metric on one workload. `None` when either
/// side has no samples.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Option<Row> {
    let (b, n) = (stats::summarize(base)?, stats::summarize(new)?);
    let ratio = n.median / b.median;
    let worsened = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                (lo.min(*x), hi.max(*x))
            })
    };
    let ((b_lo, b_hi), (n_lo, n_hi)) = (range(base), range(new));
    let overlap = b_lo <= n_hi && n_lo <= b_hi;
    let verdict = if spread(&b).max(spread(&n)) > bound && overlap {
        Verdict::Unresolved
    } else if worsened > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Row {
        base: b,
        new: n,
        ratio,
        verdict,
    })
}

/// A metric that repeats exactly on one seed: any run of either set that
/// reads differently from the rest is a regression.
pub fn judge_exact(base: &[f64], new: &[f64]) -> Option<Row> {
    let mut row = judge(base, new, Better::Lower, 0.0)?;
    let same = base
        .iter()
        .chain(new)
        .all(|v| v.to_bits() == base[0].to_bits());
    row.verdict = if same {
        Verdict::Ok
    } else {
        Verdict::Regressed
    };
    Some(row)
}

fn find<'a>(r: &'a Results, workload: &str) -> Option<&'a WorkloadResult> {
    r.workloads.iter().find(|w| w.name == workload)
}

pub fn run(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    println!("base {}   new {}", base_path.display(), new_path.display());
    compare(&Results::load(base_path)?, &Results::load(new_path)?)
}

/// Prints the table; `Ok(false)` when any row regressed or a workload's
/// operations failed or differ in number.
fn compare(base: &Results, new: &Results) -> Result<bool, String> {
    if (base.seed, base.seconds) != (new.seed, new.seconds) {
        return Err(format!(
            "the two sets are not comparable: seed {} at {} s per run against seed {} at {} s",
            base.seed, base.seconds, new.seed, new.seconds
        ));
    }
    println!("seed {}, {} s per run", base.seed, base.seconds);
    println!(
        "{:<18} {:<22} {:>14} {:>22} {:>14} {:>22} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "base q1..q3",
        "new median",
        "new q1..q3",
        "new/base",
        "bound"
    );
    let mut ok = true;
    let contract = spec::contract();
    for w in &contract.workloads {
        let (Some(bw), Some(nw)) = (find(base, &w.name), find(new, &w.name)) else {
            return Err(format!("workload {} is missing from a result file", w.name));
        };
        for m in &contract.end_to_end {
            let values = |list: &[Series]| {
                list.iter()
                    .find(|s| s.name == m.name)
                    .map(|s| s.values.clone())
                    .unwrap_or_default()
            };
            let (b, n) = (values(&bw.end_to_end), values(&nw.end_to_end));
            let exact = spec::EXACT.contains(&m.name.as_str());
            let bound = m.bound.unwrap_or(0.0);
            let row = if exact {
                judge_exact(&b, &n)
            } else {
                judge(&b, &n, m.better, bound)
            };
            let Some(row) = row else {
                return Err(format!(
                    "{} has no {} samples in a result file",
                    w.name, m.name
                ));
            };
            ok &= row.verdict != Verdict::Regressed;
            println!(
                "{:<18} {:<22} {:>14.4} {:>10.4}..{:<10.4} {:>14.4} {:>10.4}..{:<10.4} {:>7.4} {:>6}  {}",
                w.name,
                m.name,
                row.base.median,
                row.base.q1,
                row.base.q3,
                row.new.median,
                row.new.q1,
                row.new.q3,
                row.ratio,
                if exact {
                    "exact".to_owned()
                } else {
                    format!("{:.1}%", bound * 100.0)
                },
                row.verdict.name()
            );
        }
        if bw.failed + nw.failed > 0 || bw.attempted != nw.attempted {
            ok = false;
            println!(
                "{:<18} operations failed or differ in number: base {} of {}, new {} of {}",
                w.name, bw.failed, bw.attempted, nw.failed, nw.attempted
            );
        }
    }
    println!("{}", if ok { "no regression" } else { "REGRESSED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
        judge(base, new, better, bound).unwrap().verdict
    }

    #[test]
    fn a_median_within_its_bound_is_ok() {
        let base = [100.0, 101.0, 99.0, 100.5, 100.2];
        let new = [104.0, 105.0, 103.0, 104.5, 104.2];
        assert_eq!(verdict(&base, &new, Better::Lower, 0.10), Verdict::Ok);
        // Better by any amount is never a regression.
        assert_eq!(
            verdict(&new, &[50.0, 51.0, 49.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &[200.0, 201.0], Better::Higher, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn a_median_beyond_its_bound_regresses_in_the_metric_s_direction() {
        let base = [100.0, 101.0, 99.0, 100.5, 100.2];
        let slow = [120.0, 121.0, 119.0, 120.5, 120.2];
        assert_eq!(
            verdict(&base, &slow, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&slow, &base, Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.10), Verdict::Ok);
        let row = judge(&base, &slow, Better::Lower, 0.10).unwrap();
        assert!((row.ratio - 120.2 / 100.2).abs() < 1e-12);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let base = [100.0, 140.0, 80.0, 120.0, 95.0];
        let new = [110.0, 150.0, 85.0, 130.0, 99.0];
        assert_eq!(
            verdict(&base, &new, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide but disjoint: every new run reads worse than every base run.
        let far = [300.0, 380.0, 260.0, 340.0, 310.0];
        assert_eq!(
            verdict(&base, &far, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(&far, &base, Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_must_be_identical_in_every_run() {
        let v = 0.1 + 0.2;
        let ok = judge_exact(&[v, v, v], &[v, v]).unwrap();
        assert_eq!((ok.verdict, ok.ratio), (Verdict::Ok, 1.0));
        // Within any percentage bound, and better: still not the same stream.
        let moved = judge_exact(&[56.24, 56.24], &[56.23, 56.23]).unwrap();
        assert_eq!(moved.verdict, Verdict::Regressed);
        // One run of the base itself disagrees.
        let flaky = judge_exact(&[56.24, 56.25, 56.24], &[56.24, 56.24, 56.24]).unwrap();
        assert_eq!(flaky.verdict, Verdict::Regressed);
        assert!(judge_exact(&[], &[1.0]).is_none());
    }

    #[test]
    fn result_sets_of_different_seeds_or_lengths_are_refused() {
        let set = |seed, seconds| Results {
            seed,
            seconds,
            workloads: Vec::new(),
        };
        let a = set(7, 10.0);
        assert!(compare(&a, &set(13, 10.0))
            .unwrap_err()
            .contains("not comparable"));
        assert!(compare(&a, &set(7, 5.0))
            .unwrap_err()
            .contains("not comparable"));
        // Same seed and length: gets as far as looking for the workloads.
        assert!(compare(&a, &a).unwrap_err().contains("missing"));
    }

    #[test]
    fn no_samples_no_row() {
        assert!(judge(&[], &[1.0], Better::Lower, 0.1).is_none());
        assert!(judge(&[1.0], &[], Better::Lower, 0.1).is_none());
    }
}
