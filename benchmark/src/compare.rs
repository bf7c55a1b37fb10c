//! `compare`: judge two result files against each metric's bound and the
//! runs' own spread.

use std::fmt;

use std::collections::{BTreeMap, BTreeSet};

use crate::report::{bounded_metrics, ResultSet};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The median did not worsen by more than the bound, and the runs are
    /// steady enough to say so.
    Ok,
    /// The median worsened by more than the bound.
    Regressed,
    /// The median is within the bound but the run-to-run spread is wider
    /// than the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// By how much of `base` the value `new` is worse; negative when better.
fn worsening(base: f64, new: f64, lower_is_better: bool) -> f64 {
    let change = (new - base) / base.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// The verdict table (choosing-metrics, section 6.5):
///
/// | median worse by | spread of either side | every `b` better than every `a` | verdict |
/// |---|---|---|---|
/// | more than bound | any | – | regressed |
/// | at most bound | at most bound | – | ok |
/// | at most bound | wider than bound | yes | ok |
/// | at most bound | wider than bound | no | unresolved |
///
/// A side with a single run has no spread and counts as steady.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Option<Verdict> {
    let (ma, mb) = (median(a)?, median(b)?);
    if worsening(ma, mb, lower_is_better) > bound {
        return Some(Verdict::Regressed);
    }
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if !wide(a) && !wide(b) {
        return Some(Verdict::Ok);
    }
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(x, y, lower_is_better) < 0.0));
    Some(if all_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    })
}

/// Input size, engine count and run length of each workload's runs.
fn shapes(set: &ResultSet) -> BTreeMap<&str, BTreeSet<(u64, usize, u64)>> {
    let mut out: BTreeMap<&str, BTreeSet<_>> = BTreeMap::new();
    for run in &set.runs {
        out.entry(&run.workload).or_default().insert((
            run.events,
            run.engines,
            run.seconds_asked.to_bits(),
        ));
    }
    out
}

/// Two sets can be judged against each other only if both were built
/// against the same third-party crates and every workload both hold ran
/// with one input size, engine count and run length.
pub fn comparable(a: &ResultSet, b: &ResultSet) -> Result<(), String> {
    if a.provenance.standins != b.provenance.standins {
        return Err(
            "one set was built against the stand-in crates, the other against the published ones"
                .into(),
        );
    }
    let (sa, sb) = (shapes(a), shapes(b));
    for (workload, shape) in &sa {
        let Some(other) = sb.get(workload) else {
            continue;
        };
        if shape != other || shape.len() != 1 {
            return Err(format!(
                "{workload}: runs differ in events, engines or seconds"
            ));
        }
    }
    Ok(())
}

/// Print one row per workload and bounded metric that both files hold;
/// returns how many are not `ok`.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<usize, String> {
    comparable(a, b)?;
    let (va, vb) = (a.values(), b.values());
    let mut not_ok = 0;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8}  {:>6}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "bound"
    );
    let mut workloads: Vec<&String> = va.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    for workload in workloads {
        for judged in bounded_metrics(workload) {
            let key = (workload.clone(), judged.name.clone());
            let (Some(xs), Some(ys)) = (va.get(&key), vb.get(&key)) else {
                continue;
            };
            let Some(v) = verdict(xs, ys, judged.lower_is_better, judged.bound) else {
                continue;
            };
            let (ma, mb) = (
                median(xs).expect("verdict saw a median"),
                median(ys).expect("verdict saw a median"),
            );
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>8.3}  {:>5.0}%  {v}  ({} {}, n={}/{})",
                workload,
                judged.name,
                ma,
                mb,
                mb / ma,
                judged.bound * 100.0,
                judged.unit,
                if judged.lower_is_better {
                    "lower is better"
                } else {
                    "higher is better"
                },
                xs.len(),
                ys.len(),
            );
            if v != Verdict::Ok {
                not_ok += 1;
            }
        }
    }
    Ok(not_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Provenance;
    use crate::runner::RunResult;

    const STEADY_100: [f64; 5] = [99.0, 100.0, 100.0, 100.0, 101.0];
    const NOISY_100: [f64; 5] = [70.0, 85.0, 100.0, 115.0, 130.0];

    fn scaled(values: &[f64], by: f64) -> Vec<f64> {
        values.iter().map(|v| v * by).collect()
    }

    fn set(standins: bool, runs: &[(&str, u64, f64)]) -> ResultSet {
        ResultSet {
            provenance: Provenance {
                git_sha: String::new(),
                rustc: String::new(),
                nproc: 2,
                cpu_model: String::new(),
                standins,
            },
            runs: runs
                .iter()
                .map(|&(workload, events, seconds_asked)| RunResult {
                    workload: workload.to_string(),
                    seed: 7,
                    events,
                    engines: 2,
                    traced: false,
                    seconds_asked,
                    timed_phase_s: seconds_asked,
                    total_s: seconds_asked,
                    setup_repeats: 3,
                    warmup_iterations: 3,
                    attempted: 1,
                    failed: 0,
                    errors: Vec::new(),
                    metrics: BTreeMap::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn only_like_is_compared_with_like() {
        let base = set(true, &[("rerun_vm", 100, 20.0), ("rerun_vm", 100, 20.0)]);
        assert_eq!(comparable(&base, &base), Ok(()));
        // A workload only one side ran is skipped, not refused.
        let other = set(true, &[("rerun_vm", 100, 20.0), ("remote_live", 50, 20.0)]);
        assert_eq!(comparable(&base, &other), Ok(()));
        assert!(comparable(&base, &set(false, &[("rerun_vm", 100, 20.0)])).is_err());
        assert!(comparable(&base, &set(true, &[("rerun_vm", 200, 20.0)])).is_err());
        assert!(comparable(&base, &set(true, &[("rerun_vm", 100, 5.0)])).is_err());
        let mixed = set(true, &[("rerun_vm", 100, 20.0), ("rerun_vm", 100, 5.0)]);
        assert!(comparable(&mixed, &mixed).is_err());
    }

    #[test]
    fn verdict_table_for_lower_is_better() {
        let bound = 0.10;
        // Worse by more than the bound, steady or noisy.
        assert_eq!(
            verdict(&STEADY_100, &scaled(&STEADY_100, 1.2), true, bound),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            verdict(&NOISY_100, &scaled(&NOISY_100, 1.2), true, bound),
            Some(Verdict::Regressed)
        );
        // Within the bound and steady.
        assert_eq!(
            verdict(&STEADY_100, &scaled(&STEADY_100, 1.05), true, bound),
            Some(Verdict::Ok)
        );
        // Within the bound but too noisy to call.
        assert_eq!(
            verdict(&NOISY_100, &scaled(&NOISY_100, 1.05), true, bound),
            Some(Verdict::Unresolved)
        );
        // Noisy, yet every run of b beats every run of a.
        assert_eq!(
            verdict(&NOISY_100, &scaled(&NOISY_100, 0.5), true, bound),
            Some(Verdict::Ok)
        );
        // Better by a lot and steady.
        assert_eq!(
            verdict(&STEADY_100, &scaled(&STEADY_100, 0.5), true, bound),
            Some(Verdict::Ok)
        );
    }

    #[test]
    fn direction_flips_for_higher_is_better() {
        let bound = 0.10;
        assert_eq!(
            verdict(&STEADY_100, &scaled(&STEADY_100, 0.8), false, bound),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            verdict(&STEADY_100, &scaled(&STEADY_100, 1.2), false, bound),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict(&NOISY_100, &scaled(&NOISY_100, 2.0), false, bound),
            Some(Verdict::Ok)
        );
    }

    #[test]
    fn single_runs_and_empty_sides() {
        assert_eq!(verdict(&[100.0], &[105.0], true, 0.10), Some(Verdict::Ok));
        assert_eq!(
            verdict(&[100.0], &[115.0], true, 0.10),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict(&[], &[1.0], true, 0.10), None);
    }

    #[test]
    fn exactly_the_bound_is_not_a_regression() {
        assert_eq!(
            verdict(&[100.0, 100.0], &[110.0, 110.0], true, 0.10),
            Some(Verdict::Ok)
        );
    }
}
