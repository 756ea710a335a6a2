//! `compare A.json B.json`: two result files of `run`, metric by metric.
//!
//! A row is `regressed` when B's median is worse than A's by more than the
//! metric's bound, `unresolved` when either side's own spread (quartile
//! distance over median) is wider than the bound, and `ok` otherwise.  The
//! counts the program makes in its single-client pass must be identical.

use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END};
use crate::ops::WORKLOADS;

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method);
/// one value is all three of its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1, 2, 3].map(|k| {
        let position = k * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

fn values_of(results: &Json, workload: &str, group: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(group))
        .and_then(|g| g.get(metric))
        .and_then(Json::as_array)
        .map(|runs| runs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// The settings two result files must share to be comparable.
fn refuse_mismatch(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["seed", "seconds", "customers", "smoke"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "{key} differs: {:?} vs {:?}",
                a.get(key),
                b.get(key)
            ));
        }
    }
    for workload in WORKLOADS {
        for (side, results) in [("A", a), ("B", b)] {
            let run = results.get("workloads").and_then(|w| w.get(workload));
            if run.and_then(|r| r.get("degraded")) != Some(&Json::Bool(false)) {
                return Err(format!(
                    "{side}: {workload} is missing or ran degraded (fewer clients than specified)"
                ));
            }
        }
        let clients = |r: &Json| {
            r.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("clients"))
                .cloned()
        };
        if clients(a) != clients(b) {
            return Err(format!("{workload}: client counts differ"));
        }
    }
    Ok(())
}

/// Prints the comparison; `Ok(true)` when no row regressed.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    refuse_mismatch(a, b)?;
    let mut clean = true;
    println!(
        "{:<14} {:<20} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload", "metric", "A q1/median/q3", "B q1/median/q3", "delta", "bound"
    );
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                values_of(a, workload, "end_to_end", metric.name),
                values_of(b, workload, "end_to_end", metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload} {} is missing from a result file",
                    metric.name
                ));
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            // Positive = B is worse.
            let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
            let delta = sign * (qb[1] - qa[1]) / qa[1];
            let spread = ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1]);
            let verdict = if metric.repeats_exactly {
                if va.iter().chain(&vb).all(|x| *x == va[0]) {
                    "ok (identical)"
                } else {
                    "regressed (must repeat exactly)"
                }
            } else if spread > metric.bound {
                "unresolved"
            } else if delta > metric.bound {
                "regressed"
            } else {
                "ok"
            };
            clean &= !verdict.starts_with("regressed");
            let show = |q: [f64; 3]| format!("{:.5}/{:.5}/{:.5}", q[0], q[1], q[2]);
            println!(
                "{workload:<14} {:<20} {:>36} {:>36} {:>+8.4} {:>6}  {verdict}",
                metric.name,
                show(qa),
                show(qb),
                delta,
                metric.bound
            );
        }
        for layer in per_layer().iter().filter(|m| m.repeats_exactly) {
            let (va, vb) = (
                values_of(a, workload, "per_layer", &layer.name),
                values_of(b, workload, "per_layer", &layer.name),
            );
            if va.iter().chain(&vb).any(|x| *x != va[0]) {
                clean = false;
                println!(
                    "{workload:<14} {:<20} A {va:?} B {vb:?}  regressed (must repeat exactly)",
                    layer.name
                );
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    fn results(throughput: &[f64], sim: f64, degraded: bool) -> Json {
        let runs = |values: &[f64]| Json::Array(values.iter().map(|&v| Json::Num(v)).collect());
        let workloads = WORKLOADS.map(|w| {
            let end_to_end = END_TO_END.iter().map(|m| {
                let values = match m.name {
                    "throughput_ops_s" => runs(throughput),
                    "sim_ms_per_read" => runs(&[sim]),
                    _ => runs(&[1.0]),
                };
                (m.name, values)
            });
            let run = Json::object([
                ("clients", Json::Num(2.0)),
                ("degraded", Json::Bool(degraded)),
                ("end_to_end", Json::object(end_to_end)),
                ("per_layer", Json::object::<String>([])),
            ]);
            (w, run)
        });
        Json::object([
            ("seed", Json::Num(1.0)),
            ("seconds", Json::Num(10.0)),
            ("customers", Json::Num(500.0)),
            ("smoke", Json::Bool(false)),
            ("workloads", Json::object(workloads)),
        ])
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let base = results(&[1000.0, 1010.0, 990.0], 5.0, false);
        assert_eq!(compare(&base, &base), Ok(true));
        // Throughput may fall by its bound of a quarter, not by 35 %.
        assert_eq!(
            compare(&base, &results(&[800.0, 810.0, 790.0], 5.0, false)),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &results(&[650.0, 660.0, 640.0], 5.0, false)),
            Ok(false)
        );
        // A spread wider than the bound is unresolved, not regressed.
        assert_eq!(
            compare(&base, &results(&[650.0, 1100.0, 300.0], 5.0, false)),
            Ok(true)
        );
        // An exactly repeating count that moved at all is a regression.
        assert_eq!(
            compare(&base, &results(&[1000.0, 1010.0, 990.0], 5.001, false)),
            Ok(false)
        );
    }

    #[test]
    fn refuses_degraded_or_mismatched_runs() {
        let base = results(&[1000.0], 5.0, false);
        assert!(compare(&base, &results(&[1000.0], 5.0, true))
            .unwrap_err()
            .contains("degraded"));
        let mut other_seed = base.clone();
        if let Json::Object(pairs) = &mut other_seed {
            pairs[0].1 = Json::Num(2.0);
        }
        assert!(compare(&base, &other_seed).unwrap_err().contains("seed"));
    }
}
