//! `benchmark compare A.json B.json`: is B no worse than A?
//!
//! One row per (workload, metric) present in both documents, with both
//! medians and the ratio B/A. Deterministic metrics compare exactly: any
//! move in the worse direction is a regression. Wall-clock end-to-end
//! metrics get the bound `BENCHMARK.json` fixes for them: a median worse
//! by more than the bound is a regression — unless the two sides'
//! quartile ranges overlap, in which case the run-to-run spread is wider
//! than the difference and the row is reported as unresolved, not as
//! unchanged. Wall-clock layer timings have no bound and are shown for
//! attribution only. Exits non-zero on any regression.

use crate::spec::{spec, MetricSpec};
use haec_sim::obs::json::Json;
use std::process::ExitCode;

/// What one row concluded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Ok,
    Better,
    Info,
    Unresolved,
    Regression,
}

/// Median and quartile range of one side.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// The verdict for `metric` going from `a` to `b`.
pub fn judge(metric: &MetricSpec, a: Side, b: Side) -> Verdict {
    // Positive when b is worse than a.
    let worse_by = if metric.higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    };
    if !metric.is_wall_clock() {
        return match worse_by {
            w if w > 0.0 => Verdict::Regression,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let Some(bound) = metric.bound else {
        return Verdict::Info;
    };
    if worse_by <= bound * a.median.abs() {
        return Verdict::Ok;
    }
    if a.q1 <= b.q3 && b.q1 <= a.q3 {
        Verdict::Unresolved
    } else {
        Verdict::Regression
    }
}

fn side(series: &Json) -> Option<Side> {
    Some(Side {
        median: series.get("median")?.as_f64()?,
        q1: series.get("q1")?.as_f64()?,
        q3: series.get("q3")?.as_f64()?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // A captured run may carry the driver's result line after the
    // document; the document is the first line.
    let first = text.lines().next().unwrap_or("");
    Json::parse(first).map_err(|e| format!("{path}: {e:?}"))
}

/// Every (workload, metric, verdict) row of `a` against `b`, rendered.
pub fn rows(a: &Json, b: &Json) -> Vec<(String, Verdict)> {
    fn workloads(doc: &Json) -> &[Json] {
        doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
    }
    let mut out = Vec::new();
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for group in ["end_to_end", "per_layer"] {
            let Some(Json::Obj(series)) = wa.get(group) else {
                continue;
            };
            for (metric_name, sa) in series {
                let (Some(metric), Some(sb)) = (
                    spec().metric(metric_name),
                    wb.get(group).and_then(|g| g.get(metric_name)),
                ) else {
                    continue;
                };
                let (Some(sa), Some(sb)) = (side(sa), side(sb)) else {
                    continue;
                };
                let verdict = judge(metric, sa, sb);
                let ratio = if sa.median != 0.0 {
                    format!("{:.4}", sb.median / sa.median)
                } else {
                    "-".into()
                };
                out.push((
                    format!(
                        "{name:<14} {metric_name:<46} {:>16.6} {:>16.6} {:>8} {ratio:>8}x of A  {verdict:?}",
                        sa.median, sb.median, metric.unit,
                    ),
                    verdict,
                ));
            }
        }
    }
    out
}

/// Prints the comparison; fails on a regression or on nothing to compare.
pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = rows(&a, &b);
    println!(
        "{:<14} {:<46} {:>16} {:>16} {:>8} {:>17}  verdict",
        "workload", "metric", "A median", "B median", "unit", "B/A"
    );
    for (line, _) in &rows {
        println!("{line}");
    }
    let count = |v: Verdict| rows.iter().filter(|(_, r)| *r == v).count();
    println!(
        "{} rows: {} regression(s), {} unresolved",
        rows.len(),
        count(Verdict::Regression),
        count(Verdict::Unresolved)
    );
    if rows.is_empty() {
        eprintln!("compare: the two documents share no (workload, metric)");
        return ExitCode::from(2);
    }
    if count(Verdict::Regression) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, q1: f64, q3: f64) -> Side {
        Side { median, q1, q3 }
    }

    #[test]
    fn wall_clock_metrics_get_their_bound_and_an_unresolved_zone() {
        let wall = spec().metric("wall_s").expect("declared");
        let bound = wall.bound.expect("end-to-end metrics have a bound");
        let a = side(1.0, 0.99, 1.01);
        let within = 1.0 + bound * 0.9;
        let beyond = 1.0 + bound * 1.5;
        assert_eq!(judge(wall, a, side(within, within, within)), Verdict::Ok);
        assert_eq!(judge(wall, a, side(0.5, 0.5, 0.5)), Verdict::Ok);
        assert_eq!(
            judge(wall, a, side(beyond, beyond - 0.01, beyond + 0.01)),
            Verdict::Regression
        );
        // Worse by more than the bound, but the spreads overlap.
        assert_eq!(
            judge(wall, side(1.0, 0.9, 1.3), side(beyond, 1.2, 1.4)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn deterministic_metrics_compare_exactly_in_their_direction() {
        let bytes = spec().metric("wire_bytes_per_op").expect("declared");
        let at = |v| side(v, v, v);
        assert_eq!(judge(bytes, at(19.0), at(19.0)), Verdict::Same);
        assert_eq!(judge(bytes, at(19.0), at(19.000001)), Verdict::Regression);
        assert_eq!(judge(bytes, at(19.0), at(18.0)), Verdict::Better);
        let layer_ns = spec().metric("stores.cluster.do_op.ns").expect("declared");
        assert_eq!(judge(layer_ns, at(1.0), at(9.0)), Verdict::Info);
    }

    #[test]
    fn a_document_agrees_with_itself() {
        let doc = Json::parse(
            r#"{"workloads":[{"name":"svc-1shard","end_to_end":{"wall_s":
            {"unit":"s","median":4.0,"q1":3.9,"q3":4.1,"raw":[4.0]}},"per_layer":{}}]}"#,
        )
        .unwrap();
        let rows = rows(&doc, &doc);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, Verdict::Ok);
    }
}
