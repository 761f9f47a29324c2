//! One repetition's result: what a child process hands back to the parent.

use haec_sim::obs::json::Json;
use std::hash::{DefaultHasher, Hasher};

/// The outcome of one timed repetition of one workload.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Rep {
    /// Operations the workload attempted (client ops, events, or one
    /// verdict for the explorer).
    pub attempted: u64,
    /// Operations that failed; equals `attempted` when an output check
    /// failed.
    pub failed: u64,
    /// Every failed output check, in words.
    pub failures: Vec<String>,
    /// Hash of the run's deterministic output (the service report, the
    /// explorer counters, the checker stats). Every repetition of one
    /// (workload, seed), traced or not, must produce the same one.
    pub fingerprint: u64,
    /// Metric values by name. Names starting with `_` are intermediate
    /// readings the parent turns into metrics.
    pub values: Vec<(String, f64)>,
}

impl Rep {
    /// Records `value` under `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Records a failed output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Records `what` as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(what);
        }
    }

    /// Renders the repetition for the parent.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("attempted".into(), Json::uint(self.attempted)),
            ("failed".into(), Json::uint(self.failed)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "fingerprint".into(),
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "values".into(),
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses what [`to_json`](Self::to_json) rendered.
    pub fn from_json(doc: &Json) -> Option<Rep> {
        let uint = |k: &str| doc.get(k)?.as_int().and_then(|v| u64::try_from(v).ok());
        let Json::Obj(values) = doc.get("values")? else {
            return None;
        };
        Some(Rep {
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            failures: doc
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            fingerprint: u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?,
            values: values
                .iter()
                .map(|(n, v)| Some((n.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// The fingerprint of a run's deterministic output, rendered as `bytes`.
/// Only ever compared between repetitions run by one build of this binary.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}
