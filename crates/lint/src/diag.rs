//! Diagnostics and report rendering.
//!
//! Human output is one `file:line:col lint: message` line per diagnostic
//! (clickable in editors and CI logs) plus a summary line. `--json`
//! reuses the [`obs::json`](haec_sim::obs::json) serializer: objects with
//! insertion-ordered keys, compact one-line rendering — the same
//! conventions as the run reports, so downstream tooling parses both with
//! one reader.

use crate::lints::Lint;
use haec_sim::obs::json::Json;
use std::fmt;

/// One lint finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which lint fired.
    pub lint: Lint,
    /// What happened and what to do instead.
    pub message: String,
    /// Suppressed by a well-formed `haec-lint: allow(…): …` comment?
    pub suppressed: bool,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} {}: {}{}",
            self.file,
            self.line,
            self.col,
            self.lint,
            self.message,
            if self.suppressed { " [allowed]" } else { "" }
        )
    }
}

/// The outcome of linting a file set.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The workspace-relative paths scanned, in walk (sorted) order. Not
    /// serialized into the JSON report; the self-hosting gate asserts on
    /// it directly.
    pub files: Vec<String>,
    /// Every diagnostic, suppressed ones included, sorted by
    /// `(file, line, col, lint)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Diagnostics not silenced by an allow comment — the set that gates.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.suppressed)
    }

    /// Does the report demand a non-zero exit?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.unsuppressed().next().is_none()
    }

    /// Human rendering: one line per diagnostic, then a summary.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let firing = self.unsuppressed().count();
        let suppressed = self.diagnostics.len() - firing;
        out.push_str(&format!(
            "haec-lint: {} diagnostic{} ({suppressed} allowed), {} file{} scanned\n",
            firing,
            if firing == 1 { "" } else { "s" },
            self.files_scanned,
            if self.files_scanned == 1 { "" } else { "s" },
        ));
        out
    }

    /// The report as a JSON tree (`schema_version` 2; version 1 carried
    /// the flow lints' names in `diagnostics[].lint`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let diags = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("file".into(), Json::str(&d.file)),
                    ("line".into(), Json::uint(u64::from(d.line))),
                    ("col".into(), Json::uint(u64::from(d.col))),
                    ("lint".into(), Json::str(d.lint.name())),
                    ("message".into(), Json::str(&d.message)),
                    ("suppressed".into(), Json::Bool(d.suppressed)),
                ])
            })
            .collect();
        let firing = self.unsuppressed().count();
        Json::Obj(vec![
            ("schema_version".into(), Json::uint(2)),
            ("tool".into(), Json::str("haec-lint")),
            (
                "files_scanned".into(),
                Json::uint(self.files_scanned as u64),
            ),
            ("firing".into(), Json::uint(firing as u64)),
            (
                "suppressed".into(),
                Json::uint((self.diagnostics.len() - firing) as u64),
            ),
            ("diagnostics".into(), Json::Arr(diags)),
        ])
    }

    /// Compact one-line JSON.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(line: u32, lint: Lint, suppressed: bool) -> Diagnostic {
        Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line,
            col: 5,
            lint,
            message: "msg".into(),
            suppressed,
        }
    }

    #[test]
    fn display_format_is_clickable() {
        let s = d(3, Lint::WallClock, false).to_string();
        assert_eq!(s, "crates/x/src/lib.rs:3:5 wall-clock: msg");
        let s = d(3, Lint::WallClock, true).to_string();
        assert!(s.ends_with("[allowed]"));
    }

    #[test]
    fn clean_iff_no_unsuppressed() {
        let mut r = LintReport {
            files_scanned: 1,
            files: Vec::new(),
            diagnostics: vec![d(1, Lint::StrayPrint, true)],
        };
        assert!(r.is_clean());
        r.diagnostics.push(d(2, Lint::StrayPrint, false));
        assert!(!r.is_clean());
        assert_eq!(r.unsuppressed().count(), 1);
    }

    #[test]
    fn human_summary_counts() {
        let r = LintReport {
            files_scanned: 2,
            files: Vec::new(),
            diagnostics: vec![d(1, Lint::StrayPrint, true), d(2, Lint::WallClock, false)],
        };
        let text = r.render_human();
        assert!(text.contains("1 diagnostic (1 allowed), 2 files scanned"));
    }

    #[test]
    fn json_round_trips_through_obs_parser() {
        let r = LintReport {
            files_scanned: 1,
            files: Vec::new(),
            diagnostics: vec![d(1, Lint::AmbientEntropy, false)],
        };
        let v = Json::parse(&r.to_json_string()).expect("valid json");
        assert_eq!(v.get("schema_version").and_then(Json::as_int), Some(2));
        assert_eq!(v.get("tool").and_then(Json::as_str), Some("haec-lint"));
        assert_eq!(v.get("firing").and_then(Json::as_int), Some(1));
        let diags = v.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert_eq!(
            diags[0].get("lint").and_then(Json::as_str),
            Some("ambient-entropy")
        );
        assert_eq!(
            diags[0].get("suppressed").and_then(Json::as_bool),
            Some(false)
        );
    }
}
