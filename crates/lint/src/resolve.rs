//! A `use`-path and call-site resolver good enough for `std` paths.
//!
//! The lint rules are stated over *fully-qualified* paths
//! (`std::collections::HashMap`, `std::time::Instant`, …), but source code
//! names things through imports, aliases, nested groups and globs. This
//! module walks the token stream once to collect every `use` declaration
//! into an alias table, then resolves path occurrences at call sites
//! against it. It is deliberately file-local and flow-insensitive: the
//! workspace's own style (one import block per file, no shadowing of std
//! names) is well inside what it handles, and a miss only costs a lint
//! firing, never a false one — except the deliberate choice that a *local*
//! type named `HashMap` would fire, which is a hazard worth renaming away.

use crate::tokenizer::{Tok, TokKind};
use std::collections::BTreeMap;

/// One leaf of a `use` tree, with the position of its final segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UseImport {
    /// The fully-qualified imported path (`std::collections::HashMap`).
    pub path: String,
    /// The binding name in this file (`HashMap`, or the `as` alias).
    pub name: String,
    /// 1-based line of the leaf segment.
    pub line: u32,
    /// 1-based column of the leaf segment.
    pub col: u32,
}

/// The alias table built from a file's `use` declarations.
#[derive(Default, Debug)]
pub struct Resolver {
    /// Binding name → full path.
    aliases: BTreeMap<String, String>,
    /// Module paths glob-imported (`use std::collections::*`).
    globs: Vec<String>,
}

impl Resolver {
    /// Resolves a path occurrence (as written, segments joined by `::`)
    /// to a fully-qualified path. The first segment is looked up in the
    /// alias table; `names_of_interest` lets glob imports resolve bare
    /// identifiers the linter cares about.
    #[must_use]
    pub fn resolve(&self, segments: &[String], names_of_interest: &[&str]) -> String {
        let first = &segments[0];
        if let Some(full) = self.aliases.get(first.as_str()) {
            let mut out = full.clone();
            for s in &segments[1..] {
                out.push_str("::");
                out.push_str(s);
            }
            return out;
        }
        if names_of_interest.contains(&first.as_str()) {
            for g in &self.globs {
                let candidate = format!("{g}::{first}");
                if crate::driver::is_interesting_path(&candidate) {
                    let mut out = candidate;
                    for s in &segments[1..] {
                        out.push_str("::");
                        out.push_str(s);
                    }
                    return out;
                }
            }
        }
        segments.join("::")
    }
}

/// Collects all `use` declarations from a token stream (comments are
/// skipped), returning the alias table, the flat list of imported leaves,
/// and the token-index ranges `[start, end)` the declarations occupy — the
/// driver skips those ranges when scanning call sites so an import is
/// reported once, at the `use` site.
pub fn collect_uses(toks: &[Tok]) -> (Resolver, Vec<UseImport>, Vec<(usize, usize)>) {
    let mut resolver = Resolver::default();
    let mut imports = Vec::new();
    let mut ranges = Vec::new();
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let mut k = 0;
    while k < code.len() {
        let i = code[k];
        if toks[i].kind == TokKind::Ident && toks[i].text == "use" {
            // `use` is a strict keyword; any Ident occurrence starts a
            // declaration (raw `r#use` was unraw-ed by the tokenizer, but
            // appears only in contrived code — acceptable noise).
            let start = i;
            let mut j = k + 1;
            parse_use_tree(
                toks,
                &code,
                &mut j,
                String::new(),
                &mut resolver,
                &mut imports,
            );
            // Consume through the terminating semicolon, if present.
            while j < code.len() && toks[code[j]].kind != TokKind::Punct(';') {
                j += 1;
            }
            let end = if j < code.len() {
                code[j] + 1
            } else {
                toks.len()
            };
            ranges.push((start, end));
            k = j + 1;
        } else {
            k += 1;
        }
    }
    (resolver, imports, ranges)
}

/// Recursive descent over one `use` tree rooted at `prefix`. `k` indexes
/// into `code` (comment-free token indices).
fn parse_use_tree(
    toks: &[Tok],
    code: &[usize],
    k: &mut usize,
    prefix: String,
    resolver: &mut Resolver,
    imports: &mut Vec<UseImport>,
) {
    let mut path = prefix;
    let mut last_seg: Option<(String, u32, u32)> = None;
    while let Some(&i) = code.get(*k) {
        match &toks[i].kind {
            TokKind::Ident => {
                let t = &toks[i];
                if t.text == "as" {
                    *k += 1;
                    if let Some(&a) = code.get(*k) {
                        if toks[a].kind == TokKind::Ident {
                            if let Some((_, line, col)) = last_seg.take() {
                                finish_leaf(
                                    &path,
                                    toks[a].text.clone(),
                                    line,
                                    col,
                                    resolver,
                                    imports,
                                );
                            }
                            *k += 1;
                        }
                    }
                    return;
                }
                if !path.is_empty() {
                    path.push_str("::");
                }
                if t.text == "self" {
                    // `{self, …}`: binds the prefix module under its own
                    // last segment. Strip the `::self` we just prepared.
                    path.truncate(path.len().saturating_sub(2));
                    let name = path.rsplit("::").next().unwrap_or(&path).to_owned();
                    last_seg = Some((name, t.line, t.col));
                } else {
                    path.push_str(&t.text);
                    last_seg = Some((t.text.clone(), t.line, t.col));
                }
                *k += 1;
            }
            TokKind::Punct(':') => {
                *k += 1; // first colon; the second is consumed below
                if code
                    .get(*k)
                    .is_some_and(|&n| toks[n].kind == TokKind::Punct(':'))
                {
                    *k += 1;
                }
            }
            TokKind::Punct('{') => {
                *k += 1;
                loop {
                    parse_use_tree(toks, code, k, path.clone(), resolver, imports);
                    match code.get(*k).map(|&n| &toks[n].kind) {
                        Some(TokKind::Punct(',')) => *k += 1,
                        Some(TokKind::Punct('}')) => {
                            *k += 1;
                            break;
                        }
                        _ => break,
                    }
                }
                return;
            }
            TokKind::Punct('*') => {
                resolver.globs.push(path.clone());
                *k += 1;
                return;
            }
            _ => break,
        }
        // A leaf ends at `;`, `,` or `}` — leave those to the caller.
        if let Some(&n) = code.get(*k) {
            if matches!(
                toks[n].kind,
                TokKind::Punct(';') | TokKind::Punct(',') | TokKind::Punct('}')
            ) {
                break;
            }
        } else {
            break;
        }
    }
    if let Some((name, line, col)) = last_seg {
        finish_leaf(&path, name, line, col, resolver, imports);
    }
}

fn finish_leaf(
    path: &str,
    name: String,
    line: u32,
    col: u32,
    resolver: &mut Resolver,
    imports: &mut Vec<UseImport>,
) {
    if path.is_empty() {
        return;
    }
    resolver.aliases.insert(name.clone(), path.to_owned());
    imports.push(UseImport {
        path: path.to_owned(),
        name,
        line,
        col,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn uses(src: &str) -> Vec<(String, String)> {
        let toks = tokenize(src);
        let (_, imports, _) = collect_uses(&toks);
        imports.into_iter().map(|u| (u.name, u.path)).collect()
    }

    #[test]
    fn simple_use() {
        assert_eq!(
            uses("use std::collections::HashMap;"),
            [("HashMap".to_owned(), "std::collections::HashMap".to_owned())]
        );
    }

    #[test]
    fn grouped_use() {
        assert_eq!(
            uses("use std::collections::{HashMap, HashSet};"),
            [
                ("HashMap".to_owned(), "std::collections::HashMap".to_owned()),
                ("HashSet".to_owned(), "std::collections::HashSet".to_owned()),
            ]
        );
    }

    #[test]
    fn nested_groups_and_alias() {
        let got = uses("use std::{time::{Instant as Clock, SystemTime}, env};");
        assert_eq!(
            got,
            [
                ("Clock".to_owned(), "std::time::Instant".to_owned()),
                ("SystemTime".to_owned(), "std::time::SystemTime".to_owned()),
                ("env".to_owned(), "std::env".to_owned()),
            ]
        );
    }

    #[test]
    fn self_in_group() {
        let got = uses("use std::collections::{self, BTreeMap};");
        assert_eq!(
            got,
            [
                ("collections".to_owned(), "std::collections".to_owned()),
                (
                    "BTreeMap".to_owned(),
                    "std::collections::BTreeMap".to_owned()
                ),
            ]
        );
    }

    #[test]
    fn glob_resolves_interesting_names() {
        let toks = tokenize("use std::collections::*;");
        let (resolver, imports, _) = collect_uses(&toks);
        assert!(imports.is_empty());
        let got = resolver.resolve(&["HashMap".into()], &["HashMap"]);
        assert_eq!(got, "std::collections::HashMap");
        let other = resolver.resolve(&["BTreeMap".into()], &["HashMap"]);
        assert_eq!(other, "BTreeMap");
    }

    #[test]
    fn alias_resolution_at_call_site() {
        let toks = tokenize("use std::collections::HashMap as Map;");
        let (resolver, _, _) = collect_uses(&toks);
        let got = resolver.resolve(&["Map".into(), "new".into()], &[]);
        assert_eq!(got, "std::collections::HashMap::new");
    }

    #[test]
    fn module_alias_resolution() {
        let toks = tokenize("use std::collections as coll;");
        let (resolver, _, _) = collect_uses(&toks);
        let got = resolver.resolve(&["coll".into(), "HashMap".into()], &[]);
        assert_eq!(got, "std::collections::HashMap");
    }

    #[test]
    fn use_ranges_cover_declarations() {
        let toks = tokenize("use std::fmt;\nfn main() {}");
        let (_, _, ranges) = collect_uses(&toks);
        assert_eq!(ranges.len(), 1);
        let (s, e) = ranges[0];
        assert_eq!(toks[s].text, "use");
        assert_eq!(toks[e - 1].kind, TokKind::Punct(';'));
    }

    #[test]
    fn unresolved_paths_pass_through() {
        let toks = tokenize("fn f() {}");
        let (resolver, _, _) = collect_uses(&toks);
        assert_eq!(
            resolver.resolve(&["std".into(), "env".into(), "var".into()], &[]),
            "std::env::var"
        );
    }
}
