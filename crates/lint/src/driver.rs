//! The lint driver: per-file token pass, allow-comment handling, policy
//! application and workspace walking.
//!
//! Pipeline, per file: tokenize → collect `haec-lint:` control comments →
//! collect `use` declarations (each import is checked once, at the `use`
//! site) → scan the remaining code for banned paths, methods, casts and
//! print macros → drop lints the crate's policy does not deny → suppress
//! diagnostics covered by a well-formed allow comment (tracking which
//! allow legs actually suppressed something — unused legs raise
//! `dead-allow`). Every lint is a ban on a site: a nondeterminism source
//! fires where it stands, whatever does or does not call it. The result
//! is deterministic: files are walked in sorted order and diagnostics are
//! sorted by position.

use crate::diag::{Diagnostic, LintReport};
use crate::lints::{crate_key, thread_exempt, wall_clock_exempt, Lint, Policy};
use crate::resolve::{collect_uses, Resolver};
use crate::tokenizer::{tokenize, Tok, TokKind};
use std::io;
use std::path::{Path, PathBuf};

const HASH_MAP_TYPES: [&str; 2] = [
    "std::collections::HashMap",
    "std::collections::hash_map::HashMap",
];
const HASH_SET_TYPES: [&str; 2] = [
    "std::collections::HashSet",
    "std::collections::hash_set::HashSet",
];
const WALL_CLOCK_TYPES: [&str; 2] = ["std::time::Instant", "std::time::SystemTime"];
/// The span collector's read side, as named outside and inside
/// `haec-core`: it returns `SpanRecord`s carrying wall-clock `total_ns`.
/// (`spans::timed` needs no entry: it returns its closure's value
/// unchanged, and the reading stays in the collector.)
const SPAN_COLLECT: [&str; 2] = ["haec_core::spans::collect", "crate::spans::collect"];
const RANDOM_STATE_TYPES: [&str; 2] = [
    "std::collections::hash_map::RandomState",
    "std::hash::RandomState",
];
const AMBIENT_MODULES: [&str; 2] = ["std::env", "std::thread"];
/// The slice of `std::thread` the worker-pool exemption does not lift.
const THREAD_IDENTITY: [&str; 2] = ["std::thread::current", "std::thread::ThreadId"];
const PTR_IDENTITY_FNS: [&str; 5] = [
    "std::ptr::eq",
    "std::ptr::hash",
    "std::ptr::addr_of",
    "std::ptr::addr_of_mut",
    "std::ptr::from_ref",
];

/// Bare names worth resolving through glob imports.
const NAMES_OF_INTEREST: [&str; 6] = [
    "HashMap",
    "HashSet",
    "Instant",
    "SystemTime",
    "RandomState",
    "Relaxed",
];

const PRINT_MACROS: [&str; 3] = ["println", "eprintln", "dbg"];

/// Is the path (or a parent of it) one of `targets`?
fn path_is(path: &str, targets: &[&str]) -> bool {
    targets
        .iter()
        .any(|t| path == *t || (path.starts_with(t) && path[t.len()..].starts_with("::")))
}

/// Does this fully-qualified path trigger any catalog lint? (Exposed for
/// the resolver's glob handling.)
#[must_use]
pub fn is_interesting_path(path: &str) -> bool {
    classify_path(path).is_some()
}

/// Maps a fully-qualified path occurrence to the lint it violates.
fn classify_path(path: &str) -> Option<(Lint, String)> {
    let path = path.strip_prefix("::").unwrap_or(path);
    if path_is(path, &RANDOM_STATE_TYPES) {
        return Some((
            Lint::AmbientEntropy,
            format!("`{path}` seeds hashing from ambient entropy"),
        ));
    }
    if path_is(path, &HASH_MAP_TYPES) {
        return Some((
            Lint::NondeterministicCollection,
            format!(
                "`{path}` has nondeterministic iteration order; use `std::collections::BTreeMap`"
            ),
        ));
    }
    if path_is(path, &HASH_SET_TYPES) {
        return Some((
            Lint::NondeterministicCollection,
            format!(
                "`{path}` has nondeterministic iteration order; use `std::collections::BTreeSet`"
            ),
        ));
    }
    if path_is(path, &WALL_CLOCK_TYPES) {
        return Some((
            Lint::WallClock,
            format!(
                "`{path}` reads the wall clock; timing is sanctioned only in \
                 `testkit::bench` and `core::spans`"
            ),
        ));
    }
    if path_is(path, &SPAN_COLLECT) {
        return Some((
            Lint::WallClock,
            format!(
                "`{path}` returns span records carrying wall-clock `total_ns`; nothing a \
                 run decides or byte-compares may read them"
            ),
        ));
    }
    if path_is(path, &AMBIENT_MODULES) {
        return Some((
            Lint::AmbientEntropy,
            format!("`{path}` depends on ambient process state"),
        ));
    }
    // `std::cmp::Ordering` has no such variant, so the atomic one is meant
    // whether or not the file's imports let the path resolve all the way.
    if path == "Ordering::Relaxed" || path.ends_with("::Ordering::Relaxed") {
        return Some((
            Lint::RelaxedAtomic,
            format!(
                "`{path}` is an unsynchronized atomic access whose value may differ \
                 between runs and thread counts; use `SeqCst`"
            ),
        ));
    }
    if PTR_IDENTITY_FNS.contains(&path) {
        return Some((Lint::AddressObservation, address_message(path)));
    }
    None
}

fn address_message(what: &str) -> String {
    format!(
        "`{what}` observes an address; addresses vary between runs even when the \
         state is identical"
    )
}

/// Does the worker-pool module exemption ([`thread_exempt`]) lift this
/// finding? Only the `std::thread` slice of the ambient-entropy lint, and
/// of that not thread identity — `std::env`, `RandomState` and
/// `std::thread::current` stay denied there.
fn thread_use_exempt(rel_path: &str, path: &str) -> bool {
    let path = path.strip_prefix("::").unwrap_or(path);
    thread_exempt(rel_path) && path_is(path, &["std::thread"]) && !path_is(path, &THREAD_IDENTITY)
}

/// Parses a comment body as a `haec-lint:` control comment.
///
/// Returns `None` for ordinary comments, `Some(Ok(lints))` for a
/// well-formed `haec-lint: allow(<lint>[, <lint>]*): <reason>`, and
/// `Some(Err(why))` for anything that names the tool but does not parse.
fn parse_allow(comment: &str) -> Option<Result<Vec<Lint>, String>> {
    // Doc comments arrive as `/ text` or `! text`; strip the sigils.
    let t = comment.trim_start_matches(['/', '!']).trim();
    let rest = t.strip_prefix("haec-lint")?;
    // Prose that merely mentions the tool (docs, usage text) is not a
    // control comment: those start `haec-lint: …`. A missing colon with an
    // `allow(` present is a typo worth flagging, though.
    if rest.trim_start().strip_prefix(':').is_none() && !rest.contains("allow(") {
        return None;
    }
    let inner = || -> Result<Vec<Lint>, String> {
        let rest = rest
            .trim_start()
            .strip_prefix(':')
            .ok_or("expected `:` after `haec-lint`")?;
        let rest = rest
            .trim_start()
            .strip_prefix("allow")
            .ok_or("expected `allow(<lint>): <reason>`")?;
        let rest = rest
            .trim_start()
            .strip_prefix('(')
            .ok_or("expected `(` after `allow`")?;
        let close = rest.find(')').ok_or("unclosed `(`")?;
        let names = &rest[..close];
        let after = rest[close + 1..].trim_start();
        let reason = after
            .strip_prefix(':')
            .ok_or("missing `: <reason>` after `allow(…)`")?;
        if reason.trim().is_empty() {
            return Err("empty reason — justify the suppression".into());
        }
        let mut lints = Vec::new();
        for name in names.split(',') {
            let name = name.trim();
            let lint = Lint::from_name(name).ok_or(format!("unknown lint `{name}`"))?;
            if lint == Lint::MalformedAllow {
                return Err("`malformed-allow` cannot be suppressed".into());
            }
            lints.push(lint);
        }
        if lints.is_empty() {
            return Err("empty lint list".into());
        }
        Ok(lints)
    };
    Some(inner())
}

/// Lints one file under the policy its workspace-relative path implies.
#[must_use]
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    lint_source_with_policy(rel_path, source, Policy::for_crate(crate_key(rel_path)))
}

/// A well-formed `haec-lint: allow(…): reason` comment.
struct AllowComment {
    line: u32,
    end_line: u32,
    col: u32,
    lints: Vec<Lint>,
}

/// Lints one file under an explicit policy (fixtures use deny-all):
/// control comments, import checks and the call-site scan, then policy
/// filtering, suppression, the dead-allow meta-lint and sorting.
#[must_use]
pub fn lint_source_with_policy(rel_path: &str, source: &str, policy: Policy) -> Vec<Diagnostic> {
    let toks = tokenize(source);
    let mut diags: Vec<Diagnostic> = Vec::new();

    // Control comments: collect well-formed allows, flag malformed.
    let mut allows: Vec<AllowComment> = Vec::new();
    for t in toks.iter().filter(|t| t.kind == TokKind::Comment) {
        match parse_allow(&t.text) {
            None => {}
            Some(Err(why)) => diags.push(Diagnostic {
                file: rel_path.to_owned(),
                line: t.line,
                col: t.col,
                lint: Lint::MalformedAllow,
                message: format!("malformed haec-lint control comment: {why}"),
                suppressed: false,
            }),
            Some(Ok(lints)) => allows.push(AllowComment {
                line: t.line,
                end_line: t.end_line,
                col: t.col,
                lints,
            }),
        }
    }

    // Imports: each interesting import fires once, at the `use` site.
    let (resolver, imports, use_ranges) = collect_uses(&toks);
    for u in &imports {
        if thread_use_exempt(rel_path, &u.path) {
            continue;
        }
        if let Some((lint, message)) = classify_path(&u.path) {
            diags.push(Diagnostic {
                file: rel_path.to_owned(),
                line: u.line,
                col: u.col,
                lint,
                message,
                suppressed: false,
            });
        }
    }

    scan_call_sites(rel_path, &toks, &resolver, &use_ranges, &mut diags);

    // Exemptions and policy run *before* suppression so that allow-leg
    // usage is counted only against findings that would actually be
    // reported here — an allow for a lint the crate's policy never denies
    // (or that a module exemption already silences) suppresses nothing
    // and is flagged `dead-allow`.
    diags.retain(|d| {
        policy.denies(d.lint) && !(d.lint == Lint::WallClock && wall_clock_exempt(rel_path))
    });

    // Suppression: an allow on line L covers diagnostics on L (trailing
    // comment) through L+1 (comment above the statement); block comments
    // extend through their end line. Track which legs fired.
    let mut used: Vec<Vec<bool>> = allows.iter().map(|a| vec![false; a.lints.len()]).collect();
    for d in &mut diags {
        if d.lint == Lint::MalformedAllow || d.lint == Lint::DeadAllow {
            continue;
        }
        for (ai, a) in allows.iter().enumerate() {
            if d.line >= a.line && d.line <= a.end_line + 1 {
                for (li, l) in a.lints.iter().enumerate() {
                    if *l == d.lint {
                        d.suppressed = true;
                        used[ai][li] = true;
                    }
                }
            }
        }
    }

    // Dead-allow: every leg must earn its keep.
    for (ai, a) in allows.iter().enumerate() {
        for (li, l) in a.lints.iter().enumerate() {
            if !used[ai][li] {
                diags.push(Diagnostic {
                    file: rel_path.to_owned(),
                    line: a.line,
                    col: a.col,
                    lint: Lint::DeadAllow,
                    message: format!(
                        "allow({}) suppresses nothing — remove the stale suppression \
                         so the inventory cannot rot",
                        l.name()
                    ),
                    suppressed: false,
                });
            }
        }
    }

    diags.sort_by(|a, b| {
        (a.line, a.col, a.lint, &a.message).cmp(&(b.line, b.col, b.lint, &b.message))
    });
    diags
}

/// Scans non-`use` code for banned qualified paths, methods, pointer
/// casts and print macros.
fn scan_call_sites(
    rel_path: &str,
    toks: &[Tok],
    resolver: &Resolver,
    use_ranges: &[(usize, usize)],
    diags: &mut Vec<Diagnostic>,
) {
    let in_use = |i: usize| use_ranges.iter().any(|&(s, e)| i >= s && i < e);
    let mut fire = |at: &Tok, lint: Lint, message: String| {
        diags.push(Diagnostic {
            file: rel_path.to_owned(),
            line: at.line,
            col: at.col,
            lint,
            message,
            suppressed: false,
        });
    };
    // The code tokens after `toks[i]`, comments skipped.
    let code_after = |i: usize| toks[i + 1..].iter().filter(|t| t.kind != TokKind::Comment);
    let mut prev_code: Option<usize> = None;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Comment {
            i += 1;
            continue;
        }
        if in_use(i) || toks[i].kind != TokKind::Ident {
            prev_code = Some(i);
            i += 1;
            continue;
        }
        let name = toks[i].text.as_str();
        // A method or field name is not a path start.
        if prev_code.is_some_and(|p| toks[p].kind == TokKind::Punct('.')) {
            if code_after(i).next().map(|t| t.kind) == Some(TokKind::Punct('(')) {
                match name {
                    "sort_unstable_by" | "sort_unstable_by_key" => fire(
                        &toks[i],
                        Lint::UnstableSort,
                        format!(
                            "`.{name}()` leaves elements its comparator calls equal in \
                             unspecified order; use the stable `sort_by`/`sort_by_key`"
                        ),
                    ),
                    "as_ptr" | "as_mut_ptr" => fire(
                        &toks[i],
                        Lint::AddressObservation,
                        address_message(&format!(".{name}()")),
                    ),
                    _ => {}
                }
            }
            prev_code = Some(i);
            i += 1;
            continue;
        }
        // `as *const T` / `as *mut T` — a pointer-producing cast.
        if name == "as" {
            let mut next = code_after(i);
            if next.next().map(|t| t.kind) == Some(TokKind::Punct('*')) {
                if let Some(m) = next.next().filter(|t| t.text == "const" || t.text == "mut") {
                    fire(
                        &toks[i],
                        Lint::AddressObservation,
                        address_message(&format!("as *{} _", m.text)),
                    );
                }
            }
        }
        let start = i;
        let mut segments = vec![toks[i].text.clone()];
        let mut j = i + 1;
        while j + 2 < toks.len()
            && toks[j].kind == TokKind::Punct(':')
            && toks[j + 1].kind == TokKind::Punct(':')
            && toks[j + 2].kind == TokKind::Ident
        {
            segments.push(toks[j + 2].text.clone());
            j += 3;
        }
        if segments.len() == 1
            && PRINT_MACROS.contains(&segments[0].as_str())
            && toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('!'))
        {
            fire(
                &toks[start],
                Lint::StrayPrint,
                format!(
                    "`{}!` prints from library code; route output through `obs` observers",
                    segments[0]
                ),
            );
        } else {
            let full = resolver.resolve(&segments, &NAMES_OF_INTEREST);
            if !thread_use_exempt(rel_path, &full) {
                if let Some((lint, message)) = classify_path(&full) {
                    fire(&toks[start], lint, message);
                }
            }
        }
        prev_code = Some(j - 1);
        i = j;
    }
}

/// Recursively collects `.rs` files under `dir`, sorted.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root`: the facade `src/` tree plus
/// every `crates/*/src` and `crates/*/benches` tree, each file under its
/// crate's policy.
///
/// # Errors
///
/// Propagates I/O failures (unreadable directory or file).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        members.sort();
        for member in members {
            for tree in ["benches", "src"] {
                let dir = member.join(tree);
                if dir.is_dir() {
                    collect_rs(&dir, &mut files)?;
                }
            }
        }
    }

    let mut report = LintReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&path)?;
        report.diagnostics.extend(lint_source(&rel, &source));
        report.files_scanned += 1;
        report.files.push(rel);
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire(src: &str) -> Vec<Diagnostic> {
        lint_source_with_policy("crates/core/src/x.rs", src, Policy::deny_all())
    }

    fn lints_of(src: &str) -> Vec<Lint> {
        fire(src)
            .into_iter()
            .filter(|d| !d.suppressed)
            .map(|d| d.lint)
            .collect()
    }

    #[test]
    fn hash_import_and_use_fire() {
        let got = fire(
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got
            .iter()
            .all(|d| d.lint == Lint::NondeterministicCollection));
        assert_eq!((got[0].line, got[0].col), (1, 23));
    }

    #[test]
    fn fully_qualified_use_fires_without_import() {
        assert_eq!(
            lints_of("fn f() { let m = std::collections::HashMap::<u32, u32>::new(); }"),
            [Lint::NondeterministicCollection]
        );
    }

    #[test]
    fn aliased_import_fires_at_call_site() {
        let got =
            lints_of("use std::collections::HashSet as Seen;\nfn f() { let s = Seen::new(); }");
        assert_eq!(
            got,
            [
                Lint::NondeterministicCollection,
                Lint::NondeterministicCollection
            ]
        );
    }

    #[test]
    fn btree_collections_are_clean() {
        assert!(lints_of("use std::collections::{BTreeMap, BTreeSet};\nfn f() { let m = BTreeMap::<u32, u32>::new(); }").is_empty());
    }

    #[test]
    fn wall_clock_fires_and_exempt_files_do_not() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        assert_eq!(lints_of(src), [Lint::WallClock, Lint::WallClock]);
        let exempt = lint_source("crates/core/src/spans.rs", src);
        assert!(exempt.is_empty());
    }

    #[test]
    fn ambient_entropy_catalog() {
        assert_eq!(
            lints_of("fn f() { let v = std::env::var(\"X\"); }"),
            [Lint::AmbientEntropy]
        );
        assert_eq!(
            lints_of("fn f() { std::thread::spawn(|| {}); }"),
            [Lint::AmbientEntropy]
        );
        assert_eq!(
            lints_of("use std::collections::hash_map::RandomState;"),
            [Lint::AmbientEntropy]
        );
    }

    #[test]
    fn thread_use_is_exempt_only_in_the_worker_pool_module() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        // Everywhere else in `sim` (and the workspace) the gate fires...
        assert_eq!(
            lint_source("crates/sim/src/exhaustive/mod.rs", src)
                .iter()
                .filter(|d| !d.suppressed)
                .count(),
            1
        );
        // ...but the worker-pool module is sanctioned.
        assert!(lint_source("crates/sim/src/exhaustive/parallel.rs", src).is_empty());
        // The exemption covers imports too, and only the thread slice of
        // ambient-entropy: `std::env` still fires there.
        assert!(lint_source(
            "crates/sim/src/exhaustive/parallel.rs",
            "use std::thread;\nfn f() { thread::scope(|_| {}); }"
        )
        .is_empty());
        assert_eq!(
            lint_source(
                "crates/sim/src/exhaustive/parallel.rs",
                "fn f() { let v = std::env::var(\"X\"); }"
            )
            .len(),
            1
        );
        // Nor does it cover thread identity, imported or spelled out.
        for src in [
            "fn f() { let me = std::thread::current().id(); }",
            "use std::thread;\nfn f() { let me = thread::current(); }",
            "fn f(me: std::thread::ThreadId) {}",
        ] {
            let got = lint_source("crates/sim/src/exhaustive/parallel.rs", src);
            assert_eq!(got.len(), 1, "{src}: {got:?}");
            assert_eq!(got[0].lint, Lint::AmbientEntropy, "{src}");
        }
    }

    #[test]
    fn stray_print_fires_only_on_macro_bang() {
        assert_eq!(lints_of("fn f() { println!(\"x\"); }"), [Lint::StrayPrint]);
        assert_eq!(lints_of("fn f() { dbg!(1); }"), [Lint::StrayPrint]);
        // An fn named println (no bang) is fine.
        assert!(lints_of("fn println() {}").is_empty());
        assert!(lints_of("fn f() { writeln!(w, \"x\").ok(); }").is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        assert!(fire(
            "// std::collections::HashMap and println! here\n\
             /* Instant::now() in a block comment */\n\
             fn f() { let s = \"std::env::var println!\"; let r = r#\"HashMap\"#; }"
        )
        .is_empty());
    }

    #[test]
    fn relaxed_atomics_fire_under_every_spelling() {
        for src in [
            "fn f(a: &std::sync::atomic::AtomicU64) -> u64 { a.load(std::sync::atomic::Ordering::Relaxed) }",
            "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }",
            "fn f(a: &AtomicU64) -> u64 { a.load(atomic::Ordering::Relaxed) }",
        ] {
            assert_eq!(lints_of(src), [Lint::RelaxedAtomic], "{src}");
        }
        // Through an import the `use` site fires too, like any banned path.
        for src in [
            "use std::sync::atomic::Ordering as O;\nfn f(a: &AtomicU64) -> u64 { a.load(O::Relaxed) }",
            "use std::sync::atomic::Ordering::Relaxed;\nfn f(a: &AtomicU64) -> u64 { a.load(Relaxed) }",
            "use std::sync::atomic::Ordering::*;\nfn f(a: &AtomicU64) -> u64 { a.load(Relaxed) }",
        ] {
            let got = lints_of(src);
            assert!(!got.is_empty(), "{src}");
            assert!(got.iter().all(|l| *l == Lint::RelaxedAtomic), "{src}: {got:?}");
            assert_eq!(fire(src).last().map(|d| d.line), Some(2), "{src}");
        }
        assert!(lints_of(
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             fn f(a: &AtomicU64) -> u64 { a.fetch_add(1, Ordering::SeqCst) }"
        )
        .is_empty());
        // A local enum's variant is not an atomic ordering.
        assert!(lints_of("fn f() -> Fit { Fit::Relaxed }").is_empty());
    }

    #[test]
    fn comparator_keyed_unstable_sorts_fire_and_keyless_ones_do_not() {
        assert_eq!(
            lints_of("fn s(v: &mut Vec<(u32, u8)>) { v.sort_unstable_by(|a, b| a.0.cmp(&b.0)); }"),
            [Lint::UnstableSort]
        );
        assert_eq!(
            lints_of("fn s(v: &mut Vec<(u32, u8)>) { v.sort_unstable_by_key(|a| a.0); }"),
            [Lint::UnstableSort]
        );
        assert!(lints_of("fn s(v: &mut Vec<u32>) { v.sort_unstable(); }").is_empty());
        assert!(lints_of("fn s(v: &mut Vec<(u32, u8)>) { v.sort_by_key(|a| a.0); }").is_empty());
        // The name alone (a field, a free function) is not the method call.
        assert!(lints_of("fn sort_unstable_by() { let f = x.sort_unstable_by; }").is_empty());
    }

    #[test]
    fn address_observations_fire_on_the_site() {
        for src in [
            "fn a(xs: &[u8]) -> usize { xs.as_ptr() as usize }",
            "fn a(xs: &mut [u8]) -> usize { xs.as_mut_ptr() as usize }",
            "fn a(x: &u32) -> usize { x as *const u32 as usize }",
            "fn a(x: &mut u32) -> usize { x as /* why */ *mut u32 as usize }",
            "fn a(x: &u32, y: &u32) -> bool { std::ptr::eq(x, y) }",
            "fn a(x: u32) -> usize { std::ptr::addr_of!(x) as usize }",
        ] {
            assert_eq!(lints_of(src), [Lint::AddressObservation], "{src}");
        }
        let got = lints_of("use std::ptr;\nfn a(x: &u32, y: &u32) -> bool { ptr::eq(x, y) }");
        assert_eq!(got, [Lint::AddressObservation]);
        // Contents, not addresses; a deref or a product is not a cast.
        assert!(lints_of("fn a(xs: &[u8]) -> usize { xs.len() }").is_empty());
        assert!(lints_of("fn a(x: &u64, n: u32) -> u64 { n as u64 * *x }").is_empty());
        assert!(lints_of("fn a(x: &u32, y: &u32) -> bool { x == y }").is_empty());
    }

    #[test]
    fn a_ban_needs_no_sink_and_no_caller() {
        // Nothing here is named like a fingerprint, report or explorer,
        // and nothing calls `entropy`: the site is the finding.
        let got = fire(
            "fn entropy() -> usize { let v = vec![1u8]; v.as_ptr() as usize }\n\
             fn unrelated() -> u64 { 7 }",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].lint, got[0].line), (Lint::AddressObservation, 1));
    }

    #[test]
    fn span_collect_is_a_wall_clock_read_outside_the_exempt_files() {
        let src = "use haec_core::spans::{self, SpanRecord};\n\
                   fn f() { let (v, spans) = spans::collect(|| 1); }";
        let got = lint_source("crates/sim/src/obs/report.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].lint, got[0].line), (Lint::WallClock, 2));
        // `timed` hands nothing back, and an iterator's `collect` is a
        // method, not this path.
        assert!(lints_of(
            "use haec_core::spans;\n\
             fn f(xs: &[u32]) -> Vec<u32> { spans::timed(\"f\", || xs.iter().copied().collect()) }"
        )
        .is_empty());
        // CLI crates do not deny the clock, so neither its read side.
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
        // Inside `haec-core` the same function is `crate::spans::collect`.
        assert_eq!(
            lints_of("fn f() { let (v, spans) = crate::spans::collect(|| 1); }"),
            [Lint::WallClock]
        );
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let src = "fn f() {\n\
                   // haec-lint: allow(stray-print): harness output\n\
                   println!(\"x\");\n\
                   println!(\"y\"); // haec-lint: allow(stray-print): also fine\n\
                   }";
        let got = fire(src);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|d| d.suppressed));
    }

    #[test]
    fn allow_does_not_leak_to_other_lints_or_lines() {
        let src = "// haec-lint: allow(stray-print): wrong lint\n\
                   fn f() { let t = std::time::Instant::now(); }\n\
                   fn g() { println!(\"far away\"); }";
        let got = fire(src);
        let unsuppressed: Vec<Lint> = got
            .iter()
            .filter(|d| !d.suppressed)
            .map(|d| d.lint)
            .collect();
        // Wall-clock and the far-away print stay unsuppressed, and the
        // allow that covered neither is itself flagged dead.
        assert_eq!(
            unsuppressed,
            [Lint::DeadAllow, Lint::WallClock, Lint::StrayPrint]
        );
    }

    #[test]
    fn malformed_allow_is_always_a_diagnostic() {
        for bad in [
            "// haec-lint: allow(no-such-lint): reason",
            "// haec-lint: allow(stray-print)",
            "// haec-lint: allow(stray-print):   ",
            "// haec-lint: allow(): reason",
            "// haec-lint: deny(stray-print): reason",
            "// haec-lint: allow(malformed-allow): nice try",
        ] {
            let got = fire(bad);
            assert_eq!(got.len(), 1, "{bad}");
            assert_eq!(got[0].lint, Lint::MalformedAllow, "{bad}");
            assert!(!got[0].suppressed);
        }
        // And an ordinary comment is not a control comment at all.
        assert!(fire("// just mentions haec lint tooling").is_empty());
    }

    #[test]
    fn multi_lint_allow_list() {
        let src = "// haec-lint: allow(wall-clock, ambient-entropy): sanctioned probe\n\
                   fn f() { let t = std::time::Instant::now(); let v = std::env::var(\"X\"); }";
        let got = fire(src);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|d| d.suppressed));
    }

    #[test]
    fn policy_drops_allowed_lints_entirely() {
        let got = lint_source("crates/bench/src/x.rs", "fn f() { println!(\"report\"); }");
        assert!(got.is_empty());
        let got = lint_source("crates/bench/src/x.rs", "use std::collections::HashMap;");
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn allow_suppresses_a_ban_on_its_site() {
        let src = "fn entropy() -> usize {\n\
                   let v = vec![1u8];\n\
                   // haec-lint: allow(address-observation): demo suppression\n\
                   v.as_ptr() as usize\n\
                   }";
        let got = fire(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].suppressed);
    }

    #[test]
    fn allows_naming_a_removed_lint_are_malformed() {
        for gone in [
            "tainted-fingerprint",
            "unstable-order-sink",
            "relaxed-ordering-decision",
            "address-as-identity",
            "unordered-iteration",
        ] {
            let got = fire(&format!("// haec-lint: allow({gone}): carried over"));
            assert_eq!(got.len(), 1, "{gone}");
            assert_eq!(got[0].lint, Lint::MalformedAllow, "{gone}");
            assert!(
                got[0].message.contains(&format!("unknown lint `{gone}`")),
                "{}",
                got[0].message
            );
        }
    }

    #[test]
    fn dead_allow_fires_per_unused_leg() {
        // stray-print leg earns its keep; the wall-clock leg is dead.
        let src = "// haec-lint: allow(stray-print, wall-clock): half stale\n\
                   fn f() { println!(\"x\"); }";
        let got = fire(src);
        let dead: Vec<_> = got.iter().filter(|d| d.lint == Lint::DeadAllow).collect();
        assert_eq!(dead.len(), 1, "{got:?}");
        assert!(dead[0].message.contains("allow(wall-clock)"));
        assert!(!dead[0].suppressed);
        // With both legs live there is no dead-allow.
        let src = "// haec-lint: allow(stray-print, wall-clock): both live\n\
                   fn f() { let t = std::time::Instant::now(); println!(\"x\"); }";
        assert!(fire(src).iter().all(|d| d.lint != Lint::DeadAllow));
    }

    #[test]
    fn allow_for_a_lint_the_policy_never_denies_is_dead() {
        // bench is a CLI crate: stray-print is not denied there, so the
        // suppression is pointless and must be flagged.
        let got = lint_source(
            "crates/bench/src/x.rs",
            "// haec-lint: allow(stray-print): pointless here\n\
             fn f() { println!(\"report\"); }",
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].lint, Lint::DeadAllow);
    }

    #[test]
    fn diagnostics_sorted_by_position() {
        let got = fire("fn f() { println!(\"b\"); }\nfn g() { println!(\"a\"); }");
        assert!(got.windows(2).all(|w| w[0].line <= w[1].line));
    }
}
