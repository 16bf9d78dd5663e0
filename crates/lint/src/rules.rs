//! The rule passes.
//!
//! Each pass walks the token stream of one file, guided by the
//! [`FileMap`]: test regions are exempt from every semantic rule, and
//! per-line `// lint:allow(<rule>)` pragmas suppress individual findings
//! where an invariant is proven structurally (the pragma is the
//! documentation trail).
//!
//! | rule            | forbids                                                            |
//! |-----------------|--------------------------------------------------------------------|
//! | `determinism`   | `std::time`, `std::thread` / `thread::spawn`, entropy sources, default-hasher `HashMap`/`HashSet` |
//! | `panic_freedom` | `.unwrap()`, `.expect(…)`, `panic!`, `todo!`, `unimplemented!`     |
//! | `no_alloc`      | allocation tokens inside `// lint:no_alloc`-marked functions       |
//! | `hygiene`       | missing `#![forbid(unsafe_code)]` crate roots, undocumented `pub` items |

use crate::lexer::{Lexed, TokKind, Token};
use crate::scan::FileMap;

/// One linter finding, attributed to crate → file → line → function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired (`determinism`, `panic_freedom`, `no_alloc`,
    /// `hygiene`, or one of the interprocedural/consistency rules:
    /// `no_alloc_transitive`, `unknown_callee`, `panic_path`,
    /// `determinism_taint`, `obs_schema`, `simd_parity`).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Innermost enclosing function, when the finding is inside one.
    pub function: Option<String>,
    /// Human-readable description of the violation.
    pub message: String,
    /// Call-chain evidence for interprocedural findings: each entry is one
    /// hop, `name (file:line)`, from the protected root down to the
    /// offending function. Empty for single-file (per-line) findings.
    pub evidence: Vec<String>,
}

/// Which rule families apply to a given file (decided by the workspace
/// walker from the crate the file belongs to).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// Determinism rules (no wall-clock, no ad-hoc threads, no entropy,
    /// no default-hasher collections).
    pub determinism: bool,
    /// Panic-freedom rules (library code of the simulator crates).
    pub panic_freedom: bool,
    /// Require doc comments on `pub` items.
    pub docs: bool,
    /// This file is a crate root and must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
}

/// Run every applicable pass over one lexed+scanned file.
pub fn check_file(
    file: &str,
    lexed: &Lexed<'_>,
    map: &FileMap,
    scope: FileScope,
    findings: &mut Vec<Finding>,
) {
    // The no_alloc rule is marker-driven, so it applies everywhere.
    no_alloc(file, lexed, map, findings);
    if scope.determinism {
        determinism(file, lexed, map, findings);
    }
    if scope.panic_freedom {
        panic_freedom(file, lexed, map, findings);
    }
    if scope.docs {
        pub_docs(file, lexed, map, findings);
    }
    if scope.crate_root {
        crate_root_forbids_unsafe(file, lexed, findings);
    }
}

fn push(
    findings: &mut Vec<Finding>,
    map: &FileMap,
    file: &str,
    rule: &'static str,
    idx: usize,
    line: u32,
    message: String,
) {
    if map.allowed(line, rule) {
        return;
    }
    findings.push(Finding {
        rule,
        file: file.to_string(),
        line,
        function: map.enclosing_fn(idx).map(|s| s.to_string()),
        message,
        evidence: Vec::new(),
    });
}

/// Does `toks[i..]` start with the `::`-separated identifier path `path`?
pub(crate) fn path_match(toks: &[Token<'_>], i: usize, path: &[&str]) -> bool {
    let mut j = i;
    for (n, seg) in path.iter().enumerate() {
        if n > 0 {
            if !(toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':')))
            {
                return false;
            }
            j += 2;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident(seg)) {
            return false;
        }
        j += 1;
    }
    true
}

/// Is token `i` a method call `.name(`? (Distinguishes `x.unwrap()` from a
/// standalone identifier `unwrap` or a path `Option::unwrap`.)
pub(crate) fn method_call(toks: &[Token<'_>], i: usize, name: &str) -> bool {
    i > 0
        && toks[i - 1].is_punct('.')
        && toks[i].is_ident(name)
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Is token `i` a macro invocation `name!`?
pub(crate) fn macro_call(toks: &[Token<'_>], i: usize, name: &str) -> bool {
    toks[i].is_ident(name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
}

/// Determinism: the simulator must be a pure function of its seeds.
/// Wall-clock time, ad-hoc threads, ambient entropy and hash-order
/// iteration all break the bit-for-bit reproducibility that the fault
/// plans (PR 1) and the thread-count-invariant sweeps (PR 2) rely on.
/// `witag_sim::time` and `witag_sim::parallel` are the sanctioned
/// alternatives.
fn determinism(file: &str, lexed: &Lexed<'_>, map: &FileMap, findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if map.in_test(i) {
            continue;
        }
        let line = toks[i].line;
        if path_match(toks, i, &["std", "time"]) {
            push(findings, map, file, "determinism", i, line,
                "std::time is wall-clock state; use witag_sim::time (simulated Instant/Duration)".into());
        } else if path_match(toks, i, &["std", "thread"]) || path_match(toks, i, &["thread", "spawn"]) {
            push(findings, map, file, "determinism", i, line,
                "ad-hoc threading is iteration-order nondeterminism; use witag_sim::parallel::par_map".into());
        } else if toks[i].kind == TokKind::Ident
            && matches!(toks[i].text, "HashMap" | "HashSet" | "RandomState" | "DefaultHasher")
        {
            push(findings, map, file, "determinism", i, line,
                format!("{} iterates in hash order (and seeds per-process); use BTreeMap/BTreeSet or a Vec", toks[i].text));
        } else if toks[i].kind == TokKind::Ident
            && matches!(toks[i].text, "thread_rng" | "from_entropy" | "OsRng" | "getrandom")
        {
            push(findings, map, file, "determinism", i, line,
                format!("{} draws ambient entropy; seed a witag_sim::Rng explicitly", toks[i].text));
        } else if toks[i].is_ident("rand")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            push(findings, map, file, "determinism", i, line,
                "the rand crate is not seeded by the experiment; use witag_sim::Rng".into());
        }
    }
}

/// Panic-freedom: a panic mid-round kills a million-round sweep and takes
/// every shard with it. Library code converts failures into typed errors;
/// structurally-infallible cases carry a `lint:allow(panic_freedom)`
/// pragma documenting the proof.
fn panic_freedom(file: &str, lexed: &Lexed<'_>, map: &FileMap, findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if map.in_test(i) {
            continue;
        }
        let line = toks[i].line;
        if method_call(toks, i, "unwrap") {
            push(findings, map, file, "panic_freedom", i, line,
                ".unwrap() panics on the failure path; return a typed error or document structural infallibility with lint:allow(panic_freedom)".into());
        } else if method_call(toks, i, "expect") {
            push(findings, map, file, "panic_freedom", i, line,
                ".expect(..) panics on the failure path; return a typed error or document structural infallibility with lint:allow(panic_freedom)".into());
        } else {
            for mac in ["panic", "todo", "unimplemented"] {
                if macro_call(toks, i, mac) {
                    push(findings, map, file, "panic_freedom", i, line,
                        format!("{mac}! aborts the round; return a typed error instead"));
                    break;
                }
            }
        }
    }
}

/// Allocation tokens forbidden inside `// lint:no_alloc` functions. These
/// pin PR 2's steady-state allocation-free receive chain: the scratch
/// buffers own all working memory, so any of these tokens appearing in a
/// marked function is a hot-path regression.
const ALLOC_METHODS: &[&str] = &["to_vec", "collect", "clone"];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_PATHS: &[&[&str]] = &[&["Vec", "new"], &["Box", "new"], &["String", "from"]];

/// Does token `i` hit an allocation pattern? Returns the rendered token
/// (`".collect()"`, `"vec!"`, `"Vec::new"`). Shared by the per-line
/// `no_alloc` pass and the transitive closure pass.
pub(crate) fn alloc_hit(toks: &[Token<'_>], i: usize) -> Option<String> {
    for m in ALLOC_METHODS {
        if method_call(toks, i, m) {
            return Some(format!(".{m}()"));
        }
    }
    for m in ALLOC_MACROS {
        if macro_call(toks, i, m) {
            return Some(format!("{m}!"));
        }
    }
    for p in ALLOC_PATHS {
        if path_match(toks, i, p) {
            return Some(p.join("::"));
        }
    }
    None
}

/// Does token `i` hit a panic pattern? Returns the rendered token
/// (`".unwrap()"`, `"panic!"`). Shared by the per-line `panic_freedom`
/// pass and the interprocedural `panic_path` pass.
pub(crate) fn panic_hit(toks: &[Token<'_>], i: usize) -> Option<String> {
    for m in ["unwrap", "expect"] {
        if method_call(toks, i, m) {
            return Some(format!(".{m}()"));
        }
    }
    for m in ["panic", "todo", "unimplemented"] {
        if macro_call(toks, i, m) {
            return Some(format!("{m}!"));
        }
    }
    None
}

/// Does token `i` hit a nondeterminism source? Returns the rendered
/// token. Shares the `determinism` pass's token vocabulary; used by the
/// taint pass to find entropy/time/hash-order sources in *any* crate
/// (the per-line pass only patrols the determinism-scope crates). The
/// simulated `witag_sim::time::Instant` is deliberately not matched —
/// only the `std::` spellings are wall-clock.
pub(crate) fn determinism_hit(toks: &[Token<'_>], i: usize) -> Option<String> {
    if path_match(toks, i, &["std", "time"]) {
        return Some("std::time".into());
    }
    if path_match(toks, i, &["std", "thread"]) || path_match(toks, i, &["thread", "spawn"]) {
        return Some("std::thread".into());
    }
    if toks[i].kind == TokKind::Ident
        && matches!(toks[i].text, "HashMap" | "HashSet" | "RandomState" | "DefaultHasher")
    {
        return Some(toks[i].text.to_string());
    }
    if toks[i].kind == TokKind::Ident
        && matches!(toks[i].text, "thread_rng" | "from_entropy" | "OsRng" | "getrandom")
    {
        return Some(toks[i].text.to_string());
    }
    if toks[i].is_ident("rand")
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
    {
        return Some("rand::".into());
    }
    None
}

fn no_alloc(file: &str, lexed: &Lexed<'_>, map: &FileMap, findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for f in map.fns.iter().filter(|f| f.no_alloc) {
        for i in f.body_start..f.body_end.min(toks.len()) {
            let line = toks[i].line;
            let hit: Option<String> = alloc_hit(toks, i);
            if let Some(what) = hit {
                push(findings, map, file, "no_alloc", i, line,
                    format!("{what} allocates inside `{}`, which is marked lint:no_alloc (the RX hot path owns its buffers in scratch)", f.name));
            }
        }
    }
    for &line in &map.dangling_no_alloc {
        push(findings, map, file, "no_alloc", usize::MAX, line,
            "dangling lint:no_alloc marker: no function follows it".into());
    }
}

/// Crate roots must carry `#![forbid(unsafe_code)]` — the whole workspace
/// is safe Rust and stays that way.
fn crate_root_forbids_unsafe(file: &str, lexed: &Lexed<'_>, findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let found = (0..toks.len()).any(|i| {
        toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
    });
    if !found {
        findings.push(Finding {
            rule: "hygiene",
            file: file.to_string(),
            line: 1,
            function: None,
            message: "crate root is missing #![forbid(unsafe_code)]".into(),
            evidence: Vec::new(),
        });
    }
}

/// Every `pub` item in library crates carries a doc comment. (Restricted
/// visibility `pub(…)` and re-exports `pub use` are exempt, matching
/// rustc's `missing_docs`.)
fn pub_docs(file: &str, lexed: &Lexed<'_>, map: &FileMap, findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("pub") || map.in_test(i) || map.in_fn_body(i) {
            continue;
        }
        match toks.get(i + 1) {
            // `pub(crate)` etc. — not public API.
            Some(t) if t.is_punct('(') => continue,
            // `pub use` re-exports inherit the source item's docs.
            Some(t) if t.is_ident("use") => continue,
            // `pub mod name;` — the module's docs live in its file as a
            // `//!` header (rustc's missing_docs checks that for real);
            // inline `pub mod name { … }` still needs a doc comment here.
            Some(t)
                if t.is_ident("mod")
                    && toks.get(i + 3).is_some_and(|s| s.is_punct(';')) =>
            {
                continue
            }
            Some(_) => {}
            None => continue,
        }
        let line = toks[i].line;
        // Walk upward through attribute lines and blank lines; the first
        // contentful line above must be a doc comment.
        let mut l = line.saturating_sub(1);
        let mut documented = false;
        while l >= 1 {
            if map.doc_lines.contains(&l) {
                documented = true;
                break;
            }
            let blank = !map.content_lines.contains(&l);
            if blank || map.attr_lines.contains(&l) || map.pragma_lines.contains(&l) {
                l -= 1;
                continue;
            }
            break;
        }
        // The item's own line may also carry the attribute that documents
        // it (`#[doc = "…"] pub fn f…` on one line).
        documented = documented || map.doc_lines.contains(&line);
        if !documented {
            push(findings, map, file, "hygiene", i, line,
                "pub item without a doc comment".into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scan::scan;

    fn run(src: &str, scope: FileScope) -> Vec<Finding> {
        let lexed = lex(src);
        let map = scan(&lexed);
        let mut out = Vec::new();
        check_file("test.rs", &lexed, &map, scope, &mut out);
        out
    }

    const ALL: FileScope = FileScope {
        determinism: true,
        panic_freedom: true,
        docs: false,
        crate_root: false,
    };

    #[test]
    fn unwrap_in_lib_code_fires() {
        let f = run("fn f() { x.unwrap(); }", ALL);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "panic_freedom");
        assert_eq!(f[0].function.as_deref(), Some("f"));
    }

    #[test]
    fn unwrap_or_does_not_fire() {
        assert!(run("fn f() { x.unwrap_or(0); x.unwrap_or_default(); }", ALL).is_empty());
    }

    #[test]
    fn unwrap_in_tests_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); panic!(); }\n}";
        assert!(run(src, ALL).is_empty());
    }

    #[test]
    fn allow_pragma_suppresses() {
        let f = run("fn f() { x.unwrap(); // lint:allow(panic_freedom)\n y.unwrap(); }", ALL);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn determinism_catches_std_time_and_hashmap() {
        let f = run("use std::time::Instant;\nfn f() { let m: HashMap<u8, u8> = x; }", ALL);
        let rules: Vec<_> = f.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(rules, vec![("determinism", 1), ("determinism", 2)]);
    }

    #[test]
    fn no_alloc_only_fires_in_marked_fns() {
        let src = "// lint:no_alloc\nfn hot(out: &mut Vec<u8>) { let v = x.clone(); }\nfn cold() { let v = x.clone(); }";
        let f = run(src, FileScope::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].function.as_deref(), Some("hot"));
    }

    #[test]
    fn no_alloc_vec_new_but_not_other_new() {
        let src = "// lint:no_alloc\nfn hot() { let s = RxScratch::new(); }";
        assert!(run(src, FileScope::default()).is_empty());
        let src2 = "// lint:no_alloc\nfn hot() { let v = Vec::new(); }";
        assert_eq!(run(src2, FileScope::default()).len(), 1);
    }

    #[test]
    fn crate_root_unsafe_check() {
        let scope = FileScope { crate_root: true, ..FileScope::default() };
        assert_eq!(run("fn f() {}", scope).len(), 1);
        assert!(run("#![forbid(unsafe_code)]\nfn f() {}", scope).is_empty());
    }

    #[test]
    fn pub_docs_walks_attrs_and_blanks() {
        let scope = FileScope { docs: true, ..FileScope::default() };
        let ok = "/// Documented.\n#[derive(Debug)]\npub struct S { }\n";
        assert!(run(ok, scope).is_empty());
        let bad = "#[derive(Debug)]\npub struct S { }\n";
        assert_eq!(run(bad, scope).len(), 1);
        let reexport = "pub use foo::bar;";
        assert!(run(reexport, scope).is_empty());
        let restricted = "pub(crate) fn f() {}";
        assert!(run(restricted, scope).is_empty());
    }

    #[test]
    fn pub_docs_sees_through_pragma_markers() {
        let scope = FileScope { docs: true, ..FileScope::default() };
        let marked = "/// Documented hot path.\n// lint:no_alloc\npub fn hot() { work(); }\n";
        assert!(run(marked, scope).is_empty());
    }
}
