//! Per-file symbol and call-site extraction — the front half of the
//! whole-workspace analyzer.
//!
//! For every source file this module distils the lexed token stream into
//! an owned, thread-portable [`FileFacts`]: the functions the file
//! defines (with their receiver type, resolved from the innermost
//! enclosing `impl` block), every call site inside each function body
//! (classified as free call, method call, `Self::`/`Type::`/`module::`
//! path call, callback-parameter call or local-closure call), the token
//! hits the interprocedural passes care about (allocation, panic,
//! nondeterminism, unbounded indexing), plus the file-level facts the
//! consistency passes consume (`#[cfg(feature = "simd")]`-gated items,
//! `Event::…` constructions, the obs `KINDS` table and `kind_index`
//! arms).
//!
//! Extraction is pure per-file work — `run_workspace` fans it out over
//! `witag_sim::par_map` — and everything here is heuristic by design:
//! the resolver documents what it can and cannot see (DESIGN.md §4i),
//! and the call-graph layer reports unresolvable edges at marked
//! boundaries instead of silently dropping them.

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules;
use crate::scan::FileMap;
use std::collections::{BTreeMap, BTreeSet};

/// Rust keywords (plus primitive type names treated as vocabulary, not
/// callables) — never call sites, never parameter names.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while",
];

/// Primitive / numeric type names: safe inside index expressions
/// (`idx as usize`) and never workspace callables.
const PRIMITIVES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32",
    "f64", "bool", "char", "str",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn is_primitive(s: &str) -> bool {
    PRIMITIVES.contains(&s)
}

/// How a call site names its callee — the resolver's input alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// Bare `name(…)`.
    Free,
    /// `.name(…)` — `on_self` when the receiver is literally `self`.
    Method {
        /// The receiver token was `self` (resolves against the enclosing
        /// impl's type).
        on_self: bool,
    },
    /// `Self::name(…)` — associated call on the enclosing impl's type.
    SelfPath,
    /// `Type::name(…)` (or `…::Type::name`): the segment before the
    /// callee starts uppercase and is carried here.
    TypePath(String),
    /// `head::…::name(…)` with a lowercase head (module path); the head
    /// segment is carried here (`crate`, `self`, `super`, a sibling
    /// module, or an external crate name like `witag_phy`).
    ModPath(String),
    /// A call through a function-typed parameter of the enclosing fn —
    /// statically unresolvable, reported at marked boundaries.
    Callback,
    /// A call through a local `let f = |…| …` closure binding. The
    /// closure body is inline in the enclosing function, so its tokens
    /// are already covered by the body scans — no edge, no report.
    LocalClosure,
    /// A path rooted in `std` / `core` / `alloc`: external by
    /// construction, never a workspace edge.
    Std,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallFact {
    /// Callee name as written (final path segment / method name).
    pub name: String,
    /// Syntactic classification.
    pub kind: CallKind,
    /// 1-based source line of the callee token.
    pub line: u32,
}

/// What kind of token hit the passes care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitKind {
    /// Allocation token (`.collect()`, `vec!`, `Vec::new`, …).
    Alloc,
    /// Panic token (`.unwrap()`, `panic!`, …).
    Panic,
    /// Nondeterminism source (`std::time`, `HashMap`, `thread_rng`, …).
    Entropy,
    /// Bare (structurally unbounded) slice/array indexing.
    Index,
}

/// One interesting token inside a function body.
#[derive(Debug, Clone)]
pub struct TokenHit {
    /// Hit class.
    pub kind: HitKind,
    /// 1-based source line.
    pub line: u32,
    /// Rendered offending token (for messages).
    pub what: String,
}

/// One function definition with everything the graph layer needs.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Function name as written.
    pub name: String,
    /// Receiver type when defined inside an `impl` block.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Defined inside a test region (`#[cfg(test)]` / `mod tests`).
    pub is_test: bool,
    /// Carries a `// lint:no_alloc` marker (transitive-closure root).
    pub no_alloc: bool,
    /// Call sites inside the body, in source order.
    pub calls: Vec<CallFact>,
    /// Interesting tokens inside the body, in source order.
    pub hits: Vec<TokenHit>,
}

/// An item gated on the `simd` feature (either polarity).
#[derive(Debug, Clone)]
pub struct SimdItem {
    /// `true` for `#[cfg(feature = "simd")]`, `false` for
    /// `#[cfg(not(feature = "simd"))]`.
    pub simd: bool,
    /// Item keyword (`fn`, `struct`, `mod`, …).
    pub item_kind: String,
    /// Item name (for `impl`: the self type).
    pub name: String,
    /// 1-based line of the gating attribute.
    pub line: u32,
}

/// One `Event::Variant` construction site (non-test code only).
#[derive(Debug, Clone)]
pub struct ObsCtor {
    /// Variant name (`NetGrant`).
    pub variant: String,
    /// 1-based source line.
    pub line: u32,
    /// Enclosing function, when inside one.
    pub function: Option<String>,
}

/// Everything the whole-workspace passes need from one file.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Repo-relative path.
    pub file: String,
    /// Crate directory name (`phy`, `core`, …; `root` for `src/`).
    pub krate: String,
    /// Function definitions, in source order.
    pub fns: Vec<FnFact>,
    /// `simd`-feature-gated items.
    pub simd_items: Vec<SimdItem>,
    /// `Event::…` construction sites outside tests.
    pub obs_ctors: Vec<ObsCtor>,
    /// Contents of a `const KINDS = […]` string array, if the file
    /// defines one (the obs event vocabulary).
    pub kinds_array: Vec<String>,
    /// `Event::Variant => n` arms of a `fn kind_index` body, if present.
    pub kind_arms: Vec<(String, usize)>,
    /// `line -> rules` suppressed by `// lint:allow(rule, …)` pragmas.
    pub allow: BTreeMap<u32, BTreeSet<String>>,
}

impl FileFacts {
    /// Is `rule` suppressed on `line` by an allow pragma?
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allow.get(&line).is_some_and(|s| s.contains(rule))
    }
}

/// An `impl` block span with its resolved self type.
#[derive(Debug)]
struct ImplSpan {
    self_ty: Option<String>,
    start: usize,
    end: usize,
}

/// Extract [`FileFacts`] from one lexed+scanned file.
pub fn extract(file: &str, krate: &str, lexed: &Lexed<'_>, map: &FileMap) -> FileFacts {
    let toks = &lexed.tokens;
    let impls = impl_spans(toks);
    let mut facts = FileFacts {
        file: file.to_string(),
        krate: krate.to_string(),
        allow: map.allow.clone(),
        ..FileFacts::default()
    };

    for f in &map.fns {
        let self_ty = impls
            .iter()
            .filter(|im| f.body_start > im.start && f.body_start < im.end)
            .min_by_key(|im| im.end - im.start)
            .and_then(|im| im.self_ty.clone());
        let is_test = map.in_test(f.body_start);
        let mut fact = FnFact {
            name: f.name.clone(),
            self_ty,
            line: f.line,
            is_test,
            no_alloc: f.no_alloc,
            calls: Vec::new(),
            hits: Vec::new(),
        };
        if !is_test {
            let params = param_names(toks, f.line, &f.name, f.body_start);
            let closures = closure_bindings(toks, f.body_start, f.body_end);
            extract_calls(toks, f.body_start, f.body_end, &params, &closures, &mut fact.calls);
            extract_hits(toks, f.body_start, f.body_end, &mut fact.hits);
        }
        facts.fns.push(fact);
    }

    simd_items(toks, map, &mut facts.simd_items);
    obs_ctors(toks, map, &mut facts.obs_ctors);
    kinds_table(toks, &mut facts.kinds_array);
    kind_index_arms(toks, &mut facts.kind_arms);
    facts
}

/// Collect `impl` block spans with their self types. Heuristic header
/// parse: skip the optional generic parameter list, then take the first
/// type-path ident — after `for` when the block is a trait impl
/// (`impl Trait for Type`), directly otherwise (`impl Type`).
fn impl_spans(toks: &[Token<'_>]) -> Vec<ImplSpan> {
    let mut spans: Vec<ImplSpan> = Vec::new();
    let mut open: Vec<(usize, usize)> = Vec::new(); // (spans idx, depth)
    let mut pending: Option<Option<String>> = None;
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("impl") {
            let (ty, brace) = parse_impl_header(toks, i + 1);
            pending = Some(ty);
            i = brace; // lands on the `{` (or EOF)
            continue;
        }
        match t.kind {
            TokKind::Punct('{') => {
                if let Some(ty) = pending.take() {
                    spans.push(ImplSpan { self_ty: ty, start: i, end: toks.len() });
                    open.push((spans.len() - 1, depth));
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if let Some(&(idx, d)) = open.last() {
                    if d == depth {
                        spans[idx].end = i;
                        open.pop();
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// Parse an impl header starting just after the `impl` keyword. Returns
/// the self type (first ident of the implemented-on type path) and the
/// index of the body's opening `{`.
fn parse_impl_header(toks: &[Token<'_>], mut j: usize) -> (Option<String>, usize) {
    // Optional generic parameter list.
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut angle = 0usize;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('<') => angle += 1,
                // `->` inside `Fn(..) -> T` bounds is not a closer.
                TokKind::Punct('>') if !(j > 0 && toks[j - 1].is_punct('-')) => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    let mut first_ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut seen_for = false;
    let mut angle = 0usize;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !(j > 0 && toks[j - 1].is_punct('-')) => {
                angle = angle.saturating_sub(1);
            }
            TokKind::Punct('{') if angle == 0 => break,
            TokKind::Ident if angle == 0 => {
                if t.text == "for" {
                    seen_for = true;
                } else if t.text == "where" {
                    // Type path is over; scan on to the `{`.
                } else if !matches!(t.text, "dyn" | "mut" | "const") {
                    if seen_for {
                        if after_for.is_none() {
                            after_for = Some(t.text.to_string());
                        }
                    } else if first_ty.is_none() {
                        first_ty = Some(t.text.to_string());
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    (after_for.or(first_ty), j)
}

/// Parameter names of a fn: idents directly followed by `:` at paren
/// depth 1 inside the signature's parameter list. Used to classify calls
/// through function-typed parameters as [`CallKind::Callback`].
fn param_names(toks: &[Token<'_>], fn_line: u32, name: &str, body_start: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    // Find the `fn` token of this span (same line, followed by the name).
    let Some(fn_idx) = (0..body_start).rev().find(|&i| {
        toks[i].is_ident("fn")
            && toks[i].line == fn_line
            && toks.get(i + 1).is_some_and(|t| t.is_ident(name))
    }) else {
        return out;
    };
    // Skip to the parameter-list `(` (past any generic parameters).
    let mut j = fn_idx + 2;
    let mut angle = 0usize;
    while j < body_start {
        match toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !(j > 0 && toks[j - 1].is_punct('-')) => {
                angle = angle.saturating_sub(1);
            }
            TokKind::Punct('(') if angle == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let mut paren = 0usize;
    while j < body_start {
        match toks[j].kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            TokKind::Ident
                if paren == 1
                    && !is_keyword(toks[j].text)
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && !toks.get(j + 2).is_some_and(|t| t.is_punct(':')) =>
            {
                out.insert(toks[j].text.to_string());
            }
            _ => {}
        }
        j += 1;
    }
    out
}

/// Names bound to closures in a body (`let f = |…| …;`,
/// `let mut f = move |…| …;`) — calls through them stay inline.
fn closure_bindings(toks: &[Token<'_>], start: usize, end: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let end = end.min(toks.len());
    let mut i = start;
    while i + 3 < end {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind) == Some(TokKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
            {
                let mut k = j + 2;
                if toks.get(k).is_some_and(|t| t.is_ident("move")) {
                    k += 1;
                }
                if toks.get(k).is_some_and(|t| t.is_punct('|')) {
                    out.insert(toks[j].text.to_string());
                }
            }
        }
        i += 1;
    }
    out
}

/// Walk one fn body and record every call site.
fn extract_calls(
    toks: &[Token<'_>],
    start: usize,
    end: usize,
    params: &BTreeSet<String>,
    closures: &BTreeSet<String>,
    out: &mut Vec<CallFact>,
) {
    let end = end.min(toks.len());
    for i in (start + 1)..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || is_keyword(t.text) || is_primitive(t.text) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        if !next.is_punct('(') {
            continue;
        }
        let name = t.text.to_string();
        let line = t.line;
        let prev = &toks[i - 1];
        if prev.is_punct('.') {
            let on_self = i >= 2
                && toks[i - 2].is_ident("self")
                && !(i >= 3 && toks[i - 3].is_punct('.'));
            out.push(CallFact { name, kind: CallKind::Method { on_self }, line });
            continue;
        }
        if prev.is_punct(':') && i >= 2 && toks[i - 2].is_punct(':') {
            out.push(CallFact { name, kind: classify_path(toks, i), line });
            continue;
        }
        // Tuple-struct constructors and enum variants (`Some(x)`,
        // `RxScratch(..)`) start uppercase — not function calls.
        if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            continue;
        }
        if params.contains(&name) {
            out.push(CallFact { name, kind: CallKind::Callback, line });
            continue;
        }
        if closures.contains(&name) {
            out.push(CallFact { name, kind: CallKind::LocalClosure, line });
            continue;
        }
        out.push(CallFact { name, kind: CallKind::Free, line });
    }
}

/// Classify a path call whose callee ident sits at `i` (preceded by
/// `::`): walk the segments back to the path head.
fn classify_path(toks: &[Token<'_>], i: usize) -> CallKind {
    let mut segs: Vec<&str> = Vec::new();
    let mut j = i;
    loop {
        if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
            // Skip a turbofish / generic argument list between segments.
            let mut k = j - 2;
            if k >= 1 && toks[k - 1].is_punct('>') {
                let mut angle = 1usize;
                k -= 1;
                while k > 0 && angle > 0 {
                    k -= 1;
                    match toks[k].kind {
                        TokKind::Punct('>') => angle += 1,
                        TokKind::Punct('<') => angle -= 1,
                        _ => {}
                    }
                }
            }
            if k >= 1 && toks[k - 1].kind == TokKind::Ident {
                segs.push(toks[k - 1].text);
                j = k - 1;
                continue;
            }
            // `<Type as Trait>::method` and friends — opaque head.
            return CallKind::Std;
        }
        break;
    }
    // `segs` is innermost-first: segs[0] is the segment right before the
    // callee, segs.last() the path head.
    let Some(&head) = segs.last() else {
        return CallKind::Std;
    };
    if head == "Self" && segs.len() == 1 {
        return CallKind::SelfPath;
    }
    if matches!(head, "std" | "core" | "alloc") {
        return CallKind::Std;
    }
    let before = segs[0];
    if before.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return CallKind::TypePath(before.to_string());
    }
    CallKind::ModPath(head.to_string())
}

/// Punctuation allowed inside a bounded index expression.
fn safe_index_punct(c: char) -> bool {
    matches!(c, '+' | '-' | '*' | '/' | '(' | ')')
}

/// Walk one fn body and record allocation / panic / entropy / bare-index
/// token hits.
fn extract_hits(toks: &[Token<'_>], start: usize, end: usize, out: &mut Vec<TokenHit>) {
    let end = end.min(toks.len());
    let safe = safe_index_idents(toks, start, end);
    for i in start..end {
        let line = toks[i].line;
        if let Some(what) = rules::alloc_hit(toks, i) {
            out.push(TokenHit { kind: HitKind::Alloc, line, what });
        }
        if let Some(what) = rules::panic_hit(toks, i) {
            out.push(TokenHit { kind: HitKind::Panic, line, what });
        }
        if let Some(what) = rules::determinism_hit(toks, i) {
            out.push(TokenHit { kind: HitKind::Entropy, line, what });
        }
        // Bare indexing: `expr[index]` in expression position whose index
        // is not structurally bounded.
        if toks[i].is_punct('[') && i > start {
            let prev = &toks[i - 1];
            let expr_pos = matches!(prev.kind, TokKind::Ident | TokKind::Punct(')') | TokKind::Punct(']'))
                && !(prev.kind == TokKind::Ident && is_keyword(prev.text));
            if expr_pos {
                if let Some((close, bounded)) = index_bounds(toks, i, end, &safe) {
                    if !bounded {
                        let what = render_tokens(&toks[i + 1..close]);
                        out.push(TokenHit { kind: HitKind::Index, line, what });
                    }
                }
            }
        }
    }
}

/// Identifiers that are structurally bounded inside this body: range-loop
/// binders, closure parameters, `let` bindings whose initialiser is
/// itself bounded, and (at use time) uppercase-initial constants.
fn safe_index_idents(toks: &[Token<'_>], start: usize, end: usize) -> BTreeSet<String> {
    let mut safe: BTreeSet<String> = BTreeSet::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_ident("for") {
            // Binders up to `in`.
            let mut j = i + 1;
            while j < end && j < i + 16 && !toks[j].is_ident("in") {
                if toks[j].kind == TokKind::Ident && !is_keyword(toks[j].text) {
                    safe.insert(toks[j].text.to_string());
                }
                j += 1;
            }
        } else if t.is_punct('|')
            && i > start
            && (matches!(toks[i - 1].kind, TokKind::Punct('(') | TokKind::Punct(',') | TokKind::Punct('='))
                || toks[i - 1].is_ident("move"))
        {
            // Closure parameter list `|a, (b, c)|`.
            let mut j = i + 1;
            while j < end && j < i + 12 && !toks[j].is_punct('|') {
                if toks[j].kind == TokKind::Ident && !is_keyword(toks[j].text) {
                    safe.insert(toks[j].text.to_string());
                }
                if toks[j].is_punct(';') || toks[j].is_punct('{') {
                    break;
                }
                j += 1;
            }
        } else if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|x| x.is_ident("mut")) {
                j += 1;
            }
            if j + 1 < end
                && toks[j].kind == TokKind::Ident
                && !is_keyword(toks[j].text)
                && toks[j + 1].is_punct('=')
            {
                // Bounded initialiser => bounded binding.
                let mut k = j + 2;
                let mut ok = true;
                let mut depth = 0usize;
                while k < end {
                    let x = &toks[k];
                    match x.kind {
                        TokKind::Punct(';') if depth == 0 => break,
                        TokKind::Punct('(') => depth += 1,
                        TokKind::Punct(')') => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                    if !safe_expr_token(x, &safe) {
                        ok = false;
                        break;
                    }
                    k += 1;
                }
                if ok {
                    safe.insert(toks[j].text.to_string());
                }
            }
        }
        i += 1;
    }
    safe
}

/// Is one token admissible inside a bounded expression?
fn safe_expr_token(t: &Token<'_>, safe: &BTreeSet<String>) -> bool {
    match t.kind {
        TokKind::Literal => true,
        TokKind::Ident => {
            t.text == "as"
                || is_primitive(t.text)
                || safe.contains(t.text)
                || t.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        }
        TokKind::Punct(c) => safe_index_punct(c),
        TokKind::Lifetime => false,
    }
}

/// Inspect the index expression opening at `[` token `open`. Returns the
/// index of the closing `]` and whether the expression is structurally
/// bounded. Bounded means any of:
///
/// - masked/mod-reduced (`&` / `%` anywhere in the expression);
/// - a range slice (`..` anywhere at the expression's own bracket
///   level): computed slice bounds are ubiquitous length-derived idiom
///   in the PHY chunk loops and the panic risk concentrates in *scalar*
///   element indexing, which stays checked;
/// - every identifier is safe (range-loop binders, closure binders,
///   uppercase constants, bounded `let`s) and the operators are plain
///   arithmetic.
fn index_bounds(
    toks: &[Token<'_>],
    open: usize,
    end: usize,
    safe: &BTreeSet<String>,
) -> Option<(usize, bool)> {
    let mut depth = 1usize;
    let mut j = open + 1;
    let mut masked = false;
    let mut ranged = false;
    let mut all_safe = true;
    while j < end {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Punct('%') | TokKind::Punct('&') => masked = true,
            TokKind::Punct('.') => {
                // `..` makes this a range slice; a single `.` is a field
                // or method access — not structurally bounded.
                let part_of_range = toks.get(j + 1).is_some_and(|x| x.is_punct('.'))
                    || (j > 0 && toks[j - 1].is_punct('.'));
                if part_of_range {
                    if depth == 1 {
                        ranged = true;
                    }
                } else {
                    all_safe = false;
                }
            }
            _ => {
                if !safe_expr_token(t, safe) {
                    all_safe = false;
                }
            }
        }
        j += 1;
    }
    if j >= end {
        return None;
    }
    // An empty index `[]` cannot happen in expression position.
    Some((j, masked || ranged || all_safe))
}

/// Render a token slice back to compact source-ish text for messages.
fn render_tokens(toks: &[Token<'_>]) -> String {
    let mut s = String::new();
    for t in toks.iter().take(24) {
        if !s.is_empty()
            && t.kind == TokKind::Ident
            && s.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
        {
            s.push(' ');
        }
        s.push_str(t.text);
    }
    if toks.len() > 24 {
        s.push('…');
    }
    s
}

/// Collect `#[cfg(feature = "simd")]` / `#[cfg(not(feature = "simd"))]`
/// gated items: attribute polarity, following item keyword and name.
fn simd_items(toks: &[Token<'_>], map: &FileMap, out: &mut Vec<SimdItem>) {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Scan the attribute for cfg + feature + "simd" (+ not).
            let mut j = i + 1;
            let mut depth = 0usize;
            let (mut has_cfg, mut has_feature, mut has_simd, mut has_not) =
                (false, false, false, false);
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident => match toks[j].text {
                        "cfg" => has_cfg = true,
                        "feature" => has_feature = true,
                        "not" => has_not = true,
                        _ => {}
                    },
                    TokKind::Literal if toks[j].text.contains("simd") => has_simd = true,
                    _ => {}
                }
                j += 1;
            }
            if has_cfg && has_feature && has_simd && !map.in_test(i) {
                if let Some((kind, name)) = item_after(toks, j + 1) {
                    out.push(SimdItem {
                        simd: !has_not,
                        item_kind: kind,
                        name,
                        line: toks[i].line,
                    });
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

/// The item declared right after an attribute: `(keyword, name)`.
fn item_after(toks: &[Token<'_>], mut j: usize) -> Option<(String, String)> {
    // Skip further attributes and visibility.
    let mut guard = 0usize;
    while j < toks.len() && guard < 64 {
        guard += 1;
        let t = &toks[j];
        if t.is_punct('#') && toks.get(j + 1).is_some_and(|x| x.is_punct('[')) {
            let mut depth = 0usize;
            let mut k = j + 1;
            while k < toks.len() {
                match toks[k].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
            continue;
        }
        if t.is_ident("pub") {
            // Skip optional `(crate)` restriction.
            if toks.get(j + 1).is_some_and(|x| x.is_punct('(')) {
                let mut k = j + 1;
                let mut depth = 0usize;
                while k < toks.len() {
                    match toks[k].kind {
                        TokKind::Punct('(') => depth += 1,
                        TokKind::Punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k + 1;
            } else {
                j += 1;
            }
            continue;
        }
        if t.kind == TokKind::Ident
            && matches!(
                t.text,
                "fn" | "struct" | "enum" | "const" | "static" | "type" | "mod" | "trait" | "use"
            )
        {
            let name = toks.get(j + 1).filter(|x| x.kind == TokKind::Ident)?;
            return Some((t.text.to_string(), name.text.to_string()));
        }
        if t.is_ident("impl") {
            let (ty, _) = parse_impl_header(toks, j + 1);
            return Some(("impl".to_string(), ty?));
        }
        // `unsafe`, `extern`, `async` prefixes.
        if t.kind == TokKind::Ident && matches!(t.text, "unsafe" | "extern" | "async") {
            j += 1;
            continue;
        }
        return None;
    }
    None
}

/// Collect `Event::Variant` construction/usage sites outside tests.
fn obs_ctors(toks: &[Token<'_>], map: &FileMap, out: &mut Vec<ObsCtor>) {
    for i in 0..toks.len() {
        if toks[i].is_ident("Event")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Ident)
            && !map.in_test(i)
        {
            let variant = toks[i + 3].text;
            if !variant.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                continue;
            }
            out.push(ObsCtor {
                variant: variant.to_string(),
                line: toks[i].line,
                function: map.enclosing_fn(i).map(|s| s.to_string()),
            });
        }
    }
}

/// The string contents of a `const KINDS … = [ "a", "b", … ]` table.
fn kinds_table(toks: &[Token<'_>], out: &mut Vec<String>) {
    for i in 0..toks.len() {
        if toks[i].is_ident("const") && toks.get(i + 1).is_some_and(|t| t.is_ident("KINDS")) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('[') {
                j += 1;
            }
            // Skip the array-length type `[&str; 18]` if this is the type
            // position: find the `=` first, then its `[`.
            while j < toks.len() && !toks[j].is_punct('=') {
                j += 1;
            }
            while j < toks.len() && !toks[j].is_punct('[') {
                j += 1;
            }
            j += 1;
            while j < toks.len() && !toks[j].is_punct(']') {
                if toks[j].kind == TokKind::Literal && toks[j].text.starts_with('"') {
                    out.push(toks[j].text.trim_matches('"').to_string());
                }
                j += 1;
            }
            return;
        }
    }
}

/// The `Event::Variant { .. } => n` arms of `fn kind_index`.
fn kind_index_arms(toks: &[Token<'_>], out: &mut Vec<(String, usize)>) {
    let Some(fn_idx) = (0..toks.len())
        .find(|&i| toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.is_ident("kind_index")))
    else {
        return;
    };
    for i in fn_idx..toks.len() {
        if toks[i].is_ident("Event")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Ident)
        {
            // Scan forward for `=> <number>` within a few tokens.
            let mut j = i + 4;
            while j + 2 < toks.len() && j < i + 12 {
                if toks[j].is_punct('=')
                    && toks[j + 1].is_punct('>')
                    && toks[j + 2].kind == TokKind::Literal
                {
                    if let Ok(n) = toks[j + 2].text.parse::<usize>() {
                        out.push((toks[i + 3].text.to_string(), n));
                    }
                    break;
                }
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scan::scan;

    fn facts_of(src: &str) -> FileFacts {
        let lexed = lex(src);
        let map = scan(&lexed);
        extract("crates/x/src/lib.rs", "x", &lexed, &map)
    }

    #[test]
    fn impl_receiver_resolution() {
        let f = facts_of(
            "struct Foo;\nimpl Foo { fn m(&self) { helper(); } }\n\
             impl core::fmt::Display for Foo { fn fmt(&self) { x(); } }\nfn free() {}",
        );
        assert_eq!(f.fns[0].name, "m");
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("Foo"));
        assert_eq!(f.fns[1].name, "fmt");
        assert_eq!(f.fns[1].self_ty.as_deref(), Some("Foo"));
        assert_eq!(f.fns[2].self_ty, None);
    }

    #[test]
    fn generic_impl_header() {
        let f = facts_of("impl<'a, T: Iterator<Item = u8>> Wrap<'a, T> { fn go(&self) {} }");
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("Wrap"));
    }

    #[test]
    fn call_classification() {
        let f = facts_of(
            "fn caller(cb: fn(u8)) {\n  free_fn();\n  x.method();\n  self_like();\n  \
             Self::assoc();\n  Type::assoc2();\n  module::path_fn();\n  witag_phy::receive();\n  \
             std::mem::swap(&mut a, &mut b);\n  cb(1);\n  let f = |v| v + 1; f(2);\n  Some(3);\n}",
        );
        let kinds: Vec<(&str, &CallKind)> =
            f.fns[0].calls.iter().map(|c| (c.name.as_str(), &c.kind)).collect();
        assert!(kinds.contains(&("free_fn", &CallKind::Free)));
        assert!(kinds.contains(&("method", &CallKind::Method { on_self: false })));
        assert!(kinds.contains(&("assoc", &CallKind::SelfPath)));
        assert!(kinds.contains(&("assoc2", &CallKind::TypePath("Type".into()))));
        assert!(kinds.contains(&("path_fn", &CallKind::ModPath("module".into()))));
        assert!(kinds.contains(&("receive", &CallKind::ModPath("witag_phy".into()))));
        assert!(kinds.contains(&("swap", &CallKind::Std)));
        assert!(kinds.contains(&("cb", &CallKind::Callback)));
        assert!(kinds.contains(&("f", &CallKind::LocalClosure)));
        assert!(!kinds.iter().any(|(n, _)| *n == "Some"));
    }

    #[test]
    fn self_method_detection() {
        let f = facts_of("impl T { fn a(&self) { self.b(); other.b(); } }");
        let calls = &f.fns[0].calls;
        assert_eq!(calls[0].kind, CallKind::Method { on_self: true });
        assert_eq!(calls[1].kind, CallKind::Method { on_self: false });
    }

    #[test]
    fn bounded_indexing_is_exempt() {
        let f = facts_of(
            "fn kernel(xs: &[f64]) {\n  for j in 0..8 { let _ = xs[j] + xs[2 * j + 1]; }\n  \
             let _ = xs[0];\n  let _ = xs[HALF - 1];\n  let _ = xs[i & MASK];\n  \
             let _ = xs[k % 8];\n}",
        );
        let idx: Vec<&TokenHit> =
            f.fns[0].hits.iter().filter(|h| h.kind == HitKind::Index).collect();
        assert!(idx.is_empty(), "{idx:?}");
    }

    #[test]
    fn unbounded_indexing_is_reported() {
        let f = facts_of(
            "fn helper(&self, xs: &[u8], n: usize) {\n  let _ = xs[n];\n  \
             let _ = xs[self.base + 1];\n  let _ = xs[xs.len() - 1];\n}",
        );
        let idx: Vec<u32> = f.fns[0]
            .hits
            .iter()
            .filter(|h| h.kind == HitKind::Index)
            .map(|h| h.line)
            .collect();
        assert_eq!(idx, vec![2, 3, 4]);
    }

    #[test]
    fn range_slicing_over_binders_is_exempt() {
        let f = facts_of("fn f(xs: &[u8]) { for c in 0..4 { let _ = &xs[c * 2..c * 2 + 2]; } }");
        assert!(f.fns[0].hits.iter().all(|h| h.kind != HitKind::Index));
    }

    #[test]
    fn let_propagation_bounds_indices() {
        let f = facts_of(
            "fn f(xs: &[u8]) { for c in 0..4 { let base = c * LANES; let _ = xs[base + 1]; } }",
        );
        assert!(f.fns[0].hits.iter().all(|h| h.kind != HitKind::Index));
    }

    #[test]
    fn simd_items_extracted() {
        let f = facts_of(
            "#[cfg(not(feature = \"simd\"))]\nfn butterfly() {}\n\
             #[cfg(feature = \"simd\")]\n#[inline]\npub fn butterfly() {}",
        );
        assert_eq!(f.simd_items.len(), 2);
        assert!(!f.simd_items[0].simd);
        assert!(f.simd_items[1].simd);
        assert_eq!(f.simd_items[0].name, "butterfly");
        assert_eq!(f.simd_items[1].name, "butterfly");
    }

    #[test]
    fn obs_ctors_skip_tests() {
        let f = facts_of(
            "fn emit() { rec.record(&Event::NetGrant { round: 0 }); }\n\
             #[cfg(test)]\nmod tests { fn t() { let _ = Event::PhyRx { round: 1 }; } }",
        );
        assert_eq!(f.obs_ctors.len(), 1);
        assert_eq!(f.obs_ctors[0].variant, "NetGrant");
    }

    #[test]
    fn kinds_and_arms_extracted() {
        let f = facts_of(
            "pub const KINDS: [&str; 2] = [\"phy_rx\", \"ba\"];\n\
             fn kind_index(&self) -> usize { match self { Event::PhyRx { .. } => 0, Event::Ba { .. } => 1 } }",
        );
        assert_eq!(f.kinds_array, vec!["phy_rx", "ba"]);
        assert_eq!(f.kind_arms, vec![("PhyRx".into(), 0), ("Ba".into(), 1)]);
    }
}
