//! Item extraction: one lexed file → functions, imports, call sites.
//!
//! This is deliberately **not** a Rust parser. It is a scope-tracking
//! token scanner over the lines [`crate::source`] already lexed, just
//! strong enough to recover the facts the graph passes need:
//!
//! * which functions exist (`fn` items, methods inside `impl`/`trait`
//!   blocks, nested modules), with stable fully qualified names like
//!   `bgp::node::BgpNode::handle_update_at` derived from the file path
//!   and the scope stack;
//! * what each function calls — qualified paths (`simkernel::rng::mix`),
//!   bare names resolved later against imports, and `.method()` calls
//!   kept as method names for conservative resolution;
//! * panic sources in each body (`unwrap`/`expect`, `panic!`-family
//!   macros, slice indexing);
//! * artifact facts: direct file-writing calls, mentions of the schema
//!   stamp (checked on the **raw** line so a stamp interpolated into a
//!   format string still counts), and mentions of exit constants.
//!
//! Anything the scanner cannot see is treated conservatively:
//! `macro_rules!` bodies are opaque (no items or calls are extracted
//! from them), `#[cfg(test)]` blocks never reach it, and calls that
//! resolve nowhere stay in the graph as external/opaque edges rather
//! than disappearing.

use std::collections::BTreeSet;

use crate::source::SourceFile;

/// Method names whose call panics on `None`/`Err`.
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that abort the current path.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that look like calls but are control flow or ubiquitous
/// enum constructors — never graph edges.
const NON_CALLS: [&str; 21] = [
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "else", "unsafe", "let",
    "mut", "ref", "break", "continue", "where", "dyn", "Some", "Ok", "Err",
];

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// A (possibly one-segment) path call: `foo(..)`, `a::b::foo(..)`.
    Path(Vec<String>),
    /// A `.name(..)` method call; the receiver type is unknown.
    Method(String),
    /// A `name!(..)` macro invocation.
    Macro(String),
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub kind: CallKind,
    /// 1-based line of the call.
    pub line: usize,
}

/// A way a statement can panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    Unwrap,
    Expect,
    PanicMacro,
    SliceIndex,
}

impl PanicKind {
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::PanicMacro => "panic-macro",
            PanicKind::SliceIndex => "slice-index",
        }
    }
}

/// One panic source inside a function body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    pub kind: PanicKind,
    /// 1-based line of the panic source.
    pub line: usize,
}

/// One parsed function (or method).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Fully qualified name: `crate::module::[Owner::]name`.
    pub qname: String,
    /// The unqualified name.
    pub name: String,
    /// The `impl`/`trait` type this is a method of, if any.
    pub owner: Option<String>,
    /// 1-based line of the declaration (the line holding `fn`).
    pub line: usize,
    /// Declared `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// A binary entry point (`fn main` in a `main.rs`/`src/bin` file).
    pub is_main: bool,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    /// Lines holding a direct file-writing call (`fs::write`,
    /// `File::create`, `OpenOptions`).
    pub writes: Vec<usize>,
    /// The schema-stamp identifier appears in the body (raw-line check,
    /// so format-string interpolation counts).
    pub mentions_stamp: bool,
    /// Exit-constant identifiers appearing as body tokens.
    pub mentions: BTreeSet<String>,
}

/// One parsed `use` declaration.
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// Name the import binds (last segment or `as` alias).
    pub alias: String,
    /// Normalized path segments (crate-relative prefixes resolved).
    pub path: Vec<String>,
}

/// Everything extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    /// Path relative to the scan root, `/`-separated.
    pub rel: String,
    /// Crate identifier derived from the path (`crates/bgp/src/…` → `bgp`).
    pub crate_id: String,
    /// Module path of the file within the crate.
    pub modules: Vec<String>,
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseDecl>,
    /// Normalized glob-import prefixes (`use a::b::*`).
    pub globs: Vec<Vec<String>>,
}

/// The identifiers the parser watches for inside bodies beside the
/// schema stamp.
#[derive(Clone, Copy, Debug, Default)]
pub struct Needles {
    /// Exit-constant groups (e.g. `[["EXIT_OK"], ["EXIT_VIOLATIONS",
    /// "EXIT_FAIL"]]`); every alternative is watched.
    pub exits: &'static [&'static [&'static str]],
}

/// Maps a workspace-relative file path to `(crate_id, module_path)`.
///
/// `crates/bgp/src/node.rs` → `("bgp", ["node"])`,
/// `crates/experiments/src/bin/repro.rs` → `("experiments", ["bin", "repro"])`,
/// `src/lib.rs` → `("bgpscale", [])`, and for flat fixture trees
/// `det/entry.rs` → `("det", ["entry"])`.
pub fn module_of(rel: &str) -> (String, Vec<String>) {
    let mut segs: Vec<&str> = rel.split('/').filter(|s| !s.is_empty()).collect();
    if segs.first() == Some(&"crates") {
        segs.remove(0);
    }
    let crate_id = if segs.first() == Some(&"src") {
        "bgpscale".to_string()
    } else if segs.len() > 1 {
        segs.remove(0).replace('-', "_")
    } else {
        "bgpscale".to_string()
    };
    let mut modules: Vec<String> = segs
        .into_iter()
        .filter(|s| *s != "src")
        .map(|s| s.trim_end_matches(".rs").to_string())
        .collect();
    if matches!(modules.last().map(String::as_str), Some("lib" | "mod")) {
        modules.pop();
    }
    (crate_id, modules)
}

/// True when the schema stamp [`crate::ARTIFACT_STAMP`] occurs in `hay`
/// as a whole identifier.
fn mentions_stamp(hay: &str) -> bool {
    let needle = crate::ARTIFACT_STAMP;
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre = start > 0 && is_word_byte(bytes[start - 1]);
        let post = end < bytes.len() && is_word_byte(bytes[end]);
        if !pre && !post {
            return true;
        }
        from = end;
    }
    false
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_ident(text: &str) -> bool {
    text.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// What kind of item a pending head will open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HeadKind {
    Fn,
    Impl,
    Trait,
    Mod,
    Macro,
    Other,
}

/// An item head being accumulated between its keyword and its body.
struct Head {
    kind: HeadKind,
    toks: Vec<String>,
    line: usize,
    is_pub: bool,
    paren: i32,
    bracket: i32,
    angle: i32,
    brace: i32,
}

impl Head {
    fn new(kind: HeadKind, keyword: &str, line: usize, is_pub: bool) -> Head {
        Head {
            kind,
            toks: vec![keyword.to_string()],
            line,
            is_pub,
            paren: 0,
            bracket: 0,
            angle: 0,
            brace: 0,
        }
    }
}

/// One entry of the scope stack. `at` is the brace depth *inside* the
/// scope, so a `}` bringing the depth below `at` closes it.
struct Scope {
    kind: ScopeKind,
    at: usize,
}

enum ScopeKind {
    Mod(String),
    /// An `impl`/`trait` block and the owning type name.
    Owner(String),
    /// An open function body: index into `FileItems::fns`.
    Fn(usize),
    /// A `macro_rules!` body: fully opaque.
    Macro,
    Other,
}

/// Extracts one file's items. Infallible by design: unparseable
/// constructs degrade to missing items or external edges, never to a
/// hard error.
pub fn extract(src: &SourceFile, needles: &Needles) -> FileItems {
    let (crate_id, modules) = module_of(&src.rel);
    let mut out = FileItems {
        rel: src.rel.clone(),
        crate_id,
        modules,
        ..FileItems::default()
    };
    let mut scopes: Vec<Scope> = Vec::new();
    let mut sdepth: usize = 0;
    let mut pending_head: Option<Head> = None;
    let mut pending_use: Option<Vec<String>> = None;

    for line in &src.lines {
        scan_tokens(
            &mut out,
            &line.tokens,
            line.line,
            needles,
            &mut scopes,
            &mut sdepth,
            &mut pending_head,
            &mut pending_use,
        );

        // Raw-line stamp check for the innermost open function: a stamp
        // interpolated into a format string is invisible in stripped
        // tokens, so look at the raw text up to any trailing comment.
        if let Some(fi) = innermost_fn(&scopes) {
            let mentioned = match line.comment_col {
                Some(col) => {
                    let prefix: String = line.raw.chars().take(col).collect();
                    mentions_stamp(&prefix)
                }
                None => mentions_stamp(&line.raw),
            };
            if mentioned {
                out.fns[fi].mentions_stamp = true;
            }
        }
    }
    out
}

fn innermost_fn(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s.kind {
        ScopeKind::Fn(i) => Some(i),
        _ => None,
    })
}

fn innermost_owner(scopes: &[Scope]) -> Option<&str> {
    scopes.iter().rev().find_map(|s| match &s.kind {
        ScopeKind::Owner(name) => Some(name.as_str()),
        _ => None,
    })
}

#[allow(clippy::too_many_arguments)]
fn scan_tokens(
    out: &mut FileItems,
    toks: &[String],
    lineno: usize,
    needles: &Needles,
    scopes: &mut Vec<Scope>,
    sdepth: &mut usize,
    pending_head: &mut Option<Head>,
    pending_use: &mut Option<Vec<String>>,
) {
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i].as_str();

        // Inside a macro_rules! body: only track braces to find its end.
        if matches!(scopes.last().map(|s| &s.kind), Some(ScopeKind::Macro)) {
            match t {
                "{" => *sdepth += 1,
                "}" => {
                    *sdepth = sdepth.saturating_sub(1);
                    pop_scopes(scopes, *sdepth);
                }
                _ => {}
            }
            i += 1;
            continue;
        }

        if let Some(use_toks) = pending_use.as_mut() {
            if t == ";" {
                let toks = std::mem::take(use_toks);
                *pending_use = None;
                finish_use(out, &toks, scopes);
            } else {
                use_toks.push(t.to_string());
            }
            i += 1;
            continue;
        }

        if let Some(head) = pending_head.as_mut() {
            let closed = feed_head(head, t);
            match closed {
                HeadEnd::Body => {
                    let head = pending_head.take().expect("head present");
                    *sdepth += 1;
                    let scope = open_scope(out, head, scopes);
                    scopes.push(Scope {
                        kind: scope,
                        at: *sdepth,
                    });
                }
                HeadEnd::Decl => {
                    let head = pending_head.take().expect("head present");
                    if head.kind == HeadKind::Fn {
                        // Trait-required method: a node without a body.
                        push_fn(out, &head, scopes);
                    }
                }
                HeadEnd::Open => {}
            }
            i += 1;
            continue;
        }

        match t {
            "use" => *pending_use = Some(Vec::new()),
            "fn" | "impl" | "trait" | "mod" | "struct" | "enum" | "union" => {
                let kind = match t {
                    "fn" => HeadKind::Fn,
                    "impl" => HeadKind::Impl,
                    "trait" => HeadKind::Trait,
                    "mod" => HeadKind::Mod,
                    _ => HeadKind::Other,
                };
                *pending_head = Some(Head::new(kind, t, lineno, has_pub_before(toks, i)));
            }
            "macro_rules" if toks.get(i + 1).map(|n| n.as_str()) == Some("!") => {
                *pending_head = Some(Head::new(HeadKind::Macro, t, lineno, false));
                i += 1; // consume the `!` as part of the head
            }
            "{" => *sdepth += 1,
            "}" => {
                *sdepth = sdepth.saturating_sub(1);
                pop_scopes(scopes, *sdepth);
            }
            "[" => {
                let indexing = i > 0
                    && match toks[i - 1].as_str() {
                        ")" | "]" => true,
                        // Identifier or tuple-field receiver (`w.0[1]`).
                        prev => {
                            (is_ident(prev) && !NON_CALLS.contains(&prev))
                                || prev.chars().next().is_some_and(|c| c.is_ascii_digit())
                        }
                    };
                if indexing {
                    if let Some(fi) = innermost_fn(scopes) {
                        out.fns[fi].panics.push(PanicSite {
                            kind: PanicKind::SliceIndex,
                            line: lineno,
                        });
                    }
                }
            }
            ident if is_ident(ident) => {
                let next = toks.get(i + 1).map(|n| n.as_str());
                if needles.exits.iter().flat_map(|g| g.iter()).any(|e| *e == ident) {
                    if let Some(fi) = innermost_fn(scopes) {
                        out.fns[fi].mentions.insert(ident.to_string());
                    }
                }
                if next == Some("!") {
                    if let Some(fi) = innermost_fn(scopes) {
                        if PANIC_MACROS.contains(&ident) {
                            out.fns[fi].panics.push(PanicSite {
                                kind: PanicKind::PanicMacro,
                                line: lineno,
                            });
                        }
                        out.fns[fi].calls.push(CallSite {
                            kind: CallKind::Macro(ident.to_string()),
                            line: lineno,
                        });
                    }
                    i += 1; // skip the `!`
                } else if next == Some("(") && !NON_CALLS.contains(&ident) {
                    record_call(out, toks, i, lineno, scopes);
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// What feeding one token into a head produced.
enum HeadEnd {
    /// Still inside the head.
    Open,
    /// The body `{` was reached (already counted by the caller).
    Body,
    /// The head ended with `;` (declaration only).
    Decl,
}

fn feed_head(head: &mut Head, t: &str) -> HeadEnd {
    let balanced = head.paren == 0 && head.bracket == 0 && head.angle == 0 && head.brace == 0;
    match t {
        "{" if balanced => return HeadEnd::Body,
        ";" if head.paren == 0 && head.bracket == 0 && head.brace == 0 => return HeadEnd::Decl,
        "(" => head.paren += 1,
        ")" => head.paren -= 1,
        "[" => head.bracket += 1,
        "]" => head.bracket -= 1,
        "<" => head.angle += 1,
        // `->` is an arrow, not a generic close.
        ">" if head.toks.last().map(String::as_str) != Some("-") => {
            head.angle = (head.angle - 1).max(0);
        }
        "{" => head.brace += 1, // const-generic `{ N }` inside the head
        "}" => head.brace -= 1,
        _ => {}
    }
    head.toks.push(t.to_string());
    HeadEnd::Open
}

/// Scans backwards on the current line for a `pub` qualifier.
fn has_pub_before(toks: &[String], i: usize) -> bool {
    const SKIP: [&str; 10] = [
        "(", ")", "crate", "super", "self", "in", "const", "unsafe", "extern", "async",
    ];
    for t in toks[..i].iter().rev() {
        let t = t.as_str();
        if t == "pub" {
            return true;
        }
        if !SKIP.contains(&t) {
            return false;
        }
    }
    false
}

/// Closes scopes whose interior depth is now above the current depth.
fn pop_scopes(scopes: &mut Vec<Scope>, sdepth: usize) {
    while scopes.last().is_some_and(|s| s.at > sdepth) {
        scopes.pop();
    }
}

/// Turns a completed head (whose body `{` was just consumed) into the
/// scope it opens, registering `fn` items as graph nodes.
fn open_scope(out: &mut FileItems, head: Head, scopes: &[Scope]) -> ScopeKind {
    match head.kind {
        HeadKind::Fn => {
            let idx = push_fn(out, &head, scopes);
            ScopeKind::Fn(idx)
        }
        HeadKind::Impl => ScopeKind::Owner(impl_owner(&head.toks)),
        HeadKind::Trait => ScopeKind::Owner(ident_after(&head.toks, "trait")),
        HeadKind::Mod => ScopeKind::Mod(ident_after(&head.toks, "mod")),
        HeadKind::Macro => ScopeKind::Macro,
        HeadKind::Other => ScopeKind::Other,
    }
}

/// Registers a function node and returns its index.
fn push_fn(out: &mut FileItems, head: &Head, scopes: &[Scope]) -> usize {
    let name = ident_after(&head.toks, "fn");
    let owner = innermost_owner(scopes).map(str::to_string);
    let mut path: Vec<String> = vec![out.crate_id.clone()];
    path.extend(out.modules.iter().cloned());
    for s in scopes {
        if let ScopeKind::Mod(m) = &s.kind {
            path.push(m.clone());
        }
    }
    if let Some(o) = &owner {
        path.push(o.clone());
    }
    // Nested `fn` inside a function body: qualify under the enclosing
    // function so names cannot collide with siblings.
    if let Some(fi) = innermost_fn(scopes) {
        path.push(out.fns[fi].name.clone());
    }
    path.push(name.clone());
    let qname = path.join("::");
    let is_main = name == "main"
        && (out.modules.last().map(String::as_str) == Some("main")
            || out.modules.iter().any(|m| m == "bin"));
    out.fns.push(FnItem {
        qname,
        name,
        owner,
        line: head.line,
        is_pub: head.is_pub,
        is_main,
        calls: Vec::new(),
        panics: Vec::new(),
        writes: Vec::new(),
        mentions_stamp: false,
        mentions: BTreeSet::new(),
    });
    out.fns.len() - 1
}

/// First identifier following `kw` in a head's tokens.
fn ident_after(toks: &[String], kw: &str) -> String {
    let mut seen = false;
    for t in toks {
        if seen && is_ident(t) {
            return t.clone();
        }
        if t == kw {
            seen = true;
        }
    }
    "<anon>".to_string()
}

/// The owning type of an `impl` head: the type after `for` when present
/// (`impl Display for CellKey`), otherwise the first type name after
/// `impl` and its optional generic parameter list.
fn impl_owner(toks: &[String]) -> String {
    let mut angle = 0i32;
    let mut after_for = None;
    for (i, t) in toks.iter().enumerate() {
        match t.as_str() {
            "<" => angle += 1,
            ">" if toks.get(i.wrapping_sub(1)).map(String::as_str) != Some("-") => {
                angle = (angle - 1).max(0);
            }
            "for" if angle == 0 => after_for = Some(i),
            _ => {}
        }
    }
    let from = after_for.unwrap_or(0);
    // First type identifier at angle depth 0 — skipping generic
    // parameter lists, so `impl<'a> Foo<'a>` owns `Foo`, not `'a`.
    let mut angle = 0i32;
    for (i, t) in toks.iter().enumerate().skip(from + 1) {
        match t.as_str() {
            "<" => angle += 1,
            ">" if toks.get(i.wrapping_sub(1)).map(String::as_str) != Some("-") => {
                angle = (angle - 1).max(0);
            }
            ident
                if angle == 0
                    && is_ident(ident)
                    && !matches!(ident, "mut" | "dyn" | "const" | "unsafe") =>
            {
                return ident.to_string();
            }
            _ => {}
        }
    }
    "<anon>".to_string()
}

/// Records a path or method call ending at the identifier `i` (which is
/// followed by `(`), attaching panic/writer facts as warranted.
fn record_call(out: &mut FileItems, toks: &[String], i: usize, lineno: usize, scopes: &[Scope]) {
    let Some(fi) = innermost_fn(scopes) else {
        return;
    };
    // Walk the `::`-separated path backwards, skipping turbofish groups.
    let mut segs = vec![toks[i].clone()];
    let mut j = i;
    loop {
        if j < 2 || toks[j - 1] != "::" {
            break;
        }
        let mut k = j - 2;
        if toks[k] == ">" {
            // `Type::<T>::name`: skip back over the generic group.
            let mut depth = 1i32;
            let mut m = k;
            while m > 0 && depth > 0 {
                m -= 1;
                match toks[m].as_str() {
                    ">" => depth += 1,
                    "<" => depth -= 1,
                    _ => {}
                }
            }
            if m < 2 || depth != 0 || toks[m - 1] != "::" {
                break;
            }
            k = m - 2;
        }
        if is_ident(&toks[k]) {
            segs.insert(0, toks[k].clone());
            j = k;
        } else {
            break;
        }
    }
    let is_method = j > 0 && toks[j - 1] == ".";
    let name = segs.last().expect("nonempty path").clone();

    if PANIC_METHODS.contains(&name.as_str()) {
        let kind = if name.starts_with("unwrap") {
            PanicKind::Unwrap
        } else {
            PanicKind::Expect
        };
        out.fns[fi].panics.push(PanicSite { kind, line: lineno });
    }
    let is_writer = segs.len() >= 2
        && (segs.ends_with(&["fs".to_string(), "write".to_string()])
            || segs.ends_with(&["File".to_string(), "create".to_string()])
            || segs.ends_with(&["File".to_string(), "options".to_string()]))
        || segs.iter().any(|s| s == "OpenOptions");
    if is_writer {
        out.fns[fi].writes.push(lineno);
    }

    let kind = if is_method && segs.len() == 1 {
        CallKind::Method(name)
    } else {
        CallKind::Path(segs)
    };
    out.fns[fi].calls.push(CallSite { kind, line: lineno });
}

/// Parses an accumulated `use` declaration (tokens between `use` and
/// `;`) into aliases and glob prefixes, normalized against the file.
fn finish_use(out: &mut FileItems, toks: &[String], scopes: &[Scope]) {
    let toks: Vec<&str> = toks.iter().map(String::as_str).collect();
    let mut mods: Vec<String> = out.modules.clone();
    for s in scopes {
        if let ScopeKind::Mod(m) = &s.kind {
            mods.push(m.clone());
        }
    }
    let mut pos = 0;
    let mut decls = Vec::new();
    let mut globs = Vec::new();
    use_tree(&toks, &mut pos, &[], &mut decls, &mut globs);
    for (alias, path) in decls {
        if alias == "_" {
            continue;
        }
        let path = normalize_prefix(path, &out.crate_id, &mods);
        out.uses.push(UseDecl { alias, path });
    }
    for g in globs {
        out.globs.push(normalize_prefix(g, &out.crate_id, &mods));
    }
}

/// Recursive descent over one `use` tree level.
fn use_tree(
    toks: &[&str],
    pos: &mut usize,
    prefix: &[String],
    decls: &mut Vec<(String, Vec<String>)>,
    globs: &mut Vec<Vec<String>>,
) {
    let mut segs: Vec<String> = prefix.to_vec();
    loop {
        match toks.get(*pos).copied() {
            Some("*") => {
                *pos += 1;
                globs.push(segs);
                return;
            }
            Some("{") => {
                *pos += 1;
                loop {
                    use_tree(toks, pos, &segs, decls, globs);
                    match toks.get(*pos).copied() {
                        Some(",") => *pos += 1,
                        Some("}") => {
                            *pos += 1;
                            return;
                        }
                        _ => return,
                    }
                }
            }
            Some("self") => {
                *pos += 1;
                if let Some(last) = segs.last().cloned() {
                    decls.push((last, segs));
                }
                return;
            }
            Some(t) if is_ident(t) => {
                segs.push(t.to_string());
                *pos += 1;
                match toks.get(*pos).copied() {
                    Some("::") => {
                        *pos += 1;
                        continue;
                    }
                    Some("as") => {
                        let alias = toks.get(*pos + 1).copied().unwrap_or("_").to_string();
                        *pos += 2;
                        decls.push((alias, segs));
                        return;
                    }
                    _ => {
                        let alias = segs.last().cloned().unwrap_or_default();
                        decls.push((alias, segs));
                        return;
                    }
                }
            }
            _ => return,
        }
    }
}

/// Resolves leading `crate`/`self`/`super` and the `bgpscale_` crate
/// prefix so paths compare against qualified names directly.
pub fn normalize_prefix(mut path: Vec<String>, crate_id: &str, mods: &[String]) -> Vec<String> {
    if path.is_empty() {
        return path;
    }
    match path[0].as_str() {
        "crate" => {
            path[0] = crate_id.to_string();
        }
        "self" => {
            let mut p = vec![crate_id.to_string()];
            p.extend(mods.iter().cloned());
            p.extend(path.into_iter().skip(1));
            path = p;
        }
        "super" => {
            let mut supers = 0;
            while path.first().map(String::as_str) == Some("super") {
                supers += 1;
                path.remove(0);
            }
            let keep = mods.len().saturating_sub(supers);
            let mut p = vec![crate_id.to_string()];
            p.extend(mods.iter().take(keep).cloned());
            p.extend(path);
            path = p;
        }
        first => {
            if let Some(stripped) = first.strip_prefix("bgpscale_") {
                path[0] = stripped.to_string();
            }
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(rel: &str, src: &str) -> FileItems {
        let needles = Needles {
            exits: &[&["EXIT_OK"], &["EXIT_USAGE"]],
        };
        extract(&SourceFile::lex(rel, src), &needles)
    }

    fn qnames(items: &FileItems) -> Vec<&str> {
        items.fns.iter().map(|f| f.qname.as_str()).collect()
    }

    #[test]
    fn module_paths_follow_workspace_layout() {
        assert_eq!(
            module_of("crates/bgp/src/node.rs"),
            ("bgp".to_string(), vec!["node".to_string()])
        );
        assert_eq!(
            module_of("crates/core/src/lib.rs"),
            ("core".to_string(), vec![])
        );
        assert_eq!(
            module_of("crates/experiments/src/bin/repro.rs"),
            (
                "experiments".to_string(),
                vec!["bin".to_string(), "repro".to_string()]
            )
        );
        assert_eq!(module_of("src/lib.rs"), ("bgpscale".to_string(), vec![]));
        assert_eq!(
            module_of("det/entry.rs"),
            ("det".to_string(), vec!["entry".to_string()])
        );
    }

    #[test]
    fn fns_methods_and_nested_modules_get_qualified_names() {
        let src = "\
pub fn free() {}
pub struct Node;
impl Node {
    pub fn method(&self) {}
}
mod inner {
    pub fn hidden() {}
}
trait Tr {
    fn required(&self);
    fn provided(&self) -> u64 { 1 }
}
impl Tr for Node {
    fn required(&self) {}
}
";
        let items = parse("crates/bgp/src/node.rs", src);
        assert_eq!(
            qnames(&items),
            [
                "bgp::node::free",
                "bgp::node::Node::method",
                "bgp::node::inner::hidden",
                "bgp::node::Tr::required",
                "bgp::node::Tr::provided",
                "bgp::node::Node::required",
            ]
        );
        assert!(items.fns[0].is_pub);
        assert!(items.fns[1].is_pub);
        assert!(!items.fns[3].is_pub);
    }

    #[test]
    fn calls_are_extracted_with_paths_methods_and_macros() {
        let src = "\
pub fn go(x: u64) -> u64 {
    let a = helper(x);
    let b = simkernel::rng::mix(a);
    let c = a.wrapping_add(b);
    let d = EventQueue::<u64>::push_len(c);
    println!(\"{c}\");
    d
}
";
        let items = parse("crates/core/src/sim.rs", src);
        let calls = &items.fns[0].calls;
        let kinds: Vec<&CallKind> = calls.iter().map(|c| &c.kind).collect();
        assert!(kinds.contains(&&CallKind::Path(vec!["helper".to_string()])));
        assert!(kinds.contains(&&CallKind::Path(vec![
            "simkernel".to_string(),
            "rng".to_string(),
            "mix".to_string()
        ])));
        assert!(kinds.contains(&&CallKind::Method("wrapping_add".to_string())));
        assert!(kinds.contains(&&CallKind::Path(vec![
            "EventQueue".to_string(),
            "push_len".to_string()
        ])));
        assert!(kinds.contains(&&CallKind::Macro("println".to_string())));
    }

    #[test]
    fn panic_sites_cover_all_four_kinds() {
        let src = "\
pub fn risky(v: &[u64], o: Option<u64>) -> u64 {
    let a = v[0];
    let b = o.unwrap();
    let c = o.expect(\"set\");
    if a == 0 { panic!(\"zero\"); }
    a + b + c
}
";
        let items = parse("crates/core/src/sim.rs", src);
        let mut kinds: Vec<PanicKind> = items.fns[0].panics.iter().map(|p| p.kind).collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(
            kinds,
            [
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::PanicMacro,
                PanicKind::SliceIndex
            ]
        );
        // The slice index is on line 2.
        let idx = items.fns[0]
            .panics
            .iter()
            .find(|p| p.kind == PanicKind::SliceIndex)
            .expect("slice site");
        assert_eq!(idx.line, 2);
    }

    #[test]
    fn slice_patterns_attributes_and_types_are_not_indexing() {
        let src = "\
#[derive(Clone)]
pub struct W(pub [u8; 4]);
pub fn f(w: &W) -> u8 {
    let [a, b, ..] = [1u8, 2, 3, 4];
    let arr: [u8; 2] = [a, b];
    let v = vec![0u8];
    arr[0] + w.0[1] + v[0]
}
";
        let items = parse("crates/core/src/sim.rs", src);
        let sites: Vec<usize> = items.fns[0]
            .panics
            .iter()
            .filter(|p| p.kind == PanicKind::SliceIndex)
            .map(|p| p.line)
            .collect();
        // Only the three real index expressions on the final line fire.
        assert_eq!(sites, [7, 7, 7]);
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let src = "\
macro_rules! gen {
    ($n:ident) => {
        pub fn $n() { std::fs::write(\"x\", \"y\").unwrap(); }
    };
}
pub fn after() {}
";
        let items = parse("crates/obs/src/render.rs", src);
        assert_eq!(qnames(&items), ["obs::render::after"]);
        assert!(items.fns[0].panics.is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "\
pub fn real() {}
#[cfg(test)]
mod tests {
    pub fn fake() { panic!(\"only in tests\"); }
}
";
        let items = parse("crates/core/src/sim.rs", src);
        assert_eq!(qnames(&items), ["core::sim::real"]);
    }

    #[test]
    fn uses_parse_groups_globs_and_aliases() {
        let src = "\
use std::collections::BTreeMap;
use crate::{cevent::run_c_event, sim::Simulator as Sim};
use bgpscale_obs::SCHEMA_VERSION;
use super::helpers::*;
pub fn f() {}
";
        let items = parse("crates/core/src/levent.rs", src);
        let aliases: Vec<(&str, String)> = items
            .uses
            .iter()
            .map(|u| (u.alias.as_str(), u.path.join("::")))
            .collect();
        assert!(aliases.contains(&("BTreeMap", "std::collections::BTreeMap".to_string())));
        assert!(aliases.contains(&("run_c_event", "core::cevent::run_c_event".to_string())));
        assert!(aliases.contains(&("Sim", "core::sim::Simulator".to_string())));
        assert!(aliases.contains(&("SCHEMA_VERSION", "obs::SCHEMA_VERSION".to_string())));
        assert_eq!(
            items.globs,
            [vec!["core".to_string(), "helpers".to_string()]]
        );
    }

    #[test]
    fn writer_stamp_and_exit_mentions_are_detected() {
        let src = "\
pub fn write_it(path: &str) {
    let body = format!(\"{{\\\"schema_version\\\":{SCHEMA_VERSION}}}\");
    std::fs::write(path, body).ok();
}
pub fn exits() -> i32 {
    EXIT_OK
}
";
        let items = parse("crates/obs/src/render.rs", src);
        assert_eq!(items.fns[0].writes.len(), 1);
        assert!(
            items.fns[0].mentions_stamp,
            "stamp inside a format string must count"
        );
        assert!(!items.fns[1].mentions_stamp);
        assert!(items.fns[1].mentions.contains("EXIT_OK"));
    }

    #[test]
    fn impl_trait_returns_do_not_derail_the_head() {
        let src = "\
pub fn iter_all(n: u64) -> impl Iterator<Item = u64> + 'static {
    (0..n).map(|i| i * 2)
}
pub fn next_one() {}
";
        let items = parse("crates/topology/src/walk.rs", src);
        assert_eq!(
            qnames(&items),
            ["topology::walk::iter_all", "topology::walk::next_one"]
        );
        // The closure body belongs to iter_all, not to a phantom item.
        assert!(items.fns[0]
            .calls
            .iter()
            .any(|c| c.kind == CallKind::Method("map".to_string())));
    }

    #[test]
    fn main_detection_tracks_binary_layout() {
        let bin = parse("crates/experiments/src/bin/repro.rs", "fn main() {}\n");
        assert!(bin.fns[0].is_main);
        let root = parse("crates/det/src/main.rs", "fn main() {}\n");
        assert!(root.fns[0].is_main);
        let lib = parse("crates/core/src/lib.rs", "fn main() {}\n");
        assert!(!lib.fns[0].is_main);
    }
}
