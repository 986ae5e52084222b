//! A lightweight item parser on top of [`crate::model::FileModel`]: `fn`
//! items with their module path, visibility, owning `impl` type, parameter
//! names, call sites and panic sites.
//!
//! This is the structural layer the workspace-level analyses (the call
//! graph, interprocedural lock-order, panic-reachability) are built on. It
//! stays deliberately syntactic — a single pass over the token stream with
//! a scope stack for `mod`/`impl` nesting, brace matching for bodies — and
//! recovers exactly the facts name-based call resolution needs, nothing
//! more. No types, no borrow structure, no macro expansion.

use crate::lexer::{Token, TokenKind};
use crate::model::{FileModel, Span};
use crate::PANIC_REACH;

/// Macros that unconditionally abort the current thread.
pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Assertion macros: they panic too, but clippy has no lint for them —
/// only the call-graph-aware reachability analysis cares.
pub(crate) const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];
/// Methods that panic on the error/empty case.
pub(crate) const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Keywords that look like `ident (` but never denote a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "return", "for", "in", "loop", "let", "fn", "impl", "mod",
    "use", "where", "unsafe", "pub", "ref", "mut", "move", "dyn", "as", "box", "await", "struct",
    "enum", "union", "trait", "type", "const", "static",
];

/// How a panic site panics — drives which checker owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` — denied in
    /// library code by clippy (`clippy::panic`, `clippy::unreachable`, …).
    Macro,
    /// `.unwrap()` / `.expect(…)` — denied in library code by clippy
    /// (`clippy::unwrap_used`, `clippy::expect_used`).
    Method,
    /// `assert!` / `assert_eq!` / `assert_ne!` — no clippy lint; only
    /// `panic-reachability` sees these.
    Assert,
}

/// One potentially-panicking site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: u32,
    /// What panics (`unwrap`, `assert_eq`, …).
    pub what: String,
    /// How it panics.
    pub kind: PanicKind,
    /// Whether a `lint:allow(panic-reachability)` annotation covers the
    /// site (the stated invariant makes it fine).
    pub annotated: bool,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee identifier (for held-guard correlation).
    pub token: usize,
    /// 1-based source line.
    pub line: u32,
    /// The called name (`lookup`, `solve`, …).
    pub callee: String,
    /// For `Foo::callee(…)`: the `Foo` path segment directly before `::`.
    pub qualifier: Option<String>,
    /// For `x.callee(…)`: the receiver's last identifier (`self`, `shard`,
    /// a method name for chained calls).
    pub receiver: Option<String>,
    /// Whether the callee name matches a parameter of the enclosing fn —
    /// i.e. this is (very likely) a closure-parameter call with an
    /// unknowable target.
    pub is_param: bool,
}

/// Visibility of an item, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Plain `pub`.
    Public,
    /// `pub(crate)` / `pub(super)` / `pub(in …)`.
    Restricted,
    /// No visibility keyword.
    Private,
}

/// One `fn` item with everything the workspace analyses need.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name (raw-identifier prefix included verbatim).
    pub name: String,
    /// In-file module path (`mod a { mod b { … } }` → `["a", "b"]`).
    pub module_path: Vec<String>,
    /// The `impl` type owning this method, if any (`impl Foo` and
    /// `impl Trait for Foo` both yield `Foo`).
    pub owner: Option<String>,
    /// Item visibility.
    pub visibility: Visibility,
    /// Whether the body sits in test scope.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token span of the body block.
    pub body: Span,
    /// Parameter names (patterns flattened to their first identifier).
    pub params: Vec<String>,
    /// Call sites inside the body (innermost-fn attribution: a nested fn's
    /// calls belong to the nested fn, not this one).
    pub calls: Vec<CallSite>,
    /// Panic sites inside the body, non-test only.
    pub panics: Vec<PanicSite>,
}

/// Parses every `fn` item of one file. Test-scope functions are included
/// (flagged) so callers can decide; their panic sites are not collected.
pub fn parse_items(model: &FileModel) -> Vec<FnItem> {
    let tokens = &model.tokens;
    let mut items = collect_fn_headers(model);
    // Attribute body tokens to the innermost enclosing fn: sort an index of
    // (start, end, item-idx) and for each interesting token pick the
    // smallest enclosing span.
    for idx in 0..items.len() {
        let body = items[idx].body;
        let innermost = |i: usize, items: &[FnItem]| -> bool {
            !items.iter().any(|other| other.body.contains(i) && other.body.start > body.start)
        };
        let mut j = body.start;
        while j < body.end {
            let tok = &tokens[j];
            if tok.is_comment() || tok.kind != TokenKind::Ident || !innermost(j, &items) {
                j += 1;
                continue;
            }
            if let Some(site) = match_panic_site(model, tokens, j) {
                if !items[idx].is_test {
                    items[idx].panics.push(site);
                }
            } else if let Some(call) = match_call_site(tokens, j, &items[idx].params) {
                items[idx].calls.push(call);
            }
            j += 1;
        }
    }
    items
}

/// First pass: find every `fn` header with its scope context.
fn collect_fn_headers(model: &FileModel) -> Vec<FnItem> {
    let tokens = &model.tokens;
    let mut stack: Vec<(usize, HeaderFrame)> = Vec::new();
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        if tok.is_comment() {
            i += 1;
            continue;
        }
        if tok.is_punct('{') {
            // Anything not claimed below opens an anonymous frame so brace
            // depth stays matched.
            stack.push((i, HeaderFrame::Other));
            i += 1;
            continue;
        }
        if tok.is_punct('}') {
            stack.pop();
            i += 1;
            continue;
        }
        if tok.is_ident("mod") {
            if let Some((name, open)) = match_named_block(tokens, i) {
                stack.push((open, HeaderFrame::Mod(name)));
                i = open + 1;
                continue;
            }
        }
        if tok.is_ident("impl") {
            if let Some((owner, open)) = match_impl_header(tokens, i) {
                stack.push((open, HeaderFrame::Impl(owner)));
                i = open + 1;
                continue;
            }
        }
        if tok.is_ident("fn") {
            if let Some((item, next)) = match_fn_header(model, tokens, i, &stack) {
                let body_start = item.body.start;
                items.push(item);
                // Descend INTO the body (nested fns get their own items);
                // the body's `{` opens an anonymous frame.
                stack.push((body_start, HeaderFrame::Other));
                i = next;
                continue;
            }
        }
        i += 1;
    }
    // Second pass over the collected frames is not needed: module path and
    // owner were captured at header time via the closure below.
    items
}

/// `mod name {` → `(name, index-of-open-brace)`.
fn match_named_block(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let name = next_code(tokens, i + 1)?;
    if tokens[name].kind != TokenKind::Ident {
        return None;
    }
    let open = next_code(tokens, name + 1)?;
    if !tokens[open].is_punct('{') {
        return None;
    }
    Some((tokens[name].text.clone(), open))
}

/// `impl [<…>] [Trait for] Type [<…>] [where …] {` → `(owner, open-brace)`.
/// The owner is the first type identifier after `for` when present,
/// otherwise the first type identifier after the impl generics.
fn match_impl_header(tokens: &[Token], i: usize) -> Option<(Option<String>, usize)> {
    let mut j = i + 1;
    let mut owner: Option<String> = None;
    let mut after_for = false;
    let mut angle = 0i32;
    while j < tokens.len() {
        let tok = &tokens[j];
        if tok.is_comment() {
            j += 1;
            continue;
        }
        if tok.is_punct(';') {
            return None; // `impl Trait for Type;` — not a block, skip.
        }
        if tok.is_punct('{') {
            return Some((owner, j));
        }
        if tok.is_punct('<') {
            angle += 1;
        } else if tok.is_punct('>') {
            angle -= 1;
        } else if angle == 0 && tok.is_ident("for") {
            after_for = true;
            owner = None; // the trait name was not the owner after all
        } else if angle == 0 && tok.is_ident("where") {
            // Type position is over; keep scanning for the brace.
        } else if angle == 0 && tok.kind == TokenKind::Ident && owner.is_none() {
            let keyword = matches!(tok.text.as_str(), "dyn" | "const" | "unsafe" | "mut");
            if !keyword {
                owner = Some(tok.text.clone());
                if after_for {
                    // First ident after `for` wins outright.
                    while j < tokens.len() && !tokens[j].is_punct('{') {
                        if tokens[j].is_punct(';') {
                            return None;
                        }
                        j += 1;
                    }
                    if j < tokens.len() {
                        return Some((owner, j));
                    }
                    return None;
                }
            }
        }
        j += 1;
    }
    None
}

/// `fn name (params) … { body }` at token `i` → the item plus the index to
/// resume scanning from (just inside the body).
fn match_fn_header(
    model: &FileModel,
    tokens: &[Token],
    i: usize,
    stack: &[(usize, HeaderFrame)],
) -> Option<(FnItem, usize)> {
    let name_idx = next_code(tokens, i + 1)?;
    if tokens[name_idx].kind != TokenKind::Ident {
        return None;
    }
    let open_paren = next_code(tokens, name_idx + 1).filter(|&p| {
        // Skip generics between name and `(`: `fn f<T: Bound>(…)`.
        tokens[p].is_punct('(') || tokens[p].is_punct('<')
    })?;
    let (params, after_sig) = if tokens[open_paren].is_punct('<') {
        let close = matching_angle(tokens, open_paren)?;
        let paren = next_code(tokens, close + 1)?;
        if !tokens[paren].is_punct('(') {
            return None;
        }
        parse_params(tokens, paren)?
    } else {
        parse_params(tokens, open_paren)?
    };
    let body = crate::model::next_brace_block(tokens, after_sig)?;
    let item = FnItem {
        name: tokens[name_idx].text.clone(),
        module_path: stack.iter().filter_map(|(_, f)| f.mod_name()).collect(),
        owner: stack.iter().rev().find_map(|(_, f)| f.impl_owner()),
        visibility: visibility_of(tokens, i),
        is_test: model.in_test(body.start),
        line: tokens[i].line,
        body,
        params,
        calls: Vec::new(),
        panics: Vec::new(),
    };
    Some((item, body.start + 1))
}

/// Scope-stack frame: what an opening brace belongs to.
enum HeaderFrame {
    /// `mod name {`.
    Mod(String),
    /// `impl … {`, with the owning type when recognizable.
    Impl(Option<String>),
    /// Any other block.
    Other,
}

impl HeaderFrame {
    fn mod_name(&self) -> Option<String> {
        match self {
            HeaderFrame::Mod(name) => Some(name.clone()),
            _ => None,
        }
    }

    fn impl_owner(&self) -> Option<String> {
        match self {
            HeaderFrame::Impl(owner) => owner.clone(),
            _ => None,
        }
    }
}

/// Parameter list starting at the `(` token: first identifier of each
/// top-level pattern (so `mut x: T`, `x: T`, `&self`, `(a, b): T` yield
/// `x`, `x`, `self`, `a`). Returns `(names, index-after-close-paren)`.
fn parse_params(tokens: &[Token], open: usize) -> Option<(Vec<String>, usize)> {
    let mut depth = 0i32;
    let mut names = Vec::new();
    let mut expecting = true; // at a parameter boundary
    let mut j = open;
    while j < tokens.len() {
        let tok = &tokens[j];
        if tok.is_comment() {
            j += 1;
            continue;
        }
        if tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((names, j + 1));
            }
        } else if depth == 1 {
            if tok.is_punct(',') {
                expecting = true;
            } else if expecting && tok.kind == TokenKind::Ident && !tok.is_ident("mut") {
                names.push(tok.text.clone());
                expecting = false;
            } else if expecting && tok.is_punct(':') {
                // Hit the type without a name we want (e.g. `_: T`).
                expecting = false;
            }
        }
        j += 1;
    }
    None
}

/// Visibility by walking back from the `fn` keyword over signature
/// modifiers (`const`, `async`, `unsafe`, `extern "C"`).
fn visibility_of(tokens: &[Token], fn_idx: usize) -> Visibility {
    let mut j = fn_idx;
    while j > 0 {
        let prev = &tokens[j - 1];
        if prev.is_comment() {
            j -= 1;
            continue;
        }
        if prev.kind == TokenKind::Ident
            && matches!(prev.text.as_str(), "const" | "async" | "unsafe" | "extern")
        {
            j -= 1;
            continue;
        }
        if prev.kind == TokenKind::Str {
            // the ABI string of `extern "C"`
            j -= 1;
            continue;
        }
        if prev.is_punct(')') {
            // `pub(crate) fn`: walk to the matching `(` and look before it.
            let mut depth = 0i32;
            let mut k = j - 1;
            loop {
                if tokens[k].is_punct(')') {
                    depth += 1;
                } else if tokens[k].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return Visibility::Private;
                }
                k -= 1;
            }
            if k > 0 && tokens[k - 1].is_ident("pub") {
                return Visibility::Restricted;
            }
            return Visibility::Private;
        }
        if prev.is_ident("pub") {
            return Visibility::Public;
        }
        return Visibility::Private;
    }
    Visibility::Private
}

/// A panic site at token `i`, if one starts here: a panicking macro
/// followed by `!`, or `.unwrap(` / `.expect(`.
fn match_panic_site(model: &FileModel, tokens: &[Token], i: usize) -> Option<PanicSite> {
    let tok = &tokens[i];
    let next = next_code(tokens, i + 1)?;
    let kind = if tokens[next].is_punct('!') {
        if PANIC_MACROS.contains(&tok.text.as_str()) {
            PanicKind::Macro
        } else if ASSERT_MACROS.contains(&tok.text.as_str()) {
            PanicKind::Assert
        } else {
            return None;
        }
    } else if tokens[next].is_punct('(')
        && PANIC_METHODS.contains(&tok.text.as_str())
        && i >= 1
        && prev_code(tokens, i).is_some_and(|p| tokens[p].is_punct('.'))
    {
        PanicKind::Method
    } else {
        return None;
    };
    Some(PanicSite {
        line: tok.line,
        what: tok.text.clone(),
        kind,
        annotated: model.is_suppressed(PANIC_REACH, tok.line),
    })
}

/// A call site at token `i`, if one starts here: `ident (` that is not a
/// keyword, macro, or `fn` definition.
fn match_call_site(tokens: &[Token], i: usize, params: &[String]) -> Option<CallSite> {
    let tok = &tokens[i];
    if NON_CALL_KEYWORDS.contains(&tok.text.as_str()) {
        return None;
    }
    let next = next_code(tokens, i + 1)?;
    if !tokens[next].is_punct('(') {
        return None;
    }
    let mut qualifier = None;
    let mut receiver = None;
    if let Some(p) = prev_code(tokens, i) {
        let prev = &tokens[p];
        if prev.is_ident("fn") {
            return None; // definition, not a call
        }
        if prev.is_punct(':') {
            // `Foo :: callee (` — the qualifier is the ident before `::`.
            let p2 = prev_code(tokens, p)?;
            if !tokens[p2].is_punct(':') {
                return None;
            }
            let q = prev_code(tokens, p2)?;
            if tokens[q].kind == TokenKind::Ident {
                qualifier = Some(tokens[q].text.clone());
            }
        } else if prev.is_punct('.') {
            // `recv . callee (` — receiver is the last meaningful ident of
            // the receiver expression (argument lists skipped).
            let mut r = prev_code(tokens, p)?;
            if tokens[r].is_punct(')') {
                let mut depth = 0i32;
                loop {
                    if tokens[r].is_punct(')') {
                        depth += 1;
                    } else if tokens[r].is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            r = prev_code(tokens, r)?;
                            break;
                        }
                    }
                    r = r.checked_sub(1)?;
                }
            }
            if tokens[r].kind == TokenKind::Ident {
                receiver = Some(tokens[r].text.clone());
            } else {
                receiver = Some("<expr>".to_string());
            }
        }
    }
    let is_param =
        qualifier.is_none() && receiver.is_none() && params.iter().any(|p| p == &tok.text);
    Some(CallSite {
        token: i,
        line: tok.line,
        callee: tok.text.clone(),
        qualifier,
        receiver,
        is_param,
    })
}

/// Index of the next non-comment token at or after `i`.
fn next_code(tokens: &[Token], i: usize) -> Option<usize> {
    (i..tokens.len()).find(|&j| !tokens[j].is_comment())
}

/// Index of the previous non-comment token strictly before `i`.
fn prev_code(tokens: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| !tokens[j].is_comment())
}

/// Given the index of a `<`, the index of its matching `>` (token-level:
/// `>>` is two tokens, so nested generics close one at a time).
fn matching_angle(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct('<') {
            depth += 1;
        } else if tok.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        } else if tok.is_punct(';') || tok.is_punct('{') {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_items(&FileModel::parse(src, false))
    }

    #[test]
    fn fn_metadata_mod_impl_visibility() {
        let src = "mod outer {\n\
                   pub struct S;\n\
                   impl S {\n\
                     pub fn public_method(&self, x: u32) -> u32 { x }\n\
                     pub(crate) fn crate_method(&self) {}\n\
                     fn private_method(&self) {}\n\
                   }\n\
                   pub fn free(a: u32, mut b: u32) -> u32 { a + b }\n\
                   }";
        let items = parse(src);
        let names: Vec<&str> = items.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["public_method", "crate_method", "private_method", "free"]);
        assert_eq!(items[0].owner.as_deref(), Some("S"));
        assert_eq!(items[0].module_path, vec!["outer"]);
        assert_eq!(items[0].visibility, Visibility::Public);
        assert_eq!(items[0].params, vec!["self", "x"]);
        assert_eq!(items[1].visibility, Visibility::Restricted);
        assert_eq!(items[2].visibility, Visibility::Private);
        assert_eq!(items[3].owner, None);
        assert_eq!(items[3].params, vec!["a", "b"]);
    }

    #[test]
    fn fn_spans_carry_names_and_bodies() {
        let src = "impl X { fn fingerprint(&self) -> String { self.inner() } }\nfn other() {}";
        let model = FileModel::parse(src, false);
        let items = parse_items(&model);
        let names: Vec<&str> = items.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["fingerprint", "other"]);
        let inner = model.tokens.iter().position(|t| t.is_ident("inner")).expect("inner");
        assert!(items[0].body.contains(inner));
        assert!(!items[1].body.contains(inner));
    }

    #[test]
    fn trait_methods_without_bodies_are_skipped() {
        let names: Vec<String> = parse("trait T { fn no_body(&self); fn with(&self) {} }")
            .into_iter()
            .map(|f| f.name)
            .collect();
        assert_eq!(names, vec!["with"]);
    }

    #[test]
    fn trait_impl_owner_is_the_type_not_the_trait() {
        let items = parse("impl Drop for Guard<'_> { fn drop(&mut self) { self.release(); } }");
        assert_eq!(items[0].owner.as_deref(), Some("Guard"));
        assert_eq!(items[0].calls.len(), 1);
        assert_eq!(items[0].calls[0].receiver.as_deref(), Some("self"));
    }

    #[test]
    fn call_sites_classify_bare_path_method() {
        let items = parse(
            "fn f(g: u32) { helper(1); Config::build(); self.cache.lookup(key); shard_for(k).lock(); }",
        );
        let calls = &items[0].calls;
        let view: Vec<(&str, Option<&str>, Option<&str>)> = calls
            .iter()
            .map(|c| (c.callee.as_str(), c.qualifier.as_deref(), c.receiver.as_deref()))
            .collect();
        assert_eq!(
            view,
            vec![
                ("helper", None, None),
                ("build", Some("Config"), None),
                ("lookup", None, Some("cache")),
                ("shard_for", None, None),
                ("lock", None, Some("shard_for")),
            ]
        );
    }

    #[test]
    fn closure_param_calls_are_flagged() {
        let items = parse("fn run(build: u32, x: u32) { build(); other(); }");
        assert!(items[0].calls[0].is_param, "call to a parameter name");
        assert!(!items[0].calls[1].is_param);
    }

    #[test]
    fn panic_sites_cover_macros_methods_and_asserts() {
        let src = "fn f(v: u32) {\n\
                   assert!(v > 0);\n\
                   v.unwrap();\n\
                   // lint:allow(panic-reachability): fine here\n\
                   v.expect(\"x\");\n\
                   panic!(\"boom\");\n\
                   }";
        let items = parse(src);
        let p = &items[0].panics;
        assert_eq!(p.len(), 4);
        assert_eq!(p[0].kind, PanicKind::Assert);
        assert_eq!(p[1].kind, PanicKind::Method);
        assert!(p[2].annotated, "allow(panic-reachability) annotation must be seen");
        assert_eq!(p[3].kind, PanicKind::Macro);
        assert!(!p[0].annotated && !p[1].annotated && !p[3].annotated);
    }

    #[test]
    fn nested_fn_calls_belong_to_the_inner_fn() {
        let items = parse("fn outer() { fn inner() { deep(); } inner(); }");
        let outer = items.iter().find(|f| f.name == "outer").expect("outer");
        let inner = items.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].callee, "inner");
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].callee, "deep");
    }

    #[test]
    fn test_fns_skip_panic_collection() {
        let items =
            parse("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn lib() { y.unwrap(); }");
        let t = items.iter().find(|f| f.name == "t").expect("t");
        assert!(t.is_test);
        assert!(t.panics.is_empty());
        let lib = items.iter().find(|f| f.name == "lib").expect("lib");
        assert_eq!(lib.panics.len(), 1);
    }

    #[test]
    fn generic_fns_and_keywords_are_handled() {
        let items = parse("pub fn generic<T: Into<Vec<u8>>>(value: T) -> T { if check(value) { value } else { value } }");
        assert_eq!(items[0].name, "generic");
        assert_eq!(items[0].params, vec!["value"]);
        let callees: Vec<&str> = items[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, vec!["check"], "`if (…)`-ish keywords are not calls");
    }
}
