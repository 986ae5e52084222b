//! The determinism family: `hash-iter`, `debug-format`.
//!
//! These rules guard the workspace's headline invariant — bitwise
//! identical solver output, golden-diffed wire responses, deterministic
//! cache rebuilds — against its cheapest ways to die. (Wall-clock reads,
//! the third way, are clippy's `disallowed_methods`; see docs/LINTS.md.)
//!
//! * **`hash-iter`** — iterating a `HashMap`/`HashSet` yields entries in a
//!   randomized order; if that order reaches a fingerprint, cache key or
//!   response, two identical runs produce different bytes. The rule flags
//!   order-revealing method calls (`.iter()`, `.keys()`, …) and `for` loops
//!   over hash-typed bindings anywhere, and *any* hash-container mention
//!   inside determinism-critical scopes (`fingerprint`/`canonical` bodies
//!   and the protocol writer files), where `BTreeMap`/`BTreeSet` or sorted
//!   access is mandatory.
//! * **`debug-format`** — `{:?}` output is not a stable format across
//!   compiler versions or type changes; fingerprints, canonical encodings
//!   and protocol writers must spell out their encoding.

use crate::lexer::TokenKind;
use crate::rules::RuleCtx;
use crate::{Finding, DEBUG_FORMAT, HASH_ITER};

/// Methods whose call on a hash container observes iteration order.
const ORDER_REVEALING: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "retain"];

pub(crate) fn check(ctx: &mut RuleCtx<'_>) {
    hash_iter(ctx);
    debug_format(ctx);
}

fn hash_iter(ctx: &mut RuleCtx<'_>) {
    let hash_bindings = collect_hash_bindings(ctx);
    let applies = |binding: &HashBinding, i: usize| match binding.scope {
        // Struct fields and module-level declarations taint the whole file.
        None => true,
        // Locals and params taint only their own function body.
        Some((start, end)) => start <= i && i < end,
    };
    let tokens = ctx.code_tokens();
    for idx in 0..tokens.len() {
        let (i, tok) = tokens[idx];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        // Strict scope: any hash container inside a fingerprint/canonical
        // body or a protocol-writer file.
        if (tok.text == "HashMap" || tok.text == "HashSet")
            && ctx.in_critical_scope(i)
            && !ctx.model.in_test(i)
        {
            ctx.push(Finding::new(
                HASH_ITER,
                ctx.path,
                tok.line,
                format!(
                    "{} in a determinism-critical scope (fingerprint/canonical/protocol \
                     writer); use BTreeMap/BTreeSet or sorted access",
                    tok.text
                ),
            ));
            continue;
        }
        if ctx.model.in_test(i) {
            continue;
        }
        // General scope: order-revealing access to a known hash binding.
        if hash_bindings.iter().any(|b| b.name == tok.text && applies(b, i)) {
            // `binding.iter()` and friends.
            if let (Some((_, dot)), Some((_, method)), Some((_, paren))) =
                (tokens.get(idx + 1), tokens.get(idx + 2), tokens.get(idx + 3))
            {
                if dot.is_punct('.')
                    && method.kind == TokenKind::Ident
                    && ORDER_REVEALING.contains(&method.text.as_str())
                    && paren.is_punct('(')
                {
                    ctx.push(Finding::new(
                        HASH_ITER,
                        ctx.path,
                        method.line,
                        format!(
                            "`{}.{}()` observes HashMap/HashSet iteration order; use a \
                             BTreeMap/BTreeSet or sort before use",
                            tok.text, method.text
                        ),
                    ));
                    continue;
                }
            }
            // `for x in [&[mut]] binding { … }`.
            if idx >= 1 {
                let mut back = idx - 1;
                while back > 0 && (tokens[back].1.is_punct('&') || tokens[back].1.is_ident("mut")) {
                    back -= 1;
                }
                // Only a direct loop over the binding (next token opens the
                // body); `for x in map.keys()` is caught by the rule above.
                let is_for_in = tokens[back].1.is_ident("in")
                    && tokens.get(idx + 1).is_some_and(|(_, next)| next.is_punct('{'));
                if is_for_in {
                    ctx.push(Finding::new(
                        HASH_ITER,
                        ctx.path,
                        tok.line,
                        format!(
                            "`for … in {}` iterates a HashMap/HashSet in randomized order; \
                             use a BTreeMap/BTreeSet or sort before use",
                            tok.text
                        ),
                    ));
                }
            }
        }
    }
}

/// A binding or field declared with a hash-container type, and the token
/// range (innermost fn body) in which the name refers to it.
struct HashBinding {
    name: String,
    scope: Option<(usize, usize)>,
}

/// Collects the names of bindings and fields declared as hash containers:
/// `name: HashMap<…>` (fields, lets, params) and `let name =
/// HashMap::new()`-style initializations. Locals and params are scoped to
/// their enclosing function so same-named bindings elsewhere stay clean.
fn collect_hash_bindings(ctx: &RuleCtx<'_>) -> Vec<HashBinding> {
    let scope_of = |i: usize| -> Option<(usize, usize)> {
        // Locals: the innermost fn body containing the declaration.
        let innermost = ctx
            .model
            .fn_spans
            .iter()
            .filter(|span| span.body.start <= i && i < span.body.end)
            .map(|span| (span.body.start, span.body.end))
            .min_by_key(|(start, end)| end - start);
        if innermost.is_some() {
            return innermost;
        }
        // Params sit between `fn` and the body: if walking back reaches
        // `fn` without crossing a brace or `;`, scope to the next body.
        let tokens = &ctx.model.tokens;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let tok = &tokens[j];
            if tok.is_comment() {
                continue;
            }
            if tok.is_punct('{') || tok.is_punct('}') || tok.is_punct(';') {
                break;
            }
            if tok.is_ident("fn") {
                return ctx
                    .model
                    .fn_spans
                    .iter()
                    .filter(|span| span.body.start > i)
                    .map(|span| (span.body.start, span.body.end))
                    .min_by_key(|(start, _)| *start);
            }
        }
        None
    };
    let tokens = ctx.code_tokens();
    let mut names = Vec::new();
    for idx in 0..tokens.len() {
        let (i, tok) = tokens[idx];
        if !(tok.is_ident("HashMap") || tok.is_ident("HashSet")) {
            continue;
        }
        // Test-scope declarations must not taint same-named library
        // bindings (and test usage is exempt anyway).
        if ctx.model.in_test(i) {
            continue;
        }
        // Walk back over a `std :: collections ::` path prefix.
        let mut back = idx;
        while back >= 2 && tokens[back - 1].1.is_punct(':') && tokens[back - 2].1.is_punct(':') {
            back -= 2;
            if back >= 1 && tokens[back - 1].1.kind == TokenKind::Ident {
                back -= 1;
            }
        }
        // Skip reference/mut sigils: `map: &mut HashMap<…>` still declares
        // a hash-typed binding named `map`.
        while back >= 2
            && (tokens[back - 1].1.is_punct('&')
                || tokens[back - 1].1.is_ident("mut")
                || tokens[back - 1].1.kind == TokenKind::Lifetime)
        {
            back -= 1;
        }
        if back == 0 {
            continue;
        }
        let before = &tokens[back - 1].1;
        // `name: HashMap<…>` — type ascription of a field, let or param.
        if before.is_punct(':')
            && back >= 2
            && !tokens[back - 2].1.is_punct(':')
            && tokens[back - 2].1.kind == TokenKind::Ident
        {
            let (decl, name) = (tokens[back - 2].0, tokens[back - 2].1.text.clone());
            names.push(HashBinding { name, scope: scope_of(decl) });
        }
        // `let [mut] name = HashMap::…` — inferred-type initialization.
        if before.is_punct('=') && back >= 2 {
            let mut j = back - 2;
            if tokens[j].1.kind == TokenKind::Ident {
                let (decl, name) = (tokens[j].0, tokens[j].1.text.clone());
                if tokens[j].1.is_ident("mut") {
                    continue;
                }
                if j >= 1 && tokens[j - 1].1.is_ident("mut") {
                    j -= 1;
                }
                if j >= 1 && tokens[j - 1].1.is_ident("let") {
                    names.push(HashBinding { name, scope: scope_of(decl) });
                }
            }
        }
    }
    names
}

fn debug_format(ctx: &mut RuleCtx<'_>) {
    let tokens = ctx.code_tokens();
    for &(i, tok) in &tokens {
        if tok.kind != TokenKind::Str || !ctx.in_critical_scope(i) || ctx.model.in_test(i) {
            continue;
        }
        if tok.text.contains(":?}") || tok.text.contains("#?}") {
            ctx.push(Finding::new(
                DEBUG_FORMAT,
                ctx.path,
                tok.line,
                "`{:?}` formatting in a determinism-critical scope (fingerprint/canonical/\
                 protocol writer); Debug output is not a stable encoding — spell the format out"
                    .to_string(),
            ));
        }
    }
}
