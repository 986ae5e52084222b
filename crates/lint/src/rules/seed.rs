//! `seed-provenance`: every RNG construction in sampling code must be
//! seeded by a *seed-derived* expression.
//!
//! The determinism contract (docs/ARCHITECTURE.md) is "seed derivation,
//! not seed sharing": worker `i` seeds its generator from
//! `seed.wrapping_add(i)` (or `seed + i`), never from entropy and never
//! from a constant that an innocent refactor could duplicate across
//! threads. This rule machine-checks that:
//!
//! - `from_entropy()`, `from_os_rng()` and `thread_rng()` are banned
//!   outright in sampling scope — entropy is never deterministic.
//! - `seed_from_u64(expr)` / `from_seed(expr)` must be *tainted*: the
//!   argument has to mention a seed-ish identifier (any identifier whose
//!   lowercased name contains `seed` — a fn parameter, a config field, a
//!   derived local) either directly or through a chain of `let` bindings
//!   inside the same function (`let worker = seed.wrapping_add(i); …
//!   seed_from_u64(worker)`).
//!
//! Churn paths get one extra obligation. Inside a function whose name marks
//! it as an incremental maintenance path (`refresh` / `resample` / `patch` /
//! `mutate`), a seeded constructor must *also* mention an index-ish
//! identifier (`i`, `id`, `*_id`, `…index…`, `…idx…`, `…version…`): the
//! incremental-equals-cold contract holds only because item `i` is resampled
//! from exactly the seed a cold rebuild would use (`seed.wrapping_add(i)`).
//! A refresh loop that re-seeds every item from the bare pool seed is still
//! "seed-derived", but it replays one stream N times and silently diverges
//! from a cold rebuild.
//!
//! Test scope is exempt: pinning a literal seed inside `#[cfg(test)]` is
//! exactly how golden tests are written.

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::model::Span;
use crate::rules::RuleCtx;
use crate::{Finding, SEED_PROVENANCE};

/// RNG constructors that take a seed expression to audit.
const SEEDED_CTORS: &[&str] = &["seed_from_u64", "from_seed"];
/// RNG constructors that draw from the environment: never deterministic.
const ENTROPY_CTORS: &[&str] = &["from_entropy", "from_os_rng", "thread_rng"];
/// Function-name fragments marking incremental churn paths, where seeds
/// must additionally be derived per item (see the module docs).
const CHURN_FN_MARKERS: &[&str] = &["refresh", "resample", "patch", "mutate"];

/// Runs the rule over one file (the caller has already checked scope).
pub(crate) fn check(ctx: &mut RuleCtx<'_>) {
    if !ctx.policy_in_seed_scope {
        return;
    }
    let tokens = &ctx.model.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || ctx.model.in_test(i) {
            continue;
        }
        let next_is_call = next_code(ctx, i + 1).is_some_and(|j| tokens[j].is_punct('('));
        if !next_is_call {
            continue;
        }
        let name = tok.text.as_str();
        if ENTROPY_CTORS.contains(&name) {
            ctx.push(Finding::new(
                SEED_PROVENANCE,
                ctx.path,
                tok.line,
                format!(
                    "`{name}()` draws entropy — sampling code must derive every RNG from the \
                     run seed (`seed.wrapping_add(i)`), or byte-identical replay is lost"
                ),
            ));
            continue;
        }
        if !SEEDED_CTORS.contains(&name) {
            continue;
        }
        let Some(open) = next_code(ctx, i + 1) else { continue };
        let Some(close) = matching_paren(ctx, open) else { continue };
        let tainted = tainted_locals(ctx, i, is_seedish);
        let arg_is_derived = (open + 1..close).any(|j| {
            let t = &tokens[j];
            t.kind == TokenKind::Ident && (is_seedish(&t.text) || tainted.contains(&t.text))
        });
        if !arg_is_derived {
            ctx.push(Finding::new(
                SEED_PROVENANCE,
                ctx.path,
                tok.line,
                format!(
                    "`{name}(…)` is not derived from a seed: the argument mentions no seed-ish \
                     identifier and no local bound from one — derive it (`seed.wrapping_add(i)`) \
                     so replay stays byte-identical"
                ),
            ));
            continue;
        }
        // Seed-derived, but inside a churn path: the derivation must also be
        // per item, or the incremental rebuild diverges from a cold one.
        if let Some(fn_name) = churn_fn_name(ctx, i) {
            let indexed = tainted_locals(ctx, i, is_indexish);
            let arg_is_indexed = (open + 1..close).any(|j| {
                let t = &tokens[j];
                t.kind == TokenKind::Ident && (is_indexish(&t.text) || indexed.contains(&t.text))
            });
            if !arg_is_indexed {
                ctx.push(Finding::new(
                    SEED_PROVENANCE,
                    ctx.path,
                    tok.line,
                    format!(
                        "`{name}(…)` in the incremental path `{fn_name}` carries no per-item \
                         index: resample item `i` from `seed.wrapping_add(i)` — re-seeding every \
                         item from the pool seed replays one stream and diverges from a cold \
                         rebuild"
                    ),
                ));
            }
        }
    }
}

/// The name of the innermost enclosing function when it marks an
/// incremental churn path (`refresh` / `resample` / `patch` / `mutate`).
fn churn_fn_name(ctx: &RuleCtx<'_>, i: usize) -> Option<String> {
    let f = ctx.innermost_fn(i)?;
    let lower = f.name.to_lowercase();
    CHURN_FN_MARKERS.iter().any(|m| lower.contains(m)).then(|| f.name.clone())
}

/// Whether an identifier names a per-item index by convention.
fn is_indexish(name: &str) -> bool {
    let lower = name.to_lowercase();
    lower.contains("index")
        || lower.contains("idx")
        || lower.contains("version")
        || lower == "i"
        || lower == "id"
        || lower.ends_with("_id")
        || lower.starts_with("id_")
}

/// Whether an identifier carries seed provenance by name.
fn is_seedish(name: &str) -> bool {
    name.to_lowercase().contains("seed")
}

/// Locals of the innermost function around token `site` that are bound
/// (transitively) from an expression satisfying `is_source`: a fixed point
/// over `let [mut] name = rhs;` statements whose right-hand side mentions a
/// source (seed-ish / index-ish) or already-tainted identifier.
fn tainted_locals(ctx: &RuleCtx<'_>, site: usize, is_source: fn(&str) -> bool) -> BTreeSet<String> {
    let tokens = &ctx.model.tokens;
    let body = ctx.innermost_fn(site).map_or(Span { start: 0, end: tokens.len() }, |f| f.body);
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        let mut i = body.start;
        while i < body.end {
            if !tokens[i].is_ident("let") {
                i += 1;
                continue;
            }
            let mut name_idx = i + 1;
            while tokens.get(name_idx).is_some_and(|t| t.is_comment() || t.is_ident("mut")) {
                name_idx += 1;
            }
            let Some(name_tok) = tokens.get(name_idx) else { break };
            if name_tok.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            // rhs: from after `=` to the statement-terminating `;` at
            // bracket depth 0.
            let mut j = name_idx + 1;
            let mut depth = 0i32;
            let mut saw_eq = false;
            let mut rhs_tainted = false;
            while j < body.end {
                let t = &tokens[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    break;
                } else if t.is_punct('=') && depth == 0 {
                    saw_eq = true;
                } else if saw_eq
                    && t.kind == TokenKind::Ident
                    && (is_source(&t.text) || tainted.contains(&t.text))
                {
                    rhs_tainted = true;
                }
                j += 1;
            }
            if rhs_tainted && tainted.insert(name_tok.text.clone()) {
                changed = true;
            }
            i = j.max(i + 1);
        }
        if !changed {
            return tainted;
        }
    }
}

/// Next non-comment token index at or after `i`.
fn next_code(ctx: &RuleCtx<'_>, i: usize) -> Option<usize> {
    (i..ctx.model.tokens.len()).find(|&j| !ctx.model.tokens[j].is_comment())
}

/// Given an `(` index, the index of its matching `)`.
fn matching_paren(ctx: &RuleCtx<'_>, open: usize) -> Option<usize> {
    let tokens = &ctx.model.tokens;
    let mut depth = 0i32;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct('(') {
            depth += 1;
        } else if tok.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}
