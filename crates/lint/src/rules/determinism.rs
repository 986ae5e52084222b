//! `debug-format`: no `{:?}` in a determinism-critical scope.
//!
//! The workspace's headline invariant — bitwise identical solver output,
//! golden-diffed wire responses, deterministic cache rebuilds — dies
//! quietly if a fingerprint, canonical encoding or protocol writer leans
//! on Debug output, which is not a stable format across compiler versions
//! or type changes. Those scopes must spell out their encoding. (Hash
//! containers and wall-clock reads, the other cheap ways to lose the
//! invariant, are clippy's `disallowed_types` and `disallowed_methods`;
//! `clippy::use_debug` cannot take this rule because it misses
//! `format!`. See docs/LINTS.md.)

use crate::lexer::TokenKind;
use crate::rules::RuleCtx;
use crate::{Finding, DEBUG_FORMAT};

pub(crate) fn check(ctx: &mut RuleCtx<'_>) {
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
