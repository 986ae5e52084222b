//! `unsafe-count`: the unsafe pin.
//!
//! The workspace is `deny(unsafe_code)` with exactly one exemption — the
//! hand-declared `signal(2)` FFI in `crates/service/src/server.rs` — and
//! clippy's `undocumented_unsafe_blocks` makes every block carry its
//! `// SAFETY:` comment. What clippy cannot say is how *many* there may
//! be: the *workspace total* of `unsafe` keywords is pinned here, and
//! growing it, or moving it to a new file, is a lint failure by design.
//! The pin is deliberately **not suppressible** — widening the unsafe
//! surface must edit the pin in `Policy` (a reviewed change to the lint
//! itself), never a drive-by comment.

use crate::lexer::TokenKind;
use crate::rules::RuleCtx;

/// One `unsafe` keyword occurrence, reported back to the analyzer for the
/// workspace-level count pin.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
}

/// Every `unsafe` keyword in the file's code (comments excluded).
pub(crate) fn collect(ctx: &RuleCtx<'_>) -> Vec<UnsafeSite> {
    ctx.code_tokens()
        .into_iter()
        .filter(|(_, tok)| tok.kind == TokenKind::Ident && tok.text == "unsafe")
        .map(|(_, tok)| UnsafeSite { path: ctx.path.to_string(), line: tok.line })
        .collect()
}
