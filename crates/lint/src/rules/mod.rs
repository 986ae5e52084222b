//! The rule implementations, one module per family, sharing a common
//! per-file rule context (`RuleCtx`).

pub(crate) mod determinism;
pub(crate) mod locks;
pub(crate) mod panic_reach;
pub(crate) mod seed;
pub(crate) mod unsafe_audit;

pub use locks::{LockEdge, LockGraph};
pub use unsafe_audit::UnsafeSite;

use crate::lexer::Token;
use crate::model::FileModel;
use crate::Finding;

/// Everything a rule sees while checking one file: the structured model,
/// the workspace-relative path, and the policy decisions already made for
/// this path (so rules stay scope-agnostic).
pub(crate) struct RuleCtx<'a> {
    pub model: &'a FileModel,
    pub path: &'a str,
    /// Whether this file is sampling code where RNG constructions must be
    /// seed-derived.
    pub policy_in_seed_scope: bool,
    /// Whether this file is a determinism-critical protocol writer, where
    /// hash containers and `{:?}` are banned outright.
    pub critical_file: bool,
    pub findings: Vec<Finding>,
}

impl<'a> RuleCtx<'a> {
    /// Non-comment tokens with their original indices (rules match on code,
    /// scope checks need the original index). The borrow is tied to the
    /// model, not `self`, so rules can push findings while iterating.
    pub(crate) fn code_tokens(&self) -> Vec<(usize, &'a Token)> {
        self.model.tokens.iter().enumerate().filter(|(_, t)| !t.is_comment()).collect()
    }

    /// Whether token `i` is in a determinism-critical scope: a
    /// `fingerprint`/`canonical` function body anywhere, or anywhere in a
    /// protocol-writer file.
    pub(crate) fn in_critical_scope(&self, i: usize) -> bool {
        self.critical_file
            || self.model.in_fn_named(i, "fingerprint")
            || self.model.in_fn_named(i, "canonical")
    }

    pub(crate) fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }
}
