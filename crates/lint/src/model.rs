//! Structural view of one source file: function spans, `#[cfg(test)]`
//! ranges and suppression comments, recovered from the raw token stream.
//!
//! The recovery is deliberately syntactic — brace matching and attribute
//! pattern matching over [`crate::lexer`] tokens, no parse tree — which is
//! exactly enough for scope questions the rules ask: "is this token inside
//! test code?", "is this token inside a function named `fingerprint`?",
//! "does this line carry a suppression for rule X?".

use std::collections::BTreeMap;

use crate::lexer::{tokenize, Token, TokenKind};

/// A half-open token-index range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First token index of the range.
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
}

impl Span {
    /// Whether token index `i` falls inside this span.
    pub fn contains(&self, i: usize) -> bool {
        self.start <= i && i < self.end
    }
}

/// One `fn` item: its name and the token span of its body (braces
/// included).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token span of the body block, `{` and `}` included.
    pub body: Span,
}

/// A parsed `// lint:allow(rule): reason` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule being suppressed.
    pub rule: String,
    /// The mandatory justification after the colon.
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
}

/// A malformed suppression comment (missing reason, bad syntax); reported
/// as a finding by the analyzer so suppressions cannot silently rot.
#[derive(Debug, Clone)]
pub struct BadSuppression {
    /// What is wrong with it.
    pub message: String,
    /// 1-based line of the comment.
    pub line: u32,
}

/// Everything the rules need to know about one file.
pub struct FileModel {
    /// The token stream (comments included).
    pub tokens: Vec<Token>,
    /// Body spans of test code: `#[cfg(test)]` items and `#[test]` fns.
    pub test_spans: Vec<Span>,
    /// Every `fn` item with a body, in source order (nested fns included).
    pub fn_spans: Vec<FnSpan>,
    /// Well-formed suppressions, keyed by line.
    pub suppressions: BTreeMap<u32, Vec<Suppression>>,
    /// Malformed suppression comments.
    pub bad_suppressions: Vec<BadSuppression>,
    /// Whether the whole file is test scope (integration-test directory).
    pub whole_file_is_test: bool,
}

impl FileModel {
    /// Lexes and structures `source`. `whole_file_is_test` marks files
    /// under a `tests/` directory, where every token is test scope.
    pub fn parse(source: &str, whole_file_is_test: bool) -> FileModel {
        let tokens = tokenize(source);
        let test_spans = find_test_spans(&tokens);
        let fn_spans = find_fn_spans(&tokens);
        let (suppressions, bad_suppressions) = find_suppressions(&tokens);
        FileModel {
            tokens,
            test_spans,
            fn_spans,
            suppressions,
            bad_suppressions,
            whole_file_is_test,
        }
    }

    /// Whether token index `i` is inside test code.
    pub fn in_test(&self, i: usize) -> bool {
        self.whole_file_is_test || self.test_spans.iter().any(|s| s.contains(i))
    }

    /// Whether token index `i` is inside the body of a function named
    /// `name`.
    pub fn in_fn_named(&self, i: usize, name: &str) -> bool {
        self.fn_spans.iter().any(|f| f.name == name && f.body.contains(i))
    }

    /// Whether a violation of `rule` on `line` is suppressed: an allow
    /// comment for the rule on the same line or on the line directly above.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressing_line(rule, line).is_some()
    }

    /// Like [`FileModel::is_suppressed`], but returns the comment line of
    /// the matching suppression — the hook the unused-suppression analysis
    /// uses to mark annotations as earning their keep.
    pub fn suppressing_line(&self, rule: &str, line: u32) -> Option<u32> {
        [line, line.saturating_sub(1)].iter().find_map(|l| {
            self.suppressions
                .get(l)
                .is_some_and(|list| list.iter().any(|s| s.rule == rule))
                .then_some(*l)
        })
    }
}

/// Finds `#[cfg(test)] <item> { … }` and `#[test] fn … { … }` body spans.
fn find_test_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(attr_end) = match_attr(tokens, i, &["cfg", "(", "test"])
            .or_else(|| match_attr(tokens, i, &["test"]))
        {
            // Skip further attributes and comments between the attribute
            // and the item it decorates (`#[cfg(test)] #[allow(…)] // note`).
            let mut j = attr_end;
            loop {
                while j < tokens.len() && tokens[j].is_comment() {
                    j += 1;
                }
                match match_attr_any(tokens, j) {
                    Some(next) => j = next,
                    None => break,
                }
            }
            // The decorated item's body is the next top-level brace block
            // (ends at `;` instead for `mod name;` / use declarations).
            if let Some(span) = next_brace_block(tokens, j) {
                spans.push(span);
                i = span.end;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// If tokens at `i` start an attribute `#[…]` whose leading identifiers
/// match `lead` (e.g. `["cfg", "(", "test"]`), returns the index one past
/// the closing `]`.
fn match_attr(tokens: &[Token], i: usize, lead: &[&str]) -> Option<usize> {
    let end = match_attr_any(tokens, i)?;
    // Match `lead` against the tokens just past `#[`.
    for (j, want) in (i + 2..).zip(lead.iter()) {
        let tok = tokens.get(j)?;
        let matches = match *want {
            "(" => tok.is_punct('('),
            name => tok.is_ident(name),
        };
        if !matches {
            return None;
        }
    }
    Some(end)
}

/// If tokens at `i` start any attribute `#[…]`, returns the index one past
/// the closing `]`.
fn match_attr_any(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct('#') || !tokens.get(i + 1)?.is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(i + 1) {
        if tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
    }
    None
}

/// Returns the span of the next `{ … }` block starting at or after `i`,
/// stopping early at a `;` (item without a body).
pub(crate) fn next_brace_block(tokens: &[Token], i: usize) -> Option<Span> {
    let mut j = i;
    while j < tokens.len() {
        let tok = &tokens[j];
        if tok.is_punct(';') {
            return None;
        }
        if tok.is_punct('{') {
            let end = matching_brace(tokens, j)?;
            return Some(Span { start: j, end: end + 1 });
        }
        j += 1;
    }
    None
}

/// Given the index of a `{`, returns the index of its matching `}`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Finds every `fn name … { body }` item (methods, free functions, nested
/// fns; trait declarations without a body are skipped).
fn find_fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        // `fn` inside a bound like `Fn(…)` lexes as `Fn`, never `fn`; a
        // preceding `.` would mean a method call named `fn`, impossible.
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        if let Some(body) = next_brace_block(tokens, i + 2) {
            spans.push(FnSpan { name: name_tok.text.clone(), body });
        }
    }
    spans
}

/// The suppression grammar: `// lint:allow(<rule>): <reason>`.
///
/// Both pieces are mandatory: the rule name (validated against the registry
/// by the analyzer) and a non-empty reason after the colon. Anything that
/// starts with `lint:allow` but does not parse is collected as a
/// [`BadSuppression`] so typos fail the build instead of silently
/// suppressing nothing.
fn find_suppressions(tokens: &[Token]) -> (BTreeMap<u32, Vec<Suppression>>, Vec<BadSuppression>) {
    let mut good: BTreeMap<u32, Vec<Suppression>> = BTreeMap::new();
    let mut bad = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("lint:allow") else {
            continue;
        };
        match parse_allow(rest) {
            Ok((rule, reason)) => {
                good.entry(tok.line).or_default().push(Suppression {
                    rule,
                    reason,
                    line: tok.line,
                });
            }
            Err(message) => bad.push(BadSuppression { message, line: tok.line }),
        }
    }
    (good, bad)
}

/// Parses the `(<rule>): <reason>` tail of an allow comment.
fn parse_allow(rest: &str) -> Result<(String, String), String> {
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("malformed suppression: expected `lint:allow(<rule>): <reason>`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("malformed suppression: missing `)` after the rule name".to_string());
    };
    let rule = rest[..close].trim();
    if rule.is_empty() {
        return Err("malformed suppression: empty rule name".to_string());
    }
    let tail = rest[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix(':') else {
        return Err(format!(
            "suppression for '{rule}' is missing its `: <reason>` — every allow must say why"
        ));
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err(format!(
            "suppression for '{rule}' has an empty reason — every allow must say why"
        ));
    }
    Ok((rule.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_spans_cover_their_bodies() {
        let src = "fn lib() {}\n#[cfg(test)]\n#[allow(deprecated)] // note\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}";
        let model = FileModel::parse(src, false);
        assert_eq!(model.test_spans.len(), 1);
        let unwrap_idx =
            model.tokens.iter().position(|t| t.is_ident("unwrap")).expect("unwrap token");
        assert!(model.in_test(unwrap_idx));
        let after = model.tokens.iter().position(|t| t.is_ident("after")).expect("after");
        assert!(!model.in_test(after));
    }

    #[test]
    fn test_attribute_fns_are_test_scope() {
        let src = "#[test]\nfn check() { a.unwrap(); }\nfn lib() { b.unwrap(); }";
        let model = FileModel::parse(src, false);
        let first = model.tokens.iter().position(|t| t.is_ident("a")).expect("a");
        let second = model.tokens.iter().position(|t| t.is_ident("b")).expect("b");
        assert!(model.in_test(first));
        assert!(!model.in_test(second));
    }

    #[test]
    fn fn_spans_carry_names_and_bodies() {
        let src = "impl X { fn fingerprint(&self) -> String { self.inner() } }\nfn other() {}";
        let model = FileModel::parse(src, false);
        let names: Vec<&str> = model.fn_spans.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["fingerprint", "other"]);
        let inner = model.tokens.iter().position(|t| t.is_ident("inner")).expect("inner");
        assert!(model.in_fn_named(inner, "fingerprint"));
        assert!(!model.in_fn_named(inner, "other"));
    }

    #[test]
    fn trait_methods_without_bodies_are_skipped() {
        let model = FileModel::parse("trait T { fn no_body(&self); fn with(&self) {} }", false);
        let names: Vec<&str> = model.fn_spans.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with"]);
    }

    #[test]
    fn suppressions_parse_and_reject() {
        let src = "\n// lint:allow(hash-iter): order-independent sum\nm.values().sum();\n// lint:allow(hash-iter)\n// lint:allow(hash-iter):\n// lint:allow(): no rule\n";
        let model = FileModel::parse(src, false);
        assert!(model.is_suppressed("hash-iter", 2), "same line");
        assert!(model.is_suppressed("hash-iter", 3), "line above");
        assert!(!model.is_suppressed("hash-iter", 5));
        assert!(!model.is_suppressed("debug-format", 3));
        assert_eq!(model.bad_suppressions.len(), 3);
        assert!(model.bad_suppressions[0].message.contains("missing its `: <reason>`"));
        assert!(model.bad_suppressions[1].message.contains("empty reason"));
        assert!(model.bad_suppressions[2].message.contains("empty rule name"));
    }

    #[test]
    fn whole_file_test_scope() {
        let model = FileModel::parse("fn x() { a.unwrap(); }", true);
        assert!(model.in_test(0));
    }
}
