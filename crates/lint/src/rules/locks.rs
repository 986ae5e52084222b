//! `lock-order`: nested lock-acquisition discipline for the serving tier.
//!
//! `crates/service` owns the workspace's only long-lived lock structures —
//! the cache's sharded mutexes, the per-key build-lock registry, the
//! admission semaphore and the connection gauge. A deadlock needs two
//! threads acquiring two of those in opposite orders, so the rule extracts
//! every `.lock()` acquisition site, tracks which guards are still held
//! when the next acquisition happens (guard bindings live to their block
//! end or an explicit `drop(guard)`; un-bound temporaries die with their
//! statement), unions the per-function acquisition edges into one graph,
//! and fails on any cycle.
//!
//! The analysis is interprocedural: beyond the nesting that is *textually
//! visible* inside one function body (closures included — they are part of
//! the enclosing body's token stream), it records every call made while a
//! guard is held, resolves the callee through the workspace call graph
//! (closure-parameter calls included — over-approximating an unknown
//! closure by the same-named function is conservative for cycle
//! detection), and unions the callee's transitive acquisition summary
//! (bounded depth) into the graph as `held -> callee-acquired` edges. The
//! oracle → worlds → graph build-lock convention from `cache.rs` is
//! thereby machine-checked across function boundaries, not just inside
//! one body.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::Workspace;
use crate::items::{CallSite, FnItem};
use crate::lexer::TokenKind;
use crate::rules::RuleCtx;
use crate::{Policy, LOCK_ORDER};

/// Transitive acquisition summaries stop unioning past this call depth.
const SUMMARY_DEPTH: usize = 8;

/// Receiver-name aliases that denote the same lock class (e.g. the shard
/// mutex is reached both as `shard.lock()` and `self.shard_for(k).lock()`).
const CLASS_ALIASES: &[(&str, &str)] = &[("shard_for", "shard")];

/// One nested-acquisition edge: while `from` was held, `to` was acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// The lock class already held.
    pub from: String,
    /// The lock class acquired under it.
    pub to: String,
    /// `file:line` of the inner acquisition (for interprocedural edges:
    /// the call site the acquisition is reached through).
    pub site: String,
    /// For interprocedural edges, the callee whose summary contributed
    /// the acquisition; `None` for textually-nested edges.
    pub via: Option<String>,
}

/// The union of every function's acquisition edges across the lock scope.
#[derive(Debug, Default)]
pub struct LockGraph {
    edges: BTreeSet<LockEdge>,
}

impl LockGraph {
    /// All edges, deduplicated and ordered.
    pub fn edges(&self) -> impl Iterator<Item = &LockEdge> {
        self.edges.iter()
    }

    /// Whether any edges were recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    pub(crate) fn add(&mut self, from: String, to: String, site: String) {
        self.edges.insert(LockEdge { from, to, site, via: None });
    }

    pub(crate) fn add_via(&mut self, from: String, to: String, site: String, via: String) {
        self.edges.insert(LockEdge { from, to, site, via: Some(via) });
    }

    /// Unions another graph's edges into this one.
    pub(crate) fn merge(&mut self, other: LockGraph) {
        self.edges.extend(other.edges);
    }

    /// Finds one acquisition cycle if the graph has any, as the list of
    /// edges along the cycle.
    pub fn find_cycle(&self) -> Option<Vec<&LockEdge>> {
        let mut adjacency: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
        for edge in &self.edges {
            adjacency.entry(edge.from.as_str()).or_default().push(edge);
        }
        // DFS with an explicit stack of (node, path-of-edges).
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        for &start in adjacency.keys().collect::<Vec<_>>().iter() {
            if visited.contains(start) {
                continue;
            }
            let mut path: Vec<&LockEdge> = Vec::new();
            if let Some(cycle) = Self::dfs(start, &adjacency, &mut visited, &mut path) {
                return Some(cycle);
            }
        }
        None
    }

    fn dfs<'a>(
        node: &'a str,
        adjacency: &BTreeMap<&'a str, Vec<&'a LockEdge>>,
        visited: &mut BTreeSet<&'a str>,
        path: &mut Vec<&'a LockEdge>,
    ) -> Option<Vec<&'a LockEdge>> {
        if let Some(pos) = path.iter().position(|e| e.from == node) {
            return Some(path[pos..].to_vec());
        }
        if !visited.insert(node) {
            return None;
        }
        for edge in adjacency.get(node).into_iter().flatten() {
            path.push(edge);
            if let Some(cycle) = Self::dfs(edge.to.as_str(), adjacency, visited, path) {
                return Some(cycle);
            }
            path.pop();
        }
        None
    }
}

/// A lock whose guard is still live at the current point of the scan.
struct Held {
    class: String,
    guard: Option<String>,
    depth: i32,
}

/// A call made while at least one guard was held — the raw material for
/// the interprocedural pass: once the whole workspace is pooled, the
/// callee is resolved and its transitive acquisition summary becomes
/// `held -> acquired` edges at this site.
#[derive(Debug, Clone)]
pub(crate) struct GuardedCall {
    /// Index of the calling function in this file's item list.
    pub caller: usize,
    /// The call site (callee name, qualifier, receiver, param-ness).
    pub call: CallSite,
    /// Lock classes held at the call, deduplicated.
    pub held: Vec<String>,
    /// `file:line` of the call.
    pub site: String,
}

/// Per-file lock facts beyond the textual edges.
#[derive(Debug, Clone, Default)]
pub(crate) struct LockFacts {
    /// Calls made under a held guard.
    pub guarded_calls: Vec<GuardedCall>,
    /// Direct (unsuppressed) lock-class acquisitions per item index.
    pub acquires: BTreeMap<usize, BTreeSet<String>>,
}

/// Extracts acquisition edges from every function body of this file into
/// `graph`, plus the guarded calls and per-function acquisition sets the
/// interprocedural pass consumes. Sites carrying a `lint:allow(lock-order)`
/// annotation record no edges and drop out of the summaries; the matching
/// annotation lines are marked used.
pub(crate) fn collect(
    ctx: &RuleCtx<'_>,
    graph: &mut LockGraph,
    facts: &mut LockFacts,
    used: &mut BTreeSet<(u32, String)>,
) {
    for (idx, item) in ctx.items.iter().enumerate() {
        if item.is_test {
            continue;
        }
        scan_body(ctx, idx, item, graph, facts, used);
    }
}

fn scan_body(
    ctx: &RuleCtx<'_>,
    item_idx: usize,
    item: &FnItem,
    graph: &mut LockGraph,
    facts: &mut LockFacts,
    used: &mut BTreeSet<(u32, String)>,
) {
    let tokens = &ctx.model.tokens;
    let (start, end) = (item.body.start, item.body.end);
    let calls_by_token: BTreeMap<usize, &CallSite> =
        item.calls.iter().map(|c| (c.token, c)).collect();
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        let tok = &tokens[i];
        if tok.is_comment() {
            i += 1;
            continue;
        }
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
        } else if tok.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(guard) = tokens.get(i + 2) {
                if guard.kind == TokenKind::Ident {
                    held.retain(|h| h.guard.as_deref() != Some(guard.text.as_str()));
                }
            }
        } else if tok.is_ident("lock")
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
        {
            let class = receiver_class(tokens, i - 1);
            match ctx.model.suppressing_line(LOCK_ORDER, tok.line) {
                Some(l) => {
                    used.insert((l, LOCK_ORDER.to_string()));
                }
                None => {
                    for h in &held {
                        graph.add(
                            h.class.clone(),
                            class.clone(),
                            format!("{}:{}", ctx.path, tok.line),
                        );
                    }
                    facts.acquires.entry(item_idx).or_default().insert(class.clone());
                }
            }
            if let Some(guard) = binding_guard(tokens, start, i) {
                held.push(Held { class, guard: Some(guard), depth });
            }
        } else if let Some(&call) = calls_by_token.get(&i) {
            // A call made under a held guard: the callee's acquisitions
            // nest under everything currently held.
            if !held.is_empty() && call.callee != "drop" && call.callee != "lock" {
                match ctx.model.suppressing_line(LOCK_ORDER, tok.line) {
                    Some(l) => {
                        used.insert((l, LOCK_ORDER.to_string()));
                    }
                    None => {
                        let mut classes: Vec<String> =
                            held.iter().map(|h| h.class.clone()).collect();
                        classes.sort();
                        classes.dedup();
                        facts.guarded_calls.push(GuardedCall {
                            caller: item_idx,
                            call: call.clone(),
                            held: classes,
                            site: format!("{}:{}", ctx.path, tok.line),
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

/// The interprocedural pass, run once the whole workspace is pooled:
/// resolves every guarded call and unions the callee's bounded-depth
/// transitive acquisition summary into `graph` as `held -> acquired`
/// edges. Both resolution and summaries stay inside the lock scope —
/// a call that leaves `crates/service` cannot come back to its locks.
pub(crate) fn interprocedural_edges(
    ws: &Workspace,
    policy: &Policy,
    guarded: &[(usize, GuardedCall)],
    acquires: &BTreeMap<usize, BTreeSet<String>>,
    graph: &mut LockGraph,
) {
    let mut memo: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (caller, gc) in guarded {
        for cand in ws.resolve(*caller, &gc.call, true) {
            if !policy.in_lock_scope(&ws.get(cand).path) {
                continue;
            }
            let mut visiting = BTreeSet::new();
            let classes =
                transitive(ws, policy, acquires, &mut memo, &mut visiting, cand, SUMMARY_DEPTH);
            for to in &classes {
                for from in &gc.held {
                    graph.add_via(
                        from.clone(),
                        to.clone(),
                        gc.site.clone(),
                        gc.call.callee.clone(),
                    );
                }
            }
        }
    }
}

/// Lock classes function `idx` may acquire, directly or through calls, up
/// to `depth` levels deep. Memoized; cycles in the call graph contribute
/// their direct sets only.
fn transitive(
    ws: &Workspace,
    policy: &Policy,
    acquires: &BTreeMap<usize, BTreeSet<String>>,
    memo: &mut BTreeMap<usize, BTreeSet<String>>,
    visiting: &mut BTreeSet<usize>,
    idx: usize,
    depth: usize,
) -> BTreeSet<String> {
    if let Some(done) = memo.get(&idx) {
        return done.clone();
    }
    let mut classes = acquires.get(&idx).cloned().unwrap_or_default();
    if depth == 0 || !visiting.insert(idx) {
        return classes;
    }
    let f = ws.get(idx);
    for call in &f.item.calls {
        for cand in ws.resolve(idx, call, true) {
            if cand == idx || !policy.in_lock_scope(&ws.get(cand).path) {
                continue;
            }
            classes.extend(transitive(ws, policy, acquires, memo, visiting, cand, depth - 1));
        }
    }
    visiting.remove(&idx);
    memo.insert(idx, classes.clone());
    classes
}

/// The lock class of an acquisition: the last meaningful identifier of the
/// receiver expression before `.lock()` (field name, variable name, or the
/// method producing the lock), normalized through [`CLASS_ALIASES`].
fn receiver_class(tokens: &[crate::lexer::Token], dot: usize) -> String {
    let mut j = dot as i64 - 1;
    // Skip a trailing call's argument list: `shard_for(key).lock()`.
    if j >= 0 && tokens[j as usize].is_punct(')') {
        let mut depth = 0i64;
        while j >= 0 {
            if tokens[j as usize].is_punct(')') {
                depth += 1;
            } else if tokens[j as usize].is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    j -= 1;
                    break;
                }
            }
            j -= 1;
        }
    }
    let name = if j >= 0 && tokens[j as usize].kind == TokenKind::Ident {
        tokens[j as usize].text.clone()
    } else {
        "<expr>".to_string()
    };
    CLASS_ALIASES
        .iter()
        .find(|(from, _)| *from == name)
        .map(|(_, to)| (*to).to_string())
        .unwrap_or(name)
}

/// If the statement containing the acquisition at token `site` is a
/// `let [mut] name = …` binding, returns `name` — the guard lives past the
/// statement. Unbound acquisitions are temporaries that die with their
/// statement and are never treated as held. Outer attributes on the
/// statement (`#[expect(…)] let guard = …`) are skipped, so an attributed
/// binding is still a held guard.
fn binding_guard(tokens: &[crate::lexer::Token], body_start: usize, site: usize) -> Option<String> {
    // Walk back to the statement start.
    let mut j = site;
    while j > body_start {
        let tok = &tokens[j - 1];
        if tok.is_punct(';') || tok.is_punct('{') || tok.is_punct('}') {
            break;
        }
        j -= 1;
    }
    let mut k = j;
    loop {
        while tokens.get(k).is_some_and(|t| t.is_comment()) {
            k += 1;
        }
        if !(tokens.get(k).is_some_and(|t| t.is_punct('#'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('[')))
        {
            break;
        }
        // Step past the attribute's balanced `[…]`.
        let mut depth = 0usize;
        k += 1;
        while let Some(tok) = tokens.get(k) {
            k += 1;
            if tok.is_punct('[') {
                depth += 1;
            } else if tok.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    if !tokens.get(k).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    let mut name = k + 1;
    if tokens.get(name).is_some_and(|t| t.is_ident("mut")) {
        name += 1;
    }
    let tok = tokens.get(name)?;
    (tok.kind == TokenKind::Ident).then(|| tok.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_detection_finds_opposite_orders() {
        let mut graph = LockGraph::default();
        graph.add("a".into(), "b".into(), "f.rs:1".into());
        graph.add("b".into(), "c".into(), "f.rs:2".into());
        assert!(graph.find_cycle().is_none());
        graph.add("c".into(), "a".into(), "f.rs:3".into());
        let cycle = graph.find_cycle().expect("cycle");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn self_edges_are_cycles() {
        let mut graph = LockGraph::default();
        graph.add("a".into(), "a".into(), "f.rs:9".into());
        assert_eq!(graph.find_cycle().expect("self cycle").len(), 1);
    }
}
