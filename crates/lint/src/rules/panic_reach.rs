//! `panic-reachability`: the public API must not transitively reach an
//! unannotated panic.
//!
//! Clippy already denies bare `unwrap`/`expect`/`panic!` in library code
//! (each crate root's `#![deny(clippy::unwrap_used, …)]`) — but it is
//! blind to two things: `assert!` family macros (clippy has no lint for
//! them, and an assertion *with a stated invariant* is often the right
//! tool), and panics sitting in crates the deny does not cover (the bench
//! harness). This rule closes the gap with the workspace call graph:
//! starting from every `pub fn` of `tcim-core` and the facade, it walks
//! resolved call edges (bounded depth, test scope and binaries excluded,
//! closure-parameter calls skipped as unknowable) and reports any
//! reachable panic site that carries no `lint:allow(panic-reachability)`
//! annotation — with the witness call chain in the message.
//!
//! Sites clippy already reports are not re-reported: this rule only
//! surfaces what reachability alone can see.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::Workspace;
use crate::items::{PanicKind, Visibility};
use crate::{Finding, Policy, PANIC_REACH};

/// Call chains longer than this are not chased.
const MAX_DEPTH: usize = 12;

/// Runs the analysis over the pooled workspace, appending findings.
pub(crate) fn check(ws: &Workspace, policy: &Policy, findings: &mut Vec<Finding>) {
    // Multi-source BFS from the public API roots, with parent pointers for
    // witness paths. Roots are processed in index order (the index is
    // filled in sorted path order), so the first witness found for a site
    // is deterministic.
    let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut depth: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (idx, f) in ws.fns().iter().enumerate() {
        let rooted = policy.is_api_root(&f.path)
            && f.item.visibility == Visibility::Public
            && !policy.is_binary(&f.path)
            && !policy.is_test_path(&f.path);
        if rooted {
            parent.insert(idx, None);
            depth.insert(idx, 0);
            queue.push_back(idx);
        }
    }

    let mut reported: BTreeSet<(String, u32)> = BTreeSet::new();
    while let Some(idx) = queue.pop_front() {
        let f = ws.get(idx);
        let d = depth[&idx];
        for site in &f.item.panics {
            if site.annotated {
                continue;
            }
            // Only what clippy cannot see: assertion macros anywhere, or
            // any panic kind in a file outside the clippy deny.
            let clippy_invisible = site.kind == PanicKind::Assert || policy.allows_panics(&f.path);
            if !clippy_invisible {
                continue;
            }
            if !reported.insert((f.path.clone(), site.line)) {
                continue;
            }
            let chain = witness(ws, &parent, idx);
            let root = ws.get(chain_root(&parent, idx));
            findings.push(Finding::new(
                PANIC_REACH,
                &f.path,
                site.line,
                format!(
                    "`{}` can panic and is reachable from public `{}` ({}:{}) via {}; state \
                     the invariant with lint:allow(panic-reachability) or handle the failure",
                    site.what, root.item.name, root.path, root.item.line, chain
                ),
            ));
        }
        if d >= MAX_DEPTH {
            continue;
        }
        for call in &f.item.calls {
            for cand in ws.resolve(idx, call, false) {
                if parent.contains_key(&cand) {
                    continue;
                }
                let target = ws.get(cand);
                if policy.is_binary(&target.path) || policy.is_test_path(&target.path) {
                    continue;
                }
                parent.insert(cand, Some(idx));
                depth.insert(cand, d + 1);
                queue.push_back(cand);
            }
        }
    }
}

/// The witness chain `root -> … -> leaf` as a display string.
fn witness(ws: &Workspace, parent: &BTreeMap<usize, Option<usize>>, leaf: usize) -> String {
    let mut names = Vec::new();
    let mut cur = leaf;
    loop {
        names.push(ws.get(cur).item.name.clone());
        match parent.get(&cur).copied().flatten() {
            Some(p) => cur = p,
            None => break,
        }
    }
    names.reverse();
    names.join(" -> ")
}

/// The BFS root an entry descends from.
fn chain_root(parent: &BTreeMap<usize, Option<usize>>, leaf: usize) -> usize {
    let mut cur = leaf;
    while let Some(Some(p)) = parent.get(&cur) {
        cur = *p;
    }
    cur
}
