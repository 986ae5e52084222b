//! # tcim-lint
//!
//! The workspace invariant checker: project-specific rules that turn the
//! determinism contract (see `docs/ARCHITECTURE.md` and `docs/LINTS.md`)
//! into a blocking static pass. Clippy owns everything a standard lint can
//! say — panics and stdout in library code, wall-clock reads, undocumented
//! `unsafe` (the crate roots' `#![deny(…)]`, the workspace `[lints]` table
//! and `clippy.toml`). This tool keeps only what clippy cannot express: no
//! randomized iteration feeding a fingerprint, no `{:?}` in a wire
//! encoding, no RNG that is not derived from the run seed, no lock-order
//! cycles in the serving tier, no assertion reachable from the public API
//! without a stated invariant, and a pinned unsafe surface.
//!
//! Hand-rolled on a small lexer (same spirit as the service crate's
//! `minijson`), with a lightweight item parser and a workspace call graph
//! on top: the per-file rules are syntactic, and the workspace rules
//! (interprocedural lock-order, panic-reachability, the unsafe pin) run
//! over the pooled function index once every file is absorbed.
//!
//! ## Rules
//!
//! | Rule | Family | What it forbids |
//! |------|--------|-----------------|
//! | `hash-iter` | determinism | HashMap/HashSet iteration order reaching output |
//! | `debug-format` | determinism | `{:?}` in fingerprints/canonical/protocol writers |
//! | `seed-provenance` | determinism | RNGs in sampling code not derived from the run seed |
//! | `panic-reachability` | robustness | public API transitively reaching panics clippy cannot see |
//! | `unsafe-count` | audit | any change to the pinned workspace unsafe count |
//! | `lock-order` | concurrency | lock-acquisition cycles (cross-function) in `crates/service` |
//! | `suppression` | meta | malformed/unknown `lint:allow` annotations |
//! | `unused-suppression` | meta | `lint:allow` annotations that suppress nothing |
//!
//! ## Suppression
//!
//! `// lint:allow(<rule>): <reason>` on the violating line or the line
//! directly above. (Clippy-owned rules take `#[expect(clippy::…, reason =
//! "…")]` instead.) The reason is mandatory; unknown rule names and missing
//! reasons are themselves violations, and an annotation that no longer
//! suppresses anything is an `unused-suppression` finding — so
//! suppressions cannot rot in either direction. The `unsafe-count` pin is
//! not suppressible — widening the unsafe surface requires editing
//! [`Policy`] in a reviewed change.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout
)]
// Test code may read clocks and stdout too; the non-test build still checks
// every library item against clippy.toml's disallowed methods.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod callgraph;
pub mod emit;
pub mod items;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod walk;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use callgraph::Workspace;
use items::FnItem;
use model::FileModel;
use rules::locks::{GuardedCall, LockFacts};
use rules::{LockGraph, RuleCtx, UnsafeSite};

/// Rule name: HashMap/HashSet iteration order reaching output.
pub const HASH_ITER: &str = "hash-iter";
/// Rule name: `{:?}` in determinism-critical scopes.
pub const DEBUG_FORMAT: &str = "debug-format";
/// Rule name: RNG constructions not derived from the run seed.
pub const SEED_PROVENANCE: &str = "seed-provenance";
/// Rule name: public API reaching unannotated panics through calls.
pub const PANIC_REACH: &str = "panic-reachability";
/// Rule name: the workspace unsafe-count pin.
pub const UNSAFE_COUNT: &str = "unsafe-count";
/// Rule name: lock-acquisition cycles.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule name: malformed suppression comments.
pub const SUPPRESSION: &str = "suppression";
/// Rule name: suppressions that suppress nothing.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Every rule name the suppression syntax accepts.
pub const KNOWN_RULES: &[&str] = &[
    HASH_ITER,
    DEBUG_FORMAT,
    SEED_PROVENANCE,
    PANIC_REACH,
    UNSAFE_COUNT,
    LOCK_ORDER,
    SUPPRESSION,
    UNUSED_SUPPRESSION,
];

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of [`KNOWN_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// A finding for `rule` at `path:line`.
    pub fn new(rule: &'static str, path: &str, line: u32, message: String) -> Finding {
        Finding { rule, path: path.to_string(), line, message }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// The project policy: which paths get which rules, and the unsafe pin.
///
/// Paths are workspace-relative with `/` separators. The default policy is
/// the one CI enforces; tests construct custom policies to drive fixtures
/// through specific scopes.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Path prefixes that are never linted (vendored stand-ins, build
    /// output, the lint fixtures themselves, and the benchmark — a cargo
    /// workspace of its own that the workspace clippy run never sees).
    pub skip_prefixes: Vec<String>,
    /// Path prefixes outside the crate-root clippy panic deny: the bench
    /// harness measures, prints and panics by design.
    pub bench_prefixes: Vec<String>,
    /// Determinism-critical protocol-writer files where hash containers
    /// and `{:?}` are banned outright.
    pub critical_files: Vec<String>,
    /// Path prefixes whose lock acquisitions enter the order graph.
    pub lock_scope_prefixes: Vec<String>,
    /// Path prefixes where RNG constructions must be seed-derived
    /// (sampling code: diffusion, graph generators, submodular,
    /// dataset loaders).
    pub seed_scope_prefixes: Vec<String>,
    /// Path prefixes whose `pub fn`s are panic-reachability roots (the
    /// orchestration crate and the facade).
    pub api_root_prefixes: Vec<String>,
    /// The unsafe pin: exact expected count and the files allowed to
    /// contain `unsafe`. `None` disables the pin (fixture testing).
    pub unsafe_pin: Option<UnsafePin>,
}

/// The workspace unsafe-count pin.
#[derive(Debug, Clone)]
pub struct UnsafePin {
    /// Exactly how many `unsafe` keywords the workspace may contain.
    pub count: usize,
    /// The only files allowed to contain them.
    pub files: Vec<String>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            skip_prefixes: vec![
                "vendor/".to_string(),
                "target/".to_string(),
                "crates/lint/fixtures/".to_string(),
                "perfbench/".to_string(),
            ],
            bench_prefixes: vec!["crates/bench/".to_string()],
            critical_files: vec![
                "crates/service/src/protocol.rs".to_string(),
                "crates/service/src/minijson.rs".to_string(),
            ],
            lock_scope_prefixes: vec!["crates/service/src/".to_string()],
            seed_scope_prefixes: vec![
                "crates/diffusion/src/".to_string(),
                "crates/graph/src/".to_string(),
                "crates/submodular/src/".to_string(),
                "crates/datasets/src/".to_string(),
            ],
            api_root_prefixes: vec!["crates/core/src/".to_string(), "src/".to_string()],
            unsafe_pin: Some(UnsafePin {
                // The one signal(2) FFI block behind graceful shutdown; see
                // crates/service/src/server.rs and docs/LINTS.md. Growing
                // this number is a reviewed change to this file, not a
                // suppression comment.
                count: 1,
                files: vec!["crates/service/src/server.rs".to_string()],
            }),
        }
    }
}

impl Policy {
    fn skipped(&self, path: &str) -> bool {
        self.skip_prefixes.iter().any(|p| path.starts_with(p))
    }

    /// Binaries and examples may exit by panicking with a message; library
    /// sources may not.
    pub(crate) fn is_binary(&self, path: &str) -> bool {
        path.contains("/bin/") || path.starts_with("examples/") || path.contains("/examples/")
    }

    /// Whether `path` is an integration-test file (whole file test scope).
    pub(crate) fn is_test_path(&self, path: &str) -> bool {
        path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
    }

    /// Whether clippy's crate-root panic deny leaves `path` alone.
    pub(crate) fn allows_panics(&self, path: &str) -> bool {
        self.bench_prefixes.iter().any(|p| path.starts_with(p)) || self.is_binary(path)
    }

    fn is_critical(&self, path: &str) -> bool {
        self.critical_files.iter().any(|f| f == path)
    }

    pub(crate) fn in_lock_scope(&self, path: &str) -> bool {
        self.lock_scope_prefixes.iter().any(|p| path.starts_with(p))
    }

    fn in_seed_scope(&self, path: &str) -> bool {
        self.seed_scope_prefixes.iter().any(|p| path.starts_with(p))
            && !self.is_test_path(path)
            && !self.is_binary(path)
    }

    pub(crate) fn is_api_root(&self, path: &str) -> bool {
        self.api_root_prefixes.iter().any(|p| path.starts_with(p))
    }
}

/// One well-formed suppression, tracked for the unused-suppression pass.
#[derive(Debug, Clone)]
struct SupRecord {
    /// Comment line of the annotation.
    line: u32,
    /// The rule it names.
    rule: String,
    /// Whether the rule name is in [`KNOWN_RULES`] (unknown names are
    /// already `suppression` findings and exempt from unused tracking).
    known: bool,
    /// Line of a `lint:allow(unused-suppression)` shielding this
    /// annotation, when one covers it.
    shield: Option<u32>,
}

/// Everything one file contributes to the run: its per-file findings plus
/// the raw material for the workspace passes. Produced by [`analyze_file`]
/// (pure — safe to compute in parallel) and folded in path order via
/// [`Analyzer::absorb`].
pub struct FileOutcome {
    path: String,
    skipped: bool,
    findings: Vec<Finding>,
    unsafe_sites: Vec<UnsafeSite>,
    lock_graph: LockGraph,
    lock_facts: LockFacts,
    items: Vec<FnItem>,
    sup_records: Vec<SupRecord>,
    used: BTreeSet<(u32, String)>,
}

impl FileOutcome {
    /// Whether the policy skipped this path entirely.
    pub fn is_skipped(&self) -> bool {
        self.skipped
    }
}

/// Checks one file against the per-file rules and collects the workspace
/// inputs. `path` must be workspace-relative with `/` separators — it
/// decides every scope question. Pure: no shared state, deterministic
/// output, which is what lets the CLI fan files out over a thread pool
/// and still merge byte-identical results.
pub fn analyze_file(policy: &Policy, path: &str, source: &str) -> FileOutcome {
    let mut outcome = FileOutcome {
        path: path.to_string(),
        skipped: false,
        findings: Vec::new(),
        unsafe_sites: Vec::new(),
        lock_graph: LockGraph::default(),
        lock_facts: LockFacts::default(),
        items: Vec::new(),
        sup_records: Vec::new(),
        used: BTreeSet::new(),
    };
    if policy.skipped(path) {
        outcome.skipped = true;
        return outcome;
    }
    let model = FileModel::parse(source, policy.is_test_path(path));
    let items = items::parse_items(&model);
    let mut ctx = RuleCtx {
        model: &model,
        path,
        policy_in_seed_scope: policy.in_seed_scope(path),
        critical_file: policy.is_critical(path),
        findings: Vec::new(),
    };
    rules::determinism::check(&mut ctx);
    rules::seed::check(&mut ctx);
    let unsafe_sites = rules::unsafe_audit::collect(&ctx);
    if policy.in_lock_scope(path) {
        rules::locks::collect(
            &ctx,
            &items,
            &mut outcome.lock_graph,
            &mut outcome.lock_facts,
            &mut outcome.used,
        );
    }
    let mut findings = ctx.findings;
    // Apply inline suppressions (marking each one used), then validate the
    // suppressions themselves: malformed ones and unknown rule names are
    // findings.
    findings.retain(|f| match model.suppressing_line(f.rule, f.line) {
        Some(l) => {
            outcome.used.insert((l, f.rule.to_string()));
            false
        }
        None => true,
    });
    for bad in &model.bad_suppressions {
        findings.push(Finding::new(SUPPRESSION, path, bad.line, bad.message.clone()));
    }
    for list in model.suppressions.values() {
        for sup in list {
            let known = KNOWN_RULES.contains(&sup.rule.as_str());
            if !known {
                findings.push(Finding::new(
                    SUPPRESSION,
                    path,
                    sup.line,
                    format!(
                        "unknown rule '{}' in lint:allow (known rules: {})",
                        sup.rule,
                        KNOWN_RULES.join(", ")
                    ),
                ));
            }
            outcome.sup_records.push(SupRecord {
                line: sup.line,
                rule: sup.rule.clone(),
                known,
                shield: model
                    .suppressing_line(UNUSED_SUPPRESSION, sup.line)
                    .filter(|l| !(sup.rule == UNUSED_SUPPRESSION && *l == sup.line)),
            });
        }
    }
    // An annotated panic site marks its annotation used: panic-reachability
    // silently steps over it, so the annotation is load-bearing whether or
    // not the site is reachable in this run.
    for site in items.iter().flat_map(|item| &item.panics) {
        if let Some(l) = model.suppressing_line(PANIC_REACH, site.line) {
            outcome.used.insert((l, PANIC_REACH.to_string()));
        }
    }
    outcome.unsafe_sites = unsafe_sites;
    outcome.findings = findings;
    outcome.items = items;
    outcome
}

/// Per-rule counters for `--stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleStats {
    /// The rule name.
    pub rule: &'static str,
    /// Findings that survived suppression.
    pub findings: usize,
    /// Distinct annotations that suppressed something for this rule.
    pub suppressions_used: usize,
}

/// The result of a full run.
pub struct Report {
    /// All findings, sorted by `(path, line, rule)` and deduplicated.
    pub findings: Vec<Finding>,
    /// The unioned lock graph (textual and interprocedural edges).
    pub lock_graph: LockGraph,
    /// Per-rule counters, one entry per known rule in registry order.
    pub stats: Vec<RuleStats>,
}

/// Accumulates per-file outcomes and finishes with the workspace-level
/// verdicts (unsafe pin, interprocedural lock cycles, panic-reachability,
/// unused suppressions).
pub struct Analyzer {
    policy: Policy,
    findings: Vec<Finding>,
    lock_graph: LockGraph,
    unsafe_sites: Vec<UnsafeSite>,
    ws: Workspace,
    guarded: Vec<(usize, GuardedCall)>,
    acquires: BTreeMap<usize, BTreeSet<String>>,
    sup_records: Vec<(String, SupRecord)>,
    used: BTreeSet<(String, u32, String)>,
}

impl Analyzer {
    /// An analyzer enforcing `policy`.
    pub fn new(policy: Policy) -> Analyzer {
        Analyzer {
            policy,
            findings: Vec::new(),
            lock_graph: LockGraph::default(),
            unsafe_sites: Vec::new(),
            ws: Workspace::default(),
            guarded: Vec::new(),
            acquires: BTreeMap::new(),
            sup_records: Vec::new(),
            used: BTreeSet::new(),
        }
    }

    /// Checks one file (convenience for [`analyze_file`] + [`Analyzer::absorb`]).
    pub fn check_file(&mut self, path: &str, source: &str) {
        let outcome = analyze_file(&self.policy, path, source);
        self.absorb(outcome);
    }

    /// Folds one file's outcome into the run. Call in sorted path order —
    /// the workspace index order (and with it every witness path and
    /// report line) follows absorption order.
    pub fn absorb(&mut self, outcome: FileOutcome) {
        if outcome.skipped {
            return;
        }
        self.findings.extend(outcome.findings);
        self.unsafe_sites.extend(outcome.unsafe_sites);
        self.lock_graph.merge(outcome.lock_graph);
        let global = self.ws.add_file(&outcome.path, outcome.items);
        for (item_idx, classes) in outcome.lock_facts.acquires {
            if let Some(g) = global.get(item_idx).copied().flatten() {
                self.acquires.entry(g).or_default().extend(classes);
            }
        }
        for gc in outcome.lock_facts.guarded_calls {
            if let Some(g) = global.get(gc.caller).copied().flatten() {
                self.guarded.push((g, gc));
            }
        }
        for rec in outcome.sup_records {
            self.sup_records.push((outcome.path.clone(), rec));
        }
        for (line, rule) in outcome.used {
            self.used.insert((outcome.path.clone(), line, rule));
        }
    }

    /// Finishes the run: applies the workspace-level rules and returns the
    /// report with findings sorted by `(path, line, rule)`.
    pub fn finish(mut self) -> Report {
        self.apply_unsafe_pin();
        rules::locks::interprocedural_edges(
            &self.ws,
            &self.policy,
            &self.guarded,
            &self.acquires,
            &mut self.lock_graph,
        );
        if let Some(cycle) = self.lock_graph.find_cycle() {
            let steps: Vec<String> = cycle
                .iter()
                .map(|e| {
                    let via = e.via.as_deref().map(|v| format!(" (via {v})")).unwrap_or_default();
                    format!("{} -> {} at {}{}", e.from, e.to, e.site, via)
                })
                .collect();
            let first_site = cycle.first().map(|e| e.site.clone()).unwrap_or_default();
            let (path, line) = split_site(&first_site);
            self.findings.push(Finding::new(
                LOCK_ORDER,
                &path,
                line,
                format!("lock-acquisition cycle: {}", steps.join("; ")),
            ));
        }
        rules::panic_reach::check(&self.ws, &self.policy, &mut self.findings);
        self.apply_unused_suppressions();
        self.findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
        });
        self.findings.dedup();
        let stats = self.build_stats();
        Report { findings: self.findings, lock_graph: self.lock_graph, stats }
    }

    fn apply_unsafe_pin(&mut self) {
        let Some(pin) = self.policy.unsafe_pin.clone() else {
            return;
        };
        for site in &self.unsafe_sites {
            if !pin.files.iter().any(|f| f == &site.path) {
                self.findings.push(Finding::new(
                    UNSAFE_COUNT,
                    &site.path,
                    site.line,
                    format!(
                        "`unsafe` outside the pinned file(s) [{}]; the workspace unsafe \
                         surface is pinned — widening it must edit the lint Policy",
                        pin.files.join(", ")
                    ),
                ));
            }
        }
        if self.unsafe_sites.len() != pin.count {
            let line = self.unsafe_sites.first().map(|s| s.line).unwrap_or(0);
            let path = self
                .unsafe_sites
                .first()
                .map(|s| s.path.clone())
                .unwrap_or_else(|| pin.files.first().cloned().unwrap_or_default());
            self.findings.push(Finding::new(
                UNSAFE_COUNT,
                &path,
                line,
                format!(
                    "workspace contains {} `unsafe` keyword(s), pinned to exactly {}; \
                     changing the unsafe surface must edit the lint Policy",
                    self.unsafe_sites.len(),
                    pin.count
                ),
            ));
        }
    }

    /// An annotation nothing consulted is itself a finding: stale
    /// suppressions would otherwise silently shadow future regressions at
    /// their line. A `lint:allow(unused-suppression)` directly above an
    /// annotation shields it (for annotations that are load-bearing only
    /// on some platforms or feature sets); a shield that shields nothing
    /// is, in turn, unused.
    fn apply_unused_suppressions(&mut self) {
        let records = std::mem::take(&mut self.sup_records);
        for (path, rec) in records.iter().filter(|(_, r)| r.known && r.rule != UNUSED_SUPPRESSION) {
            if self.used.contains(&(path.clone(), rec.line, rec.rule.clone())) {
                continue;
            }
            match rec.shield {
                Some(shield) => {
                    self.used.insert((path.clone(), shield, UNUSED_SUPPRESSION.to_string()));
                }
                None => {
                    self.findings.push(Finding::new(
                        UNUSED_SUPPRESSION,
                        path,
                        rec.line,
                        format!(
                            "lint:allow({}) suppresses nothing — remove the annotation, or fix \
                             it if it was meant for a different line or rule",
                            rec.rule
                        ),
                    ));
                }
            }
        }
        for (path, rec) in records.iter().filter(|(_, r)| r.known && r.rule == UNUSED_SUPPRESSION) {
            if !self.used.contains(&(path.clone(), rec.line, rec.rule.clone())) {
                self.findings.push(Finding::new(
                    UNUSED_SUPPRESSION,
                    path,
                    rec.line,
                    "lint:allow(unused-suppression) shields no unused annotation — remove it"
                        .to_string(),
                ));
            }
        }
        self.sup_records = records;
    }

    fn build_stats(&self) -> Vec<RuleStats> {
        KNOWN_RULES
            .iter()
            .map(|&rule| RuleStats {
                rule,
                findings: self.findings.iter().filter(|f| f.rule == rule).count(),
                suppressions_used: self.used.iter().filter(|(_, _, r)| r == rule).count(),
            })
            .collect()
    }
}

fn split_site(site: &str) -> (String, u32) {
    match site.rsplit_once(':') {
        Some((path, line)) => (path.to_string(), line.parse().unwrap_or(0)),
        None => (site.to_string(), 0),
    }
}
