//! Fixture tests: every rule family must fire on its failing fixture and
//! stay quiet on its passing one. Fixtures are checked through the library
//! API under virtual workspace-relative paths, so each one lands in
//! exactly the scope the rule targets.

use std::fs;
use std::path::PathBuf;

use tcim_lint::{Analyzer, Finding, Policy};

fn fixture(family: &str, which: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(family)
        .join(format!("{which}.rs"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn check(family: &str, which: &str, virtual_path: &str) -> Vec<Finding> {
    let mut analyzer = Analyzer::new(Policy::default());
    analyzer.check_file(virtual_path, &fixture(family, which));
    analyzer.finish().findings
}

const LIB_PATH: &str = "crates/fake/src/lib.rs";

fn assert_fires(findings: &[Finding], rule: &str, at_least: usize) {
    let hits: Vec<&Finding> = findings.iter().filter(|f| f.rule == rule).collect();
    assert!(
        hits.len() >= at_least,
        "expected >= {at_least} `{rule}` finding(s), got {hits:?} out of {findings:?}"
    );
}

fn assert_clean(findings: &[Finding]) {
    assert!(findings.is_empty(), "expected a clean pass fixture, got {findings:?}");
}

#[test]
fn debug_format_fires_and_passes() {
    let fail = check("debug_format", "fail", LIB_PATH);
    assert_fires(&fail, "debug-format", 2);
    assert_clean(&check("debug_format", "pass", LIB_PATH));
}

#[test]
fn debug_format_critical_files_ban_debug_output_outright() {
    // In a protocol-writer file `{:?}` fails even outside any fingerprint
    // or canonical fn; the same source elsewhere is a log line.
    let source = "pub fn encode(v: &[u32]) -> String {\n    format!(\"{v:?}\")\n}\n";
    let mut analyzer = Analyzer::new(Policy::default());
    analyzer.check_file("crates/service/src/protocol.rs", source);
    analyzer.check_file(LIB_PATH, source);
    let findings = analyzer.finish().findings;
    assert_eq!(findings.len(), 1, "got {findings:?}");
    assert_eq!(findings[0].rule, "debug-format");
    assert_eq!(
        (findings[0].path.as_str(), findings[0].line),
        ("crates/service/src/protocol.rs", 2)
    );
}

#[test]
fn lock_order_fires_and_passes() {
    let fail = check("lock_order", "fail", "crates/service/src/fixture.rs");
    assert_fires(&fail, "lock-order", 1);
    let f = fail.iter().find(|f| f.rule == "lock-order").expect("checked above");
    assert!(f.message.contains("alpha") && f.message.contains("beta"), "cycle names locks: {f:?}");
    assert_clean(&check("lock_order", "pass", "crates/service/src/fixture.rs"));
}

#[test]
fn lock_order_only_applies_in_lock_scope() {
    // Outside crates/service the same source records no edges.
    let findings = check("lock_order", "fail", LIB_PATH);
    assert!(findings.is_empty(), "lock scope is crates/service only, got {findings:?}");
}

#[test]
fn lock_order_xfn_fires_and_passes() {
    // The opposite order only exists across a call boundary: neither fn
    // nests two acquisitions textually, so only the interprocedural
    // analysis can see the cycle.
    let fail = check("lock_order_xfn", "fail", "crates/service/src/fixture.rs");
    assert_fires(&fail, "lock-order", 1);
    let f = fail.iter().find(|f| f.rule == "lock-order").expect("checked above");
    assert!(f.message.contains("via"), "cycle message names the call edge: {f:?}");
    assert_clean(&check("lock_order_xfn", "pass", "crates/service/src/fixture.rs"));
}

#[test]
fn lock_order_attr_fires_and_passes() {
    // Every guard is bound under `#[expect(…)]`: if the attribute hid the
    // binding, no guard would be held and the cycle would pass silently.
    let fail = check("lock_order_attr", "fail", "crates/service/src/fixture.rs");
    assert_fires(&fail, "lock-order", 1);
    let f = fail.iter().find(|f| f.rule == "lock-order").expect("checked above");
    assert!(f.message.contains("alpha") && f.message.contains("beta"), "cycle names locks: {f:?}");
    assert_clean(&check("lock_order_attr", "pass", "crates/service/src/fixture.rs"));
}

#[test]
fn lock_order_sees_the_service_build_lock_nesting_over_shards() {
    // The real serving tier: while the per-key build lock is held, the
    // cache consults its shards through `lookup` and `store`. Losing those
    // edges means the analysis went blind to a guard binding.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let service = manifest.join("../service");
    let mut analyzer = Analyzer::new(Policy::default());
    let files = tcim_lint::walk::rust_sources(&service.join("src")).expect("walk crates/service");
    assert!(!files.is_empty());
    for (rel, path) in files {
        let source = fs::read_to_string(&path).expect("read service source");
        analyzer.check_file(&format!("crates/service/src/{rel}"), &source);
    }
    let report = analyzer.finish();
    let edges: Vec<String> = report
        .lock_graph
        .edges()
        .map(|e| format!("{} -> {} via {}", e.from, e.to, e.via.as_deref().unwrap_or("-")))
        .collect();
    for want in ["lock -> shard via lookup", "lock -> shard via store"] {
        assert!(edges.iter().any(|e| e == want), "missing `{want}` in {edges:?}");
    }
    assert!(!edges.iter().any(|e| e.starts_with("building ->")), "registry nests: {edges:?}");
    assert!(report.lock_graph.find_cycle().is_none(), "cycle in {edges:?}");
    assert!(report.findings.iter().all(|f| f.rule != "lock-order"), "{:?}", report.findings);
}

#[test]
fn seed_provenance_fires_and_passes() {
    let fail = check("seed_provenance", "fail", "crates/diffusion/src/fixture.rs");
    assert_fires(&fail, "seed-provenance", 2);
    assert_clean(&check("seed_provenance", "pass", "crates/diffusion/src/fixture.rs"));
}

#[test]
fn seed_churn_paths_require_per_item_derivation() {
    // Both failing constructions ARE seed-derived (the base rule is
    // satisfied); only the churn-path obligation flags them.
    let fail = check("seed_churn", "fail", "crates/diffusion/src/fixture.rs");
    assert_fires(&fail, "seed-provenance", 2);
    assert!(
        fail.iter().all(|f| f.message.contains("per-item index")),
        "churn findings must carry the per-item message, got {fail:?}"
    );
    assert!(
        fail.iter().any(|f| f.message.contains("refresh_sketches"))
            && fail.iter().any(|f| f.message.contains("patch_worlds")),
        "findings must name the churn function, got {fail:?}"
    );
    assert_clean(&check("seed_churn", "pass", "crates/diffusion/src/fixture.rs"));
}

#[test]
fn seed_churn_obligation_is_scoped_like_the_seed_rule() {
    let findings = check("seed_churn", "fail", LIB_PATH);
    assert!(findings.is_empty(), "seed scope is sampling code only, got {findings:?}");
}

#[test]
fn seed_provenance_only_applies_in_sampling_scope() {
    let findings = check("seed_provenance", "fail", LIB_PATH);
    assert!(findings.is_empty(), "seed scope is sampling code only, got {findings:?}");
}

#[test]
fn panic_reach_fires_and_passes() {
    // Clippy has no lint for the assert; only the call graph connects it
    // to the public entry point.
    let fail = check("panic_reach", "fail", "crates/core/src/fixture.rs");
    assert_fires(&fail, "panic-reachability", 1);
    let f = fail.iter().find(|f| f.rule == "panic-reachability").expect("checked above");
    assert!(
        f.message.contains("select_budgeted") && f.message.contains("remaining"),
        "message carries the witness path: {f:?}"
    );
    assert_clean(&check("panic_reach", "pass", "crates/core/src/fixture.rs"));
}

#[test]
fn panic_reach_only_applies_to_api_roots() {
    // The same source under a non-root crate has no public-API entry, so
    // the assert is nobody's release panic surface.
    let findings = check("panic_reach", "fail", "crates/service/src/fixture.rs");
    assert!(findings.is_empty(), "panic-reachability roots are core/facade, got {findings:?}");
}

#[test]
fn unused_suppression_fires_and_passes() {
    let fail = check("unused_suppression", "fail", LIB_PATH);
    assert_fires(&fail, "unused-suppression", 1);
    assert_clean(&check("unused_suppression", "pass", LIB_PATH));
}

#[test]
fn suppression_grammar_is_checked() {
    let fail = check("suppression", "fail", LIB_PATH);
    assert_fires(&fail, "suppression", 3);
    // The malformed annotations do not suppress: the formats still fire.
    assert_fires(&fail, "debug-format", 2);
    assert_clean(&check("suppression", "pass", LIB_PATH));
}

#[test]
fn findings_are_sorted_and_deduplicated() {
    let mut analyzer = Analyzer::new(Policy::default());
    analyzer.check_file("crates/b/src/lib.rs", &fixture("debug_format", "fail"));
    analyzer.check_file("crates/a/src/lib.rs", &fixture("debug_format", "fail"));
    let findings = analyzer.finish().findings;
    let keys: Vec<(String, u32)> = findings.iter().map(|f| (f.path.clone(), f.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must come out ordered by (path, line)");
    assert!(findings.iter().any(|f| f.path == "crates/a/src/lib.rs"));
    assert!(findings.iter().any(|f| f.path == "crates/b/src/lib.rs"));
}

#[test]
fn skip_prefixes_exempt_vendored_code() {
    let mut analyzer = Analyzer::new(Policy::default());
    analyzer.check_file("vendor/rand/src/lib.rs", &fixture("debug_format", "fail"));
    analyzer
        .check_file("crates/lint/fixtures/debug_format/fail.rs", &fixture("debug_format", "fail"));
    let findings = analyzer.finish().findings;
    assert!(findings.is_empty(), "skipped paths must produce no findings, got {findings:?}");
}

#[test]
fn retired_rule_names_are_unknown_outside_the_benchmark() {
    // The rules clippy and rustc took over are no longer suppression
    // targets: an old annotation is a `suppression` finding, except under
    // perfbench/ (its own cargo workspace, skipped, and not to be edited).
    for rule in ["wall-clock", "hash-iter", "unsafe-count"] {
        let source =
            format!("// lint:allow({rule}): a retired rule's old allowance\npub fn t() {{}}\n");
        let mut analyzer = Analyzer::new(Policy::default());
        analyzer.check_file("perfbench/bin/clock.rs", &source);
        analyzer.check_file(LIB_PATH, &source);
        let findings = analyzer.finish().findings;
        assert_eq!(findings.len(), 1, "got {findings:?}");
        assert_eq!((findings[0].rule, findings[0].path.as_str()), ("suppression", LIB_PATH));
        assert!(
            findings[0].message.contains(&format!("unknown rule '{rule}'")),
            "got {findings:?}"
        );
    }
}
