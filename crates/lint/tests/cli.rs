//! CLI contract tests: exit codes, `file:line` reporting, suppression
//! syntax through the binary, and the workspace-clean integration check.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tcim_lint")
}

/// A library file whose line 2 Debug-formats inside a fingerprint (a
/// `debug-format` violation).
const DEBUG_FORMAT_LIB: &str =
    "pub fn fingerprint(v: &[u32]) -> String {\n    format!(\"{v:?}\")\n}\n";

/// A unique scratch workspace for one test, removed on drop.
struct Tree {
    root: PathBuf,
}

impl Tree {
    fn new(name: &str) -> Tree {
        let root = std::env::temp_dir().join(format!("tcim-lint-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create scratch root");
        Tree { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("rel paths have parents")).expect("mkdir");
        fs::write(path, contents).expect("write fixture file");
    }

    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(bin());
        cmd.arg("--root").arg(&self.root).args(args);
        cmd
    }

    fn run(&self, args: &[&str]) -> Output {
        self.command(args).output().expect("spawn tcim_lint")
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("exit code")
}

#[test]
fn clean_tree_exits_zero() {
    let tree = Tree::new("clean");
    tree.write("crates/x/src/lib.rs", "pub fn id(v: u32) -> u32 { v }\n");
    let out = tree.run(&["--workspace"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn violations_exit_one_and_name_file_and_line() {
    let tree = Tree::new("violation");
    tree.write("crates/x/src/lib.rs", DEBUG_FORMAT_LIB);
    let out = tree.run(&["--workspace"]);
    assert_eq!(code(&out), 1);
    let text = stdout(&out);
    assert!(text.contains("crates/x/src/lib.rs:2"), "must name file:line, got: {text}");
    assert!(text.contains("[debug-format]"), "must name the rule, got: {text}");
}

#[test]
fn single_file_mode_checks_only_the_named_file() {
    let tree = Tree::new("single");
    tree.write("crates/x/src/lib.rs", DEBUG_FORMAT_LIB);
    tree.write("crates/y/src/lib.rs", DEBUG_FORMAT_LIB);
    let out = tree.run(&["crates/x/src/lib.rs"]);
    assert_eq!(code(&out), 1);
    let text = stdout(&out);
    assert!(text.contains("crates/x/src/lib.rs:2"));
    assert!(!text.contains("crates/y"), "unrequested file leaked into: {text}");
}

#[test]
fn suppression_with_reason_silences_the_site() {
    let tree = Tree::new("suppressed");
    tree.write(
        "crates/x/src/lib.rs",
        "pub fn fingerprint(v: u32) -> String {\n    \
         // lint:allow(debug-format): integer Debug output is its Display output\n    \
         format!(\"{v:?}\")\n}\n",
    );
    let out = tree.run(&["--workspace"]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
}

#[test]
fn suppression_without_reason_is_rejected() {
    let tree = Tree::new("no-reason");
    tree.write(
        "crates/x/src/lib.rs",
        "pub fn fingerprint(v: u32) -> String {\n    \
         // lint:allow(debug-format)\n    \
         format!(\"{v:?}\")\n}\n",
    );
    let out = tree.run(&["--workspace"]);
    assert_eq!(code(&out), 1);
    let text = stdout(&out);
    assert!(text.contains("[suppression]"), "must flag the annotation, got: {text}");
    assert!(
        text.contains("[debug-format]"),
        "a malformed annotation must not suppress, got: {text}"
    );
}

#[test]
fn suppression_with_unknown_rule_is_rejected() {
    let tree = Tree::new("bad-rule");
    tree.write(
        "crates/x/src/lib.rs",
        "pub fn f(v: u32) -> u32 {\n    \
         // lint:allow(debug-formats): typo in the rule name\n    \
         v\n}\n",
    );
    let out = tree.run(&["--workspace"]);
    assert_eq!(code(&out), 1);
    assert!(stdout(&out).contains("unknown rule 'debug-formats'"), "got: {}", stdout(&out));
}

#[test]
fn list_rules_names_every_family() {
    let out = Command::new(bin()).arg("--list-rules").output().expect("spawn");
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    for rule in tcim_lint::KNOWN_RULES {
        assert!(text.lines().any(|l| l == *rule), "missing rule {rule} in: {text}");
    }
}

#[test]
fn no_input_is_a_usage_error() {
    let out = Command::new(bin()).output().expect("spawn");
    assert_eq!(code(&out), 2);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = Command::new(bin()).arg("--frobnicate").output().expect("spawn");
    assert_eq!(code(&out), 2);
}

#[test]
fn missing_file_is_an_io_error() {
    let tree = Tree::new("missing");
    let out = tree.run(&["crates/none/src/lib.rs"]);
    assert_eq!(code(&out), 2);
}

/// A scratch tree with one violation, for output-format tests.
fn violating_tree(name: &str) -> Tree {
    let tree = Tree::new(name);
    tree.write("crates/x/src/lib.rs", DEBUG_FORMAT_LIB);
    tree
}

#[test]
fn emit_github_writes_error_annotations() {
    let tree = violating_tree("emit-github");
    let out = tree.run(&["--workspace", "--emit", "github"]);
    assert_eq!(code(&out), 1);
    let text = stdout(&out);
    assert!(
        text.starts_with("::error file=crates/x/src/lib.rs,line=2,title=tcim-lint debug-format::"),
        "got: {text}"
    );
}

#[test]
fn emit_unknown_mode_is_a_usage_error() {
    let tree = Tree::new("emit-bad");
    let out = tree.run(&["--workspace", "--emit", "yaml"]);
    assert_eq!(code(&out), 2);
}

#[test]
fn stats_table_lands_on_stderr() {
    let tree = violating_tree("stats");
    let out = tree.run(&["--workspace", "--stats"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("findings  suppressions-used"), "stats header on stderr, got: {err}");
    let row = err.lines().find(|l| l.starts_with("debug-format")).unwrap_or_default();
    assert_eq!(
        row.split_whitespace().collect::<Vec<_>>(),
        ["debug-format", "1", "0"],
        "got: {err}"
    );
}

#[test]
fn output_is_byte_identical_across_thread_counts() {
    let tree = Tree::new("threads");
    // Violations across several files so the parallel scan has real work
    // whose merge order could drift if absorption were racy.
    for i in 0..6 {
        tree.write(&format!("crates/x/src/m{i}.rs"), DEBUG_FORMAT_LIB);
    }
    let run = |threads: &str| {
        tree.command(&["--workspace"])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawn tcim_lint")
    };
    let (one, eight) = (run("1"), run("8"));
    assert_eq!(code(&one), 1);
    assert_eq!(code(&eight), 1);
    assert_eq!(one.stdout, eight.stdout, "stdout must not depend on thread count");
}

#[test]
fn unused_suppression_is_flagged_through_the_binary() {
    let tree = Tree::new("unused-sup");
    tree.write(
        "crates/x/src/lib.rs",
        "// lint:allow(debug-format): left over from deleted code\npub fn id(v: u32) -> u32 { v }\n",
    );
    let out = tree.run(&["--workspace"]);
    assert_eq!(code(&out), 1);
    let text = stdout(&out);
    assert!(text.contains("[unused-suppression]"), "got: {text}");
    assert!(text.contains("crates/x/src/lib.rs:1"), "got: {text}");
}

/// The workspace root (CARGO_MANIFEST_DIR = crates/lint).
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn the_real_workspace_is_clean() {
    // The zero-violation baseline is the PR's contract: the tool must exit
    // 0 on the tree it ships in.
    let root = workspace_root();
    let out = Command::new(bin())
        .arg("--root")
        .arg(root)
        .arg("--workspace")
        .output()
        .expect("spawn tcim_lint");
    assert_eq!(
        code(&out),
        0,
        "workspace must be lint-clean.\nstdout:\n{}\nstderr:\n{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn clippy_keeps_the_rules_it_took_over() {
    // Panics, stdout, wall clocks, hash containers and undocumented `unsafe`
    // are clippy's, and `unsafe` itself is rustc's (docs/LINTS.md). Nothing
    // else fails if a crate root drops its deny or forbid or a clippy.toml
    // loses an entry, so pin the configuration here.
    let root = workspace_root();
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
    };
    let library_roots = [
        "crates/graph/src/lib.rs",
        "crates/diffusion/src/lib.rs",
        "crates/submodular/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/datasets/src/lib.rs",
        "crates/service/src/lib.rs",
        "crates/lint/src/lib.rs",
        "src/lib.rs",
    ];
    let denied = [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "print_stdout",
    ];
    for lib in library_roots {
        let source = read(lib);
        let forbids_unsafe = source.lines().any(|l| l == "#![forbid(unsafe_code)]");
        assert_eq!(
            forbids_unsafe,
            lib != "crates/service/src/lib.rs",
            "every library root but tcim-service's must #![forbid(unsafe_code)]: {lib}"
        );
        let deny = source
            .split_once("\n#![deny(")
            .and_then(|(_, rest)| rest.split_once(")]"))
            .map(|(list, _)| list)
            .unwrap_or_else(|| panic!("{lib} has no crate-level #![deny(…)]"));
        for lint in denied {
            assert!(
                deny.split(',').any(|l| l.trim() == format!("clippy::{lint}")),
                "{lib} must deny clippy::{lint}"
            );
        }
    }
    let config = read("clippy.toml");
    for line in [
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        "allow-panic-in-tests = true",
        "allow-print-in-tests = true",
    ] {
        assert!(config.lines().any(|l| l.trim() == line), "clippy.toml must set {line}");
    }
    for method in ["std::time::Instant::now", "std::time::SystemTime::now", "std::io::stdout"] {
        assert!(
            config.contains(&format!("path = \"{method}\"")),
            "clippy.toml must disallow {method}"
        );
    }
    assert!(
        read("crates/bench/src/lib.rs").lines().any(|l| l == "#![forbid(unsafe_code)]"),
        "crates/bench/src/lib.rs must #![forbid(unsafe_code)]"
    );
    // crates/bench's own clippy.toml replaces the root one, so it repeats
    // the hash-container ban.
    for file in ["clippy.toml", "crates/bench/clippy.toml"] {
        let config = read(file);
        for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
            assert!(config.contains(&format!("path = \"{ty}\"")), "{file} must disallow {ty}");
        }
    }
    assert!(
        read("Cargo.toml").lines().any(|l| l.trim() == "undocumented_unsafe_blocks = \"deny\""),
        "the workspace lints must deny clippy::undocumented_unsafe_blocks"
    );
    // The one `unsafe` block (server.rs's signal FFI) carries the one
    // allowance, as an `#[expect]` that fails once the block is gone.
    let lint = "unsafe_code";
    let (allow, expect) = (format!("allow({lint}"), format!("expect({lint}"));
    let mut expects = Vec::new();
    for (rel, abs) in tcim_lint::walk::rust_sources(root).expect("walk the workspace") {
        let source: String = fs::read_to_string(&abs)
            .unwrap_or_else(|e| panic!("reading {rel}: {e}"))
            .split_whitespace()
            .collect();
        assert!(!source.contains(&allow), "{rel} allows {lint}; narrow it to one #[expect]");
        expects.extend(std::iter::repeat_n(rel, source.matches(&expect).count()));
    }
    assert_eq!(expects, ["crates/service/src/server.rs"], "exactly one {lint} allowance");
}
