//! The `tcim-lint` CLI: check the workspace (or specific files) against
//! the project invariant rules and exit non-zero on violations.
//!
//! ```text
//! tcim_lint --workspace [--root DIR] [--lock-graph] [--emit MODE] [--stats]
//! tcim_lint [--root DIR] [--emit MODE] [--stats] FILE...
//! tcim_lint --list-rules
//! ```
//!
//! `--emit` selects the stdout format: `text` (default, one finding per
//! line) or `github` (GitHub Actions `::error` annotations). Output is
//! byte-identical at any `RAYON_NUM_THREADS`: files are analyzed in
//! parallel but merged in sorted path order.
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rayon::prelude::*;
use tcim_lint::walk::rust_sources;
use tcim_lint::{analyze_file, emit, Analyzer, FileOutcome, Policy, Report, KNOWN_RULES};

/// What `--emit` writes to stdout.
#[derive(Clone, Copy)]
enum Emit {
    Text,
    Github,
}

struct Args {
    workspace: bool,
    root: PathBuf,
    lock_graph: bool,
    list_rules: bool,
    emit: Emit,
    stats: bool,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        lock_graph: false,
        list_rules: false,
        emit: Emit::Text,
        stats: false,
        files: Vec::new(),
    };
    let mut it = env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--lock-graph" => args.lock_graph = true,
            "--list-rules" => args.list_rules = true,
            "--stats" => args.stats = true,
            "--emit" => {
                let mode = it.next().ok_or("--emit needs a mode: text or github")?;
                args.emit = match mode.as_str() {
                    "text" => Emit::Text,
                    "github" => Emit::Github,
                    other => return Err(format!("unknown emit mode '{other}'")),
                };
            }
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory argument")?;
                args.root = PathBuf::from(dir);
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag '{flag}'"));
            }
            file => args.files.push(file.to_string()),
        }
    }
    if !args.list_rules && !args.workspace && args.files.is_empty() {
        return Err("nothing to check: pass --workspace or one or more files".to_string());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "tcim-lint: workspace invariant checker (see docs/LINTS.md)\n\
         \n\
         usage:\n\
         \x20 tcim_lint --workspace [--root DIR] [--lock-graph] [--emit MODE] [--stats]\n\
         \x20 tcim_lint [--root DIR] [--emit MODE] [--stats] FILE...\n\
         \x20 tcim_lint --list-rules\n\
         \n\
         emit modes: text (default), github\n\
         exit codes: 0 clean, 1 violations, 2 usage/io error"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            usage();
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in KNOWN_RULES {
            println!("{rule}");
        }
        return ExitCode::SUCCESS;
    }

    // The unsafe-count pin is a workspace-total invariant: it is meaningful
    // only when the whole tree is in view, so explicit-file runs skip it.
    let policy = if args.workspace {
        Policy::default()
    } else {
        Policy { unsafe_pin: None, ..Policy::default() }
    };
    let mut analyzer = Analyzer::new(policy.clone());
    let mut checked = 0usize;

    if args.workspace {
        let files = match rust_sources(&args.root) {
            Ok(files) => files,
            Err(err) => {
                eprintln!("error: walking {}: {err}", args.root.display());
                return ExitCode::from(2);
            }
        };
        // Analyze in parallel (analyze_file is pure), then absorb in the
        // walker's sorted path order so every downstream artifact — finding
        // order, witness paths, the lock graph — is byte-identical at any
        // thread count.
        let outcomes: Vec<Result<FileOutcome, String>> = files
            .par_iter()
            .map(|(rel, abs)| {
                fs::read_to_string(abs)
                    .map(|source| analyze_file(&policy, rel, &source))
                    .map_err(|err| format!("reading {}: {err}", abs.display()))
            })
            .collect();
        for outcome in outcomes {
            match outcome {
                Ok(outcome) => {
                    analyzer.absorb(outcome);
                    checked += 1;
                }
                Err(err) => {
                    eprintln!("error: {err}");
                    return ExitCode::from(2);
                }
            }
        }
    } else {
        for file in &args.files {
            let abs = args.root.join(file);
            let rel = relative_key(&args.root, file, &abs);
            match fs::read_to_string(&abs) {
                Ok(source) => {
                    analyzer.check_file(&rel, &source);
                    checked += 1;
                }
                Err(err) => {
                    eprintln!("error: reading {}: {err}", abs.display());
                    return ExitCode::from(2);
                }
            }
        }
    }

    let report = analyzer.finish();

    if args.lock_graph {
        print_lock_graph(&report);
    }

    match args.emit {
        Emit::Text => {
            for finding in &report.findings {
                println!("{finding}");
            }
        }
        Emit::Github => {
            print!("{}", emit::render_github(&report.findings));
        }
    }
    if args.stats {
        eprint!("{}", emit::render_stats(&report));
    }
    if report.findings.is_empty() {
        eprintln!("tcim-lint: {checked} file(s) clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("tcim-lint: {} violation(s) in {checked} file(s)", report.findings.len());
        ExitCode::FAILURE
    }
}

fn print_lock_graph(report: &Report) {
    if report.lock_graph.is_empty() {
        eprintln!("lock graph: no nested acquisitions");
    } else {
        eprintln!("lock graph (held -> acquired):");
        for edge in report.lock_graph.edges() {
            match &edge.via {
                Some(via) => {
                    eprintln!("  {} -> {}  ({} via {})", edge.from, edge.to, edge.site, via)
                }
                None => eprintln!("  {} -> {}  ({})", edge.from, edge.to, edge.site),
            }
        }
    }
}

/// The policy key for an explicitly-passed file: its path relative to the
/// root if it is inside the root, otherwise as given (normalized to `/`).
fn relative_key(root: &Path, as_given: &str, abs: &Path) -> String {
    let canonical_root = root.canonicalize().unwrap_or_else(|_| root.to_path_buf());
    let canonical = abs.canonicalize().unwrap_or_else(|_| abs.to_path_buf());
    match canonical.strip_prefix(&canonical_root) {
        Ok(rel) => rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/"),
        Err(_) => as_given.replace('\\', "/"),
    }
}
