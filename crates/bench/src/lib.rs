//! Experiment plumbing shared by the figure-regeneration binaries.
//!
//! Every binary in `src/bin` regenerates one figure (or table) of the paper:
//! it builds the relevant dataset, runs the relevant solvers, prints an
//! aligned table with the same rows/series the paper reports and writes a CSV
//! copy under `target/experiments/`. Absolute numbers differ from the paper
//! (different random draws, surrogate datasets), but the qualitative shape —
//! who wins, by roughly what factor, where the crossovers fall — is the
//! reproduction target.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tcim_core::{solve, ConcaveWrapper, FairnessMode, ProblemSpec, SolverReport};
use tcim_diffusion::{Deadline, WorldEstimator, WorldsConfig};
use tcim_graph::{Graph, NodeId};

/// Command-line arguments understood by every experiment binary.
///
/// ```text
/// --samples N     override the number of live-edge worlds
/// --seed N        RNG seed for dataset generation and estimation
/// --part a|b|c    run only one panel of a multi-panel figure
/// --budget N      override the seed budget
/// --scale F       scale factor for the Instagram surrogate
/// --out DIR       directory for CSV output (default target/experiments)
/// --full          use the paper's full sample counts instead of quick ones
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    /// Optional override of the Monte-Carlo sample / world count.
    pub samples: Option<usize>,
    /// RNG seed shared by dataset generation and estimation.
    pub seed: u64,
    /// Optional figure panel selector (`a`, `b`, `c`).
    pub part: Option<String>,
    /// Optional override of the seed budget.
    pub budget: Option<usize>,
    /// Scale factor for the Instagram surrogate.
    pub scale: Option<f64>,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Use the paper's full sample counts (slower).
    pub full: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            samples: None,
            seed: 42,
            part: None,
            budget: None,
            scale: None,
            out_dir: PathBuf::from("target/experiments"),
            full: false,
        }
    }
}

impl Args {
    /// Parses `std::env::args()`. Unknown flags are ignored with a warning so
    /// the binaries stay forgiving in scripts, but a *malformed value* for a
    /// known flag exits with a message naming the bad input (it used to be
    /// silently dropped, so `--samples 10k` would quietly run the default).
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit iterator of arguments.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag and the offending value when a
    /// value is missing or fails to parse.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        fn value<I: Iterator<Item = String>>(iter: &mut I, flag: &str) -> Result<String, String> {
            iter.next().ok_or_else(|| format!("missing value for {flag}"))
        }
        fn parsed_value<T: std::str::FromStr, I: Iterator<Item = String>>(
            iter: &mut I,
            flag: &str,
            expected: &str,
        ) -> Result<T, String> {
            let raw = value(iter, flag)?;
            raw.parse()
                .map_err(|_| format!("invalid value '{raw}' for {flag} (expected {expected})"))
        }

        let mut parsed = Args::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--samples" => {
                    parsed.samples =
                        Some(parsed_value(&mut iter, "--samples", "a positive integer")?);
                }
                "--seed" => parsed.seed = parsed_value(&mut iter, "--seed", "an integer")?,
                "--part" => parsed.part = Some(value(&mut iter, "--part")?),
                "--budget" => {
                    parsed.budget =
                        Some(parsed_value(&mut iter, "--budget", "a positive integer")?);
                }
                "--scale" => parsed.scale = Some(parsed_value(&mut iter, "--scale", "a number")?),
                "--out" => parsed.out_dir = PathBuf::from(value(&mut iter, "--out")?),
                "--full" => parsed.full = true,
                other => eprintln!("warning: ignoring unknown flag '{other}'"),
            }
        }
        Ok(parsed)
    }

    /// Returns `true` if the given panel should run (no `--part` = run all).
    pub fn runs_part(&self, part: &str) -> bool {
        self.part.as_deref().is_none_or(|p| p.eq_ignore_ascii_case(part))
    }

    /// Chooses a sample count: explicit `--samples` wins, then the paper's
    /// full count under `--full`, otherwise the quick default.
    pub fn sample_count(&self, quick: usize, full: usize) -> usize {
        self.samples.unwrap_or(if self.full { full } else { quick })
    }
}

/// A printable experiment table that can also be exported as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title, printed above the header row.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows, one `Vec<String>` per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(c.len()))
                })
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV into `dir/<name>.csv` and returns the path.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut contents = String::new();
        let _ = writeln!(contents, "{}", self.headers.join(","));
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            let _ = writeln!(contents, "{}", escaped.join(","));
        }
        std::fs::write(&path, contents)?;
        Ok(path)
    }
}

pub mod figures;
pub mod regression;

/// Output of one figure run: `(csv_name, table)` pairs.
pub type FigureOutput = Vec<(String, Table)>;

/// Prints every table of a figure run and writes the CSV copies into the
/// output directory from `args`.
pub fn emit(args: &Args, outputs: &FigureOutput) {
    for (name, table) in outputs {
        table.print();
        println!();
        match table.write_csv(&args.out_dir, name) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("warning: could not write {name}.csv: {err}"),
        }
        println!();
    }
}

/// Formats a deadline for table cells (`inf` for unbounded).
pub fn deadline_label(deadline: Deadline) -> String {
    deadline.to_string()
}

/// Formats a float with three decimals.
pub fn fmt3(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats a float with four decimals (used by the sparse Instagram tables).
pub fn fmt4(value: f64) -> String {
    format!("{value:.4}")
}

/// Builds a live-edge-world oracle over `graph`.
pub fn build_oracle(
    graph: Arc<Graph>,
    deadline: Deadline,
    samples: usize,
    seed: u64,
) -> WorldEstimator {
    WorldEstimator::new(graph, deadline, &WorldsConfig { num_worlds: samples, seed })
        .expect("world estimator construction cannot fail for positive sample counts")
}

/// Solves P1 and P4 (with the given wrappers) under one budget and returns
/// the reports labelled like the paper's figures. Specs all the way down:
/// one base spec, one fairness variant per wrapper.
pub fn run_budget_suite(
    oracle: &WorldEstimator,
    budget: usize,
    candidates: Option<Vec<NodeId>>,
    wrappers: &[ConcaveWrapper],
) -> Vec<SolverReport> {
    let mut base = ProblemSpec::budget(budget).expect("figure budgets are positive");
    if let Some(pool) = candidates {
        base = base.with_candidates(pool).expect("figure candidate pools are non-empty");
    }
    let mut reports = vec![solve(oracle, &base).expect("P1 solve failed")];
    for &wrapper in wrappers {
        let fair = base.clone().with_fairness_wrapper(wrapper).expect("figure wrappers are valid");
        reports.push(solve(oracle, &fair).expect("P4 solve failed"));
    }
    reports
}

/// Solves P2 and P6 under one quota and returns `(unfair, fair)`; each
/// report carries its [`tcim_core::CoverOutcome`].
pub fn run_cover_suite(
    oracle: &WorldEstimator,
    quota: f64,
    max_seeds: Option<usize>,
    candidates: Option<Vec<NodeId>>,
) -> (SolverReport, SolverReport) {
    let mut base = ProblemSpec::cover(quota).expect("figure quotas lie in [0, 1]");
    if let Some(cap) = max_seeds {
        base = base.with_max_seeds(cap).expect("cover objective set above");
    }
    if let Some(pool) = candidates {
        base = base.with_candidates(pool).expect("figure candidate pools are non-empty");
    }
    let fair_spec = base
        .clone()
        .with_fairness(FairnessMode::GroupQuota { group: None })
        .expect("group quota applies to covers");
    let unfair = solve(oracle, &base).expect("P2 solve failed");
    let fair = solve(oracle, &fair_spec).expect("P6 solve failed");
    (unfair, fair)
}

/// Summary of a budget-problem report: total fraction, per-group normalized
/// fractions and disparity.
pub fn budget_summary(report: &SolverReport) -> (f64, Vec<f64>, f64) {
    let fairness = report.fairness();
    (fairness.total_fraction, fairness.normalized_utilities.clone(), fairness.disparity)
}

/// Returns the indices of the two groups with the largest pairwise disparity
/// (the paper reports only the most disparate pair on the 4/5-group
/// datasets). Falls back to (0, 1) when fewer than two non-empty groups.
pub fn most_disparate_pair(report: &SolverReport) -> (usize, usize) {
    report.fairness().most_disparate_pair().map(|(a, b)| (a.index(), b.index())).unwrap_or((0, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_all_flags_and_ignore_unknown_ones() {
        let args = Args::parse_from(
            [
                "--samples",
                "50",
                "--seed",
                "9",
                "--part",
                "B",
                "--budget",
                "12",
                "--scale",
                "0.05",
                "--out",
                "/tmp/exp",
                "--full",
                "--bogus",
                "x",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(args.samples, Some(50));
        assert_eq!(args.seed, 9);
        assert!(args.runs_part("b"));
        assert!(!args.runs_part("a"));
        assert_eq!(args.budget, Some(12));
        assert_eq!(args.scale, Some(0.05));
        assert_eq!(args.out_dir, PathBuf::from("/tmp/exp"));
        assert!(args.full);
        assert_eq!(args.sample_count(10, 100), 50);

        let defaults = Args::parse_from(std::iter::empty::<String>()).unwrap();
        assert!(defaults.runs_part("a"));
        assert_eq!(defaults.sample_count(10, 100), 10);
        let full = Args { full: true, ..Args::default() };
        assert_eq!(full.sample_count(10, 100), 100);
    }

    #[test]
    fn malformed_flag_values_error_naming_the_input() {
        let args = |list: &[&str]| Args::parse_from(list.iter().map(|s| s.to_string()));
        let err = args(&["--samples", "10k"]).unwrap_err();
        assert!(err.contains("--samples") && err.contains("10k"), "got: {err}");
        let err = args(&["--seed"]).unwrap_err();
        assert!(err.contains("missing value for --seed"), "got: {err}");
        let err = args(&["--scale", "big"]).unwrap_err();
        assert!(err.contains("'big'"), "got: {err}");
        let err = args(&["--budget", "-3"]).unwrap_err();
        assert!(err.contains("-3"), "got: {err}");
    }

    #[test]
    fn tables_render_and_write_csv() {
        let mut table = Table::new("demo", &["col_a", "b"]);
        table.push_row(vec!["1".into(), "with,comma".into()]);
        table.push_row(vec!["22".into(), "plain".into()]);
        let rendered = table.render();
        assert!(rendered.contains("== demo =="));
        assert!(rendered.contains("col_a"));

        let dir = std::env::temp_dir().join("fairtcim-bench-tests");
        let path = table.write_csv(&dir, "demo").unwrap();
        let csv = std::fs::read_to_string(path).unwrap();
        assert!(csv.starts_with("col_a,b\n"));
        assert!(csv.contains("\"with,comma\""));
    }

    #[test]
    fn suites_run_end_to_end_on_a_small_graph() {
        let graph = Arc::new(
            tcim_datasets::SyntheticConfig {
                num_nodes: 80,
                ..tcim_datasets::SyntheticConfig::default()
            }
            .with_edge_probability(0.2)
            .build()
            .unwrap(),
        );
        let oracle = build_oracle(Arc::clone(&graph), Deadline::finite(5), 32, 1);
        let reports = run_budget_suite(&oracle, 3, None, &[ConcaveWrapper::Log]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].label, "P1");
        assert!(reports[1].label.contains("P4"));
        let (total, groups, disparity) = budget_summary(&reports[0]);
        assert!(total > 0.0 && !groups.is_empty() && disparity >= 0.0);
        let pair = most_disparate_pair(&reports[0]);
        assert!(pair.0 < 2 && pair.1 < 2);

        let (unfair, fair) = run_cover_suite(&oracle, 0.1, Some(40), None);
        assert!(unfair.num_seeds() >= 1);
        assert!(fair.num_seeds() >= unfair.num_seeds());
        assert_eq!(deadline_label(Deadline::finite(5)), "5");
        assert_eq!(fmt3(0.12345), "0.123");
        assert_eq!(fmt4(0.12345), "0.1235");
    }
}
