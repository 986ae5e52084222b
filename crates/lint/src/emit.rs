//! Output renderers for the CLI: GitHub Actions `::error` annotations and
//! the `--stats` table.
//!
//! Every renderer is a pure function of the [`Report`], so output is
//! byte-identical for identical findings regardless of how many threads
//! produced them.

use crate::{Finding, Report};

/// GitHub Actions workflow-command annotations for `--emit github`: one
/// `::error file=…,line=…` line per finding, so violations surface inline
/// on the PR diff.
pub fn render_github(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "::error file={},line={},title=tcim-lint {}::{}\n",
            f.path,
            f.line,
            f.rule,
            escape_workflow_command(&f.message)
        ));
    }
    out
}

/// The `--stats` table: one row per rule with finding and used-suppression
/// counts, zero rows included (the absence of findings is the signal).
pub fn render_stats(report: &Report) -> String {
    let width = report.stats.iter().map(|s| s.rule.len()).max().unwrap_or(0);
    let mut out = String::from("rule");
    out.push_str(&" ".repeat(width.saturating_sub(4) + 2));
    out.push_str("findings  suppressions-used\n");
    for s in &report.stats {
        out.push_str(&format!(
            "{:<width$}  {:>8}  {:>17}\n",
            s.rule,
            s.findings,
            s.suppressions_used,
            width = width
        ));
    }
    out
}

/// The data portion of a workflow command: `%`, CR and LF must be
/// percent-encoded or the message truncates at the first newline.
fn escape_workflow_command(message: &str) -> String {
    message.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::LockGraph;
    use crate::RuleStats;

    fn report_with(findings: Vec<Finding>) -> Report {
        Report { findings, lock_graph: LockGraph::default(), stats: Vec::new() }
    }

    #[test]
    fn github_annotations_escape_newlines() {
        let report = report_with(vec![Finding::new(
            crate::DEBUG_FORMAT,
            "a.rs",
            3,
            "line one\nline two".into(),
        )]);
        let text = render_github(&report.findings);
        assert_eq!(
            text,
            "::error file=a.rs,line=3,title=tcim-lint debug-format::line one%0Aline two\n"
        );
    }

    #[test]
    fn stats_table_lists_every_rule() {
        let report = Report {
            findings: Vec::new(),
            lock_graph: LockGraph::default(),
            stats: vec![
                RuleStats { rule: crate::DEBUG_FORMAT, findings: 0, suppressions_used: 3 },
                RuleStats { rule: crate::LOCK_ORDER, findings: 1, suppressions_used: 0 },
            ],
        };
        let table = render_stats(&report);
        assert!(table.contains("debug-format"));
        assert!(table.contains("lock-order"));
        assert!(table.lines().count() == 3, "header + one row per rule");
    }
}
