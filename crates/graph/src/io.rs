//! Plain-text graph IO.
//!
//! Two simple line-oriented formats are supported so that the experiment
//! harness can run against the genuine Rice-Facebook / Instagram /
//! Facebook-SNAP files when they are available, instead of the built-in
//! surrogates:
//!
//! * **Edge list** — one edge per line: `source target [probability]`.
//!   Lines starting with `#` or `%` are comments. Node ids are arbitrary
//!   non-negative integers; they are compacted to dense ids in file order.
//! * **Group file** — one node per line: `node group`. Nodes missing from the
//!   file fall into group 0.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::ids::{GroupId, NodeId};

/// Options controlling edge-list parsing.
#[derive(Debug, Clone)]
pub struct EdgeListOptions {
    /// Probability assigned to edges whose line omits the third column.
    pub default_probability: f64,
    /// Treat every line as an undirected tie (emit both directions).
    pub undirected: bool,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions { default_probability: 0.1, undirected: true }
    }
}

/// Result of parsing an edge list: the graph plus the mapping from original
/// file ids to dense [`NodeId`]s.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The parsed graph (all nodes initially in group 0 unless regrouped).
    pub graph: Graph,
    /// Maps original ids (as they appear in the file) to dense node ids.
    pub id_map: BTreeMap<u64, NodeId>,
}

/// Reads an edge list from any reader.
pub fn read_edge_list<R: Read>(reader: R, options: &EdgeListOptions) -> Result<LoadedGraph> {
    let reader = BufReader::new(reader);
    let mut id_map: BTreeMap<u64, NodeId> = BTreeMap::new();
    let mut builder = GraphBuilder::new();
    let intern = |raw: u64, builder: &mut GraphBuilder, map: &mut BTreeMap<u64, NodeId>| {
        *map.entry(raw).or_insert_with(|| builder.add_node(GroupId(0)))
    };

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let source: u64 = parse_field(parts.next(), line_no + 1, "source")?;
        let target: u64 = parse_field(parts.next(), line_no + 1, "target")?;
        let probability = match parts.next() {
            Some(tok) => tok.parse::<f64>().map_err(|_| GraphError::Parse {
                line: line_no + 1,
                message: format!("invalid probability '{tok}'"),
            })?,
            None => options.default_probability,
        };
        let s = intern(source, &mut builder, &mut id_map);
        let t = intern(target, &mut builder, &mut id_map);
        if options.undirected {
            builder.add_undirected_edge(s, t, probability)?;
        } else {
            builder.add_edge(s, t, probability)?;
        }
    }

    Ok(LoadedGraph { graph: builder.build()?, id_map })
}

fn parse_field(token: Option<&str>, line: usize, what: &str) -> Result<u64> {
    let token = token
        .ok_or_else(|| GraphError::Parse { line, message: format!("missing {what} column") })?;
    token
        .parse::<u64>()
        .map_err(|_| GraphError::Parse { line, message: format!("invalid {what} '{token}'") })
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(
    path: P,
    options: &EdgeListOptions,
) -> Result<LoadedGraph> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file, options)
}

/// Reads a group-assignment file (`node group` per line) and returns a dense
/// group vector for `loaded`, defaulting missing nodes to group 0.
///
/// Group labels are arbitrary non-negative integers and are compacted to dense
/// [`GroupId`]s in order of first appearance.
pub fn read_group_file<R: Read>(reader: R, loaded: &LoadedGraph) -> Result<Vec<GroupId>> {
    let reader = BufReader::new(reader);
    let mut groups = vec![GroupId(0); loaded.graph.num_nodes()];
    let mut label_map: BTreeMap<u64, GroupId> = BTreeMap::new();

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let raw_node: u64 = parse_field(parts.next(), line_no + 1, "node")?;
        let raw_group: u64 = parse_field(parts.next(), line_no + 1, "group")?;
        let next_id = label_map.len();
        let group = *label_map.entry(raw_group).or_insert_with(|| GroupId::from_index(next_id));
        if let Some(node) = loaded.id_map.get(&raw_node) {
            groups[node.index()] = group;
        }
    }
    Ok(groups)
}

/// Writes `graph` as an edge list (`source target probability` per line).
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> Result<()> {
    writeln!(
        writer,
        "# fairtcim edge list: {} nodes, {} directed edges",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for (s, t, p) in graph.edges() {
        writeln!(writer, "{} {} {}", s.0, t.0, p)?;
    }
    Ok(())
}

/// Writes the group assignment of `graph` (`node group` per line).
pub fn write_group_file<W: Write>(graph: &Graph, mut writer: W) -> Result<()> {
    for v in graph.nodes() {
        writeln!(writer, "{} {}", v.0, graph.group_of(v).0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# toy graph
0 1 0.5
1 2
% another comment
2 0 0.25
";

    #[test]
    fn parses_edge_list_with_defaults_and_comments() {
        let opts = EdgeListOptions { default_probability: 0.3, undirected: false };
        let loaded = read_edge_list(SAMPLE.as_bytes(), &opts).unwrap();
        assert_eq!(loaded.graph.num_nodes(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
        let probs: Vec<f64> = loaded.graph.edges().map(|(_, _, p)| p).collect();
        assert!(probs.contains(&0.3));
        assert!(probs.contains(&0.5));
    }

    #[test]
    fn undirected_option_duplicates_edges() {
        let loaded = read_edge_list(SAMPLE.as_bytes(), &EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 6);
    }

    #[test]
    fn sparse_original_ids_are_compacted() {
        let text = "1000 7\n7 42\n";
        let loaded = read_edge_list(text.as_bytes(), &EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_nodes(), 3);
        assert!(loaded.id_map.contains_key(&1000));
        assert!(loaded.id_map.contains_key(&42));
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let err = read_edge_list("0 x\n".as_bytes(), &EdgeListOptions::default()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        let err = read_edge_list("0\n".as_bytes(), &EdgeListOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn group_file_assigns_dense_group_ids() {
        let loaded = read_edge_list(SAMPLE.as_bytes(), &EdgeListOptions::default()).unwrap();
        let groups = read_group_file("0 10\n1 20\n2 10\n".as_bytes(), &loaded).unwrap();
        let g = loaded.graph.with_groups(groups).unwrap();
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.group_of(loaded.id_map[&0]), g.group_of(loaded.id_map[&2]));
        assert_ne!(g.group_of(loaded.id_map[&0]), g.group_of(loaded.id_map[&1]));
    }

    #[test]
    fn round_trip_write_then_read() {
        let loaded = read_edge_list(SAMPLE.as_bytes(), &EdgeListOptions::default()).unwrap();
        let mut edge_buf = Vec::new();
        write_edge_list(&loaded.graph, &mut edge_buf).unwrap();
        let mut group_buf = Vec::new();
        write_group_file(&loaded.graph, &mut group_buf).unwrap();

        let reread = read_edge_list(
            edge_buf.as_slice(),
            &EdgeListOptions { default_probability: 0.1, undirected: false },
        )
        .unwrap();
        assert_eq!(reread.graph.num_nodes(), loaded.graph.num_nodes());
        assert_eq!(reread.graph.num_edges(), loaded.graph.num_edges());
        let groups = read_group_file(group_buf.as_slice(), &reread).unwrap();
        assert_eq!(groups.len(), reread.graph.num_nodes());
    }
}
