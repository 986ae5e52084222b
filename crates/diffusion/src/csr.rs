//! The span copy of world patching.
//!
//! A patched IC world pool ([`WorldCollection::patch`]) rebuilds each
//! world's flat compressed-sparse-row array in which only the edited source
//! rows changed. Each run of untouched rows between the changed ones moves
//! as one span: its payload is one slice copy and its offsets shift by how
//! far the span's start moved. Worlds stay flat on purpose: their row read is
//! the cursor's BFS hot loop. The graph, the RIS reverse adjacency and the
//! RR-sketch pool keep their rows in copy-on-write blocks
//! ([`tcim_graph::Rows`]) instead, and share untouched blocks outright.
//!
//! [`WorldCollection::patch`]: crate::WorldCollection::patch

use std::ops::Range;

/// Appends the end offsets of rows `rows` of the CSR `offsets` to `out` (a
/// CSR under construction whose last offset is where the span starts) and
/// returns the span's payload range in the old array, for the caller to
/// copy. An empty `rows` appends nothing and returns an empty range.
pub(crate) fn copy_span(offsets: &[u32], rows: Range<usize>, out: &mut Vec<u32>) -> Range<usize> {
    let (start, end) = (offsets[rows.start], offsets[rows.end]);
    let base = out[out.len() - 1];
    out.extend(offsets[rows.start + 1..=rows.end].iter().map(|&o| o - start + base));
    start as usize..end as usize
}
