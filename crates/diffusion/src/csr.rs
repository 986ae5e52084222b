//! The one span copy the churn paths share.
//!
//! Reverse adjacency patching, sketch-pool refresh and world patching all
//! rebuild a compressed-sparse-row array in which only a few rows changed.
//! Each run of untouched rows between the changed ones moves as one span:
//! its payload is one slice copy and its offsets shift by how far the
//! span's start moved.

use std::ops::{Add, Range, Sub};

/// A CSR offset type: `u32` for graph-sized arrays, `usize` for the sketch
/// pool, whose total membership may exceed `u32`.
pub(crate) trait Offset: Copy + Add<Output = Self> + Sub<Output = Self> {
    /// The offset as an index into the payload array.
    fn index(self) -> usize;
}

impl Offset for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl Offset for usize {
    #[inline]
    fn index(self) -> usize {
        self
    }
}

/// Appends the end offsets of rows `rows` of the CSR `offsets` to `out` (a
/// CSR under construction whose last offset is where the span starts) and
/// returns the span's payload range in the old array, for the caller to
/// copy. An empty `rows` appends nothing and returns an empty range.
pub(crate) fn copy_span<O: Offset>(
    offsets: &[O],
    rows: Range<usize>,
    out: &mut Vec<O>,
) -> Range<usize> {
    let (start, end) = (offsets[rows.start], offsets[rows.end]);
    let base = out[out.len() - 1];
    out.extend(offsets[rows.start + 1..=rows.end].iter().map(|&o| o - start + base));
    start.index()..end.index()
}
