//! [`Rows`], a row-chunked, copy-on-write compressed-sparse-row array.

use std::sync::Arc;

/// `log2` of [`BLOCK_ROWS`].
///
/// Chosen by a sweep of `R ∈ {32, 64, 256}` on perfbench's `churn_ris`
/// workload (three interleaved `--seconds 10` runs per value, 2 vCPUs,
/// `block_rows_sweep` in `docs/bench/BENCH_eb0c075.json`): median
/// `throughput_rps` 2 392 / 2 436 / 2 320 and `peak_rss_mb` 36.5 / 39.0 /
/// 45.1. Throughput differed by less than its run-to-run spread; R = 64
/// had the highest median, at 2.5 MiB more than R = 32.
const SHIFT: u32 = 6;

/// Rows per block of a [`Rows`]: a copy that edits one row rebuilds (at
/// most) this many rows and shares every other block.
pub const BLOCK_ROWS: usize = 1 << SHIFT;

const MASK: usize = BLOCK_ROWS - 1;

/// Up to [`BLOCK_ROWS`] consecutive rows: local row `i` is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Block<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Clone> Block<T> {
    fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Block { offsets, items: Vec::with_capacity(items) }
    }

    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row(&self, local: usize) -> &[T] {
        &self.items[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }

    /// Ends the row whose items were pushed since the last call.
    fn close_row(&mut self) {
        // lint:allow(panic-reachability): a block never holds 2^32 items — graph edge counts are kept within u32, and an RR pool would need 16 GiB of ids in one block
        assert!(self.items.len() <= u32::MAX as usize, "a row block outgrew u32 offsets");
        self.offsets.push(self.items.len() as u32);
    }

    /// Appends local rows `rows` of `old` as one slice copy, their offsets
    /// shifted from the span's old start to its new one.
    fn copy_span(&mut self, old: &Block<T>, rows: std::ops::Range<usize>) {
        let (start, end) = (old.offsets[rows.start], old.offsets[rows.end]);
        let base = self.items.len() as u32;
        self.offsets
            .extend(old.offsets[rows.start + 1..=rows.end].iter().map(|&o| o - start + base));
        self.items.extend_from_slice(&old.items[start as usize..end as usize]);
    }
}

/// A sequence of variable-length rows of `T`, chunked into copy-on-write
/// blocks.
///
/// Rows are grouped into blocks of [`BLOCK_ROWS`] consecutive rows, and
/// each block sits behind an [`Arc`] with its own local `u32` offsets. A
/// copy that rewrites `k` rows ([`Rows::replaced`]) clones the vector of
/// block pointers and rebuilds only the `≤ k` blocks it touches: every
/// other block is the parent's allocation, shared. Reading a row stays one
/// slice borrow, found by a shift and a mask. Cloning a `Rows` clones block
/// pointers, never items.
///
/// The block layout is a function of the rows alone (block `b` holds rows
/// `b·R..(b+1)·R`, the last block possibly fewer), so two `Rows` with equal
/// rows are equal field for field, however each was built: from scratch,
/// by appending or by replacing rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows<T> {
    blocks: Vec<Arc<Block<T>>>,
    len: usize,
    items: usize,
}

impl<T: Clone> Default for Rows<T> {
    fn default() -> Self {
        Rows { blocks: Vec::new(), len: 0, items: 0 }
    }
}

impl<T: Clone> Rows<T> {
    /// `len` rows, row `v` being what `row(v, out)` pushes onto `out`.
    /// `row` is called for `v = 0, 1, …, len - 1` in order.
    pub fn from_fn(len: usize, mut row: impl FnMut(usize, &mut Vec<T>)) -> Self {
        let mut blocks = Vec::with_capacity(len.div_ceil(BLOCK_ROWS));
        let mut items = 0;
        for first in (0..len).step_by(BLOCK_ROWS) {
            let end = (first + BLOCK_ROWS).min(len);
            let mut block = Block::with_capacity(end - first, 0);
            for v in first..end {
                row(v, &mut block.items);
                block.close_row();
            }
            items += block.items.len();
            blocks.push(Arc::new(block));
        }
        Rows { blocks, len, items }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of items over all rows.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.items
    }

    /// Row `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= len()`.
    #[inline]
    pub fn row(&self, v: usize) -> &[T] {
        self.blocks[v >> SHIFT].row(v & MASK)
    }

    /// Every row, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.blocks.iter().flat_map(|block| (0..block.rows()).map(move |local| block.row(local)))
    }

    /// Every item, row after row.
    pub fn items(&self) -> impl Iterator<Item = &T> + '_ {
        self.blocks.iter().flat_map(|block| block.items.iter())
    }

    /// The same rows with every item replaced by `f(item)`.
    pub fn map(&self, mut f: impl FnMut(&T) -> T) -> Self {
        let blocks = self
            .blocks
            .iter()
            .map(|block| {
                Arc::new(Block {
                    offsets: block.offsets.clone(),
                    items: block.items.iter().map(&mut f).collect(),
                })
            })
            .collect();
        Rows { blocks, len: self.len, items: self.items }
    }

    /// Appends `row` as row `len()`. Copies the last block first if it is
    /// partly filled and shared with another `Rows`.
    pub fn push_row(&mut self, row: &[T]) {
        if self.len & MASK == 0 {
            self.blocks.push(Arc::new(Block::with_capacity(BLOCK_ROWS, row.len())));
        }
        if let Some(last) = self.blocks.last_mut() {
            let block = Arc::make_mut(last);
            block.items.extend_from_slice(row);
            block.close_row();
        }
        self.len += 1;
        self.items += row.len();
    }

    /// A copy in which each row `v` named by `edits` is rewritten: `fill(edit,
    /// old_row, out)` pushes the new row `v` onto `out`. Rows must come in
    /// ascending order, each at most once; `fill` is called in that order.
    ///
    /// Cost follows the edit: only the blocks holding an edited row are
    /// rebuilt (their untouched rows copied in spans), and every other block
    /// is shared with `self`.
    pub fn replaced<E>(
        &self,
        edits: impl IntoIterator<Item = (usize, E)>,
        mut fill: impl FnMut(E, &[T], &mut Vec<T>),
    ) -> Self {
        let mut blocks = self.blocks.clone();
        let mut items = self.items;
        let mut edits = edits.into_iter().peekable();
        while let Some(&(first, _)) = edits.peek() {
            let b = first >> SHIFT;
            let old = &*self.blocks[b];
            let mut block = Block::with_capacity(old.rows(), old.items.len());
            let mut next = 0;
            while let Some((v, edit)) = edits.next_if(|&(v, _)| v >> SHIFT == b) {
                let local = v & MASK;
                debug_assert!(local >= next, "edited rows must ascend without repeats");
                block.copy_span(old, next..local);
                fill(edit, old.row(local), &mut block.items);
                block.close_row();
                next = local + 1;
            }
            debug_assert!(edits.peek().is_none_or(|&(v, _)| v >> SHIFT > b), "rows must ascend");
            block.copy_span(old, next..old.rows());
            items = items - old.items.len() + block.items.len();
            blocks[b] = Arc::new(block);
        }
        Rows { blocks, len: self.len, items }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether block `b` of `self` and of `other` is one shared allocation
    /// (false when either has no block `b`).
    pub fn shares_block(&self, other: &Rows<T>, b: usize) -> bool {
        matches!((self.blocks.get(b), other.blocks.get(b)), (Some(x), Some(y)) if Arc::ptr_eq(x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row `v` of the reference rows: `v % 5` items counting up from `v`.
    fn reference(len: usize) -> Vec<Vec<u32>> {
        (0..len).map(|v| (0..(v % 5) as u32).map(|i| v as u32 + i).collect()).collect()
    }

    fn rows_of(rows: &[Vec<u32>]) -> Rows<u32> {
        Rows::from_fn(rows.len(), |v, out| out.extend_from_slice(&rows[v]))
    }

    #[test]
    fn from_fn_push_row_and_replaced_agree_field_for_field() {
        let len = 3 * BLOCK_ROWS + 5;
        let mut want = reference(len);
        let built = rows_of(&want);
        assert_eq!(built.len(), len);
        assert_eq!(built.num_blocks(), 4);
        assert_eq!(
            built.iter().collect::<Vec<_>>(),
            want.iter().map(Vec::as_slice).collect::<Vec<_>>()
        );
        assert_eq!(built.num_items(), want.iter().map(Vec::len).sum::<usize>());
        assert!(built.items().copied().eq(want.iter().flatten().copied()));

        let mut pushed = Rows::default();
        for row in &want {
            pushed.push_row(row);
        }
        assert_eq!(pushed, built);

        // The first and last row of a block, a row emptied, one refilled.
        let edits = [0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3, len - 1];
        let replaced = built.replaced(edits.iter().map(|&v| (v, v)), |v, old, out| {
            if v % 2 == 0 {
                out.extend(old.iter().map(|x| x + 1000));
                out.push(7);
            }
        });
        for &v in &edits {
            want[v] = if v % 2 == 0 {
                want[v].iter().map(|x| x + 1000).chain([7]).collect()
            } else {
                Vec::new()
            };
        }
        assert_eq!(replaced, rows_of(&want));
        let refilled = replaced.replaced([(BLOCK_ROWS - 1, ())], |(), _, out| out.push(3));
        want[BLOCK_ROWS - 1] = vec![3];
        assert_eq!(refilled, rows_of(&want));
        assert_eq!(
            built.map(|x| x * 2),
            Rows::from_fn(len, |v, out| out.extend(reference(len)[v].iter().map(|x| x * 2)))
        );
    }

    #[test]
    fn a_one_row_edit_shares_every_other_block() {
        let len = 4 * BLOCK_ROWS;
        let parent = rows_of(&reference(len));
        let edited = 2 * BLOCK_ROWS + 1;
        let child = parent.replaced([(edited, ())], |(), _, out| out.push(9));
        for b in 0..parent.num_blocks() {
            assert_eq!(child.shares_block(&parent, b), b != edited / BLOCK_ROWS, "block {b}");
        }
        assert_eq!(child.row(edited), &[9]);
        assert!(!child.shares_block(&parent, parent.num_blocks()));
        // Appending to a shared partial block copies that block only.
        let mut grown = rows_of(&reference(len + 1));
        let before = grown.clone();
        grown.push_row(&[1, 2]);
        assert!((0..before.num_blocks() - 1).all(|b| grown.shares_block(&before, b)));
        assert!(!grown.shares_block(&before, before.num_blocks() - 1));
        assert_eq!(before.len(), len + 1);
    }

    #[test]
    fn empty_rows() {
        let empty: Rows<u32> = Rows::from_fn(0, |_, _| {});
        assert!(empty.is_empty());
        assert_eq!(empty, Rows::default());
        assert_eq!(empty.iter().count(), 0);
        assert_eq!(empty.replaced(std::iter::empty::<(usize, ())>(), |(), _, _| {}), empty);
    }
}
