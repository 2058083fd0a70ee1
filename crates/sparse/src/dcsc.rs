//! Double-Compressed Sparse Column (DCSC) — the hypersparse format of
//! Buluç & Gilbert (IPDPS'08) that CombBLAS stores local submatrices in and
//! that the paper's implementation uses (§II).
//!
//! Where CSC spends `O(ncols)` on `colptr` even when almost every column is
//! empty, DCSC stores only the `nzc` nonzero columns: `jc[q]` is the q-th
//! nonzero column id and `cp[q]..cp[q+1]` indexes its entries. After a 1D or
//! 2D split, local submatrices are hypersparse (`nnz ≪ ncols`), which is
//! exactly when this matters.
//!
//! Column lookup by global id goes through the AUX index of the same paper:
//! columns are cut into buckets of width `cf = ⌈ncols/nzc⌉`, and
//! `aux[b]..aux[b+1]` are the `jc` positions of bucket `b`. A lookup
//! binary-searches only its bucket (at most `min(cf, nzc)` entries), so it
//! is O(1) on average and still logarithmic in the worst case, for O(nzc)
//! extra words.

use crate::csc::Csc;
use crate::types::{vidx, Vidx};

/// A DCSC sparse matrix over element type `T`.
#[derive(Clone, Debug, PartialEq)]
pub struct Dcsc<T> {
    nrows: usize,
    ncols: usize,
    /// Ids of columns holding at least one entry, ascending. Length `nzc`.
    jc: Vec<Vidx>,
    /// Entry ranges: column `jc[q]` owns entries `cp[q]..cp[q+1]`.
    /// Length `nzc + 1`.
    cp: Vec<usize>,
    /// Row ids, ascending within each column.
    ir: Vec<Vidx>,
    /// Values, parallel to `ir`.
    num: Vec<T>,
    /// AUX bucket width `cf = ⌈ncols/nzc⌉` (1 when `nzc == 0`).
    cf: usize,
    /// AUX index: bucket `b` (columns `b·cf..(b+1)·cf`) owns `jc` positions
    /// `aux[b]..aux[b+1]`. Length `⌈ncols/cf⌉ + 1`, empty when `nzc == 0`.
    aux: Vec<usize>,
}

/// Build the AUX index of `jc` into `aux` (cleared first, capacity kept);
/// returns the bucket width.
fn build_aux(ncols: usize, jc: &[Vidx], aux: &mut Vec<usize>) -> usize {
    aux.clear();
    if jc.is_empty() {
        return 1;
    }
    let cf = ncols.div_ceil(jc.len());
    let nbuckets = ncols.div_ceil(cf);
    aux.reserve(nbuckets + 1);
    let mut q = 0;
    for b in 0..=nbuckets {
        let first = b * cf;
        while q < jc.len() && (jc[q] as usize) < first {
            q += 1;
        }
        aux.push(q);
    }
    cf
}

impl<T: Copy + Send + Sync> Dcsc<T> {
    /// Assemble from raw parts, checking invariants in debug builds.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        jc: Vec<Vidx>,
        cp: Vec<usize>,
        ir: Vec<Vidx>,
        num: Vec<T>,
    ) -> Self {
        Self::from_parts_reusing(nrows, ncols, jc, cp, ir, num, Vec::new())
    }

    /// [`Dcsc::from_parts`] that builds the AUX index into a recycled
    /// buffer (the fifth array [`Dcsc::into_parts`] returns), so an
    /// iteratively reassembled `Ã` allocates nothing for it.
    pub fn from_parts_reusing(
        nrows: usize,
        ncols: usize,
        jc: Vec<Vidx>,
        cp: Vec<usize>,
        ir: Vec<Vidx>,
        num: Vec<T>,
        mut aux: Vec<usize>,
    ) -> Self {
        assert_eq!(cp.len(), jc.len() + 1);
        assert_eq!(ir.len(), num.len());
        assert_eq!(*cp.last().unwrap_or(&0), ir.len());
        debug_assert!(jc.windows(2).all(|w| w[0] < w[1]), "jc strictly ascending");
        debug_assert!(jc.iter().all(|&j| (j as usize) < ncols));
        debug_assert!(
            cp.windows(2).all(|w| w[0] < w[1]),
            "no empty columns stored"
        );
        debug_assert!(ir.iter().all(|&r| (r as usize) < nrows));
        let cf = build_aux(ncols, &jc, &mut aux);
        Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            num,
            cf,
            aux,
        }
    }

    /// Disassemble into `(jc, cp, ir, num, aux)` — the inverse of
    /// [`Dcsc::from_parts_reusing`]. Iterative callers use this to hand a
    /// consumed `Ã`'s buffers back to a workspace pool so the next
    /// iteration's assembly reuses their capacity instead of reallocating.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (Vec<Vidx>, Vec<usize>, Vec<Vidx>, Vec<T>, Vec<usize>) {
        (self.jc, self.cp, self.ir, self.num, self.aux)
    }

    /// An empty matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self::from_parts(nrows, ncols, Vec::new(), vec![0], Vec::new(), Vec::new())
    }

    /// Compress a CSC matrix (dropping empty columns from the index),
    /// copying its entries. `Dcsc::from(csc)` moves them instead.
    pub fn from_csc(m: &Csc<T>) -> Self {
        Self::from(m.clone())
    }

    /// Expand back to CSC, copying the entries. `Csc::from(dcsc)` moves
    /// them instead.
    pub fn to_csc(&self) -> Csc<T> {
        Csc::from_parts(
            self.nrows,
            self.ncols,
            self.csc_colptr(),
            self.ir.clone(),
            self.num.clone(),
        )
    }

    /// The `ncols + 1` CSC column pointer this matrix expands to.
    fn csc_colptr(&self) -> Vec<usize> {
        let mut colptr = vec![0usize; self.ncols + 1];
        for q in 0..self.jc.len() {
            colptr[self.jc[q] as usize + 1] = self.cp[q + 1] - self.cp[q];
        }
        for j in 0..self.ncols {
            colptr[j + 1] += colptr[j];
        }
        colptr
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nnz(&self) -> usize {
        self.ir.len()
    }

    /// Number of nonzero columns (`nzc`).
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// Nonzero column ids (ascending) — the per-rank contribution to the
    /// paper's allgathered `⃗D` vector.
    pub fn jc(&self) -> &[Vidx] {
        &self.jc
    }

    /// Entry-range prefix over nonzero columns. `cp()[q+1]-cp()[q]` is the
    /// nnz of column `jc()[q]`; this is the "prefix sum of non-zero elements
    /// in the column" replicated on every rank in Algorithm 1.
    pub fn cp(&self) -> &[usize] {
        &self.cp
    }

    /// Row-id array (what the paper exposes through the first MPI window).
    pub fn ir(&self) -> &[Vidx] {
        &self.ir
    }

    /// Value array (the second MPI window).
    pub fn num(&self) -> &[T] {
        &self.num
    }

    /// Column `j` by global id through the AUX index (binary search within
    /// `j`'s bucket only); empty if absent, including for `j >= ncols`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[Vidx], &[T]) {
        // ids in `ncols..` land in the last bucket (and miss) or past it
        let b = j / self.cf;
        let Some(&[lo, hi, ..]) = self.aux.get(b..) else {
            return (&[], &[]);
        };
        match self.jc[lo..hi].binary_search(&(j as Vidx)) {
            Ok(q) => self.col_by_pos(lo + q),
            Err(_) => (&[], &[]),
        }
    }

    /// Column by position `q` in the nonzero-column list.
    #[inline]
    pub fn col_by_pos(&self, q: usize) -> (&[Vidx], &[T]) {
        let (s, e) = (self.cp[q], self.cp[q + 1]);
        (&self.ir[s..e], &self.num[s..e])
    }

    /// Iterate `(global column id, rows, vals)` over nonzero columns.
    pub fn iter_cols(&self) -> impl Iterator<Item = (Vidx, &[Vidx], &[T])> + '_ {
        (0..self.jc.len()).map(move |q| {
            let (r, v) = self.col_by_pos(q);
            (self.jc[q], r, v)
        })
    }

    /// Dense boolean vector over rows marking which rows hold entries —
    /// `⃗Hᵢ` of Algorithm 1 (computed from the local B slice).
    pub fn row_hit_vector(&self) -> Vec<bool> {
        let mut h = vec![false; self.nrows];
        for &r in &self.ir {
            h[r as usize] = true;
        }
        h
    }

    /// Estimated heap bytes (index + value arrays). The AUX lookup index
    /// (at most `nzc + 1` words) is an acceleration structure and is not
    /// counted, so footprint reports stay comparable with CSC's.
    pub fn mem_bytes(&self) -> usize {
        self.jc.len() * std::mem::size_of::<Vidx>()
            + self.cp.len() * std::mem::size_of::<usize>()
            + self.ir.len() * std::mem::size_of::<Vidx>()
            + self.num.len() * std::mem::size_of::<T>()
    }
}

/// Compress a CSC matrix by moving its entry arrays; only the column
/// pointer is rewritten (in place, into `cp`).
impl<T: Copy + Send + Sync> From<Csc<T>> for Dcsc<T> {
    fn from(m: Csc<T>) -> Self {
        let (nrows, ncols) = (m.nrows(), m.ncols());
        let (mut cp, ir, num) = m.into_parts();
        let nzc = cp.windows(2).filter(|w| w[0] < w[1]).count();
        let mut jc = Vec::with_capacity(nzc);
        // cp[j + 1] is read before position jc.len() ≤ j + 1 is written, so
        // compacting in place never overwrites an unread column end
        for j in 0..ncols {
            let end = cp[j + 1];
            if end > cp[jc.len()] {
                jc.push(vidx(j));
                cp[jc.len()] = end;
            }
        }
        cp.truncate(nzc + 1);
        cp.shrink_to_fit();
        Dcsc::from_parts(nrows, ncols, jc, cp, ir, num)
    }
}

/// Expand a DCSC matrix to CSC by moving its entry arrays; only the column
/// pointer is built.
impl<T: Copy + Send + Sync> From<Dcsc<T>> for Csc<T> {
    fn from(m: Dcsc<T>) -> Self {
        let colptr = m.csc_colptr();
        Csc::from_parts(m.nrows, m.ncols, colptr, m.ir, m.num)
    }
}

/// Incremental DCSC assembly from column segments arriving in ascending
/// column order.
///
/// This is the merge primitive the distributed fetch path builds `Ã` with:
/// each appended segment is one column's `(rows, vals)` pair, whether it
/// came off the wire this iteration or out of a fetch cache from an earlier
/// one. Columns must be pushed in strictly ascending global-column order —
/// exactly the order the per-owner fetch plans and cache walks produce.
pub struct DcscBuilder<T> {
    nrows: usize,
    ncols: usize,
    jc: Vec<Vidx>,
    cp: Vec<usize>,
    ir: Vec<Vidx>,
    num: Vec<T>,
}

impl<T: Copy + Send + Sync> DcscBuilder<T> {
    /// Start a builder for an `nrows × ncols` matrix, pre-sizing the column
    /// index for `nzc_cap` columns and the entry arrays for `nnz_cap`
    /// entries.
    pub fn with_capacity(nrows: usize, ncols: usize, nzc_cap: usize, nnz_cap: usize) -> Self {
        let mut cp = Vec::with_capacity(nzc_cap + 1);
        cp.push(0);
        DcscBuilder {
            nrows,
            ncols,
            jc: Vec::with_capacity(nzc_cap),
            cp,
            ir: Vec::with_capacity(nnz_cap),
            num: Vec::with_capacity(nnz_cap),
        }
    }

    /// Start a builder on recycled buffers (cleared here; capacity kept).
    /// Pair with [`Dcsc::into_parts`] to assemble each iteration's `Ã`
    /// into the same allocations ([`DcscBuilder::finish`] builds a fresh
    /// AUX index; [`Dcsc::from_parts_reusing`] also recycles that one).
    pub fn from_buffers(
        nrows: usize,
        ncols: usize,
        mut jc: Vec<Vidx>,
        mut cp: Vec<usize>,
        mut ir: Vec<Vidx>,
        mut num: Vec<T>,
    ) -> Self {
        jc.clear();
        cp.clear();
        cp.push(0);
        ir.clear();
        num.clear();
        DcscBuilder {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            num,
        }
    }

    /// Ensure capacity for `nzc_cap` more columns and `nnz_cap` more
    /// entries (no-op on recycled buffers that are already big enough).
    pub fn reserve(&mut self, nzc_cap: usize, nnz_cap: usize) {
        self.jc.reserve(nzc_cap);
        self.cp.reserve(nzc_cap);
        self.ir.reserve(nnz_cap);
        self.num.reserve(nnz_cap);
    }

    /// Append one column's segment. `col` must be strictly greater than the
    /// previously pushed column; empty segments are skipped (DCSC stores no
    /// empty columns).
    pub fn push_col(&mut self, col: Vidx, rows: &[Vidx], vals: &[T]) {
        debug_assert_eq!(rows.len(), vals.len());
        debug_assert!(
            self.jc.last().is_none_or(|&last| last < col),
            "columns must arrive in ascending order"
        );
        if rows.is_empty() {
            return;
        }
        self.jc.push(col);
        self.ir.extend_from_slice(rows);
        self.num.extend_from_slice(vals);
        self.cp.push(self.ir.len());
    }

    /// Entries appended so far.
    pub fn nnz(&self) -> usize {
        self.ir.len()
    }

    /// Finish into a [`Dcsc`].
    pub fn finish(self) -> Dcsc<T> {
        Dcsc::from_parts(self.nrows, self.ncols, self.jc, self.cp, self.ir, self.num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn hypersparse() -> Csc<f64> {
        // 6x8 with entries only in columns 1, 5, 6
        let mut m = Coo::new(6, 8);
        m.push(2, 1, 1.0);
        m.push(4, 1, 2.0);
        m.push(0, 5, 3.0);
        m.push(5, 6, 4.0);
        m.to_csc()
    }

    #[test]
    fn roundtrip_csc() {
        let c = hypersparse();
        let d = Dcsc::from_csc(&c);
        assert_eq!(d.to_csc(), c);
    }

    #[test]
    fn compression_skips_empty_columns() {
        let d = Dcsc::from_csc(&hypersparse());
        assert_eq!(d.nzc(), 3);
        assert_eq!(d.jc(), &[1, 5, 6]);
        assert_eq!(d.cp(), &[0, 2, 3, 4]);
        assert_eq!(d.nnz(), 4);
    }

    #[test]
    fn col_lookup() {
        let d = Dcsc::from_csc(&hypersparse());
        assert_eq!(d.col(1), (&[2, 4][..], &[1.0, 2.0][..]));
        assert_eq!(d.col(5), (&[0][..], &[3.0][..]));
        assert_eq!(d.col(0), (&[][..], &[][..]), "absent column is empty");
        assert_eq!(d.col(7), (&[][..], &[][..]));
    }

    /// One entry per listed column (row `j % nrows`, value `j`).
    fn with_cols(nrows: usize, ncols: usize, cols: &[usize]) -> Dcsc<f64> {
        let jc: Vec<Vidx> = cols.iter().map(|&j| vidx(j)).collect();
        let cp: Vec<usize> = (0..=cols.len()).collect();
        let ir = cols.iter().map(|&j| vidx(j % nrows)).collect();
        let num = cols.iter().map(|&j| j as f64).collect();
        Dcsc::from_parts(nrows, ncols, jc, cp, ir, num)
    }

    /// `col(j)` against a binary search over the whole of `jc`, for every
    /// `j < ncols`, and empty for ids at and past `ncols`.
    fn assert_lookup_matches_search(d: &Dcsc<f64>, what: &str) {
        for j in 0..d.ncols() {
            let expect = match d.jc().binary_search(&vidx(j)) {
                Ok(q) => d.col_by_pos(q),
                Err(_) => (&[][..], &[][..]),
            };
            assert_eq!(d.col(j), expect, "{what}: column {j}");
        }
        for j in [d.ncols(), d.ncols() + 1, 2 * d.ncols() + 7, usize::MAX] {
            assert_eq!(d.col(j), (&[][..], &[][..]), "{what}: column {j}");
        }
    }

    fn aux_patterns() -> Vec<(&'static str, Dcsc<f64>)> {
        vec![
            ("empty", with_cols(5, 100, &[])),
            ("full", with_cols(5, 64, &(0..64).collect::<Vec<_>>())),
            (
                "clustered",
                with_cols(5, 1000, &(400..460).collect::<Vec<_>>()),
            ),
            (
                "hypersparse",
                with_cols(5, 1_000_000, &[0, 17, 999, 500_000, 999_998]),
            ),
            ("last column only", with_cols(5, 333, &[332])),
            ("ncols 0", with_cols(5, 0, &[])),
            ("ncols 1, empty", with_cols(5, 1, &[])),
            ("ncols 1, full", with_cols(5, 1, &[0])),
            ("ncols 0, nrows 0", Dcsc::zeros(0, 0)),
        ]
    }

    #[test]
    fn aux_lookup_matches_binary_search() {
        for (what, d) in aux_patterns() {
            assert_lookup_matches_search(&d, what);
        }
    }

    #[test]
    fn aux_lookup_on_recycled_buffers() {
        // every pattern rebuilt into the previous pattern's (stale) arrays
        let mut parts =
            with_cols(7, 50_000, &(0..3000).map(|j| 13 * j).collect::<Vec<_>>()).into_parts();
        for (what, d) in aux_patterns() {
            let (mut jc, mut cp, mut ir, mut num, aux) = parts;
            jc.clear();
            jc.extend_from_slice(d.jc());
            cp.clear();
            cp.extend_from_slice(d.cp());
            ir.clear();
            ir.extend_from_slice(d.ir());
            num.clear();
            num.extend_from_slice(d.num());
            let rebuilt = Dcsc::from_parts_reusing(d.nrows(), d.ncols(), jc, cp, ir, num, aux);
            assert_eq!(rebuilt, d, "{what}");
            assert_lookup_matches_search(&rebuilt, what);
            parts = rebuilt.into_parts();
        }
    }

    #[test]
    fn owned_conversions_equal_copying_ones() {
        let mut full = Coo::new(4, 5);
        for j in 0..5 {
            full.push(j % 4, j, 1.0 + j as f64);
            full.push(3, j, -2.0);
        }
        let cases: Vec<(&str, Csc<f64>)> = vec![
            ("empty", Csc::zeros(4, 6)),
            ("no columns", Csc::zeros(3, 0)),
            ("hypersparse", hypersparse()),
            ("all columns full", full.to_csc()),
        ];
        for (what, c) in cases {
            // `from_csc` is the owned conversion on a clone
            let d = Dcsc::from(c.clone());
            let nonempty: Vec<Vidx> = (0..c.ncols())
                .filter(|&j| c.col_nnz(j) > 0)
                .map(vidx)
                .collect();
            assert_eq!(d.jc(), &nonempty[..], "{what}: Csc -> Dcsc columns");
            assert_eq!(d.to_csc(), c, "{what}: Csc -> Dcsc entries");
            assert_eq!(Csc::from(d.clone()), d.to_csc(), "{what}: Dcsc -> Csc");
            assert_eq!(Csc::from(d), c, "{what}: round trip");
        }
    }

    #[test]
    fn row_hits() {
        let d = Dcsc::from_csc(&hypersparse());
        assert_eq!(
            d.row_hit_vector(),
            vec![true, false, true, false, true, true]
        );
    }

    #[test]
    fn empty() {
        let d: Dcsc<f64> = Dcsc::zeros(4, 4);
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.nzc(), 0);
        assert_eq!(d.to_csc().nnz(), 0);
    }

    #[test]
    fn builder_merges_segments_in_order() {
        let c = hypersparse();
        let d = Dcsc::from_csc(&c);
        // rebuild column-by-column from borrowed segments, with empty
        // segments interleaved (they must vanish)
        let mut b = DcscBuilder::with_capacity(6, 8, d.nzc(), d.nnz());
        b.push_col(0, &[], &[]);
        for (j, rows, vals) in d.iter_cols() {
            b.push_col(j, rows, vals);
        }
        b.push_col(7, &[], &[]);
        let rebuilt = b.finish();
        assert_eq!(rebuilt, d);
        assert_eq!(rebuilt.to_csc(), c);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending")]
    fn builder_rejects_out_of_order_columns() {
        let mut b: DcscBuilder<f64> = DcscBuilder::with_capacity(4, 4, 2, 2);
        b.push_col(2, &[0], &[1.0]);
        b.push_col(1, &[0], &[1.0]);
    }

    #[test]
    fn mem_smaller_than_csc_when_hypersparse() {
        // 4 entries in a 6x10_000 matrix: DCSC index cost ~ nzc, CSC ~ ncols.
        let mut m = Coo::new(6, 10_000);
        m.push(0, 3, 1.0);
        m.push(1, 5_000, 1.0);
        m.push(2, 9_999, 1.0);
        let c = m.to_csc();
        let d = Dcsc::from_csc(&c);
        assert!(d.mem_bytes() < c.mem_bytes() / 100);
    }
}
