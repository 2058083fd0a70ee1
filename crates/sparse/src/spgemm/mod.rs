//! Local (shared-memory) SpGEMM kernels.
//!
//! The paper's local computation (§II) is "a hybrid version of Heap-based
//! SpGEMM [Azad et al. 2016] and Hash-based SpGEMM [Nagasaka et al. 2019]".
//! We implement both, plus a dense-accumulator (SPA) kernel for very dense
//! output columns, and a per-column [`Kernel::Hybrid`] dispatcher that picks
//! among them from the column's upper-bound flop count — the same policy
//! class CombBLAS' hybrid kernel uses.
//!
//! All kernels are column-by-column: `C(:,j) = ⊕_k A(:,k) ⊗ B(k,j)`, are
//! generic over [`Semiring`]s and over the column source of `A` (CSC or
//! DCSC — the distributed 1D algorithm feeds the fetched `Ã` as DCSC), and
//! parallelize over output columns with Rayon (the per-rank "OpenMP" pool).

mod hash;
mod heap;
pub mod rowwise;
pub mod schedule;
mod spa;
pub mod symbolic;
pub mod workspace;

use crate::csc::Csc;
use crate::dcsc::Dcsc;
use crate::semiring::Semiring;
use crate::types::Vidx;
use rayon::prelude::*;
use workspace::Scratch;

pub use rowwise::spgemm_rowwise;
pub use schedule::{schedule_items, Schedule};
pub use symbolic::{upper_bound_flops, upper_bound_flops_per_col};
pub use workspace::{ChunkBuf, SpgemmWorkspace, WorkspaceCounters};

/// Column access abstraction so kernels run over CSC and DCSC alike.
pub trait ColSource<T>: Sync {
    fn nrows(&self) -> usize;
    fn ncols(&self) -> usize;
    /// (row ids, values) of column `j`; empty slices if the column is empty.
    fn col(&self, j: usize) -> (&[Vidx], &[T]);
    /// nnz of column `j` (cheap; used for flop estimation).
    fn col_nnz(&self, j: usize) -> usize {
        self.col(j).0.len()
    }
}

impl<T: Copy + Send + Sync> ColSource<T> for Csc<T> {
    fn nrows(&self) -> usize {
        Csc::nrows(self)
    }
    fn ncols(&self) -> usize {
        Csc::ncols(self)
    }
    fn col(&self, j: usize) -> (&[Vidx], &[T]) {
        Csc::col(self, j)
    }
    fn col_nnz(&self, j: usize) -> usize {
        Csc::col_nnz(self, j)
    }
}

impl<T: Copy + Send + Sync> ColSource<T> for Dcsc<T> {
    fn nrows(&self) -> usize {
        Dcsc::nrows(self)
    }
    fn ncols(&self) -> usize {
        Dcsc::ncols(self)
    }
    fn col(&self, j: usize) -> (&[Vidx], &[T]) {
        Dcsc::col(self, j)
    }
}

/// Which accumulator a column (or a whole multiply) uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Kernel {
    /// k-way merge with a binary heap — cheapest for short columns.
    Heap,
    /// Linear-probing hash accumulator — robust mid-range default.
    Hash,
    /// Dense accumulator (sparse accumulator "SPA") — wins when a column's
    /// flops approach the row dimension.
    Spa,
    /// Per-column choice among the three from the column's upper-bound
    /// flops (the paper's hybrid).
    #[default]
    Hybrid,
}

/// Pick a kernel for one output column given B's column nnz and the
/// upper-bound flop count. Thresholds follow the usual CombBLAS-style
/// heuristics: tiny columns merge cheaply; columns whose accumulation
/// footprint rivals the row dimension go dense; the rest hash.
#[inline]
fn choose_kernel(bcol_nnz: usize, ub_flops: usize, nrows: usize) -> Kernel {
    if bcol_nnz <= 2 || ub_flops <= 64 {
        Kernel::Heap
    } else if ub_flops * 4 >= nrows {
        Kernel::Spa
    } else {
        Kernel::Hash
    }
}

/// Compute one output column into the scratch's `col_rows`/`col_vals`
/// staging (cleared first). `ub` is the column's upper-bound flop count,
/// computed once per multiply by the caller's symbolic pass and shared by
/// the hybrid dispatch, the hash-table sizing, and the output pre-sizing.
fn compute_column<S: Semiring, A: ColSource<S::T> + ?Sized>(
    a: &A,
    brows: &[Vidx],
    bvals: &[S::T],
    kernel: Kernel,
    ub: usize,
    scratch: &mut Scratch<S::T>,
) {
    scratch.col_rows.clear();
    scratch.col_vals.clear();
    if brows.is_empty() {
        return;
    }
    // Single B entry: a scaled copy of one A column, already sorted.
    if brows.len() == 1 {
        let (ar, av) = a.col(brows[0] as usize);
        let b = bvals[0];
        for (&r, &x) in ar.iter().zip(av) {
            let v = S::mul(x, b);
            if !S::is_zero(&v) {
                scratch.col_rows.push(r);
                scratch.col_vals.push(v);
            }
        }
        return;
    }
    let kernel = if kernel == Kernel::Hybrid {
        choose_kernel(brows.len(), ub, a.nrows())
    } else {
        kernel
    };
    match kernel {
        Kernel::Heap => heap::heap_column::<S, A>(
            a,
            brows,
            bvals,
            &mut scratch.col_rows,
            &mut scratch.col_vals,
        ),
        Kernel::Hash => hash::hash_column::<S, A>(
            a,
            brows,
            bvals,
            ub,
            &mut scratch.hash,
            &mut scratch.col_rows,
            &mut scratch.col_vals,
        ),
        Kernel::Spa => {
            // The O(nrows) dense arrays are paid only when a column
            // actually dispatches here (most multiplies never do).
            scratch.ensure_spa(a.nrows(), S::zero());
            spa::spa_column::<S, A>(
                a,
                brows,
                bvals,
                &mut scratch.spa_vals,
                &mut scratch.spa_gen,
                &mut scratch.generation,
                &mut scratch.touched,
                &mut scratch.col_rows,
                &mut scratch.col_vals,
            )
        }
        Kernel::Hybrid => unreachable!("resolved above"),
    }
}

/// General SpGEMM `C = A·B` over a semiring with an explicit kernel choice.
///
/// Runs [`spgemm_with`] under the default flop-balanced schedule with an
/// ephemeral workspace. Parallelizes over B's columns on the current Rayon
/// pool (so calling it inside `pool.install(..)` binds it to a per-rank
/// pool, mirroring MPI+OpenMP). Iterative callers should hold a
/// [`SpgemmWorkspace`] and call [`spgemm_with`] so scratch survives
/// between multiplies.
pub fn spgemm_kernel<S, A, B>(a: &A, b: &B, kernel: Kernel) -> Csc<S::T>
where
    S: Semiring,
    A: ColSource<S::T> + ?Sized,
    B: ColSource<S::T> + ?Sized,
{
    spgemm_with::<S, A, B>(a, b, kernel, Schedule::default(), &SpgemmWorkspace::new())
}

/// General SpGEMM `C = A·B` with explicit kernel, [`Schedule`], and
/// [`SpgemmWorkspace`].
///
/// One symbolic pass computes every output column's upper-bound flop count
/// into a workspace buffer; that single array then drives (1) the work-item
/// boundaries of the schedule, (2) the hybrid per-column kernel dispatch,
/// (3) the hash accumulator's table sizing, and (4) the per-item output
/// pre-sizing (`Σ min(ub, nrows)`), so the hot loop's extends never
/// reallocate. Per-thread scratch, per-item output buffers, and the
/// symbolic arrays are all borrowed from `ws` and returned after the
/// stitch: repeated multiplies through one workspace allocate nothing
/// beyond output growth (see [`SpgemmWorkspace::counters`]).
///
/// The schedule changes only the parallel shape, never the result: output
/// is bit-identical across schedules and thread counts.
pub fn spgemm_with<S, A, B>(
    a: &A,
    b: &B,
    kernel: Kernel,
    schedule: Schedule,
    ws: &SpgemmWorkspace<S::T>,
) -> Csc<S::T>
where
    S: Semiring,
    A: ColSource<S::T> + ?Sized,
    B: ColSource<S::T> + ?Sized,
{
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "dimension mismatch: A is ..x{}, B is {}x..",
        a.ncols(),
        b.nrows()
    );
    let ncols = b.ncols();
    let nrows = a.nrows();
    let threads = rayon::current_num_threads();
    // --- symbolic pass: one upper-bound flop count per output column,
    // parallelized over fixed segments when a pool is installed (with a
    // DCSC A every col_nnz is a jc binary search — a serial prefix here
    // would cap the multi-thread speedup the schedule buys). Segment
    // buffers come from the idx pool, so steady state stays alloc-free.
    const SYMBOLIC_SEG: usize = 1024;
    let mut ubs = ws.take_idx();
    ubs.reserve(ncols);
    if threads > 1 && ncols > 2 * SYMBOLIC_SEG {
        let nseg = ncols.div_ceil(SYMBOLIC_SEG);
        let mut segs: Vec<Vec<usize>> = (0..nseg)
            .into_par_iter()
            .map(|si| {
                let (j0, j1) = (si * SYMBOLIC_SEG, ((si + 1) * SYMBOLIC_SEG).min(ncols));
                let mut seg = ws.take_idx();
                seg.reserve(j1 - j0);
                for j in j0..j1 {
                    let (brows, _) = b.col(j);
                    seg.push(brows.iter().map(|&k| a.col_nnz(k as usize)).sum());
                }
                seg
            })
            .collect();
        for seg in segs.drain(..) {
            ubs.extend_from_slice(&seg);
            ws.put_idx(seg);
        }
    } else {
        for j in 0..ncols {
            let (brows, _) = b.col(j);
            ubs.push(brows.iter().map(|&k| a.col_nnz(k as usize)).sum());
        }
    }
    // --- work items from the same array ---
    let mut bounds = ws.take_idx();
    schedule::schedule_bounds_into(&mut bounds, &ubs, schedule, threads);
    let nitems = bounds.len().saturating_sub(1);
    // Per-item results, computed in parallel with pooled per-thread
    // scratch and pooled output buffers (column lengths + concatenated
    // rows/values).
    let ubs_ref = &ubs;
    let bounds_ref = &bounds;
    let mut chunks: Vec<ChunkBuf<S::T>> = (0..nitems)
        .into_par_iter()
        .map_init(
            || ws.scratch_guard(),
            |guard, ci| {
                let scratch = guard.get();
                let (j0, j1) = (bounds_ref[ci], bounds_ref[ci + 1]);
                let mut out = ws.take_chunk();
                out.lens.reserve(j1 - j0);
                let est: usize = ubs_ref[j0..j1].iter().map(|&u| u.min(nrows)).sum();
                out.rows.reserve(est);
                out.vals.reserve(est);
                for (j, &ub) in (j0..j1).zip(&ubs_ref[j0..j1]) {
                    let (brows, bvals) = b.col(j);
                    compute_column::<S, A>(a, brows, bvals, kernel, ub, scratch);
                    out.lens.push(scratch.col_rows.len() as u32);
                    out.rows.extend_from_slice(&scratch.col_rows);
                    out.vals.extend_from_slice(&scratch.col_vals);
                }
                // Flop-proportional capacity is held by ALL items until the
                // stitch; when the output compresses pathologically (many
                // k-paths landing on one entry) release the slack so peak
                // intermediate memory stays output-proportional. The 4×
                // threshold keeps ordinary multiplies reallocation-free
                // across workspace reuse.
                if out.rows.capacity() > 4 * out.rows.len().max(1) {
                    out.rows.shrink_to_fit();
                    out.vals.shrink_to_fit();
                }
                out
            },
        )
        .collect();
    // Stitch items (ordered by construction) into one CSC, returning the
    // buffers to the pool as they drain.
    let nnz: usize = chunks.iter().map(|c| c.rows.len()).sum();
    let mut colptr = Vec::with_capacity(ncols + 1);
    colptr.push(0usize);
    let mut rowidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for buf in chunks.drain(..) {
        for &l in &buf.lens {
            colptr.push(colptr.last().unwrap() + l as usize);
        }
        rowidx.extend_from_slice(&buf.rows);
        vals.extend_from_slice(&buf.vals);
        ws.put_chunk(buf);
    }
    ws.put_idx(ubs);
    ws.put_idx(bounds);
    Csc::from_parts(nrows, ncols, colptr, rowidx, vals)
}

/// SpGEMM with the hybrid kernel — the default entry point.
///
/// ```
/// use sa_sparse::semiring::PlusTimes;
/// use sa_sparse::spgemm::spgemm;
/// use sa_sparse::Coo;
///
/// // C = A·A on a 3-cycle: every vertex reaches its 2-hop neighbour
/// let mut coo = Coo::new(3, 3);
/// coo.push(1, 0, 1.0);
/// coo.push(2, 1, 1.0);
/// coo.push(0, 2, 1.0);
/// let a = coo.to_csc_with(|x, _| x);
/// let c = spgemm::<PlusTimes<f64>, _, _>(&a, &a);
/// assert_eq!(c.get(2, 0), Some(1.0)); // 0 → 1 → 2
/// ```
pub fn spgemm<S, A, B>(a: &A, b: &B) -> Csc<S::T>
where
    S: Semiring,
    A: ColSource<S::T> + ?Sized,
    B: ColSource<S::T> + ?Sized,
{
    spgemm_kernel::<S, A, B>(a, b, Kernel::Hybrid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::dense::Dense;
    use crate::semiring::{OrAnd, PlusTimes};
    use rand::{Rng, SeedableRng};

    fn random_csc(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> Csc<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Coo::new(nrows, ncols);
        for _ in 0..nnz {
            m.push(
                rng.gen_range(0..nrows as u32),
                rng.gen_range(0..ncols as u32),
                rng.gen_range(-4..5) as f64, // integers: exact arithmetic
            );
        }
        m.to_csc().filter(|_, _, v| v != 0.0)
    }

    fn reference(a: &Csc<f64>, b: &Csc<f64>) -> Csc<f64> {
        Dense::from_csc::<PlusTimes<f64>>(a)
            .matmul::<PlusTimes<f64>>(&Dense::from_csc::<PlusTimes<f64>>(b))
            .to_csc::<PlusTimes<f64>>()
    }

    /// `n × n` with half-bandwidth `w`: a SPA column's touched rows fill
    /// a contiguous span, so the gather scans stamps instead of sorting.
    fn banded_csc(n: usize, w: usize, seed: u64) -> Csc<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Coo::new(n, n);
        for j in 0..n {
            for i in j.saturating_sub(w)..(j + w + 1).min(n) {
                m.push(i as Vidx, j as Vidx, rng.gen_range(-4..5) as f64);
            }
        }
        m.to_csc().filter(|_, _, v| v != 0.0)
    }

    /// `A·B` whose every column cancels to zero at its first and last
    /// touched rows, `gap` rows apart: a narrow gap takes the stamp scan,
    /// a wide one the sort.
    fn cancelling_at_span_ends(gap: usize) -> (Csc<f64>, Csc<f64>) {
        let (lo, hi) = (3u32, 3 + gap as u32);
        let mid = lo + 1;
        let mut a = Coo::new(hi as usize + 4, 2);
        a.push(lo, 0, 1.0);
        a.push(mid, 0, 2.0);
        a.push(hi, 0, 1.0);
        a.push(lo, 1, -1.0);
        a.push(hi, 1, -1.0);
        let mut b = Coo::new(2, 3);
        for j in 0..3 {
            b.push(0, j, 1.0);
            b.push(1, j, 1.0);
        }
        (a.to_csc(), b.to_csc())
    }

    /// Inputs for both SPA gathers next to the random ones: banded (stamp
    /// scan), tall and scattered (sort), and cancellation at span ends.
    fn gather_cases() -> Vec<(&'static str, Csc<f64>, Csc<f64>)> {
        let (ca, cb) = cancelling_at_span_ends(6);
        let (wa, wb) = cancelling_at_span_ends(200);
        vec![
            ("banded", banded_csc(60, 3, 7), banded_csc(60, 2, 8)),
            (
                "scattered",
                random_csc(3000, 40, 200, 9),
                random_csc(40, 25, 150, 10),
            ),
            ("cancel-narrow", ca, cb),
            ("cancel-wide", wa, wb),
        ]
    }

    #[test]
    fn all_kernels_match_dense_reference() {
        let mut cases: Vec<(String, Csc<f64>, Csc<f64>)> = (0..6u64)
            .map(|seed| {
                (
                    format!("random seed {seed}"),
                    random_csc(40, 30, 150, seed),
                    random_csc(30, 25, 120, seed + 100),
                )
            })
            .collect();
        cases.extend(
            gather_cases()
                .into_iter()
                .map(|(name, a, b)| (name.to_string(), a, b)),
        );
        for (name, a, b) in &cases {
            let expect = reference(a, b);
            let ad = Dcsc::from_csc(a);
            for kernel in [Kernel::Heap, Kernel::Hash, Kernel::Spa, Kernel::Hybrid] {
                let got = spgemm_kernel::<PlusTimes<f64>, _, _>(a, b, kernel);
                assert_eq!(got, expect, "kernel {kernel:?} on {name}");
                let via_dcsc = spgemm_kernel::<PlusTimes<f64>, _, _>(&ad, b, kernel);
                assert_eq!(via_dcsc, expect, "kernel {kernel:?} on DCSC {name}");
            }
        }
    }

    #[test]
    fn dcsc_source_matches_csc_source() {
        let a = random_csc(50, 40, 100, 9);
        let b = random_csc(40, 20, 80, 10);
        let ad = Dcsc::from_csc(&a);
        let via_csc = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
        let via_dcsc = spgemm::<PlusTimes<f64>, _, _>(&ad, &b);
        assert_eq!(via_csc, via_dcsc);
    }

    #[test]
    fn boolean_semiring_reachability() {
        // path graph 0->1->2; A² over OrAnd gives 2-hop reachability.
        let mut m = Coo::new(3, 3);
        m.push(1, 0, true);
        m.push(2, 1, true);
        let a = m.to_csc_with(|x, _| x);
        let a2 = spgemm::<OrAnd, _, _>(&a, &a);
        assert_eq!(a2.nnz(), 1);
        assert_eq!(a2.get(2, 0), Some(true));
    }

    #[test]
    fn empty_operands() {
        let a: Csc<f64> = Csc::zeros(5, 4);
        let b: Csc<f64> = Csc::zeros(4, 3);
        let c = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (5, 3, 0));
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_csc(20, 20, 60, 3);
        let i = Csc::diagonal(&[1.0; 20]);
        assert_eq!(spgemm::<PlusTimes<f64>, _, _>(&a, &i), a);
        assert_eq!(spgemm::<PlusTimes<f64>, _, _>(&i, &a), a);
    }

    #[test]
    fn numeric_cancellation_dropped() {
        // A row with +1 and -1 meeting the same output position.
        // A = [1 -1], B = [1; 1]  => C = [0] (stored empty).
        let mut ma = Coo::new(1, 2);
        ma.push(0, 0, 1.0);
        ma.push(0, 1, -1.0);
        let mut mb = Coo::new(2, 1);
        mb.push(0, 0, 1.0);
        mb.push(1, 0, 1.0);
        let c = spgemm::<PlusTimes<f64>, _, _>(&ma.to_csc(), &mb.to_csc());
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn rectangular_chain() {
        // (5x3)(3x7) valid; check shape + reference equality.
        let a = random_csc(5, 3, 10, 11);
        let b = random_csc(3, 7, 12, 12);
        let c = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
        assert_eq!((c.nrows(), c.ncols()), (5, 7));
        assert_eq!(c, reference(&a, &b));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = random_csc(5, 3, 5, 1);
        let b = random_csc(4, 2, 5, 2);
        let _ = spgemm::<PlusTimes<f64>, _, _>(&a, &b);
    }

    #[test]
    fn schedules_are_bit_identical() {
        let a = random_csc(120, 120, 900, 31);
        let b = random_csc(120, 120, 900, 32);
        let ws = SpgemmWorkspace::new();
        for kernel in [Kernel::Heap, Kernel::Hash, Kernel::Spa, Kernel::Hybrid] {
            let fixed =
                spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, kernel, Schedule::Fixed(256), &ws);
            let fixed7 =
                spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, kernel, Schedule::Fixed(7), &ws);
            let bal =
                spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, kernel, Schedule::FlopBalanced, &ws);
            assert_eq!(fixed, bal, "{kernel:?}");
            assert_eq!(fixed7, bal, "{kernel:?}");
        }
    }

    #[test]
    fn workspace_steady_state_allocates_nothing() {
        // pin to one thread so every counter is deterministic (with more
        // workers the scratch pool converges within `threads` allocs,
        // timing-dependent — the integration test covers that bound)
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("test pool");
        let a = random_csc(200, 200, 2000, 41);
        let b = random_csc(200, 200, 2000, 42);
        let ws = SpgemmWorkspace::new();
        // warm-up populates the pools
        let first = pool.install(|| {
            spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Hybrid, Schedule::FlopBalanced, &ws)
        });
        let warm = ws.counters();
        assert!(warm.scratch_allocs >= 1 && warm.chunk_allocs >= 1);
        for _ in 0..3 {
            let c = pool.install(|| {
                spgemm_with::<PlusTimes<f64>, _, _>(
                    &a,
                    &b,
                    Kernel::Hybrid,
                    Schedule::FlopBalanced,
                    &ws,
                )
            });
            assert_eq!(c, first);
        }
        let steady = ws.counters();
        assert_eq!(steady.scratch_allocs, warm.scratch_allocs, "no new scratch");
        assert_eq!(
            steady.chunk_allocs, warm.chunk_allocs,
            "no new chunk buffers"
        );
        assert_eq!(steady.idx_allocs, warm.idx_allocs, "no new index buffers");
        assert!(steady.scratch_reuses > warm.scratch_reuses);
        assert!(steady.chunk_reuses > warm.chunk_reuses);
    }

    #[test]
    fn single_heavy_column_and_empty_b() {
        // B with one hub column carrying every entry plus empty columns on
        // both sides — the flop-balanced splitter's degenerate case.
        let a = random_csc(80, 60, 600, 51);
        let mut coo = Coo::new(60, 40);
        for k in 0..60u32 {
            coo.push(k, 20, 1.0);
        }
        let b = coo.to_csc_with(|x: f64, _| x);
        let ws = SpgemmWorkspace::new();
        let fixed =
            spgemm_with::<PlusTimes<f64>, _, _>(&a, &b, Kernel::Hybrid, Schedule::Fixed(256), &ws);
        let bal = spgemm_with::<PlusTimes<f64>, _, _>(
            &a,
            &b,
            Kernel::Hybrid,
            Schedule::FlopBalanced,
            &ws,
        );
        assert_eq!(fixed, bal);
        assert_eq!(fixed, reference(&a, &b));
        // fully empty B
        let eb: Csc<f64> = Csc::zeros(60, 10);
        let c = spgemm_with::<PlusTimes<f64>, _, _>(
            &a,
            &eb,
            Kernel::Hybrid,
            Schedule::FlopBalanced,
            &ws,
        );
        assert_eq!((c.ncols(), c.nnz()), (10, 0));
    }

    #[test]
    fn larger_random_consistency_across_kernels() {
        let cases = [
            (
                "random",
                random_csc(300, 300, 3000, 21),
                random_csc(300, 300, 3000, 22),
            ),
            ("banded", banded_csc(400, 8, 23), banded_csc(400, 6, 24)),
            (
                "scattered",
                random_csc(20_000, 300, 1500, 25),
                random_csc(300, 300, 3000, 26),
            ),
        ];
        for (name, a, b) in &cases {
            let h = spgemm_kernel::<PlusTimes<f64>, _, _>(a, b, Kernel::Heap);
            let s = spgemm_kernel::<PlusTimes<f64>, _, _>(a, b, Kernel::Hash);
            let p = spgemm_kernel::<PlusTimes<f64>, _, _>(a, b, Kernel::Spa);
            let y = spgemm_kernel::<PlusTimes<f64>, _, _>(a, b, Kernel::Hybrid);
            assert_eq!(h, s, "{name}");
            assert_eq!(s, p, "{name}");
            assert_eq!(p, y, "{name}");
        }
    }
}
