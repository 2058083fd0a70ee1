//! Ablation (the paper's noted-but-unimplemented optimization, §III-A):
//! overlapping the RDMA fetches with foreground work.
//!
//! Every sparsity-aware multiply assembles `Ã` through one staged engine:
//! the planned gets are issued (and metered) up front, then a prefetcher
//! moves the bytes on a background path while the foreground walks `Ã`'s
//! metadata (and, in 2D, runs the B request/ship exchange). Traffic and
//! output are identical with overlap on or off (verified by tests); the
//! question is wall time.

use sa_bench::*;
use sa_dist::{
    prepare, spgemm_summa_2d_sa_ws_cfg, uniform_offsets, CacheConfig, DistMat1D, DistMat2D,
    FetchMode, Plan1D, SpgemmSession, Strategy,
};
use sa_mpisim::{Comm, Grid2D, PrefetchConfig, RankJob};
use sa_sparse::gen::Dataset;
use sa_sparse::semiring::PlusTimes;
use sa_sparse::{Csc, SpgemmWorkspace};

/// 2D staged row: `iters` back-to-back sparsity-aware SUMMA multiplies,
/// the generic prefetch engine staging stage k+1's A-panel gets behind
/// stage k's foreground work (B request/ship + metadata walk + kernel).
struct Staged2D {
    a: Csc<f64>,
    pr: usize,
    pc: usize,
    iters: usize,
    cfg: PrefetchConfig,
}

impl RankJob for Staged2D {
    type Out = u64;
    fn run<C: Comm>(&self, comm: &C) -> u64 {
        let grid = Grid2D::new(comm, self.pr, self.pc);
        let da = DistMat2D::from_global(&grid, &self.a);
        let db = DistMat2D::from_global(&grid, &self.a);
        let ws = SpgemmWorkspace::new();
        let mut acc = 0u64;
        for _ in 0..self.iters {
            let (c, rep) = spgemm_summa_2d_sa_ws_cfg::<_, PlusTimes<f64>>(
                comm,
                &grid,
                &da,
                &db,
                FetchMode::Block(256),
                self.cfg,
                &ws,
            );
            acc ^= c.local().nnz() as u64 ^ rep.fetched_bytes;
        }
        acc
    }
}

/// Session row: cache disabled so every multiply re-fetches its full miss
/// set — the overlapped assembly path runs `iters` times against a live
/// fetch plan instead of degenerating to cache hits after warm-up.
struct StagedSession {
    a: Csc<f64>,
    iters: usize,
    cfg: PrefetchConfig,
}

impl RankJob for StagedSession {
    type Out = u64;
    fn run<C: Comm>(&self, comm: &C) -> u64 {
        let offsets = uniform_offsets(self.a.ncols(), comm.size());
        let da = DistMat1D::from_global(comm, &self.a, &offsets);
        let db = da.clone();
        let plan = Plan1D {
            prefetch: self.cfg,
            ..plan()
        };
        let mut session = SpgemmSession::create(comm, da, plan, CacheConfig::disabled());
        let mut acc = 0u64;
        for _ in 0..self.iters {
            let (c, rep) = session.multiply(comm, &db);
            acc ^= c.into_local_csc().nnz() as u64 ^ rep.fetched_bytes;
        }
        acc
    }
}

/// Parent-side wall (launch to join) on the `backend()`-selected backend,
/// best of [`reps`] runs — the number that differs between overlap off/on.
fn staged_wall<J: RankJob>(p: usize, job: &J) -> f64 {
    let be = backend();
    let (wall, ()) = best_of(reps(), || {
        let u = universe(p);
        let t0 = std::time::Instant::now();
        let out = u.run_backend(be, job);
        assert_eq!(out.len(), p, "every rank must report");
        (t0.elapsed().as_secs_f64(), ())
    });
    wall
}

fn main() {
    banner(
        "Ablation",
        "communication/computation overlap in the staged Ã engine",
        "extension: paper notes 'no overlap between communication and computation'",
    );
    // Staged wall rows: the staged Ã engine behind the 2D SUMMA A side and
    // the session miss-fetch path, overlap off vs on, measured as
    // parent-side wall on the SA_BACKEND/--backend-selected backend. On
    // procs, GetReq/GetResp round-trips are genuinely asynchronous, so the
    // on-column's delta is hidden fetch time; on sim the Prefetcher
    // degrades to deterministic in-order issue and the ratio pins ≈ 1 by
    // design.
    println!(
        "\n## staged wall rows (backend={}): overlap off vs on, parent wall, best of {} runs",
        backend().name(),
        reps()
    );
    row(&[
        "workload".into(),
        "matrix".into(),
        "P".into(),
        "grid".into(),
        "iters".into(),
        "off_wall_ms".into(),
        "on_wall_ms".into(),
        "speedup".into(),
    ]);
    let quick = std::env::var("SA_QUICK").is_ok();
    let iters = if quick { 2 } else { 4 };
    // the randomly permuted operand maximizes cross-rank traffic — the
    // fetch time overlap exists to hide
    let a = load(Dataset::Hv15rLike);
    let scrambled = prepare(&a, 8, Strategy::RandomPerm { seed: 5 }).a.clone();
    let grids: &[(usize, usize)] = if quick { &[(2, 2)] } else { &[(2, 2), (2, 4)] };
    for &(pr, pc) in grids {
        let p = pr * pc;
        let mk = |cfg| Staged2D {
            a: scrambled.clone(),
            pr,
            pc,
            iters,
            cfg,
        };
        let off = staged_wall(p, &mk(PrefetchConfig::disabled()));
        let on = staged_wall(p, &mk(PrefetchConfig::on()));
        row(&[
            "2d-staged".into(),
            "hv15r-rand".into(),
            p.to_string(),
            format!("{pr}x{pc}"),
            iters.to_string(),
            ms(off),
            ms(on),
            format!("{:.2}", off / on.max(1e-12)),
        ]);
    }
    let ps: &[usize] = if quick { &[4] } else { &[4, 8] };
    for &p in ps {
        let mk = |cfg| StagedSession {
            a: scrambled.clone(),
            iters,
            cfg,
        };
        let off = staged_wall(p, &mk(PrefetchConfig::disabled()));
        let on = staged_wall(p, &mk(PrefetchConfig::on()));
        row(&[
            "session-miss".into(),
            "hv15r-rand".into(),
            p.to_string(),
            "1d".into(),
            iters.to_string(),
            ms(off),
            ms(on),
            format!("{:.2}", off / on.max(1e-12)),
        ]);
    }
    println!(
        "## staged rows run identical work per cell (checksummed); only the prefetch \
         config differs — record the procs P=8 rows in BENCH_pr10.json"
    );
}
