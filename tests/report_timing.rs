//! Every distributed multiply returns one `SpgemmReport` whose timings are
//! honest: with prefetch off the stages are disjoint spans inside the call,
//! so `phases.fetch_s + phases.compute_s ≤ wall_s`, and `wall_s` never
//! exceeds the span the caller timed around the call. Covers 1D, session,
//! sparsity-aware and oblivious 2D SUMMA, sparsity-aware and oblivious 3D
//! split, and the outer product, on the backend `SA_BACKEND` selects (the
//! reports cross the process boundary on procs).

use saspgemm::dist::{
    spgemm_1d, spgemm_outer_1d, spgemm_split_3d, spgemm_split_3d_sa_ws_cfg, spgemm_summa_2d,
    spgemm_summa_2d_sa_ws_cfg, uniform_offsets, CacheConfig, DistMat1D, DistMat2D, DistMat3D,
    FetchMode, Plan1D, SpgemmReport, SpgemmSession,
};
use saspgemm::mpisim::{Backend, Comm, Grid2D, Grid3D, PrefetchConfig, RankJob, Universe};
use saspgemm::sparse::gen::erdos_renyi;
use saspgemm::sparse::semiring::PlusTimes;
use saspgemm::sparse::{Csc, SpgemmWorkspace};
use std::time::{Duration, Instant};

/// One timed call: the layout's name, its report, and the caller's span.
type Timed = (String, SpgemmReport, f64);

fn timed(out: &mut Vec<Timed>, name: &str, call: impl FnOnce() -> SpgemmReport) {
    let t = Instant::now();
    let rep = call();
    out.push((name.to_string(), rep, t.elapsed().as_secs_f64()));
}

/// Every layout on one rank, prefetch off. 2D runs when the rank count is
/// a perfect square; 3D runs on a `q × q × layers` grid.
struct AllLayouts<'a> {
    a: &'a Csc<f64>,
    q: usize,
    layers: usize,
}

impl RankJob for AllLayouts<'_> {
    type Out = Vec<Timed>;
    fn run<C: Comm>(&self, comm: &C) -> Vec<Timed> {
        let a = self.a;
        let mut out = Vec::new();
        let off = PrefetchConfig::disabled();
        let ws = SpgemmWorkspace::new();

        let da = DistMat1D::from_global(comm, a, &uniform_offsets(a.ncols(), comm.size()));
        let plan = Plan1D {
            prefetch: off,
            ..Default::default()
        };
        timed(&mut out, "1d", || spgemm_1d(comm, &da, &da, &plan).1);
        let mut session = SpgemmSession::create(comm, da.clone(), plan, CacheConfig::unlimited());
        for name in ["session cold", "session warm"] {
            timed(&mut out, name, || session.multiply(comm, &da).1);
        }
        timed(&mut out, "outer", || spgemm_outer_1d(comm, &da, &da).1);

        let side = (comm.size() as f64).sqrt().round() as usize;
        if side * side == comm.size() {
            let grid = Grid2D::square(comm);
            let d2 = DistMat2D::from_global(&grid, a);
            timed(&mut out, "2d aware", || {
                spgemm_summa_2d_sa_ws_cfg::<_, PlusTimes<f64>>(
                    comm,
                    &grid,
                    &d2,
                    &d2,
                    FetchMode::Block(4),
                    off,
                    &ws,
                )
                .1
            });
            timed(&mut out, "2d oblivious", || {
                spgemm_summa_2d(comm, &grid, &d2, &d2).1
            });
        }

        let grid = Grid3D::new(comm, self.q, self.layers);
        let da3 = DistMat3D::from_global_split_cols(&grid, a);
        let db3 = DistMat3D::from_global_split_rows(&grid, a);
        timed(&mut out, "3d aware", || {
            spgemm_split_3d_sa_ws_cfg::<_, PlusTimes<f64>>(
                comm,
                &grid,
                &da3,
                &db3,
                FetchMode::Block(4),
                off,
                &ws,
            )
            .1
        });
        timed(&mut out, "3d oblivious", || {
            spgemm_split_3d(comm, &grid, &da3, &db3).1
        });
        out
    }
}

#[test]
fn every_layout_reports_its_own_wall_time() {
    let a = erdos_renyi(48, 48, 4.0, 3);
    for (q, layers) in [(1, 4), (2, 1), (2, 2)] {
        let u = Universe::new(q * q * layers).with_watchdog(Some(Duration::from_secs(120)));
        let got = u.run_backend(Backend::from_env(), &AllLayouts { a: &a, q, layers });
        for (rank, calls) in got.iter().enumerate() {
            for (name, rep, span) in calls {
                let tag = format!("{name} q={q} l={layers} rank {rank}");
                let p = &rep.phases;
                assert!(rep.wall_s > 0.0, "{tag}: wall_s is measured");
                assert!(
                    p.fetch_s + p.compute_s <= rep.wall_s + 1e-9,
                    "{tag}: fetch {} + compute {} exceed wall {}",
                    p.fetch_s,
                    p.compute_s,
                    rep.wall_s
                );
                assert!(
                    rep.wall_s <= *span,
                    "{tag}: wall {} exceeds the caller's span {span}",
                    rep.wall_s
                );
            }
        }
    }
}
