//! Zero-allocation steady state of the workspace arena (the PR 3
//! acceptance criterion): once a session's pools are warm, further
//! multiplies perform no per-thread scratch, chunk-output, or index-buffer
//! allocations — the reuse counters move, the alloc counters do not.

use saspgemm::dist::{uniform_offsets, CacheConfig, DistMat1D, Plan1D, SpgemmSession};
use saspgemm::mpisim::Universe;
use saspgemm::sparse::gen::erdos_renyi;
use saspgemm::sparse::semiring::PlusTimes;
use saspgemm::sparse::spgemm::{spgemm_with, Kernel, Schedule, SpgemmWorkspace, WorkspaceCounters};

#[test]
fn session_steady_state_allocates_nothing() {
    let a = erdos_renyi(160, 160, 5.0, 17);
    let u = Universe::new(3);
    let results = u.run(|comm| {
        let offsets = uniform_offsets(160, comm.size());
        let da = DistMat1D::from_global(comm, &a, &offsets);
        let db = da.clone();
        let mut s = SpgemmSession::create(
            comm,
            da,
            Plan1D {
                global_stats: false,
                ..Default::default()
            },
            CacheConfig::unlimited(),
        );
        // two warm-up iterations: the first populates the pools, the
        // second settles sizes (e.g. Ã shrinks once the cache serves hits)
        let (c1, _) = s.multiply(comm, &db);
        let (_c2, _) = s.multiply(comm, &db);
        let warm: WorkspaceCounters = s.workspace().counters();
        let mut last = None;
        for _ in 0..4 {
            let (c, rep) = s.multiply(comm, &db);
            assert_eq!(rep.fetched_bytes, 0, "warm cache refetches nothing");
            last = Some(c);
        }
        let steady = s.workspace().counters();
        (
            c1.into_local_csc(),
            last.unwrap().into_local_csc(),
            warm,
            steady,
        )
    });
    for (first, last, warm, steady) in results {
        assert_eq!(first, last, "steady-state iterations stay correct");
        assert!(warm.total_allocs() > 0, "warm-up does allocate");
        assert_eq!(
            steady.scratch_allocs, warm.scratch_allocs,
            "steady state creates no per-thread scratch"
        );
        assert_eq!(
            steady.chunk_allocs, warm.chunk_allocs,
            "steady state creates no chunk-output buffers"
        );
        assert_eq!(
            steady.idx_allocs, warm.idx_allocs,
            "steady state creates no index buffers"
        );
        assert!(
            steady.scratch_reuses > warm.scratch_reuses && steady.chunk_reuses > warm.chunk_reuses,
            "steady state is served from the pools"
        );
    }
}

#[test]
fn local_kernel_steady_state_allocates_nothing_across_thread_counts() {
    let a = erdos_renyi(300, 300, 6.0, 9);
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let ws = SpgemmWorkspace::new();
        let first = pool.install(|| {
            spgemm_with::<PlusTimes<f64>, _, _>(&a, &a, Kernel::Hybrid, Schedule::FlopBalanced, &ws)
        });
        let warm = ws.counters();
        for _ in 0..3 {
            let c = pool.install(|| {
                spgemm_with::<PlusTimes<f64>, _, _>(
                    &a,
                    &a,
                    Kernel::Hybrid,
                    Schedule::FlopBalanced,
                    &ws,
                )
            });
            assert_eq!(c, first);
        }
        let steady = ws.counters();
        // chunk/index buffers are taken and returned within one multiply,
        // so their alloc counts freeze exactly after warm-up; per-thread
        // scratch is held for a worker's whole run, so the pool converges
        // to at most one scratch per worker slot (how fast depends on
        // worker overlap) and can never exceed `threads` lifetime allocs
        assert_eq!(steady.chunk_allocs, warm.chunk_allocs, "{threads} threads");
        assert_eq!(steady.idx_allocs, warm.idx_allocs, "{threads} threads");
        assert!(
            steady.scratch_allocs <= threads as u64,
            "{threads} threads: scratch allocs bounded by worker slots, got {}",
            steady.scratch_allocs
        );
    }
}

#[test]
fn ephemeral_and_warm_workspaces_agree() {
    // spgemm_kernel (ephemeral arena) vs a long-lived arena: same bits
    let a = erdos_renyi(90, 90, 4.0, 3);
    let ws = SpgemmWorkspace::new();
    let warm1 =
        spgemm_with::<PlusTimes<f64>, _, _>(&a, &a, Kernel::Hybrid, Schedule::FlopBalanced, &ws);
    let warm2 =
        spgemm_with::<PlusTimes<f64>, _, _>(&a, &a, Kernel::Hybrid, Schedule::FlopBalanced, &ws);
    let ephemeral = saspgemm::sparse::spgemm::spgemm::<PlusTimes<f64>, _, _>(&a, &a);
    assert_eq!(warm1, warm2);
    assert_eq!(warm1, ephemeral);
}
