//! The four workloads: input generation from the seed, the reference each
//! op is checked against, and the per-rank closed loop.

use crate::metrics::median;
use crate::trace::{Recorder, Span};
use sa_apps::bc::{bc_batches_1d_session, bc_serial, pick_sources};
use sa_apps::mcl::{mcl_1d_session, normalize_columns, MclConfig};
use sa_dist::reference::serial_spgemm;
use sa_dist::{
    analyze_1d, prepare, spgemm_1d, uniform_offsets, CacheConfig, DistMat1D, Plan1D, SessionStats,
    SpgemmSession, Strategy,
};
use sa_mpisim::{Comm, CommStats, PhaseTimes, ProcComm, Universe, Wire, WireError};
use sa_sparse::gen::{banded, rmat};
use sa_sparse::spgemm::symbolic::upper_bound_flops;
use sa_sparse::{Coo, Csc, Dcsc, Vidx};
use std::time::{Duration, Instant};

/// Ranks per job: one per core of the 2-core host the sizes were chosen on.
pub const RANKS: usize = 2;
/// Compute threads per rank.
pub const THREADS_PER_RANK: usize = 1;
const RMAT_PROBS: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);
const BC_BATCHES: usize = 4;
const BC_BATCH: usize = 32;
/// Ops per launch at least: the warm-up and two measured ones.
const MIN_OPS: u64 = 3;
/// Peak RSS is read after this many ops of a launch, so that it does not
/// grow with the number of ops a launch fits: the procs backend keeps every
/// exposed window registered until the rank exits, about one copy of the
/// local `A` slice per multiply.
const RSS_AT_OPS: u64 = 8;
/// Relative tolerance of distributed BC scores against serial Brandes (the
/// reduction order differs, so the scores agree to rounding, not bits).
const BC_RTOL: f64 = 1e-9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SquareBanded,
    SquareScrambled,
    BcSession,
    MclSession,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SquareBanded,
        Workload::SquareScrambled,
        Workload::BcSession,
        Workload::MclSession,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SquareBanded => "square-banded",
            Workload::SquareScrambled => "square-scrambled",
            Workload::BcSession => "bc-session",
            Workload::MclSession => "mcl-session",
        }
    }

    pub fn is_square(self) -> bool {
        matches!(self, Workload::SquareBanded | Workload::SquareScrambled)
    }
}

/// `MclConfig::default()` capped at 12 expansion rounds, so that every op
/// does the same work: uncapped, the seed decides between 13 and 19 rounds
/// on `rmat(10, 8)`, and the op time then spreads by more than 10% across
/// seeds.
pub fn mcl_config() -> MclConfig {
    MclConfig {
        max_iters: 12,
        ..MclConfig::default()
    }
}

/// Generated inputs plus the reference every op is checked against. Built
/// once in the parent process, before any timing; forked ranks inherit it.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The matrix handed to the program (before `prepare` for the square
    /// workloads, the graph for BC and MCL).
    pub a: Csc<f64>,
    strategy: Strategy,
    /// Square workloads: per-column digest of the reference product.
    ref_digest: Vec<u64>,
    batches: Vec<Vec<Vidx>>,
    ref_scores: Vec<Vec<f64>>,
    ref_clusters: Vec<u32>,
    ref_iters: usize,
    /// Operands of the one characteristic multiply the traced run probes
    /// (the op's own product for the square workloads, a BC forward level
    /// and the first MCL expansion otherwise).
    pub probe_a: Csc<f64>,
    pub probe_b: Csc<f64>,
    /// Exact upper-bound flops of the probe product.
    pub flops: u64,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut inp = Inputs {
            workload,
            seed,
            a: Csc::zeros(0, 0),
            strategy: Strategy::Original,
            ref_digest: Vec::new(),
            batches: Vec::new(),
            ref_scores: Vec::new(),
            ref_clusters: Vec::new(),
            ref_iters: 0,
            probe_a: Csc::zeros(0, 0),
            probe_b: Csc::zeros(0, 0),
            flops: 0,
        };
        match workload {
            Workload::SquareBanded | Workload::SquareScrambled => {
                inp.a = banded(5000, 90, 0.35, false, seed);
                if workload == Workload::SquareScrambled {
                    inp.strategy = Strategy::RandomPerm { seed };
                }
                let prepared = prepare(&inp.a, RANKS, inp.strategy).a;
                inp.ref_digest = digest_cols(&serial_spgemm(&prepared, &prepared));
                inp.probe_b = prepared.clone();
                inp.probe_a = prepared;
            }
            Workload::BcSession => {
                inp.a = rmat(12, 8, RMAT_PROBS, seed);
                let n = inp.a.ncols();
                let sources = pick_sources(n, BC_BATCHES * BC_BATCH, seed);
                inp.batches = sources.chunks(BC_BATCH).map(<[Vidx]>::to_vec).collect();
                inp.ref_scores = inp.batches.iter().map(|b| bc_serial(&inp.a, b)).collect();
                // the forward step of BC's first level: Ãᵀ·F, F = one column
                // per source of the first batch
                inp.probe_a = inp.a.map(|_| 1.0).transpose();
                let mut f = Coo::new(n, BC_BATCH);
                for (j, &s) in inp.batches[0].iter().enumerate() {
                    f.push(s, j as Vidx, 1.0);
                }
                inp.probe_b = f.to_csc_with(|x, _| x);
            }
            Workload::MclSession => {
                inp.a = rmat(10, 8, RMAT_PROBS, seed);
                let (clusters, iters, _) = Universe::new(1)
                    .run(|c| {
                        mcl_1d_session(
                            c,
                            &inp.a,
                            &mcl_config(),
                            &Plan1D::default(),
                            CacheConfig::unlimited(),
                        )
                    })
                    .remove(0);
                inp.ref_clusters = clusters;
                inp.ref_iters = iters;
                // MCL's first expansion squares the self-looped,
                // column-normalized graph
                let mut coo = inp.a.to_coo();
                for v in 0..inp.a.ncols() {
                    coo.push(v as Vidx, v as Vidx, 1.0);
                }
                let mut m0 = coo.to_csc_with(|x, y| x + y);
                normalize_columns(&mut m0);
                inp.probe_b = m0.clone();
                inp.probe_a = m0;
            }
        }
        inp.flops = upper_bound_flops(&inp.probe_a, &inp.probe_b);
        inp
    }
}

/// Order-sensitive digest of each column's row ids and value bits.
fn digest_col(rows: &[Vidx], vals: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ rows.len() as u64;
    for (&r, &v) in rows.iter().zip(vals) {
        h = (h ^ r as u64).wrapping_mul(0x0000_0100_0000_01b3);
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_cols(m: &Csc<f64>) -> Vec<u64> {
    (0..m.ncols())
        .map(|j| {
            let (r, v) = m.col(j);
            digest_col(r, v)
        })
        .collect()
}

/// Does this rank's slice of `C` match the reference, column by column?
fn slice_matches(local: &Dcsc<f64>, base: usize, reference: &[u64]) -> bool {
    let empty = digest_col(&[], &[]);
    let mut got = vec![empty; local.ncols()];
    for (j, rows, vals) in local.iter_cols() {
        got[j as usize] = digest_col(rows, vals);
    }
    got[..] == reference[base..base + local.ncols()]
}

/// One op as one rank saw it.
#[derive(Clone, Debug, Default)]
pub struct OpRec {
    pub ok: bool,
    pub traced: bool,
    pub warmup: bool,
    /// Barrier to barrier.
    pub wall_s: f64,
    /// Time spent in the post-op barrier.
    pub wait_s: f64,
    /// This rank's traffic during the op (barriers excluded).
    pub comm: CommStats,
    /// The program's own stage split of the op's multiply (square workloads).
    pub phases: PhaseTimes,
    pub needed_bytes: u64,
    pub fetched_bytes: u64,
    pub bc_forward_s: f64,
    pub bc_backward_s: f64,
    pub bc_levels: u64,
    pub session: SessionStats,
    pub mcl_iters: u64,
}

impl Wire for OpRec {
    fn put(&self, out: &mut Vec<u8>) {
        (self.ok, self.traced, self.warmup).put(out);
        (self.wall_s, self.wait_s).put(out);
        self.comm.put(out);
        self.phases.put(out);
        (self.needed_bytes, self.fetched_bytes).put(out);
        (self.bc_forward_s, self.bc_backward_s, self.bc_levels).put(out);
        self.session.put(out);
        self.mcl_iters.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (ok, traced, warmup) = Wire::get(buf)?;
        let (wall_s, wait_s) = Wire::get(buf)?;
        let comm = Wire::get(buf)?;
        let phases = Wire::get(buf)?;
        let (needed_bytes, fetched_bytes) = Wire::get(buf)?;
        let (bc_forward_s, bc_backward_s, bc_levels) = Wire::get(buf)?;
        Ok(OpRec {
            ok,
            traced,
            warmup,
            wall_s,
            wait_s,
            comm,
            phases,
            needed_bytes,
            fetched_bytes,
            bc_forward_s,
            bc_backward_s,
            bc_levels,
            session: Wire::get(buf)?,
            mcl_iters: Wire::get(buf)?,
        })
    }
}

/// Layer probes made once per launch in the traced run.
#[derive(Clone, Debug, Default)]
pub struct Probes {
    pub barrier_s: f64,
    pub analyze_s: f64,
    /// `analyze_1d`'s plan for the probe product on this rank.
    pub planned_bytes: u64,
    pub planned_gets: u64,
    /// What the probe multiply metered (bc/mcl) — compared to the plan.
    pub metered_bytes: u64,
    pub metered_gets: u64,
    pub needed_bytes: u64,
    pub fetched_bytes: u64,
    pub distribute_s: f64,
    pub session_create_s: f64,
    /// Stage split of the probe multiply through a session (bc/mcl).
    pub phases: PhaseTimes,
}

impl Wire for Probes {
    fn put(&self, out: &mut Vec<u8>) {
        (self.barrier_s, self.analyze_s).put(out);
        (self.planned_bytes, self.planned_gets).put(out);
        (self.metered_bytes, self.metered_gets).put(out);
        (self.needed_bytes, self.fetched_bytes).put(out);
        (self.distribute_s, self.session_create_s).put(out);
        self.phases.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (barrier_s, analyze_s) = Wire::get(buf)?;
        let (planned_bytes, planned_gets) = Wire::get(buf)?;
        let (metered_bytes, metered_gets) = Wire::get(buf)?;
        let (needed_bytes, fetched_bytes) = Wire::get(buf)?;
        let (distribute_s, session_create_s) = Wire::get(buf)?;
        Ok(Probes {
            barrier_s,
            analyze_s,
            planned_bytes,
            planned_gets,
            metered_bytes,
            metered_gets,
            needed_bytes,
            fetched_bytes,
            distribute_s,
            session_create_s,
            phases: Wire::get(buf)?,
        })
    }
}

/// Everything one rank reports for one launch.
#[derive(Clone, Debug, Default)]
pub struct RankRun {
    pub warmup: bool,
    /// Launch (parent side) to the end of the post-setup barrier.
    pub setup_s: f64,
    pub prepare_s: f64,
    pub distribute_s: f64,
    /// Upper-bound flops of this rank's share of the square product.
    pub flops: u64,
    pub peak_rss_kb: u64,
    pub ops: Vec<OpRec>,
    pub probes: Probes,
    pub spans: Vec<Span>,
}

impl Wire for RankRun {
    fn put(&self, out: &mut Vec<u8>) {
        (self.warmup, self.setup_s, self.prepare_s, self.distribute_s).put(out);
        (self.flops, self.peak_rss_kb).put(out);
        self.ops.put(out);
        self.probes.put(out);
        self.spans.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (warmup, setup_s, prepare_s, distribute_s) = Wire::get(buf)?;
        let (flops, peak_rss_kb) = Wire::get(buf)?;
        Ok(RankRun {
            warmup,
            setup_s,
            prepare_s,
            distribute_s,
            flops,
            peak_rss_kb,
            ops: Wire::get(buf)?,
            probes: Wire::get(buf)?,
            spans: Wire::get(buf)?,
        })
    }
}

/// How one launch is driven.
pub struct LaunchCfg {
    /// Parent-side instant just before the ranks are forked.
    pub launched: Instant,
    /// Span epoch shared by every launch of the run.
    pub epoch: Instant,
    /// Measured-loop budget of this launch.
    pub budget: Duration,
    /// Warm-up launch: its ops are checked but not timed. The first launch
    /// of a run is consistently slower than the rest on the 2-core host, and
    /// being a tenth of the samples it would decide `op_s.p90` alone.
    pub warmup: bool,
    /// Traced run: probes, spans on every other op.
    pub trace: bool,
    /// Op ids of this launch start here (unique across the run).
    pub op_base: u64,
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The per-rank body of one launch: setup, traced-run probes, then the
/// closed loop of ops until rank 0's budget runs out.
pub fn rank_job(comm: &ProcComm, inp: &Inputs, cfg: &LaunchCfg) -> RankRun {
    let me = comm.rank();
    let plan = Plan1D::default();
    let mut run = RankRun {
        warmup: cfg.warmup,
        ..RankRun::default()
    };

    // --- setup: prepare and distribute the operand (square workloads; BC
    // and MCL distribute inside the op) ---
    let square = if inp.workload.is_square() {
        let t = Instant::now();
        let prep = prepare(&inp.a, comm.size(), inp.strategy);
        run.prepare_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let da = DistMat1D::from_global(comm, &prep.a, &prep.offsets);
        run.distribute_s = t.elapsed().as_secs_f64();
        run.flops = upper_bound_flops(&prep.a, da.local());
        Some((da, prep.offsets[me]))
    } else {
        None
    };
    comm.barrier();
    run.setup_s = cfg.launched.elapsed().as_secs_f64();

    // at most 8 spans per op, so per-launch id ranges never overlap
    let mut rec = Recorder::new(cfg.epoch, me, cfg.op_base * 8 + 1);
    if cfg.trace {
        run.probes = probe_layers(comm, inp, &plan, square.as_ref().map(|s| &s.0));
    }

    // --- the closed loop: one op in flight, rank 0 decides when to stop ---
    let loop0 = Instant::now();
    for i in 0u64.. {
        let more = me == 0 && (i < MIN_OPS || loop0.elapsed() < cfg.budget);
        if comm.allreduce(more as u64, |x, y| x.max(y)) == 0 {
            break;
        }
        let op_id = cfg.op_base + i;
        let mut op = OpRec {
            warmup: cfg.warmup || i == 0,
            traced: cfg.trace && i % 2 == 1,
            ..OpRec::default()
        };
        comm.barrier();
        let t0 = Instant::now();
        let s0 = comm.stats();
        let out = match &square {
            Some((da, _)) => {
                let (c, rep) = spgemm_1d(comm, da, da, &plan);
                op.phases = rep.phases;
                op.needed_bytes = rep.needed_bytes;
                op.fetched_bytes = rep.fetched_bytes;
                Output::Square(c)
            }
            None if inp.workload == Workload::BcSession => {
                let (outs, stats) = bc_batches_1d_session(
                    comm,
                    &inp.a,
                    &inp.batches,
                    &plan,
                    CacheConfig::unlimited(),
                );
                let last = stats.last().copied().unwrap_or_default();
                op.session = sum_sessions(&last.forward, &last.backward);
                for o in &outs {
                    op.bc_forward_s += o.times.forward_s.iter().sum::<f64>();
                    op.bc_backward_s += o.times.backward_s.iter().sum::<f64>();
                    op.bc_levels += o.levels as u64;
                }
                Output::Bc(outs.into_iter().map(|o| o.scores).collect())
            }
            None => {
                let (clusters, iters, stats) =
                    mcl_1d_session(comm, &inp.a, &mcl_config(), &plan, CacheConfig::unlimited());
                op.session = stats;
                op.mcl_iters = iters as u64;
                Output::Mcl(clusters, iters)
            }
        };
        op.comm = comm.stats() - s0;
        let t1 = Instant::now();
        comm.barrier();
        let t2 = Instant::now();
        op.wall_s = (t2 - t0).as_secs_f64();
        op.wait_s = (t2 - t1).as_secs_f64();
        if op.traced {
            let (t0, t1, t2) = (rec.at(t0), rec.at(t1), rec.at(t2));
            record_op_spans(&mut rec, &op, op_id, t0, t1, t2);
        }
        // verification, outside the timed interval
        op.ok = match out {
            Output::Square(c) => {
                let base = square.as_ref().map_or(0, |s| s.1);
                slice_matches(c.local(), base, &inp.ref_digest)
            }
            Output::Bc(scores) => scores.iter().zip(&inp.ref_scores).all(|(got, want)| {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| (g - w).abs() <= BC_RTOL * w.abs().max(1.0))
            }),
            Output::Mcl(clusters, iters) => clusters == inp.ref_clusters && iters == inp.ref_iters,
        };
        run.ops.push(op);
        if i + 1 == RSS_AT_OPS {
            run.peak_rss_kb = peak_rss_kb();
        }
    }
    if run.peak_rss_kb == 0 {
        run.peak_rss_kb = peak_rss_kb();
    }
    run.spans = rec.spans;
    run
}

enum Output {
    Square(DistMat1D),
    Bc(Vec<Vec<f64>>),
    Mcl(Vec<u32>, usize),
}

fn sum_sessions(a: &SessionStats, b: &SessionStats) -> SessionStats {
    SessionStats {
        multiplies: a.multiplies + b.multiplies,
        fresh_bytes: a.fresh_bytes + b.fresh_bytes,
        cache_hit_bytes: a.cache_hit_bytes + b.cache_hit_bytes,
        rdma_msgs: a.rdma_msgs + b.rdma_msgs,
        a_updates: a.a_updates + b.a_updates,
        invalidated_cols: a.invalidated_cols + b.invalidated_cols,
    }
}

/// Spans of one traced op: the op itself, the call into the program, the
/// call's stages (from the program's report) and the post-op barrier.
fn record_op_spans(rec: &mut Recorder, op: &OpRec, id: u64, t0: f64, t1: f64, t2: f64) {
    let root = rec.span("op", 0, id, t0, t2);
    if op.bc_levels > 0 {
        let call = rec.span("bc.call", root, id, t0, t1);
        rec.stages(
            call,
            id,
            t0,
            &[
                ("bc.forward", op.bc_forward_s),
                ("bc.backward", op.bc_backward_s),
            ],
        );
    } else if op.mcl_iters > 0 {
        rec.span("mcl.call", root, id, t0, t1);
    } else {
        let call = rec.span("spgemm1d.call", root, id, t0, t1);
        let p = &op.phases;
        rec.stages(
            call,
            id,
            t0,
            &[
                ("spgemm.symbolic", p.symbolic_s),
                ("window.fetch", p.fetch_s),
                ("spgemm1d.assemble", p.assemble_s),
                ("spgemm.compute", p.compute_s),
            ],
        );
    }
    rec.span("proc.wait", root, id, t1, t2);
}

/// One-per-launch layer probes of the traced run.
fn probe_layers(
    comm: &ProcComm,
    inp: &Inputs,
    plan: &Plan1D,
    square: Option<&DistMat1D>,
) -> Probes {
    let mut p = Probes::default();
    let mut laps = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        comm.barrier();
        laps.push(t.elapsed().as_secs_f64());
    }
    p.barrier_s = median(&laps);

    let distribute =
        |m: &Csc<f64>| DistMat1D::from_global(comm, m, &uniform_offsets(m.ncols(), comm.size()));
    let t = Instant::now();
    let (pa, pb) = match square {
        Some(da) => (da.clone(), da.clone()),
        None => (distribute(&inp.probe_a), distribute(&inp.probe_b)),
    };
    p.distribute_s = t.elapsed().as_secs_f64();

    let mut laps = Vec::new();
    let mut analysis = None;
    for _ in 0..3 {
        let t = Instant::now();
        analysis = Some(analyze_1d(comm, &pa, &pb, plan.fetch_mode));
        laps.push(t.elapsed().as_secs_f64());
    }
    p.analyze_s = median(&laps);
    let analysis = analysis.expect("three analyses ran");
    p.planned_bytes = analysis.planned_fetch_bytes;
    p.planned_gets = analysis.planned_intervals * 2;

    if square.is_none() {
        let (_c, rep) = spgemm_1d(comm, &pa, &pb, plan);
        p.metered_bytes = rep.comm.rdma_get_bytes;
        p.metered_gets = rep.comm.rdma_gets;
        p.needed_bytes = rep.needed_bytes;
        p.fetched_bytes = rep.fetched_bytes;
        let t = Instant::now();
        let mut session = SpgemmSession::create(comm, pa, *plan, CacheConfig::unlimited());
        p.session_create_s = t.elapsed().as_secs_f64();
        let (_c, rep) = session.multiply(comm, &pb);
        p.phases = rep.phases;
    }
    p
}
