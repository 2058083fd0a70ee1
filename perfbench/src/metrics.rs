//! Turning the ranks' records into the printed metrics, the exactness
//! checks, and the parent-side probes of the traced run.

use crate::trace::{self, Span};
use crate::work::{Inputs, RankRun, RANKS, THREADS_PER_RANK};
use sa_mpisim::{crc32, Frame, Universe};
use sa_sparse::semiring::PlusTimes;
use std::time::Instant;

/// Share of the op wall the layer spans may leave unattributed on the
/// square workloads.
const RECONCILE_TOLERANCE: f64 = 0.05;

pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
    /// Check failures (wrong output, traffic drift, plan != metered).
    pub errors: Vec<String>,
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn to_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn summarize(inp: &Inputs, launches: &[Vec<RankRun>], traced: bool) -> Summary {
    let mut s = Summary {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        lines: Vec::new(),
        errors: Vec::new(),
    };
    if launches.is_empty() {
        s.errors.push("no launch completed".into());
        return s;
    }

    // --- correctness and exactness over every op of every launch ---
    let mut per_op_traffic: Option<(u64, u64)> = None;
    for (l, ranks) in launches.iter().enumerate() {
        let n = ranks[0].ops.len();
        if ranks.iter().any(|r| r.ops.len() != n) {
            s.errors
                .push(format!("launch {l}: ranks ran different op counts"));
        }
        for i in 0..n {
            s.attempted += 1;
            if ranks.iter().any(|r| r.ops.get(i).is_none_or(|o| !o.ok)) {
                s.failed += 1;
            }
            let traffic = ranks
                .iter()
                .filter_map(|r| r.ops.get(i))
                .fold((0, 0), |t, o| {
                    (t.0 + o.comm.injected_bytes(), t.1 + o.comm.injected_msgs())
                });
            match per_op_traffic {
                None => per_op_traffic = Some(traffic),
                Some(first) if first != traffic => s.errors.push(format!(
                    "traffic drift: launch {l} op {i} moved {traffic:?} (bytes, msgs), \
                     the first op {first:?}"
                )),
                Some(_) => {}
            }
        }
        if traced {
            check_plan(inp, l, ranks, &mut s.errors);
        }
        if inp.workload.is_square() {
            let flops: u64 = ranks.iter().map(|r| r.flops).sum();
            if flops != inp.flops {
                s.errors.push(format!(
                    "flop drift: launch {l} counted {flops} upper-bound flops, expected {}",
                    inp.flops
                ));
            }
        }
    }
    if s.failed > 0 {
        s.errors.push(format!(
            "{} of {} ops produced a wrong result",
            s.failed, s.attempted
        ));
    }
    let (bytes_per_op, msgs_per_op) = per_op_traffic.unwrap_or_default();

    // timings come from the measured launches only, on rank 0
    let measured: Vec<Vec<RankRun>> = launches.iter().filter(|r| !r[0].warmup).cloned().collect();
    let launches = &measured[..];
    let launch_walls: Vec<Vec<f64>> = launches
        .iter()
        .map(|r| {
            r[0].ops
                .iter()
                .filter(|o| !o.warmup)
                .map(|o| o.wall_s)
                .collect()
        })
        .collect();
    let walls = launch_walls.concat();
    let setups: Vec<f64> = launches.iter().map(|r| r[0].setup_s).collect();
    let rss: Vec<f64> = launches
        .iter()
        .map(|r| r.iter().map(|x| x.peak_rss_kb).max().unwrap_or(0) as f64 / 1024.0)
        .collect();
    s.lines.push(format!(
        "ops: {} measured on rank 0 over {} launches (+{} warm-up ops); attempted {} failed {}",
        walls.len(),
        launches.len(),
        s.attempted - walls.len() as u64,
        s.attempted,
        s.failed
    ));
    if walls.is_empty() {
        s.errors.push("no measured op".into());
        return s;
    }

    if !traced {
        // The tail and the throughput are taken per launch and reported as
        // the median over launches: the host loses CPU to other tenants in
        // bursts of a few seconds, and a burst that hits one launch would
        // otherwise set the pooled tail of the whole run.
        let p90s: Vec<f64> = launch_walls.iter().map(|w| percentile(w, 0.9)).collect();
        let rates: Vec<f64> = launch_walls
            .iter()
            .map(|w| ratio(w.len() as f64, w.iter().sum()))
            .collect();
        s.metrics = vec![
            ("setup_s", median(&setups), "s"),
            ("op_s.p50", median(&walls), "s"),
            ("op_s.p90", median(&p90s), "s"),
            ("ops_per_s", median(&rates), "1/s"),
            ("comm_bytes_per_op", bytes_per_op as f64, "bytes"),
            ("comm_msgs_per_op", msgs_per_op as f64, "count"),
            ("peak_rss_mb", median(&rss), "MB"),
            (
                "ok_rate",
                ratio((s.attempted - s.failed) as f64, s.attempted as f64),
                "ratio",
            ),
        ];
    } else {
        layer_metrics(inp, launches, &mut s);
    }
    for (n, v, u) in &s.metrics {
        s.lines.push(format!("{n:<26} {v:>16.6} {u}"));
    }
    s
}

/// In the traced run, `analyze_1d`'s plan must equal what the multiply
/// metered, rank by rank: every op on the square workloads (the op is the
/// analysed product), the probe multiply otherwise.
fn check_plan(inp: &Inputs, launch: usize, ranks: &[RankRun], errors: &mut Vec<String>) {
    for (rank, r) in ranks.iter().enumerate() {
        let p = &r.probes;
        let planned = (p.planned_bytes, p.planned_gets);
        let metered: Vec<(u64, u64)> = if inp.workload.is_square() {
            r.ops
                .iter()
                .map(|o| (o.comm.rdma_get_bytes, o.comm.rdma_gets))
                .collect()
        } else {
            vec![(p.metered_bytes, p.metered_gets)]
        };
        if let Some(m) = metered.iter().find(|&&m| m != planned) {
            errors.push(format!(
                "launch {launch} rank {rank}: analyze_1d planned {planned:?} (bytes, gets), \
                 the multiply metered {m:?}"
            ));
        }
    }
}

/// Per-layer metrics of the traced run: rank 0's times unless noted, byte
/// and message counts summed over ranks.
fn layer_metrics(inp: &Inputs, launches: &[Vec<RankRun>], s: &mut Summary) {
    let square = inp.workload.is_square();
    let r0 = |f: fn(&RankRun) -> f64| -> f64 {
        median(&launches.iter().map(|r| f(&r[0])).collect::<Vec<_>>())
    };
    let measured: Vec<_> = launches
        .iter()
        .flat_map(|r| r[0].ops.iter())
        .filter(|o| !o.warmup)
        .collect();
    let traced_ops: Vec<_> = measured.iter().filter(|o| o.traced).collect();
    let of_traced = |f: &dyn Fn(&crate::work::OpRec) -> f64| -> f64 {
        median(&traced_ops.iter().map(|o| f(o)).collect::<Vec<_>>())
    };
    // an op seen by every rank: (launch, op index) of every measured op
    let all_ops: Vec<Vec<&crate::work::OpRec>> = launches
        .iter()
        .flat_map(|ranks| {
            (1..ranks[0].ops.len()).map(move |i| ranks.iter().map(|r| &r.ops[i]).collect())
        })
        .collect();
    let first = launches[0].iter().map(|r| &r.ops[0]).collect::<Vec<_>>();
    let sum_first = |f: fn(&crate::work::OpRec) -> u64| -> f64 {
        first.iter().map(|o| f(o)).sum::<u64>() as f64
    };

    // stage times: rank 0's in the op's own multiply (square), the slower
    // rank's in the probe multiply (bc/mcl, where one rank may fetch nothing)
    let stage = |f: fn(&sa_mpisim::PhaseTimes) -> f64| -> f64 {
        if square {
            of_traced(&|o| f(&o.phases))
        } else {
            let per_launch = launches
                .iter()
                .map(|r| r.iter().map(|x| f(&x.probes.phases)).fold(0.0, f64::max));
            median(&per_launch.collect::<Vec<_>>())
        }
    };
    let compute_s = stage(|p| p.compute_s);
    let kernel_core_s: f64 = if square {
        median(
            &all_ops
                .iter()
                .map(|ops| ops.iter().map(|o| o.phases.compute_s).sum())
                .collect::<Vec<f64>>(),
        )
    } else {
        median(
            &launches
                .iter()
                .map(|r| r.iter().map(|x| x.probes.phases.compute_s).sum())
                .collect::<Vec<f64>>(),
        )
    };
    let (needed, fetched) = if square {
        (
            sum_first(|o| o.needed_bytes),
            sum_first(|o| o.fetched_bytes),
        )
    } else {
        let p = launches[0].iter().map(|r| &r.probes);
        (
            p.clone().map(|p| p.needed_bytes).sum::<u64>() as f64,
            p.map(|p| p.fetched_bytes).sum::<u64>() as f64,
        )
    };
    let gets = sum_first(|o| o.comm.rdma_gets);
    let get_bytes = sum_first(|o| o.comm.rdma_get_bytes);
    let mean_get = if gets > 0.0 {
        (get_bytes / gets).ceil() as usize
    } else {
        4096
    };
    let (enc, dec, crc) = wire_probe(mean_get.max(1));
    let serial_s = serial_probe(inp);
    let untraced: Vec<f64> = measured
        .iter()
        .filter(|o| !o.traced)
        .map(|o| o.wall_s)
        .collect();
    let traced_walls: Vec<f64> = traced_ops.iter().map(|o| o.wall_s).collect();
    let sess = &first[0].session;
    let sess_sum = |f: fn(&sa_dist::SessionStats) -> u64| -> f64 {
        first.iter().map(|o| f(&o.session)).sum::<u64>() as f64
    };
    let fresh = sess_sum(|x| x.fresh_bytes);
    let hit = sess_sum(|x| x.cache_hit_bytes);

    // reconciliation on rank 0: op wall minus every measured layer span (the
    // op and call containers' own self time is what no layer accounts for)
    let spans: Vec<Span> = launches
        .iter()
        .flat_map(|r| r.iter().flat_map(|x| x.spans.iter().cloned()))
        .collect();
    let selfs = trace::self_times(&spans);
    let mut unattributed = std::collections::BTreeMap::<u64, f64>::new();
    for (i, t) in &selfs {
        let sp = &spans[*i];
        if sp.rank == 0 && (sp.name == "op" || sp.name.ends_with(".call")) {
            *unattributed.entry(sp.op).or_default() += t;
        }
    }
    let op_wall: std::collections::BTreeMap<u64, f64> = spans
        .iter()
        .filter(|sp| sp.rank == 0 && sp.name == "op")
        .map(|sp| (sp.op, sp.dur()))
        .collect();
    let un: Vec<f64> = unattributed.values().copied().collect();
    let un_share: Vec<f64> = unattributed
        .iter()
        .map(|(op, u)| ratio(*u, op_wall[op]))
        .collect();

    let proc_wait = median(
        &all_ops
            .iter()
            .map(|ops| ops.iter().map(|o| o.wait_s).fold(0.0, f64::max))
            .collect::<Vec<_>>(),
    );
    s.metrics = vec![
        ("spgemm.compute_s", compute_s, "s"),
        (
            "spgemm.gflops",
            ratio(inp.flops as f64, kernel_core_s) / 1e9,
            "Gflop/s",
        ),
        ("spgemm.symbolic_s", stage(|p| p.symbolic_s), "s"),
        ("spgemm.flops", inp.flops as f64, "count"),
        ("spgemm.serial_s", serial_s, "s"),
        (
            "spgemm.speedup_vs_serial",
            if square {
                ratio(serial_s, median(&untraced))
            } else {
                0.0
            },
            "ratio",
        ),
        ("spgemm1d.analyze_s", r0(|r| r.probes.analyze_s), "s"),
        ("spgemm1d.needed_bytes", needed, "bytes"),
        ("spgemm1d.fetched_bytes", fetched, "bytes"),
        ("spgemm1d.overfetch", ratio(fetched, needed), "ratio"),
        ("spgemm1d.assemble_s", stage(|p| p.assemble_s), "s"),
        ("window.gets", gets, "count"),
        ("window.get_bytes", get_bytes, "bytes"),
        ("window.fetch_s", stage(|p| p.fetch_s), "s"),
        ("wire.encode_gbps", enc, "GB/s"),
        ("wire.decode_gbps", dec, "GB/s"),
        ("wire.crc_gbps", crc, "GB/s"),
        ("proc.launch_s", launch_probe(), "s"),
        ("proc.barrier_s", r0(|r| r.probes.barrier_s), "s"),
        ("proc.wait_s", proc_wait, "s"),
        ("comm.sent_msgs", sum_first(|o| o.comm.sent_msgs), "count"),
        ("comm.sent_bytes", sum_first(|o| o.comm.sent_bytes), "bytes"),
        (
            "dist1d.distribute_s",
            if square {
                r0(|r| r.distribute_s)
            } else {
                r0(|r| r.probes.distribute_s)
            },
            "s",
        ),
        ("prepare.s", r0(|r| r.prepare_s), "s"),
        (
            "session.create_s",
            if square {
                0.0
            } else {
                r0(|r| r.probes.session_create_s)
            },
            "s",
        ),
        ("session.hit_ratio", ratio(hit, hit + fresh), "ratio"),
        ("session.fresh_bytes", fresh, "bytes"),
        ("session.multiplies", sess.multiplies as f64, "count"),
        (
            "session.invalidated_cols",
            sess_sum(|x| x.invalidated_cols),
            "count",
        ),
        ("session.a_updates", sess.a_updates as f64, "count"),
        ("bc.forward_s", of_traced(&|o| o.bc_forward_s), "s"),
        ("bc.backward_s", of_traced(&|o| o.bc_backward_s), "s"),
        ("bc.levels", first[0].bc_levels as f64, "count"),
        ("mcl.iters", first[0].mcl_iters as f64, "count"),
        ("op.unattributed_s", median(&un), "s"),
        ("op.unattributed_share", median(&un_share), "ratio"),
        (
            "trace.overhead",
            ratio(median(&traced_walls), median(&untraced)),
            "ratio",
        ),
    ];
    s.lines.push(format!(
        "reconciliation: layer self times leave {:.2}% of the op wall unattributed \
         (tolerance {:.0}% on the square workloads); tracing overhead {:.3}x",
        100.0 * median(&un_share),
        100.0 * RECONCILE_TOLERANCE,
        ratio(median(&traced_walls), median(&untraced)),
    ));
    write_trace(inp, &spans, &s.metrics, &mut s.lines, &mut s.errors);
}

/// Keep the traced run's spans and per-layer metrics on disk, under the
/// checkout's `.perfbench/` directory.
fn write_trace(
    inp: &Inputs,
    spans: &[Span],
    metrics: &[(&str, f64, &str)],
    lines: &mut Vec<String>,
    errors: &mut Vec<String>,
) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        inp.workload.name(),
        inp.seed
    ));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"metrics\": {},\n\"spans\": {}}}\n",
        inp.workload.name(),
        inp.seed,
        to_json(metrics),
        trace::to_json(spans)
    );
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        Ok(()) => lines.push(format!(
            "trace: {} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => errors.push(format!("cannot write {}: {e}", path.display())),
    }
}

/// Median of `reps` timings of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let laps: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&laps)
}

/// Frame codec and CRC throughput on a get-response payload of `len` bytes
/// (GB/s of payload). Each timing covers enough frames to move 32 MiB.
fn wire_probe(len: usize) -> (f64, f64, f64) {
    let payload: Vec<u8> = (0..len)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761) as u8)
        .collect();
    let frame = Frame::GetResp {
        req_id: 7,
        payload: payload.clone(),
    };
    let bytes = frame.to_bytes();
    assert_eq!(
        Frame::from_bytes(&bytes).ok(),
        Some(frame.clone()),
        "frame round trip"
    );
    let reps = (32usize << 20).div_ceil(len);
    let gb = (reps * len) as f64 / 1e9;
    let enc = time_median(5, || {
        for _ in 0..reps {
            std::hint::black_box(std::hint::black_box(&frame).to_bytes());
        }
    });
    let dec = time_median(5, || {
        for _ in 0..reps {
            let _ = std::hint::black_box(Frame::from_bytes(std::hint::black_box(&bytes)));
        }
    });
    let crc = time_median(5, || {
        for _ in 0..reps {
            std::hint::black_box(crc32(std::hint::black_box(&payload)));
        }
    });
    (gb / enc, gb / dec, gb / crc)
}

/// Single-threaded `sa_sparse::spgemm` of the probe product, the plain
/// baseline the distributed multiply is compared with.
fn serial_probe(inp: &Inputs) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    time_median(3, || {
        pool.install(|| {
            std::hint::black_box(sa_sparse::spgemm::spgemm::<PlusTimes<f64>, _, _>(
                &inp.probe_a,
                &inp.probe_b,
            ));
        })
    })
}

/// Fork + mesh + teardown of an empty job on the benchmark's universe.
fn launch_probe() -> f64 {
    let universe = Universe::with_threads(RANKS, THREADS_PER_RANK);
    time_median(5, || {
        let out = universe.try_run_procs(|_comm| ());
        assert!(out.iter().all(|o| o.is_ok()), "empty job failed");
    })
}
