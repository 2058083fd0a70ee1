//! Closed-loop benchmark of the sparsity-aware SpGEMM runtime.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload square-banded --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One parent process, one op in flight: each run launches the job
//! several times on the process-per-rank backend (`Universe::try_run_procs`,
//! 2 ranks, 1 compute thread each, library-default `Plan1D`, `MclConfig`
//! capped at 12 rounds, prefetch off); within a launch, rank 0 runs ops back
//! to back until the launch's share of `--seconds` is spent. Every op is checked against a
//! reference computed once before timing. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer metrics of a traced run and writes its
//! spans under `.perfbench/`. The last stdout line is one JSON object; the
//! exit code is non-zero when any op failed, was wrong, or its traffic
//! drifted. See `perfbench/README.md` for the workloads and the
//! layer-to-end-to-end map.

mod metrics;
mod trace;
mod work;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use work::{Inputs, LaunchCfg, Workload};

/// Runtime knobs that would change what is measured (forked ranks inherit
/// the environment); the benchmark refuses to start when any is set.
const KNOBS: [&str; 14] = [
    "SA_BACKEND",
    "SA_THREADS",
    "SA_PREFETCH",
    "SA_PREFETCH_BYTES",
    "SA_LOSSY_RATE",
    "SA_LOSSY_MODE",
    "SA_FAULT_SEED",
    "SA_HEARTBEAT_SECS",
    "SA_WATCHDOG_SECS",
    "SA_MAX_RESTARTS",
    "SA_SCALE",
    "SA_QUICK",
    "SA_REPS",
    "SA_AUTO",
];

/// Measured launches per run (after one warm-up launch): `setup_s` is the
/// median over these, and each gets an equal share of `--seconds`.
const LAUNCHES: u32 = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SquareBanded,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == val)
                    .ok_or(format!("unknown workload {val:?}"))?
            }
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <square-banded|square-scrambled|bc-session|mcl-session> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!(
            "perfbench: refusing to start: runtime knob {var} is set; the benchmark measures \
             the library defaults and forked ranks would inherit it. Unset {var} and rerun."
        );
        return ExitCode::from(2);
    }

    println!(
        "config: workload={} seed={} seconds={} trace={} backend=procs ranks={} \
         threads_per_rank={} plan={:?} mcl={:?} cache=unlimited prefetch=off launches={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        work::RANKS,
        work::THREADS_PER_RANK,
        sa_dist::Plan1D::default(),
        work::mcl_config(),
        LAUNCHES,
    );

    let inputs = Inputs::generate(args.workload, args.seed);
    let epoch = Instant::now();
    let budget = Duration::from_secs(args.seconds) / LAUNCHES;
    let universe = sa_mpisim::Universe::with_threads(work::RANKS, work::THREADS_PER_RANK);
    let mut launches = Vec::new();
    let mut failures = Vec::new();
    let mut op_base = 0u64;
    for launch in 0..=LAUNCHES {
        let cfg = LaunchCfg {
            launched: Instant::now(),
            epoch,
            budget,
            warmup: launch == 0,
            trace: args.trace,
            op_base,
        };
        let outcomes = universe.try_run_procs(|comm| work::rank_job(comm, &inputs, &cfg));
        let mut ranks = Vec::new();
        for (rank, o) in outcomes.into_iter().enumerate() {
            match o {
                Ok(r) => ranks.push(r),
                Err(e) => failures.push(format!("rank {rank} failed: {e}")),
            }
        }
        if ranks.len() != work::RANKS {
            break;
        }
        op_base += ranks[0].ops.len() as u64;
        launches.push(ranks);
    }

    let result = metrics::summarize(&inputs, &launches, args.trace);
    let mut ok = failures.is_empty();
    for f in failures.iter().chain(&result.errors) {
        eprintln!("perfbench: {f}");
        ok = false;
    }
    for line in &result.lines {
        println!("{line}");
    }
    // a failed launch counts as one attempted, failed op
    let attempted = result.attempted + (!failures.is_empty()) as u64;
    let failed = result.failed + (!failures.is_empty()) as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        ok && failed == 0,
        metrics::to_json(&result.metrics)
    );
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
