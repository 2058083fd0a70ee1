//! Per-stage wall-clock timing of one distributed multiply. The paper's
//! breakdown legend (Figures 4, 8, 10) — *communication*, *computation*,
//! *other* — reads off it as `fetch`, `compute`, and the rest of the
//! call's wall time.

/// Wall-clock split of one SpGEMM call into the four stages of the
/// pipeline. `symbolic` is the metadata / needed-column / fetch-planning
/// work plus window exposure, `fetch` the data movement, `assemble` the
/// `Ã` (and output) structure builds excluding the data movement, and
/// `compute` the local kernel. Benches report these as millis to show where
/// a scheduling or caching change moved the time.
///
/// `fetch` counts every leg that moves operand or result data, not just the
/// one-sided window gets: the SUMMA broadcasts, the 2D `B` request/ship
/// exchange, the outer product's expand and reduce all-to-alls, and the 3D
/// fiber reduce-scatter. So the paper's *comm* is `fetch_s`, its *comp* is
/// `compute_s`, and its *other* is whatever of the call's own span (the
/// report's `wall_s`) the two leave over.
///
/// Without overlap the stages are disjoint spans, so `fetch_s + compute_s`
/// never exceeds the call's wall time. Under comm/comp overlap the stages
/// are measured independently and may sum to more than it.
///
/// These are wall-clock spans, so the *blocking* stages' meaning depends
/// on the backend executing the ranks: under `ThreadComm` on dedicated
/// cores, a span wrapping a blocking call (a receive, a broadcast leg)
/// measures genuine wait skew; under the serial `SimComm` scheduler the
/// same span also contains whatever other ranks executed while this rank
/// held no run permit — up to the whole job, so per-rank `fetch_s` and
/// `symbolic_s` around blocking calls are **not** comparable across
/// backends and are not a wait-skew measure under `SimComm`. Compute spans
/// (`compute_s`) never block and are interference-free under `SimComm`.
/// For backend-honest quantities use `rank_active_seconds` (own work) and
/// the α–β model over the exact metered traffic (network time) — the
/// convention the benches print (`sa_bench::modeled_total`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    pub symbolic_s: f64,
    pub fetch_s: f64,
    pub compute_s: f64,
    pub assemble_s: f64,
}

impl PhaseTimes {
    /// Σ of the four phases.
    pub fn total_s(&self) -> f64 {
        self.symbolic_s + self.fetch_s + self.compute_s + self.assemble_s
    }
}

impl std::ops::Add for PhaseTimes {
    type Output = PhaseTimes;
    fn add(self, o: PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            symbolic_s: self.symbolic_s + o.symbolic_s,
            fetch_s: self.fetch_s + o.fetch_s,
            compute_s: self.compute_s + o.compute_s,
            assemble_s: self.assemble_s + o.assemble_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_times_add_and_total() {
        let p = PhaseTimes {
            symbolic_s: 0.5,
            fetch_s: 1.0,
            compute_s: 2.0,
            assemble_s: 0.5,
        };
        let s = p + p;
        assert_eq!(s.total_s(), 8.0);
        assert_eq!(s.fetch_s, 2.0);
        assert_eq!(PhaseTimes::default().total_s(), 0.0);
    }
}
