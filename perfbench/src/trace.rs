//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions, kept in a per-rank `Vec`, shipped back to the
//! parent process with the rank's result, and written out once when the run ends.
//! Where a layer's inner stages are only visible through the program's own
//! report (`SpgemmReport::phases`, `BcOutcome::times`), their spans are laid
//! out back to back from the start of the enclosing call, in the order the
//! program executes them; their durations are measured, their positions are
//! reconstructed.

use sa_mpisim::{Wire, WireError};
use std::time::Instant;

/// One timed interval on one rank. Times are seconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for an op's root span.
    pub parent: u64,
    pub op: u64,
    pub rank: u64,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

impl Wire for Span {
    fn put(&self, out: &mut Vec<u8>) {
        self.id.put(out);
        self.parent.put(out);
        self.op.put(out);
        self.rank.put(out);
        self.name.put(out);
        self.start_s.put(out);
        self.end_s.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Span {
            id: Wire::get(buf)?,
            parent: Wire::get(buf)?,
            op: Wire::get(buf)?,
            rank: Wire::get(buf)?,
            name: Wire::get(buf)?,
            start_s: Wire::get(buf)?,
            end_s: Wire::get(buf)?,
        })
    }
}

/// Per-rank recorder. Ids are unique across ranks (rank in the high bits)
/// and across the launches of a run (each launch starts at its own base).
pub struct Recorder {
    epoch: Instant,
    rank: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, rank: usize, first_id: u64) -> Recorder {
        Recorder {
            epoch,
            rank: rank as u64,
            next: first_id,
            spans: Vec::new(),
        }
    }

    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Record a span from `start` to `end` (seconds since the epoch).
    pub fn span(&mut self, name: &str, parent: u64, op: u64, start_s: f64, end_s: f64) -> u64 {
        let id = (self.rank << 48) | self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            rank: self.rank,
            name: name.to_string(),
            start_s,
            end_s,
        });
        id
    }

    /// Record `stages` (name, seconds) back to back from `start_s` under
    /// `parent`; returns where the last one ends.
    pub fn stages(&mut self, parent: u64, op: u64, start_s: f64, stages: &[(&str, f64)]) -> f64 {
        let mut t = start_s;
        for &(name, secs) in stages {
            self.span(name, parent, op, t, t + secs);
            t += secs;
        }
        t
    }
}

/// Self time of every span: its duration minus the time its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(usize, f64)> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered: f64 = spans
                .iter()
                .filter(|c| c.parent == s.id && c.op == s.op && c.rank == s.rank)
                .map(Span::dur)
                .sum();
            (i, s.dur() - covered)
        })
        .collect()
}

/// The spans as a JSON array (one object per line).
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "  {{\"id\": {}, \"parent\": {}, \"op\": {}, \"rank\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.id, s.parent, s.op, s.rank, s.name, s.start_s, s.end_s
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}
