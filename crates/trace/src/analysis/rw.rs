//! Read/write mix and request rates (Table 1).
//!
//! Table 1 of the paper reports, per experiment: percentage of reads,
//! percentage of writes, requests per second, and total requests (average
//! per disk). The baseline is 100 % writes at ~0.9 req/s; PPM is 4 % reads,
//! wavelet 49 %, N-body 13 %.

use serde::Serialize;

use super::{fold_records, MetricState};
use crate::record::{Op, TraceRecord};
use crate::sink::RecordSink;
use essio_sim::SimTime;

/// Read/write statistics for one experiment trace.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RwStats {
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Total requests.
    pub total: u64,
    /// Run duration, seconds.
    pub duration_s: f64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

/// Incremental read/write mix: the counters behind [`RwStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RwState {
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

impl RwState {
    /// The mix over a run of `duration`.
    pub fn finalize(&self, duration: SimTime) -> RwStats {
        RwStats {
            reads: self.reads,
            writes: self.writes,
            total: self.reads + self.writes,
            duration_s: essio_sim::time::as_secs_f64(duration),
            read_bytes: self.read_bytes,
            write_bytes: self.write_bytes,
        }
    }
}

impl RecordSink for RwState {
    fn observe(&mut self, r: &TraceRecord) {
        match r.op {
            Op::Read => {
                self.reads += 1;
                self.read_bytes += r.bytes() as u64;
            }
            Op::Write => {
                self.writes += 1;
                self.write_bytes += r.bytes() as u64;
            }
        }
    }
}

impl MetricState for RwState {
    fn merge(&mut self, other: Self) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
    }
}

impl RwStats {
    /// Compute the mix over a run of `duration`.
    pub fn compute(records: &[TraceRecord], duration: SimTime) -> Self {
        fold_records(records, RwState::default).finalize(duration)
    }

    /// Percentage of requests that are reads (0 for an empty trace).
    pub fn read_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.reads as f64 * 100.0 / self.total as f64
        }
    }

    /// Percentage of requests that are writes.
    pub fn write_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.writes as f64 * 100.0 / self.total as f64
        }
    }

    /// Requests per second over the run.
    pub fn req_per_sec(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.total as f64 / self.duration_s
        }
    }

    /// A Table-1 row: `name, reads%, writes%, req/s, total`.
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "{:<10} {:>6.0}% {:>6.0}% {:>12.2} {:>14}",
            name,
            self.read_pct(),
            self.write_pct(),
            self.req_per_sec(),
            self.total
        )
    }

    /// Table-1 header matching [`RwStats::table_row`].
    pub fn table_header() -> &'static str {
        "app         reads  writes  requests/sec  total requests"
    }

    /// Short single-line report fragment.
    pub fn report(&self) -> String {
        format!(
            "reads {} ({:.0}%)  writes {} ({:.0}%)  {:.2} req/s over {:.0}s\n",
            self.reads,
            self.read_pct(),
            self.writes,
            self.write_pct(),
            self.req_per_sec(),
            self.duration_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::rec;

    #[test]
    fn mix_and_rates() {
        let recs = vec![
            rec(0.0, 0, 1, Op::Read),
            rec(1.0, 0, 2, Op::Write),
            rec(2.0, 0, 4, Op::Write),
            rec(3.0, 0, 1, Op::Write),
        ];
        let s = RwStats::compute(&recs, 8_000_000);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 3);
        assert!((s.read_pct() - 25.0).abs() < 1e-12);
        assert!((s.write_pct() - 75.0).abs() < 1e-12);
        assert!((s.req_per_sec() - 0.5).abs() < 1e-12);
        assert_eq!(s.read_bytes, 1024);
        assert_eq!(s.write_bytes, (2 + 4 + 1) * 1024);
    }

    #[test]
    fn empty_trace_is_all_zeros() {
        let s = RwStats::compute(&[], 1_000_000);
        assert_eq!(s.read_pct(), 0.0);
        assert_eq!(s.write_pct(), 0.0);
        assert_eq!(s.req_per_sec(), 0.0);
    }

    #[test]
    fn zero_duration_rate_is_zero() {
        let recs = vec![rec(0.0, 0, 1, Op::Write)];
        let s = RwStats::compute(&recs, 0);
        assert_eq!(s.req_per_sec(), 0.0);
    }

    #[test]
    fn table_row_formats() {
        let recs = vec![rec(0.0, 0, 1, Op::Write)];
        let s = RwStats::compute(&recs, 1_000_000);
        let row = s.table_row("Baseline");
        assert!(row.starts_with("Baseline"));
        assert!(row.contains("100%"));
        assert_eq!(
            RwStats::table_header().split_whitespace().count(),
            // app / reads / writes / requests/sec / total+requests
            6
        );
    }
}
