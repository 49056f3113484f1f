//! Workload-characterization analyses (paper §3.6 metrics, §4 results).
//!
//! Each submodule computes one family of metrics from [`TraceRecord`]s, so
//! analyses run the same way on live simulation output, on a live tap at
//! the driver drain path, or on traces reloaded through [`crate::codec`]:
//!
//! * [`size`] — request-size histograms and the 1 KB / 4 KB / 16 KB class
//!   decomposition behind Figures 2–5 and the paper's §5 taxonomy.
//! * [`series`] — time-series views (sector scatter for Figures 1 & 6,
//!   size scatter for Figures 2–5, binned rates).
//! * [`spatial`] — per-band request distribution, Lorenz curve and Gini
//!   coefficient (Figure 7, the "80/20 rule" claim).
//! * [`temporal`] — per-sector access frequency, hot spots and inter-access
//!   times (Figure 8).
//! * [`rw`] — read/write mix and request rates (Table 1).
//! * [`phases`] — activity-phase segmentation: the automated version of the
//!   paper's figure narratives (startup burst / ingest spike / lull /
//!   output burst).
//!
//! # One implementation per metric
//!
//! The four [`TraceSummary`] metrics each have exactly one accumulation
//! path: an exact [`MetricState`] ([`RwState`], [`SizeState`],
//! [`SpatialState`], [`TemporalState`]) that folds one record at a time,
//! merges with a state built over a disjoint record set, and finalizes to
//! the figure type beside it. Every state holds integers only, and its
//! `merge` is associative and commutative with the fresh state as
//! identity, so any split of a trace — 16 K-record chunks on rayon workers,
//! per-node shards, per-seed campaign runs — folded shard-locally and
//! merged in any order holds the very integers a serial fold holds. The
//! floats are derived once, in `finalize`. That is why the batch
//! [`TraceSummary::compute`] (a parallel fold, [`fold_records`]) and the
//! streaming `essio-stream` summary (a one-record-at-a-time fold) agree bit
//! for bit without a second implementation to keep in step.

pub mod phases;
pub mod rw;
pub mod series;
pub mod size;
pub mod spatial;
pub mod temporal;

use rayon::prelude::*;
use serde::Serialize;

use crate::record::TraceRecord;
use crate::sink::RecordSink;
use essio_sim::SimTime;

pub use phases::{Phase, PhaseConfig, PhaseKind};
pub use rw::{RwState, RwStats};
pub use size::{ClassBreakdown, SizeClass, SizeHistogram, SizeState};
pub use spatial::{SpatialLocality, SpatialState};
pub use temporal::{SectorSpan, TemporalLocality, TemporalState};

/// An exact, mergeable accumulator over trace records.
///
/// `merge` must be associative and commutative, with a freshly built state
/// as its identity: then folding any split of a trace and merging the
/// parts in any order yields the same state as one serial fold.
pub trait MetricState: RecordSink + Send {
    /// Combine with a state built over a disjoint record set.
    fn merge(&mut self, other: Self);
}

/// Records folded per rayon task by [`fold_records`].
const FOLD_CHUNK: usize = 16 * 1024;

/// Fold `records` into states made by `empty`, in parallel over
/// 16 K-record chunks, and merge the per-chunk states.
pub fn fold_records<S: MetricState>(records: &[TraceRecord], empty: impl Fn() -> S + Sync) -> S {
    records
        .par_chunks(FOLD_CHUNK)
        .fold(&empty, |mut state, chunk| {
            state.observe_all(chunk);
            state
        })
        .reduce(&empty, |mut a, b| {
            a.merge(b);
            a
        })
}

/// Everything the study reports about one trace, in one struct.
#[derive(Debug, Clone, Serialize)]
pub struct TraceSummary {
    /// Read/write mix and rates (Table 1).
    pub rw: RwStats,
    /// Request-size decomposition (Figures 2–5 / §5 taxonomy).
    pub sizes: ClassBreakdown,
    /// Spatial locality per 100 K-sector band (Figure 7).
    pub spatial: SpatialLocality,
    /// Temporal locality / hot spots (Figure 8).
    pub temporal: TemporalLocality,
}

impl TraceSummary {
    /// Compute the full summary for a trace spanning `duration` of virtual
    /// time on a disk with `total_sectors` sectors.
    pub fn compute(records: &[TraceRecord], duration: SimTime, total_sectors: u32) -> Self {
        fold_records(records, || {
            SummaryState::new(spatial::PAPER_BAND_SECTORS, total_sectors)
        })
        .finalize(duration)
    }

    /// Multi-line human-readable report.
    pub fn report(&self, name: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!("=== {name} ===\n"));
        s.push_str(&self.rw.report());
        s.push_str(&self.sizes.report());
        s.push_str(&self.spatial.report());
        s.push_str(&self.temporal.report());
        s
    }
}

/// The four exact states behind one [`TraceSummary`].
#[derive(Debug, Clone)]
pub struct SummaryState {
    /// Read/write mix (Table 1).
    pub rw: RwState,
    /// Size-class decomposition (Figures 2–5).
    pub sizes: SizeState,
    /// Banded spatial locality (Figure 7).
    pub spatial: SpatialState,
    /// Temporal locality / hot spots (Figure 8).
    pub temporal: TemporalState,
}

impl SummaryState {
    /// Empty state for a disk of `total_sectors` split into `band_sectors`
    /// spatial bands.
    pub fn new(band_sectors: u32, total_sectors: u32) -> Self {
        Self {
            rw: RwState::default(),
            sizes: SizeState::default(),
            spatial: SpatialState::new(band_sectors, total_sectors),
            temporal: TemporalState::default(),
        }
    }

    /// The summary of every record folded in, for a run of `duration`.
    pub fn finalize(&self, duration: SimTime) -> TraceSummary {
        TraceSummary {
            rw: self.rw.finalize(duration),
            sizes: self.sizes.finalize(),
            spatial: self.spatial.finalize(),
            temporal: self.temporal.finalize(duration),
        }
    }
}

impl RecordSink for SummaryState {
    fn observe(&mut self, r: &TraceRecord) {
        self.rw.observe(r);
        self.sizes.observe(r);
        self.spatial.observe(r);
        self.temporal.observe(r);
    }
}

impl MetricState for SummaryState {
    fn merge(&mut self, other: Self) {
        self.rw.merge(other.rw);
        self.sizes.merge(other.sizes);
        self.spatial.merge(other.spatial);
        self.temporal.merge(other.temporal);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::record::{Op, Origin, TraceRecord};

    /// Build a record tersely for analysis tests.
    pub fn rec(ts_s: f64, sector: u32, kib: u32, op: Op) -> TraceRecord {
        TraceRecord {
            ts: (ts_s * 1e6) as u64,
            sector,
            nsectors: (kib * 2) as u16,
            pending: 0,
            node: 0,
            op,
            origin: Origin::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::rec;
    use super::*;
    use crate::record::Op;

    #[test]
    fn summary_composes_all_analyses() {
        let recs = vec![
            rec(0.0, 100, 1, Op::Write),
            rec(1.0, 100, 4, Op::Read),
            rec(2.0, 200_000, 16, Op::Read),
        ];
        let s = TraceSummary::compute(&recs, 10_000_000, 1_000_000);
        assert_eq!(s.rw.total, 3);
        assert_eq!(s.sizes.total(), 3);
        let report = s.report("test");
        assert!(report.contains("test"));
        assert!(report.contains("reads"));
    }

    #[test]
    fn summary_serializes_to_json() {
        let recs = vec![rec(0.0, 1, 1, Op::Write)];
        let s = TraceSummary::compute(&recs, 1_000_000, 1_000_000);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"rw\""));
    }
}
