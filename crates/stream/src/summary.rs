//! The streaming summary and its shard reduction.

use rayon::prelude::*;

use essio_sim::SimTime;
use essio_trace::analysis::spatial::PAPER_BAND_SECTORS;
use essio_trace::analysis::{MetricState, SummaryState, TraceSummary};
use essio_trace::{RecordSink, TraceRecord};

use crate::sketch::LogHistogram;

/// Configuration shared by every shard of one analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Disk size in sectors.
    pub total_sectors: u32,
}

impl StreamConfig {
    /// The paper's analysis parameters for a disk of `total_sectors`.
    pub fn paper(total_sectors: u32) -> Self {
        Self { total_sectors }
    }
}

/// Online form of [`TraceSummary`]: the exact per-metric states
/// ([`SummaryState`]) behind a [`RecordSink`], plus the inter-arrival
/// histogram the batch summary does not report.
///
/// Implements [`RecordSink`], so it plugs directly into the kernel drain
/// path (`Experiment::run_streamed`) or the chunked trace decoder
/// (`essio_trace::codec::decode_chunked`).
#[derive(Debug, Clone)]
pub struct StreamSummary {
    cfg: StreamConfig,
    /// The exact per-metric states [`StreamSummary::finalize`] reads.
    pub exact: SummaryState,
    /// Log-bucket histogram of request inter-arrival gaps, µs.
    pub interarrival_us: LogHistogram,
    /// Earliest record timestamp seen, µs.
    pub first_ts: Option<SimTime>,
    /// Latest record timestamp seen, µs.
    pub last_ts: Option<SimTime>,
}

impl StreamSummary {
    /// Empty summary for a given configuration (the merge identity).
    pub fn new(cfg: StreamConfig) -> Self {
        Self {
            cfg,
            exact: SummaryState::new(PAPER_BAND_SECTORS, cfg.total_sectors),
            interarrival_us: LogHistogram::new(),
            first_ts: None,
            last_ts: None,
        }
    }

    /// The configuration this summary was built with.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// Combine with a summary built over a disjoint record set.
    ///
    /// Exact states merge exactly (associative + commutative); the
    /// inter-arrival histogram accounts for the seam between the two
    /// streams' time ranges with one boundary gap, so totals stay exact
    /// even though bucketing is approximate. Panics on config mismatch.
    pub fn merge(mut self, other: StreamSummary) -> StreamSummary {
        assert_eq!(
            self.cfg, other.cfg,
            "cannot merge summaries with different configs"
        );
        self.exact.merge(other.exact);
        self.interarrival_us.merge(&other.interarrival_us);
        // Boundary gap between the earlier stream's end and the later
        // stream's start (time-split shards; for interleaved shards this is
        // still a defensible seam sample).
        if let (Some(a_last), Some(b_first)) = (self.last_ts, other.first_ts) {
            self.interarrival_us.observe(b_first.saturating_sub(a_last));
        }
        self.first_ts = match (self.first_ts, other.first_ts) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_ts = match (self.last_ts, other.last_ts) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// The [`TraceSummary`] of every observed record for a run of
    /// `duration`: exactly what `TraceSummary::compute(&trace, duration,
    /// total_sectors)` returns on the same records, as both fold the same
    /// states.
    pub fn finalize(&self, duration: SimTime) -> TraceSummary {
        self.exact.finalize(duration)
    }

    /// Human-readable report: the finalized summary's, plus the
    /// inter-arrival line the batch pipeline doesn't have.
    pub fn report(&self, name: &str, duration: SimTime) -> String {
        use std::fmt::Write as _;
        let mut s = self.finalize(duration).report(name);
        let _ = writeln!(
            s,
            "interarrival: mean {:.1} µs, p50 ≥ {} µs, p99 ≥ {} µs ({} gaps)",
            self.interarrival_us.mean(),
            self.interarrival_us.quantile_floor(0.50),
            self.interarrival_us.quantile_floor(0.99),
            self.interarrival_us.total,
        );
        s
    }
}

impl RecordSink for StreamSummary {
    fn observe(&mut self, r: &TraceRecord) {
        self.exact.observe(r);
        if let Some(last) = self.last_ts {
            self.interarrival_us.observe(r.ts.saturating_sub(last));
        }
        self.first_ts = Some(self.first_ts.map_or(r.ts, |t| t.min(r.ts)));
        self.last_ts = Some(self.last_ts.map_or(r.ts, |t| t.max(r.ts)));
    }
}

/// Reduce shards to one summary with a rayon parallel reduce.
///
/// Merge order is data-independent only up to associativity — which the
/// exact states guarantee — so the parallel reduction tree yields the same
/// finalized `TraceSummary` as any sequential fold.
pub fn merge_all(shards: Vec<StreamSummary>) -> Option<StreamSummary> {
    let cfg = shards.first()?.config();
    Some(
        shards
            .into_par_iter()
            .map(|s| s)
            .reduce(move || StreamSummary::new(cfg), |a, b| a.merge(b)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use essio_trace::{Op, Origin};

    fn sample(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                ts: i * 500,
                // Recurs every 20,011 records and reaches past the last
                // band of a 1 M-sector disk.
                sector: (i as u32 * 977) % 20_011 * 53,
                nsectors: 2 * (1 + (i % 4) as u16),
                pending: 0,
                node: (i % 4) as u8,
                op: if i % 5 == 0 { Op::Read } else { Op::Write },
                origin: Origin::ALL[i as usize % Origin::ALL.len()],
            })
            .collect()
    }

    #[test]
    fn batch_chunk_fold_equals_one_record_at_a_time_stream() {
        // Several 16 K-record chunks, so the batch fold really merges
        // per-chunk states across workers.
        let recs = sample(50_000);
        let duration = 50_000 * 500 + 1;
        let mut s = StreamSummary::new(StreamConfig::paper(1_000_000));
        for r in &recs {
            s.observe(r);
        }
        let stream = s.finalize(duration);
        let batch = TraceSummary::compute(&recs, duration, 1_000_000);
        assert!(batch.temporal.mean_interaccess_s > 0.0);
        assert!(!batch.sizes.confusion.is_empty());
        assert_eq!(
            serde_json::to_string(&stream).unwrap(),
            serde_json::to_string(&batch).unwrap(),
        );
    }

    #[test]
    fn a_record_running_past_the_last_sector_address_is_summarized() {
        // A decoded trace can hold any sector: this transfer runs past
        // `u32::MAX`, so it covers the last two sector addresses.
        let recs = vec![TraceRecord {
            ts: 7,
            sector: u32::MAX - 1,
            nsectors: 8,
            pending: 0,
            node: 0,
            op: Op::Write,
            origin: Origin::Unknown,
        }];
        let mut s = StreamSummary::new(StreamConfig::paper(1_000_000));
        s.observe_all(&recs);
        let stream = s.finalize(1_000_000);
        let batch = TraceSummary::compute(&recs, 1_000_000, 1_000_000);
        assert_eq!(batch.temporal.distinct_sectors, 2);
        let hot: Vec<u32> = batch.temporal.hot_spots.iter().map(|h| h.sector).collect();
        assert_eq!(hot, [u32::MAX - 1, u32::MAX]);
        assert_eq!(
            serde_json::to_string(&stream).unwrap(),
            serde_json::to_string(&batch).unwrap(),
        );
    }

    #[test]
    fn shard_merge_equals_whole() {
        let recs = sample(1000);
        let duration = 1_000_000;
        let cfg = StreamConfig::paper(1_000_000);
        let mut whole = StreamSummary::new(cfg);
        whole.observe_all(&recs);

        let mut shards: Vec<StreamSummary> = (0..7).map(|_| StreamSummary::new(cfg)).collect();
        for (i, r) in recs.iter().enumerate() {
            shards[i % 7].observe(r);
        }
        let merged = merge_all(shards).unwrap();
        assert_eq!(
            serde_json::to_string(&merged.finalize(duration)).unwrap(),
            serde_json::to_string(&whole.finalize(duration)).unwrap(),
        );
    }

    #[test]
    fn merge_identity_is_neutral() {
        let recs = sample(100);
        let cfg = StreamConfig::paper(1_000_000);
        let mut s = StreamSummary::new(cfg);
        s.observe_all(&recs);
        let direct = serde_json::to_string(&s.clone().finalize(123_456)).unwrap();
        let left = StreamSummary::new(cfg).merge(s.clone());
        let right = s.merge(StreamSummary::new(cfg));
        assert_eq!(
            serde_json::to_string(&left.finalize(123_456)).unwrap(),
            direct
        );
        assert_eq!(
            serde_json::to_string(&right.finalize(123_456)).unwrap(),
            direct
        );
    }

    #[test]
    #[should_panic(expected = "different configs")]
    fn config_mismatch_panics() {
        let a = StreamSummary::new(StreamConfig::paper(1_000_000));
        let b = StreamSummary::new(StreamConfig::paper(2_000_000));
        let _ = a.merge(b);
    }
}
