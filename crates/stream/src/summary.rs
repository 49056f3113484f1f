//! The all-in-one streaming summary and its shard reduction.

use rayon::prelude::*;

use essio_sim::SimTime;
use essio_trace::analysis::spatial::PAPER_BAND_SECTORS;
use essio_trace::analysis::{MetricState, SummaryState, TraceSummary};
use essio_trace::{RecordSink, TraceRecord};

use crate::sketch::{LogHistogram, SpaceSaving};

/// Configuration shared by every shard of one analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Spatial band width in sectors (paper: 100,000).
    pub band_sectors: u32,
    /// Disk size in sectors.
    pub total_sectors: u32,
    /// Space-Saving counters for the bounded hot-spot sketch.
    pub hot_capacity: usize,
}

impl StreamConfig {
    /// The paper's analysis parameters for a disk of `total_sectors`.
    pub fn paper(total_sectors: u32) -> Self {
        Self {
            band_sectors: PAPER_BAND_SECTORS,
            total_sectors,
            hot_capacity: 256,
        }
    }
}

/// Online form of [`TraceSummary`]: the exact per-metric states
/// ([`SummaryState`]) behind a [`RecordSink`], plus bounded-memory
/// sketches.
///
/// Implements [`RecordSink`], so it plugs directly into the kernel drain
/// path (`Experiment::run_streamed`), the chunked trace decoder
/// (`essio_trace::codec::decode_chunked`), or a [`NodeShards`] router.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    cfg: StreamConfig,
    /// The exact per-metric states [`StreamSummary::finalize`] reads.
    pub exact: SummaryState,
    /// Bounded-memory hot-spot sketch over starting sectors.
    pub hot_sketch: SpaceSaving<u32>,
    /// Log-bucket histogram of request inter-arrival gaps, µs.
    pub interarrival_us: LogHistogram,
    /// Records observed.
    pub records: u64,
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
            exact: SummaryState::new(cfg.band_sectors, cfg.total_sectors),
            hot_sketch: SpaceSaving::new(cfg.hot_capacity),
            interarrival_us: LogHistogram::new(),
            records: 0,
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
        self.hot_sketch.merge(&other.hot_sketch);
        self.interarrival_us.merge(&other.interarrival_us);
        // Boundary gap between the earlier stream's end and the later
        // stream's start (time-split shards; for interleaved shards this is
        // still a defensible seam sample).
        if let (Some(a_last), Some(b_first)) = (self.last_ts, other.first_ts) {
            self.interarrival_us.observe(b_first.saturating_sub(a_last));
        }
        self.records += other.records;
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
    /// `duration`. With the paper's band width this is exactly what
    /// `TraceSummary::compute(&trace, duration, total_sectors)` returns on
    /// the same records: both fold the same states.
    pub fn finalize(&self, duration: SimTime) -> TraceSummary {
        self.exact.finalize(duration)
    }

    /// Human-readable report (delegates to the finalized summary, plus the
    /// sketch views the batch pipeline doesn't have).
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
        if let Some((sector, c)) = self.hot_sketch.top().first().map(|&(k, c)| (k, c)) {
            let _ = writeln!(
                s,
                "hot sketch: top sector {sector} (count {} ± {}, {} counters)",
                c.count,
                c.err,
                self.hot_sketch.capacity(),
            );
        }
        s
    }
}

impl RecordSink for StreamSummary {
    fn observe(&mut self, r: &TraceRecord) {
        self.exact.observe(r);
        self.hot_sketch.observe(r.sector, 1);
        if let Some(last) = self.last_ts {
            self.interarrival_us.observe(r.ts.saturating_sub(last));
        }
        self.records += 1;
        self.first_ts = Some(self.first_ts.map_or(r.ts, |t| t.min(r.ts)));
        self.last_ts = Some(self.last_ts.map_or(r.ts, |t| t.max(r.ts)));
    }
}

/// Per-node shard router: one [`StreamSummary`] per cluster node, updated
/// live as records arrive from the drain path. Finalize per node, or
/// reduce all shards with [`merge_all`] for the cluster-wide view.
#[derive(Debug, Clone)]
pub struct NodeShards {
    shards: Vec<StreamSummary>,
}

impl NodeShards {
    /// One shard per node, all sharing `cfg`.
    pub fn new(nodes: u8, cfg: StreamConfig) -> Self {
        let nodes = nodes.max(1);
        Self {
            shards: (0..nodes).map(|_| StreamSummary::new(cfg)).collect(),
        }
    }

    /// Shard for one node.
    pub fn node(&self, node: u8) -> &StreamSummary {
        &self.shards[node as usize]
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when there are no shards (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Cluster-wide reduction of all shards.
    pub fn reduce(self) -> StreamSummary {
        merge_all(self.shards).expect("NodeShards always holds >= 1 shard")
    }
}

impl RecordSink for NodeShards {
    fn observe(&mut self, r: &TraceRecord) {
        let i = (r.node as usize).min(self.shards.len() - 1);
        self.shards[i].observe(r);
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
        assert_eq!(merged.records, whole.records);
    }

    #[test]
    fn node_shards_route_by_node() {
        let recs = sample(400);
        let cfg = StreamConfig::paper(1_000_000);
        let mut shards = NodeShards::new(4, cfg);
        shards.observe_all(&recs);
        for node in 0..4u8 {
            let expect = recs.iter().filter(|r| r.node == node).count() as u64;
            assert_eq!(shards.node(node).records, expect);
        }
        let merged = shards.reduce();
        assert_eq!(merged.records, 400);
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
