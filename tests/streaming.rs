//! Streaming analytics vs batch on real experiment traces.
//!
//! Acceptance for the streaming subsystem: on full simulated experiments
//! (not synthetic records), `Experiment::run_streamed` + `finalize` must
//! reproduce `Experiment::run`'s batch `TraceSummary` bit-for-bit, and
//! shard merging must be order-insensitive. Summaries are compared via
//! their JSON rendering — shortest round-trip float formatting is
//! injective on distinct finite `f64`s, so string equality is bit
//! equality field-by-field.

use essio::prelude::*;
use essio_stream::{merge_all, NodeShards, StreamConfig, StreamSummary};
use essio_trace::RecordSink;

fn cfg() -> StreamConfig {
    StreamConfig::paper(essio_disk::DiskGeometry::BEOWULF_500MB.total_sectors())
}

fn json(s: &TraceSummary) -> String {
    serde_json::to_string(s).expect("summary serializes")
}

fn experiment(kind: ExperimentKind, seed: u64) -> Experiment {
    Experiment::new(kind).quick().seed(seed)
}

/// Streaming ≡ batch on three different experiment traces (baseline,
/// wavelet, N-body): identical seeds give identical simulations, so the
/// live tap sees exactly the records the batch run collects — and the
/// finalized summary must match bit-for-bit.
#[test]
fn run_streamed_matches_batch_summary_on_three_experiments() {
    for kind in [
        ExperimentKind::Baseline,
        ExperimentKind::Wavelet,
        ExperimentKind::Nbody,
    ] {
        let batch = experiment(kind, 7).run();
        let (run, sink) = experiment(kind, 7).run_streamed(StreamSummary::new(cfg()));

        assert_eq!(run.duration, batch.duration, "{kind:?}: durations diverge");
        assert_eq!(
            sink.records,
            batch.trace.len() as u64,
            "{kind:?}: record counts diverge"
        );
        assert_eq!(
            json(&sink.finalize(run.duration)),
            json(&batch.summary),
            "{kind:?}: streaming summary must be bit-identical to batch"
        );
    }
}

/// Per-node shards built live from the drain hook reduce to the same
/// summary as one undivided stream, and per-node record counts match the
/// batch trace's per-node decomposition.
#[test]
fn node_shards_reduce_to_whole_cluster_summary() {
    let batch = experiment(ExperimentKind::Wavelet, 11).run();
    let (run, shards) =
        experiment(ExperimentKind::Wavelet, 11).run_streamed(NodeShards::new(2, cfg()));

    for node in 0..2u8 {
        let expect = batch.trace.iter().filter(|r| r.node == node).count() as u64;
        assert_eq!(shards.node(node).records, expect, "node {node} shard count");
    }
    let merged = shards.reduce();
    assert_eq!(json(&merged.finalize(run.duration)), json(&batch.summary));
}

/// Merge associativity on shards of a real trace: random-ish splits,
/// different association orders and a rayon reduction all finalize to the
/// batch summary.
#[test]
fn shard_merges_of_real_trace_are_order_insensitive() {
    let r = experiment(ExperimentKind::Nbody, 3).run();
    let trace = &r.trace;

    // Deterministic "random" 5-way interleaved split.
    let k = 5usize;
    let mut shards: Vec<StreamSummary> = (0..k).map(|_| StreamSummary::new(cfg())).collect();
    for (i, rec) in trace.iter().enumerate() {
        shards[(i * 2654435761) % k].observe(rec);
    }

    let batch = json(&r.summary);
    let parallel = merge_all(shards.clone()).unwrap();
    assert_eq!(json(&parallel.finalize(r.duration)), batch, "rayon reduce");

    let forward = shards
        .iter()
        .cloned()
        .fold(StreamSummary::new(cfg()), |a, b| a.merge(b));
    assert_eq!(json(&forward.finalize(r.duration)), batch, "left fold");

    let backward = shards
        .iter()
        .rev()
        .cloned()
        .fold(StreamSummary::new(cfg()), |a, b| a.merge(b));
    assert_eq!(json(&backward.finalize(r.duration)), batch, "reversed fold");
}

/// The chunked decoder replays a persisted trace into streaming state with
/// one frame resident at a time, reproducing the batch summary of the same file.
#[test]
fn chunked_replay_of_encoded_trace_matches_batch() {
    let r = experiment(ExperimentKind::Baseline, 5).run();
    let encoded = essio_trace::codec::encode_columnar(&r.trace);

    let mut sink = StreamSummary::new(cfg());
    let n = essio_trace::codec::decode_chunked(&encoded[..], &mut sink).expect("clean replay");
    assert_eq!(n, r.trace.len() as u64);
    assert_eq!(json(&sink.finalize(r.duration)), json(&r.summary));
}
