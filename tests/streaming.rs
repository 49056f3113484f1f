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
use essio_stream::{merge_all, StreamConfig, StreamSummary};
use essio_trace::{RecordSink, TraceRecord};

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
        let stream = sink.finalize(run.duration);
        assert_eq!(
            stream.rw.total,
            batch.trace.len() as u64,
            "{kind:?}: record counts diverge"
        );
        assert_eq!(
            json(&stream),
            json(&batch.summary),
            "{kind:?}: streaming summary must be bit-identical to batch"
        );
    }
}

/// A streamed run split by node: the records its drain tap delivers go to
/// one summary per `rec.node`, each shard counts the batch trace's records
/// of that node, and the merged shards equal the whole-cluster batch
/// summary.
#[test]
fn node_shards_reduce_to_whole_cluster_summary() {
    let batch = experiment(ExperimentKind::Wavelet, 11).run();
    let (run, trace) =
        experiment(ExperimentKind::Wavelet, 11).run_streamed(Vec::<TraceRecord>::new());

    let mut shards: Vec<StreamSummary> = (0..2).map(|_| StreamSummary::new(cfg())).collect();
    for rec in &trace {
        shards[rec.node as usize].observe(rec);
    }
    for (node, shard) in shards.iter().enumerate() {
        let expect = batch
            .trace
            .iter()
            .filter(|r| r.node as usize == node)
            .count() as u64;
        assert!(expect > 0, "node {node} issued no requests");
        assert_eq!(
            shard.finalize(run.duration).rw.total,
            expect,
            "node {node} shard count"
        );
    }
    let merged = merge_all(shards).unwrap();
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
