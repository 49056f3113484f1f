//! Batch vs streaming analysis throughput, and shard-merge cost.
//!
//! Three questions:
//! * what does one-record-at-a-time observation cost next to the batch
//!   `TraceSummary::compute`, which folds the same states over record
//!   chunks in parallel?
//! * what does folding a record into a live `StreamSummary` cost at the
//!   drain hook (the per-record price of `run_streamed`)?
//! * how does reducing k shards scale with k (the campaign's merge step)?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use essio_bench::synthetic_trace;
use essio_stream::{merge_all, StreamConfig, StreamSummary};
use essio_trace::analysis::TraceSummary;
use essio_trace::RecordSink;
use std::hint::black_box;

const DURATION: u64 = 2_000_000_000;
const TOTAL_SECTORS: u32 = 1_000_000;

fn cfg() -> StreamConfig {
    StreamConfig::paper(TOTAL_SECTORS)
}

fn bench_batch_vs_streaming(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_vs_batch");
    g.sample_size(15);

    for n in [10_000usize, 100_000] {
        let records = synthetic_trace(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("batch_summary", n), &records, |b, recs| {
            b.iter(|| {
                black_box(TraceSummary::compute(
                    black_box(recs),
                    DURATION,
                    TOTAL_SECTORS,
                ))
            })
        });
        g.bench_with_input(
            BenchmarkId::new("stream_observe_finalize", n),
            &records,
            |b, recs| {
                b.iter(|| {
                    let mut s = StreamSummary::new(cfg());
                    s.observe_all(black_box(recs));
                    black_box(s.finalize(DURATION))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("stream_observe_only", n),
            &records,
            |b, recs| {
                b.iter(|| {
                    let mut s = StreamSummary::new(cfg());
                    s.observe_all(black_box(recs));
                    black_box(s.records)
                })
            },
        );
    }
    g.finish();
}

fn bench_merge_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_merge");
    g.sample_size(15);

    let records = synthetic_trace(100_000);
    for shards in [2usize, 4, 8, 16] {
        // Pre-build k shards over an even split of the trace.
        let built: Vec<StreamSummary> = records
            .chunks(records.len().div_ceil(shards))
            .map(|chunk| {
                let mut s = StreamSummary::new(cfg());
                s.observe_all(chunk);
                s
            })
            .collect();
        g.throughput(Throughput::Elements(shards as u64));
        g.bench_with_input(BenchmarkId::new("merge_all", shards), &built, |b, built| {
            b.iter(|| black_box(merge_all(built.clone()).unwrap().records))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_batch_vs_streaming, bench_merge_cost);
criterion_main!(benches);
