//! Analysis-pipeline throughput on large traces. Temporal locality counts
//! every covered sector; it adds one over a slice of each 4096-sector
//! counter page a request covers. `bench_gate` gates the full summary on
//! the 100 K-record trace as `analysis/summary_100k`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use essio_bench::synthetic_trace;
use essio_trace::analysis::{self, TraceSummary};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    g.sample_size(20);

    for n in [10_000usize, 100_000] {
        let records = synthetic_trace(n);
        g.bench_with_input(BenchmarkId::new("full_summary", n), &records, |b, recs| {
            b.iter(|| {
                black_box(TraceSummary::compute(
                    black_box(recs),
                    2_000_000_000,
                    1_000_000,
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("spatial_only", n), &records, |b, recs| {
            b.iter(|| {
                black_box(analysis::SpatialLocality::compute(
                    black_box(recs),
                    100_000,
                    1_000_000,
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("temporal_only", n), &records, |b, recs| {
            b.iter(|| {
                black_box(analysis::TemporalLocality::compute(
                    black_box(recs),
                    2_000_000_000,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
