//! Columnar trace codec throughput, batch encode and decode.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use essio_bench::synthetic_trace;
use essio_trace::codec;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let records = synthetic_trace(100_000);
    let columnar = codec::encode_columnar(&records);

    let mut g = c.benchmark_group("trace_codec");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("encode_columnar", |b| {
        b.iter(|| black_box(codec::encode_columnar(black_box(&records))))
    });
    g.bench_function("decode_columnar", |b| {
        b.iter(|| black_box(codec::decode_columnar(black_box(&columnar)).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
