//! Buffer cache throughput: hit path, miss/eviction churn, flush batching,
//! the `update` daemon's flush of a full cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use essio_bench::{flush_tick, full_node_cache};
use essio_kernel::cache::BufferCache;
use essio_trace::Origin;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("buffer_cache");

    g.bench_function("hits_hot_block", |b| {
        let mut cache = BufferCache::new(1536);
        cache.insert_clean(42, Origin::FileData);
        b.iter(|| black_box(cache.touch(black_box(42))))
    });

    for capacity in [256usize, 1536, 8192] {
        g.bench_with_input(
            BenchmarkId::new("churn_10k", capacity),
            &capacity,
            |b, &cap| {
                b.iter(|| {
                    let mut cache = BufferCache::new(cap);
                    for i in 0..10_000u32 {
                        if i % 3 == 0 {
                            cache.mark_dirty(i, Origin::FileData);
                        } else {
                            cache.insert_clean(i, Origin::FileData);
                        }
                    }
                    black_box(cache.len())
                })
            },
        );
    }

    g.bench_function("take_dirty_1k", |b| {
        b.iter(|| {
            let mut cache = BufferCache::new(2048);
            for i in 0..1_000u32 {
                cache.mark_dirty(i * 7 % 2000, Origin::Log);
            }
            black_box(cache.take_dirty().len())
        })
    });

    // The `update` daemon's shape: a full cache, a few dirty blocks per
    // tick. `take_dirty_1k` above flushes an all-dirty cache, so it cannot
    // see what a flush costs per clean resident block.
    g.bench_function("flush_4_of_full_1536", |b| {
        let mut cache = full_node_cache();
        let mut tick = 0u32;
        b.iter(|| {
            tick = tick.wrapping_add(1);
            black_box(flush_tick(&mut cache, tick))
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
