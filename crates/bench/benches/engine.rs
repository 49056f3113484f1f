//! Event-engine hot loops: schedule/pop churn and same-instant FIFO
//! fan-out.
//!
//! These two shapes are the inner loops of every experiment run: the
//! disk-completion chain (each pop schedules a successor) and daemon ticks
//! landing on the same instant across nodes. The simulator only schedules
//! and pops: a daemon tick or disk completion left over from before a node
//! crashed is not cancelled but dropped on delivery by its epoch tag.
//!
//! The payload is sized like the simulator's real `Event` enum (56 bytes;
//! its largest variant carries a PVM `Message`): the heap moves payloads
//! inline while reordering entries, which is part of what these benches
//! measure.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use essio_sim::Engine;
use std::hint::black_box;

const N: u64 = 10_000;

/// Stand-in for the world-loop `Event` enum: same size class, cheap to
/// construct, carries a distinguishing value in `tag`.
#[derive(Clone, Copy)]
struct Payload {
    tag: u64,
    _rest: [u64; 7],
}

impl Payload {
    fn new(tag: u64) -> Self {
        Self { tag, _rest: [0; 7] }
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(N));

    // Disk-completion chain: a small frontier where every pop schedules a
    // successor, N deliveries total.
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut e: Engine<Payload> = Engine::new();
            for i in 0..64u64 {
                e.schedule_at(i, Payload::new(i));
            }
            let mut n = 0u64;
            while let Some((t, v)) = e.pop() {
                n += 1;
                if n >= N {
                    break;
                }
                e.schedule_in(
                    v.tag % 13 + 1,
                    Payload::new(v.tag.wrapping_mul(0x9E37).wrapping_add(t)),
                );
            }
            black_box(n)
        })
    });

    // Daemon ticks across a big cluster all due at one instant: the FIFO
    // tie-break path.
    g.bench_function("same_instant_fifo_10k", |b| {
        b.iter(|| {
            let mut e: Engine<Payload> = Engine::new();
            for i in 0..N {
                e.schedule_at(5, Payload::new(i));
            }
            let mut n = 0u64;
            while e.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
