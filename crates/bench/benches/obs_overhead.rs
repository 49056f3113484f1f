//! Cost of the observability plane.
//!
//! Three questions:
//! * what does the *disabled* plane cost a run? (The design goal is zero:
//!   every hook is an inline match on `Obs::Off` that falls straight
//!   through, and the simulated trace is bit-identical either way.)
//! * what does span collection cost when it is actually on — the price of
//!   per-request bookkeeping, the token→span maps and the metric
//!   histograms, still without exporting anything?
//! * what does the exporter alone cost — one precomputed report written
//!   as a Chrome trace into `io::sink()`?
//!
//! The disabled-vs-baseline pair is the number `BENCH_baseline.json`
//! tracks: the acceptance bar for this subsystem is < 3% regression with
//! obs off.

use criterion::{criterion_group, criterion_main, Criterion};
use essio::prelude::*;
use std::hint::black_box;

fn quick() -> Experiment {
    Experiment::combined().quick().seed(17)
}

fn bench(c: &mut Criterion) {
    // Correctness gate first (not timed): the plane must observe without
    // participating — identical traces with obs off and on.
    let off = quick().run();
    let on = quick().obs(true).run();
    assert_eq!(off.trace, on.trace, "obs must not perturb the simulation");
    let report = on.obs.expect("obs(true) yields a report");
    eprintln!(
        "[obs plane] {} spans, {} phys cmds over {:.3}s virtual; export sizes: chrome {} KB, proc {} KB",
        report.spans.len(),
        report.phys.len(),
        on.duration as f64 / 1e6,
        report.chrome_trace().len() / 1024,
        report.proc_text().len() / 1024,
    );

    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    g.bench_function("disabled", |b| {
        b.iter(|| black_box(quick().run().trace.len()))
    });
    g.bench_function("enabled", |b| {
        b.iter(|| black_box(quick().obs(true).run().trace.len()))
    });
    g.bench_function("enabled_with_export", |b| {
        b.iter(|| {
            let r = quick().obs(true).run();
            let report = r.obs.expect("report");
            black_box(report.chrome_trace().len() + report.proc_text().len())
        })
    });
    g.finish();
}

fn export(c: &mut Criterion) {
    let report = quick()
        .obs(true)
        .run()
        .obs
        .expect("obs(true) yields a report");
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    g.bench_function("export", |b| {
        b.iter(|| {
            // Behind `dyn` and `black_box` the sink's writes cannot be
            // inlined away, so every byte is still formatted.
            let mut sink = std::io::sink();
            let out: &mut dyn std::io::Write = black_box(&mut sink);
            report
                .write_chrome_trace(out)
                .expect("the sink takes every byte")
        })
    });
    g.finish();
}

criterion_group!(benches, bench, export);
criterion_main!(benches);
