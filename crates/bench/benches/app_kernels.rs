//! The three numerical kernels: PPM step, 2-D wavelet analysis, Barnes-Hut
//! tree build, force evaluation and one leapfrog step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use essio_apps::nbody::tree;
use essio_apps::ppm::solver;
use essio_apps::wavelet::transform;
use essio_sim::SimRng;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("app_kernels");
    g.sample_size(20);

    g.bench_function("ppm_step_64x128", |b| {
        let grid = solver::Grid::sod(64, 128);
        b.iter(|| {
            let mut g2 = grid.clone();
            let dt = g2.cfl_dt();
            g2.step(dt, solver::Boundary::Reflective);
            black_box(g2.total_mass())
        })
    });

    for n in [128usize, 256] {
        g.bench_with_input(
            BenchmarkId::new("wavelet_analyze2d_daub4", n),
            &n,
            |b, &n| {
                let bytes: Vec<u8> = (0..n * n).map(|k| (k % 251) as u8).collect();
                let img = transform::Image::from_bytes(n, &bytes);
                b.iter(|| {
                    let mut im = img.clone();
                    transform::analyze_2d(&mut im, 4, transform::Filter::Daub4);
                    black_box(im.energy())
                })
            },
        );
    }

    g.bench_function("nbody_tree_build_2k", |b| {
        let bodies = tree::plummer(2048, &mut SimRng::new(5));
        b.iter(|| black_box(tree::Octree::build(black_box(&bodies)).node_count()))
    });

    // The flat tree's walk allocates nothing per call (the per-call stack
    // `Vec` of the old pointer-tree walk is gone), so this is pure walk.
    g.bench_function("nbody_forces_1k_theta06", |b| {
        let bodies = tree::plummer(1024, &mut SimRng::new(6));
        let t = tree::Octree::build(&bodies);
        b.iter(|| {
            let mut acc = 0.0;
            for body in &bodies {
                let (a, _) = t.accel(body, 0.6);
                acc += a[0];
            }
            black_box(acc)
        })
    });

    g.bench_function("nbody_leapfrog_step_256", |b| {
        let bodies = tree::plummer(256, &mut SimRng::new(42));
        b.iter(|| {
            let mut bs = bodies.clone();
            black_box(tree::leapfrog_step(&mut bs, 0.01, 0.6))
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
