#![cfg(feature = "proptests")]

//! Property tests over the three numerical kernels: the invariants that
//! make them *real* implementations rather than I/O stand-ins.

use essio_apps::nbody::tree;
use essio_apps::ppm::solver;
use essio_apps::wavelet::transform::{
    analyze_1d, analyze_2d, synthesize_1d, synthesize_2d, Filter, Image,
};
use essio_sim::SimRng;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Wavelets: perfect reconstruction and energy preservation for any input
// ---------------------------------------------------------------------

fn signal(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1000.0f64..1000.0, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wavelet_1d_perfect_reconstruction_any_signal(
        x in (2usize..7).prop_flat_map(|k| signal(1 << k)),
        haar in any::<bool>(),
    ) {
        let f = if haar { Filter::Haar } else { Filter::Daub4 };
        let c = analyze_1d(&x, f);
        let y = synthesize_1d(&c, f);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-8 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn wavelet_1d_preserves_energy_any_signal(
        x in (2usize..7).prop_flat_map(|k| signal(1 << k)),
        haar in any::<bool>(),
    ) {
        let f = if haar { Filter::Haar } else { Filter::Daub4 };
        let e0: f64 = x.iter().map(|v| v * v).sum();
        let c = analyze_1d(&x, f);
        let e1: f64 = c.iter().map(|v| v * v).sum();
        prop_assert!((e0 - e1).abs() <= 1e-8 * (1.0 + e0), "{e0} vs {e1}");
    }

    #[test]
    fn wavelet_2d_roundtrip_any_image(
        bytes in prop::collection::vec(any::<u8>(), 256..=256),
        levels in 1usize..4,
        haar in any::<bool>(),
    ) {
        let f = if haar { Filter::Haar } else { Filter::Daub4 };
        let orig = Image::from_bytes(16, &bytes);
        let mut img = orig.clone();
        analyze_2d(&mut img, levels, f);
        synthesize_2d(&mut img, levels, f);
        for (a, b) in img.data.iter().zip(&orig.data) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }
}

// ---------------------------------------------------------------------
// PPM: conservation and positivity for arbitrary piecewise states
// ---------------------------------------------------------------------

fn random_grid(seed: u64, nx: usize, ny: usize) -> solver::Grid {
    let mut rng = SimRng::new(seed);
    let mut g = solver::Grid::uniform(nx, ny, solver::prim_to_cons(1.0, 0.0, 0.0, 1.0));
    // A handful of random rectangular patches of different (ρ, p, u, v).
    for _ in 0..4 {
        let rho = rng.range_f64(0.1, 3.0);
        let p = rng.range_f64(0.1, 5.0);
        let u = rng.range_f64(-0.5, 0.5);
        let v = rng.range_f64(-0.5, 0.5);
        let x0 = rng.below(nx as u64) as usize;
        let y0 = rng.below(ny as u64) as usize;
        let x1 = (x0 + 1 + rng.below(nx as u64 / 2 + 1) as usize).min(nx);
        let y1 = (y0 + 1 + rng.below(ny as u64 / 2 + 1) as usize).min(ny);
        for j in y0..y1 {
            for i in x0..x1 {
                *g.at_mut(i, j) = solver::prim_to_cons(rho, u, v, p);
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ppm_conserves_mass_and_energy_on_random_states(seed in 0u64..1_000_000) {
        let mut g = random_grid(seed, 24, 16);
        let m0 = g.total_mass();
        let e0 = g.total_energy();
        for _ in 0..8 {
            let dt = g.cfl_dt();
            prop_assert!(dt > 0.0 && dt.is_finite());
            g.step(dt, solver::Boundary::Reflective);
        }
        let m1 = g.total_mass();
        let e1 = g.total_energy();
        prop_assert!(((m1 - m0) / m0).abs() < 1e-9, "mass drift {}", (m1 - m0) / m0);
        prop_assert!(((e1 - e0) / e0).abs() < 1e-9, "energy drift {}", (e1 - e0) / e0);
        prop_assert!(g.min_density() > 0.0);
    }

    #[test]
    fn ppm_edges_stay_within_local_bounds(a in prop::collection::vec(-100.0f64..100.0, 8..64)) {
        // Monotonized parabola edges never exceed the neighbourhood range.
        let edges = essio_apps::ppm::solver::ppm_edges(&a);
        for j in 2..a.len() - 2 {
            let lo = a[j - 1].min(a[j]).min(a[j + 1]) - 1e-9;
            let hi = a[j - 1].max(a[j]).max(a[j + 1]) + 1e-9;
            let (al, ar) = edges[j];
            prop_assert!(al >= lo && al <= hi, "left edge {al} outside [{lo}, {hi}] at {j}");
            prop_assert!(ar >= lo && ar <= hi, "right edge {ar} outside [{lo}, {hi}] at {j}");
        }
    }
}

// ---------------------------------------------------------------------
// N-body: tree invariants for arbitrary particle sets
// ---------------------------------------------------------------------

fn bodies(n: usize) -> impl Strategy<Value = Vec<tree::Body>> {
    prop::collection::vec(
        (
            (-10.0f64..10.0),
            (-10.0f64..10.0),
            (-10.0f64..10.0),
            0.001f64..1.0,
        ),
        1..=n,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(x, y, z, m)| tree::Body {
                pos: [x, y, z],
                vel: [0.0; 3],
                mass: m,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn octree_aggregates_mass_and_com_exactly(b in bodies(64)) {
        let t = tree::Octree::build(&b);
        let total: f64 = b.iter().map(|x| x.mass).sum();
        prop_assert!((t.total_mass() - total).abs() < 1e-9 * total.max(1.0));
        let (m, com) = t.root_summary();
        let mut expect = [0.0f64; 3];
        for x in &b {
            for k in 0..3 {
                expect[k] += x.mass * x.pos[k];
            }
        }
        for k in 0..3 {
            prop_assert!((com[k] * m - expect[k]).abs() < 1e-7, "com axis {k}");
        }
    }

    #[test]
    fn bh_accel_is_finite_and_bounded_by_direct_sum_scale(b in bodies(48)) {
        prop_assume!(b.len() >= 2);
        let t = tree::Octree::build(&b);
        for (i, body) in b.iter().enumerate() {
            let (a, n) = t.accel(body, 0.7);
            prop_assert!(a.iter().all(|v| v.is_finite()));
            prop_assert!(n >= 1, "at least one interaction for body {i}");
            prop_assert!(n < (b.len() * b.len()) as u64);
        }
    }

    #[test]
    fn smaller_theta_never_uses_fewer_interactions(b in bodies(48)) {
        prop_assume!(b.len() >= 4);
        let t = tree::Octree::build(&b);
        let count = |theta: f64| -> u64 { b.iter().map(|x| t.accel(x, theta).1).sum() };
        let tight = count(0.2);
        let loose = count(1.2);
        prop_assert!(tight >= loose, "θ=0.2 used {tight} < θ=1.2 {loose}");
    }

    #[test]
    fn plummer_sampling_is_well_formed(seed in 0u64..100_000, n in 1usize..500) {
        let b = tree::plummer(n, &mut SimRng::new(seed));
        prop_assert_eq!(b.len(), n);
        let total: f64 = b.iter().map(|x| x.mass).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for x in &b {
            prop_assert!(x.pos.iter().all(|c| c.is_finite() && c.abs() <= 8.0));
            prop_assert!(x.vel.iter().all(|c| c.is_finite()));
        }
    }
}
