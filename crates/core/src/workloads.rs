//! Experiment assets and fleet spawning.
//!
//! The study's inputs that we cannot obtain are synthesized here (DESIGN.md
//! substitution table):
//!
//! * **The Landsat-TM scene** → [`synthetic_landsat`]: procedural terrain
//!   (low-frequency relief + ridged detail + sensor noise) with natural-
//!   image statistics — smooth enough to be wavelet-compressible, noisy
//!   enough not to be trivial. Every measured quantity depends only on the
//!   file's size and the streaming access pattern.
//! * **The executables** → [`executable_image`]: byte blobs of period-
//!   plausible sizes whose only observable property is how many 4 KB text
//!   pages they demand-page at startup.
//!
//! [`install_assets`] provisions every node's disk; the `spawn_*_fleet`
//! functions start one rank of the given application per node, wiring PVM
//! task ids.

use std::sync::Arc;

use essio_apps::nbody::{self, NbodyConfig};
use essio_apps::ppm::{self, PpmConfig};
use essio_apps::wavelet::WaveletConfig;
use essio_kernel::Placement;
use essio_sim::{SimRng, SimTime};
use rayon::prelude::*;

use crate::cluster::Beowulf;

/// On-disk path of the synthetic Landsat scene.
pub const IMAGE_PATH: &str = "/data/landsat.img";
/// Side of the on-disk image (paper: 512×512 bytes).
pub const IMAGE_SIDE: usize = 512;
/// PPM executable path and size (a lean Fortran-style numeric binary).
pub const PPM_TEXT: (&str, u32) = ("/bin/ppm", 96 * 1024);
/// Wavelet executable path and size (image code linked against big
/// imaging libraries — the "large program space" of paper §4.2).
pub const WAVELET_TEXT: (&str, u32) = ("/bin/wavelet", 1408 * 1024);
/// N-body executable path and size.
pub const NBODY_TEXT: (&str, u32) = ("/bin/nbody", 128 * 1024);

/// Procedurally generate the stand-in satellite scene (`side`×`side`
/// bytes, row-major).
pub fn synthetic_landsat(side: usize, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    // Random phases make the terrain seed-dependent but deterministic.
    let ph: Vec<f64> = (0..6)
        .map(|_| rng.range_f64(0.0, std::f64::consts::TAU))
        .collect();
    // Relief and texture are products of a column term and a row term, so
    // each factor is computed once per column or row; the ridges depend on
    // x + y and stay per pixel.
    let table = |scale: f64, phase: f64, wave: fn(f64) -> f64| {
        (0..side)
            .map(|i| wave(i as f64 / scale + phase))
            .collect::<Vec<f64>>()
    };
    let relief_x = table(97.0, ph[0], f64::sin);
    let relief_y = table(83.0, ph[1], f64::cos);
    let texture_x = table(7.0, ph[3], f64::sin);
    let texture_y = table(5.0, ph[4], f64::sin);
    let mut out = Vec::with_capacity(side * side);
    for y in 0..side {
        for x in 0..side {
            let (xf, yf) = (x as f64, y as f64);
            // Large-scale relief.
            let relief = 52.0 * (relief_x[x] * relief_y[y]);
            // Mid-scale ridges.
            let ridges = 26.0 * ((xf / 23.0 + yf / 31.0 + ph[2]).sin()).abs();
            // Fine texture.
            let texture = 12.0 * (texture_x[x] * texture_y[y]);
            // Sensor noise.
            let noise = 4.0 * rng.normal();
            let v = 112.0 + relief + ridges + texture + noise;
            out.push(v.clamp(0.0, 255.0) as u8);
        }
    }
    out
}

/// A pseudo machine-code blob of `bytes` bytes.
pub fn executable_image(bytes: u32, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    (0..bytes).map(|_| rng.next_u32() as u8).collect()
}

/// Install every application asset on every node's disk.
pub fn install_assets(bw: &mut Beowulf, seed: u64) {
    let image = synthetic_landsat(IMAGE_SIDE, seed ^ 0x1111);
    bw.install_all(IMAGE_PATH, Placement::User, &image);
    for (path, bytes) in [PPM_TEXT, WAVELET_TEXT, NBODY_TEXT] {
        let blob = executable_image(bytes, seed ^ bytes as u64);
        bw.install_all(path, Placement::User, &blob);
    }
}

/// Spawn one PPM rank per node. Returns the rank-0 task id.
///
/// The fleet's one [`ppm::Trajectory`] is computed here, once per call, and
/// every rank replays it (see [`ppm::Trajectory`] for why that is sound).
pub fn spawn_ppm_fleet(bw: &mut Beowulf, template: &PpmConfig, start: SimTime) -> u32 {
    let nodes = bw.nodes();
    let task_base = bw.next_task();
    let trajectory = Arc::new(ppm::Trajectory::compute(template));
    for n in 0..nodes {
        let mut cfg = template.clone();
        cfg.rank = n as u32;
        cfg.ntasks = nodes as u32;
        cfg.task_base = task_base;
        let trajectory = Arc::clone(&trajectory);
        bw.spawn(n, "ppm", start, move |mut ctx| async move {
            ppm::run(&cfg, &trajectory, &mut ctx).await;
            0
        });
    }
    task_base
}

/// Spawn one wavelet rank per node. Returns the rank-0 task id.
pub fn spawn_wavelet_fleet(bw: &mut Beowulf, template: &WaveletConfig, start: SimTime) -> u32 {
    let nodes = bw.nodes();
    let task_base = bw.next_task();
    for n in 0..nodes {
        let mut cfg = template.clone();
        cfg.rank = n as u32;
        cfg.ntasks = nodes as u32;
        cfg.task_base = task_base;
        bw.spawn(n, "wavelet", start, move |mut ctx| async move {
            let (e_before, _e_after, _sparsity) = essio_apps::wavelet::run(&cfg, &mut ctx).await;
            // Sanity: a real image has nonzero energy.
            assert!(e_before > 0.0);
            0
        });
    }
    task_base
}

/// Spawn one N-body rank per node. Returns the rank-0 task id.
///
/// Each rank's [`nbody::Trajectory`] is computed here, on the host's cores
/// in parallel, and the rank replays it (see [`nbody::Trajectory`] for why
/// that is sound).
pub fn spawn_nbody_fleet(bw: &mut Beowulf, template: &NbodyConfig, start: SimTime) -> u32 {
    let nodes = bw.nodes();
    let task_base = bw.next_task();
    let ranks: Vec<NbodyConfig> = (0..nodes)
        .map(|n| template.for_rank(n as u32, nodes as u32, task_base))
        .collect();
    let ranks: Vec<(NbodyConfig, nbody::Trajectory)> = ranks
        .into_par_iter()
        .map(|cfg| {
            let trajectory = nbody::Trajectory::compute(&cfg);
            (cfg, trajectory)
        })
        .collect();
    for (n, (cfg, trajectory)) in (0..nodes).zip(ranks) {
        bw.spawn(n, "nbody", start, move |mut ctx| async move {
            let interactions = nbody::run(&cfg, &trajectory, &mut ctx).await;
            assert!(interactions > 0);
            0
        });
    }
    task_base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_is_deterministic_per_seed() {
        let a = synthetic_landsat(64, 7);
        let b = synthetic_landsat(64, 7);
        let c = synthetic_landsat(64, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64 * 64);
    }

    #[test]
    fn paper_size_scene_bytes_are_pinned() {
        // FNV-1a 64 of the full-size scene: any change to the terrain terms
        // or to the noise draw order moves these.
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        assert_eq!(fnv(&synthetic_landsat(IMAGE_SIDE, 1)), 2368941114015181870);
        assert_eq!(fnv(&synthetic_landsat(IMAGE_SIDE, 2)), 10159574766037509455);
    }

    #[test]
    fn image_has_natural_statistics() {
        // Full asset size: smaller windows may miss a relief period and
        // lack dark/bright regions for some phase draws.
        let img = synthetic_landsat(IMAGE_SIDE, 1);
        let mean = img.iter().map(|&v| v as f64).sum::<f64>() / img.len() as f64;
        assert!((60.0..200.0).contains(&mean), "mean {mean}");
        // Decent dynamic range without saturating everywhere.
        let lo = img.iter().filter(|&&v| v < 95).count();
        let hi = img.iter().filter(|&&v| v > 160).count();
        assert!(lo > img.len() / 50, "too bright");
        assert!(hi > img.len() / 50, "too dark");
        let saturated = img.iter().filter(|&&v| v == 0 || v == 255).count();
        assert!(saturated < img.len() / 20, "{saturated} clipped pixels");
    }

    #[test]
    fn image_is_wavelet_compressible() {
        use essio_apps::wavelet::transform::{analyze_2d, sparsity, Filter, Image};
        let raw = synthetic_landsat(128, 3);
        let mut img = Image::from_bytes(128, &raw);
        analyze_2d(&mut img, 4, Filter::Daub4);
        let s = sparsity(&img, 2.0);
        assert!(s > 0.25, "scene should compress, sparsity {s}");
    }

    #[test]
    fn executables_have_requested_sizes() {
        assert_eq!(executable_image(1000, 1).len(), 1000);
        assert_ne!(executable_image(1000, 1), executable_image(1000, 2));
    }
}
