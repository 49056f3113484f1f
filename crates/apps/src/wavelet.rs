//! The wavelet decomposition code.
//!
//! Paper §3.3: *"Wavelet transformation codes are used extensively at NASA
//! Goddard for ESS satellite imagery applications such as image
//! registration and compression, of such images as from the
//! Landsat-Thematic Mapper. The version of the code we used decomposed a
//! 512x512 byte image."*
//!
//! [`transform`] implements real multi-level 2-D separable orthogonal
//! wavelet analysis/synthesis (Haar and Daubechies-4, periodic boundary),
//! verified by perfect-reconstruction and energy-preservation tests.
//!
//! [`run`] reproduces the I/O biography of Figure 3: a startup phase that
//! demand-pages a large program image and builds big work buffers (the
//! *"high rate of paging ... due to the large program space and image data
//! requirements"*), a streaming read of the image at ~50 s whose read-ahead
//! grows requests toward 16 KB, a computation lull while the working set is
//! resident, and a heavier write phase at the end when coefficients are
//! saved. The Landsat scene itself is proprietary/unavailable, so the
//! experiment installs a synthetic image of the same size (procedural
//! terrain + sensor noise; see `essio::workloads`): every measured quantity
//! depends on the image's *size and streaming access pattern*, not its
//! pixels (DESIGN.md substitution table).

use essio_kernel::Placement;
use essio_net::{NetOp, NetResult};

use crate::runtime::{cost, load_program, AppCtx, CtxExt, PagedRegion, SimFile};

/// The real mathematics.
pub mod transform {
    /// Orthogonal filter bank.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Filter {
        /// Haar (2-tap).
        Haar,
        /// Daubechies-4 (4-tap).
        Daub4,
    }

    impl Filter {
        /// Low-pass analysis taps.
        pub fn lowpass(self) -> &'static [f64] {
            const SQRT1_2: f64 = std::f64::consts::FRAC_1_SQRT_2;
            const D4: [f64; 4] = [
                0.48296291314469025,  // (1+√3)/(4√2)
                0.836516303737469,    // (3+√3)/(4√2)
                0.22414386804185735,  // (3-√3)/(4√2)
                -0.12940952255092145, // (1-√3)/(4√2)
            ];
            match self {
                Filter::Haar => {
                    const H: [f64; 2] = [SQRT1_2, SQRT1_2];
                    &H
                }
                Filter::Daub4 => &D4,
            }
        }

        /// High-pass analysis taps (quadrature mirror of the low-pass).
        pub fn highpass(self) -> Vec<f64> {
            let h = self.lowpass();
            let l = h.len();
            (0..l)
                .map(|n| {
                    if n % 2 == 0 {
                        h[l - 1 - n]
                    } else {
                        -h[l - 1 - n]
                    }
                })
                .collect()
        }
    }

    /// One level of 1-D analysis (periodic): `x` (even length) →
    /// approximations then details, concatenated.
    pub fn analyze_1d(x: &[f64], filter: Filter) -> Vec<f64> {
        let n = x.len();
        assert!(n >= 2 && n.is_multiple_of(2), "need even-length signal");
        let h = filter.lowpass();
        let g = filter.highpass();
        let half = n / 2;
        let mut out = vec![0.0; n];
        for k in 0..half {
            let mut a = 0.0;
            let mut d = 0.0;
            for (t, (&hh, &gg)) in h.iter().zip(g.iter()).enumerate() {
                let xi = x[(2 * k + t) % n];
                a += hh * xi;
                d += gg * xi;
            }
            out[k] = a;
            out[half + k] = d;
        }
        out
    }

    /// Inverse of [`analyze_1d`].
    pub fn synthesize_1d(c: &[f64], filter: Filter) -> Vec<f64> {
        let n = c.len();
        assert!(n >= 2 && n.is_multiple_of(2));
        let h = filter.lowpass();
        let g = filter.highpass();
        let half = n / 2;
        let mut out = vec![0.0; n];
        for k in 0..half {
            for (t, (&hh, &gg)) in h.iter().zip(g.iter()).enumerate() {
                out[(2 * k + t) % n] += hh * c[k] + gg * c[half + k];
            }
        }
        out
    }

    /// A square image of f64 samples.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Image {
        /// Side length (power of two for the multi-level pyramid).
        pub n: usize,
        /// Row-major samples.
        pub data: Vec<f64>,
    }

    impl Image {
        /// From raw bytes (row-major, length `n*n`).
        pub fn from_bytes(n: usize, bytes: &[u8]) -> Image {
            assert_eq!(bytes.len(), n * n, "byte count must match n²");
            Image {
                n,
                data: bytes.iter().map(|&b| b as f64).collect(),
            }
        }

        /// Sum of squared samples (energy).
        pub fn energy(&self) -> f64 {
            self.data.iter().map(|v| v * v).sum()
        }

        fn row(&self, j: usize, len: usize) -> Vec<f64> {
            self.data[j * self.n..j * self.n + len].to_vec()
        }

        fn col(&self, i: usize, len: usize) -> Vec<f64> {
            (0..len).map(|j| self.data[j * self.n + i]).collect()
        }

        fn set_row(&mut self, j: usize, v: &[f64]) {
            self.data[j * self.n..j * self.n + v.len()].copy_from_slice(v);
        }

        fn set_col(&mut self, i: usize, v: &[f64]) {
            for (j, &val) in v.iter().enumerate() {
                self.data[j * self.n + i] = val;
            }
        }
    }

    /// Multi-level 2-D analysis in place: after `levels` iterations the
    /// top-left `n/2^levels` square is the coarsest approximation and the
    /// remaining quadrants hold detail coefficients.
    pub fn analyze_2d(img: &mut Image, levels: usize, filter: Filter) {
        let mut size = img.n;
        assert!(size.is_power_of_two(), "pyramid needs a power-of-two side");
        assert!(levels > 0 && size >> levels >= 1, "too many levels");
        for _ in 0..levels {
            for j in 0..size {
                let t = analyze_1d(&img.row(j, size), filter);
                img.set_row(j, &t);
            }
            for i in 0..size {
                let t = analyze_1d(&img.col(i, size), filter);
                img.set_col(i, &t);
            }
            size /= 2;
        }
    }

    /// Inverse of [`analyze_2d`].
    pub fn synthesize_2d(img: &mut Image, levels: usize, filter: Filter) {
        let mut sizes = Vec::with_capacity(levels);
        let mut size = img.n;
        for _ in 0..levels {
            sizes.push(size);
            size /= 2;
        }
        for &size in sizes.iter().rev() {
            for i in 0..size {
                let t = synthesize_1d(&img.col(i, size), filter);
                img.set_col(i, &t);
            }
            for j in 0..size {
                let t = synthesize_1d(&img.row(j, size), filter);
                img.set_row(j, &t);
            }
        }
    }

    /// Compression statistic: fraction of coefficients with |c| < `thresh`
    /// (what the registration/compression pipeline would zero out).
    pub fn sparsity(img: &Image, thresh: f64) -> f64 {
        let below = img.data.iter().filter(|c| c.abs() < thresh).count();
        below as f64 / img.data.len() as f64
    }
}

/// Path of the input image; the experiment installs it on every node.
pub const IMAGE_PATH: &str = "/data/landsat.img";
/// Side of the on-disk image, bytes (paper: a 512×512 byte image).
pub const IMAGE_SIDE: usize = 512;
/// Bytes of the on-disk image, read in full and written back as the
/// coefficient plane.
const IMAGE_BYTES: usize = IMAGE_SIDE * IMAGE_SIDE;
/// Read chunk size — a 1995 stdio-style buffered reader.
const READ_CHUNK: u32 = 1024;
/// Output coefficient file.
pub const OUT_PATH: &str = "/out/coeffs.dat";
/// Executable path; the experiment installs it on every node.
pub const TEXT_PATH: &str = "/bin/wavelet";
/// Executable size, bytes: image code linked against big imaging
/// libraries — the "large program space" of paper §4.2.
pub const TEXT_BYTES: u32 = 1408 * 1024;
/// Paper-scale data footprint, 4 KB pages: 11.6 MB of image +
/// double-precision work buffers. Together with the 1.4 MB program text
/// this slightly overcommits the 12 MB user frame pool, so startup shows
/// eviction churn on top of the text page-in burst — and under the
/// combined load the three applications' footprints overcommit it heavily.
const FOOTPRINT_PAGES: u32 = 3250;

/// Workload configuration: the transform and phase lengths a run may
/// scale. The image, program text, output file and data footprint are the
/// paper's and stay fixed ([`IMAGE_PATH`], [`IMAGE_SIDE`], [`TEXT_PATH`],
/// [`OUT_PATH`], `FOOTPRINT_PAGES`).
#[derive(Debug, Clone)]
pub struct WaveletConfig {
    /// Transform size (scaled; the image *file* stays [`IMAGE_SIDE`]²).
    pub size: usize,
    /// Decomposition levels.
    pub levels: usize,
    /// Filter bank.
    pub filter: transform::Filter,
    /// Startup compute before the image read (Figure 3: spike at ~50 s).
    pub setup_s: f64,
    /// Decomposition-phase duration (the lull).
    pub transform_s: f64,
    /// This node's rank.
    pub rank: u32,
    /// Participating tasks (0/1 ⇒ no reduction).
    pub ntasks: u32,
    /// Task id of rank 0.
    pub task_base: u32,
}

impl Default for WaveletConfig {
    fn default() -> Self {
        Self {
            size: 128,
            levels: 4,
            filter: transform::Filter::Daub4,
            setup_s: 38.0,
            transform_s: 165.0,
            rank: 0,
            ntasks: 0,
            task_base: 0,
        }
    }
}

/// Reduction tag.
pub const TAG_REDUCE: i32 = 201;

/// Run the wavelet workload. Returns (energy before, energy after,
/// sparsity) for validation.
pub async fn run(cfg: &WaveletConfig, ctx: &mut AppCtx) -> (f64, f64, f64) {
    // Phase 1 — startup: big text image + work-buffer initialization.
    // Two passes over a footprint that exceeds what stays resident under
    // load → sustained 4 KB paging (Figure 3's opening burst).
    load_program(ctx, TEXT_PATH).await;
    let region = PagedRegion::map(ctx, FOOTPRINT_PAGES).await;
    let setup_us = (cfg.setup_s * 1e6) as u64;
    let init_slices = 24;
    // Pass 1 builds every buffer (zero-fill, forward); pass 2 re-walks the
    // image staging half *backward* (boustrophedon, like the real code's
    // alternating sweeps), re-faulting what startup pressure evicted
    // without cascading through the whole region.
    for (upto, forward) in [(1.0f64, true), (0.5, false)] {
        let slices = ((init_slices as f64 * upto) as u64).max(1);
        let order: Vec<u64> = if forward {
            (0..slices).collect()
        } else {
            (0..slices).rev().collect()
        };
        for s in order {
            let f0 = s as f64 * upto / slices as f64;
            let f1 = (s + 1) as f64 * upto / slices as f64;
            region.touch_fraction_dir(ctx, f0, f1, forward).await;
            ctx.compute(setup_us / (2 * slices)).await;
        }
    }

    // Phase 2 — stream the image from disk (the ~50 s read spike).
    let mut img_file = SimFile::open(ctx, IMAGE_PATH, false, Placement::User).await;
    let mut raw = Vec::with_capacity(IMAGE_BYTES);
    while raw.len() < IMAGE_BYTES {
        let chunk = img_file.read(ctx, READ_CHUNK).await;
        if chunk.is_empty() {
            break;
        }
        // Copying into the working buffer touches its pages.
        region
            .touch_bytes(ctx, raw.len() as u64, chunk.len() as u64)
            .await;
        ctx.compute(60).await; // per-chunk copy + byte→float conversion
        raw.extend_from_slice(&chunk);
    }
    img_file.close(ctx).await;
    assert!(
        raw.len() >= cfg.size * cfg.size,
        "image file too small: {} < {}",
        raw.len(),
        cfg.size * cfg.size
    );

    // Phase 3 — decompose (the computation lull; working set resident).
    let mut img = transform::Image::from_bytes(cfg.size, &raw[..cfg.size * cfg.size]);
    let e_before = img.energy();
    let phase_us = (cfg.transform_s * 1e6) as u64;
    let mut size = cfg.size;
    for _level in 0..cfg.levels {
        // Each level's working set is the *output* sub-square — the
        // pyramid shrinks 4× per level, so after the first level the
        // resident set is maintained with little new paging (the Figure-3
        // lull: "system memory maintaining the working set").
        size /= 2;
        let active = (size * size) as f64 / (cfg.size * cfg.size) as f64;
        region
            .touch_fraction(ctx, 0.0, active.clamp(1.0 / region.pages() as f64, 1.0))
            .await;
        cost::flops(ctx, (size * size * 32) as f64).await;
        ctx.compute(phase_us / cfg.levels as u64).await;
    }
    transform::analyze_2d(&mut img, cfg.levels, cfg.filter);
    let e_after = img.energy();
    let sparsity = transform::sparsity(&img, 1.0);

    // Phase 4 — reduce statistics over PVM, then write coefficients
    // (Figure 3/§5: "heavier activity toward the end of the application").
    if cfg.ntasks > 1 {
        if cfg.rank == 0 {
            let mut total = e_after;
            for _ in 1..cfg.ntasks {
                match ctx
                    .net(NetOp::Recv {
                        from: None,
                        tag: Some(TAG_REDUCE),
                    })
                    .await
                {
                    NetResult::Message(m) => {
                        total += f64::from_le_bytes(m.data[..8].try_into().expect("8-byte energy"));
                    }
                    other => panic!("reduce recv: {other:?}"),
                }
            }
            ctx.compute(100).await;
            let _ = total;
        } else {
            ctx.net(NetOp::Send {
                to: cfg.task_base,
                tag: TAG_REDUCE,
                data: e_after.to_le_bytes().to_vec(),
            })
            .await;
        }
    }

    let mut out = SimFile::open(ctx, OUT_PATH, true, Placement::User).await;
    // Coefficient plane: one byte per pixel at paper scale (the transform
    // is in-place, so the output file matches the input's 256 KB).
    let out_bytes = IMAGE_BYTES;
    let mut written = 0usize;
    while written < out_bytes {
        let n = 4096.min(out_bytes - written);
        let chunk: Vec<u8> = (0..n)
            .map(|k| {
                let c = img.data[(written + k) % img.data.len()];
                (c.abs() as u64 & 0xFF) as u8
            })
            .collect();
        out.write(ctx, chunk).await;
        region.touch_bytes(ctx, written as u64, n as u64).await;
        ctx.compute(300).await;
        written += n;
    }
    out.append(
        ctx,
        format!("energy {e_before:.3} -> {e_after:.3} sparsity {sparsity:.4}\n").into_bytes(),
    )
    .await;
    out.fsync(ctx).await;
    out.close(ctx).await;
    (e_before, e_after, sparsity)
}

#[cfg(test)]
mod tests {
    use super::transform::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7).sin() * 10.0 + i as f64)
            .collect()
    }

    #[test]
    fn haar_1d_perfect_reconstruction() {
        let x = ramp(32);
        let c = analyze_1d(&x, Filter::Haar);
        let y = synthesize_1d(&c, Filter::Haar);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn daub4_1d_perfect_reconstruction() {
        let x = ramp(64);
        let c = analyze_1d(&x, Filter::Daub4);
        let y = synthesize_1d(&c, Filter::Daub4);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn analysis_preserves_energy() {
        let x = ramp(64);
        let e0: f64 = x.iter().map(|v| v * v).sum();
        for f in [Filter::Haar, Filter::Daub4] {
            let c = analyze_1d(&x, f);
            let e1: f64 = c.iter().map(|v| v * v).sum();
            assert!((e0 - e1).abs() / e0 < 1e-10, "{f:?}: {e0} vs {e1}");
        }
    }

    #[test]
    fn haar_of_constant_signal_has_zero_details() {
        let x = vec![5.0; 16];
        let c = analyze_1d(&x, Filter::Haar);
        for d in &c[8..] {
            assert!(d.abs() < 1e-12);
        }
        // Approximations carry √2·5.
        for a in &c[..8] {
            assert!((a - 5.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
        }
    }

    #[test]
    fn daub4_kills_linear_signals_in_detail_band() {
        // D4 has two vanishing moments: details of a linear ramp vanish
        // (periodic wrap spoils the last taps, so check the interior).
        let x: Vec<f64> = (0..32).map(|i| 3.0 + 2.0 * i as f64).collect();
        let c = analyze_1d(&x, Filter::Daub4);
        for d in &c[16..30] {
            assert!(d.abs() < 1e-9, "detail {d}");
        }
    }

    #[test]
    fn two_d_multilevel_roundtrip() {
        let n = 32;
        let bytes: Vec<u8> = (0..n * n).map(|k| ((k * 37 + k / 7) % 251) as u8).collect();
        let orig = Image::from_bytes(n, &bytes);
        for levels in 1..=3 {
            for f in [Filter::Haar, Filter::Daub4] {
                let mut img = orig.clone();
                analyze_2d(&mut img, levels, f);
                assert_ne!(img.data, orig.data, "transform changed the data");
                synthesize_2d(&mut img, levels, f);
                for (a, b) in img.data.iter().zip(&orig.data) {
                    assert!((a - b).abs() < 1e-8, "{f:?} L{levels}");
                }
            }
        }
    }

    #[test]
    fn two_d_energy_preserved() {
        let n = 64;
        let bytes: Vec<u8> = (0..n * n).map(|k| (k % 256) as u8).collect();
        let mut img = Image::from_bytes(n, &bytes);
        let e0 = img.energy();
        analyze_2d(&mut img, 4, Filter::Daub4);
        let e1 = img.energy();
        assert!((e0 - e1).abs() / e0 < 1e-10);
    }

    #[test]
    fn smooth_images_compress_well() {
        let n = 64;
        let bytes: Vec<u8> = (0..n * n)
            .map(|k| {
                let (i, j) = (k % n, k / n);
                (128.0 + 60.0 * ((i as f64 / 9.0).sin() * (j as f64 / 11.0).cos())) as u8
            })
            .collect();
        let mut img = Image::from_bytes(n, &bytes);
        analyze_2d(&mut img, 4, Filter::Daub4);
        let s = sparsity(&img, 1.0);
        assert!(
            s > 0.5,
            "smooth image should be sparse in wavelet basis, got {s}"
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let mut img = Image::from_bytes(24, &vec![0u8; 24 * 24]);
        analyze_2d(&mut img, 2, Filter::Haar);
    }

    #[test]
    #[should_panic(expected = "byte count")]
    fn mismatched_bytes_rejected() {
        Image::from_bytes(16, &[0u8; 10]);
    }
}
