//! Regeneration of every figure and table in the paper's §4.
//!
//! Each `figN` function takes the corresponding experiment's result and
//! returns the plotted series; `render_*` helpers produce TSV (for real
//! plotting tools) and a terminal ASCII scatter so the harness binaries in
//! `essio-bench` can show the shape directly.
//!
//! | Paper artifact | Function | Experiment |
//! |---|---|---|
//! | Figure 1 — baseline sector vs time | [`fig1`] | `Experiment::baseline()` |
//! | Figure 2 — PPM request sizes | [`fig2`] | `Experiment::ppm()` |
//! | Figure 3 — wavelet request sizes | [`fig3`] | `Experiment::wavelet()` |
//! | Figure 4 — N-body request sizes | [`fig4`] | `Experiment::nbody()` |
//! | Figure 5 — combined request sizes | [`fig5`] | `Experiment::combined()` |
//! | Figure 6 — combined sector vs time | [`fig6`] | same run as fig5 |
//! | Figure 7 — spatial locality | [`fig7`] | same run |
//! | Figure 8 — temporal locality | [`fig8`] | same run |
//! | Table 1 — request mix | [`table1`] | all five |
//!
//! [`Artifact`] names each of them for the `paper` binary and renders it
//! with the paper's reading of it (`paper --only fig3`).

use std::fmt::Write as _;

use essio_trace::analysis::{phases, series, SizeClass, SpatialLocality, TemporalLocality};

use crate::experiment::{ExperimentKind, ExperimentResult};

/// Node whose disk the figures plot (the paper plots one representative
/// disk; all nodes are statistically equivalent).
pub const FIGURE_NODE: u8 = 0;

/// A scatter of `(seconds, value)` points plus labels.
#[derive(Debug, Clone)]
pub struct Scatter {
    /// Figure title.
    pub title: String,
    /// Y-axis label.
    pub ylabel: &'static str,
    /// Points.
    pub points: Vec<(f64, f64)>,
}

impl Scatter {
    /// Tab-separated values (header + rows).
    pub fn to_tsv(&self) -> String {
        let mut s = format!("time_s\t{}\n", self.ylabel);
        for (t, v) in &self.points {
            s.push_str(&format!("{t:.3}\t{v:.3}\n"));
        }
        s
    }

    /// Terminal scatter plot.
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        ascii_scatter(&self.title, self.ylabel, &self.points, width, height)
    }
}

/// Figure 1: baseline I/O requests — sector number vs time.
pub fn fig1(baseline: &ExperimentResult) -> Scatter {
    sector_scatter(baseline, "Figure 1. I/O Requests (baseline)")
}

/// Figure 2: PPM request size (KB) vs time.
pub fn fig2(ppm: &ExperimentResult) -> Scatter {
    size_scatter(ppm, "Figure 2. Request Size (PPM)")
}

/// Figure 3: wavelet request size (KB) vs time.
pub fn fig3(wavelet: &ExperimentResult) -> Scatter {
    size_scatter(wavelet, "Figure 3. Request Size (wavelet)")
}

/// Figure 4: N-body request size (KB) vs time.
pub fn fig4(nbody: &ExperimentResult) -> Scatter {
    size_scatter(nbody, "Figure 4. Request Size (N-Body)")
}

/// Figure 5: combined request size (KB) vs time.
pub fn fig5(combined: &ExperimentResult) -> Scatter {
    size_scatter(combined, "Figure 5. Request Size (combined)")
}

/// Figure 6: combined I/O requests — sector number vs time.
pub fn fig6(combined: &ExperimentResult) -> Scatter {
    sector_scatter(combined, "Figure 6. I/O Requests (combined)")
}

/// Figure 7: spatial locality — % of requests per 100 K-sector band.
pub fn fig7(combined: &ExperimentResult) -> SpatialLocality {
    combined.summary.spatial.clone()
}

/// Figure 8: temporal locality — per-sector access frequency.
pub fn fig8(combined: &ExperimentResult) -> TemporalLocality {
    combined.summary.temporal.clone()
}

/// Table 1: one row per experiment, preceded by the header.
pub fn table1(results: &[&ExperimentResult]) -> String {
    let mut s = String::new();
    s.push_str(essio_trace::analysis::RwStats::table_header());
    s.push('\n');
    for r in results {
        s.push_str(&r.table1_row());
        s.push('\n');
    }
    s
}

/// A figure or table of the paper's §4, as `paper --only` names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Figure 1: baseline sector vs time.
    Fig1,
    /// Figure 2: PPM request sizes.
    Fig2,
    /// Figure 3: wavelet request sizes.
    Fig3,
    /// Figure 4: N-body request sizes.
    Fig4,
    /// Figure 5: combined request sizes.
    Fig5,
    /// Figure 6: combined sector vs time.
    Fig6,
    /// Figure 7: spatial locality.
    Fig7,
    /// Figure 8: temporal locality.
    Fig8,
    /// Table 1: the request mix of all five experiments.
    Table1,
}

/// One regenerated [`Artifact`].
#[derive(Debug, Clone)]
pub struct Rendered {
    /// Terminal output: the plot or report, then the lines that hold it
    /// against the paper's text.
    pub text: String,
    /// Data file name.
    pub file: String,
    /// Data file contents: the TSV series, or the table itself.
    pub data: String,
}

impl Artifact {
    /// Every artifact, in the paper's order.
    pub const ALL: [Artifact; 9] = [
        Artifact::Fig1,
        Artifact::Fig2,
        Artifact::Fig3,
        Artifact::Fig4,
        Artifact::Fig5,
        Artifact::Fig6,
        Artifact::Fig7,
        Artifact::Fig8,
        Artifact::Table1,
    ];

    /// Command-line spelling: `fig1` … `fig8`, `table1`.
    pub fn slug(self) -> &'static str {
        [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1",
        ][self as usize]
    }

    /// Parse the [`Artifact::slug`] spelling.
    pub fn from_slug(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.slug() == s)
    }

    /// The experiments the artifact is drawn from.
    pub fn kinds(self) -> &'static [ExperimentKind] {
        match self {
            Artifact::Fig1 => &[ExperimentKind::Baseline],
            Artifact::Fig2 => &[ExperimentKind::Ppm],
            Artifact::Fig3 => &[ExperimentKind::Wavelet],
            Artifact::Fig4 => &[ExperimentKind::Nbody],
            Artifact::Table1 => &ExperimentKind::ALL,
            _ => &[ExperimentKind::Combined],
        }
    }

    /// Regenerate the artifact from `runs`, which must include a run of
    /// every kind in [`Artifact::kinds`].
    pub fn render(self, runs: &[ExperimentResult]) -> Rendered {
        let run = |kind: ExperimentKind| {
            runs.iter()
                .find(|r| r.kind == kind)
                .expect("an artifact is rendered from the runs it is drawn from")
        };
        let r = run(self.kinds()[0]);
        let sizes = &r.summary.sizes;
        let mut text = String::new();
        let scatter = match self {
            Artifact::Fig1 => Some(fig1(r)),
            Artifact::Fig2 => Some(fig2(r)),
            Artifact::Fig3 => Some(fig3(r)),
            Artifact::Fig4 => Some(fig4(r)),
            Artifact::Fig5 => Some(fig5(r)),
            Artifact::Fig6 => Some(fig6(r)),
            _ => None,
        };
        if let Some(fig) = &scatter {
            let _ = writeln!(text, "{}", fig.to_ascii(100, 24));
        }
        let mut data = scatter.map(|fig| fig.to_tsv()).unwrap_or_default();
        match self {
            Artifact::Fig1 => {
                let _ = writeln!(text, "{}", r.table1_row());
                let _ = writeln!(
                    text,
                    "predominant request size: {} bytes (paper: 1 KB block size)",
                    sizes.histogram.mode().unwrap_or(0)
                );
            }
            Artifact::Fig2 => {
                text.push_str(&render_size_histogram(sizes, 50));
                let _ = writeln!(text, "{}\n{}", sizes.report(), r.table1_row());
            }
            Artifact::Fig3 => {
                // The phases the paper reads off this figure.
                let node = r.node_trace(FIGURE_NODE);
                let segs = phases::segment(&node, r.duration_s(), &phases::PhaseConfig::default());
                text.push_str(
                    "automatic phase narrative (the paper's §4.2 reading of this figure):\n",
                );
                text.push_str(&phases::narrate(&segs));
                let bins = series::binned(&node, 5.0, r.duration_s());
                if let Some(peak) = series::peak_bytes_bin(&bins) {
                    let _ = writeln!(
                        text,
                        "read spike: bin at {:.0}s moves {} KB (paper: ~50s, ~16KB requests)",
                        peak.t0,
                        peak.bytes / 1024
                    );
                }
                if let Some(lull) = phases::longest_of(&segs, phases::PhaseKind::Quiet) {
                    let _ = writeln!(
                        text,
                        "computation lull: {:.0}s..{:.0}s",
                        lull.start_s, lull.end_s
                    );
                }
                let _ = writeln!(text, "{}\n{}", sizes.report(), r.table1_row());
            }
            Artifact::Fig4 => {
                let _ = writeln!(
                    text,
                    "2K requests: {}  3K: {}  4K(page): {}\n{}",
                    sizes.count(SizeClass::B2K),
                    sizes.count(SizeClass::B3K),
                    sizes.count(SizeClass::Page4K),
                    r.table1_row()
                );
            }
            Artifact::Fig5 => {
                let _ = writeln!(
                    text,
                    "over-16KB transfers: {} (paper: 16-32 KB range under combined load)",
                    sizes.count(SizeClass::Over16K)
                );
                text.push_str(&render_size_histogram(sizes, 50));
                let _ = writeln!(text, "{}\n{}", sizes.report(), r.table1_row());
            }
            Artifact::Fig6 => {
                let below_400k = r.trace.iter().filter(|t| t.sector < 400_000).count();
                let _ = writeln!(
                    text,
                    "requests below sector 400,000: {:.1}% (paper: activity primarily at lower sectors)",
                    below_400k as f64 * 100.0 / r.trace.len().max(1) as f64
                );
            }
            Artifact::Fig7 => {
                let spatial = fig7(r);
                text.push_str(&spatial.report());
                let _ = writeln!(
                    text,
                    "pareto check: top 20% of bands carry {:.1}% of requests (gini {:.3})",
                    spatial.top20_fraction * 100.0,
                    spatial.gini
                );
                data.push_str("band_start\trequests\tpct\n");
                for b in &spatial.bands {
                    let _ = writeln!(data, "{}\t{}\t{:.3}", b.start, b.requests, b.pct);
                }
            }
            Artifact::Fig8 => {
                let temporal = fig8(r);
                text.push_str(&temporal.report());
                if let Some(h) = temporal.hottest() {
                    let _ = writeln!(
                        text,
                        "hottest sector: {} at {:.3}/s (paper: ~45,000)",
                        h.sector, h.freq_per_sec
                    );
                }
                if let Some(h) = temporal.hottest_in(300_000, 400_000) {
                    let _ = writeln!(
                        text,
                        "hottest swap sector: {} (paper: just under 400,000)",
                        h.sector
                    );
                }
                data.push_str("sector\taccesses\tfreq_per_s\n");
                for h in &temporal.hot_spots {
                    let _ = writeln!(data, "{}\t{}\t{:.4}", h.sector, h.accesses, h.freq_per_sec);
                }
            }
            Artifact::Table1 => {
                data = table1(&ExperimentKind::ALL.map(run));
                let _ = writeln!(
                    text,
                    "Table 1. I/O Requests (average per disk)\n{data}\n\
                     paper reference: Baseline 0/100 @0.9/s; PPM 4/96; Wavelet 49/51; N-Body 13/87"
                );
            }
        }
        let ext = if self == Artifact::Table1 {
            "txt"
        } else {
            "tsv"
        };
        Rendered {
            text,
            file: format!("{}.{ext}", self.slug()),
            data,
        }
    }
}

fn size_scatter(r: &ExperimentResult, title: &str) -> Scatter {
    let node = r.node_trace(FIGURE_NODE);
    Scatter {
        title: title.to_string(),
        ylabel: "request_kb",
        points: series::scatter_size(&node),
    }
}

fn sector_scatter(r: &ExperimentResult, title: &str) -> Scatter {
    let node = r.node_trace(FIGURE_NODE);
    Scatter {
        title: title.to_string(),
        ylabel: "sector",
        points: series::scatter_sector(&node)
            .into_iter()
            .map(|(t, s)| (t, s as f64))
            .collect(),
    }
}

/// Render a request-size class distribution as an ASCII bar chart
/// (log-scaled bars so the 1 KB class doesn't drown the 16 KB tail).
pub fn render_size_histogram(
    breakdown: &essio_trace::analysis::ClassBreakdown,
    width: usize,
) -> String {
    use std::fmt::Write as _;
    let width = width.max(10);
    let mut out = String::from("request-size distribution:\n");
    let max = breakdown
        .by_class
        .iter()
        .map(|(_, n)| *n)
        .max()
        .unwrap_or(0);
    if max == 0 {
        out.push_str("  (no requests)\n");
        return out;
    }
    let scale = |n: u64| -> usize {
        if n == 0 {
            0
        } else {
            // log-scale bar length: 1 request → 1 char, max → full width.
            let f = ((n as f64).ln() + 1.0) / ((max as f64).ln() + 1.0);
            (f * width as f64).ceil() as usize
        }
    };
    for (class, n) in &breakdown.by_class {
        if *n == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:>9} |{:<width$}| {}",
            class.label(),
            "#".repeat(scale(*n)),
            n,
            width = width
        );
    }
    out
}

/// Render a scatter as an ASCII plot (dots; `*` where several points
/// overlap).
pub fn ascii_scatter(
    title: &str,
    ylabel: &str,
    points: &[(f64, f64)],
    width: usize,
    height: usize,
) -> String {
    let width = width.max(16);
    let height = height.max(6);
    let mut out = String::with_capacity((width + 12) * (height + 4));
    out.push_str(title);
    out.push('\n');
    if points.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-12 {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![0u32; width]; height];
    for &(x, y) in points {
        let col = (((x - xmin) / (xmax - xmin)) * (width - 1) as f64) as usize;
        let row = (((y - ymin) / (ymax - ymin)) * (height - 1) as f64) as usize;
        grid[height - 1 - row][col.min(width - 1)] += 1;
    }
    for (i, row) in grid.iter().enumerate() {
        let yval = ymax - (ymax - ymin) * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{yval:>10.1} |"));
        for &c in row {
            out.push(match c {
                0 => ' ',
                1 => '.',
                2..=4 => 'o',
                _ => '*',
            });
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>10}  {:<.1}{}{:>.1} s   (y: {})\n",
        "",
        xmin,
        " ".repeat(width.saturating_sub(12)),
        xmax,
        ylabel
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;

    #[test]
    fn figure1_baseline_shape() {
        let r = Experiment::baseline()
            .quick()
            .duration_secs(180)
            .seed(11)
            .run();
        let f = fig1(&r);
        assert!(!f.points.is_empty());
        // All activity is writes at known regions: log area, metadata, or
        // high sectors — "horizontal lines" in the scatter.
        for &(t, sector) in &f.points {
            assert!(t <= 180.0 + 1e-9);
            let s = sector as u32;
            let known = s < 8_000 || (40_000..60_000).contains(&s) || s >= 940_000;
            assert!(known, "unexpected baseline sector {s}");
        }
        let tsv = f.to_tsv();
        assert!(tsv.starts_with("time_s\tsector"));
        let ascii = f.to_ascii(60, 16);
        assert!(ascii.contains("Figure 1"));
        let out = Artifact::Fig1.render(std::slice::from_ref(&r));
        assert_eq!((out.file.as_str(), &out.data), ("fig1.tsv", &tsv));
        assert!(out.text.contains("predominant request size:"));
    }

    #[test]
    fn artifacts_roundtrip_their_slugs() {
        for a in Artifact::ALL {
            assert_eq!(Artifact::from_slug(a.slug()), Some(a));
        }
        assert_eq!(Artifact::from_slug("fig9"), None);
        assert_eq!(Artifact::Table1.kinds(), ExperimentKind::ALL);
    }

    #[test]
    fn figure3_wavelet_has_read_spike_and_lull() {
        let r = Experiment::wavelet().quick().seed(12).run();
        let f = fig3(&r);
        let max_kb = f.points.iter().map(|p| p.1).fold(0.0, f64::max);
        assert!(
            max_kb >= 8.0,
            "streaming reads should reach ≥8 KB, got {max_kb}"
        );
        // 4 KB paging present.
        assert!(f.points.iter().any(|p| (p.1 - 4.0).abs() < 1e-9));
    }

    #[test]
    fn size_histogram_renders_populated_classes_log_scaled() {
        use essio_trace::analysis::ClassBreakdown;
        use essio_trace::{Op, Origin, TraceRecord};
        let mk = |kib: u32, n: usize| -> Vec<TraceRecord> {
            (0..n)
                .map(|i| TraceRecord {
                    ts: i as u64,
                    sector: 0,
                    nsectors: (kib * 2) as u16,
                    pending: 0,
                    node: 0,
                    op: Op::Write,
                    origin: Origin::Unknown,
                })
                .collect()
        };
        let mut recs = mk(1, 1000);
        recs.extend(mk(4, 10));
        let b = ClassBreakdown::compute(&recs);
        let chart = render_size_histogram(&b, 40);
        assert!(chart.contains("1K"));
        assert!(chart.contains("4K(page)"));
        assert!(!chart.contains(">16K"), "empty classes omitted");
        // Log scaling keeps the minority class visible (bar length > 25% of
        // the majority's despite a 100x count ratio).
        let bars: Vec<usize> = chart
            .lines()
            .skip(1)
            .map(|l| l.matches('#').count())
            .collect();
        assert!(bars[1] * 4 > bars[0], "bars {bars:?}");
        // Empty input.
        let empty = render_size_histogram(&ClassBreakdown::compute(&[]), 40);
        assert!(empty.contains("no requests"));
    }

    #[test]
    fn ascii_scatter_handles_degenerate_input() {
        let s = ascii_scatter("t", "y", &[], 40, 10);
        assert!(s.contains("no data"));
        let s = ascii_scatter("t", "y", &[(1.0, 1.0)], 40, 10);
        assert!(s.contains('.'));
    }

    #[test]
    fn table1_renders_rows_for_each_experiment() {
        let base = Experiment::baseline()
            .quick()
            .duration_secs(60)
            .seed(13)
            .run();
        let nb = Experiment::nbody().quick().seed(13).run();
        let t = table1(&[&base, &nb]);
        assert!(t.contains("Baseline"));
        assert!(t.contains("N-Body"));
        assert_eq!(t.lines().count(), 3);
    }
}
