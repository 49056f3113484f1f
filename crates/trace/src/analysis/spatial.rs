//! Spatial locality (Figure 7).
//!
//! Paper §4.3: *"Figure 7 shows the spatial locality as a percentage of I/O
//! requests occurring within a band of sectors. In this figure, sectors have
//! been combined into bands of 100K each."* and §5: *"The spatial locality
//! of the combined workload almost follows the [80/20] rule."*
//!
//! Besides the per-band percentages we compute the Lorenz curve and Gini
//! coefficient of the per-band distribution, and a direct
//! `fraction covered by the busiest 20 % of bands` figure to test the claim.

use serde::Serialize;

use super::{fold_records, MetricState};
use crate::record::TraceRecord;
use crate::sink::RecordSink;

/// The paper's band width: 100,000 sectors (~49 MB of a 500 MB disk).
pub const PAPER_BAND_SECTORS: u32 = 100_000;

/// One band of the spatial distribution.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Band {
    /// First sector of the band.
    pub start: u32,
    /// Requests whose *starting* sector falls in the band.
    pub requests: u64,
    /// Share of all requests, in percent.
    pub pct: f64,
}

/// Figure-7 style spatial locality summary.
#[derive(Debug, Clone, Serialize)]
pub struct SpatialLocality {
    /// Band width in sectors.
    pub band_sectors: u32,
    /// All bands covering the disk, in address order (empty bands included).
    pub bands: Vec<Band>,
    /// Gini coefficient of requests across bands (0 = uniform, →1 = skewed).
    pub gini: f64,
    /// Fraction of requests landing in the busiest 20 % of bands.
    pub top20_fraction: f64,
}

impl SpatialLocality {
    /// Compute the banded distribution over a disk of `total_sectors`.
    pub fn compute(records: &[TraceRecord], band_sectors: u32, total_sectors: u32) -> Self {
        fold_records(records, || SpatialState::new(band_sectors, total_sectors)).finalize()
    }

    /// Total requests across all bands.
    pub fn total(&self) -> u64 {
        self.bands.iter().map(|b| b.requests).sum()
    }

    /// The busiest band.
    pub fn peak(&self) -> Option<&Band> {
        self.bands.iter().max_by_key(|b| b.requests)
    }

    /// Whether the distribution "almost follows the 80/20 rule": the busiest
    /// 20 % of bands carry at least `threshold` (e.g. 0.7) of the requests.
    pub fn is_pareto_like(&self, threshold: f64) -> bool {
        self.top20_fraction >= threshold
    }

    /// Human-readable band table (non-empty bands only).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("spatial locality (bands of sectors):\n");
        for b in &self.bands {
            if b.requests > 0 {
                let _ = writeln!(
                    s,
                    "  [{:>7}..{:>7}): {:>8} ({:5.1}%)",
                    b.start,
                    b.start as u64 + self.band_sectors as u64,
                    b.requests,
                    b.pct
                );
            }
        }
        let _ = writeln!(
            s,
            "  gini={:.3} top20%-of-bands carries {:.1}% of requests",
            self.gini,
            self.top20_fraction * 100.0
        );
        s
    }
}

/// Incremental banded distribution: the per-band counts behind
/// [`SpatialLocality`].
#[derive(Debug, Clone)]
pub struct SpatialState {
    /// Band width in sectors.
    pub band_sectors: u32,
    /// Requests per band (fixed length: the whole disk).
    pub counts: Vec<u64>,
}

impl SpatialState {
    /// State for a disk of `total_sectors` split into `band_sectors` bands.
    pub fn new(band_sectors: u32, total_sectors: u32) -> Self {
        assert!(band_sectors > 0, "band width must be nonzero");
        let nbands = (total_sectors as u64).div_ceil(band_sectors as u64).max(1) as usize;
        Self {
            band_sectors,
            counts: vec![0; nbands],
        }
    }

    /// The banded distribution of every record folded in.
    pub fn finalize(&self) -> SpatialLocality {
        let total: u64 = self.counts.iter().sum();
        let bands = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &requests)| Band {
                start: i as u32 * self.band_sectors,
                requests,
                pct: if total == 0 {
                    0.0
                } else {
                    requests as f64 * 100.0 / total as f64
                },
            })
            .collect();
        SpatialLocality {
            band_sectors: self.band_sectors,
            bands,
            gini: gini(&self.counts),
            top20_fraction: top_fraction(&self.counts, 0.20),
        }
    }
}

impl RecordSink for SpatialState {
    fn observe(&mut self, r: &TraceRecord) {
        let band = ((r.sector / self.band_sectors) as usize).min(self.counts.len() - 1);
        self.counts[band] += 1;
    }
}

impl MetricState for SpatialState {
    /// Panics if the two states describe different disks.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.band_sectors, other.band_sectors, "band width mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "band count mismatch");
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }
}

/// Lorenz curve points `(population fraction, request fraction)` for counts
/// sorted ascending; starts at (0,0), ends at (1,1).
pub fn lorenz(counts: &[u64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable();
    let total: u64 = sorted.iter().sum();
    let n = sorted.len();
    let mut pts = Vec::with_capacity(n + 1);
    pts.push((0.0, 0.0));
    if total == 0 || n == 0 {
        pts.push((1.0, 1.0));
        return pts;
    }
    let mut cum = 0u64;
    for (i, c) in sorted.iter().enumerate() {
        cum += c;
        pts.push(((i + 1) as f64 / n as f64, cum as f64 / total as f64));
    }
    pts
}

/// Gini coefficient from a set of counts (1 − 2·area under Lorenz).
pub fn gini(counts: &[u64]) -> f64 {
    let pts = lorenz(counts);
    // Trapezoidal area under the Lorenz curve.
    let mut area = 0.0;
    for w in pts.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        area += (x1 - x0) * (y0 + y1) / 2.0;
    }
    (1.0 - 2.0 * area).clamp(0.0, 1.0)
}

/// Fraction of the total carried by the busiest `frac` of the population
/// (e.g. `frac = 0.2` asks the 80/20 question). Busiest-first.
pub fn top_fraction(counts: &[u64], frac: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let k = ((counts.len() as f64 * frac).ceil() as usize).clamp(1, counts.len());
    let top: u64 = sorted[..k].iter().sum();
    top as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::rec;
    use crate::record::Op;

    #[test]
    fn bands_cover_disk_and_percentages_sum() {
        let recs = vec![
            rec(0.0, 50_000, 1, Op::Write),
            rec(1.0, 150_000, 1, Op::Write),
            rec(2.0, 999_999, 1, Op::Write),
            rec(3.0, 50_001, 1, Op::Write),
        ];
        let s = SpatialLocality::compute(&recs, 100_000, 1_000_000);
        assert_eq!(s.bands.len(), 10);
        assert_eq!(s.bands[0].requests, 2);
        assert_eq!(s.bands[1].requests, 1);
        assert_eq!(s.bands[9].requests, 1);
        let pct_sum: f64 = s.bands.iter().map(|b| b.pct).sum();
        assert!((pct_sum - 100.0).abs() < 1e-9);
        assert_eq!(s.total(), 4);
        assert_eq!(s.peak().unwrap().start, 0);
    }

    #[test]
    fn out_of_range_sectors_clamp_to_last_band() {
        let recs = vec![rec(0.0, 2_000_000, 1, Op::Write)];
        let s = SpatialLocality::compute(&recs, 100_000, 1_000_000);
        assert_eq!(s.bands[9].requests, 1);
    }

    #[test]
    fn lorenz_endpoints() {
        let pts = lorenz(&[1, 2, 3]);
        assert_eq!(pts.first(), Some(&(0.0, 0.0)));
        let last = *pts.last().unwrap();
        assert!((last.0 - 1.0).abs() < 1e-12 && (last.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gini_uniform_is_low_skewed_is_high() {
        let uniform = vec![10u64; 100];
        assert!(gini(&uniform) < 0.01);
        let mut skewed = vec![0u64; 100];
        skewed[0] = 1000;
        assert!(gini(&skewed) > 0.95);
    }

    #[test]
    fn gini_empty_and_zero() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn top_fraction_pareto() {
        // 10 bands; top 2 hold 80 of 100 requests → classic 80/20.
        let mut counts = vec![2u64; 8];
        counts.push(40);
        counts.push(44);
        counts[0] = 4;
        // total = 4 + 2·7 + 40 + 44 = 102; top 2 of 10 bands hold 84.
        let f = top_fraction(&counts, 0.2);
        assert!((f - 84.0 / 102.0).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn top_fraction_edges() {
        assert_eq!(top_fraction(&[], 0.2), 0.0);
        assert_eq!(top_fraction(&[0, 0], 0.2), 0.0);
        assert_eq!(top_fraction(&[5], 0.2), 1.0);
    }

    #[test]
    fn pareto_like_detection() {
        let mut counts = vec![1u64; 80];
        counts.extend(vec![50u64; 20]);
        let recs: Vec<_> = counts
            .iter()
            .enumerate()
            .flat_map(|(band, n)| (0..*n).map(move |_| rec(0.0, band as u32 * 100, 1, Op::Write)))
            .collect();
        let s = SpatialLocality::compute(&recs, 100, 100 * 100);
        assert!(s.is_pareto_like(0.7), "top20 = {}", s.top20_fraction);
    }

    #[test]
    fn empty_trace_has_zero_gini() {
        let s = SpatialLocality::compute(&[], 100_000, 1_000_000);
        assert_eq!(s.gini, 0.0);
        assert_eq!(s.total(), 0);
    }
}
