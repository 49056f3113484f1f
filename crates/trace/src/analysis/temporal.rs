//! Temporal locality (Figure 8).
//!
//! Paper §3.6: temporal locality is derived from *"the average time between
//! consecutive accesses to the same sector"*, and Figure 8 plots *"the
//! frequency of accesses (per second) to the same sector on disk ...
//! averaged over the 700 seconds required to run the combined experiment"*,
//! finding hot spots near sector 45,000 (the system log) and just below the
//! swap area boundary.
//!
//! Per-sector counting over a million-sector disk and hundreds of thousands
//! of requests is the one genuinely data-heavy analysis; [`TemporalState`]
//! merges exactly, so [`TemporalLocality::compute`] counts record chunks in
//! parallel and merges the per-chunk maps.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use serde::Serialize;

use super::{fold_records, MetricState};
use crate::record::TraceRecord;
use crate::sink::RecordSink;
use essio_sim::SimTime;

/// A frequently-revisited sector.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct HotSpot {
    /// Sector number.
    pub sector: u32,
    /// Total accesses over the run.
    pub accesses: u64,
    /// Accesses per second, averaged over the run (Figure 8's y-axis).
    pub freq_per_sec: f64,
}

/// Figure-8 style temporal locality summary.
#[derive(Debug, Clone, Serialize)]
pub struct TemporalLocality {
    /// Run duration used for averaging, seconds.
    pub duration_s: f64,
    /// Hottest sectors, busiest first (up to [`TemporalLocality::MAX_HOT`]).
    pub hot_spots: Vec<HotSpot>,
    /// Number of distinct sectors accessed at least once.
    pub distinct_sectors: u64,
    /// Number of distinct sectors accessed at least twice (re-reference set).
    pub revisited_sectors: u64,
    /// Mean time between consecutive accesses to the same sector, averaged
    /// over all revisited sectors, in seconds (§3.6 metric).
    pub mean_interaccess_s: f64,
}

impl TemporalLocality {
    /// Cap on retained hot spots.
    pub const MAX_HOT: usize = 64;

    /// Compute per-sector access frequency for a run of `duration`.
    ///
    /// Every sector covered by a request counts as accessed (a 16 KB
    /// transfer touches 32 sectors), matching what driver-level tracing
    /// observes physically moving under the head.
    pub fn compute(records: &[TraceRecord], duration: SimTime) -> Self {
        fold_records(records, TemporalState::default).finalize(duration)
    }

    /// The single hottest sector, if any I/O occurred.
    pub fn hottest(&self) -> Option<&HotSpot> {
        self.hot_spots.first()
    }

    /// Hottest sector within `[lo, hi)` — used to check the paper's claim
    /// that the top spots sit in the log and swap areas.
    pub fn hottest_in(&self, lo: u32, hi: u32) -> Option<&HotSpot> {
        self.hot_spots
            .iter()
            .find(|h| h.sector >= lo && h.sector < hi)
    }

    /// Human-readable top-10 table.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("temporal locality (hot sectors):\n");
        for h in self.hot_spots.iter().take(10) {
            let _ = writeln!(
                s,
                "  sector {:>7}: {:>7} accesses ({:.3}/s)",
                h.sector, h.accesses, h.freq_per_sec
            );
        }
        let _ = writeln!(
            s,
            "  distinct={} revisited={} mean-interaccess={:.2}s",
            self.distinct_sectors, self.revisited_sectors, self.mean_interaccess_s
        );
        s
    }
}

/// Per-sector access-time span: first/last timestamps and visit count.
///
/// For a sector accessed at times t₁ ≤ … ≤ tₙ the consecutive gaps
/// telescope: Σ(tᵢ₊₁ − tᵢ) = tₙ − t₁. So `{first, last, count}` is all the
/// state the §3.6 mean-inter-access metric needs, and it merges exactly as
/// `{min, max, sum}`.
#[derive(Debug, Clone, Copy)]
pub struct SectorSpan {
    /// Earliest access, µs.
    pub first: SimTime,
    /// Latest access, µs.
    pub last: SimTime,
    /// Number of accesses.
    pub count: u64,
}

/// Incremental temporal locality: the per-sector state behind
/// [`TemporalLocality`].
#[derive(Debug, Clone, Default)]
pub struct TemporalState {
    /// Accesses per covered sector (a 16 KB transfer touches 32 sectors).
    pub counts: HashMap<u32, u64>,
    /// Access-time span per *starting* sector (the paper's record address).
    pub spans: HashMap<u32, SectorSpan>,
}

impl TemporalState {
    /// The temporal locality of every record folded in, averaged over a
    /// run of `duration`.
    pub fn finalize(&self, duration: SimTime) -> TemporalLocality {
        let duration_s = (essio_sim::time::as_secs_f64(duration)).max(1e-9);
        // A sector visited n ≥ 2 times over [first, last] contributes
        // last − first µs across n − 1 gaps; the one integer→float
        // conversion happens after the exact integer sum.
        let (mut gap_sum_us, mut gap_n) = (0u128, 0u64);
        for span in self.spans.values().filter(|s| s.count >= 2) {
            gap_sum_us += (span.last - span.first) as u128;
            gap_n += span.count - 1;
        }
        let mean_interaccess_s = if gap_n == 0 {
            0.0
        } else {
            gap_sum_us as f64 / essio_sim::time::MICROS_PER_SEC as f64 / gap_n as f64
        };

        let mut hot: Vec<HotSpot> = self
            .counts
            .iter()
            .map(|(&sector, &accesses)| HotSpot {
                sector,
                accesses,
                freq_per_sec: accesses as f64 / duration_s,
            })
            .collect();
        // Busiest first, ties by sector: a total order, so selecting the
        // top MAX_HOT before sorting them gives the same list as a full sort.
        let by_heat =
            |a: &HotSpot, b: &HotSpot| b.accesses.cmp(&a.accesses).then(a.sector.cmp(&b.sector));
        if hot.len() > TemporalLocality::MAX_HOT {
            hot.select_nth_unstable_by(TemporalLocality::MAX_HOT, by_heat);
            hot.truncate(TemporalLocality::MAX_HOT);
        }
        hot.sort_unstable_by(by_heat);

        TemporalLocality {
            duration_s,
            hot_spots: hot,
            distinct_sectors: self.counts.len() as u64,
            revisited_sectors: self.counts.values().filter(|&&c| c >= 2).count() as u64,
            mean_interaccess_s,
        }
    }
}

impl RecordSink for TemporalState {
    fn observe(&mut self, r: &TraceRecord) {
        for s in r.sector..r.end_sector() {
            *self.counts.entry(s).or_insert(0) += 1;
        }
        let span = self.spans.entry(r.sector).or_insert(SectorSpan {
            first: r.ts,
            last: r.ts,
            count: 0,
        });
        span.first = span.first.min(r.ts);
        span.last = span.last.max(r.ts);
        span.count += 1;
    }
}

impl MetricState for TemporalState {
    fn merge(&mut self, mut other: Self) {
        // Merge is commutative, so fold the smaller state into the larger.
        if self.counts.len() < other.counts.len() {
            std::mem::swap(self, &mut other);
        }
        for (sector, n) in other.counts {
            *self.counts.entry(sector).or_insert(0) += n;
        }
        for (sector, s) in other.spans {
            match self.spans.entry(sector) {
                Entry::Occupied(mut e) => {
                    let span = e.get_mut();
                    span.first = span.first.min(s.first);
                    span.last = span.last.max(s.last);
                    span.count += s.count;
                }
                Entry::Vacant(e) => {
                    e.insert(s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::rec;
    use crate::record::Op;

    #[test]
    fn counts_every_sector_in_range() {
        // One 2 KiB request covers 4 sectors.
        let recs = vec![rec(0.0, 100, 2, Op::Read)];
        let t = TemporalLocality::compute(&recs, 1_000_000);
        assert_eq!(t.distinct_sectors, 4);
        assert_eq!(t.revisited_sectors, 0);
    }

    #[test]
    fn hottest_sector_wins() {
        let mut recs = Vec::new();
        for i in 0..10 {
            recs.push(rec(i as f64, 45_000, 1, Op::Write));
        }
        recs.push(rec(11.0, 9, 1, Op::Read));
        let t = TemporalLocality::compute(&recs, 20_000_000);
        let hot = t.hottest().unwrap();
        assert_eq!(hot.sector, 45_000);
        assert_eq!(hot.accesses, 10);
        assert!((hot.freq_per_sec - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hottest_in_band_filters() {
        let recs = vec![
            rec(0.0, 45_000, 1, Op::Write),
            rec(1.0, 45_000, 1, Op::Write),
            rec(2.0, 399_000, 1, Op::Write),
        ];
        let t = TemporalLocality::compute(&recs, 10_000_000);
        assert_eq!(t.hottest_in(300_000, 400_000).unwrap().sector, 399_000);
        assert!(t.hottest_in(500_000, 600_000).is_none());
    }

    #[test]
    fn interaccess_mean() {
        // Same start sector at t = 0, 2, 6 → gaps 2 and 4 → mean 3.
        let recs = vec![
            rec(0.0, 7, 1, Op::Write),
            rec(2.0, 7, 1, Op::Write),
            rec(6.0, 7, 1, Op::Write),
        ];
        let t = TemporalLocality::compute(&recs, 10_000_000);
        assert!((t.mean_interaccess_s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn no_revisits_means_zero_interaccess() {
        let recs = vec![rec(0.0, 1, 1, Op::Write), rec(1.0, 100, 1, Op::Write)];
        let t = TemporalLocality::compute(&recs, 10_000_000);
        assert_eq!(t.mean_interaccess_s, 0.0);
    }

    #[test]
    fn empty_trace() {
        let t = TemporalLocality::compute(&[], 1_000_000);
        assert!(t.hottest().is_none());
        assert_eq!(t.distinct_sectors, 0);
    }

    #[test]
    fn hot_spot_list_is_bounded_and_sorted() {
        let recs: Vec<_> = (0..200u32)
            .flat_map(|s| (0..=s % 7).map(move |k| rec(k as f64, s * 10, 1, Op::Write)))
            .collect();
        let t = TemporalLocality::compute(&recs, 1_000_000_000);
        assert!(t.hot_spots.len() <= TemporalLocality::MAX_HOT);
        for w in t.hot_spots.windows(2) {
            assert!(w[0].accesses >= w[1].accesses);
        }
    }

    #[test]
    fn parallel_counting_matches_serial_reference() {
        let recs: Vec<_> = (0..5000u32)
            .map(|i| rec(i as f64 * 0.001, (i * 37) % 1000, 1 + (i % 4), Op::Write))
            .collect();
        let t = TemporalLocality::compute(&recs, 5_000_000);
        // Serial reference count.
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for r in &recs {
            for s in r.sector..r.end_sector() {
                *counts.entry(s).or_insert(0) += 1;
            }
        }
        assert_eq!(t.distinct_sectors, counts.len() as u64);
        let max = counts
            .iter()
            .map(|(s, c)| (*c, std::cmp::Reverse(*s)))
            .max()
            .unwrap();
        let hot = t.hottest().unwrap();
        assert_eq!(hot.accesses, max.0);
    }
}
