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
//! of requests is the one genuinely data-heavy analysis. [`TemporalState`]
//! keeps its counters dense: `u64`s in 4096-sector pages, allocated on
//! first touch and found through a page directory, so a request adds one
//! over a contiguous slice of each page it covers with no lookup per
//! sector. The paper-scale combined trace touches 19 pages (about 600 KB).
//! Only the per-start-sector spans behind the inter-access mean sit in a
//! map, keyed with one multiply. The state merges exactly, page by page,
//! so [`TemporalLocality::compute`] folds record chunks in parallel and
//! merges the per-worker states.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

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

/// Sectors per counter page.
const PAGE_SECTORS: usize = 4096;

/// One past the last sector address: the part of a transfer at or past it
/// has no sector to count.
const SECTOR_LIMIT: u64 = 1 << 32;

/// Per-sector access-time span: first/last timestamps and visit count.
///
/// For a sector accessed at times t₁ ≤ … ≤ tₙ the consecutive gaps
/// telescope: Σ(tᵢ₊₁ − tᵢ) = tₙ − t₁. So `{first, last, count}` is all the
/// state the §3.6 mean-inter-access metric needs, and it merges exactly as
/// `{min, max, sum}`.
#[derive(Debug, Clone, Copy)]
struct SectorSpan {
    /// Earliest access, µs.
    first: SimTime,
    /// Latest access, µs.
    last: SimTime,
    /// Number of accesses.
    count: u64,
}

impl SectorSpan {
    /// No access yet: the identity of [`SectorSpan::merge`].
    const EMPTY: Self = Self {
        first: SimTime::MAX,
        last: 0,
        count: 0,
    };

    fn merge(&mut self, other: &Self) {
        self.first = self.first.min(other.first);
        self.last = self.last.max(other.last);
        self.count += other.count;
    }
}

/// Multiplicative hashing of the `u32` sector keys of the span map: one
/// multiply where SipHash runs rounds. `finish` folds the high half of the
/// product into the low half, which picks the bucket, so sectors that
/// differ only in high bits still spread. Keys come from traces, which may
/// be hostile: start sectors crafted to collide make lookups walk longer
/// probe chains, which slows the fold but cannot change its result. The
/// alternative, a span array in every counter page, measured as fast and
/// raised peak memory by 96 KB per touched page.
#[derive(Debug, Clone, Copy, Default)]
struct SectorHasher(u64);

impl Hasher for SectorHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Access counts of the 4096 sectors from `no * 4096` on.
#[derive(Debug, Clone)]
struct Page {
    /// Page number: `sector / 4096`.
    no: u32,
    /// Accesses per sector (a 16 KB transfer touches 32 sectors).
    counts: Box<[u64]>,
}

/// Incremental temporal locality: the per-sector state behind
/// [`TemporalLocality`].
///
/// Access counters sit in 4096-sector pages, allocated on first touch, so
/// a request adds one over a contiguous slice of each page it covers and
/// memory grows by a page per touched 4096 sectors.
#[derive(Debug, Clone, Default)]
pub struct TemporalState {
    /// Touched pages, in first-touch order.
    pages: Vec<Page>,
    /// `slots[no]` is 1 + the index in `pages` of page `no`, or 0 if the
    /// page is untouched; it reaches the highest touched page.
    slots: Vec<u32>,
    /// Access-time span per *starting* sector (the paper's record address).
    spans: HashMap<u32, SectorSpan, BuildHasherDefault<SectorHasher>>,
}

/// The directory entry of page `no`, growing the directory to reach it.
fn slot(slots: &mut Vec<u32>, no: u32) -> &mut u32 {
    let no = no as usize;
    if no >= slots.len() {
        slots.resize(no + 1, 0);
    }
    &mut slots[no]
}

impl TemporalState {
    /// The counters of page `no`, allocated if this is its first touch.
    fn page(&mut self, no: u32) -> &mut [u64] {
        let slot = slot(&mut self.slots, no);
        if *slot == 0 {
            self.pages.push(Page {
                no,
                counts: vec![0; PAGE_SECTORS].into_boxed_slice(),
            });
            *slot = self.pages.len() as u32;
        }
        &mut self.pages[*slot as usize - 1].counts
    }

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

        // The hottest sectors so far as `(accesses, Reverse(sector))`, the
        // coldest on top. Busiest first, ties by sector, is a total order,
        // so the kept set does not depend on the order of the pages.
        let mut hot = BinaryHeap::with_capacity(TemporalLocality::MAX_HOT);
        let (mut distinct_sectors, mut revisited_sectors) = (0u64, 0u64);
        for page in &self.pages {
            let base = page.no * PAGE_SECTORS as u32;
            for (at, &accesses) in page.counts.iter().enumerate() {
                if accesses == 0 {
                    continue;
                }
                distinct_sectors += 1;
                revisited_sectors += u64::from(accesses >= 2);
                let key = Reverse((accesses, Reverse(base + at as u32)));
                if hot.len() < TemporalLocality::MAX_HOT {
                    hot.push(key);
                } else if let Some(mut coldest) = hot.peek_mut() {
                    if key < *coldest {
                        *coldest = key;
                    }
                }
            }
        }
        let hot_spots = hot
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse((accesses, Reverse(sector)))| HotSpot {
                sector,
                accesses,
                freq_per_sec: accesses as f64 / duration_s,
            })
            .collect();

        TemporalLocality {
            duration_s,
            hot_spots,
            distinct_sectors,
            revisited_sectors,
            mean_interaccess_s,
        }
    }
}

impl RecordSink for TemporalState {
    fn observe(&mut self, r: &TraceRecord) {
        let end = r.end_sector().min(SECTOR_LIMIT);
        let mut sector = r.sector as u64;
        while sector < end {
            let (no, at) = (sector / PAGE_SECTORS as u64, sector % PAGE_SECTORS as u64);
            let n = (end - sector).min(PAGE_SECTORS as u64 - at);
            for c in &mut self.page(no as u32)[at as usize..(at + n) as usize] {
                *c += 1;
            }
            sector += n;
        }
        let span = SectorSpan {
            first: r.ts,
            last: r.ts,
            count: 1,
        };
        self.spans
            .entry(r.sector)
            .or_insert(SectorSpan::EMPTY)
            .merge(&span);
    }
}

impl MetricState for TemporalState {
    fn merge(&mut self, other: Self) {
        for page in other.pages {
            let slot = slot(&mut self.slots, page.no);
            if *slot == 0 {
                self.pages.push(page);
                *slot = self.pages.len() as u32;
            } else {
                let mine = &mut self.pages[*slot as usize - 1].counts;
                for (a, b) in mine.iter_mut().zip(page.counts.iter()) {
                    *a += b;
                }
            }
        }
        for (sector, span) in other.spans {
            self.spans
                .entry(sector)
                .or_insert(SectorSpan::EMPTY)
                .merge(&span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::rec;
    use crate::record::Op;
    use std::collections::HashMap;

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
    fn a_record_at_the_top_of_the_address_space_stays_small() {
        // The longest transfer, starting 10 sectors below the last address:
        // one page, a directory reaching page 2^20 − 1 and one span.
        let mut state = TemporalState::default();
        state.observe(&TraceRecord {
            sector: u32::MAX - 9,
            nsectors: u16::MAX,
            ..rec(1.0, 0, 0, Op::Write)
        });
        assert_eq!(state.pages.len(), 1);
        let bytes = state.slots.capacity() * 4
            + state.pages.len() * PAGE_SECTORS * 8
            + state.spans.capacity() * std::mem::size_of::<(u32, SectorSpan)>();
        assert!(bytes <= 8 << 20, "{bytes} bytes");
        let t = state.finalize(1_000_000);
        assert_eq!(t.distinct_sectors, 10);
        assert_eq!(t.hottest().unwrap().sector, u32::MAX - 9);
    }

    #[test]
    fn parallel_counting_matches_serial_reference() {
        let recs: Vec<_> = (0..5000u32)
            .map(|i| rec(i as f64 * 0.001, (i * 37) % 1000, 1 + (i % 4), Op::Write))
            .collect();
        let t = TemporalLocality::compute(&recs, 5_000_000);
        // Serial reference count.
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for r in &recs {
            for s in r.sector as u64..r.end_sector() {
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
