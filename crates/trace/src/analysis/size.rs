//! Request-size analysis.
//!
//! Paper §5 identifies three primary activity classes by physical request
//! size: **1 KB** (the filesystem block size — small explicit I/O, kernel
//! bookkeeping), **4 KB** (the page size — paging and swapping), and
//! **approaching 16 KB and its multiples** (streaming reads whose read-ahead
//! window has grown to the cache-block scale, reaching 32 KB under the
//! combined load). Figure 4 additionally calls out a 2 KB population for the
//! N-body code (adjacent dirty blocks merged at the driver).

use std::collections::BTreeMap;

use serde::Serialize;

use super::{fold_records, MetricState};
use crate::record::{Origin, TraceRecord};
use crate::sink::RecordSink;

/// The size taxonomy used throughout the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum SizeClass {
    /// ≤ 1 KiB: single filesystem blocks.
    B1K,
    /// (1, 2] KiB: two merged blocks.
    B2K,
    /// (2, 4) KiB: three merged blocks.
    B3K,
    /// exactly 4 KiB: page transfers (paging/swap).
    Page4K,
    /// (4, 8] KiB: grown read-ahead, mid flight.
    To8K,
    /// (8, 16] KiB: full cache-scale streaming transfers.
    To16K,
    /// > 16 KiB: boosted transfers seen under the combined load.
    Over16K,
}

impl SizeClass {
    /// All classes, smallest first.
    pub const ALL: [SizeClass; 7] = [
        SizeClass::B1K,
        SizeClass::B2K,
        SizeClass::B3K,
        SizeClass::Page4K,
        SizeClass::To8K,
        SizeClass::To16K,
        SizeClass::Over16K,
    ];

    /// Classify a transfer size in bytes.
    pub fn classify(bytes: u32) -> SizeClass {
        const KIB: u32 = 1024;
        match bytes {
            0..=1024 => SizeClass::B1K,
            b if b <= 2 * KIB => SizeClass::B2K,
            b if b < 4 * KIB => SizeClass::B3K,
            b if b == 4 * KIB => SizeClass::Page4K,
            b if b <= 8 * KIB => SizeClass::To8K,
            b if b <= 16 * KIB => SizeClass::To16K,
            _ => SizeClass::Over16K,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::B1K => "1K",
            SizeClass::B2K => "2K",
            SizeClass::B3K => "3K",
            SizeClass::Page4K => "4K(page)",
            SizeClass::To8K => "<=8K",
            SizeClass::To16K => "<=16K",
            SizeClass::Over16K => ">16K",
        }
    }
}

/// Exact-size histogram (bytes → request count).
#[derive(Debug, Clone, Default, Serialize)]
pub struct SizeHistogram {
    /// Number of requests per exact transfer size in bytes.
    pub counts: BTreeMap<u32, u64>,
}

impl SizeHistogram {
    /// Build the histogram for a trace.
    pub fn compute(records: &[TraceRecord]) -> Self {
        ClassBreakdown::compute(records).histogram
    }

    /// Total requests counted.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The most frequent ("predominate", §4.1) request size in bytes.
    pub fn mode(&self) -> Option<u32> {
        self.counts
            .iter()
            .max_by_key(|(size, count)| (*count, std::cmp::Reverse(**size)))
            .map(|(size, _)| *size)
    }

    /// Mean request size in bytes.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u128 = self
            .counts
            .iter()
            .map(|(s, c)| *s as u128 * *c as u128)
            .sum();
        sum as f64 / total as f64
    }
}

/// Counts per [`SizeClass`], plus the class × origin confusion matrix.
#[derive(Debug, Clone, Serialize)]
pub struct ClassBreakdown {
    /// Requests per size class, in [`SizeClass::ALL`] order.
    pub by_class: Vec<(SizeClass, u64)>,
    /// Exact-size histogram.
    pub histogram: SizeHistogram,
    /// (class, origin, count) for records with known origin — validates that
    /// the paper's size-based inference (1 KB ⇒ blocks, 4 KB ⇒ paging,
    /// ≥8 KB ⇒ streaming) holds in the model.
    pub confusion: Vec<(SizeClass, Origin, u64)>,
}

impl ClassBreakdown {
    /// Compute the class decomposition of a trace.
    pub fn compute(records: &[TraceRecord]) -> Self {
        fold_records(records, SizeState::default).finalize()
    }

    /// Total requests.
    pub fn total(&self) -> u64 {
        self.by_class.iter().map(|(_, n)| n).sum()
    }

    /// Count for one class.
    pub fn count(&self, class: SizeClass) -> u64 {
        self.by_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Fraction of requests in `class` (0 when the trace is empty).
    pub fn fraction(&self, class: SizeClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(class) as f64 / total as f64
        }
    }

    /// For records with known origin: of the requests in `class`, the
    /// fraction issued by `origin`. Used to verify e.g. "4 KB ⇒ paging".
    pub fn class_purity(&self, class: SizeClass, origins: &[Origin]) -> f64 {
        let in_class: u64 = self
            .confusion
            .iter()
            .filter(|(c, _, _)| *c == class)
            .map(|(_, _, n)| n)
            .sum();
        if in_class == 0 {
            return 0.0;
        }
        let matching: u64 = self
            .confusion
            .iter()
            .filter(|(c, o, _)| *c == class && origins.contains(o))
            .map(|(_, _, n)| n)
            .sum();
        matching as f64 / in_class as f64
    }

    /// Human-readable class table.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("size classes:\n");
        let total = self.total().max(1);
        for (class, n) in &self.by_class {
            if *n > 0 {
                let _ = writeln!(
                    s,
                    "  {:>9}: {:>8} ({:5.1}%)",
                    class.label(),
                    n,
                    *n as f64 * 100.0 / total as f64
                );
            }
        }
        if let Some(mode) = self.histogram.mode() {
            let _ = writeln!(s, "  predominant size: {} bytes", mode);
        }
        s
    }
}

/// Incremental size decomposition: the counts behind [`ClassBreakdown`].
#[derive(Debug, Clone, Default)]
pub struct SizeState {
    /// Requests per size class, indexed by `SizeClass as usize`.
    pub class_counts: [u64; SizeClass::ALL.len()],
    /// Requests per exact transfer size in bytes.
    pub size_counts: BTreeMap<u32, u64>,
    /// Requests per (size class, origin), known origins only, indexed by
    /// `SizeClass as usize` then `Origin as usize`.
    pub confusion: [[u64; Origin::ALL.len()]; SizeClass::ALL.len()],
}

impl SizeState {
    /// The class decomposition of every record folded in.
    pub fn finalize(&self) -> ClassBreakdown {
        let by_class = SizeClass::ALL
            .iter()
            .map(|&c| (c, self.class_counts[c as usize]))
            .collect();
        let confusion = SizeClass::ALL
            .iter()
            .flat_map(|&c| {
                Origin::ALL
                    .iter()
                    .map(move |&o| (c, o, self.confusion[c as usize][o as usize]))
            })
            .filter(|&(_, _, n)| n > 0)
            .collect();
        ClassBreakdown {
            by_class,
            histogram: SizeHistogram {
                counts: self.size_counts.clone(),
            },
            confusion,
        }
    }
}

impl RecordSink for SizeState {
    fn observe(&mut self, r: &TraceRecord) {
        let bytes = r.bytes();
        let class = SizeClass::classify(bytes) as usize;
        self.class_counts[class] += 1;
        *self.size_counts.entry(bytes).or_insert(0) += 1;
        if r.origin != Origin::Unknown {
            self.confusion[class][r.origin as usize] += 1;
        }
    }
}

impl MetricState for SizeState {
    fn merge(&mut self, other: Self) {
        for (a, b) in self.class_counts.iter_mut().zip(other.class_counts) {
            *a += b;
        }
        for (size, n) in other.size_counts {
            *self.size_counts.entry(size).or_insert(0) += n;
        }
        for (row, other_row) in self.confusion.iter_mut().zip(other.confusion) {
            for (a, b) in row.iter_mut().zip(other_row) {
                *a += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::rec;
    use crate::record::{Op, TraceRecord};

    #[test]
    fn classify_boundaries() {
        assert_eq!(SizeClass::classify(512), SizeClass::B1K);
        assert_eq!(SizeClass::classify(1024), SizeClass::B1K);
        assert_eq!(SizeClass::classify(1536), SizeClass::B2K);
        assert_eq!(SizeClass::classify(2048), SizeClass::B2K);
        assert_eq!(SizeClass::classify(3072), SizeClass::B3K);
        assert_eq!(SizeClass::classify(4096), SizeClass::Page4K);
        assert_eq!(SizeClass::classify(8192), SizeClass::To8K);
        assert_eq!(SizeClass::classify(16384), SizeClass::To16K);
        assert_eq!(SizeClass::classify(16385), SizeClass::Over16K);
        assert_eq!(SizeClass::classify(32768), SizeClass::Over16K);
    }

    #[test]
    fn histogram_counts_and_mode() {
        let recs = vec![
            rec(0.0, 0, 1, Op::Write),
            rec(1.0, 0, 1, Op::Write),
            rec(2.0, 0, 4, Op::Read),
        ];
        let h = SizeHistogram::compute(&recs);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts[&1024], 2);
        assert_eq!(h.mode(), Some(1024));
        assert!((h.mean() - 2048.0).abs() < 1e-9);
    }

    #[test]
    fn mode_prefers_smaller_on_tie() {
        let recs = vec![rec(0.0, 0, 1, Op::Write), rec(1.0, 0, 4, Op::Read)];
        assert_eq!(SizeHistogram::compute(&recs).mode(), Some(1024));
    }

    #[test]
    fn empty_histogram() {
        let h = SizeHistogram::compute(&[]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.mode(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let recs: Vec<TraceRecord> = (1..=32).map(|k| rec(k as f64, 0, k, Op::Read)).collect();
        let b = ClassBreakdown::compute(&recs);
        assert_eq!(b.total(), 32);
        let sum: f64 = SizeClass::ALL.iter().map(|c| b.fraction(*c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn confusion_tracks_known_origins() {
        use crate::record::Origin;
        let mut r1 = rec(0.0, 0, 4, Op::Read);
        r1.origin = Origin::SwapIn;
        let mut r2 = rec(1.0, 0, 4, Op::Write);
        r2.origin = Origin::SwapOut;
        let mut r3 = rec(2.0, 0, 4, Op::Read);
        r3.origin = Origin::FileData; // impostor: 4 KB that is NOT paging
        let b = ClassBreakdown::compute(&[r1, r2, r3]);
        let purity = b.class_purity(
            SizeClass::Page4K,
            &[Origin::SwapIn, Origin::SwapOut, Origin::PageIn],
        );
        assert!((purity - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_origin_excluded_from_confusion() {
        let b = ClassBreakdown::compute(&[rec(0.0, 0, 4, Op::Read)]);
        assert!(b.confusion.is_empty());
        assert_eq!(b.class_purity(SizeClass::Page4K, &[]), 0.0);
    }

    #[test]
    fn report_mentions_populated_classes_only() {
        let b = ClassBreakdown::compute(&[rec(0.0, 0, 1, Op::Write)]);
        let report = b.report();
        assert!(report.contains("1K"));
        assert!(!report.contains(">16K"));
    }
}
