#![cfg(feature = "proptests")]

//! Property tests: merge is a lawful monoid op.
//!
//! The batch summary folds record chunks in parallel and merges them; the
//! streamed summary folds the same states one record at a time. The two
//! agree bit for bit because merge is associative and commutative, with
//! the fresh state as identity, under any sharding of the input; these
//! properties check exactly that. Summaries are compared through their
//! JSON rendering: Rust's shortest round-trip float formatting is
//! injective on distinct finite `f64`s, so string equality here is bit
//! equality of every field.

use proptest::prelude::*;

use essio_stream::{merge_all, StreamConfig, StreamSummary};
use essio_trace::analysis::TraceSummary;
use essio_trace::{Op, Origin, RecordSink, TraceRecord};

const TOTAL_SECTORS: u32 = 1_000_000;

fn cfg() -> StreamConfig {
    StreamConfig::paper(TOTAL_SECTORS)
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..2_000_000_000,
        0u32..1_100_000, // includes sectors past the last full band
        1u16..64,
        0u16..16,
        0u8..16,
        any::<bool>(),
        0u8..8,
    )
        .prop_map(
            |(ts, sector, nsectors, pending, node, is_read, origin)| TraceRecord {
                ts,
                sector,
                nsectors,
                pending,
                node,
                op: if is_read { Op::Read } else { Op::Write },
                origin: Origin::from_u8(origin),
            },
        )
}

fn summary_of(records: &[TraceRecord]) -> StreamSummary {
    let mut s = StreamSummary::new(cfg());
    s.observe_all(records);
    s
}

fn json(s: &TraceSummary) -> String {
    serde_json::to_string(s).expect("summary serializes")
}

proptest! {
    /// Any 3-way split, merged in either association order, finalizes to
    /// the same summary as observing the whole trace — merge is
    /// associative and commutative up to finalized output.
    #[test]
    fn merge_associative_and_commutative_on_random_splits(
        records in proptest::collection::vec(arb_record(), 0..300),
        cut_a in 0usize..301,
        cut_b in 0usize..301,
        duration in 1u64..4_000_000_000,
    ) {
        let i = cut_a.min(records.len());
        let j = cut_b.min(records.len());
        let (lo, hi) = (i.min(j), i.max(j));
        let a = summary_of(&records[..lo]);
        let b = summary_of(&records[lo..hi]);
        let c = summary_of(&records[hi..]);

        let whole = json(&summary_of(&records).finalize(duration));
        let left = (a.clone().merge(b.clone())).merge(c.clone());
        let right = a.clone().merge(b.clone().merge(c.clone()));
        let swapped = c.merge(a.merge(b));

        prop_assert_eq!(&json(&left.finalize(duration)), &whole);
        prop_assert_eq!(&json(&right.finalize(duration)), &whole);
        prop_assert_eq!(&json(&swapped.finalize(duration)), &whole);
        prop_assert_eq!(left.records, records.len() as u64);
    }

    /// The rayon parallel reduction agrees with a sequential fold for any
    /// shard count.
    #[test]
    fn parallel_merge_matches_sequential(
        records in proptest::collection::vec(arb_record(), 0..300),
        shards in 1usize..9,
        duration in 1u64..4_000_000_000,
    ) {
        let mut split: Vec<StreamSummary> = (0..shards).map(|_| StreamSummary::new(cfg())).collect();
        for (i, r) in records.iter().enumerate() {
            split[i % shards].observe(r);
        }
        let sequential = split
            .iter()
            .cloned()
            .fold(StreamSummary::new(cfg()), |acc, s| acc.merge(s));
        let parallel = merge_all(split).unwrap();
        prop_assert_eq!(
            json(&parallel.finalize(duration)),
            json(&sequential.finalize(duration))
        );
    }

    /// Space-Saving guarantees survive observation: tracked keys are never
    /// under-estimated and the error bound brackets the true count.
    #[test]
    fn hot_sketch_overestimates(records in proptest::collection::vec(arb_record(), 1..300)) {
        let s = summary_of(&records);
        let mut true_counts = std::collections::HashMap::new();
        for r in &records {
            *true_counts.entry(r.sector).or_insert(0u64) += 1;
        }
        for (sector, counter) in s.hot_sketch.top() {
            let t = true_counts.get(&sector).copied().unwrap_or(0);
            prop_assert!(counter.count >= t, "estimate {} under true {}", counter.count, t);
            prop_assert!(
                counter.count.saturating_sub(counter.err) <= t,
                "lower bound {} above true {}",
                counter.count - counter.err,
                t
            );
        }
        prop_assert_eq!(s.hot_sketch.observed(), records.len() as u64);
    }

    /// The inter-arrival log-histogram preserves totals across any split
    /// (one synthetic boundary gap is added per merge seam).
    #[test]
    fn interarrival_totals_survive_merge(
        records in proptest::collection::vec(arb_record(), 2..200),
        cut in 1usize..199,
    ) {
        let mut sorted = records.clone();
        sorted.sort_by_key(|r| r.ts);
        let cut = cut.min(sorted.len() - 1);
        let a = summary_of(&sorted[..cut]);
        let b = summary_of(&sorted[cut..]);
        let merged = a.merge(b);
        // n records in time order → n-1 gaps, however the stream was split.
        prop_assert_eq!(merged.interarrival_us.total, (sorted.len() - 1) as u64);
    }
}
