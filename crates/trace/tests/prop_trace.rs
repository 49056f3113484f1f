#![cfg(feature = "proptests")]

//! Property tests over the trace layer: codecs must round-trip arbitrary
//! records, and the analyses must conserve mass (every request counted
//! exactly once in every view).

use essio_conform::fingerprint::TraceHasher;
use essio_trace::analysis::{
    rw::RwStats, series, size::ClassBreakdown, spatial, temporal::TemporalLocality, MetricState,
    TemporalState,
};
use essio_trace::{codec, Op, Origin, RecordSink, TraceRecord};
use proptest::prelude::*;

fn record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..2_000_000_000,
        0u32..999_900,
        1u16..=64,
        0u16..32,
        0u8..16,
        any::<bool>(),
        0u8..8,
    )
        .prop_map(
            |(ts, sector, nsectors, pending, node, read, origin)| TraceRecord {
                ts,
                sector,
                nsectors,
                pending,
                node,
                op: if read { Op::Read } else { Op::Write },
                origin: Origin::from_u8(origin),
            },
        )
}

fn trace(max: usize) -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(record(), 0..max).prop_map(|mut v| {
        v.sort_by_key(|r| r.ts);
        v
    })
}

/// Unconstrained records: full-range fields, unsorted timestamps. The
/// columnar deltas are wrapping, so the format must be total over these.
fn wild_record() -> impl Strategy<Value = TraceRecord> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(
            |(ts, sector, nsectors, pending, node, read, origin)| TraceRecord {
                ts,
                sector,
                nsectors,
                pending,
                node,
                op: if read { Op::Read } else { Op::Write },
                origin: Origin::from_u8(origin),
            },
        )
}

/// Records for the temporal-locality oracle: sectors at 0, across 4096-sector
/// page boundaries, at the end of the paper's disk and at the top of the
/// sector address space, with transfers of 0 to 16 sectors and now and then
/// several pages long, over few enough sectors that they recur.
fn temporal_record() -> impl Strategy<Value = TraceRecord> {
    let sector = prop_oneof![
        0u32..48,
        (1u32..6, 0u32..48).prop_map(|(page, d)| page * 4096 - 24 + d),
        999_900u32..999_936,
        u32::MAX - 47..=u32::MAX,
    ];
    let nsectors =
        (0u8..16, 0u16..=16, 4096u16..=9000)
            .prop_map(|(pick, small, long)| if pick == 0 { long } else { small });
    (0u64..50_000_000, sector, nsectors).prop_map(|(ts, sector, nsectors)| TraceRecord {
        ts,
        sector,
        nsectors,
        pending: 0,
        node: 0,
        op: Op::Write,
        origin: Origin::Unknown,
    })
}

/// Figure 8 as per-sector maps, the way `TemporalState` computed it before
/// it counted in pages: `(distinct, revisited, hot spots, mean inter-access
/// bits)`, hot spots as `(sector, accesses)`, busiest first, ties by sector.
fn temporal_map_oracle(t: &[TraceRecord]) -> (u64, u64, Vec<(u32, u64)>, u64) {
    use std::collections::HashMap;
    let mut counts: HashMap<u32, u64> = HashMap::new();
    let mut spans: HashMap<u32, (u64, u64, u64)> = HashMap::new();
    for r in t {
        for s in r.sector as u64..r.end_sector().min(1 << 32) {
            *counts.entry(s as u32).or_insert(0) += 1;
        }
        let span = spans.entry(r.sector).or_insert((r.ts, r.ts, 0));
        *span = (span.0.min(r.ts), span.1.max(r.ts), span.2 + 1);
    }
    let (mut gap_sum_us, mut gap_n) = (0u128, 0u64);
    for &(first, last, n) in spans.values().filter(|s| s.2 >= 2) {
        gap_sum_us += (last - first) as u128;
        gap_n += n - 1;
    }
    let mean = if gap_n == 0 {
        0.0
    } else {
        gap_sum_us as f64 / 1e6 / gap_n as f64
    };
    let mut hot: Vec<(u32, u64)> = counts.iter().map(|(&s, &n)| (s, n)).collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(TemporalLocality::MAX_HOT);
    let revisited = counts.values().filter(|&&n| n >= 2).count() as u64;
    (counts.len() as u64, revisited, hot, mean.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paged_temporal_state_matches_the_per_sector_map_oracle(
        t in prop::collection::vec(temporal_record(), 0..120),
        cuts in (any::<u16>(), any::<u16>()),
    ) {
        let duration = 60_000_000;
        let serial = TemporalLocality::compute(&t, duration);
        let (distinct, revisited, hot, mean_bits) = temporal_map_oracle(&t);
        prop_assert_eq!(serial.distinct_sectors, distinct);
        prop_assert_eq!(serial.revisited_sectors, revisited);
        let got: Vec<(u32, u64)> = serial.hot_spots.iter().map(|h| (h.sector, h.accesses)).collect();
        prop_assert_eq!(got, hot);
        prop_assert_eq!(serial.mean_interaccess_s.to_bits(), mean_bits);

        // Merging folds of a random three-way split, in either order,
        // equals one serial fold.
        let (a, b) = (cuts.0 as usize % (t.len() + 1), cuts.1 as usize % (t.len() + 1));
        let (a, b) = (a.min(b), a.max(b));
        let fold = |part: &[TraceRecord]| {
            let mut s = TemporalState::default();
            s.observe_all(part);
            s
        };
        let json = |l: &TemporalLocality| serde_json::to_string(l).unwrap();
        let mut forward = fold(&t[..a]);
        forward.merge(fold(&t[a..b]));
        forward.merge(fold(&t[b..]));
        let mut backward = fold(&t[b..]);
        backward.merge(fold(&t[a..b]));
        backward.merge(fold(&t[..a]));
        prop_assert_eq!(json(&forward.finalize(duration)), json(&serial));
        prop_assert_eq!(json(&backward.finalize(duration)), json(&serial));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_codec_roundtrips_arbitrary_traces(
        t in prop::collection::vec(wild_record(), 0..300),
        frame in 1usize..70,
    ) {
        let mut enc = codec::ColumnarEncoder::with_frame_records(frame);
        for r in &t {
            enc.push(*r);
        }
        let encoded = enc.finish();
        prop_assert_eq!(codec::decode_columnar(&encoded).unwrap(), t);
    }

    #[test]
    fn distinct_records_have_distinct_canonical_bytes(
        a in wild_record(),
        field in 0u8..7,
        by in 1u64..=255,
    ) {
        // The fingerprint hash domain is injective: change any one field
        // and the canonical bytes change; change none and they do not.
        let mut b = a;
        match field {
            0 => b.ts = a.ts.wrapping_add(by << 40),
            1 => b.sector = a.sector.wrapping_add(by as u32),
            2 => b.nsectors = a.nsectors.wrapping_add(by as u16),
            3 => b.pending = a.pending.wrapping_add(by as u16),
            4 => b.node = a.node.wrapping_add(by as u8),
            5 => b.op = if a.op == Op::Read { Op::Write } else { Op::Read },
            _ => b.origin = Origin::from_u8((a.origin as u8 + 1 + (by % 7) as u8) % 8),
        }
        prop_assert!(a != b);
        prop_assert!(codec::canonical_record_bytes(&a) != codec::canonical_record_bytes(&b));
        let copy = a;
        prop_assert_eq!(
            codec::canonical_record_bytes(&a),
            codec::canonical_record_bytes(&copy)
        );
    }

    #[test]
    fn columnar_chunked_decode_matches_batch(
        t in prop::collection::vec(wild_record(), 0..200),
        frame in 1usize..40,
    ) {
        let mut enc = codec::ColumnarEncoder::with_frame_records(frame);
        for r in &t {
            enc.push(*r);
        }
        let encoded = enc.finish();
        let mut out: Vec<TraceRecord> = Vec::new();
        codec::decode_chunked(&encoded[..], &mut out).unwrap();
        prop_assert_eq!(out, t);
    }

    #[test]
    fn truncated_columnar_never_panics(t in trace(50), cut in 0usize..400) {
        let encoded = codec::encode_columnar(&t);
        let cut = cut.min(encoded.len());
        let _ = codec::decode_columnar(&encoded[..cut]); // must return Err or Ok, not panic
    }

    #[test]
    fn size_breakdown_counts_every_request_once(t in trace(300)) {
        let b = ClassBreakdown::compute(&t);
        prop_assert_eq!(b.total(), t.len() as u64);
        prop_assert_eq!(b.histogram.total(), t.len() as u64);
        // Confusion matrix only counts known origins.
        let known = t.iter().filter(|r| r.origin != Origin::Unknown).count() as u64;
        let conf: u64 = b.confusion.iter().map(|(_, _, n)| n).sum();
        prop_assert_eq!(conf, known);
    }

    #[test]
    fn rw_stats_partition_the_trace(t in trace(300)) {
        let s = RwStats::compute(&t, 1_000_000_000);
        prop_assert_eq!(s.reads + s.writes, t.len() as u64);
        let total_bytes: u64 = t.iter().map(|r| r.bytes() as u64).sum();
        prop_assert_eq!(s.read_bytes + s.write_bytes, total_bytes);
        if !t.is_empty() {
            prop_assert!((s.read_pct() + s.write_pct() - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn spatial_bands_conserve_requests(t in trace(300), band in 1_000u32..200_000) {
        let s = spatial::SpatialLocality::compute(&t, band, 1_000_000);
        prop_assert_eq!(s.total(), t.len() as u64);
        let pct: f64 = s.bands.iter().map(|b| b.pct).sum();
        if !t.is_empty() {
            prop_assert!((pct - 100.0).abs() < 1e-6);
        }
        prop_assert!((0.0..=1.0).contains(&s.gini));
        prop_assert!((0.0..=1.0).contains(&s.top20_fraction));
    }

    #[test]
    fn lorenz_curve_is_monotone_and_convex_ordered(counts in prop::collection::vec(0u64..1000, 1..50)) {
        let pts = spatial::lorenz(&counts);
        for w in pts.windows(2) {
            prop_assert!(w[1].0 >= w[0].0);
            prop_assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        // Lorenz curve lies below the diagonal.
        for (x, y) in &pts {
            prop_assert!(*y <= *x + 1e-9, "({x}, {y}) above the diagonal");
        }
    }

    #[test]
    fn temporal_counts_match_sector_coverage(t in trace(150)) {
        let tl = TemporalLocality::compute(&t, 1_000_000_000);
        let mut sectors = std::collections::HashSet::new();
        for r in &t {
            for s in r.sector as u64..r.end_sector() {
                sectors.insert(s);
            }
        }
        prop_assert_eq!(tl.distinct_sectors, sectors.len() as u64);
        if let Some(h) = tl.hottest() {
            prop_assert!(h.accesses >= 1);
            prop_assert!(h.freq_per_sec > 0.0);
        }
    }

    #[test]
    fn binned_series_conserves_requests_and_bytes(t in trace(300)) {
        let duration_s = 2_000.0;
        let bins = series::binned(&t, 10.0, duration_s);
        let reqs: u64 = bins.iter().map(|b| b.requests).sum();
        let bytes: u64 = bins.iter().map(|b| b.bytes).sum();
        prop_assert_eq!(reqs, t.len() as u64);
        prop_assert_eq!(bytes, t.iter().map(|r| r.bytes() as u64).sum::<u64>());
        let reads: u64 = bins.iter().map(|b| b.reads).sum();
        prop_assert_eq!(reads, t.iter().filter(|r| r.op == Op::Read).count() as u64);
    }

    #[test]
    fn downsample_never_exceeds_cap_and_keeps_global_max(
        points in prop::collection::vec((0.0f64..100.0, 0.0f64..64.0), 1..500),
        cap in 1usize..64,
    ) {
        let thin = series::downsample(&points, cap);
        prop_assert!(thin.len() <= cap.max(points.len().min(cap)));
        let max_in = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let max_out = thin.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(max_in, max_out, "decimation must keep the peak");
    }
}

/// Feed `data` to both decoders, batch and chunked. Each must return `Ok`
/// or `Err` (a panic fails the property), and the two must agree: the
/// same records or the same error.
fn decode_every_way(data: &[u8]) -> Result<(), TestCaseError> {
    let batch = codec::decode_columnar(data);
    let mut recs = Vec::<TraceRecord>::new();
    let chunked = codec::decode_chunked(data, &mut recs).map(|_| recs);
    prop_assert_eq!(batch, chunked);
    Ok(())
}

/// 1–4 edits `(kind, position, byte)` for [`mutate`].
fn edits() -> impl Strategy<Value = Vec<(u8, u32, u8)>> {
    prop::collection::vec((0u8..3, any::<u32>(), 1u8..=255), 1..=4)
}

/// Apply `edits` in order: kind 0 flips the bits of `byte` at the
/// position, 1 overwrites it with `byte`, 2 truncates there.
fn mutate(mut data: Vec<u8>, edits: &[(u8, u32, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        if data.is_empty() {
            break;
        }
        let i = at as usize % data.len();
        match kind {
            0 => data[i] ^= byte,
            1 => data[i] = byte,
            _ => data.truncate(i),
        }
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_every_way(&bytes)?;
    }

    #[test]
    fn decoders_never_panic_after_the_magic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_every_way(&[&codec::MAGIC_COLUMNAR[..], &bytes].concat())?;
    }

    #[test]
    fn decoders_never_panic_on_a_mutated_columnar_trace(
        t in prop::collection::vec(wild_record(), 0..100),
        frame in 1usize..40,
        e in edits(),
    ) {
        let mut enc = codec::ColumnarEncoder::with_frame_records(frame);
        for r in &t {
            enc.push(*r);
        }
        decode_every_way(&mutate(enc.finish().to_vec(), &e))?;
    }
}

/// The `TraceHasher` fingerprint, `(hash, records)`, of what each decoder
/// reads from `data`: batch `decode_columnar`, then `decode_chunked`.
/// `None` where the decoder returns `Err`.
fn fingerprints(data: &[u8]) -> [Option<(u64, u64)>; 2] {
    let batch = codec::decode_columnar(data).ok().map(|recs| {
        let mut h = TraceHasher::new();
        h.observe_all(&recs);
        (h.value(), h.records())
    });
    let mut h = TraceHasher::new();
    let chunked = codec::decode_chunked(data, &mut h)
        .ok()
        .map(|_| (h.value(), h.records()));
    [batch, chunked]
}

/// Every single-byte flip (each position XOR each nonzero mask) and every
/// truncation of `encoded` must decode to `Err` or to another fingerprint:
/// no damaged byte goes unnoticed.
fn damage_is_never_silent(encoded: &[u8]) -> Result<(), TestCaseError> {
    let clean = fingerprints(encoded)[0];
    prop_assert!(clean.is_some(), "the undamaged encoding must decode");
    for at in 0..encoded.len() {
        for mask in 1..=u8::MAX {
            let mut damaged = encoded.to_vec();
            damaged[at] ^= mask;
            for fp in fingerprints(&damaged) {
                prop_assert!(fp != clean, "byte {at} ^ {mask:#04x} decodes unchanged");
            }
        }
        for fp in fingerprints(&encoded[..at]) {
            prop_assert!(fp != clean, "truncation to {at} bytes decodes unchanged");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn damaging_one_byte_of_a_columnar_trace_is_detected(
        t in prop::collection::vec(wild_record(), 0..5),
        frame in 1usize..4,
    ) {
        let mut enc = codec::ColumnarEncoder::with_frame_records(frame);
        for r in &t {
            enc.push(*r);
        }
        damage_is_never_silent(&enc.finish())?;
    }
}
