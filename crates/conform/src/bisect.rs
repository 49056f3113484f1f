//! Divergence bisection: from "hash mismatch" to "record #N changed".
//!
//! A committed golden trace (columnar, on disk) is decoded one frame at a
//! time through [`ChunkedDecoder`] and compared record by record against a
//! fresh run's records, folding a [`TraceHasher`] over the common prefix.
//! One linear pass finds the first divergent record without materializing
//! the golden trace. The report decodes that record on both sides: its
//! virtual time, sector, operation, and queue depth, plus the node whose
//! request stream moved.
//!
//! Corruption is handled, not assumed away: a damaged golden frame (bad
//! magic, truncation, a corrupt column) bounds the golden side's readable
//! prefix, and the comparison covers what is readable.

use serde::Serialize;

use essio_trace::codec::{ChunkedDecoder, COLUMNAR_FRAME_RECORDS};
use essio_trace::{RecordSink, TraceRecord};

use crate::fingerprint::{hex64, TraceHasher};

/// A decoded record, flattened for reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RecordView {
    /// Record index in the trace (0-based).
    pub index: u64,
    /// Virtual completion time, µs.
    pub time_us: u64,
    /// Starting sector.
    pub sector: u32,
    /// Sectors transferred.
    pub nsectors: u16,
    /// Requests pending in the device queue when this one completed.
    pub queue: u16,
    /// Node whose disk this record came from.
    pub node: u8,
    /// `"R"` or `"W"`.
    pub rw: String,
    /// Request origin (ground-truth activity label).
    pub origin: String,
}

impl RecordView {
    fn of(index: u64, r: &TraceRecord) -> Self {
        Self {
            index,
            time_us: r.ts,
            sector: r.sector,
            nsectors: r.nsectors,
            queue: r.pending,
            node: r.node,
            rw: match r.op {
                essio_trace::Op::Read => "R".to_string(),
                essio_trace::Op::Write => "W".to_string(),
            },
            origin: format!("{:?}", r.origin),
        }
    }
}

/// The result of bisecting a golden trace against a differing run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Divergence {
    /// First divergent record index (0-based). Every record before it is
    /// byte-identical on both sides.
    pub index: u64,
    /// The golden side's record at `index`; `None` when the golden trace
    /// ends (or stops being decodable) before it.
    pub golden: Option<RecordView>,
    /// The current side's record at `index`; `None` symmetrically.
    pub current: Option<RecordView>,
    /// Node responsible for the divergence (from whichever side has a
    /// record at `index`, preferring the current side).
    pub node: Option<u8>,
    /// Readable records on the golden side.
    pub golden_records: u64,
    /// Records on the current side.
    pub current_records: u64,
    /// Fingerprint hash ([`TraceHasher`]) of the common prefix, hex: equal
    /// on both sides by construction.
    pub common_prefix_hash: String,
    /// The golden trace's decode error, if any.
    pub notes: Vec<String>,
}

impl Divergence {
    /// One-paragraph human rendering for logs and CI artifacts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "first divergent record: #{} (common prefix {} records, hash {})\n",
            self.index, self.index, self.common_prefix_hash
        );
        let side = |v: &Option<RecordView>| match v {
            Some(r) => format!(
                "t={}µs sector={} nsectors={} {} queue={} node={} origin={}",
                r.time_us, r.sector, r.nsectors, r.rw, r.queue, r.node, r.origin
            ),
            None => "<no record: trace ends here>".to_string(),
        };
        let _ = writeln!(s, "  golden : {}", side(&self.golden));
        let _ = writeln!(s, "  current: {}", side(&self.current));
        let _ = writeln!(
            s,
            "  responsible node: {} ({} vs {} readable records)",
            self.node.map_or("?".into(), |n| n.to_string()),
            self.golden_records,
            self.current_records
        );
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        s
    }
}

/// Bisect a columnar golden trace against a fresh run's records to their
/// first divergent record. Returns `None` when the golden trace decodes to
/// exactly `current`.
pub fn bisect(golden: &[u8], current: &[TraceRecord]) -> Option<Divergence> {
    let mut dec = ChunkedDecoder::new(golden, COLUMNAR_FRAME_RECORDS);
    let mut frame = Vec::new();
    let mut prefix = TraceHasher::new();
    // The golden record at the first divergence, once found.
    let mut golden_at: Option<TraceRecord> = None;
    let mut golden_records = 0u64;
    let error = loop {
        match dec.next_chunk(&mut frame) {
            Ok(0) => break None,
            Ok(_) => {}
            Err(e) => break Some(e),
        }
        if golden_at.is_none() {
            let rest = current.get(golden_records as usize..).unwrap_or_default();
            let same = frame.iter().zip(rest).take_while(|(g, c)| g == c).count();
            prefix.observe_all(&frame[..same]);
            golden_at = frame.get(same).copied();
        }
        golden_records += frame.len() as u64;
    };

    let index = prefix.records();
    let golden_view = golden_at.map(|r| RecordView::of(index, &r));
    let current_view = current
        .get(index as usize)
        .map(|r| RecordView::of(index, r));
    if golden_view.is_none() && current_view.is_none() && error.is_none() {
        return None;
    }
    Some(Divergence {
        index,
        node: current_view
            .as_ref()
            .or(golden_view.as_ref())
            .map(|r| r.node),
        golden: golden_view,
        current: current_view,
        golden_records,
        current_records: current.len() as u64,
        common_prefix_hash: hex64(prefix.value()),
        notes: error
            .map(|e| format!("golden trace decode error after record {golden_records}: {e}"))
            .into_iter()
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use essio_trace::codec::encode_columnar;
    use essio_trace::{Op, Origin};

    fn recs(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                ts: i * 100,
                sector: (i as u32 * 31) % 500_000,
                nsectors: 2 + (i % 3) as u16 * 2,
                pending: (i % 5) as u16,
                node: (i % 2) as u8,
                op: if i % 4 == 0 { Op::Read } else { Op::Write },
                origin: Origin::FileData,
            })
            .collect()
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let r = recs(5000);
        assert_eq!(bisect(&encode_columnar(&r), &r), None);
        assert_eq!(bisect(&encode_columnar(&[]), &[]), None);
    }

    #[test]
    fn flipped_field_past_the_first_frame_is_localized_exactly() {
        let r = recs(10_000);
        let golden = encode_columnar(&r);
        let victim = COLUMNAR_FRAME_RECORDS + 437;
        let mut r2 = r.clone();
        r2[victim].sector ^= 1;
        let d = bisect(&golden, &r2).expect("must diverge");
        assert_eq!(d.index, victim as u64);
        assert_eq!(d.node, Some(r[victim].node));
        let (g, c) = (d.golden.clone().unwrap(), d.current.clone().unwrap());
        assert_eq!(g.time_us, r[victim].ts);
        assert_eq!(g.sector, r[victim].sector);
        assert_eq!(c.sector, r[victim].sector ^ 1);
        assert_eq!(g.rw, if r[victim].op == Op::Read { "R" } else { "W" });
        assert_eq!((d.golden_records, d.current_records), (10_000, 10_000));
        assert!(d.notes.is_empty());
        assert!(d.render().contains(&format!("record: #{victim}")));
    }

    #[test]
    fn common_prefix_hash_is_the_fingerprint_of_the_prefix() {
        let r = recs(6000);
        let mut r2 = r.clone();
        r2[5000].ts += 1;
        let d = bisect(&encode_columnar(&r), &r2).expect("must diverge");
        let mut h = TraceHasher::new();
        h.observe_all(&r[..5000]);
        assert_eq!(d.common_prefix_hash, hex64(h.value()));
        // An empty common prefix hashes like the empty trace.
        r2[0].node ^= 1;
        let d = bisect(&encode_columnar(&r), &r2).expect("must diverge");
        assert_eq!(d.index, 0);
        assert_eq!(d.common_prefix_hash, hex64(TraceHasher::new().value()));
    }

    #[test]
    fn truncation_diverges_at_the_cut_on_either_side() {
        let r = recs(5000);
        // Current run shorter than the golden.
        let d = bisect(&encode_columnar(&r), &r[..4500]).expect("must diverge");
        assert_eq!(d.index, 4500);
        assert!(d.golden.is_some());
        assert_eq!(d.current, None);
        assert_eq!(d.node, Some(r[4500].node));
        assert_eq!((d.golden_records, d.current_records), (5000, 4500));
        // Golden shorter than the current run, cut at a frame boundary.
        let d = bisect(&encode_columnar(&r[..4096]), &r).expect("must diverge");
        assert_eq!(d.index, 4096);
        assert_eq!(d.golden, None);
        assert!(d.current.is_some());
        assert_eq!((d.golden_records, d.current_records), (4096, 5000));
        assert!(d.notes.is_empty());
    }

    #[test]
    fn corrupt_final_frame_bounds_the_readable_prefix() {
        let r = recs(5000);
        let mut golden = encode_columnar(&r).to_vec();
        // The third-last byte is an origin of the second (final) frame.
        let at = golden.len() - 3;
        golden[at] ^= 0x5a;
        let d = bisect(&golden, &r).expect("must diverge");
        assert_eq!(d.index, 4096);
        assert_eq!(d.golden, None, "record 4096 is unreadable");
        assert!(d.current.is_some());
        assert_eq!((d.golden_records, d.current_records), (4096, 5000));
        assert_eq!(d.notes.len(), 1);
        assert!(
            d.notes[0].starts_with("golden trace decode error after record 4096"),
            "{d:?}"
        );
    }

    #[test]
    fn unreadable_golden_diverges_at_record_zero() {
        let r = recs(10);
        let d = bisect(b"not a trace", &r).expect("must diverge");
        assert_eq!(d.index, 0);
        assert_eq!(d.golden, None);
        assert_eq!(d.golden_records, 0);
        assert!(d.notes[0].contains("bad magic"), "{d:?}");
        // Even against an empty run, an unreadable golden is a divergence.
        assert!(bisect(b"not a trace", &[]).is_some());
    }
}
