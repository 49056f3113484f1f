//! The kernel-side trace buffer and its proc-fs style interface.
//!
//! Paper §3.4: *"The I/O instrumentation traces were buffered by the kernel
//! message handling facility through the proc filesystem ... The level of
//! instrumentation was controlled through the use of an ioctrl call. This
//! allowed the instrumentation to be turned off and on, without the need to
//! reboot the cluster."*
//!
//! We model that faithfully: a bounded ring buffer in "kernel memory" that
//! the driver pushes into and a reader drains (the simulated `/proc/iotrace`
//! file). If the reader falls behind, the oldest records are overwritten and
//! a drop counter increments — exactly the failure mode of the kernel
//! message ring. [`InstrumentationLevel`] is the ioctl.

use std::collections::VecDeque;

use crate::record::{Origin, TraceRecord};
use crate::sink::RecordSink;

/// The ioctl-selectable instrumentation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InstrumentationLevel {
    /// Tracing disabled; the driver hooks are no-ops.
    Off,
    /// The paper's record: timestamp, sector, R/W flag, pending count
    /// (plus length). Origin is recorded as `Unknown`.
    Basic,
    /// Basic plus ground-truth origin attribution (simulation-only luxury).
    Full,
}

/// Bounded in-kernel ring buffer of trace records.
#[derive(Debug)]
pub struct TraceBuffer {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    level: InstrumentationLevel,
    dropped: u64,
}

impl TraceBuffer {
    /// Create a buffer holding at most `capacity` records.
    ///
    /// The prototype buffered through the kernel message facility, which is
    /// tens of KB; at 24 bytes/record a few thousand entries is period-
    /// accurate. Experiments that keep every record use a large capacity and
    /// a draining reader.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer needs nonzero capacity");
        Self {
            ring: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            level: InstrumentationLevel::Off,
            dropped: 0,
        }
    }

    /// The ioctl: set the instrumentation level without "rebooting".
    pub fn set_level(&mut self, level: InstrumentationLevel) {
        self.level = level;
    }

    /// Driver hook: record a dispatched request (if instrumentation is on).
    ///
    /// Returns `true` if the record was captured. At `Basic` level the
    /// origin field is scrubbed to `Unknown`, mirroring what the real study
    /// could observe.
    pub fn log(&mut self, mut rec: TraceRecord) -> bool {
        match self.level {
            InstrumentationLevel::Off => return false,
            InstrumentationLevel::Basic => rec.origin = Origin::Unknown,
            InstrumentationLevel::Full => {}
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
        true
    }

    /// Proc-fs read, the only way records leave the ring: stream every
    /// buffered record (oldest first) straight into `sink`, with no
    /// intermediate buffer. The batch trace, the live tap and a power
    /// failure's discard (the `()` sink) all drain through here.
    ///
    /// Returns the number of records delivered.
    pub fn drain_into(&mut self, sink: &mut impl RecordSink) -> usize {
        let n = self.ring.len();
        for rec in self.ring.drain(..) {
            sink.observe(&rec);
        }
        n
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records lost to ring overwrite since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Op;

    /// Everything buffered, oldest first.
    fn drain(b: &mut TraceBuffer) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        b.drain_into(&mut out);
        out
    }

    fn rec(ts: u64) -> TraceRecord {
        TraceRecord {
            ts,
            sector: 0,
            nsectors: 2,
            pending: 0,
            node: 0,
            op: Op::Write,
            origin: Origin::Log,
        }
    }

    #[test]
    fn off_level_drops_everything() {
        let mut b = TraceBuffer::new(8);
        assert!(!b.log(rec(1)));
        assert!(b.is_empty());
    }

    #[test]
    fn ioctl_toggles_capture_without_losing_buffer() {
        let mut b = TraceBuffer::new(8);
        b.set_level(InstrumentationLevel::Basic);
        assert!(b.log(rec(1)));
        b.set_level(InstrumentationLevel::Off);
        assert!(!b.log(rec(2)));
        b.set_level(InstrumentationLevel::Basic);
        assert!(b.log(rec(3)));
        let drained = drain(&mut b);
        assert_eq!(drained.iter().map(|r| r.ts).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn basic_level_scrubs_origin() {
        let mut b = TraceBuffer::new(8);
        b.set_level(InstrumentationLevel::Basic);
        b.log(rec(1));
        assert_eq!(drain(&mut b)[0].origin, Origin::Unknown);
    }

    #[test]
    fn full_level_keeps_origin() {
        let mut b = TraceBuffer::new(8);
        b.set_level(InstrumentationLevel::Full);
        b.log(rec(1));
        assert_eq!(drain(&mut b)[0].origin, Origin::Log);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut b = TraceBuffer::new(3);
        b.set_level(InstrumentationLevel::Full);
        for t in 0..5 {
            b.log(rec(t));
        }
        assert_eq!(b.dropped(), 2);
        let ts: Vec<u64> = drain(&mut b).iter().map(|r| r.ts).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn drain_into_streams_fifo_and_empties_the_ring() {
        let mut b = TraceBuffer::new(4);
        b.set_level(InstrumentationLevel::Full);
        // Overflow has wrapped the ring.
        for t in 0..6 {
            b.log(rec(t));
        }
        struct LastTs(Option<u64>, usize);
        impl RecordSink for LastTs {
            fn observe(&mut self, rec: &TraceRecord) {
                assert!(self.0.is_none_or(|prev| prev < rec.ts), "FIFO order");
                self.0 = Some(rec.ts);
                self.1 += 1;
            }
        }
        let mut sink = LastTs(None, 0);
        assert_eq!(b.drain_into(&mut sink), 4);
        assert_eq!(sink.1, 4);
        assert_eq!(sink.0, Some(5));
        assert!(b.is_empty());
        assert_eq!(b.drain_into(&mut sink), 0);
        b.log(rec(6));
        assert_eq!(b.drain_into(&mut ()), 1, "the () sink discards");
        assert!(b.is_empty());
    }

    #[test]
    fn drain_into_columnar_encoder_roundtrips() {
        // A drain can feed the columnar encoder directly — the compressed
        // spool path — and the bytes decode back to exactly what was logged.
        let mut b = TraceBuffer::new(64);
        b.set_level(InstrumentationLevel::Full);
        for t in 0..40 {
            b.log(rec(t));
        }
        let mut enc = crate::codec::ColumnarEncoder::with_frame_records(16);
        assert_eq!(b.drain_into(&mut enc), 40);
        let decoded = crate::codec::decode_columnar(&enc.finish()).unwrap();
        assert_eq!(decoded.len(), 40);
        assert_eq!(decoded, (0..40).map(rec).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_rejected() {
        TraceBuffer::new(0);
    }
}
