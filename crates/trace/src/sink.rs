//! Record sinks: the push side of streaming trace consumption.
//!
//! The batch pipeline drains the kernel ring buffer into a `Vec` and
//! analyses it post-hoc. The streaming pipeline (crate `essio-stream`)
//! instead *observes* each record as it is drained and folds it into
//! bounded incremental state. [`RecordSink`] is the one-method trait both
//! paths share: a `Vec<TraceRecord>` is a sink (batch collection), and so is
//! any online analysis state.
//!
//! The trait lives here rather than in `essio-stream` because the device
//! driver and kernel plumbing must accept sinks without depending on the
//! analytics crate (the dependency arrow points the other way).

use std::sync::{Arc, Mutex};

use crate::record::TraceRecord;

/// Anything that consumes trace records one at a time.
pub trait RecordSink {
    /// Consume one record.
    fn observe(&mut self, rec: &TraceRecord);

    /// Consume a slice of records (defaults to one-by-one observation).
    fn observe_all(&mut self, recs: &[TraceRecord]) {
        for r in recs {
            self.observe(r);
        }
    }
}

/// Batch collection: a `Vec` is the identity sink.
impl RecordSink for Vec<TraceRecord> {
    fn observe(&mut self, rec: &TraceRecord) {
        self.push(*rec);
    }

    fn observe_all(&mut self, recs: &[TraceRecord]) {
        self.extend_from_slice(recs);
    }
}

/// The discarding sink: records drained into `()` are gone, as a power
/// failure loses what is still in the kernel ring.
impl RecordSink for () {
    fn observe(&mut self, _rec: &TraceRecord) {}
}

impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn observe(&mut self, rec: &TraceRecord) {
        (**self).observe(rec);
    }

    fn observe_all(&mut self, recs: &[TraceRecord]) {
        (**self).observe_all(recs);
    }
}

impl<S: RecordSink + ?Sized> RecordSink for Box<S> {
    fn observe(&mut self, rec: &TraceRecord) {
        (**self).observe(rec);
    }

    fn observe_all(&mut self, recs: &[TraceRecord]) {
        (**self).observe_all(recs);
    }
}

/// Fan a record stream out to two sinks (e.g. keep the raw trace *and*
/// update streaming state in the same drain pass).
pub struct Tee<A, B>(pub A, pub B);

impl<A: RecordSink, B: RecordSink> RecordSink for Tee<A, B> {
    fn observe(&mut self, rec: &TraceRecord) {
        self.0.observe(rec);
        self.1.observe(rec);
    }
}

/// Shared-ownership sink handle.
///
/// The cluster owns its live tap as a boxed trait object; callers that need
/// the concrete state back afterwards (e.g. `Experiment::run_streamed`
/// returning a `StreamSummary`) hand the cluster a clone of a `SharedSink`
/// and recover the inner value with [`SharedSink::try_unwrap`] once the run
/// is over.
pub struct SharedSink<S>(Arc<Mutex<S>>);

impl<S> SharedSink<S> {
    /// Wrap a sink for shared ownership.
    pub fn new(sink: S) -> Self {
        Self(Arc::new(Mutex::new(sink)))
    }

    /// Recover the inner sink; fails if other handles are still alive.
    pub fn try_unwrap(self) -> Result<S, Self> {
        Arc::try_unwrap(self.0)
            .map(|m| m.into_inner().expect("sink lock poisoned"))
            .map_err(Self)
    }

    /// Run `f` against the inner sink.
    pub fn with<T>(&self, f: impl FnOnce(&mut S) -> T) -> T {
        f(&mut self.0.lock().expect("sink lock poisoned"))
    }
}

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<S: RecordSink> RecordSink for SharedSink<S> {
    fn observe(&mut self, rec: &TraceRecord) {
        self.0.lock().expect("sink lock poisoned").observe(rec);
    }

    fn observe_all(&mut self, recs: &[TraceRecord]) {
        self.0.lock().expect("sink lock poisoned").observe_all(recs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Op, Origin};

    fn rec(sector: u32) -> TraceRecord {
        TraceRecord {
            ts: 0,
            sector,
            nsectors: 2,
            pending: 0,
            node: 0,
            op: Op::Write,
            origin: Origin::Unknown,
        }
    }

    #[test]
    fn vec_sink_collects() {
        let mut v: Vec<TraceRecord> = Vec::new();
        v.observe(&rec(1));
        v.observe_all(&[rec(2), rec(3)]);
        assert_eq!(v.iter().map(|r| r.sector).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn boxes_and_refs_pass_a_batch_on_whole() {
        /// Counts batches, as `Vec` and `SharedSink` take one in a call.
        struct Batches(usize);
        impl RecordSink for Batches {
            fn observe(&mut self, _rec: &TraceRecord) {}
            fn observe_all(&mut self, _recs: &[TraceRecord]) {
                self.0 += 1;
            }
        }
        let mut inner = Batches(0);
        // The cluster boxes the tap it is given, which may be boxed already.
        let tap: Box<dyn RecordSink + '_> = Box::new(&mut inner);
        Box::new(tap).observe_all(&[rec(1), rec(2), rec(3)]);
        assert_eq!(inner.0, 1, "one batch, not one call per record");
    }

    #[test]
    fn tee_feeds_both() {
        let mut tee = Tee(Vec::new(), Vec::new());
        tee.observe(&rec(9));
        assert_eq!(tee.0.len(), 1);
        assert_eq!(tee.1.len(), 1);
    }

    #[test]
    fn shared_sink_round_trips() {
        let shared = SharedSink::new(Vec::<TraceRecord>::new());
        let mut handle = shared.clone();
        handle.observe(&rec(4));
        assert_eq!(shared.with(|v| v.len()), 1);
        // Both handles alive: unwrap fails and returns the handle.
        let shared = shared.try_unwrap().expect_err("handle still alive");
        drop(handle);
        let v = shared.try_unwrap().ok().expect("sole owner now");
        assert_eq!(v[0].sector, 4);
    }
}
