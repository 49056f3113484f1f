//! Per-cell fingerprint bundles.
//!
//! A fingerprint pins a cell three ways at once:
//!
//! 1. **Trace hash** — FNV-1a 64 over the canonical 20-byte record
//!    encoding ([`essio_trace::codec::canonical_record_bytes`]). Any change
//!    to any field of any record moves it.
//! 2. **Summary hash** — FNV-1a 64 over the run's canonical JSON
//!    (`canonical_json`): kind, topology, duration, event/record counts,
//!    process exits, fault degradation, and every `TraceSummary` statistic.
//!    Catches analysis drift even when the raw trace is unchanged.
//! 3. **Checkpoint chain** — the running trace hash sampled every
//!    [`CHECKPOINT_EVERY`] records. Because FNV-1a is a byte fold, these
//!    are free to collect and let a mismatch be localized to a
//!    [`CHECKPOINT_EVERY`]-record window before any bisection re-run.
//!
//! Hashes are rendered as fixed-width hex strings in JSON: exact at full
//! 64-bit width and pleasant in `git diff`.

use serde::{Deserialize, Serialize};

use essio_stream::{StreamConfig, StreamSummary};
use essio_trace::codec::canonical_record_bytes;
use essio_trace::sink::Tee;
use essio_trace::{RecordSink, TraceRecord};

use crate::hash::Fnv64;
use crate::matrix::CellSpec;
use crate::shapes::{check_shapes, ShapeViolation};

/// Records per prefix-hash checkpoint.
pub const CHECKPOINT_EVERY: u64 = 4096;

/// Render a 64-bit hash the way fingerprints store it.
pub fn hex64(h: u64) -> String {
    format!("{h:016x}")
}

/// A [`RecordSink`] that folds every record's canonical bytes into a
/// running FNV-1a state, sampling a checkpoint every
/// [`CHECKPOINT_EVERY`] records.
#[derive(Debug, Clone)]
pub struct TraceHasher {
    hasher: Fnv64,
    records: u64,
    checkpoints: Vec<u64>,
}

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceHasher {
    /// Fresh hasher: hash of the empty trace, no checkpoints.
    pub fn new() -> Self {
        Self {
            hasher: Fnv64::new(),
            records: 0,
            checkpoints: Vec::new(),
        }
    }

    /// Records folded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The running hash over everything observed so far.
    pub fn value(&self) -> u64 {
        self.hasher.value()
    }

    /// The checkpoint chain: entry `i` is the hash after
    /// `(i + 1) * CHECKPOINT_EVERY` records.
    pub fn checkpoints(&self) -> &[u64] {
        &self.checkpoints
    }

    /// Consume the hasher, yielding `(final hash, records, checkpoints)`.
    pub fn finish(self) -> (u64, u64, Vec<u64>) {
        (self.hasher.value(), self.records, self.checkpoints)
    }
}

impl RecordSink for TraceHasher {
    fn observe(&mut self, rec: &TraceRecord) {
        self.hasher.write(&canonical_record_bytes(rec));
        self.records += 1;
        if self.records.is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoints.push(self.hasher.value());
        }
    }
}

/// The committed-form fingerprint of one cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// FNV-1a 64 of the canonical trace bytes, hex.
    pub trace_hash: String,
    /// FNV-1a 64 of the canonical run JSON, hex.
    pub summary_hash: String,
    /// Trace records produced.
    pub records: u64,
    /// Engine events delivered.
    pub events: u64,
    /// Virtual run length, µs.
    pub duration_us: u64,
    /// Prefix trace hashes every [`CHECKPOINT_EVERY`] records, hex.
    pub checkpoints: Vec<String>,
}

impl Fingerprint {
    /// Index of the first checkpoint that disagrees with `other`, if any.
    /// `Some(i)` bounds the first divergent record to the window
    /// `(i * CHECKPOINT_EVERY, (i + 1) * CHECKPOINT_EVERY]`.
    pub fn first_checkpoint_mismatch(&self, other: &Fingerprint) -> Option<usize> {
        self.checkpoints
            .iter()
            .zip(&other.checkpoints)
            .position(|(a, b)| a != b)
    }
}

/// Everything one conformance run of one cell produces.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The configuration that ran.
    pub spec: CellSpec,
    /// Its fingerprint bundle.
    pub fingerprint: Fingerprint,
    /// The canonical run JSON the summary hash was computed over (kept so
    /// reports can show *which* summary field moved, not just that one did).
    pub summary_json: String,
    /// Paper-shape invariant violations (empty when clean or when the cell
    /// is faulted and shapes don't apply).
    pub violations: Vec<ShapeViolation>,
}

/// Run one cell and fingerprint it.
///
/// Batch cells hash the materialized trace; streamed cells hash through a
/// [`TraceHasher`] sink teed with a [`StreamSummary`], so the trace is
/// never held in memory — exactly the bounded-memory contract
/// `run_streamed` makes. Both paths produce the same fingerprint for the
/// same simulation (that equivalence is itself a matrix check).
pub fn run_cell(spec: &CellSpec) -> CellRun {
    let exp = spec.experiment();
    let total_sectors = essio_disk::DiskGeometry::BEOWULF_500MB.total_sectors();
    let (hasher, summary, summary_json, duration, events) = if spec.streamed {
        let sink = Tee(
            TraceHasher::new(),
            StreamSummary::new(StreamConfig::paper(total_sectors)),
        );
        let (run, Tee(hasher, stream)) = exp.run_streamed(sink);
        let summary = stream.finalize(run.duration);
        let json = run.canonical_json(&summary);
        (hasher, summary, json, run.duration, run.perf.events)
    } else {
        let result = exp.run();
        let mut hasher = TraceHasher::new();
        hasher.observe_all(&result.trace);
        let json = result.canonical_json();
        (
            hasher,
            result.summary,
            json,
            result.duration,
            result.perf.events,
        )
    };

    let violations = if spec.shapes_apply() {
        check_shapes(spec.kind, &summary)
    } else {
        Vec::new()
    };

    let (trace_hash, records, checkpoints) = hasher.finish();
    CellRun {
        spec: *spec,
        fingerprint: Fingerprint {
            trace_hash: hex64(trace_hash),
            summary_hash: hex64(Fnv64::hash(summary_json.as_bytes())),
            records,
            events,
            duration_us: duration,
            checkpoints: checkpoints.into_iter().map(hex64).collect(),
        },
        summary_json,
        violations,
    }
}

/// Re-run a cell keeping the full trace. Determinism makes this
/// equivalent to having kept it the first time; it is only paid when a
/// golden trace is blessed or a mismatch needs bisecting. Batch and
/// streamed cells drain the same records in the same order, so one run
/// mode serves both.
pub fn materialize_trace(spec: &CellSpec) -> Vec<TraceRecord> {
    spec.experiment().run_streamed(Vec::new()).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{FaultsPreset, Matrix};
    use essio::prelude::ExperimentKind;

    /// The canonical bytes of a whole trace, record after record.
    fn canonical(recs: &[TraceRecord]) -> Vec<u8> {
        recs.iter().flat_map(canonical_record_bytes).collect()
    }

    #[test]
    fn hex_roundtrip() {
        assert_eq!(hex64(0xcbf29ce484222325), "cbf29ce484222325");
    }

    #[test]
    fn hasher_matches_one_shot_and_checkpoints_chain() {
        let recs: Vec<TraceRecord> = (0..CHECKPOINT_EVERY + 10)
            .map(|i| TraceRecord {
                ts: i,
                sector: (i as u32) * 7,
                nsectors: 2,
                pending: 0,
                node: (i % 3) as u8,
                op: essio_trace::Op::Write,
                origin: essio_trace::Origin::FileData,
            })
            .collect();
        let mut h = TraceHasher::new();
        h.observe_all(&recs);
        // The hash domain is the canonical record bytes alone.
        assert_eq!(h.value(), Fnv64::hash(&canonical(&recs)));
        assert_eq!(h.checkpoints().len(), 1);
        // The checkpoint equals the one-shot hash of the checkpoint prefix.
        let prefix = canonical(&recs[..CHECKPOINT_EVERY as usize]);
        assert_eq!(h.checkpoints()[0], Fnv64::hash(&prefix));
    }

    #[test]
    fn batch_and_streamed_fingerprints_agree() {
        let batch = run_cell(&CellSpec::plain(ExperimentKind::Nbody, 7));
        let streamed = run_cell(&CellSpec {
            streamed: true,
            ..CellSpec::plain(ExperimentKind::Nbody, 7)
        });
        assert_eq!(batch.fingerprint, streamed.fingerprint);
        assert_eq!(batch.summary_json, streamed.summary_json);
        assert!(batch.fingerprint.records > 0);
    }

    #[test]
    fn seeds_and_faults_move_the_fingerprint() {
        let a = run_cell(&CellSpec::plain(ExperimentKind::Nbody, 1));
        let b = run_cell(&CellSpec::plain(ExperimentKind::Nbody, 2));
        assert_ne!(a.fingerprint.trace_hash, b.fingerprint.trace_hash);
        let faulted = run_cell(&CellSpec {
            faults: FaultsPreset::Disk,
            ..CellSpec::plain(ExperimentKind::Nbody, 1)
        });
        assert_ne!(a.fingerprint.trace_hash, faulted.fingerprint.trace_hash);
    }

    #[test]
    fn materialized_trace_hashes_to_the_fingerprint() {
        let spec = CellSpec::plain(ExperimentKind::Nbody, 1);
        let run = run_cell(&spec);
        let bytes = canonical(&materialize_trace(&spec));
        assert_eq!(hex64(Fnv64::hash(&bytes)), run.fingerprint.trace_hash);
    }

    #[test]
    fn checkpoint_mismatch_localizes() {
        let mk = |flip: bool| {
            let n = CHECKPOINT_EVERY * 3;
            let mut h = TraceHasher::new();
            for i in 0..n {
                let r = TraceRecord {
                    ts: i,
                    sector: if flip && i == CHECKPOINT_EVERY + 5 {
                        999
                    } else {
                        1
                    },
                    nsectors: 2,
                    pending: 0,
                    node: 0,
                    op: essio_trace::Op::Write,
                    origin: essio_trace::Origin::FileData,
                };
                h.observe(&r);
            }
            let (hash, records, cps) = h.finish();
            Fingerprint {
                trace_hash: hex64(hash),
                summary_hash: hex64(0),
                records,
                events: 0,
                duration_us: 0,
                checkpoints: cps.into_iter().map(hex64).collect(),
            }
        };
        let clean = mk(false);
        let bad = mk(true);
        // The flip is in the second checkpoint window: checkpoint 0 agrees,
        // checkpoint 1 does not.
        assert_eq!(clean.first_checkpoint_mismatch(&bad), Some(1));
        assert_eq!(clean.first_checkpoint_mismatch(&clean), None);
        let _ = Matrix::ci(); // keep the import honest
    }
}
