//! # essio-conform — the correctness backstop every refactor runs under
//!
//! The paper's contribution is a *characterization*: Table 1's read/write
//! mixes, the 1 KB / 4 KB / ≥16 KB request-size decomposition, the 80/20
//! spatial-locality shape, the syslog/swap hot spots. The reproduction's
//! core asset is therefore that every run of every experiment is
//! bit-deterministic and its derived statistics stay pinned to those
//! shapes across refactors. This crate makes that mechanical:
//!
//! * [`matrix`] — the conformance matrix: {experiment kind × seed × fault
//!   plan × obs on/off × streamed vs batch} as an explicit list of cells,
//!   with `ci` and `full` presets.
//! * [`fingerprint`] — per-cell **fingerprint bundles**: a 64-bit FNV-1a
//!   hash of the canonical record bytes
//!   ([`essio_trace::codec::canonical_record_bytes`]), a hash of the run's
//!   canonical summary JSON ([`essio::experiment::ExperimentResult::canonical_json`]),
//!   record/duration/event pins, and a prefix-hash checkpoint chain.
//! * [`shapes`] — the paper-shape invariants, checked numerically with
//!   tolerances (never hashed: a float that moves within tolerance is not
//!   drift).
//! * [`registry`] — the committed `conform/golden.json` registry and its
//!   diff against a fresh run of the matrix.
//! * [`bisect`](mod@bisect) — divergence bisection: when a committed
//!   columnar golden trace and a fresh run's records differ, one linear
//!   pass (decoding the golden a frame at a time through `ChunkedDecoder`)
//!   finds the **first divergent record index** and reports its decoded
//!   `{time, sector, rw, queue}` on both sides plus the responsible node —
//!   turning "hash mismatch" into an actionable pointer.
//!
//! The `conform` binary in `essio-bench` drives all of this rayon-parallel
//! over the matrix and gates CI on the result.

#![warn(missing_docs)]

pub mod bisect;
pub mod fingerprint;
pub mod hash;
pub mod matrix;
pub mod registry;
pub mod shapes;

pub use bisect::{bisect, Divergence, RecordView};
pub use fingerprint::{
    hex64, materialize_trace, run_cell, CellRun, Fingerprint, TraceHasher, CHECKPOINT_EVERY,
};
pub use hash::Fnv64;
pub use matrix::{CellSpec, FaultsPreset, Matrix};
pub use registry::{CellDiff, DiffKind, GoldenCell, GoldenRegistry};
pub use shapes::{check_shapes, ShapeViolation};
