//! Online, mergeable trace analytics.
//!
//! `essio-trace::analysis` holds the one implementation of every paper
//! metric: an exact state per metric with `observe` (fold one record in,
//! O(1) amortised), `merge` (combine with a state built over a disjoint
//! record set; associative and commutative, the fresh state its identity)
//! and `finalize` (derive the figure from the accumulated integers). The
//! batch `TraceSummary::compute` is a parallel fold of those states over
//! record chunks. This crate folds the same states one record at a time as
//! records arrive, so a summary never needs the whole trace resident: its
//! memory is bounded by disk sectors, not run length, which lets seed
//! campaigns and replays of long trace files run without materialising the
//! trace. Because the merge laws make every split of a trace hold the same
//! integers, the streamed summary equals the batch one bit for bit, however
//! the records were sharded or merged (shards can be reduced in parallel,
//! see [`merge_all`]).
//!
//! [`StreamSummary`] bundles the exact states (read/write mix, size
//! classes, banded spatial locality, temporal hot spots + inter-access
//! gaps) and a [`sketch::LogHistogram`] of request inter-arrival times
//! behind a single `RecordSink`, so it can be plugged directly into the
//! device-driver drain path (`Experiment::run_streamed`) or fed from the
//! chunked trace decoder (`essio_trace::codec::decode_chunked`).

pub mod sketch;
pub mod summary;

pub use summary::{merge_all, StreamConfig, StreamSummary};
