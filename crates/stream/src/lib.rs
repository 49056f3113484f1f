//! Online, mergeable, bounded-memory trace analytics.
//!
//! `essio-trace::analysis` holds the one implementation of every paper
//! metric: an exact state per metric with `observe` (fold one record in,
//! O(1) amortised), `merge` (combine with a state built over a disjoint
//! record set; associative and commutative, the fresh state its identity)
//! and `finalize` (derive the figure from the accumulated integers). The
//! batch `TraceSummary::compute` is a parallel fold of those states over
//! record chunks. This crate folds the same states one record at a time as
//! records arrive, so a summary never needs the whole trace resident: seed
//! campaigns, multi-node aggregation and replay of multi-gigabyte trace
//! files run in bounded memory. Because the merge laws make every split of
//! a trace hold the same integers, the streamed summary equals the batch
//! one bit for bit, however the records were sharded or merged (shards can
//! be reduced in parallel, see [`merge_all`]).
//!
//! [`StreamSummary`] bundles the four exact states (read/write mix, size
//! classes, banded spatial locality, temporal hot spots + inter-access
//! gaps) and two bounded-memory sketches ([`sketch::SpaceSaving`] top-k
//! and a [`sketch::LogHistogram`] of inter-arrival times) behind a single
//! `RecordSink`, so it can be plugged directly into the device-driver
//! drain path (`Experiment::run_streamed`) or fed from the chunked trace
//! decoder ([`replay_path`] / `essio_trace::codec::ChunkedDecoder`).

pub mod sketch;
pub mod summary;

pub use summary::{merge_all, NodeShards, StreamConfig, StreamSummary};

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use essio_trace::codec::{decode_chunked, ChunkedDecoder, DecodeError};
use essio_trace::RecordSink;

/// Replay a binary trace file into `sink` in bounded-memory chunks.
///
/// Convenience over [`essio_trace::codec::decode_chunked`]: peak resident
/// trace memory is `chunk_records` records regardless of file size.
pub fn replay_path(
    path: impl AsRef<Path>,
    chunk_records: usize,
    sink: &mut impl RecordSink,
) -> Result<u64, DecodeError> {
    let file = File::open(path).map_err(|e| DecodeError::Io(e.kind()))?;
    decode_chunked(BufReader::new(file), chunk_records, sink)
}

/// Replay only the first `limit` records of a binary trace into `sink`,
/// chunk by chunk, and return how many were actually replayed (fewer than
/// `limit` when the trace ends first).
///
/// This is the prefix hook divergence bisection in `essio-conform` binary-
/// searches over: any incremental state (a `StreamSummary`, a fingerprint
/// hasher) can be evaluated at an arbitrary record-prefix of a trace in
/// bounded memory, without materialising or even fully reading the trace.
/// A decode error inside the needed prefix propagates; errors *beyond* the
/// prefix are never reached because reading stops at `limit`.
pub fn replay_prefix<R: std::io::Read>(
    src: R,
    chunk_records: usize,
    limit: u64,
    sink: &mut impl RecordSink,
) -> Result<u64, DecodeError> {
    let mut dec = ChunkedDecoder::new(src, chunk_records);
    let mut chunk = Vec::with_capacity(dec.chunk_records());
    let mut replayed = 0u64;
    while replayed < limit {
        let n = dec.next_chunk(&mut chunk)?;
        if n == 0 {
            break;
        }
        let take = (limit - replayed).min(n as u64) as usize;
        sink.observe_all(&chunk[..take]);
        replayed += take as u64;
    }
    Ok(replayed)
}
