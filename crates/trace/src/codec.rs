//! Trace serialization: the columnar binary trace format.
//!
//! A trace is stored as frames of per-column streams ([`encode_columnar`] /
//! [`ColumnarEncoder`]): timestamps and sectors are zigzag-delta encoded
//! (both columns are locally clustered, so deltas are tiny), lengths and
//! pending counts are varints, ops are bit-packed. A 2000-second
//! combined-workload run across 16 nodes produces on the order of 10⁵–10⁶
//! records, a few bytes each, so a trace is cheap to persist and analyses
//! can be re-run without re-simulating. [`decode_columnar`] reads a whole
//! trace; [`ChunkedDecoder`] reads one frame at a time.
//!
//! [`canonical_record_bytes`] is not a file format: it is the fixed 20-byte
//! form of one record that conformance fingerprints hash, and
//! [`RECORD_BYTES`] is the size of each record the simulated trace spool
//! writes.

use std::io::Read;

use bytes::{BufMut, Bytes, BytesMut};

use crate::record::{Op, Origin, TraceRecord};
use crate::sink::RecordSink;

/// Magic bytes identifying a columnar binary trace ("ESC" + version 1).
pub const MAGIC_COLUMNAR: [u8; 4] = *b"ESC\x01";

/// Bytes per canonical record ([`canonical_record_bytes`]).
pub const RECORD_BYTES: usize = 20;

/// Default records per columnar frame: large enough that per-frame headers
/// vanish, small enough that a streaming reader holds only a few hundred KB.
pub const COLUMNAR_FRAME_RECORDS: usize = 4096;

/// Errors from decoding a binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The header magic did not match [`MAGIC_COLUMNAR`].
    BadMagic,
    /// The trace ends inside a frame. `at` is the byte offset, counted from
    /// the start of the stream (magic included), of that frame's first
    /// byte — i.e. how much of the file is still valid and replayable.
    Truncated {
        /// Offset of the first byte of the partial frame.
        at: u64,
    },
    /// A frame holds bytes the encoder never writes: an origin above 7, an
    /// overlong or overflowing varint, a sector delta outside `i32`, set
    /// bits past the last op, a column overrun, or an impossible header.
    /// Every accepted encoding is therefore the one the encoder writes for
    /// its records. `at` is the byte offset of the frame's first byte.
    Corrupt {
        /// Offset of the corrupt frame.
        at: u64,
    },
    /// The underlying reader failed (streaming decode only).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an ESIO trace (bad magic)"),
            DecodeError::Truncated { at } => {
                write!(f, "trace truncated mid-frame at byte {at}")
            }
            DecodeError::Corrupt { at } => write!(f, "corrupt trace frame at byte {at}"),
            DecodeError::Io(kind) => write!(f, "trace read failed: {kind}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The canonical 20-byte form of one record — the byte sequence every
/// fingerprint in `essio-conform` is defined over. Fixed little-endian
/// layout with a zero pad, so identical records always produce identical
/// bytes and distinct records distinct ones.
pub fn canonical_record_bytes(r: &TraceRecord) -> [u8; RECORD_BYTES] {
    let mut b = [0u8; RECORD_BYTES];
    b[0..8].copy_from_slice(&r.ts.to_le_bytes());
    b[8..12].copy_from_slice(&r.sector.to_le_bytes());
    b[12..14].copy_from_slice(&r.nsectors.to_le_bytes());
    b[14..16].copy_from_slice(&r.pending.to_le_bytes());
    b[16] = r.node;
    b[17] = match r.op {
        Op::Read => 0,
        Op::Write => 1,
    };
    b[18] = r.origin as u8;
    // b[19] stays 0: pad to 20 bytes.
    b
}

// ---------------------------------------------------------------------------
// Columnar format: frames of delta+varint column streams.
//
// Wire layout after the 4-byte magic, one frame per ≤ frame_records batch:
//
//   varint n          record count (never 0)
//   varint body_len   bytes of frame body following the header
//   body:
//     ts      n × zigzag-varint wrapping deltas (prev starts at 0 per frame)
//     sector  n × zigzag-varint wrapping deltas (prev starts at 0 per frame)
//     nsectors, pending   n × varint each
//     node    n raw bytes
//     op      ⌈n/8⌉ bytes, LSB-first bit per record (1 = Write)
//     origin  n raw bytes
//
// Deltas use wrapping arithmetic so the format is total over arbitrary u64
// timestamps and u32 sectors, not just monotone ones.
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    // Stage in a stack buffer so the (LEB128-max) 10 bytes land in the
    // output with one append instead of one per byte.
    let mut tmp = [0u8; 10];
    let mut n = 0;
    while v >= 0x80 {
        tmp[n] = (v as u8) | 0x80;
        n += 1;
        v >>= 7;
    }
    tmp[n] = v as u8;
    buf.put_slice(&tmp[..n + 1]);
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Cursor over a byte slice with varint reads; `None` means overrun.
struct ColCursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> ColCursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.b.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return None; // would overflow u64
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                // A zero final byte after the first is overlong: the
                // encoder never writes one.
                return (byte != 0 || shift == 0).then_some(v);
            }
            shift += 7;
        }
    }
}

/// Incremental columnar encoder; a [`RecordSink`], so it can be fed
/// directly from `TraceBuffer::drain_into` or installed as a live tap.
///
/// Records accumulate into frames of `frame_records`; [`finish`] flushes
/// the partial tail frame and returns the encoded bytes.
///
/// [`finish`]: ColumnarEncoder::finish
pub struct ColumnarEncoder {
    out: BytesMut,
    body: BytesMut,
    pending: Vec<TraceRecord>,
    frame_records: usize,
}

impl Default for ColumnarEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnarEncoder {
    /// Encoder with the default frame size.
    pub fn new() -> Self {
        Self::with_frame_records(COLUMNAR_FRAME_RECORDS)
    }

    /// Encoder flushing a frame every `frame_records` records.
    pub fn with_frame_records(frame_records: usize) -> Self {
        let frame_records = frame_records.max(1);
        let mut out = BytesMut::with_capacity(4096);
        out.put_slice(&MAGIC_COLUMNAR);
        Self {
            out,
            body: BytesMut::new(),
            pending: Vec::with_capacity(frame_records),
            frame_records,
        }
    }

    /// Records buffered but not yet flushed into a frame.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Append one record.
    pub fn push(&mut self, rec: TraceRecord) {
        self.pending.push(rec);
        if self.pending.len() >= self.frame_records {
            self.flush_frame();
        }
    }

    fn flush_frame(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let body = &mut self.body;
        body.clear();
        let mut prev_ts = 0u64;
        for r in &self.pending {
            put_varint(body, zigzag(r.ts.wrapping_sub(prev_ts) as i64));
            prev_ts = r.ts;
        }
        let mut prev_sector = 0u32;
        for r in &self.pending {
            put_varint(
                body,
                zigzag(r.sector.wrapping_sub(prev_sector) as i32 as i64),
            );
            prev_sector = r.sector;
        }
        for r in &self.pending {
            put_varint(body, r.nsectors as u64);
        }
        for r in &self.pending {
            put_varint(body, r.pending as u64);
        }
        for r in &self.pending {
            body.put_u8(r.node);
        }
        let mut bits = 0u8;
        for (i, r) in self.pending.iter().enumerate() {
            if r.op == Op::Write {
                bits |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                body.put_u8(bits);
                bits = 0;
            }
        }
        if !self.pending.len().is_multiple_of(8) {
            body.put_u8(bits);
        }
        for r in &self.pending {
            body.put_u8(r.origin as u8);
        }
        put_varint(&mut self.out, self.pending.len() as u64);
        put_varint(&mut self.out, body.len() as u64);
        self.out.put_slice(&body[..]);
        self.pending.clear();
    }

    /// Flush the tail frame and return the complete encoded trace.
    pub fn finish(mut self) -> Bytes {
        self.flush_frame();
        self.out.freeze()
    }
}

impl RecordSink for ColumnarEncoder {
    fn observe(&mut self, rec: &TraceRecord) {
        self.push(*rec);
    }
}

/// Encode records into the columnar binary format (one-shot convenience
/// over [`ColumnarEncoder`]).
pub fn encode_columnar(records: &[TraceRecord]) -> Bytes {
    let mut enc = ColumnarEncoder::new();
    for r in records {
        enc.push(*r);
    }
    enc.finish()
}

/// Decode one columnar frame body holding `n` records into `out`.
fn decode_columnar_frame(
    body: &[u8],
    n: usize,
    out: &mut Vec<TraceRecord>,
    frame_at: u64,
) -> Result<(), DecodeError> {
    let corrupt = || DecodeError::Corrupt { at: frame_at };
    // Every record costs at least 6 body bytes (ts, sector, nsectors and
    // pending varints, node and origin bytes), so a larger count cannot fit;
    // rejecting it first bounds the reservation by the input length.
    if n > body.len() / 6 {
        return Err(corrupt());
    }
    let base = out.len();
    out.reserve(n);
    let mut c = ColCursor::new(body);
    let mut ts = 0u64;
    for _ in 0..n {
        ts = ts.wrapping_add(unzigzag(c.varint().ok_or_else(corrupt)?) as u64);
        out.push(TraceRecord {
            ts,
            sector: 0,
            nsectors: 0,
            pending: 0,
            node: 0,
            op: Op::Read,
            origin: Origin::Unknown,
        });
    }
    let mut sector = 0u32;
    for r in &mut out[base..] {
        let delta = i32::try_from(unzigzag(c.varint().ok_or_else(corrupt)?));
        sector = sector.wrapping_add(delta.map_err(|_| corrupt())? as u32);
        r.sector = sector;
    }
    for r in &mut out[base..] {
        let v = c.varint().ok_or_else(corrupt)?;
        r.nsectors = u16::try_from(v).map_err(|_| corrupt())?;
    }
    for r in &mut out[base..] {
        let v = c.varint().ok_or_else(corrupt)?;
        r.pending = u16::try_from(v).map_err(|_| corrupt())?;
    }
    for r in &mut out[base..] {
        r.node = c.u8().ok_or_else(corrupt)?;
    }
    let mut bits = 0u8;
    for (i, r) in out[base..].iter_mut().enumerate() {
        if i % 8 == 0 {
            bits = c.u8().ok_or_else(corrupt)?;
        }
        r.op = if bits & (1 << (i % 8)) != 0 {
            Op::Write
        } else {
            Op::Read
        };
    }
    if !n.is_multiple_of(8) && bits >> (n % 8) != 0 {
        return Err(corrupt()); // bits set past the last record
    }
    for r in &mut out[base..] {
        let v = c.u8().ok_or_else(corrupt)?;
        r.origin = Origin::try_from_u8(v).ok_or_else(corrupt)?;
    }
    if c.pos != body.len() {
        return Err(corrupt());
    }
    Ok(())
}

/// Decode a columnar trace produced by [`encode_columnar`].
pub fn decode_columnar(data: &[u8]) -> Result<Vec<TraceRecord>, DecodeError> {
    if data.len() < MAGIC_COLUMNAR.len() || data[..MAGIC_COLUMNAR.len()] != MAGIC_COLUMNAR {
        return Err(DecodeError::BadMagic);
    }
    let mut pos = MAGIC_COLUMNAR.len();
    let mut out = Vec::new();
    while pos < data.len() {
        let frame_at = pos as u64;
        let mut c = ColCursor::new(&data[pos..]);
        let n = c.varint().ok_or(DecodeError::Truncated { at: frame_at })?;
        let body_len = c.varint().ok_or(DecodeError::Truncated { at: frame_at })? as usize;
        if n == 0 {
            return Err(DecodeError::Corrupt { at: frame_at });
        }
        let body_start = pos + c.pos;
        let body_end = body_start
            .checked_add(body_len)
            .ok_or(DecodeError::Corrupt { at: frame_at })?;
        if body_end > data.len() {
            return Err(DecodeError::Truncated { at: frame_at });
        }
        decode_columnar_frame(&data[body_start..body_end], n as usize, &mut out, frame_at)?;
        pos = body_end;
    }
    Ok(out)
}

/// Streaming decoder: replays a columnar trace one frame at a time, so peak
/// resident memory is one frame (the encoder's frame size) regardless of
/// trace length.
///
/// A multi-hour campaign trace can run to 10⁷ records; the batch
/// [`decode_columnar`] materialises all of them, while this decoder holds
/// one frame at a time — the natural feed for the incremental states in
/// `essio-stream`, which only ever need the record currently in hand.
pub struct ChunkedDecoder<R: Read> {
    src: R,
    buf: Vec<u8>,
    done: bool,
    /// Bytes consumed from the stream so far (magic included; 0 until the
    /// magic is read) — the basis of the offsets reported in [`DecodeError`].
    consumed: u64,
}

impl<R: Read> ChunkedDecoder<R> {
    /// Wrap a reader. The second argument is ignored: frames, not the
    /// caller, bound the records resident per chunk.
    pub fn new(src: R, _chunk_records: usize) -> Self {
        Self {
            src,
            buf: Vec::new(),
            done: false,
            consumed: 0,
        }
    }

    /// Read until `buf` is full or EOF; return bytes read.
    fn read_full(src: &mut R, buf: &mut [u8]) -> Result<usize, DecodeError> {
        let mut filled = 0;
        while filled < buf.len() {
            match src.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(DecodeError::Io(e.kind())),
            }
        }
        Ok(filled)
    }

    /// Read one varint byte-by-byte. `Ok(None)` only when EOF hits before
    /// the first byte; EOF mid-varint is `Truncated` at `frame_at`.
    fn read_varint(&mut self, frame_at: u64) -> Result<Option<u64>, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let mut byte = [0u8; 1];
            if Self::read_full(&mut self.src, &mut byte)? == 0 {
                return if shift == 0 {
                    Ok(None)
                } else {
                    Err(DecodeError::Truncated { at: frame_at })
                };
            }
            self.consumed += 1;
            if shift >= 64 || (shift == 63 && byte[0] > 1) {
                return Err(DecodeError::Corrupt { at: frame_at });
            }
            v |= ((byte[0] & 0x7F) as u64) << shift;
            if byte[0] & 0x80 == 0 {
                if byte[0] == 0 && shift > 0 {
                    return Err(DecodeError::Corrupt { at: frame_at }); // overlong
                }
                return Ok(Some(v));
            }
            shift += 7;
        }
    }

    /// Decode the next frame into `out` (cleared first). Returns the number
    /// of records produced; `Ok(0)` means the trace ended cleanly. A trace
    /// that ends mid-frame yields [`DecodeError::Truncated`].
    pub fn next_chunk(&mut self, out: &mut Vec<TraceRecord>) -> Result<usize, DecodeError> {
        out.clear();
        if self.consumed == 0 {
            let mut magic = [0u8; MAGIC_COLUMNAR.len()];
            let n = Self::read_full(&mut self.src, &mut magic)?;
            if n < magic.len() || magic != MAGIC_COLUMNAR {
                return Err(DecodeError::BadMagic);
            }
            self.consumed = magic.len() as u64;
        }
        if self.done {
            return Ok(0);
        }
        let frame_at = self.consumed;
        let Some(n) = self.read_varint(frame_at)? else {
            self.done = true;
            return Ok(0);
        };
        let body_len = self
            .read_varint(frame_at)?
            .ok_or(DecodeError::Truncated { at: frame_at })?;
        if n == 0 {
            return Err(DecodeError::Corrupt { at: frame_at });
        }
        // Read through `take` so the buffer grows only with bytes actually
        // read, never to an unchecked `body_len` up front.
        self.buf.clear();
        let got = (&mut self.src)
            .take(body_len)
            .read_to_end(&mut self.buf)
            .map_err(|e| DecodeError::Io(e.kind()))?;
        if (got as u64) < body_len {
            return Err(DecodeError::Truncated { at: frame_at });
        }
        self.consumed += body_len;
        decode_columnar_frame(&self.buf, n as usize, out, frame_at)?;
        Ok(n as usize)
    }
}

/// Replay a columnar trace into `sink`, frame by frame. Returns the number
/// of records replayed. Peak resident trace memory is one frame.
pub fn decode_chunked<R: Read>(src: R, sink: &mut impl RecordSink) -> Result<u64, DecodeError> {
    let mut dec = ChunkedDecoder::new(src, COLUMNAR_FRAME_RECORDS);
    let mut frame = Vec::with_capacity(COLUMNAR_FRAME_RECORDS);
    let mut total = 0u64;
    loop {
        let n = dec.next_chunk(&mut frame)?;
        if n == 0 {
            return Ok(total);
        }
        sink.observe_all(&frame);
        total += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                ts: 0,
                sector: 1,
                nsectors: 2,
                pending: 0,
                node: 0,
                op: Op::Write,
                origin: Origin::Log,
            },
            TraceRecord {
                ts: 1_000_000,
                sector: 45_000,
                nsectors: 8,
                pending: 3,
                node: 7,
                op: Op::Read,
                origin: Origin::SwapIn,
            },
            TraceRecord {
                ts: u64::MAX,
                sector: u32::MAX,
                nsectors: u16::MAX,
                pending: u16::MAX,
                node: u8::MAX,
                op: Op::Read,
                origin: Origin::Unknown,
            },
        ]
    }

    #[test]
    fn canonical_record_bytes_layout_is_pinned() {
        // The fingerprint hash domain: moving any byte here re-keys every
        // committed golden.
        let r = TraceRecord {
            ts: 0x0807_0605_0403_0201,
            sector: 0x0c0b_0a09,
            nsectors: 0x0e0d,
            pending: 0x100f,
            node: 0x11,
            op: Op::Write,
            origin: Origin::SwapIn,
        };
        let mut want = [0u8; RECORD_BYTES];
        want[..17].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0x11]);
        want[17] = 1;
        want[18] = Origin::SwapIn as u8;
        assert_eq!(canonical_record_bytes(&r), want);
        let read = TraceRecord {
            op: Op::Read,
            origin: Origin::Unknown,
            ..r
        };
        assert_eq!(canonical_record_bytes(&read)[17..], [0, 0, 0]);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode_columnar(b"nope"), Err(DecodeError::BadMagic));
        assert_eq!(decode_columnar(b""), Err(DecodeError::BadMagic));
        // The retired fixed-record container is not a columnar trace.
        assert_eq!(decode_columnar(b"ESI\x01"), Err(DecodeError::BadMagic));
    }

    fn many(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                ts: i as u64 * 17,
                sector: (i as u32 * 37) % 90_000,
                nsectors: 2 + (i % 31) as u16,
                pending: (i % 5) as u16,
                node: (i % 16) as u8,
                op: if i % 3 == 0 { Op::Read } else { Op::Write },
                origin: Origin::from_u8((i % 8) as u8),
            })
            .collect()
    }

    /// Encode with a given frame size.
    fn framed(recs: &[TraceRecord], frame: usize) -> Bytes {
        let mut enc = ColumnarEncoder::with_frame_records(frame);
        for r in recs {
            enc.push(*r);
        }
        enc.finish()
    }

    #[test]
    fn chunked_sink_replay_counts() {
        let recs = many(50);
        let encoded = framed(&recs, 8);
        let mut collected: Vec<TraceRecord> = Vec::new();
        let n = decode_chunked(&encoded[..], &mut collected).unwrap();
        assert_eq!(n, 50);
        assert_eq!(collected, recs);
    }

    /// Run a chunked decode to its terminal result.
    fn drain_chunked(encoded: &[u8]) -> Result<usize, DecodeError> {
        let mut dec = ChunkedDecoder::new(encoded, 0);
        let mut buf = Vec::new();
        loop {
            match dec.next_chunk(&mut buf) {
                Ok(0) => return Ok(0),
                Ok(_) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn truncated_display_names_the_offset() {
        let msg = DecodeError::Truncated { at: 204 }.to_string();
        assert!(msg.contains("204"), "{msg}");
    }

    #[test]
    fn chunked_bad_magic_and_short_header() {
        let mut dec = ChunkedDecoder::new(&b"nope-not-a-trace"[..], 4);
        assert_eq!(dec.next_chunk(&mut Vec::new()), Err(DecodeError::BadMagic));
        let mut dec = ChunkedDecoder::new(&b"ES"[..], 4);
        assert_eq!(dec.next_chunk(&mut Vec::new()), Err(DecodeError::BadMagic));
    }

    #[test]
    fn chunked_corrupt_frame_surfaces_mid_stream() {
        // Frames of 4; the second frame's first byte (its record count)
        // becomes an impossible 0.
        let encoded = framed(&many(10), 4);
        let mut first = ColCursor::new(&encoded[MAGIC_COLUMNAR.len()..]);
        let _n = first.varint().unwrap();
        let body_len = first.varint().unwrap() as usize;
        let second = MAGIC_COLUMNAR.len() + first.pos + body_len;
        let mut bad = encoded.to_vec();
        bad[second] = 0;
        let mut dec = ChunkedDecoder::new(&bad[..], 0);
        let mut buf = Vec::new();
        assert_eq!(dec.next_chunk(&mut buf), Ok(4));
        assert_eq!(buf, many(4));
        assert_eq!(
            dec.next_chunk(&mut buf),
            Err(DecodeError::Corrupt { at: second as u64 })
        );
    }

    #[test]
    fn chunked_empty_trace_ends_immediately() {
        let encoded = encode_columnar(&[]);
        let mut dec = ChunkedDecoder::new(&encoded[..], 4);
        assert_eq!(dec.next_chunk(&mut Vec::new()), Ok(0));
        assert_eq!(dec.next_chunk(&mut Vec::new()), Ok(0));
    }

    #[test]
    fn varint_zigzag_roundtrip_extremes() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            1 << 40,
            -(1 << 40),
        ] {
            let mut b = BytesMut::new();
            put_varint(&mut b, zigzag(v));
            let bytes = b.freeze();
            let mut c = ColCursor::new(&bytes);
            assert_eq!(unzigzag(c.varint().unwrap()), v);
            assert_eq!(c.pos, bytes.len());
        }
    }

    #[test]
    fn columnar_roundtrip_sample_and_empty() {
        let recs = sample();
        let encoded = encode_columnar(&recs);
        assert_eq!(decode_columnar(&encoded).unwrap(), recs);
        let empty = encode_columnar(&[]);
        assert_eq!(empty.as_ref(), &MAGIC_COLUMNAR[..]);
        assert_eq!(decode_columnar(&empty).unwrap(), vec![]);
    }

    #[test]
    fn columnar_is_under_half_the_canonical_size() {
        // Sorted monotone timestamps delta-compress well; the win is the
        // point of the format, so pin it coarsely.
        let recs = many(10_000);
        let columnar = encode_columnar(&recs);
        assert_eq!(decode_columnar(&columnar).unwrap(), recs);
        assert!(
            columnar.len() * 2 < recs.len() * RECORD_BYTES,
            "columnar {} bytes for {} records",
            columnar.len(),
            recs.len()
        );
    }

    #[test]
    fn columnar_multi_frame_roundtrip() {
        // Frame size smaller than the batch forces several frames, with a
        // ragged tail.
        let recs = many(103);
        assert_eq!(decode_columnar(&framed(&recs, 16)).unwrap(), recs);
    }

    #[test]
    fn columnar_encoder_is_a_record_sink() {
        let recs = many(33);
        let mut enc = ColumnarEncoder::with_frame_records(8);
        RecordSink::observe_all(&mut enc, &recs);
        assert_eq!(decode_columnar(&enc.finish()).unwrap(), recs);
    }

    #[test]
    fn columnar_chunked_matches_batch_decode() {
        for (n, frame) in [
            (0usize, 4usize),
            (1, 4),
            (7, 3),
            (64, 64),
            (65, 64),
            (100, 7),
        ] {
            let recs = many(n);
            let encoded = framed(&recs, frame);
            let mut dec = ChunkedDecoder::new(&encoded[..], 4);
            let mut out = Vec::new();
            let mut buf = Vec::new();
            loop {
                let got = dec.next_chunk(&mut buf).unwrap();
                assert!(got <= frame, "frame bound holds");
                if got == 0 {
                    break;
                }
                out.extend_from_slice(&buf);
            }
            assert_eq!(out, recs, "n={n} frame={frame}");
        }
    }

    #[test]
    fn columnar_truncation_reports_frame_start_batch_and_chunked() {
        let full = framed(&many(40), 16).to_vec();

        // Find the start of the last frame by walking the frame headers.
        let mut pos = MAGIC_COLUMNAR.len();
        let mut last_frame = pos;
        while pos < full.len() {
            last_frame = pos;
            let mut c = ColCursor::new(&full[pos..]);
            let _n = c.varint().unwrap();
            let body_len = c.varint().unwrap() as usize;
            pos += c.pos + body_len;
        }

        // Chop into the last frame's body.
        let mut cut = full.clone();
        cut.truncate(full.len() - 2);
        let want = DecodeError::Truncated {
            at: last_frame as u64,
        };
        assert_eq!(decode_columnar(&cut), Err(want.clone()));
        assert_eq!(drain_chunked(&cut), Err(want.clone()));

        // Chop mid-header of the last frame.
        let mut cut = full.clone();
        cut.truncate(last_frame + 1);
        assert_eq!(decode_columnar(&cut), Err(want.clone()));
        assert_eq!(drain_chunked(&cut), Err(want));
    }

    #[test]
    fn columnar_trailing_garbage_in_frame_body_is_corrupt() {
        let encoded = encode_columnar(&many(5)).to_vec();
        // Append a bogus frame whose body is fatter than its one record.
        let mut bad = encoded.clone();
        bad.push(0x01); // n = 1
        bad.push(0x09); // body_len = 9, but a 1-record body is smaller
        bad.extend_from_slice(&[0u8; 9]);
        let at = encoded.len() as u64;
        assert_eq!(decode_columnar(&bad), Err(DecodeError::Corrupt { at }));
    }

    #[test]
    fn columnar_record_count_beyond_body_is_corrupt_not_a_panic() {
        // n = 2⁶³ − 1 records claimed for a 1-byte body.
        let mut bad = MAGIC_COLUMNAR.to_vec();
        bad.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        bad.push(0x01); // body_len = 1
        bad.push(0x00);
        assert_eq!(bad.len(), 15);
        let at = MAGIC_COLUMNAR.len() as u64;
        assert_eq!(decode_columnar(&bad), Err(DecodeError::Corrupt { at }));
        assert_eq!(
            decode_chunked(&bad[..], &mut Vec::new()),
            Err(DecodeError::Corrupt { at })
        );

        // A 2⁴⁰-byte body claimed by a short input is truncated, and the
        // streaming decoder never sizes a buffer to the claim.
        let mut bad = MAGIC_COLUMNAR.to_vec();
        bad.push(0x01); // n = 1
        bad.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]); // body_len = 2⁴⁰
        bad.extend_from_slice(&[0u8; 6]);
        assert_eq!(decode_columnar(&bad), Err(DecodeError::Truncated { at }));
        assert_eq!(
            decode_chunked(&bad[..], &mut Vec::new()),
            Err(DecodeError::Truncated { at })
        );
    }

    #[test]
    fn columnar_bytes_must_be_canonical() {
        // One-record frames written by hand. Columns: ts, sector,
        // nsectors, pending, node, op bitmap, origin.
        let frame = |body: &[u8]| {
            let mut f = MAGIC_COLUMNAR.to_vec();
            f.extend_from_slice(&[1, body.len() as u8]);
            f.extend_from_slice(body);
            f
        };
        let good = frame(&[0, 0, 2, 0, 0, 0, 0]);
        assert_eq!(
            decode_columnar(&good).unwrap(),
            vec![TraceRecord {
                ts: 0,
                sector: 0,
                nsectors: 2,
                pending: 0,
                node: 0,
                op: Op::Read,
                origin: Origin::Unknown,
            }]
        );
        for body in [
            // Sector delta 2³² (zigzag 2³³): outside i32, once truncated to 0.
            &[0, 0x80, 0x80, 0x80, 0x80, 0x20, 2, 0, 0, 0, 0][..],
            // A set op bit past the only record.
            &[0, 0, 2, 0, 0, 0b10, 0],
            // Origin 8.
            &[0, 0, 2, 0, 0, 0, 8],
            // Overlong ts varint: 0 in two bytes.
            &[0x80, 0, 0, 2, 0, 0, 0, 0],
        ] {
            let bad = frame(body);
            let want = DecodeError::Corrupt { at: 4 };
            assert_eq!(decode_columnar(&bad), Err(want.clone()), "{body:?}");
            assert_eq!(drain_chunked(&bad), Err(want), "{body:?}");
        }
        // An overlong frame header (n = 1 in two bytes) is an error too.
        let mut bad = MAGIC_COLUMNAR.to_vec();
        bad.extend_from_slice(&[0x81, 0, 7, 0, 0, 2, 0, 0, 0, 0]);
        assert!(decode_columnar(&bad).is_err());
        assert_eq!(drain_chunked(&bad), Err(DecodeError::Corrupt { at: 4 }));
    }

    #[test]
    fn columnar_zero_record_frame_is_corrupt() {
        let mut bad = MAGIC_COLUMNAR.to_vec();
        bad.push(0x00); // n = 0
        bad.push(0x00); // body_len = 0
        let at = MAGIC_COLUMNAR.len() as u64;
        assert_eq!(decode_columnar(&bad), Err(DecodeError::Corrupt { at }));
        assert_eq!(drain_chunked(&bad), Err(DecodeError::Corrupt { at }));
    }
}
