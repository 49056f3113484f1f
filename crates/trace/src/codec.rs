//! Trace serialization: compact binary (record-at-a-time and columnar),
//! CSV, and JSON.
//!
//! The record-at-a-time binary format is a fixed 20-byte little-endian
//! record with a small header, built on the `bytes` crate. A 2000-second
//! combined-workload run across 16 nodes produces on the order of 10⁵–10⁶
//! records; at 20 B each that is a few MB — cheap to persist per experiment
//! so analyses can be re-run without re-simulating.
//!
//! The **columnar** format ([`encode_columnar`] / [`ColumnarEncoder`])
//! stores the same records in frames of per-column streams: timestamps and
//! sectors are zigzag-delta encoded (both columns are locally clustered, so
//! deltas are tiny), lengths/pending counts are varints, ops are bit-packed.
//! Campaign-scale traces shrink ~3–4× and decode faster because each column
//! is a straight run of homogeneous bytes. Both formats decode through
//! [`decode`] and [`ChunkedDecoder`], which sniff the magic, and the decoded
//! records are byte-for-byte identical between the two encodings.

use std::io::Read;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::record::{Op, Origin, TraceRecord};
use crate::sink::RecordSink;

/// Magic bytes identifying a binary trace file ("ESIO" + version 1).
pub const MAGIC: [u8; 4] = *b"ESI\x01";

/// Magic bytes identifying a *columnar* binary trace ("ESC" + version 1).
pub const MAGIC_COLUMNAR: [u8; 4] = *b"ESC\x01";

/// Bytes per encoded record.
pub const RECORD_BYTES: usize = 20;

/// Default records per columnar frame: large enough that per-frame headers
/// vanish, small enough that a streaming reader holds only a few hundred KB.
pub const COLUMNAR_FRAME_RECORDS: usize = 4096;

/// Errors from decoding a binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The header magic did not match [`MAGIC`].
    BadMagic,
    /// The payload length is not a whole number of records. `at` is the
    /// byte offset, counted from the start of the stream (magic included),
    /// of the first byte of the incomplete trailing record — i.e. how much
    /// of the file is still valid and replayable.
    Truncated {
        /// Offset of the first byte of the partial record.
        at: u64,
    },
    /// A record carried an invalid op flag.
    BadOp(u8),
    /// A record or columnar frame holds bytes the encoder never writes: a
    /// nonzero pad byte, an origin above 7, an overlong or overflowing
    /// varint, a sector delta outside `i32`, set bits past the last op, a
    /// column overrun, or an impossible header. Every accepted encoding is
    /// therefore the one the encoder writes for its records. `at` is the
    /// byte offset of the record's (fixed format) or the frame's (columnar)
    /// first byte.
    Corrupt {
        /// Offset of the corrupt record or frame.
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
                write!(f, "trace truncated mid-record at byte {at}")
            }
            DecodeError::BadOp(v) => write!(f, "invalid op flag {v}"),
            DecodeError::Corrupt { at } => {
                write!(f, "corrupt trace record or frame at byte {at}")
            }
            DecodeError::Io(kind) => write!(f, "trace read failed: {kind}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode records into the binary trace format.
pub fn encode(records: &[TraceRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(MAGIC.len() + records.len() * RECORD_BYTES);
    buf.put_slice(&MAGIC);
    for r in records {
        buf.put_slice(&canonical_record_bytes(r));
    }
    buf.freeze()
}

/// The canonical 20-byte wire form of one record — the byte sequence every
/// fingerprint in `essio-conform` is defined over. Identical records always
/// produce identical bytes (fixed little-endian layout, zero pad), and the
/// record-at-a-time format is exactly [`MAGIC`] followed by these, so
/// `canonical_bytes` == [`encode`] byte for byte.
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
    // b[19] stays 0: pad to 20 bytes for alignment-friendly mmap readers.
    b
}

/// The canonical byte representation of a whole trace: the
/// record-at-a-time binary encoding. Conformance fingerprints and
/// divergence bisection hash these bytes; the columnar format is an
/// *interchange* encoding that decodes back to the same records (and hence
/// the same canonical bytes), never a fingerprint domain.
pub fn canonical_bytes(records: &[TraceRecord]) -> Bytes {
    encode(records)
}

/// Decode one 20-byte wire record starting at stream offset `at`. Shared by
/// the whole-buffer [`decode`] and the streaming [`ChunkedDecoder`].
fn decode_record(mut b: &[u8], at: u64) -> Result<TraceRecord, DecodeError> {
    debug_assert_eq!(b.len(), RECORD_BYTES);
    let ts = b.get_u64_le();
    let sector = b.get_u32_le();
    let nsectors = b.get_u16_le();
    let pending = b.get_u16_le();
    let node = b.get_u8();
    let op = match b.get_u8() {
        0 => Op::Read,
        1 => Op::Write,
        v => return Err(DecodeError::BadOp(v)),
    };
    let origin = Origin::try_from_u8(b.get_u8()).ok_or(DecodeError::Corrupt { at })?;
    if b.get_u8() != 0 {
        return Err(DecodeError::Corrupt { at });
    }
    Ok(TraceRecord {
        ts,
        sector,
        nsectors,
        pending,
        node,
        op,
        origin,
    })
}

/// Decode a binary trace produced by [`encode`] or [`encode_columnar`]
/// (the header magic selects the format).
pub fn decode(data: &[u8]) -> Result<Vec<TraceRecord>, DecodeError> {
    if data.len() >= MAGIC_COLUMNAR.len() && data[..MAGIC_COLUMNAR.len()] == MAGIC_COLUMNAR {
        return decode_columnar(data);
    }
    decode_fixed(data)
}

/// Decode a record-at-a-time binary trace produced by [`encode`].
fn decode_fixed(mut data: &[u8]) -> Result<Vec<TraceRecord>, DecodeError> {
    if data.len() < MAGIC.len() || data[..MAGIC.len()] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    data = &data[MAGIC.len()..];
    if !data.len().is_multiple_of(RECORD_BYTES) {
        let valid = data.len() - data.len() % RECORD_BYTES;
        return Err(DecodeError::Truncated {
            at: (MAGIC.len() + valid) as u64,
        });
    }
    let mut out = Vec::with_capacity(data.len() / RECORD_BYTES);
    for (i, rec) in data.chunks_exact(RECORD_BYTES).enumerate() {
        out.push(decode_record(rec, (MAGIC.len() + i * RECORD_BYTES) as u64)?);
    }
    Ok(out)
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

/// Decode a columnar trace produced by [`encode_columnar`]. Decoded records
/// are identical to what [`decode`] yields for the record-at-a-time
/// encoding of the same batch.
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

/// Which wire format a streaming decoder found behind the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireFormat {
    /// 20-byte record-at-a-time ([`MAGIC`]).
    Fixed,
    /// Delta+varint column frames ([`MAGIC_COLUMNAR`]).
    Columnar,
}

/// Streaming decoder: replays a binary trace in bounded chunks so peak
/// resident memory is `O(chunk_records)` regardless of trace length.
///
/// A multi-hour campaign trace can run to 10⁷ records; the batch [`decode`]
/// materialises all of them, while this decoder holds one chunk at a time —
/// the natural feed for the incremental states in `essio-stream`, which
/// only ever need the record currently in hand.
///
/// Both wire formats are accepted (the magic is sniffed): record-at-a-time
/// traces are read `chunk_records` records at a time, columnar traces one
/// frame at a time (the resident bound is then the encoder's frame size).
pub struct ChunkedDecoder<R: Read> {
    src: R,
    buf: Vec<u8>,
    chunk_records: usize,
    format: Option<WireFormat>,
    done: bool,
    /// Bytes consumed from the stream so far (magic included) — the basis
    /// of the offset reported by [`DecodeError::Truncated`].
    consumed: u64,
}

impl<R: Read> ChunkedDecoder<R> {
    /// Wrap a reader; `chunk_records` bounds records resident per chunk
    /// (for columnar traces the encoder's frame size is the bound).
    pub fn new(src: R, chunk_records: usize) -> Self {
        let chunk = chunk_records.max(1);
        Self {
            src,
            buf: vec![0u8; chunk * RECORD_BYTES],
            chunk_records: chunk,
            format: None,
            done: false,
            consumed: 0,
        }
    }

    /// Records per chunk this decoder was configured with.
    pub fn chunk_records(&self) -> usize {
        self.chunk_records
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

    /// Decode the next chunk into `out` (cleared first). Returns the number
    /// of records produced; `Ok(0)` means the trace ended cleanly. A trace
    /// that ends mid-record (or mid-frame) yields [`DecodeError::Truncated`].
    pub fn next_chunk(&mut self, out: &mut Vec<TraceRecord>) -> Result<usize, DecodeError> {
        out.clear();
        if self.format.is_none() {
            let mut magic = [0u8; MAGIC.len()];
            let n = Self::read_full(&mut self.src, &mut magic)?;
            if n < MAGIC.len() {
                return Err(DecodeError::BadMagic);
            }
            self.format = Some(if magic == MAGIC {
                WireFormat::Fixed
            } else if magic == MAGIC_COLUMNAR {
                WireFormat::Columnar
            } else {
                return Err(DecodeError::BadMagic);
            });
            self.consumed = MAGIC.len() as u64;
        }
        if self.done {
            return Ok(0);
        }
        match self.format.expect("sniffed above") {
            WireFormat::Fixed => self.next_fixed_chunk(out),
            WireFormat::Columnar => self.next_columnar_frame(out),
        }
    }

    fn next_fixed_chunk(&mut self, out: &mut Vec<TraceRecord>) -> Result<usize, DecodeError> {
        let chunk_bytes = self.chunk_records * RECORD_BYTES;
        let n = Self::read_full(&mut self.src, &mut self.buf[..chunk_bytes])?;
        if n < chunk_bytes {
            self.done = true;
        }
        if n % RECORD_BYTES != 0 {
            let valid = n - n % RECORD_BYTES;
            return Err(DecodeError::Truncated {
                at: self.consumed + valid as u64,
            });
        }
        for (i, rec) in self.buf[..n].chunks_exact(RECORD_BYTES).enumerate() {
            out.push(decode_record(
                rec,
                self.consumed + (i * RECORD_BYTES) as u64,
            )?);
        }
        self.consumed += n as u64;
        Ok(n / RECORD_BYTES)
    }

    fn next_columnar_frame(&mut self, out: &mut Vec<TraceRecord>) -> Result<usize, DecodeError> {
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

/// Replay a binary trace into `sink`, chunk by chunk. Returns the number of
/// records replayed. Peak resident trace memory is one chunk.
pub fn decode_chunked<R: Read>(
    src: R,
    chunk_records: usize,
    sink: &mut impl RecordSink,
) -> Result<u64, DecodeError> {
    let mut dec = ChunkedDecoder::new(src, chunk_records);
    let mut chunk = Vec::with_capacity(dec.chunk_records());
    let mut total = 0u64;
    loop {
        let n = dec.next_chunk(&mut chunk)?;
        if n == 0 {
            return Ok(total);
        }
        sink.observe_all(&chunk);
        total += n as u64;
    }
}

/// CSV header matching [`to_csv`] rows.
pub const CSV_HEADER: &str = "ts_us,sector,nsectors,pending,node,op,origin";

/// Render records as CSV (with header), the interchange format the study's
/// original post-processing scripts would have consumed.
pub fn to_csv(records: &[TraceRecord]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(32 * (records.len() + 1));
    s.push_str(CSV_HEADER);
    s.push('\n');
    for r in records {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{}",
            r.ts,
            r.sector,
            r.nsectors,
            r.pending,
            r.node,
            r.op.flag(),
            r.origin.label()
        );
    }
    s
}

/// Serialize records to a JSON array (via serde).
pub fn to_json(records: &[TraceRecord]) -> serde_json::Result<String> {
    serde_json::to_string(records)
}

/// Deserialize records from a JSON array.
pub fn from_json(s: &str) -> serde_json::Result<Vec<TraceRecord>> {
    serde_json::from_str(s)
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
    fn binary_roundtrip() {
        let recs = sample();
        let encoded = encode(&recs);
        assert_eq!(encoded.len(), MAGIC.len() + recs.len() * RECORD_BYTES);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded, recs);
    }

    #[test]
    fn canonical_bytes_is_the_fixed_encoding() {
        let recs = sample();
        assert_eq!(canonical_bytes(&recs), encode(&recs));
        let mut manual = MAGIC.to_vec();
        for r in &recs {
            manual.extend_from_slice(&canonical_record_bytes(r));
        }
        assert_eq!(canonical_bytes(&recs).as_ref(), &manual[..]);
        // Per-record bytes roundtrip through the shared record decoder.
        for r in &recs {
            assert_eq!(decode_record(&canonical_record_bytes(r), 0).unwrap(), *r);
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let encoded = encode(&[]);
        assert_eq!(decode(&encoded).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"nope"), Err(DecodeError::BadMagic));
        assert_eq!(decode(b""), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncation_rejected_with_offset_of_last_whole_record_end() {
        let mut encoded = encode(&sample()).to_vec();
        encoded.pop();
        // 3 records: the partial third record starts at 4 + 2×20 = 44.
        assert_eq!(decode(&encoded), Err(DecodeError::Truncated { at: 44 }));
    }

    #[test]
    fn bad_op_rejected() {
        let mut encoded = encode(&sample()).to_vec();
        // Op byte of record 0 sits at MAGIC + 17.
        encoded[MAGIC.len() + 17] = 9;
        assert_eq!(decode(&encoded), Err(DecodeError::BadOp(9)));
    }

    #[test]
    fn csv_shape() {
        let csv = to_csv(&sample()[..1]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        assert_eq!(lines.next(), Some("0,1,2,0,0,W,log"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn json_roundtrip() {
        let recs = sample();
        let json = to_json(&recs).unwrap();
        assert_eq!(from_json(&json).unwrap(), recs);
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

    #[test]
    fn chunked_roundtrip_matches_batch_decode() {
        // Chunk sizes that divide, exceed, and straddle the record count.
        for (n, chunk) in [(0, 4), (1, 4), (7, 3), (64, 64), (65, 64), (100, 7)] {
            let recs = many(n);
            let encoded = encode(&recs);
            let mut dec = ChunkedDecoder::new(&encoded[..], chunk);
            let mut out = Vec::new();
            let mut buf = Vec::new();
            loop {
                let got = dec.next_chunk(&mut buf).unwrap();
                assert!(got <= chunk, "chunk bound holds");
                assert_eq!(got, buf.len());
                if got == 0 {
                    break;
                }
                out.extend_from_slice(&buf);
            }
            assert_eq!(out, decode(&encoded).unwrap(), "n={n} chunk={chunk}");
        }
    }

    #[test]
    fn chunked_sink_replay_counts() {
        let recs = many(50);
        let encoded = encode(&recs);
        let mut collected: Vec<TraceRecord> = Vec::new();
        let n = decode_chunked(&encoded[..], 8, &mut collected).unwrap();
        assert_eq!(n, 50);
        assert_eq!(collected, recs);
    }

    /// Run a chunked decode to its terminal result.
    fn drain_chunked(encoded: &[u8], chunk: usize) -> Result<usize, DecodeError> {
        let mut dec = ChunkedDecoder::new(encoded, chunk);
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
    fn chunked_truncation_mid_record_reports_the_record_start() {
        // 20 records = 4 + 400 bytes; chop 3 bytes so record 19 is partial.
        // Its first byte sits at 4 + 19×20 = 384, regardless of where the
        // chunk boundaries fall.
        let recs = many(20);
        let mut encoded = encode(&recs).to_vec();
        encoded.truncate(encoded.len() - 3);
        for chunk in [1, 3, 5, 8, 20, 64] {
            assert_eq!(
                drain_chunked(&encoded, chunk),
                Err(DecodeError::Truncated { at: 384 }),
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn chunked_truncation_mid_chunk_reports_the_record_start() {
        // Cut inside the *middle* of a chunk: 20 records, chunk = 8, cut
        // into record 10 (third record of the second chunk). The partial
        // record starts at 4 + 10×20 = 204.
        let recs = many(20);
        let mut encoded = encode(&recs).to_vec();
        encoded.truncate(MAGIC.len() + 10 * RECORD_BYTES + 11);
        assert_eq!(
            drain_chunked(&encoded, 8),
            Err(DecodeError::Truncated { at: 204 })
        );
        // Same cut, batch decode: identical offset.
        assert_eq!(decode(&encoded), Err(DecodeError::Truncated { at: 204 }));
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
    fn chunked_bad_op_surfaces_mid_stream() {
        let recs = many(10);
        let mut encoded = encode(&recs).to_vec();
        // Op byte of record 6 (second chunk when chunk=4).
        encoded[MAGIC.len() + 6 * RECORD_BYTES + 17] = 7;
        let mut dec = ChunkedDecoder::new(&encoded[..], 4);
        let mut buf = Vec::new();
        assert_eq!(dec.next_chunk(&mut buf), Ok(4));
        assert_eq!(dec.next_chunk(&mut buf), Err(DecodeError::BadOp(7)));
    }

    #[test]
    fn chunked_empty_trace_ends_immediately() {
        let encoded = encode(&[]);
        let mut dec = ChunkedDecoder::new(&encoded[..], 4);
        assert_eq!(dec.next_chunk(&mut Vec::new()), Ok(0));
        assert_eq!(dec.next_chunk(&mut Vec::new()), Ok(0));
    }

    // ---- columnar format ----

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
        // Generic decode sniffs the magic and lands on the same records.
        assert_eq!(decode(&encoded).unwrap(), recs);
        let empty = encode_columnar(&[]);
        assert_eq!(empty.as_ref(), &MAGIC_COLUMNAR[..]);
        assert_eq!(decode(&empty).unwrap(), vec![]);
    }

    #[test]
    fn columnar_agrees_with_fixed_on_decoded_records() {
        let recs = many(10_000);
        let fixed = encode(&recs);
        let columnar = encode_columnar(&recs);
        assert_eq!(decode(&columnar).unwrap(), decode(&fixed).unwrap());
        // Sorted monotone timestamps delta-compress well; the win is the
        // point of the format, so pin it coarsely.
        assert!(
            columnar.len() * 2 < fixed.len(),
            "columnar {} vs fixed {}",
            columnar.len(),
            fixed.len()
        );
    }

    #[test]
    fn columnar_multi_frame_roundtrip() {
        // Frame size smaller than the batch forces several frames, with a
        // ragged tail.
        let recs = many(103);
        let mut enc = ColumnarEncoder::with_frame_records(16);
        for r in &recs {
            enc.push(*r);
        }
        let encoded = enc.finish();
        assert_eq!(decode_columnar(&encoded).unwrap(), recs);
    }

    #[test]
    fn columnar_encoder_is_a_record_sink() {
        let recs = many(33);
        let mut enc = ColumnarEncoder::with_frame_records(8);
        RecordSink::observe_all(&mut enc, &recs);
        assert_eq!(decode(&enc.finish()).unwrap(), recs);
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
            let mut enc = ColumnarEncoder::with_frame_records(frame);
            for r in &recs {
                enc.push(*r);
            }
            let encoded = enc.finish();
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
        let recs = many(40);
        let mut enc = ColumnarEncoder::with_frame_records(16);
        for r in &recs {
            enc.push(*r);
        }
        let full = enc.finish().to_vec();

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
        assert_eq!(decode(&cut), Err(want.clone()));
        assert_eq!(drain_chunked(&cut, 8), Err(want.clone()));

        // Chop mid-header of the last frame.
        let mut cut = full.clone();
        cut.truncate(last_frame + 1);
        assert_eq!(decode(&cut), Err(want.clone()));
        assert_eq!(drain_chunked(&cut, 8), Err(want));
    }

    #[test]
    fn columnar_trailing_garbage_in_frame_body_is_corrupt() {
        let recs = many(5);
        let encoded = encode_columnar(&recs).to_vec();
        // Rewrite the header so the body claims one extra byte... actually
        // simpler: append a whole bogus frame with a fat body.
        let mut bad = encoded.clone();
        bad.push(0x01); // n = 1
        bad.push(0x09); // body_len = 9, but a 1-record body is smaller
        bad.extend_from_slice(&[0u8; 9]);
        let at = encoded.len() as u64;
        assert_eq!(decode(&bad), Err(DecodeError::Corrupt { at }));
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
        assert_eq!(decode(&bad), Err(DecodeError::Corrupt { at }));
        assert_eq!(
            decode_chunked(&bad[..], 4, &mut Vec::new()),
            Err(DecodeError::Corrupt { at })
        );

        // A 2⁴⁰-byte body claimed by a short input is truncated, and the
        // streaming decoder never sizes a buffer to the claim.
        let mut bad = MAGIC_COLUMNAR.to_vec();
        bad.push(0x01); // n = 1
        bad.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]); // body_len = 2⁴⁰
        bad.extend_from_slice(&[0u8; 6]);
        assert_eq!(decode(&bad), Err(DecodeError::Truncated { at }));
        assert_eq!(
            decode_chunked(&bad[..], 4, &mut Vec::new()),
            Err(DecodeError::Truncated { at })
        );
    }

    #[test]
    fn fixed_pad_and_origin_bytes_must_be_canonical() {
        // Record 1 starts at 4 + 20 = 24; byte 18 is origin, 19 the pad.
        for (offset, byte) in [(19, 1), (19, 0x80), (18, 8), (18, 0xff)] {
            let mut bad = encode(&sample()).to_vec();
            bad[MAGIC.len() + RECORD_BYTES + offset] = byte;
            let want = DecodeError::Corrupt { at: 24 };
            assert_eq!(
                decode(&bad),
                Err(want.clone()),
                "offset {offset}, {byte:#x}"
            );
            assert_eq!(
                drain_chunked(&bad, 1),
                Err(want),
                "offset {offset}, {byte:#x}"
            );
        }
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
            decode(&good).unwrap(),
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
            assert_eq!(decode(&bad), Err(want.clone()), "{body:?}");
            assert_eq!(drain_chunked(&bad, 4), Err(want), "{body:?}");
        }
        // An overlong frame header (n = 1 in two bytes) is an error too.
        let mut bad = MAGIC_COLUMNAR.to_vec();
        bad.extend_from_slice(&[0x81, 0, 7, 0, 0, 2, 0, 0, 0, 0]);
        assert!(decode(&bad).is_err());
        assert_eq!(drain_chunked(&bad, 4), Err(DecodeError::Corrupt { at: 4 }));
    }

    #[test]
    fn columnar_zero_record_frame_is_corrupt() {
        let mut bad = MAGIC_COLUMNAR.to_vec();
        bad.push(0x00); // n = 0
        bad.push(0x00); // body_len = 0
        let at = MAGIC_COLUMNAR.len() as u64;
        assert_eq!(decode(&bad), Err(DecodeError::Corrupt { at }));
        assert_eq!(drain_chunked(&bad, 4), Err(DecodeError::Corrupt { at }));
    }
}
