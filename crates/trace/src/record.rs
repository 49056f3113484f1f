//! The trace record written by the instrumented device driver.

use essio_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Bytes per disk sector (the 1995 IDE drives used 512-byte sectors).
pub const SECTOR_BYTES: u32 = 512;

/// Direction of a physical disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Data moves disk → memory.
    Read,
    /// Data moves memory → disk.
    Write,
}

impl Op {
    /// Single-character flag as it appeared in the original trace dumps.
    pub fn flag(self) -> char {
        match self {
            Op::Read => 'R',
            Op::Write => 'W',
        }
    }
}

/// Ground-truth provenance of a request.
///
/// The original study had to *infer* activity classes from request sizes
/// (1 KB block I/O, 4 KB paging, ~16 KB cache-filling streams — §5).
/// Our simulated kernel knows which path issued each request, so we tag it.
/// Analyses reproduce the paper using only the paper's fields; `Origin` is
/// used to *validate* that the size-based inference the paper made holds in
/// the model (see `analysis::size::ClassBreakdown::confusion`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Origin {
    /// Unattributed (instrumentation level too low, or external).
    Unknown = 0,
    /// Explicit file data via the buffer cache (application read/write).
    FileData = 1,
    /// Filesystem metadata: superblock, inodes, bitmaps, directories.
    Metadata = 2,
    /// Demand page-in of program text/initialized data from an executable.
    PageIn = 3,
    /// Anonymous page written to swap under memory pressure.
    SwapOut = 4,
    /// Anonymous page faulted back in from swap.
    SwapIn = 5,
    /// System logging (syslogd and kernel table writes).
    Log = 6,
    /// The instrumentation itself flushing its proc-fs buffer to disk.
    TraceDump = 7,
}

impl Origin {
    /// All origin values, for iteration in reports.
    pub const ALL: [Origin; 8] = [
        Origin::Unknown,
        Origin::FileData,
        Origin::Metadata,
        Origin::PageIn,
        Origin::SwapOut,
        Origin::SwapIn,
        Origin::Log,
        Origin::TraceDump,
    ];

    /// Stable short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Origin::Unknown => "unknown",
            Origin::FileData => "file-data",
            Origin::Metadata => "metadata",
            Origin::PageIn => "page-in",
            Origin::SwapOut => "swap-out",
            Origin::SwapIn => "swap-in",
            Origin::Log => "log",
            Origin::TraceDump => "trace-dump",
        }
    }

    /// Decode from the wire byte. Unknown values map to `Unknown`.
    pub fn from_u8(v: u8) -> Origin {
        match v {
            1 => Origin::FileData,
            2 => Origin::Metadata,
            3 => Origin::PageIn,
            4 => Origin::SwapOut,
            5 => Origin::SwapIn,
            6 => Origin::Log,
            7 => Origin::TraceDump,
            _ => Origin::Unknown,
        }
    }

    /// Decode from the wire byte, rejecting values no origin encodes. The
    /// trace decoders use this so that every decoded byte is canonical.
    pub fn try_from_u8(v: u8) -> Option<Origin> {
        Origin::ALL.get(usize::from(v)).copied()
    }
}

/// One entry per physical request dispatched to the (simulated) disk.
///
/// Field-for-field this is the record of paper §3.4 — timestamp, starting
/// sector, read/write flag, remaining-queue count — extended with the
/// request length (`nsectors`), the node that issued it, and the
/// ground-truth [`Origin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Virtual time the request was dispatched to the drive, µs.
    pub ts: SimTime,
    /// First sector of the transfer.
    pub sector: u32,
    /// Transfer length in sectors (1 KB block = 2 sectors; 4 KB page = 8).
    pub nsectors: u16,
    /// Requests still waiting in the driver queue when this one dispatched.
    pub pending: u16,
    /// Cluster node whose disk serviced the request.
    pub node: u8,
    /// Read or write.
    pub op: Op,
    /// Ground-truth provenance (diagnostic; `Unknown` at basic level).
    pub origin: Origin,
}

impl TraceRecord {
    /// Transfer size in bytes.
    #[inline]
    pub fn bytes(&self) -> u32 {
        self.nsectors as u32 * SECTOR_BYTES
    }

    /// Transfer size in KiB (the unit of the paper's figures), as f64 so
    /// sub-KiB requests don't round to zero.
    #[inline]
    pub fn kib(&self) -> f64 {
        self.bytes() as f64 / 1024.0
    }

    /// Timestamp in seconds (figure axes).
    #[inline]
    pub fn secs(&self) -> f64 {
        essio_sim::time::as_secs_f64(self.ts)
    }

    /// One sector past the end of the transfer.
    #[inline]
    pub fn end_sector(&self) -> u32 {
        self.sector + self.nsectors as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(nsectors: u16) -> TraceRecord {
        TraceRecord {
            ts: 1_500_000,
            sector: 45_000,
            nsectors,
            pending: 3,
            node: 2,
            op: Op::Write,
            origin: Origin::Log,
        }
    }

    #[test]
    fn size_conversions() {
        assert_eq!(rec(2).bytes(), 1024);
        assert!((rec(2).kib() - 1.0).abs() < 1e-12);
        assert_eq!(rec(8).bytes(), 4096);
        assert_eq!(rec(32).bytes(), 16 * 1024);
    }

    #[test]
    fn end_sector_is_exclusive() {
        assert_eq!(rec(2).end_sector(), 45_002);
    }

    #[test]
    fn secs_matches_micros() {
        assert!((rec(2).secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn origin_roundtrips_through_u8() {
        for o in Origin::ALL {
            assert_eq!(Origin::from_u8(o as u8), o);
        }
        assert_eq!(Origin::from_u8(255), Origin::Unknown);
    }

    #[test]
    fn checked_origin_decoding_rejects_unused_bytes() {
        for o in Origin::ALL {
            assert_eq!(Origin::try_from_u8(o as u8), Some(o));
        }
        for v in 8..=u8::MAX {
            assert_eq!(Origin::try_from_u8(v), None, "{v}");
        }
    }

    #[test]
    fn op_flags() {
        assert_eq!(Op::Read.flag(), 'R');
        assert_eq!(Op::Write.flag(), 'W');
    }
}
