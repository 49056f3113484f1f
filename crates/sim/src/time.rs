//! Virtual-time representation.
//!
//! All simulation time is carried as integral **microseconds** in a [`SimTime`]
//! (`u64`). Microsecond granularity comfortably resolves every latency in the
//! modeled 1995 system (a single 512-byte sector transfer on a ~2 MB/s IDE
//! disk takes ~256 µs; Ethernet serialization of one 1500-byte frame at
//! 10 Mb/s takes 1200 µs) while a `u64` holds ~584,000 years of it, so
//! overflow is not a practical concern.

/// Virtual time in microseconds since simulation start.
pub type SimTime = u64;

/// Number of microseconds per millisecond.
pub const MICROS_PER_MILLI: SimTime = 1_000;

/// Number of microseconds per second.
pub const MICROS_PER_SEC: SimTime = 1_000_000;

/// Convert whole seconds to [`SimTime`] microseconds.
#[inline]
pub const fn secs(s: u64) -> SimTime {
    s * MICROS_PER_SEC
}

/// Convert whole milliseconds to [`SimTime`] microseconds.
#[inline]
pub const fn millis(ms: u64) -> SimTime {
    ms * MICROS_PER_MILLI
}

/// Convert a [`SimTime`] to fractional seconds (for reporting/plotting).
#[inline]
pub fn as_secs_f64(t: SimTime) -> f64 {
    t as f64 / MICROS_PER_SEC as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_roundtrip() {
        assert_eq!(secs(3), 3_000_000);
        assert_eq!(millis(3), 3_000);
        assert!((as_secs_f64(secs(7)) - 7.0).abs() < 1e-12);
    }
}
