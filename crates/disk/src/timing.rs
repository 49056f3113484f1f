//! Disk service-time model.
//!
//! A mid-90s IDE drive: ~12 ms average seek, 4500 RPM spindle (6.7 ms mean
//! rotational latency), ~2 MB/s media transfer in PIO mode, plus fixed
//! controller/driver overhead per command. Seek time follows the usual
//! `a + b·√distance` curve. The model is fully deterministic (mean
//! rotational latency rather than sampled angle) so experiment traces are
//! reproducible; what the study measures — request counts, sizes, positions,
//! timing at whole-second granularity — is insensitive to per-request
//! rotational jitter. Slow, failing and stuck commands come from the
//! fault plane (`essio_faults::DiskFaultState`), applied by the driver.

use essio_sim::SimTime;
use essio_trace::SECTOR_BYTES;

use crate::geometry::DiskGeometry;

/// Service-time parameters.
#[derive(Debug, Clone)]
pub struct TimingModel {
    /// Geometry used for seek distance computation.
    pub geometry: DiskGeometry,
    /// Fixed head-settle component of any nonzero seek, µs.
    pub seek_settle_us: u64,
    /// Seek scaling: µs per √cylinder.
    pub seek_sqrt_us: f64,
    /// Mean rotational latency, µs (half a revolution).
    pub rotation_mean_us: u64,
    /// Media + interface transfer rate, bytes per second.
    pub transfer_bytes_per_sec: u64,
    /// Controller + driver fixed overhead per command, µs.
    pub overhead_us: u64,
}

impl TimingModel {
    /// The drive modeled throughout the study.
    pub fn beowulf_ide() -> Self {
        Self {
            geometry: DiskGeometry::BEOWULF_500MB,
            seek_settle_us: 3_000,
            seek_sqrt_us: 320.0, // full-stroke ≈ 3 + 0.32·√992 ≈ 13 ms
            rotation_mean_us: 6_700,
            transfer_bytes_per_sec: 2_000_000,
            overhead_us: 500,
        }
    }

    /// Service time for a command moving `nsectors` starting at `sector`,
    /// with the head currently parked after `head_pos`.
    pub fn service_us(&self, head_pos: u32, sector: u32, nsectors: u16) -> SimTime {
        let dist = self.geometry.cylinder_distance(head_pos, sector);
        let seek = if dist == 0 {
            0
        } else {
            self.seek_settle_us + (self.seek_sqrt_us * (dist as f64).sqrt()) as u64
        };
        let bytes = nsectors as u64 * SECTOR_BYTES as u64;
        let transfer = bytes * 1_000_000 / self.transfer_bytes_per_sec;
        self.overhead_us + seek + self.rotation_mean_us + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seek_when_sequential() {
        let m = TimingModel::beowulf_ide();
        let spc = m.geometry.sectors_per_cylinder();
        let t_same = m.service_us(100, 100, 2);
        let t_far = m.service_us(100, 100 + 500 * spc, 2);
        assert!(
            t_far > t_same + 5_000,
            "long seek must dominate: {t_same} vs {t_far}"
        );
    }

    #[test]
    fn transfer_scales_with_size() {
        let m = TimingModel::beowulf_ide();
        let t1k = m.service_us(0, 0, 2);
        let t16k = m.service_us(0, 0, 32);
        // 15 KiB extra at 2 MB/s ≈ 7.7 ms.
        let delta = t16k - t1k;
        assert!((7_000..9_000).contains(&delta), "delta {delta}");
    }

    #[test]
    fn single_block_service_time_is_mid_90s_plausible() {
        let m = TimingModel::beowulf_ide();
        // Random 1 KB I/O with an average-ish seek: ~10–25 ms.
        let t = m.service_us(0, 500_000, 2);
        assert!((10_000..25_000).contains(&t), "t {t}");
    }

    #[test]
    fn full_stroke_seek_is_about_13ms() {
        let m = TimingModel::beowulf_ide();
        let total = m.geometry.total_sectors();
        let t = m.service_us(0, total - 1, 2);
        let seek_part = t - m.overhead_us - m.rotation_mean_us - 512; // minus ~0.5ms transfer
        assert!((10_000..16_000).contains(&seek_part), "seek {seek_part}");
    }
}
