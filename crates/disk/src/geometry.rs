//! Platter geometry of the modeled drive.

/// Physical geometry of an IDE drive.
///
/// The prototype's ~500 MB drives are modeled with a classic mid-90s
/// logical geometry: 992 cylinders × 16 heads × 63 sectors/track ×
/// 512 B/sector ≈ 489 MB (1,000,000-sector address space, rounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskGeometry {
    /// Cylinders.
    pub cylinders: u32,
    /// Heads (surfaces).
    pub heads: u32,
    /// Sectors per track.
    pub sectors_per_track: u32,
}

impl DiskGeometry {
    /// The Beowulf node drive: ~500 MB.
    pub const BEOWULF_500MB: DiskGeometry = DiskGeometry {
        cylinders: 992,
        heads: 16,
        sectors_per_track: 63,
    };

    /// Sectors per cylinder.
    #[inline]
    pub fn sectors_per_cylinder(&self) -> u32 {
        self.heads * self.sectors_per_track
    }

    /// Total addressable sectors.
    #[inline]
    pub fn total_sectors(&self) -> u32 {
        self.cylinders * self.sectors_per_cylinder()
    }

    /// Cylinder containing a logical sector (LBA → CHS cylinder).
    #[inline]
    pub fn cylinder_of(&self, sector: u32) -> u32 {
        (sector / self.sectors_per_cylinder()).min(self.cylinders.saturating_sub(1))
    }

    /// Absolute cylinder distance between two sectors (seek length).
    #[inline]
    pub fn cylinder_distance(&self, a: u32, b: u32) -> u32 {
        self.cylinder_of(a).abs_diff(self.cylinder_of(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: DiskGeometry = DiskGeometry::BEOWULF_500MB;

    #[test]
    fn beowulf_drive_is_about_500mb() {
        let mb = G.total_sectors() as f64 * essio_trace::SECTOR_BYTES as f64 / (1000.0 * 1000.0);
        assert!((480.0..=520.0).contains(&mb), "capacity {mb} MB");
        assert_eq!(G.total_sectors(), 999_936);
    }

    #[test]
    fn cylinder_mapping() {
        assert_eq!(G.cylinder_of(0), 0);
        assert_eq!(G.cylinder_of(G.sectors_per_cylinder() - 1), 0);
        assert_eq!(G.cylinder_of(G.sectors_per_cylinder()), 1);
        // Beyond the end clamps to the last cylinder rather than wrapping.
        assert_eq!(G.cylinder_of(u32::MAX), G.cylinders - 1);
    }

    #[test]
    fn cylinder_distance_is_symmetric() {
        let a = 10_000;
        let b = 900_000;
        assert_eq!(G.cylinder_distance(a, b), G.cylinder_distance(b, a));
        assert_eq!(G.cylinder_distance(a, a), 0);
    }
}
