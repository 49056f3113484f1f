//! An ext2-like filesystem with 1 KB blocks.
//!
//! What matters for the study is *where requests land* and *how many blocks
//! move*, so the design keeps two parallel views of every file:
//!
//! * a **block map** — real device block numbers handed out by a
//!   placement-aware allocator (log files near sector 45,000, user files in
//!   the user region, system files high), consulted for every simulated
//!   disk request, and
//! * a **content store** — the actual bytes, kept host-side so workloads
//!   compute on real data. The disk model is a timing/trace model; block
//!   contents never round-trip through it.
//!
//! Metadata has addresses too: the superblock, root directory, inode table
//! and block bitmaps live in the metadata region, and the kernel issues
//! 1 KB metadata requests against those addresses (they are a visible part
//! of the baseline workload).
//!
//! Like ext2, an inode maps the first [`NDIRECT`] blocks directly; larger
//! files need an *indirect block*, whose first consultation is an extra
//! metadata read.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use essio_disk::DiskLayout;

use crate::syscall::{Ino, Placement, SysError};

/// Filesystem block size (bytes). The paper's smallest request class.
pub const BLOCK_BYTES: u32 = 1024;
/// Sectors per filesystem block.
pub const SECTORS_PER_BLOCK: u32 = 2;
/// Direct block pointers per inode (ext2 uses 12; 10 keeps indirect
/// traffic visible for files over 10 KB, like the original ext fs).
pub const NDIRECT: usize = 10;
/// Inodes per 1 KB of inode table.
pub const INODES_PER_BLOCK: u32 = 8;
/// Blocks reserved for a block group's metadata (inode table + bitmaps).
pub const GROUP_META_BLOCKS: u32 = 128;

/// Device-wide block number; sector = `block * SECTORS_PER_BLOCK`.
pub type BlockNo = u32;

/// An on-"disk" file.
#[derive(Debug, Clone)]
pub struct Inode {
    /// File length in bytes.
    pub size: u64,
    /// Data block map, in file order.
    pub blocks: Vec<BlockNo>,
    /// Placement the file was created with.
    pub placement: Placement,
    /// Indirect block (allocated once `blocks.len() > NDIRECT`).
    pub indirect: Option<BlockNo>,
    /// Backing content (host-side).
    data: Vec<u8>,
}

impl Inode {
    /// File content (whole).
    pub fn content(&self) -> &[u8] {
        &self.data
    }
}

/// Outcome of a write: which device blocks became dirty.
#[derive(Debug, Clone, Default)]
pub struct WriteOutcome {
    /// Data blocks covered by the write.
    pub data_blocks: Vec<BlockNo>,
    /// Metadata blocks dirtied (inode, bitmap, indirect, directory).
    pub meta_blocks: Vec<BlockNo>,
}

/// Plan for a read: the bytes plus the device blocks that hold them.
#[derive(Debug, Clone)]
pub struct ReadPlan {
    /// The read content (short at EOF).
    pub data: Vec<u8>,
    /// Data blocks covering the range, in file order.
    pub blocks: Vec<BlockNo>,
    /// The indirect block, if the range needs it to be resolved.
    pub indirect: Option<BlockNo>,
}

/// Filesystem statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStats {
    /// Files created.
    pub created: u64,
    /// Data blocks allocated.
    pub blocks_allocated: u64,
    /// Files removed.
    pub unlinked: u64,
}

/// Placement-aware block allocator: bump pointer per region plus a free set
/// for reuse after unlink.
#[derive(Debug)]
struct Allocator {
    /// (next unallocated, end) per placement.
    regions: BTreeMap<u8, (BlockNo, BlockNo)>,
    freed: BTreeSet<BlockNo>,
    layout_blocks: (BlockNo, BlockNo, BlockNo, BlockNo, BlockNo, BlockNo),
    /// Blocks reserved for the log region's block-group metadata:
    /// `[start, end)` — the data allocator skips over them.
    log_meta: (BlockNo, BlockNo),
}

fn placement_key(p: Placement) -> u8 {
    match p {
        Placement::Log => 0,
        Placement::User => 1,
        Placement::High => 2,
    }
}

impl Allocator {
    fn new(layout: &DiskLayout) -> Self {
        let to_blocks = |(s, e): (u32, u32)| (s / SECTORS_PER_BLOCK, e / SECTORS_PER_BLOCK);
        let log = to_blocks(layout.log);
        let user = to_blocks(layout.user);
        let high = to_blocks(layout.high);
        let mut regions = BTreeMap::new();
        // The log group's metadata window sits 2,500 blocks (5,000
        // sectors) into the region; the high group's at its start. Data
        // allocation must not collide with either.
        let log_meta = (log.0 + 2_500, log.0 + 2_500 + GROUP_META_BLOCKS);
        regions.insert(placement_key(Placement::Log), log);
        regions.insert(placement_key(Placement::User), user);
        regions.insert(
            placement_key(Placement::High),
            (high.0 + GROUP_META_BLOCKS, high.1),
        );
        Self {
            regions,
            freed: BTreeSet::new(),
            layout_blocks: (log.0, log.1, user.0, user.1, high.0, high.1),
            log_meta,
        }
    }

    fn region_range(&self, p: Placement) -> (BlockNo, BlockNo) {
        let (l0, l1, u0, u1, h0, h1) = self.layout_blocks;
        match p {
            Placement::Log => (l0, l1),
            Placement::User => (u0, u1),
            Placement::High => (h0, h1),
        }
    }

    fn alloc(&mut self, p: Placement) -> Option<BlockNo> {
        // Prefer reusing a freed block inside the region (keeps files
        // clustered), then bump, then spill into the user region.
        let (start, end) = self.region_range(p);
        if let Some(&b) = self.freed.range(start..end).next() {
            self.freed.remove(&b);
            return Some(b);
        }
        let key = placement_key(p);
        let log_meta = self.log_meta;
        let (next, rend) = self.regions.get_mut(&key).expect("region exists");
        if *next == log_meta.0 {
            *next = log_meta.1; // hop over the log group's metadata window
        }
        if *next < *rend {
            let b = *next;
            *next += 1;
            return Some(b);
        }
        if p != Placement::User {
            return self.alloc(Placement::User);
        }
        // User region exhausted: last resort, any freed block anywhere.
        self.freed.pop_first()
    }

    fn free(&mut self, b: BlockNo) {
        self.freed.insert(b);
    }
}

/// The filesystem.
#[derive(Debug)]
pub struct Fs {
    layout: DiskLayout,
    inodes: Vec<Option<Inode>>,
    root: BTreeMap<String, Ino>,
    alloc: Allocator,
    meta_base: BlockNo,
    /// Statistics.
    pub stats: FsStats,
}

impl Fs {
    /// Make a fresh filesystem over `layout`.
    pub fn new(layout: DiskLayout) -> Self {
        layout.validate().expect("valid disk layout");
        let meta_base = layout.metadata.0 / SECTORS_PER_BLOCK;
        let alloc = Allocator::new(&layout);
        Self {
            layout,
            inodes: Vec::new(),
            root: BTreeMap::new(),
            alloc,
            meta_base,
            stats: FsStats::default(),
        }
    }

    /// The layout this filesystem was built over.
    pub fn layout(&self) -> &DiskLayout {
        &self.layout
    }

    // ----- metadata addresses ------------------------------------------
    //
    // Like ext2, metadata lives in *block groups* co-located with the data
    // it describes: a file's inode sits in its region's group table and a
    // block's bitmap in that region's group bitmap. This is what puts the
    // repeatedly-rewritten log-file metadata near sector 45,000 — the
    // paper's hottest sector (Figure 8) — rather than at the disk front.

    /// Device block holding the root directory entries.
    pub fn dir_block(&self) -> BlockNo {
        self.meta_base + 1
    }

    /// First metadata block of the block group for `placement`. The log
    /// group's tables sit 5,000 sectors into the log region — ≈ sector
    /// 45,000 on the Beowulf layout.
    fn group_meta_base(&self, placement: Placement) -> BlockNo {
        match placement {
            Placement::Log => (self.layout.log.0 + 5_000) / SECTORS_PER_BLOCK,
            Placement::User => self.meta_base + 2,
            Placement::High => self.layout.high.0 / SECTORS_PER_BLOCK,
        }
    }

    /// Device block of the inode table slot for `ino` (in its block group).
    pub fn inode_block(&self, ino: Ino) -> BlockNo {
        let placement = self
            .inode(ino)
            .map(|n| n.placement)
            .unwrap_or(Placement::User);
        self.group_meta_base(placement) + ino / INODES_PER_BLOCK
    }

    /// Device block of the allocation bitmap covering data block `b`
    /// (1 KB of bitmap maps 8192 blocks), in `b`'s block group.
    pub fn bitmap_block_for(&self, b: BlockNo) -> BlockNo {
        let sector = b * SECTORS_PER_BLOCK;
        let placement = match self.layout.region_of(sector) {
            essio_disk::Region::Log => Placement::Log,
            essio_disk::Region::HighSystem => Placement::High,
            _ => Placement::User,
        };
        self.group_meta_base(placement) + 64 + b / 8192
    }

    // ----- namespace ----------------------------------------------------

    /// Create an empty file. Fails if the path exists.
    pub fn create(&mut self, path: &str, placement: Placement) -> Result<Ino, SysError> {
        if self.root.contains_key(path) {
            return Err(SysError::Invalid);
        }
        let ino = self.inodes.len() as Ino;
        self.inodes.push(Some(Inode {
            size: 0,
            blocks: Vec::new(),
            placement,
            indirect: None,
            data: Vec::new(),
        }));
        self.root.insert(path.to_string(), ino);
        self.stats.created += 1;
        Ok(ino)
    }

    /// Resolve a path.
    pub fn lookup(&self, path: &str) -> Option<Ino> {
        self.root.get(path).copied()
    }

    /// Access an inode.
    pub fn inode(&self, ino: Ino) -> Option<&Inode> {
        self.inodes.get(ino as usize).and_then(|i| i.as_ref())
    }

    /// Remove a file, releasing its blocks. Returns the dirtied metadata
    /// blocks and the freed ones (data blocks, then the indirect block).
    pub fn unlink(&mut self, path: &str) -> Result<(Vec<BlockNo>, Vec<BlockNo>), SysError> {
        let ino = self.root.remove(path).ok_or(SysError::NotFound)?;
        let inode = self.inodes[ino as usize].take().ok_or(SysError::NotFound)?;
        let mut meta = vec![self.dir_block(), self.inode_block(ino)];
        for &b in &inode.blocks {
            self.alloc.free(b);
            let bb = self.bitmap_block_for(b);
            if !meta.contains(&bb) {
                meta.push(bb);
            }
        }
        let mut freed = inode.blocks;
        if let Some(ind) = inode.indirect {
            self.alloc.free(ind);
            freed.push(ind);
        }
        self.stats.unlinked += 1;
        Ok((meta, freed))
    }

    // ----- data ----------------------------------------------------------

    /// Write `data` at byte `offset`, growing the file as needed.
    pub fn write_at(
        &mut self,
        ino: Ino,
        offset: u64,
        data: &[u8],
    ) -> Result<WriteOutcome, SysError> {
        if data.is_empty() {
            return Ok(WriteOutcome::default());
        }
        let placement = self.inode(ino).ok_or(SysError::NotFound)?.placement;
        let end = offset + data.len() as u64;
        let blocks_needed = (end as usize).div_ceil(BLOCK_BYTES as usize);

        let mut out = WriteOutcome::default();
        // Allocate any missing blocks first (immutable borrow dance).
        let cur_blocks = self.inode(ino).unwrap().blocks.len();
        let mut new_blocks = Vec::new();
        for _ in cur_blocks..blocks_needed {
            let b = self.alloc.alloc(placement).ok_or(SysError::NoSpace)?;
            new_blocks.push(b);
        }
        if !new_blocks.is_empty() {
            self.stats.blocks_allocated += new_blocks.len() as u64;
            for b in &new_blocks {
                let bb = self.bitmap_block_for(*b);
                if !out.meta_blocks.contains(&bb) {
                    out.meta_blocks.push(bb);
                }
            }
        }
        let crossed_indirect = cur_blocks <= NDIRECT && blocks_needed > NDIRECT;
        let inode_block = self.inode_block(ino);
        let indirect_needed = if crossed_indirect {
            Some(self.alloc.alloc(placement).ok_or(SysError::NoSpace)?)
        } else {
            None
        };

        let node = self.inodes[ino as usize].as_mut().expect("checked above");
        node.blocks.extend_from_slice(&new_blocks);
        if let Some(ind) = indirect_needed {
            node.indirect = Some(ind);
            out.meta_blocks.push(ind);
        }
        if node.data.len() < end as usize {
            node.data.resize(end as usize, 0);
        }
        node.data[offset as usize..end as usize].copy_from_slice(data);
        node.size = node.size.max(end);

        let first_blk = (offset / BLOCK_BYTES as u64) as usize;
        let last_blk = ((end - 1) / BLOCK_BYTES as u64) as usize;
        out.data_blocks = node.blocks[first_blk..=last_blk].to_vec();
        // The inode itself (size, block map) is dirtied by any extension.
        if !new_blocks.is_empty() || crossed_indirect {
            out.meta_blocks.push(inode_block);
        }
        Ok(out)
    }

    /// Plan a read of `len` bytes at `offset` (short at EOF).
    pub fn read_plan(&self, ino: Ino, offset: u64, len: u32) -> Result<ReadPlan, SysError> {
        let node = self.inode(ino).ok_or(SysError::NotFound)?;
        if offset >= node.size {
            return Ok(ReadPlan {
                data: Vec::new(),
                blocks: Vec::new(),
                indirect: None,
            });
        }
        let end = (offset + len as u64).min(node.size);
        let data = node.data[offset as usize..end as usize].to_vec();
        let first_blk = (offset / BLOCK_BYTES as u64) as usize;
        let last_blk = ((end - 1) / BLOCK_BYTES as u64) as usize;
        let blocks = node.blocks[first_blk..=last_blk.min(node.blocks.len() - 1)].to_vec();
        let indirect = if last_blk >= NDIRECT {
            node.indirect
        } else {
            None
        };
        Ok(ReadPlan {
            data,
            blocks,
            indirect,
        })
    }

    /// Device blocks backing the 4 KB page at `page_index` of a file
    /// (text demand paging). Empty if the page is beyond EOF.
    pub fn page_blocks(&self, ino: Ino, page_index: u32) -> Vec<BlockNo> {
        let Some(node) = self.inode(ino) else {
            return Vec::new();
        };
        let per_page = (4096 / BLOCK_BYTES) as usize;
        let start = page_index as usize * per_page;
        if start >= node.blocks.len() {
            return Vec::new();
        }
        let end = (start + per_page).min(node.blocks.len());
        node.blocks[start..end].to_vec()
    }

    /// The device blocks backing `nblocks` file blocks starting at byte
    /// `offset` (clipped at EOF) — the prefetch resolution path.
    pub fn blocks_in_range(&self, ino: Ino, offset: u64, nblocks: u32) -> Vec<BlockNo> {
        let Some(node) = self.inode(ino) else {
            return Vec::new();
        };
        let first = (offset / BLOCK_BYTES as u64) as usize;
        if first >= node.blocks.len() {
            return Vec::new();
        }
        let end = (first + nblocks as usize).min(node.blocks.len());
        node.blocks[first..end].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Fs {
        Fs::new(DiskLayout::beowulf_500mb())
    }

    #[test]
    fn create_lookup_unlink() {
        let mut f = fs();
        let ino = f.create("/data/image", Placement::User).unwrap();
        assert_eq!(f.lookup("/data/image"), Some(ino));
        assert!(f.create("/data/image", Placement::User).is_err());
        let (meta, freed) = f.unlink("/data/image").unwrap();
        assert!(meta.contains(&f.dir_block()));
        assert!(freed.is_empty(), "an empty file holds no blocks");
        assert_eq!(f.lookup("/data/image"), None);
        assert!(f.unlink("/data/image").is_err());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut f = fs();
        let ino = f.create("/f", Placement::User).unwrap();
        let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        f.write_at(ino, 0, &payload).unwrap();
        let plan = f.read_plan(ino, 0, 3000).unwrap();
        assert_eq!(plan.data, payload);
        assert_eq!(plan.blocks.len(), 3);
    }

    #[test]
    fn read_beyond_eof_is_short() {
        let mut f = fs();
        let ino = f.create("/f", Placement::User).unwrap();
        f.write_at(ino, 0, b"hello").unwrap();
        let plan = f.read_plan(ino, 3, 100).unwrap();
        assert_eq!(plan.data, b"lo");
        let past = f.read_plan(ino, 10, 4).unwrap();
        assert!(past.data.is_empty());
        assert!(past.blocks.is_empty());
    }

    #[test]
    fn sparse_write_via_offset_zero_fills() {
        let mut f = fs();
        let ino = f.create("/f", Placement::User).unwrap();
        f.write_at(ino, 2048, b"xy").unwrap();
        let plan = f.read_plan(ino, 0, 2050).unwrap();
        assert_eq!(plan.data.len(), 2050);
        assert!(plan.data[..2048].iter().all(|&b| b == 0));
        assert_eq!(&plan.data[2048..], b"xy");
    }

    #[test]
    fn placement_routes_blocks_into_regions() {
        let mut f = fs();
        let layout = f.layout().clone();
        let log = f.create("/var/log/messages", Placement::Log).unwrap();
        let user = f.create("/home/data", Placement::User).unwrap();
        let high = f.create("/sys/table", Placement::High).unwrap();
        f.write_at(log, 0, &[0; 1024]).unwrap();
        f.write_at(user, 0, &[0; 1024]).unwrap();
        f.write_at(high, 0, &[0; 1024]).unwrap();
        let sector_of = |f: &Fs, ino: Ino| f.inode(ino).unwrap().blocks[0] * SECTORS_PER_BLOCK;
        assert_eq!(
            layout.region_of(sector_of(&f, log)),
            essio_disk::Region::Log
        );
        assert_eq!(
            layout.region_of(sector_of(&f, user)),
            essio_disk::Region::UserData
        );
        assert_eq!(
            layout.region_of(sector_of(&f, high)),
            essio_disk::Region::HighSystem
        );
    }

    #[test]
    fn log_placement_starts_near_sector_45000() {
        let mut f = fs();
        let ino = f.create("/var/log/messages", Placement::Log).unwrap();
        f.write_at(ino, 0, &[0; 1024]).unwrap();
        let sector = f.inode(ino).unwrap().blocks[0] * SECTORS_PER_BLOCK;
        assert!((40_000..60_000).contains(&sector), "sector {sector}");
    }

    #[test]
    fn sequential_writes_allocate_contiguous_blocks() {
        let mut f = fs();
        let ino = f.create("/f", Placement::User).unwrap();
        f.write_at(ino, 0, &vec![1u8; 8 * 1024]).unwrap();
        let blocks = &f.inode(ino).unwrap().blocks;
        for w in blocks.windows(2) {
            assert_eq!(w[1], w[0] + 1, "fresh allocation is contiguous");
        }
    }

    #[test]
    fn indirect_block_appears_past_ndirect() {
        let mut f = fs();
        let ino = f.create("/f", Placement::User).unwrap();
        let out = f
            .write_at(ino, 0, &vec![0u8; NDIRECT as u64 as usize * 1024])
            .unwrap();
        assert!(f.inode(ino).unwrap().indirect.is_none());
        drop(out);
        let out2 = f
            .write_at(ino, (NDIRECT * 1024) as u64, &[0u8; 1024])
            .unwrap();
        let ind = f.inode(ino).unwrap().indirect.expect("indirect allocated");
        assert!(out2.meta_blocks.contains(&ind));
        // A read reaching past the direct range reports the indirect block.
        let plan = f.read_plan(ino, (NDIRECT * 1024) as u64, 100).unwrap();
        assert_eq!(plan.indirect, Some(ind));
        // A read within the direct range does not.
        let plan2 = f.read_plan(ino, 0, 100).unwrap();
        assert_eq!(plan2.indirect, None);
    }

    #[test]
    fn write_outcome_reports_dirty_blocks() {
        let mut f = fs();
        let ino = f.create("/f", Placement::User).unwrap();
        let out = f.write_at(ino, 0, &[7u8; 2048]).unwrap();
        assert_eq!(out.data_blocks.len(), 2);
        assert!(out.meta_blocks.contains(&f.inode_block(ino)));
        assert!(out
            .meta_blocks
            .iter()
            .any(|b| *b == f.bitmap_block_for(out.data_blocks[0])));
        // Overwrite without growth dirties only data blocks.
        let out2 = f.write_at(ino, 0, &[9u8; 100]).unwrap();
        assert_eq!(out2.data_blocks.len(), 1);
        assert!(out2.meta_blocks.is_empty());
    }

    #[test]
    fn unlink_frees_blocks_for_reuse() {
        let mut f = fs();
        let a = f.create("/a", Placement::User).unwrap();
        f.write_at(a, 0, &[0u8; 4096]).unwrap();
        let freed = f.inode(a).unwrap().blocks.clone();
        assert_eq!(f.unlink("/a").unwrap().1, freed);
        let b = f.create("/b", Placement::User).unwrap();
        f.write_at(b, 0, &[0u8; 1024]).unwrap();
        assert_eq!(
            f.inode(b).unwrap().blocks[0],
            freed[0],
            "freed block reused first"
        );
    }

    #[test]
    fn page_blocks_for_text_paging() {
        let mut f = fs();
        let ino = f.create("/bin/app", Placement::User).unwrap();
        f.write_at(ino, 0, &vec![0u8; 10 * 1024]).unwrap();
        assert_eq!(f.page_blocks(ino, 0).len(), 4); // 4 KB = 4 blocks
        assert_eq!(f.page_blocks(ino, 2).len(), 2); // tail page is short
        assert!(f.page_blocks(ino, 3).is_empty());
    }

    #[test]
    fn metadata_addresses_follow_block_groups() {
        let mut f = fs();
        let layout = f.layout().clone();
        // Core metadata + user-group tables live at the disk front.
        for blk in [f.dir_block(), f.bitmap_block_for(200_000)] {
            let sector = blk * SECTORS_PER_BLOCK;
            assert_eq!(
                layout.region_of(sector),
                essio_disk::Region::Metadata,
                "block {blk}"
            );
        }
        // A log file's inode sits in the log block group — near sector
        // 45,000, the paper's Figure-8 hot spot.
        let log = f.create("/var/log/x", Placement::Log).unwrap();
        let sector = f.inode_block(log) * SECTORS_PER_BLOCK;
        assert!((44_900..46_000).contains(&sector), "log inode at {sector}");
        // A high file's metadata sits in the high group.
        let hi = f.create("/sys/t", Placement::High).unwrap();
        let sector = f.inode_block(hi) * SECTORS_PER_BLOCK;
        assert!(sector >= 940_000, "high inode at {sector}");
        // High data blocks never collide with the group tables.
        f.write_at(hi, 0, &[0u8; 4096]).unwrap();
        for b in &f.inode(hi).unwrap().blocks {
            assert!(*b >= 470_000 + GROUP_META_BLOCKS, "data block {b}");
        }
    }

    #[test]
    fn log_data_allocation_skips_group_metadata_window() {
        let mut f = fs();
        let ino = f.create("/var/log/big", Placement::Log).unwrap();
        // Write 3 MB of log: the allocator must hop over the 128-block
        // metadata window at block 22,500.
        f.write_at(ino, 0, &vec![0u8; 3 * 1024 * 1024]).unwrap();
        let blocks = &f.inode(ino).unwrap().blocks;
        let meta_lo = 22_500;
        let meta_hi = 22_500 + GROUP_META_BLOCKS;
        assert!(blocks.iter().all(|b| *b < meta_lo || *b >= meta_hi));
        assert!(
            blocks.iter().any(|b| *b >= meta_hi),
            "allocation continued past the window"
        );
    }
}
