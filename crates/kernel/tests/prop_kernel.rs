#![cfg(feature = "proptests")]

//! Property tests over the kernel substrate: the filesystem must never lose
//! or corrupt data under arbitrary write patterns, the buffer cache must
//! conserve dirty blocks, and the VM must never lose a page or leak a
//! frame under arbitrary touch sequences, and must match a hash-map
//! reference model op for op.

use std::collections::{BTreeSet, HashMap, VecDeque};

use essio_disk::DiskLayout;
use essio_kernel::cache::BufferCache;
use essio_kernel::fs::{Fs, BLOCK_BYTES};
use essio_kernel::vm::{FaultIo, TouchResult, Vm, VmStats, SECTORS_PER_PAGE};
use essio_kernel::{Ino, Pid, Placement};
use essio_sim::Vpn;
use essio_trace::Origin;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Filesystem
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct WriteOp {
    offset: u64,
    data: Vec<u8>,
}

fn write_ops() -> impl Strategy<Value = Vec<WriteOp>> {
    prop::collection::vec(
        (0u64..40_000, prop::collection::vec(any::<u8>(), 1..4000)),
        1..12,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(offset, data)| WriteOp { offset, data })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fs_matches_a_reference_byte_store(ops in write_ops()) {
        let mut fs = Fs::new(DiskLayout::beowulf_500mb());
        let ino = fs.create("/f", Placement::User).unwrap();
        let mut reference: Vec<u8> = Vec::new();
        for op in &ops {
            fs.write_at(ino, op.offset, &op.data).unwrap();
            let end = op.offset as usize + op.data.len();
            if reference.len() < end {
                reference.resize(end, 0);
            }
            reference[op.offset as usize..end].copy_from_slice(&op.data);
        }
        // Whole-file read matches the reference.
        let plan = fs.read_plan(ino, 0, reference.len() as u32 + 100).unwrap();
        prop_assert_eq!(&plan.data, &reference);
        // And arbitrary sub-ranges match.
        for op in &ops {
            let sub = fs.read_plan(ino, op.offset, op.data.len() as u32).unwrap();
            prop_assert_eq!(&sub.data[..], &reference[op.offset as usize..op.offset as usize + op.data.len()]);
        }
        // Block map is consistent with the size.
        let node = fs.inode(ino).unwrap();
        prop_assert_eq!(node.size, reference.len() as u64);
        prop_assert_eq!(node.blocks.len(), reference.len().div_ceil(BLOCK_BYTES as usize));
    }

    #[test]
    fn fs_block_maps_of_distinct_files_never_overlap(sizes in prop::collection::vec(1u32..30_000, 2..8)) {
        let mut fs = Fs::new(DiskLayout::beowulf_500mb());
        let mut all_blocks = std::collections::HashSet::new();
        for (i, size) in sizes.iter().enumerate() {
            let placement = match i % 3 {
                0 => Placement::User,
                1 => Placement::Log,
                _ => Placement::High,
            };
            let ino = fs.create(&format!("/f{i}"), placement).unwrap();
            fs.write_at(ino, 0, &vec![i as u8; *size as usize]).unwrap();
            for b in &fs.inode(ino).unwrap().blocks {
                prop_assert!(all_blocks.insert(*b), "block {} allocated twice", b);
            }
            if let Some(ind) = fs.inode(ino).unwrap().indirect {
                prop_assert!(all_blocks.insert(ind), "indirect block reused");
            }
        }
    }

    #[test]
    fn fs_unlink_allows_full_reuse(rounds in 1usize..6, size in 1u32..20_000) {
        let mut fs = Fs::new(DiskLayout::beowulf_500mb());
        let mut first_blocks = None;
        for r in 0..rounds {
            let ino = fs.create("/cycle", Placement::User).unwrap();
            fs.write_at(ino, 0, &vec![r as u8; size as usize]).unwrap();
            let blocks = fs.inode(ino).unwrap().blocks.clone();
            match &first_blocks {
                None => first_blocks = Some(blocks),
                Some(first) => prop_assert_eq!(first, &blocks, "freed blocks are reused deterministically"),
            }
            fs.unlink("/cycle").unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Buffer cache
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    InsertClean(u32),
    MarkDirty(u32, Origin),
    Touch(u32),
    Flush,
    /// `take_dirty_among` over a run of blocks, as `fsync` of one file.
    Fsync(Vec<u32>),
    /// `invalidate` of a run of blocks, as `unlink` of one file.
    Unlink(Vec<u32>),
}

fn block_run() -> impl Strategy<Value = Vec<u32>> {
    (0u32..300, 1u32..16).prop_map(|(start, len)| (start..start + len).collect())
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let origin = prop_oneof![
        Just(Origin::FileData),
        Just(Origin::Metadata),
        Just(Origin::Log),
        Just(Origin::TraceDump),
    ];
    prop::collection::vec(
        prop_oneof![
            (0u32..300).prop_map(CacheOp::InsertClean),
            ((0u32..300), origin).prop_map(|(b, o)| CacheOp::MarkDirty(b, o)),
            (0u32..300).prop_map(CacheOp::Touch),
            Just(CacheOp::Flush),
            block_run().prop_map(CacheOp::Fsync),
            block_run().prop_map(CacheOp::Unlink),
        ],
        1..300,
    )
}

/// Check a batch of blocks leaving the cache for disk against the model:
/// each was dirty with the origin of its last `mark_dirty`, was not
/// dropped by an unlink since, and leaves the model's dirty set.
fn write_back(
    out: &[(u32, Origin)],
    dirty: &mut HashMap<u32, Origin>,
    dropped: &BTreeSet<u32>,
) -> Result<(), TestCaseError> {
    for (blk, origin) in out {
        prop_assert!(!dropped.contains(blk), "wrote back unlinked block {blk}");
        prop_assert_eq!(dirty.remove(blk), Some(*origin), "block {} origin", blk);
    }
    Ok(())
}

fn strictly_ascending(out: &[(u32, Origin)]) -> bool {
    out.windows(2).all(|w| w[0].0 < w[1].0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_never_loses_a_dirty_block(ops in cache_ops(), capacity in 4usize..64) {
        let mut cache = BufferCache::new(capacity);
        // Model: resident dirty blocks and the origin of their last write.
        // A dirty block reaches "disk" exactly once per dirtying epoch, via
        // eviction write-back, a flush or an fsync, unless an unlink drops
        // it first; `dropped` holds blocks unlinked since their last write.
        let mut dirty: HashMap<u32, Origin> = HashMap::new();
        let mut dropped: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                CacheOp::InsertClean(b) => {
                    write_back(&cache.insert_clean(b, Origin::FileData), &mut dirty, &dropped)?;
                    // Dirtiness is sticky: a clean fill over a resident
                    // dirty buffer must not lose the pending write, so the
                    // model's dirty set is untouched here.
                }
                CacheOp::MarkDirty(b, origin) => {
                    write_back(&cache.mark_dirty(b, origin), &mut dirty, &dropped)?;
                    dirty.insert(b, origin);
                    dropped.remove(&b);
                }
                CacheOp::Touch(b) => {
                    cache.touch(b);
                }
                CacheOp::Flush => {
                    let out = cache.take_dirty();
                    prop_assert!(strictly_ascending(&out), "flush order {out:?}");
                    write_back(&out, &mut dirty, &dropped)?;
                    prop_assert!(dirty.is_empty(), "flush missed {dirty:?}");
                }
                CacheOp::Fsync(blocks) => {
                    let out = cache.take_dirty_among(&blocks);
                    prop_assert!(strictly_ascending(&out), "fsync order {out:?}");
                    let expected: BTreeSet<u32> =
                        blocks.iter().copied().filter(|b| dirty.contains_key(b)).collect();
                    let got: BTreeSet<u32> = out.iter().map(|(b, _)| *b).collect();
                    prop_assert_eq!(got, expected, "fsync takes exactly the file's dirty blocks");
                    write_back(&out, &mut dirty, &dropped)?;
                }
                CacheOp::Unlink(blocks) => {
                    cache.invalidate(&blocks);
                    for b in blocks {
                        prop_assert!(!cache.contains(b), "unlinked block {b} still resident");
                        if dirty.remove(&b).is_some() {
                            dropped.insert(b);
                        }
                    }
                }
            }
            prop_assert!(cache.len() <= capacity, "capacity exceeded");
            prop_assert_eq!(cache.dirty_count(), dirty.len());
        }
        // Final flush accounts for everything still dirty.
        let out = cache.take_dirty();
        prop_assert!(strictly_ascending(&out), "flush order {out:?}");
        write_back(&out, &mut dirty, &dropped)?;
        prop_assert!(dirty.is_empty(), "dirty blocks unaccounted: {dirty:?}");
    }
}

// ---------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vm_never_loses_pages_or_leaks_frames(
        frames in 4u32..64,
        pages in 1u32..128,
        touches in prop::collection::vec(0u64..128, 1..400),
    ) {
        let mut vm = Vm::new(frames, &DiskLayout::beowulf_500mb());
        let base = vm.map_anon(1, pages);
        let mut swap_live: std::collections::HashSet<u32> = Default::default();
        for t in touches {
            let vpn = base + (t % pages as u64);
            match vm.touch(1, vpn) {
                TouchResult::Hit => {}
                TouchResult::Fault { io, swap_outs } => {
                    for s in swap_outs {
                        swap_live.insert(s);
                    }
                    if let essio_kernel::vm::FaultIo::SwapIn { slot } = io {
                        prop_assert!(swap_live.contains(&slot), "swap-in of a never-written slot {slot}");
                    }
                }
                TouchResult::OutOfMemory => break, // tiny configs may exhaust; fine
                TouchResult::BadAddress => prop_assert!(false, "mapped page reported unmapped"),
            }
            prop_assert!(vm.frames_used() <= vm.frames_total());
            prop_assert!(vm.resident_pages(1) as u32 <= frames);
        }
        // Every slot address stays inside the swap region.
        for s in &swap_live {
            let sector = vm.slot_sector(*s);
            prop_assert!((300_000..400_000).contains(&sector), "slot {s} at sector {sector}");
        }
        vm.release(1);
        prop_assert_eq!(vm.frames_used(), 0, "all frames returned");
    }

    #[test]
    fn vm_touch_after_release_is_bad_address(pages in 1u32..32) {
        let mut vm = Vm::new(16, &DiskLayout::beowulf_500mb());
        let base = vm.map_anon(1, pages);
        vm.touch(1, base);
        vm.release(1);
        prop_assert_eq!(vm.touch(1, base), TouchResult::BadAddress);
    }
}

// ---------------------------------------------------------------------
// VM against a reference model
// ---------------------------------------------------------------------

/// The VM as one hash map per fact, keyed by `(pid, vpn)`: the reference
/// the page-table `Vm` must match result for result. Freed swap slots are
/// reused lowest first, as in `Vm`.
struct ModelVm {
    frames_total: u32,
    frames_used: u32,
    /// `(is_text, referenced)` per resident page.
    resident: HashMap<(Pid, Vpn), (bool, bool)>,
    clock: VecDeque<(Pid, Vpn)>,
    swap_of: HashMap<(Pid, Vpn), u32>,
    swap_next: u32,
    swap_slots: u32,
    swap_free: BTreeSet<u32>,
    /// `(base, pages, text_ino)` per mapping.
    segments: HashMap<Pid, Vec<(Vpn, u32, Option<Ino>)>>,
    next_base: HashMap<Pid, Vpn>,
    stats: VmStats,
}

impl ModelVm {
    fn new(frames_total: u32, layout: &DiskLayout) -> Self {
        Self {
            frames_total,
            frames_used: 0,
            resident: HashMap::new(),
            clock: VecDeque::new(),
            swap_of: HashMap::new(),
            swap_next: 0,
            swap_slots: (layout.swap.1 - layout.swap.0) / SECTORS_PER_PAGE,
            swap_free: BTreeSet::new(),
            segments: HashMap::new(),
            next_base: HashMap::new(),
            stats: VmStats::default(),
        }
    }

    fn map(&mut self, pid: Pid, pages: u32, text_ino: Option<Ino>) -> Vpn {
        let base = *self.next_base.entry(pid).or_insert(0x10);
        self.next_base.insert(pid, base + pages as Vpn + 8);
        self.segments
            .entry(pid)
            .or_default()
            .push((base, pages, text_ino));
        base
    }

    fn touch(&mut self, pid: Pid, vpn: Vpn) -> TouchResult {
        if let Some((_, referenced)) = self.resident.get_mut(&(pid, vpn)) {
            *referenced = true;
            self.stats.hits += 1;
            return TouchResult::Hit;
        }
        let Some(&(base, _, text_ino)) = self.segments.get(&pid).and_then(|segs| {
            segs.iter()
                .find(|&&(base, pages, _)| vpn >= base && vpn < base + pages as Vpn)
        }) else {
            return TouchResult::BadAddress;
        };
        let io = match (text_ino, self.swap_of.get(&(pid, vpn))) {
            (Some(ino), _) => FaultIo::PageIn {
                ino,
                page: (vpn - base) as u32,
            },
            (None, Some(&slot)) => FaultIo::SwapIn { slot },
            (None, None) => FaultIo::None,
        };
        let mut swap_outs = Vec::new();
        if self.frames_used >= self.frames_total {
            match self.evict_one() {
                Some(Some(slot)) => swap_outs.push(slot),
                Some(None) => {}
                None => return TouchResult::OutOfMemory,
            }
        } else {
            self.frames_used += 1;
        }
        self.stats.faults += 1;
        match io {
            FaultIo::None => self.stats.zero_fills += 1,
            FaultIo::SwapIn { .. } => self.stats.swap_ins += 1,
            FaultIo::PageIn { .. } => self.stats.page_ins += 1,
        }
        self.resident.insert((pid, vpn), (text_ino.is_some(), true));
        self.clock.push_back((pid, vpn));
        TouchResult::Fault { io, swap_outs }
    }

    fn evict_one(&mut self) -> Option<Option<u32>> {
        for _ in 0..self.clock.len() * 2 + 1 {
            let key = self.clock.pop_front()?;
            let (text, referenced) = self.resident.get_mut(&key).expect("clock page resident");
            if *referenced {
                *referenced = false;
                self.clock.push_back(key);
                continue;
            }
            if *text {
                self.resident.remove(&key);
                self.stats.text_drops += 1;
                return Some(None);
            }
            let slot = match self.swap_of.get(&key) {
                Some(&slot) => slot,
                None => {
                    let slot = match self.swap_free.pop_first() {
                        Some(slot) => slot,
                        None if self.swap_next < self.swap_slots => {
                            self.swap_next += 1;
                            self.swap_next - 1
                        }
                        None => {
                            self.clock.push_back(key);
                            return None;
                        }
                    };
                    self.swap_of.insert(key, slot);
                    slot
                }
            };
            self.resident.remove(&key);
            self.stats.swap_outs += 1;
            return Some(Some(slot));
        }
        None
    }

    fn release(&mut self, pid: Pid) {
        self.segments.remove(&pid);
        self.next_base.remove(&pid);
        let before = self.resident.len();
        self.resident.retain(|(p, _), _| *p != pid);
        self.frames_used -= (before - self.resident.len()) as u32;
        self.clock.retain(|(p, _)| *p != pid);
        let freed = self.swap_of.iter().filter(|((p, _), _)| *p == pid);
        self.swap_free.extend(freed.map(|(_, &slot)| slot));
        self.swap_of.retain(|(p, _), _| *p != pid);
    }

    fn resident_pages(&self, pid: Pid) -> usize {
        self.resident.keys().filter(|(p, _)| *p == pid).count()
    }
}

#[derive(Debug, Clone)]
enum VmOp {
    MapAnon { pid: Pid, pages: u32 },
    MapText { pid: Pid, ino: Ino, pages: u32 },
    Touch { pid: Pid, vpn: Vpn },
    Release { pid: Pid },
}

/// Mostly touches, over three pids; vpns cover the first few mappings,
/// their guard gaps and the unmapped page below 0x10.
fn vm_ops() -> impl Strategy<Value = Vec<VmOp>> {
    prop::collection::vec((0u8..24, 1u32..4, 0u64..0x60, 1u32..24), 1..400).prop_map(|v| {
        v.into_iter()
            .map(|(kind, pid, vpn, n)| match kind {
                0 => VmOp::MapAnon { pid, pages: n },
                1 => VmOp::MapText {
                    pid,
                    ino: 100 + n,
                    pages: n,
                },
                2 => VmOp::Release { pid },
                _ => VmOp::Touch {
                    pid,
                    vpn: 0x0f + vpn,
                },
            })
            .collect()
    })
}

/// Run `ops` through a [`Vm`] and the model over `frames` frames and
/// `slots` swap slots, checking that every result, the stats, the frame
/// count and each pid's residency agree after each op. Returns the stats.
fn vm_agrees_with_model(frames: u32, slots: u32, ops: &[VmOp]) -> Result<VmStats, TestCaseError> {
    let mut layout = DiskLayout::beowulf_500mb();
    layout.swap = (300_000, 300_000 + slots * SECTORS_PER_PAGE);
    let mut vm = Vm::new(frames, &layout);
    let mut model = ModelVm::new(frames, &layout);
    for op in ops {
        match *op {
            VmOp::MapAnon { pid, pages } => {
                prop_assert_eq!(vm.map_anon(pid, pages), model.map(pid, pages, None));
            }
            VmOp::MapText { pid, ino, pages } => {
                prop_assert_eq!(
                    vm.map_text(pid, ino, pages),
                    model.map(pid, pages, Some(ino))
                );
            }
            VmOp::Touch { pid, vpn } => {
                prop_assert_eq!(vm.touch(pid, vpn), model.touch(pid, vpn), "{:?}", op);
            }
            VmOp::Release { pid } => {
                vm.release(pid);
                model.release(pid);
            }
        }
        prop_assert_eq!(vm.stats, model.stats, "after {:?}", op);
        prop_assert_eq!(vm.frames_used(), model.frames_used);
        for pid in 1..4 {
            prop_assert_eq!(vm.resident_pages(pid), model.resident_pages(pid));
        }
    }
    Ok(vm.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vm_matches_the_hash_map_model(
        frames in 1u32..=16,
        slots in 1u32..=24,
        ops in vm_ops(),
    ) {
        vm_agrees_with_model(frames, slots, &ops)?;
    }
}

/// One fixed input to the model check: a single anonymous mapping twice
/// the frame pool, swept four times with a swap slot for every page. Each
/// touch is a hit or a fault, never `BadAddress` or `OutOfMemory`.
#[test]
fn a_sweep_of_twice_the_frame_pool_only_hits_and_faults() {
    let (frames, pages) = (16, 32);
    let mut ops = vec![VmOp::MapAnon { pid: 1, pages }];
    for _ in 0..4 {
        ops.extend((0..pages as Vpn).map(|p| VmOp::Touch {
            pid: 1,
            vpn: 0x10 + p,
        }));
    }
    let stats = vm_agrees_with_model(frames, pages, &ops).unwrap();
    assert_eq!(stats.hits + stats.faults, 4 * pages as u64);
    assert!(stats.swap_ins > 0 && stats.swap_outs > 0, "{stats:?}");
}
