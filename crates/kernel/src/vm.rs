//! Virtual memory: demand paging over a fixed frame pool.
//!
//! Every 4 KB request in the paper's figures comes from this subsystem:
//! text page-ins while a program builds its working set (the wavelet startup
//! burst, §4.2), swap-outs under pressure, and swap-ins on re-reference.
//! The model:
//!
//! * A global pool of 4 KB frames (16 MB minus the kernel's own footprint).
//! * One address space per process: a list of segments, each **text**
//!   (demand-paged from the executable file, clean, droppable) or
//!   **anonymous** (data/heap; considered dirty once touched, so eviction
//!   writes a 4 KB swap page). Each segment carries a dense page table
//!   indexed by `vpn - base` — residency, the referenced bit and the swap
//!   slot — grown on first touch, so a huge sparse mapping costs nothing.
//! * Clock (second-chance) replacement over all resident pages.
//! * Swap slots allocated **top-down** from the upper end of the swap
//!   region, placing the hottest slots just under sector 400,000 — the
//!   paper's second temporal hot spot (Figure 8). A freed slot is reused
//!   **lowest first** (as Linux's `get_swap_page` scans up from
//!   `lowest_bit`), so the sectors a process writes never depend on the
//!   order in which an exiting process gave its slots back.
//!
//! The VM mutates its state synchronously and returns the I/O the kernel
//! must issue ([`FaultIo`], plus any swap-out write-backs), keeping this
//! module independently testable.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use essio_disk::DiskLayout;
use essio_sim::Vpn;

use crate::syscall::{Ino, Pid};

/// Page size in bytes.
pub const PAGE_BYTES: u32 = 4096;
/// Sectors per page.
pub const SECTORS_PER_PAGE: u32 = PAGE_BYTES / essio_trace::SECTOR_BYTES;

/// One page-table entry.
#[derive(Debug, Clone, Copy, Default)]
struct Page {
    resident: bool,
    referenced: bool,
    /// The slot an anonymous page was last written to; kept across
    /// swap-ins so a re-eviction rewrites it.
    swap: Option<u32>,
}

/// A mapped region of a process address space.
#[derive(Debug)]
struct Segment {
    base: Vpn,
    pages: u32,
    /// Text (file-backed, by inode) or anonymous.
    text_ino: Option<Ino>,
    /// Entries for pages `0..table.len()`; untouched pages past the end.
    table: Vec<Page>,
}

/// A process address space.
#[derive(Debug)]
struct Space {
    segments: Vec<Segment>,
    next_base: Vpn,
}

/// The swap area's slot allocator.
#[derive(Debug)]
struct Swap {
    /// Slots `next..slots` have never been used.
    next: u32,
    slots: u32,
    free: BTreeSet<u32>,
}

impl Swap {
    /// The lowest free slot, or `None` when swap is full.
    fn alloc(&mut self) -> Option<u32> {
        if let Some(s) = self.free.pop_first() {
            return Some(s);
        }
        (self.next < self.slots).then(|| {
            self.next += 1;
            self.next - 1
        })
    }
}

/// Where a resident page lives: pid, segment index, page index.
type PageRef = (Pid, u32, u32);

/// The blocking I/O a fault needs before the page is usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultIo {
    /// Zero-fill: no I/O, the fault costs only CPU.
    None,
    /// Read a 4 KB page back from swap slot `slot`.
    SwapIn {
        /// Swap slot index.
        slot: u32,
    },
    /// Read the 4 KB page `page` of executable `ino`.
    PageIn {
        /// Executable file.
        ino: Ino,
        /// Page index within the file.
        page: u32,
    },
}

/// Result of touching one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TouchResult {
    /// Page resident; reference bit refreshed.
    Hit,
    /// Fault. State is already updated; the kernel must issue `io` (if any)
    /// and `swap_outs` (async writes of evicted dirty pages, by slot).
    Fault {
        /// Blocking fill I/O.
        io: FaultIo,
        /// Swap slots to write for evicted anonymous pages.
        swap_outs: Vec<u32>,
    },
    /// Touch of an unmapped address (app bug — treated as fatal).
    BadAddress,
    /// Swap exhausted; the process cannot make progress.
    OutOfMemory,
}

/// Paging statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Resident hits.
    pub hits: u64,
    /// Total faults.
    pub faults: u64,
    /// Faults satisfied by zero-fill.
    pub zero_fills: u64,
    /// Faults requiring a swap-in read.
    pub swap_ins: u64,
    /// Faults requiring a text page-in read.
    pub page_ins: u64,
    /// Dirty pages evicted to swap.
    pub swap_outs: u64,
    /// Clean text pages dropped.
    pub text_drops: u64,
}

/// The node-wide VM state.
#[derive(Debug)]
pub struct Vm {
    frames_total: u32,
    frames_used: u32,
    spaces: BTreeMap<Pid, Space>,
    clock: VecDeque<PageRef>,
    swap: Swap,
    swap_region_end_sector: u32,
    /// Statistics.
    pub stats: VmStats,
}

impl Vm {
    /// Build a VM over `frames_total` user-available frames and the swap
    /// region of `layout`.
    pub fn new(frames_total: u32, layout: &DiskLayout) -> Self {
        assert!(frames_total > 0);
        let (s, e) = layout.swap;
        Self {
            frames_total,
            frames_used: 0,
            spaces: BTreeMap::new(),
            clock: VecDeque::new(),
            swap: Swap {
                next: 0,
                slots: (e - s) / SECTORS_PER_PAGE,
                free: BTreeSet::new(),
            },
            swap_region_end_sector: e,
            stats: VmStats::default(),
        }
    }

    /// Frames available in total.
    pub fn frames_total(&self) -> u32 {
        self.frames_total
    }

    /// Frames currently holding pages.
    pub fn frames_used(&self) -> u32 {
        self.frames_used
    }

    /// First sector of a swap slot. Slots grow *downward* from the region
    /// top: slot 0 sits just under the region end.
    pub fn slot_sector(&self, slot: u32) -> u32 {
        self.swap_region_end_sector - (slot + 1) * SECTORS_PER_PAGE
    }

    /// Map `pages` anonymous pages for `pid`; returns the base VPN.
    pub fn map_anon(&mut self, pid: Pid, pages: u32) -> Vpn {
        self.map(pid, pages, None)
    }

    /// Map a text image of `pages` pages backed by `ino`.
    pub fn map_text(&mut self, pid: Pid, ino: Ino, pages: u32) -> Vpn {
        self.map(pid, pages, Some(ino))
    }

    fn map(&mut self, pid: Pid, pages: u32, text_ino: Option<Ino>) -> Vpn {
        assert!(pages > 0, "zero-page mapping");
        let space = self.spaces.entry(pid).or_insert(Space {
            segments: Vec::new(),
            next_base: 0x10,
        });
        let base = space.next_base;
        space.next_base = base + pages as Vpn + 8; // guard gap
        space.segments.push(Segment {
            base,
            pages,
            text_ino,
            table: Vec::new(),
        });
        base
    }

    /// Touch one page of `pid`'s address space.
    pub fn touch(&mut self, pid: Pid, vpn: Vpn) -> TouchResult {
        let Some((s, seg)) = self.spaces.get_mut(&pid).and_then(|space| {
            (space.segments.iter_mut().enumerate())
                .find(|(_, seg)| vpn >= seg.base && vpn < seg.base + seg.pages as Vpn)
        }) else {
            return TouchResult::BadAddress;
        };
        let i = (vpn - seg.base) as usize;
        if seg.table.len() <= i {
            seg.table.resize(i + 1, Page::default());
        }
        let page = seg.table[i];
        if page.resident {
            seg.table[i].referenced = true;
            self.stats.hits += 1;
            return TouchResult::Hit;
        }
        let io = match (seg.text_ino, page.swap) {
            (Some(ino), _) => FaultIo::PageIn {
                ino,
                page: i as u32,
            },
            (None, Some(slot)) => FaultIo::SwapIn { slot },
            (None, None) => FaultIo::None,
        };
        // Claim a frame, evicting if needed.
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
        let seg = &mut self.spaces.get_mut(&pid).expect("mapped").segments[s];
        seg.table[i] = Page {
            resident: true,
            referenced: true,
            ..page
        };
        self.clock.push_back((pid, s as u32, i as u32));
        TouchResult::Fault { io, swap_outs }
    }

    /// Clock eviction. `Some(Some(slot))` → evicted dirty anon page, write
    /// `slot`; `Some(None)` → dropped a clean text page; `None` → could not
    /// evict (swap full).
    fn evict_one(&mut self) -> Option<Option<u32>> {
        // Bounded sweep: after 2 full passes everything had its reference
        // bit cleared, so a victim must be found unless swap is exhausted.
        for _ in 0..self.clock.len() * 2 + 1 {
            let at = self.clock.pop_front()?;
            let (pid, s, i) = at;
            let seg = &mut self.spaces.get_mut(&pid).expect("live space").segments[s as usize];
            let page = &mut seg.table[i as usize];
            if page.referenced {
                page.referenced = false;
                self.clock.push_back(at);
                continue;
            }
            if seg.text_ino.is_some() {
                page.resident = false;
                self.stats.text_drops += 1;
                return Some(None);
            }
            // An anonymous page rewrites its existing slot, if it has one.
            let Some(slot) = page.swap.or_else(|| self.swap.alloc()) else {
                // Swap full: the page stays; the caller sees OOM.
                self.clock.push_back(at);
                return None;
            };
            page.swap = Some(slot);
            page.resident = false;
            self.stats.swap_outs += 1;
            return Some(Some(slot));
        }
        None
    }

    /// Release every resource of an exiting process.
    pub fn release(&mut self, pid: Pid) {
        let Some(space) = self.spaces.remove(&pid) else {
            return;
        };
        for page in space.segments.iter().flat_map(|seg| &seg.table) {
            self.frames_used -= page.resident as u32;
            self.swap.free.extend(page.swap);
        }
        self.clock.retain(|&(p, ..)| p != pid);
    }

    /// Number of resident pages for a process (diagnostics).
    pub fn resident_pages(&self, pid: Pid) -> usize {
        self.spaces.get(&pid).map_or(0, |space| {
            (space.segments.iter().flat_map(|seg| &seg.table))
                .filter(|page| page.resident)
                .count()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(frames: u32) -> Vm {
        Vm::new(frames, &DiskLayout::beowulf_500mb())
    }

    #[test]
    fn first_touch_zero_fills_then_hits() {
        let mut v = vm(10);
        let base = v.map_anon(1, 4);
        match v.touch(1, base) {
            TouchResult::Fault {
                io: FaultIo::None,
                swap_outs,
            } => assert!(swap_outs.is_empty()),
            other => panic!("expected zero-fill fault, got {other:?}"),
        }
        assert_eq!(v.touch(1, base), TouchResult::Hit);
        assert_eq!(v.stats.zero_fills, 1);
        assert_eq!(v.stats.hits, 1);
    }

    #[test]
    fn text_faults_page_in_from_file() {
        let mut v = vm(10);
        let base = v.map_text(1, 42, 8);
        match v.touch(1, base + 3) {
            TouchResult::Fault {
                io: FaultIo::PageIn { ino, page },
                ..
            } => {
                assert_eq!(ino, 42);
                assert_eq!(page, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unmapped_touch_is_bad_address() {
        let mut v = vm(10);
        v.map_anon(1, 2);
        assert_eq!(v.touch(1, 9999), TouchResult::BadAddress);
        assert_eq!(
            v.touch(2, 0x10),
            TouchResult::BadAddress,
            "other pid has no mapping"
        );
    }

    #[test]
    fn pressure_evicts_anon_to_swap_and_faults_back() {
        let mut v = vm(2);
        let base = v.map_anon(1, 3);
        v.touch(1, base);
        v.touch(1, base + 1);
        // Third page forces an eviction. All pages referenced → clock clears
        // bits on the first pass, evicts `base` on the second.
        let r = v.touch(1, base + 2);
        let TouchResult::Fault {
            io: FaultIo::None,
            swap_outs,
        } = r
        else {
            panic!("{r:?}")
        };
        assert_eq!(swap_outs.len(), 1);
        let slot = swap_outs[0];
        assert_eq!(v.stats.swap_outs, 1);
        // Touching the evicted page swaps it back in from the same slot.
        let evicted_vpn = base; // FIFO clock after bit clearing
        let r = v.touch(1, evicted_vpn);
        match r {
            TouchResult::Fault {
                io: FaultIo::SwapIn { slot: s },
                ..
            } => assert_eq!(s, slot),
            other => panic!("{other:?}"),
        }
        assert_eq!(v.stats.swap_ins, 1);
    }

    #[test]
    fn swap_slots_sit_just_under_region_top() {
        let v = vm(4);
        // Slot 0 occupies the 8 sectors right below 400,000.
        assert_eq!(v.slot_sector(0), 400_000 - 8);
        assert_eq!(v.slot_sector(1), 400_000 - 16);
        assert!(v.slot_sector(0) < 400_000);
    }

    #[test]
    fn text_eviction_is_a_clean_drop() {
        let mut v = vm(2);
        let t = v.map_text(1, 7, 4);
        v.touch(1, t);
        v.touch(1, t + 1);
        let r = v.touch(1, t + 2);
        let TouchResult::Fault { swap_outs, .. } = r else {
            panic!()
        };
        assert!(swap_outs.is_empty(), "text eviction writes nothing");
        assert_eq!(v.stats.text_drops, 1);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut v = vm(2);
        let base = v.map_anon(1, 3);
        v.touch(1, base);
        v.touch(1, base + 1);
        // Re-reference page base+1 so its bit is set at eviction time; after
        // bit-clearing sweep the victim is still the older page `base`.
        v.touch(1, base + 1);
        v.touch(1, base + 2); // evicts base (not base+1)
        assert_eq!(
            v.touch(1, base + 1),
            TouchResult::Hit,
            "recently used page survived"
        );
    }

    #[test]
    fn release_frees_frames_and_swap() {
        let mut v = vm(2);
        let base = v.map_anon(1, 3);
        v.touch(1, base);
        v.touch(1, base + 1);
        v.touch(1, base + 2); // one page now in swap
        assert_eq!(v.frames_used(), 2);
        v.release(1);
        assert_eq!(v.frames_used(), 0);
        assert_eq!(v.resident_pages(1), 0);
        // A new process can use everything.
        let b2 = v.map_anon(2, 2);
        assert!(matches!(v.touch(2, b2), TouchResult::Fault { .. }));
    }

    #[test]
    fn slots_freed_at_exit_are_reused_lowest_first() {
        let mut v = vm(2);
        let base = v.map_anon(1, 10);
        for p in 0..10 {
            v.touch(1, base + p);
        }
        assert_eq!(v.stats.swap_outs, 8);
        v.release(1);
        let base = v.map_anon(2, 10);
        let mut written = Vec::new();
        for p in 0..10 {
            if let TouchResult::Fault { swap_outs, .. } = v.touch(2, base + p) {
                written.extend(swap_outs);
            }
        }
        assert_eq!(written, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn out_of_memory_when_swap_exhausts() {
        // 1 frame and a tiny swap: 2 slots.
        let mut layout = DiskLayout::beowulf_500mb();
        layout.swap = (300_000, 300_016); // 2 pages
        let mut v = Vm::new(1, &layout);
        let base = v.map_anon(1, 8);
        v.touch(1, base);
        v.touch(1, base + 1); // evict 0 → slot
        v.touch(1, base + 2); // evict 1 → slot
        let r = v.touch(1, base + 3); // evict 2 → no slot left
        assert_eq!(r, TouchResult::OutOfMemory);
    }

    #[test]
    fn rewriting_same_page_reuses_swap_slot() {
        let mut v = vm(1);
        let base = v.map_anon(1, 2);
        v.touch(1, base);
        let TouchResult::Fault { swap_outs, .. } = v.touch(1, base + 1) else {
            panic!()
        };
        let slot = swap_outs[0];
        // Fault base back in: evicts base+1, which gets the *next* slot.
        let TouchResult::Fault { io, swap_outs } = v.touch(1, base) else {
            panic!()
        };
        assert_eq!(io, FaultIo::SwapIn { slot });
        assert_eq!(swap_outs, vec![slot + 1]);
        // Fault base+1 back: evicting base must *reuse* its original slot.
        let TouchResult::Fault { io, swap_outs } = v.touch(1, base + 1) else {
            panic!()
        };
        assert_eq!(io, FaultIo::SwapIn { slot: slot + 1 });
        assert_eq!(swap_outs, vec![slot], "slot reused, not leaked");
        assert_eq!(v.stats.swap_outs, 3);
    }
}
