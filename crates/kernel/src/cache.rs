//! The buffer cache: 1 KB blocks, write-back, LRU.
//!
//! Explicit file I/O goes through here. Writes dirty cache blocks and return
//! immediately; the `update` daemon (see [`crate::daemons`]) flushes dirty
//! blocks every few seconds, which — together with driver merging — is what
//! clusters the baseline's log writes and produces the small-multiple-of-1KB
//! request population. Reads that hit the cache generate *no* disk request
//! at all, which is why the compute phase of the wavelet run shows a lull in
//! Figure 3 despite the program still touching its file.
//!
//! The cache tracks *which* blocks are resident/dirty, not their contents —
//! contents live in [`crate::fs::Fs`]'s host-side store; the disk subsystem
//! is a timing/trace model (see crate docs).
//!
//! Recency is an **intrusive doubly-linked LRU over a slab**: each resident
//! block owns a slab node carrying `prev`/`next` indices, so a touch
//! (unlink + relink at head) and an eviction (unlink tail) are O(1) pointer
//! swaps with no ordered-index churn. The only per-access hashing left is
//! the `BlockNo → slot` map lookup itself.
//!
//! Dirtiness is a **second intrusive list through the same slab**: a
//! dirtied block links in at O(1), and a flush walks only that list and
//! sorts what it took into the block order the driver merges best. So a
//! flush costs O(dirty), not O(cache): the `update` daemon's 5-second tick
//! typically finds a handful of dirty blocks in a full 1,536-block cache.

use std::collections::HashMap;

use essio_trace::Origin;

use crate::fs::BlockNo;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups that found the block resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks evicted.
    pub evictions: u64,
    /// Evictions that had to write the block back first.
    pub dirty_evictions: u64,
}

/// Null link in the intrusive list / free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    blk: BlockNo,
    origin: Origin,
    dirty: bool,
    /// Toward more recently used (NIL at the head).
    prev: u32,
    /// Toward less recently used (NIL at the tail).
    next: u32,
    /// Dirty-list neighbours, unordered (meaningful only while `dirty`).
    dprev: u32,
    dnext: u32,
}

/// The write-back buffer cache.
#[derive(Debug)]
pub struct BufferCache {
    /// Residency map: block number → slab slot.
    map: HashMap<BlockNo, u32>,
    /// Slab of LRU nodes; freed slots are chained through `next`.
    nodes: Vec<Node>,
    /// Head of the free-slot chain.
    free: u32,
    /// Most recently used (NIL when empty).
    head: u32,
    /// Least recently used (NIL when empty).
    tail: u32,
    /// Resident dirty blocks: the length of the dirty list, so
    /// `dirty_count` is O(1).
    dirty: usize,
    /// Head of the dirty list, which links every resident dirty block and
    /// nothing else (NIL when none is dirty). Flushes read it; recency is
    /// still the `head`/`tail` list.
    dirty_head: u32,
    capacity: usize,
    /// Statistics.
    pub stats: CacheStats,
}

impl BufferCache {
    /// Create a cache of `capacity` 1 KB blocks. The Beowulf nodes dedicate
    /// ~1.5 MB of their 16 MB to it (see `KernelConfig`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            head: NIL,
            tail: NIL,
            dirty: 0,
            dirty_head: NIL,
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Blocks currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Dirty blocks currently resident.
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Unlink `slot` from the recency list (it stays in the slab).
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let n = &self.nodes[slot as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Link `slot` at the head (most recently used).
    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[slot as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Move `slot` to the head; no-op if it is already there.
    fn promote(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.link_front(slot);
    }

    /// Mark `slot` dirty and push it on the dirty list; no-op if dirty.
    fn set_dirty(&mut self, slot: u32) {
        let old = self.dirty_head;
        let n = &mut self.nodes[slot as usize];
        if n.dirty {
            return;
        }
        n.dirty = true;
        n.dprev = NIL;
        n.dnext = old;
        if old != NIL {
            self.nodes[old as usize].dprev = slot;
        }
        self.dirty_head = slot;
        self.dirty += 1;
    }

    /// Mark `slot` clean, unlinking it from the dirty list. Returns whether
    /// it was dirty.
    fn clear_dirty(&mut self, slot: u32) -> bool {
        let n = &mut self.nodes[slot as usize];
        if !n.dirty {
            return false;
        }
        n.dirty = false;
        let (prev, next) = (n.dprev, n.dnext);
        if prev == NIL {
            self.dirty_head = next;
        } else {
            self.nodes[prev as usize].dnext = next;
        }
        if next != NIL {
            self.nodes[next as usize].dprev = prev;
        }
        self.dirty -= 1;
        true
    }

    /// Take a slab slot for `blk` (recycling freed ones) and link it MRU.
    fn alloc(&mut self, blk: BlockNo, origin: Origin) -> u32 {
        let slot = if self.free != NIL {
            let slot = self.free;
            let n = &mut self.nodes[slot as usize];
            debug_assert!(!n.dirty, "a freed slot is clean");
            self.free = n.next;
            n.blk = blk;
            n.origin = origin;
            slot
        } else {
            let slot = self.nodes.len() as u32;
            self.nodes.push(Node {
                blk,
                origin,
                dirty: false,
                prev: NIL,
                next: NIL,
                dprev: NIL,
                dnext: NIL,
            });
            slot
        };
        self.link_front(slot);
        slot
    }

    /// Unlink `slot` from the list and return it to the free chain.
    fn release(&mut self, slot: u32) {
        self.unlink(slot);
        let n = &mut self.nodes[slot as usize];
        n.next = self.free;
        n.prev = NIL;
        self.free = slot;
    }

    /// Look up `blk`, refreshing recency. Counts a hit or miss.
    pub fn touch(&mut self, blk: BlockNo) -> bool {
        if let Some(&slot) = self.map.get(&blk) {
            self.promote(slot);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Non-counting residency probe.
    pub fn contains(&self, blk: BlockNo) -> bool {
        self.map.contains_key(&blk)
    }

    /// Insert a clean block (after a disk read fills it). Returns dirty
    /// blocks that had to be evicted and must be written back.
    pub fn insert_clean(&mut self, blk: BlockNo, origin: Origin) -> Vec<(BlockNo, Origin)> {
        self.insert(blk, origin, false)
    }

    /// Dirty a block (write-allocate if absent). Returns write-backs from
    /// any eviction this caused.
    pub fn mark_dirty(&mut self, blk: BlockNo, origin: Origin) -> Vec<(BlockNo, Origin)> {
        if let Some(&slot) = self.map.get(&blk) {
            self.set_dirty(slot);
            self.nodes[slot as usize].origin = origin;
            self.promote(slot);
            return Vec::new();
        }
        self.insert(blk, origin, true)
    }

    fn insert(&mut self, blk: BlockNo, origin: Origin, dirty: bool) -> Vec<(BlockNo, Origin)> {
        // Re-insertion of a resident block (e.g. two readers racing to fill
        // the same block) refreshes recency in place; dirtiness is sticky —
        // a clean fill must never lose a dirty buffer's pending write.
        if let Some(&slot) = self.map.get(&blk) {
            if dirty {
                self.set_dirty(slot);
            }
            self.promote(slot);
            return Vec::new();
        }
        let mut writebacks = Vec::new();
        while self.map.len() >= self.capacity {
            let victim_slot = self.tail;
            debug_assert_ne!(victim_slot, NIL, "map non-empty implies a tail");
            let n = &self.nodes[victim_slot as usize];
            let (victim, victim_origin) = (n.blk, n.origin);
            let victim_dirty = self.clear_dirty(victim_slot);
            self.release(victim_slot);
            self.map.remove(&victim);
            self.stats.evictions += 1;
            if victim_dirty {
                self.stats.dirty_evictions += 1;
                writebacks.push((victim, victim_origin));
            }
        }
        let slot = self.alloc(blk, origin);
        self.map.insert(blk, slot);
        if dirty {
            self.set_dirty(slot);
        }
        writebacks
    }

    /// Take every dirty block (sorted by block number — the flush order that
    /// lets the driver merge contiguous ones), marking them clean.
    pub fn take_dirty(&mut self) -> Vec<(BlockNo, Origin)> {
        let mut out: Vec<(BlockNo, Origin)> = Vec::with_capacity(self.dirty);
        let mut slot = self.dirty_head;
        while slot != NIL {
            let n = &mut self.nodes[slot as usize];
            n.dirty = false;
            out.push((n.blk, n.origin));
            slot = n.dnext;
        }
        self.dirty_head = NIL;
        self.dirty = 0;
        out.sort_unstable_by_key(|(b, _)| *b);
        out
    }

    /// Take the dirty blocks among `blocks` (fsync of one file).
    pub fn take_dirty_among(&mut self, blocks: &[BlockNo]) -> Vec<(BlockNo, Origin)> {
        let mut out = Vec::new();
        for b in blocks {
            if let Some(&slot) = self.map.get(b) {
                if self.clear_dirty(slot) {
                    out.push((*b, self.nodes[slot as usize].origin));
                }
            }
        }
        out.sort_unstable_by_key(|(b, _)| *b);
        out
    }

    /// Forget blocks entirely (unlink): dirty data of a deleted file is
    /// dropped, not written.
    pub fn invalidate(&mut self, blocks: &[BlockNo]) {
        for b in blocks {
            if let Some(slot) = self.map.remove(b) {
                self.clear_dirty(slot);
                self.release(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: Origin = Origin::FileData;

    #[test]
    fn hit_miss_accounting() {
        let mut c = BufferCache::new(4);
        assert!(!c.touch(1));
        c.insert_clean(1, O);
        assert!(c.touch(1));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = BufferCache::new(2);
        c.insert_clean(1, O);
        c.insert_clean(2, O);
        c.touch(1); // 2 is now least recent
        let wb = c.insert_clean(3, O);
        assert!(wb.is_empty(), "clean eviction writes nothing");
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn dirty_eviction_returns_writeback() {
        let mut c = BufferCache::new(2);
        c.mark_dirty(1, Origin::Log);
        c.insert_clean(2, O);
        let wb = c.insert_clean(3, O);
        assert_eq!(wb, vec![(1, Origin::Log)]);
        assert_eq!(c.stats.dirty_evictions, 1);
    }

    #[test]
    fn mark_dirty_existing_block_updates_in_place() {
        let mut c = BufferCache::new(4);
        c.insert_clean(1, O);
        let wb = c.mark_dirty(1, Origin::Metadata);
        assert!(wb.is_empty());
        assert_eq!(c.dirty_count(), 1);
        let flushed = c.take_dirty();
        assert_eq!(flushed, vec![(1, Origin::Metadata)]);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn take_dirty_is_sorted_and_cleans() {
        let mut c = BufferCache::new(8);
        for b in [5u32, 1, 3] {
            c.mark_dirty(b, O);
        }
        let flushed = c.take_dirty();
        assert_eq!(
            flushed.iter().map(|(b, _)| *b).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert!(c.take_dirty().is_empty());
        // Blocks stay resident after flush.
        assert!(c.contains(5));
    }

    #[test]
    fn take_dirty_among_only_touches_named_blocks() {
        let mut c = BufferCache::new(8);
        c.mark_dirty(1, O);
        c.mark_dirty(2, O);
        let flushed = c.take_dirty_among(&[2, 3]);
        assert_eq!(flushed, vec![(2, O)]);
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn invalidate_removes_without_writeback() {
        let mut c = BufferCache::new(4);
        c.mark_dirty(1, O);
        c.invalidate(&[1]);
        assert!(!c.contains(1));
        assert_eq!(c.dirty_count(), 0);
        assert!(c.take_dirty().is_empty());
        // The recency list stays consistent: inserting more works fine.
        for b in 10..20 {
            c.insert_clean(b, O);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        let mut c = BufferCache::new(16);
        for b in 0..1000u32 {
            if b % 3 == 0 {
                c.mark_dirty(b, O);
            } else {
                c.insert_clean(b, O);
            }
        }
        assert_eq!(c.len(), 16);
        assert_eq!(c.stats.evictions, 1000 - 16);
    }

    #[test]
    fn slab_is_bounded_by_capacity_under_churn() {
        let mut c = BufferCache::new(8);
        for b in 0..10_000u32 {
            c.insert_clean(b, O);
        }
        assert_eq!(c.len(), 8);
        assert!(c.nodes.len() <= 8, "slab grew to {}", c.nodes.len());
    }

    #[test]
    fn eviction_order_tracks_full_recency_history() {
        // Interleave touches and dirtying, then check the exact eviction
        // sequence (the old BTreeMap index semantics).
        let mut c = BufferCache::new(4);
        for b in [1u32, 2, 3, 4] {
            c.insert_clean(b, O);
        }
        c.touch(1); // recency: 1,4,3,2 (MRU..LRU)
        c.mark_dirty(3, Origin::Log); // 3,1,4,2
        let wb = c.insert_clean(5, O); // evicts 2 (clean): 5,3,1,4
        assert!(wb.is_empty());
        assert!(!c.contains(2));
        let wb = c.insert_clean(6, O); // evicts 4 (clean): 6,5,3,1
        assert!(wb.is_empty());
        assert!(!c.contains(4));
        let wb = c.insert_clean(7, O); // evicts 1 (clean)
        assert!(wb.is_empty());
        assert!(!c.contains(1));
        let wb = c.insert_clean(8, O); // evicts 3 (dirty → write-back)
        assert_eq!(wb, vec![(3, Origin::Log)]);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn clean_refill_does_not_lose_dirty_state() {
        let mut c = BufferCache::new(4);
        c.mark_dirty(1, Origin::Log);
        c.insert_clean(1, O); // racing reader refills the same block
        assert_eq!(c.dirty_count(), 1, "dirtiness is sticky");
        assert_eq!(c.take_dirty(), vec![(1, Origin::Log)]);
    }
}
