//! The driver's request queue: merging and dispatch ordering.
//!
//! Two pieces of Linux block-layer behaviour are *essential* to reproducing
//! the study:
//!
//! 1. **Request merging.** The buffer cache issues 1 KB block requests; the
//!    driver front/back-merges contiguous same-direction requests while the
//!    drive is busy. This is how the paper's 2 KB and 3 KB request
//!    populations arise (N-body, Figure 4) and how flush bursts coalesce.
//! 2. **Elevator (LOOK) scheduling.** Requests dispatch in sweep order, not
//!    arrival order, which shapes service times and the pending-queue counts
//!    the trace records carry. A FIFO policy is kept for the ablation test
//!    `elevator_reduces_virtual_service_time_on_scattered_load`
//!    (`tests/ablations.rs`).

use std::collections::VecDeque;

use essio_trace::{Op, Origin};

/// Caller-assigned logical request id; merged physical requests carry every
/// token they absorbed so completions can be fanned back out.
pub type ReqToken = u64;

/// A request sitting in (or popped from) the driver queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedRequest {
    /// First sector.
    pub sector: u32,
    /// Length in sectors.
    pub nsectors: u16,
    /// Direction.
    pub op: Op,
    /// Provenance of the *first* constituent (diagnostic).
    pub origin: Origin,
    /// Logical requests folded into this physical one.
    pub tokens: Vec<ReqToken>,
    /// Fault-exempt relocated retry; never merged, so it re-enters the
    /// trace as its own physical request.
    pub relocated: bool,
}

impl QueuedRequest {
    /// One past the last sector.
    #[inline]
    pub fn end(&self) -> u32 {
        self.sector + self.nsectors as u32
    }
}

/// Dispatch ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Arrival order.
    Fifo,
    /// LOOK elevator: sweep upward, reverse at the last request.
    Elevator,
}

/// The driver request queue.
#[derive(Debug)]
pub struct RequestQueue {
    policy: SchedPolicy,
    /// Kept sorted by sector for `Elevator`, arrival order for `Fifo`.
    queue: VecDeque<QueuedRequest>,
    max_sectors: u16,
    sweep_up: bool,
    merges: u64,
}

impl RequestQueue {
    /// Create a queue. `max_sectors` caps merged request size (64 sectors =
    /// 32 KB, the largest transfer the paper observes, Figure 5).
    pub fn new(policy: SchedPolicy, max_sectors: u16) -> Self {
        assert!(max_sectors > 0);
        Self {
            policy,
            queue: VecDeque::new(),
            max_sectors,
            sweep_up: true,
            merges: 0,
        }
    }

    /// Queue depth (physical requests).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Lifetime count of merges performed.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Drop every queued request (power failure).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Insert a request, merging with a queued contiguous same-direction
    /// request when possible. Returns `true` if it merged.
    pub fn push(&mut self, req: QueuedRequest) -> bool {
        debug_assert!(req.nsectors > 0, "zero-length request");
        // Back-merge: an existing request ends where this one starts.
        // Front-merge: an existing request starts where this one ends.
        // Relocated retries never merge: they must dispatch as their own
        // physical command against the spare region.
        for q in self.queue.iter_mut() {
            if req.relocated {
                break;
            }
            if q.op != req.op || q.relocated {
                continue;
            }
            let combined = q.nsectors as u32 + req.nsectors as u32;
            if combined > self.max_sectors as u32 {
                continue;
            }
            if q.end() == req.sector {
                q.nsectors = combined as u16;
                q.tokens.extend_from_slice(&req.tokens);
                self.merges += 1;
                return true;
            }
            if req.end() == q.sector {
                q.sector = req.sector;
                q.nsectors = combined as u16;
                // Keep provenance of the new head of the request.
                q.origin = req.origin;
                let mut tokens = req.tokens.clone();
                tokens.extend_from_slice(&q.tokens);
                q.tokens = tokens;
                self.merges += 1;
                return true;
            }
        }
        match self.policy {
            SchedPolicy::Fifo => self.queue.push_back(req),
            SchedPolicy::Elevator => {
                let pos = self.queue.partition_point(|q| q.sector <= req.sector);
                self.queue.insert(pos, req);
            }
        }
        false
    }

    /// Pop the next request to dispatch given the current head position.
    pub fn pop_next(&mut self, head_pos: u32) -> Option<QueuedRequest> {
        if self.queue.is_empty() {
            return None;
        }
        match self.policy {
            SchedPolicy::Fifo => self.queue.pop_front(),
            SchedPolicy::Elevator => {
                let idx = self.elevator_pick(head_pos);
                self.queue.remove(idx)
            }
        }
    }

    fn elevator_pick(&mut self, head_pos: u32) -> usize {
        // Queue is sorted by sector. Find the first request at or above the
        // head in the sweep direction; reverse when the sweep is exhausted.
        let above = self.queue.partition_point(|q| q.sector < head_pos);
        if self.sweep_up {
            if above < self.queue.len() {
                above
            } else {
                self.sweep_up = false;
                self.queue.len() - 1
            }
        } else if above > 0 {
            above - 1
        } else {
            self.sweep_up = true;
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(sector: u32, nsectors: u16, op: Op) -> QueuedRequest {
        QueuedRequest {
            sector,
            nsectors,
            op,
            origin: Origin::FileData,
            tokens: vec![sector as u64],
            relocated: false,
        }
    }

    #[test]
    fn relocated_requests_never_merge() {
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 64);
        q.push(req(100, 2, Op::Write));
        let mut r = req(102, 2, Op::Write);
        r.relocated = true;
        assert!(!q.push(r), "relocated must not merge");
        assert_eq!(q.len(), 2);
        // Nor does anything merge into a queued relocated request.
        assert!(!q.push(req(104, 2, Op::Write)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.merges(), 0);
    }

    #[test]
    fn back_merge_contiguous_writes() {
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 64);
        assert!(!q.push(req(100, 2, Op::Write)));
        assert!(q.push(req(102, 2, Op::Write)));
        assert_eq!(q.len(), 1);
        let r = q.pop_next(0).unwrap();
        assert_eq!((r.sector, r.nsectors), (100, 4));
        assert_eq!(r.tokens, vec![100, 102]);
        assert_eq!(q.merges(), 1);
    }

    #[test]
    fn front_merge_keeps_token_order() {
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 64);
        q.push(req(102, 2, Op::Write));
        assert!(q.push(req(100, 2, Op::Write)));
        let r = q.pop_next(0).unwrap();
        assert_eq!((r.sector, r.nsectors), (100, 4));
        assert_eq!(r.tokens, vec![100, 102]);
    }

    #[test]
    fn no_merge_across_directions() {
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 64);
        q.push(req(100, 2, Op::Write));
        assert!(!q.push(req(102, 2, Op::Read)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn no_merge_when_discontiguous() {
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 64);
        q.push(req(100, 2, Op::Write));
        assert!(!q.push(req(104, 2, Op::Write)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn merge_respects_size_cap() {
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 4);
        q.push(req(100, 4, Op::Write));
        assert!(!q.push(req(104, 2, Op::Write)), "would exceed 4-sector cap");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn chained_merges_build_large_requests() {
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 64);
        q.push(req(0, 2, Op::Write));
        for i in 1..16 {
            assert!(q.push(req(i * 2, 2, Op::Write)), "block {i} should merge");
        }
        let r = q.pop_next(0).unwrap();
        assert_eq!(r.nsectors, 32); // 16 KB physical request from 1 KB blocks
        assert_eq!(r.tokens.len(), 16);
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut q = RequestQueue::new(SchedPolicy::Fifo, 64);
        q.push(req(500, 2, Op::Read));
        q.push(req(10, 2, Op::Read));
        q.push(req(900, 2, Op::Read));
        assert_eq!(q.pop_next(0).unwrap().sector, 500);
        assert_eq!(q.pop_next(0).unwrap().sector, 10);
        assert_eq!(q.pop_next(0).unwrap().sector, 900);
    }

    #[test]
    fn elevator_sweeps_up_then_reverses() {
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 64);
        for s in [500u32, 10, 900, 300] {
            q.push(req(s, 2, Op::Read));
        }
        // Head at 250, sweeping up: 300, 500, 900, then reverse to 10.
        assert_eq!(q.pop_next(250).unwrap().sector, 300);
        assert_eq!(q.pop_next(302).unwrap().sector, 500);
        assert_eq!(q.pop_next(502).unwrap().sector, 900);
        assert_eq!(q.pop_next(902).unwrap().sector, 10);
        assert!(q.is_empty());
    }

    #[test]
    fn elevator_reverses_at_bottom() {
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 64);
        q.push(req(100, 2, Op::Read));
        q.push(req(200, 2, Op::Read));
        // Sweeping down from 50 finds nothing below → reverses upward.
        let mut q2 = RequestQueue::new(SchedPolicy::Elevator, 64);
        q2.push(req(100, 2, Op::Read));
        q2.push(req(200, 2, Op::Read));
        assert_eq!(q2.pop_next(150).unwrap().sector, 200);
        assert_eq!(q2.pop_next(202).unwrap().sector, 100); // reversed down
        drop(q);
    }

    #[test]
    fn elevator_never_loses_requests() {
        // Pseudo-random stress: everything pushed is eventually popped once.
        let mut q = RequestQueue::new(SchedPolicy::Elevator, 8);
        let mut pushed = 0u64;
        let mut popped = Vec::new();
        let mut head = 0u32;
        let mut state = 12345u64;
        for round in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let sector = ((state >> 33) % 10_000) as u32 * 2;
            let op = if state & 1 == 0 { Op::Read } else { Op::Write };
            let mut r = req(sector, 2, op);
            r.tokens = vec![round];
            pushed += 1;
            q.push(r);
            if round % 2 == 0 {
                if let Some(r) = q.pop_next(head) {
                    head = r.end();
                    popped.extend_from_slice(&r.tokens);
                }
            }
        }
        while let Some(r) = q.pop_next(head) {
            head = r.end();
            popped.extend_from_slice(&r.tokens);
        }
        assert_eq!(popped.len() as u64, pushed);
        popped.sort_unstable();
        popped.dedup();
        assert_eq!(popped.len() as u64, pushed, "no token duplicated or lost");
    }
}
