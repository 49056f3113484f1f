//! # essio-pfs — a PIOUS-like parallel file system
//!
//! The Beowulf "can use PIOUS \[13\] as a parallel file system for coordinated
//! I/O activities" (paper §3.2). The paper does not measure PIOUS itself,
//! but the reproduction includes it as the extension experiment (DESIGN.md
//! §7): parallel declustered I/O over the node-local disks, so the study's
//! instrumentation can observe coordinated parallel file traffic.
//!
//! Following the PIOUS architecture (Moyer & Sunderam, SHPCC '94):
//!
//! * A **parafile** is declustered across data servers (one per node) as a
//!   set of ordinary local *segment files*, striped in fixed-size units.
//! * Clients access parafiles through per-file **coordinators** that impose
//!   an access ordering, giving sequentially-consistent semantics.
//!
//! This crate implements the metadata/planning layer — stripe mapping
//! ([`plan_io`]) and the coordinator's admission queue ([`Coordinator`]).
//! Execution (local FS reads/writes on each server, network transfers) is
//! wired by the cluster world loop in the `essio` crate, which turns each
//! [`SegmentIo`] into syscalls against that node's kernel.

#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};

/// Node/data-server identifier (matches cluster node ids).
pub type ServerId = u8;

/// How a parafile is laid out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeSpec {
    /// Stripe unit in bytes.
    pub unit: u32,
    /// Data servers, in stripe order.
    pub servers: Vec<ServerId>,
}

impl StripeSpec {
    /// A spec with validation.
    pub fn new(unit: u32, servers: Vec<ServerId>) -> Self {
        assert!(unit > 0, "stripe unit must be positive");
        assert!(!servers.is_empty(), "need at least one data server");
        Self { unit, servers }
    }
}

/// One contiguous piece of I/O against one server's segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentIo {
    /// The data server.
    pub server: ServerId,
    /// Byte offset within that server's segment file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
}

/// Decompose a byte range of a parafile into per-server segment I/O,
/// coalescing adjacent ranges on the same server.
pub fn plan_io(spec: &StripeSpec, offset: u64, len: u32) -> Vec<SegmentIo> {
    let mut out: Vec<SegmentIo> = Vec::new();
    if len == 0 {
        return out;
    }
    let unit = spec.unit as u64;
    let n = spec.servers.len() as u64;
    let mut g = offset;
    let end = offset + len as u64;
    while g < end {
        let stripe = g / unit;
        let within = g % unit;
        let take = (unit - within).min(end - g) as u32;
        let server = spec.servers[(stripe % n) as usize];
        let local = (stripe / n) * unit + within;
        if let Some(last) = out.last_mut() {
            if last.server == server && last.offset + last.len as u64 == local {
                last.len += take;
                g += take as u64;
                continue;
            }
        }
        out.push(SegmentIo {
            server,
            offset: local,
            len: take,
        });
        g += take as u64;
    }
    out
}

/// Segment file path for parafile `name` on `server`.
pub fn segment_path(name: &str, server: ServerId) -> String {
    format!("/pfs/{name}.seg{server}")
}

/// Admission decision from the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed now.
    Admitted,
    /// Queued behind earlier operations on the same parafile.
    Queued,
}

/// Per-parafile access ordering — PIOUS's coordinated (sequentially
/// consistent) access mode: operations on one parafile execute one at a
/// time, in arrival order.
#[derive(Debug, Default)]
pub struct Coordinator {
    queues: HashMap<String, VecDeque<u64>>,
}

impl Coordinator {
    /// New coordinator.
    pub fn new() -> Self {
        Self::default()
    }

    /// An operation arrives. `op` must be unique per in-flight operation.
    pub fn begin(&mut self, file: &str, op: u64) -> Admission {
        let q = self.queues.entry(file.to_string()).or_default();
        q.push_back(op);
        if q.len() == 1 {
            Admission::Admitted
        } else {
            Admission::Queued
        }
    }

    /// An admitted operation finishes; returns the next operation to admit,
    /// if one is queued.
    pub fn finish(&mut self, file: &str, op: u64) -> Option<u64> {
        let q = self.queues.get_mut(file)?;
        assert_eq!(q.front(), Some(&op), "finish out of admission order");
        q.pop_front();
        let next = q.front().copied();
        if q.is_empty() {
            self.queues.remove(file);
        }
        next
    }

    /// Operations in flight or queued on `file`.
    pub fn depth(&self, file: &str) -> usize {
        self.queues.get(file).map_or(0, |q| q.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec3() -> StripeSpec {
        StripeSpec::new(1024, vec![0, 1, 2])
    }

    #[test]
    fn single_unit_maps_to_one_server() {
        let plan = plan_io(&spec3(), 0, 1024);
        assert_eq!(
            plan,
            vec![SegmentIo {
                server: 0,
                offset: 0,
                len: 1024
            }]
        );
    }

    #[test]
    fn round_robin_across_servers() {
        let plan = plan_io(&spec3(), 0, 3 * 1024);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0].server, 0);
        assert_eq!(plan[1].server, 1);
        assert_eq!(plan[2].server, 2);
        assert!(plan.iter().all(|s| s.offset == 0 && s.len == 1024));
    }

    #[test]
    fn second_round_lands_deeper_in_segments() {
        let plan = plan_io(&spec3(), 3 * 1024, 1024);
        assert_eq!(
            plan,
            vec![SegmentIo {
                server: 0,
                offset: 1024,
                len: 1024
            }]
        );
    }

    #[test]
    fn unaligned_range_splits_correctly() {
        // 512..2560 touches stripe 0 tail (server 0), stripe 1 (server 1),
        // stripe 2 head (server 2).
        let plan = plan_io(&spec3(), 512, 2048);
        assert_eq!(
            plan,
            vec![
                SegmentIo {
                    server: 0,
                    offset: 512,
                    len: 512
                },
                SegmentIo {
                    server: 1,
                    offset: 0,
                    len: 1024
                },
                SegmentIo {
                    server: 2,
                    offset: 0,
                    len: 512
                },
            ]
        );
    }

    #[test]
    fn adjacent_stripes_on_same_server_coalesce() {
        let one = StripeSpec::new(1024, vec![7]);
        let plan = plan_io(&one, 0, 10 * 1024);
        assert_eq!(
            plan,
            vec![SegmentIo {
                server: 7,
                offset: 0,
                len: 10 * 1024
            }]
        );
    }

    #[test]
    fn zero_length_is_empty_plan() {
        assert!(plan_io(&spec3(), 1234, 0).is_empty());
    }

    #[test]
    fn plan_conserves_bytes_and_respects_bounds() {
        // Pseudo-random sweep: total planned bytes equal requested bytes and
        // per-server extents never overlap within a plan.
        let spec = StripeSpec::new(700, vec![0, 1, 2, 3, 4]);
        let mut state = 99u64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let offset = (state >> 40) % 100_000;
            let len = ((state >> 20) % 50_000) as u32 + 1;
            let plan = plan_io(&spec, offset, len);
            let total: u64 = plan.iter().map(|s| s.len as u64).sum();
            assert_eq!(total, len as u64);
            for s in &plan {
                assert!(s.len <= len);
            }
        }
    }

    #[test]
    fn segment_paths_are_per_server() {
        assert_eq!(segment_path("matrix", 3), "/pfs/matrix.seg3");
        assert_ne!(segment_path("matrix", 0), segment_path("matrix", 1));
    }

    #[test]
    fn coordinator_serializes_per_file() {
        let mut c = Coordinator::new();
        assert_eq!(c.begin("f", 1), Admission::Admitted);
        assert_eq!(c.begin("f", 2), Admission::Queued);
        assert_eq!(
            c.begin("g", 3),
            Admission::Admitted,
            "other files are independent"
        );
        assert_eq!(c.finish("f", 1), Some(2));
        assert_eq!(c.finish("f", 2), None);
        assert_eq!(c.depth("f"), 0);
    }

    #[test]
    #[should_panic(expected = "out of admission order")]
    fn finishing_unadmitted_op_is_a_bug() {
        let mut c = Coordinator::new();
        c.begin("f", 1);
        c.begin("f", 2);
        c.finish("f", 2);
    }
}
