//! # essio-obs — the observability plane of the ESS I/O study
//!
//! The paper's contribution *is* an observability layer: a device-driver
//! tracer spooled through the proc filesystem. This crate extends the
//! reproduction from that single probe point to the whole simulated stack —
//! request-lifecycle **spans in virtual time**, a hierarchical **metrics
//! registry**, and **exporters** (Chrome trace-event JSON for Perfetto, and
//! a `/proc`-style plain-text snapshot mirroring the paper's spooling).
//!
//! ## Span model
//!
//! Each logical I/O gets a [`SpanId`] at the syscall boundary and is
//! annotated as it flows down the stack: page-cache hits/misses, the
//! readahead window, scheduler-queue wait (submit→dispatch), driver service
//! time, fault retries and spare-region relocations, and PVM retransmit
//! delay to the process that issued it. A span closes when the kernel has
//! passed the logical boundary (syscall return or wake) *and* every disk
//! token it spawned has completed — so asynchronous readahead tails and
//! write-back flushes are attributed to the request that caused them.
//! Per-request latency then decomposes into queue-wait vs. service vs.
//! retry components ([`Span`]), and every physical disk command becomes a
//! [`PhysSpan`] tied to exactly one request span.
//!
//! ## Zero cost when disabled
//!
//! The hook type threaded through kernel/driver/cluster is the enum-dispatch
//! sink [`Obs`]: `Off` (the default) or `On(Rc<RefCell<NodeObs>>)`. Every
//! hook method is `#[inline]` and begins with a match on the variant, so
//! with obs disabled the instrumented hot paths compile to a discriminant
//! test and fall through — no allocation, no indirection, no trace-byte
//! change. With obs enabled the plane is still pure observation: it never
//! schedules events or perturbs virtual time, so disk trace bytes remain
//! bit-identical (asserted in `tests/observability.rs`).

#![warn(missing_docs)]

pub mod collect;
pub mod export;
pub mod registry;
pub mod span;

use std::cell::RefCell;
use std::rc::Rc;

use essio_sim::SimTime;
use essio_trace::{Op, Origin};

pub use collect::NodeObs;
pub use export::ObsReport;
pub use registry::{Gauge, MetricScope, MetricsRegistry};
pub use span::{NetEvent, PhysSpan, Span, SpanKind};

/// Identifier of a request span, unique within a node (1-based).
pub type SpanId = u64;

/// The null span id: "no span is current".
pub const NO_SPAN: SpanId = 0;

/// Saved nesting state returned by [`Obs::begin`] and consumed by
/// [`Obs::finish`]; restores the previously-current span so span opens
/// nest like a stack even across re-entrant kernel paths (a read that
/// evicts dirty blocks opens a write-back span *inside* the read span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanScope {
    /// The span opened by the matching [`Obs::begin`].
    pub id: SpanId,
    /// The span that was current before it.
    pub prev: SpanId,
}

impl SpanScope {
    /// The scope handed out when obs is disabled; [`Obs::finish`] ignores it.
    pub const NONE: SpanScope = SpanScope {
        id: NO_SPAN,
        prev: NO_SPAN,
    };
}

/// Enum-dispatch observability sink, cloned into every layer of one node
/// (kernel, driver) plus the cluster. `Off` is the default and compiles
/// every hook to a discriminant test.
#[derive(Debug, Clone, Default)]
pub enum Obs {
    /// Observability disabled: every hook is a no-op.
    #[default]
    Off,
    /// Observability enabled: hooks record into the shared per-node state.
    On(Rc<RefCell<NodeObs>>),
}

impl Obs {
    /// An enabled sink for `node`.
    pub fn enabled(node: u8) -> Self {
        Obs::On(Rc::new(RefCell::new(NodeObs::new(node))))
    }

    /// The shared collector, if enabled (used by the cluster to drain).
    pub fn handle(&self) -> Option<&Rc<RefCell<NodeObs>>> {
        match self {
            Obs::Off => None,
            Obs::On(h) => Some(h),
        }
    }

    /// Open a request span and make it current. Returns the scope to hand
    /// back to [`Obs::finish`].
    #[inline]
    pub fn begin(&self, now: SimTime, kind: SpanKind, pid: Option<u32>) -> SpanScope {
        match self {
            Obs::Off => SpanScope::NONE,
            Obs::On(h) => h.borrow_mut().begin(now, kind, pid),
        }
    }

    /// Leave a span's scope: the logical boundary (syscall return or wake
    /// schedule) has passed; the span closes once its outstanding disk
    /// tokens drain (immediately, if none).
    #[inline]
    pub fn finish(&self, now: SimTime, scope: SpanScope) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h.borrow_mut().finish(now, scope),
        }
    }

    /// Record page-cache lookups against the current span.
    #[inline]
    pub fn cache_access(&self, hits: u32, misses: u32) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h.borrow_mut().cache_access(hits, misses),
        }
    }

    /// Record a readahead decision: current window size and blocks prefetched.
    #[inline]
    pub fn readahead(&self, window: u32, blocks: u32) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h.borrow_mut().readahead(window, blocks),
        }
    }

    /// Record dirty-page write-back volume (blocks pushed to disk).
    #[inline]
    pub fn writeback_blocks(&self, blocks: u64) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h.borrow_mut().writeback_blocks(blocks),
        }
    }

    /// Note that `pid`'s next span was delayed by `delay_us` of PVM
    /// retransmit backoff (charged to the next span the pid opens).
    #[inline]
    pub fn note_net_delay(&self, pid: u32, delay_us: u64) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h.borrow_mut().note_net_delay(pid, delay_us),
        }
    }

    /// A block request entered the driver (token allocated by the kernel).
    #[inline]
    pub fn disk_submit(&self, now: SimTime, token: u64) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h.borrow_mut().disk_submit(now, token),
        }
    }

    /// The driver started servicing a (possibly merged) physical request.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn disk_dispatch(
        &self,
        now: SimTime,
        tokens: &[u64],
        sector: u64,
        nsectors: u32,
        op: Op,
        origin: Origin,
        queue_len: usize,
    ) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h
                .borrow_mut()
                .disk_dispatch(now, tokens, sector, nsectors, op, origin, queue_len),
        }
    }

    /// A physical request completed (`failed` per the fault oracle).
    #[inline]
    pub fn disk_complete(&self, now: SimTime, tokens: &[u64], failed: bool) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h.borrow_mut().disk_complete(now, tokens, failed),
        }
    }

    /// The kernel is resubmitting failed tokens under a fresh retry token.
    #[inline]
    pub fn disk_retry(&self, new_token: u64, originals: &[u64], relocated: bool) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h.borrow_mut().disk_retry(new_token, originals, relocated),
        }
    }

    /// The node lost power: force-close everything in flight as truncated.
    #[inline]
    pub fn abort(&self, now: SimTime) {
        match self {
            Obs::Off => {}
            Obs::On(h) => h.borrow_mut().abort(now),
        }
    }
}
