//! The instrumented IDE driver.
//!
//! This is the paper's measurement instrument (§3.4): *"Each workstation's
//! IDE disk device driver was modified to capture trace data on all I/O
//! activity requested of the hard disk sub-system. The read and write
//! handlers ... were instrumented ... All read or write requests sent to the
//! disk drive generated a trace entry consisting of a timestamp, the disk
//! sector number requested, a flag indicating either a read or write
//! request, and a count of the remaining I/O requests to be processed."*
//!
//! The trace hook therefore sits in `IdeDriver::dispatch` — the moment a
//! (possibly merged) physical request is sent to the drive — and records the
//! queue depth left behind, exactly the four fields above (plus length and
//! node, see `essio-trace`).
//!
//! The driver is event-loop friendly: `submit` either starts the drive and
//! returns a completion deadline for the caller to schedule, or queues; each
//! `on_complete` hands back the finished request's tokens and, if more work
//! is queued, the next deadline.

use essio_faults::{DiskFault, DiskFaultState};
use essio_obs::Obs;
use essio_sim::SimTime;
use essio_trace::{InstrumentationLevel, Op, Origin, RecordSink, TraceBuffer, TraceRecord};

use crate::sched::{QueuedRequest, RequestQueue, SchedPolicy};
use crate::timing::TimingModel;

pub use crate::sched::ReqToken;

/// A logical block-layer request submitted by the kernel.
#[derive(Debug, Clone)]
pub struct BlockRequest {
    /// First sector.
    pub sector: u32,
    /// Length in sectors.
    pub nsectors: u16,
    /// Direction.
    pub op: Op,
    /// Which kernel path issued it (ground truth for the trace).
    pub origin: Origin,
    /// Caller token returned on completion.
    pub token: ReqToken,
    /// Retry relocated to a spare region after repeated failures: exempt
    /// from fault injection and from merging (it must appear in the trace
    /// as its own physical request, as on the instrumented hardware).
    pub relocated: bool,
}

/// Outcome of a `submit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The drive was idle; the request is in flight and completes at the
    /// contained time — the caller must schedule `on_complete` then.
    Dispatched {
        /// Absolute completion time.
        completes_at: SimTime,
    },
    /// The drive is busy; queued as a new physical request.
    Queued,
    /// The drive is busy; folded into an already-queued physical request.
    Merged,
}

/// A finished physical request, fanned back out to logical tokens.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Logical requests satisfied by this physical transfer.
    pub tokens: Vec<ReqToken>,
    /// Direction.
    pub op: Op,
    /// First sector transferred.
    pub sector: u32,
    /// Sectors transferred.
    pub nsectors: u16,
    /// Provenance of the request's first constituent (needed to resubmit).
    pub origin: Origin,
    /// The command failed (media error or stuck-command abort): no data
    /// was transferred and the caller must retry or relocate.
    pub failed: bool,
}

/// Driver lifetime statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverStats {
    /// Logical requests submitted.
    pub submitted: u64,
    /// Physical requests dispatched to the drive.
    pub dispatched: u64,
    /// Sectors read.
    pub read_sectors: u64,
    /// Sectors written.
    pub written_sectors: u64,
    /// Total time the drive spent servicing requests, µs.
    pub busy_us: u64,
    /// Deepest queue observed at dispatch.
    pub max_queue_depth: usize,
    /// Commands that returned an uncorrectable media (ECC) error.
    pub media_errors: u64,
    /// Commands aborted at the stuck-command timeout.
    pub stuck_timeouts: u64,
    /// Commands served slowly (drive-internal recovery).
    pub slow_commands: u64,
    /// Relocated retries dispatched (fault-exempt spare-region transfers).
    pub relocated: u64,
}

/// The per-node instrumented IDE driver + drive pair.
#[derive(Debug)]
pub struct IdeDriver {
    node: u8,
    timing: TimingModel,
    queue: RequestQueue,
    trace: TraceBuffer,
    in_flight: Option<QueuedRequest>,
    in_flight_failed: bool,
    faults: Option<DiskFaultState>,
    head_pos: u32,
    commands: u64,
    stats: DriverStats,
    obs: Obs,
}

impl IdeDriver {
    /// Build a driver for `node` with the given drive model and scheduler.
    pub fn new(node: u8, timing: TimingModel, policy: SchedPolicy, trace_capacity: usize) -> Self {
        Self {
            node,
            timing,
            queue: RequestQueue::new(policy, 64),
            trace: TraceBuffer::new(trace_capacity),
            in_flight: None,
            in_flight_failed: false,
            faults: None,
            head_pos: 0,
            commands: 0,
            stats: DriverStats::default(),
            obs: Obs::Off,
        }
    }

    /// Install the observability sink (shared with the kernel above).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The ioctl: change instrumentation level at runtime.
    pub fn set_instrumentation(&mut self, level: InstrumentationLevel) {
        self.trace.set_level(level);
    }

    /// Install (or clear) the deterministic fault oracle for this drive.
    pub fn set_faults(&mut self, faults: Option<DiskFaultState>) {
        self.faults = faults;
    }

    /// The installed fault oracle, if any.
    pub fn faults(&self) -> Option<&DiskFaultState> {
        self.faults.as_ref()
    }

    /// Power failure: the in-flight command and every queued request vanish
    /// (no completions will be delivered); buffered trace records are lost
    /// with the node's RAM. Returns the number of trace records discarded.
    pub fn power_fail(&mut self) -> u64 {
        self.in_flight = None;
        self.in_flight_failed = false;
        self.queue.clear();
        let lost = self.trace.len() as u64;
        self.trace.drain(usize::MAX);
        lost
    }

    /// Current instrumentation level.
    pub fn instrumentation(&self) -> InstrumentationLevel {
        self.trace.level()
    }

    /// Whether a request is in flight.
    pub fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Requests waiting behind the in-flight one.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &DriverStats {
        &self.stats
    }

    /// Merge count from the scheduler.
    pub fn merges(&self) -> u64 {
        self.queue.merges()
    }

    /// Drain up to `max` trace records (the proc-fs read).
    pub fn drain_trace(&mut self, max: usize) -> Vec<TraceRecord> {
        self.trace.drain(max)
    }

    /// Stream up to `max` trace records into `sink` — the live tap used by
    /// online analytics. Same FIFO drain as [`IdeDriver::drain_trace`], but
    /// records go straight from the kernel ring into the sink with no
    /// intermediate `Vec`.
    pub fn drain_trace_into(&mut self, max: usize, mut sink: &mut dyn RecordSink) -> usize {
        self.trace.drain_into(max, &mut sink)
    }

    /// Records currently buffered in the trace ring.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// Records lost to trace-ring overflow.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Submit a logical request.
    pub fn submit(&mut self, now: SimTime, req: BlockRequest) -> SubmitOutcome {
        assert!(req.nsectors > 0, "zero-length block request");
        self.stats.submitted += 1;
        self.obs.disk_submit(now, req.token);
        let queued = QueuedRequest {
            sector: req.sector,
            nsectors: req.nsectors,
            op: req.op,
            origin: req.origin,
            tokens: vec![req.token],
            relocated: req.relocated,
        };
        if self.in_flight.is_some() {
            return if self.queue.push(queued) {
                SubmitOutcome::Merged
            } else {
                self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
                SubmitOutcome::Queued
            };
        }
        let completes_at = self.dispatch(now, queued);
        SubmitOutcome::Dispatched { completes_at }
    }

    /// Handle the completion of the in-flight request at `now` (which must
    /// be the deadline previously returned). Returns the completion and, if
    /// another request was dispatched, its deadline.
    pub fn on_complete(&mut self, now: SimTime) -> (Completion, Option<SimTime>) {
        let done = self
            .in_flight
            .take()
            .expect("on_complete without an in-flight request");
        let failed = self.in_flight_failed;
        self.in_flight_failed = false;
        self.head_pos = done.end();
        if !failed {
            match done.op {
                Op::Read => self.stats.read_sectors += done.nsectors as u64,
                Op::Write => self.stats.written_sectors += done.nsectors as u64,
            }
        }
        let completion = Completion {
            tokens: done.tokens,
            op: done.op,
            sector: done.sector,
            nsectors: done.nsectors,
            origin: done.origin,
            failed,
        };
        self.obs.disk_complete(now, &completion.tokens, failed);
        let next = self
            .queue
            .pop_next(self.head_pos)
            .map(|req| self.dispatch(now, req));
        (completion, next)
    }

    /// Send a physical request to the drive; **this is the instrumented
    /// read/write handler** — the trace entry is generated here.
    fn dispatch(&mut self, now: SimTime, req: QueuedRequest) -> SimTime {
        let mut service = self
            .timing
            .service_us(self.head_pos, req.sector, req.nsectors);
        // The deterministic fault plane: what happens to this command is a
        // pure function of (plan seed, node, command index). Relocated
        // retries target a known-good spare region and are exempt.
        let mut failed = false;
        if let Some(oracle) = &self.faults {
            if req.relocated {
                self.stats.relocated += 1;
            } else {
                match oracle.decide(self.commands) {
                    DiskFault::None => {}
                    DiskFault::Slow => {
                        service += oracle.config().slow_penalty_us;
                        self.stats.slow_commands += 1;
                    }
                    DiskFault::MediaError => {
                        failed = true;
                        self.stats.media_errors += 1;
                    }
                    DiskFault::Stuck => {
                        // The drive hangs; the driver gives up at the
                        // timeout and reports the command failed.
                        service = oracle.config().stuck_timeout_us;
                        failed = true;
                        self.stats.stuck_timeouts += 1;
                    }
                }
            }
        }
        self.in_flight_failed = failed;
        self.commands += 1;
        self.stats.dispatched += 1;
        self.stats.busy_us += service;
        self.trace.log(TraceRecord {
            ts: now,
            sector: req.sector,
            nsectors: req.nsectors,
            pending: self.queue.len().min(u16::MAX as usize) as u16,
            node: self.node,
            op: req.op,
            origin: req.origin,
        });
        self.obs.disk_dispatch(
            now,
            &req.tokens,
            req.sector as u64,
            req.nsectors as u32,
            req.op,
            req.origin,
            self.queue.len(),
        );
        self.in_flight = Some(req);
        now + service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> IdeDriver {
        let mut d = IdeDriver::new(
            0,
            TimingModel::beowulf_ide(),
            SchedPolicy::Elevator,
            1 << 16,
        );
        d.set_instrumentation(InstrumentationLevel::Full);
        d
    }

    fn breq(token: u64, sector: u32, nsectors: u16, op: Op) -> BlockRequest {
        BlockRequest {
            sector,
            nsectors,
            op,
            origin: Origin::FileData,
            token,
            relocated: false,
        }
    }

    #[test]
    fn idle_submit_dispatches_immediately() {
        let mut d = driver();
        let SubmitOutcome::Dispatched { completes_at } = d.submit(1000, breq(1, 100, 2, Op::Read))
        else {
            panic!("expected dispatch")
        };
        assert!(completes_at > 1000);
        assert!(d.busy());
        let (c, next) = d.on_complete(completes_at);
        assert_eq!(c.tokens, vec![1]);
        assert!(next.is_none());
        assert!(!d.busy());
    }

    #[test]
    fn busy_submit_queues_then_chains() {
        let mut d = driver();
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, breq(1, 100, 2, Op::Read))
        else {
            panic!()
        };
        assert_eq!(
            d.submit(10, breq(2, 5000, 2, Op::Read)),
            SubmitOutcome::Queued
        );
        assert_eq!(d.queue_depth(), 1);
        let (c1, next) = d.on_complete(completes_at);
        assert_eq!(c1.tokens, vec![1]);
        let t2 = next.expect("second request should auto-dispatch");
        let (c2, next2) = d.on_complete(t2);
        assert_eq!(c2.tokens, vec![2]);
        assert!(next2.is_none());
    }

    #[test]
    fn contiguous_requests_merge_while_busy() {
        let mut d = driver();
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, breq(1, 100, 2, Op::Write))
        else {
            panic!()
        };
        assert_eq!(
            d.submit(1, breq(2, 1000, 2, Op::Write)),
            SubmitOutcome::Queued
        );
        assert_eq!(
            d.submit(2, breq(3, 1002, 2, Op::Write)),
            SubmitOutcome::Merged
        );
        assert_eq!(
            d.submit(3, breq(4, 1004, 2, Op::Write)),
            SubmitOutcome::Merged
        );
        let (_, next) = d.on_complete(completes_at);
        let (c, _) = d.on_complete(next.unwrap());
        assert_eq!(c.tokens, vec![2, 3, 4]);
        assert_eq!(c.nsectors, 6); // 3 KB physical request from 1 KB blocks
    }

    #[test]
    fn trace_records_dispatch_with_pending_count() {
        let mut d = driver();
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, breq(1, 100, 2, Op::Write))
        else {
            panic!()
        };
        d.submit(1, breq(2, 5000, 2, Op::Read));
        d.submit(2, breq(3, 9000, 2, Op::Read));
        let (_, next) = d.on_complete(completes_at);
        let recs = d.drain_trace(usize::MAX);
        assert_eq!(recs.len(), 2, "two dispatches so far");
        assert_eq!(recs[0].pending, 0, "first dispatched from an empty queue");
        assert_eq!(recs[1].pending, 1, "one request still waiting");
        assert_eq!(recs[0].node, 0);
        assert_eq!(recs[0].ts, 0);
        assert!(next.is_some());
    }

    #[test]
    fn instrumentation_off_means_no_records() {
        let mut d = driver();
        d.set_instrumentation(InstrumentationLevel::Off);
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, breq(1, 100, 2, Op::Write))
        else {
            panic!()
        };
        d.on_complete(completes_at);
        assert_eq!(d.trace_len(), 0);
        // Stats still accumulate — the drive worked, we just didn't watch.
        assert_eq!(d.stats().dispatched, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = driver();
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, breq(1, 100, 4, Op::Write))
        else {
            panic!()
        };
        d.submit(1, breq(2, 5000, 8, Op::Read));
        let (_, next) = d.on_complete(completes_at);
        d.on_complete(next.unwrap());
        let s = d.stats();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.dispatched, 2);
        assert_eq!(s.written_sectors, 4);
        assert_eq!(s.read_sectors, 8);
        assert!(s.busy_us > 0);
    }

    #[test]
    fn fault_injection_counts() {
        use essio_faults::{DiskFault, DiskFaultConfig, DiskFaultState};
        let oracle = DiskFaultState::new(
            0,
            0,
            DiskFaultConfig {
                slow_every: 2,
                ..Default::default()
            },
        );
        let expected = (0..16)
            .filter(|&i| oracle.decide(i) == DiskFault::Slow)
            .count() as u64;
        assert!(expected > 0, "slow_every=2 slows some of 16 commands");
        let mut d = driver();
        d.set_faults(Some(oracle));
        let mut now = 0;
        for i in 0..16 {
            let SubmitOutcome::Dispatched { completes_at } =
                d.submit(now, breq(i, 100, 2, Op::Write))
            else {
                panic!()
            };
            now = completes_at;
            d.on_complete(now);
        }
        assert_eq!(d.stats().slow_commands, expected);
    }

    #[test]
    #[should_panic(expected = "without an in-flight")]
    fn completing_idle_drive_panics() {
        driver().on_complete(0);
    }

    #[test]
    fn media_error_fails_completion_after_full_service() {
        use essio_faults::{DiskFaultConfig, DiskFaultState};
        let mut d = driver();
        // every=1 ⇒ the hash trial fires on (almost) every command; find
        // the first command index that actually faults.
        d.set_faults(Some(DiskFaultState::new(
            0,
            0,
            DiskFaultConfig {
                media_error_every: 1,
                ..Default::default()
            },
        )));
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, breq(1, 100, 2, Op::Write))
        else {
            panic!()
        };
        let (c, _) = d.on_complete(completes_at);
        assert!(c.failed, "media_error_every=1 fails every command");
        assert_eq!(c.origin, Origin::FileData);
        assert_eq!(d.stats().media_errors, 1);
        assert_eq!(d.stats().written_sectors, 0, "no data transferred");
    }

    #[test]
    fn stuck_command_aborts_at_timeout() {
        use essio_faults::{DiskFaultConfig, DiskFaultState};
        let mut d = driver();
        d.set_faults(Some(DiskFaultState::new(
            0,
            0,
            DiskFaultConfig {
                stuck_every: 1,
                stuck_timeout_us: 500_000,
                ..Default::default()
            },
        )));
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, breq(1, 100, 2, Op::Read))
        else {
            panic!()
        };
        assert_eq!(completes_at, 500_000, "busy exactly until the timeout");
        let (c, _) = d.on_complete(completes_at);
        assert!(c.failed);
        assert_eq!(d.stats().stuck_timeouts, 1);
    }

    #[test]
    fn slow_command_adds_penalty_but_succeeds() {
        use essio_faults::{DiskFaultConfig, DiskFaultState};
        let mut clean = driver();
        let SubmitOutcome::Dispatched {
            completes_at: clean_at,
        } = clean.submit(0, breq(1, 100, 2, Op::Read))
        else {
            panic!()
        };
        let mut d = driver();
        d.set_faults(Some(DiskFaultState::new(
            0,
            0,
            DiskFaultConfig {
                slow_every: 1,
                slow_penalty_us: 60_000,
                ..Default::default()
            },
        )));
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, breq(1, 100, 2, Op::Read))
        else {
            panic!()
        };
        assert_eq!(completes_at, clean_at + 60_000);
        let (c, _) = d.on_complete(completes_at);
        assert!(!c.failed, "slow commands still succeed");
        assert_eq!(d.stats().slow_commands, 1);
    }

    #[test]
    fn relocated_requests_are_fault_exempt() {
        use essio_faults::{DiskFaultConfig, DiskFaultState};
        let mut d = driver();
        d.set_faults(Some(DiskFaultState::new(
            0,
            0,
            DiskFaultConfig {
                media_error_every: 1,
                stuck_every: 1,
                ..Default::default()
            },
        )));
        let mut req = breq(1, 100, 2, Op::Write);
        req.relocated = true;
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, req) else {
            panic!()
        };
        let (c, _) = d.on_complete(completes_at);
        assert!(!c.failed, "relocated transfers always succeed");
        assert_eq!(d.stats().relocated, 1);
        assert_eq!(d.stats().media_errors, 0);
    }

    #[test]
    fn power_fail_discards_queue_and_trace() {
        let mut d = driver();
        d.submit(0, breq(1, 100, 2, Op::Write));
        d.submit(1, breq(2, 5000, 2, Op::Read));
        d.submit(2, breq(3, 9000, 2, Op::Read));
        assert!(d.busy());
        assert!(d.trace_len() > 0);
        let lost = d.power_fail();
        assert_eq!(lost, 1, "one dispatch had been recorded");
        assert!(!d.busy());
        assert_eq!(d.queue_depth(), 0);
        assert_eq!(d.trace_len(), 0);
    }

    #[test]
    fn elevator_orders_dispatches_by_sweep() {
        let mut d = driver();
        let SubmitOutcome::Dispatched { completes_at } = d.submit(0, breq(0, 50_000, 2, Op::Read))
        else {
            panic!()
        };
        // Submit out of order while busy; elevator should sweep upward from
        // the head position after the first completion (sector 50_002).
        d.submit(1, breq(1, 900_000, 2, Op::Read));
        d.submit(2, breq(2, 60_000, 2, Op::Read));
        d.submit(3, breq(3, 100_000, 2, Op::Read));
        let mut order = Vec::new();
        let (_, mut next) = d.on_complete(completes_at);
        while let Some(t) = next {
            let (c, n) = d.on_complete(t);
            order.push(c.sector);
            next = n;
        }
        assert_eq!(order, vec![60_000, 100_000, 900_000]);
    }
}
