//! The kernel dispatcher: syscalls, page-touch streams, daemons, and the
//! instrumented disk driver, glued into an event-loop friendly state
//! machine.
//!
//! ## Interaction contract with the world loop (the `essio` crate)
//!
//! * Process verbs arrive via [`Kernel::syscall`] and [`Kernel::touches`].
//!   Either completes immediately (`Done`, with a CPU cost the caller bills
//!   to virtual time) or parks the process (`Blocked`).
//! * Any call may start the disk: when the returned `Option<SimTime>` is
//!   `Some(t)`, the caller must schedule [`KernelEvent::DiskComplete`] at
//!   `t`. At most one completion is ever outstanding per node (one drive,
//!   one in-flight request).
//! * [`Kernel::disk_complete`] retires the in-flight request, unparks any
//!   processes whose last awaited transfer finished, resumes parked touch
//!   streams (which may block again), and reports the next completion time
//!   if the driver dispatched more work.
//! * Daemons run off [`KernelEvent::Daemon`] ticks; each tick returns the
//!   next tick time, self-scheduling forever.

use std::collections::HashMap;

use essio_disk::{BlockRequest, Completion, IdeDriver, SubmitOutcome};
use essio_obs::{Obs, SpanKind, SpanScope};
use essio_sim::{SimRng, SimTime, Vpn};
use essio_trace::{InstrumentationLevel, Op, Origin, RecordSink, TraceRecord};

use crate::cache::BufferCache;
use crate::daemons::{DaemonConfig, DaemonKind};
use crate::fs::{BlockNo, Fs, SECTORS_PER_BLOCK};
use crate::readahead::ReadAhead;
use crate::syscall::{Fd, Ino, Pid, Placement, SysError, SysResult, Syscall};
use crate::vm::{FaultIo, TouchResult, Vm, PAGE_BYTES, SECTORS_PER_PAGE};

/// Events the world loop schedules on the kernel's behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEvent {
    /// The in-flight disk request finishes.
    DiskComplete,
    /// A daemon's periodic tick.
    Daemon(DaemonKind),
}

/// Result of a syscall entry.
#[derive(Debug)]
pub enum Outcome {
    /// Completed synchronously; bill `cpu_us` then deliver `result`.
    Done {
        /// Syscall result to hand to the process.
        result: SysResult,
        /// Kernel CPU time consumed, µs.
        cpu_us: u64,
    },
    /// The process is parked until a disk wake.
    Blocked,
}

/// Result of feeding a touch batch.
#[derive(Debug)]
pub enum TouchOutcome {
    /// All touches processed; bill `cpu_us`.
    Done {
        /// Fault-handling CPU time, µs.
        cpu_us: u64,
    },
    /// Parked mid-stream on a page-in/swap-in.
    Blocked,
    /// The process must be killed (wild pointer or out of swap).
    Fatal(&'static str),
}

/// What a disk wake delivers to a parked process.
#[derive(Debug)]
pub enum WakeKind {
    /// A blocked syscall finished.
    Syscall(SysResult),
    /// A blocked touch stream drained; bill `cpu_us`.
    TouchDone {
        /// Accumulated fault CPU time, µs.
        cpu_us: u64,
    },
    /// The process died while blocked (OOM during its touch stream).
    Fatal(&'static str),
}

/// Kernel tuning parameters (one node).
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Node id stamped into trace records.
    pub node: u8,
    /// User-available page frames (16 MB minus kernel+cache ≈ 3072).
    pub frames_user: u32,
    /// Buffer cache capacity in 1 KB blocks (~1.5 MB).
    pub cache_blocks: usize,
    /// Disk scheduler policy.
    pub sched: essio_disk::SchedPolicy,
    /// Drive timing model.
    pub timing: essio_disk::TimingModel,
    /// Trace ring capacity (records).
    pub trace_capacity: usize,
    /// Fixed syscall entry cost, µs.
    pub syscall_us: u64,
    /// Data copy cost, µs per KiB (user↔kernel on a 486).
    pub copy_us_per_kb: u64,
    /// Page-fault handler cost, µs.
    pub fault_us: u64,
    /// Daemon cadences.
    pub daemons: DaemonConfig,
    /// Spool the trace buffer to a high-region file (the instrumentation's
    /// own I/O). Off for overhead benchmarks.
    pub spool_trace: bool,
    /// Enable sequential read-ahead (ablation switch).
    pub readahead: bool,
    /// RNG seed for daemon cadence.
    pub seed: u64,
    /// Seed of the deterministic fault plane (mixed cluster/plan seed).
    pub fault_seed: u64,
    /// Disk fault rates + recovery budget; `None` = healthy drive.
    pub disk_faults: Option<essio_faults::DiskFaultConfig>,
}

impl KernelConfig {
    /// The Beowulf node configuration from the paper (§3.2).
    pub fn beowulf(node: u8) -> Self {
        Self {
            node,
            frames_user: 3072,
            cache_blocks: 1536,
            sched: essio_disk::SchedPolicy::Elevator,
            timing: essio_disk::TimingModel::beowulf_ide(),
            trace_capacity: 1 << 21,
            syscall_us: 150,
            copy_us_per_kb: 40,
            fault_us: 300,
            daemons: DaemonConfig::default(),
            spool_trace: true,
            readahead: true,
            seed: 0x5EED + node as u64,
            fault_seed: 0,
            disk_faults: None,
        }
    }
}

#[derive(Debug)]
struct OpenFile {
    ino: Ino,
    ra: ReadAhead,
}

#[derive(Debug)]
enum WaitKind {
    Syscall {
        result: SysResult,
    },
    /// A touch batch blocked at `touches[next - 1]`.
    Touches {
        touches: Vec<Vpn>,
        next: usize,
        cpu_us: u64,
    },
}

#[derive(Debug)]
struct Wait {
    outstanding: u32,
    kind: WaitKind,
}

#[derive(Debug, Default)]
struct Proc {
    fds: HashMap<Fd, OpenFile>,
    next_fd: Fd,
    wait: Option<Wait>,
}

#[derive(Debug)]
struct TokenInfo {
    /// Blocks to mark resident-clean in the cache when the transfer lands.
    fill_blocks: Vec<BlockNo>,
    waiter: Option<Pid>,
}

/// A failed physical request being retried: the fresh driver token maps back
/// to every original logical token it stands in for. The originals stay in
/// `tokens` (their waiters stay blocked) until a retry finally succeeds.
#[derive(Debug)]
struct RetryGroup {
    tokens: Vec<u64>,
    attempts: u32,
}

/// Disk-recovery counters (the kernel side of the fault plane; the driver
/// side lives in [`essio_disk::DriverStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryStats {
    /// Failed physical requests resubmitted.
    pub retries: u64,
    /// Requests relocated to the spare region after exhausting retries.
    pub relocations: u64,
}

/// State lost to a node power failure.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerFailReport {
    /// Undrained trace records discarded with the node's RAM.
    pub trace_records_lost: u64,
    /// Dirty buffer-cache blocks that never reached the disk.
    pub dirty_blocks_lost: u64,
}

/// One node's kernel.
#[derive(Debug)]
pub struct Kernel {
    cfg: KernelConfig,
    fs: Fs,
    cache: BufferCache,
    vm: Vm,
    driver: IdeDriver,
    rng: SimRng,
    procs: HashMap<Pid, Proc>,
    tokens: HashMap<u64, TokenInfo>,
    retries: HashMap<u64, RetryGroup>,
    retry_stats: RetryStats,
    next_token: u64,
    syslog_ino: Ino,
    ktable_ino: Ino,
    spool_ino: Ino,
    spooled_records: u64,
    log_offset: u64,
    ktable_offset: u64,
    obs: Obs,
}

impl Kernel {
    /// Boot a node kernel over a fresh filesystem.
    pub fn new(cfg: KernelConfig) -> Self {
        let layout = essio_disk::DiskLayout::beowulf_500mb();
        let mut fs = Fs::new(layout.clone());
        let syslog_ino = fs
            .create("/var/log/messages", Placement::Log)
            .expect("fresh fs");
        let ktable_ino = fs.create("/sys/ktable", Placement::High).expect("fresh fs");
        let spool_ino = fs
            .create("/var/log/iotrace", Placement::High)
            .expect("fresh fs");
        let vm = Vm::new(cfg.frames_user, &layout);
        let cache = BufferCache::new(cfg.cache_blocks);
        let mut driver =
            IdeDriver::new(cfg.node, cfg.timing.clone(), cfg.sched, cfg.trace_capacity);
        if let Some(faults) = &cfg.disk_faults {
            driver.set_faults(Some(essio_faults::DiskFaultState::new(
                cfg.fault_seed,
                cfg.node,
                faults.clone(),
            )));
        }
        let rng = SimRng::new(cfg.seed);
        Self {
            cfg,
            fs,
            cache,
            vm,
            driver,
            rng,
            procs: HashMap::new(),
            tokens: HashMap::new(),
            retries: HashMap::new(),
            retry_stats: RetryStats::default(),
            next_token: 0,
            syslog_ino,
            ktable_ino,
            spool_ino,
            spooled_records: 0,
            log_offset: 0,
            ktable_offset: 0,
            obs: Obs::Off,
        }
    }

    /// Install the observability sink; a clone goes to the driver so the
    /// two layers annotate the same per-node span state.
    pub fn set_obs(&mut self, obs: Obs) {
        self.driver.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Immutable access to the filesystem (experiment setup/validation).
    pub fn fs(&self) -> &Fs {
        &self.fs
    }

    /// VM statistics.
    pub fn vm_stats(&self) -> crate::vm::VmStats {
        self.vm.stats
    }

    /// Buffer-cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats
    }

    /// Driver statistics.
    pub fn driver_stats(&self) -> essio_disk::DriverStats {
        *self.driver.stats()
    }

    /// Disk-recovery statistics (retries + relocations).
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Power failure: everything volatile is lost — the in-flight and
    /// queued disk requests, undrained trace records, dirty cache blocks,
    /// pending waits and retry state. The filesystem (on disk) survives.
    /// The caller is expected to tear down the node's processes itself.
    pub fn power_fail(&mut self) -> PowerFailReport {
        let trace_records_lost = self.driver.power_fail();
        let dirty_blocks_lost = self.cache.dirty_count() as u64;
        // RAM contents are gone; counters survive in the report only.
        let stats = self.cache.stats;
        self.cache = BufferCache::new(self.cfg.cache_blocks);
        self.cache.stats = stats;
        self.tokens.clear();
        self.retries.clear();
        for proc in self.procs.values_mut() {
            proc.wait = None;
        }
        self.spooled_records = self.driver.stats().dispatched;
        PowerFailReport {
            trace_records_lost,
            dirty_blocks_lost,
        }
    }

    /// The ioctl: set trace level.
    pub fn set_instrumentation(&mut self, level: InstrumentationLevel) {
        self.driver.set_instrumentation(level);
    }

    /// Drain captured trace records (the experiment's proc-fs reader).
    pub fn drain_trace(&mut self) -> Vec<TraceRecord> {
        self.driver.drain_trace(usize::MAX)
    }

    /// Stream captured trace records into `sink` without materialising a
    /// `Vec` — the live-tap path for online analytics.
    pub fn drain_trace_into(&mut self, sink: &mut dyn RecordSink) -> usize {
        self.driver.drain_trace_into(usize::MAX, sink)
    }

    /// Records currently buffered in the trace ring, waiting to be drained.
    pub fn trace_pending(&self) -> usize {
        self.driver.trace_len()
    }

    /// Records lost to trace-ring overflow.
    pub fn trace_dropped(&self) -> u64 {
        self.driver.trace_dropped()
    }

    /// Pre-load a file onto the filesystem (experiment setup: executables,
    /// the wavelet's image). No I/O is simulated — this is "the disk came
    /// installed that way".
    pub fn install_file(&mut self, path: &str, placement: Placement, content: &[u8]) -> Ino {
        let ino = self
            .fs
            .create(path, placement)
            .expect("install path unique");
        self.fs
            .write_at(ino, 0, content)
            .expect("space for installed file");
        ino
    }

    /// Register a process before first resume.
    pub fn register_process(&mut self, pid: Pid) {
        self.procs.insert(pid, Proc::default());
    }

    /// Tear down an exited process.
    pub fn process_exit(&mut self, pid: Pid) {
        self.vm.release(pid);
        self.procs.remove(&pid);
        // Orphan any in-flight tokens pointing at it.
        for t in self.tokens.values_mut() {
            if t.waiter == Some(pid) {
                t.waiter = None;
            }
        }
    }

    /// Initial daemon schedule; call once at boot.
    pub fn boot_deadlines(&mut self, now: SimTime) -> Vec<(SimTime, KernelEvent)> {
        DaemonKind::ALL
            .iter()
            .map(|k| {
                (
                    self.cfg.daemons.next_tick(*k, now, &mut self.rng),
                    KernelEvent::Daemon(*k),
                )
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Request submission plumbing
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn submit(
        &mut self,
        now: SimTime,
        sector: u32,
        nsectors: u16,
        op: Op,
        origin: Origin,
        fill_blocks: Vec<BlockNo>,
        waiter: Option<Pid>,
    ) -> Option<SimTime> {
        let token = self.next_token;
        self.next_token += 1;
        self.tokens.insert(
            token,
            TokenInfo {
                fill_blocks,
                waiter,
            },
        );
        if let Some(pid) = waiter {
            let proc = self.procs.get_mut(&pid).expect("waiter registered");
            proc.wait
                .as_mut()
                .expect("wait created before submit")
                .outstanding += 1;
        }
        match self.driver.submit(
            now,
            BlockRequest {
                sector,
                nsectors,
                op,
                origin,
                token,
                relocated: false,
            },
        ) {
            SubmitOutcome::Dispatched { completes_at } => Some(completes_at),
            SubmitOutcome::Queued | SubmitOutcome::Merged => None,
        }
    }

    /// Group blocks into physically contiguous runs.
    fn runs(blocks: &[BlockNo]) -> Vec<(BlockNo, u16)> {
        let mut out = Vec::new();
        let mut iter = blocks.iter();
        let Some(&first) = iter.next() else {
            return out;
        };
        let mut start = first;
        let mut len: u16 = 1;
        for &b in iter {
            if b == start + len as u32 && len < 32 {
                len += 1;
            } else {
                out.push((start, len));
                start = b;
                len = 1;
            }
        }
        out.push((start, len));
        out
    }

    fn submit_block_runs(
        &mut self,
        now: SimTime,
        blocks: &[BlockNo],
        op: Op,
        origin: Origin,
        waiter: Option<Pid>,
        fill: bool,
    ) -> (u32, Option<SimTime>) {
        let mut deadline = None;
        let mut issued = 0;
        for (start, len) in Self::runs(blocks) {
            let fill_blocks = if fill {
                (start..start + len as u32).collect()
            } else {
                Vec::new()
            };
            let d = self.submit(
                now,
                start * SECTORS_PER_BLOCK,
                len * SECTORS_PER_BLOCK as u16,
                op,
                origin,
                fill_blocks,
                waiter,
            );
            deadline = deadline.or(d);
            issued += 1;
        }
        (issued, deadline)
    }

    /// Write back evicted dirty blocks (asynchronous, nobody waits).
    fn writeback(&mut self, now: SimTime, blocks: &[(BlockNo, Origin)]) -> Option<SimTime> {
        if blocks.is_empty() {
            return None;
        }
        let scope = self.obs.begin(now, SpanKind::Writeback, None);
        self.obs.writeback_blocks(blocks.len() as u64);
        let mut deadline = None;
        for (b, origin) in blocks {
            let d = self.submit(
                now,
                *b * SECTORS_PER_BLOCK,
                SECTORS_PER_BLOCK as u16,
                Op::Write,
                *origin,
                Vec::new(),
                None,
            );
            deadline = deadline.or(d);
        }
        self.obs.finish(now, scope);
        deadline
    }

    // ------------------------------------------------------------------
    // Internal file helpers (used by syscalls and daemons)
    // ------------------------------------------------------------------

    /// Dirty the blocks of a write in the cache; returns a disk deadline if
    /// an eviction write-back started the drive.
    fn apply_write(
        &mut self,
        now: SimTime,
        ino: Ino,
        offset: u64,
        data: &[u8],
        origin: Origin,
    ) -> Result<Option<SimTime>, SysError> {
        let outcome = self.fs.write_at(ino, offset, data)?;
        let mut deadline = None;
        for b in outcome.data_blocks {
            let wb = self.cache.mark_dirty(b, origin);
            deadline = deadline.or(self.writeback(now, &wb));
        }
        for b in outcome.meta_blocks {
            let wb = self.cache.mark_dirty(b, Origin::Metadata);
            deadline = deadline.or(self.writeback(now, &wb));
        }
        Ok(deadline)
    }

    /// Append to the syslog file (syslogd and `LogMsg`).
    fn append_log(&mut self, now: SimTime, len: u32) -> Option<SimTime> {
        let scope = self.obs.begin(now, SpanKind::Log, None);
        let line = vec![b'#'; len as usize];
        let off = self.log_offset;
        self.log_offset += len as u64;
        let d = self
            .apply_write(now, self.syslog_ino, off, &line, Origin::Log)
            .expect("log region has space");
        self.obs.finish(now, scope);
        d
    }

    /// Multiprogramming level (for the read-ahead boost): how many user
    /// processes currently share this node. Paper §4.3 attributes the
    /// combined run's 16–32 KB requests to "an increased I/O buffer size" —
    /// the kernel grows its streaming buffers when the machine is loaded.
    fn multiprogramming(&self) -> usize {
        self.procs.len()
    }

    // ------------------------------------------------------------------
    // Syscalls
    // ------------------------------------------------------------------

    /// Handle a syscall from `pid`. Returns the outcome plus a disk deadline
    /// to schedule, if this call started the drive.
    ///
    /// I/O syscalls open a request span here, at the boundary; the span
    /// stays open past a `Blocked` return and closes when the last disk
    /// token it spawned completes (readahead tails included).
    pub fn syscall(&mut self, now: SimTime, pid: Pid, call: Syscall) -> (Outcome, Option<SimTime>) {
        let kind = match &call {
            Syscall::Open { .. } => Some(SpanKind::Open),
            Syscall::ReadAt { .. } => Some(SpanKind::Read),
            Syscall::WriteAt { .. } => Some(SpanKind::Write),
            Syscall::Fsync { .. } => Some(SpanKind::Fsync),
            Syscall::Sync => Some(SpanKind::Sync),
            // `Append` recurses into `WriteAt` (which opens the span);
            // `LogMsg` spans inside `append_log` with the daemon path.
            _ => None,
        };
        let scope = match kind {
            Some(k) => self.obs.begin(now, k, Some(pid)),
            None => SpanScope::NONE,
        };
        let out = self.syscall_inner(now, pid, call);
        self.obs.finish(now, scope);
        out
    }

    fn syscall_inner(
        &mut self,
        now: SimTime,
        pid: Pid,
        call: Syscall,
    ) -> (Outcome, Option<SimTime>) {
        debug_assert!(self.procs.contains_key(&pid), "unregistered pid {pid}");
        let base = self.cfg.syscall_us;
        match call {
            Syscall::Open {
                path,
                create,
                placement,
            } => {
                let ino = match self.fs.lookup(&path) {
                    Some(ino) => ino,
                    None if create => match self.fs.create(&path, placement) {
                        Ok(ino) => {
                            // Creating dirties the directory + inode table.
                            let d = self.cache.mark_dirty(self.fs.dir_block(), Origin::Metadata);
                            let mut deadline = self.writeback(now, &d);
                            let d2 = self
                                .cache
                                .mark_dirty(self.fs.inode_block(ino), Origin::Metadata);
                            deadline = deadline.or(self.writeback(now, &d2));
                            let proc = self.procs.get_mut(&pid).expect("registered");
                            let fd = proc.next_fd;
                            proc.next_fd += 1;
                            proc.fds.insert(
                                fd,
                                OpenFile {
                                    ino,
                                    ra: ReadAhead::new(),
                                },
                            );
                            return (
                                Outcome::Done {
                                    result: SysResult::Fd(fd),
                                    cpu_us: base,
                                },
                                deadline,
                            );
                        }
                        Err(e) => {
                            return (
                                Outcome::Done {
                                    result: SysResult::Err(e),
                                    cpu_us: base,
                                },
                                None,
                            )
                        }
                    },
                    None => {
                        return (
                            Outcome::Done {
                                result: SysResult::Err(SysError::NotFound),
                                cpu_us: base,
                            },
                            None,
                        )
                    }
                };
                // Existing file: the lookup reads directory + inode blocks.
                let meta = [self.fs.dir_block(), self.fs.inode_block(ino)];
                let misses: Vec<BlockNo> = meta
                    .iter()
                    .copied()
                    .filter(|b| !self.cache.touch(*b))
                    .collect();
                self.obs
                    .cache_access((meta.len() - misses.len()) as u32, misses.len() as u32);
                for b in &misses {
                    let wb = self.cache.insert_clean(*b, Origin::Metadata);
                    // Evictions from metadata fill are rare; handle anyway.
                    let _ = self.writeback(now, &wb);
                }
                let proc = self.procs.get_mut(&pid).expect("registered");
                let fd = proc.next_fd;
                proc.next_fd += 1;
                proc.fds.insert(
                    fd,
                    OpenFile {
                        ino,
                        ra: ReadAhead::new(),
                    },
                );
                if misses.is_empty() {
                    return (
                        Outcome::Done {
                            result: SysResult::Fd(fd),
                            cpu_us: base,
                        },
                        None,
                    );
                }
                let proc = self.procs.get_mut(&pid).expect("registered");
                proc.wait = Some(Wait {
                    outstanding: 0,
                    kind: WaitKind::Syscall {
                        result: SysResult::Fd(fd),
                    },
                });
                let (_, deadline) = self.submit_block_runs(
                    now,
                    &misses,
                    Op::Read,
                    Origin::Metadata,
                    Some(pid),
                    false,
                );
                (Outcome::Blocked, deadline)
            }

            Syscall::Close { fd } => {
                let proc = self.procs.get_mut(&pid).expect("registered");
                let result = if proc.fds.remove(&fd).is_some() {
                    SysResult::Unit
                } else {
                    SysResult::Err(SysError::BadFd)
                };
                (
                    Outcome::Done {
                        result,
                        cpu_us: base,
                    },
                    None,
                )
            }

            Syscall::ReadAt { fd, offset, len } => self.sys_read(now, pid, fd, offset, len),

            Syscall::WriteAt { fd, offset, data } => {
                let Some(of) = self.procs.get(&pid).and_then(|p| p.fds.get(&fd)) else {
                    return (
                        Outcome::Done {
                            result: SysResult::Err(SysError::BadFd),
                            cpu_us: base,
                        },
                        None,
                    );
                };
                let ino = of.ino;
                let origin = match self.fs.inode(ino).map(|i| i.placement) {
                    Some(Placement::Log) => Origin::Log,
                    _ => Origin::FileData,
                };
                let n = data.len() as u32;
                let cpu = base + (data.len() as u64 * self.cfg.copy_us_per_kb) / 1024;
                match self.apply_write(now, ino, offset, &data, origin) {
                    Ok(deadline) => (
                        Outcome::Done {
                            result: SysResult::Written(n),
                            cpu_us: cpu,
                        },
                        deadline,
                    ),
                    Err(e) => (
                        Outcome::Done {
                            result: SysResult::Err(e),
                            cpu_us: base,
                        },
                        None,
                    ),
                }
            }

            Syscall::Append { fd, data } => {
                let Some(of) = self.procs.get(&pid).and_then(|p| p.fds.get(&fd)) else {
                    return (
                        Outcome::Done {
                            result: SysResult::Err(SysError::BadFd),
                            cpu_us: base,
                        },
                        None,
                    );
                };
                let ino = of.ino;
                let offset = self.fs.inode(ino).map(|i| i.size).unwrap_or(0);
                self.syscall(now, pid, Syscall::WriteAt { fd, offset, data })
            }

            Syscall::Fsync { fd } => {
                let Some(of) = self.procs.get(&pid).and_then(|p| p.fds.get(&fd)) else {
                    return (
                        Outcome::Done {
                            result: SysResult::Err(SysError::BadFd),
                            cpu_us: base,
                        },
                        None,
                    );
                };
                let ino = of.ino;
                let mut blocks = self
                    .fs
                    .inode(ino)
                    .map(|i| i.blocks.clone())
                    .unwrap_or_default();
                blocks.push(self.fs.inode_block(ino));
                let dirty = self.cache.take_dirty_among(&blocks);
                if dirty.is_empty() {
                    return (
                        Outcome::Done {
                            result: SysResult::Unit,
                            cpu_us: base,
                        },
                        None,
                    );
                }
                let proc = self.procs.get_mut(&pid).expect("registered");
                proc.wait = Some(Wait {
                    outstanding: 0,
                    kind: WaitKind::Syscall {
                        result: SysResult::Unit,
                    },
                });
                let blocks: Vec<BlockNo> = dirty.iter().map(|(b, _)| *b).collect();
                let origin = dirty.first().map(|(_, o)| *o).unwrap_or(Origin::FileData);
                self.obs.writeback_blocks(blocks.len() as u64);
                let (_, deadline) =
                    self.submit_block_runs(now, &blocks, Op::Write, origin, Some(pid), false);
                (Outcome::Blocked, deadline)
            }

            Syscall::Sync => {
                let dirty = self.cache.take_dirty();
                if dirty.is_empty() {
                    return (
                        Outcome::Done {
                            result: SysResult::Unit,
                            cpu_us: base,
                        },
                        None,
                    );
                }
                let proc = self.procs.get_mut(&pid).expect("registered");
                proc.wait = Some(Wait {
                    outstanding: 0,
                    kind: WaitKind::Syscall {
                        result: SysResult::Unit,
                    },
                });
                self.obs.writeback_blocks(dirty.len() as u64);
                let mut deadline = None;
                for (b, origin) in dirty {
                    let d = self.submit(
                        now,
                        b * SECTORS_PER_BLOCK,
                        SECTORS_PER_BLOCK as u16,
                        Op::Write,
                        origin,
                        Vec::new(),
                        Some(pid),
                    );
                    deadline = deadline.or(d);
                }
                (Outcome::Blocked, deadline)
            }

            Syscall::Stat { path } => {
                let result = match self.fs.lookup(&path) {
                    Some(ino) => SysResult::Stat {
                        size: self.fs.inode(ino).map(|i| i.size).unwrap_or(0),
                    },
                    None => SysResult::Err(SysError::NotFound),
                };
                (
                    Outcome::Done {
                        result,
                        cpu_us: base,
                    },
                    None,
                )
            }

            Syscall::Unlink { path } => match self.fs.unlink(&path) {
                Ok(meta) => {
                    let mut deadline = None;
                    for b in meta {
                        let wb = self.cache.mark_dirty(b, Origin::Metadata);
                        deadline = deadline.or(self.writeback(now, &wb));
                    }
                    (
                        Outcome::Done {
                            result: SysResult::Unit,
                            cpu_us: base,
                        },
                        deadline,
                    )
                }
                Err(e) => (
                    Outcome::Done {
                        result: SysResult::Err(e),
                        cpu_us: base,
                    },
                    None,
                ),
            },

            Syscall::MapAnon { pages } => {
                if pages == 0 {
                    return (
                        Outcome::Done {
                            result: SysResult::Err(SysError::Invalid),
                            cpu_us: base,
                        },
                        None,
                    );
                }
                let basevpn = self.vm.map_anon(pid, pages);
                (
                    Outcome::Done {
                        result: SysResult::Mapped {
                            base: basevpn,
                            pages,
                        },
                        cpu_us: base,
                    },
                    None,
                )
            }

            Syscall::MapText { path } => {
                let Some(ino) = self.fs.lookup(&path) else {
                    return (
                        Outcome::Done {
                            result: SysResult::Err(SysError::NotFound),
                            cpu_us: base,
                        },
                        None,
                    );
                };
                let size = self.fs.inode(ino).map(|i| i.size).unwrap_or(0);
                let pages = (size as u32).div_ceil(PAGE_BYTES).max(1);
                let basevpn = self.vm.map_text(pid, ino, pages);
                (
                    Outcome::Done {
                        result: SysResult::Mapped {
                            base: basevpn,
                            pages,
                        },
                        cpu_us: base,
                    },
                    None,
                )
            }

            Syscall::LogMsg { len } => {
                let deadline = self.append_log(now, len.clamp(1, 4096));
                (
                    Outcome::Done {
                        result: SysResult::Unit,
                        cpu_us: base,
                    },
                    deadline,
                )
            }
        }
    }

    fn sys_read(
        &mut self,
        now: SimTime,
        pid: Pid,
        fd: Fd,
        offset: u64,
        len: u32,
    ) -> (Outcome, Option<SimTime>) {
        let base = self.cfg.syscall_us;
        let Some(of) = self.procs.get(&pid).and_then(|p| p.fds.get(&fd)) else {
            return (
                Outcome::Done {
                    result: SysResult::Err(SysError::BadFd),
                    cpu_us: base,
                },
                None,
            );
        };
        let ino = of.ino;
        let plan = match self.fs.read_plan(ino, offset, len) {
            Ok(p) => p,
            Err(e) => {
                return (
                    Outcome::Done {
                        result: SysResult::Err(e),
                        cpu_us: base,
                    },
                    None,
                )
            }
        };
        let cpu = base + (plan.data.len() as u64 * self.cfg.copy_us_per_kb) / 1024;

        // Read-ahead bookkeeping (before cache checks, like the real path).
        let cap = if self.cfg.readahead {
            ReadAhead::cap_for(self.multiprogramming())
        } else {
            0
        };
        let of = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.fds.get_mut(&fd))
            .expect("checked above");
        let prefetch = of.ra.on_read(offset, len, cap);
        let ra_window = prefetch.as_ref().map(|p| p.blocks).unwrap_or(0);
        let ra_blocks: Vec<BlockNo> = match prefetch {
            Some(p) => self.fs.blocks_in_range(ino, p.start, p.blocks),
            None => Vec::new(),
        };

        // Demand misses.
        let misses: Vec<BlockNo> = plan
            .blocks
            .iter()
            .copied()
            .filter(|b| !self.cache.touch(*b))
            .collect();
        self.obs.cache_access(
            (plan.blocks.len() - misses.len()) as u32,
            misses.len() as u32,
        );
        let mut meta_misses: Vec<BlockNo> = Vec::new();
        if let Some(ind) = plan.indirect {
            if !self.cache.touch(ind) {
                self.obs.cache_access(0, 1);
                meta_misses.push(ind);
                let wb = self.cache.insert_clean(ind, Origin::Metadata);
                let _ = self.writeback(now, &wb);
            } else {
                self.obs.cache_access(1, 0);
            }
        }
        // Read-ahead misses (blocks not already cached), fetched async.
        let ra_misses: Vec<BlockNo> = ra_blocks
            .into_iter()
            .filter(|b| !self.cache.contains(*b))
            .collect();
        if ra_window > 0 {
            self.obs.readahead(ra_window, ra_misses.len() as u32);
        }

        let mut deadline = None;
        // Fill cache entries for everything being fetched.
        for b in misses.iter().chain(ra_misses.iter()) {
            let wb = self.cache.insert_clean(*b, Origin::FileData);
            deadline = deadline.or(self.writeback(now, &wb));
        }

        if misses.is_empty() && meta_misses.is_empty() {
            // Pure cache hit; read-ahead may still go to disk (async).
            if !ra_misses.is_empty() {
                // Demand block contiguous with read-ahead? Submit as one
                // run starting from the RA blocks only (demand was cached).
                let (_, d) = self.submit_block_runs(
                    now,
                    &ra_misses,
                    Op::Read,
                    Origin::FileData,
                    None,
                    false,
                );
                deadline = deadline.or(d);
            }
            return (
                Outcome::Done {
                    result: SysResult::Data(plan.data),
                    cpu_us: cpu,
                },
                deadline,
            );
        }

        // Blocking path: demand + read-ahead fetched together — contiguous
        // runs spanning both become single large physical requests (the
        // "cache-fill" transfers of Figures 3/5).
        self.procs.get_mut(&pid).expect("registered").wait = Some(Wait {
            outstanding: 0,
            kind: WaitKind::Syscall {
                result: SysResult::Data(plan.data),
            },
        });
        let mut fetch: Vec<BlockNo> = misses;
        fetch.extend_from_slice(&ra_misses);
        fetch.sort_unstable();
        fetch.dedup();
        let (_, d) =
            self.submit_block_runs(now, &fetch, Op::Read, Origin::FileData, Some(pid), false);
        deadline = deadline.or(d);
        if !meta_misses.is_empty() {
            let (_, d2) = self.submit_block_runs(
                now,
                &meta_misses,
                Op::Read,
                Origin::Metadata,
                Some(pid),
                false,
            );
            deadline = deadline.or(d2);
        }
        (Outcome::Blocked, deadline)
    }

    // ------------------------------------------------------------------
    // Page touches
    // ------------------------------------------------------------------

    /// Feed a batch of page touches from `pid`.
    pub fn touches(
        &mut self,
        now: SimTime,
        pid: Pid,
        touches: Vec<Vpn>,
    ) -> (TouchOutcome, Option<SimTime>) {
        self.drive_touches(now, pid, touches, 0, 0)
    }

    /// Touch `touches[next..]` in order until one needs a blocking read.
    fn drive_touches(
        &mut self,
        now: SimTime,
        pid: Pid,
        touches: Vec<Vpn>,
        mut next: usize,
        mut cpu_us: u64,
    ) -> (TouchOutcome, Option<SimTime>) {
        let mut deadline = None;
        while let Some(&vpn) = touches.get(next) {
            next += 1;
            let (io, swap_outs) = match self.vm.touch(pid, vpn) {
                TouchResult::Hit => continue,
                TouchResult::BadAddress => {
                    return (TouchOutcome::Fatal("segmentation fault"), deadline)
                }
                TouchResult::OutOfMemory => {
                    return (TouchOutcome::Fatal("out of memory (swap full)"), deadline)
                }
                TouchResult::Fault { io, swap_outs } => (io, swap_outs),
            };
            cpu_us += self.cfg.fault_us;
            if !swap_outs.is_empty() {
                let scope = self.obs.begin(now, SpanKind::SwapOut, Some(pid));
                for slot in swap_outs {
                    let sector = self.vm.slot_sector(slot);
                    let d = self.submit(
                        now,
                        sector,
                        SECTORS_PER_PAGE as u16,
                        Op::Write,
                        Origin::SwapOut,
                        Vec::new(),
                        None,
                    );
                    deadline = deadline.or(d);
                }
                self.obs.finish(now, scope);
            }
            let (sector, span, origin) = match io {
                FaultIo::None => continue,
                FaultIo::SwapIn { slot } => {
                    (self.vm.slot_sector(slot), SpanKind::SwapIn, Origin::SwapIn)
                }
                FaultIo::PageIn { ino, page } => {
                    let block = (self.fs.page_blocks(ino, page).first().copied())
                        .unwrap_or_else(|| self.fs.inode_block(ino));
                    (block * SECTORS_PER_BLOCK, SpanKind::PageIn, Origin::PageIn)
                }
            };
            self.procs.get_mut(&pid).expect("registered").wait = Some(Wait {
                outstanding: 0,
                kind: WaitKind::Touches {
                    touches,
                    next,
                    cpu_us,
                },
            });
            let scope = self.obs.begin(now, span, Some(pid));
            let d = self.submit(
                now,
                sector,
                SECTORS_PER_PAGE as u16,
                Op::Read,
                origin,
                Vec::new(),
                Some(pid),
            );
            self.obs.finish(now, scope);
            return (TouchOutcome::Blocked, deadline.or(d));
        }
        (TouchOutcome::Done { cpu_us }, deadline)
    }

    // ------------------------------------------------------------------
    // Disk completions
    // ------------------------------------------------------------------

    /// Retire the in-flight request. Returns processes to wake and the next
    /// completion deadline if the drive picked up more work.
    pub fn disk_complete(&mut self, now: SimTime) -> (Vec<(Pid, WakeKind)>, Option<SimTime>) {
        let (completion, mut deadline) = self.driver.on_complete(now);
        if completion.failed {
            let d = self.retry_failed(now, &completion);
            return (Vec::new(), deadline.or(d));
        }
        // Expand retry-group tokens back to the original logical tokens
        // they stood in for before fanning out.
        let mut tokens = Vec::with_capacity(completion.tokens.len());
        for t in completion.tokens {
            if let Some(group) = self.retries.remove(&t) {
                tokens.extend(group.tokens);
            } else {
                tokens.push(t);
            }
        }
        let mut wakes = Vec::new();
        for token in tokens {
            let Some(info) = self.tokens.remove(&token) else {
                continue;
            };
            for b in info.fill_blocks {
                let wb = self.cache.insert_clean(b, Origin::FileData);
                deadline = deadline.or(self.writeback(now, &wb));
            }
            let Some(pid) = info.waiter else { continue };
            let Some(proc) = self.procs.get_mut(&pid) else {
                continue;
            };
            let Some(wait) = proc.wait.as_mut() else {
                continue;
            };
            debug_assert!(wait.outstanding > 0, "token fan-in accounting");
            wait.outstanding -= 1;
            if wait.outstanding > 0 {
                continue;
            }
            // Last awaited transfer: resolve the wait.
            let wait = proc.wait.take().expect("present above");
            match wait.kind {
                WaitKind::Syscall { result } => wakes.push((pid, WakeKind::Syscall(result))),
                WaitKind::Touches {
                    touches,
                    next,
                    cpu_us,
                } => {
                    let (outcome, d) = self.drive_touches(now, pid, touches, next, cpu_us);
                    deadline = deadline.or(d);
                    match outcome {
                        TouchOutcome::Done { cpu_us } => {
                            wakes.push((pid, WakeKind::TouchDone { cpu_us }))
                        }
                        TouchOutcome::Blocked => {}
                        TouchOutcome::Fatal(m) => wakes.push((pid, WakeKind::Fatal(m))),
                    }
                }
            }
        }
        (wakes, deadline)
    }

    /// Resubmit a failed physical request. Bounded recovery: up to
    /// `max_retries` plain retries (each a fresh fault trial), then a
    /// relocation to the spare region, which is fault-exempt and therefore
    /// always lands. Every retry re-enters the trace as a real duplicate
    /// physical request — exactly what the instrumented driver would have
    /// recorded on hardware. The original logical tokens stay pending (and
    /// their waiters blocked) until a retry succeeds.
    fn retry_failed(&mut self, now: SimTime, completion: &Completion) -> Option<SimTime> {
        let mut originals = Vec::new();
        let mut attempts = 0u32;
        for t in &completion.tokens {
            if let Some(group) = self.retries.remove(t) {
                attempts = attempts.max(group.attempts);
                originals.extend(group.tokens);
            } else {
                originals.push(*t);
            }
        }
        attempts += 1;
        let max_retries = self
            .cfg
            .disk_faults
            .as_ref()
            .map(|f| f.max_retries)
            .unwrap_or(0);
        let relocated = attempts > max_retries;
        self.retry_stats.retries += 1;
        if relocated {
            self.retry_stats.relocations += 1;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.obs.disk_retry(token, &originals, relocated);
        self.retries.insert(
            token,
            RetryGroup {
                tokens: originals,
                attempts,
            },
        );
        match self.driver.submit(
            now,
            BlockRequest {
                sector: completion.sector,
                nsectors: completion.nsectors,
                op: completion.op,
                origin: completion.origin,
                token,
                relocated,
            },
        ) {
            SubmitOutcome::Dispatched { completes_at } => Some(completes_at),
            SubmitOutcome::Queued | SubmitOutcome::Merged => None,
        }
    }

    // ------------------------------------------------------------------
    // Daemons
    // ------------------------------------------------------------------

    /// Run one daemon tick. Returns a disk deadline (if the tick started the
    /// drive) and the absolute time of the daemon's next tick.
    pub fn daemon_tick(&mut self, now: SimTime, kind: DaemonKind) -> (Option<SimTime>, SimTime) {
        let deadline = match kind {
            DaemonKind::Update => {
                let dirty = self.cache.take_dirty();
                let mut deadline = None;
                if !dirty.is_empty() {
                    let scope = self.obs.begin(now, SpanKind::DaemonFlush, None);
                    self.obs.writeback_blocks(dirty.len() as u64);
                    for (b, origin) in dirty {
                        let d = self.submit(
                            now,
                            b * SECTORS_PER_BLOCK,
                            SECTORS_PER_BLOCK as u16,
                            Op::Write,
                            origin,
                            Vec::new(),
                            None,
                        );
                        deadline = deadline.or(d);
                    }
                    self.obs.finish(now, scope);
                }
                deadline
            }
            DaemonKind::Syslog => {
                let len = self.cfg.daemons.syslog_line_len(&mut self.rng);
                self.append_log(now, len)
            }
            DaemonKind::KTable => {
                // Rotating fixed-size table: overwrites in place, so it
                // stays a compact high-sector hot region.
                let rec = vec![0xAAu8; self.cfg.daemons.ktable_bytes as usize];
                let off = self.ktable_offset;
                self.ktable_offset = (self.ktable_offset + rec.len() as u64) % (64 * 1024);
                self.apply_write(now, self.ktable_ino, off, &rec, Origin::Log)
                    .expect("table region has space")
            }
            DaemonKind::TraceSpool => {
                if !self.cfg.spool_trace {
                    None
                } else {
                    let total = self.driver.stats().dispatched;
                    let new = total.saturating_sub(self.spooled_records);
                    self.spooled_records = total;
                    if new == 0 {
                        None
                    } else {
                        let bytes = new * essio_trace::codec::RECORD_BYTES as u64;
                        let off = self.fs.inode(self.spool_ino).map(|i| i.size).unwrap_or(0);
                        let data = vec![0x55u8; bytes as usize];
                        self.apply_write(now, self.spool_ino, off, &data, Origin::TraceDump)
                            .expect("spool region has space")
                    }
                }
            }
        };
        let next = self.cfg.daemons.next_tick(kind, now, &mut self.rng);
        (deadline, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pump the node's single disk to quiescence, collecting wakes.
    fn pump(k: &mut Kernel, mut deadline: Option<SimTime>) -> (Vec<(Pid, WakeKind)>, SimTime) {
        let mut wakes = Vec::new();
        let mut last = 0;
        while let Some(t) = deadline {
            last = t;
            let (w, d) = k.disk_complete(t);
            wakes.extend(w);
            deadline = d;
        }
        (wakes, last)
    }

    /// Test harness that tracks the node's single outstanding disk deadline
    /// across operations — async effects (write-back, read-ahead, swap-out)
    /// return a deadline even on `Done` outcomes, and it must be pumped.
    struct Pump {
        k: Kernel,
        pending: Option<SimTime>,
        now: SimTime,
    }

    impl Pump {
        fn new(k: Kernel) -> Self {
            Self {
                k,
                pending: None,
                now: 0,
            }
        }

        fn merge(&mut self, d: Option<SimTime>) {
            if let Some(t) = d {
                assert!(self.pending.is_none(), "two outstanding disk deadlines");
                self.pending = Some(t);
            }
        }

        fn drain(&mut self) -> Vec<(Pid, WakeKind)> {
            let mut wakes = Vec::new();
            while let Some(t) = self.pending.take() {
                self.now = self.now.max(t);
                let (w, d) = self.k.disk_complete(t);
                wakes.extend(w);
                self.pending = d;
            }
            wakes
        }

        /// Run a syscall, draining the disk as needed; returns the result.
        fn sys(&mut self, pid: Pid, call: Syscall) -> SysResult {
            self.now += 1_000;
            let (o, d) = self.k.syscall(self.now, pid, call);
            self.merge(d);
            match o {
                Outcome::Done { result, .. } => {
                    self.drain();
                    result
                }
                Outcome::Blocked => {
                    let wakes = self.drain();
                    let (_, wake) = wakes
                        .into_iter()
                        .find(|(p, _)| *p == pid)
                        .expect("blocked syscall must wake");
                    match wake {
                        WakeKind::Syscall(r) => r,
                        other => panic!("expected syscall wake, got {other:?}"),
                    }
                }
            }
        }

        /// Feed touches, draining the disk as needed.
        fn touch(&mut self, pid: Pid, vpns: Vec<Vpn>) {
            self.now += 100;
            let (o, d) = self.k.touches(self.now, pid, vpns);
            self.merge(d);
            match o {
                TouchOutcome::Done { .. } => {
                    self.drain();
                }
                TouchOutcome::Blocked => {
                    let wakes = self.drain();
                    assert!(
                        wakes
                            .iter()
                            .any(|(p, w)| *p == pid && matches!(w, WakeKind::TouchDone { .. })),
                        "blocked touch stream must wake: {wakes:?}"
                    );
                }
                TouchOutcome::Fatal(m) => panic!("unexpected fatal: {m}"),
            }
        }
    }

    fn kernel() -> Kernel {
        let mut cfg = KernelConfig::beowulf(0);
        cfg.spool_trace = false;
        let mut k = Kernel::new(cfg);
        k.set_instrumentation(InstrumentationLevel::Full);
        k
    }

    #[test]
    fn failed_commands_retry_then_relocate_as_duplicate_trace_records() {
        let mut cfg = KernelConfig::beowulf(0);
        cfg.spool_trace = false;
        // Every command returns a media error until the relocation, which
        // is fault-exempt: each physical request takes 3 failed attempts
        // (1 original + 2 retries) and then a relocated success.
        cfg.disk_faults = Some(essio_faults::DiskFaultConfig {
            media_error_every: 1,
            max_retries: 2,
            ..Default::default()
        });
        let mut k = Kernel::new(cfg);
        k.set_instrumentation(InstrumentationLevel::Full);
        let payload = vec![9u8; 1000];
        k.install_file("/data", Placement::User, &payload);
        let mut p = Pump::new(k);
        p.k.register_process(1);
        let fd = p
            .sys(
                1,
                Syscall::Open {
                    path: "/data".into(),
                    create: false,
                    placement: Placement::User,
                },
            )
            .fd();
        let r = p.sys(
            1,
            Syscall::ReadAt {
                fd,
                offset: 0,
                len: 1000,
            },
        );
        assert_eq!(r.data(), payload, "the read still completes");
        let s = p.k.driver_stats();
        assert!(s.media_errors > 0, "faults fired");
        assert_eq!(
            s.dispatched,
            4 * s.relocated,
            "every request: 3 failed attempts then one relocated success"
        );
        let retries = p.k.retry_stats();
        assert_eq!(retries.retries, 3 * retries.relocations);
        // The retries are *real* duplicate physical requests in the trace.
        let recs = p.k.drain_trace();
        assert_eq!(recs.len() as u64, s.dispatched);
        let first = recs[0];
        let dups = recs
            .iter()
            .filter(|r| r.sector == first.sector && r.nsectors == first.nsectors)
            .count();
        assert_eq!(dups, 4, "the first request appears 4 times in the trace");
    }

    #[test]
    fn power_fail_drops_volatile_state_but_keeps_the_fs() {
        let mut k = kernel();
        k.register_process(1);
        let (o, d) = k.syscall(
            0,
            1,
            Syscall::Open {
                path: "/out".into(),
                create: true,
                placement: Placement::User,
            },
        );
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        let fd = result.fd();
        pump(&mut k, d);
        let (_, d) = k.syscall(
            1_000,
            1,
            Syscall::WriteAt {
                fd,
                offset: 0,
                data: vec![3u8; 4096],
            },
        );
        pump(&mut k, d);
        let report = k.power_fail();
        assert!(report.dirty_blocks_lost > 0, "unflushed writes were lost");
        assert_eq!(k.drain_trace().len(), 0, "ring discarded");
        assert!(k.fs().lookup("/out").is_some(), "the disk survived");
    }

    #[test]
    fn open_create_write_read_roundtrip() {
        let mut k = kernel();
        k.register_process(1);
        let (o, d) = k.syscall(
            0,
            1,
            Syscall::Open {
                path: "/out".into(),
                create: true,
                placement: Placement::User,
            },
        );
        let Outcome::Done { result, .. } = o else {
            panic!("create cannot block")
        };
        let fd = result.fd();
        pump(&mut k, d);

        let payload: Vec<u8> = (0..5000u32).map(|i| (i & 0xFF) as u8).collect();
        let (o, d) = k.syscall(
            1_000,
            1,
            Syscall::WriteAt {
                fd,
                offset: 0,
                data: payload.clone(),
            },
        );
        let Outcome::Done {
            result: SysResult::Written(n),
            ..
        } = o
        else {
            panic!()
        };
        assert_eq!(n, 5000);
        pump(&mut k, d);

        // Read back while still cached: no disk read.
        let before = k.driver_stats().dispatched;
        let (o, d) = k.syscall(
            2_000,
            1,
            Syscall::ReadAt {
                fd,
                offset: 0,
                len: 5000,
            },
        );
        let Outcome::Done { result, .. } = o else {
            panic!("cached read must not block")
        };
        assert_eq!(result.data(), payload);
        assert!(d.is_none());
        assert_eq!(k.driver_stats().dispatched, before);
    }

    #[test]
    fn cold_read_blocks_and_wakes_with_data() {
        let mut k = kernel();
        let payload = vec![7u8; 3000];
        k.install_file("/data", Placement::User, &payload);
        k.register_process(1);
        let (o, d) = k.syscall(
            0,
            1,
            Syscall::Open {
                path: "/data".into(),
                create: false,
                placement: Placement::User,
            },
        );
        let fd = match o {
            Outcome::Done { result, .. } => result.fd(),
            Outcome::Blocked => {
                let (wakes, _) = pump(&mut k, d);
                let WakeKind::Syscall(r) = &wakes[0].1 else {
                    panic!()
                };
                r.clone().fd()
            }
        };
        let (o, d) = k.syscall(
            10_000,
            1,
            Syscall::ReadAt {
                fd,
                offset: 0,
                len: 3000,
            },
        );
        assert!(matches!(o, Outcome::Blocked), "cold read must hit the disk");
        let (wakes, _) = pump(&mut k, d);
        assert_eq!(wakes.len(), 1);
        let WakeKind::Syscall(SysResult::Data(data)) = &wakes[0].1 else {
            panic!()
        };
        assert_eq!(data, &payload);
        // And the trace saw read requests.
        let recs = k.drain_trace();
        assert!(recs.iter().any(|r| r.op == Op::Read));
    }

    #[test]
    fn sequential_reads_grow_readahead_requests() {
        let mut k = kernel();
        let payload = vec![1u8; 256 * 1024];
        k.install_file("/image", Placement::User, &payload);
        k.register_process(1);
        let mut p = Pump::new(k);
        let fd = p
            .sys(
                1,
                Syscall::Open {
                    path: "/image".into(),
                    create: false,
                    placement: Placement::User,
                },
            )
            .fd();
        // Stream the file 1 KB at a time.
        for i in 0..160u64 {
            let data = p
                .sys(
                    1,
                    Syscall::ReadAt {
                        fd,
                        offset: i * 1024,
                        len: 1024,
                    },
                )
                .data();
            assert_eq!(data.len(), 1024);
        }
        let recs = p.k.drain_trace();
        let reads: Vec<_> = recs
            .iter()
            .filter(|r| r.op == Op::Read && r.origin == Origin::FileData)
            .collect();
        assert!(!reads.is_empty());
        let max_kib = reads.iter().map(|r| r.bytes()).max().unwrap() / 1024;
        assert!(
            max_kib >= 8,
            "read-ahead must grow large requests, max {max_kib} KiB"
        );
        // Far fewer physical reads than 1 KB syscalls.
        assert!(
            reads.len() < 100,
            "{} physical reads for 160 KB streamed",
            reads.len()
        );
    }

    #[test]
    fn readahead_off_means_block_sized_reads() {
        let mut cfg = KernelConfig::beowulf(0);
        cfg.spool_trace = false;
        cfg.readahead = false;
        let mut k = Kernel::new(cfg);
        k.set_instrumentation(InstrumentationLevel::Full);
        k.install_file("/image", Placement::User, &vec![1u8; 32 * 1024]);
        k.register_process(1);
        let mut p = Pump::new(k);
        let fd = p
            .sys(
                1,
                Syscall::Open {
                    path: "/image".into(),
                    create: false,
                    placement: Placement::User,
                },
            )
            .fd();
        for i in 0..32u64 {
            p.sys(
                1,
                Syscall::ReadAt {
                    fd,
                    offset: i * 1024,
                    len: 1024,
                },
            );
        }
        let recs = p.k.drain_trace();
        let reads: Vec<_> = recs
            .iter()
            .filter(|r| r.op == Op::Read && r.origin == Origin::FileData)
            .collect();
        assert_eq!(
            reads.len(),
            32,
            "every block is its own request without read-ahead"
        );
        assert!(reads.iter().all(|r| r.bytes() == 1024));
    }

    #[test]
    fn writes_are_asynchronous_and_flushed_by_update() {
        let mut k = kernel();
        k.register_process(1);
        let (o, _) = k.syscall(
            0,
            1,
            Syscall::Open {
                path: "/o".into(),
                create: true,
                placement: Placement::User,
            },
        );
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        let fd = result.fd();
        let (o, d) = k.syscall(
            1,
            1,
            Syscall::WriteAt {
                fd,
                offset: 0,
                data: vec![9u8; 4096],
            },
        );
        assert!(
            matches!(o, Outcome::Done { .. }),
            "write-back write returns immediately"
        );
        assert!(d.is_none(), "no disk I/O yet");
        // update daemon flushes the dirty blocks.
        let (d, _next) = k.daemon_tick(5_000_000, DaemonKind::Update);
        assert!(d.is_some(), "flush starts the drive");
        pump(&mut k, d);
        let recs = k.drain_trace();
        let writes: Vec<_> = recs.iter().filter(|r| r.op == Op::Write).collect();
        assert!(!writes.is_empty());
        // Contiguous dirty data blocks merged into multi-KB physical writes.
        assert!(
            writes.iter().any(|r| r.bytes() >= 2048),
            "flush should merge contiguous blocks"
        );
    }

    #[test]
    fn fsync_blocks_until_file_blocks_are_on_disk() {
        let mut k = kernel();
        k.register_process(1);
        let (o, _) = k.syscall(
            0,
            1,
            Syscall::Open {
                path: "/o".into(),
                create: true,
                placement: Placement::User,
            },
        );
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        let fd = result.fd();
        k.syscall(
            1,
            1,
            Syscall::WriteAt {
                fd,
                offset: 0,
                data: vec![9u8; 2048],
            },
        );
        let (o, d) = k.syscall(2, 1, Syscall::Fsync { fd });
        assert!(matches!(o, Outcome::Blocked));
        let (wakes, _) = pump(&mut k, d);
        assert!(matches!(wakes[0].1, WakeKind::Syscall(SysResult::Unit)));
        // Second fsync: nothing dirty → immediate.
        let (o, d) = k.syscall(100_000, 1, Syscall::Fsync { fd });
        assert!(matches!(
            o,
            Outcome::Done {
                result: SysResult::Unit,
                ..
            }
        ));
        assert!(d.is_none());
    }

    #[test]
    fn anon_touch_zero_fill_is_synchronous() {
        let mut k = kernel();
        k.register_process(1);
        let (o, _) = k.syscall(0, 1, Syscall::MapAnon { pages: 4 });
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        let (base, _) = result.mapped();
        let (o, d) = k.touches(10, 1, vec![base, base + 1, base + 2]);
        let TouchOutcome::Done { cpu_us } = o else {
            panic!("zero-fill needs no I/O")
        };
        assert_eq!(cpu_us, 3 * 300);
        assert!(d.is_none());
    }

    #[test]
    fn text_touch_pages_in_from_executable() {
        let mut k = kernel();
        k.install_file("/bin/app", Placement::User, &vec![0x90u8; 20 * 1024]);
        k.register_process(1);
        let (o, _) = k.syscall(
            0,
            1,
            Syscall::MapText {
                path: "/bin/app".into(),
            },
        );
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        let (base, pages) = result.mapped();
        assert_eq!(pages, 5);
        let (o, d) = k.touches(10, 1, vec![base]);
        assert!(
            matches!(o, TouchOutcome::Blocked),
            "text page-in hits the disk"
        );
        let (wakes, _) = pump(&mut k, d);
        assert!(matches!(wakes[0].1, WakeKind::TouchDone { .. }));
        let recs = k.drain_trace();
        let pageins: Vec<_> = recs.iter().filter(|r| r.origin == Origin::PageIn).collect();
        assert_eq!(pageins.len(), 1);
        assert_eq!(pageins[0].bytes(), 4096, "page-ins are the 4 KB class");
        assert_eq!(pageins[0].op, Op::Read);
    }

    #[test]
    fn memory_pressure_generates_swap_traffic_at_the_top_of_swap() {
        let mut cfg = KernelConfig::beowulf(0);
        cfg.spool_trace = false;
        cfg.frames_user = 8; // tiny pool to force paging
        let mut k = Kernel::new(cfg);
        k.set_instrumentation(InstrumentationLevel::Full);
        k.register_process(1);
        let mut p = Pump::new(k);
        let (base, _) = p.sys(1, Syscall::MapAnon { pages: 32 }).mapped();
        // Touch far more pages than frames, twice, to force swap in+out.
        for _round in 0..2 {
            for i in 0..32u64 {
                p.touch(1, vec![base + i]);
            }
        }
        let recs = p.k.drain_trace();
        let swap_outs: Vec<_> = recs
            .iter()
            .filter(|r| r.origin == Origin::SwapOut)
            .collect();
        let swap_ins: Vec<_> = recs.iter().filter(|r| r.origin == Origin::SwapIn).collect();
        assert!(!swap_outs.is_empty());
        assert!(!swap_ins.is_empty());
        for r in swap_outs.iter().chain(swap_ins.iter()) {
            assert_eq!(r.bytes(), 4096, "swap I/O is the 4 KB class");
            assert!(
                (300_000..400_000).contains(&r.sector),
                "swap area, sector {}",
                r.sector
            );
            assert!(
                r.sector >= 399_000,
                "hot slots just under 400,000, got {}",
                r.sector
            );
        }
    }

    #[test]
    fn wild_touch_is_fatal() {
        let mut k = kernel();
        k.register_process(1);
        let (o, _) = k.touches(0, 1, vec![0xDEAD_BEEF]);
        assert!(matches!(o, TouchOutcome::Fatal(_)));
    }

    #[test]
    fn baseline_daemons_write_log_and_high_regions() {
        let mut cfg = KernelConfig::beowulf(0);
        cfg.spool_trace = true;
        let mut k = Kernel::new(cfg);
        k.set_instrumentation(InstrumentationLevel::Full);
        let mut ticks = k.boot_deadlines(0);
        let mut guard = 0;
        // Run ~200 virtual seconds of daemon activity.
        while guard < 10_000 {
            guard += 1;
            ticks.sort_by_key(|(t, _)| *t);
            let (t, ev) = ticks.remove(0);
            if t > 200_000_000 {
                break;
            }
            match ev {
                KernelEvent::Daemon(kind) => {
                    let (d, next) = k.daemon_tick(t, kind);
                    ticks.push((next, KernelEvent::Daemon(kind)));
                    if let Some(dl) = d {
                        ticks.push((dl, KernelEvent::DiskComplete));
                    }
                }
                KernelEvent::DiskComplete => {
                    let (_, d) = k.disk_complete(t);
                    if let Some(dl) = d {
                        ticks.push((dl, KernelEvent::DiskComplete));
                    }
                }
            }
        }
        let recs = k.drain_trace();
        assert!(!recs.is_empty(), "daemons must generate traffic");
        assert!(
            recs.iter().all(|r| r.op == Op::Write),
            "baseline is write-only"
        );
        let low = recs
            .iter()
            .filter(|r| (40_000..60_000).contains(&r.sector))
            .count();
        let high = recs.iter().filter(|r| r.sector >= 940_000).count();
        // Block-group metadata (the log file's inode) lands near sector
        // 45,000 — the paper's hottest location.
        let group_meta = recs
            .iter()
            .filter(|r| (45_000..45_300).contains(&r.sector))
            .count();
        assert!(low > 0, "log-region writes expected");
        assert!(high > 0, "high-region writes expected");
        assert!(group_meta > 0, "log block-group metadata writes expected");
        // Rate in the right ballpark (Table 1: ~0.9/s; accept 0.3–2.0).
        let rate = recs.len() as f64 / 200.0;
        assert!((0.3..2.0).contains(&rate), "baseline rate {rate}");
    }

    #[test]
    fn process_exit_releases_resources_and_orphans_tokens() {
        let mut k = kernel();
        k.install_file("/bin/app", Placement::User, &vec![0u8; 8 * 1024]);
        k.register_process(1);
        let (o, _) = k.syscall(
            0,
            1,
            Syscall::MapText {
                path: "/bin/app".into(),
            },
        );
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        let (base, _) = result.mapped();
        let (o, d) = k.touches(1, 1, vec![base]);
        assert!(matches!(o, TouchOutcome::Blocked));
        k.process_exit(1);
        // Completion of the orphaned page-in must not wake anyone or panic.
        let (wakes, _) = pump(&mut k, d);
        assert!(wakes.is_empty());
    }

    #[test]
    fn unknown_fd_errors() {
        let mut k = kernel();
        k.register_process(1);
        let (o, _) = k.syscall(
            0,
            1,
            Syscall::ReadAt {
                fd: 99,
                offset: 0,
                len: 10,
            },
        );
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        assert_eq!(result, SysResult::Err(SysError::BadFd));
        let (o, _) = k.syscall(0, 1, Syscall::Close { fd: 99 });
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        assert_eq!(result, SysResult::Err(SysError::BadFd));
    }

    #[test]
    fn sync_flushes_everything() {
        let mut k = kernel();
        k.register_process(1);
        let (o, _) = k.syscall(
            0,
            1,
            Syscall::Open {
                path: "/a".into(),
                create: true,
                placement: Placement::User,
            },
        );
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        let fd = result.fd();
        k.syscall(
            1,
            1,
            Syscall::WriteAt {
                fd,
                offset: 0,
                data: vec![1u8; 3072],
            },
        );
        let (o, d) = k.syscall(2, 1, Syscall::Sync);
        assert!(matches!(o, Outcome::Blocked));
        let (wakes, _) = pump(&mut k, d);
        assert_eq!(wakes.len(), 1);
        // Everything clean now.
        let (o, d) = k.syscall(1_000_000, 1, Syscall::Sync);
        assert!(matches!(o, Outcome::Done { .. }));
        assert!(d.is_none());
    }
}
