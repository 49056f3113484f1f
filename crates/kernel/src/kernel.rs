//! The kernel dispatcher: syscalls, page-touch streams, daemons, and the
//! instrumented disk driver, glued into an event-loop friendly state
//! machine.
//!
//! ## Interaction contract with the world loop (the `essio` crate)
//!
//! * Process verbs arrive via [`Kernel::syscall`] and [`Kernel::touches`].
//!   Either completes immediately (`Done`, with a CPU cost the caller bills
//!   to virtual time) or parks the process (`Blocked`).
//! * Any call may start the disk. The kernel alone notes when its one drive
//!   goes idle → busy; after every call the caller asks
//!   [`Kernel::take_disk_deadline`] and, on `Some(t)`, schedules
//!   [`Kernel::disk_complete`] at `t`. At most one completion is ever
//!   outstanding per node (one drive, one in-flight request).
//! * [`Kernel::disk_complete`] retires the in-flight request, unparks any
//!   processes whose last awaited transfer finished, and resumes parked
//!   touch streams (which may block again). If the driver dispatched more
//!   work, its deadline is the next one to take.
//! * Daemons run off the ticks [`Kernel::boot_deadlines`] seeds; each
//!   [`Kernel::daemon_tick`] returns the next tick time, self-scheduling
//!   forever.

use std::collections::HashMap;

use essio_disk::{BlockRequest, Completion, IdeDriver, SubmitOutcome};
use essio_obs::{Obs, SpanKind, SpanScope};
use essio_sim::{SimRng, SimTime, Vpn};
use essio_trace::{InstrumentationLevel, Op, Origin, RecordSink};

use crate::cache::BufferCache;
use crate::daemons::{syslog_line_len, DaemonKind, KTABLE_BYTES};
use crate::fs::{BlockNo, Fs, SECTORS_PER_BLOCK};
use crate::readahead::ReadAhead;
use crate::syscall::{Fd, Ino, Pid, Placement, SysError, SysResult, Syscall};
use crate::vm::{FaultIo, TouchResult, Vm, PAGE_BYTES, SECTORS_PER_PAGE};

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

/// Fixed syscall entry cost, µs.
const SYSCALL_US: u64 = 150;
/// Data copy cost, µs per KiB (user↔kernel on a 486).
const COPY_US_PER_KB: u64 = 40;
/// Page-fault handler cost, µs.
const FAULT_US: u64 = 300;
/// Trace ring capacity, records: far more than one 5 s drain interval
/// produces at paper scale.
const TRACE_RING_RECORDS: usize = 1 << 21;

/// The settings of one node that runs, tests and ablations vary. The rest
/// of the machine (drive timing, CPU costs, daemon cadences, trace ring) is
/// fixed by the paper and lives in constants (DESIGN §5).
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Node id stamped into trace records.
    pub node: u8,
    /// User-available page frames (16 MB minus kernel and cache: 12 MB).
    pub frames_user: u32,
    /// Buffer cache capacity in 1 KB blocks (~1.5 MB).
    pub cache_blocks: usize,
    /// Disk scheduler policy.
    pub sched: essio_disk::SchedPolicy,
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
            spool_trace: true,
            readahead: true,
            seed: 0x5EED + node as u64,
            fault_seed: 0,
            disk_faults: None,
        }
    }
}

/// CPU cost of a syscall that copies `bytes` between user and kernel.
fn copy_cost(bytes: usize) -> u64 {
    SYSCALL_US + (bytes as u64 * COPY_US_PER_KB) / 1024
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
    /// In-flight logical requests: token → the process waiting on it.
    tokens: HashMap<u64, Option<Pid>>,
    retries: HashMap<u64, RetryGroup>,
    retry_stats: RetryStats,
    next_token: u64,
    /// Completion time of the request that last started the drive, until
    /// the world loop takes it.
    disk_due: Option<SimTime>,
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
        let mut driver = IdeDriver::new(
            cfg.node,
            essio_disk::TimingModel::beowulf_ide(),
            cfg.sched,
            TRACE_RING_RECORDS,
        );
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
            disk_due: None,
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
        self.disk_due = None;
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

    /// Stream every captured trace record into `sink` (the experiment's
    /// proc-fs reader) without materialising a `Vec`.
    pub fn drain_trace_into(&mut self, sink: &mut dyn RecordSink) -> usize {
        self.driver.drain_trace_into(sink)
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
        for waiter in self.tokens.values_mut() {
            if *waiter == Some(pid) {
                *waiter = None;
            }
        }
    }

    /// Initial daemon schedule; call once at boot.
    pub fn boot_deadlines(&mut self, now: SimTime) -> Vec<(SimTime, DaemonKind)> {
        DaemonKind::ALL
            .iter()
            .map(|&k| (k.next_tick(now, &mut self.rng), k))
            .collect()
    }

    /// When the last call started the idle drive, the time its request
    /// completes: the caller schedules [`Kernel::disk_complete`] then. Each
    /// start is handed out once; `None` otherwise.
    pub fn take_disk_deadline(&mut self) -> Option<SimTime> {
        self.disk_due.take()
    }

    // ------------------------------------------------------------------
    // Request submission plumbing
    // ------------------------------------------------------------------

    /// Note that a freshly dispatched request occupies the drive until `at`.
    fn busy_until(&mut self, at: SimTime) {
        debug_assert!(self.disk_due.is_none(), "two outstanding disk deadlines");
        self.disk_due = Some(at);
    }

    /// Hand one physical request to the driver: the only place the drive
    /// starts outside a completion.
    fn start(&mut self, now: SimTime, req: BlockRequest) {
        match self.driver.submit(now, req) {
            SubmitOutcome::Dispatched { completes_at } => self.busy_until(completes_at),
            SubmitOutcome::Queued | SubmitOutcome::Merged => {}
        }
    }

    fn submit(
        &mut self,
        now: SimTime,
        sector: u32,
        nsectors: u16,
        op: Op,
        origin: Origin,
        waiter: Option<Pid>,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        self.tokens.insert(token, waiter);
        if let Some(pid) = waiter {
            let proc = self.procs.get_mut(&pid).expect("waiter registered");
            proc.wait
                .as_mut()
                .expect("wait created before submit")
                .outstanding += 1;
        }
        self.start(
            now,
            BlockRequest {
                sector,
                nsectors,
                op,
                origin,
                token,
                relocated: false,
            },
        );
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

    /// One request per contiguous run of `blocks`.
    fn submit_block_runs(
        &mut self,
        now: SimTime,
        blocks: &[BlockNo],
        op: Op,
        origin: Origin,
        waiter: Option<Pid>,
    ) {
        for (start, len) in Self::runs(blocks) {
            let (sector, nsectors) = (start * SECTORS_PER_BLOCK, len * SECTORS_PER_BLOCK as u16);
            self.submit(now, sector, nsectors, op, origin, waiter);
        }
    }

    /// Write `blocks` back one block per request, in order.
    fn flush_blocks(&mut self, now: SimTime, blocks: &[(BlockNo, Origin)], waiter: Option<Pid>) {
        self.obs.writeback_blocks(blocks.len() as u64);
        for &(b, origin) in blocks {
            let sector = b * SECTORS_PER_BLOCK;
            self.submit(
                now,
                sector,
                SECTORS_PER_BLOCK as u16,
                Op::Write,
                origin,
                waiter,
            );
        }
    }

    /// Write back evicted dirty blocks (asynchronous, nobody waits).
    fn writeback(&mut self, now: SimTime, blocks: &[(BlockNo, Origin)]) {
        if blocks.is_empty() {
            return;
        }
        let scope = self.obs.begin(now, SpanKind::Writeback, None);
        self.flush_blocks(now, blocks, None);
        self.obs.finish(now, scope);
    }

    /// Cache `b` clean (it is being fetched), writing back what it evicts.
    fn fill(&mut self, now: SimTime, b: BlockNo, origin: Origin) {
        let wb = self.cache.insert_clean(b, origin);
        self.writeback(now, &wb);
    }

    /// Dirty `b` in the cache, writing back what it evicts.
    fn dirty(&mut self, now: SimTime, b: BlockNo, origin: Origin) {
        let wb = self.cache.mark_dirty(b, origin);
        self.writeback(now, &wb);
    }

    // ------------------------------------------------------------------
    // Internal file helpers (used by syscalls and daemons)
    // ------------------------------------------------------------------

    /// Dirty the blocks of a write in the cache.
    fn apply_write(
        &mut self,
        now: SimTime,
        ino: Ino,
        offset: u64,
        data: &[u8],
        origin: Origin,
    ) -> Result<(), SysError> {
        let outcome = self.fs.write_at(ino, offset, data)?;
        for b in outcome.data_blocks {
            self.dirty(now, b, origin);
        }
        for b in outcome.meta_blocks {
            self.dirty(now, b, Origin::Metadata);
        }
        Ok(())
    }

    /// Append to the syslog file (syslogd and `LogMsg`).
    fn append_log(&mut self, now: SimTime, len: u32) {
        let scope = self.obs.begin(now, SpanKind::Log, None);
        let line = vec![b'#'; len as usize];
        let off = self.log_offset;
        self.log_offset += len as u64;
        self.apply_write(now, self.syslog_ino, off, &line, Origin::Log)
            .expect("log region has space");
        self.obs.finish(now, scope);
    }

    /// Multiprogramming level (for the read-ahead boost): how many user
    /// processes currently share this node. Paper §4.3 attributes the
    /// combined run's 16–32 KB requests to "an increased I/O buffer size" —
    /// the kernel grows its streaming buffers when the machine is loaded.
    fn multiprogramming(&self) -> usize {
        self.procs.len()
    }

    /// The inode behind `pid`'s descriptor `fd`.
    fn open_file(&self, pid: Pid, fd: Fd) -> Result<Ino, SysError> {
        (self.procs.get(&pid).and_then(|p| p.fds.get(&fd)))
            .map(|of| of.ino)
            .ok_or(SysError::BadFd)
    }

    /// Give `pid` its next descriptor, open on `ino`.
    fn new_fd(&mut self, pid: Pid, ino: Ino) -> Fd {
        let proc = self.procs.get_mut(&pid).expect("registered");
        let fd = proc.next_fd;
        proc.next_fd += 1;
        let ra = ReadAhead::new();
        proc.fds.insert(fd, OpenFile { ino, ra });
        fd
    }

    /// Park `pid` until every request submitted for it from now on lands.
    fn park(&mut self, pid: Pid, kind: WaitKind) {
        let wait = Wait {
            outstanding: 0,
            kind,
        };
        self.procs.get_mut(&pid).expect("registered").wait = Some(wait);
    }

    /// A synchronous result that cost only the syscall entry.
    fn done(&self, result: SysResult) -> Outcome {
        Outcome::Done {
            result,
            cpu_us: SYSCALL_US,
        }
    }

    // ------------------------------------------------------------------
    // Syscalls
    // ------------------------------------------------------------------

    /// Handle a syscall from `pid`. An error costs the entry alone.
    ///
    /// I/O syscalls open a request span here, at the boundary; the span
    /// stays open past a `Blocked` return and closes when the last disk
    /// token it spawned completes (readahead tails included).
    pub fn syscall(&mut self, now: SimTime, pid: Pid, call: Syscall) -> Outcome {
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
        let out = match self.syscall_inner(now, pid, call) {
            Ok(out) => out,
            Err(e) => self.done(SysResult::Err(e)),
        };
        self.obs.finish(now, scope);
        out
    }

    fn syscall_inner(
        &mut self,
        now: SimTime,
        pid: Pid,
        call: Syscall,
    ) -> Result<Outcome, SysError> {
        debug_assert!(self.procs.contains_key(&pid), "unregistered pid {pid}");
        match call {
            Syscall::Open {
                path,
                create,
                placement,
            } => {
                let ino = match self.fs.lookup(&path) {
                    Some(ino) => ino,
                    None if create => {
                        let ino = self.fs.create(&path, placement)?;
                        // Creating dirties the directory + inode table.
                        self.dirty(now, self.fs.dir_block(), Origin::Metadata);
                        self.dirty(now, self.fs.inode_block(ino), Origin::Metadata);
                        let fd = self.new_fd(pid, ino);
                        return Ok(self.done(SysResult::Fd(fd)));
                    }
                    None => return Err(SysError::NotFound),
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
                for &b in &misses {
                    self.fill(now, b, Origin::Metadata);
                }
                let fd = self.new_fd(pid, ino);
                if misses.is_empty() {
                    return Ok(self.done(SysResult::Fd(fd)));
                }
                let result = SysResult::Fd(fd);
                self.park(pid, WaitKind::Syscall { result });
                self.submit_block_runs(now, &misses, Op::Read, Origin::Metadata, Some(pid));
                Ok(Outcome::Blocked)
            }

            Syscall::Close { fd } => {
                let proc = self.procs.get_mut(&pid).expect("registered");
                proc.fds.remove(&fd).ok_or(SysError::BadFd)?;
                Ok(self.done(SysResult::Unit))
            }

            Syscall::ReadAt { fd, offset, len } => self.sys_read(now, pid, fd, offset, len),

            Syscall::WriteAt { fd, offset, data } => {
                let ino = self.open_file(pid, fd)?;
                let origin = match self.fs.inode(ino).map(|i| i.placement) {
                    Some(Placement::Log) => Origin::Log,
                    _ => Origin::FileData,
                };
                self.apply_write(now, ino, offset, &data, origin)?;
                Ok(Outcome::Done {
                    result: SysResult::Written(data.len() as u32),
                    cpu_us: copy_cost(data.len()),
                })
            }

            Syscall::Append { fd, data } => {
                let ino = self.open_file(pid, fd)?;
                let offset = self.fs.inode(ino).map(|i| i.size).unwrap_or(0);
                Ok(self.syscall(now, pid, Syscall::WriteAt { fd, offset, data }))
            }

            Syscall::Fsync { fd } => {
                let ino = self.open_file(pid, fd)?;
                let mut blocks = self
                    .fs
                    .inode(ino)
                    .map(|i| i.blocks.clone())
                    .unwrap_or_default();
                blocks.push(self.fs.inode_block(ino));
                let dirty = self.cache.take_dirty_among(&blocks);
                if dirty.is_empty() {
                    return Ok(self.done(SysResult::Unit));
                }
                let result = SysResult::Unit;
                self.park(pid, WaitKind::Syscall { result });
                let blocks: Vec<BlockNo> = dirty.iter().map(|(b, _)| *b).collect();
                let origin = dirty.first().map(|(_, o)| *o).unwrap_or(Origin::FileData);
                self.obs.writeback_blocks(blocks.len() as u64);
                // Unlike `Sync`, one physical request per contiguous run.
                self.submit_block_runs(now, &blocks, Op::Write, origin, Some(pid));
                Ok(Outcome::Blocked)
            }

            Syscall::Sync => {
                let dirty = self.cache.take_dirty();
                if dirty.is_empty() {
                    return Ok(self.done(SysResult::Unit));
                }
                let result = SysResult::Unit;
                self.park(pid, WaitKind::Syscall { result });
                self.flush_blocks(now, &dirty, Some(pid));
                Ok(Outcome::Blocked)
            }

            Syscall::Stat { path } => {
                let ino = self.fs.lookup(&path).ok_or(SysError::NotFound)?;
                let size = self.fs.inode(ino).map(|i| i.size).unwrap_or(0);
                Ok(self.done(SysResult::Stat { size }))
            }

            Syscall::Unlink { path } => {
                let (meta, freed) = self.fs.unlink(&path)?;
                // A deleted file's cached blocks are dropped, not written
                // back into freed space.
                self.cache.invalidate(&freed);
                for b in meta {
                    self.dirty(now, b, Origin::Metadata);
                }
                Ok(self.done(SysResult::Unit))
            }

            Syscall::MapAnon { pages } => {
                if pages == 0 {
                    return Err(SysError::Invalid);
                }
                let base = self.vm.map_anon(pid, pages);
                Ok(self.done(SysResult::Mapped { base, pages }))
            }

            Syscall::MapText { path } => {
                let ino = self.fs.lookup(&path).ok_or(SysError::NotFound)?;
                let size = self.fs.inode(ino).map(|i| i.size).unwrap_or(0);
                let pages = (size as u32).div_ceil(PAGE_BYTES).max(1);
                let base = self.vm.map_text(pid, ino, pages);
                Ok(self.done(SysResult::Mapped { base, pages }))
            }

            Syscall::LogMsg { len } => {
                self.append_log(now, len.clamp(1, 4096));
                Ok(self.done(SysResult::Unit))
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
    ) -> Result<Outcome, SysError> {
        let ino = self.open_file(pid, fd)?;
        let plan = self.fs.read_plan(ino, offset, len)?;
        let cpu = copy_cost(plan.data.len());

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
                self.fill(now, ind, Origin::Metadata);
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

        // Fill cache entries for everything being fetched.
        for &b in misses.iter().chain(ra_misses.iter()) {
            self.fill(now, b, Origin::FileData);
        }

        if misses.is_empty() && meta_misses.is_empty() {
            // Pure cache hit; read-ahead may still go to disk (async), as
            // runs of the RA blocks only (demand was cached).
            self.submit_block_runs(now, &ra_misses, Op::Read, Origin::FileData, None);
            return Ok(Outcome::Done {
                result: SysResult::Data(plan.data),
                cpu_us: cpu,
            });
        }

        // Blocking path: demand + read-ahead fetched together — contiguous
        // runs spanning both become single large physical requests (the
        // "cache-fill" transfers of Figures 3/5).
        let result = SysResult::Data(plan.data);
        self.park(pid, WaitKind::Syscall { result });
        let mut fetch: Vec<BlockNo> = misses;
        fetch.extend_from_slice(&ra_misses);
        fetch.sort_unstable();
        fetch.dedup();
        self.submit_block_runs(now, &fetch, Op::Read, Origin::FileData, Some(pid));
        self.submit_block_runs(now, &meta_misses, Op::Read, Origin::Metadata, Some(pid));
        Ok(Outcome::Blocked)
    }

    // ------------------------------------------------------------------
    // Page touches
    // ------------------------------------------------------------------

    /// Feed a batch of page touches from `pid`.
    pub fn touches(&mut self, now: SimTime, pid: Pid, touches: Vec<Vpn>) -> TouchOutcome {
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
    ) -> TouchOutcome {
        while let Some(&vpn) = touches.get(next) {
            next += 1;
            let (io, swap_outs) = match self.vm.touch(pid, vpn) {
                TouchResult::Hit => continue,
                TouchResult::BadAddress => return TouchOutcome::Fatal("segmentation fault"),
                TouchResult::OutOfMemory => {
                    return TouchOutcome::Fatal("out of memory (swap full)")
                }
                TouchResult::Fault { io, swap_outs } => (io, swap_outs),
            };
            cpu_us += FAULT_US;
            if !swap_outs.is_empty() {
                let scope = self.obs.begin(now, SpanKind::SwapOut, Some(pid));
                for slot in swap_outs {
                    let sector = self.vm.slot_sector(slot);
                    let nsectors = SECTORS_PER_PAGE as u16;
                    self.submit(now, sector, nsectors, Op::Write, Origin::SwapOut, None);
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
            let kind = WaitKind::Touches {
                touches,
                next,
                cpu_us,
            };
            self.park(pid, kind);
            let scope = self.obs.begin(now, span, Some(pid));
            let nsectors = SECTORS_PER_PAGE as u16;
            self.submit(now, sector, nsectors, Op::Read, origin, Some(pid));
            self.obs.finish(now, scope);
            return TouchOutcome::Blocked;
        }
        TouchOutcome::Done { cpu_us }
    }

    // ------------------------------------------------------------------
    // Disk completions
    // ------------------------------------------------------------------

    /// Retire the in-flight request (whose deadline was taken). Returns the
    /// processes to wake; the next deadline, if the drive picked up more
    /// work, waits in [`Kernel::take_disk_deadline`].
    pub fn disk_complete(&mut self, now: SimTime) -> Vec<(Pid, WakeKind)> {
        let (completion, next) = self.driver.on_complete(now);
        if let Some(at) = next {
            self.busy_until(at);
        }
        if completion.failed {
            self.retry_failed(now, &completion);
            return Vec::new();
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
            let Some(Some(pid)) = self.tokens.remove(&token) else {
                continue;
            };
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
                } => match self.drive_touches(now, pid, touches, next, cpu_us) {
                    TouchOutcome::Done { cpu_us } => {
                        wakes.push((pid, WakeKind::TouchDone { cpu_us }))
                    }
                    TouchOutcome::Blocked => {}
                    TouchOutcome::Fatal(m) => wakes.push((pid, WakeKind::Fatal(m))),
                },
            }
        }
        wakes
    }

    /// Resubmit a failed physical request. Bounded recovery: up to
    /// `max_retries` plain retries (each a fresh fault trial), then a
    /// relocation to the spare region, which is fault-exempt and therefore
    /// always lands. Every retry re-enters the trace as a real duplicate
    /// physical request — exactly what the instrumented driver would have
    /// recorded on hardware. The original logical tokens stay pending (and
    /// their waiters blocked) until a retry succeeds.
    fn retry_failed(&mut self, now: SimTime, completion: &Completion) {
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
        self.start(
            now,
            BlockRequest {
                sector: completion.sector,
                nsectors: completion.nsectors,
                op: completion.op,
                origin: completion.origin,
                token,
                relocated,
            },
        );
    }

    // ------------------------------------------------------------------
    // Daemons
    // ------------------------------------------------------------------

    /// Run one daemon tick. Returns the absolute time of the daemon's next
    /// tick.
    pub fn daemon_tick(&mut self, now: SimTime, kind: DaemonKind) -> SimTime {
        match kind {
            DaemonKind::Update => {
                let dirty = self.cache.take_dirty();
                if !dirty.is_empty() {
                    let scope = self.obs.begin(now, SpanKind::DaemonFlush, None);
                    self.flush_blocks(now, &dirty, None);
                    self.obs.finish(now, scope);
                }
            }
            DaemonKind::Syslog => {
                let len = syslog_line_len(&mut self.rng);
                self.append_log(now, len);
            }
            DaemonKind::KTable => {
                // Rotating fixed-size table: overwrites in place, so it
                // stays a compact high-sector hot region.
                let rec = vec![0xAAu8; KTABLE_BYTES];
                let off = self.ktable_offset;
                self.ktable_offset = (self.ktable_offset + rec.len() as u64) % (64 * 1024);
                self.apply_write(now, self.ktable_ino, off, &rec, Origin::Log)
                    .expect("table region has space");
            }
            DaemonKind::TraceSpool if self.cfg.spool_trace => {
                let total = self.driver.stats().dispatched;
                let new = total.saturating_sub(self.spooled_records);
                self.spooled_records = total;
                if new > 0 {
                    let bytes = new * essio_trace::codec::RECORD_BYTES as u64;
                    let off = self.fs.inode(self.spool_ino).map(|i| i.size).unwrap_or(0);
                    let data = vec![0x55u8; bytes as usize];
                    self.apply_write(now, self.spool_ino, off, &data, Origin::TraceDump)
                        .expect("spool region has space");
                }
            }
            DaemonKind::TraceSpool => {}
        }
        kind.next_tick(now, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essio_trace::TraceRecord;

    /// Every trace record the kernel has captured, oldest first.
    fn trace(k: &mut Kernel) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        k.drain_trace_into(&mut out);
        out
    }

    /// Pump the node's single disk to quiescence, collecting wakes and
    /// the time of the last completion.
    fn pump(k: &mut Kernel) -> (Vec<(Pid, WakeKind)>, SimTime) {
        let mut wakes = Vec::new();
        let mut last = 0;
        while let Some(t) = k.take_disk_deadline() {
            last = t;
            wakes.extend(k.disk_complete(t));
        }
        (wakes, last)
    }

    /// Test harness that runs each operation to quiescence: async effects
    /// (write-back, read-ahead, swap-out) may start the drive even on
    /// `Done` outcomes, so every call is followed by a pump. The kernel
    /// itself asserts that at most one disk deadline is outstanding.
    struct Pump {
        k: Kernel,
        now: SimTime,
    }

    impl Pump {
        fn new(k: Kernel) -> Self {
            Self { k, now: 0 }
        }

        fn drain(&mut self) -> Vec<(Pid, WakeKind)> {
            let (wakes, last) = pump(&mut self.k);
            self.now = self.now.max(last);
            wakes
        }

        /// Run a syscall, draining the disk as needed; returns the result.
        fn sys(&mut self, pid: Pid, call: Syscall) -> SysResult {
            self.now += 1_000;
            match self.k.syscall(self.now, pid, call) {
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
            match self.k.touches(self.now, pid, vpns) {
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

    impl Kernel {
        /// Run a syscall for pid 1 that must complete at once.
        fn sys_done(&mut self, now: SimTime, call: Syscall) -> SysResult {
            let Outcome::Done { result, .. } = self.syscall(now, 1, call) else {
                panic!("unexpected block")
            };
            result
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
        let recs = trace(&mut p.k);
        assert_eq!(recs.len() as u64, s.dispatched);
        let first = recs[0];
        let dups = recs
            .iter()
            .filter(|r| r.sector == first.sector && r.nsectors == first.nsectors)
            .count();
        assert_eq!(dups, 4, "the first request appears 4 times in the trace");
    }

    #[test]
    fn a_write_back_started_by_a_metadata_fill_is_completed() {
        let mut cfg = KernelConfig::beowulf(0);
        cfg.spool_trace = false;
        cfg.cache_blocks = 8;
        let mut k = Kernel::new(cfg);
        k.set_instrumentation(InstrumentationLevel::Full);
        let payload: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 251) as u8).collect();
        k.install_file("/data", Placement::User, &payload);
        k.register_process(1);
        let mut p = Pump::new(k);
        let open = |path: &str, create| Syscall::Open {
            path: path.into(),
            create,
            placement: Placement::User,
        };
        let fd = p.sys(1, open("/data", false)).fd();
        let out = p.sys(1, open("/o", true)).fd();
        // Fill the whole cache with dirty blocks; the drive goes idle.
        p.sys(
            1,
            Syscall::WriteAt {
                fd: out,
                offset: 0,
                data: vec![1; 8 * 1024],
            },
        );
        assert_eq!(p.k.cache.dirty_count(), 8);
        // Block 12 sits behind the indirect block: caching that evicts a
        // dirty block, and its write-back starts the idle drive.
        let data = p
            .sys(
                1,
                Syscall::ReadAt {
                    fd,
                    offset: 12 * 1024,
                    len: 1024,
                },
            )
            .data();
        assert_eq!(data, payload[12 * 1024..13 * 1024]);
    }

    #[test]
    fn power_fail_drops_volatile_state_but_keeps_the_fs() {
        let mut k = kernel();
        k.register_process(1);
        let o = k.syscall(
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
        pump(&mut k);
        k.syscall(
            1_000,
            1,
            Syscall::WriteAt {
                fd,
                offset: 0,
                data: vec![3u8; 4096],
            },
        );
        pump(&mut k);
        let report = k.power_fail();
        assert!(report.dirty_blocks_lost > 0, "unflushed writes were lost");
        assert_eq!(trace(&mut k).len(), 0, "ring discarded");
        assert!(k.fs().lookup("/out").is_some(), "the disk survived");
    }

    #[test]
    fn open_create_write_read_roundtrip() {
        let mut k = kernel();
        k.register_process(1);
        let o = k.syscall(
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
        pump(&mut k);

        let payload: Vec<u8> = (0..5000u32).map(|i| (i & 0xFF) as u8).collect();
        let o = k.syscall(
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
        pump(&mut k);

        // Read back while still cached: no disk read.
        let before = k.driver_stats().dispatched;
        let o = k.syscall(
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
        assert_eq!(k.take_disk_deadline(), None);
        assert_eq!(k.driver_stats().dispatched, before);
    }

    #[test]
    fn cold_read_blocks_and_wakes_with_data() {
        let mut k = kernel();
        let payload = vec![7u8; 3000];
        k.install_file("/data", Placement::User, &payload);
        k.register_process(1);
        let o = k.syscall(
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
                let (wakes, _) = pump(&mut k);
                let WakeKind::Syscall(r) = &wakes[0].1 else {
                    panic!()
                };
                r.clone().fd()
            }
        };
        let o = k.syscall(
            10_000,
            1,
            Syscall::ReadAt {
                fd,
                offset: 0,
                len: 3000,
            },
        );
        assert!(matches!(o, Outcome::Blocked), "cold read must hit the disk");
        let (wakes, _) = pump(&mut k);
        assert_eq!(wakes.len(), 1);
        let WakeKind::Syscall(SysResult::Data(data)) = &wakes[0].1 else {
            panic!()
        };
        assert_eq!(data, &payload);
        // And the trace saw read requests.
        let recs = trace(&mut k);
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
        let recs = trace(&mut p.k);
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
        let recs = trace(&mut p.k);
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
        let o = k.syscall(
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
        let o = k.syscall(
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
        assert_eq!(k.take_disk_deadline(), None, "no disk I/O yet");
        // update daemon flushes the dirty blocks.
        k.daemon_tick(5_000_000, DaemonKind::Update);
        let (_, last) = pump(&mut k);
        assert!(last >= 5_000_000, "flush starts the drive");
        let recs = trace(&mut k);
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
        let o = k.syscall(
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
        let o = k.syscall(2, 1, Syscall::Fsync { fd });
        assert!(matches!(o, Outcome::Blocked));
        let (wakes, _) = pump(&mut k);
        assert!(matches!(wakes[0].1, WakeKind::Syscall(SysResult::Unit)));
        // Second fsync: nothing dirty → immediate.
        let o = k.syscall(100_000, 1, Syscall::Fsync { fd });
        assert!(matches!(
            o,
            Outcome::Done {
                result: SysResult::Unit,
                ..
            }
        ));
        assert_eq!(k.take_disk_deadline(), None);
    }

    #[test]
    fn anon_touch_zero_fill_is_synchronous() {
        let mut k = kernel();
        k.register_process(1);
        let o = k.syscall(0, 1, Syscall::MapAnon { pages: 4 });
        let Outcome::Done { result, .. } = o else {
            panic!()
        };
        let (base, _) = result.mapped();
        let o = k.touches(10, 1, vec![base, base + 1, base + 2]);
        let TouchOutcome::Done { cpu_us } = o else {
            panic!("zero-fill needs no I/O")
        };
        assert_eq!(cpu_us, 3 * FAULT_US);
        assert_eq!(k.take_disk_deadline(), None);
    }

    #[test]
    fn text_touch_pages_in_from_executable() {
        let mut k = kernel();
        k.install_file("/bin/app", Placement::User, &vec![0x90u8; 20 * 1024]);
        k.register_process(1);
        let o = k.syscall(
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
        let o = k.touches(10, 1, vec![base]);
        assert!(
            matches!(o, TouchOutcome::Blocked),
            "text page-in hits the disk"
        );
        let (wakes, _) = pump(&mut k);
        assert!(matches!(wakes[0].1, WakeKind::TouchDone { .. }));
        let recs = trace(&mut k);
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
        let recs = trace(&mut p.k);
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
        let o = k.touches(0, 1, vec![0xDEAD_BEEF]);
        assert!(matches!(o, TouchOutcome::Fatal(_)));
    }

    #[test]
    fn baseline_daemons_write_log_and_high_regions() {
        let mut cfg = KernelConfig::beowulf(0);
        cfg.spool_trace = true;
        let mut k = Kernel::new(cfg);
        k.set_instrumentation(InstrumentationLevel::Full);
        // Pending events: a daemon's tick, or `None` for the disk completion.
        let mut ticks: Vec<(SimTime, Option<DaemonKind>)> = (k.boot_deadlines(0).into_iter())
            .map(|(t, kind)| (t, Some(kind)))
            .collect();
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
                Some(kind) => ticks.push((k.daemon_tick(t, kind), Some(kind))),
                None => assert!(k.disk_complete(t).is_empty(), "no process waits"),
            }
            if let Some(due) = k.take_disk_deadline() {
                ticks.push((due, None));
            }
        }
        let recs = trace(&mut k);
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
        let o = k.syscall(
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
        let o = k.touches(1, 1, vec![base]);
        assert!(matches!(o, TouchOutcome::Blocked));
        k.process_exit(1);
        // Completion of the orphaned page-in must not wake anyone or panic.
        let (wakes, _) = pump(&mut k);
        assert!(wakes.is_empty());
    }

    #[test]
    fn syscall_errors_cost_the_entry_and_start_no_io() {
        let mut k = kernel();
        k.register_process(1);
        let missing = || "/missing".to_string();
        let cases = [
            (
                Syscall::ReadAt {
                    fd: 99,
                    offset: 0,
                    len: 10,
                },
                SysError::BadFd,
            ),
            (
                Syscall::WriteAt {
                    fd: 99,
                    offset: 0,
                    data: vec![1; 10],
                },
                SysError::BadFd,
            ),
            (
                Syscall::Append {
                    fd: 99,
                    data: vec![1; 10],
                },
                SysError::BadFd,
            ),
            (Syscall::Fsync { fd: 99 }, SysError::BadFd),
            (Syscall::Close { fd: 99 }, SysError::BadFd),
            (
                Syscall::Open {
                    path: missing(),
                    create: false,
                    placement: Placement::User,
                },
                SysError::NotFound,
            ),
            (Syscall::Stat { path: missing() }, SysError::NotFound),
            (Syscall::MapText { path: missing() }, SysError::NotFound),
            (Syscall::Unlink { path: missing() }, SysError::NotFound),
            (Syscall::MapAnon { pages: 0 }, SysError::Invalid),
        ];
        for (call, err) in cases {
            let what = format!("{call:?}");
            let Outcome::Done { result, cpu_us } = k.syscall(0, 1, call) else {
                panic!("{what} blocked")
            };
            assert_eq!(result, SysResult::Err(err), "{what}");
            assert_eq!(cpu_us, SYSCALL_US, "{what}");
            assert_eq!(k.take_disk_deadline(), None, "{what}");
        }
        assert_eq!(k.driver_stats().submitted, 0);
    }

    #[test]
    fn data_syscalls_bill_the_entry_plus_the_copy() {
        let mut k = kernel();
        k.register_process(1);
        let fd = k
            .sys_done(
                0,
                Syscall::Open {
                    path: "/c".into(),
                    create: true,
                    placement: Placement::User,
                },
            )
            .fd();
        // Not a whole number of KiB, so the copy charge rounds down.
        let n = 3000;
        let expected = SYSCALL_US + n as u64 * COPY_US_PER_KB / 1024;
        let write = Syscall::WriteAt {
            fd,
            offset: 0,
            data: vec![7u8; n],
        };
        let Outcome::Done { result, cpu_us } = k.syscall(1, 1, write) else {
            panic!("a write only dirties the cache")
        };
        assert_eq!(result, SysResult::Written(n as u32));
        assert_eq!(cpu_us, expected, "write");
        let read = Syscall::ReadAt {
            fd,
            offset: 0,
            len: n as u32,
        };
        let Outcome::Done { result, cpu_us } = k.syscall(2, 1, read) else {
            panic!("the blocks just written are cached")
        };
        assert_eq!(result.data(), vec![7u8; n]);
        assert_eq!(cpu_us, expected, "cached read");
        assert_eq!(k.driver_stats().submitted, 0, "no disk I/O either way");
    }

    #[test]
    fn the_disk_deadline_is_handed_out_once_per_drive_start() {
        let mut k = kernel();
        k.register_process(1);
        assert_eq!(k.take_disk_deadline(), None, "a fresh drive is idle");
        let fd = k
            .sys_done(
                0,
                Syscall::Open {
                    path: "/o".into(),
                    create: true,
                    placement: Placement::User,
                },
            )
            .fd();
        let write = |offset| Syscall::WriteAt {
            fd,
            offset,
            data: vec![5u8; 8192],
        };
        k.sys_done(1, write(0));
        assert_eq!(k.take_disk_deadline(), None, "write-back only dirties");

        // The flush starts the idle drive: one deadline, taken once.
        k.daemon_tick(10, DaemonKind::Update);
        let first = k.take_disk_deadline().expect("the flush starts the drive");
        assert_eq!(k.take_disk_deadline(), None, "handed out once");

        // More work while the drive is busy queues behind it.
        k.sys_done(20, write(8192));
        assert!(matches!(
            k.syscall(30, 1, Syscall::Fsync { fd }),
            Outcome::Blocked
        ));
        assert_eq!(k.take_disk_deadline(), None, "busy drive: queued");

        // The completion dispatches the next queued request.
        assert!(k.disk_complete(first).is_empty());
        let second = k.take_disk_deadline().expect("the queue keeps it busy");
        assert!(second > first);
        assert_eq!(k.take_disk_deadline(), None);
        let mut wakes = k.disk_complete(second);
        wakes.extend(pump(&mut k).0);
        assert_eq!(wakes.len(), 1, "the fsync wakes once the drive drains");

        // A power failure loses the in-flight request with its untaken
        // deadline; the idle drive then starts afresh.
        k.sys_done(10_000_000, write(16384));
        k.daemon_tick(10_000_001, DaemonKind::Update);
        k.power_fail();
        assert_eq!(k.take_disk_deadline(), None, "nothing left to complete");
        k.sys_done(20_000_000, write(24576));
        k.daemon_tick(20_000_001, DaemonKind::Update);
        assert!(k.take_disk_deadline().is_some(), "the drive starts again");
    }

    #[test]
    fn sync_flushes_everything() {
        let mut k = kernel();
        k.register_process(1);
        let o = k.syscall(
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
        let o = k.syscall(2, 1, Syscall::Sync);
        assert!(matches!(o, Outcome::Blocked));
        let (wakes, _) = pump(&mut k);
        assert_eq!(wakes.len(), 1);
        // Everything clean now.
        let o = k.syscall(1_000_000, 1, Syscall::Sync);
        assert!(matches!(o, Outcome::Done { .. }));
        assert_eq!(k.take_disk_deadline(), None);
    }

    #[test]
    fn sync_after_unlink_writes_none_of_the_freed_blocks() {
        let mut k = kernel();
        k.register_process(1);
        let fd = k
            .sys_done(
                0,
                Syscall::Open {
                    path: "/a".into(),
                    create: true,
                    placement: Placement::User,
                },
            )
            .fd();
        k.sys_done(
            1,
            Syscall::WriteAt {
                fd,
                offset: 0,
                data: vec![1u8; 3072],
            },
        );
        k.sys_done(2, Syscall::Close { fd });
        let ino = k.fs.lookup("/a").expect("created");
        let freed = k.fs.inode(ino).expect("live inode").blocks.clone();
        assert_eq!(freed.len(), 3);
        assert!(freed.iter().all(|&b| k.cache.contains(b)), "data is cached");
        k.sys_done(3, Syscall::Unlink { path: "/a".into() });
        assert!(!freed.iter().any(|&b| k.cache.contains(b)));

        let o = k.syscall(4, 1, Syscall::Sync);
        assert!(matches!(o, Outcome::Blocked), "metadata is still dirty");
        pump(&mut k);
        let writes: Vec<TraceRecord> = trace(&mut k)
            .into_iter()
            .filter(|r| r.op == Op::Write)
            .collect();
        assert!(!writes.is_empty());
        for b in freed {
            let sector = b * SECTORS_PER_BLOCK;
            assert!(
                !writes
                    .iter()
                    .any(|r| (r.sector..r.sector + r.nsectors as u32).contains(&sector)),
                "freed block {b} written back by the sync"
            );
        }
    }
}
