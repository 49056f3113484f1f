//! The Beowulf world model: nodes, processes, network, and the event loop.
//!
//! This is where the effect-style subsystem APIs meet the event queue.
//! The invariants the loop maintains:
//!
//! * **One outstanding disk event per node.** The kernel alone notes when
//!   its drive goes idle → busy (or a completion dispatches the next
//!   request); after every kernel call the loop takes that deadline once,
//!   in `schedule_disk`, and schedules it.
//! * **One thread of control.** Process bodies are futures the loop polls
//!   on its own thread, from `resume()` to the next yield, so identical
//!   seeds give bit-identical traces.
//! * **One process table.** Every live process is one entry of a
//!   `BTreeMap` keyed by pid (which is also its PVM task id), so anything
//!   that walks the processes — a crash, the stall watchdog — does so in
//!   pid order.
//! * **Processes park in exactly one place**: the kernel (disk waits), the
//!   PVM layer (receive/barrier waits), or their own process-table entry
//!   (a touch stream mid-fault keeps the message it was carrying).

use std::collections::BTreeMap;
use std::future::Future;

use essio_apps::{AppCall, AppReply};
use essio_faults::{FaultPlan, NetFaultState};
use essio_kernel::{Kernel, KernelConfig, Pid, Placement};
use essio_net::{BarrierOutcome, Ethernet, Message, NetConfig, NetOp, NetResult, Pvm, TaskId};
use essio_obs::{NetEvent, Obs, ObsReport};
use essio_sim::{Engine, ProcConfig, ProcMsg, ProcessHost, SimTime};
use essio_trace::{InstrumentationLevel, RecordSink, TraceRecord};
use serde::Serialize;

use essio_kernel::daemons::DaemonKind;
use essio_kernel::kernel::{Outcome, TouchOutcome, WakeKind};

/// World events.
#[derive(Debug)]
pub enum Event {
    /// A node's in-flight disk request completes.
    Disk {
        /// Node index.
        node: u8,
        /// Node incarnation the event was scheduled in (stale after a
        /// crash: the request died with the node's RAM).
        epoch: u32,
    },
    /// A kernel daemon tick.
    Daemon {
        /// Node index.
        node: u8,
        /// Which daemon.
        kind: DaemonKind,
        /// Node incarnation the tick was scheduled in.
        epoch: u32,
    },
    /// Resume a hosted process (optionally delivering a reply).
    Resume {
        /// Node index.
        node: u8,
        /// Process id.
        pid: Pid,
        /// Reply for a blocked request, `None` to continue computing.
        reply: Option<AppReply>,
    },
    /// A compute burst finishes (processor-sharing accounting), then the
    /// process resumes.
    ComputeDone {
        /// Node index.
        node: u8,
        /// Process id.
        pid: Pid,
    },
    /// A PVM message reaches its destination.
    NetDeliver(Message),
    /// Periodic host-side trace collection (the experiment's proc-fs
    /// reader keeping up with the ring buffer).
    DrainTraces,
    /// A node power-fails mid-run (from the [`FaultPlan`]).
    Crash {
        /// Node index.
        node: u8,
    },
    /// A crashed node comes back up (daemons only; its processes are gone).
    Restart {
        /// Node index.
        node: u8,
    },
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct BeowulfConfig {
    /// Node count (paper: 16).
    pub nodes: u8,
    /// Master seed; forked per node and subsystem.
    pub seed: u64,
    /// Disk scheduler policy (ablation knob).
    pub sched: essio_disk::SchedPolicy,
    /// Read-ahead enabled (ablation knob).
    pub readahead: bool,
    /// Spool the instrumentation trace to disk (its own I/O).
    pub spool_trace: bool,
    /// Instrumentation level for all nodes.
    pub instrumentation: InstrumentationLevel,
    /// User frame pool per node (ablation knob; default 3072 = 12 MB).
    pub frames_user: u32,
    /// Buffer cache blocks per node (ablation knob; default 1536).
    pub cache_blocks: usize,
    /// Network parameters.
    pub net: NetConfig,
    /// Interval between host-side trace drains, µs.
    pub drain_every_us: SimTime,
    /// Deterministic fault plan (disk media faults, frame loss, node
    /// crashes). The default plan is empty and the fault plane is then
    /// completely inert: traces are bit-identical with or without it.
    pub faults: FaultPlan,
    /// Observability plane (request-lifecycle spans + metrics registry).
    /// Off by default: every hook is an inert enum-variant check and
    /// traces are bit-identical with or without the plane compiled in.
    pub obs: bool,
}

impl Default for BeowulfConfig {
    fn default() -> Self {
        Self {
            nodes: 16,
            seed: 0xE55,
            sched: essio_disk::SchedPolicy::Elevator,
            readahead: true,
            spool_trace: true,
            instrumentation: InstrumentationLevel::Full,
            frames_user: 3072,
            cache_blocks: 1536,
            net: NetConfig::default(),
            drain_every_us: 5_000_000,
            faults: FaultPlan::none(),
            obs: false,
        }
    }
}

/// A live process: all the loop keeps about it.
struct Proc {
    node: u8,
    name: String,
    host: ProcessHost<AppCall, AppReply>,
    /// The message whose page touches blocked mid-fault, carried out when
    /// the kernel reports the touch stream drained.
    parked: Option<ProcMsg<AppCall>>,
}

struct NodeSim {
    kernel: Kernel,
    /// Processes currently inside a compute burst — the single 486 is
    /// time-shared, so a burst of `d` µs takes `d × computing` of wall
    /// clock (processor-sharing approximation at ~10 ms granularity; this
    /// is what stretches the combined run toward the paper's 700 s).
    computing: u32,
    /// Node incarnation; bumped at every crash so queued disk/daemon
    /// events from the previous life are recognized as stale and dropped.
    epoch: u32,
    alive: bool,
    crashed: bool,
    restarted: bool,
    trace_lost: u64,
    dirty_lost: u64,
    /// Per-node observability sink (shared with the kernel and driver);
    /// `Obs::Off` unless [`BeowulfConfig::obs`] is set.
    obs: Obs,
}

/// Fault and recovery accounting for one node after a run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct NodeDegradation {
    /// Node index.
    pub node: u8,
    /// Uncorrectable media (ECC) errors the drive reported.
    pub media_errors: u64,
    /// Commands aborted at the stuck-command timeout.
    pub stuck_timeouts: u64,
    /// Commands served slowly by drive-internal recovery.
    pub slow_commands: u64,
    /// Failed physical requests the kernel resubmitted.
    pub retries: u64,
    /// Requests relocated to the spare region after exhausting retries.
    pub relocations: u64,
    /// The node power-failed during the run.
    pub crashed: bool,
    /// The node came back up after its crash.
    pub restarted: bool,
    /// Undrained trace records discarded with the node's RAM.
    pub trace_records_lost: u64,
    /// Dirty buffer-cache blocks that never reached the disk.
    pub dirty_blocks_lost: u64,
}

impl NodeDegradation {
    /// No fault ever touched this node.
    pub fn is_clean(&self) -> bool {
        self.media_errors == 0
            && self.stuck_timeouts == 0
            && self.slow_commands == 0
            && self.retries == 0
            && self.relocations == 0
            && !self.crashed
    }
}

/// How far a run departed from the fault-free ideal: per-node disk fault
/// and recovery counters, cluster-wide network-layer losses, and the list
/// of nodes that died and stayed down. An empty [`FaultPlan`] always
/// yields a clean report.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Degradation {
    /// Per-node accounting, indexed by node.
    pub nodes: Vec<NodeDegradation>,
    /// Frames lost on the wire (injected).
    pub frames_lost: u64,
    /// Frames duplicated by the medium (injected).
    pub frames_dup: u64,
    /// Frames retransmitted by the PVM reliability layer.
    pub retransmits: u64,
    /// Duplicate copies discarded at receivers.
    pub dup_dropped: u64,
    /// Nodes that crashed and never restarted.
    pub lost_nodes: Vec<u8>,
}

impl Degradation {
    /// Did the run complete without a single injected fault firing?
    pub fn is_clean(&self) -> bool {
        self.nodes.iter().all(NodeDegradation::is_clean)
            && self.frames_lost == 0
            && self.frames_dup == 0
            && self.retransmits == 0
            && self.dup_dropped == 0
            && self.lost_nodes.is_empty()
    }

    /// Human-readable multi-line report (empty string when clean).
    pub fn report(&self) -> String {
        if self.is_clean() {
            return String::new();
        }
        let mut out = String::from("Degradation:\n");
        for n in self.nodes.iter().filter(|n| !n.is_clean()) {
            out.push_str(&format!(
                "  node {}: {} media err, {} stuck, {} slow, {} retries, {} relocated",
                n.node, n.media_errors, n.stuck_timeouts, n.slow_commands, n.retries, n.relocations,
            ));
            if n.crashed {
                out.push_str(&format!(
                    ", CRASHED{} ({} trace records, {} dirty blocks lost)",
                    if n.restarted { "+restarted" } else { "" },
                    n.trace_records_lost,
                    n.dirty_blocks_lost,
                ));
            }
            out.push('\n');
        }
        if self.frames_lost + self.frames_dup + self.retransmits + self.dup_dropped > 0 {
            out.push_str(&format!(
                "  net: {} frames lost, {} duplicated, {} retransmits, {} dups dropped\n",
                self.frames_lost, self.frames_dup, self.retransmits, self.dup_dropped,
            ));
        }
        if !self.lost_nodes.is_empty() {
            out.push_str(&format!("  lost nodes: {:?}\n", self.lost_nodes));
        }
        out
    }
}

/// A finished process.
#[derive(Debug, Clone)]
pub struct ProcExit {
    /// Node it ran on.
    pub node: u8,
    /// Its pid.
    pub pid: Pid,
    /// Its name.
    pub name: String,
    /// Exit code (0 = success; 101 = panic; 139 = killed by the kernel;
    /// 137 = node crash; 124 = reaped by the stall watchdog).
    pub code: i32,
    /// Virtual time of exit.
    pub at: SimTime,
}

/// The cluster.
pub struct Beowulf {
    cfg: BeowulfConfig,
    engine: Engine<Event>,
    nodes: Vec<NodeSim>,
    pvm: Pvm,
    next_pid: Pid,
    /// Live processes by pid (= PVM task id).
    procs: BTreeMap<Pid, Proc>,
    trace: Vec<TraceRecord>,
    tap: Option<Box<dyn RecordSink>>,
    keep_trace: bool,
    /// Trace records pulled out of the kernel rings so far (kept or tapped);
    /// the numerator of records/sec throughput.
    records_drained: u64,
    exits: Vec<ProcExit>,
    booted: bool,
    /// Virtual time of the last application-side progress (resume, compute
    /// completion, exit). Drives the stall watchdog when the fault plan
    /// schedules crashes.
    last_activity: SimTime,
    /// Delayed PVM sends (retransmit backoff > 0) observed when the obs
    /// plane is on; linked to the receiver's next request span.
    net_events: Vec<NetEvent>,
}

/// How long surviving processes may sit with no progress after a crash
/// before the watchdog reaps them (virtual µs). Only armed when the fault
/// plan schedules at least one crash; a lost peer otherwise deadlocks a
/// barrier or receive forever.
const STALL_WATCHDOG_US: SimTime = 60_000_000;

/// Exit code for processes reaped by the stall watchdog (mirrors the
/// conventional shell timeout code).
pub const STALLED_EXIT_CODE: i32 = 124;

/// Exit code for processes killed by a node crash (128 + SIGKILL).
pub const CRASHED_EXIT_CODE: i32 = 137;

/// Exit code for processes the kernel kills for a bad memory reference
/// (128 + SIGSEGV).
const SEGV_EXIT_CODE: i32 = 139;

/// Fixed CPU costs of the messaging layer on the host side, µs.
const NET_SEND_US: SimTime = 300;
const NET_RECV_US: SimTime = 200;

impl Beowulf {
    /// Assemble a cluster.
    pub fn new(cfg: BeowulfConfig) -> Self {
        assert!(cfg.nodes > 0);
        let mut nodes = Vec::with_capacity(cfg.nodes as usize);
        for n in 0..cfg.nodes {
            let mut kc = KernelConfig::beowulf(n);
            kc.sched = cfg.sched;
            kc.readahead = cfg.readahead;
            kc.spool_trace = cfg.spool_trace;
            kc.frames_user = cfg.frames_user;
            kc.cache_blocks = cfg.cache_blocks;
            kc.seed = cfg.seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(n as u64 + 1));
            kc.fault_seed = cfg.seed ^ cfg.faults.seed;
            kc.disk_faults = cfg.faults.disk.clone();
            let mut kernel = Kernel::new(kc);
            kernel.set_instrumentation(cfg.instrumentation);
            let obs = if cfg.obs { Obs::enabled(n) } else { Obs::Off };
            kernel.set_obs(obs.clone());
            nodes.push(NodeSim {
                kernel,
                computing: 0,
                epoch: 0,
                alive: true,
                crashed: false,
                restarted: false,
                trace_lost: 0,
                dirty_lost: 0,
                obs,
            });
        }
        let mut pvm = Pvm::new(Ethernet::new(cfg.net.clone()));
        if let Some(net) = &cfg.faults.net {
            pvm.ether_mut().set_faults(Some(NetFaultState::new(
                cfg.seed ^ cfg.faults.seed,
                net.clone(),
            )));
        }
        // The steady-state event population is one in-flight completion or
        // timer per daemon per node plus a few network messages per node;
        // sizing the event heap for that up front avoids regrowing it in the
        // first simulated seconds of every run.
        let event_capacity = nodes.len() * (DaemonKind::ALL.len() + 4);
        Self {
            cfg,
            engine: Engine::with_capacity(event_capacity.max(64)),
            nodes,
            pvm,
            next_pid: 1,
            procs: BTreeMap::new(),
            trace: Vec::new(),
            tap: None,
            keep_trace: true,
            records_drained: 0,
            exits: Vec::new(),
            booted: false,
            last_activity: 0,
            net_events: Vec::new(),
        }
    }

    /// Install a live trace tap: every record drained from the kernel rings
    /// is pushed into `sink` as it arrives (streaming analytics hook). The
    /// raw trace is still collected for [`Beowulf::take_trace`] unless
    /// [`Beowulf::set_keep_trace`]`(false)` is also called.
    ///
    /// Accepts any sink (a `Box<dyn RecordSink>` works too — boxes forward
    /// the trait) and returns the previously installed tap so callers can
    /// swap or chain sinks mid-run.
    pub fn set_tap(&mut self, sink: impl RecordSink + 'static) -> Option<Box<dyn RecordSink>> {
        self.tap.replace(Box::new(sink))
    }

    /// Whether drained records are also accumulated in the host-side trace
    /// vector (default `true`). Turning this off with a tap installed gives
    /// bounded-memory runs: records live only in the kernel rings and the
    /// tap's incremental state. Returns the previous setting.
    pub fn set_keep_trace(&mut self, keep: bool) -> bool {
        std::mem::replace(&mut self.keep_trace, keep)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u8 {
        self.cfg.nodes
    }

    /// The task id the *next* spawn will receive (used to compute
    /// `task_base` for rank-addressed workloads before spawning them).
    pub fn next_task(&self) -> TaskId {
        self.next_pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Pre-load a file on one node's disk.
    pub fn install_file(&mut self, node: u8, path: &str, placement: Placement, content: &[u8]) {
        self.nodes[node as usize]
            .kernel
            .install_file(path, placement, content);
    }

    /// Pre-load a file on every node's disk.
    pub fn install_all(&mut self, path: &str, placement: Placement, content: &[u8]) {
        for n in 0..self.cfg.nodes {
            self.install_file(n, path, placement, content);
        }
    }

    /// Spawn an application process on `node`, to start at `start`:
    /// `body` takes the process context and returns the future the loop
    /// polls; none of it runs before `start`. Returns its PVM task id
    /// (assigned in spawn order).
    pub fn spawn<F, Fut>(&mut self, node: u8, name: &str, start: SimTime, body: F) -> TaskId
    where
        F: FnOnce(essio_apps::AppCtx) -> Fut + 'static,
        Fut: Future<Output = i32> + 'static,
    {
        let pid = self.next_pid;
        self.next_pid += 1;
        let task: TaskId = pid; // task ids mirror pids (spawn order)
        let host = ProcessHost::spawn(format!("{name}@{node}"), ProcConfig::default(), body);
        self.nodes[node as usize].kernel.register_process(pid);
        self.procs.insert(
            pid,
            Proc {
                node,
                name: name.to_string(),
                host,
                parked: None,
            },
        );
        self.engine.schedule_at(
            start.max(self.engine.now()),
            Event::Resume {
                node,
                pid,
                reply: None,
            },
        );
        task
    }

    fn boot(&mut self) {
        if self.booted {
            return;
        }
        self.booted = true;
        let now = self.engine.now();
        for n in 0..self.cfg.nodes {
            self.schedule_daemons(n, now);
        }
        for crash in self.cfg.faults.crashes.clone() {
            if crash.node < self.cfg.nodes {
                self.engine
                    .schedule_at(crash.at_us, Event::Crash { node: crash.node });
            }
        }
        self.engine
            .schedule_in(self.cfg.drain_every_us, Event::DrainTraces);
    }

    /// (Re)schedule a node's daemon timers — at boot and again after a
    /// restart.
    fn schedule_daemons(&mut self, node: u8, now: SimTime) {
        let epoch = self.nodes[node as usize].epoch;
        for (at, kind) in self.nodes[node as usize].kernel.boot_deadlines(now) {
            self.engine
                .schedule_at(at, Event::Daemon { node, kind, epoch });
        }
    }

    /// Run until the virtual clock reaches `end` (events beyond stay queued).
    pub fn run_until(&mut self, end: SimTime) {
        self.boot();
        while let Some(at) = self.engine.peek_time() {
            if at > end {
                break;
            }
            let (now, ev) = self.engine.pop().expect("peeked");
            self.handle(now, ev);
        }
        self.drain_traces();
    }

    /// Run until every spawned process has exited, then let write-back
    /// settle for `settle_us` more virtual time. Returns the time of the
    /// last exit.
    pub fn run_apps(&mut self, settle_us: SimTime) -> SimTime {
        self.boot();
        let watchdog = !self.cfg.faults.crashes.is_empty();
        while !self.procs.is_empty() {
            let (now, ev) = self
                .engine
                .pop()
                .expect("daemon timers keep the queue non-empty while apps live");
            self.handle(now, ev);
            // With a crashed peer, survivors can block forever in a
            // barrier or receive that no one will ever complete. The
            // watchdog reaps them after a long quiet period so the run
            // (and its trace) still terminates.
            if watchdog && !self.procs.is_empty() && now > self.last_activity + STALL_WATCHDOG_US {
                self.reap_stalled(now);
            }
        }
        let last_exit = self
            .exits
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(self.engine.now());
        self.run_until(last_exit + settle_us);
        last_exit
    }

    /// Collected trace records so far (drained incrementally during the
    /// run; call after `run_*` for the full set). Sorted by timestamp:
    /// every drain sweep is emitted in `(ts, node, sector)` order and
    /// sweeps never overlap in time, so the concatenation is the canonical
    /// order — identical to what a live tap observed, record for record.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.drain_traces();
        std::mem::take(&mut self.trace)
    }

    /// Process exit records.
    pub fn exits(&self) -> &[ProcExit] {
        &self.exits
    }

    /// Kernel access for assertions/diagnostics.
    pub fn kernel(&self, node: u8) -> &Kernel {
        &self.nodes[node as usize].kernel
    }

    /// Simulator events delivered so far (the engine's pop count) — the
    /// numerator of the events/sec throughput figure.
    pub fn events_delivered(&self) -> u64 {
        self.engine.delivered()
    }

    /// Trace records drained from kernel rings so far (kept or tapped).
    pub fn records_drained(&self) -> u64 {
        self.records_drained
    }

    /// Total trace records dropped in kernel rings (should stay 0 when the
    /// drain interval keeps up).
    pub fn trace_dropped(&self) -> u64 {
        self.nodes.iter().map(|n| n.kernel.trace_dropped()).sum()
    }

    /// Network-layer statistics (messages, bytes).
    pub fn net_stats(&self) -> (u64, u64) {
        let e = self.pvm.ether();
        (e.messages, e.bytes)
    }

    /// How far this run departed from the fault-free ideal. Clean (and
    /// cheap) when the fault plan is empty.
    pub fn degradation(&self) -> Degradation {
        let nodes: Vec<NodeDegradation> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, ns)| {
                let d = ns.kernel.driver_stats();
                let r = ns.kernel.retry_stats();
                NodeDegradation {
                    node: i as u8,
                    media_errors: d.media_errors,
                    stuck_timeouts: d.stuck_timeouts,
                    slow_commands: d.slow_commands,
                    retries: r.retries,
                    relocations: r.relocations,
                    crashed: ns.crashed,
                    restarted: ns.restarted,
                    trace_records_lost: ns.trace_lost,
                    dirty_blocks_lost: ns.dirty_lost,
                }
            })
            .collect();
        let lost_nodes = nodes
            .iter()
            .filter(|n| n.crashed && !n.restarted)
            .map(|n| n.node)
            .collect();
        let e = self.pvm.ether();
        Degradation {
            nodes,
            frames_lost: e.frames_lost,
            frames_dup: e.frames_dup,
            retransmits: self.pvm.retransmits,
            dup_dropped: self.pvm.dup_dropped,
            lost_nodes,
        }
    }

    /// Collect the observability report: per-node spans, physical-command
    /// timeline, delayed sends, and the merged metrics registry. `None`
    /// unless the cluster was built with [`BeowulfConfig::obs`] set.
    ///
    /// Collection force-closes any span still open at the current virtual
    /// time (marking it `truncated`), so call this after the run finishes.
    pub fn obs_report(&mut self) -> Option<ObsReport> {
        if !self.cfg.obs {
            return None;
        }
        let now = self.engine.now();
        let mut report = ObsReport {
            nodes: self.cfg.nodes,
            duration_us: now,
            ..ObsReport::default()
        };
        for ns in &self.nodes {
            if let Some(h) = ns.obs.handle() {
                h.borrow_mut().collect_into(now, &mut report);
            }
        }
        report.add_net_events(std::mem::take(&mut self.net_events), self.pvm.retransmits);
        Some(report)
    }

    /// Drain every node's kernel ring into the configured sinks, in
    /// canonical order: the sweep is collected node-major, sorted by
    /// `(ts, node, sector)`, then emitted. Sweeps never overlap in time
    /// (a record produced after a drain carries a timestamp at or past the
    /// drain instant), so concatenated sweeps are globally time-ordered —
    /// a live tap and the batch trace see the exact same record sequence,
    /// which is what lets streamed and batch runs fingerprint identically
    /// in `essio-conform`.
    fn drain_traces(&mut self) {
        let pending: usize = self.nodes.iter().map(|n| n.kernel.trace_pending()).sum();
        if pending == 0 {
            return;
        }
        let mut sweep: Vec<TraceRecord> = Vec::with_capacity(pending);
        for n in self.nodes.iter_mut() {
            let drained = n.kernel.drain_trace_into(&mut sweep);
            self.records_drained += drained as u64;
        }
        sweep.sort_by_key(|r| (r.ts, r.node, r.sector));
        if let Some(tap) = &mut self.tap {
            tap.observe_all(&sweep);
        }
        if self.keep_trace {
            self.trace.extend_from_slice(&sweep);
        }
    }

    /// Schedule the end of a compute burst under processor sharing: the
    /// burst stretches by the number of concurrently computing processes.
    fn schedule_compute(
        &mut self,
        now: SimTime,
        node: u8,
        pid: Pid,
        lead_us: SimTime,
        micros: u64,
    ) {
        let ns = &mut self.nodes[node as usize];
        ns.computing += 1;
        let factor = ns.computing as u64;
        self.engine.schedule_at(
            now + lead_us + micros * factor,
            Event::ComputeDone { node, pid },
        );
    }

    /// Schedule the completion of the request the node's last kernel call
    /// started, if it started the drive.
    fn schedule_disk(&mut self, node: u8) {
        let ns = &mut self.nodes[node as usize];
        if let Some(at) = ns.kernel.take_disk_deadline() {
            let epoch = ns.epoch;
            self.engine.schedule_at(at, Event::Disk { node, epoch });
        }
    }

    /// Is this disk/daemon event from the node's current incarnation?
    fn current(&self, node: u8, epoch: u32) -> bool {
        let ns = &self.nodes[node as usize];
        ns.alive && ns.epoch == epoch
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::DrainTraces => {
                self.drain_traces();
                self.engine
                    .schedule_in(self.cfg.drain_every_us, Event::DrainTraces);
            }
            Event::Daemon { node, kind, epoch } => {
                if !self.current(node, epoch) {
                    return; // the node died; its timers died with it
                }
                let next = self.nodes[node as usize].kernel.daemon_tick(now, kind);
                self.schedule_disk(node);
                self.engine
                    .schedule_at(next, Event::Daemon { node, kind, epoch });
            }
            Event::Disk { node, epoch } => {
                if !self.current(node, epoch) {
                    return; // in-flight request lost with the node
                }
                let wakes = self.nodes[node as usize].kernel.disk_complete(now);
                self.schedule_disk(node);
                for (pid, wake) in wakes {
                    self.handle_wake(now, node, pid, wake);
                }
            }
            Event::Crash { node } => self.crash_node(now, node),
            Event::Restart { node } => self.restart_node(now, node),
            Event::Resume { node, pid, reply } => {
                self.resume_proc(now, node, pid, reply);
            }
            Event::ComputeDone { node, pid } => {
                let ns = &mut self.nodes[node as usize];
                ns.computing = ns.computing.saturating_sub(1);
                self.resume_proc(now, node, pid, None);
            }
            Event::NetDeliver(msg) => {
                if let Some((pid, msg)) = self.pvm.deliver(msg) {
                    if let Some(p) = self.procs.get(&pid) {
                        self.engine.schedule_in(
                            NET_RECV_US,
                            Event::Resume {
                                node: p.node,
                                pid,
                                reply: Some(AppReply::Net(NetResult::Message(msg))),
                            },
                        );
                    }
                }
            }
        }
    }

    fn handle_wake(&mut self, now: SimTime, node: u8, pid: Pid, wake: WakeKind) {
        match wake {
            WakeKind::Syscall(result) => {
                self.engine.schedule_at(
                    now,
                    Event::Resume {
                        node,
                        pid,
                        reply: Some(AppReply::Sys(result)),
                    },
                );
            }
            WakeKind::TouchDone { cpu_us } => {
                // The touch stream drained; carry out whatever the process
                // was on its way to do.
                let msg = self
                    .procs
                    .get_mut(&pid)
                    .and_then(|p| p.parked.take())
                    .expect("blocked touch stream has a parked message");
                self.carry_out(now, cpu_us, node, pid, msg);
            }
            WakeKind::Fatal(reason) => self.exit_proc(now, pid, SEGV_EXIT_CODE, Some(reason)),
        }
    }

    /// Power-fail a node: every process on it dies (exit 137), undrained
    /// trace records and dirty cache blocks are lost, and all queued
    /// disk/daemon events become stale via the epoch bump.
    fn crash_node(&mut self, now: SimTime, node: u8) {
        if !self.nodes[node as usize].alive {
            return;
        }
        // Drain what the host-side collector already fetched; anything
        // still in the kernel ring dies with the RAM.
        self.drain_traces();
        let pids: Vec<Pid> = self
            .procs
            .iter()
            .filter(|(_, p)| p.node == node)
            .map(|(&pid, _)| pid)
            .collect();
        for pid in pids {
            self.exit_proc(now, pid, CRASHED_EXIT_CODE, Some("node crash"));
        }
        let ns = &mut self.nodes[node as usize];
        ns.obs.abort(now);
        let report = ns.kernel.power_fail();
        ns.trace_lost += report.trace_records_lost;
        ns.dirty_lost += report.dirty_blocks_lost;
        ns.alive = false;
        ns.crashed = true;
        ns.epoch += 1;
        ns.computing = 0;
        if let Some(crash) = self
            .cfg
            .faults
            .crashes
            .iter()
            .find(|c| c.node == node && c.at_us <= now)
        {
            if let Some(delay) = crash.restart_after_us {
                self.engine
                    .schedule_at(now + delay, Event::Restart { node });
            }
        }
        self.last_activity = now;
    }

    /// Bring a crashed node back: daemons restart, the filesystem is
    /// intact, but its processes are gone for good (no checkpointing on
    /// the Beowulf).
    fn restart_node(&mut self, now: SimTime, node: u8) {
        let ns = &mut self.nodes[node as usize];
        if ns.alive {
            return;
        }
        ns.alive = true;
        ns.restarted = true;
        self.schedule_daemons(node, now);
        self.last_activity = now;
    }

    /// Watchdog action: reap every surviving process — they have made no
    /// progress for [`STALL_WATCHDOG_US`] and are assumed blocked on a
    /// peer that died.
    fn reap_stalled(&mut self, now: SimTime) {
        let stalled: Vec<Pid> = self.procs.keys().copied().collect();
        for pid in stalled {
            self.exit_proc(now, pid, STALLED_EXIT_CODE, Some("stalled"));
        }
    }

    fn resume_proc(&mut self, now: SimTime, node: u8, pid: Pid, reply: Option<AppReply>) {
        self.last_activity = now;
        let Some(p) = self.procs.get_mut(&pid) else {
            return; // process died while a wake was in flight
        };
        let msg = p.host.resume(now, reply);
        self.process_msg(now, node, pid, msg);
    }

    fn process_msg(&mut self, now: SimTime, node: u8, pid: Pid, mut msg: ProcMsg<AppCall>) {
        // Touches first, in program order.
        let touches = msg.take_touches();
        let outcome = self.nodes[node as usize].kernel.touches(now, pid, touches);
        self.schedule_disk(node);
        match outcome {
            TouchOutcome::Done { cpu_us } => self.carry_out(now, cpu_us, node, pid, msg),
            TouchOutcome::Blocked => {
                self.procs.get_mut(&pid).expect("live process").parked = Some(msg);
            }
            TouchOutcome::Fatal(reason) => {
                self.exit_proc(now, pid, SEGV_EXIT_CODE, Some(reason));
            }
        }
    }

    /// Do what `msg` asks once its page touches have cost `cpu_us`.
    fn carry_out(&mut self, now: SimTime, cpu_us: u64, node: u8, pid: Pid, msg: ProcMsg<AppCall>) {
        match msg {
            ProcMsg::Compute { micros, .. } => {
                self.schedule_compute(now, node, pid, cpu_us, micros);
            }
            ProcMsg::Request { call, .. } => self.dispatch_call(now + cpu_us, node, pid, call),
            ProcMsg::Exit { code, .. } => self.exit_proc(now, pid, code, None),
        }
    }

    fn dispatch_call(&mut self, now: SimTime, node: u8, pid: Pid, call: AppCall) {
        match call {
            AppCall::Sys(sys) => {
                let outcome = self.nodes[node as usize].kernel.syscall(now, pid, sys);
                self.schedule_disk(node);
                match outcome {
                    Outcome::Done { result, cpu_us } => {
                        self.engine.schedule_at(
                            now + cpu_us,
                            Event::Resume {
                                node,
                                pid,
                                reply: Some(AppReply::Sys(result)),
                            },
                        );
                    }
                    Outcome::Blocked => { /* kernel wakes it via Disk events */ }
                }
            }
            AppCall::Net(op) => self.dispatch_net(now, node, pid, op),
        }
    }

    fn dispatch_net(&mut self, now: SimTime, node: u8, pid: Pid, op: NetOp) {
        let task: TaskId = pid;
        match op {
            NetOp::Send { to, tag, data } => {
                let mut msg = Message {
                    from: task,
                    to,
                    tag,
                    data,
                    seq: 0, // stamped by Pvm::send
                };
                let plan = self.pvm.send(now, &mut msg);
                if plan.backoff_us > 0 {
                    if let Some(dest) = self.procs.get(&msg.to) {
                        self.nodes[dest.node as usize]
                            .obs
                            .note_net_delay(msg.to, plan.backoff_us);
                        if self.cfg.obs {
                            self.net_events.push(NetEvent {
                                at_us: now,
                                from_node: node,
                                from_pid: pid,
                                to_pid: msg.to,
                                attempts: plan.attempts,
                                backoff_us: plan.backoff_us,
                            });
                        }
                    }
                }
                for at in plan.deliveries {
                    self.engine.schedule_at(at, Event::NetDeliver(msg.clone()));
                }
                self.engine.schedule_at(
                    now + NET_SEND_US,
                    Event::Resume {
                        node,
                        pid,
                        reply: Some(AppReply::Net(NetResult::Sent)),
                    },
                );
            }
            NetOp::Recv { from, tag } => {
                if let Some(msg) = self.pvm.recv(task, from, tag) {
                    self.engine.schedule_at(
                        now + NET_RECV_US,
                        Event::Resume {
                            node,
                            pid,
                            reply: Some(AppReply::Net(NetResult::Message(msg))),
                        },
                    );
                }
                // Otherwise the PVM layer holds the wait; a NetDeliver
                // event will wake the task.
            }
            NetOp::Barrier { group, n } => match self.pvm.barrier(task, group, n) {
                BarrierOutcome::Wait => {}
                BarrierOutcome::Release(others) => {
                    self.engine.schedule_at(
                        now + NET_RECV_US,
                        Event::Resume {
                            node,
                            pid,
                            reply: Some(AppReply::Net(NetResult::BarrierDone)),
                        },
                    );
                    for t in others {
                        if let Some(other) = self.procs.get(&t) {
                            // Barrier release fans out as small messages.
                            self.engine.schedule_at(
                                now + NET_RECV_US + self.cfg.net.latency_us,
                                Event::Resume {
                                    node: other.node,
                                    pid: t,
                                    reply: Some(AppReply::Net(NetResult::BarrierDone)),
                                },
                            );
                        }
                    }
                }
            },
        }
    }

    /// Record `pid`'s exit — with `reason` appended to its name when it
    /// was killed — and tear it down: the kernel frees its memory, PVM
    /// forgets its task, and its body is dropped wherever it was suspended.
    fn exit_proc(&mut self, now: SimTime, pid: Pid, code: i32, reason: Option<&str>) {
        let p = self.procs.remove(&pid).expect("live process");
        let name = match reason {
            Some(reason) => format!("{} ({reason})", p.name),
            None => p.name,
        };
        self.exits.push(ProcExit {
            node: p.node,
            pid,
            name,
            code,
            at: now,
        });
        self.nodes[p.node as usize].kernel.process_exit(pid);
        self.pvm.forget(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essio_apps::CtxExt;
    use essio_kernel::Syscall;

    fn small_cluster(nodes: u8) -> Beowulf {
        let cfg = BeowulfConfig {
            nodes,
            drain_every_us: 1_000_000,
            ..Default::default()
        };
        Beowulf::new(cfg)
    }

    #[test]
    fn baseline_daemons_produce_write_only_trace() {
        let mut bw = small_cluster(2);
        bw.run_until(60_000_000);
        let trace = bw.take_trace();
        assert!(!trace.is_empty(), "daemons must write");
        assert!(trace.iter().all(|r| r.op == essio_trace::Op::Write));
        assert!(trace.iter().any(|r| r.node == 0));
        assert!(trace.iter().any(|r| r.node == 1));
        assert_eq!(bw.trace_dropped(), 0);
    }

    #[test]
    fn single_process_lifecycle_with_file_io() {
        let mut bw = small_cluster(1);
        bw.install_file(0, "/data/in", Placement::User, &vec![7u8; 8192]);
        bw.spawn(0, "copier", 0, |mut ctx| async move {
            let mut input =
                essio_apps::SimFile::open(&mut ctx, "/data/in", false, Placement::User).await;
            let data = input.read(&mut ctx, 8192).await;
            assert_eq!(data.len(), 8192);
            input.close(&mut ctx).await;
            let mut out = essio_apps::SimFile::open(&mut ctx, "/out", true, Placement::User).await;
            out.write(&mut ctx, data).await;
            out.fsync(&mut ctx).await;
            out.close(&mut ctx).await;
            0
        });
        bw.run_apps(12_000_000);
        assert_eq!(bw.exits().len(), 1);
        assert_eq!(bw.exits()[0].code, 0, "{:?}", bw.exits());
        let trace = bw.take_trace();
        assert!(
            trace.iter().any(|r| r.op == essio_trace::Op::Read),
            "input was read"
        );
        assert!(
            trace.iter().any(|r| r.op == essio_trace::Op::Write),
            "output was written"
        );
        // The output landed on the simulated FS.
        let ino = bw.kernel(0).fs().lookup("/out").expect("created");
        assert_eq!(bw.kernel(0).fs().inode(ino).unwrap().size, 8192);
    }

    #[test]
    fn two_processes_exchange_messages() {
        let mut bw = small_cluster(2);
        // Tasks get ids 1 and 2 in spawn order.
        bw.spawn(0, "sender", 0, |mut ctx| async move {
            match ctx
                .net(NetOp::Recv {
                    from: None,
                    tag: Some(5),
                })
                .await
            {
                NetResult::Message(m) => {
                    assert_eq!(m.data, vec![9, 9]);
                    ctx.net(NetOp::Send {
                        to: m.from,
                        tag: 6,
                        data: vec![1],
                    })
                    .await;
                    0
                }
                other => panic!("{other:?}"),
            }
        });
        bw.spawn(1, "replier", 0, |mut ctx| async move {
            ctx.net(NetOp::Send {
                to: 1,
                tag: 5,
                data: vec![9, 9],
            })
            .await;
            match ctx
                .net(NetOp::Recv {
                    from: Some(1),
                    tag: Some(6),
                })
                .await
            {
                NetResult::Message(_) => 0,
                other => panic!("{other:?}"),
            }
        });
        bw.run_apps(1_000_000);
        assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());
        let (msgs, bytes) = bw.net_stats();
        assert_eq!(msgs, 2);
        assert_eq!(bytes, 3);
    }

    #[test]
    fn barrier_synchronizes_all_tasks() {
        let mut bw = small_cluster(4);
        for n in 0..4u8 {
            bw.spawn(
                n,
                "member",
                (n as u64) * 10_000,
                move |mut ctx| async move {
                    ctx.compute(5_000).await;
                    match ctx.net(NetOp::Barrier { group: 1, n: 4 }).await {
                        NetResult::BarrierDone => 0,
                        other => panic!("{other:?}"),
                    }
                },
            );
        }
        bw.run_apps(1_000_000);
        assert_eq!(bw.exits().len(), 4);
        assert!(bw.exits().iter().all(|e| e.code == 0));
        // Nobody can exit before the last arrival (t=30ms + compute).
        let earliest_exit = bw.exits().iter().map(|e| e.at).min().unwrap();
        assert!(earliest_exit >= 35_000, "exit at {earliest_exit}");
    }

    #[test]
    fn wild_pointer_process_is_killed_not_wedged() {
        let mut bw = small_cluster(1);
        bw.spawn(0, "crasher", 0, |mut ctx| async move {
            ctx.touch(0xDEAD_BEEF).await;
            ctx.request(AppCall::Sys(Syscall::Sync)).await; // forces the touch flush
            0
        });
        bw.run_apps(1_000_000);
        assert_eq!(bw.exits().len(), 1);
        assert_eq!(bw.exits()[0].code, 139);
        assert!(bw.exits()[0].name.contains("segmentation fault"));
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let run = || {
            let mut bw = small_cluster(2);
            bw.install_file(0, "/in", Placement::User, &vec![3u8; 16 * 1024]);
            bw.spawn(0, "reader", 0, |mut ctx| async move {
                let mut f =
                    essio_apps::SimFile::open(&mut ctx, "/in", false, Placement::User).await;
                for _ in 0..16 {
                    f.read(&mut ctx, 1024).await;
                    ctx.compute(20_000).await;
                }
                f.close(&mut ctx).await;
                0
            });
            bw.run_apps(12_000_000);
            bw.take_trace()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        assert_eq!(a, b, "simulation must be deterministic");
    }

    #[test]
    fn late_spawn_starts_at_requested_time() {
        let mut bw = small_cluster(1);
        bw.spawn(0, "late", 30_000_000, |ctx| async move {
            assert!(ctx.now() >= 30_000_000);
            0
        });
        bw.run_apps(1_000_000);
        assert!(bw.exits()[0].at >= 30_000_000);
    }

    #[test]
    fn empty_fault_plan_leaves_the_trace_bit_identical() {
        let run = |faults: FaultPlan| {
            let cfg = BeowulfConfig {
                nodes: 2,
                drain_every_us: 1_000_000,
                faults,
                ..Default::default()
            };
            let mut bw = Beowulf::new(cfg);
            bw.install_file(0, "/in", Placement::User, &vec![3u8; 16 * 1024]);
            bw.spawn(0, "reader", 0, |mut ctx| async move {
                let mut f =
                    essio_apps::SimFile::open(&mut ctx, "/in", false, Placement::User).await;
                for _ in 0..16 {
                    f.read(&mut ctx, 1024).await;
                    ctx.compute(20_000).await;
                }
                f.close(&mut ctx).await;
                0
            });
            bw.run_apps(12_000_000);
            let deg = bw.degradation();
            (bw.take_trace(), deg)
        };
        let (plain, _) = run(FaultPlan::none());
        let (with_plan, deg) = run(FaultPlan::none().seed(99));
        assert_eq!(plain, with_plan, "inert fault plane must not perturb");
        assert!(deg.is_clean());
        assert_eq!(deg.report(), "");
    }

    #[test]
    fn disk_faults_surface_in_the_degradation_report() {
        use essio_faults::DiskFaultConfig;
        let cfg = BeowulfConfig {
            nodes: 1,
            drain_every_us: 1_000_000,
            faults: FaultPlan::none().disk(DiskFaultConfig {
                media_error_every: 5,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut bw = Beowulf::new(cfg);
        bw.install_file(0, "/in", Placement::User, &vec![1u8; 64 * 1024]);
        bw.spawn(0, "reader", 0, |mut ctx| async move {
            let mut f = essio_apps::SimFile::open(&mut ctx, "/in", false, Placement::User).await;
            for _ in 0..64 {
                f.read(&mut ctx, 1024).await;
            }
            f.close(&mut ctx).await;
            0
        });
        bw.run_apps(12_000_000);
        assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());
        let deg = bw.degradation();
        assert!(!deg.is_clean());
        assert!(deg.nodes[0].media_errors > 0);
        assert!(deg.nodes[0].retries > 0);
        assert!(deg.report().contains("media err"));
    }

    #[test]
    fn node_crash_kills_its_processes_and_cluster_survives() {
        let cfg = BeowulfConfig {
            nodes: 2,
            drain_every_us: 1_000_000,
            faults: FaultPlan::none().crash(1, 5_000_000),
            ..Default::default()
        };
        let mut bw = Beowulf::new(cfg);
        // Node 0: long but self-contained work. Node 1: dies mid-run.
        for n in 0..2u8 {
            bw.spawn(n, "worker", 0, move |mut ctx| async move {
                for _ in 0..40 {
                    ctx.compute(500_000).await;
                }
                0
            });
        }
        bw.run_apps(1_000_000);
        let codes: Vec<(u8, i32)> = bw.exits().iter().map(|e| (e.node, e.code)).collect();
        assert!(codes.contains(&(0, 0)), "survivor finishes: {codes:?}");
        assert!(
            codes.contains(&(1, CRASHED_EXIT_CODE)),
            "crashed node's process dies: {codes:?}"
        );
        let deg = bw.degradation();
        assert!(deg.nodes[1].crashed && !deg.nodes[1].restarted);
        assert_eq!(deg.lost_nodes, vec![1]);
        assert!(deg.report().contains("CRASHED"));
    }

    #[test]
    fn crashed_node_can_restart_and_its_daemons_tick_again() {
        let cfg = BeowulfConfig {
            nodes: 2,
            drain_every_us: 1_000_000,
            faults: FaultPlan::none().crash_restart(1, 5_000_000, 10_000_000),
            ..Default::default()
        };
        let mut bw = Beowulf::new(cfg);
        bw.run_until(120_000_000);
        let deg = bw.degradation();
        assert!(deg.nodes[1].crashed && deg.nodes[1].restarted);
        assert!(deg.lost_nodes.is_empty(), "a restarted node is not lost");
        // Daemon writes resumed after the restart: the node's trace has
        // records from its second life.
        let trace = bw.take_trace();
        assert!(
            trace.iter().any(|r| r.node == 1 && r.ts > 15_000_000),
            "node 1 must write again after restarting"
        );
    }

    #[test]
    fn watchdog_reaps_survivors_blocked_on_a_dead_peer() {
        let cfg = BeowulfConfig {
            nodes: 2,
            drain_every_us: 1_000_000,
            faults: FaultPlan::none().crash(1, 2_000_000),
            ..Default::default()
        };
        let mut bw = Beowulf::new(cfg);
        // Task 1 (node 0) waits for a message its dead peer never sends.
        bw.spawn(0, "waiter", 0, |mut ctx| async move {
            match ctx
                .net(NetOp::Recv {
                    from: None,
                    tag: None,
                })
                .await
            {
                NetResult::Message(_) => 0,
                other => panic!("{other:?}"),
            }
        });
        bw.spawn(1, "mute", 0, move |mut ctx| async move {
            for _ in 0..100 {
                ctx.compute(1_000_000).await;
            }
            0
        });
        bw.run_apps(1_000_000);
        let codes: Vec<(u8, i32)> = bw.exits().iter().map(|e| (e.node, e.code)).collect();
        assert!(codes.contains(&(1, CRASHED_EXIT_CODE)), "{codes:?}");
        assert!(
            codes.contains(&(0, STALLED_EXIT_CODE)),
            "watchdog must reap the orphaned waiter: {codes:?}"
        );
    }

    #[test]
    fn set_tap_and_set_keep_trace_return_prior_values() {
        let mut bw = small_cluster(1);
        assert!(
            bw.set_tap(Vec::<TraceRecord>::new()).is_none(),
            "no tap installed yet"
        );
        let prior = bw.set_tap(Vec::<TraceRecord>::new());
        assert!(prior.is_some(), "swapping returns the old tap");
        assert!(bw.set_keep_trace(false), "default is to keep the trace");
        assert!(!bw.set_keep_trace(true));
    }

    #[test]
    fn instrumentation_off_produces_empty_trace_but_running_system() {
        let cfg = BeowulfConfig {
            nodes: 1,
            instrumentation: InstrumentationLevel::Off,
            ..Default::default()
        };
        let mut bw = Beowulf::new(cfg);
        bw.spawn(0, "writer", 0, |mut ctx| async move {
            let mut f = essio_apps::SimFile::open(&mut ctx, "/o", true, Placement::User).await;
            f.write(&mut ctx, vec![1u8; 4096]).await;
            f.fsync(&mut ctx).await;
            f.close(&mut ctx).await;
            0
        });
        bw.run_apps(12_000_000);
        assert_eq!(bw.exits()[0].code, 0);
        assert!(bw.take_trace().is_empty(), "no records at level Off");
        assert!(
            bw.kernel(0).driver_stats().dispatched > 0,
            "the disk still worked"
        );
    }

    /// Sets its flag when dropped: observes a process body being dropped.
    struct DropGuard(std::rc::Rc<std::cell::Cell<bool>>);

    impl Drop for DropGuard {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    fn drop_flag() -> (std::rc::Rc<std::cell::Cell<bool>>, DropGuard) {
        let flag = std::rc::Rc::new(std::cell::Cell::new(false));
        let guard = DropGuard(std::rc::Rc::clone(&flag));
        (flag, guard)
    }

    #[test]
    fn panic_mid_run_exits_101_and_siblings_finish_cleanly() {
        let mut bw = small_cluster(2);
        bw.install_file(0, "/in", Placement::User, &vec![3u8; 8192]);
        bw.spawn(0, "crasher", 0, |mut ctx| async move {
            let mut f = essio_apps::SimFile::open(&mut ctx, "/in", false, Placement::User).await;
            f.read(&mut ctx, 4096).await;
            ctx.compute(30_000).await;
            panic!("numerical blow-up mid-run");
        });
        for node in 0..2 {
            bw.spawn(node, "sibling", 0, |mut ctx| async move {
                let mut f =
                    essio_apps::SimFile::open(&mut ctx, "/sib", true, Placement::User).await;
                for _ in 0..8 {
                    ctx.compute(20_000).await;
                    f.write(&mut ctx, vec![1u8; 1024]).await;
                }
                f.fsync(&mut ctx).await;
                f.close(&mut ctx).await;
                0
            });
        }
        bw.run_apps(1_000_000);
        let mut codes: Vec<(String, i32)> = bw
            .exits()
            .iter()
            .map(|e| (e.name.clone(), e.code))
            .collect();
        codes.sort();
        assert_eq!(
            codes,
            [
                ("crasher".into(), 101),
                ("sibling".into(), 0),
                ("sibling".into(), 0)
            ]
        );
        let crash = bw.exits().iter().find(|e| e.code == 101).unwrap();
        assert!(crash.at >= 30_000, "the body ran before it panicked");
    }

    #[test]
    fn a_process_killed_mid_request_has_its_body_dropped() {
        // Wild pointer: the fatal touch rides on the request, so the body
        // is suspended in `request` when the kernel kills it.
        let mut bw = small_cluster(1);
        let (wild_dropped, guard) = drop_flag();
        bw.spawn(0, "wild", 0, move |mut ctx| async move {
            let _guard = guard;
            ctx.touch(0xDEAD_BEEF).await;
            ctx.request(AppCall::Sys(Syscall::Sync)).await;
            unreachable!("killed before the reply");
        });
        bw.run_apps(1_000_000);
        assert_eq!(bw.exits()[0].code, 139);
        assert!(wild_dropped.get(), "a killed body must be dropped");

        // Node crash: the body is blocked in a receive nobody answers.
        let mut bw = Beowulf::new(BeowulfConfig {
            nodes: 2,
            drain_every_us: 1_000_000,
            faults: FaultPlan::none().crash(1, 2_000_000),
            ..Default::default()
        });
        let (crashed_dropped, guard) = drop_flag();
        bw.spawn(1, "victim", 0, move |mut ctx| async move {
            let _guard = guard;
            ctx.net(NetOp::Recv {
                from: None,
                tag: Some(77),
            })
            .await;
            unreachable!("the node crashes first");
        });
        bw.spawn(0, "survivor", 0, |mut ctx| async move {
            ctx.compute(3_000_000).await;
            0
        });
        bw.run_apps(1_000_000);
        let codes: Vec<(u8, i32)> = bw.exits().iter().map(|e| (e.node, e.code)).collect();
        assert!(codes.contains(&(1, CRASHED_EXIT_CODE)), "{codes:?}");
        assert!(codes.contains(&(0, 0)), "{codes:?}");
        assert!(
            crashed_dropped.get(),
            "a crashed node's body must be dropped"
        );
    }

    #[test]
    fn dropping_a_cluster_drops_its_bodies_before_start_mid_compute_or_mid_request() {
        let (unstarted, g0) = drop_flag();
        let (computing, g1) = drop_flag();
        let (requesting, g2) = drop_flag();
        let mut bw = small_cluster(2);
        bw.spawn(0, "late", 60_000_000, move |_ctx| async move {
            let _guard = g0;
            0
        });
        bw.spawn(0, "spinner", 0, move |mut ctx| async move {
            let _guard = g1;
            loop {
                ctx.compute(1_000).await;
            }
        });
        bw.spawn(1, "waiter", 0, move |mut ctx| async move {
            let _guard = g2;
            ctx.net(NetOp::Recv {
                from: None,
                tag: None,
            })
            .await;
            0
        });
        bw.run_until(2_000_000);
        assert!(!unstarted.get() && !computing.get() && !requesting.get());
        drop(bw);
        assert!(unstarted.get() && computing.get() && requesting.get());
    }
}
