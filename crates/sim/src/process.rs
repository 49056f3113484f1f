//! Lock-step process hosting.
//!
//! The NASA workloads are real programs (a PPM solver, a wavelet transform,
//! a Barnes–Hut tree code). We want to write them as ordinary Rust, yet the
//! simulation must control when they run and what every syscall costs. The
//! classic way to square that is co-routine style execution:
//!
//! * Application code runs on its own OS thread, but is *only* runnable while
//!   the engine has explicitly resumed it. Engine and process hand control
//!   back and forth through one shared slot per process: the engine posts a
//!   resume and waits, the process runs to its next yield, posts it and
//!   waits. At most one message is ever in flight, so at any instant exactly
//!   one logical thread of control exists — the simulation is deterministic
//!   despite real threads.
//! * A waiting side parks its thread (`thread::park`) and the posting side
//!   unparks it. The engine first polls the slot for a short, time-bounded
//!   spin (`ENGINE_SPIN`, 50 µs) before it parks, because most bodies yield
//!   within microseconds and a park/wake round trip costs more than that.
//!   The spin is off on a single CPU, where it would only delay the process
//!   it waits for. The process side never spins: on a small host a spinning
//!   process would hold the core the next resumed process needs.
//! * The process communicates in three verbs: **compute** (burn virtual CPU
//!   time), **request** (a syscall routed to the simulated kernel), and
//!   **exit**. Memory references are batched as page *touches* piggybacked on
//!   the next verb, which keeps handoff frequency low (thousands of page
//!   touches cost one round trip) while still letting the VM subsystem fault
//!   pages on the exact access order the algorithm produced.
//!
//! The request/response types are generic: this crate knows nothing about
//! disks or files. `essio-kernel` instantiates `Req = Syscall`,
//! `Resp = SysResult`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::time::SimTime;

/// A virtual page number in a process address space.
pub type Vpn = u64;

/// How long the engine polls a process's slot for its reply before it
/// parks. A park/unpark round trip costs a futex wait plus the scheduler's
/// wake-up latency, more than most bodies take to yield. The bound keeps a
/// slow body from costing more than this in engine CPU, so engines sharing
/// a host (`campaign`, `conform`) cannot starve each other's process
/// threads for long.
const ENGINE_SPIN: Duration = Duration::from_micros(50);

/// Whether the engine spins at all: not on a single CPU, where the process
/// it waits for cannot run while it spins.
fn engine_spins() -> bool {
    static SPINS: OnceLock<bool> = OnceLock::new();
    *SPINS.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// What a process reports back to the engine when it yields.
#[derive(Debug)]
pub enum ProcMsg<Req> {
    /// Burn `micros` of CPU time, after applying `touches` to the VM.
    Compute {
        /// Virtual CPU time consumed since the last yield, in microseconds.
        micros: u64,
        /// Page touches accumulated since the last yield, in access order.
        touches: Vec<Vpn>,
    },
    /// A syscall. The process is blocked until the engine resumes it with a
    /// response.
    Request {
        /// The syscall payload (kernel-defined).
        call: Req,
        /// Page touches accumulated before the syscall.
        touches: Vec<Vpn>,
    },
    /// The process body returned (or panicked — code 101 by convention).
    Exit {
        /// Process exit code.
        code: i32,
        /// Final batch of page touches.
        touches: Vec<Vpn>,
    },
}

struct Resume<Resp> {
    now: SimTime,
    resp: Option<Resp>,
}

/// The message in flight between the engine and a process, if any.
enum Letter<Req, Resp> {
    Empty,
    Resume(Resume<Resp>),
    Yield(ProcMsg<Req>),
}

struct SlotState<Req, Resp> {
    letter: Letter<Req, Resp>,
    /// The thread that last resumed the process: the one its reply wakes.
    /// Recorded at every resume, since a host may be driven from any thread.
    engine: Option<Thread>,
    /// The host was dropped: a waiting process unwinds.
    engine_gone: bool,
    /// The process thread ended: a waiting engine gets no more letters.
    proc_gone: bool,
}

/// The one handoff slot a host and its process thread share.
struct Slot<Req, Resp> {
    state: Mutex<SlotState<Req, Resp>>,
    /// Set when a `Yield` lands, so the engine's spin polls without the
    /// lock. The process stores it with `Release` after writing the letter
    /// and the spin loads it with `Acquire`; the engine then takes the
    /// letter under the lock, which clears the flag.
    yielded: AtomicBool,
}

impl<Req, Resp> Slot<Req, Resp> {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState {
                letter: Letter::Empty,
                engine: None,
                engine_gone: false,
                proc_gone: false,
            }),
            yielded: AtomicBool::new(false),
        }
    }

    /// Nothing that can panic runs under the lock and every update is a
    /// single field write, so a poisoned state is still consistent; taking
    /// it anyway keeps the `Drop` impls that close the slot panic-free.
    fn lock(&self) -> MutexGuard<'_, SlotState<Req, Resp>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Engine side: post `resume` for the `process` thread and wake it.
    fn post_resume(&self, resume: Resume<Resp>, process: &Thread) {
        {
            let mut s = self.lock();
            s.letter = Letter::Resume(resume);
            s.engine = Some(thread::current());
        }
        process.unpark();
    }

    /// Engine side: wait for the process's next message. `None` when the
    /// process thread ended without posting one.
    fn wait_yield(&self) -> Option<ProcMsg<Req>> {
        if engine_spins() {
            let deadline = Instant::now() + ENGINE_SPIN;
            let mut polls = 0u32;
            while !self.yielded.load(Ordering::Acquire) {
                std::hint::spin_loop();
                polls += 1;
                if polls.is_multiple_of(64) && Instant::now() >= deadline {
                    break;
                }
            }
        }
        loop {
            {
                let mut s = self.lock();
                // The letter is checked before `proc_gone`, under one lock:
                // an `Exit` posted just before the process thread ended is
                // delivered, never mistaken for a death.
                match std::mem::replace(&mut s.letter, Letter::Empty) {
                    Letter::Yield(msg) => {
                        self.yielded.store(false, Ordering::Relaxed);
                        return Some(msg);
                    }
                    other => s.letter = other,
                }
                if s.proc_gone {
                    return None;
                }
            }
            thread::park();
        }
    }

    /// Process side: post `msg` to the engine and wake it. `false` when the
    /// host is gone.
    fn post_yield(&self, msg: ProcMsg<Req>) -> bool {
        let engine = {
            let mut s = self.lock();
            if s.engine_gone {
                return false;
            }
            s.letter = Letter::Yield(msg);
            self.yielded.store(true, Ordering::Release);
            s.engine.clone()
        };
        if let Some(engine) = engine {
            engine.unpark();
        }
        true
    }

    /// Process side: park until the engine resumes us. `None` when the host
    /// is gone.
    fn wait_resume(&self) -> Option<Resume<Resp>> {
        loop {
            {
                let mut s = self.lock();
                match std::mem::replace(&mut s.letter, Letter::Empty) {
                    Letter::Resume(r) => return Some(r),
                    other => s.letter = other,
                }
                if s.engine_gone {
                    return None;
                }
            }
            thread::park();
        }
    }
}

/// Tuning knobs for how often a process rendezvouses with the engine.
#[derive(Debug, Clone, Copy)]
pub struct ProcConfig {
    /// Accumulated compute time that forces a yield (µs of virtual CPU).
    /// Smaller values interleave processes more finely at higher simulation
    /// cost. 10 ms resolves every feature on the paper's 1-second plot axes.
    pub compute_flush_us: u64,
    /// Accumulated page touches that force a yield.
    pub touch_flush: usize,
}

impl Default for ProcConfig {
    fn default() -> Self {
        Self {
            compute_flush_us: 10_000,
            touch_flush: 4096,
        }
    }
}

/// The process side of the rendezvous: passed to the workload body.
pub struct ProcCtx<Req, Resp> {
    slot: Arc<Slot<Req, Resp>>,
    now: SimTime,
    pending_compute: u64,
    touches: Vec<Vpn>,
    cfg: ProcConfig,
}

/// However the process thread ends, a waiting engine must learn of it.
impl<Req, Resp> Drop for ProcCtx<Req, Resp> {
    fn drop(&mut self) {
        let engine = {
            let mut s = self.slot.lock();
            s.proc_gone = true;
            s.engine.clone()
        };
        if let Some(engine) = engine {
            engine.unpark();
        }
    }
}

/// Raised (as a panic payload) when the engine side disappears while the
/// process is blocked; the host thread wrapper swallows it.
struct SimulationTornDown;

/// The default panic hook prints a message (and backtrace) for *every*
/// unwind, including the [`SimulationTornDown`] one used to tear down
/// hosted process threads — which floods stderr with host thread IDs
/// whenever a process is killed mid-run. Silence exactly that payload;
/// everything else still reaches the previous hook.
fn install_teardown_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<SimulationTornDown>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

impl<Req, Resp> ProcCtx<Req, Resp> {
    /// Current virtual time as of the last rendezvous, plus locally
    /// accumulated compute. Approximate between yields by construction.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now + self.pending_compute
    }

    /// Consume `micros` of virtual CPU time. Cheap: accumulates locally and
    /// only rendezvouses when the configured flush threshold is crossed.
    #[inline]
    pub fn compute(&mut self, micros: u64) {
        self.pending_compute += micros;
        if self.pending_compute >= self.cfg.compute_flush_us {
            self.flush_compute();
        }
    }

    /// Record a reference to virtual page `vpn`. Consecutive duplicate
    /// touches are collapsed (a loop walking one page does not flood the VM).
    #[inline]
    pub fn touch(&mut self, vpn: Vpn) {
        if self.touches.last() != Some(&vpn) {
            self.touches.push(vpn);
            if self.touches.len() >= self.cfg.touch_flush {
                self.flush_compute();
            }
        }
    }

    /// Touch every page overlapping `[base_vpn, base_vpn + npages)`.
    pub fn touch_range(&mut self, base_vpn: Vpn, npages: u64) {
        for p in base_vpn..base_vpn + npages {
            self.touch(p);
        }
    }

    /// Issue a syscall and block until the simulated kernel answers.
    /// Any accumulated compute/touches are flushed as part of the request,
    /// so the kernel observes them *before* the call, in program order.
    pub fn request(&mut self, call: Req) -> Resp {
        let micros = std::mem::take(&mut self.pending_compute);
        if micros > 0 {
            // Bill outstanding compute before the syscall so its timestamp
            // lands after the work that produced it.
            let touches = std::mem::take(&mut self.touches);
            self.yield_msg(ProcMsg::Compute { micros, touches });
        }
        let touches = std::mem::take(&mut self.touches);
        let resume = self.yield_msg(ProcMsg::Request { call, touches });
        resume.expect("kernel must answer a Request with a response")
    }

    fn flush_compute(&mut self) {
        let micros = std::mem::take(&mut self.pending_compute);
        let touches = std::mem::take(&mut self.touches);
        if micros == 0 && touches.is_empty() {
            return;
        }
        self.yield_msg(ProcMsg::Compute { micros, touches });
    }

    fn yield_msg(&mut self, msg: ProcMsg<Req>) -> Option<Resp> {
        if !self.slot.post_yield(msg) {
            std::panic::panic_any(SimulationTornDown);
        }
        match self.slot.wait_resume() {
            Some(Resume { now, resp }) => {
                self.now = now;
                resp
            }
            None => std::panic::panic_any(SimulationTornDown),
        }
    }
}

/// Engine-side handle to a hosted process thread.
pub struct ProcessHost<Req, Resp> {
    name: String,
    slot: Arc<Slot<Req, Resp>>,
    handle: Option<JoinHandle<()>>,
    finished: bool,
}

impl<Req: Send + 'static, Resp: Send + 'static> ProcessHost<Req, Resp> {
    /// Spawn `body` as a hosted process. The thread starts parked, waiting
    /// for the first [`ProcessHost::start`].
    pub fn spawn<F>(name: impl Into<String>, cfg: ProcConfig, body: F) -> Self
    where
        F: FnOnce(&mut ProcCtx<Req, Resp>) -> i32 + Send + 'static,
    {
        install_teardown_hook();
        let name = name.into();
        let slot = Arc::new(Slot::new());
        let proc_slot = Arc::clone(&slot);
        let thread_name = format!("sim-proc-{name}");
        let handle = thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                // Park until the engine starts us.
                let Some(first) = proc_slot.wait_resume() else {
                    return;
                };
                let mut ctx = ProcCtx {
                    slot: proc_slot,
                    now: first.now,
                    pending_compute: 0,
                    touches: Vec::with_capacity(cfg.touch_flush),
                    cfg,
                };
                let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                let (code, touches) = match result {
                    Ok(code) => (code, std::mem::take(&mut ctx.touches)),
                    Err(payload) => {
                        if payload.downcast_ref::<SimulationTornDown>().is_some() {
                            return; // engine went away; exit silently
                        }
                        // Re-raise nothing: report a crashed process instead,
                        // mirroring a real program dying with SIGABRT.
                        (101, Vec::new())
                    }
                };
                // Flush any trailing compute so totals balance, then exit.
                let micros = std::mem::take(&mut ctx.pending_compute);
                if micros > 0
                    && ctx.slot.post_yield(ProcMsg::Compute {
                        micros,
                        touches: Vec::new(),
                    })
                {
                    let _ = ctx.slot.wait_resume();
                }
                ctx.slot.post_yield(ProcMsg::Exit { code, touches });
            })
            .expect("spawning a simulation process thread");
        Self {
            name,
            slot,
            handle: Some(handle),
            finished: false,
        }
    }

    /// Process name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the process has delivered its `Exit` message.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Deliver the first resume: runs the body until its first yield.
    pub fn start(&mut self, now: SimTime) -> ProcMsg<Req> {
        self.resume_inner(now, None)
    }

    /// Resume a process blocked in [`ProcCtx::request`] with the syscall's
    /// response, or a process that yielded `Compute` (response ignored —
    /// pass via [`ProcessHost::resume_compute`]).
    pub fn resume(&mut self, now: SimTime, resp: Resp) -> ProcMsg<Req> {
        self.resume_inner(now, Some(resp))
    }

    /// Resume a process that yielded a `Compute` message (no response value).
    pub fn resume_compute(&mut self, now: SimTime) -> ProcMsg<Req> {
        self.resume_inner(now, None)
    }

    fn resume_inner(&mut self, now: SimTime, resp: Option<Resp>) -> ProcMsg<Req> {
        assert!(!self.finished, "resuming a finished process: {}", self.name);
        let process = self.handle.as_ref().expect("process thread").thread();
        self.slot.post_resume(Resume { now, resp }, process);
        match self.slot.wait_yield() {
            Some(msg) => {
                if matches!(msg, ProcMsg::Exit { .. }) {
                    self.finished = true;
                }
                msg
            }
            None => {
                // The thread ended without an Exit message (only a torn-down
                // or externally killed body does that). Synthesize one.
                self.finished = true;
                ProcMsg::Exit {
                    code: 102,
                    touches: Vec::new(),
                }
            }
        }
    }
}

impl<Req, Resp> Drop for ProcessHost<Req, Resp> {
    fn drop(&mut self) {
        // Closing the slot makes a blocked process thread unwind with
        // `SimulationTornDown`; then the join is prompt.
        self.slot.lock().engine_gone = true;
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Host = ProcessHost<u32, u32>;

    #[test]
    fn simple_lifecycle_compute_then_exit() {
        let mut host = Host::spawn(
            "t",
            ProcConfig {
                compute_flush_us: 100,
                touch_flush: 64,
            },
            |ctx| {
                ctx.compute(250); // crosses the 100 µs threshold twice
                7
            },
        );
        let mut msgs = Vec::new();
        let mut msg = host.start(0);
        loop {
            match msg {
                ProcMsg::Compute { micros, .. } => {
                    msgs.push(micros);
                    msg = host.resume_compute(0);
                }
                ProcMsg::Exit { code, .. } => {
                    assert_eq!(code, 7);
                    break;
                }
                ProcMsg::Request { .. } => panic!("no requests expected"),
            }
        }
        // One threshold flush (250 >= 100) plus the trailing flush.
        assert_eq!(msgs.iter().sum::<u64>(), 250);
        assert!(host.finished());
    }

    #[test]
    fn request_response_roundtrip() {
        let mut host = Host::spawn("t", ProcConfig::default(), |ctx| {
            let a = ctx.request(10);
            let b = ctx.request(a);
            (a + b) as i32
        });
        let msg = host.start(0);
        let ProcMsg::Request { call, .. } = msg else {
            panic!("expected request, got {msg:?}")
        };
        assert_eq!(call, 10);
        let msg = host.resume(5, 100);
        let ProcMsg::Request { call, .. } = msg else {
            panic!("expected request")
        };
        assert_eq!(call, 100);
        let msg = host.resume(9, 1);
        let ProcMsg::Exit { code, .. } = msg else {
            panic!("expected exit")
        };
        assert_eq!(code, 101); // a = 100, b = 1
    }

    #[test]
    fn compute_is_billed_before_request() {
        let mut host = Host::spawn(
            "t",
            ProcConfig {
                compute_flush_us: 1_000_000,
                touch_flush: 64,
            },
            |ctx| {
                ctx.compute(42);
                ctx.request(1);
                0
            },
        );
        let msg = host.start(0);
        let ProcMsg::Compute { micros, .. } = msg else {
            panic!("compute should flush first, got {msg:?}")
        };
        assert_eq!(micros, 42);
        let msg = host.resume_compute(42);
        assert!(matches!(msg, ProcMsg::Request { call: 1, .. }));
        let msg = host.resume(50, 0);
        assert!(matches!(msg, ProcMsg::Exit { code: 0, .. }));
    }

    #[test]
    fn touches_are_batched_and_dedup_consecutive() {
        let mut host = Host::spawn("t", ProcConfig::default(), |ctx| {
            ctx.touch(1);
            ctx.touch(1); // consecutive duplicate collapses
            ctx.touch(2);
            ctx.touch(1); // non-consecutive repeat is kept
            ctx.request(0);
            0
        });
        let msg = host.start(0);
        let ProcMsg::Request { touches, .. } = msg else {
            panic!("expected request")
        };
        assert_eq!(touches, vec![1, 2, 1]);
        host.resume(0, 0);
    }

    #[test]
    fn touch_flush_threshold_forces_yield() {
        let mut host = Host::spawn(
            "t",
            ProcConfig {
                compute_flush_us: u64::MAX,
                touch_flush: 8,
            },
            |ctx| {
                for i in 0..20 {
                    ctx.touch(i);
                }
                0
            },
        );
        let msg = host.start(0);
        let ProcMsg::Compute { touches, .. } = msg else {
            panic!("expected flush, got {msg:?}")
        };
        assert_eq!(touches.len(), 8);
        let msg = host.resume_compute(0);
        let ProcMsg::Compute { touches, .. } = msg else {
            panic!()
        };
        assert_eq!(touches.len(), 8);
        let msg = host.resume_compute(0);
        let ProcMsg::Exit { touches, .. } = msg else {
            panic!("expected exit with tail touches, got {msg:?}")
        };
        assert_eq!(touches.len(), 4);
    }

    #[test]
    fn now_advances_with_resumes() {
        let mut host = Host::spawn("t", ProcConfig::default(), |ctx| {
            assert_eq!(ctx.now(), 1000);
            ctx.request(0);
            assert_eq!(ctx.now(), 2500);
            0
        });
        let msg = host.start(1000);
        assert!(matches!(msg, ProcMsg::Request { .. }));
        let msg = host.resume(2500, 0);
        assert!(matches!(msg, ProcMsg::Exit { code: 0, .. }));
    }

    #[test]
    fn panicking_body_reports_exit_code_101() {
        let mut host = Host::spawn("t", ProcConfig::default(), |_ctx| panic!("app crashed"));
        let msg = host.start(0);
        let ProcMsg::Exit { code, .. } = msg else {
            panic!("expected exit")
        };
        assert_eq!(code, 101);
    }

    #[test]
    fn dropping_host_mid_request_does_not_hang() {
        let mut host = Host::spawn("t", ProcConfig::default(), |ctx| {
            ctx.request(1);
            0
        });
        let _ = host.start(0);
        drop(host); // must join cleanly, not deadlock
    }

    #[test]
    fn exit_racing_thread_end_reports_the_real_code() {
        // The process thread posts `Exit` and ends right after; the engine
        // must deliver the letter, not read the ended thread as a death
        // (102). Repeat to give the race many chances.
        for i in 0..2_000 {
            let mut host = Host::spawn("t", ProcConfig::default(), move |_ctx| i % 100);
            let msg = host.start(0);
            let ProcMsg::Exit { code, .. } = msg else {
                panic!("expected exit, got {msg:?}")
            };
            assert_eq!(code, i % 100, "iteration {i}");
        }
    }

    #[test]
    fn thread_ending_without_exit_reports_102() {
        // A body torn down without the engine going away ends its thread
        // with no `Exit` letter: the engine synthesizes code 102.
        let mut host = Host::spawn("t", ProcConfig::default(), |_ctx| {
            std::panic::panic_any(SimulationTornDown)
        });
        let msg = host.start(0);
        assert!(matches!(msg, ProcMsg::Exit { code: 102, .. }), "{msg:?}");
        assert!(host.finished());
    }

    #[test]
    fn dropping_host_before_start_or_mid_compute_does_not_hang() {
        drop(Host::spawn("t", ProcConfig::default(), |_ctx| 0));
        for _ in 0..200 {
            // A body that never stops computing: dropped right after a
            // yield, while its thread may still be on the way to parking.
            let mut host = Host::spawn(
                "t",
                ProcConfig {
                    compute_flush_us: 1,
                    touch_flush: 64,
                },
                |ctx| loop {
                    ctx.compute(1);
                },
            );
            assert!(matches!(host.start(0), ProcMsg::Compute { .. }));
            assert!(matches!(host.resume_compute(1), ProcMsg::Compute { .. }));
            drop(host);
        }
    }

    #[test]
    fn resumes_from_threads_other_than_the_spawner() {
        let mut host = Host::spawn("t", ProcConfig::default(), |ctx| {
            let mut sum = 0;
            for i in 0..10 {
                sum += ctx.request(i);
            }
            sum as i32
        });
        // Start on a second thread, then alternate the driving thread.
        let mut msg = std::thread::scope(|s| s.spawn(|| host.start(0)).join().unwrap());
        let mut now = 0;
        while let ProcMsg::Request { call, .. } = msg {
            now += 1;
            msg = if now % 2 == 0 {
                host.resume(now, call * 2)
            } else {
                std::thread::scope(|s| s.spawn(|| host.resume(now, call * 2)).join().unwrap())
            };
        }
        assert!(matches!(msg, ProcMsg::Exit { code: 90, .. }), "{msg:?}");
    }
}
